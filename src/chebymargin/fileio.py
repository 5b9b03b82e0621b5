"""The atomic writer behind every file the package and its scripts write."""

import errno
import os
from itertools import islice

# Lines per encoded block: a write call costs about as much as formatting a line.
LINES_PER_WRITE = 1024


def encode_lines(lines):
    """``lines``, each followed by a newline, as UTF-8 blocks of ``LINES_PER_WRITE``."""
    lines = iter(lines)
    while chunk := list(islice(lines, LINES_PER_WRITE)):
        yield ("\n".join(chunk) + "\n").encode()


def write_lines_atomic(path: str, lines) -> None:
    """``write_bytes_atomic`` of ``lines``, each followed by a newline."""
    write_bytes_atomic(path, encode_lines(lines))


def write_bytes_atomic(path: str, blocks) -> None:
    """Write the bytes-like ``blocks`` to ``path`` atomically: they stream
    into a temp file of this call's own next to ``path``, renamed over it
    once all are written.  If producing or writing a block raises, the temp
    file is removed, the exception propagates and an existing ``path`` keeps
    its old bytes.  The mode is that of ``open(path, "w")``: 0o666 less the
    umask (mkstemp gives 0o600).  An error creating or renaming the temp
    file names ``path``."""
    tmp, fd = _open_temp(path)
    try:
        with open(fd, "wb") as fh:
            fh.writelines(blocks)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.unlink(tmp)
        raise


def check_writable(path: str) -> None:
    """Raise the ``OSError`` that writing ``path`` would, writing nothing."""
    tmp, fd = _open_temp(path)
    os.close(fd)
    os.unlink(tmp)
    if os.path.isdir(path) and not os.path.islink(path):  # a rename replaces a link
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _open_temp(path: str):
    if not path:  # as ``open("")`` does; its abspath would be the working directory
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}")
    try:
        return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
