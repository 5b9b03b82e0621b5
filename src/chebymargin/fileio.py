"""The atomic line writer behind every file the package and its scripts write."""

import os
from itertools import islice

# Lines per write call: a call costs about as much as formatting a line.
LINES_PER_WRITE = 1024


def write_lines_atomic(path: str, lines) -> None:
    """Write ``lines``, each followed by a newline, to ``path`` atomically.

    The lines stream into a temp file of this call's own next to ``path``,
    which is renamed over ``path`` once all are written.  If producing or
    writing a line raises, the temp file is removed, the exception
    propagates and an existing ``path`` keeps its old bytes.  The mode is
    that of ``open(path, "w")``: 0o666 less the umask (mkstemp gives 0o600).
    An error creating or renaming the temp file names ``path``.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            lines = iter(lines)
            while chunk := list(islice(lines, LINES_PER_WRITE)):
                fh.write("\n".join(chunk) + "\n")
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.unlink(tmp)
        raise
