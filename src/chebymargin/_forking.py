"""Forked children that share a process's work across the CPUs it may use.

A child inherits one function, ``work()``, and its data; nothing is
pickled.  It writes each bytes-like block ``work()`` returns to a pipe as it
is, which the parent reads back as one stream of bytes, and leaves through
``os._exit``: it must neither return to the caller nor flush the buffers it
inherited, such as stdout's.
"""

import os
import warnings
from functools import partial


def usable_cpus() -> int:
    """CPUs in this process's affinity mask, or 1 where it cannot be read."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class Children:
    """Context manager owning the children forked through :meth:`start`.

    Leaving the ``with`` block, normally or by an exception, kills and
    reaps every child whose bytes were not all read, so none outlives it.
    """

    def __enter__(self):
        self._pids: dict = {}  # read end of a child's pipe -> its pid
        return self

    def __exit__(self, *exc_info):
        if self._pids:
            import signal  # only here, to keep it out of the package's import time

            for reader, pid in self._pids.items():
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            self._pids.clear()

    def start(self, work, what: str):
        """Fork a child that writes each bytes-like block ``work()`` returns
        to a pipe, and return an iterator over the bytes read back, in order,
        that closes the pipe and reaps the child once they end.  If ``work``
        raises, the child writes the traceback to stderr and exits with
        status 1; a non-zero exit status raises ``ChildProcessError`` naming
        ``what``."""
        read_fd, write_fd = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns that fork() in a multi-threaded process
                # may deadlock the child, and OpenBLAS's worker pool makes
                # every numpy process multi-threaded.  OpenBLAS stops its pool
                # at fork, and a child calls no BLAS and leaves via os._exit.
                warnings.filterwarnings(
                    "ignore",
                    r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                    DeprecationWarning,
                )
                pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as pipe:
                    pipe.writelines(work())
                status = 0
            except BaseException:
                import traceback

                os.write(2, traceback.format_exc().encode())
            finally:
                os._exit(status)
        os.close(write_fd)
        reader = open(read_fd, "rb")
        self._pids[reader] = pid
        return self._read(reader, what)

    def _read(self, reader, what: str):
        # Buffered reads give whole chunks but the last; reads cut short fragmented the heap.
        yield from iter(partial(reader.read, 1 << 16), b"")
        reader.close()
        status = os.waitstatus_to_exitcode(os.waitpid(self._pids.pop(reader), 0)[1])
        if status:
            raise ChildProcessError(f"{what} failed in a child process (exit status {status})")

