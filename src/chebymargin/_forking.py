"""Forked children that share a process's work across the CPUs it may use.

Each child runs one function with the write end of a pipe to this process
and leaves through ``os._exit``: it must neither return to the caller nor
flush the buffers it inherited, such as stdout's.  Nothing is pickled to
start a child; it inherits the function and its data.
"""

from __future__ import annotations

import os
import warnings


def usable_cpus() -> int:
    """CPUs in this process's affinity mask, or 1 where it cannot be read."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class Children:
    """Context manager owning the children forked through :meth:`start`.

    Leaving the ``with`` block, normally or by an exception, kills and
    reaps every child not yet reaped by :meth:`join`, so none outlives it.
    """

    def __init__(self):
        self._pids: dict = {}  # read end of a child's pipe -> its pid

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._pids:
            import signal  # only here, to keep it out of the package's import time

            for reader, pid in self._pids.items():
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            self._pids.clear()

    def start(self, work):
        """Fork a child that runs ``work(pipe)``, ``pipe`` a binary file
        writing to this process, and return the pipe's read end.

        The child exits with status 0 once ``work`` returns; if it raises,
        the child writes the traceback to stderr and exits with status 1.
        """
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
                    work(pipe)
                status = 0
            except BaseException:
                import traceback

                os.write(2, traceback.format_exc().encode())
            finally:
                os._exit(status)
        os.close(write_fd)
        reader = open(read_fd, "rb")
        self._pids[reader] = pid
        return reader

    def join(self, reader) -> int:
        """Close ``reader``, reap its child and return the child's exit code."""
        reader.close()
        status = os.waitpid(self._pids.pop(reader), 0)[1]
        return os.waitstatus_to_exitcode(status)
