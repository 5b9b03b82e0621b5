"""Tests for the child-process protocol on its own: a child's bytes in
order, a child's failure, and no child or pipe end left behind."""

import errno
import os
from itertools import islice

import pytest

from conftest import assert_no_child

from chebymargin import _forking

# 1 MiB is more than a pipe's buffer holds, so the child blocks on it until
# the parent reads.
BIG = bytes(range(256)) * 4096


@pytest.fixture
def pipes(monkeypatch):
    """The descriptor pairs of the pipes made while the test runs."""
    made = []
    real_pipe = os.pipe

    def pipe():
        made.append(real_pipe())
        return made[-1]

    monkeypatch.setattr(os, "pipe", pipe)
    return made


def assert_closed(pipes):
    """Both ends of each pipe are closed in this process."""
    assert pipes
    for fd in (fd for ends in pipes for fd in ends):
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF


def test_bytes_arrive_in_order(pipes):
    sent = [b"", bytearray(b"x"), memoryview(BIG), b"", b"last"]
    with _forking.Children() as children:
        received = b"".join(children.start(lambda: sent, "sending blocks"))
        assert_no_child()
    assert received == b"x" + BIG + b"last"
    assert_closed(pipes)


@pytest.mark.parametrize("k", [0, 2])
def test_work_that_raises_gives_its_bytes_then_fails(capfd, k):
    def work():
        yield from [b"a", BIG][:k]
        raise RuntimeError("work failed")

    received = bytearray()
    with _forking.Children() as children:
        chunks = children.start(work, "the test's work")
        message = r"^the test's work failed in a child process \(exit status 1\)$"
        with pytest.raises(ChildProcessError, match=message):
            for chunk in chunks:
                received += chunk
        assert_no_child()
    assert received == b"".join([b"a", BIG][:k])
    assert "RuntimeError: work failed" in capfd.readouterr().err


@pytest.mark.parametrize("read", [0, 1])
def test_bytes_not_all_read_leave_no_child_and_no_pipe_end(pipes, read):
    with _forking.Children() as children:
        chunks = children.start(lambda: [b"a", BIG, b"c"], "unread work")
        assert len(list(islice(chunks, read))) == read
    assert_no_child()
    assert_closed(pipes)


def test_a_fork_that_fails_closes_both_pipe_ends(monkeypatch, pipes):
    def fork():
        raise BlockingIOError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", fork)
    with _forking.Children() as children:
        with pytest.raises(BlockingIOError, match="fork refused"):
            children.start(lambda: [b"a"], "unforked work")
    assert len(pipes) == 1
    assert_closed(pipes)
    assert_no_child()
