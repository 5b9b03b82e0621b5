"""Tests for the child-process protocol on its own: frames in order, a
child's failure, and no child left behind."""

import errno
import os
from itertools import islice

import pytest

from conftest import assert_no_child

from chebymargin import _forking

# 1 MiB is more than a pipe's buffer holds, so the child blocks on it until
# the parent reads.
BIG = bytes(range(256)) * 4096


def test_frames_arrive_in_order_as_writable_bytearrays():
    sent = [b"", bytearray(b"x"), memoryview(BIG), b"last"]
    with _forking.Children() as children:
        frames = list(children.start(lambda: sent, "sending frames"))
        assert_no_child()
    assert [bytes(frame) for frame in frames] == [bytes(frame) for frame in sent]
    assert all(type(frame) is bytearray for frame in frames)


@pytest.mark.parametrize("k", [0, 2])
def test_work_that_raises_gives_its_frames_then_fails(capfd, k):
    def work():
        yield from [b"a", BIG][:k]
        raise RuntimeError("work failed")

    received = []
    with _forking.Children() as children:
        frames = children.start(work, "the test's work")
        message = r"^the test's work failed in a child process \(exit status 1\)$"
        with pytest.raises(ChildProcessError, match=message):
            received.extend(bytes(frame) for frame in frames)
        assert_no_child()
    assert received == [b"a", BIG][:k]
    assert "RuntimeError: work failed" in capfd.readouterr().err


@pytest.mark.parametrize("drained", [0, 1])
def test_frames_not_drained_leave_no_child(drained):
    with _forking.Children() as children:
        frames = children.start(lambda: [b"a", BIG, b"c"], "unread work")
        assert len(list(islice(frames, drained))) == drained
    assert_no_child()


def test_a_fork_that_fails_closes_both_pipe_ends(monkeypatch):
    pipes = []
    real_pipe = os.pipe

    def pipe():
        pipes.append(real_pipe())
        return pipes[-1]

    def fork():
        raise BlockingIOError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    with _forking.Children() as children:
        with pytest.raises(BlockingIOError, match="fork refused"):
            children.start(lambda: [b"a"], "unforked work")
    [ends] = pipes
    for fd in ends:
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF
    assert_no_child()
