"""Helpers for the tests that count forks: the landscape CSV writers fork,
the trial parser must not."""

import os

import pytest


def fake_cpus(monkeypatch, cpus, children=None):
    """Give the process ``cpus`` CPUs, or no ``os.sched_getaffinity`` when
    None, and return the list of forks made.  With ``children`` 0 a fork
    raises, so a run that passes started no process."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        affinity = lambda pid: set(range(cpus))  # noqa: E731
        monkeypatch.setattr(os, "sched_getaffinity", affinity, raising=False)
    forks = []
    real_fork = os.fork

    def fork():
        if children == 0:
            raise AssertionError("a run meant for one process forked")
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child():
    """The calling process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
