"""Helpers for the tests of forked replicate batches (``rng.run_batch``):
how many CPUs a batch sees, how many children it forks, whether it left
one behind, and the observers and limits that keep it in-process."""

from __future__ import annotations

import cProfile
import errno
import os
import sys
import threading

import pytest


def count_forks(monkeypatch, cpus):
    """Let batches see ``cpus`` CPUs; return a list whose length counts
    the children forked from here on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def profiled(run):
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()


def traced(run):
    sys.settrace(lambda frame, event, arg: None)
    try:
        run()
    finally:
        sys.settrace(None)


def with_a_second_thread(run):
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        run()
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()


OBSERVERS = [profiled, traced, with_a_second_thread]
LIMITS = ["pipe", "first-fork", "second-fork"]


def refuse(monkeypatch, fails):
    """Make ``os.pipe`` or the first or second ``os.fork`` from here on
    fail as a descriptor or process limit does."""
    fork, calls = os.fork, []

    def limited_fork():
        calls.append(1)
        if fails == "first-fork" or len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    def no_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(os, "fork", limited_fork)
    if fails == "pipe":
        monkeypatch.setattr(os, "pipe", no_pipe)


def open_fds():
    """The number of open descriptors, or None where /proc does not say."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
