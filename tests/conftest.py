"""Fixtures shared by the tests of the forked workers: the grid's trains,
the table writer's row blocks and the exports formatted while training."""

import os
import signal
import threading

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs this process may use, so that the worker path runs
    on any machine."""

    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return set_cpus


@pytest.fixture
def forks(monkeypatch):
    """The process ids of the workers forked while the test runs."""
    fork, made = os.fork, []

    def counting_fork():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return made


@pytest.fixture
def no_worker_left():
    """Fails the test if it waits for more than 60 s, or if it leaves a child
    process, running or unreaped, or a new thread."""

    def hung(signum, frame):
        raise TimeoutError("still waiting for the workers after 60 s")

    threads = threading.enumerate()
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.enumerate() == threads


@pytest.fixture
def in_workers(monkeypatch):
    """Replaces ``dynlocrep.data.<name>`` by ``failing(original, *args)``
    in every process but this one, for the forked workers to call."""
    import dynlocrep.data as data_module

    parent = os.getpid()

    def install(name, failing):
        original = getattr(data_module, name)

        def replaced(*args):
            if os.getpid() != parent:
                return failing(original, *args)
            return original(*args)

        monkeypatch.setattr(data_module, name, replaced)

    return install


class Exited(Exception):
    """Raised in place of os._exit, so that a worker's side runs in this process."""


@pytest.fixture
def exit_here(monkeypatch):
    """os._exit raises Exited with its code, and SIGINT's handler is restored
    after the test, so that a worker's side of the fork can run here: the
    coverage tool traces no worker."""

    def exit_(code):
        raise Exited(code)

    monkeypatch.setattr(os, "_exit", exit_)
    previous = signal.getsignal(signal.SIGINT)
    yield Exited
    signal.signal(signal.SIGINT, previous)
