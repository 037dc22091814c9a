import errno
import functools
import os
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from spikessm import procs
from spikessm.procs import BLAS_THREAD_VARS
from spikessm.tensor import dtype_scope

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="session", autouse=True)
def src_on_child_pythonpath():
    """Child processes that tests start (CLI runs) import the package from
    the source tree too, as pyproject's ``pythonpath`` makes this one do."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def identity_neuron(monkeypatch):
    """Make the neuron of every model the identity with unit gradient, so
    a spiking model computes exactly what its dense counterpart does."""
    from spikessm import mamba2
    monkeypatch.setattr(mamba2, "neuron_forward", lambda cfg, x: x)
    monkeypatch.setattr(mamba2, "quantize", lambda cfg, x: x)


@pytest.fixture
def f64():
    """Run the test body at 64-bit precision (gradient-check mode)."""
    with dtype_scope("float64"):
        yield


def _has_child() -> bool:
    """Whether this process has a child, running or exited but unreaped
    (one exited child is reaped, so the next test does not see it)."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """A test reaps every child process it starts (``subprocess.run``
    does). An ``eval_ppl`` row helper lives as long as its model, which
    a test may keep (a cached fixture's), so every helper is closed
    first, through ``procs.close_all``."""
    yield
    procs.close_all()
    if hasattr(os, "waitid") and _has_child():
        pytest.fail("the test left a child process of the test process")


@pytest.fixture
def forks(monkeypatch):
    """A host where a second process fits (two CPUs, one BLAS thread), so
    ``procs.Child`` forks, and the pids of the children ``os.fork`` made
    in the test."""
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    fork, pids = os.fork, []

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def exit_codes(monkeypatch):
    """The exit code of each child ``os.waitpid`` reaps in the test."""
    wait, codes = os.waitpid, []

    def waitpid(pid, options):
        pid, status = wait(pid, options)
        codes.append(os.waitstatus_to_exitcode(status))
        return pid, status

    monkeypatch.setattr(os, "waitpid", waitpid)
    return codes


@contextmanager
def _without_a_child(block: str):
    undo = lambda: None
    with pytest.MonkeyPatch.context() as mp:
        if block == "one cpu":
            mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            mp.setattr(os, "cpu_count", lambda: 1)
        elif block == "blas on every cpu":
            mp.delenv("OPENBLAS_NUM_THREADS")
        elif block == "another thread":
            stop = threading.Event()
            worker = threading.Thread(target=stop.wait)
            worker.start()

            def undo():
                stop.set()
                worker.join(timeout=10)
                assert not worker.is_alive()
        elif block == "no fork":
            mp.delattr(os, "fork")
        elif block == "fork fails":
            def fork():
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

            mp.setattr(os, "fork", fork)
        elif block == "no fds":
            resource = pytest.importorskip("resource")
            soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
            lowest_free = os.open(os.devnull, os.O_RDONLY)
            os.close(lowest_free)
            # one descriptor left: a pipe needs two
            resource.setrlimit(resource.RLIMIT_NOFILE, (lowest_free + 1, hard))

            def undo():
                resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        try:
            yield
        finally:
            undo()


@pytest.fixture(params=["one cpu", "blas on every cpu", "another thread", "no fork",
                        "fork fails", "no fds"])
def no_child(request, forks):
    """``with no_child(): ...`` runs its block where ``procs.Child`` forks
    no child, for each reason there is: the fork rule does not hold (one
    CPU; BLAS unset, so on every CPU; another Python thread runs),
    ``os.fork`` is missing, it raises ``EAGAIN``, or ``os.pipe`` raises
    ``EMFILE`` (the descriptor limit lowered to leave one)."""
    return functools.partial(_without_a_child, request.param)
