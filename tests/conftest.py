import os
from pathlib import Path

import numpy as np
import pytest

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
    does)."""
    yield
    if hasattr(os, "waitid") and _has_child():
        pytest.fail("the test left a child process of the test process")
