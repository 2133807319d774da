# the package first: it pins OpenBLAS to one thread, which takes effect only before numpy
# loads OpenBLAS, so the in-process tests fork from one thread as the CLI does
from volterra_cone import scheme  # isort: skip

import os

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail each test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")


@pytest.fixture
def skip_final_half_drift(monkeypatch):
    """Return a switch that makes every step end without its final half drift."""
    step = scheme._strang_step

    def corrupted(state, out, prop, shift, *args):
        counters = step(state, out, prop, shift, *args)
        out[...] = np.linalg.inv(prop) @ (out - shift)
        return counters

    return lambda: monkeypatch.setattr(scheme, "_strang_step", corrupted)
