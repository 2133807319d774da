import numpy as np
import pytest

from volterra_cone import scheme


@pytest.fixture
def skip_final_half_drift(monkeypatch):
    """Return a switch that makes every step end without its final half drift."""
    step = scheme._strang_step

    def corrupted(state, prop, shift, *args):
        counters = step(state, prop, shift, *args)
        state[...] = np.linalg.inv(prop) @ (state - shift)
        return counters

    return lambda: monkeypatch.setattr(scheme, "_strang_step", corrupted)
