import numpy as np
import pytest

from volterra_cone import scheme


@pytest.fixture
def skip_final_half_drift(monkeypatch):
    """Return a switch that makes every step yield its state without the final half drift."""
    steps = scheme._strang_steps

    def corrupted(state, prop, shift, *args):
        for out, *counters in steps(state, prop, shift, *args):
            yield (out - shift) @ np.linalg.inv(prop).T, *counters

    return lambda: monkeypatch.setattr(scheme, "_strang_steps", corrupted)
