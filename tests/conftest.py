import numpy as np
import pytest
import scipy.optimize

from qkdlink.config import default_config
from qkdlink.keyrate import _brentq


@pytest.fixture(scope="session")
def cfg():
    """Shipped calibrated configuration (5.6 km, uncompensated, eta 6%)."""
    return default_config()


def _scan_stream_invariants(result, config):
    """Exhaustive physical-consistency scan of one simulation result.

    Checks, on every emitted tag: the hold-off separation per detector,
    timestamps confined to the gate window, at most one tag per clock
    cycle, and clock indices inside the simulated range.
    """
    tags = result.tags
    period = config.source.gate_period
    det = config.receiver.detector
    half_window = 0.5 * det.gate_window
    center = 0.5 * period

    n_pulses = len(result.record)
    assert tags.clock_index.size == 0 or tags.clock_index.max() < n_pulses

    in_window = np.abs(tags.timestamp - center) <= half_window + 1e-6
    assert bool(in_window.all()), "tag outside the detector gate window"

    clocks = tags.clock_index.astype(np.int64)
    assert np.all(np.diff(clocks) > 0), "more than one tag per clock cycle"

    times = tags.clock_index.astype(np.float64) * tags.meta["gate_period_ps"] + tags.timestamp
    for det_id in (0, 1):
        mine = times[tags.detector_id == det_id]
        if mine.size > 1:
            gaps = np.diff(np.sort(mine))
            assert gaps.min() >= det.dead_time_ps - 1e-6, (
                f"detector {det_id} violated its hold-off: {gaps.min()} ps"
            )


@pytest.fixture(scope="session")
def scan_stream_invariants():
    return _scan_stream_invariants


def _brent_against_scipy(f, a, b, xtol, rtol, maxiter):
    """Solve ``f`` on [a, b] with ``scipy.optimize.brentq`` (the reference)
    and with the library's port, handed ``f(a)`` and ``f(b)``.  Returns each
    one's ``(root or exception type, points evaluated)``; the port's list
    starts with the two ends it was handed."""
    def run(solve):
        points = []

        def g(x):
            points.append(x)
            return f(x)

        try:
            return solve(g), points
        except (ValueError, RuntimeError) as exc:
            return type(exc), points

    return (
        run(lambda g: scipy.optimize.brentq(g, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)),
        run(lambda g: _brentq(g, a, b, g(a), g(b), xtol, rtol, maxiter)),
    )


@pytest.fixture(scope="session")
def brent_against_scipy():
    return _brent_against_scipy
