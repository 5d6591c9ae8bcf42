"""Tests for the secure-rate arithmetic in :mod:`qkdlink.keyrate`."""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, strategies as st
from scipy.stats import entropy as scipy_entropy

from qkdlink import keyrate, linkbudget, sweeps
from qkdlink.keyrate import (
    RateResult,
    _brentq,
    binary_entropy,
    evaluate_point,
    qber_threshold,
    secure_rate,
)
from qkdlink.params import ParameterError, ProtocolConstants

CONSTS = ProtocolConstants(f_ec=1.10)


def entropy2(p: float) -> float:
    # Independent evaluation through scipy's generic Shannon entropy.
    return float(scipy_entropy([p, 1.0 - p], base=2))


class TestBinaryEntropy:
    def test_endpoints_are_exact(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_agrees_with_scipy(self):
        for p in (0.0373, 0.0795, 0.102283, 0.25, 0.49):
            assert binary_entropy(p) == pytest.approx(entropy2(p), rel=1e-12)

    def test_reference_value(self):
        # H(0.0373) evaluated independently once and frozen.
        assert binary_entropy(0.0373) == pytest.approx(0.2297728, abs=1e-6)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetric_and_bounded(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            binary_entropy(-0.01)
        with pytest.raises(ParameterError):
            binary_entropy(1.01)


class TestSecureRate:
    def test_zero_raw_gives_zero(self):
        assert secure_rate(0.0, 0.03, CONSTS) == 0.0

    def test_reference_point(self):
        """Distilled rate for a mid-link operating point, frozen from the
        closed-form relation 0.5 * raw * (1 - 2.1 * H(e))."""
        expected = 0.5 * 3.48e5 * (1.0 - 2.1 * entropy2(0.0795))
        got = secure_rate(3.48e5, 0.0795, CONSTS)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(27688.4, rel=1e-4)

    def test_clamped_to_zero_beyond_threshold(self):
        e_star = qber_threshold(CONSTS)
        assert secure_rate(1e6, e_star + 1e-6, CONSTS) == 0.0
        assert secure_rate(1e6, 0.5, CONSTS) == 0.0

    def test_linear_in_raw_rate(self):
        one = secure_rate(1.0, 0.05, CONSTS)
        assert secure_rate(123456.0, 0.05, CONSTS) == pytest.approx(
            123456.0 * one, rel=1e-12
        )

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_monotone_nonincreasing_in_qber(self, e1, e2):
        lo, hi = sorted((e1, e2))
        assert secure_rate(1e6, lo, CONSTS) >= secure_rate(1e6, hi, CONSTS)

    def test_rejects_negative_raw(self):
        with pytest.raises(ParameterError):
            secure_rate(-1.0, 0.03, CONSTS)


class TestQberThreshold:
    def test_value_for_default_correction_overhead(self):
        assert qber_threshold(CONSTS) == pytest.approx(0.102283, abs=1e-5)

    def test_value_for_shannon_limit_correction(self):
        # With ideal error correction the cutoff sits at the familiar 11.0%.
        ideal = ProtocolConstants(f_ec=1.0)
        assert qber_threshold(ideal) == pytest.approx(0.110028, abs=1e-5)

    def test_threshold_saturates_the_rate_formula(self):
        e_star = qber_threshold(CONSTS)
        assert (1.0 + CONSTS.f_ec) * binary_entropy(e_star) == pytest.approx(
            1.0, abs=1e-10
        )
        assert secure_rate(1e9, e_star - 1e-9, CONSTS) > 0.0

    def test_higher_overhead_lowers_threshold(self):
        loose = qber_threshold(ProtocolConstants(f_ec=1.0))
        tight = qber_threshold(ProtocolConstants(f_ec=1.3))
        assert tight < qber_threshold(CONSTS) < loose


EPS = np.finfo(float).eps

# Bracketed test functions of a root and a scale; tanh and the clipped ramp
# have flat tails, the cubic a flat middle.
FAMILIES = {
    "tanh": lambda root, scale: lambda x: math.tanh(scale * (x - root)),
    "clipped": lambda root, scale: lambda x: max(-1.0, min(1.0, 30.0 * scale * (x - root))),
    "cubic": lambda root, scale: lambda x: scale * (x - root) ** 3 + 1e-3 * (x - root),
    "expm1": lambda root, scale: lambda x: math.expm1(scale * (x - root)),
    "wiggle": lambda root, scale: lambda x: (math.atan(50.0 * scale * (x - root))
                                             + 0.2 * math.sin(3.0 * x)),
    "bump": lambda root, scale: lambda x: (x - root) * math.exp(-scale * x * x),
}


class TestBrentPort:
    """``keyrate._brentq`` against ``scipy.optimize.brentq``: the same root and
    the same points evaluated, bit for bit."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_seeded_brackets_match_scipy(self, family, brent_against_scipy):
        rng = np.random.default_rng(list(FAMILIES).index(family))
        for _ in range(150):
            root, scale = rng.uniform(-2.0, 2.0), rng.uniform(0.01, 5.0)
            a, b = root - rng.uniform(0.0, 3.0), root + rng.uniform(0.0, 3.0)
            if rng.random() < 0.5:
                a, b = b, a
            rtol = float(np.exp(rng.uniform(math.log(4 * EPS), math.log(1e-3))))
            xtol = float(np.exp(rng.uniform(math.log(1e-15), math.log(1e-3))))
            ref, port = brent_against_scipy(FAMILIES[family](root, scale), a, b, xtol, rtol, 100)
            assert port == ref, (root, scale, a, b, xtol, rtol)

    @pytest.mark.parametrize("rtol", [4 * EPS, 1e-9, 1e-3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rtol_range_matches_scipy(self, family, rtol, brent_against_scipy):
        f = FAMILIES[family](0.3, 1.7)
        ref, port = brent_against_scipy(f, -1.9, 2.3, 1e-13, rtol, 100)
        assert port == ref
        assert isinstance(port[0], float)

    @pytest.mark.parametrize("ends", [(0.3, 2.0), (-1.0, 0.3)])
    def test_root_at_an_end_is_returned_unevaluated(self, ends, brent_against_scipy):
        ref, port = brent_against_scipy(FAMILIES["tanh"](0.3, 2.0), *ends, 1e-13, 4 * EPS, 100)
        assert port == ref == (0.3, list(ends))

    def test_exhausted_budget_raises_value_error(self, brent_against_scipy):
        # SciPy raises RuntimeError here; the port raises ValueError, which
        # the fit turns into ConvergenceError like a missing sign change.
        ref, port = brent_against_scipy(FAMILIES["wiggle"](0.3, 1.0), -1.9, 2.3, 1e-13,
                                        4 * EPS, 3)
        assert (ref[0], port[0]) == (RuntimeError, ValueError)
        assert port[1] == ref[1]

    @pytest.mark.parametrize("fa,fb,inside", [(math.nan, 0.5, 0.0), (-0.5, math.nan, 0.0),
                                              (-0.5, 0.5, math.nan)])
    def test_nan_value_raises(self, fa, fb, inside):
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda x: inside, 0.0, 1.0, fa, fb, 1e-13, 4 * EPS, 100)

    @pytest.mark.parametrize("fa,fb", [(1.0, 2.0), (-1.0, -2.0), (1e-200, 1e-200)])
    def test_ends_of_one_sign_raise(self, fa, fb):
        # 1e-200 * 1e-200 underflows to 0: the signs, not the product, decide.
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x, 0.0, 1.0, fa, fb, 1e-13, 4 * EPS, 100)
        with pytest.raises(ValueError, match="different signs"):
            scipy.optimize.brentq(lambda x: fa if x == 0.0 else fb, 0.0, 1.0)

    def test_qber_threshold_matches_scipy_over_f_ec(self, monkeypatch):
        points, key_yield = [], keyrate.key_yield
        monkeypatch.setattr(keyrate, "key_yield",
                            lambda e, consts: points.append(e) or key_yield(e, consts))
        for f_ec in np.linspace(1.0, 3.0, 201):
            consts = ProtocolConstants(f_ec=float(f_ec))
            root = scipy.optimize.brentq(keyrate.key_yield, 1e-15, 0.5, args=(consts,),
                                         xtol=1e-13, rtol=8.9e-16)
            ref = points[:]
            points.clear()
            assert (qber_threshold(consts), points) == (root, ref), f_ec
            points.clear()


class TestRateResult:
    def test_zero_secure_rate_accepted(self):
        # A link past the error threshold yields no key rather than failing.
        dead = RateResult(raw_rate=100.0, qber=0.2, secure_rate=0.0)
        assert dead.secure_rate == 0.0


class TestEvaluatePoint:
    def test_matches_component_calls(self, cfg):
        config = cfg.at_length(5.6)
        result, breakdown = evaluate_point(config)
        clicks = linkbudget.click_probabilities(
            config.source, config.channel, config.receiver
        )
        blocked = linkbudget.effective_blocked_gates(
            config.source, config.channel, config.receiver
        )
        raw = linkbudget.raw_rate(clicks, config.source, blocked_gates=blocked)
        assert result.raw_rate == pytest.approx(raw, rel=1e-12)
        assert result.qber == breakdown.total
        assert result.secure_rate == pytest.approx(
            secure_rate(raw, breakdown.total, config.protocol), rel=1e-12
        )

    def test_long_span_yields_no_key(self, cfg):
        result, _ = evaluate_point(cfg.at_length(110.0))
        assert result.secure_rate == 0.0


class TestBiasOptimization:
    """The bias sweep evaluates the closed-form model on a validated grid."""

    def test_empty_grid_rejected(self, cfg):
        with pytest.raises(ParameterError, match="must not be empty"):
            sweeps.run_bias_sweep(cfg, [])

    def test_out_of_range_bias_rejected(self, cfg):
        with pytest.raises(ParameterError, match="eta grid"):
            sweeps.run_bias_sweep(cfg, [0.05, 1.5])
        with pytest.raises(ParameterError):
            sweeps.run_bias_sweep(cfg, [0.0])

    def test_rows_sorted_and_best_is_max(self, cfg):
        grid = [0.10, 0.02, 0.06, 0.04]
        config = cfg.at_length(5.6)
        table = sweeps.run_bias_sweep(config, grid)
        etas = [row.x for row in table]
        assert etas == sorted(grid)
        for eta, row in zip(etas, table):
            assert (row.rate, row.qber) == evaluate_point(config.at_bias(eta))
        best = max(table, key=lambda row: row.rate.secure_rate)
        assert best.x == 0.06
        assert math.isfinite(best.rate.qber)
