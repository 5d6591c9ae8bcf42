"""Tests for the secure-rate arithmetic in :mod:`qkdlink.keyrate`."""

import math

import pytest
from hypothesis import given, strategies as st
from scipy.stats import entropy as scipy_entropy

from qkdlink import linkbudget, sweeps
from qkdlink.keyrate import (
    RateResult,
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


class TestRateResult:
    def test_secure_rate_cannot_exceed_sifted_rate(self):
        with pytest.raises(ParameterError):
            RateResult(raw_rate=100.0, qber=0.0, secure_rate=60.0)

    def test_negative_secure_rate_rejected(self):
        with pytest.raises(ParameterError):
            RateResult(raw_rate=100.0, qber=0.03, secure_rate=-1.0)

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
