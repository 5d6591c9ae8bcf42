import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from qkdlink.params import (
    SIFT_FACTOR,
    CalibrationParams,
    ChannelParams,
    DetectorParams,
    ParameterError,
    ProtocolConstants,
    ReceiverParams,
    SourceParams,
)

PERIOD = 1e12 / 1.036e9


def make_detector(**overrides):
    base = dict(
        efficiency=0.06, dark_prob=6.6e-6, afterpulse_total=0.06,
        afterpulse_decay=30.0, gate_window=265.0,
        dead_time=7.7, jitter_fwhm=60.0,
    )
    base.update(overrides)
    return DetectorParams(**base)


def make_source(**overrides):
    base = dict(clock_rate=1.036e9, mu=0.2, pulse_sigma0=8.0, spectral_width=0.16)
    base.update(overrides)
    return SourceParams(**base)


class TestSourceParams:
    def test_gate_period_from_clock(self):
        assert make_source().gate_period == pytest.approx(965.2509653, abs=1e-6)

    def test_mu_zero_allowed(self):
        assert make_source(mu=0.0).mu == 0.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("clock_rate", 0.0),
            ("mu", -0.1),
            ("mu", math.inf),
            ("mu", math.nan),
            ("pulse_sigma0", 0.0),
            ("pulse_sigma0", math.nextafter(1e-300, 0.0)),
            ("spectral_width", -1e-9),
            ("side_mode_weight", 1.0),
            ("side_mode_weight", -0.1),
            ("side_mode_offset", -0.5),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ParameterError, match=field):
            make_source(**{field: value})


class TestDetectorParams:
    def test_unit_conversions(self):
        det = make_detector()
        assert det.dead_time_ps == pytest.approx(7700.0)
        assert det.afterpulse_decay_ps == pytest.approx(30000.0)
        # FWHM -> RMS for a Gaussian response
        assert det.jitter_sigma == pytest.approx(60.0 / (2.0 * math.sqrt(2.0 * math.log(2.0))))
        assert det.jitter_sigma == pytest.approx(25.4796, abs=1e-3)

    def test_window_cannot_exceed_period(self, cfg):
        # The gates run on the source clock, so the system config checks this.
        wide = replace(cfg.receiver, detector=make_detector(gate_window=PERIOD + 1.0))
        with pytest.raises(ParameterError, match="gate_window"):
            replace(cfg, receiver=wide)

    @pytest.mark.parametrize(
        "field,value",
        [("efficiency", -0.01), ("efficiency", 1.5), ("dark_prob", -1e-9),
         ("afterpulse_total", 1.0), ("gate_window", 0.0), ("dead_time", -1.0),
         ("jitter_fwhm", -1.0), ("gate_window", math.nextafter(1e-300, 0.0))],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ParameterError):
            make_detector(**{field: value})


class TestDerivedTimes:
    """A finite field can overflow once converted to ps; the object rejects
    it instead of handing an infinite time to the engines."""

    @pytest.mark.parametrize("make,field,value,derived", [
        (make_source, "clock_rate", 1e-300, "source.gate_period"),
        (make_detector, "dead_time", 1e306, "detector.dead_time_ps"),
        (make_detector, "afterpulse_decay", 1e306, "detector.afterpulse_decay_ps"),
    ])
    def test_infinite_derived_time_rejected(self, make, field, value, derived):
        with pytest.raises(ParameterError, match=derived):
            make(**{field: value})


class TestReceiverParams:
    def test_optical_error_combines_visibility_and_modulator(self):
        rec = ReceiverParams(visibility=0.994, mismodulation_error=0.006,
                             detector=make_detector())
        assert rec.optical_error == pytest.approx((1 - 0.994) / 2 + 0.006)
        assert rec.optical_error == pytest.approx(0.009)


class TestProtocolConstants:
    def test_defaults(self):
        assert ProtocolConstants(f_ec=1.10).f_ec == 1.10

    def test_f_ec_below_shannon_limit_rejected(self):
        with pytest.raises(ParameterError):
            ProtocolConstants(f_ec=0.99)

    def test_sift_factor_is_pinned_to_half(self):
        # Basis choices are uniform on both sides; the factor is a constant,
        # not a field that a caller could set to anything else.
        assert SIFT_FACTOR == 0.5
        with pytest.raises(TypeError):
            ProtocolConstants(f_ec=1.10, sift_factor=0.4)


def make_calibration(**overrides):
    base = dict(pa_ref=0.06, pa_ref_eta=0.06, gamma=1.53,
                dark_floor=2.9e-6, dark_floor_eta=0.02, dark_slope=20.7)
    base.update(overrides)
    return CalibrationParams(**base)


class TestCalibrationParams:
    def test_afterpulse_reference_point(self):
        cal = make_calibration()
        assert cal.afterpulse_at(0.06) == pytest.approx(0.06)
        assert cal.afterpulse_at(0.0) == 0.0

    def test_afterpulse_power_law(self):
        cal = make_calibration()
        ratio = cal.afterpulse_at(0.12) / cal.afterpulse_at(0.06)
        assert ratio == pytest.approx(2.0 ** 1.53)

    def test_dark_floor_point(self):
        cal = make_calibration()
        assert cal.dark_at(0.02) == pytest.approx(2.9e-6)
        assert cal.dark_at(0.06) == pytest.approx(2.9e-6 * math.exp(20.7 * 0.04))

    @given(st.floats(min_value=1e-3, max_value=0.5),
           st.floats(min_value=1e-3, max_value=0.5))
    def test_afterpulse_monotone_in_bias(self, e1, e2):
        cal = make_calibration()
        lo, hi = sorted((e1, e2))
        assert cal.afterpulse_at(lo) <= cal.afterpulse_at(hi)

    @given(st.floats(min_value=0.02, max_value=0.5))
    def test_dark_never_below_floor_above_floor_bias(self, eta):
        cal = make_calibration()
        assert cal.dark_at(eta) >= cal.dark_floor - 1e-18


class TestSystemConfig:
    def test_clock_period_must_exceed_window(self, cfg):
        # At 5 GHz the 200 ps clock period is shorter than the 265 ps window.
        with pytest.raises(ParameterError, match="gate_window"):
            replace(cfg, source=replace(cfg.source, clock_rate=5e9))

    def test_at_length_keeps_compensation_by_default(self, cfg):
        moved = cfg.at_length(40.0)
        assert moved.channel.length == 40.0
        assert moved.channel.compensated == cfg.channel.compensated
        assert cfg.channel.length == 5.6  # original untouched

    def test_at_length_can_flip_compensation(self, cfg):
        assert cfg.at_length(75.8, compensated=True).channel.compensated is True

    def test_at_bias_rebuilds_both_detectors(self, cfg):
        rebiased = cfg.at_bias(0.10)
        cal = cfg.calibration
        det = rebiased.receiver.detector
        assert det.efficiency == 0.10
        assert det.dark_prob == pytest.approx(cal.dark_at(0.10))
        assert det.afterpulse_total == pytest.approx(cal.afterpulse_at(0.10))

    def test_at_bias_identity_at_operating_point(self, cfg):
        same = cfg.at_bias(cfg.receiver.detector.efficiency)
        assert same.receiver.detector.dark_prob == pytest.approx(
            cfg.receiver.detector.dark_prob, rel=1e-12
        )

    def test_channel_validation(self):
        with pytest.raises(ParameterError):
            ChannelParams(length=-1.0, attenuation=0.195, dispersion=17.0)
        with pytest.raises(ParameterError):
            ChannelParams(length=10.0, attenuation=-0.1, dispersion=17.0)

    @pytest.mark.parametrize("field", ["length", "attenuation", "dispersion"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_channel_rejects_non_finite(self, field, value):
        values = {"length": 10.0, "attenuation": 0.195, "dispersion": 17.0}
        values[field] = value
        with pytest.raises(ParameterError, match=f"channel.{field}"):
            ChannelParams(**values)
