"""Tests for the staged anchor-fitting procedure."""

import dataclasses
import hashlib
import math

import pytest

from qkdlink import keyrate, linkbudget
from qkdlink.calibrate import (
    CalibrationAnchors,
    ConvergenceError,
    _Fitter,
    calibrate,
)
from qkdlink.cli import main
from qkdlink.config import save_config
from qkdlink.params import ParameterError

# Calibration sweeps a handful of scipy root finds per iteration; run the
# expensive full fits once per module.


@pytest.fixture(scope="module")
def fitted(cfg):
    return calibrate(cfg)


class TestIdempotency:
    def test_refit_returns_the_shipped_couplings(self, cfg, fitted):
        """Calibrating the already-calibrated config must be a no-op."""
        config, report = fitted
        shipped = {
            "spectral_width": cfg.source.spectral_width,
            "side_mode_weight": cfg.source.side_mode_weight,
            "side_mode_offset": cfg.source.side_mode_offset,
            "dark_slope": cfg.calibration.dark_slope,
            "pa_ref": cfg.calibration.pa_ref,
            "gamma": cfg.calibration.gamma,
        }
        for name, before in shipped.items():
            after = report.fitted[name]
            assert after == pytest.approx(before, rel=1e-6), name

    def test_operating_point_preserved(self, cfg, fitted):
        config, _ = fitted
        assert config.channel == cfg.channel
        assert config.receiver.detector.efficiency == cfg.receiver.detector.efficiency
        assert config.protocol == cfg.protocol


class TestResiduals:
    def test_exactly_fitted_anchors_are_tight(self, fitted):
        _, report = fitted
        r = report.residuals
        assert abs(r["slope_db_per_km"]) < 1e-6
        assert abs(r["interclock_65.5km"]) < 1e-6
        assert abs(r["interclock_75.8km"]) < 1e-6
        assert abs(r["qber_low_bias"]) < 1e-6

    def test_compensated_qber_residuals_balance(self, fitted):
        # One scalar (the dark-count slope) serves two anchors; the fit
        # splits the misfit evenly between them instead of zeroing either.
        _, report = fitted
        pair = (
            report.residuals["qber_compensated_75.8km"],
            report.residuals["qber_compensated_101.1km"],
        )
        assert abs(sum(pair)) < 1e-6
        assert all(abs(x) < 0.012 for x in pair)

    def test_secure_rate_residuals_within_band(self, fitted):
        _, report = fitted
        for key in ("secure_rel_5.6km", "secure_rel_25.3km", "secure_rel_65.5km"):
            assert abs(report.residuals[key]) < 0.15, key

    def test_regression_slope_matches_two_point_slope(self, fitted):
        _, report = fitted
        assert abs(report.residuals["slope_regression_db_per_km"]) < 0.005


class TestDiagnostics:
    def test_high_bias_afterpulse_warning(self, fitted):
        """The power-law extrapolation overshoots the characterization
        ceiling at 10% bias, and the report must say so."""
        _, report = fitted
        assert any("afterpulse" in w for w in report.warnings)

    def test_dark_ceiling_warning(self, cfg, fitted):
        _, report = fitted
        assert not any("dark-count" in w for w in report.warnings)
        _, report = calibrate(cfg, dataclasses.replace(CalibrationAnchors(), dark_ceiling=1e-9))
        assert any("dark-count coupling extrapolates" in w for w in report.warnings)

    def test_summary_is_readable(self, fitted):
        _, report = fitted
        text = report.summary()
        assert "converged" in text
        assert "spectral_width" in text
        assert "warning:" in text


class TestRecalibration:
    def test_unreachable_anchor_raises(self, cfg):
        absurd = dataclasses.replace(CalibrationAnchors(), slope_db_per_km=5.0)
        with pytest.raises(ConvergenceError):
            calibrate(cfg, absurd)

    def test_steeper_slope_needs_wider_spectrum(self, cfg, fitted):
        _, base_report = fitted
        steeper = dataclasses.replace(CalibrationAnchors(), slope_db_per_km=0.25)
        _, report = calibrate(cfg, steeper)
        assert report.fitted["spectral_width"] > base_report.fitted["spectral_width"]
        assert abs(report.residuals["slope_db_per_km"]) < 1e-6


class TestInputValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("slope_db_per_km", math.nan),
            ("qber_low", math.inf),
            ("slope_lengths", (5.6, math.nan)),
            ("secure", ((5.6, 2.37e6), (25.3, -math.inf))),
        ],
    )
    def test_non_finite_anchor_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            dataclasses.replace(CalibrationAnchors(), **{field: value})

    @pytest.mark.parametrize(
        "field,value", [("qber_low_eta", 0.06), ("slope_lengths", (5.6, 5.6))]
    )
    def test_degenerate_anchor_rejected(self, field, value):
        # Equal biases or equal lengths leave the bias exponent or the dark
        # slope undetermined; the fit would divide by zero.
        with pytest.raises(ParameterError, match=field):
            dataclasses.replace(CalibrationAnchors(), **{field: value})


def perturbed(cfg, spectral_width, side_mode_weight, side_mode_offset,
              dark_slope, pa_ref, gamma):
    """``cfg`` with each fitted coupling scaled by the given factor."""
    source = dataclasses.replace(
        cfg.source,
        spectral_width=cfg.source.spectral_width * spectral_width,
        side_mode_weight=cfg.source.side_mode_weight * side_mode_weight,
        side_mode_offset=cfg.source.side_mode_offset * side_mode_offset,
    )
    calibration = dataclasses.replace(
        cfg.calibration,
        dark_slope=cfg.calibration.dark_slope * dark_slope,
        pa_ref=cfg.calibration.pa_ref * pa_ref,
        gamma=cfg.calibration.gamma * gamma,
    )
    return dataclasses.replace(cfg, source=source, calibration=calibration)


class TestFitReport:
    def test_trace_records_each_sweep(self, cfg):
        start = perturbed(cfg, 1.1, 1.1, 1.1, 1.1, 1.1, 1.1)
        tol = 1e-9
        _, report = calibrate(start, tol=tol)
        assert report.iterations > 1
        assert len(report.trace) == report.iterations
        assert report.trace[-1] < tol
        assert all(change >= tol for change in report.trace[:-1])


class TestAnalyticOutputPin:
    """Byte pin of the analytic engine: refit from a perturbed start, then
    both sweeps from the refit.

    The digests were recorded before the fitter and the link-budget kernels
    began reusing earlier results; a change that moves them changes what
    the analytic engine computes, not only how fast.
    """

    DIGESTS = {
        "refit.cfg": "c8788403c5262cd29e00dbfeeee5c671979a436da8d2327ab7c43b1b694871f7",
        "distance.csv": "3c6532adb9f94182d849fa56ab20afc25ad38e4b7525f84730837fbf009fa63c",
        "bias.csv": "a7f99223fc4c808f52f8a1ecfd86eb7051308134439d21f2fe558903ccaf1a47",
    }

    def test_refit_and_sweep_digests(self, cfg, tmp_path, capsys):
        start = tmp_path / "start.cfg"
        save_config(perturbed(cfg, 1.13, 0.88, 1.05, 0.92, 1.12, 0.87), start)
        refit = tmp_path / "refit.cfg"
        assert main(["calibrate", "--config", str(start), "--out", str(refit)]) == 0
        for command, name in (("sweep-distance", "distance.csv"), ("sweep-bias", "bias.csv")):
            assert main([command, "--config", str(refit), "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.DIGESTS
        }
        assert digests == self.DIGESTS


class TestFloatPath:
    """The fitter evaluates its stages on plain floats; every number a stage
    computes must equal, bit for bit, the public model on the validated
    config with the same couplings."""

    @pytest.fixture(params=["shipped", "perturbed"])
    def start(self, request, cfg):
        if request.param == "shipped":
            return cfg
        return perturbed(cfg, 1.13, 0.88, 1.05, 0.92, 1.12, 0.87)

    def test_stage_numbers_match_the_public_model(self, start):
        anchors = CalibrationAnchors()
        fitter = _Fitter(start, anchors)
        eta = anchors.operating_eta
        assert start.calibration.pa_ref_eta == eta

        def point(length, compensated=False, bias=eta):
            return keyrate.evaluate_point(start.at_bias(bias).at_length(length, compensated))

        dark, afterpulse = fitter._noise(eta)
        assert fitter._slope_rates(dark) == [
            point(length)[0].raw_rate for length in anchors.slope_lengths
        ]
        for length, _ in anchors.interclock:
            config = start.at_bias(eta).at_length(length)
            _, expected = linkbudget.link_timing(config.source, config.channel, config.receiver)
            assert fitter._interclock(length) == expected
        assert fitter._compensated_qber()(dark, afterpulse) == [
            point(length, compensated=True)[1].total for length, _ in anchors.compensated_qber
        ]
        assert fitter._secure_rates()(afterpulse) == [
            point(length)[0].secure_rate for length, _ in anchors.secure
        ]
        e_opt, _, e_dark, e_interclock, _ = fitter._low_bias_errors()
        _, low = point(anchors.qber_low_length, bias=anchors.qber_low_eta)
        assert (e_opt, e_dark, e_interclock) == (low.e_opt, low.e_dark, low.e_interclock)


class TestNoRepeatedWork:
    def test_side_mode_stage_evaluates_each_profile_once(self, cfg, monkeypatch):
        # brentq re-evaluates the ends of its bracket; the stage hands it the
        # values it already has, at both levels of its nested solve.
        calls = []
        timing = linkbudget._profile_timing
        monkeypatch.setattr(linkbudget, "_profile_timing",
                            lambda *args: calls.append(args) or timing(*args))
        _Fitter(perturbed(cfg, 1.1, 0.9, 1.1, 0.9, 1.1, 0.9),
                CalibrationAnchors()).stage_side_mode()
        assert 0 < len(set(calls)) == len(calls)


class TestErrorPaths:
    """Anchors the model cannot meet fail with the error, and name the
    field, that building the trial's config would."""

    @pytest.mark.parametrize(
        "changes,error,field",
        [
            ({"operating_eta": 0.9}, ConvergenceError, "detector.dark_prob"),
            ({"operating_eta": 0.5}, ConvergenceError, "no solution"),
            ({"qber_low_eta": 0.9}, ParameterError, "detector.dark_prob"),
            ({"operating_eta": 0.0}, ConvergenceError, "calibration.pa_ref_eta"),
            ({"qber_low_eta": 0.5}, ParameterError, "detector.afterpulse_total"),
            # The first sweep's bias exponent comes out negative; the next
            # sweep rejects it.
            ({"qber_low_eta": 0.07}, ConvergenceError, "calibration.gamma"),
            ({"interclock": ((65.5, 0.4), (75.8, 0.45))}, ConvergenceError,
             "admit no \\(weight, offset\\) pair"),
            ({"qber_low": 0.005}, ConvergenceError, "bias exponent"),
        ],
    )
    def test_unreachable_anchor(self, cfg, changes, error, field):
        anchors = dataclasses.replace(CalibrationAnchors(), **changes)
        with pytest.raises(error, match=field):
            calibrate(cfg, anchors)

    def test_unsettled_fixed_point_raises(self, cfg):
        with pytest.raises(ConvergenceError, match="did not settle in 1 sweeps"):
            calibrate(perturbed(cfg, 1.1, 1.0, 1.0, 1.0, 1.0, 1.0), max_iter=1)

    def test_trials_do_not_build_validated_configs(self, cfg, monkeypatch):
        # Only residuals() evaluates through validated configs (11 points);
        # a fit that routed its trials through them would make thousands.
        calls = []
        evaluate = keyrate.evaluate_point
        monkeypatch.setattr(keyrate, "evaluate_point",
                            lambda config: calls.append(config) or evaluate(config))
        calibrate(cfg)
        assert 0 < len(calls) <= 30
