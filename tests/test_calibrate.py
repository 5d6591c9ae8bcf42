"""Tests for the staged anchor-fitting procedure."""

import dataclasses
import hashlib
import importlib
import math

import numpy as np
import pytest
import scipy.optimize

from qkdlink import keyrate, linkbudget
from qkdlink.calibrate import (
    _STATE_FIELDS,
    CalibrationAnchors,
    ConvergenceError,
    _anderson,
    _Fitter,
    calibrate,
)
from qkdlink.cli import main
from qkdlink.config import load_config, save_config
from qkdlink.params import ParameterError

# The package exports the function under the module's name.
fit_module = importlib.import_module("qkdlink.calibrate")

# Calibration sweeps a handful of Brent root finds per iteration; run the
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

    def test_residuals_are_the_anchor_misfits_alone(self, fitted):
        _, report = fitted
        assert list(report.residuals) == [
            "slope_db_per_km", "slope_regression_db_per_km",
            "interclock_65.5km", "interclock_75.8km",
            "qber_compensated_75.8km", "qber_compensated_101.1km",
            "secure_rel_5.6km", "secure_rel_25.3km", "secure_rel_65.5km",
            "qber_low_bias",
        ]


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

    @pytest.mark.parametrize("slope", [0.255, 0.26, 0.265])
    def test_reachable_steep_slope_settles(self, cfg, slope):
        # A bounded search placed the afterpulse reference only to about
        # sqrt(eps) relative, coarser than the stop rule, and these fits
        # stalled on its noise (57 and 25 sweeps, then none in 60).
        _, report = calibrate(cfg, dataclasses.replace(CalibrationAnchors(),
                                                       slope_db_per_km=slope))
        assert report.iterations <= 15
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
        "field,value",
        [
            ("qber_low_eta", 0.06),
            ("slope_lengths", (5.6, 5.6)),
            ("interclock", ((65.5, 0.021), (75.8, 0.105), (80.0, 0.2))),
            ("interclock", ((65.5, 0.021),)),
            ("interclock", ((65.5, 0.021), (75.8,))),
            ("secure", ((5.6, 2.37e6),)),
            ("compensated_qber", ()),
            ("slope_lengths", (5.6,)),
            ("slope_lengths", (5.6, 25.3, 65.5)),
            ("secure", ((5.6, 0.0), (25.3, 6.84e5), (65.5, 2.79e4))),
            ("operating_eta", 0.0),
            ("operating_eta", 2.0),
            ("qber_low_eta", -0.02),
            ("pa_ceiling_eta", -0.1),
            ("slope_lengths", (-5.6, 65.5)),
            ("qber_low_length", -5.6),
            ("interclock", ((-65.5, 0.021), (75.8, 0.105))),
            ("compensated_qber", ((75.8, 0.063), (-101.1, 0.078))),
            ("secure", ((5.6, 2.37e6), (-25.3, 6.84e5), (65.5, 2.79e4))),
            ("secure", ((25.3, 6.84e5), (25.3, 6.84e5))),
        ],
    )
    def test_degenerate_anchor_rejected(self, field, value):
        # Equal biases or equal lengths leave the bias exponent or the dark
        # slope undetermined; the fit would divide by zero.  The side mode
        # meets exactly two wrong-clock points, the raw-rate slope spans
        # exactly two lengths, a slope needs two secure rates and the dark
        # slope at least one compensated QBER.  The secure-rate misfits are
        # relative, so a secure rate must be positive.  Biases are detector
        # efficiencies in (0, 1], lengths are never negative, and the
        # secure rates' slope regression needs one rate per length.
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
        tol = fit_module._TOL
        _, report = calibrate(start)
        assert report.iterations > 1
        assert len(report.trace) == report.iterations
        assert report.trace[-1] < tol
        assert all(change >= tol for change in report.trace[:-1])


START = (1.13, 0.88, 1.05, 0.92, 1.12, 0.87)


CONVERGENCE_STARTS = [
    START,
    (1.15, 0.85, 1.15, 0.85, 1.15, 0.85),
    (0.85, 1.15, 0.85, 1.15, 0.85, 1.15),
    (0.86, 0.86, 0.86, 1.14, 1.14, 1.14),
]


def couplings(config):
    """The six fitted couplings of ``config`` by name."""
    return _Fitter(config, CalibrationAnchors()).state


class TestConvergenceRate:
    """Anderson mixing of the sweeps reaches the fixed point in a third of
    the plain iteration's sweeps (31 from ``START``), for the same fit."""

    @pytest.mark.parametrize("factors", CONVERGENCE_STARTS)
    def test_perturbed_start_recovers_shipped_couplings(self, cfg, factors):
        _, report = calibrate(perturbed(cfg, *factors))
        assert report.iterations <= 15
        for name, shipped in couplings(cfg).items():
            assert report.fitted[name] == pytest.approx(shipped, rel=1e-8), name

    @pytest.mark.parametrize("factors", CONVERGENCE_STARTS)
    def test_every_solve_matches_scipy_brentq(self, cfg, factors, monkeypatch,
                                              brent_against_scipy):
        # Each solve is replayed through SciPy's brentq and the port at the
        # moment the fit makes it, so both see the fitter's state of then.
        port, solves = keyrate._brentq, []

        def checked(f, a, b, fa, fb, *args):
            ref, mine = brent_against_scipy(f, a, b, *args)
            solves.append(mine == ref and (fa, fb) == (f(a), f(b)))
            return port(f, a, b, fa, fb, *args)

        monkeypatch.setattr(keyrate, "_brentq", checked)
        _, report = calibrate(perturbed(cfg, *factors))
        assert len(solves) >= 4 * report.iterations
        assert all(solves)

    @pytest.mark.parametrize("width", [1.7976931348623157e308, 1e10])
    def test_far_spectral_width_start_converges(self, cfg, width, tmp_path, capsys):
        # The first sweep's change is inf or about 6e10: it means only "not
        # settled", and the solves loosen no further than a change of 1 sets.
        start, refit = tmp_path / "start.cfg", tmp_path / "refit.cfg"
        save_config(dataclasses.replace(
            cfg, source=dataclasses.replace(cfg.source, spectral_width=width)), start)
        assert main(["calibrate", "--config", str(start), "--out", str(refit)]) == 0
        capsys.readouterr()
        shipped = cfg.source.spectral_width
        assert load_config(refit).source.spectral_width == pytest.approx(shipped, rel=1e-9)

    def test_shipped_config_refit_is_the_plain_one(self, fitted):
        # The first sweep is neither mixed nor loosened, so refitting the
        # shipped config gives, bit for bit, what the plain iteration gave.
        _, report = fitted
        assert report.iterations == 1
        assert report.fitted == {
            "spectral_width": 0.16048410106801178,
            "side_mode_weight": 0.11203461127253507,
            "side_mode_offset": 0.7264960154033976,
            "dark_slope": 20.73996188284944,
            "pa_ref": 0.059874460524710245,
            "gamma": 1.5312324855190327,
        }


def _history(gammas, residuals):
    """Mixing history in which only the bias exponent moves."""
    base = np.array([0.16, 0.11, 0.73, 20.7, 0.06, 0.0])
    gamma = _STATE_FIELDS.index("gamma")
    pairs = []
    for g, r in zip(gammas, residuals):
        point, residual = base.copy(), np.zeros(len(_STATE_FIELDS))
        point[gamma], residual[gamma] = g, r
        pairs.append((point, residual))
    return pairs


class TestMixingSafeguard:
    """The mixing step falls back to the plain step ``G(x)`` (the last
    sweep's output, the same object) whenever the mix is not safe."""

    def test_in_range_mix_extrapolates(self):
        # Residual halves while gamma moves 1.0 -> 0.8: the secant lands at 0.6.
        history = _history((1.0, 0.8), (1.0, 0.5))
        mixed = _anderson(history)
        assert mixed is not history[-1][0]
        assert mixed[_STATE_FIELDS.index("gamma")] == pytest.approx(0.6)

    def test_mix_outside_a_coupling_range_takes_the_plain_step(self, cfg):
        # The same secant from 1.0 -> 0.4 makes the bias exponent negative.
        # A sweep from that mix fails as it loads its start, naming the
        # field, before any stage runs, so the fit's loop takes the plain
        # step; the state never holds the out-of-range value.
        history = _history((1.0, 0.4), (1.0, 0.5))
        mixed = _anderson(history)
        assert mixed[_STATE_FIELDS.index("gamma")] == pytest.approx(-0.2)
        fitter = _Fitter(cfg, CalibrationAnchors())
        with pytest.raises(ParameterError, match="^calibration.gamma must be"):
            fitter.sweep(mixed)
        assert fitter.state["gamma"] == cfg.calibration.gamma

    @pytest.mark.parametrize("residuals", [(1.0, 0.5, 0.0), (1.0, math.nan, 0.5)])
    def test_degenerate_columns_take_the_plain_step(self, residuals):
        # Equal residual steps leave the depth-2 problem rank-deficient.
        history = _history((1.0, 0.9, 0.8), residuals)
        assert _anderson(history) is history[-1][0]

    def test_first_sweep_has_nothing_to_mix(self):
        history = _history((1.0,), (1.0,))
        assert _anderson(history) is history[-1][0]

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """Each sweep's start and its end (or the error it raised)."""
        calls, sweep = [], _Fitter.sweep

        def recording(fitter, start):
            try:
                end = sweep(fitter, start)
            except (ParameterError, ConvergenceError) as exc:
                calls.append((start, exc))
                raise
            calls.append((start, end))
            return end

        monkeypatch.setattr(_Fitter, "sweep", recording)
        return calls

    @pytest.fixture(scope="class")
    def reference(self, cfg):
        return calibrate(perturbed(cfg, *START))[1].fitted

    def test_fit_takes_the_plain_step_when_every_mix_leaves_the_ranges(
            self, cfg, monkeypatch, sweeps, reference):
        # Weights this large throw every mix far outside some coupling's range.
        # Each such sweep fails as it loads its start, naming the field, and
        # the fit reruns it from the last sweep's output.
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda a, b: (np.full(a.shape[1], 1e12), None, a.shape[1], None))
        _, report = calibrate(perturbed(cfg, *START))
        done = [(start, end) for start, end in sweeps if isinstance(end, np.ndarray)]
        failed = [error for _, error in sweeps if not isinstance(error, np.ndarray)]
        assert len(done) == report.iterations > 15
        # Every sweep from the third on was first tried from a mix.
        assert len(failed) == report.iterations - 2
        fields = {f"{owner}.{name}" for name, owner in fit_module._OWNER.items()}
        for error in failed:
            assert type(error) is ParameterError and str(error).split()[0] in fields
        for (_, end), (start, _) in zip(done, done[1:]):
            assert start is end
        for name, value in reference.items():
            assert report.fitted[name] == pytest.approx(value, rel=1e-8), name

    def test_fit_takes_the_plain_step_when_a_stage_raises_from_the_mix(
            self, cfg, monkeypatch, sweeps, reference):
        # The first mix gets a dark-count slope that is a valid coupling but
        # drives the dark-count probability past 1 at the operating bias.
        poisoned = []

        def anderson(history):
            start = _anderson(history)
            if not poisoned and start is not history[-1][0]:
                start = start.copy()
                start[_STATE_FIELDS.index("dark_slope")] = 1000.0
                poisoned.append(start)
            return start

        monkeypatch.setattr(fit_module, "_anderson", anderson)
        _, report = calibrate(perturbed(cfg, *START))
        k = next(i for i, (start, _) in enumerate(sweeps) if start is poisoned[0])
        assert isinstance(sweeps[k][1], ConvergenceError)
        assert sweeps[k + 1][0] is sweeps[k - 1][1]
        assert len(sweeps) == report.iterations + 1
        for name, value in reference.items():
            assert report.fitted[name] == pytest.approx(value, rel=1e-8), name

    def test_fit_takes_the_plain_step_when_the_held_counts_fail(
            self, cfg, monkeypatch, sweeps, reference):
        # The first mix gets a spectral width whose arrival profile at the
        # far slope length spans about 17.8 gate periods, past a limit of 15
        # set from then on; the plain step's width spans about 3.3.  The
        # width stage fails as it reads the held counts, before any trial.
        poisoned = []

        def anderson(history):
            start = _anderson(history)
            if not poisoned and start is not history[-1][0]:
                start = start.copy()
                start[_STATE_FIELDS.index("spectral_width")] = 0.95
                poisoned.append(start)
                monkeypatch.setattr(linkbudget, "_MAX_WINDOWS", 15)
                linkbudget._window_masses.cache_clear()
            return start

        monkeypatch.setattr(fit_module, "_anderson", anderson)
        _, report = calibrate(perturbed(cfg, *START))
        k = next(i for i, (start, _) in enumerate(sweeps) if start is poisoned[0])
        assert isinstance(sweeps[k][1], ConvergenceError)
        assert str(sweeps[k][1]).startswith("spectral width vs raw-rate slope: no solution")
        assert "spans more than 15 gate periods" in str(sweeps[k][1])
        assert sweeps[k + 1][0] is sweeps[k - 1][1]
        assert len(sweeps) == report.iterations + 1
        for name, value in reference.items():
            assert report.fitted[name] == pytest.approx(value, rel=1e-8), name


class TestAnalyticOutputPin:
    """Byte pin of the analytic engine: refit from a perturbed start, then
    both sweeps from the refit.

    A change that moves the digests changes what the analytic engine
    computes, not only how fast.  They were re-pinned once, by design, when
    the fit began mixing its sweeps (Anderson, depth 2) and loosening its
    early stage solves: the refit then stops at another point inside
    ``tol`` of the same fixed point, 10 sweeps from this start instead of
    31.  That moved its couplings by at most 1.1e-9 relative and its
    anchor residuals by at most 2.6e-10 absolute, and the sweeps' rows with
    them in the last digits.  They were re-pinned a second time, by design,
    when the spectral-width and dark-slope solves began bracketing their
    roots around the previous sweep's value: each solve then stops at
    another point inside its tolerance, which moved the couplings by at
    most 9.6e-12 relative and the anchor residuals by at most 5.8e-12
    absolute, with the same 10 sweeps.  They were re-pinned a third time,
    by design, when the side-mode weight became closed-form and the
    afterpulse reference the root of its objective's derivative: the exact
    stages move the fixed point by at most 2.4e-9 relative, and the shipped
    config was refitted to it.  They were re-pinned a fourth time, by
    design, when the side-mode offset became the root of the two anchors'
    weight difference, warm-bracketed like the other solves, instead of a
    grid scan and a root of the far residual: the same fixed point, but
    each sweep's offset solve stops at another point inside its tolerance.
    Only ``refit.cfg`` was re-pinned a fifth time, when the config format
    lost ``source.wavelength_nm``, ``receiver.eta_bob`` and
    ``protocol.sift_factor``: the file lost those three lines, and no
    value in it moved.  All three were re-pinned a sixth time, the fifth
    by design, when the spectral-width solve began holding the slope lengths'
    blocked-gate counts at each sweep's start after the first sweep: a
    sweep that ends where it started held its root's counts, so the fixed
    point stays put, but each fit stops at another point inside ``tol``.
    That moved the couplings from this start by at most 7.4e-12 relative
    and the anchor residuals by at most 4.4e-12 absolute, with the same 10
    sweeps; over perfbench's 64 starts (seeds 1-8) the couplings moved by
    at most 2.2e-10 relative.
    """

    DIGESTS = {
        "refit.cfg": "cc23eaec9b46e71ce4afcc459a7459e42e8ae80d131fcdab9c5f4244569c9300",
        "distance.csv": "f910a31514b6a3fd9d33bb8a2243b0742e0e5bf399df6023466c17d1fcc66510",
        "bias.csv": "d13471476c7f298e872c96c4afd5e555c37af040e26249b420854747781a26be",
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

    @pytest.fixture(params=["shipped", "perturbed", "qber-over-half"])
    def start(self, request, cfg):
        if request.param == "shipped":
            return cfg
        if request.param == "qber-over-half":  # the secure rates read QBER 1/2
            return perturbed(cfg, 1.0, 1.0, 1.0, 1.0, 16.0, 1.0)
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
        assert [keyrate.secure_rate(raw, qber, start.protocol)
                for raw, qber in fitter._secure_points()(afterpulse)] == [
            point(length)[0].secure_rate for length, _ in anchors.secure
        ]
        e_opt, _, e_dark, e_interclock, _ = fitter._low_bias_errors()
        _, low = point(anchors.qber_low_length, bias=anchors.qber_low_eta)
        assert (e_opt, e_dark, e_interclock) == (low.e_opt, low.e_dark, low.e_interclock)


# The offset grid the side-mode stage once scanned for its bracket.
OFFSET_GRID = np.arange(0.56, 0.951, 0.015)


class TestSideWeight:
    """The closed-form side-mode weight against brentq on the full
    two-component wrong-clock error at each anchor."""

    @pytest.mark.parametrize("factors", [(1.0,) * 6, START])
    def test_closed_form_matches_the_two_component_root(self, cfg, factors):
        anchors = CalibrationAnchors()
        fitter = _Fitter(perturbed(cfg, *factors), anchors)
        lo, hi = 1e-6, fit_module._SIDE_WEIGHT_MAX
        for length, target in anchors.interclock:
            weight_for = fitter._side_weight(length, target)
            feasible = 0
            for offset in OFFSET_GRID:
                def residual(weight):
                    fitter.state.update(side_mode_offset=offset, side_mode_weight=weight)
                    return fitter._interclock(length) - target

                closed, admissible = weight_for(offset)
                # Even a maximal side mode may fall short, or a minimal one overshoot.
                if residual(hi) < 0.0 or residual(lo) > 0.0:
                    assert not admissible, (length, offset)
                    continue
                root = scipy.optimize.brentq(residual, lo, hi, xtol=1e-15,
                                             rtol=4 * np.finfo(float).eps, maxiter=200)
                assert admissible, (length, offset)
                assert closed == pytest.approx(root, rel=1e-12, abs=0.0), (length, offset)
                feasible += 1
            assert 0 < feasible < len(OFFSET_GRID), length

    def test_falling_crossing_has_no_weight(self, cfg):
        # A broad main line leaks more than a side mode sitting in its own
        # window, so at 12 km the mix's error falls through 4e-5 as the side
        # mode grows.  The weight must meet the anchor on a rising error.
        near = (12.0, 4e-5)
        fitter = _Fitter(cfg, dataclasses.replace(CalibrationAnchors(),
                                                  interclock=(near, (75.8, 0.105))))
        fitter.state["spectral_width"] = 1.0
        offset = OFFSET_GRID[0]

        def residual(weight):
            fitter.state.update(side_mode_offset=offset, side_mode_weight=weight)
            return fitter._interclock(near[0]) - near[1]

        assert residual(1e-6) > 0.0 > residual(fit_module._SIDE_WEIGHT_MAX)
        _, admissible = fitter._side_weight(*near)(offset)
        assert not admissible

    def test_lines_of_equal_excess_are_not_admissible(self, cfg, monkeypatch):
        # Both lines alone read the same acceptance and error, so no weight
        # moves the mix's error: an inadmissible weight, not a division by zero.
        monkeypatch.setattr(linkbudget, "_profile_timing", lambda *args: (0.5, 0.01))
        fitter = _Fitter(cfg, CalibrationAnchors())
        _, admissible = fitter._side_weight(65.5, 0.021)(0.7)
        assert not admissible


def scanned_offset(fitter):
    """The side-mode offset as a scan over ``OFFSET_GRID`` finds it: the far
    anchor's residual at the near anchor's weight, then brentq in the first
    descending bracket whose ends both admit a near weight."""
    near, (l_far, t_far) = fitter.anchors.interclock
    weight_for = fitter._side_weight(*near)

    def far_residual(offset):
        weight, admissible = weight_for(offset)
        if not admissible:
            return None
        fitter.state.update(side_mode_offset=offset, side_mode_weight=weight)
        return fitter._interclock(l_far) - t_far

    for a, b in zip(OFFSET_GRID, OFFSET_GRID[1:]):
        r_a, r_b = far_residual(a), far_residual(b)
        if None not in (r_a, r_b) and r_a > 0.0 >= r_b:
            return scipy.optimize.brentq(far_residual, a, b, xtol=1e-13,
                                         rtol=4 * np.finfo(float).eps, maxiter=200)
    raise AssertionError("no descending bracket admits a near weight")


class TestSideModeSolve:
    """Solving for the offset where both anchors ask for the same weight
    finds the offset that scanning the far residual at the near weight does."""

    @pytest.mark.parametrize("factors", [(1.0,) * 6, *CONVERGENCE_STARTS])
    def test_solve_finds_the_scanned_offset(self, cfg, factors):
        start = perturbed(cfg, *factors)
        fitter = _Fitter(start, CalibrationAnchors())
        fitter.stage_side_mode()
        scanned = scanned_offset(_Fitter(start, CalibrationAnchors()))
        assert fitter.state["side_mode_offset"] == pytest.approx(scanned, rel=1e-9, abs=0.0)


class TestNoRepeatedWork:
    def test_side_mode_stage_evaluates_each_profile_once(self, cfg, monkeypatch):
        # The root finder takes its bracket's end values from the stage;
        # each anchor's weight is memoized per offset, and its main line
        # alone is evaluated once for every offset.
        calls = []
        timing = linkbudget._profile_timing
        monkeypatch.setattr(linkbudget, "_profile_timing",
                            lambda *args: calls.append(args) or timing(*args))
        _Fitter(perturbed(cfg, 1.1, 0.9, 1.1, 0.9, 1.1, 0.9),
                CalibrationAnchors()).stage_side_mode()
        assert 0 < len(set(calls)) == len(calls)

    def test_fit_evaluation_budget(self, cfg, monkeypatch):
        # Blocked gates are most of a fit's cost.  With every solve on its
        # cold bracket this fit evaluates them 251 times; warm brackets after
        # the first sweep bring that to 159, and holding the slope lengths'
        # counts at each later sweep's start to 83.
        calls = []
        blocked = linkbudget._blocked_gates
        monkeypatch.setattr(linkbudget, "_blocked_gates",
                            lambda *args: calls.append(args) or blocked(*args))
        calibrate(perturbed(cfg, *START))
        assert len(calls) <= 90

    def test_later_sweeps_hold_the_slope_counts(self, cfg, monkeypatch):
        # The first sweep evaluates blocked gates at both slope lengths on
        # each of its 15 width trials, and at the 3 secure points.  Each
        # later sweep reads the two slope counts once, at its start, and
        # evaluates the 3 secure points.
        calls, per_sweep = [], []
        blocked, sweep = linkbudget._blocked_gates, _Fitter.sweep

        def counting(fitter, start):
            before = len(calls)
            try:
                return sweep(fitter, start)
            finally:
                per_sweep.append(len(calls) - before)

        monkeypatch.setattr(linkbudget, "_blocked_gates",
                            lambda *args: calls.append(args) or blocked(*args))
        monkeypatch.setattr(_Fitter, "sweep", counting)
        _, report = calibrate(perturbed(cfg, *START))
        assert len(per_sweep) == report.iterations > 1
        assert per_sweep[0] == 2 * 15 + 3
        assert per_sweep[1:] == [2 + 3] * (report.iterations - 1)

    def test_fit_window_mass_budget(self, cfg):
        # Each line's window masses are memoized: the blocked-gate pass re-reads
        # the windows its timing pass found, and the side line repeats over
        # every spectral-width trial.  Unmemoized, this fit evaluated all 862
        # lookups; memoized, it evaluates 341.
        linkbudget._window_masses.cache_clear()
        calibrate(perturbed(cfg, *START))
        info = linkbudget._window_masses.cache_info()
        assert info.misses <= 360 < info.hits + info.misses

    def test_fit_profile_budget(self, cfg, monkeypatch):
        # Solving the side-mode weight by brentq nested in the offset solve,
        # and reporting through evaluate_point, took 1,013 profiles for this
        # fit; the closed-form weight and the float-path report took 460,
        # and solving the offset without an offset-grid scan takes 372.
        calls = []
        timing = linkbudget._profile_timing
        monkeypatch.setattr(linkbudget, "_profile_timing",
                            lambda *args: calls.append(args) or timing(*args))
        calibrate(perturbed(cfg, *START))
        assert len(calls) <= 420


class TestRangeCheckBudget:
    def test_fit_range_check_budget(self, cfg, monkeypatch):
        # Each coupling is checked once, when it is set, and each anchor when
        # the anchors are built.  Re-checking all six couplings on every
        # model read, as the fit once did, took 2,131 checks for this fit;
        # checking each when it is set took 1,138, of which 364 re-checked
        # the anchors' biases; without those it takes 774.
        calls = []
        check = fit_module._check_range
        monkeypatch.setattr(fit_module, "_check_range",
                            lambda *args: calls.append(args) or check(*args))
        calibrate(perturbed(cfg, *START))
        assert len(calls) <= 800
        assert not {name for name, _ in calls} & {"calibration.pa_ref_eta",
                                                  "detector.efficiency"}


class TestWarmBracket:
    """``_Fitter._solve``: Brent's method on [lo, hi] in the first sweep, then on
    a bracket around the coupling's last value, widened until it holds the root."""

    LO, HI, ROOT = 0.0, 80.0, 31.7

    @pytest.fixture
    def fitter(self, cfg):
        fitter = _Fitter(cfg, CalibrationAnchors())
        fitter.state["dark_slope"] = 30.0
        return fitter

    def residual(self, calls):
        return lambda x: calls.append(x) or math.tanh((x - self.ROOT) / 5.0)

    def solve(self, fitter, residual):
        return fitter._solve(residual, tuple, self.LO, self.HI, "label", "dark_slope")

    def test_first_sweep_takes_the_cold_bracket(self, fitter):
        calls = []
        root = self.solve(fitter, self.residual(calls))
        assert calls[:2] == [self.LO, self.HI]
        assert root == pytest.approx(self.ROOT, rel=fitter.rtol)

    def test_root_outside_the_first_warm_bracket_is_found_after_widening(self, fitter):
        fitter.change = 1e-3
        x0, h = fitter.state["dark_slope"], fitter.change
        calls = []
        warm = self.solve(fitter, self.residual(calls))
        # The first bracket, x0·(1 ± h), misses the root; each widening is 8x.
        assert calls[:2] == [x0 * (1 - h), x0 * (1 + h)]
        assert calls[2:4] == [x0 * (1 - 8 * h), x0 * (1 + 8 * h)]
        assert x0 * (1 + 8 * h) < self.ROOT < x0 * (1 + 64 * h)
        cold = scipy.optimize.brentq(self.residual([]), self.LO, self.HI, xtol=1e-13,
                                     rtol=fitter.rtol)
        assert warm == pytest.approx(cold, rel=fitter.rtol)
        assert len(set(calls)) == len(calls)  # the bracket's end values were reused

    def test_no_sign_change_in_the_range_names_the_whole_range(self, fitter):
        fitter.change = 1e-3
        calls = []
        with pytest.raises(ConvergenceError,
                           match=r"^label: no solution in \[0\.0, 80\.0\]"):
            self.solve(fitter, lambda x: calls.append(x) or 1.0 + x)
        # The widening stopped at the range's own ends.
        assert self.LO in calls and self.HI in calls

    def test_fit_brackets_cold_only_in_its_first_sweep(self, cfg, monkeypatch):
        sweeps, brentq, sweep = [], keyrate._brentq, _Fitter.sweep

        def recording(f, a, b, *args):
            sweeps[-1].append((a, b))
            return brentq(f, a, b, *args)

        def marking(fitter, start):
            sweeps.append([])
            return sweep(fitter, start)

        monkeypatch.setattr(keyrate, "_brentq", recording)
        monkeypatch.setattr(_Fitter, "sweep", marking)
        _, report = calibrate(perturbed(cfg, *START))
        assert len(sweeps) == report.iterations > 1
        # width, side-mode offset, dark slope, pa_ref
        cold = {(1e-3, 1.0), (0.56, 0.95), (0.0, 80.0), (1e-4, 0.25)}
        assert cold <= set(sweeps[0])
        for brackets in sweeps[1:]:
            assert not cold & set(brackets)


class TestHeldSlopeCounts:
    """After the first sweep the spectral-width solve holds the slope lengths'
    blocked-gate counts at the sweep's start; the exact slope equation, with
    each trial's own counts, still has its root where the fit stops."""

    @pytest.mark.parametrize("factors", CONVERGENCE_STARTS)
    def test_fitted_width_brackets_the_exact_root(self, cfg, factors):
        _, report = calibrate(perturbed(cfg, *factors))
        fitter = _Fitter(cfg, CalibrationAnchors())
        fitter.state.update(report.fitted)
        dark, _ = fitter._noise(fitter.anchors.operating_eta)
        width, tol = report.fitted["spectral_width"], fit_module._TOL

        def exact(x):
            fitter.state["spectral_width"] = x
            return fitter._slope_misfit(dark)

        assert exact(width * (1.0 - tol)) * exact(width * (1.0 + tol)) < 0.0

    def test_failing_count_read_fails_the_stage_like_a_failing_trial(self, cfg, monkeypatch):
        # Width 0.95 spans about 17.8 gate periods at 65.5 km, and 1.0 about
        # 18.7.  Warm from 0.95, the stage fails as it reads the held counts,
        # before any trial moves the width; cold, its trial at 1.0 fails.
        monkeypatch.setattr(linkbudget, "_MAX_WINDOWS", 15)
        linkbudget._window_masses.cache_clear()
        errors = []
        for change in (1e-3, None):
            fitter = _Fitter(cfg, CalibrationAnchors())
            fitter.change = change
            fitter.state["spectral_width"] = 0.95
            with pytest.raises(ConvergenceError) as caught:
                fitter.stage_spectral_width()
            errors.append(str(caught.value))
            if change is not None:
                assert fitter.state["spectral_width"] == 0.95
        assert errors[0] == errors[1]
        assert errors[0].startswith("spectral width vs raw-rate slope: no solution in "
                                    "[0.001, 1.0] (arrival profile spans more than 15 gate")


class TestErrorPaths:
    """Anchors the model cannot meet fail with the error, and name the
    field, that building the trial's config would."""

    @pytest.mark.parametrize(
        "changes,error,field",
        [
            ({"operating_eta": 0.9}, ConvergenceError, "detector.dark_prob"),
            ({"operating_eta": 0.5}, ConvergenceError, "no solution"),
            ({"qber_low_eta": 0.9}, ParameterError, "detector.dark_prob"),
            ({"qber_low_eta": 0.5}, ParameterError, "detector.afterpulse_total"),
            # The first sweep's bias exponent comes out negative; the next
            # sweep rejects it.
            ({"qber_low_eta": 0.07}, ConvergenceError, "calibration.gamma"),
            ({"interclock": ((65.5, 0.4), (75.8, 0.45))}, ConvergenceError,
             "admit no \\(weight, offset\\) pair"),
            ({"qber_low": 0.005}, ConvergenceError, "bias exponent"),
            ({"interclock": ((65.5, 0.021), (75.8, 0.3))}, ConvergenceError,
             "admit no \\(weight, offset\\) pair"),
            ({"interclock": ((65.5, 0.021), (75.8, 0.45))}, ConvergenceError,
             "admit no \\(weight, offset\\) pair"),
            # The two anchors ask for the same weight at no offset in range.
            ({"interclock": ((65.5, 0.021), (75.8, 1e-4))}, ConvergenceError,
             "admit no \\(weight, offset\\) pair"),
        ],
    )
    def test_unreachable_anchor(self, cfg, changes, error, field):
        anchors = dataclasses.replace(CalibrationAnchors(), **changes)
        with pytest.raises(error, match=field):
            calibrate(cfg, anchors)

    def test_unsettled_fixed_point_raises(self, cfg, monkeypatch):
        monkeypatch.setattr(fit_module, "_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError, match="did not settle in 1 sweeps"):
            calibrate(perturbed(cfg, 1.1, 1.0, 1.0, 1.0, 1.0, 1.0))

    def test_trials_do_not_build_validated_configs(self, cfg, monkeypatch):
        # Trials and the residual report both run on plain floats; a fit
        # that routed its trials through validated configs would make
        # thousands of these calls.
        calls = []
        evaluate = keyrate.evaluate_point
        monkeypatch.setattr(keyrate, "evaluate_point",
                            lambda config: calls.append(config) or evaluate(config))
        calibrate(cfg)
        assert calls == []
