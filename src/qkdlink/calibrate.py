"""Fit the model's free parameters to measured link anchors.

Five quantities are not directly measurable on the bench and are instead
inferred from link-level observables:

* the source's effective spectral width (sets how fast dispersion erodes
  the raw rate with fiber length),
* the weight and spectral offset of a weak laser side mode (sets how the
  wrong-clock error grows between 65 and 76 km),
* the exponential bias coefficient of the dark-count probability,
* the afterpulse probability at the reference bias and its power-law
  exponent in the detection efficiency.

Each parameter is pinned by its own anchor (a slope, two wrong-clock
error points, a pair of dispersion-compensated QBERs, three secure-rate
points, and one low-bias QBER), so the fit runs as staged one-dimensional
solves iterated to a joint fixed point.  Stages use bracketing root
finders; a missing bracket means the requested anchors are unreachable
and raises :class:`ConvergenceError` with the residuals gathered so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import keyrate, linkbudget
from .params import ParameterError, SystemConfig

__all__ = ["CalibrationAnchors", "ConvergenceError", "FitReport", "calibrate"]


class ConvergenceError(RuntimeError):
    """The fit could not reach its anchors within the iteration budget."""


@dataclass(frozen=True)
class CalibrationAnchors:
    """Measured link-level targets the fit must reproduce.

    Defaults are the characterization values for the deployed link; any
    field can be overridden to recalibrate against different measurements.
    Rates in bit/s, lengths in km, errors as fractions.
    """

    slope_db_per_km: float = 0.240
    slope_lengths: tuple[float, float] = (5.6, 65.5)
    interclock: tuple[tuple[float, float], ...] = ((65.5, 0.021), (75.8, 0.105))
    compensated_qber: tuple[tuple[float, float], ...] = ((75.8, 0.063), (101.1, 0.078))
    secure: tuple[tuple[float, float], ...] = (
        (5.6, 2.37e6),
        (25.3, 6.84e5),
        (65.5, 2.79e4),
    )
    qber_low: float = 0.0155
    qber_low_length: float = 5.6
    qber_low_eta: float = 0.02
    operating_eta: float = 0.06
    pa_ceiling_eta: float = 0.10
    pa_ceiling: float = 0.06
    dark_ceiling: float = 3.3e-5

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not _all_finite(value):
                raise ParameterError(f"anchor {name} must be finite, got {value}")


def _all_finite(value) -> bool:
    if isinstance(value, tuple):
        return all(_all_finite(item) for item in value)
    return math.isfinite(value)


@dataclass(frozen=True)
class FitReport:
    """Outcome of a calibration run: fitted values, residuals, warnings, trace."""

    iterations: int
    converged: bool
    fitted: dict
    residuals: dict
    warnings: tuple
    trace: tuple  # per sweep, the largest relative change of any coupling

    def summary(self) -> str:
        lines = [
            f"calibration {'converged' if self.converged else 'DID NOT CONVERGE'}"
            f" after {self.iterations} iteration(s)",
            "fitted parameters:",
        ]
        for name, value in self.fitted.items():
            lines.append(f"  {name} = {value:.10g}")
        lines.append("anchor residuals:")
        for name, value in self.residuals.items():
            lines.append(f"  {name} = {value:+.4e}")
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)


_STATE_FIELDS = (
    "spectral_width",
    "side_mode_weight",
    "side_mode_offset",
    "dark_slope",
    "pa_ref",
    "gamma",
)

# Side-mode offset grid scanned to bracket the outer root of stage 2.  The
# lower part of the range is infeasible (the side mode falls in the dead
# gap at both anchor lengths); the scan finds the feasible descending
# crossing before handing over to the root finder.
_OFFSET_GRID = np.arange(0.56, 0.951, 0.015)
_SIDE_WEIGHT_MAX = 0.45


def _optimize():
    """``scipy.optimize``, imported on first use.

    Its import costs more than a 10M-pulse simulation (about 0.3 s and
    40 MB), and only a fit needs it, so importing qkdlink never loads SciPy.
    """
    import scipy.optimize

    return scipy.optimize


class _Fitter:
    def __init__(self, config: SystemConfig, anchors: CalibrationAnchors):
        self.base = config
        self.anchors = anchors
        self.state = {
            "spectral_width": config.source.spectral_width,
            "side_mode_weight": config.source.side_mode_weight,
            "side_mode_offset": config.source.side_mode_offset,
            "dark_slope": config.calibration.dark_slope,
            "pa_ref": config.calibration.pa_ref,
            "gamma": config.calibration.gamma,
        }
        # Most trial values move one coupling, so the validated objects that
        # the other couplings determine are kept and reused.
        self._source = self._calibration = (None, None)
        self._biased: dict = {}  # eta -> receiver under the current calibration
        self._channels: dict = {}  # (length, compensated) -> channel

    # -- model evaluation under the current state ---------------------------

    def fitted(self):
        """The source and calibration that the current state determines, each
        rebuilt only when its own couplings move."""
        s = self.state
        key = {name: s[name] for name in _STATE_FIELDS[:3]}  # source couplings
        if key != self._source[0]:
            self._source = key, replace(self.base.source, **key)
        key = {name: s[name] for name in _STATE_FIELDS[3:]}  # detector couplings
        if key != self._calibration[0]:
            cal = replace(self.base.calibration, pa_ref_eta=self.anchors.operating_eta, **key)
            self._calibration, self._biased = (key, cal), {}
        return self._source[1], self._calibration[1]

    def _config(self, length: float, compensated: bool, eta: float) -> SystemConfig:
        source, cal = self.fitted()
        if eta not in self._biased:
            self._biased[eta] = replace(self.base, calibration=cal).at_bias(eta).receiver
        channel = self._channels.get((length, compensated))
        if channel is None:
            channel = replace(self.base.channel, length=length, compensated=compensated)
            self._channels[length, compensated] = channel
        return SystemConfig(source=source, channel=channel,
                            receiver=self._biased[eta], protocol=self.base.protocol,
                            calibration=cal)

    def _point(self, length: float, compensated: bool = False, eta: float | None = None):
        eta = self.anchors.operating_eta if eta is None else eta
        return keyrate.evaluate_point(self._config(length, compensated, eta))

    def _interclock(self, length: float) -> float:
        cfg = self._config(length, False, self.anchors.operating_eta)
        _, errors = linkbudget.link_timing(cfg.source, cfg.channel, cfg.receiver)
        return errors

    # -- stages --------------------------------------------------------------

    def _solve(self, func, lo, hi, label):
        try:
            return _optimize().brentq(func, lo, hi, xtol=1e-13, maxiter=200)
        except ValueError as exc:
            raise ConvergenceError(
                f"{label}: no solution in [{lo}, {hi}] ({exc}); "
                f"residuals so far: {self.residuals()}"
            ) from exc

    def stage_spectral_width(self) -> None:
        l1, l2 = self.anchors.slope_lengths
        target = self.anchors.slope_db_per_km

        def residual(width):
            self.state["spectral_width"] = width
            r1, _ = self._point(l1)
            r2, _ = self._point(l2)
            slope = 10.0 * math.log10(r1.raw_rate / r2.raw_rate) / (l2 - l1)
            return slope - target

        self.state["spectral_width"] = self._solve(
            residual, 1e-3, 1.0, "spectral width vs raw-rate slope"
        )

    def _side_weight_for(self, offset: float, length: float, target: float):
        """Side-mode weight matching the wrong-clock error at one length."""
        self.state["side_mode_offset"] = offset

        def residual(weight):
            self.state["side_mode_weight"] = weight
            return self._interclock(length) - target

        if residual(_SIDE_WEIGHT_MAX) < 0.0:
            return None  # even a maximal side mode cannot reach the anchor
        if residual(1e-6) > 0.0:
            return None
        return _optimize().brentq(residual, 1e-6, _SIDE_WEIGHT_MAX, xtol=1e-14, maxiter=200)

    def stage_side_mode(self) -> None:
        (l_near, t_near), (l_far, t_far) = self.anchors.interclock

        def far_residual(offset):
            weight = self._side_weight_for(offset, l_near, t_near)
            if weight is None:
                raise ConvergenceError(
                    f"side mode: near anchor infeasible at offset {offset:.4f} nm"
                )
            self.state["side_mode_weight"] = weight
            return self._interclock(l_far) - t_far

        bracket = None
        previous = None
        for offset in _OFFSET_GRID:
            weight = self._side_weight_for(offset, l_near, t_near)
            if weight is None:
                previous = None
                continue
            self.state["side_mode_weight"] = weight
            value = self._interclock(l_far) - t_far
            if previous is not None and previous[1] > 0.0 >= value:
                bracket = (previous[0], offset)
                break
            previous = (offset, value)
        if bracket is None:
            raise ConvergenceError(
                "side mode: wrong-clock anchors admit no (weight, offset) pair; "
                f"residuals so far: {self.residuals()}"
            )
        offset = _optimize().brentq(
            far_residual, bracket[0], bracket[1], xtol=1e-12, maxiter=200
        )
        weight = self._side_weight_for(offset, l_near, t_near)
        if weight is None:
            raise ConvergenceError("side mode: root left the feasible region")
        self.state["side_mode_offset"] = offset
        self.state["side_mode_weight"] = weight

    def stage_dark_slope(self) -> None:
        pairs = self.anchors.compensated_qber

        def residual(slope):
            self.state["dark_slope"] = slope
            total = 0.0
            for length, target in pairs:
                _, qber = self._point(length, compensated=True)
                total += qber.total - target
            return total

        self.state["dark_slope"] = self._solve(
            residual, 0.0, 80.0, "dark-count bias coupling vs compensated QBER"
        )

    def stage_afterpulse_ref(self) -> None:
        anchors = self.anchors.secure

        def objective(pa_ref):
            self.state["pa_ref"] = pa_ref
            total = 0.0
            for length, target in anchors:
                rate, _ = self._point(length)
                total += ((rate.secure_rate - target) / target) ** 2
            return total

        result = _optimize().minimize_scalar(
            objective, bounds=(1e-4, 0.25), method="bounded",
            options={"xatol": 1e-11},
        )
        if not result.success:
            raise ConvergenceError(f"afterpulse reference fit failed: {result.message}")
        self.state["pa_ref"] = float(result.x)

    def stage_gamma(self) -> None:
        a = self.anchors
        _, qber = self._point(a.qber_low_length, eta=a.qber_low_eta)
        # Everything in the low-bias QBER except the afterpulse share is
        # already fixed, so the afterpulse probability there is direct.
        pa_low = 2.0 * (a.qber_low - qber.e_opt - qber.e_dark - qber.e_interclock)
        if pa_low <= 0.0 or pa_low >= self.state["pa_ref"]:
            raise ConvergenceError(
                f"bias exponent: low-bias QBER anchor implies afterpulse "
                f"probability {pa_low:.3e} outside (0, pa_ref)"
            )
        self.state["gamma"] = math.log(self.state["pa_ref"] / pa_low) / math.log(
            a.operating_eta / a.qber_low_eta
        )

    # -- reporting -----------------------------------------------------------

    def residuals(self) -> dict:
        a = self.anchors
        out: dict[str, float] = {}
        try:
            l1, l2 = a.slope_lengths
            r1, _ = self._point(l1)
            r2, _ = self._point(l2)
            out["slope_db_per_km"] = (
                10.0 * math.log10(r1.raw_rate / r2.raw_rate) / (l2 - l1)
                - a.slope_db_per_km
            )
            lengths = [length for length, _ in a.secure]
            rates = [self._point(length)[0].raw_rate for length in lengths]
            fit = np.polyfit(lengths, [-10.0 * math.log10(r) for r in rates], 1)
            out["slope_regression_db_per_km"] = float(fit[0]) - a.slope_db_per_km
            for length, target in a.interclock:
                out[f"interclock_{length}km"] = self._interclock(length) - target
            for length, target in a.compensated_qber:
                _, qber = self._point(length, compensated=True)
                out[f"qber_compensated_{length}km"] = qber.total - target
            for length, target in a.secure:
                rate, _ = self._point(length)
                out[f"secure_rel_{length}km"] = (rate.secure_rate - target) / target
            _, qber_low = self._point(a.qber_low_length, eta=a.qber_low_eta)
            out["qber_low_bias"] = qber_low.total - a.qber_low
        except Exception:  # partial state mid-fit; report what we can
            out["evaluation_error"] = float("nan")
        return out

    def diagnostics(self) -> tuple[tuple, dict]:
        a = self.anchors
        _, cal = self.fitted()
        pa_high = cal.afterpulse_at(a.pa_ceiling_eta)
        dark_high = cal.dark_at(a.pa_ceiling_eta)
        warnings = []
        if pa_high >= a.pa_ceiling:
            warnings.append(
                f"afterpulse coupling extrapolates to "
                f"P_a({a.pa_ceiling_eta:.2f}) = {pa_high:.4f}, above the "
                f"device characterization ceiling {a.pa_ceiling:.3f}; treat "
                f"high-bias afterpulse predictions as upper bounds"
            )
        if dark_high > a.dark_ceiling:
            warnings.append(
                f"dark-count coupling extrapolates to "
                f"d({a.pa_ceiling_eta:.2f}) = {dark_high:.3e}, above the "
                f"device ceiling {a.dark_ceiling:.3e}"
            )
        extras = {
            "pa_at_ceiling_eta": pa_high,
            "dark_at_ceiling_eta": dark_high,
        }
        return tuple(warnings), extras


def calibrate(
    config: SystemConfig,
    anchors: CalibrationAnchors | None = None,
    *,
    max_iter: int = 60,
    tol: float = 1e-9,
) -> tuple[SystemConfig, FitReport]:
    """Fit source/detector couplings so the model reproduces the anchors.

    Returns the calibrated config (channel and bias point preserved from
    the input, detector-level values refreshed from the fitted couplings)
    together with a :class:`FitReport`.  Raises :class:`ConvergenceError`
    when an anchor is unreachable or the fixed point does not settle
    within ``max_iter`` sweeps, and :class:`ParameterError` when
    ``max_iter`` is below 1.
    """
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    anchors = anchors or CalibrationAnchors()
    fitter = _Fitter(config, anchors)

    iterations = 0
    converged = False
    trace = []
    for iterations in range(1, max_iter + 1):
        before = [fitter.state[name] for name in _STATE_FIELDS]
        fitter.stage_spectral_width()
        fitter.stage_side_mode()
        fitter.stage_dark_slope()
        fitter.stage_afterpulse_ref()
        fitter.stage_gamma()
        after = [fitter.state[name] for name in _STATE_FIELDS]
        change = max(
            abs(new - old) / max(abs(new), 1e-12)
            for new, old in zip(after, before)
        )
        trace.append(change)
        if change < tol:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"fixed point did not settle in {max_iter} sweeps; "
            f"residuals: {fitter.residuals()}"
        )

    source, calibration = fitter.fitted()
    # Refresh detector-level dark/afterpulse values from the new couplings
    # at the config's own bias point.
    fitted_config = replace(config, source=source, calibration=calibration).at_bias(
        config.receiver.detector.efficiency
    )

    warnings, extras = fitter.diagnostics()
    residuals = fitter.residuals()
    residuals.update(extras)
    report = FitReport(
        iterations=iterations,
        converged=converged,
        fitted=dict(fitter.state),
        residuals=residuals,
        warnings=warnings,
        trace=tuple(trace),
    )
    return fitted_config, report
