"""Fit the model's free parameters to measured link anchors.

Six couplings are not directly measurable on the bench and are instead
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
solves iterated to a joint fixed point, with depth-2 Anderson mixing
choosing where each sweep starts.  The couplings returned are the output
of a sweep that moved them by less than ``_TOL``.  Every iterative stage is
one bracketed root (Brent's method, :func:`keyrate._brentq`) or a closed
form: the side-mode weight that meets a wrong-clock point follows from the
two lines' timing alone, so the offset is the root of the two points'
weight difference; and the afterpulse reference is the root of the
derivative of its secure-rate least squares.
After the first sweep every root brackets near the last sweep's root; no
sign change over a stage's whole range means its anchors are unreachable
and raises :class:`ConvergenceError` naming the stage, its bracket and the
cause.

Trials run on plain floats through the :mod:`linkbudget` kernels: a stage
reads once per sweep what its trial value cannot move or, after the first
sweep, moves only weakly (the slope lengths' blocked gates, held at the
sweep's start and so, at a fixed point, at its root), and recomputes the
rest per trial.  A coupling is range-checked like its field when it is set;
every bad sweep start, out of range or failing a stage, reruns from the last
sweep's output.  The residual report reads the anchors exactly, through the
same functions; validated objects appear only in start config and result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import keyrate, linkbudget
from .params import (SIFT_FACTOR, ParameterError, SystemConfig, _afterpulse_at, _check_range,
                     _dark_at)

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
        # The side mode meets two wrong-clock points, the secure rates fit a
        # slope and the dark slope sums its compensated QBER misfits.
        for name, fewest, most in (("interclock", 2, 2), ("secure", 2, math.inf),
                                   ("compensated_qber", 1, math.inf)):
            points = getattr(self, name)
            if not fewest <= len(points) <= most or any(len(p) != 2 or p[0] < 0.0 for p in points):
                bound = "exactly" if most == fewest else "at least"
                raise ParameterError(f"anchor {name} must hold {bound} {fewest} (length, value) "
                                     f"pairs, no length negative, got {points}")
        for name, value in vars(self).items():  # regular arrays, by the shapes above
            if not np.isfinite(value).all():
                raise ParameterError(f"anchor {name} must be finite, got {value}")
        # The secure-rate misfits are relative, and their slope regression
        # needs one rate per length.
        lengths, rates = zip(*self.secure)
        if min(rates) <= 0.0 or len(set(lengths)) < len(lengths):
            raise ParameterError(f"anchor secure must hold positive rates at distinct lengths, "
                                 f"got {self.secure}")
        # The bias exponent is a log-ratio over the two biases and the dark
        # slope a difference quotient over the two lengths.
        if self.qber_low_eta == self.operating_eta:
            raise ParameterError("anchor qber_low_eta must differ from operating_eta")
        slope = self.slope_lengths
        if len(slope) != 2 or not 0.0 <= min(slope) < max(slope):
            raise ParameterError(f"anchor slope_lengths must be two different non-negative "
                                 f"lengths, got {slope}")
        if self.qber_low_length < 0.0:
            raise ParameterError(f"anchor qber_low_length must be non-negative, "
                                 f"got {self.qber_low_length}")
        # Biases are detector efficiencies.
        for name in ("operating_eta", "qber_low_eta", "pa_ceiling_eta"):
            if not 0.0 < (eta := getattr(self, name)) <= 1.0:
                raise ParameterError(f"anchor {name} must lie in (0, 1], got {eta}")


@dataclass(frozen=True)
class FitReport:
    """Outcome of a calibration run: fitted values, residuals, warnings, trace."""

    fitted: dict
    residuals: dict
    warnings: tuple
    trace: tuple  # per accelerated sweep, the largest relative change of any coupling

    @property
    def iterations(self) -> int:
        """Sweeps the fit took, one per trace entry."""
        return len(self.trace)

    def summary(self) -> str:
        lines = [
            f"calibration converged after {self.iterations} iteration(s)",
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
# The parameter object that holds each coupling.
_OWNER = {name: "source" if i < 3 else "calibration" for i, name in enumerate(_STATE_FIELDS)}

_SIDE_WEIGHT_MAX = 0.45
_TOL = 1e-9  # the fit stops at a sweep that moves no coupling by this much, relative
_MAX_SWEEPS = 60  # the fit raises when this many sweeps do not settle


class _Fitter:
    """The staged fit; ``state`` holds the six couplings as plain floats."""

    change = None  # the last sweep's largest relative coupling change; None in the first

    @property
    def rtol(self) -> float:  # the solves' relative tolerance, loosened with a change up to 1
        return max(4 * np.finfo(float).eps, 1e-5 * min(self.change or 0.0, 1.0))

    def __init__(self, config: SystemConfig, anchors: CalibrationAnchors):
        self.base = config
        self.anchors = anchors
        self.state = {name: getattr(getattr(config, _OWNER[name]), name)
                      for name in _STATE_FIELDS}
        source, det = config.source, config.receiver.detector
        self.timing, self.jitter = (source.gate_period, det.gate_window), det.jitter_sigma

    def fitted(self) -> SystemConfig:
        """The start config with the couplings of the current state."""
        s, base = self.state, self.base
        return replace(
            base,
            source=replace(base.source, **{name: s[name] for name in _STATE_FIELDS[:3]}),
            calibration=replace(base.calibration, pa_ref_eta=self.anchors.operating_eta,
                                **{name: s[name] for name in _STATE_FIELDS[3:]}),
        )

    # -- the model on plain floats under the current state ------------------

    def _move(self, name: str, value: float) -> None:
        """Set one coupling, range-checked like its field, so ``state`` holds only valid values."""
        _check_range(f"{_OWNER[name]}.{name}", value)
        self.state[name] = value

    def _noise(self, eta: float) -> tuple[float, float]:
        """Dark-count and afterpulse probability at bias ``eta``, range-checked like
        the fitted config biased to ``eta``; the couplings were checked when set
        and the biases when the anchors were built."""
        s, cal = self.state, self.base.calibration
        dark = _dark_at(cal.dark_floor, cal.dark_floor_eta, s["dark_slope"], eta)
        afterpulse = _afterpulse_at(s["pa_ref"], self.anchors.operating_eta, s["gamma"], eta)
        _check_range("detector.dark_prob", dark)
        _check_range("detector.afterpulse_total", afterpulse)
        return dark, afterpulse

    def _arrival(self, length: float, compensated: bool = False):
        """``(components, acceptance, e_interclock, transmittance)`` at one length."""
        s, source, channel = self.state, self.base.source, self.base.channel
        components = linkbudget._components(
            source.pulse_sigma0, s["spectral_width"], s["side_mode_weight"],
            s["side_mode_offset"], channel.dispersion, length, compensated, self.jitter,
        )
        acceptance, e_interclock = linkbudget._profile_timing(components, *self.timing)
        return (components, acceptance, e_interclock,
                linkbudget.transmittance(length, channel.attenuation))

    def _clicks(self, arrival, eta: float, dark: float):
        return linkbudget._clicks(self.base.source.mu, arrival[3], eta, arrival[1], dark)

    def _blocked(self, arrival, clicks) -> float:
        period, window = self.timing
        return linkbudget._blocked_gates(arrival[0], window, period,
                                         self.base.receiver.detector.dead_time_ps,
                                         clicks[0], clicks[1])

    def _raw_rate(self, arrival, clicks, blocked=None) -> float:  # by default its own count
        blocked = self._blocked(arrival, clicks) if blocked is None else blocked
        return linkbudget._renewal_rate(self.base.source.clock_rate, clicks[2], blocked)

    def _errors(self, arrival, clicks, afterpulse: float):
        """``(e_opt, e_afterpulse, e_dark, e_interclock, total)``."""
        return linkbudget._error_budget(self.base.receiver.optical_error, afterpulse,
                                        clicks[1], clicks[2], arrival[2])

    def _slope_points(self, dark: float):
        """``(arrival, clicks)`` at the two slope lengths at the operating bias."""
        eta, lengths = self.anchors.operating_eta, self.anchors.slope_lengths
        return [(a, self._clicks(a, eta, dark)) for a in map(self._arrival, lengths)]

    def _slope_rates(self, dark: float, held=(None, None)) -> list[float]:
        """Raw rates at the slope lengths, through the ``held`` blocked-gate counts if given."""
        return [self._raw_rate(a, c, b) for (a, c), b in zip(self._slope_points(dark), held)]

    def _slope_misfit(self, dark: float, held=(None, None)) -> float:
        """The raw-rate slope between the slope lengths less its anchor;
        ``ValueError`` when a slope length has no clicks."""
        (l1, l2), (r1, r2) = self.anchors.slope_lengths, self._slope_rates(dark, held)
        if not (r1 > 0.0 and r2 > 0.0):
            raise ValueError(f"no clicks at a slope length, raw rates {r1} and {r2} Hz")
        return 10.0 * math.log10(r1 / r2) / (l2 - l1) - self.anchors.slope_db_per_km

    def _interclock(self, length: float) -> float:
        return self._arrival(length)[2]

    def _compensated_qber(self):
        """QBER totals at the compensated anchors as a function of the dark
        and afterpulse probabilities, which move no timing."""
        eta = self.anchors.operating_eta
        arrivals = [self._arrival(length, True) for length, _ in self.anchors.compensated_qber]
        return lambda dark, afterpulse: [
            self._errors(a, self._clicks(a, eta, dark), afterpulse)[4] for a in arrivals
        ]

    def _secure_points(self):
        """``(raw rate, QBER capped at 1/2)`` at the secure anchors as a function
        of the afterpulse probability, which moves neither the raw rates nor
        the other errors."""
        eta = self.anchors.operating_eta
        dark, _ = self._noise(eta)
        points = []
        for length, _ in self.anchors.secure:
            arrival = self._arrival(length)
            clicks = self._clicks(arrival, eta, dark)
            points.append((arrival, clicks, self._raw_rate(arrival, clicks)))
        return lambda afterpulse: [
            (raw, min(self._errors(a, c, afterpulse)[4], 0.5)) for a, c, raw in points
        ]

    def _low_bias_errors(self):
        """The error budget at the low-bias QBER anchor."""
        a = self.anchors
        dark, afterpulse = self._noise(a.qber_low_eta)
        arrival = self._arrival(a.qber_low_length)
        return self._errors(arrival, self._clicks(arrival, a.qber_low_eta, dark), afterpulse)

    # -- stages --------------------------------------------------------------

    def _warm(self, name: str, lo: float, hi: float) -> bool:
        """Whether ``_solve`` brackets near ``name``'s value: after the first sweep, in range."""
        return self.change is not None and lo < self.state[name] < hi

    def _solve(self, residual, fixed, lo, hi, label, name):
        """``keyrate._brentq``'s root in [lo, hi] (``lo >= 0``) of ``residual(x, *fixed())``.
        After the first sweep it brackets from ``x0·(1 ± h)``, ``x0`` the
        coupling ``name`` at the stage's start and ``h`` the last sweep's
        change, widened 8× at a time until that holds a sign change or is
        [lo, hi].  It sets ``name`` to each trial and then to the root.
        ``fixed`` reads the stage's fixed parts, so a range check failing
        there is reported like one failing in a trial."""
        x0 = self.state[name]
        try:
            args = fixed()

            def f(x):
                self._move(name, x)
                return residual(x, *args)

            if not self._warm(name, lo, hi):
                a, b, fa, fb = lo, hi, f(lo), f(hi)
            else:
                h = self.change
                while True:
                    a, b = max(lo, x0 * (1.0 - h)), min(hi, x0 * (1.0 + h))
                    fa, fb = f(a), f(b)
                    if fa * fb <= 0.0 or (a, b) == (lo, hi):
                        break
                    h *= 8.0
            root = keyrate._brentq(f, a, b, fa, fb, 1e-13, self.rtol, 200)
            self._move(name, root)
            return root
        except ValueError as exc:
            raise ConvergenceError(f"{label}: no solution in [{lo}, {hi}] ({exc})") from exc

    def stage_spectral_width(self) -> None:
        """The width for the raw-rate slope.  A warm solve holds the slope lengths'
        blocked gates ``B`` at the sweep's start, which enter weakly, via ``q/(1 + q·B)``."""
        lo, hi = 1e-3, 1.0

        def fixed():
            dark = self._noise(self.anchors.operating_eta)[0]
            if not self._warm("spectral_width", lo, hi):
                return dark, (None, None)
            return dark, [self._blocked(a, c) for a, c in self._slope_points(dark)]

        self._solve(lambda width, dark, held: self._slope_misfit(dark, held), fixed, lo, hi,
                    "spectral width vs raw-rate slope", "spectral_width")

    def _side_weight(self, length: float, target: float):
        """The side-mode weight at which the mix meets the wrong-clock error
        ``target`` at ``length``, as a function of the offset: ``(w,
        admissible)``, memoized per offset.  The mix's error averages its
        lines' errors ``e`` weighted by ``(1 - w)·A_main`` and ``w·A_side`` (``A``
        a line's acceptance alone), so with ``g = A·(e - target)`` it meets the
        target at ``w = g_main / (g_main - g_side)``, admissible where it rises
        through it (``g_side > g_main``) and ``w`` is in [1e-6, _SIDE_WEIGHT_MAX]."""
        source, channel = self.base.source, self.base.channel

        def excess(offset, line):  # g of one line alone
            _, mean, sigma = linkbudget._components(
                source.pulse_sigma0, self.state["spectral_width"], 1.0, offset,
                channel.dispersion, length, False, self.jitter)[line]
            acceptance, error = linkbudget._profile_timing(((1.0, mean, sigma),), *self.timing)
            return acceptance * (error - target)

        g_main = excess(0.0, 0)  # the main line does not move with the offset

        @functools.cache
        def weight(offset):
            g_side = excess(offset, 1)
            w = g_main / (g_main - g_side) if g_side != g_main else math.inf
            return w, g_side > g_main and 1e-6 <= w <= _SIDE_WEIGHT_MAX

        return weight

    def stage_side_mode(self) -> None:
        # Each anchor's error condition is linear in the weight, so the pair
        # that meets both is an offset where both ask for the same weight.
        near, far = (self._side_weight(*anchor) for anchor in self.anchors.interclock)
        failure = "side mode: wrong-clock anchors admit no (weight, offset) pair"
        offset = self._solve(lambda offset: near(offset)[0] - far(offset)[0], tuple,
                             0.56, 0.95, failure, "side_mode_offset")
        (weight, near_ok), (_, far_ok) = near(offset), far(offset)
        if not (near_ok and far_ok):
            raise ConvergenceError(failure)
        self._move("side_mode_weight", weight)

    def stage_dark_slope(self) -> None:
        eta = self.anchors.operating_eta

        def residual(slope, totals):
            total = 0.0
            for qber, (_, target) in zip(totals(*self._noise(eta)),
                                         self.anchors.compensated_qber):
                total += qber - target
            return total

        self._solve(residual, lambda: (self._compensated_qber(),), 0.0, 80.0,
                    "dark-count bias coupling vs compensated QBER", "dark_slope")

    def stage_afterpulse_ref(self) -> None:
        # The least sum of squared relative secure-rate misfits, as the root
        # of its derivative: at the operating bias the afterpulse probability
        # is pa_ref, half of which adds to each QBER, so up to a positive
        # factor the derivative is -sum (rate - T)/T² · raw · H'(e).
        protocol = self.base.protocol

        def residual(pa_ref, points):
            total = 0.0
            for (raw, e), (_, target) in zip(points(self._noise(self.anchors.operating_eta)[1]),
                                             self.anchors.secure):
                rate = SIFT_FACTOR * raw * keyrate.key_yield(e, protocol)
                total -= (rate - target) / target**2 * raw * math.log2((1.0 - e) / e)
            return total

        self._solve(residual, lambda: (self._secure_points(),), 1e-4, 0.25,
                    "afterpulse reference vs secure rates", "pa_ref")

    def stage_gamma(self) -> None:
        a = self.anchors
        e_opt, _, e_dark, e_interclock, _ = self._low_bias_errors()
        # Everything in the low-bias QBER except the afterpulse share is
        # already fixed, so the afterpulse probability there is direct.
        pa_low = 2.0 * (a.qber_low - e_opt - e_dark - e_interclock)
        if pa_low <= 0.0 or pa_low >= self.state["pa_ref"]:
            raise ConvergenceError(
                f"bias exponent: low-bias QBER anchor implies afterpulse "
                f"probability {pa_low:.3e} outside (0, pa_ref)"
            )
        try:
            self._move("gamma", math.log(self.state["pa_ref"] / pa_low)
                       / math.log(a.operating_eta / a.qber_low_eta))
        except ParameterError as exc:
            raise ConvergenceError(f"bias exponent: {exc}") from exc

    def sweep(self, start) -> np.ndarray:
        """Run the five stages once from ``start``; return the couplings they end at."""
        for name, value in zip(_STATE_FIELDS, start):
            self._move(name, float(value))
        self.stage_spectral_width()
        self.stage_side_mode()
        self.stage_dark_slope()
        self.stage_afterpulse_ref()
        self.stage_gamma()
        return np.array([self.state[name] for name in _STATE_FIELDS])

    # -- reporting -----------------------------------------------------------

    def residuals(self) -> dict:
        """Each anchor's misfit, read through the functions the stages solve."""
        a = self.anchors
        dark, afterpulse = self._noise(a.operating_eta)
        out = {"slope_db_per_km": self._slope_misfit(dark)}
        secure = self._secure_points()(afterpulse)
        fit = np.polyfit([length for length, _ in a.secure],
                         [-10.0 * math.log10(raw) for raw, _ in secure], 1)
        out["slope_regression_db_per_km"] = float(fit[0]) - a.slope_db_per_km
        for length, target in a.interclock:
            out[f"interclock_{length}km"] = self._interclock(length) - target
        for (length, target), qber in zip(a.compensated_qber,
                                          self._compensated_qber()(dark, afterpulse)):
            out[f"qber_compensated_{length}km"] = qber - target
        for (length, target), (raw, qber) in zip(a.secure, secure):
            rate = keyrate.secure_rate(raw, qber, self.base.protocol)
            out[f"secure_rel_{length}km"] = (rate - target) / target
        out["qber_low_bias"] = self._low_bias_errors()[4] - a.qber_low
        return out

    def diagnostics(self) -> tuple:
        """Warnings for couplings that extrapolate past the device ceilings."""
        s, a, cal = self.state, self.anchors, self.base.calibration
        pa_high = _afterpulse_at(s["pa_ref"], a.operating_eta, s["gamma"], a.pa_ceiling_eta)
        dark_high = _dark_at(cal.dark_floor, cal.dark_floor_eta, s["dark_slope"],
                             a.pa_ceiling_eta)
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
        return tuple(warnings)


def _anderson(history: list) -> np.ndarray:
    """Where the next sweep starts, from the last sweeps' ``(G(x), r)`` pairs
    (``r`` the scaled residual): Anderson's mix, or the plain step ``G(x)``
    when the columns are rank-deficient or non-finite."""
    g, r = (np.array(column).T for column in zip(*history))
    dg, dr = np.diff(g), np.diff(r)
    if not (dr.size and np.isfinite(dr).all()):
        return history[-1][0]
    weights, _, rank, _ = np.linalg.lstsq(dr, r[:, -1])
    return g[:, -1] - dg @ weights if rank == dr.shape[1] else history[-1][0]


def calibrate(config: SystemConfig,
              anchors: CalibrationAnchors | None = None) -> tuple[SystemConfig, FitReport]:
    """Fit source/detector couplings so the model reproduces the anchors.

    Returns the calibrated config (channel and bias point preserved from
    the input, detector-level values refreshed from the fitted couplings)
    together with a :class:`FitReport`.  Raises :class:`ConvergenceError`
    when an anchor is unreachable or the fixed point does not settle
    within ``_MAX_SWEEPS`` sweeps.
    """
    anchors = anchors or CalibrationAnchors()
    fitter = _Fitter(config, anchors)

    trace, history = [], []
    start = plain = np.array([fitter.state[name] for name in _STATE_FIELDS])
    for _ in range(_MAX_SWEEPS):
        try:
            end = fitter.sweep(start)
        except (ParameterError, ConvergenceError):
            if start is plain:
                raise
            start = plain
            end = fitter.sweep(start)
        with np.errstate(over="ignore"):  # an infinite change is only "not settled"
            residual = (end - start) / np.maximum(np.abs(end), 1e-12)
        change = float(np.max(np.abs(residual)))
        trace.append(change)
        if change < _TOL:
            break
        history = [*history[-2:], (end, residual)]
        fitter.change = change
        plain, start = end, _anderson(history)
    else:
        raise ConvergenceError(
            f"fixed point did not settle in {_MAX_SWEEPS} sweeps; "
            f"residuals: {fitter.residuals()}"
        )

    # Refresh detector-level dark/afterpulse values from the new couplings
    # at the config's own bias point.
    fitted_config = fitter.fitted().at_bias(config.receiver.detector.efficiency)

    return fitted_config, FitReport(dict(fitter.state), fitter.residuals(),
                                    fitter.diagnostics(), tuple(trace))
