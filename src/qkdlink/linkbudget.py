"""Closed-form link budget for the gated fiber QKD system.

The model propagates a weak laser pulse through an attenuating, dispersive
fiber and into a pair of gated single-photon detectors.  It produces the
per-gate click probabilities, the detected-event ("raw") rate including
dead-time thinning, and the decomposition of the quantum bit error rate
into its four physical contributions::

    e = e_opt + e_afterpulse + e_dark + e_interclock

The detected arrival-time profile (:func:`temporal_components`) is a
weighted mixture of Gaussian lines, the main spectral line plus an optional
displaced side mode, whose widths it alone convolves with the detector
jitter.  Gate acceptance, inter-clock leakage and the hold-off's offset
density integrate it over the gate windows; the event engine draws from it.
A compensated link's single line leaks into the neighboring windows as
far as its jittered width reaches, like any other profile.

Each law is one plain-float kernel that the public functions wrap and the
calibration fitter calls directly, so a fit trial builds no validated
object.  Two kernels are memoized.  ``_holdoff`` (128 entries) is keyed on
what a detector fixes, (window, period, dead time): its offset grid,
spacings and lookups serve every trial of a fit.  ``_window_masses`` (64
entries) serves a line's windows again to the blocked-gate pass after its
timing pass, to every spectral-width trial for the side line, and across
``evaluate_point``'s timing passes and a bias sweep: a fit from the (1.13,
0.88, 1.05, 0.92, 1.12, 0.87) start evaluates 341 of its 862 lookups.  That
fit's other kernels seldom repeat (154 of 159 blocked-gate calls are
distinct), and caching each window's Gaussian term was slower.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import (
    ChannelParams,
    ParameterError,
    ReceiverParams,
    SourceParams,
)

__all__ = [
    "ClickProbabilities",
    "QberBreakdown",
    "transmittance",
    "temporal_components",
    "link_timing",
    "click_probabilities",
    "effective_blocked_gates",
    "raw_rate",
    "qber_breakdown",
]

_SQRT2 = math.sqrt(2.0)
# Gaussian mass beyond 8 sigma is ~1e-15; windows further out are ignored.
_TAIL_SIGMAS = 8.0
_MAX_WINDOWS = 10_000  # longer profiles (about 2e5 km of shipped fiber) are rejected


@dataclass(frozen=True)
class ClickProbabilities:
    """Per-gate click probabilities at one operating point; ``p_total``, the
    probability of either click, is derived from the two as in :func:`_clicks`."""

    p_signal: float
    p_dark: float

    def __post_init__(self) -> None:
        for name in ("p_signal", "p_dark"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {value}")

    @property
    def p_total(self) -> float:
        return 1.0 - (1.0 - self.p_signal) * (1.0 - self.p_dark)


@dataclass(frozen=True)
class QberBreakdown:
    """Additive error-rate contributions and ``total``, their sum as
    :func:`_error_budget` forms it.  Neither a term nor the total is bounded
    by 1/2: ``e_opt`` alone passes it with a mis-modulation of 0.5."""

    e_opt: float
    e_afterpulse: float
    e_dark: float
    e_interclock: float
    total: float


def transmittance(length: float, attenuation: float) -> float:
    """Fraction of light surviving ``length`` km of fiber at ``attenuation`` dB/km."""
    if length < 0.0:
        raise ParameterError("length must be non-negative")
    if attenuation < 0.0:
        raise ParameterError("attenuation must be non-negative")
    return 10.0 ** (-attenuation * length / 10.0)


def temporal_components(
    source: SourceParams, channel: ChannelParams, receiver: ReceiverParams
) -> tuple[tuple[float, float, float], ...]:
    """Weighted Gaussian lines of the detected arrival-time profile.

    Returns ``(weight, mean_ps, sigma_ps)`` triples relative to the pulse's
    own clock center, each width ``hypot(line width, jitter_sigma)``: the
    line as the detector sees it.  The main line broadens with dispersion;
    the spectral side mode is quasi-monochromatic, so it keeps the launch
    width but walks away from the gate at ``D * L * side_mode_offset``.
    Compensation cancels the accumulated dispersion for all wavelengths,
    collapsing the profile back to a single centered line.  The analytic
    kernels integrate this profile and the event engine draws from it.
    """
    return _components(source.pulse_sigma0, source.spectral_width, source.side_mode_weight,
                       source.side_mode_offset, channel.dispersion, channel.length,
                       channel.compensated, receiver.detector.jitter_sigma)


def _components(sigma0, width, side_weight, side_offset, dispersion, length, compensated, jitter):
    launch = math.hypot(sigma0, jitter)  # the undispersed width as detected
    if compensated:
        return ((1.0, 0.0, launch),)
    walkoff = dispersion * length  # ps per nm of detuning
    main_sigma = math.hypot(math.hypot(sigma0, walkoff * width), jitter)
    if side_weight == 0.0:
        return ((1.0, 0.0, main_sigma),)
    return (
        (1.0 - side_weight, 0.0, main_sigma),
        (side_weight, walkoff * side_offset, launch),
    )


@functools.lru_cache(maxsize=64)
def _window_masses(
    mean: float, sigma: float, period: float, window: float
) -> tuple[tuple[int, float], ...]:
    """Mass of a Gaussian in each clock-period gate window that matters.

    Window ``k`` spans ``[k*period - window/2, k*period + window/2]``.  A
    profile over more than ``_MAX_WINDOWS`` periods raises ParameterError.
    """
    half = 0.5 * window
    reach = _TAIL_SIGMAS * sigma + half
    lo, hi = (mean - reach) / period, (mean + reach) / period
    if not hi - lo <= _MAX_WINDOWS:
        raise ParameterError(f"arrival profile spans more than {_MAX_WINDOWS} gate periods; "
                             "the fiber is too long for the analytic model")
    k_lo, k_hi = math.floor(lo), math.ceil(hi)
    z = sigma * _SQRT2
    out = []
    for k in range(k_lo, k_hi + 1):
        center = k * period
        mass = 0.5 * (
            math.erf((center + half - mean) / z) - math.erf((center - half - mean) / z)
        )
        if mass > 0.0:
            out.append((k, mass))
    return tuple(out)


def _profile_timing(components, period: float, window: float):
    """``(acceptance, e_interclock)`` of a detected mixture profile."""
    accepted = 0.0
    neighbors = 0.0
    for weight, mean, sigma in components:
        for k, mass in _window_masses(mean, sigma, period, window):
            accepted += weight * mass
            if k != 0:
                neighbors += weight * mass
    if accepted <= 0.0:
        return accepted, 0.0
    # A photon detected in a neighboring clock errs half the time.
    return accepted, 0.5 * neighbors / accepted


def link_timing(
    source: SourceParams, channel: ChannelParams, receiver: ReceiverParams
) -> tuple[float, float]:
    """Gate acceptance and inter-clock error of the full arrival profile.

    Returns ``(acceptance, e_interclock)`` of the detector response, which
    both detectors of the matched pair share, compensated or not.
    """
    return _profile_timing(temporal_components(source, channel, receiver), source.gate_period,
                           receiver.detector.gate_window)


def click_probabilities(
    source: SourceParams, channel: ChannelParams, receiver: ReceiverParams
) -> ClickProbabilities:
    """Per-gate click probabilities for signal, dark counts, and either."""
    acceptance, _ = link_timing(source, channel, receiver)
    det = receiver.detector
    p_signal, p_dark, _ = _clicks(
        source.mu, transmittance(channel.length, channel.attenuation), det.efficiency,
        acceptance, det.dark_prob,
    )
    return ClickProbabilities(p_signal=p_signal, p_dark=p_dark)


def _clicks(mu, transmitted, efficiency, acceptance, dark_prob):
    """``(p_signal, p_dark, p_total)`` per gate; ``transmitted`` is the fiber's
    :func:`transmittance`."""
    mean_detected = mu * transmitted * efficiency * acceptance
    p_signal = -math.expm1(-mean_detected)
    p_dark = 1.0 - (1.0 - dark_prob) * (1.0 - dark_prob)
    p_total = 1.0 - (1.0 - p_signal) * (1.0 - p_dark)
    return p_signal, p_dark, p_total


def effective_blocked_gates(
    source: SourceParams, channel: ChannelParams, receiver: ReceiverParams
) -> float:
    """Expected number of gates lost to the hold-off after each click.

    The boundary gate (the first one whose separation from the previous
    click straddles the dead time) is blocked only when the new candidate
    arrives early in its window relative to the previous click's position.
    The probability of that is computed from the stationary distribution of
    in-window click offsets: the accepted signal profile plus the uniform
    dark-count background, weighted by their click shares.
    """
    det = receiver.detector
    clicks = click_probabilities(source, channel, receiver)
    return _blocked_gates(temporal_components(source, channel, receiver), det.gate_window,
                          source.gate_period, det.dead_time_ps, clicks.p_signal, clicks.p_dark)


@functools.lru_cache(maxsize=128)
def _holdoff(window: float, period: float, dead: float):
    """``(k_always, grid, du, lookups, spacings)`` of a hold-off of ``dead`` ps.

    A candidate in gate ``k`` after a click is separated from it by
    ``k * period + (u2 - u1)``, where the in-window offsets ``u`` differ by
    at most the window width.  The ``k_always`` gates with
    ``k * period + window <= dead`` are always blocked; each following gate
    with ``k * period < dead + window`` is blocked only for part of the
    offset combinations, and ``lookups`` holds per such gate the lookup
    into the CDF (led by a 0) over the offset ``grid`` (step ``du``) of
    ``u2 - (dead - k*period)``: a candidate at ``u2`` is blocked when the
    previous click sat later; ``spacings`` is ``np.diff(grid)``, the
    trapezoid rule's.  The arrays are shared, so read-only.
    """
    k_always = max(0, int(math.floor((dead - window) / period)))
    half = 0.5 * window
    grid = np.linspace(-half, half, 2049)
    du = grid[1] - grid[0]
    lookups = []
    # Exact arithmetic admits ceil(2 * window / period) partial gates, rounding one more at
    # each end; the count ends the loop, as k * period stops moving with k past 2^53 periods.
    for k in range(k_always + 1, k_always + 3 + math.ceil(2.0 * window / period)):
        if not k * period < dead + window:
            break
        lookups.append(np.searchsorted(grid, grid - (dead - k * period), side="right"))
    spacings = np.diff(grid)
    for array in (grid, spacings, *lookups):
        array.flags.writeable = False
    return k_always, grid, du, tuple(lookups), spacings


@np.errstate(over="ignore")
def _blocked_gates(components, window, period, dead, p_signal, p_dark) -> float:
    """Blocked gates from the offset density of signal and dark clicks.

    Terms, trapezoid rule, normalization and lookups run in place, each
    step in the order of the plain expression or of ``np.trapezoid``, so the
    result matches those expressions to the bit.  A line so narrow that its
    ``z**2`` passes the float range adds its exact 0 there.
    """
    k_always, grid, du, lookups, spacings = _holdoff(window, period, dead)
    density = np.zeros(grid.size)
    term = np.empty(grid.size)
    # Signal photons: profile restricted to the windows, folded onto the
    # in-window offset coordinate.
    for weight, mean, sigma in components:
        for k, _ in _window_masses(mean, sigma, period, window):
            # weight*p_signal*exp(-0.5*z**2)/(sigma*sqrt(2pi)), z = (grid + k*period - mean)/sigma
            np.add(grid, k * period, out=term)
            term -= mean
            term /= sigma
            np.square(term, out=term)
            term *= -0.5
            np.exp(term, out=term)
            term *= weight * p_signal
            term /= sigma * math.sqrt(2.0 * math.pi)
            density += term
    # Dark counts: uniform across the window.
    density += p_dark / window

    pairs = np.add(density[1:], density[:-1], out=term[:-1])  # np.trapezoid
    pairs *= spacings
    pairs /= 2.0
    total = pairs.sum()
    if total <= 0.0:
        return float(k_always) + 0.5 * len(lookups)
    density /= total
    weights = np.multiply(density, du, out=density)
    cdf = np.zeros(grid.size + 1)
    weights.cumsum(out=cdf[1:])

    blocked = float(k_always)
    for index in lookups:
        np.subtract(1.0, cdf.take(index, out=term), out=term)
        term *= weights
        blocked += float(term.sum())
    return blocked


def raw_rate(
    clicks: ClickProbabilities, source: SourceParams, blocked_gates: float
) -> float:
    """Detected-event rate in Hz, before basis sifting.

    Each detector runs its own hold-off: a click suppresses that detector's
    candidates for ``blocked_gates`` subsequent gates on average (see
    :func:`effective_blocked_gates`), thinning the per-detector stream from
    ``q`` to ``q / (1 + q * blocked)`` per gate (renewal process over
    Bernoulli gates).  Simultaneous clicks on both detectors are recorded as
    a single event.
    """
    return _renewal_rate(source.clock_rate, clicks.p_total, blocked_gates)


def _renewal_rate(clock_rate, p_total, blocked_gates):
    # Symmetric split of the combined no-click probability between the two
    # detectors, treating their clicks as independent.  In a matched basis a
    # pulse's photons all go, up to visibility, to one detector, so the
    # pair's clicks are anti-correlated; that matters only at high rates
    # (the event engine's raw rate is 0.36% below this at mu 20, 1.1 ns hold-off).
    q = 1.0 - math.sqrt(1.0 - p_total)
    a = q / (1.0 + q * blocked_gates)
    return clock_rate * (a + a - a * a)


def qber_breakdown(
    source: SourceParams, channel: ChannelParams, receiver: ReceiverParams
) -> QberBreakdown:
    """Additive decomposition of the quantum bit error rate.

    * ``e_opt``: interferometer contrast plus encoder mis-modulation.
    * ``e_afterpulse``: afterpulses carry no phase information and are wrong
      half the time, contributing half the afterpulse probability.
    * ``e_dark``: dark counts are likewise uninformative; their share of all
      clicks errs half the time.
    * ``e_interclock``: photons detected in a neighboring clock period are
      compared against an unrelated bit.
    """
    clicks = click_probabilities(source, channel, receiver)
    _, e_interclock = link_timing(source, channel, receiver)
    return QberBreakdown(*_error_budget(receiver.optical_error,
                                        receiver.detector.afterpulse_total,
                                        clicks.p_dark, clicks.p_total, e_interclock))


def _error_budget(e_opt, afterpulse_total, p_dark, p_total, e_interclock):
    """``(e_opt, e_afterpulse, e_dark, e_interclock, total)``."""
    e_afterpulse = 0.5 * afterpulse_total
    e_dark = 0.5 * p_dark / p_total if p_total > 0.0 else 0.0
    return (e_opt, e_afterpulse, e_dark, e_interclock,
            e_opt + e_afterpulse + e_dark + e_interclock)
