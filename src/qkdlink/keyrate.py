"""Secure-rate arithmetic and closed-form operating-point evaluation.

The distilled key rate follows the standard weak-pulse relation

    R_secure = sift * R_raw * (1 - (1 + f_ec) * H(e))

clamped at zero: once the error rate crosses the security threshold the
link yields no key rather than a negative rate.  ``H`` is the binary
Shannon entropy and ``f_ec`` the inefficiency of the error-correction
step relative to the Shannon limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linkbudget
from .params import SIFT_FACTOR, ParameterError, ProtocolConstants, SystemConfig

__all__ = [
    "RateResult",
    "ProtocolConstants",
    "binary_entropy",
    "key_yield",
    "secure_rate",
    "qber_threshold",
    "evaluate_point",
]


@dataclass(frozen=True)
class RateResult:
    """Raw rate, error rate and secure rate at one operating point.

    The operating point itself (length, detector efficiency) is read from
    the config that produced the result, not stored here.
    """

    raw_rate: float
    qber: float
    secure_rate: float


def binary_entropy(e: float) -> float:
    """Binary Shannon entropy H(e) in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= e <= 1.0:
        raise ParameterError(f"binary_entropy defined on [0, 1], got {e}")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def key_yield(qber: float, consts: ProtocolConstants) -> float:
    """Distillable fraction of the sifted bits, ``1 - (1 + f_ec) * H(e)``.

    Negative beyond the security threshold; callers clamp at zero.
    """
    if not 0.0 <= qber <= 0.5:
        raise ParameterError(f"qber must lie in [0, 0.5], got {qber}")
    return 1.0 - (1.0 + consts.f_ec) * binary_entropy(qber)


def secure_rate(raw: float, qber: float, consts: ProtocolConstants) -> float:
    """Distillable key rate in Hz; zero when the error rate is too high."""
    if raw < 0.0:
        raise ParameterError("raw rate must be non-negative")
    return max(0.0, SIFT_FACTOR * raw * key_yield(qber, consts))


def _brentq(f, a, b, fa, fb, xtol, rtol, maxiter) -> float:
    """Brent's root of ``f`` in [a, b] given ``fa = f(a)``, ``fb = f(b)``: SciPy's
    ``brentq`` (``Zeros/brentq.c``) step for step, so the same evaluations give
    the same root.  ``ValueError`` on a NaN, ends of one sign, or no convergence."""
    if math.isnan(fa) or math.isnan(fb):
        raise ValueError("a function value at the bracket's ends is NaN")
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):  # signbit, as brentq.c
        raise ValueError("f(a) and f(b) must have different signs")
    xpre, xcur, fpre, fcur = a, b, float(fa), float(fb)  # C doubles, as brentq.c reads them
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):  # fpre is never 0 here
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless an interpolation step is short enough
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic; a divisor underflowed to 0 bisects, as in C
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ValueError(f"the function value at x={xcur} is NaN")
    raise ValueError(f"no convergence in {maxiter} iterations")


def qber_threshold(consts: ProtocolConstants) -> float:
    """Error rate at which the distillable key vanishes.

    Root of :func:`key_yield` on (0, 0.5), located by Brent's method well
    past 1e-9 accuracy.
    """
    def f(e):
        return key_yield(e, consts)

    return _brentq(f, 1e-15, 0.5, f(1e-15), f(0.5), 1e-13, 8.9e-16, 100)


def evaluate_point(config: SystemConfig):
    """Closed-form raw rate, error budget and secure rate for one config.

    Returns ``(RateResult, QberBreakdown)``.
    """
    source = config.source
    channel = config.channel
    receiver = config.receiver
    clicks = linkbudget.click_probabilities(source, channel, receiver)
    blocked = linkbudget.effective_blocked_gates(source, channel, receiver)
    raw = linkbudget.raw_rate(clicks, source, blocked_gates=blocked)
    breakdown = linkbudget.qber_breakdown(source, channel, receiver)
    # Error rates beyond 1/2 carry no more extractable key than 1/2 itself.
    rate = secure_rate(raw, min(breakdown.total, 0.5), config.protocol)
    return RateResult(raw_rate=raw, qber=breakdown.total, secure_rate=rate), breakdown
