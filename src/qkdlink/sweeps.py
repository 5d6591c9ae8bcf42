"""Scenario runners: distance sweeps, bias sweeps, timing histograms.

Each runner produces an ordered table that :func:`emit_csv` renders to
byte-deterministic CSV; numbers are written in shortest-unique scientific
notation so identical tables always produce identical files.

Rows can come from either engine.  The closed-form engine fills every
column analytically.  The event engine measures the raw rate from the tag
count and the error rate from the sifted key, while the four error-budget
columns keep their closed-form values — the stream itself cannot be
decomposed by error mechanism.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import keyrate, linkbudget, montecarlo, protocol
from .keyrate import RateResult
from .linkbudget import QberBreakdown
from .params import ParameterError, SystemConfig

__all__ = [
    "SweepRow",
    "SweepTable",
    "HistogramResult",
    "run_distance_sweep",
    "run_bias_sweep",
    "run_histogram",
    "emit_csv",
    "emit_histogram_csv",
]

DEFAULT_LENGTHS = (5.6, 25.3, 65.5, 75.8, 101.1)
DEFAULT_ETA_GRID = tuple(np.round(np.arange(0.02, 0.1201, 0.01), 4))

# The numeric CSV columns between the sweep variable and ``compensated``.
_COLUMNS = (
    ("raw_hz", lambda r: r.rate.raw_rate),
    ("qber", lambda r: r.rate.qber),
    ("e_opt", lambda r: r.qber.e_opt),
    ("e_afterpulse", lambda r: r.qber.e_afterpulse),
    ("e_dark", lambda r: r.qber.e_dark),
    ("e_interclock", lambda r: r.qber.e_interclock),
    ("secure_hz", lambda r: r.rate.secure_rate),
)


@dataclass(frozen=True)
class SweepRow:
    """One operating point: independent variable plus full rate/error split."""

    x: float
    rate: RateResult
    qber: QberBreakdown
    compensated: bool


@dataclass(frozen=True)
class SweepTable:
    """Ordered sweep results; the independent variable strictly increases."""

    key_name: str
    rows: tuple

    def __post_init__(self) -> None:
        xs = [row.x for row in self.rows]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ParameterError(
                f"sweep variable {self.key_name!r} must be strictly increasing"
            )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> np.ndarray:
        """Numeric column by CSV name, for analysis convenience."""
        if name == self.key_name:
            return np.array([r.x for r in self.rows])
        getter = dict(_COLUMNS)[name]
        return np.array([getter(r) for r in self.rows])


def _measured_point(config: SystemConfig, n_pulses: int, seed: int):
    """Event-engine rate/error measurement at one operating point."""
    result = montecarlo.simulate(config, n_pulses, seed)
    clock = config.source.clock_rate
    raw = len(result.tags) * clock / n_pulses
    key = protocol.sift(result.alice, result.tags, result.bob_bases)
    if key.n_sifted > 0:
        qber = float(key.qber_estimate)
        secure = keyrate.secure_rate(raw, min(qber, 0.5), config.protocol)
    else:
        qber = float("nan")
        secure = 0.0
    rate = RateResult(
        raw_rate=raw,
        qber=qber,
        secure_rate=secure,
        eta_bob=config.receiver.detector.efficiency,
        length=config.channel.length,
    )
    breakdown = linkbudget.qber_breakdown(config.source, config.channel, config.receiver)
    return rate, breakdown


def _resolve_point(config, engine, n_pulses, seed):
    if engine == "analytic":
        return keyrate.evaluate_point(config)
    if engine == "mc":
        return _measured_point(config, n_pulses, seed)
    raise ParameterError(f"unknown engine {engine!r} (expected 'analytic' or 'mc')")


def _sweep(key_name: str, points, engine, n_pulses, seed) -> SweepTable:
    """Resolve ``(x, config)`` points in order; row ``i`` uses ``seed + i``."""
    rows = []
    for i, (x, point) in enumerate(points):
        rate, qber = _resolve_point(point, engine, n_pulses, seed + i)
        rows.append(
            SweepRow(x=x, rate=rate, qber=qber, compensated=point.channel.compensated)
        )
    return SweepTable(key_name=key_name, rows=tuple(rows))


def run_distance_sweep(
    config: SystemConfig,
    lengths=DEFAULT_LENGTHS,
    engine: str = "analytic",
    *,
    compensated: bool | None = None,
    n_pulses: int = 1_000_000,
    seed: int = 0,
) -> SweepTable:
    """Rates and error budget across fiber lengths.

    ``compensated`` overrides the config's dispersion-compensation flag for
    every row; None keeps it.  Event-engine rows use seed + row index, so
    the whole table is reproducible from one seed.
    """
    lengths = [float(length) for length in lengths]
    if not lengths:
        raise ParameterError("lengths must not be empty")
    points = [(x, config.at_length(x, compensated=compensated)) for x in lengths]
    return _sweep("length_km", points, engine, n_pulses, seed)


def run_bias_sweep(
    config: SystemConfig,
    eta_grid=DEFAULT_ETA_GRID,
    engine: str = "analytic",
    *,
    n_pulses: int = 1_000_000,
    seed: int = 0,
) -> SweepTable:
    """Rates and error budget across detector bias (efficiency) settings.

    The grid is sorted ascending.  Every point re-derives the coupled
    detector figures (efficiency, dark counts, afterpulsing) through the
    calibrated bias laws (:meth:`SystemConfig.at_bias`) before either engine
    runs.  Event-engine rows use seed + row index.
    """
    etas = sorted(float(e) for e in eta_grid)
    if not etas:
        raise ParameterError("eta_grid must not be empty")
    for eta in etas:
        if not 0.0 < eta <= 1.0:
            raise ParameterError(f"eta grid values must lie in (0, 1], got {eta}")
    points = [(eta, config.at_bias(eta)) for eta in etas]
    return _sweep("eta_bob", points, engine, n_pulses, seed)


@dataclass(frozen=True)
class HistogramResult:
    """Folded arrival-time histogram with its headline timing figures.

    ``fwhm_ps`` and ``empty_span_ps`` are None when undefined (empty
    stream, or a bin too coarse to resolve the period structure).
    """

    counts: np.ndarray
    edges: np.ndarray
    fwhm_ps: float | None
    empty_span_ps: float | None
    peak_spacing_ps: float | None
    n_tags: int
    gate_period_ps: float


def run_histogram(
    config: SystemConfig, n_pulses: int, bin_ps: float, seed: int
) -> HistogramResult:
    """Simulate a run and fold all detections onto one clock period."""
    result = montecarlo.simulate(config, n_pulses, seed)
    tags = result.tags
    period = config.source.gate_period
    counts, edges = montecarlo.histogram(tags, bin_ps, gate_period=period)
    if counts.size < 2:
        fwhm = None
        span = None  # a single bin cannot resolve any empty span
    else:
        fwhm = montecarlo.fwhm_from_counts(counts, edges)
        span = montecarlo.largest_empty_span(tags, gate_period=period)
    spacing = montecarlo.mean_peak_spacing(tags)
    return HistogramResult(
        counts=counts,
        edges=edges,
        fwhm_ps=fwhm,
        empty_span_ps=span,
        peak_spacing_ps=spacing,
        n_tags=len(tags),
        gate_period_ps=period,
    )


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    value = float(value)
    if value != value:
        return "nan"
    return np.format_float_scientific(value, unique=True)


def _write_text(text: str, path) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)


def emit_csv(table: SweepTable, path) -> None:
    """Write a sweep table as CSV; ``path='-'`` streams to stdout.

    Header names every column; rows keep table order; floats use
    shortest-unique scientific notation, so equal tables give equal bytes.
    """
    lines = [",".join([table.key_name, *(name for name, _ in _COLUMNS), "compensated"])]
    for row in table:
        values = [row.x, *(getter(row) for _, getter in _COLUMNS), row.compensated]
        lines.append(",".join(_fmt(value) for value in values))
    _write_text("\n".join(lines) + "\n", path)


def emit_histogram_csv(result: HistogramResult, path) -> None:
    """Write binned counts plus summary figures as commented header lines."""

    def _opt(value):
        return "undefined" if value is None else _fmt(value)

    lines = [
        f"# n_tags = {result.n_tags}",
        f"# gate_period_ps = {_fmt(result.gate_period_ps)}",
        f"# fwhm_ps = {_opt(result.fwhm_ps)}",
        f"# empty_span_ps = {_opt(result.empty_span_ps)}",
        f"# peak_spacing_ps = {_opt(result.peak_spacing_ps)}",
        "bin_lo_ps,bin_hi_ps,count",
    ]
    for i in range(result.counts.size):
        lines.append(
            f"{_fmt(result.edges[i])},{_fmt(result.edges[i + 1])},{int(result.counts[i])}"
        )
    _write_text("\n".join(lines) + "\n", path)
