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


def _read_run(config: SystemConfig, result, n_pulses: int):
    """``(raw_hz, key, qber)`` of an event-engine run: the tag rate, the
    sifted key and its error rate, NaN when nothing sifted."""
    raw = len(result.tags) * config.source.clock_rate / n_pulses
    key = protocol.sift(result.record, result.tags)
    return raw, key, key.qber_estimate


def _measured_point(config: SystemConfig, n_pulses: int, seed: int):
    """Event-engine rate/error measurement at one operating point."""
    raw, key, qber = _read_run(config, montecarlo.simulate(config, n_pulses, seed), n_pulses)
    secure = keyrate.secure_rate(raw, min(qber, 0.5), config.protocol) if key.n_sifted else 0.0
    rate = RateResult(raw_rate=raw, qber=qber, secure_rate=secure)
    breakdown = linkbudget.qber_breakdown(config.source, config.channel, config.receiver)
    return rate, breakdown


def _grid(values, name: str) -> list[float]:
    """A sweep's grid: ``values`` as floats in ascending order, none repeated."""
    grid = sorted(float(value) for value in values)
    if not grid:
        raise ParameterError(f"{name} must not be empty")
    for a, b in zip(grid, grid[1:]):
        if a == b:
            raise ParameterError(f"{name} must not repeat a value, got {a} twice")
    return grid


def _sweep(key_name: str, points, engine, n_pulses, seed) -> SweepTable:
    """Resolve ``(x, config)`` points in order; row ``i`` uses ``seed + i``."""
    if engine not in ("analytic", "mc"):
        raise ParameterError(f"unknown engine {engine!r} (expected 'analytic' or 'mc')")
    rows = []
    for i, (x, point) in enumerate(points):
        rate, qber = (keyrate.evaluate_point(point) if engine == "analytic"
                      else _measured_point(point, n_pulses, seed + i))
        rows.append(SweepRow(x=x, rate=rate, qber=qber, compensated=point.channel.compensated))
    return SweepTable(key_name=key_name, rows=tuple(rows))


def run_distance_sweep(
    config: SystemConfig,
    lengths=DEFAULT_LENGTHS,
    engine: str = "analytic",
    *,
    n_pulses: int = 1_000_000,
    seed: int = 0,
) -> SweepTable:
    """Rates and error budget across fiber lengths.

    The lengths run ascending, none repeated, each row keeping the config's
    dispersion-compensation flag.  Event-engine rows use seed + row index,
    so the whole table is reproducible from one seed.
    """
    points = [(x, config.at_length(x)) for x in _grid(lengths, "lengths")]
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

    The grid runs ascending, none repeated.  Every point re-derives the coupled
    detector figures (efficiency, dark counts, afterpulsing) through the
    calibrated bias laws (:meth:`SystemConfig.at_bias`) before either engine
    runs.  Event-engine rows use seed + row index.
    """
    etas = _grid(eta_grid, "eta_grid")
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
    counts, edges = montecarlo.histogram(tags, bin_ps)
    fwhm = montecarlo.fwhm_from_counts(counts, edges)
    # A single bin cannot resolve any empty span.
    span = montecarlo.largest_empty_span(tags) if counts.size > 1 else None
    spacing = montecarlo.mean_peak_spacing(tags)
    return HistogramResult(
        counts=counts,
        edges=edges,
        fwhm_ps=fwhm,
        empty_span_ps=span,
        peak_spacing_ps=spacing,
        n_tags=len(tags),
        gate_period_ps=config.source.gate_period,
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
    edges = [_fmt(edge) for edge in result.edges]
    lines += [
        f"{lo},{hi},{count}"
        for lo, hi, count in zip(edges[:-1], edges[1:], result.counts.tolist())
    ]
    _write_text("\n".join(lines) + "\n", path)
