"""Per-pulse stochastic event engine for the gated QKD link.

For every clock cycle the engine draws Alice's bit/basis pair, samples the
photons that survive the fiber, routes them through the interferometer,
and runs both gated detectors: window acceptance with timing jitter, dark
counts, afterpulse release, hold-off (dead time) and double-click
squashing.  The output is Alice's preparation log plus Bob's time-tagged
detection stream, bit-reproducible for a fixed (config, n_pulses, seed).

Candidate events are generated in vectorized batches; the stateful part
(hold-off and afterpulse feedback) runs as a chronological sweep over the
sparse candidate list, per detector, with afterpulses injected through a
priority queue.  Long runs may be split into contiguous segments with
independent random streams; each later segment re-establishes detector
equilibrium on a discarded warm-up prefix, so segments can be produced
independently (and in principle concurrently) without sharing state.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import linkbudget, protocol
from .params import ParameterError, SystemConfig

__all__ = [
    "ResourceLimitError",
    "AliceLog",
    "TimeTagStream",
    "SimulationResult",
    "simulate",
    "histogram",
    "fwhm_from_counts",
    "largest_empty_span",
    "mean_peak_spacing",
    "write_binary_dump",
    "read_binary_dump",
    "write_csv_dump",
]

DETECTOR_A = 0
DETECTOR_B = 1

# Gates discarded at the start of every segment after the first, long enough
# for afterpulse memory (tens of ns) to forget the missing history.
WARMUP_GATES = 10_000

_CHUNK = 1 << 20

# Binary dump record, packed little-endian (13 bytes, the struct layout
# ``<QBI``): clock index, detector id, timestamp rounded to ps.
_RECORD = np.dtype([("clock", "<u8"), ("detector", "u1"), ("ps", "<u4")])


class ResourceLimitError(RuntimeError):
    """Raised when a run would generate more events than allowed."""


@dataclass(frozen=True)
class AliceLog:
    """Alice's per-clock preparation record; entry ``i`` is clock ``i``."""

    bit: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        if len(self.bit) != len(self.basis):
            raise ParameterError("Alice log columns must have equal length")

    def __len__(self) -> int:
        return len(self.bit)


class TimeTagStream:
    """Column-wise store of detection records plus run metadata.

    ``timestamp`` is the offset inside the clock period in ps; the gate is
    centered at half the period, so all tags fall inside
    ``period/2 +- window/2``.
    """

    def __init__(self, detector_id, clock_index, timestamp, meta=None):
        self.detector_id = np.asarray(detector_id, dtype=np.uint8)
        self.clock_index = np.asarray(clock_index, dtype=np.uint64)
        self.timestamp = np.asarray(timestamp, dtype=np.float64)
        if not (len(self.detector_id) == len(self.clock_index) == len(self.timestamp)):
            raise ParameterError("time-tag columns must have equal length")
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return len(self.clock_index)

    def absolute_times(self) -> np.ndarray:
        """Tag times on the global ps axis."""
        period = self.meta["gate_period_ps"]
        return self.clock_index.astype(np.float64) * period + self.timestamp


@dataclass(frozen=True)
class SimulationResult:
    """Everything one run produces: both parties' records."""

    alice: AliceLog
    tags: TimeTagStream
    bob_bases: np.ndarray

    @property
    def meta(self) -> dict:
        return self.tags.meta


class _EventBudget:
    def __init__(self, limit: int):
        self.limit = int(limit)
        self.used = 0

    def charge(self, count: int) -> None:
        self.used += int(count)
        if self.used > self.limit:
            raise ResourceLimitError(
                f"event budget exceeded: {self.used} > {self.limit}"
            )


def _sweep_detector(gates, offsets, det, ap_rng, period, n_gates, budget):
    """Chronological hold-off / afterpulse sweep for one detector.

    ``gates``/``offsets`` are the candidate events (photon or dark) sorted
    here by time.  Accepted clicks spawn a Poisson number of afterpulse
    candidates; each is released an exponential time after the hold-off
    expires and snaps to the nearest gate, where it lands uniformly inside
    the window like any other charge-induced event.  Afterpulses feed back:
    they obey the hold-off, can themselves afterpulse, and merge with other
    candidates in the same gate (a gate yields at most one avalanche).
    """
    dead = det.dead_time_ps
    pa = det.afterpulse_total
    tau = det.afterpulse_decay_ps
    window = det.gate_window
    center = 0.5 * period

    order = np.lexsort((offsets, gates))
    gates = gates[order]
    offsets = offsets[order]
    n = gates.size

    out_gates: list[int] = []
    out_offsets: list[float] = []
    heap: list[tuple[float, int, float]] = []
    i = 0
    last_abs = -math.inf
    last_gate = -1
    while i < n or heap:
        if i < n:
            cand_abs = gates[i] * period + offsets[i]
        if heap and (i >= n or heap[0][0] < cand_abs):
            t_abs, gate, t_in = heapq.heappop(heap)
        else:
            gate = int(gates[i])
            t_in = float(offsets[i])
            t_abs = cand_abs
            i += 1
        if gate == last_gate:
            continue  # the detector already avalanched in this gate
        if t_abs - last_abs < dead:
            continue
        out_gates.append(gate)
        out_offsets.append(t_in)
        last_abs = t_abs
        last_gate = gate
        if pa > 0.0:
            spawned = int(ap_rng.poisson(pa))
            if spawned:
                budget.charge(spawned)
                for _ in range(spawned):
                    release = t_abs + dead + ap_rng.exponential(tau)
                    ap_gate = int(round((release - center) / period))
                    if ap_gate >= n_gates:
                        continue
                    ap_in = center + (ap_rng.random() - 0.5) * window
                    heapq.heappush(heap, (ap_gate * period + ap_in, ap_gate, ap_in))
    return (
        np.asarray(out_gates, dtype=np.int64),
        np.asarray(out_offsets, dtype=np.float64),
    )


def _run_segment(config, n_gates, rng, ap_rng, budget):
    """Simulate ``n_gates`` consecutive clock cycles with fresh detectors.

    Returns Alice's arrays, Bob's bases, and the squashed tag columns with
    gate indices local to the segment.
    """
    source = config.source
    channel = config.channel
    receiver = config.receiver
    det_a = receiver.detector_a
    det_b = receiver.detector_b
    if det_a.jitter_fwhm != det_b.jitter_fwhm:
        raise ParameterError(
            "event engine requires matched detector jitter "
            "(routing is resolved per detected gate)"
        )
    period = source.gate_period
    window = det_a.gate_window
    center = 0.5 * period
    half_window = 0.5 * window

    bits = rng.integers(0, 2, n_gates, dtype=np.uint8)
    bases = rng.integers(0, 2, n_gates, dtype=np.uint8)
    bob_bases = rng.integers(0, 2, n_gates, dtype=np.uint8)
    flip = rng.random(n_gates) < receiver.mismodulation_error

    eta_max = max(det_a.efficiency, det_b.efficiency)
    mean_candidates = (
        source.mu
        * linkbudget.transmittance(channel.length, channel.attenuation)
        * eta_max
    )
    components = linkbudget.temporal_components(source, channel)
    comp_weights = np.array([w for w, _, _ in components])
    comp_means = np.array([m for _, m, _ in components])
    comp_sigmas = np.array([s for _, _, s in components])
    comp_edges = np.cumsum(comp_weights)
    jitter_sigma = det_a.jitter_sigma

    cand_gates = {DETECTOR_A: [], DETECTOR_B: []}
    cand_offsets = {DETECTOR_A: [], DETECTOR_B: []}

    for start in range(0, n_gates, _CHUNK):
        stop = min(start + _CHUNK, n_gates)
        span = stop - start

        # --- photons that reach a detector ---------------------------------
        counts = rng.poisson(mean_candidates, span) if mean_candidates > 0 else None
        if counts is not None and counts.any():
            emit = start + np.repeat(np.arange(span, dtype=np.int64), counts)
            m = emit.size
            budget.charge(m)
            if len(components) == 1:
                arrival = comp_means[0] + comp_sigmas[0] * rng.standard_normal(m)
            else:
                comp = np.searchsorted(comp_edges, rng.random(m), side="right")
                comp = np.minimum(comp, len(components) - 1)
                arrival = comp_means[comp] + comp_sigmas[comp] * rng.standard_normal(m)
            arrival = arrival + jitter_sigma * rng.standard_normal(m)
            shift = np.rint(arrival / period).astype(np.int64)
            offset = arrival - shift * period
            gate = emit + shift
            keep = (np.abs(offset) <= half_window) & (gate >= 0) & (gate < n_gates)
            emit, gate, offset = emit[keep], gate[keep], offset[keep]

            # Interferometer routing against Bob's phase in the gate where
            # the photon is actually detected.
            p_detector_a = protocol.detector_a_probability(
                bits[emit], bases[emit], flip[emit], bob_bases[gate],
                receiver.visibility,
            )
            to_a = rng.random(gate.size) < p_detector_a
            if det_a.efficiency != det_b.efficiency and eta_max > 0.0:
                # Residual per-detector thinning after the shared eta_max draw.
                survival = np.where(
                    to_a, det_a.efficiency / eta_max, det_b.efficiency / eta_max
                )
                alive = rng.random(gate.size) < survival
                gate, offset, to_a = gate[alive], offset[alive], to_a[alive]
            ts = center + offset
            for det_id, mask in ((DETECTOR_A, to_a), (DETECTOR_B, ~to_a)):
                cand_gates[det_id].append(gate[mask])
                cand_offsets[det_id].append(ts[mask])

        # --- dark counts ----------------------------------------------------
        for det_id, det in ((DETECTOR_A, det_a), (DETECTOR_B, det_b)):
            if det.dark_prob <= 0.0:
                continue
            fired = np.flatnonzero(rng.random(span) < det.dark_prob)
            if fired.size:
                budget.charge(fired.size)
                cand_gates[det_id].append(start + fired.astype(np.int64))
                cand_offsets[det_id].append(
                    center + (rng.random(fired.size) - 0.5) * window
                )

    accepted = {}
    for det_id, det in ((DETECTOR_A, det_a), (DETECTOR_B, det_b)):
        gates = (
            np.concatenate(cand_gates[det_id])
            if cand_gates[det_id]
            else np.empty(0, dtype=np.int64)
        )
        offsets = (
            np.concatenate(cand_offsets[det_id])
            if cand_offsets[det_id]
            else np.empty(0, dtype=np.float64)
        )
        accepted[det_id] = _sweep_detector(
            gates, offsets, det, ap_rng, period, n_gates, budget
        )

    # --- squash simultaneous clicks into a single recorded event -----------
    gates_a, ts_a = accepted[DETECTOR_A]
    gates_b, ts_b = accepted[DETECTOR_B]
    common, idx_a, idx_b = np.intersect1d(
        gates_a, gates_b, assume_unique=True, return_indices=True
    )
    if common.size:
        keep_a_side = rng.random(common.size) < 0.5
        drop_a = idx_a[~keep_a_side]
        drop_b = idx_b[keep_a_side]
        mask_a = np.ones(gates_a.size, dtype=bool)
        mask_a[drop_a] = False
        mask_b = np.ones(gates_b.size, dtype=bool)
        mask_b[drop_b] = False
        gates_a, ts_a = gates_a[mask_a], ts_a[mask_a]
        gates_b, ts_b = gates_b[mask_b], ts_b[mask_b]

    gate_col = np.concatenate([gates_a, gates_b])
    ts_col = np.concatenate([ts_a, ts_b])
    det_col = np.concatenate(
        [
            np.full(gates_a.size, DETECTOR_A, dtype=np.uint8),
            np.full(gates_b.size, DETECTOR_B, dtype=np.uint8),
        ]
    )
    order = np.argsort(gate_col, kind="stable")
    return bits, bases, bob_bases, gate_col[order], ts_col[order], det_col[order]


def simulate(
    config: SystemConfig,
    n_pulses: int,
    seed: int,
    *,
    segments: int = 1,
    max_events: int = 50_000_000,
) -> SimulationResult:
    """Run the event engine over ``n_pulses`` clock cycles.

    Parameters
    ----------
    config:
        Full system parameter set.
    n_pulses:
        Number of clock cycles to simulate.
    seed:
        Root seed; every run with the same (config, n_pulses, seed,
        segments) is bit-identical.
    segments:
        Number of independently seeded contiguous stretches.  Segments
        after the first prepend a discarded 10^4-gate warm-up to restore
        detector equilibrium, trading a negligible boundary approximation
        for embarrassingly parallel structure.
    max_events:
        Upper bound on generated candidate events (photons, dark counts,
        afterpulses) before the run aborts with :class:`ResourceLimitError`.

    Returns
    -------
    SimulationResult
        Alice's log, Bob's basis record, and the squashed time-tag stream.
        ``result.meta`` records the seed and stream layout.
    """
    if n_pulses < 1:
        raise ParameterError("n_pulses must be at least 1")
    if segments < 1 or segments > n_pulses:
        raise ParameterError("segments must lie in [1, n_pulses]")
    budget = _EventBudget(max_events)

    root = np.random.SeedSequence(seed)
    children = root.spawn(segments)
    bounds = np.linspace(0, n_pulses, segments + 1).astype(np.int64)

    bits_parts = []
    bases_parts = []
    bob_parts = []
    tag_clock_parts = []
    tag_ts_parts = []
    tag_det_parts = []
    for s in range(segments):
        own_start = int(bounds[s])
        own_end = int(bounds[s + 1])
        warm = WARMUP_GATES if s > 0 else 0
        cand_ss, ap_ss = children[s].spawn(2)
        rng = np.random.Generator(np.random.Philox(cand_ss))
        ap_rng = np.random.Generator(np.random.Philox(ap_ss))
        n_local = own_end - own_start + warm
        bits, bases, bob, gates, ts, dets = _run_segment(
            config, n_local, rng, ap_rng, budget
        )
        base_clock = own_start - warm
        keep = gates >= warm
        bits_parts.append(bits[warm:])
        bases_parts.append(bases[warm:])
        bob_parts.append(bob[warm:])
        tag_clock_parts.append((gates[keep] + base_clock).astype(np.uint64))
        tag_ts_parts.append(ts[keep])
        tag_det_parts.append(dets[keep])

    source = config.source
    meta = {
        "seed": int(seed),
        "segments": int(segments),
        "n_pulses": int(n_pulses),
        "warmup_gates": WARMUP_GATES,
        "gate_period_ps": source.gate_period,
        "gate_window_ps": config.receiver.detector_a.gate_window,
        "rng": "Philox (two spawned streams per segment: candidates, afterpulses)",
        "events_generated": budget.used,
    }
    alice = AliceLog(bit=np.concatenate(bits_parts), basis=np.concatenate(bases_parts))
    tags = TimeTagStream(
        detector_id=np.concatenate(tag_det_parts),
        clock_index=np.concatenate(tag_clock_parts),
        timestamp=np.concatenate(tag_ts_parts),
        meta=meta,
    )
    return SimulationResult(alice=alice, tags=tags, bob_bases=np.concatenate(bob_parts))


# ---------------------------------------------------------------------------
# Timing analysis of tag streams.
# ---------------------------------------------------------------------------


def histogram(tags: TimeTagStream, bin_ps: float, gate_period: float | None = None):
    """Counts of tag timestamps folded onto one clock period.

    Returns ``(counts, edges)`` with ``edges`` in ps.  A bin wider than the
    period degenerates to a single all-inclusive bin.
    """
    if bin_ps <= 0.0:
        raise ParameterError("bin_ps must be positive")
    period = gate_period if gate_period is not None else tags.meta["gate_period_ps"]
    folded = np.mod(tags.timestamp, period)
    if bin_ps >= period:
        edges = np.array([0.0, period])
    else:
        edges = np.arange(0.0, period + bin_ps, bin_ps)
    counts, edges = np.histogram(folded, bins=edges)
    return counts, edges


def fwhm_from_counts(counts: np.ndarray, edges: np.ndarray) -> float | None:
    """Full width at half maximum of a single-peaked histogram, ps.

    Crossing positions are interpolated linearly between bins; returns None
    when the histogram is empty or has no half-maximum crossings.
    """
    if counts.size < 2 or counts.max() == 0:
        return None
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = counts.max() / 2.0
    above = np.flatnonzero(counts >= half)
    left, right = above[0], above[-1]
    if left == 0 or right == counts.size - 1:
        return None

    def _cross(i_low, i_high):
        c0, c1 = counts[i_low], counts[i_high]
        if c1 == c0:
            return centers[i_high]
        frac = (half - c0) / (c1 - c0)
        return centers[i_low] + frac * (centers[i_high] - centers[i_low])

    rise = _cross(left - 1, left)
    fall = _cross(right + 1, right)
    return float(abs(fall - rise))


def largest_empty_span(tags: TimeTagStream, gate_period: float | None = None) -> float | None:
    """Longest circular stretch of the folded period with no tags at all, ps.

    Measured on the raw timestamps rather than histogram bins, so it is not
    quantized by the bin width.  None when the stream is empty.
    """
    period = gate_period if gate_period is not None else tags.meta["gate_period_ps"]
    if len(tags) == 0:
        return None
    folded = np.sort(np.mod(tags.timestamp, period))
    gaps = np.diff(folded)
    wrap = folded[0] + period - folded[-1]
    if gaps.size == 0:
        return float(period)
    return float(max(gaps.max(), wrap))


def mean_peak_spacing(tags: TimeTagStream) -> float | None:
    """Average clock-to-clock spacing implied by consecutive tags, ps.

    Each consecutive tag pair contributes its absolute time difference
    divided by the number of clock cycles between them; detections many
    cycles apart therefore still estimate the single-period spacing.
    """
    if len(tags) < 2:
        return None
    times = tags.absolute_times()
    clocks = tags.clock_index.astype(np.float64)
    dt = np.diff(times)
    dn = np.diff(clocks)
    valid = dn > 0
    if not np.any(valid):
        return None
    return float(np.mean(dt[valid] / dn[valid]))


# ---------------------------------------------------------------------------
# Event dumps.
# ---------------------------------------------------------------------------


def write_binary_dump(tags: TimeTagStream, path) -> None:
    """Fixed-width little-endian records: u64 clock, u8 detector, u32 ps.

    Timestamps round half to even, like Python's ``round``; one that rounds
    outside the u32 range raises :class:`ParameterError` before anything is
    written.
    """
    ps = np.rint(tags.timestamp)
    if not np.all((ps >= 0.0) & (ps < 2.0**32)):
        raise ParameterError("timestamps must round into [0, 2**32) ps for the binary dump")
    records = np.empty(len(tags), dtype=_RECORD)
    records["clock"] = tags.clock_index
    records["detector"] = tags.detector_id
    records["ps"] = ps
    with open(path, "wb") as handle:
        handle.write(records.tobytes())


def read_binary_dump(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`write_binary_dump`; returns (clock, detector, ps)."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) % _RECORD.itemsize:
        raise ValueError(f"truncated event dump: {len(raw)} bytes")
    records = np.frombuffer(raw, dtype=_RECORD)
    return (
        records["clock"].astype(np.uint64),
        records["detector"].astype(np.uint8),
        records["ps"].astype(np.uint32),
    )


def write_csv_dump(tags: TimeTagStream, path) -> None:
    """Readable alternative to the binary dump for small runs."""
    lines = ["clock_index,detector_id,timestamp_ps"]
    for d, c, t in zip(tags.detector_id, tags.clock_index, tags.timestamp):
        lines.append(f"{int(c)},{int(d)},{float(t)!r}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")
