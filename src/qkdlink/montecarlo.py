"""Stochastic event engine for the gated QKD link.

Every per-clock coin (Alice's bit, basis and mis-modulation, Bob's basis,
the double-click squash) is a pure function of the run's seed and the
global clock index (a counter-based SplitMix64 mix), evaluated only at the
clocks that are read: emitting clocks, detection gates and tagged clocks.
Everything else is drawn per event, so the cost of a run scales with its
events rather than its clock cycles: the engine draws how many photons
survive the fiber and how many dark counts each detector sees, then places
them on uniform clocks (Poisson superposition and uniform subsets, exact in
law for per-gate Poisson photons and Bernoulli darks).  Photon arrivals
follow the detected profile that the analytic engine integrates
(:func:`linkbudget.temporal_components`: a Poisson count per line, then a
normal per photon at its line's jitter-convolved width); they are routed
through the interferometer and both gated detectors are run: window
acceptance, dark counts, afterpulse release, hold-off (dead time) and
double-click squashing.  The output is
Alice's preparation log plus Bob's time-tagged detection stream,
bit-reproducible for a fixed (config, n_pulses, seed).  A zero photon
mean, dark probability or afterpulse probability is no special case: it
takes the general path, whose empty draws take nothing from the streams.

The stateful part (hold-off and afterpulse feedback) runs once per
detector over the whole run: every candidate's potential afterpulse tree
is drawn up front, a generation at a time (one Poisson total spread over
uniform parents), and a chronological sweep over the tree decides which
nodes fire, in numpy wherever no earlier click can interfere and in a short
loop over the clustered rest.  A run may split
its clocks into contiguous segments whose candidates are drawn from
independent random streams; the sweep then sees every segment's
candidates at once, so the output is exact in law for any segment count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linkbudget, protocol
from .params import ParameterError, SystemConfig

__all__ = [
    "ResourceLimitError",
    "ClockBits",
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

# Binary dump record, packed little-endian (13 bytes, the struct layout
# ``<QBI``): clock index, detector id, timestamp rounded to ps.
_RECORD = np.dtype([("clock", "<u8"), ("detector", "u1"), ("ps", "<u4")])

# Largest Poisson mean NumPy's generators can draw (their POISSON_LAM_MAX).
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10

# Most bins a folded histogram may have.  One-ps bins over a 1 GHz clock
# period need about 1e3; the cap only stops a width whose edges alone would
# exhaust memory.
_MAX_BINS = 1_000_000

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the Weyl increment and the
# two multipliers of the output finalizer.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

# Most candidate events (photons, dark counts, afterpulses) a run may
# generate before it aborts with ResourceLimitError.
_MAX_EVENTS = 50_000_000

# Most segments a run may have: each costs a stream and a fixed set of numpy
# calls, and 1024 split the 50M-event budget into 49k apiece.
_MAX_SEGMENTS = 1024

# Bit of the clock mix that carries each per-clock coin; the low 53 bits
# carry the pulse's mis-modulation (:func:`_mismodulated`).
ALICE_BIT, ALICE_BASIS, BOB_BASIS, SQUASH_A = 63, 62, 61, 60


class ResourceLimitError(RuntimeError):
    """Raised when a run would generate more events than allowed."""


def _clock_mix(key: int, clocks) -> np.ndarray:
    """SplitMix64 output number ``clock`` of the stream seeded with ``key``.

    ``z = (clock + 1) * golden + key``, then the standard finalizer.  Each
    clock's value depends on nothing else, so any set of clocks costs
    O(its size) (a counter-based generator: Salmon et al., SC'11).
    """
    z = (np.asarray(clocks).astype(np.uint64) + np.uint64(1)) * _GOLDEN + np.uint64(key)
    z ^= z >> np.uint64(30)
    z *= _MIX_1
    z ^= z >> np.uint64(27)
    z *= _MIX_2
    z ^= z >> np.uint64(31)
    return z


def _mix_bit(z: np.ndarray, bit: int) -> np.ndarray:
    """Bit ``bit`` of each mixed value, as uint8 0/1."""
    return ((z >> np.uint64(bit)) & np.uint64(1)).astype(np.uint8)


def _mismodulated(z: np.ndarray, m: float) -> np.ndarray:
    """Low 53 bits ``k`` below ``ceil(m * 2**53)``: exactly ``k / 2**53 < m``,
    the Bernoulli(m) of ``Generator.random() < m``."""
    return (z & np.uint64(2**53 - 1)) < np.uint64(np.ceil(m * 2.0**53))


@dataclass(frozen=True)
class ClockBits:
    """One per-clock 0/1 column, evaluated only at the clocks it is read at.

    Entry ``i`` is bit ``bit`` of the run's clock mix at clock ``i``; the
    column is ``n_clocks`` long but stores nothing per clock.  Index it
    with a 1-D integer clock array.  A clock outside ``[0, n_clocks)``
    raises :class:`IndexError`, and converting the whole column to an
    array raises :class:`TypeError`.  Compare columns with ``==`` or
    evaluated at a clock array: ``np.array_equal`` on two columns returns
    False even for two same-seed runs, as it turns that error into False.
    """

    key: int
    bit: int
    n_clocks: int

    def __len__(self) -> int:
        return self.n_clocks

    def __getitem__(self, clocks) -> np.ndarray:
        clocks = np.asarray(clocks)
        if clocks.ndim != 1 or clocks.dtype.kind not in "iu":
            raise TypeError("a clock column is indexed by a 1-D integer clock array")
        if clocks.size and (clocks.min() < 0 or clocks.max() >= self.n_clocks):
            raise IndexError(f"clock index outside the {self.n_clocks}-clock run")
        return _mix_bit(_clock_mix(self.key, clocks), self.bit)

    def __array__(self, dtype=None, copy=None):
        raise TypeError("a clock column is evaluated at clocks; index it with a clock array")


@dataclass(frozen=True)
class AliceLog:
    """Alice's per-clock preparation record; entry ``i`` is clock ``i``.

    The engine fills both fields with :class:`ClockBits`, read at clock
    arrays; any equal-length arrays work too.
    """

    bit: ClockBits | np.ndarray
    basis: ClockBits | np.ndarray

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
    bob_bases: ClockBits

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


def _afterpulse_tree(gates, offsets, det, ap_rng, period, n_gates, budget):
    """Every potential afterpulse of the candidates, drawn up front.

    Each node (a photon or dark candidate, or a potential afterpulse)
    carries a Poisson(pa) number of potential afterpulses, released an
    exponential time after the hold-off expires and snapped to the nearest
    gate, where they land uniformly inside the window: a child's gate is its
    parent's plus ``step = rint((offset - center + dead + delay) / period)``.
    A generation of N nodes draws one Poisson(pa * N) total, charged to
    ``budget`` before any per-child array, then as many sorted uniform node
    indices as parents (iid Poisson(pa) per node), delays and offsets.  A
    child with ``step == 0`` would always merge with its parent's click, and
    one past the run never fires, so both are dropped.  Returns the nodes in
    time order (see :func:`_time_order`).
    """
    pa = det.afterpulse_total
    center = 0.5 * period
    gen_gate = np.asarray(gates, dtype=np.int64)
    gen_off = np.asarray(offsets, dtype=np.float64)
    node_gate, node_off, node_parent = [gen_gate], [gen_off], []
    first = 0
    while gen_gate.size:
        n_children = int(ap_rng.poisson(pa * gen_gate.size))
        budget.charge(n_children)
        parent = np.sort(ap_rng.integers(0, gen_gate.size, n_children))
        release = gen_off[parent] - center + det.dead_time_ps
        release += ap_rng.exponential(det.afterpulse_decay_ps, parent.size)
        step = np.rint(release / period).astype(np.int64)
        child_gate = gen_gate[parent] + step
        child_off = center + (ap_rng.random(parent.size) - 0.5) * det.gate_window
        keep = np.flatnonzero((step > 0) & (child_gate < n_gates))
        node_parent.append(parent[keep] + first)
        first += gen_gate.size
        gen_gate, gen_off = child_gate[keep], child_off[keep]
        node_gate.append(gen_gate)
        node_off.append(gen_off)
    node_parent.insert(0, np.full(node_gate[0].size, -1))
    return _time_order(*(np.concatenate(c) for c in (node_gate, node_off, node_parent)), period)


def _time_order(gate, off, parent, period):
    """Afterpulse-tree nodes, given candidates first and each child after
    its parent (``parent`` = -1 for a candidate), sorted by ``(gate,
    offset)`` with candidates first on a tie.  Returns ``(gate, offset,
    parent)``, ``parent`` re-indexed.

    ``gate * period + offset`` is only a sort key.  Equal pairs have equal
    keys, so a stable sort keeps candidates first; but the key's rounding
    can tie distinct offsets in a gate out of order, or move a time across
    a gate.  The sorted pairs are checked, and if they decrease anywhere,
    the three-key sort on ``(gate, offset, parent >= 0)`` replaces it.
    """
    order = np.argsort(gate * period + off, kind="stable")
    g, o = gate[order], off[order]
    d_gate = np.diff(g)
    if np.any((d_gate < 0) | (d_gate == 0) & (np.diff(o) < 0)):
        order = np.lexsort((parent >= 0, off, gate))
        g, o = gate[order], off[order]
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    parent = parent[order]
    return g, o, np.where(parent >= 0, rank[parent], -1)


def _sweep_detector(gates, offsets, det, ap_rng, period, n_gates, budget):
    """Chronological hold-off / afterpulse sweep for one detector.

    A node of the :func:`_afterpulse_tree` exists if it is a candidate or
    its parent fired, and it fires unless the last click before it lies in
    its gate (a gate yields at most one avalanche) or less than the hold-off
    earlier, ``Δgate * period + Δoffset``.  The tree's draws do not depend
    on the history, so using them only for nodes that fire keeps the law of
    drawing per click.  A node at least the hold-off after its predecessor,
    in another gate, cannot be blocked: such candidates fire in numpy, and
    a loop settles the rest.  The loop reads lists of only the rest and of
    each one's anchor, the last numpy click before it (the first node is a
    candidate and always fires), and the fired flags through a byte buffer.
    Returns the clicks' gates and offsets in time order.
    """
    dead = det.dead_time_ps
    gate, off, parent = _afterpulse_tree(gates, offsets, det, ap_rng, period, n_gates, budget)
    d_gate = np.diff(gate)
    fired = np.ones(gate.size, dtype=bool)
    fired[1:] = (d_gate * period + np.diff(off) >= dead) & (d_gate != 0)
    fired &= parent < 0
    rest = np.flatnonzero(~fired)
    anchor = np.maximum.accumulate(np.where(fired, np.arange(gate.size), -1))[rest]
    flags = bytearray(fired)
    last = last_gate = last_off = -1
    for j, p, g, o, a, a_gate, a_off in zip(
        rest.tolist(), parent[rest].tolist(), gate[rest].tolist(), off[rest].tolist(),
        anchor.tolist(), gate[anchor].tolist(), off[anchor].tolist(),
    ):
        if p >= 0 and not flags[p]:
            continue
        if a > last:  # the anchor is the last click before node j
            last, last_gate, last_off = a, a_gate, a_off
        if last_gate == g or (g - last_gate) * period + (o - last_off) < dead:
            continue
        flags[j] = 1
        last, last_gate, last_off = j, g, o
    fired = np.flatnonzero(np.frombuffer(flags, dtype=bool))
    return gate[fired], off[fired]


def _candidate_counts(config, n_gates, rng, budget):
    """Draw and charge one segment's photon count per spectral line and
    dark count per detector; returns them after the lines.

    Candidates are drawn by count and then position rather than gate by
    gate: the photons reaching a detector from each ``(w, mean, sigma)``
    line of :func:`linkbudget.temporal_components` form one Poisson(w * m *
    n_gates) total, and each detector's darks a Binomial(n_gates, p) count.
    Given their counts, photons sit at uniform emitting clocks and darks at
    distinct uniform gates, which is exactly the law of iid per-gate
    Poisson(m) photons, each from a line picked with probability ``w``,
    and Bernoulli(p) darks.  A photon mean too large to draw raises
    :class:`ResourceLimitError` without drawing.
    """
    lam = (
        config.source.mu
        * linkbudget.transmittance(config.channel.length, config.channel.attenuation)
        * config.receiver.detector.efficiency
        * n_gates
    )
    if lam > _POISSON_LAM_MAX:
        raise ResourceLimitError(f"event budget exceeded: {lam:.3g} expected photons")
    lines = linkbudget.temporal_components(config.source, config.channel, config.receiver)
    n_photons = [int(rng.poisson(lam * weight)) for weight, _, _ in lines]
    budget.charge(sum(n_photons))
    dark_prob = config.receiver.detector.dark_prob
    n_darks = []
    for _ in range(2):  # one count per detector
        n_darks.append(int(rng.binomial(n_gates, dark_prob)))
        budget.charge(n_darks[-1])
    return lines, n_photons, n_darks


def _candidates(config, lo, hi, n_pulses, rng, budget, key):
    """Photon and dark candidates emitted at clocks ``[lo, hi)``.

    Gates are global clock indices, at which the clock mix keyed by ``key``
    gives Alice's and Bob's bits and the pulse's mis-modulation.  A photon
    detected in a gate outside ``[lo, hi)`` is kept as long as that gate
    lies inside the ``n_pulses``-clock run.  Returns ``(detector, gates,
    offsets)`` pieces, each detector's photons before its darks.
    """
    receiver = config.receiver
    period = config.source.gate_period
    window = receiver.detector.gate_window
    center = 0.5 * period
    lines, n_photons, n_darks = _candidate_counts(config, hi - lo, rng, budget)
    # No count needs a guard: a draw of size 0 takes nothing from ``rng``,
    # so a segment without photons or darks keeps the stream layout.

    # --- photons that reach a detector -------------------------------------
    # Uniform clocks and normals, each line's photons a slice: its clocks sorted (so the
    # sweep's time sort gets them nearly in order), its normals at its mean and width.
    emit = rng.integers(lo, hi, sum(n_photons))
    arrival = rng.standard_normal(emit.size)
    ends = np.cumsum(n_photons)
    for (_, mean, sigma), start, end in zip(lines, ends - n_photons, ends):
        emit[start:end].sort()
        arrival[start:end] *= sigma
        arrival[start:end] += mean
    gate = np.rint(arrival / period)  # float until kept: none past int64 is cast
    with np.errstate(invalid="ignore"):  # infinite arrivals: NaN offsets, never kept
        arrival -= gate * period  # in place: the offset from the nearest gate
    gate += emit
    keep = np.flatnonzero((np.abs(arrival) <= 0.5 * window) & (gate >= 0) & (gate < n_pulses))
    gate = gate[keep].astype(np.int64)
    ts, mix_emit = center + arrival[keep], _clock_mix(key, emit[keep])
    del emit, arrival, keep  # freed before the routing allocates its columns

    # Interferometer routing against Bob's phase in the gate where the
    # photon is actually detected, tabulated on the code bit·8 + basis·4 +
    # flip·2 + Bob's basis (rows: each code's four bits, high to low); two
    # shifts move the mix bits of Alice's bit and basis and Bob's basis in.
    p_detector_a = protocol.detector_a_probability(
        *(np.arange(16) >> np.arange(3, -1, -1)[:, None] & 1), receiver.visibility)
    flip = _mismodulated(mix_emit, receiver.mismodulation_error)
    to_a = rng.random(gate.size) < p_detector_a[
        mix_emit >> np.uint64(ALICE_BASIS - 2) & np.uint64(0b1100) | flip << np.uint64(1)
        | _clock_mix(key, gate) >> np.uint64(BOB_BASIS) & np.uint64(1)]
    a, b = np.flatnonzero(to_a), np.flatnonzero(~to_a)
    pieces = [(DETECTOR_A, gate[a], ts[a]), (DETECTOR_B, gate[b], ts[b])]

    # --- dark counts: distinct uniform gates per detector ------------------
    for det_id, k in zip((DETECTOR_A, DETECTOR_B), n_darks):
        fired = lo + rng.choice(hi - lo, k, replace=False, shuffle=False)
        pieces.append((det_id, np.sort(fired), center + (rng.random(k) - 0.5) * window))
    return pieces


def _squash(key, gates, offsets):
    """``(detector, gate, offset)`` columns of both detectors' clicks
    (``gates``, ``offsets``: A's, then B's, each one per gate), gate-sorted
    by a stable merge, in which a double click is A's tag then B's: its
    gate's squash coin keeps A's (bit 1, so ``pair + bit`` is deleted)."""
    gate = np.concatenate(gates)
    order = np.argsort(gate, kind="stable")
    pair = np.flatnonzero(np.diff(gate[order]) == 0)
    order = np.delete(order, pair + _mix_bit(_clock_mix(key, gate[order[pair]]), SQUASH_A))
    det = np.repeat(np.array([DETECTOR_A, DETECTOR_B], dtype=np.uint8), [g.size for g in gates])
    return det[order], gate[order], np.concatenate(offsets)[order]


def simulate(
    config: SystemConfig,
    n_pulses: int,
    seed: int,
    *,
    segments: int = 1,
) -> SimulationResult:
    """Run the event engine over ``n_pulses`` clock cycles.

    Photon and dark-count candidates are drawn by count and position, and
    the per-clock bit and basis columns are evaluated only at emitting
    clocks, detection gates and, later, tagged clocks, so the run costs
    O(events) in time and memory, whatever ``n_pulses`` is.  Each
    segment's photon counts (one per spectral line) and dark counts are
    charged against ``_MAX_EVENTS`` before its per-event arrays are
    allocated, and each afterpulse generation's one Poisson spawn total
    before its parents, delays and offsets.
    ``meta["events_generated"]`` counts photons, darks and every drawn
    potential afterpulse, including those of blocked candidates.

    Parameters
    ----------
    config:
        Full system parameter set.
    n_pulses:
        Number of clock cycles, in ``[1, 2**53]``, where clock indices are exact floats.
    seed:
        Non-negative root seed; every run with the same (config, n_pulses,
        seed, segments) is bit-identical.  It keys the clock mix and spawns
        one Philox stream for the afterpulses and one per segment.
    segments:
        Number of contiguous stretches (at most 1024) whose candidates are
        drawn from independent streams.  One hold-off/afterpulse sweep per
        detector then covers the whole run, so the output is exact in law
        for every segment count; only the draws differ.

    Returns
    -------
    SimulationResult
        Alice's log and Bob's basis record (lazy :class:`ClockBits`
        columns, ``n_pulses`` long, read at clock arrays) and the squashed
        time-tag stream.  ``result.meta`` records the seed and stream
        layout.
    """
    if not 1 <= n_pulses <= 2**53:
        raise ParameterError(f"n_pulses must lie in [1, 2**53], got {n_pulses}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    if not 1 <= segments <= min(n_pulses, _MAX_SEGMENTS):
        raise ParameterError(
            f"segments must lie in [1, min(n_pulses, {_MAX_SEGMENTS})], got {segments}")
    budget = _EventBudget(_MAX_EVENTS)
    period = config.source.gate_period
    det = config.receiver.detector

    root = np.random.SeedSequence(seed)
    key = int(root.generate_state(1, np.uint64)[0])
    ap_rng, *rngs = [np.random.Generator(np.random.Philox(s)) for s in root.spawn(1 + segments)]
    cand_gates = {DETECTOR_A: [], DETECTOR_B: []}
    cand_offsets = {DETECTOR_A: [], DETECTOR_B: []}
    bounds = [int(n_pulses) * i // segments for i in range(segments + 1)]
    for lo, hi, rng in zip(bounds[:-1], bounds[1:], rngs):
        for det_id, gates, offsets in _candidates(config, lo, hi, n_pulses, rng, budget, key):
            cand_gates[det_id].append(gates)
            cand_offsets[det_id].append(offsets)

    # --- hold-off and afterpulses over the whole run, detector A first -----
    clicks = [
        _sweep_detector(
            np.concatenate(cand_gates[det_id]),
            np.concatenate(cand_offsets[det_id]),
            det, ap_rng, period, n_pulses, budget,
        )
        for det_id in (DETECTOR_A, DETECTOR_B)
    ]
    det_col, gate_col, ts_col = _squash(key, *zip(*clicks))

    meta = {
        "seed": int(seed),
        "segments": int(segments),
        "n_pulses": int(n_pulses),
        "gate_period_ps": period,
        "gate_window_ps": det.gate_window,
        "rng": (
            "per-clock coins: SplitMix64 of (clock + 1) * golden + key, key = "
            "SeedSequence(seed).generate_state(1, uint64); bits 63, 62, 61, 60: "
            "Alice's bit, Alice's basis, Bob's basis, squash keeps A; low 53 "
            "bits < ceil(m * 2**53): mis-modulated; Philox streams spawned "
            "from the seed: the run's afterpulses (per detector and generation: "
            "a Poisson total, sorted uniform parents, delays, offsets), then one "
            "per segment for its candidates (a Poisson count per spectral line, "
            "dark counts, clocks, normals, routing, dark gates and offsets)"
        ),
        "events_generated": budget.used,
    }
    alice = AliceLog(
        bit=ClockBits(key, ALICE_BIT, n_pulses), basis=ClockBits(key, ALICE_BASIS, n_pulses)
    )
    tags = TimeTagStream(detector_id=det_col, clock_index=gate_col, timestamp=ts_col, meta=meta)
    return SimulationResult(alice=alice, tags=tags, bob_bases=ClockBits(key, BOB_BASIS, n_pulses))


# ---------------------------------------------------------------------------
# Timing analysis of tag streams.
# ---------------------------------------------------------------------------


def histogram(tags: TimeTagStream, bin_ps: float):
    """Counts of tag timestamps folded onto the stream's clock period.

    Returns ``(counts, edges)`` with ``edges`` in ps.  A bin wider than the
    period degenerates to a single all-inclusive bin; a bin so narrow that
    the period needs more than ``_MAX_BINS`` of them raises
    :class:`ParameterError` before anything is allocated.
    """
    if not bin_ps > 0.0:  # also rejects NaN
        raise ParameterError(f"bin_ps must be positive, got {bin_ps}")
    period = tags.meta["gate_period_ps"]
    if period / bin_ps > _MAX_BINS:
        raise ParameterError(
            f"bin_ps = {bin_ps} splits the {period} ps period into more than "
            f"{_MAX_BINS} bins"
        )
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
        c0, c1 = counts[i_low], counts[i_high]  # c0 < half <= c1
        frac = (half - c0) / (c1 - c0)
        return centers[i_low] + frac * (centers[i_high] - centers[i_low])

    rise = _cross(left - 1, left)
    fall = _cross(right + 1, right)
    return float(abs(fall - rise))


def largest_empty_span(tags: TimeTagStream) -> float | None:
    """Longest circular stretch of the folded clock period with no tags, ps.

    Measured on the raw timestamps rather than histogram bins, so it is not
    quantized by the bin width.  None when the stream is empty.
    """
    period = tags.meta["gate_period_ps"]
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


def _records(tags: TimeTagStream) -> np.ndarray:
    """The event dump's records: clock, detector and timestamp in integer ps.

    Timestamps round half to even, like Python's ``round``; one that rounds
    outside the u32 range raises :class:`ParameterError`, so no dump is
    written.
    """
    ps = np.rint(tags.timestamp)
    if not np.all((ps >= 0.0) & (ps < 2.0**32)):
        raise ParameterError("timestamps must round into [0, 2**32) ps for the event dump")
    records = np.empty(len(tags), dtype=_RECORD)
    records["clock"] = tags.clock_index
    records["detector"] = tags.detector_id
    records["ps"] = ps
    return records


def write_binary_dump(tags: TimeTagStream, path) -> None:
    """Fixed-width little-endian records (:func:`_records`): u64 clock, u8 detector, u32 ps."""
    records = _records(tags)
    with open(path, "wb") as handle:
        handle.write(records)


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
    """The binary dump's records (:func:`_records`) as ``clock,detector,ps`` text lines."""
    records = _records(tags)
    text = protocol._int_rows(records["clock"], records["detector"], records["ps"])
    with open(path, "w", encoding="ascii") as handle:
        handle.write("clock_index,detector_id,timestamp_ps\n" + text)
