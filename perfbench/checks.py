"""Output checks for the benchmark workloads.

Every check returns a list of problems; an empty list means the output is
correct.  None of them depends on how the event engine lays out its random
streams: the stream checks are physical invariants, and the statistical
checks compare counts and error rates with the reference in
``reference.json`` within ``k`` standard deviations.
"""

from __future__ import annotations

import math
import os

import numpy as np

DUMP_RECORD_BYTES = 13  # u64 clock, u8 detector, u32 timestamp (ps)

# Recovered couplings must match the packaged ones this closely.
COUPLING_RTOL = 1e-6
COUPLINGS = (
    "source.spectral_width_nm",
    "source.side_mode_weight",
    "source.side_mode_offset_nm",
    "calibration.dark_slope",
    "calibration.pa_ref",
    "calibration.gamma",
)
# Analytic CSV values from a refitted config against the reference table.
CSV_RTOL = 1e-6


def parse_config_text(text: str) -> dict[str, str]:
    """``key = value`` lines of a qkdlink config, comments skipped."""
    values = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


class LinkGeometry:
    """The timing figures the stream invariants need, read from a config."""

    def __init__(self, values: dict[str, str]):
        self.period_ps = 1e12 / float(values["source.clock_rate_hz"])
        self.window_ps = float(values["detector_a.gate_window_ps"])
        self.dead_ps = (
            1000.0 * float(values["detector_a.dead_time_ns"]),
            1000.0 * float(values["detector_b.dead_time_ns"]),
        )
        self.f_ec = float(values["protocol.f_ec"])


def scan_stream(clock, detector, timestamp, n_pulses: int, geometry: LinkGeometry) -> list[str]:
    """Physical invariants of one tag stream.

    Hold-off respected per detector, timestamps inside the gate window,
    at most one tag per clock cycle, clock indices inside the run.
    """
    problems = []
    clock = np.asarray(clock).astype(np.int64)
    detector = np.asarray(detector)
    timestamp = np.asarray(timestamp, dtype=np.float64)
    if not (clock.size == detector.size == timestamp.size):
        return ["tag columns have different lengths"]
    if clock.size == 0:
        return problems
    if clock.min() < 0 or clock.max() >= n_pulses:
        problems.append(f"clock index outside [0, {n_pulses})")
    center = 0.5 * geometry.period_ps
    if np.any(np.abs(timestamp - center) > 0.5 * geometry.window_ps + 1e-6):
        problems.append("tag outside the detector gate window")
    if np.any(np.diff(clock) <= 0):
        problems.append("clocks not strictly increasing (more than one tag per clock)")
    if not np.isin(detector, (0, 1)).all():
        problems.append("detector id other than 0 or 1")
    times = clock * geometry.period_ps + timestamp
    for det_id, dead in enumerate(geometry.dead_ps):
        mine = np.sort(times[detector == det_id])
        if mine.size > 1 and np.diff(mine).min() < dead - 1e-6:
            problems.append(
                f"detector {det_id} violated its hold-off: "
                f"{np.diff(mine).min():.3f} ps < {dead} ps"
            )
    return problems


def within_sigma(label: str, value: float, mean: float, var: float, k: float) -> list[str]:
    """Problem if ``value`` lies more than ``k`` standard deviations from ``mean``."""
    sigma = math.sqrt(var)
    if not math.isfinite(value) or abs(value - mean) > k * sigma:
        return [f"{label} = {value:.6g}, expected {mean:.6g} +- {k:g} x {sigma:.3g}"]
    return []


def check_counts(ref: dict, n_pulses: int, tags: int, n_sifted: int | None,
                 qber: float | None, k: float) -> list[str]:
    """Tag count, sifted count and QBER against the per-pulse reference."""
    problems = within_sigma(
        "tags", tags, n_pulses * ref["tags"]["mean"], n_pulses * ref["tags"]["var"], k
    )
    if n_sifted is not None:
        problems += within_sigma(
            "n_sifted", n_sifted, n_pulses * ref["n_sifted"]["mean"],
            n_pulses * ref["n_sifted"]["var"], k,
        )
    if qber is not None:
        # The reference variance is per sifted bit; a run's QBER variance
        # shrinks with its own expected sifted count.
        expected_sifted = n_pulses * ref["n_sifted"]["mean"]
        problems += within_sigma(
            "qber", qber, ref["qber"]["mean"], ref["qber"]["var"] / expected_sifted, k
        )
    return problems


def check_dump(path, clock, detector, timestamp, read_binary_dump) -> list[str]:
    """Dump size is 13 bytes per tag and reading it back gives the stream."""
    size = os.path.getsize(path)
    if size != DUMP_RECORD_BYTES * len(clock):
        return [f"dump holds {size} bytes for {len(clock)} tags"]
    got_clock, got_det, got_ts = read_binary_dump(path)
    expected_ts = np.rint(np.asarray(timestamp, dtype=np.float64)).astype(np.int64)
    if not (
        np.array_equal(np.asarray(got_clock, dtype=np.uint64), np.asarray(clock, dtype=np.uint64))
        and np.array_equal(np.asarray(got_det).astype(np.int64), np.asarray(detector).astype(np.int64))
        and np.array_equal(np.asarray(got_ts).astype(np.int64), expected_ts)
    ):
        return ["read_binary_dump does not round-trip the stream"]
    return []


def binary_entropy(e: float) -> float:
    if e <= 0.0 or e >= 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def check_sifted_key(path, clock, detector, f_ec: float):
    """Sifted-key file agrees with itself and with the tag stream.

    Returns ``(problems, n_sifted, qber)``.
    """
    with open(path, encoding="ascii") as handle:
        lines = handle.read().splitlines()
    summary = {}
    rows = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            summary[key.strip()] = value.strip()
        elif line:
            rows.append([int(part) for part in line.split(",")])
    records = np.array(rows, dtype=np.int64).reshape(-1, 3)
    n = len(records)
    problems = []
    if int(summary.get("n_sifted", -1)) != n:
        problems.append(f"n_sifted line {summary.get('n_sifted')} != {n} records")
    errors = int(np.count_nonzero(records[:, 1] != records[:, 2]))
    qber = errors / n if n else math.nan
    if n and float(summary.get("qber", "nan")) != qber:
        problems.append(f"qber line {summary.get('qber')} != {qber!r} recomputed")
    if n:
        secure = max(0, math.floor(n * (1.0 - (1.0 + f_ec) * binary_entropy(min(qber, 0.5)))))
        if int(summary.get("secure_bits", -1)) != secure:
            problems.append(f"secure_bits line {summary.get('secure_bits')} != {secure}")
    clock = np.asarray(clock).astype(np.int64)
    where = np.searchsorted(clock, records[:, 0])
    found = where < clock.size
    found[found] = clock[where[found]] == records[found, 0]
    if not found.all():
        problems.append("sifted key names a clock with no tag")
    elif not np.array_equal(np.asarray(detector)[where].astype(np.int64), records[:, 2]):
        problems.append("sifted bob_bit differs from the detector that fired")
    if np.any(np.diff(records[:, 0]) <= 0) or not np.isin(records[:, 1:], (0, 1)).all():
        problems.append("sifted records out of order or bits not 0/1")
    return problems, n, qber


def check_histogram_csv(path, n_tags: int, period_ps: float, bin_ps: float) -> list[str]:
    """Histogram CSV counts every tag once, over the whole folded period."""
    header = {}
    counts = []
    with open(path, encoding="ascii") as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
            elif line and not line.startswith("bin_lo_ps"):
                counts.append(int(line.rsplit(",", 1)[1]))
    problems = []
    if int(header.get("n_tags", -1)) != n_tags:
        problems.append(f"histogram n_tags {header.get('n_tags')} != stream {n_tags}")
    if sum(counts) != n_tags:
        problems.append(f"histogram counts sum to {sum(counts)}, not {n_tags}")
    if len(counts) != math.ceil(period_ps / bin_ps - 1e-9):
        problems.append(f"histogram has {len(counts)} bins for a {period_ps} ps period")
    if header.get("fwhm_ps", "undefined") == "undefined":
        problems.append("histogram FWHM undefined")
    return problems


def check_refit(path, shipped: dict[str, str]) -> list[str]:
    """Refitted config recovers the packaged couplings within COUPLING_RTOL."""
    with open(path, encoding="utf-8") as handle:
        fitted = parse_config_text(handle.read())
    problems = []
    for key in COUPLINGS:
        want = float(shipped[key])
        got = float(fitted.get(key, "nan"))
        if not abs(got - want) <= COUPLING_RTOL * abs(want):
            problems.append(f"{key} = {got!r}, shipped {want!r}")
    return problems


def check_sweep_csv(path, reference: str) -> list[str]:
    """Sweep CSV matches the reference table within CSV_RTOL per value."""
    with open(path, encoding="ascii") as handle:
        got = handle.read().splitlines()
    want = reference.splitlines()
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"sweep CSV shape differs: {len(got)} lines vs {len(want)}"]
    problems = []
    for row_got, row_want in zip(got[1:], want[1:]):
        fields_got, fields_want = row_got.split(","), row_want.split(",")
        if len(fields_got) != len(fields_want):
            problems.append(f"sweep CSV row {row_got!r} has the wrong field count")
            continue
        for a, b in zip(fields_got, fields_want):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                problems.append(f"sweep CSV field {a!r} != {b!r}")
                continue
            if not abs(x - y) <= CSV_RTOL * max(abs(x), abs(y)):
                problems.append(f"sweep CSV value {a} != reference {b}")
    return problems


def check_op(op, stdout: str, streams: list, geometry: LinkGeometry, reference: dict,
             shipped: dict[str, str], read_binary_dump) -> list[str]:
    """All checks for one finished CLI operation of a workload pass.

    ``streams`` holds the ``(clock, detector, timestamp)`` columns of every
    tag stream the operation simulated.
    """
    k = reference["k_sigma"]
    if op.kind == "calibrate":
        problems = [] if stdout.startswith("calibration converged") else [
            "calibrate did not report convergence"
        ]
        return problems + check_refit(op.outputs[0], shipped)
    if op.kind in ("sweep-distance", "sweep-bias"):
        return check_sweep_csv(op.outputs[0], reference["csv"][op.ref])
    if len(streams) != 1:
        return [f"{len(streams)} simulated streams, expected 1"]
    clock, detector, timestamp = streams[0]
    ref = reference["streams"][op.ref]
    problems = scan_stream(clock, detector, timestamp, op.pulses, geometry)
    if op.kind == "histogram":
        problems += check_histogram_csv(op.outputs[0], len(clock), geometry.period_ps, op.bin_ps)
        return problems + check_counts(ref, op.pulses, len(clock), None, None, k)
    if f"tags = {len(clock)}" not in stdout.splitlines():
        problems.append(f"stdout does not report the {len(clock)} tags simulated")
    dump, key = op.outputs
    problems += check_dump(dump, clock, detector, timestamp, read_binary_dump)
    key_problems, n_sifted, qber = check_sifted_key(key, clock, detector, geometry.f_ec)
    return problems + key_problems + check_counts(ref, op.pulses, len(clock), n_sifted, qber, k)
