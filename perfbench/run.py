"""qkdlink benchmark: end-to-end and per-layer metrics for three CLI workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense-5.6km --seed 1 --seconds 20 --trace 0

Each workload runs through the real entry point, ``qkdlink.cli.main(argv)``,
in this one single-threaded process: a closed loop with one client, passes
back to back, until ``--seconds`` have elapsed.  Every operation's outputs
are checked; a non-zero exit code, an exception or a failed check counts as
a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that record a span around every public layer
function, then makes one untimed allocation-tracing pass; it reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is the JSON result; the lines before it name every metric with its
unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, tracing  # noqa: E402
from perfbench.hostspeed import REFERENCE_IMPORT_S, Normalizer  # noqa: E402
from perfbench.workloads import VARIANTS, WORKLOADS  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_SPAWNS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics reported by --trace 1, every one defined on every
# workload (a layer that never runs reads 0).
PER_LAYER = {
    "montecarlo.simulate.s": "s",
    "montecarlo.simulate.self_s": "s",
    "montecarlo.events_generated": "count",
    "montecarlo.tags": "count",
    "montecarlo.simulate.peak_alloc_mb": "MB",
    "montecarlo.write_binary_dump.s": "s",
    "montecarlo.dump_bytes": "bytes",
    "montecarlo.histogram.s": "s",
    "protocol.sift.s": "s",
    "protocol.write_sifted_key.s": "s",
    "protocol.n_sifted": "count",
    "linkbudget.link_timing.calls": "count",
    "linkbudget.link_timing.s": "s",
    "linkbudget.click_probabilities.calls": "count",
    "linkbudget.effective_blocked_gates.calls": "count",
    "keyrate.evaluate_point.calls": "count",
    "keyrate.evaluate_point.s": "s",
    "calibrate.calibrate.s": "s",
    "calibrate.iterations": "count",
    "sweeps.run_distance_sweep.s": "s",
    "sweeps.run_bias_sweep.s": "s",
    "sweeps.emit_csv.s": "s",
    "config.load_config.s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.main.peak_alloc_mb": "MB",
    "trace.overhead_ratio": "ratio",
}

# Counts measured at a layer boundary from the call's arguments and result.
OBSERVERS = {
    "montecarlo.simulate": lambda c, args, kw, r: c.update({
        "montecarlo.events_generated": r.meta["events_generated"],
        "montecarlo.tags": len(r.tags),
        "montecarlo.pulses": args[1] if len(args) > 1 else kw["n_pulses"],
    }),
    "montecarlo.write_binary_dump": lambda c, args, kw, r: c.update({
        "montecarlo.dump_bytes": os.path.getsize(args[1]),
    }),
    "protocol.sift": lambda c, args, kw, r: c.update({
        "protocol.n_sifted": r.n_sifted,
        "protocol.sift_input_tags": len(args[1]),
    }),
    "calibrate.calibrate": lambda c, args, kw, r: c.update({
        "calibrate.iterations": r[1].iterations,
    }),
}

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qkdlink
qkdlink.default_config()
print(time.perf_counter() - start)
"""
# The same interpreter importing only qkdlink's dependencies: the kernel
# that set-up times are normalized by.
DEPENDENCIES_CODE = """
import time
start = time.perf_counter()
import numpy, scipy.optimize
print(time.perf_counter() - start)
"""


def import_program():
    """Import qkdlink from this checkout's sources, never from elsewhere."""
    init = SRC / "qkdlink" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no qkdlink sources at {init}")
    sys.path.insert(0, str(SRC))
    import qkdlink.cli

    if Path(qkdlink.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported qkdlink from {qkdlink.__file__}")


def measure_setup(spawns: int = SETUP_SPAWNS) -> Normalizer:
    """Time a fresh interpreter's import of qkdlink and load of its config.

    One unreported spawn first, so every reported one finds compiled
    bytecode and a warm file cache.
    """
    def spawn(code: str) -> float:
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        return float(done.stdout.split()[-1])

    spawn(SETUP_CODE)
    times = Normalizer(lambda: spawn(DEPENDENCIES_CODE), REFERENCE_IMPORT_S)
    for _ in range(spawns):
        times.add(spawn(SETUP_CODE))
    return times


class Harness:
    """Runs passes of one workload, times them and checks every operation."""

    def __init__(self, passes, reference: dict, shipped: dict):
        self.passes = passes
        self.reference = reference
        self.shipped = shipped
        self.geometry = checks.LinkGeometry(shipped)
        self.cli = sys.modules["qkdlink.cli"]
        self.montecarlo = sys.modules["qkdlink.montecarlo"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def capture_streams(self, streams: list) -> tracing.Patch:
        """Keep each simulated tag stream (its columns only) for the checks."""
        simulate = self.montecarlo.simulate

        def capturing(*args, **kwargs):
            result = simulate(*args, **kwargs)
            tags = result.tags
            streams.append((tags.clock_index, tags.detector_id, tags.timestamp))
            return result

        return tracing.Patch({simulate: capturing})

    def call(self, argv):
        """Run one CLI command in-process; return (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
        except Exception:  # a crash is one failed operation, not a lost run
            rc = None
            err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue()

    def run_pass(self, index: int, patch=None) -> float:
        """Run pass variant ``index`` once; return its wall time in seconds."""
        ops = self.passes[index % len(self.passes)]
        for op in ops:
            for path in op.outputs:
                Path(path).unlink(missing_ok=True)  # a failed op must not pass on stale files
        gc.collect()  # the previous pass's garbage is not this pass's cost
        streams: list = []
        outcomes = []
        with contextlib.ExitStack() as stack:
            if patch is not None:
                stack.enter_context(patch)
            stack.enter_context(self.capture_streams(streams))
            start = time.perf_counter()
            for op in ops:
                mark = len(streams)
                outcomes.append((self.call(op.argv), streams[mark:]))
            wall = time.perf_counter() - start
        for op, ((rc, out, err), captured) in zip(ops, outcomes):
            self.attempted += 1
            problems = self._check(op, rc, out, err, captured)
            if problems:
                self.failed += 1
                self.problems.append(f"{op.kind} ({' '.join(op.argv)}): " + "; ".join(problems))
        return wall

    def _check(self, op, rc, out, err, captured) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}: {err.strip()[-2000:]}"]
        try:
            return checks.check_op(
                op, out, captured, self.geometry, self.reference, self.shipped,
                self.montecarlo.read_binary_dump,
            )
        except Exception:  # unreadable output is a failed check
            return [traceback.format_exc()]


def run_timed(harness: Harness, seconds: float) -> Normalizer:
    """Closed loop of untraced passes for ``seconds``; one warm-up pass first."""
    harness.run_pass(0)
    walls = Normalizer()
    deadline = time.perf_counter() + seconds
    while not walls.raw or time.perf_counter() < deadline:
        walls.add(harness.run_pass(len(walls.raw)))
    return walls


def run_traced(harness: Harness, seconds: float):
    """Alternate untraced and traced passes; then one allocation pass.

    Runs at least one traced pass per variant, so the exact counts (taken
    from that first cycle) do not depend on host speed.
    """
    functions = tracing.layer_functions()
    recorder = tracing.Recorder(OBSERVERS)
    harness.run_pass(0)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < VARIANTS or time.perf_counter() < deadline:
        index = len(traced)
        recorder.run_id = index
        if index % 2:  # alternate which side of the pair goes first
            traced.append(harness.run_pass(index, recorder.patch(functions)))
            plain.append(harness.run_pass(index))
        else:
            plain.append(harness.run_pass(index))
            traced.append(harness.run_pass(index, recorder.patch(functions)))

    peaks = tracing.PeakTracker()
    tracemalloc.start()
    try:
        harness.run_pass(0, peaks.patch(functions))
    finally:
        tracemalloc.stop()
    return recorder, plain, traced, peaks


def layer_metrics(recorder, plain, traced, peaks) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and derived ratios."""
    summary = tracing.summarize(recorder.spans)
    passes = sorted(summary)
    first_cycle = passes[:VARIANTS]

    def median_of(name, field):
        return statistics.median(summary[p].get(name, {}).get(field, 0.0) for p in passes)

    def mean_count(key):
        return statistics.fmean(recorder.counts[p][key] for p in first_cycle)

    def mean_calls(name):
        return statistics.fmean(summary[p].get(name, {}).get("calls", 0) for p in first_cycle)

    metrics = {"trace.overhead_ratio": statistics.median(traced) / statistics.median(plain)}
    for key in PER_LAYER:
        if key in metrics:
            continue
        name, _, field = key.rpartition(".")
        if field in ("s", "self_s"):
            metrics[key] = median_of(name, field)
        elif field == "calls":
            metrics[key] = mean_calls(name)
        elif field == "peak_alloc_mb":
            metrics[key] = peaks.peak_mb.get(name, 0.0)
        else:
            metrics[key] = mean_count(key)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else None

    derived = {
        "montecarlo.simulate.ns_per_pulse": (ratio(
            metrics["montecarlo.simulate.s"], mean_count("montecarlo.pulses"), 1e9), "ns"),
        "montecarlo.tag_yield": (ratio(
            metrics["montecarlo.tags"], metrics["montecarlo.events_generated"]), "ratio"),
        "protocol.sift_ratio": (ratio(
            metrics["protocol.n_sifted"], mean_count("protocol.sift_input_tags")), "ratio"),
        "keyrate.evaluate_point.us_per_call": (ratio(
            metrics["keyrate.evaluate_point.s"], median_of("keyrate.evaluate_point", "calls"),
            1e6), "us"),
        "calibrate.evaluate_point_per_iteration": (ratio(
            metrics["keyrate.evaluate_point.calls"], metrics["calibrate.iterations"]), "ratio"),
        "keyrate.evaluate_point.link_timing_per_call": (ratio(
            tracing.calls_within(recorder.spans, "linkbudget.link_timing", "keyrate.evaluate_point"),
            sum(s.name == "keyrate.evaluate_point" for s in recorder.spans)), "ratio"),
    }
    return metrics, derived


def percentile_line(walls: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(walls)
    if n < 20:
        return f"wall_s tail: n/a ({n} passes; needs 10 samples beyond a percentile above p50)"
    return f"wall_s p{100 * (n - 10) / n:.0f} = {sorted(walls)[n - 11]:.6g} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    shipped_path = SRC / "qkdlink" / "data" / "default.cfg"
    if not shipped_path.is_file():
        raise SystemExit(f"perfbench: no packaged config at {shipped_path}")
    workload = WORKLOADS[args.workload]
    setup = None if args.trace else measure_setup()
    import_program()
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    shipped_text = shipped_path.read_text(encoding="utf-8")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        passes = workload.passes(workdir, args.seed, shipped_text)
        harness = Harness(passes, reference, checks.parse_config_text(shipped_text))
        if args.trace:
            recorder, plain, traced, peaks = run_traced(harness, args.seconds)
            metrics, derived = layer_metrics(recorder, plain, traced, peaks)
            OUT_DIR.mkdir(exist_ok=True)
            spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps(recorder.dump()), encoding="utf-8")
            units = dict(PER_LAYER)
            n_info = f"{len(traced)} traced + {len(plain)} untraced passes"
        else:
            walls = run_timed(harness, args.seconds)
            metrics = {
                "setup_s": statistics.median(setup.reference_seconds()),
                "wall_s": statistics.median(walls.reference_seconds()),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            raw_wall = statistics.median(walls.raw)
            derived = {
                "setup_raw_s": (statistics.median(setup.raw), "s"),
                "wall_raw_s": (raw_wall, "s"),
                "host_kernel_s": (statistics.median(walls.kernels), "s"),
                "dependency_import_s": (statistics.median(setup.kernels), "s"),
            }
            per_pass = sum(op.pulses for op in passes[0])
            if per_pass:
                derived["pulses_per_s"] = (per_pass / metrics["wall_s"], "1/s")
                derived["pulses_per_raw_s"] = (per_pass / raw_wall, "1/s")
            units = dict(END_TO_END)
            n_info = f"{len(walls.raw)} timed passes, {len(setup.raw)} set-up spawns"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_ratio = harness.failed / max(harness.attempted, 1)
    print(f"# workload {args.workload} seed {args.seed}: {n_info}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, (value, unit) in derived.items():
        print(f"{name} = " + ("n/a (layer idle)" if value is None else f"{value:.6g} {unit}"))
    if not args.trace:
        print(percentile_line(walls.reference_seconds()))
    print(f"fail_ratio = {fail_ratio:.6g} ({harness.failed}/{harness.attempted} operations)")
    for problem in harness.problems[:20]:
        print(f"# FAILED {problem}", file=sys.stderr)
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
