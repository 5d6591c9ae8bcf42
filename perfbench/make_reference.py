"""Regenerate ``reference.json``, the expected outputs the checks compare with.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

For each event-engine operation of the workloads it simulates at full size
on 16 program seeds and stores the mean and variance of the tag
count and sifted count per pulse, and of the sifted QBER per sifted bit.
Each variance is at least its Poisson or binomial value, so a small
sample cannot make a check too tight.  It also stores the analytic sweep
CSVs of the packaged config.  Run it on the commit whose behaviour the
benchmark should hold later commits to.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

K_SIGMA = 6.0
SEEDS = range(1, 17)


def _stream_stats(harness, op, SEEDS):
    tags, sifted, qbers = [], [], []
    for seed in seeds:
        argv = list(op.argv)
        argv[argv.index("--seed") + 1] = str(seed)
        streams: list = []
        with harness.capture_streams(streams):
            rc, out, err = harness.call(argv)
        if rc != 0:
            raise SystemExit(f"reference run failed: {' '.join(argv)}\n{err}")
        clock, detector, _ = streams[0]
        tags.append(len(clock))
        if op.kind == "simulate":
            _, n, qber = checks.check_sifted_key(
                op.outputs[1], clock, detector, harness.geometry.f_ec)
            sifted.append(n)
            qbers.append(qber)
    pulses = op.pulses
    mean_tags = statistics.fmean(tags)
    entry = {
        "pulses": pulses,
        "seeds": len(seeds),
        "tags": {
            "mean": mean_tags / pulses,
            "var": max(statistics.variance(tags), mean_tags) / pulses,
        },
    }
    if sifted:
        mean_sifted = statistics.fmean(sifted)
        mean_q = statistics.fmean(qbers)
        entry["n_sifted"] = {
            "mean": mean_sifted / pulses,
            "var": max(statistics.variance(sifted), mean_sifted / 2) / pulses,
        }
        entry["qber"] = {
            "mean": mean_q,
            "var": max(statistics.variance(qbers) * mean_sifted, mean_q * (1 - mean_q)),
        }
    return entry


def main() -> int:
    run.import_program()
    shipped_text = (run.SRC / "qkdlink" / "data" / "default.cfg").read_text(encoding="utf-8")
    shipped = checks.parse_config_text(shipped_text)
    workdir = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {"k_sigma": K_SIGMA, "streams": {}, "csv": {}}
    try:
        for workload in WORKLOADS.values():
            passes = workload.passes(workdir, 0, shipped_text)
            harness = run.Harness(passes, reference, shipped)
            for op in passes[0]:
                if op.ref in reference["streams"] or op.ref in reference["csv"]:
                    continue
                if op.kind in ("simulate", "histogram"):
                    reference["streams"][op.ref] = _stream_stats(harness, op, SEEDS)
                elif op.ref is not None:
                    # The sweeps read the packaged couplings, not a refit.
                    argv = list(op.argv)
                    argv[argv.index("--config") + 1] = str(workdir / "base.cfg")
                    rc, _, err = harness.call(argv)
                    if rc != 0:
                        raise SystemExit(f"reference run failed: {' '.join(argv)}\n{err}")
                    reference["csv"][op.ref] = Path(op.outputs[0]).read_text(encoding="ascii")
                print(f"{op.ref}: done", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
