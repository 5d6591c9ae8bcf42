"""The benchmark workloads: CLI argument lists and the inputs they read.

Each workload is a list of pass variants.  A pass is the list of CLI
operations a user would type for that task; the timed loop cycles through
the variants.  Everything a pass reads (argv, config files) is generated
here from the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checks import COUPLINGS

VARIANTS = 8  # distinct inputs per run; passes cycle through them
PERTURBATION = 0.15  # calibrate starts from couplings within +-15% of shipped


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its checks need to know."""

    kind: str  # CLI subcommand
    argv: tuple
    ref: str | None = None  # reference.json entry for the statistical checks
    pulses: int = 0
    bin_ps: float = 0.0
    outputs: tuple = ()  # files the operation must (re)write


@dataclass(frozen=True)
class Workload:
    name: str
    why: str

    def passes(self, workdir: Path, seed: int, shipped_cfg: str, scale: float = 1.0):
        """Write this run's inputs into ``workdir``; return the pass variants.

        ``scale`` shrinks every pulse count (tests run the workloads tiny).
        """
        rng = np.random.default_rng(seed)
        base = workdir / "base.cfg"
        base.write_text(shipped_cfg, encoding="utf-8")
        return _PASS_MAKERS[self.name](workdir, base, rng, scale)


def _pulses(full: int, scale: float) -> int:
    return max(10_000, int(full * scale))


def _seed_arg(rng) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def _dense(workdir, base, rng, scale):
    tags, key, hist = workdir / "tags.bin", workdir / "key.txt", workdir / "hist.csv"
    sim_pulses = _pulses(10_000_000, scale)
    hist_pulses = _pulses(5_000_000, scale)
    return [_dense_pass(base, rng, tags, key, hist, sim_pulses, hist_pulses)
            for _ in range(VARIANTS)]


def _dense_pass(base, rng, tags, key, hist, sim_pulses, hist_pulses):
    return [
        Op(
            "simulate",
            ("simulate", "--config", str(base), "--seed", _seed_arg(rng),
             "--length", "5.6", "--pulses", str(sim_pulses),
             "--out", str(tags), "--sifted-key", str(key)),
            ref="simulate@5.6km", pulses=sim_pulses, outputs=(tags, key),
        ),
        Op(
            "histogram",
            ("histogram", "--config", str(base), "--seed", _seed_arg(rng),
             "--length", "0", "--pulses", str(hist_pulses), "--bin-ps", "1",
             "--out", str(hist)),
            ref="histogram@0km", pulses=hist_pulses, bin_ps=1.0, outputs=(hist,),
        ),
    ]


def _sparse(workdir, base, rng, scale):
    tags, key = workdir / "tags.bin", workdir / "key.txt"
    pulses = _pulses(30_000_000, scale)
    return [
        [
            Op(
                "simulate",
                ("simulate", "--config", str(base), "--seed", _seed_arg(rng),
                 "--length", "65.5", "--pulses", str(pulses), "--segments", "4",
                 "--out", str(tags), "--sifted-key", str(key)),
                ref="simulate@65.5km", pulses=pulses, outputs=(tags, key),
            )
        ]
        for _ in range(VARIANTS)
    ]


def perturbations(rng) -> np.ndarray:
    """Relative shift of each coupling (columns) for each variant (rows).

    Latin-hypercube draws: across the run's variants every coupling visits
    each of ``VARIANTS`` equal slices of +-PERTURBATION once, so runs with
    different seeds face equally hard fits on the whole.
    """
    strata = np.array([rng.permutation(VARIANTS) for _ in COUPLINGS]).T
    u = (strata + rng.random(strata.shape)) / VARIANTS
    return PERTURBATION * (2.0 * u - 1.0)


def _analytic(workdir, base, rng, scale):
    return [
        _analytic_pass(workdir, base, k, dict(zip(COUPLINGS, row.tolist())))
        for k, row in enumerate(perturbations(rng))
    ]


def _analytic_pass(workdir, base, k, shifts):
    lines = []
    for line in base.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        key = key.strip()
        if sep and key in shifts:
            line = f"{key} = {float(value) * (1.0 + shifts[key])!r}"
        lines.append(line)
    start = workdir / f"perturbed-{k}.cfg"
    start.write_text("\n".join(lines) + "\n", encoding="utf-8")
    refit = workdir / "refit.cfg"
    distance, bias = workdir / "distance.csv", workdir / "bias.csv"
    return [
        Op("calibrate", ("calibrate", "--config", str(start), "--out", str(refit)),
           outputs=(refit,)),
        Op("sweep-distance", ("sweep-distance", "--config", str(refit), "--out", str(distance)),
           ref="sweep-distance", outputs=(distance,)),
        Op("sweep-bias", ("sweep-bias", "--config", str(refit), "--out", str(bias)),
           ref="sweep-bias", outputs=(bias,)),
    ]


_PASS_MAKERS = {
    "dense-5.6km": _dense,
    "sparse-long-65.5km": _sparse,
    "analytic-fit": _analytic,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-5.6km",
            "event-heavy (~95k + ~60k tags): hold-off sweep, sifting, dump I/O "
            "and histogram analysis all do real work",
        ),
        Workload(
            "sparse-long-65.5km",
            "pulse-heavy (~10k tags from 30M gates, 4 segments): per-pulse RNG "
            "draws and per-pulse arrays dominate; event-proportional layers idle",
        ),
        Workload(
            "analytic-fit",
            "calibrate from a seed-perturbed start, then analytic sweeps: only "
            "linkbudget/keyrate/calibrate/sweeps, never the event engine",
        ),
    )
}
