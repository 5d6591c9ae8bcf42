"""Command-line interface.

Subcommands::

    simulate        run the event engine once, dump tags / sifted key
    sweep-distance  rate and error budget vs fiber length (CSV)
    sweep-bias      rate and error budget vs detector efficiency (CSV)
    histogram       folded arrival-time histogram with timing figures (CSV)
    calibrate       fit model couplings to link anchors, save config

Flags follow the subcommand name, and each subcommand takes only the flags
it reads: --config and --out on all five, --seed and --pulses on all but
calibrate, --engine on the two sweeps.  Every run is reproducible: the
config, seed and command line fully determine the output bytes.

Exit codes: 0 success, 2 configuration or parameter problem (including a
run whose events would exceed the event budget), 3 fit did not converge,
4 file I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import montecarlo, protocol, sweeps
from .calibrate import CalibrationAnchors, ConvergenceError, calibrate
from .config import ConfigError, default_config, load_config, save_config
from .montecarlo import ResourceLimitError
from .params import ParameterError
from .protocol import ProtocolError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_IO = 4


def _file_path(text: str) -> str:
    """A path for an option that writes a file, never stdout."""
    if text == "-":
        raise argparse.ArgumentTypeError("'-' (stdout) is not supported here; give a file path")
    return text


# Flags that more than one subcommand reads; each subcommand declares only
# those its handler reads.
_FLAGS = {
    "--config": dict(metavar="PATH", help="config file (default: packaged)"),
    "--seed": dict(type=int, default=1, metavar="N", help="RNG root seed"),
    "--pulses": dict(type=int, default=1_000_000, metavar="N",
                     help="clock cycles per event-engine run"),
    "--engine": dict(choices=("analytic", "mc"), default="analytic",
                     help="closed-form model or Monte Carlo event engine"),
    "--out": dict(metavar="PATH", help="output path ('-' for stdout)"),
    "--length": dict(type=float, metavar="KM", help="override fiber length"),
    "--compensated": dict(choices=("true", "false"),
                          help="override the dispersion-compensation flag"),
}


def _subcommand(sub, name: str, flags, help: str) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help)
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdlink",
        description="Simulator and analysis toolkit for a GHz-gated fiber QKD link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = _subcommand(
        sub, "simulate",
        ("--config", "--seed", "--pulses", "--length", "--compensated"),
        help="single event-engine run; prints measured rates",
    )
    p_sim.add_argument("--out", type=_file_path, metavar="PATH", help="event dump path")
    p_sim.add_argument("--segments", type=int, default=1, metavar="N",
                       help=f"clock stretches (at most {montecarlo._MAX_SEGMENTS}), one candidate "
                            "stream each; one more serves the afterpulses (same law for any N)")
    p_sim.add_argument("--dump-format", choices=("binary", "csv"), default="binary",
                       help="event dump layout for --out")
    p_sim.add_argument("--sifted-key", type=_file_path, metavar="PATH",
                       help="also write the sifted key records here")

    p_dist = _subcommand(
        sub, "sweep-distance",
        ("--config", "--seed", "--pulses", "--engine", "--out", "--compensated"),
        help="rates vs fiber length",
    )
    p_dist.add_argument(
        "--lengths", default=",".join(str(x) for x in sweeps.DEFAULT_LENGTHS),
        metavar="KM,KM,...", help="comma-separated lengths",
    )

    p_bias = _subcommand(
        sub, "sweep-bias",
        ("--config", "--seed", "--pulses", "--engine", "--out", "--length"),
        help="rates vs detector efficiency",
    )
    p_bias.add_argument(
        "--etas", default=",".join(str(x) for x in sweeps.DEFAULT_ETA_GRID),
        metavar="F,F,...", help="comma-separated efficiency grid",
    )

    p_hist = _subcommand(
        sub, "histogram",
        ("--config", "--seed", "--pulses", "--out", "--length", "--compensated"),
        help="folded arrival-time histogram",
    )
    p_hist.add_argument("--bin-ps", type=float, default=1.0, metavar="PS")
    p_hist.add_argument("--mu", type=float, metavar="F", help="override mean photon number")

    p_cal = _subcommand(
        sub, "calibrate", ("--config",),
        help="fit couplings to the link anchors and report residuals",
    )
    p_cal.add_argument("--out", type=_file_path, metavar="PATH",
                       help="write the calibrated config here")
    p_cal.add_argument("--slope-target", type=float, metavar="DB_PER_KM",
                       help="override the raw-rate slope anchor")
    p_cal.add_argument("--qber-low", type=float, metavar="F",
                       help="override the low-bias QBER anchor")
    return parser


def _compensated(text: str | None) -> bool | None:
    return None if text is None else text == "true"


def _load(path, length=None, compensated=None, mu=None) -> "SystemConfig":
    """The config at ``path`` (default: packaged) with the given overrides."""
    config = load_config(path) if path else default_config()
    if length is not None or compensated is not None:
        config = config.at_length(config.channel.length if length is None else length,
                                  compensated=_compensated(compensated))
    if mu is not None:
        config = replace(config, source=replace(config.source, mu=mu))
    return config


def _parse_floats(text: str, what: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ParameterError(f"{what}: expected comma-separated numbers, got {text!r}")


def _cmd_simulate(args) -> int:
    config = _load(args.config, args.length, args.compensated)
    result = montecarlo.simulate(
        config, args.pulses, args.seed, segments=args.segments
    )
    tags = result.tags
    raw, key, qber = sweeps._read_run(config, result, args.pulses)
    print(f"pulses = {args.pulses}")
    print(f"tags = {len(tags)}")
    print(f"raw_hz = {sweeps._fmt(raw)}")
    if key.n_sifted > 0:
        print(f"sifted = {key.n_sifted}")
        print(f"qber = {sweeps._fmt(qber)}")
    else:
        print("sifted = 0")
        print("qber = undefined")
    if args.out:
        if args.dump_format == "binary":
            montecarlo.write_binary_dump(tags, args.out)
        else:
            montecarlo.write_csv_dump(tags, args.out)
    if args.sifted_key:
        protocol.write_sifted_key(key, args.sifted_key, config.protocol)
    return EXIT_OK


def _cmd_sweep_distance(args) -> int:
    config = _load(args.config, compensated=args.compensated)
    lengths = _parse_floats(args.lengths, "--lengths")
    table = sweeps.run_distance_sweep(
        config, lengths, engine=args.engine, n_pulses=args.pulses, seed=args.seed,
    )
    sweeps.emit_csv(table, args.out or "-")
    return EXIT_OK


def _cmd_sweep_bias(args) -> int:
    config = _load(args.config, args.length)
    etas = _parse_floats(args.etas, "--etas")
    table = sweeps.run_bias_sweep(
        config, etas, engine=args.engine, n_pulses=args.pulses, seed=args.seed,
    )
    sweeps.emit_csv(table, args.out or "-")
    return EXIT_OK


def _cmd_histogram(args) -> int:
    config = _load(args.config, args.length, args.compensated, args.mu)
    result = sweeps.run_histogram(config, args.pulses, args.bin_ps, args.seed)
    sweeps.emit_histogram_csv(result, args.out or "-")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    config = _load(args.config)
    anchors = CalibrationAnchors()
    if args.slope_target is not None:
        anchors = replace(anchors, slope_db_per_km=args.slope_target)
    if args.qber_low is not None:
        anchors = replace(anchors, qber_low=args.qber_low)
    fitted, report = calibrate(config, anchors)
    print(report.summary())
    if args.out:
        save_config(fitted, args.out)
        print(f"calibrated config written to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep-distance": _cmd_sweep_distance,
    "sweep-bias": _cmd_sweep_bias,
    "histogram": _cmd_histogram,
    "calibrate": _cmd_calibrate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ParameterError, ProtocolError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
