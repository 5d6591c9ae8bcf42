"""Command-line interface.

Subcommands::

    simulate        run the event engine once, dump tags / sifted key
    sweep-distance  rate and error budget vs fiber length (CSV)
    sweep-bias      rate and error budget vs detector efficiency (CSV)
    histogram       folded arrival-time histogram with timing figures (CSV)
    calibrate       fit model couplings to link anchors, save config

All subcommands accept --config/--seed/--pulses/--engine/--out either
before or after the subcommand name.  Every run is reproducible: the
config, seed and command line fully determine the output bytes.

Exit codes: 0 success, 2 configuration or parameter problem, 3 fit did
not converge, 4 file I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import montecarlo, protocol, sweeps
from .calibrate import CalibrationAnchors, ConvergenceError, calibrate
from .config import ConfigError, default_config, load_config, save_config
from .params import ParameterError
from .protocol import ProtocolError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_IO = 4


def _shared_flags() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="config file (default: packaged)")
    shared.add_argument("--seed", type=int, default=1, metavar="N", help="RNG root seed")
    shared.add_argument(
        "--pulses", type=int, default=1_000_000, metavar="N",
        help="clock cycles per event-engine run",
    )
    shared.add_argument(
        "--engine", choices=("analytic", "mc"), default="analytic",
        help="closed-form model or Monte Carlo event engine",
    )
    shared.add_argument("--out", metavar="PATH", help="output path ('-' for stdout)")
    return shared


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--length", type=float, metavar="KM", help="override fiber length")
    parser.add_argument(
        "--compensated", choices=("true", "false"),
        help="override the dispersion-compensation flag",
    )


def _build_parser() -> argparse.ArgumentParser:
    shared = _shared_flags()
    parser = argparse.ArgumentParser(
        prog="qkdlink",
        parents=[shared],
        description="Simulator and analysis toolkit for a GHz-gated fiber QKD link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", parents=[shared],
        help="single event-engine run; prints measured rates",
    )
    _add_overrides(p_sim)
    p_sim.add_argument("--segments", type=int, default=1, metavar="N",
                       help="independently seeded stretches")
    p_sim.add_argument("--dump-format", choices=("binary", "csv"), default="binary",
                       help="event dump layout for --out")
    p_sim.add_argument("--sifted-key", metavar="PATH",
                       help="also write the sifted key records here")

    p_dist = sub.add_parser(
        "sweep-distance", parents=[shared], help="rates vs fiber length",
    )
    p_dist.add_argument(
        "--lengths", default=",".join(str(x) for x in sweeps.DEFAULT_LENGTHS),
        metavar="KM,KM,...", help="comma-separated lengths",
    )
    p_dist.add_argument("--compensated", choices=("true", "false"),
                        help="override the dispersion-compensation flag for all rows")

    p_bias = sub.add_parser(
        "sweep-bias", parents=[shared], help="rates vs detector efficiency",
    )
    p_bias.add_argument(
        "--etas", default=",".join(str(x) for x in sweeps.DEFAULT_ETA_GRID),
        metavar="F,F,...", help="comma-separated efficiency grid",
    )
    p_bias.add_argument("--length", type=float, metavar="KM", help="override fiber length")

    p_hist = sub.add_parser(
        "histogram", parents=[shared], help="folded arrival-time histogram",
    )
    _add_overrides(p_hist)
    p_hist.add_argument("--bin-ps", type=float, default=1.0, metavar="PS")
    p_hist.add_argument("--mu", type=float, metavar="F", help="override mean photon number")

    p_cal = sub.add_parser(
        "calibrate", parents=[shared],
        help="fit couplings to the link anchors and report residuals",
    )
    p_cal.add_argument("--slope-target", type=float, metavar="DB_PER_KM",
                       help="override the raw-rate slope anchor")
    p_cal.add_argument("--qber-low", type=float, metavar="F",
                       help="override the low-bias QBER anchor")
    p_cal.add_argument("--max-iter", type=int, default=60, metavar="N")
    return parser


def _load(args) -> "SystemConfig":
    config = load_config(args.config) if args.config else default_config()
    length = getattr(args, "length", None)
    comp = getattr(args, "compensated", None)
    if length is not None or comp is not None:
        config = config.at_length(
            config.channel.length if length is None else length,
            compensated=None if comp is None else comp == "true",
        )
    mu = getattr(args, "mu", None)
    if mu is not None:
        config = replace(config, source=replace(config.source, mu=mu))
    return config


def _parse_floats(text: str, what: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ParameterError(f"{what}: expected comma-separated numbers, got {text!r}")


def _cmd_simulate(args) -> int:
    config = _load(args)
    result = montecarlo.simulate(
        config, args.pulses, args.seed, segments=args.segments
    )
    tags = result.tags
    clock = config.source.clock_rate
    raw = len(tags) * clock / args.pulses
    key = protocol.sift(result.alice, tags, result.bob_bases)
    print(f"pulses = {args.pulses}")
    print(f"tags = {len(tags)}")
    print(f"raw_hz = {sweeps._fmt(raw)}")
    if key.n_sifted > 0:
        print(f"sifted = {key.n_sifted}")
        print(f"qber = {sweeps._fmt(key.qber_estimate)}")
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
    config = _load(args)
    lengths = _parse_floats(args.lengths, "--lengths")
    comp = None if args.compensated is None else args.compensated == "true"
    table = sweeps.run_distance_sweep(
        config, lengths, engine=args.engine,
        compensated=comp, n_pulses=args.pulses, seed=args.seed,
    )
    sweeps.emit_csv(table, args.out or "-")
    return EXIT_OK


def _cmd_sweep_bias(args) -> int:
    config = _load(args)
    if args.length is not None:
        config = config.at_length(args.length)
    etas = _parse_floats(args.etas, "--etas")
    table = sweeps.run_bias_sweep(
        config, etas, engine=args.engine, n_pulses=args.pulses, seed=args.seed,
    )
    sweeps.emit_csv(table, args.out or "-")
    return EXIT_OK


def _cmd_histogram(args) -> int:
    config = _load(args)
    result = sweeps.run_histogram(config, args.pulses, args.bin_ps, args.seed)
    sweeps.emit_histogram_csv(result, args.out or "-")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    config = _load(args)
    anchors = CalibrationAnchors()
    if args.slope_target is not None:
        anchors = replace(anchors, slope_db_per_km=args.slope_target)
    if args.qber_low is not None:
        anchors = replace(anchors, qber_low=args.qber_low)
    fitted, report = calibrate(config, anchors, max_iter=args.max_iter)
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
    except (ConfigError, ParameterError, ProtocolError) as exc:
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
