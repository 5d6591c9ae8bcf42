"""Tests for the sweep runners, CSV emitters, and the command-line tool."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qkdlink
from qkdlink import montecarlo, sweeps
from qkdlink.cli import main
from qkdlink.config import save_config
from qkdlink.keyrate import RateResult
from qkdlink.linkbudget import QberBreakdown
from qkdlink.montecarlo import read_binary_dump
from qkdlink.params import ParameterError

# Stand-ins for config files, written per test: the shipped config with the
# values of some keys replaced, or raw bytes.
EDITED_CFGS = {
    "<dark-prob-mismatch.cfg>": {"detector_b.dark_prob": "1e-5"},
    "<dark-slope.cfg>": {"calibration.dark_slope": "1000.0"},
    "<gamma.cfg>": {"calibration.gamma": "1000.0"},
    "<length-1e300.cfg>": {"channel.length_km": "1e300"},
    "<dead-time-inf.cfg>": {"detector_a.dead_time_ns": "inf", "detector_b.dead_time_ns": "inf"},
    "<not-utf8.cfg>": b"\xff\xfesource.mu = 0.2\n",
}

HEADER = "length_km,raw_hz,qber,e_opt,e_afterpulse,e_dark,e_interclock,secure_hz,compensated"


def quiet_copy(config):
    """Source and dark counts off: the channel produces no events at all."""
    det = dataclasses.replace(config.receiver.detector, dark_prob=0.0)
    return dataclasses.replace(
        config,
        source=dataclasses.replace(config.source, mu=0.0),
        receiver=dataclasses.replace(config.receiver, detector=det),
    )


class TestSweepTable:
    def test_rows_must_increase(self, cfg):
        table = sweeps.run_distance_sweep(cfg, [5.6, 25.3])
        jumbled = (table.rows[1], table.rows[0])
        with pytest.raises(ParameterError, match="strictly increasing"):
            sweeps.SweepTable(key_name="length_km", rows=jumbled)

    def test_column_accessor(self, cfg):
        table = sweeps.run_distance_sweep(cfg, [5.6, 65.5])
        assert table.column("length_km").tolist() == [5.6, 65.5]
        raw = table.column("raw_hz")
        assert raw[0] == table.rows[0].rate.raw_rate
        totals = (
            table.column("e_opt")
            + table.column("e_afterpulse")
            + table.column("e_dark")
            + table.column("e_interclock")
        )
        assert totals == pytest.approx(
            [row.qber.total for row in table], rel=1e-12
        )


class TestDistanceSweep:
    def test_raw_rate_strictly_decreasing(self, cfg):
        table = sweeps.run_distance_sweep(cfg)
        raw = table.column("raw_hz")
        assert np.all(np.diff(raw) < 0)

    def test_compensation_never_hurts(self, cfg):
        length = cfg.channel.length
        plain = sweeps.run_distance_sweep(cfg.at_length(length, compensated=False))
        fixed = sweeps.run_distance_sweep(cfg.at_length(length, compensated=True))
        assert np.all(fixed.column("secure_hz") >= plain.column("secure_hz"))
        assert np.all(fixed.column("qber") <= plain.column("qber"))
        assert all(row.compensated for row in fixed)

    def test_empty_lengths_rejected(self, cfg):
        with pytest.raises(ParameterError):
            sweeps.run_distance_sweep(cfg, [])

    def test_loss_is_log_linear_in_length(self, cfg):
        # Dispersion adds a near-constant extra dB/km on top of the fiber
        # attenuation over the span where the uncompensated link still
        # distills key.  (Beyond ~70 km the displaced side mode re-enters
        # the neighboring gate and the straight line breaks down, together
        # with the key rate itself.)
        plain = cfg.at_length(cfg.channel.length, compensated=False)
        table = sweeps.run_distance_sweep(plain, [5.6, 25.3, 65.5])
        lengths = table.column("length_km")
        assert all(r.rate.secure_rate > 0 for r in table)
        loss_db = -10.0 * np.log10(table.column("raw_hz"))
        slope = float(np.polyfit(lengths, loss_db, 1)[0])
        segment_slopes = np.diff(loss_db) / np.diff(lengths)
        assert np.max(np.abs(segment_slopes - slope)) < 0.02

    def test_unknown_engine_rejected(self, cfg):
        with pytest.raises(ParameterError, match="unknown engine"):
            sweeps.run_distance_sweep(cfg, [5.6], engine="exact")

    def test_event_engine_agrees_with_model(self, cfg):
        table = sweeps.run_distance_sweep(
            cfg, [5.6], engine="mc", n_pulses=400_000, seed=1
        )
        model = sweeps.run_distance_sweep(cfg, [5.6])
        raw_mc = table.column("raw_hz")[0]
        raw_model = model.column("raw_hz")[0]
        assert abs(raw_mc / raw_model - 1.0) < 0.10
        assert table.column("qber")[0] == pytest.approx(
            model.column("qber")[0], abs=0.02
        )

    def test_event_engine_empty_stream(self, cfg):
        table = sweeps.run_distance_sweep(
            quiet_copy(cfg), [5.6], engine="mc", n_pulses=2000, seed=0
        )
        row = table.rows[0]
        assert row.rate.raw_rate == 0.0
        assert math.isnan(row.rate.qber)
        assert row.rate.secure_rate == 0.0


class TestBiasSweep:
    def test_grid_is_sorted_and_best_at_operating_point(self, cfg):
        table = sweeps.run_bias_sweep(cfg)
        etas = table.column("eta_bob")
        assert np.all(np.diff(etas) > 0)
        secure = table.column("secure_hz")
        assert etas[int(np.argmax(secure))] == pytest.approx(0.06)

    def test_qber_grows_with_bias(self, cfg):
        # Dark counts and afterpulsing both rise with bias faster than the
        # signal does, so the error rate climbs across the whole grid.
        table = sweeps.run_bias_sweep(cfg)
        assert np.all(np.diff(table.column("qber")) > 0)

    def test_event_engine_row(self, cfg):
        table = sweeps.run_bias_sweep(
            cfg, [0.06], engine="mc", n_pulses=200_000, seed=4
        )
        assert len(table) == 1
        assert table.rows[0].x == 0.06
        assert table.rows[0].rate.raw_rate > 0


class TestCsvEmission:
    def test_header_and_shape(self, cfg, tmp_path):
        path = tmp_path / "sweep.csv"
        sweeps.emit_csv(sweeps.run_distance_sweep(cfg), path)
        lines = path.read_text().splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 1 + len(sweeps.DEFAULT_LENGTHS)
        assert lines[1].startswith("5.6e+00,")
        assert lines[1].endswith(",false")

    def test_empty_table_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        sweeps.emit_csv(sweeps.SweepTable(key_name="length_km", rows=()), path)
        assert path.read_text() == HEADER + "\n"

    def test_identical_tables_identical_bytes(self, cfg, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        sweeps.emit_csv(sweeps.run_distance_sweep(cfg), a)
        sweeps.emit_csv(sweeps.run_distance_sweep(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_histogram_csv_undefined_markers(self, cfg, tmp_path):
        result = sweeps.run_histogram(cfg, n_pulses=20_000, bin_ps=5000.0, seed=3)
        assert result.fwhm_ps is None
        assert result.empty_span_ps is None
        assert result.n_tags > 0
        path = tmp_path / "hist.csv"
        sweeps.emit_histogram_csv(result, path)
        lines = path.read_text().splitlines()
        assert f"# n_tags = {result.n_tags}" in lines
        assert "# fwhm_ps = undefined" in lines
        assert "# empty_span_ps = undefined" in lines
        assert lines[5] == "bin_lo_ps,bin_hi_ps,count"
        assert len(lines) == 7  # one degenerate bin


class TestCli:
    def test_sweep_distance_to_file(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["sweep-distance", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 6

    def test_sweep_distance_stdout(self, capsys):
        assert main(["sweep-distance", "--lengths", "5.6"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(HEADER)

    def test_output_bytes_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-bias", "--etas", "0.02,0.06,0.12"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_writes_dumps(self, tmp_path, capsys):
        out = tmp_path / "tags.bin"
        key_path = tmp_path / "key.txt"
        rc = main([
            "simulate", "--pulses", "50000", "--seed", "9",
            "--out", str(out), "--sifted-key", str(key_path),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "pulses = 50000" in captured.out
        assert "raw_hz = " in captured.out
        clock, det, ts = read_binary_dump(out)
        assert clock.size > 0
        assert set(np.unique(det)) <= {0, 1}
        assert "# n_sifted" in key_path.read_text()

    def test_simulate_csv_dump(self, tmp_path):
        out = tmp_path / "tags.csv"
        rc = main([
            "simulate", "--pulses", "20000", "--dump-format", "csv",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text().startswith("clock_index,detector_id,timestamp_ps")

    def test_histogram_csv_digest(self, tmp_path):
        # Pins the histogram CSV bytes: 966 one-ps bins plus the header.
        out = tmp_path / "h.csv"
        assert main(["histogram", "--length", "0", "--pulses", "100000", "--seed", "2",
                     "--bin-ps", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "cf4e75837cfc446fe76d802ec7bc485fec0df7e08bf17ad2c633371efaf3146f"
        )

    def test_mc_distance_csv_digest(self, tmp_path):
        # Pins the event-engine sweep rows: measured raw rate, QBER and secure
        # rate next to the closed-form error-budget columns.
        out = tmp_path / "d.csv"
        assert main(["sweep-distance", "--engine", "mc", "--pulses", "200000", "--seed", "3",
                     "--lengths", "5.6,65.5", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d9c517a2a7525096a87fb98a1fdddc1a7579582df6e7508fb96566e8b1570914"
        )

    def test_histogram_command(self, tmp_path):
        out = tmp_path / "h.csv"
        rc = main([
            "histogram", "--length", "0", "--pulses", "50000",
            "--bin-ps", "5", "--out", str(out),
        ])
        assert rc == 0
        head = out.read_text().splitlines()[:5]
        assert head[0].startswith("# n_tags = ")
        assert head[2].startswith("# fwhm_ps = ")

    def test_invalid_config_exits_2(self, cfg, tmp_path, capsys):
        from qkdlink.config import dumps_config

        bad = tmp_path / "bad.cfg"
        bad.write_text(dumps_config(cfg).replace("source.mu = 0.2", "source.mu = -1.0"))
        rc = main(["sweep-distance", "--config", str(bad)])
        assert rc == 2
        assert "source.mu" in capsys.readouterr().err

    def test_bad_eta_list_exits_2(self, capsys):
        rc = main(["sweep-bias", "--etas", "0.02,zero"])
        assert rc == 2
        assert "comma-separated" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["analytic", "mc"])
    @pytest.mark.parametrize(
        "etas,message", [("", "must not be empty"), ("0", "eta grid")]
    )
    def test_bad_eta_grid_exits_2_on_both_engines(self, engine, etas, message, capsys):
        rc = main(["sweep-bias", "--engine", engine, "--pulses", "2000", "--etas", etas])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag,value", [
        ("--config", "shipped.cfg"), ("--seed", "3"), ("--pulses", "2000"),
        ("--engine", "mc"), ("--out", "d.csv"),
    ])
    def test_shared_flag_goes_after_the_subcommand(self, flag, value, cfg, tmp_path,
                                                   capsys):
        # Placed before the subcommand, each flag is a usage error and no
        # file is written; after it, the same flag is read.
        out = tmp_path / "d.csv"
        if flag == "--config":
            value = str(tmp_path / value)
            save_config(cfg, value)
        pair = [flag, str(out) if flag == "--out" else value]
        rest = [] if flag == "--out" else ["--out", str(out)]
        command = ["sweep-distance", "--lengths", "5.6"]
        with pytest.raises(SystemExit) as exc:
            main([*pair, *command, *rest])
        assert exc.value.code == 2
        assert not out.exists()
        assert main([*command, *pair, *rest]) == 0
        assert out.read_text().startswith(HEADER)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--engine", "mc"],
        ["histogram", "--engine", "mc"],
        ["calibrate", "--engine", "mc"],
        ["calibrate", "--seed", "1"],
        ["calibrate", "--pulses", "1000"],
    ], ids=["simulate-engine", "histogram-engine", "calibrate-engine", "calibrate-seed",
            "calibrate-pulses"])
    def test_flag_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # simulate's case is test_missing_config_file_exits_4.
    @pytest.mark.parametrize("command", ["sweep-distance", "sweep-bias", "histogram",
                                         "calibrate"])
    def test_config_after_the_subcommand_is_read(self, command, tmp_path, capsys):
        rc = main([command, "--config", str(tmp_path / "nope.cfg")])
        assert rc == 4
        assert "nope.cfg" in capsys.readouterr().err

    @staticmethod
    def run_module(*argv):
        """``python -m qkdlink.cli`` in a fresh interpreter: the entry point's exit code."""
        src = str(Path(qkdlink.__file__).resolve().parents[1])
        return subprocess.run([sys.executable, "-m", "qkdlink.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})

    def test_module_entry_point_runs(self):
        done = self.run_module("sweep-distance", "--lengths", "5.6")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0] == HEADER

    def test_module_entry_point_exits_2_on_a_bad_list(self):
        done = self.run_module("sweep-distance", "--lengths", "5.6,far")
        assert done.returncode == 2
        assert done.stderr.startswith("error: --lengths")

    def test_missing_config_file_exits_4(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 4
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["simulate", "--pulses", "1000", "--out", "-"], "--out"),
        (["simulate", "--pulses", "1000", "--sifted-key", "-"], "--sifted-key"),
        (["calibrate", "--out", "-"], "--out"),
    ], ids=["simulate", "simulate-sifted-key", "calibrate"])
    def test_dash_out_rejected_where_a_file_is_written(self, argv, flag, tmp_path, monkeypatch,
                                                       capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,head", [
        (["sweep-distance", "--lengths", "5.6"], HEADER),
        (["sweep-bias", "--etas", "0.06"], "eta_bob,raw_hz"),
        (["histogram", "--pulses", "2000", "--bin-ps", "5"], "# n_tags = "),
    ], ids=["sweep-distance", "sweep-bias", "histogram"])
    def test_dash_out_streams_to_stdout(self, argv, head, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "-"]) == 0
        assert capsys.readouterr().out.startswith(head)
        assert list(tmp_path.iterdir()) == []

    def test_simulate_reports_undefined_qber_without_sifted_bits(self, capsys):
        assert main(["simulate", "--pulses", "1000", "--length", "300"]) == 0
        assert "sifted = 0\nqber = undefined\n" in capsys.readouterr().out

    def test_mc_sweep_writes_nan_qber_without_sifted_bits(self, capsys):
        argv = ["sweep-distance", "--engine", "mc", "--pulses", "1000", "--lengths", "300"]
        assert main(argv) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["qber"] == "nan"

    def test_qber_low_override_reaches_the_fit(self, capsys):
        assert main(["calibrate", "--qber-low", "0.005"]) == 3
        assert "bias exponent" in capsys.readouterr().err

    def test_unreachable_fit_exits_3(self, capsys):
        rc = main(["calibrate", "--slope-target", "5.0"])
        assert rc == 3
        assert "fit error" in capsys.readouterr().err

    def test_calibrate_writes_config(self, tmp_path, capsys):
        out = tmp_path / "refit.cfg"
        rc = main(["calibrate", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "calibration converged" in text
        # Pins the report's bytes, residuals included, ahead of the path line.
        report = text[:text.index("calibrated config written to")]
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "1591a0c3695b5053acc056e7dbf13ab114d459de01cd1b6e9060a8d59e526ed4"
        )
        assert out.exists()
        from qkdlink.config import load_config

        refit = load_config(out)
        assert refit.source.spectral_width == pytest.approx(0.16048, abs=1e-4)

    @pytest.mark.parametrize(
        "argv,message",
        [
            pytest.param(
                ["histogram", "--pulses", "2000", "--bin-ps", "nan"], "bin_ps",
                id="histogram-bin-nan",
            ),
            pytest.param(
                ["sweep-distance", "--lengths", "inf"], "channel.length",
                id="sweep-distance-length-inf",
            ),
            pytest.param(
                ["simulate", "--length", "inf", "--pulses", "1000"], "channel.length",
                id="simulate-length-inf",
            ),
            # A finite length too long to integrate window by window; 1e308
            # km also overflows the dispersion walk-off to inf.
            pytest.param(
                ["sweep-distance", "--lengths", "1e300"], "gate periods",
                id="sweep-distance-length-1e300",
            ),
            pytest.param(
                ["sweep-distance", "--lengths", "1e308"], "gate periods",
                id="sweep-distance-length-1e308",
            ),
            pytest.param(
                ["sweep-bias", "--config", "<length-1e300.cfg>"], "gate periods",
                id="sweep-bias-config-length-1e300",
            ),
            pytest.param(
                ["calibrate", "--slope-target", "nan"], "slope_db_per_km",
                id="calibrate-slope-nan",
            ),
            pytest.param(
                ["simulate", "--seed", "-1", "--pulses", "1000"], "seed",
                id="simulate-seed-neg",
            ),
            pytest.param(
                ["histogram", "--seed", "-1", "--pulses", "1000"], "seed",
                id="histogram-seed-neg",
            ),
            pytest.param(
                ["sweep-distance", "--engine", "mc", "--seed", "-1", "--pulses", "1000"],
                "seed", id="sweep-distance-mc-seed-neg",
            ),
            pytest.param(
                ["histogram", "--bin-ps", "1e-12", "--pulses", "1000"], "bin_ps",
                id="histogram-bins-over-cap",
            ),
            # Clock counts at and past 2**53, the last run whose clock
            # indices are all exact floats: more clocks are rejected up front.
            pytest.param(
                ["simulate", "--pulses", str(2**53)], "event budget",
                id="simulate-pulses-2-53",
            ),
            pytest.param(
                ["simulate", "--pulses", str(2**53 + 1)], "n_pulses",
                id="simulate-pulses-2-53-plus-1",
            ),
            pytest.param(
                ["simulate", "--pulses", "99999999999999999999"], "n_pulses",
                id="simulate-pulses-past-int64",
            ),
            pytest.param(
                ["histogram", "--pulses", str(2**53)], "event budget",
                id="histogram-pulses-2-53",
            ),
            pytest.param(
                ["sweep-distance", "--engine", "mc", "--pulses", str(2**63)], "n_pulses",
                id="sweep-distance-mc-pulses-2-63",
            ),
            pytest.param(
                ["simulate", "--pulses", "1000000", "--segments",
                 str(montecarlo._MAX_SEGMENTS + 1)], "segments",
                id="simulate-segments-over-cap",
            ),
            pytest.param(
                ["histogram", "--mu", "inf", "--pulses", "1000"], "source.mu",
                id="histogram-mu-inf",
            ),
            pytest.param(
                ["simulate", "--config", "<dark-prob-mismatch.cfg>", "--pulses", "1000"],
                "detector_b.dark_prob must equal detector_a.dark_prob",
                id="config-dark-prob-mismatch",
            ),
            pytest.param(
                ["sweep-distance", "--config", "<dead-time-inf.cfg>"], "detector.dead_time",
                id="config-dead-time-inf",
            ),
            pytest.param(
                ["simulate", "--config", "<not-utf8.cfg>", "--pulses", "1000"],
                "edited.cfg: not UTF-8", id="config-not-utf8",
            ),
            pytest.param(
                ["histogram", "--mu", "1000", "--length", "0", "--pulses", "1000000"],
                "event budget", id="histogram-over-event-budget",
            ),
            pytest.param(
                ["histogram", "--mu", "1e30", "--pulses", "1000"], "event budget",
                id="histogram-mean-too-large-to-draw",
            ),
            pytest.param(
                ["sweep-bias", "--config", "<dark-slope.cfg>", "--etas", "1.0"],
                "calibration.dark_slope", id="sweep-bias-dark-coupling-overflow",
            ),
            pytest.param(
                ["sweep-bias", "--config", "<gamma.cfg>", "--etas", "1.0"],
                "calibration.gamma", id="sweep-bias-afterpulse-coupling-overflow",
            ),
        ],
    )
    def test_invalid_input_exits_2_without_traceback(self, argv, message, cfg, tmp_path,
                                                     capsys):
        for i, arg in enumerate(argv):
            if arg in EDITED_CFGS:
                from qkdlink.config import dumps_config

                edits = EDITED_CFGS[arg]
                path = tmp_path / "edited.cfg"
                if isinstance(edits, bytes):
                    path.write_bytes(edits)
                else:
                    lines = dumps_config(cfg).splitlines()
                    keys = [line.split(" = ")[0] for line in lines]
                    assert edits.keys() <= set(keys)
                    edited = [f"{key} = {edits[key]}" if key in edits else line
                              for key, line in zip(keys, lines)]
                    path.write_text("\n".join(edited) + "\n")
                argv = [*argv[:i], str(path), *argv[i + 1:]]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert "Traceback" not in captured.err
