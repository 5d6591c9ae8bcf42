"""Tests of the benchmark's own code: checks, span arithmetic, harness."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, hostspeed, run, tracing
from perfbench.workloads import WORKLOADS

run.import_program()
SHIPPED_TEXT = (run.SRC / "qkdlink" / "data" / "default.cfg").read_text(encoding="utf-8")
SHIPPED = checks.parse_config_text(SHIPPED_TEXT)
GEOMETRY = checks.LinkGeometry(SHIPPED)
TINY = 1e-3  # pulse-count scale: every event-engine op at 10^4 to 3*10^4 pulses


def _reference():
    return json.loads(run.REFERENCE.read_text(encoding="utf-8"))


def _harness(name, tmp_path, reference=None):
    passes = WORKLOADS[name].passes(tmp_path, seed=3, shipped_cfg=SHIPPED_TEXT, scale=TINY)
    return run.Harness(passes, reference or _reference(), SHIPPED)


class TestStreamScan:
    def _stream(self, clocks, detectors):
        center = 0.5 * GEOMETRY.period_ps
        return np.array(clocks, dtype=np.uint64), np.array(detectors), np.full(len(clocks), center)

    def test_valid_stream_passes(self):
        # 9 clocks apart is ~8.7 ns, beyond the 7.7 ns hold-off.
        assert checks.scan_stream(*self._stream([0, 9, 18], [0, 0, 0]), 100, GEOMETRY) == []

    def test_holdoff_violation_rejected(self):
        problems = checks.scan_stream(*self._stream([0, 3], [1, 1]), 100, GEOMETRY)
        assert any("hold-off" in p for p in problems)

    def test_other_detector_does_not_count_against_holdoff(self):
        assert checks.scan_stream(*self._stream([0, 3], [0, 1]), 100, GEOMETRY) == []

    def test_two_tags_in_one_clock_rejected(self):
        problems = checks.scan_stream(*self._stream([5, 5], [0, 1]), 100, GEOMETRY)
        assert any("one tag per clock" in p for p in problems)

    def test_out_of_window_and_range_rejected(self):
        clock, det, ts = self._stream([0, 99], [0, 1])
        ts[0] += GEOMETRY.window_ps
        problems = checks.scan_stream(clock, det, ts, 50, GEOMETRY)
        assert any("window" in p for p in problems)
        assert any("outside [0, 50)" in p for p in problems)


class TestSpans:
    def _spans(self):
        S = tracing.Span
        return [
            S("cli.main", 0.0, 10.0, None, 0),
            S("config.load_config", 1.0, 4.0, 0, 0),
            S("montecarlo.simulate", 5.0, 9.0, 0, 0),
            S("linkbudget.transmittance", 6.0, 7.0, 2, 0),
            S("cli.main", 20.0, 22.0, None, 1),
        ]

    def test_self_time_subtracts_children(self):
        assert tracing.self_times(self._spans()) == [3.0, 3.0, 3.0, 1.0, 2.0]

    def test_overlapping_children_counted_once(self):
        S = tracing.Span
        spans = [S("a", 0.0, 10.0, None, 0), S("b", 1.0, 6.0, 0, 0), S("c", 4.0, 12.0, 0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(1.0)

    def test_summary_per_run(self):
        summary = tracing.summarize(self._spans())
        assert summary[0]["cli.main"] == {"s": 10.0, "self_s": 3.0, "calls": 1}
        assert summary[0]["montecarlo.simulate"]["self_s"] == 3.0
        assert summary[1] == {"cli.main": {"s": 2.0, "self_s": 2.0, "calls": 1}}
        assert tracing.calls_within(self._spans(), "linkbudget.transmittance", "cli.main") == 1

    def test_recorder_nests_and_patch_restores(self):
        import qkdlink.cli
        import qkdlink.config

        original = qkdlink.config.load_config
        recorder = tracing.Recorder()
        functions = tracing.layer_functions()
        # cli imports the function by name: the patch must reach that copy too.
        assert functions["config.load_config"] is qkdlink.cli.load_config
        with recorder.patch(functions):
            assert qkdlink.cli.load_config is not original
            assert qkdlink.config.load_config is qkdlink.cli.load_config
            qkdlink.config.default_config()
        assert qkdlink.cli.load_config is original
        assert [s.name for s in recorder.spans][:1] == ["config.default_config"]
        assert all(s.parent == 0 for s in recorder.spans[1:])


class TestHarness:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_runs_clean_at_tiny_size(self, name, tmp_path):
        harness = _harness(name, tmp_path)
        wall = harness.run_pass(0)
        assert wall > 0.0
        assert harness.problems == []
        assert harness.attempted == len(harness.passes[0]) and harness.failed == 0

    def test_failed_check_raises_fail_ratio(self, tmp_path):
        reference = _reference()
        reference["streams"]["simulate@5.6km"]["tags"]["mean"] *= 2.0
        harness = _harness("dense-5.6km", tmp_path, reference)
        harness.run_pass(0)
        assert (harness.failed, harness.attempted) == (1, 2)
        assert "tags" in harness.problems[0]

    def test_nonzero_exit_is_a_failure(self, tmp_path):
        harness = _harness("sparse-long-65.5km", tmp_path)
        op = harness.passes[0][0]
        bad = list(op.argv)
        bad[bad.index("--length") + 1] = "-1"
        harness.passes = [[replace(op, argv=tuple(bad))]]
        harness.run_pass(0)
        assert harness.failed == 1 and "exit code 2" in harness.problems[0]

    def test_traced_analytic_pass_structure(self, tmp_path):
        harness = _harness("analytic-fit", tmp_path)
        recorder = tracing.Recorder(run.OBSERVERS)
        harness.run_pass(0, recorder.patch(tracing.layer_functions()))
        assert harness.failed == 0
        calls = tracing.summarize(recorder.spans)[0]
        assert not any(name.startswith("montecarlo.") for name in calls)
        evaluate = calls["keyrate.evaluate_point"]["calls"]
        inside = tracing.calls_within(
            recorder.spans, "linkbudget.link_timing", "keyrate.evaluate_point"
        )
        assert evaluate > 0 and inside == 4 * evaluate
        assert recorder.counts[0]["calibrate.iterations"] > 1


def test_normalizer_divides_by_bracketing_kernels():
    kernel_times = iter([1.0, 3.0, 2.0])
    norm = hostspeed.Normalizer(lambda: next(kernel_times), reference_s=0.5)
    norm.add(4.0)  # kernels 1 and 3 around it
    norm.add(5.0)  # kernels 3 and 2 around it
    assert norm.ratios == [2.0, 2.0]
    assert norm.reference_seconds() == [1.0, 1.0]
    assert norm.raw == [4.0, 5.0]


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic-fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
