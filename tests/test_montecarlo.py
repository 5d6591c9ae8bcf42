"""Tests for the per-pulse event engine and tag-stream analysis helpers."""

import dataclasses
import struct

import numpy as np
import pytest

from qkdlink import montecarlo
from qkdlink.montecarlo import (
    AliceLog,
    ResourceLimitError,
    TimeTagStream,
    fwhm_from_counts,
    histogram,
    largest_empty_span,
    mean_peak_spacing,
    read_binary_dump,
    simulate,
    write_binary_dump,
    write_csv_dump,
)
from qkdlink.params import ParameterError

PERIOD = 1e12 / 1.036e9


def with_detectors(config, **changes):
    """Copy of ``config`` with both detectors modified identically."""
    det_a = dataclasses.replace(config.receiver.detector_a, **changes)
    det_b = dataclasses.replace(config.receiver.detector_b, **changes)
    receiver = dataclasses.replace(config.receiver, detector_a=det_a, detector_b=det_b)
    return dataclasses.replace(config, receiver=receiver)


def synthetic_stream(clocks, detectors, timestamps, period=PERIOD):
    return TimeTagStream(
        detector_id=np.asarray(detectors, dtype=np.uint8),
        clock_index=np.asarray(clocks, dtype=np.uint64),
        timestamp=np.asarray(timestamps, dtype=np.float64),
        meta={"gate_period_ps": period},
    )


class TestRecords:
    def test_alice_log_column_mismatch(self):
        with pytest.raises(ParameterError):
            AliceLog(bit=np.zeros(1, dtype=np.uint8), basis=np.zeros(2, dtype=np.uint8))

    def test_stream_column_mismatch(self):
        with pytest.raises(ParameterError):
            TimeTagStream([0], [1, 2], [3.0, 4.0])

    def test_absolute_times(self):
        stream = synthetic_stream([0, 2], [0, 0], [100.0, 50.0], period=1000.0)
        assert stream.absolute_times() == pytest.approx([100.0, 2050.0])


class TestSimulate:
    def test_same_seed_is_bit_identical(self, cfg):
        a = simulate(cfg.at_length(5.6), 100_000, seed=5)
        b = simulate(cfg.at_length(5.6), 100_000, seed=5)
        assert np.array_equal(a.tags.clock_index, b.tags.clock_index)
        assert np.array_equal(a.tags.detector_id, b.tags.detector_id)
        assert np.array_equal(a.tags.timestamp, b.tags.timestamp)
        assert np.array_equal(a.alice.bit, b.alice.bit)
        assert np.array_equal(a.alice.basis, b.alice.basis)
        assert np.array_equal(a.bob_bases, b.bob_bases)

    def test_different_seeds_differ(self, cfg):
        a = simulate(cfg.at_length(5.6), 100_000, seed=5)
        b = simulate(cfg.at_length(5.6), 100_000, seed=6)
        assert not (
            len(a.tags) == len(b.tags)
            and np.array_equal(a.tags.timestamp, b.tags.timestamp)
        )

    @pytest.mark.parametrize("length", [0.0, 5.6, 65.5])
    def test_stream_invariants(self, cfg, length, scan_stream_invariants):
        result = simulate(cfg.at_length(length), 200_000, seed=11)
        scan_stream_invariants(result, cfg.at_length(length))

    def test_segmented_run_reproducible_and_valid(self, cfg, scan_stream_invariants):
        config = cfg.at_length(5.6)
        a = simulate(config, 200_000, seed=2, segments=4)
        b = simulate(config, 200_000, seed=2, segments=4)
        assert np.array_equal(a.tags.clock_index, b.tags.clock_index)
        assert np.array_equal(a.tags.timestamp, b.tags.timestamp)
        scan_stream_invariants(a, config)
        assert a.meta["segments"] == 4

    def test_dark_counts_only_when_source_off(self, cfg):
        dim = dataclasses.replace(
            cfg, source=dataclasses.replace(cfg.source, mu=0.0)
        )
        result = simulate(dim, 500_000, seed=1)
        # Two detectors at ~6.6e-6 dark counts per gate: a handful of tags.
        assert 0 < len(result.tags) < 50

    def test_silent_when_source_and_darks_off(self, cfg):
        dead = with_detectors(
            dataclasses.replace(cfg, source=dataclasses.replace(cfg.source, mu=0.0)),
            dark_prob=0.0,
        )
        result = simulate(dead, 200_000, seed=1)
        assert len(result.tags) == 0

    def test_afterpulsing_inflates_tag_count(self, cfg):
        config = cfg.at_length(5.6)
        quiet = with_detectors(config, afterpulse_total=0.0)
        n = 2_000_000
        with_ap = len(simulate(config, n, seed=3).tags)
        without = len(simulate(quiet, n, seed=3).tags)
        assert 1.02 < with_ap / without < 1.10

    def test_event_budget_enforced(self, cfg):
        with pytest.raises(ResourceLimitError):
            simulate(cfg.at_length(0.0), 1_000_000, seed=0, max_events=100)

    def test_unequal_jitter_rejected(self, cfg):
        det_b = dataclasses.replace(cfg.receiver.detector_b, jitter_fwhm=30.0)
        lopsided = dataclasses.replace(
            cfg, receiver=dataclasses.replace(cfg.receiver, detector_b=det_b)
        )
        with pytest.raises(ParameterError, match="jitter"):
            simulate(lopsided, 1000, seed=0)

    @pytest.mark.parametrize("n_pulses,segments", [(0, 1), (100, 0), (10, 11)])
    def test_bad_run_shape_rejected(self, cfg, n_pulses, segments):
        with pytest.raises(ParameterError):
            simulate(cfg, n_pulses, seed=0, segments=segments)

    def test_tags_cluster_at_gate_center(self, cfg):
        result = simulate(cfg.at_length(0.0), 300_000, seed=9)
        assert len(result.tags) > 2000
        assert float(np.mean(result.tags.timestamp)) == pytest.approx(
            0.5 * PERIOD, abs=1.5
        )


class TestGateResponse:
    """The engine's hold-off / afterpulse sweep for one detector."""

    def sweep(self, cfg, gates, rng, n_gates, **changes):
        det = dataclasses.replace(cfg.receiver.detector_a, **changes)
        gates = np.asarray(gates, dtype=np.int64)
        offsets = np.full(gates.size, 0.5 * PERIOD)
        clicks, _ = montecarlo._sweep_detector(
            gates, offsets, det, rng, PERIOD, n_gates, montecarlo._EventBudget(10**6)
        )
        return clicks

    def test_hold_off_suppresses_consecutive_clicks(self, cfg):
        rng = np.random.default_rng(0)
        clicks = self.sweep(cfg, range(25), rng, 25, afterpulse_total=0.0)
        # dead_time / gate_period = 7.98, so every 8th gate can fire.
        assert clicks.tolist() == [0, 8, 16, 24]

    def test_afterpulse_yield_per_click(self, cfg):
        """A lone detection drags a cascade of afterpulses behind it; each
        click spawns Poisson(p) more, so the mean cascade size is p/(1-p)."""
        pa = cfg.receiver.detector_a.afterpulse_total
        rng = np.random.default_rng(2024)
        trials, horizon = 4000, 350
        extra = 0
        for _ in range(trials):
            clicks = self.sweep(cfg, [0], rng, horizon)
            assert clicks[0] == 0  # the seed click always fires
            extra += clicks.size - 1
        mean = extra / trials
        assert mean == pytest.approx(pa / (1.0 - pa), abs=0.021)


class TestHistogramAnalysis:
    def test_histogram_counts_everything(self):
        stream = synthetic_stream([0, 1, 2], [0, 1, 0], [100.0, 500.0, 900.0])
        counts, edges = histogram(stream, 1.0)
        assert counts.sum() == 3
        assert edges[0] == 0.0
        assert edges[-1] >= PERIOD

    def test_wide_bin_degenerates_to_single_bin(self):
        stream = synthetic_stream([0, 1], [0, 0], [100.0, 900.0])
        counts, edges = histogram(stream, 2 * PERIOD)
        assert counts.tolist() == [2]
        assert edges.tolist() == [0.0, PERIOD]

    def test_bad_bin_rejected(self):
        stream = synthetic_stream([0], [0], [10.0])
        with pytest.raises(ParameterError):
            histogram(stream, 0.0)

    def test_fwhm_of_synthetic_gaussian(self):
        sigma = 10.0
        edges = np.arange(0.0, 200.5, 0.5)
        centers = 0.5 * (edges[:-1] + edges[1:])
        counts = np.rint(1e5 * np.exp(-0.5 * ((centers - 100.0) / sigma) ** 2))
        width = fwhm_from_counts(counts.astype(int), edges)
        assert width == pytest.approx(2.3548 * sigma, abs=0.5)

    def test_fwhm_undefined_cases(self):
        edges = np.arange(0.0, 6.0)
        assert fwhm_from_counts(np.zeros(5, dtype=int), edges) is None
        # Peak pressed against the histogram edge: no rising crossing.
        assert fwhm_from_counts(np.array([9, 4, 1, 0, 0]), edges) is None
        assert fwhm_from_counts(np.array([7]), np.array([0.0, 1.0])) is None

    def test_largest_empty_span_wraps_circularly(self):
        ts = np.linspace(400.0, 600.0, 50)
        stream = synthetic_stream(np.arange(50), np.zeros(50), ts)
        span = largest_empty_span(stream)
        assert span == pytest.approx(PERIOD - 200.0, rel=1e-9)

    def test_largest_empty_span_degenerate_streams(self):
        assert largest_empty_span(synthetic_stream([], [], [])) is None
        lone = synthetic_stream([0], [0], [480.0])
        assert largest_empty_span(lone) == pytest.approx(PERIOD)

    def test_mean_peak_spacing_recovers_period(self):
        stream = synthetic_stream([0, 1, 2, 5], [0, 1, 0, 1], [482.6] * 4)
        assert mean_peak_spacing(stream) == pytest.approx(PERIOD, rel=1e-12)

    def test_mean_peak_spacing_undefined(self):
        assert mean_peak_spacing(synthetic_stream([0], [0], [1.0])) is None


class TestEventDumps:
    def test_binary_round_trip(self, tmp_path):
        stream = synthetic_stream([0, 7, 123456789], [0, 1, 1], [100.4, 500.6, 964.0])
        path = tmp_path / "tags.bin"
        write_binary_dump(stream, path)
        clock, det, ts = read_binary_dump(path)
        assert clock.tolist() == [0, 7, 123456789]
        assert det.tolist() == [0, 1, 1]
        # Timestamps are stored rounded to integer picoseconds.
        assert ts.tolist() == [100, 501, 964]

    def test_binary_dump_is_byte_deterministic(self, tmp_path):
        stream = synthetic_stream([1, 2], [0, 1], [10.0, 20.0])
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_binary_dump(stream, p1)
        write_binary_dump(stream, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert len(p1.read_bytes()) == 2 * 13  # u64 + u8 + u32 per record

    def test_binary_layout_matches_struct_records(self, tmp_path):
        clocks = [0, 7, 2**63, 2**64 - 1]
        dets = [0, 1, 1, 0]
        stamps = [0.5, 1.5, 964.4, 482.6]
        path = tmp_path / "tags.bin"
        write_binary_dump(synthetic_stream(clocks, dets, stamps), path)
        expected = b"".join(
            struct.pack("<QBI", c, d, round(t)) for c, d, t in zip(clocks, dets, stamps)
        )
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("stamp", [-0.6, 2.0**32 - 0.5, float("nan")])
    def test_timestamp_outside_u32_rejected(self, tmp_path, stamp):
        path = tmp_path / "tags.bin"
        with pytest.raises(ParameterError, match="2\\*\\*32"):
            write_binary_dump(synthetic_stream([0, 1], [0, 0], [10.0, stamp]), path)
        assert not path.exists()

    def test_truncated_dump_rejected(self, tmp_path):
        stream = synthetic_stream([1], [0], [10.0])
        path = tmp_path / "cut.bin"
        write_binary_dump(stream, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated"):
            read_binary_dump(path)

    def test_csv_dump(self, tmp_path):
        stream = synthetic_stream([4, 5], [1, 0], [12.5, 13.25])
        path = tmp_path / "tags.csv"
        write_csv_dump(stream, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "clock_index,detector_id,timestamp_ps"
        assert lines[1] == "4,1,12.5"
        assert lines[2] == "5,0,13.25"
