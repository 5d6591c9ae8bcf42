"""Tests for the event engine and tag-stream analysis helpers."""

import collections
import dataclasses
import hashlib
import math
import random
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st
from scipy.special import erf
from scipy.stats import chi2_contingency, chisquare, power_divergence

from qkdlink import keyrate, linkbudget, montecarlo
from qkdlink.cli import main
from qkdlink.montecarlo import (
    AliceLog,
    ClockBits,
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
from qkdlink import protocol
from qkdlink.params import ParameterError

PERIOD = 1e12 / 1.036e9


def with_detector(config, **changes):
    """Copy of ``config`` with the detector pair's response modified."""
    det = dataclasses.replace(config.receiver.detector, **changes)
    receiver = dataclasses.replace(config.receiver, detector=det)
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

    def test_clock_column_rejects_clocks_outside_the_run(self):
        column = ClockBits(key=7, bit=63, n_clocks=10)
        assert len(column) == 10
        assert column[np.array([0, 9])].dtype == np.uint8
        for clocks in ([10], [0, 11], [-1], np.array([2**63], dtype=np.uint64)):
            with pytest.raises(IndexError):
                column[np.asarray(clocks)]

    def test_clock_column_takes_only_integer_clock_arrays(self):
        column = ClockBits(key=7, bit=63, n_clocks=10)
        for index in (3, np.array(3), np.array([1.0]), np.zeros((2, 2), dtype=np.int64)):
            with pytest.raises(TypeError):
                column[index]
        # Never materialized: a whole-column conversion raises at once.
        with pytest.raises(TypeError):
            np.asarray(column)

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
        # The per-clock columns are read at clocks, never whole.
        clocks = np.union1d(a.tags.clock_index.astype(np.int64), _clock_sample(100_000, 1))
        assert len(a.tags) > 100
        for column_a, column_b in _columns(a, b):
            assert np.array_equal(column_a[clocks], column_b[clocks])

    def test_same_seed_columns_compare_equal_as_columns_and_at_clocks(self, cfg):
        # np.array_equal cannot compare the columns themselves: it reads the
        # TypeError of their conversion as "not equal".
        a, b, other = (simulate(cfg.at_length(5.6), 50_000, seed=seed) for seed in (5, 5, 6))
        clocks = np.arange(50_000)
        for (column_a, column_b), (column_other, _) in zip(_columns(a, b), _columns(other, b)):
            assert column_a == column_b
            assert (column_a[clocks] == column_b[clocks]).all()
            assert column_a != column_other

    @pytest.mark.parametrize("length", [1e300, 1e308])
    def test_profile_beyond_every_clock_detects_nothing(self, cfg, length):
        # Lossless fiber this long spreads every arrival past the run, by
        # more clocks than int64 holds (an infinite width at 1e308 km): each
        # photon is dropped, and no out-of-range cast or NaN warns.
        lossless = dataclasses.replace(cfg, channel=dataclasses.replace(cfg.channel,
                                                                        attenuation=0.0))
        config = with_detector(lossless.at_length(length), dark_prob=0.0, afterpulse_total=0.0)
        result = simulate(config, 100_000, seed=1)
        assert result.meta["events_generated"] > 1000
        assert len(result.tags) == 0

    def test_over_wide_pulse_detects_nothing_without_a_warning(self, cfg):
        # Each line's normals scaled by a 1e308 ps pulse width overflow to
        # inf: every photon is dropped, and the overflow does not warn.
        wide = dataclasses.replace(cfg, source=dataclasses.replace(cfg.source,
                                                                   pulse_sigma0=1e308))
        config = with_detector(wide, dark_prob=0.0, afterpulse_total=0.0)
        result = simulate(config, 200_000, seed=1)
        assert result.meta["events_generated"] > 1000
        assert len(result.tags) == 0

    def test_columns_follow_the_global_clock_across_segments(self, cfg):
        """One seed gives the same per-clock bits at any segment count,
        on both sides of every segment boundary."""
        n = 200_000
        whole = simulate(cfg.at_length(5.6), n, seed=4)
        split = simulate(cfg.at_length(5.6), n, seed=4, segments=4)
        clocks = _clock_sample(n, 4)
        for column_whole, column_split in _columns(whole, split):
            assert np.array_equal(column_whole[clocks], column_split[clocks])
        # A different seed moves them.
        other = simulate(cfg.at_length(5.6), n, seed=5)
        assert not np.array_equal(whole.alice.bit[clocks], other.alice.bit[clocks])

    def test_billion_clocks_cost_memory_per_event(self, cfg):
        """A 1e9-clock run and its sifting allocate per event, not per
        clock: the old per-clock columns alone were 3 GB here."""
        tracemalloc.start()
        try:
            result = simulate(cfg.at_length(101.0), 1_000_000_000, seed=12)
            key = protocol.sift(result.alice, result.tags, result.bob_bases)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.alice) == len(result.bob_bases) == 1_000_000_000
        assert key.n_sifted > 10_000
        assert peak < 64 * 2**20

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

    @settings(max_examples=25, deadline=None)
    @given(
        length=st.floats(0.0, 120.0),
        compensated=st.booleans(),
        mu=st.floats(0.0, 1.0),
        dark_prob=st.floats(0.0, 1e-2),
        afterpulse_total=st.floats(0.0, 0.5, exclude_max=True),
        dead_time=st.floats(0.0, 20.0),
        jitter_fwhm=st.floats(0.0, 150.0),
        seed=st.integers(0, 2**32 - 1),
        segments=st.integers(1, 64),
    )
    def test_random_matched_pair_configs(self, cfg, scan_stream_invariants, length,
                                         compensated, mu, seed, segments, **detector):
        config = with_detector(cfg.at_length(length, compensated), **detector)
        config = dataclasses.replace(config, source=dataclasses.replace(config.source, mu=mu))
        scan_stream_invariants(simulate(config, 20_000, seed=seed, segments=segments), config)
        rate, qber = keyrate.evaluate_point(config)
        values = (rate.raw_rate, rate.qber, rate.secure_rate, *dataclasses.astuple(qber))
        assert all(math.isfinite(value) for value in values), values

    def test_segmented_run_reproducible_and_valid(self, cfg, scan_stream_invariants):
        # The 512 short segments at 0 km put clicks next to many segment
        # boundaries, where each must still hold off the next candidates.
        for length, n_pulses, seed, segments in ((5.6, 200_000, 2, 4), (0.0, 2_000_000, 0, 512)):
            config = cfg.at_length(length)
            a = simulate(config, n_pulses, seed=seed, segments=segments)
            b = simulate(config, n_pulses, seed=seed, segments=segments)
            assert np.array_equal(a.tags.clock_index, b.tags.clock_index)
            assert np.array_equal(a.tags.timestamp, b.tags.timestamp)
            scan_stream_invariants(a, config)
            assert a.meta["segments"] == segments

    def test_meta_records_the_run_alone(self, cfg):
        # The stream layout is the module's documentation, not a per-run value.
        meta = simulate(cfg, 1000, seed=3, segments=2).meta
        assert list(meta) == ["seed", "segments", "n_pulses", "gate_period_ps",
                              "gate_window_ps", "events_generated"]
        assert (meta["seed"], meta["segments"], meta["n_pulses"]) == (3, 2, 1000)

    def test_dark_counts_only_when_source_off(self, cfg):
        dim = dataclasses.replace(
            cfg, source=dataclasses.replace(cfg.source, mu=0.0)
        )
        result = simulate(dim, 500_000, seed=1)
        # Two detectors at ~6.6e-6 dark counts per gate: a handful of tags.
        assert 0 < len(result.tags) < 50

    def test_silent_when_source_and_darks_off(self, cfg):
        dead = with_detector(
            dataclasses.replace(cfg, source=dataclasses.replace(cfg.source, mu=0.0)),
            dark_prob=0.0,
        )
        result = simulate(dead, 200_000, seed=1)
        assert len(result.tags) == 0

    def test_afterpulsing_inflates_tag_count(self, cfg):
        config = cfg.at_length(5.6)
        quiet = with_detector(config, afterpulse_total=0.0)
        n = 2_000_000
        with_ap = len(simulate(config, n, seed=3).tags)
        without = len(simulate(quiet, n, seed=3).tags)
        assert 1.02 < with_ap / without < 1.10

    def test_event_budget_enforced(self, cfg, monkeypatch):
        monkeypatch.setattr(montecarlo, "_MAX_EVENTS", 100)
        with pytest.raises(ResourceLimitError):
            simulate(cfg.at_length(0.0), 1_000_000, seed=0)

    def test_event_budget_charged_before_allocation(self, cfg, monkeypatch):
        """A run far over budget (3.6e6 expected photons against 100) fails
        on its photon count, before any per-event array is allocated."""
        monkeypatch.setattr(montecarlo, "_MAX_EVENTS", 100)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                simulate(cfg.at_length(0.0), 300_000_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_afterpulse_budget_charged_per_generation(self, cfg, monkeypatch):
        """A near-critical cascade (about 20 nodes per candidate, 600k in
        all here) fails on its first afterpulse generation's spawn total,
        before the rest of the tree is drawn."""
        bright = dataclasses.replace(cfg.at_length(0.0), source=dataclasses.replace(cfg.source, mu=5.0))
        n = 100_000
        candidates = simulate(
            with_detector(bright, afterpulse_total=0.0), n, seed=0
        ).meta["events_generated"]
        cascade = with_detector(bright, afterpulse_total=0.95)
        monkeypatch.setattr(montecarlo, "_MAX_EVENTS", candidates + 1000)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                simulate(cascade, n, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("n_pulses,segments", [
        (0, 1), (100, 0), (10, 11), (2**63, 1), (10**20, 1),
        # One over the segment cap, rejected before any stream is spawned.
        (10**6, montecarlo._MAX_SEGMENTS + 1),
    ])
    def test_bad_run_shape_rejected(self, cfg, n_pulses, segments):
        with mock.patch.object(np.random, "SeedSequence") as spawn:
            with pytest.raises(ParameterError):
                simulate(cfg, n_pulses, seed=0, segments=segments)
        spawn.assert_not_called()

    def test_clock_count_past_exact_floats_rejected(self, cfg):
        # Above 2**53 clocks a photon's float gate would be rounded, and the
        # coins read at the wrong clock.
        with pytest.raises(ParameterError, match="n_pulses"):
            simulate(cfg, 2**53 + 1, 0)

    def test_tags_cluster_at_gate_center(self, cfg):
        result = simulate(cfg.at_length(0.0), 300_000, seed=9)
        assert len(result.tags) > 2000
        assert float(np.mean(result.tags.timestamp)) == pytest.approx(
            0.5 * PERIOD, abs=1.5
        )


def _clock_sample(n_pulses, segments):
    """Both ends of the run, both sides of each segment boundary, and
    random clocks between them."""
    bounds = np.linspace(0, n_pulses, segments + 1).astype(np.int64)
    edges = np.concatenate([bounds[:-1], bounds[1:] - 1])
    spread = np.random.default_rng(0).integers(0, n_pulses, 1000)
    return np.union1d(edges, spread)


def _columns(a, b):
    """Pairs of the matching per-clock columns of two runs."""
    return (
        (a.alice.bit, b.alice.bit),
        (a.alice.basis, b.alice.basis),
        (a.bob_bases, b.bob_bases),
    )


class TestClockMix:
    """The counter-based mix behind Alice's and Bob's per-clock columns."""

    def test_known_answer(self):
        # Reference SplitMix64 seeded with 0: its first three outputs.
        z = montecarlo._clock_mix(0, np.arange(3))
        assert z.dtype == np.uint64
        assert z.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @staticmethod
    def out_of_place_mix(key, clocks):
        """The finalizer written with a new array per step, as the reference."""
        z = (np.asarray(clocks).astype(np.uint64) + np.uint64(1)) * np.uint64(
            0x9E3779B97F4A7C15) + np.uint64(key)
        z = z ^ (z >> np.uint64(30))
        z = z * np.uint64(0xBF58476D1CE4E5B9)
        z = z ^ (z >> np.uint64(27))
        z = z * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    @example([0, 2**53], 2**64 - 1, np.uint64)
    @example([2**53, 5, 5, 0], 0, np.int64)
    @seed(36)
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**53), max_size=40), st.integers(0, 2**64 - 1),
           st.sampled_from([np.int64, np.uint64]))
    def test_matches_the_out_of_place_reference(self, clocks, key, dtype):
        clocks = np.array(clocks, dtype=dtype)
        before = clocks.copy()
        z = montecarlo._clock_mix(key, clocks)
        assert z.dtype == np.uint64
        assert z.tolist() == self.out_of_place_mix(key, before).tolist()
        assert clocks.dtype == dtype and clocks.tobytes() == before.tobytes()

    def test_columns_are_balanced_and_independent(self, cfg):
        """Over 2**20 clocks of one run, each column, each pairwise XOR of
        columns and each column's lag-1 XOR is balanced within 5 sigma.  The
        columns include the squash coin and the mis-modulation at m = 1/2."""
        n = 2**20
        result = simulate(cfg.at_length(65.5), n, seed=3)
        clocks = np.arange(n)
        z = montecarlo._clock_mix(result.alice.bit.key, clocks)
        columns = {
            "alice bit": result.alice.bit[clocks],
            "alice basis": result.alice.basis[clocks],
            "bob basis": result.bob_bases[clocks],
            "squash keeps A": montecarlo._mix_bit(z, montecarlo.SQUASH_A),
            "mis-modulated": montecarlo._mismodulated(z, 0.5).view(np.uint8),
        }
        sequences = dict(columns)
        names = list(columns)
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                sequences[f"{first} ^ {second}"] = columns[first] ^ columns[second]
        for name, column in columns.items():
            sequences[f"{name} lag-1"] = column[:-1] ^ column[1:]
        for name, bits in sequences.items():
            z = (int(bits.sum()) - 0.5 * bits.size) / math.sqrt(0.25 * bits.size)
            assert abs(z) < 5.0, f"{name}: {z:+.2f} sigma"


def _assert_count_law(counts, mean, var, mu4):
    """Sample mean and variance of ``counts`` within 5 sigma of the law.

    ``mu4`` is the law's fourth central moment, which sets the standard
    error of the sample variance.
    """
    n = len(counts)
    counts = np.asarray(counts, dtype=np.float64)
    z_mean = (counts.mean() - mean) / math.sqrt(var / n)
    se_var = math.sqrt((mu4 - var**2 * (n - 3) / (n - 1)) / n)
    z_var = (counts.var(ddof=1) - var) / se_var
    assert abs(z_mean) < 5.0, f"mean {counts.mean():.1f} vs {mean:.1f} ({z_mean:+.2f} sigma)"
    assert abs(z_var) < 5.0, f"variance {counts.var(ddof=1):.1f} vs {var:.1f} ({z_var:+.2f} sigma)"


class TestCandidateLaw:
    """Candidates drawn by count and position keep the per-gate law, seen
    through the engine's own ``events_generated`` counter."""

    # 200 runs put a zero-variance count 10 sigma from a Poisson one.
    SEEDS = range(200)
    N = 50_000

    def test_photon_count_is_poisson(self, cfg):
        """Also over segments: every counted photon belongs to the run.  A
        compensated link has one spectral line; the uncompensated one has
        two (the side mode), each with its own Poisson count, and their sum
        is the Poisson(lam) photon count."""
        for compensated, lines in ((True, 1), (False, 2)):
            config = with_detector(cfg.at_length(5.6, compensated), dark_prob=0.0,
                                   afterpulse_total=0.0)
            assert len(linkbudget.temporal_components(
                config.source, config.channel, config.receiver)) == lines
            m = (
                config.source.mu
                * linkbudget.transmittance(config.channel.length, config.channel.attenuation)
                * config.receiver.detector.efficiency
            )
            lam = m * self.N
            for segments in (1, 4):
                counts = [
                    simulate(config, self.N, seed=s, segments=segments).meta["events_generated"]
                    for s in self.SEEDS
                ]
                _assert_count_law(counts, lam, lam, lam * (1.0 + 3.0 * lam))

    def test_dark_count_is_binomial(self, cfg):
        p = 1e-3
        config = with_detector(
            dataclasses.replace(cfg, source=dataclasses.replace(cfg.source, mu=0.0)),
            dark_prob=p,
            afterpulse_total=0.0,
        )
        trials = 2 * self.N  # two detectors, one Bernoulli(p) per gate each
        mean = trials * p
        var = mean * (1.0 - p)
        mu4 = var * (1.0 + 3.0 * (trials - 2) * p * (1.0 - p))
        counts = [simulate(config, self.N, seed=s).meta["events_generated"] for s in self.SEEDS]
        _assert_count_law(counts, mean, var, mu4)


class TestArrivalLaw:
    """The event engine draws each photon's arrival from the detected
    profile the analytic kernels integrate: with darks, afterpulses and
    hold-off off, the folded tag times follow that profile's in-window mass
    per 5 ps bin (G-test; bins expecting fewer than 5 tags pooled)."""

    BIN_PS = 5.0
    P_MIN = 1e-3

    @pytest.mark.parametrize("length, compensated, lines, seed", [
        (75.8, True, 1, 31),
        (65.5, False, 2, 32),
    ])
    def test_folded_times_follow_the_detected_profile(self, cfg, length, compensated,
                                                      lines, seed):
        config = with_detector(cfg.at_length(length, compensated), dark_prob=0.0,
                               afterpulse_total=0.0, dead_time=0.0)
        profile = linkbudget.temporal_components(config.source, config.channel,
                                                 config.receiver)
        assert len(profile) == lines
        tags = simulate(config, 400_000_000, seed=seed).tags
        assert len(tags) >= 100_000
        counts, edges = histogram(tags, self.BIN_PS)
        # Each line's mass per bin, over every gate window it reaches, on the
        # in-window axis u = t - period/2.
        period, half = tags.meta["gate_period_ps"], 0.5 * tags.meta["gate_window_ps"]
        u = np.clip(edges - 0.5 * period, -half, half)
        cdf = sum(weight * 0.5 * erf((u + k * period - mean) / (sigma * math.sqrt(2.0)))
                  for weight, mean, sigma in profile for k in range(-10, 11))
        expected = len(tags) * np.diff(cdf) / (cdf[-1] - cdf[0])
        pooled = expected < 5.0
        observed = [*counts[~pooled], counts[pooled].sum()]
        expect = [*expected[~pooled], expected[pooled].sum()]
        if expect[-1] == 0.0:  # every pooled bin lies outside the window
            assert observed.pop() == 0
            expect.pop()
        _, p = power_divergence(observed, expect, lambda_="log-likelihood")
        assert p > self.P_MIN, f"G-test p = {p:.2e} over {len(tags)} tags"


class TestCompensatedLeakage:
    """Compensation narrows the profile but does not fold it into one clock:
    with a detector jitter wide enough to reach the neighbor windows, the
    analytic wrong-clock error of a compensated link is the one the event
    engine measures on an otherwise perfect link (4 binomial sigma)."""

    SIGMAS = 4.0

    def test_wide_jitter_leaks_into_neighbor_clocks(self, cfg):
        config = with_detector(cfg.at_length(101.1, compensated=True), jitter_fwhm=1000.0,
                               dark_prob=0.0, afterpulse_total=0.0, dead_time=0.0)
        config = dataclasses.replace(config, receiver=dataclasses.replace(
            config.receiver, visibility=1.0, mismodulation_error=0.0))
        _, e_interclock = linkbudget.link_timing(config.source, config.channel,
                                                 config.receiver)
        assert e_interclock > 0.05
        result = simulate(config, 200_000_000, seed=61)
        key = protocol.sift(result.alice, result.tags, result.bob_bases)
        assert key.n_sifted > 2_000
        sigma = math.sqrt(e_interclock * (1.0 - e_interclock) / key.n_sifted)
        assert abs(key.qber_estimate - e_interclock) < self.SIGMAS * sigma, (
            key.qber_estimate, e_interclock, key.n_sifted)


class TestPerClockCoins:
    """The clock mix's per-clock coins keep their laws in whole runs: the
    sifted error rate of a mis-modulating, otherwise perfect link is m, and
    a double click is recorded on either detector with probability 1/2."""

    SIGMAS = 4.0

    def test_mismodulated_pulses_err_at_rate_m(self, cfg):
        m = 0.2
        config = with_detector(cfg.at_length(75.8, compensated=True), dark_prob=0.0,
                               afterpulse_total=0.0, dead_time=0.0)
        config = dataclasses.replace(config, receiver=dataclasses.replace(
            config.receiver, visibility=1.0, mismodulation_error=m))
        result = simulate(config, 200_000_000, seed=51)
        key = protocol.sift(result.alice, result.tags, result.bob_bases)
        assert key.n_sifted > 20_000
        sigma = math.sqrt(m * (1.0 - m) / key.n_sifted)
        assert abs(key.qber_estimate - m) < self.SIGMAS * sigma, key.qber_estimate

    def test_squash_keeps_either_detector_half_the_time(self, cfg):
        # Per gate, darks alone: A 0.21, B 0.21, both 0.09.  A coin that
        # always kept A would give A a 0.30 / 0.51 = 0.588 share.
        config = with_detector(cfg, dark_prob=0.3, afterpulse_total=0.0, dead_time=0.0)
        config = dataclasses.replace(config, source=dataclasses.replace(config.source, mu=0.0))
        tags = simulate(config, 200_000, seed=52).tags
        share = np.mean(tags.detector_id == montecarlo.DETECTOR_A)
        assert abs(share - 0.5) < self.SIGMAS * math.sqrt(0.25 / len(tags)), share


class TestStreamLayout:
    """Pins the random-stream layout, so a change to it is deliberate and
    recorded.  The digests also move if NumPy changes one of the Generator
    distributions the engine draws from."""

    # (dump, sifted key) SHA-256 per ``--segments`` value.
    DIGESTS = {
        1: ("5acaf7bf257cbfc49e1e2370be76e993e51b769269df6125de178574fb06a6da",
            "cef8867612e20452ac75d916698e28f41e2a4906f0c27f58bbaebd6936365484"),
        4: ("13c6c3f093ac718b044143ccd6c0280c0369bf625cd006d1619b06ab582d7322",
            "ba9478bc5865f54db907c6350321ddd8dd7eac1a6c3dd6345346f375a95353db"),
    }

    def test_fixed_seed_output_digests(self, tmp_path):
        dump, key = tmp_path / "tags.bin", tmp_path / "key.txt"
        for segments, digests in self.DIGESTS.items():
            argv = ["simulate", "--pulses", "300000", "--seed", "8", "--segments", str(segments),
                    "--out", str(dump), "--sifted-key", str(key)]
            assert main(argv) == 0
            assert hashlib.sha256(dump.read_bytes()).hexdigest() == digests[0], segments
            assert hashlib.sha256(key.read_bytes()).hexdigest() == digests[1], segments

    # (dump, sifted key) SHA-256 at 65.5 km, where the side mode arrives 809 ps
    # late: about 4% of the kept photons are detected one clock after the one
    # that emitted them, so Bob's basis comes from the mix at another clock.
    WALKED_OFF = ("e115e621cbb5190fcccbbb5a37cf506a8aa3edd124f57516b274de15114a2cfc",
                  "a329b4b1c1a853f68504b39774badbb7624b8820b317dc38d092e5fb891f2ed0")

    def test_walked_off_photons_digests(self, tmp_path):
        dump, key = tmp_path / "tags.bin", tmp_path / "key.txt"
        argv = ["simulate", "--pulses", "30000000", "--seed", "3", "--length", "65.5",
                "--out", str(dump), "--sifted-key", str(key)]
        assert main(argv) == 0
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == self.WALKED_OFF[0]
        assert hashlib.sha256(key.read_bytes()).hexdigest() == self.WALKED_OFF[1]


class TestZeroCaseLayout:
    """A zero mean photon number, afterpulse probability or dark rate draws
    nothing on the general path, so those runs keep the stream layout of a
    run that branched around the draws.  ``mu = 0`` over three segments
    leaves segments with darks but no photons.  Pinned per case: tags,
    events generated and the SHA-256 of the clock, detector and timestamp
    columns."""

    CASES = {
        ("mu", 1): (48, 48, "7fdb6eda41329fb57b0f809b1e58a3dda290fcb69696e8382555b7580af9d509"),
        ("mu", 3): (52, 52, "f0a2e518f10b2fba44bbf66366a00ae8247db4e7b3c0972d7126a9af29989063"),
        ("afterpulse_total", 1): (
            27_128, 28_216, "c306b88c3a26fcc40c634bf9916cc3fc0b7ed2e4918d331b0794a06893e7c7f4"),
        ("afterpulse_total", 3): (
            27_089, 28_184, "bb9612249be75ec9f5bd6a2d5f034c97bc35899bf3f9c8690fdb04290064a0b4"),
        ("dark_prob", 1): (
            28_701, 30_013, "4ed4ac0c08b71e0415a77f97d7521fbb1569dd82cb3b84700752ced92b8ba844"),
        ("dark_prob", 3): (
            28_647, 29_960, "c66f3f80d9f8cb6eb103f6ab37fefdfcbbdeeb0153e22913242f85314815cca6"),
    }

    @pytest.mark.parametrize("zero, segments", list(CASES))
    def test_zero_case_digests(self, cfg, zero, segments):
        if zero == "mu":
            config = dataclasses.replace(cfg, source=dataclasses.replace(cfg.source, mu=0.0))
        else:
            config = with_detector(cfg, **{zero: 0.0})
        result = simulate(config.at_length(5.6), 3_000_000, seed=5, segments=segments)
        tags = result.tags
        digest = hashlib.sha256()
        for column in (tags.clock_index, tags.detector_id, tags.timestamp):
            digest.update(column.tobytes())
        assert (len(tags), result.meta["events_generated"], digest.hexdigest()) == (
            self.CASES[zero, segments])


def _sweep(det, gates, offsets, rng, n_gates, period=PERIOD, budget=None):
    return montecarlo._sweep_detector(
        np.asarray(gates, dtype=np.int64),
        np.asarray(offsets, dtype=np.float64),
        det,
        rng,
        period,
        n_gates,
        budget or montecarlo._EventBudget(10**6),
    )


class TestGateResponse:
    """The engine's hold-off / afterpulse sweep for one detector."""

    def sweep(self, cfg, gates, rng, n_gates, **changes):
        det = dataclasses.replace(cfg.receiver.detector, **changes)
        clicks, _ = _sweep(det, gates, np.full(len(gates), 0.5 * PERIOD), rng, n_gates)
        return clicks

    def test_hold_off_suppresses_consecutive_clicks(self, cfg):
        rng = np.random.default_rng(0)
        clicks = self.sweep(cfg, range(25), rng, 25, afterpulse_total=0.0)
        # dead_time / gate_period = 7.98, so every 8th gate can fire.
        assert clicks.tolist() == [0, 8, 16, 24]

    def test_afterpulse_yield_per_click(self, cfg):
        """A lone detection drags a cascade of afterpulses behind it; each
        click spawns Poisson(p) more, so the mean cascade size is p/(1-p)."""
        pa = cfg.receiver.detector.afterpulse_total
        rng = np.random.default_rng(2024)
        trials, horizon = 4000, 350
        extra = 0
        for _ in range(trials):
            clicks = self.sweep(cfg, [0], rng, horizon)
            assert clicks[0] == 0  # the seed click always fires
            extra += clicks.size - 1
        mean = extra / trials
        assert mean == pytest.approx(pa / (1.0 - pa), abs=0.021)


class TestSweepBoundaries:
    """Edge cases of the hold-off / merge rule, on exact-in-binary times."""

    def det(self, cfg, **changes):
        changes.setdefault("afterpulse_total", 0.0)
        return dataclasses.replace(cfg.receiver.detector, **changes)

    def test_empty_input(self, cfg):
        gates, offsets = _sweep(self.det(cfg, afterpulse_total=0.5), [], [],
                                np.random.default_rng(0), 10)
        assert gates.dtype == np.int64 and gates.size == 0
        assert offsets.dtype == np.float64 and offsets.size == 0

    def test_gap_of_exactly_the_hold_off_fires(self, cfg):
        det = self.det(cfg, dead_time=2.0)  # 2000 ps on a 1000 ps period
        rng = np.random.default_rng(0)
        gates, _ = _sweep(det, [0, 2], [500.0, 500.0], rng, 3, period=1000.0)
        assert gates.tolist() == [0, 2]
        # The same gap behind a blocked candidate.
        gates, _ = _sweep(det, [0, 1, 2], [500.0] * 3, rng, 3, period=1000.0)
        assert gates.tolist() == [0, 2]
        gates, _ = _sweep(det, [0, 2], [500.0, 499.5], rng, 3, period=1000.0)
        assert gates.tolist() == [0]

    def test_one_click_per_gate_the_earliest(self, cfg):
        gates, offsets = _sweep(self.det(cfg), [3, 3], [600.0, 400.0],
                                np.random.default_rng(0), 5)
        assert gates.tolist() == [3]
        assert offsets.tolist() == [400.0]

    def test_zero_hold_off_leaves_only_the_merge(self, cfg):
        gates, offsets = _sweep(self.det(cfg, dead_time=0.0), [2, 0, 0, 1, 2],
                                [450.0, 520.0, 510.0, 530.0, 440.0],
                                np.random.default_rng(0), 3)
        assert gates.tolist() == [0, 1, 2]
        assert offsets.tolist() == [510.0, 530.0, 440.0]

    def test_afterpulses_past_the_run_are_dropped(self, cfg):
        det = self.det(cfg, afterpulse_total=0.9, dead_time=0.0)
        rng = np.random.default_rng(1)
        budget = montecarlo._EventBudget(10**6)
        for _ in range(200):
            gates, _ = _sweep(det, [0], [0.5 * PERIOD], rng, 1, budget=budget)
            assert gates.tolist() == [0]
        assert budget.used > 100  # drawn and charged, then dropped

    # A hold-off of (2**63 - 4096) periods, whose children's gates would wrap
    # negative as int64, and one too far to cast at all.
    @pytest.mark.parametrize("dead_ns", [8.902868761442829e18, 1e300])
    def test_hold_off_past_int64_keeps_the_first_click(self, cfg, dead_ns):
        det = self.det(cfg, afterpulse_total=0.9, dead_time=dead_ns)
        layout = np.random.default_rng(5)
        gates = np.sort(layout.integers(0, 100_000, 200))  # most step past 2**63
        offsets = CENTER + (layout.random(200) - 0.5) * det.gate_window
        budget = montecarlo._EventBudget(10**6)
        clicks, click_offsets = _sweep(det, gates, offsets, np.random.default_rng(0), 2**53,
                                       budget=budget)
        assert budget.used > 100  # children drawn, none of them in the run
        first = np.lexsort((offsets, gates))[0]
        assert (clicks.tolist(), click_offsets.tolist()) == ([gates[first]], [offsets[first]])
        # Each detector's first candidate fires, once, in a whole run.
        result = simulate(with_detector(cfg, dead_time=dead_ns).at_length(0.0), 1_000_000, seed=3)
        assert np.bincount(result.tags.detector_id, minlength=2).tolist() == [1, 1]

    def test_decay_past_int64_drops_the_afterpulses(self, cfg):
        det = self.det(cfg, afterpulse_total=0.9, afterpulse_decay=8.902868761442829e18)
        layout = np.random.default_rng(6)
        gates = np.sort(layout.integers(0, 1000, 200))
        offsets = CENTER + (layout.random(200) - 0.5) * det.gate_window
        want = _sweep(self.det(cfg), gates, offsets, np.random.default_rng(0), 2000)
        got = _sweep(det, gates, offsets, np.random.default_rng(0), 2000)
        assert [column.tolist() for column in got] == [column.tolist() for column in want]


class TestAfterpulseSpawn:
    """Each generation of the afterpulse tree draws one Poisson(pa * N)
    total and spreads it over uniformly drawn parents, which gives every
    node iid Poisson(pa) children.  Seen on the candidates, the first
    generation, of trees whose children are never dropped: the shipped
    hold-off puts every release at least one gate after its parent, and a
    2**40-gate run has room for all of them."""

    SEEDS = range(20)
    N_CANDIDATES = 20_000
    BINS = 50
    N_GATES = 2**40

    @staticmethod
    def candidates(det, n):
        """``n`` candidates in distinct gates, in time order."""
        offsets = CENTER + (np.random.default_rng(0).random(n) - 0.5) * det.gate_window
        return 3 * np.arange(n, dtype=np.int64), offsets

    @pytest.mark.parametrize("pa", [0.06, 0.5])
    def test_children_per_node_are_iid_poisson(self, cfg, pa):
        det = dataclasses.replace(cfg.receiver.detector, afterpulse_total=pa)
        assert det.dead_time_ps - 0.5 * det.gate_window > 0.5 * PERIOD  # every step > 0
        gates, offsets = self.candidates(det, self.N_CANDIDATES)
        counts = []
        for s in self.SEEDS:
            _, _, parents = montecarlo._afterpulse_tree(
                gates, offsets, det, np.random.default_rng(s), PERIOD, self.N_GATES,
                montecarlo._EventBudget(10**7))
            # The first generation's parents index the candidates, in their order.
            counts.append(np.bincount(parents[0], minlength=self.N_CANDIDATES))
        counts = np.concatenate(counts)
        n = counts.size
        z_mean = (counts.mean() - pa) / math.sqrt(pa / n)
        # Index of dispersion: (n - 1) var / mean is chi-square(n - 1) for Poisson counts.
        dispersion = counts.var(ddof=1) / counts.mean()
        z_dispersion = (dispersion - 1.0) / math.sqrt(2.0 / (n - 1))
        assert abs(z_mean) < 5.0, f"mean {counts.mean():.5f} vs {pa} ({z_mean:+.2f} sigma)"
        assert abs(z_dispersion) < 5.0, f"dispersion {dispersion:.4f} ({z_dispersion:+.2f} sigma)"
        # Parents uniform over nodes: children per bin of consecutive candidates.
        _, p = chisquare(counts.reshape(len(self.SEEDS), self.BINS, -1).sum(axis=(0, 2)))
        assert p > 1e-4, f"children per node bin: p = {p:.2e}"

    def test_budget_charged_before_the_children(self, cfg):
        """A first generation over budget raises before any per-child
        array exists: the peak stays below one int64 per would-be child."""
        pa, n = 0.5, 200_000
        det = dataclasses.replace(cfg.receiver.detector, afterpulse_total=pa)
        gates, offsets = self.candidates(det, n)
        limit = int(0.8 * pa * n)  # 40 sigma below the Poisson(pa * n) total
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                montecarlo._afterpulse_tree(gates, offsets, det, np.random.default_rng(0), PERIOD,
                                            self.N_GATES, montecarlo._EventBudget(limit))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * limit, peak


def _oracle_detector(gates, offsets, det, rng, period, n_gates):
    """Per-gate brute-force detector with the engine's semantics.

    Walks every gate in turn.  In a gate, the earliest charge (candidate or
    released afterpulse) at least the hold-off after the last click fires
    and the others merge into it.  Each click spawns Poisson(pa)
    afterpulses, released an exponential time after the hold-off, snapped
    to the nearest gate and placed uniformly in its window; one landing in
    the clicking gate merges.  Uses ``random.Random``, not numpy.
    """
    dead, pa, tau = det.dead_time_ps, det.afterpulse_total, det.afterpulse_decay_ps
    center, window = 0.5 * period, det.gate_window
    pending = collections.defaultdict(list)
    for g, o in zip(gates, offsets):
        pending[g].append(o)
    clicks = []
    last = -math.inf
    for g in range(n_gates):
        if g not in pending:
            continue
        times = [t for t in sorted(g * period + o for o in pending.pop(g)) if t - last >= dead]
        if not times:
            continue
        last = times[0]
        clicks.append(g)
        spawned, p = 0, rng.random()
        while p > math.exp(-pa):  # Poisson(pa) by multiplying uniforms
            spawned += 1
            p *= rng.random()
        for _ in range(spawned):
            ap_gate = round((last + dead + rng.expovariate(1.0 / tau) - center) / period)
            ap_off = center + (rng.random() - 0.5) * window
            if g < ap_gate < n_gates:
                pending[ap_gate].append(ap_off)
    return clicks


class TestSweepOracle:
    """The vectorized sweep against the per-gate brute force, in law."""

    N_GATES = 400
    TRIALS = 3000

    # The shipped detector, then release times of a few gates, where the
    # snap to a gate and the hold-off shape the afterpulse clicks most.
    @pytest.mark.parametrize(
        "pa,dead_ns,decay_ns", [(0.06, 7.7, 30.0), (0.3, 7.7, 3.0), (0.5, 2.0, 3.0), (0.3, 0.3, 1.0)]
    )
    def test_matches_brute_force(self, cfg, pa, dead_ns, decay_ns):
        det = dataclasses.replace(
            cfg.receiver.detector, afterpulse_total=pa, dead_time=dead_ns, afterpulse_decay=decay_ns
        )
        layout = np.random.default_rng(7)
        gates = np.sort(layout.integers(0, 300, 60))  # clusters and shared gates
        offsets = 0.5 * PERIOD + (layout.random(60) - 0.5) * det.gate_window
        oracle_rng, engine_rng = random.Random(11), np.random.default_rng(12)
        oracle_hist = np.zeros(self.N_GATES, dtype=np.int64)
        engine_hist = np.zeros(self.N_GATES, dtype=np.int64)
        oracle_n, engine_n = [], []
        for _ in range(self.TRIALS):
            clicks = _oracle_detector(gates.tolist(), offsets.tolist(), det, oracle_rng,
                                      PERIOD, self.N_GATES)
            oracle_hist[clicks] += 1
            oracle_n.append(len(clicks))
            clicks, _ = _sweep(det, gates, offsets, engine_rng, self.N_GATES)
            engine_hist[clicks] += 1
            engine_n.append(clicks.size)

        z = (np.mean(engine_n) - np.mean(oracle_n)) / math.sqrt(
            (np.var(engine_n, ddof=1) + np.var(oracle_n, ddof=1)) / self.TRIALS
        )
        assert abs(z) < 5.0, f"mean clicks {np.mean(engine_n):.3f} vs {np.mean(oracle_n):.3f}"

        # Two-sample chi-square over gates, sparse gates pooled into one bin.
        table = np.stack([engine_hist, oracle_hist])
        dense = table.sum(axis=0) >= 20
        table = np.column_stack([table[:, dense], table[:, ~dense].sum(axis=1)])
        _, p_value, dof, _ = chi2_contingency(table[:, table.sum(axis=0) > 0])
        assert p_value > 1e-4, f"per-gate clicks differ: p = {p_value:.2e} over {dof} dof"


def _walk_tree(gate, offset, parent, dead, period):
    """Scalar resolution of a time-ordered afterpulse tree, node by node."""
    fired, last = [], None
    for g, o, p in zip(gate.tolist(), offset.tolist(), parent.tolist()):
        t = g * period + o
        fires = (p < 0 or fired[p]) and (
            last is None or (g != last[0] and t - last[1] >= dead)
        )
        fired.append(fires)
        if fires:
            last = (g, t)
    return np.array(fired, dtype=bool)


def _parent_column(tree):
    """An afterpulse tree's nodes in draw order, with one parent column:
    -1 for a candidate, else the parent's draw-order index."""
    gate, off, parents = tree
    n_candidates = gate.size - sum(p.size for p in parents)
    return gate, off, np.concatenate([np.full(n_candidates, -1), *parents])


def test_vectorized_resolution_is_exact(cfg):
    """On the same pre-drawn trees, the sweep fires exactly the nodes a
    node-by-node walk of the three-key time order fires.  Spread and
    clustered candidates, and afterpulse probabilities up to 0.95, take
    every path of the sweep: children fired in numpy (free, with a parent
    fired so), children the loop fires, free children of blocked parents
    and grandchildren."""
    layout = np.random.default_rng(99)
    seen = collections.Counter()
    for trial in range(40):
        det = dataclasses.replace(
            cfg.receiver.detector,
            afterpulse_total=float(layout.uniform(0.0, 0.95)),
            dead_time=float(layout.choice([0.0, 0.3, 1.0, 2.0, 7.7, 20.0])),
        )
        dead = det.dead_time_ps
        n_gates = int(layout.integers(50, 600))
        k = int(layout.integers(0, 150))
        if trial % 2:  # bursts of candidates a few gates wide
            starts = layout.integers(0, n_gates - 8, 4)
            gates = starts[layout.integers(0, 4, k)] + layout.integers(0, 8, k)
        else:
            gates = layout.integers(0, n_gates, k)
        offsets = 0.5 * PERIOD + (layout.random(k) - 0.5) * det.gate_window
        offsets[: k // 10] = 0.5 * PERIOD  # exact ties inside shared gates

        budget = montecarlo._EventBudget(10**7)
        nodes = _parent_column(montecarlo._afterpulse_tree(
            gates, offsets, det, np.random.default_rng(trial), PERIOD, n_gates, budget
        ))
        assert np.all(nodes[2] < np.arange(nodes[2].size))
        gate, offset, parent = _lexsort_order(*nodes)
        fired = _walk_tree(gate, offset, parent, dead, PERIOD)

        clicks, click_offsets = _sweep(det, gates, offsets, np.random.default_rng(trial), n_gates)
        assert clicks.tolist() == gate[fired].tolist()
        assert click_offsets.tolist() == offset[fired].tolist()

        # Which path settles each child: numpy fires a free one (in a later
        # gate and at least the hold-off after the node before it) whose
        # parent numpy fired, and the loop settles the rest.
        d_gate = np.diff(gate)
        free = np.r_[True, (d_gate != 0) & (d_gate * PERIOD + np.diff(offset) >= dead)]
        in_numpy = []
        for node, p in enumerate(parent.tolist()):
            in_numpy.append(bool(free[node]) and (p < 0 or in_numpy[p]))
        in_numpy = np.array(in_numpy, dtype=bool)
        child = parent >= 0  # masks the candidates' parent index -1 below
        seen["child fired in numpy"] += np.sum(child & in_numpy)
        seen["child fired by the loop"] += np.sum(child & fired & ~in_numpy)
        seen["free child of a blocked parent"] += np.sum(child & free & ~fired[parent])
        seen["grandchild fired"] += np.sum(child & fired & (parent[parent] >= 0))
    assert len(seen) == 4 and min(seen.values()) > 0, seen


def _lexsort_order(gate, off, parent):
    """The three-key ``(gate, offset, parent >= 0)`` order, as the oracle
    of the one-key time sort."""
    order = np.lexsort((parent >= 0, off, gate))
    return _in_order(order, gate, off, parent)


def _in_order(order, gate, off, parent):
    """Nodes permuted by ``order``, ``parent`` re-indexed."""
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    parent = parent[order]
    return gate[order], off[order], np.where(parent >= 0, rank[parent], -1)


CENTER = 0.5 * PERIOD
HALF_WINDOW = 132.5
# In-window offsets: exact repeats, offsets one ulp apart (the same time
# once added to a gate's start) and any float in the window.
OFFSETS = st.one_of(
    st.sampled_from([CENTER, np.nextafter(CENTER, 0.0), np.nextafter(CENTER, PERIOD),
                     CENTER - HALF_WINDOW, CENTER + HALF_WINDOW]),
    st.floats(CENTER - HALF_WINDOW, CENTER + HALF_WINDOW),
)


@st.composite
def _node_arrays(draw):
    """Afterpulse-tree nodes as the draw leaves them: candidates in a few
    shared gates, then potential afterpulses, each after its parent and in
    a later gate."""
    n_candidates = draw(st.integers(0, 25))
    gate = draw(st.lists(st.integers(0, 6), min_size=n_candidates, max_size=n_candidates))
    off = draw(st.lists(OFFSETS, min_size=n_candidates, max_size=n_candidates))
    parent = [-1] * n_candidates
    for _ in range(draw(st.integers(0, 40)) if n_candidates else 0):
        p = draw(st.integers(0, len(gate) - 1))
        gate.append(gate[p] + draw(st.integers(1, 3)))
        off.append(draw(OFFSETS))
        parent.append(p)
    return (np.array(gate, dtype=np.int64), np.array(off, dtype=np.float64),
            np.array(parent, dtype=np.int64))


class TestTimeOrder:
    """The sweep's one-key time sort of the afterpulse tree gives the
    three-key order it replaced, ties and rounding ties included."""

    @staticmethod
    def assert_same(got, want):
        assert [column.tolist() for column in got] == [column.tolist() for column in want]

    @staticmethod
    def time_order(gate, off, parent):
        """The sweep's order, applied to the nodes, and its sorted columns."""
        order, sorted_gate, sorted_off, _ = montecarlo._time_order(
            gate, off, np.count_nonzero(parent < 0), PERIOD, 0.0)
        nodes = _in_order(order, gate, off, parent)
        assert [sorted_gate.tolist(), sorted_off.tolist()] == [nodes[0].tolist(), nodes[1].tolist()]
        return nodes

    # Two offsets one ulp apart, in node order against time order, that
    # round to the same time in gate 5.
    @example((np.array([5, 5]), np.array([np.nextafter(CENTER, PERIOD), CENTER]),
              np.array([-1, -1])))
    @settings(max_examples=50, deadline=None)
    @given(_node_arrays())
    def test_matches_the_three_key_order(self, nodes):
        self.assert_same(self.time_order(*nodes), _lexsort_order(*nodes))

    @settings(max_examples=60, deadline=None)
    @given(
        cands=st.lists(st.tuples(st.integers(0, 20), OFFSETS), max_size=40),
        pa=st.floats(0.5, 0.95),
        dead_ns=st.sampled_from([0.0, 0.3, 2.0, 7.7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_tree(self, cfg, cands, pa, dead_ns, seed):
        det = dataclasses.replace(cfg.receiver.detector, afterpulse_total=pa,
                                  dead_time=dead_ns, afterpulse_decay=3.0)
        gates = np.array([g for g, _ in cands], dtype=np.int64)
        offsets = np.array([o for _, o in cands], dtype=np.float64)
        nodes = _parent_column(montecarlo._afterpulse_tree(
            gates, offsets, det, np.random.default_rng(seed), PERIOD, 60,
            montecarlo._EventBudget(10**6)))
        assert nodes[0][: gates.size].tolist() == gates.tolist()
        tree = self.time_order(*nodes)
        self.assert_same(tree, _lexsort_order(*nodes))
        gate, _, parent = tree
        children = np.flatnonzero(parent >= 0)
        assert np.all(parent[children] < children)
        assert np.all(gate[parent[children]] < gate[children])

    # The one-ulp rounding tie, and an empty tree with a hold-off.
    @example((np.array([5, 5]), np.array([np.nextafter(CENTER, PERIOD), CENTER]),
              np.array([-1, -1])), 0.0)
    @example((np.array([], dtype=np.int64), np.array([]), np.array([], dtype=np.int64)), 300.0)
    @seed(37)
    @settings(max_examples=200, deadline=None)
    @given(_node_arrays(), st.one_of(
        st.sampled_from([0.0, 2 * HALF_WINDOW, 300.0, PERIOD, 7700.0]),
        st.floats(0.0, 3 * PERIOD)))
    def test_free_flags_match_the_per_pair_rule(self, nodes, dead):
        # Free: in a later gate than the node before and at least the
        # hold-off after it, for hold-offs inside and beyond a gate.
        gate, off, parent = nodes
        _, gate, off, free = montecarlo._time_order(
            gate, off, np.count_nonzero(parent < 0), PERIOD, dead)
        pairs = list(zip(gate.tolist(), off.tolist()))
        want = [d_gate != 0 and d_gate * PERIOD + d_off >= dead
                for d_gate, d_off in ((g1 - g0, o1 - o0)
                                      for (g0, o0), (g1, o1) in zip(pairs, pairs[1:]))]
        assert free.dtype == bool
        assert free.tolist() == [True] * min(1, gate.size) + want


class TestClockTranslation:
    """The detector rules read ``(gate, offset)`` pairs, never absolute ps:
    moving every candidate by G gates moves the tree and the clicks by G
    and changes nothing else, far beyond where ``gate * period`` loses
    its picoseconds."""

    @pytest.mark.parametrize("afterpulse_total", [None, 0.9])
    def test_same_clicks_at_every_clock(self, cfg, afterpulse_total):
        det = cfg.receiver.detector
        if afterpulse_total is not None:
            det = dataclasses.replace(det, afterpulse_total=afterpulse_total)
        layout = np.random.default_rng(26)
        n_gates = 100_000
        gates = np.sort(layout.integers(0, n_gates, 10_000))
        offsets = CENTER + (layout.random(gates.size) - 0.5) * det.gate_window
        offsets[::7] = CENTER  # exact ties inside shared gates

        def run(shift):
            tree = montecarlo._afterpulse_tree(
                gates + shift, offsets, det, np.random.default_rng(3), PERIOD, n_gates + shift,
                montecarlo._EventBudget(10**7))
            clicks = _sweep(det, gates + shift, offsets, np.random.default_rng(3), n_gates + shift)
            return [tree[0] - shift, tree[1], *tree[2], clicks[0] - shift, clicks[1]]

        want = [column.tolist() for column in run(0)]
        for shift in (2**40, 2**46, 2**50):
            assert [column.tolist() for column in run(shift)] == want, shift


def _intersect_squash(key, gates, offsets):
    """The set-based squash that the gate-sorted merge replaced, as its
    oracle: intersect the two sides' gates, delete the coin's loser from
    each side, then sort the survivors by gate."""
    (gates_a, gates_b), (ts_a, ts_b) = gates, offsets
    _, idx_a, idx_b = np.intersect1d(gates_a, gates_b, assume_unique=True, return_indices=True)
    keep_a_side = montecarlo._mix_bit(
        montecarlo._clock_mix(key, gates_a[idx_a]), montecarlo.SQUASH_A).view(bool)
    drop_a, drop_b = idx_a[~keep_a_side], idx_b[keep_a_side]
    gate_col = np.concatenate([np.delete(gates_a, drop_a), np.delete(gates_b, drop_b)])
    ts_col = np.concatenate([np.delete(ts_a, drop_a), np.delete(ts_b, drop_b)])
    det_col = np.repeat(np.array([montecarlo.DETECTOR_A, montecarlo.DETECTOR_B], dtype=np.uint8),
                        [gates_a.size - drop_a.size, gates_b.size - drop_b.size])
    order = np.argsort(gate_col, kind="stable")
    return det_col[order], gate_col[order], ts_col[order]


@st.composite
def _click_gates(draw):
    """Both detectors' sorted, unique click gates, sharing many gates,
    either side possibly empty, near clock 0 or the largest clocks."""
    base = draw(st.sampled_from([0, 2**40, 2**53 - 200]))
    small = st.sets(st.integers(0, 120), max_size=60)
    shared, only_a, only_b = draw(small), draw(small), draw(small)
    return [base + np.array(sorted(side), dtype=np.int64)
            for side in (shared | only_a, shared | only_b)]


class TestSquash:
    @example([np.array([], dtype=np.int64)] * 2, 0)
    @example([np.array([], dtype=np.int64), np.arange(5)], 1)
    @example([np.arange(5), np.array([], dtype=np.int64)], 2)
    @example([np.arange(64), np.arange(64)], 3)
    @seed(26)
    @settings(max_examples=300, deadline=None)
    @given(_click_gates(), st.integers(0, 2**64 - 1))
    def test_merge_matches_the_set_based_rule(self, gates, key):
        # Distinct offsets mark which side's tag survives.
        offsets = [np.arange(gates[0].size) + 0.25, -1.0 - np.arange(gates[1].size)]
        got = montecarlo._squash(key, gates, offsets)
        want = _intersect_squash(key, gates, offsets)
        assert [(c.dtype, c.tobytes()) for c in got] == [(c.dtype, c.tobytes()) for c in want]


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

    def test_nan_bin_rejected_inf_bin_is_single(self):
        stream = synthetic_stream([0, 1], [0, 0], [100.0, 900.0])
        with pytest.raises(ParameterError, match="bin_ps"):
            histogram(stream, math.nan)
        counts, edges = histogram(stream, math.inf)
        assert counts.tolist() == [2]
        assert edges.tolist() == [0.0, PERIOD]

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
        # Two tags in one clock span no clock cycle.
        assert mean_peak_spacing(synthetic_stream([3, 3], [0, 1], [1.0, 2.0])) is None

    @example([(0, 0.0), (0, -0.0), (1, PERIOD), (0, -PERIOD), (2, 3 * PERIOD)], 1.0)
    @example([(5, 0.5 * PERIOD), (5, -0.0), (3, PERIOD)], 2 * PERIOD)
    @seed(36)
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 40), st.one_of(
            st.sampled_from([0.0, -0.0, PERIOD]), st.floats(-2 * PERIOD, 3 * PERIOD))),
            max_size=30),
        st.sampled_from([1.0, 37.5, 2 * PERIOD]),
    )
    def test_figures_match_a_plain_fold(self, tags, bin_ps):
        """Repeating and decreasing clocks, stamps anywhere in [-2P, 3P]:
        each figure equals its plain expression over ``np.mod``."""
        clocks = np.array([c for c, _ in tags], dtype=np.uint64)
        stamps = np.array([t for _, t in tags], dtype=np.float64)
        stream = synthetic_stream(clocks, np.zeros(clocks.size), stamps)
        folded = np.mod(stamps, PERIOD)
        edges = (np.array([0.0, PERIOD]) if bin_ps >= PERIOD
                 else np.arange(0.0, PERIOD + bin_ps, bin_ps))
        want = np.histogram(folded, bins=edges)
        got = histogram(stream, bin_ps)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

        def hexed(value):
            return None if value is None else float.hex(value)

        span = None
        if folded.size:
            folded = np.sort(folded)
            span = float(max(np.diff(folded).max(), folded[0] + PERIOD - folded[-1])
                         if folded.size > 1 else PERIOD)
        assert hexed(largest_empty_span(stream)) == hexed(span)

        spacing = None
        steps = np.diff(clocks.astype(np.float64))
        valid = steps > 0
        if clocks.size > 1 and valid.any():
            times = clocks.astype(np.float64) * PERIOD + stamps
            spacing = float(np.mean(np.diff(times)[valid] / steps[valid]))
        assert hexed(mean_peak_spacing(stream)) == hexed(spacing)


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
        stream = synthetic_stream([0, 1], [0, 0], [10.0, stamp])
        for writer, path in ((write_binary_dump, tmp_path / "tags.bin"),
                             (write_csv_dump, tmp_path / "tags.csv")):
            with pytest.raises(ParameterError, match="2\\*\\*32"):
                writer(stream, path)
            assert not path.exists()

    def test_truncated_dump_rejected(self, tmp_path):
        stream = synthetic_stream([1], [0], [10.0])
        path = tmp_path / "cut.bin"
        write_binary_dump(stream, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated"):
            read_binary_dump(path)

    def test_csv_dump(self, tmp_path):
        # Timestamps are the binary dump's integer ps: 12.5 rounds half to even.
        stream = synthetic_stream([4, 5], [1, 0], [12.5, 13.25])
        path = tmp_path / "tags.csv"
        write_csv_dump(stream, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "clock_index,detector_id,timestamp_ps"
        assert lines[1] == "4,1,12"
        assert lines[2] == "5,0,13"

    def test_csv_dump_holds_the_binary_records(self, cfg, tmp_path):
        tags = simulate(cfg.at_length(5.6), 200_000, seed=5).tags
        binary, text = tmp_path / "tags.bin", tmp_path / "tags.csv"
        write_binary_dump(tags, binary)
        write_csv_dump(tags, text)
        header, *lines = text.read_text().splitlines()
        assert header == "clock_index,detector_id,timestamp_ps"
        rows = [tuple(int(field) for field in line.split(",")) for line in lines]
        assert len(rows) == len(tags) > 0
        assert rows == list(zip(*(column.tolist() for column in read_binary_dump(binary))))
