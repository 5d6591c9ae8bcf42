"""Tests for interferometer routing, sifting, and key accounting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from qkdlink import montecarlo, protocol
from qkdlink.montecarlo import TimeTagStream, simulate
from qkdlink.params import ParameterError, ProtocolConstants
from qkdlink.protocol import (
    ProtocolError,
    SiftedKey,
    detector_a_probability,
    secure_key_length,
    sift,
    write_sifted_key,
)

CONSTS = ProtocolConstants(f_ec=1.10)


def route(bit, basis, bob_basis, visibility=1.0, flip=0):
    """Routing probabilities for broadcast 0/1 inputs, as an array."""
    bit, basis, bob_basis, flip = np.broadcast_arrays(bit, basis, bob_basis, flip)
    return detector_a_probability(bit, basis, flip, bob_basis, visibility)


class TestEncoding:
    def test_phase_table(self):
        # Alice's phases 0, pi, pi/2, 3pi/2 for (bit, basis) = (0,0), (1,0),
        # (0,1), (1,1), read off against Bob's two analysis phases 0, pi/2.
        bits, bases = [0, 1, 0, 1], [0, 0, 1, 1]
        assert route(bits, bases, 0) == pytest.approx([1.0, 0.0, 0.5, 0.5], abs=1e-15)
        assert route(bits, bases, 1) == pytest.approx([0.5, 0.5, 1.0, 0.0], abs=1e-15)

    def test_mismodulation_flips_the_bit(self):
        assert route([0, 1], [0, 1], [0, 1], flip=True) == pytest.approx(
            route([1, 0], [0, 1], [0, 1]), abs=1e-15
        )


class TestDecoding:
    def test_matched_phase_routes_deterministically(self):
        assert route([0, 1], 0, 0).tolist() == pytest.approx([1.0, 0.0], abs=1e-15)
        assert route(0, 0, 0)[()] == 1.0

    def test_conjugate_basis_splits_evenly(self):
        # Quarter-wave offset between preparation and analysis: coin flip.
        assert route([0, 1], 1, 0) == pytest.approx([0.5, 0.5], abs=1e-15)
        assert route([0, 1], 0, 1, 0.877) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_finite_visibility_floor(self):
        v = 0.994
        assert route([0, 1], 0, 0, v) == pytest.approx([0.5 * (1 + v), 0.5 * (1 - v)])

    def test_rejects_bad_visibility(self):
        with pytest.raises(ParameterError):
            route(0, 0, 0, 1.2)

    @given(st.data())
    def test_always_a_probability(self, data):
        n = data.draw(st.integers(min_value=0, max_value=16))
        binary = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        p = route(
            data.draw(binary), data.draw(binary), data.draw(binary),
            data.draw(st.floats(min_value=0.0, max_value=1.0)),
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        )
        assert p.shape == (n,)
        assert np.all((0.0 <= p) & (p <= 1.0))


@dataclasses.dataclass(frozen=True)
class ArrayRecord:
    """A clock record held as three plain per-clock arrays, read through the
    engine record's ``len`` and ``at``."""

    bit: np.ndarray
    basis: np.ndarray
    bob_basis: np.ndarray

    def __len__(self):
        return len(self.bit)

    def at(self, clocks):
        clocks = np.asarray(clocks).astype(np.intp)
        return self.bit[clocks], self.basis[clocks], self.bob_basis[clocks]


def make_record(bits, bases, bob_bases):
    return ArrayRecord(*(np.asarray(column, dtype=np.uint8)
                         for column in (bits, bases, bob_bases)))


def make_tags(clocks, detectors):
    return TimeTagStream(
        detector_id=np.asarray(detectors, dtype=np.uint8),
        clock_index=np.asarray(clocks, dtype=np.uint64),
        timestamp=np.full(len(clocks), 482.6, dtype=np.float64),
    )


class TestSift:
    def test_handcrafted_example(self):
        record = make_record([0, 1, 0, 1, 1], [0, 0, 1, 1, 0], [0, 1, 1, 0, 0])
        tags = make_tags([0, 1, 2, 4], [0, 1, 1, 1])
        key = sift(record, tags)
        # Bases agree on clocks 0, 2 and 4; clock 1 was measured in the
        # wrong basis and clock 3 produced no click at all.
        assert key.clock_index.tolist() == [0, 2, 4]
        assert key.alice_bits.tolist() == [0, 0, 1]
        assert key.bob_bits.tolist() == [0, 1, 1]
        assert key.n_sifted == 3
        assert key.qber_estimate == pytest.approx(1.0 / 3.0)

    def test_no_matches_yields_empty_key(self):
        record = make_record([0, 1], [0, 0], [1, 1])
        key = sift(record, make_tags([0, 1], [0, 1]))
        assert key.n_sifted == 0
        assert math.isnan(key.qber_estimate)

    def test_unknown_clock_index_rejected(self):
        record = make_record([0, 1, 0], [0, 0, 0], [0, 0, 0])
        # Clock 3 is the first one past the three-clock record.
        with pytest.raises(ProtocolError, match="unknown clock index 3"):
            sift(record, make_tags([0, 3], [0, 0]))
        with pytest.raises(ProtocolError, match="unknown clock index 9"):
            sift(record, make_tags([9], [0]))

    @settings(max_examples=60)
    @given(st.data())
    def test_matches_reference_loop(self, data):
        """Vectorized sifting agrees with an index-by-index reference."""
        n = data.draw(st.integers(min_value=1, max_value=40))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        bases = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        bob = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        clicked = sorted(
            data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        )
        dets = data.draw(
            st.lists(st.integers(0, 1), min_size=len(clicked), max_size=len(clicked))
        )
        key = sift(make_record(bits, bases, bob), make_tags(clicked, dets))

        expect = [
            (c, bits[c], d)
            for c, d in zip(clicked, dets)
            if bases[c] == bob[c]
        ]
        assert key.clock_index.tolist() == [c for c, _, _ in expect]
        assert key.alice_bits.tolist() == [a for _, a, _ in expect]
        # Bob's bit is the detector identity, untouched by sifting.
        assert key.bob_bits.tolist() == [d for _, _, d in expect]


class TestSiftOneMix:
    """A run's clock record is read with one clock mix."""

    def test_one_mix_over_the_tagged_clocks(self, cfg, monkeypatch):
        result = simulate(cfg, 200_000, seed=5)
        calls = []
        mix = montecarlo._clock_mix
        monkeypatch.setattr(montecarlo, "_clock_mix",
                            lambda key, clocks: calls.append(len(clocks)) or mix(key, clocks))
        key = sift(result.record, result.tags)
        assert 0 < key.n_sifted < len(result.tags)
        assert calls == [len(result.tags)]

    @seed(37)
    @settings(max_examples=40, deadline=None)
    @given(
        n_pulses=st.integers(1, 20_000),
        run_seed=st.integers(0, 2**32 - 1),
        length=st.sampled_from([0.0, 5.6, 25.3]),
    )
    def test_engine_columns_match_plain_arrays(self, cfg, n_pulses, run_seed, length):
        result = simulate(cfg.at_length(length), n_pulses, run_seed)
        z = montecarlo._clock_mix(result.record.key, np.arange(n_pulses))
        plain = ArrayRecord(*(montecarlo._mix_bit(z, bit) for bit in (
            montecarlo.ALICE_BIT, montecarlo.ALICE_BASIS, montecarlo.BOB_BASIS)))
        got, want = sift(result.record, result.tags), sift(plain, result.tags)
        for field in ("clock_index", "alice_bits", "bob_bits"):
            got_column, want_column = getattr(got, field), getattr(want, field)
            assert (got_column.dtype, got_column.tolist()) == (want_column.dtype,
                                                               want_column.tolist()), field


class TestKeyAccounting:
    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            SiftedKey(
                clock_index=np.array([0, 1], dtype=np.uint64),
                alice_bits=np.array([0], dtype=np.uint8),
                bob_bits=np.array([0, 1], dtype=np.uint8),
            )

    def test_secure_key_length_reference(self):
        # floor(1e6 * (1 - 2.1 * H(0.0373)))
        assert secure_key_length(1_000_000, 0.0373, CONSTS) == 517477

    def test_secure_key_length_clamps_at_zero(self):
        assert secure_key_length(1000, 0.2, CONSTS) == 0
        assert secure_key_length(0, 0.01, CONSTS) == 0
        # The largest f_ec the config accepts drives the product to -inf.
        assert secure_key_length(1000, 0.01, ProtocolConstants(f_ec=1.7976931348623157e308)) == 0

    def test_secure_key_length_validation(self):
        with pytest.raises(ParameterError):
            secure_key_length(-1, 0.01, CONSTS)
        with pytest.raises(ParameterError):
            secure_key_length(10, 0.6, CONSTS)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_never_exceeds_input_length(self, n):
        assert 0 <= secure_key_length(n, 0.01, CONSTS) <= n


class TestSiftedKeyFile:
    def test_round_trip_contents(self, tmp_path):
        key = SiftedKey(
            clock_index=np.array([3, 7, 9], dtype=np.uint64),
            alice_bits=np.array([0, 1, 1], dtype=np.uint8),
            bob_bits=np.array([0, 0, 1], dtype=np.uint8),
        )
        path = tmp_path / "key.txt"
        write_sifted_key(key, path, CONSTS)
        lines = path.read_text().splitlines()
        assert lines[:3] == ["3,0,0", "7,1,0", "9,1,1"]
        assert lines[3] == "# n_sifted = 3"
        assert lines[4].startswith("# qber = 0.333333")
        assert lines[5] == f"# secure_bits = {secure_key_length(3, 1/3, CONSTS)}"

    def test_empty_key_file(self, tmp_path):
        key = SiftedKey(
            clock_index=np.array([], dtype=np.uint64),
            alice_bits=np.array([], dtype=np.uint8),
            bob_bits=np.array([], dtype=np.uint8),
        )
        path = tmp_path / "empty.txt"
        write_sifted_key(key, path, CONSTS)
        lines = path.read_text().splitlines()
        assert lines == [
            "# n_sifted = 0",
            "# qber = undefined",
            "# secure_bits = 0",
        ]

    @pytest.mark.parametrize(
        "clocks,alice,bob,expected",
        [
            ([], [], [], b"# n_sifted = 0\n# qber = undefined\n# secure_bits = 0\n"),
            (
                [0, 9, 10, 2**63 + 5],
                [0, 0, 1, 1],
                [0, 1, 0, 1],
                b"0,0,0\n9,0,1\n10,1,0\n9223372036854775813,1,1\n"
                b"# n_sifted = 4\n# qber = 0.5\n# secure_bits = 0\n",
            ),
        ],
    )
    def test_golden_bytes(self, tmp_path, clocks, alice, bob, expected):
        key = SiftedKey(
            clock_index=np.array(clocks, dtype=np.uint64),
            alice_bits=np.array(alice, dtype=np.uint8),
            bob_bits=np.array(bob, dtype=np.uint8),
        )
        path = tmp_path / "key.txt"
        write_sifted_key(key, path, CONSTS)
        assert path.read_bytes() == expected

    @given(st.lists(st.sampled_from([0, 9, 999, 2**64 - 1]), min_size=1, max_size=4).flatmap(
        lambda tops: st.lists(st.tuples(*(st.integers(0, top) for top in tops)), max_size=30)
        .map(lambda records: (len(tops), records))
    ))
    def test_records_match_per_record_formatting(self, table):
        # Columns of mixed width: all 0, single digits, up to 3 digits, up to
        # 2**64 - 1; the record list may be empty.
        n_columns, records = table
        columns = np.array(records, dtype=np.uint64).reshape(-1, n_columns)
        text = str(protocol._int_rows(*columns.T), "ascii")
        assert text == "".join(",".join(f"{value}" for value in record) + "\n"
                               for record in records)

    # 256, 0.5 and 257 would read as bits 0, 0 and 1 after a uint8 cast.
    @pytest.mark.parametrize("alice,bob", [
        (np.array([2], dtype=np.uint8), [0]),
        ([256], [0]),
        ([0.5], [0]),
        ([0], [257]),
    ])
    def test_non_bit_rejected_before_writing(self, tmp_path, alice, bob):
        key = SiftedKey(
            clock_index=np.array([1], dtype=np.uint64),
            alice_bits=np.asarray(alice),
            bob_bits=np.asarray(bob),
        )
        path = tmp_path / "key.txt"
        with pytest.raises(ProtocolError, match="0 or 1"):
            write_sifted_key(key, path, CONSTS)
        assert not path.exists()
