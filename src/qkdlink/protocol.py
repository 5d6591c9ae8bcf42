"""Four-state phase-encoding protocol logic.

Alice encodes a random bit in one of two conjugate phase bases; Bob's
interferometer routes each photon to one of two detectors according to the
phase difference (:func:`detector_a_probability`, which the event engine
calls for every detected photon).  Matched-basis detections form the sifted
key, from which the error rate is estimated and the distillable key length
computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import montecarlo  # imports this module: read only at call time
from .keyrate import key_yield
from .params import ParameterError, ProtocolConstants

__all__ = [
    "ProtocolError",
    "SiftedKey",
    "detector_a_probability",
    "sift",
    "secure_key_length",
    "write_sifted_key",
]

HALF_PI = 0.5 * math.pi


class ProtocolError(ValueError):
    """Raised for malformed protocol inputs (misaligned records, unknown clock indices)."""


def detector_a_probability(bit, basis, flip, bob_basis, visibility: float):
    """Probability that the interferometer routes each photon to detector A.

    Alice's modulator applies ``pi * bit + pi/2 * basis``, plus ``pi`` where
    the encoder mis-modulates (``flip``); Bob's applies ``pi/2 * bob_basis``.
    The photon exits towards A with probability
    ``(1 + visibility * cos(phase_a - phase_b)) / 2``: deterministically for
    matched phases at unit visibility, evenly for a quarter-wave mismatch.
    Inputs are equal-length arrays of 0/1 values (``flip`` may be boolean).
    """
    if not 0.0 <= visibility <= 1.0:
        raise ParameterError("visibility must lie in [0, 1]")
    phase_a = (
        math.pi * np.asarray(bit, dtype=np.float64)
        + HALF_PI * np.asarray(basis, dtype=np.float64)
        + math.pi * np.asarray(flip, dtype=np.float64)
    )
    phase_b = HALF_PI * np.asarray(bob_basis, dtype=np.float64)
    return 0.5 * (1.0 + visibility * np.cos(phase_a - phase_b))


@dataclass(frozen=True)
class SiftedKey:
    """Basis-matched bit pairs in clock order.

    The error rate is defined when the key is not empty: ``n_sifted > 0``.
    """

    clock_index: np.ndarray
    alice_bits: np.ndarray
    bob_bits: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.clock_index)
        if len(self.alice_bits) != n or len(self.bob_bits) != n:
            raise ProtocolError("sifted-key columns must have equal length")

    @property
    def n_sifted(self) -> int:
        return int(len(self.clock_index))

    @property
    def qber_estimate(self) -> float:
        """Mismatch fraction; NaN for an empty key (no detections to compare)."""
        if self.n_sifted == 0:
            return math.nan
        return float(np.count_nonzero(self.alice_bits != self.bob_bits)) / self.n_sifted


def sift(alice, tags, bob_bases) -> SiftedKey:
    """Keep detections whose preparation and analysis bases agree.

    Parameters
    ----------
    alice:
        Per-clock preparation record (see ``montecarlo.AliceLog``); entry
        ``i`` belongs to clock ``i``.
    tags:
        Detection record stream carrying ``clock_index`` and ``detector_id``
        columns.
    bob_bases:
        Bob's per-clock basis choices, an array aligned with ``alice``.

    The three per-clock columns are only read at the tagged clocks.  A run's
    lazy ``montecarlo.ClockBits`` columns (one key) are read with one clock
    mix per tagged clock: the bases at every tag, Alice's bit where they
    match.  Other columns, plain arrays too, are indexed with the clocks.
    Bob's bit is the identity of the detector that fired.  Bit values are never
    inspected here; only bases and detector identities decide what survives.
    """
    n_clocks = len(alice)
    if len(bob_bases) != n_clocks:
        raise ProtocolError("bob_bases must align with Alice's clock record")
    tag_clocks = np.asarray(tags.clock_index, dtype=np.uint64)
    unknown = tag_clocks >= n_clocks
    if np.any(unknown):
        raise ProtocolError(f"tag references unknown clock index {tag_clocks[unknown][0]}")
    positions = tag_clocks.astype(np.intp)
    mix = montecarlo._run_mix(positions, alice.bit, alice.basis, bob_bases)
    if mix is None:
        keep = np.flatnonzero(alice.basis[positions] == bob_bases[positions])
        alice_bits = alice.bit[positions[keep]]
    else:
        bit = montecarlo._mix_bit
        keep = np.flatnonzero(bit(mix, alice.basis.bit) == bit(mix, bob_bases.bit))
        alice_bits = bit(mix[keep], alice.bit.bit)
    return SiftedKey(
        clock_index=tag_clocks[keep],
        alice_bits=alice_bits.astype(np.uint8),
        bob_bits=np.asarray(tags.detector_id)[keep].astype(np.uint8),
    )


def secure_key_length(n_sifted: int, qber: float, consts: ProtocolConstants) -> int:
    """Distillable bits from ``n_sifted`` sifted bits at error rate ``qber``.

    The sifted count already reflects the basis-matching loss, so only the
    error-correction and privacy-amplification terms are applied here.
    """
    if n_sifted < 0:
        raise ParameterError("n_sifted must be non-negative")
    # Clamped before the floor: a large f_ec can drive the product to -inf.
    return math.floor(max(0.0, n_sifted * key_yield(qber, consts)))


def _int_rows(*columns) -> memoryview:
    """ASCII bytes of comma-separated lines of unsigned integers, one per row of ``columns``.

    A table holds each column's decimal digits right-aligned in the width of
    its largest value, then a comma (a newline after the last column).
    Dropping every row's leading zeros (all but the last digit of a 0) and
    reading the rest row-major gives the bytes of formatting each record on
    its own.  Single-digit columns have no leading zeros to drop.  Each digit,
    right to left, is ``rest - 10 * (rest // 10)``: NumPy divides by a
    constant fast but takes ``%`` the slow way.
    """
    columns = [np.asarray(column) for column in columns]
    tops = [int(column.max()) if column.size else 0 for column in columns]
    widths = [len(str(top)) for top in tops]
    rows = np.empty((columns[0].size, sum(widths) + len(widths)), dtype=np.uint8)
    keep = np.ones(rows.shape, dtype=bool)
    at = 0
    for column, top, width in zip(columns, tops, widths):
        # A digit is a leading zero once the quotient is 0.
        rest = column.astype(np.min_scalar_type(top))
        quotient = np.empty_like(rest)
        for k in range(at + width - 1, at, -1):
            np.floor_divide(rest, 10, out=quotient)
            np.not_equal(quotient, 0, out=keep[:, k - 1])
            rest -= quotient * 10
            rows[:, k] = rest
            rest, quotient = quotient, rest
        rows[:, at] = rest
        at += width + 1
    rows += ord("0")
    rows[:, np.cumsum(widths) + np.arange(len(widths))] = ord(",")
    rows[:, -1] = ord("\n")
    return rows[keep].data


def write_sifted_key(key: SiftedKey, path, consts: ProtocolConstants) -> None:
    """Write one ``clock_index,alice_bit,bob_bit`` record per line.

    A commented summary block (record count, error rate, distillable bits)
    follows the records so the file remains trivially machine-parsable.
    The records are formatted in one vectorised pass (:func:`_int_rows`),
    with the bytes of formatting each integer on its own; a bit other than
    0 or 1 raises :class:`ProtocolError` before anything is written.
    """
    alice = np.asarray(key.alice_bits, dtype=np.uint8)
    bob = np.asarray(key.bob_bits, dtype=np.uint8)
    if np.any(alice > 1) or np.any(bob > 1):
        raise ProtocolError("sifted-key bits must be 0 or 1")
    if key.n_sifted > 0:
        qber = key.qber_estimate
        secure_bits = secure_key_length(key.n_sifted, min(qber, 0.5), consts)
        qber_text = repr(qber)
    else:
        secure_bits = 0
        qber_text = "undefined"
    records = _int_rows(key.clock_index, alice, bob)
    summary = f"# n_sifted = {key.n_sifted}\n# qber = {qber_text}\n# secure_bits = {secure_bits}\n"
    with open(path, "wb") as handle:
        handle.writelines((records, summary.encode("ascii")))
