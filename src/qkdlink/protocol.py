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

from .keyrate import binary_entropy
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
    """Basis-matched bit pairs in clock order."""

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

    @property
    def qber_defined(self) -> bool:
        return self.n_sifted > 0


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
        Bob's per-clock basis choices, aligned with ``alice``.

    Bob's bit is the identity of the detector that fired.  Bit values are
    never inspected here; only bases and detector identities decide what
    survives.
    """
    bob_bases = np.asarray(bob_bases)
    n_clocks = len(alice)
    if len(bob_bases) != n_clocks:
        raise ProtocolError("bob_bases must align with Alice's clock record")
    tag_clocks = np.asarray(tags.clock_index, dtype=np.uint64)
    unknown = tag_clocks >= n_clocks
    if np.any(unknown):
        raise ProtocolError(f"tag references unknown clock index {tag_clocks[unknown][0]}")
    positions = tag_clocks.astype(np.intp)
    matched = alice.basis[positions] == bob_bases[positions]
    keep = np.flatnonzero(matched)
    return SiftedKey(
        clock_index=tag_clocks[keep],
        alice_bits=np.asarray(alice.bit)[positions[keep]].astype(np.uint8),
        bob_bits=np.asarray(tags.detector_id)[keep].astype(np.uint8),
    )


def secure_key_length(n_sifted: int, qber: float, consts: ProtocolConstants) -> int:
    """Distillable bits from ``n_sifted`` sifted bits at error rate ``qber``.

    The sifted count already reflects the basis-matching loss, so only the
    error-correction and privacy-amplification terms are applied here.
    """
    if n_sifted < 0:
        raise ParameterError("n_sifted must be non-negative")
    if not 0.0 <= qber <= 0.5:
        raise ParameterError(f"qber must lie in [0, 0.5], got {qber}")
    yield_fraction = 1.0 - (1.0 + consts.f_ec) * binary_entropy(qber)
    return max(0, math.floor(n_sifted * yield_fraction))


def write_sifted_key(key: SiftedKey, path, consts: ProtocolConstants) -> None:
    """Write one ``clock_index,alice_bit,bob_bit`` record per line.

    A commented summary block (record count, error rate, distillable bits)
    follows the records so the file remains trivially machine-parsable.
    """
    lines = [
        f"{c},{a},{b}"
        for c, a, b in zip(
            np.asarray(key.clock_index, dtype=np.uint64).tolist(),
            np.asarray(key.alice_bits, dtype=np.uint8).tolist(),
            np.asarray(key.bob_bits, dtype=np.uint8).tolist(),
        )
    ]
    if key.qber_defined:
        qber = key.qber_estimate
        secure_bits = secure_key_length(key.n_sifted, min(qber, 0.5), consts)
        qber_text = repr(qber)
    else:
        secure_bits = 0
        qber_text = "undefined"
    lines.append(f"# n_sifted = {key.n_sifted}")
    lines.append(f"# qber = {qber_text}")
    lines.append(f"# secure_bits = {secure_bits}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")
