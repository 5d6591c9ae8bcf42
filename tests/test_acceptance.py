"""End-to-end acceptance checks for the calibrated link model.

One test per criterion; each prints a single summary line on success so a
verbose run reads as a checklist.  Tolerances are part of the contract and
must not be widened: a criterion the model genuinely cannot meet is marked
as a strict expected failure with the reason in its docstring, not relaxed.
"""

import dataclasses
import math

import numpy as np
import pytest

from qkdlink import keyrate, linkbudget, montecarlo, protocol, sweeps
from qkdlink.cli import main
from qkdlink.params import ProtocolConstants

# Every stream simulated in this module is collected here and swept by the
# criterion-8 invariant scan.
_STREAMS: list = []


def _run(config, n_pulses, seed, **kwargs):
    result = montecarlo.simulate(config, n_pulses, seed, **kwargs)
    _STREAMS.append((result, config))
    return result


def _with_detector(config, **changes):
    det = dataclasses.replace(config.receiver.detector, **changes)
    receiver = dataclasses.replace(config.receiver, detector=det)
    return dataclasses.replace(config, receiver=receiver)


def test_criterion_1_entropy_and_threshold():
    assert keyrate.binary_entropy(0.5) == 1.0
    assert keyrate.binary_entropy(0.0) == 0.0
    consts = ProtocolConstants(f_ec=1.10)
    threshold = keyrate.qber_threshold(consts)
    assert threshold == pytest.approx(0.1024, abs=0.001)
    print(f"criterion 1 PASS: H endpoints exact, threshold {threshold:.6f}")


def test_criterion_2_secure_rate_anchors_uncompensated(cfg):
    anchors = {5.6: 2.37e6, 25.3: 6.84e5, 65.5: 2.79e4}
    rates = {}
    for length, target in anchors.items():
        rate, _ = keyrate.evaluate_point(cfg.at_length(length, compensated=False))
        rates[length] = rate.secure_rate
        assert rate.secure_rate == pytest.approx(target, rel=0.15), (
            f"secure rate at {length} km: {rate.secure_rate:.4g} vs {target:.4g}"
        )
    print(
        "criterion 2 PASS (uncompensated): "
        + ", ".join(f"{l} km {r:.3e} Hz" for l, r in rates.items())
    )


@pytest.mark.xfail(
    strict=True,
    reason="one dark-count bias coupling cannot reproduce the compensated "
    "QBER pair and the compensated secure-rate pair simultaneously; the "
    "shipped calibration pins the error rates, which leaves these two "
    "secure rates several times above their anchors",
)
def test_criterion_2_secure_rate_anchors_compensated(cfg):
    anchors = {75.8: 19.0e3, 101.1: 2.88e3}
    for length, target in anchors.items():
        rate, _ = keyrate.evaluate_point(cfg.at_length(length, compensated=True))
        assert rate.secure_rate == pytest.approx(target, rel=0.20), (
            f"compensated secure rate at {length} km: "
            f"{rate.secure_rate:.4g} vs {target:.4g}"
        )
    print("criterion 2 PASS (compensated)")


def test_criterion_3_raw_rate_anchors_and_slope(cfg):
    near, _ = keyrate.evaluate_point(cfg.at_length(5.6, compensated=False))
    far, _ = keyrate.evaluate_point(cfg.at_length(65.5, compensated=False))
    assert near.raw_rate == pytest.approx(9.16e6, rel=0.10)
    assert far.raw_rate == pytest.approx(3.48e5, rel=0.10)

    lengths = [5.6, 25.3, 65.5]
    loss_db = []
    for length in lengths:
        rate, _ = keyrate.evaluate_point(cfg.at_length(length, compensated=False))
        loss_db.append(-10.0 * math.log10(rate.raw_rate))
    slope = float(np.polyfit(lengths, loss_db, 1)[0])
    assert slope == pytest.approx(0.24, abs=0.01)
    # Dispersion and gating push the effective slope above the bare fiber loss.
    assert slope > cfg.channel.attenuation
    print(
        f"criterion 3 PASS: raw {near.raw_rate:.3e}/{far.raw_rate:.3e} Hz, "
        f"slope {slope:.4f} dB/km"
    )


def test_criterion_4_qber_structure(cfg):
    comp_anchors = {75.8: 0.0630, 101.1: 0.0780}
    measured = {}
    for length, target in comp_anchors.items():
        _, breakdown = keyrate.evaluate_point(cfg.at_length(length, compensated=True))
        measured[length] = breakdown.total
        assert breakdown.total == pytest.approx(target, abs=0.01), (
            f"compensated QBER at {length} km"
        )

    plain, _ = keyrate.evaluate_point(cfg.at_length(75.8, compensated=False))
    assert plain.qber >= 0.15
    assert plain.secure_rate == 0.0

    _, far = keyrate.evaluate_point(cfg.at_length(65.5, compensated=False))
    assert far.e_interclock == pytest.approx(0.021, abs=0.003)
    print(
        f"criterion 4 PASS: comp QBER {measured[75.8]:.4f}/{measured[101.1]:.4f}, "
        f"uncomp 75.8 km QBER {plain.qber:.4f}, e_interclock(65.5) {far.e_interclock:.4f}"
    )


def test_criterion_5_bias_sweep_shape(cfg):
    table = sweeps.run_bias_sweep(cfg.at_length(5.6, compensated=False))
    etas = table.column("eta_bob")
    raw = table.column("raw_hz")
    qber = table.column("qber")
    secure = table.column("secure_hz")

    assert etas[0] == pytest.approx(0.02) and etas[-1] == pytest.approx(0.12)
    assert raw[0] == pytest.approx(3.1e6, rel=0.15)
    assert raw[-1] == pytest.approx(18.2e6, rel=0.15)
    assert qber.min() == pytest.approx(0.0155, abs=0.003)

    best = int(np.argmax(secure))
    assert 0.04 <= etas[best] <= 0.06
    ratio = secure[best] / secure[0]
    assert ratio == pytest.approx(2.0, abs=0.3)
    print(
        f"criterion 5 PASS: raw span {raw[0]:.3e}->{raw[-1]:.3e} Hz, "
        f"min QBER {qber.min():.4f}, optimum eta {etas[best]:.2f}, ratio {ratio:.2f}"
    )


def _analytic_tag_expectation(config, n_pulses):
    """Expected tag count and error rate for the event engine.

    The closed-form raw rate treats the afterpulse contribution only in the
    error budget; the engine also generates afterpulse *clicks*.  The extra
    click stream feeds back on itself (afterpulses trigger afterpulses and
    occupy hold-off), so the per-detector acceptance solves

        a = Q / (1 + Q * b),   Q = 1 - (1 - q) (1 - a * pa)

    with q the photon+dark click probability, pa the trapped charge per
    click, and b the effective hold-off expressed in gates.  The error rate
    mixes the primary-click error with the uninformative afterpulse stream:
    e = (1 - f) e_primary + f/2 where f = 1 - q/Q.
    """
    source, channel, receiver = config.source, config.channel, config.receiver
    clicks = linkbudget.click_probabilities(source, channel, receiver)
    blocked = linkbudget.effective_blocked_gates(source, channel, receiver)
    breakdown = linkbudget.qber_breakdown(source, channel, receiver)
    pa = receiver.detector.afterpulse_total

    q = 1.0 - math.sqrt(1.0 - clicks.p_total)
    a = q / (1.0 + q * blocked)
    for _ in range(200):
        big_q = 1.0 - (1.0 - q) * (1.0 - a * pa)
        a = big_q / (1.0 + big_q * blocked)
    big_q = 1.0 - (1.0 - q) * (1.0 - a * pa)

    p_tag = a + a - a * a  # either detector fires in a given gate
    f_after = 1.0 - q / big_q if big_q > 0 else 0.0
    e_primary = breakdown.total - breakdown.e_afterpulse
    e_mixed = (1.0 - f_after) * e_primary + 0.5 * f_after
    return n_pulses * p_tag, p_tag, e_mixed


@pytest.mark.parametrize("length", [5.6, 65.5])
def test_criterion_6_event_engine_matches_model(cfg, length):
    n = 10_000_000
    seed = 21
    for pa_on, n_sigma in ((False, 3.0), (True, 4.0)):
        config = cfg.at_length(length, compensated=False)
        if not pa_on:
            config = _with_detector(config, afterpulse_total=0.0)
        expected_tags, p_tag, e_expected = _analytic_tag_expectation(config, n)

        result = _run(config, n, seed)
        tags = len(result.tags)
        sigma_tags = math.sqrt(n * p_tag * (1.0 - p_tag))
        z_raw = (tags - expected_tags) / sigma_tags
        assert abs(z_raw) < n_sigma, (
            f"raw tags at {length} km (afterpulsing={pa_on}): {tags} vs "
            f"{expected_tags:.0f} ({z_raw:+.2f} sigma)"
        )

        key = protocol.sift(result.alice, result.tags, result.bob_bases)
        sigma_e = math.sqrt(e_expected * (1.0 - e_expected) / key.n_sifted)
        z_e = (key.qber_estimate - e_expected) / sigma_e
        assert abs(z_e) < n_sigma, (
            f"QBER at {length} km (afterpulsing={pa_on}): "
            f"{key.qber_estimate:.5f} vs {e_expected:.5f} ({z_e:+.2f} sigma)"
        )
        print(
            f"criterion 6 PASS at {length} km, afterpulsing={pa_on}: "
            f"raw z {z_raw:+.2f}, QBER z {z_e:+.2f}"
        )


def test_criterion_7_arrival_time_histogram(cfg):
    config = cfg.at_length(0.0)
    result = _run(config, 5_000_000, seed=7)
    tags = result.tags
    assert len(tags) > 10_000

    period = config.source.gate_period
    counts, edges = montecarlo.histogram(tags, 1.0)
    fwhm = montecarlo.fwhm_from_counts(counts, edges)
    span = montecarlo.largest_empty_span(tags)
    spacing = montecarlo.mean_peak_spacing(tags)

    assert fwhm == pytest.approx(60.0, abs=10.0)
    assert span >= 700.0
    assert spacing == pytest.approx(965.3, abs=1.0)
    print(
        f"criterion 7 PASS: FWHM {fwhm:.1f} ps, empty span {span:.1f} ps, "
        f"spacing {spacing:.3f} ps over {len(tags)} tags"
    )


def test_criterion_8_protocol_properties(cfg, scan_stream_invariants):
    # Sift fraction over more than a million detections.  Run at the
    # operating photon number: driving the source harder puts a detector in
    # hold-off so often that basis-matched gates (photons concentrated on
    # one, possibly dead, detector) tag measurably less often than
    # mismatched gates (photons split across both), biasing the fraction
    # below one half by more than the tolerance tested here.
    result = _run(cfg.at_length(0.0), 95_000_000, seed=42, segments=8)
    n_tags = len(result.tags)
    assert n_tags >= 1_000_000
    key = protocol.sift(result.alice, result.tags, result.bob_bases)
    frac = key.n_sifted / n_tags
    sigma = 0.5 / math.sqrt(n_tags)
    assert abs(frac - 0.5) < 3.0 * sigma

    # A noiseless pipeline never produces a single wrong sifted bit.
    clean = _with_detector(cfg.at_length(0.0), dark_prob=0.0, afterpulse_total=0.0)
    clean = dataclasses.replace(
        clean,
        receiver=dataclasses.replace(
            clean.receiver, visibility=1.0, mismodulation_error=0.0
        ),
    )
    result_clean = _run(clean, 1_000_000, seed=5)
    key_clean = protocol.sift(result_clean.alice, result_clean.tags, result_clean.bob_bases)
    assert key_clean.n_sifted > 1000
    assert key_clean.qber_estimate == 0.0

    # Interferometer contrast alone: QBER = (1 - V) / 2.
    dim = dataclasses.replace(
        clean.receiver, visibility=cfg.receiver.visibility, mismodulation_error=0.0
    )
    contrast_only = dataclasses.replace(clean, receiver=dim)
    result_v = _run(contrast_only, 2_000_000, seed=6)
    key_v = protocol.sift(result_v.alice, result_v.tags, result_v.bob_bases)
    e_target = 0.5 * (1.0 - cfg.receiver.visibility)
    sigma_v = math.sqrt(e_target * (1.0 - e_target) / key_v.n_sifted)
    assert key_v.qber_estimate == pytest.approx(e_target, abs=3.0 * sigma_v)

    # Exhaustive dead-time / gating scan over every stream this module made.
    assert len(_STREAMS) >= 3
    for run, config in _STREAMS:
        scan_stream_invariants(run, config)
    print(
        f"criterion 8 PASS: sift fraction {frac:.5f} over {n_tags} tags, "
        f"noiseless QBER 0, contrast-only QBER {key_v.qber_estimate:.5f}, "
        f"{len(_STREAMS)} streams scanned"
    )


def test_criterion_9_byte_determinism(cfg, tmp_path):
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep-distance", "--engine", "mc", "--pulses", "200000", "--seed", "3"]
    assert main(args + ["--out", str(csv_a)]) == 0
    assert main(args + ["--out", str(csv_b)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()

    dump_a, dump_b = tmp_path / "a.bin", tmp_path / "b.bin"
    sim = ["simulate", "--pulses", "300000", "--seed", "8"]
    assert main(sim + ["--out", str(dump_a)]) == 0
    assert main(sim + ["--out", str(dump_b)]) == 0
    assert dump_a.read_bytes() == dump_b.read_bytes()
    assert dump_a.stat().st_size > 0

    hist_a, hist_b = tmp_path / "h1.csv", tmp_path / "h2.csv"
    hist = ["histogram", "--length", "0", "--pulses", "100000", "--seed", "2"]
    assert main(hist + ["--out", str(hist_a)]) == 0
    assert main(hist + ["--out", str(hist_b)]) == 0
    assert hist_a.read_bytes() == hist_b.read_bytes()
    print("criterion 9 PASS: CSV, event dump and histogram bytes reproducible")
