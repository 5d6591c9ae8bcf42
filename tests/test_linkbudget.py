import importlib
import math
import pkgutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, seed, settings, strategies as st

import qkdlink
from qkdlink import keyrate, linkbudget
from qkdlink.linkbudget import (
    ClickProbabilities,
    click_probabilities,
    effective_blocked_gates,
    link_timing,
    qber_breakdown,
    raw_rate,
    temporal_components,
    transmittance,
)
from qkdlink.params import ParameterError


class TestTransmittance:
    def test_closed_form(self):
        # 0.195 dB/km over 5.6 km -> 10**(-0.1092)
        assert transmittance(5.6, 0.195) == pytest.approx(10 ** (-0.195 * 5.6 / 10))
        assert transmittance(5.6, 0.195) == pytest.approx(0.777678, rel=1e-5)
        assert transmittance(65.5, 0.195) == pytest.approx(0.0528141, rel=1e-5)

    def test_zero_length_is_lossless(self):
        assert transmittance(0.0, 0.195) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ParameterError, match="length"):
            transmittance(-1.0, 0.195)
        with pytest.raises(ParameterError, match="attenuation"):
            transmittance(5.6, -0.195)

    @given(st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=100.0))
    def test_multiplicative_over_spliced_spans(self, l1, l2):
        a = 0.195
        combined = transmittance(l1 + l2, a)
        product = transmittance(l1, a) * transmittance(l2, a)
        assert combined == pytest.approx(product, rel=1e-9)


def unjittered(receiver):
    """``receiver`` with a jitter-free detector."""
    return replace(receiver, detector=replace(receiver.detector, jitter_fwhm=0.0))


def gaussian_pulse(cfg, sigma):
    """Single centered Gaussian of RMS width ``sigma`` ps at the receiver.

    Zero dispersion and no side mode leave the launch width unbroadened, so
    :func:`link_timing` sees exactly this pulse (plus detector jitter).
    """
    source = replace(cfg.source, pulse_sigma0=sigma, side_mode_weight=0.0)
    channel = replace(cfg.channel, dispersion=0.0, compensated=False)
    assert temporal_components(source, channel, unjittered(cfg.receiver)) == ((1.0, 0.0, sigma),)
    return source, channel


class TestPulseWidth:
    """Optical line widths, seen through a jitter-free receiver."""

    def test_dispersion_adds_in_quadrature(self, cfg):
        source = replace(cfg.source, side_mode_weight=0.0)
        channel = cfg.channel.__class__(length=40.0, attenuation=0.195, dispersion=17.0)
        expected = math.hypot(source.pulse_sigma0,
                              17.0 * 40.0 * source.spectral_width)
        ((weight, mean, sigma),) = temporal_components(source, channel, unjittered(cfg.receiver))
        assert (weight, mean) == (1.0, 0.0)
        assert sigma == pytest.approx(expected)

    def test_compensated_restores_intrinsic_width(self, cfg):
        channel = replace(cfg.channel, length=101.1, compensated=True)
        ((_, _, sigma),) = temporal_components(cfg.source, channel, unjittered(cfg.receiver))
        assert sigma == cfg.source.pulse_sigma0

    def test_compensated_profile_is_single_component(self, cfg):
        channel = replace(cfg.channel, length=75.8, compensated=True)
        comps = temporal_components(cfg.source, channel, unjittered(cfg.receiver))
        assert comps == ((1.0, 0.0, cfg.source.pulse_sigma0),)

    def test_side_mode_walks_off_with_length(self, cfg):
        comps = temporal_components(cfg.source, replace(cfg.channel, length=65.5),
                                    unjittered(cfg.receiver))
        assert len(comps) == 2
        (w_main, m_main, _), (w_side, m_side, s_side) = comps
        assert w_main + w_side == pytest.approx(1.0)
        assert m_main == 0.0
        assert m_side == pytest.approx(17.0 * 65.5 * cfg.source.side_mode_offset)
        assert s_side == cfg.source.pulse_sigma0

    @pytest.mark.parametrize("length, compensated", [(0.0, False), (40.0, False),
                                                     (65.5, False), (75.8, True)])
    def test_jitter_convolves_every_line(self, cfg, length, compensated):
        # The detected profile is the optical one with each line's width
        # taken in quadrature with the jitter; weights and means stay.
        channel = replace(cfg.channel, length=length, compensated=compensated)
        optical = temporal_components(cfg.source, channel, unjittered(cfg.receiver))
        jitter = cfg.receiver.detector.jitter_sigma
        assert jitter > 0.0
        assert temporal_components(cfg.source, channel, cfg.receiver) == tuple(
            (weight, mean, math.hypot(sigma, jitter)) for weight, mean, sigma in optical)


class TestGateAcceptance:
    """Window acceptance and neighbor-gate leakage of a single Gaussian."""

    def timing(self, cfg, sigma, receiver=None):
        source, channel = gaussian_pulse(cfg, sigma)
        return link_timing(source, channel, receiver or cfg.receiver)

    def test_narrow_pulse_fully_accepted(self, cfg):
        det = replace(cfg.receiver.detector, jitter_fwhm=0.0)
        receiver = replace(cfg.receiver, detector=det)
        acceptance, _ = self.timing(cfg, 1e-6, receiver)
        assert acceptance == pytest.approx(1.0, abs=1e-12)

    def test_very_broad_pulse_approaches_window_duty_cycle(self, cfg):
        duty = cfg.receiver.detector.gate_window / cfg.source.gate_period
        acceptance, _ = self.timing(cfg, 5e5)
        assert acceptance == pytest.approx(duty, rel=1e-3)

    def test_monotone_decreasing_in_width(self, cfg):
        widths = [1.0, 10.0, 50.0, 100.0, 300.0, 1000.0]
        values = [self.timing(cfg, w)[0] for w in widths]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_interclock_error_negligible_for_narrow_pulse(self, cfg):
        _, e_interclock = self.timing(cfg, 5.0)
        assert e_interclock < 1e-12

    def test_interclock_error_grows_and_saturates_below_half(self, cfg):
        _, wide = self.timing(cfg, 800.0)
        assert self.timing(cfg, 200.0)[1] < wide <= 0.5


class TestLinkTiming:
    def test_compensated_has_no_interclock_error(self, cfg):
        channel = replace(cfg.channel, length=101.1, compensated=True)
        acceptance, errors = link_timing(cfg.source, channel, cfg.receiver)
        assert errors == 0.0
        assert 0.9 < acceptance <= 1.0

    def test_acceptance_shrinks_with_length(self, cfg):
        short, _ = link_timing(cfg.source, replace(cfg.channel, length=5.6), cfg.receiver)
        long, _ = link_timing(cfg.source, replace(cfg.channel, length=75.8), cfg.receiver)
        assert long < short

    @pytest.mark.parametrize("length", [1e7, 1e300, 1e308])
    def test_profile_over_too_many_periods_is_rejected(self, cfg, length):
        # Window by window, 1e7 km took seconds, 1e300 km never returned and
        # 1e308 km overflowed the walk-off to inf.
        with pytest.raises(ParameterError, match="gate periods"):
            link_timing(cfg.source, replace(cfg.channel, length=length), cfg.receiver)

    def test_longest_accepted_profile(self, cfg):
        # The window cap leaves about 2e5 km of the shipped fiber.
        _, leak = link_timing(cfg.source, replace(cfg.channel, length=2e5), cfg.receiver)
        assert 0.0 < leak < 0.5


class TestClickProbabilities:
    def test_composition(self, cfg):
        clicks = click_probabilities(cfg.source, cfg.channel, cfg.receiver)
        dark = cfg.receiver.detector.dark_prob
        p_dark = 1.0 - (1.0 - dark) ** 2
        assert clicks.p_dark == pytest.approx(p_dark, rel=1e-12)
        combined = 1.0 - (1.0 - clicks.p_signal) * (1.0 - clicks.p_dark)
        assert clicks.p_total == pytest.approx(combined, rel=1e-12)

    def test_dark_only_when_source_off(self, cfg):
        dim = replace(cfg, source=replace(cfg.source, mu=0.0))
        clicks = click_probabilities(dim.source, dim.channel, dim.receiver)
        assert clicks.p_signal == 0.0
        assert clicks.p_total == pytest.approx(clicks.p_dark)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ClickProbabilities(p_signal=-0.1, p_dark=0.0)


class TestDeadTimeBlocking:
    def test_nominal_count_from_geometry(self, cfg):
        # 7.7 ns hold-off spans 7 full gates beyond the window plus one
        # partially covered boundary gate.
        det = cfg.receiver.detector
        k_always, _, _, lookups, _ = linkbudget._holdoff(det.gate_window, cfg.source.gate_period,
                                                         det.dead_time_ps)
        # The partial gates follow the always-blocked ones, one table each.
        partial = list(range(k_always + 1, k_always + 1 + len(lookups)))
        assert (k_always, partial) == (7, [8])

    def test_holdoff_key_holds_each_input(self, cfg):
        def as_lists(holdoff):
            k_always, grid, du, lookups, spacings = holdoff
            partial = range(k_always + 1, k_always + 1 + len(lookups))
            return [k_always, grid.tolist(), du,
                    [(k, index.tolist()) for k, index in zip(partial, lookups)],
                    spacings.tolist()]

        det = cfg.receiver.detector
        window, period, dead = det.gate_window, cfg.source.gate_period, det.dead_time_ps
        keys = [(window, period, dead), (200.0, period, dead), (window, 800.0, dead),
                (window, period, 7500.0)]
        for order in (keys, keys[::-1]):
            linkbudget._holdoff.cache_clear()
            for key in order:
                assert as_lists(linkbudget._holdoff(*key)) == as_lists(
                    linkbudget._holdoff.__wrapped__(*key)), key

    def test_effective_count_brackets(self, cfg):
        blocked = effective_blocked_gates(cfg.source, cfg.channel, cfg.receiver)
        assert 7.0 <= blocked <= 8.0

    def test_zero_dead_time_blocks_nothing(self, cfg):
        det = replace(cfg.receiver.detector, dead_time=0.0)
        receiver = replace(cfg.receiver, detector=det)
        assert effective_blocked_gates(cfg.source, cfg.channel, receiver) == 0.0


def _reference_blocked_gates(components, window, period, dead, p_signal, p_dark):
    """The blocked-gate kernel written with one temporary per step and
    ``np.trapezoid``: the oracle :func:`linkbudget._blocked_gates` must match
    to the bit."""
    k_always, grid, du, lookups, _ = linkbudget._holdoff(window, period, dead)
    density = np.zeros_like(grid)
    for weight, mean, sigma in components:
        for k, _ in linkbudget._window_masses(mean, sigma, period, window):
            center = k * period
            density += (
                weight
                * p_signal
                * np.exp(-0.5 * ((grid + center - mean) / sigma) ** 2)
                / (sigma * math.sqrt(2.0 * math.pi))
            )
    density += p_dark / window

    total = np.trapezoid(density, grid)
    if total <= 0.0:
        return float(k_always) + 0.5 * len(lookups)
    density = density / total
    weights = density * du
    cdf = np.concatenate(([0.0], np.cumsum(weights)))

    blocked = float(k_always)
    for index in lookups:
        blocked += float(np.sum(weights * (1.0 - cdf[index])))
    return blocked


@st.composite
def _holdoff_cases(draw):
    """``(_blocked_gates arguments, partial gates)``: one or two lines, or a
    compensated link's one, each over 1-5 windows (or none, when a narrow line
    falls between two), and a dead time that leaves 0, 1 or 2 partially
    blocked gates after ``always`` blocked ones."""
    period = draw(st.floats(500.0, 2000.0))
    partial = draw(st.sampled_from((0, 1, 2)))
    always = draw(st.integers(0, 8))
    # Gate k is partial when (dead - window) / period < k < (dead + window) / period.
    if partial == 2:  # only a window over half a period spans two
        window = period * draw(st.floats(0.55, 0.95))
        low, high = (always + 2) * period - window, (always + 1) * period + window
    else:
        window = period * draw(st.floats(0.1, 0.45))
        low, high = (always + 1) * period - window, (always + 1) * period + window
        if partial == 0:
            low, high = 0.0, period - window
    dead = low + draw(st.floats(0.05, 0.95)) * (high - low)

    # A line reaches 8 sigma beyond each window edge, so sigma = s * period / 16
    # covers about s + window / period windows.
    def line():
        sigma = period / 16.0 * draw(st.floats(0.01, 3.5))
        return draw(st.floats(-2.0, 2.0)) * period, sigma

    shape = draw(st.sampled_from(("compensated", "one line", "two lines")))
    if shape == "compensated":
        sigma0, jitter = (period / 16.0 * draw(st.floats(0.01, 2.0)) for _ in range(2))
        components = linkbudget._components(sigma0, 0.1, 0.1, 0.7, 17.0, 50.0, True, jitter)
    elif shape == "one line":
        components = ((1.0, *line()),)
    else:
        side = draw(st.floats(1e-6, 0.5))
        components = ((1.0 - side, *line()), (side, *line()))
    clicks = draw(st.one_of(st.just((0.0, 0.0)),
                            st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 1e-3))))
    for _, mean, sigma in components:
        event(f"{len(linkbudget._window_masses(mean, sigma, period, window))} windows")
    event(f"{shape}, {partial} partial gates")
    return (components, window, period, dead, *clicks), partial


class TestBlockedGatesKernel:
    @seed(2049)
    @settings(max_examples=400, deadline=None)
    @given(_holdoff_cases())
    def test_bit_identical_to_the_reference(self, case):
        args, partial = case
        _, window, period, dead, _, _ = args
        assert len(linkbudget._holdoff(window, period, dead)[3]) == partial
        assert linkbudget._blocked_gates(*args) == _reference_blocked_gates(*args)


class TestRawRate:
    def test_no_clicks_no_rate(self, cfg):
        clicks = ClickProbabilities(p_signal=0.0, p_dark=0.0)
        assert raw_rate(clicks, cfg.source, blocked_gates=7.5) == 0.0

    def test_dead_time_only_reduces(self, cfg):
        clicks = click_probabilities(cfg.source, cfg.channel, cfg.receiver)
        free = raw_rate(clicks, cfg.source, blocked_gates=0.0)
        held = raw_rate(clicks, cfg.source, blocked_gates=7.33)
        assert held < free

    def test_squash_keeps_rate_below_clock(self, cfg):
        clicks = ClickProbabilities(p_signal=1.0, p_dark=0.0)
        rate = raw_rate(clicks, cfg.source, blocked_gates=0.0)
        assert rate <= cfg.source.clock_rate * (1.0 + 1e-12)

    @settings(max_examples=40)
    @given(st.floats(min_value=1e-9, max_value=0.5),
           st.floats(min_value=1e-9, max_value=0.5))
    def test_monotone_in_click_probability(self, cfg, p1, p2):
        lo, hi = sorted((p1, p2))
        r_lo = raw_rate(ClickProbabilities(lo, 0.0), cfg.source, blocked_gates=7.5)
        r_hi = raw_rate(ClickProbabilities(hi, 0.0), cfg.source, blocked_gates=7.5)
        assert r_lo <= r_hi + 1e-9


class TestQberBreakdown:
    def test_total_is_component_sum(self, cfg):
        qber = qber_breakdown(cfg.source, cfg.channel, cfg.receiver)
        parts = qber.e_opt + qber.e_afterpulse + qber.e_dark + qber.e_interclock
        assert qber.total == pytest.approx(parts, abs=1e-12)

    def test_optical_floor_at_short_length(self, cfg):
        qber = qber_breakdown(cfg.source, replace(cfg.channel, length=0.0), cfg.receiver)
        assert qber.e_opt == pytest.approx(0.009)
        assert qber.e_interclock < 1e-12

    def test_dark_dominated_when_source_off(self, cfg):
        dim = replace(cfg, source=replace(cfg.source, mu=0.0))
        qber = qber_breakdown(dim.source, dim.channel, dim.receiver)
        # All clicks are dark clicks, half of them land on the wrong detector.
        assert qber.e_dark == pytest.approx(0.5)

    def test_compensated_drops_interclock_term(self, cfg):
        channel = replace(cfg.channel, length=75.8)
        plain = qber_breakdown(cfg.source, channel, cfg.receiver)
        fixed = qber_breakdown(cfg.source, replace(channel, compensated=True), cfg.receiver)
        assert plain.e_interclock > 0.10
        assert fixed.e_interclock == 0.0


def _kernel_caches():
    """Every memoized function defined at module level in qkdlink, whether or
    not an earlier test imported its module."""
    modules = [qkdlink, *(importlib.import_module(f"qkdlink.{info.name}")
                          for info in pkgutil.iter_modules(qkdlink.__path__))]
    return {
        f"{module.__name__}.{attr}": value
        for module in modules
        for attr, value in vars(module).items()
        if callable(getattr(value, "cache_info", None))
    }


def _with_detector(cfg, **changes):
    det = replace(cfg.receiver.detector, **changes)
    return replace(cfg, receiver=replace(cfg.receiver, detector=det))


def _at_equal_signal(cfg, changed):
    """``changed`` re-biased so that its ``p_signal`` equals ``cfg``'s bit for bit.

    A kernel keyed on ``p_signal``, which most inputs move, would hide
    whether its key holds the input itself; holding it fixed shows that.
    """
    def p_signal_of(c):
        return click_probabilities(c.source, c.channel, c.receiver).p_signal

    target = p_signal_of(cfg)
    # The mean detected photon number is proportional to the efficiency.
    eta = (changed.receiver.detector.efficiency
           * math.log1p(-target) / math.log1p(-p_signal_of(changed)))
    for _ in range(64):
        candidate = _with_detector(changed, efficiency=eta)
        p_signal = p_signal_of(candidate)
        if p_signal == target:
            return candidate
        eta = math.nextafter(eta, math.inf if p_signal < target else -math.inf)
    pytest.fail("no bias reproduces p_signal exactly")


class TestCacheKeys:
    """A memoized kernel whose key misses an input would hand one config's
    value to another; evaluating in both orders exposes that."""

    ALL = {"dark_prob", "jitter_fwhm", "side_mode_weight", "dead_time", "efficiency", "length"}
    # Inputs each public function depends on, of those perturbed below.
    DEPENDS = {
        "link_timing": {"jitter_fwhm", "side_mode_weight", "length"},
        "effective_blocked_gates": ALL,
        "evaluate_point": ALL,
    }

    @staticmethod
    def variants(cfg):
        one_input = {
            "dark_prob": _with_detector(cfg, dark_prob=3.0 * cfg.receiver.detector.dark_prob),
            "jitter_fwhm": _with_detector(cfg, jitter_fwhm=45.0),
            "side_mode_weight": replace(cfg, source=replace(cfg.source, side_mode_weight=0.2)),
            "dead_time": _with_detector(cfg, dead_time=7.5),
            "efficiency": _with_detector(cfg, efficiency=0.08),
            "length": cfg.at_length(25.3),
        }
        equal_signal = [
            (f"{name}@p_signal", _at_equal_signal(cfg, one_input[name]))
            for name in ("jitter_fwhm", "side_mode_weight", "length")
        ]
        return [("base", cfg), *one_input.items(), *equal_signal]

    @pytest.mark.parametrize("function", sorted(DEPENDS))
    def test_each_input_reaches_the_key(self, cfg, function):
        evaluate = {
            "link_timing": lambda c: link_timing(c.source, c.channel, c.receiver),
            "effective_blocked_gates": lambda c: effective_blocked_gates(
                c.source, c.channel, c.receiver
            ),
            "evaluate_point": keyrate.evaluate_point,
        }[function]
        configs = self.variants(cfg)
        values = []
        for order in (configs, configs[::-1]):
            for kernel in _kernel_caches().values():
                kernel.cache_clear()
            values.append({name: evaluate(config) for name, config in order})
        forward, backward = values
        assert forward == backward
        for name, _ in configs[1:]:
            depends = name.split("@")[0] in self.DEPENDS[function]
            assert (forward[name] != forward["base"]) == depends, name

    def test_window_masses_are_immutable(self):
        # A cached value is shared by every later caller.
        masses = linkbudget._window_masses(0.0, 50.0, 965.0, 265.0)
        assert isinstance(masses, tuple) and masses
        assert all(isinstance(pair, tuple) for pair in masses)

    def test_profile_past_the_window_cap_raises_on_every_call(self):
        # An exception is not cached, so a repeated call raises again.
        period, window = 965.0, 265.0
        sigma = linkbudget._MAX_WINDOWS * period / 8.0
        linkbudget._window_masses.cache_clear()
        for _ in range(2):
            with pytest.raises(ParameterError, match="gate periods"):
                linkbudget._window_masses(0.0, sigma, period, window)
        assert linkbudget._window_masses.cache_info().currsize == 0

    @staticmethod
    def blocked_args(c):
        """The blocked-gate kernel's arguments at config ``c``."""
        det = c.receiver.detector
        clicks = click_probabilities(c.source, c.channel, c.receiver)
        return (temporal_components(c.source, c.channel, c.receiver), det.gate_window,
                c.source.gate_period, det.dead_time_ps, clicks.p_signal, clicks.p_dark)

    def test_blocked_gates_memo_returns_the_computed_bits(self, cfg):
        for name, config in self.variants(cfg):
            args = self.blocked_args(config)
            linkbudget._blocked_gates.cache_clear()
            cold = linkbudget._blocked_gates(*args)
            warm = linkbudget._blocked_gates(*args)
            assert linkbudget._blocked_gates.cache_info()[:2] == (1, 1), name
            plain = linkbudget._blocked_gates.__wrapped__(*args)
            assert warm.hex() == cold.hex() == plain.hex(), name

    def test_blocked_gates_past_the_window_cap_raise_on_every_call(self, cfg):
        # An exception is not cached, so a repeated call raises again.
        _, window, period, dead, p_signal, p_dark = self.blocked_args(cfg)
        sigma = linkbudget._MAX_WINDOWS * period / 8.0
        linkbudget._window_masses.cache_clear()
        linkbudget._blocked_gates.cache_clear()
        for _ in range(2):
            with pytest.raises(ParameterError, match="gate periods"):
                linkbudget._blocked_gates(((1.0, 0.0, sigma),), window, period, dead,
                                          p_signal, p_dark)
        assert linkbudget._blocked_gates.cache_info().currsize == 0

    def test_every_cache_is_bounded(self):
        caches = _kernel_caches()
        assert sorted(caches) == ["qkdlink.cli._build_parser",
                                  "qkdlink.linkbudget._blocked_gates",
                                  "qkdlink.linkbudget._holdoff",
                                  "qkdlink.linkbudget._window_masses"]
        for name, kernel in caches.items():
            assert kernel.cache_info().maxsize is not None, name
