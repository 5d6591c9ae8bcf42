"""Parameter containers for a gigahertz-clocked fiber QKD link.

Every container validates its physical ranges on construction, so the
model code downstream can assume well-formed inputs.  All containers are
frozen; derived operating points are produced with :func:`dataclasses.replace`
via the helpers on :class:`SystemConfig`.  A frozen object can be shared, so
the calibration fitter reuses the validated objects a trial value leaves unchanged.

Each object holds only independent values.  The receiver's two detectors
form a matched pair, so :class:`ReceiverParams` holds the one
:class:`DetectorParams` they share, whose efficiency is also Bob's
detection efficiency; the detector gates run on the source clock period;
and the sift factor is the constant :data:`SIFT_FACTOR`.  The config file
still stores these copies; :mod:`qkdlink.config` reads them back from these
objects to check and write them.

Units follow the conventions used throughout the package: rates in Hz,
times in ps unless a field name says otherwise (``dead_time`` and
``afterpulse_decay`` are in ns), fiber lengths in km, attenuation in dB/km,
dispersion in ps/(nm km), spectral widths in nm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "FWHM_PER_SIGMA",
    "ParameterError",
    "SourceParams",
    "ChannelParams",
    "DetectorParams",
    "ReceiverParams",
    "ProtocolConstants",
    "SIFT_FACTOR",
    "CalibrationParams",
    "SystemConfig",
]

# Conversion between the full width at half maximum and the RMS width of a
# Gaussian: FWHM = 2*sqrt(2*ln 2) * sigma.
FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


class ParameterError(ValueError):
    """Raised when a physical parameter lies outside its valid range."""


def _check(condition: bool, name: str, message: str) -> None:
    if not condition:
        raise ParameterError(f"{name} {message}")


@dataclass(frozen=True)
class SourceParams:
    """Pulsed laser source.

    Attributes
    ----------
    clock_rate:
        Pulse repetition rate in Hz.
    mu:
        Mean photon number per pulse leaving the transmitter.
    pulse_sigma0:
        Intrinsic RMS temporal width of the pulse, ps.
    spectral_width:
        Effective RMS spectral width of the main laser line, nm.  Together
        with the channel dispersion this sets how fast the pulse broadens.
    side_mode_weight:
        Fraction of the pulse energy carried by a weak displaced spectral
        side mode of the laser.  Zero disables the side mode.
    side_mode_offset:
        Wavelength offset of the side mode from the main line, nm.
    wavelength:
        Center wavelength, nm (bookkeeping only).
    """

    clock_rate: float
    mu: float
    pulse_sigma0: float
    spectral_width: float
    side_mode_weight: float = 0.0
    side_mode_offset: float = 0.0
    wavelength: float = 1550.0

    def __post_init__(self) -> None:
        _check(0.0 < self.clock_rate < math.inf, "source.clock_rate",
               "must be finite and positive")
        _check(0.0 <= self.mu < math.inf, "source.mu", "must be finite and non-negative")
        _check(0.0 < self.pulse_sigma0 < math.inf, "source.pulse_sigma0",
               "must be finite and positive")
        _check(0.0 <= self.spectral_width < math.inf, "source.spectral_width",
               "must be finite and non-negative")
        _check(
            0.0 <= self.side_mode_weight < 1.0,
            "source.side_mode_weight",
            "must lie in [0, 1)",
        )
        _check(0.0 <= self.side_mode_offset < math.inf, "source.side_mode_offset",
               "must be finite and non-negative")
        _check(0.0 < self.wavelength < math.inf, "source.wavelength",
               "must be finite and positive")

    @property
    def gate_period(self) -> float:
        """Clock period in ps."""
        return 1.0e12 / self.clock_rate


@dataclass(frozen=True)
class ChannelParams:
    """Optical fiber between transmitter and receiver."""

    length: float
    attenuation: float
    dispersion: float
    compensated: bool = False

    def __post_init__(self) -> None:
        # Chained comparisons reject NaN and inf at plain-float cost:
        # calibration builds thousands of channels per fit.
        _check(0.0 <= self.length < math.inf, "channel.length",
               "must be finite and non-negative")
        _check(0.0 <= self.attenuation < math.inf, "channel.attenuation",
               "must be finite and non-negative")
        _check(0.0 <= self.dispersion < math.inf, "channel.dispersion",
               "must be finite and non-negative")


@dataclass(frozen=True)
class DetectorParams:
    """Gated single-photon avalanche detector.

    Attributes
    ----------
    efficiency:
        Probability that a photon arriving inside the gate fires the detector.
    dark_prob:
        Dark-count probability per gate.
    afterpulse_total:
        Expected number of afterpulse events triggered by one avalanche,
        integrated over all later gates.
    afterpulse_decay:
        Release time constant of the trapped carriers, ns.
    gate_window:
        Span per clock period during which the detector is armed, ps.
    dead_time:
        Hold-off after an avalanche during which the detector stays blind, ns.
    jitter_fwhm:
        Detection-time jitter, full width at half maximum, ps.
    """

    efficiency: float
    dark_prob: float
    afterpulse_total: float
    afterpulse_decay: float
    gate_window: float
    dead_time: float
    jitter_fwhm: float

    def __post_init__(self) -> None:
        _check(0.0 <= self.efficiency <= 1.0, "detector.efficiency", "must lie in [0, 1]")
        _check(0.0 <= self.dark_prob <= 1.0, "detector.dark_prob", "must lie in [0, 1]")
        _check(
            0.0 <= self.afterpulse_total < 1.0,
            "detector.afterpulse_total",
            "must lie in [0, 1)",
        )
        _check(0.0 < self.afterpulse_decay < math.inf, "detector.afterpulse_decay",
               "must be finite and positive")
        _check(self.gate_window > 0.0, "detector.gate_window", "must be positive")
        _check(0.0 <= self.dead_time < math.inf, "detector.dead_time",
               "must be finite and non-negative")
        _check(0.0 <= self.jitter_fwhm < math.inf, "detector.jitter_fwhm",
               "must be finite and non-negative")

    @property
    def jitter_sigma(self) -> float:
        """RMS detection jitter in ps."""
        return self.jitter_fwhm / FWHM_PER_SIGMA

    @property
    def dead_time_ps(self) -> float:
        return 1000.0 * self.dead_time

    @property
    def afterpulse_decay_ps(self) -> float:
        return 1000.0 * self.afterpulse_decay


@dataclass(frozen=True)
class ReceiverParams:
    """Interferometric receiver; ``detector`` is each of its matched pair."""

    visibility: float
    mismodulation_error: float
    detector: DetectorParams

    def __post_init__(self) -> None:
        _check(0.0 <= self.visibility <= 1.0, "receiver.visibility", "must lie in [0, 1]")
        _check(
            0.0 <= self.mismodulation_error <= 1.0,
            "receiver.mismodulation_error",
            "must lie in [0, 1]",
        )

    @property
    def optical_error(self) -> float:
        """Baseline optical error: visibility imperfection plus mis-modulation."""
        return 0.5 * (1.0 - self.visibility) + self.mismodulation_error


# Alice and Bob choose between two bases uniformly, so exactly half of the
# detections survive sifting on average.
SIFT_FACTOR = 0.5


@dataclass(frozen=True)
class ProtocolConstants:
    """Constants of the key-distillation arithmetic."""

    f_ec: float

    def __post_init__(self) -> None:
        _check(1.0 <= self.f_ec < math.inf, "protocol.f_ec", "must be finite and >= 1")


@dataclass(frozen=True)
class CalibrationParams:
    """Fitted coupling laws between detector bias and its noise figures.

    The detectors are characterized at a small set of bias (efficiency)
    points; these laws interpolate dark counts and afterpulsing across the
    full bias range used by the sweeps:

    * afterpulse: ``P_a(eta) = pa_ref * (eta / pa_ref_eta) ** gamma``
    * dark count: ``d(eta) = dark_floor * exp(dark_slope * (eta - dark_floor_eta))``
    """

    pa_ref: float
    pa_ref_eta: float
    gamma: float
    dark_floor: float
    dark_floor_eta: float
    dark_slope: float

    def __post_init__(self) -> None:
        _check(0.0 <= self.pa_ref < 1.0, "calibration.pa_ref", "must lie in [0, 1)")
        _check(0.0 < self.pa_ref_eta <= 1.0, "calibration.pa_ref_eta", "must lie in (0, 1]")
        _check(0.0 < self.gamma < math.inf, "calibration.gamma", "must be finite and positive")
        _check(0.0 <= self.dark_floor < 1.0, "calibration.dark_floor", "must lie in [0, 1)")
        _check(
            0.0 < self.dark_floor_eta <= 1.0,
            "calibration.dark_floor_eta",
            "must lie in (0, 1]",
        )
        _check(0.0 <= self.dark_slope < math.inf, "calibration.dark_slope",
               "must be finite and non-negative")

    def afterpulse_at(self, eta: float) -> float:
        """Afterpulse probability at bias ``eta``."""
        _check(eta >= 0.0, "eta", "must be non-negative")
        if eta == 0.0:
            return 0.0
        try:
            return self.pa_ref * (eta / self.pa_ref_eta) ** self.gamma
        except OverflowError:
            raise ParameterError(
                f"calibration.gamma overflows the afterpulse coupling at eta = {eta}"
            ) from None

    def dark_at(self, eta: float) -> float:
        """Dark-count probability per gate at bias ``eta``."""
        _check(eta >= 0.0, "eta", "must be non-negative")
        try:
            return self.dark_floor * math.exp(self.dark_slope * (eta - self.dark_floor_eta))
        except OverflowError:
            raise ParameterError(
                f"calibration.dark_slope overflows the dark-count coupling at eta = {eta}"
            ) from None


@dataclass(frozen=True)
class SystemConfig:
    """Complete parameter set for one simulated link."""

    source: SourceParams
    channel: ChannelParams
    receiver: ReceiverParams
    protocol: ProtocolConstants
    calibration: CalibrationParams

    def __post_init__(self) -> None:
        # The detector gates run on the source clock.
        _check(
            self.receiver.detector.gate_window < self.source.gate_period,
            "receiver.detector.gate_window",
            "must be shorter than the source clock period",
        )

    def at_length(self, length: float, compensated: bool | None = None) -> "SystemConfig":
        """Return a copy operating over a different fiber span."""
        if compensated is None:
            compensated = self.channel.compensated
        return replace(self, channel=replace(self.channel, length=length,
                                             compensated=compensated))

    def at_bias(self, eta: float) -> "SystemConfig":
        """Return a copy re-biased to detector efficiency ``eta``.

        The detector efficiency tracks the bias directly; dark counts and
        afterpulsing follow the calibrated coupling laws, so a sweep over
        ``eta`` reproduces how the physical devices are actually operated.
        """
        dark = self.calibration.dark_at(eta)
        pa = self.calibration.afterpulse_at(eta)
        det = replace(self.receiver.detector, efficiency=eta,
                      dark_prob=dark, afterpulse_total=pa)
        return replace(self, receiver=replace(self.receiver, detector=det))
