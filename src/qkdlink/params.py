"""Parameter containers for a gigahertz-clocked fiber QKD link.

Every container validates its physical ranges on construction, so the
model code downstream can assume well-formed inputs.  All containers are
frozen; derived operating points are produced with :func:`dataclasses.replace`
via the helpers on :class:`SystemConfig`.  The calibration fitter works on
plain floats instead and checks each value it moves against the same range.

Each object holds only independent values.  The receiver's two detectors
form a matched pair, so :class:`ReceiverParams` holds the one
:class:`DetectorParams` they share, whose efficiency is also Bob's
detection efficiency; the detector gates run on the source clock period;
and the sift factor is the constant :data:`SIFT_FACTOR`.  The config file
still stores the second detector's copy of the shared response;
:mod:`qkdlink.config` reads it back from these objects to check and write it.

Units follow the conventions used throughout the package: rates in Hz,
times in ps unless a field name says otherwise (``dead_time`` and
``afterpulse_decay`` are in ns), fiber lengths in km, attenuation in dB/km,
dispersion in ps/(nm km), spectral widths in nm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

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


# The valid range of every checked field, keyed "object.field" as in the
# config table.  Construction checks each object's fields here; the
# calibration fitter checks the values it moves on plain floats.  Chained
# comparisons reject NaN, and inf where the range is finite.
_RANGES = {name: (valid, message) for valid, message, names in (
    (lambda v: 0.0 < v < math.inf, "must be finite and positive",
     "source.clock_rate detector.afterpulse_decay calibration.gamma"),
    (lambda v: 0.0 <= v < math.inf, "must be finite and non-negative",
     "source.mu source.spectral_width source.side_mode_offset channel.length "
     "channel.attenuation channel.dispersion detector.dead_time detector.jitter_fwhm "
     "calibration.dark_slope"),
    (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]",
     "detector.efficiency detector.dark_prob receiver.visibility receiver.mismodulation_error"),
    (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)",
     "source.side_mode_weight detector.afterpulse_total calibration.pa_ref "
     "calibration.dark_floor"),
    (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]",
     "calibration.pa_ref_eta calibration.dark_floor_eta"),
    # The hold-off grid's step (window / 2048) stays a normal float and a dark
    # density (p / window) finite; inf is caught against the clock period.
    (lambda v: v >= 1e-300, "must be at least 1e-300 ps", "detector.gate_window"),
    # Every line is at least this wide, so its peak density w*p/(sigma*sqrt(2pi)) stays finite.
    (lambda v: 1e-300 <= v < math.inf, "must be finite and at least 1e-300 ps",
     "source.pulse_sigma0"),
    (lambda v: 1.0 <= v < math.inf, "must be finite and >= 1", "protocol.f_ec"),
) for name in names.split()}


def _check_range(name: str, value: float) -> None:
    """Raise :class:`ParameterError` unless ``value`` is valid for field ``name``."""
    valid, message = _RANGES[name]
    _check(valid(value), name, message)


def _check_fields(obj, prefix: str, derived=()) -> None:
    for field in fields(obj):
        name = f"{prefix}.{field.name}"
        if name in _RANGES:
            _check_range(name, getattr(obj, field.name))
    # A finite field can overflow when converted to another unit.
    for name in derived:
        _check(math.isfinite(getattr(obj, name)), f"{prefix}.{name}", "must be finite")


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
    """

    clock_rate: float
    mu: float
    pulse_sigma0: float
    spectral_width: float
    side_mode_weight: float = 0.0
    side_mode_offset: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(self, "source", ("gate_period",))

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
        _check_fields(self, "channel")


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
        _check_fields(self, "detector", ("dead_time_ps", "afterpulse_decay_ps"))

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
        _check_fields(self, "receiver")

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
        _check_fields(self, "protocol")


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
        _check_fields(self, "calibration")

    def afterpulse_at(self, eta: float) -> float:
        """Afterpulse probability at bias ``eta``."""
        return _afterpulse_at(self.pa_ref, self.pa_ref_eta, self.gamma, eta)

    def dark_at(self, eta: float) -> float:
        """Dark-count probability per gate at bias ``eta``."""
        return _dark_at(self.dark_floor, self.dark_floor_eta, self.dark_slope, eta)


# The two coupling laws on plain floats, for the calibration fitter.
def _afterpulse_at(pa_ref: float, pa_ref_eta: float, gamma: float, eta: float) -> float:
    _check(eta >= 0.0, "eta", "must be non-negative")
    try:
        return pa_ref * (eta / pa_ref_eta) ** gamma
    except OverflowError:
        raise ParameterError(
            f"calibration.gamma overflows the afterpulse coupling at eta = {eta}"
        ) from None


def _dark_at(dark_floor: float, dark_floor_eta: float, dark_slope: float, eta: float) -> float:
    _check(eta >= 0.0, "eta", "must be non-negative")
    try:
        return dark_floor * math.exp(dark_slope * (eta - dark_floor_eta))
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
