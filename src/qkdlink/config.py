"""Plain-text system configuration files.

The format is a flat list of ``section.key = value`` lines — no nesting, no
interpolation.  ``#`` starts a comment, blank lines are ignored.  Parsing is
strict: every known key must appear exactly once and unknown keys are
errors, so a config file is always a complete, unambiguous snapshot of the
system.  Units are part of the key name (``_ps``, ``_ns``, ``_km``, ...);
detector gate periods are derived from the source clock rather than stored.

The file keeps nine keys whose values can only be copies: the seven
``detector_b.*`` keys copy ``detector_a.*`` (the receiver has one matched
detector pair), ``receiver.eta_bob`` copies the detector efficiency and
``protocol.sift_factor`` is always :data:`~qkdlink.params.SIFT_FACTOR`.
Parsing rejects any copy that differs, and :func:`dumps_config` writes each
one from the value it copies, so the parameter objects hold every value once.
"""

from __future__ import annotations

from importlib import resources

from .params import (
    SIFT_FACTOR,
    CalibrationParams,
    ChannelParams,
    DetectorParams,
    ProtocolConstants,
    ReceiverParams,
    SourceParams,
    SystemConfig,
)

__all__ = ["ConfigError", "load_config", "parse_config", "save_config", "default_config"]

# The key, under a ``detector_a.`` or ``detector_b.`` prefix, of each
# DetectorParams field, in file order.
_DETECTOR_KEYS = {
    "efficiency": "efficiency",
    "dark_prob": "dark_prob",
    "afterpulse_total": "afterpulse_total",
    "afterpulse_decay": "afterpulse_decay_ns",
    "gate_window": "gate_window_ps",
    "dead_time": "dead_time_ns",
    "jitter_fwhm": "jitter_fwhm_ps",
}

_FLOAT_KEYS = (
    "source.clock_rate_hz",
    "source.mu",
    "source.wavelength_nm",
    "source.pulse_sigma0_ps",
    "source.spectral_width_nm",
    "source.side_mode_weight",
    "source.side_mode_offset_nm",
    "channel.length_km",
    "channel.attenuation_db_per_km",
    "channel.dispersion_ps_per_nm_km",
    "receiver.eta_bob",
    "receiver.visibility",
    "receiver.mismodulation_error",
    *(f"{prefix}.{key}" for prefix in ("detector_a", "detector_b")
      for key in _DETECTOR_KEYS.values()),
    "protocol.f_ec",
    "protocol.sift_factor",
    "calibration.pa_ref",
    "calibration.pa_ref_eta",
    "calibration.gamma",
    "calibration.dark_floor",
    "calibration.dark_floor_eta",
    "calibration.dark_slope",
)
_BOOL_KEYS = ("channel.compensated",)
_ALL_KEYS = frozenset(_FLOAT_KEYS) | frozenset(_BOOL_KEYS)


class ConfigError(ValueError):
    """Raised for malformed, incomplete, or contradictory config input."""


def parse_config(text: str, origin: str = "<config>") -> SystemConfig:
    """Parse config text into a validated :class:`SystemConfig`."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        if key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered not in ("true", "false"):
                raise ConfigError(
                    f"{origin}:{lineno}: {key} must be 'true' or 'false', got {value!r}"
                )
            values[key] = lowered == "true"
        else:
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"{origin}:{lineno}: {key} is not a number: {value!r}"
                ) from None
    missing = sorted(_ALL_KEYS - values.keys())
    if missing:
        raise ConfigError(f"{origin}: missing keys: {', '.join(missing)}")
    return _build(values)


def _check_copies(values: dict, detector: DetectorParams) -> None:
    """Reject a copy key whose value differs from the value it copies."""
    copies = [
        (f"detector_b.{key}", getattr(detector, name), f"receiver.detector_b.{name} must "
         "match detector_a (the link model has one detector response)")
        for name, key in _DETECTOR_KEYS.items()
    ]
    copies += [
        ("receiver.eta_bob", detector.efficiency,
         "receiver.eta_bob must equal the detector efficiency"),
        ("protocol.sift_factor", SIFT_FACTOR, f"protocol.sift_factor must be {SIFT_FACTOR}"),
    ]
    for key, expected, message in copies:
        if values[key] != expected:
            raise ConfigError(f"{message}, got {values[key]!r}")


def _section(name: str, builder):
    """Run one section constructor, prefixing validation errors with the key path."""
    try:
        return builder()
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _build(values: dict) -> SystemConfig:
    source = _section(
        "source",
        lambda: SourceParams(
            clock_rate=values["source.clock_rate_hz"],
            mu=values["source.mu"],
            pulse_sigma0=values["source.pulse_sigma0_ps"],
            spectral_width=values["source.spectral_width_nm"],
            side_mode_weight=values["source.side_mode_weight"],
            side_mode_offset=values["source.side_mode_offset_nm"],
            wavelength=values["source.wavelength_nm"],
        ),
    )
    channel = _section(
        "channel",
        lambda: ChannelParams(
            length=values["channel.length_km"],
            attenuation=values["channel.attenuation_db_per_km"],
            dispersion=values["channel.dispersion_ps_per_nm_km"],
            compensated=values["channel.compensated"],
        ),
    )
    detector = _section(
        "detector_a",
        lambda: DetectorParams(**{
            name: values[f"detector_a.{key}"] for name, key in _DETECTOR_KEYS.items()
        }),
    )
    _check_copies(values, detector)
    receiver = _section(
        "receiver",
        lambda: ReceiverParams(
            visibility=values["receiver.visibility"],
            mismodulation_error=values["receiver.mismodulation_error"],
            detector=detector,
        ),
    )
    protocol = _section("protocol", lambda: ProtocolConstants(f_ec=values["protocol.f_ec"]))
    calibration = _section(
        "calibration",
        lambda: CalibrationParams(
            pa_ref=values["calibration.pa_ref"],
            pa_ref_eta=values["calibration.pa_ref_eta"],
            gamma=values["calibration.gamma"],
            dark_floor=values["calibration.dark_floor"],
            dark_floor_eta=values["calibration.dark_floor_eta"],
            dark_slope=values["calibration.dark_slope"],
        ),
    )
    return _section(
        "config",
        lambda: SystemConfig(
            source=source,
            channel=channel,
            receiver=receiver,
            protocol=protocol,
            calibration=calibration,
        ),
    )


def load_config(path) -> SystemConfig:
    """Read and parse a config file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_config(text, origin=str(path))


def _dump_detector(det: DetectorParams, prefix: str) -> list[str]:
    return [f"{prefix}.{key} = {getattr(det, name)!r}" for name, key in _DETECTOR_KEYS.items()]


def dumps_config(config: SystemConfig) -> str:
    """Render a config as text that :func:`parse_config` reads back exactly."""
    s, c, r, p, k = (
        config.source,
        config.channel,
        config.receiver,
        config.protocol,
        config.calibration,
    )
    lines = [
        f"source.clock_rate_hz = {s.clock_rate!r}",
        f"source.mu = {s.mu!r}",
        f"source.wavelength_nm = {s.wavelength!r}",
        f"source.pulse_sigma0_ps = {s.pulse_sigma0!r}",
        f"source.spectral_width_nm = {s.spectral_width!r}",
        f"source.side_mode_weight = {s.side_mode_weight!r}",
        f"source.side_mode_offset_nm = {s.side_mode_offset!r}",
        "",
        f"channel.length_km = {c.length!r}",
        f"channel.attenuation_db_per_km = {c.attenuation!r}",
        f"channel.dispersion_ps_per_nm_km = {c.dispersion!r}",
        f"channel.compensated = {'true' if c.compensated else 'false'}",
        "",
        f"receiver.eta_bob = {r.detector.efficiency!r}",
        f"receiver.visibility = {r.visibility!r}",
        f"receiver.mismodulation_error = {r.mismodulation_error!r}",
        "",
        *_dump_detector(r.detector, "detector_a"),
        "",
        *_dump_detector(r.detector, "detector_b"),
        "",
        f"protocol.f_ec = {p.f_ec!r}",
        f"protocol.sift_factor = {SIFT_FACTOR!r}",
        "",
        f"calibration.pa_ref = {k.pa_ref!r}",
        f"calibration.pa_ref_eta = {k.pa_ref_eta!r}",
        f"calibration.gamma = {k.gamma!r}",
        f"calibration.dark_floor = {k.dark_floor!r}",
        f"calibration.dark_floor_eta = {k.dark_floor_eta!r}",
        f"calibration.dark_slope = {k.dark_slope!r}",
    ]
    return "\n".join(lines) + "\n"


def save_config(config: SystemConfig, path) -> None:
    """Write a config file that round-trips through :func:`load_config`."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_config(config))


def default_config() -> SystemConfig:
    """The calibrated link configuration shipped with the package."""
    text = resources.files("qkdlink.data").joinpath("default.cfg").read_text("utf-8")
    return parse_config(text, origin="qkdlink/data/default.cfg")
