"""Plain-text system configuration files.

The format is a flat list of ``section.key = value`` lines — no nesting, no
interpolation.  ``#`` starts a comment, blank lines are ignored.  Parsing is
strict: every known key must appear exactly once and unknown keys are
errors, so a config file is always a complete, unambiguous snapshot of the
system.  Units are part of the key name (``_ps``, ``_ns``, ``_km``, ...);
detector gate periods are derived from the source clock rather than stored.

One table, :data:`_TABLE`, declares the format: a row per file line holding
the key and the ``object.field`` it stores, where ``detector`` is the
receiver's one matched :class:`~qkdlink.params.DetectorParams`.  Parsing,
building, the copy checks and :func:`dumps_config` all walk it, so they
cannot disagree.

The keys in :data:`_COPIES`, the seven ``detector_b.*`` keys, can only copy
their ``detector_a.*`` key: the receiver has one matched detector pair.
Building ignores them, parsing rejects any that differs from the value read
back from the built config, and :func:`dumps_config` writes that value, so
the parameter objects hold every value once.
"""

from __future__ import annotations

from importlib import resources

from . import params
from .params import SystemConfig

__all__ = ["ConfigError", "load_config", "parse_config", "save_config", "default_config"]

# One row per file line, in file order: (key, "object.field"); None is a blank line.
_TABLE = (
    ("source.clock_rate_hz", "source.clock_rate"),
    ("source.mu", "source.mu"),
    ("source.pulse_sigma0_ps", "source.pulse_sigma0"),
    ("source.spectral_width_nm", "source.spectral_width"),
    ("source.side_mode_weight", "source.side_mode_weight"),
    ("source.side_mode_offset_nm", "source.side_mode_offset"),
    None,
    ("channel.length_km", "channel.length"),
    ("channel.attenuation_db_per_km", "channel.attenuation"),
    ("channel.dispersion_ps_per_nm_km", "channel.dispersion"),
    ("channel.compensated", "channel.compensated"),
    None,
    ("receiver.visibility", "receiver.visibility"),
    ("receiver.mismodulation_error", "receiver.mismodulation_error"),
    *(row for prefix in ("detector_a", "detector_b") for row in (
        None,
        (f"{prefix}.efficiency", "detector.efficiency"),
        (f"{prefix}.dark_prob", "detector.dark_prob"),
        (f"{prefix}.afterpulse_total", "detector.afterpulse_total"),
        (f"{prefix}.afterpulse_decay_ns", "detector.afterpulse_decay"),
        (f"{prefix}.gate_window_ps", "detector.gate_window"),
        (f"{prefix}.dead_time_ns", "detector.dead_time"),
        (f"{prefix}.jitter_fwhm_ps", "detector.jitter_fwhm"),
    )),
    None,
    ("protocol.f_ec", "protocol.f_ec"),
    None,
    ("calibration.pa_ref", "calibration.pa_ref"),
    ("calibration.pa_ref_eta", "calibration.pa_ref_eta"),
    ("calibration.gamma", "calibration.gamma"),
    ("calibration.dark_floor", "calibration.dark_floor"),
    ("calibration.dark_floor_eta", "calibration.dark_floor_eta"),
    ("calibration.dark_slope", "calibration.dark_slope"),
)
_KEYS = dict(row for row in _TABLE if row is not None)
_BOOL_KEYS = frozenset({"channel.compensated"})
_COPIES = frozenset(key for key in _KEYS if key.startswith("detector_b."))
# The key each held field is read from; a copy names it in its error.
_HOLDERS = {target: key for key, target in _KEYS.items() if key not in _COPIES}
# Each object's constructor, in build order: the receiver holds the detector.
_CONSTRUCTORS = {
    "source": params.SourceParams,
    "channel": params.ChannelParams,
    "detector": params.DetectorParams,
    "receiver": params.ReceiverParams,
    "protocol": params.ProtocolConstants,
    "calibration": params.CalibrationParams,
}


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
        if key not in _KEYS:
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
    missing = sorted(_KEYS.keys() - values.keys())
    if missing:
        raise ConfigError(f"{origin}: missing keys: {', '.join(missing)}")
    return _build(values)


def _section(name: str, constructor, **kwargs):
    """Run one constructor, prefixing validation errors with the section name."""
    try:
        return constructor(**kwargs)
    except ValueError as exc:
        # The section the object's keys were read from: detector_a for the detector.
        section = next((key for target, key in _HOLDERS.items()
                        if target.startswith(f"{name}.")), name).split(".")[0]
        raise ConfigError(f"{section}: {exc}") from exc


def _build(values: dict) -> SystemConfig:
    kwargs = {name: {} for name in _CONSTRUCTORS}
    for target, key in _HOLDERS.items():
        name, _, field = target.partition(".")
        kwargs[name][field] = values[key]
    built = {}
    for name, constructor in _CONSTRUCTORS.items():
        if name == "receiver":
            kwargs[name]["detector"] = built.pop("detector")
        built[name] = _section(name, constructor, **kwargs[name])
    config = _section("config", SystemConfig, **built)
    objects = _objects(config)
    for key, target in _KEYS.items():
        if key in _COPIES and values[key] != (expected := _read(objects, target)):
            raise ConfigError(f"{key} must equal {_HOLDERS[target]} "
                              f"({expected!r}), got {values[key]!r}")
    return config


def _objects(config: SystemConfig) -> dict:
    """The objects the table's ``object.field`` targets name."""
    return {**vars(config), "detector": config.receiver.detector}


def _read(objects: dict, target: str):
    name, field = target.split(".")
    return getattr(objects[name], field)


def load_config(path) -> SystemConfig:
    """Read and parse a config file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_config(text, origin=str(path))


def dumps_config(config: SystemConfig) -> str:
    """Render a config as text that :func:`parse_config` reads back exactly."""
    objects = _objects(config)
    lines = []
    for row in _TABLE:
        if row is None:
            lines.append("")
            continue
        key, target = row
        value = _read(objects, target)
        text = ("true" if value else "false") if key in _BOOL_KEYS else repr(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def save_config(config: SystemConfig, path) -> None:
    """Write a config file that round-trips through :func:`load_config`."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_config(config))


def default_config() -> SystemConfig:
    """The calibrated link configuration shipped with the package."""
    text = resources.files("qkdlink.data").joinpath("default.cfg").read_text("utf-8")
    return parse_config(text, origin="qkdlink/data/default.cfg")
