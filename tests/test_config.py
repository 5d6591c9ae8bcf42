"""Tests for config parsing, validation and round-tripping."""

import dataclasses
import re
from importlib import resources

import pytest

from qkdlink.config import (
    ConfigError,
    default_config,
    dumps_config,
    load_config,
    parse_config,
    save_config,
)


SHIPPED = resources.files("qkdlink.data").joinpath("default.cfg").read_text("utf-8")
KEYS = [line.split(" = ")[0] for line in SHIPPED.splitlines() if line]

# Each copy key and the key whose value it must repeat.
COPY_OF = {
    **{key.replace("detector_a.", "detector_b."): key
       for key in KEYS if key.startswith("detector_a.")},
    "receiver.eta_bob": "detector_a.efficiency",
}
# The keys that hold a value of their own: all but the copies.
HELD = [key for key in KEYS if key not in COPY_OF and key != "protocol.sift_factor"]


def edit(text, key, value):
    """Set ``key``, and every copy of it, to ``value``."""
    keys = {key, *(copy for copy, original in COPY_OF.items() if original == key)}
    lines = text.splitlines()
    edited = [f"{line.split(' = ')[0]} = {value}" if line.split(" = ")[0] in keys else line
              for line in lines]
    assert sum(a != b for a, b in zip(edited, lines)) == len(keys)
    return "\n".join(edited) + "\n"


def leaves(obj, path=()):
    """Every leaf field of a nested dataclass, keyed by its path of field names."""
    if not dataclasses.is_dataclass(obj):
        return {path: obj}
    found = {}
    for field in dataclasses.fields(obj):
        found.update(leaves(getattr(obj, field.name), path + (field.name,)))
    return found


@pytest.fixture(scope="module")
def text(cfg):
    return dumps_config(cfg)


class TestDefaultConfig:
    def test_headline_values(self, cfg):
        assert cfg.source.clock_rate == 1.036e9
        assert cfg.source.mu == 0.2
        assert cfg.channel.attenuation == 0.195
        assert cfg.channel.compensated is False
        assert cfg.receiver.detector.efficiency == 0.06
        assert cfg.receiver.detector.gate_window == 265.0
        assert cfg.protocol.f_ec == 1.10

    def test_gate_period_from_clock(self, cfg):
        assert cfg.source.gate_period == pytest.approx(965.2509653, abs=1e-6)

    def test_detectors_match(self):
        # The file stores the matched pair's one response under both prefixes.
        def block(prefix):
            return [line.removeprefix(prefix) for line in SHIPPED.splitlines()
                    if line.startswith(prefix)]

        assert len(block("detector_a.")) == 7
        assert block("detector_a.") == block("detector_b.")


class TestParsing:
    def test_round_trip_is_exact(self, cfg, text):
        assert parse_config(text) == cfg

    def test_dumps_reproduces_the_shipped_file(self, text):
        assert text == SHIPPED

    def test_dumps_is_deterministic(self, cfg, text):
        assert dumps_config(cfg) == text

    def test_comments_and_blank_lines_ignored(self, cfg, text):
        noisy = "# leading comment\n\n" + text.replace(
            "source.mu = 0.2", "source.mu = 0.2   # mean photon number"
        )
        assert parse_config(noisy) == cfg

    def test_unknown_key(self, text):
        bad = text + "source.color = 7\n"
        with pytest.raises(ConfigError, match="unknown key 'source.color'"):
            parse_config(bad)

    def test_duplicate_key(self, text):
        bad = text + "source.mu = 0.3\n"
        with pytest.raises(ConfigError, match="duplicate key 'source.mu'"):
            parse_config(bad)

    def test_missing_keys_on_empty_input(self):
        with pytest.raises(ConfigError, match="missing keys"):
            parse_config("")

    def test_line_without_assignment(self):
        with pytest.raises(ConfigError, match=r"test\.cfg:2: expected 'key = value'"):
            parse_config("# fine\nsource.mu\n", origin="test.cfg")

    def test_non_numeric_value(self, text):
        bad = text.replace("source.mu = 0.2", "source.mu = fast")
        with pytest.raises(ConfigError, match="not a number: 'fast'"):
            parse_config(bad)

    def test_bad_boolean(self, text):
        bad = text.replace("channel.compensated = false", "channel.compensated = 0")
        with pytest.raises(ConfigError, match="must be 'true' or 'false'"):
            parse_config(bad)

    def test_error_reports_origin_and_line(self):
        with pytest.raises(ConfigError, match=r"^link\.cfg:1: unknown key"):
            parse_config("bogus = 1\n" + "", origin="link.cfg")


class TestSemanticValidation:
    def test_invalid_value_names_the_key(self, text):
        bad = text.replace("source.mu = 0.2", "source.mu = -1.0")
        with pytest.raises(ConfigError, match="source.mu"):
            parse_config(bad)

    def test_window_wider_than_period_rejected(self, text):
        bad = text.replace(
            "detector_a.gate_window_ps = 265.0",
            "detector_a.gate_window_ps = 2650.0",
        )
        with pytest.raises(ConfigError, match="gate_window"):
            parse_config(bad)

    @pytest.mark.parametrize("key,original", COPY_OF.items(), ids=list(COPY_OF))
    def test_copy_key_is_pinned(self, text, key, original):
        with pytest.raises(ConfigError, match=re.escape(f"{key} must equal {original}")):
            parse_config(edit(text, key, "0.7"))

    def test_sift_factor_is_pinned(self, text):
        bad = text.replace("protocol.sift_factor = 0.5", "protocol.sift_factor = 0.7")
        assert bad != text
        with pytest.raises(ConfigError, match="sift_factor"):
            parse_config(bad)

    @pytest.mark.parametrize("key", [k for k in HELD if k != "channel.compensated"])
    def test_infinite_value_rejected(self, text, leaf_of, key):
        field = ".".join(leaf_of[key][-2:])
        with pytest.raises(ConfigError, match=re.escape(field)):
            parse_config(edit(text, key, "inf"))


@pytest.fixture(scope="module")
def leaf_of(cfg, text):
    """The leaf field of the parsed config that each held key sets."""
    before = leaves(cfg)
    values = dict(line.split(" = ") for line in text.splitlines() if line)
    found = {}
    for key in HELD:
        value = values[key]
        other = "true" if value == "false" else repr(0.99 * float(value))
        after = leaves(parse_config(edit(text, key, other)))
        changed = [path for path, leaf in after.items() if leaf != before[path]]
        assert len(changed) == 1, (key, changed)
        found[key] = changed[0]
    return found


def test_each_held_key_sets_its_own_field(leaf_of):
    # Two rows swapping or sharing a field can still round-trip the shipped
    # file; only a one-to-one match between keys and fields shows them.
    assert sorted(leaf_of.values()) == sorted(leaves(default_config()))
    for key, path in leaf_of.items():
        # A key is its object's section and field name, plus a unit suffix.
        section, name = key.split(".")
        assert path[-2] in section and name.startswith(path[-1]), (key, path)


class TestFiles:
    def test_save_load_round_trip(self, cfg, tmp_path):
        path = tmp_path / "link.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_load_error_names_the_file(self, cfg, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text(dumps_config(cfg) + "nonsense = 1\n")
        with pytest.raises(ConfigError, match="broken.cfg"):
            load_config(path)

    def test_default_config_fresh_instances(self):
        a = default_config()
        b = default_config()
        assert a == b
        assert a is not b
