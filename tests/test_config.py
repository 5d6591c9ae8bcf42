"""Tests for config parsing, validation and round-tripping."""

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

    # Keys whose value can only copy another one, and the name the error gives.
    COPIES = [
        *((f"detector_b.{key}", f"receiver.detector_b.{field}") for field, key in (
            ("efficiency", "efficiency"), ("dark_prob", "dark_prob"),
            ("afterpulse_total", "afterpulse_total"),
            ("afterpulse_decay", "afterpulse_decay_ns"), ("gate_window", "gate_window_ps"),
            ("dead_time", "dead_time_ns"), ("jitter_fwhm", "jitter_fwhm_ps"),
        )),
        ("receiver.eta_bob", "receiver.eta_bob"),
    ]

    @pytest.mark.parametrize("key,name", COPIES, ids=[key for key, _ in COPIES])
    def test_copy_key_is_pinned(self, text, key, name):
        lines = text.splitlines()
        edited = [f"{key} = 0.7" if line.startswith(f"{key} = ") else line for line in lines]
        assert edited != lines
        with pytest.raises(ConfigError, match=re.escape(name)):
            parse_config("\n".join(edited))

    def test_sift_factor_is_pinned(self, text):
        bad = text.replace("protocol.sift_factor = 0.5", "protocol.sift_factor = 0.7")
        assert bad != text
        with pytest.raises(ConfigError, match="sift_factor"):
            parse_config(bad)


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
