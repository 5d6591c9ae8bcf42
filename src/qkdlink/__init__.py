"""Simulator and analysis toolkit for a GHz-gated BB84 fiber link.

Two engines cover the same physics at different resolutions: a closed-form
link-budget model (:mod:`qkdlink.linkbudget`, :mod:`qkdlink.keyrate`) and a
stochastic event engine (:mod:`qkdlink.montecarlo`) whose time-tag streams
feed the BB84 sifting layer (:mod:`qkdlink.protocol`).  Scenario
runners and the CLI live in :mod:`qkdlink.sweeps` / :mod:`qkdlink.cli`;
model couplings are fitted to measured link anchors by
:mod:`qkdlink.calibrate`.
"""

from .calibrate import CalibrationAnchors, ConvergenceError, FitReport, calibrate
from .config import ConfigError, default_config, load_config, save_config
from .keyrate import (
    RateResult,
    binary_entropy,
    evaluate_point,
    qber_threshold,
    secure_rate,
)
from .linkbudget import (
    ClickProbabilities,
    QberBreakdown,
    click_probabilities,
    qber_breakdown,
    raw_rate,
    transmittance,
)
from .montecarlo import (
    AliceLog,
    ResourceLimitError,
    SimulationResult,
    TimeTagStream,
    histogram,
    simulate,
)
from .params import (
    CalibrationParams,
    ChannelParams,
    DetectorParams,
    ParameterError,
    ProtocolConstants,
    ReceiverParams,
    SourceParams,
    SystemConfig,
)
from .protocol import ProtocolError, SiftedKey, secure_key_length, sift
from .sweeps import (
    HistogramResult,
    SweepRow,
    SweepTable,
    emit_csv,
    run_bias_sweep,
    run_distance_sweep,
    run_histogram,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AliceLog",
    "CalibrationAnchors",
    "CalibrationParams",
    "ChannelParams",
    "ClickProbabilities",
    "ConfigError",
    "ConvergenceError",
    "DetectorParams",
    "FitReport",
    "HistogramResult",
    "ParameterError",
    "ProtocolConstants",
    "ProtocolError",
    "QberBreakdown",
    "RateResult",
    "ReceiverParams",
    "ResourceLimitError",
    "SiftedKey",
    "SimulationResult",
    "SourceParams",
    "SweepRow",
    "SweepTable",
    "SystemConfig",
    "TimeTagStream",
    "binary_entropy",
    "calibrate",
    "click_probabilities",
    "default_config",
    "emit_csv",
    "evaluate_point",
    "histogram",
    "load_config",
    "qber_breakdown",
    "qber_threshold",
    "raw_rate",
    "run_bias_sweep",
    "run_distance_sweep",
    "run_histogram",
    "save_config",
    "secure_key_length",
    "secure_rate",
    "sift",
    "simulate",
    "transmittance",
]
