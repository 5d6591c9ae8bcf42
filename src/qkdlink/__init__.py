"""Simulator and analysis toolkit for a GHz-gated BB84 fiber link.

Two engines cover the same physics at different resolutions: a closed-form
link-budget model (:mod:`qkdlink.linkbudget`, :mod:`qkdlink.keyrate`) and a
stochastic event engine (:mod:`qkdlink.montecarlo`) whose time-tag streams
feed the BB84 sifting layer (:mod:`qkdlink.protocol`).  Scenario
runners and the CLI live in :mod:`qkdlink.sweeps` / :mod:`qkdlink.cli`;
model couplings are fitted to measured link anchors by
:mod:`qkdlink.calibrate`.
"""

import types as _types

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

# Every public name imported above, so the list cannot drift from the imports.
__all__ = ["__version__", *sorted(name for name, value in globals().items()
                                  if not name.startswith("_")
                                  and not isinstance(value, _types.ModuleType))]
