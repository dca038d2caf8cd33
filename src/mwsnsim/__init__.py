"""mwsnsim: deterministic discrete-event simulation of priority scheduling
in a mobile wireless sensor network over a TDMA/FDMA slot grid."""

from ._kernels import BACKEND
from .config import ScenarioConfig, load_config, loads_config, validate_config
from .engine import Simulation
from .trace import trace_from_jsonl, trace_to_jsonl

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ScenarioConfig",
    "Simulation",
    "load_config",
    "loads_config",
    "validate_config",
    "trace_from_jsonl",
    "trace_to_jsonl",
    "__version__",
]
