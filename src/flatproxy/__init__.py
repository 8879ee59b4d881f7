"""DPU-style service mesh data plane, control plane, and simulator."""

from .core import (
    Endpoint,
    FlowKey,
    Message,
    Metadata,
    Proto,
    TrafficUnit,
    UnitKind,
    Verdict,
)
from .match_action import MatchTable, Ppm
from .slow_path import MeshConfig, MeshRuntime, load_config
from .sim import Mode, Workload, builtin_cost_models, compare_modes, run_sim

__version__ = "0.1.0"
