"""DPU-style service mesh data plane, control plane, and simulator."""

from .core import (
    Endpoint,
    FlowKey,
    Metadata,
    Proto,
    TrafficUnit,
    UnitKind,
    Verdict,
    make_listener_key,
)
from .match_action import MatchTable, Ppm, compile_chain
from .slow_path import MeshConfig, MeshRuntime, load_config
from .sim import Mode, Workload, builtin_cost_models, compare_modes, run_sim

__version__ = "0.1.0"
