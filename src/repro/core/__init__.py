"""DQEMU core: cluster orchestration, DSM, delegation, optimizations."""

from repro.core.cluster import Cluster, RunResult
from repro.core.config import DQEMUConfig
from repro.core.dsmmem import DSMMemory, MergeStall
from repro.core.forwarding import ReadAheadEngine
from repro.core.gthread import GuestThread, GuestThreadState
from repro.core.llsc import LLSCTable
from repro.core.master import MasterRuntime
from repro.core.node import NodeRuntime
from repro.core.scheduler import ThreadPlacer
from repro.core.splitting import FalseSharingDetector, SplitDecision
from repro.core.stats import ProtocolStats, RunStats, ThreadStats

__all__ = [
    "Cluster",
    "DQEMUConfig",
    "DSMMemory",
    "FalseSharingDetector",
    "GuestThread",
    "GuestThreadState",
    "LLSCTable",
    "MasterRuntime",
    "MergeStall",
    "NodeRuntime",
    "ProtocolStats",
    "ReadAheadEngine",
    "RunResult",
    "RunStats",
    "SplitDecision",
    "ThreadPlacer",
    "ThreadStats",
]
