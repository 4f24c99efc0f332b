"""Derived metrics for the experiment runner and views."""

from __future__ import annotations

from repro.core.cluster import RunResult

__all__ = ["speedup", "throughput_mbps", "mean_fault_latency_us"]


def speedup(baseline_ns: int, measured_ns: int) -> float:
    """How much faster ``measured`` is than ``baseline``."""
    if measured_ns <= 0:
        raise ValueError("measured time must be positive")
    return baseline_ns / measured_ns


def throughput_mbps(bytes_accessed: int, virtual_ns: int) -> float:
    """MB/s (decimal MB, as in the paper's Table 1)."""
    if virtual_ns <= 0:
        raise ValueError("time must be positive")
    return bytes_accessed / (virtual_ns / 1e9) / 1e6


def mean_fault_latency_us(result: RunResult, tids: list[int] | None = None) -> float:
    """Average page-fault handling latency (paper Table 1 'Latency')."""
    faults = 0
    wait_ns = 0
    for ts in result.stats.threads.values():
        if tids is not None and ts.tid not in tids:
            continue
        faults += ts.page_faults
        wait_ns += ts.pagefault_ns
    if faults == 0:
        return 0.0
    return wait_ns / faults / 1e3

