"""Table 1 — memory performance of DQEMU.

Paper rows (throughput MB/s, latency us):
  QEMU Sequential Access    173.06      -
  Remote Sequential Access    7.88    410.5
  Page forwarding Enabled   108.01     83.2
  QEMU Access of 128 bytes  20259       -
  False Sharing of 1 Page    2216       -
  Page Splitting Enabled    75294       -

Absolute magnitudes differ (their 128-byte rows are cache-resident native
speeds), but the structure must hold: remote access collapses ~20x below
local QEMU; forwarding recovers most of it and slashes fault latency
(~410 us -> ~83 us); false sharing collapses aggregate bandwidth; page
splitting restores it past the single-node baseline.
"""

from benchmarks.conftest import regenerate
from repro.analysis.views import bandwidth_mbps


def test_table1_memory(benchmark):
    records = regenerate(benchmark, "table1_memory")
    mbps = {label: bandwidth_mbps(r) for label, r in records.items()}
    qemu_seq = mbps["QEMU Sequential Access"]
    remote = mbps["Remote Sequential Access"]
    remote_lat = records["Remote Sequential Access"]["worker_fault_latency_us"]
    fwd = mbps["Page forwarding Enabled"]
    fwd_lat = records["Page forwarding Enabled"]["worker_fault_latency_us"]
    qemu_128 = mbps["QEMU Access of 128 bytes"]
    false_sharing = mbps["False Sharing of 1 Page"]
    splitting = mbps["Page Splitting Enabled"]

    # Remote sequential access collapses (paper: 173 -> 7.88, ~22x).
    assert remote < qemu_seq / 10
    # Remote page latency calibrated to the paper's 410.5 us (+-20%).
    assert 330 <= remote_lat <= 500
    # Forwarding recovers most of the loss (paper: 7.88 -> 108, 13.7x).
    assert fwd > 5 * remote
    # ... and collapses the observed fault latency (paper: 83.2 us).
    assert fwd_lat < remote_lat / 3
    # False sharing of one page collapses aggregate bandwidth (paper: ~9x
    # below QEMU; our scaled run sustains ~2.6x — the contended phase is
    # bounded by wall-clock budget, see EXPERIMENTS.md).
    assert false_sharing < qemu_128 / 2.5
    # Page splitting restores parallel bandwidth past the single-node
    # baseline (paper: 75294 > 20259).
    assert splitting > 3 * false_sharing
    assert splitting > qemu_128
