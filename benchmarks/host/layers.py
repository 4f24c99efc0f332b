"""Fold one cProfile pass into per-layer self time and boundary call counts.

Layers are this repository's packages.  Self time (``tottime``) is folded by
the source path of the function that spent it, so shares sum to 1 and nothing
is counted twice.  cProfile taxes every Python call but no native work, which
shifts the proportions: shares from a profiled pass are compared only with
other profiled passes, never with the untraced end-to-end numbers.
"""

from __future__ import annotations

import cProfile
import pstats

BUCKETS = (
    "isa", "dbt_translate", "dbt_generated", "dbt_engine", "dbt_fpu",
    "mem", "sim", "net", "kernel", "core", "builtins", "other",
)

_DBT_FILES = {
    "frontend.py": "dbt_translate", "backend.py": "dbt_translate", "tcg.py": "dbt_translate",
    "fpu.py": "dbt_fpu", "runtime.py": "dbt_fpu",
}
#: Boundary functions whose call counts repeat exactly run to run:
#: metric -> (path suffix, function names).  ``dispatch`` is a generator, and
#: cProfile counts every resume of one, so that count is resumes.
BOUNDARIES = {
    "prof.sim.events": ("repro/sim/engine.py", ("step",)),
    "prof.mem.accesses": ("repro/core/dsmmem.py", ("load", "store")),
    "prof.dbt.quanta": ("repro/dbt/engine.py", ("run_quantum",)),
    "prof.dbt.blocks_compiled": ("repro/dbt/backend.py", ("compile", "compile_superblock")),
    "prof.net.transmits": ("repro/net/fabric.py", ("transmit",)),
    "prof.core.dispatches": ("repro/core/services/base.py", ("dispatch",)),
}


def bucket_of(filename: str, funcname: str) -> str:
    """The layer that owns a profiled function."""
    if filename.startswith(("<tb@", "<sb@")):
        return "dbt_generated"
    if filename == "~":  # C builtins; the backend's compile()/exec() are translation
        return "dbt_translate" if funcname in (
            "<built-in method builtins.compile>", "<built-in method builtins.exec>"
        ) else "builtins"
    path = filename.replace("\\", "/")
    if "/repro/" not in path:
        return "other"
    package, _, rest = path.split("/repro/", 1)[1].partition("/")
    if package == "dbt":
        return _DBT_FILES.get(rest, "dbt_engine")
    if package == "core" and rest in ("dsmmem.py", "llsc.py"):
        return "mem"
    if package in ("guestlib", "workloads"):
        return "isa"  # counted as program build cost
    return package if package in BUCKETS else "other"


def fold(profile: cProfile.Profile, insns: int) -> dict[str, float]:
    """``prof.*`` metrics of one profiled region that executed ``insns``."""
    stats = pstats.Stats(profile).stats  # (file, line, func) -> (cc, nc, tt, ct, callers)
    self_time = dict.fromkeys(BUCKETS, 0.0)
    counts = dict.fromkeys(BOUNDARIES, 0)
    calls = 0
    for (filename, _line, funcname), (_cc, nc, tottime, _ct, _callers) in stats.items():
        self_time[bucket_of(filename, funcname)] += tottime
        calls += nc
        path = filename.replace("\\", "/")
        for metric, (suffix, names) in BOUNDARIES.items():
            if funcname in names and path.endswith(suffix):
                counts[metric] += nc
    total = sum(self_time.values())
    out: dict[str, float] = {
        f"prof.{bucket}.self_share": spent / total for bucket, spent in self_time.items()
    }
    out.update(counts)
    out["prof.py_calls_per_kinsn"] = calls / (insns / 1000)
    return out
