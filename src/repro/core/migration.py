"""Remote thread creation (paper §4.1).

``clone()`` is trapped; the parent's CPU context plus the syscall parameters
travel to the master, which picks a node and ships a cloned context there.
The child "holds an identical execution environment as if a thread is
created locally": same registers and pc (just past the ecall), a0 = 0 (the
Linux clone convention for the child), and the new stack pointer.  The data
the child touches follows later through the coherence protocol.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.registers import A0, SP
from repro.kernel.syscalls import CloneRequest, KernelMemory, SystemState
from repro.kernel.sysnums import CLONE_CHILD_CLEARTID, CLONE_CHILD_SETTID, CLONE_PARENT_SETTID

__all__ = ["build_child_context", "create_child", "returning_zero"]


def build_child_context(parent_snapshot: dict, clone: CloneRequest, child_tid: int,
                        hint_group: Optional[int]) -> dict:
    """Construct the child's CPU snapshot from the parent's at the ecall."""
    regs = list(parent_snapshot["regs"])
    regs[A0] = 0  # clone returns 0 in the child
    if clone.child_stack:
        regs[SP] = clone.child_stack
    return {
        "regs": regs,
        "pc": parent_snapshot["pc"],  # already points past the ecall
        "tid": child_tid,
        "hint_group": hint_group,
    }


def create_child(state: SystemState, mem: KernelMemory, parent_snapshot: dict,
                 clone: CloneRequest, node: int):
    """Create ``clone``'s child on ``node``: its thread record, the
    ``CLONE_{PARENT,CHILD}_SETTID`` tid writes through ``mem``, and its CPU
    snapshot.  A kernel-style generator returning ``(tid, snapshot)``."""
    hint = parent_snapshot.get("hint_group")
    ctid = clone.ctid if clone.flags & CLONE_CHILD_CLEARTID else 0
    rec = state.threads.create(node=node, ctid=ctid)
    if clone.flags & CLONE_PARENT_SETTID and clone.ptid:
        yield from mem.write_guest(clone.ptid, rec.tid.to_bytes(8, "little"))
    if clone.flags & CLONE_CHILD_SETTID and clone.ctid:
        yield from mem.write_guest(clone.ctid, rec.tid.to_bytes(8, "little"))
    return rec.tid, build_child_context(parent_snapshot, clone, rec.tid, hint)


def returning_zero(snapshot: dict) -> dict:
    """A copy of ``snapshot`` whose a0 reads 0: a thread re-placed from inside
    a syscall resumes on its new node with that return value
    (``sched_setaffinity`` succeeded; a parked ``futex_wait`` woke
    spuriously)."""
    regs = list(snapshot["regs"])
    regs[A0] = 0
    return {**snapshot, "regs": regs}
