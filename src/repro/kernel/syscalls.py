"""Guest syscall execution against the centralized system state (paper §4.3).

The master owns the authoritative system state (files, futexes, threads,
address-space layout); this module implements the syscalls against it.
Because syscalls may touch guest memory through the coherence protocol
(pointer arguments — the paper migrates those pages to the master), every
executor entry point is a *generator* in simulation-process style: it
``yield``s whatever events the guest-memory accessor needs and finally
returns a :class:`SyscallResult`.

Deviations from Linux, by design of the GA64 ISA:

* futex words are 64-bit (GA64 atomics are 64-bit only);
* ``clear_child_tid`` is zeroed as a 64-bit store on exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional, Protocol

from repro.kernel.futex import FutexTable
from repro.kernel.mm import MemoryManager
from repro.kernel.sysnums import ERRNO, FUTEX_OP_MASK, FUTEX_WAIT, FUTEX_WAKE, SYS
from repro.kernel.threads import ThreadRecord, ThreadTable
from repro.kernel.vfs import VFS

__all__ = ["KernelMemory", "SystemState", "SyscallResult", "SyscallExecutor", "CloneRequest"]


class KernelMemory(Protocol):
    """Guest-memory accessor used by the kernel (generator-based so the
    master can acquire pages through the DSM while executing a syscall)."""

    def read_guest(self, addr: int, size: int) -> Generator[Any, Any, bytes]:
        ...

    def write_guest(self, addr: int, data: bytes) -> Generator[Any, Any, None]:
        ...


@dataclass
class CloneRequest:
    flags: int
    child_stack: int
    ptid: int
    tls: int
    ctid: int


@dataclass
class SyscallResult:
    """Outcome of a syscall.

    ``action`` tells the delegation layer what to do next:

    * ``return``      — resume the thread with ``retval`` in a0;
    * ``blocked``     — park the thread (futex_wait); it is resumed later by
      a wake carrying its retval;
    * ``clone``       — the scheduler must place and start a child thread;
    * ``exit``        — the calling thread is done;
    * ``exit_group``  — the whole guest program is done;
    * ``migrate``     — move the calling thread to ``migrate_to``
      (``sched_setaffinity``: cpuset bit *k* selects node *k*).
    """

    retval: int = 0
    action: str = "return"
    woken: list[ThreadRecord] = field(default_factory=list)
    clone: Optional[CloneRequest] = None
    exit_status: int = 0
    migrate_to: int = -1


class SystemState:
    """Authoritative cluster-wide system state, kept on the master.

    One per admitted job: the VFS, futex namespace, thread table and memory
    map are the job's alone, which is what makes per-tenant isolation
    structural on a shared fleet.
    """

    def __init__(self, *, brk_start: int, stdin: bytes = b""):
        self.vfs = VFS(stdin=stdin)
        self.futexes = FutexTable()
        self.threads = ThreadTable()
        self.mm = MemoryManager(brk_start=brk_start)


def _ret(value: int) -> SyscallResult:
    return SyscallResult(retval=value & 0xFFFF_FFFF_FFFF_FFFF)


def _s(value: int) -> int:
    """Interpret a raw 64-bit argument as signed."""
    return value - (1 << 64) if value >= (1 << 63) else value


class SyscallExecutor:
    """Executes global syscalls for any guest thread against a SystemState
    (every node serves the local ones in its own trap)."""

    def __init__(self, state: SystemState, mem: KernelMemory):
        self.state = state
        self.mem = mem

    # -- helpers ----------------------------------------------------------------

    def _read_cstr(self, addr: int, limit: int = 4096) -> Generator[Any, Any, str]:
        out = bytearray()
        while len(out) < limit:
            chunk = yield from self.mem.read_guest(addr + len(out), 64)
            nul = chunk.find(0)
            if nul >= 0:
                out += chunk[:nul]
                return out.decode("utf-8", errors="replace")
            out += chunk
        return out.decode("utf-8", errors="replace")

    # -- dispatch ----------------------------------------------------------------

    def execute(self, tid: int, node: int, sysno: int, args: tuple[int, ...]
                ) -> Generator[Any, Any, SyscallResult]:
        """Run syscall ``sysno`` for thread ``tid``, called from ``node``
        (informational: the thread's record names its node)."""
        a = tuple(args) + (0,) * (6 - len(args))
        st = self.state

        if sysno == SYS.WRITE:
            fd, buf, count = a[0], a[1], _s(a[2])
            if count < 0:
                return _ret(-ERRNO.EINVAL)
            if count:
                data = yield from self.mem.read_guest(buf, count)
            else:
                data = b""
            return _ret(st.vfs.write(fd, data))

        if sysno == SYS.READ:
            fd, buf, count = a[0], a[1], _s(a[2])
            if count < 0:
                return _ret(-ERRNO.EINVAL)
            result = st.vfs.read(fd, count)
            if isinstance(result, int):
                return _ret(result)
            if result:
                yield from self.mem.write_guest(buf, result)
            return _ret(len(result))

        if sysno == SYS.OPENAT:
            path = yield from self._read_cstr(a[1])
            return _ret(st.vfs.openat(path, a[2]))

        if sysno == SYS.CLOSE:
            return _ret(st.vfs.close(a[0]))

        if sysno == SYS.LSEEK:
            return _ret(st.vfs.lseek(a[0], _s(a[1]), a[2]))

        if sysno == SYS.FUTEX:
            return (yield from self._futex(tid, a))

        if sysno == SYS.SET_TID_ADDRESS:
            st.threads.get(tid).clear_child_tid = a[0]
            return _ret(tid)

        if sysno == SYS.CLONE:
            return SyscallResult(
                action="clone",
                clone=CloneRequest(
                    flags=a[0], child_stack=a[1], ptid=a[2], tls=a[3], ctid=a[4],
                ),
            )

        if sysno == SYS.EXIT:
            return (yield from self.exit_thread(tid, _s(a[0])))

        if sysno == SYS.EXIT_GROUP:
            return SyscallResult(action="exit_group", exit_status=_s(a[0]) & 0xFF)

        if sysno == SYS.BRK:
            return _ret(st.mm.brk(a[0]))

        if sysno == SYS.MMAP:
            # (addr, length, prot, flags, fd, offset) — anonymous only
            return _ret(st.mm.mmap(_s(a[1])))

        if sysno == SYS.MUNMAP:
            return _ret(st.mm.munmap(a[0], _s(a[1])))

        if sysno == SYS.SCHED_SETAFFINITY:
            # (pid, cpusetsize, mask*) — pid 0/self only; in this cluster
            # cpuset bit k selects node k (live thread migration, §4.1).
            if a[0] not in (0, tid):
                return _ret(-ERRNO.EPERM)
            size = min(_s(a[1]) or 8, 8)
            if size <= 0:
                return _ret(-ERRNO.EINVAL)
            raw = yield from self.mem.read_guest(a[2], size)
            mask = int.from_bytes(raw, "little")
            if mask == 0:
                return _ret(-ERRNO.EINVAL)
            target = (mask & -mask).bit_length() - 1  # lowest set bit
            return SyscallResult(action="migrate", migrate_to=target)

        return _ret(-ERRNO.ENOSYS)

    # -- futex ------------------------------------------------------------

    def _futex(self, tid: int, a: tuple[int, ...]) -> Generator[Any, Any, SyscallResult]:
        uaddr, op, val = a[0], a[1] & FUTEX_OP_MASK, a[2]
        st = self.state
        if op == FUTEX_WAIT:
            raw = yield from self.mem.read_guest(uaddr, 8)
            current = int.from_bytes(raw, "little")
            if current != val:
                return _ret(-ERRNO.EAGAIN)
            st.futexes.enqueue(st.threads.get(tid), uaddr)
            return SyscallResult(action="blocked")
        if op == FUTEX_WAKE:
            woken = st.futexes.wake(uaddr, _s(val))
            return SyscallResult(retval=len(woken), woken=woken)
        return _ret(-ERRNO.ENOSYS)

    # -- thread exit ------------------------------------------------------------

    def exit_thread(self, tid: int, status: int) -> Generator[Any, Any, SyscallResult]:
        """The exit path: mark ``tid`` exited, zero its ``clear_child_tid``
        and wake its joiners.  The failure domain also reaps a thread whose
        context died with its node this way (status 137 = 128 + SIGKILL), so
        joiners unblock with the loss reported instead of hanging."""
        st = self.state
        rec = st.threads.mark_exited(tid, status)
        result = SyscallResult(action="exit", exit_status=status)
        if rec.clear_child_tid:
            # CLONE_CHILD_CLEARTID: zero the word and wake joiners.
            yield from self.mem.write_guest(rec.clear_child_tid, bytes(8))
            result.woken = st.futexes.wake(rec.clear_child_tid, 2**31)
        return result
