"""Emulated kernel layer: syscalls, VFS, futex table, thread table, mmap."""

from repro.kernel.classify import GLOBAL_SYSCALLS, LOCAL_SYSCALLS, is_global
from repro.kernel.futex import FutexTable
from repro.kernel.mm import MemoryManager
from repro.kernel.syscalls import (
    CloneRequest,
    KernelMemory,
    SyscallExecutor,
    SyscallResult,
    SystemState,
)
from repro.kernel.sysnums import ERRNO, FUTEX_WAIT, FUTEX_WAKE, SYS, sys_name
from repro.kernel.threads import ThreadRecord, ThreadTable
from repro.kernel.vfs import VFS

__all__ = [
    "CloneRequest",
    "ERRNO",
    "FUTEX_WAIT",
    "FUTEX_WAKE",
    "FutexTable",
    "GLOBAL_SYSCALLS",
    "KernelMemory",
    "LOCAL_SYSCALLS",
    "MemoryManager",
    "SYS",
    "SyscallExecutor",
    "SyscallResult",
    "SystemState",
    "ThreadRecord",
    "ThreadTable",
    "VFS",
    "is_global",
    "sys_name",
]
