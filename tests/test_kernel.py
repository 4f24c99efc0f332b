"""Kernel-layer tests: VFS, futex table, threads, mm, syscall executor."""

import pytest

from repro.kernel import (
    ERRNO,
    FUTEX_WAIT,
    FUTEX_WAKE,
    FutexTable,
    MemoryManager,
    SYS,
    SyscallExecutor,
    SystemState,
    ThreadRecord,
    ThreadTable,
    VFS,
)
from repro.kernel.vfs import O_APPEND, O_CREAT, O_RDONLY, O_RDWR, O_TRUNC, O_WRONLY
from repro.mem import FlatMemory, MMAP_BASE


class DirectKernelMemory:
    """KernelMemory over FlatMemory; generators that never need to yield."""

    def __init__(self, mem: FlatMemory):
        self.mem = mem

    def read_guest(self, addr, size):
        return self.mem.read_bytes(addr, size)
        yield  # pragma: no cover — makes this a generator

    def write_guest(self, addr, data):
        self.mem.write_bytes(addr, data)
        return None
        yield  # pragma: no cover


def drive(gen):
    """Run a kernel generator to completion (no sim events in unit tests)."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("kernel generator yielded unexpectedly in unit test")


@pytest.fixture
def kernel():
    mem = FlatMemory()
    state = SystemState(brk_start=0x20_0000, stdin=b"hello stdin")
    state.threads.create(node=0)  # main thread, tid 1
    executor = SyscallExecutor(state, DirectKernelMemory(mem))
    return state, executor, mem


def syscall(executor, sysno, *args, tid=1, node=0):
    return drive(executor.execute(tid, node, sysno, tuple(args)))


class TestVFS:
    def test_stdout_capture(self):
        vfs = VFS()
        assert vfs.write(1, b"hi") == 2
        assert vfs.stdout_text() == "hi"

    def test_stderr_capture(self):
        vfs = VFS()
        vfs.write(2, b"oops")
        assert vfs.stderr_text() == "oops"

    def test_stdin_reads_sequentially(self):
        vfs = VFS(stdin=b"abcdef")
        assert vfs.read(0, 3) == b"abc"
        assert vfs.read(0, 10) == b"def"
        assert vfs.read(0, 10) == b""

    def test_open_missing_without_creat(self):
        vfs = VFS()
        assert vfs.openat("nope.txt", O_RDONLY) == -ERRNO.ENOENT

    def test_create_write_read_roundtrip(self):
        vfs = VFS()
        fd = vfs.openat("f.txt", O_CREAT | O_RDWR)
        assert fd >= 3
        assert vfs.write(fd, b"content") == 7
        vfs.lseek(fd, 0, 0)
        assert vfs.read(fd, 100) == b"content"
        assert vfs.close(fd) == 0
        assert vfs.read(fd, 1) == -ERRNO.EBADF

    def test_trunc_clears(self):
        vfs = VFS()
        vfs.add_file("f", b"old data")
        fd = vfs.openat("f", O_WRONLY | O_TRUNC)
        vfs.write(fd, b"new")
        assert vfs.file_bytes("f") == b"new"

    def test_append_positions_at_end(self):
        vfs = VFS()
        vfs.add_file("f", b"start")
        fd = vfs.openat("f", O_WRONLY | O_APPEND)
        vfs.write(fd, b"+end")
        assert vfs.file_bytes("f") == b"start+end"

    def test_write_to_readonly_fd_rejected(self):
        vfs = VFS()
        vfs.add_file("f", b"x")
        fd = vfs.openat("f", O_RDONLY)
        assert vfs.write(fd, b"y") == -ERRNO.EBADF

    def test_lseek_modes(self):
        vfs = VFS()
        vfs.add_file("f", b"0123456789")
        fd = vfs.openat("f", O_RDONLY)
        assert vfs.lseek(fd, 4, 0) == 4  # SET
        assert vfs.lseek(fd, 2, 1) == 6  # CUR
        assert vfs.lseek(fd, -1, 2) == 9  # END
        assert vfs.lseek(fd, -100, 0) == -ERRNO.EINVAL

    def test_sparse_write_pads_with_zeros(self):
        vfs = VFS()
        fd = vfs.openat("f", O_CREAT | O_RDWR)
        vfs.lseek(fd, 4, 0)
        vfs.write(fd, b"x")
        assert vfs.file_bytes("f") == b"\x00\x00\x00\x00x"


def _park(table, uaddr, *tids):
    """Park a fresh record per tid on ``uaddr`` (tid t on node t % 2)."""
    recs = [ThreadRecord(tid=tid, node=tid % 2) for tid in tids]
    for rec in recs:
        table.enqueue(rec, uaddr)
    return recs


class TestFutexTable:
    def test_fifo_wake_order(self):
        for tids, count in (((5, 6, 7), 2), ((3, 1, 2), 1), ((9, 4, 8, 2, 6), 3)):
            t = FutexTable()
            _park(t, 0x1000, *tids)
            woken = t.wake(0x1000, count)
            assert [w.tid for w in woken] == list(tids[:count])
            assert [w.tid for w in t.wake(0x1000, 10)] == list(tids[count:])
            assert t.n_sleeping == 0

    def test_wake_empty_address(self):
        t = FutexTable()
        assert t.wake(0x2000, 1) == []
        _park(t, 0x1000, 1)
        assert t.wake(0x2000, 1) == []
        assert t.wake(0x1000, 0) == [] and t.wake(0x1000, -1) == []

    def test_waiter_records_node(self):
        t = FutexTable()
        rec = ThreadRecord(tid=9, node=3)
        t.enqueue(rec, 0x1000)
        rec.context = {"pc": 4}
        assert rec.futex == 0x1000
        (w,) = t.wake(0x1000, 1)
        assert w is rec and w.node == 3
        assert rec.futex is None and rec.context is None  # un-parked

    def test_remove_sleeping_thread(self):
        # Removing a record from anywhere in a queue keeps the rest in order.
        tids = (1, 2, 3, 4)
        for i, gone in enumerate(tids):
            t = FutexTable()
            recs = _park(t, 0x1000, *tids)
            other = _park(t, 0x2000, 7)
            assert t.remove(recs[i]) is True
            assert recs[i].futex is None
            assert t.remove(recs[i]) is False
            rest = [tid for tid in tids if tid != gone]
            assert [w.tid for w in t.waiters(0x1000)] == rest
            assert [w.tid for w in t.wake(0x1000, 10)] == rest
            assert t.waiters(0x2000) == tuple(other)
        assert FutexTable().remove(ThreadRecord(tid=99, node=0)) is False

    def test_counters(self):
        t = FutexTable()
        _park(t, 1, 1)
        (rec,) = _park(t, 2, 2)
        t.wake(1, 1)
        assert t.n_sleeping == 1
        t.remove(rec)
        assert t.n_sleeping == 0


class TestThreadTable:
    def test_tids_sequential_from_one(self):
        t = ThreadTable()
        assert t.create(node=0).tid == 1
        assert t.create(node=1).tid == 2

    def test_lifecycle(self):
        t = ThreadTable()
        rec = t.create(node=2)
        assert rec.exit_status is None and t.alive() == [rec]
        t.mark_exited(rec.tid, 7)
        assert t.get(rec.tid).exit_status == 7
        assert t.alive() == []

    def test_on_node(self):
        t = ThreadTable()
        t.create(node=0)
        t.create(node=1)
        t.create(node=1)
        assert len(t.on_node(1)) == 2

    def test_move(self):
        t = ThreadTable()
        rec = t.create(node=0)
        rec.node = 4  # what a landing does
        assert t.on_node(4) == [rec] and t.on_node(0) == []


class TestMemoryManager:
    def test_brk_grow_and_query(self):
        mm = MemoryManager(brk_start=0x20_0000)
        base = mm.brk(0)
        assert base == 0x20_0000
        assert mm.brk(base + 0x5000) == base + 0x5000

    def test_brk_bad_address_returns_current(self):
        mm = MemoryManager(brk_start=0x20_0000)
        cur = mm.brk(0)
        assert mm.brk(0x1000) == cur  # below start: refused

    def test_mmap_page_aligned_and_disjoint(self):
        mm = MemoryManager(brk_start=0x20_0000)
        a = mm.mmap(100)
        b = mm.mmap(5000)
        assert a % 4096 == 0 and b % 4096 == 0
        assert b >= a + 4096
        assert a >= MMAP_BASE

    def test_munmap_validates(self):
        mm = MemoryManager(brk_start=0x20_0000)
        a = mm.mmap(8192)
        assert mm.munmap(a, 8192) == 0
        assert mm.munmap(a, 8192) == -ERRNO.EINVAL

    def test_mmap_invalid_length(self):
        mm = MemoryManager(brk_start=0x20_0000)
        assert mm.mmap(0) == -ERRNO.EINVAL


class TestSyscallExecutor:
    def test_write_reads_guest_buffer(self, kernel):
        state, executor, mem = kernel
        mem.write_bytes(0x5000, b"hello world")
        res = syscall(executor, SYS.WRITE, 1, 0x5000, 11)
        assert res.retval == 11
        assert state.vfs.stdout_text() == "hello world"

    def test_read_writes_guest_buffer(self, kernel):
        state, executor, mem = kernel
        res = syscall(executor, SYS.READ, 0, 0x6000, 5)
        assert res.retval == 5
        assert mem.read_bytes(0x6000, 5) == b"hello"

    def test_openat_reads_path_string(self, kernel):
        state, executor, mem = kernel
        state.vfs.add_file("data.bin", b"\x01\x02")
        mem.write_bytes(0x7000, b"data.bin\x00")
        res = syscall(executor, SYS.OPENAT, 0, 0x7000, O_RDONLY)
        assert res.retval >= 3

    def test_futex_wait_blocks_when_value_matches(self, kernel):
        state, executor, mem = kernel
        mem.store(0x8000, 8, 42)
        res = syscall(executor, SYS.FUTEX, 0x8000, FUTEX_WAIT, 42)
        assert res.action == "blocked"
        assert state.threads.get(1).futex == 0x8000
        assert state.futexes.waiters(0x8000) == (state.threads.get(1),)

    def test_futex_wait_eagain_on_mismatch(self, kernel):
        state, executor, mem = kernel
        mem.store(0x8000, 8, 41)
        res = syscall(executor, SYS.FUTEX, 0x8000, FUTEX_WAIT, 42)
        assert res.action == "return"
        assert res.retval == (-ERRNO.EAGAIN) & (2**64 - 1)

    def test_futex_wake_returns_waiters(self, kernel):
        state, executor, mem = kernel
        t2 = state.threads.create(node=1)
        mem.store(0x8000, 8, 1)
        syscall(executor, SYS.FUTEX, 0x8000, FUTEX_WAIT, 1, tid=t2.tid, node=1)
        res = syscall(executor, SYS.FUTEX, 0x8000, FUTEX_WAKE, 10)
        assert res.retval == 1
        assert res.woken[0].tid == t2.tid
        assert res.woken[0].node == 1
        assert t2.futex is None and state.futexes.n_sleeping == 0

    def test_clone_returns_request(self, kernel):
        state, executor, mem = kernel
        res = syscall(executor, SYS.CLONE, 0x11, 0x4100_0000, 0, 0, 0x9000)
        assert res.action == "clone"
        assert res.clone.child_stack == 0x4100_0000
        assert res.clone.ctid == 0x9000

    def test_exit_clears_ctid_and_wakes_joiner(self, kernel):
        state, executor, mem = kernel
        t2 = state.threads.create(node=1, ctid=0xA000)
        mem.store(0xA000, 8, t2.tid)
        # main joins: futex_wait on the ctid word
        syscall(executor, SYS.FUTEX, 0xA000, FUTEX_WAIT, t2.tid, tid=1, node=0)
        res = syscall(executor, SYS.EXIT, 0, tid=t2.tid, node=1)
        assert res.action == "exit"
        assert mem.load(0xA000, 8, False) == 0
        assert [w.tid for w in res.woken] == [1]

    def test_exit_group(self, kernel):
        state, executor, mem = kernel
        res = syscall(executor, SYS.EXIT_GROUP, 3)
        assert res.action == "exit_group"
        assert res.exit_status == 3

    def test_mmap_munmap_via_syscall(self, kernel):
        state, executor, mem = kernel
        res = syscall(executor, SYS.MMAP, 0, 16384, 3, 0x22, -1, 0)
        addr = res.retval
        assert addr >= MMAP_BASE
        assert syscall(executor, SYS.MUNMAP, addr, 16384).retval == 0

    def test_unknown_syscall_enosys(self, kernel):
        state, executor, mem = kernel
        res = syscall(executor, 9999)
        assert res.retval == (-ERRNO.ENOSYS) & (2**64 - 1)


class TestClassification:
    def test_paper_examples(self):
        from repro.kernel import is_global

        assert is_global(SYS.READ)
        assert is_global(SYS.WRITE)
        assert not is_global(SYS.GETTIMEOFDAY)

    def test_unknown_syscalls_are_global(self):
        from repro.kernel import is_global

        assert is_global(12345)
