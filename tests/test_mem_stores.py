"""PageStore unit tests, and the contract every guest memory keeps: the
cluster memory (with its pages resident Modified), the QEMU baseline's private
memory and a bare FlatMemory run one implementation, checked here as one."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cluster import Cluster
from repro.core.config import DQEMUConfig
from repro.core.dsmmem import DSMMemory
from repro.core.llsc import LLSCTable
from repro.core.node import NodeRuntime
from repro.core.stats import RunStats
from repro.dbt import CPUState
from repro.errors import SegmentationFault, UnalignedAccess
from repro.mem import FlatMemory, MSIState, PAGE_SIZE, PageStore
from repro.mem.api import sign_extend
from repro.mem.splitmap import SplitMap
from repro.net.fabric import Fabric
from repro.sim import Simulator
from repro.workloads import memaccess

#: Pages the contract cases touch; the cluster variant holds them Modified.
PAGES = (0, 1, 2, 3, 0x123)


def cluster_memory():
    store = PageStore()
    for page in PAGES:
        store.ensure(page, MSIState.MODIFIED)
    return DSMMemory(store, SplitMap(), LLSCTable())


def baseline_memory():
    """The memory a pure-QEMU node executes against."""
    sim = Simulator()
    node = NodeRuntime(sim, Fabric(sim), 0, DQEMUConfig(pure_qemu=True), RunStats())
    return node.bundle(0).memory


VARIANTS = {"cluster": cluster_memory, "baseline": baseline_memory, "flat": FlatMemory}


@pytest.fixture(params=VARIANTS)
def mem(request):
    return VARIANTS[request.param]()


class TestPageStore:
    def test_default_state_invalid(self):
        ps = PageStore()
        assert ps.state(5) is MSIState.INVALID
        assert not ps.has_read(5)
        assert not ps.has_write(5)

    def test_install_and_read(self):
        ps = PageStore()
        data = bytes(range(256)) * 16
        ps.install(3, data, MSIState.SHARED)
        assert ps.has_read(3)
        assert not ps.has_write(3)
        assert ps.read(3 * PAGE_SIZE + 1, 1) == 1

    def test_install_wrong_size_rejected(self):
        ps = PageStore()
        with pytest.raises(ValueError):
            ps.install(1, b"short", MSIState.SHARED)

    def test_modified_grants_write(self):
        ps = PageStore()
        ps.ensure(2, MSIState.MODIFIED)
        assert ps.has_write(2)
        ps.write(2 * PAGE_SIZE, 8, 0xDEAD)
        assert ps.read(2 * PAGE_SIZE, 8) == 0xDEAD

    def test_drop_returns_content(self):
        ps = PageStore()
        ps.ensure(2, MSIState.MODIFIED)
        ps.write(2 * PAGE_SIZE, 4, 77)
        content = ps.drop(2)
        assert content is not None and len(content) == PAGE_SIZE
        assert int.from_bytes(content[:4], "little") == 77
        assert ps.state(2) is MSIState.INVALID
        assert ps.drop(2) is None

    def test_access_without_copy_is_segfault(self):
        ps = PageStore()
        with pytest.raises(SegmentationFault):
            ps.read(0x5000, 8)

    def test_set_state_invalid_clears(self):
        ps = PageStore()
        ps.ensure(1, MSIState.SHARED)
        ps.set_state(1, MSIState.INVALID)
        assert ps.state(1) is MSIState.INVALID
        # data copy still present until dropped (write-back keeps it readable)
        assert 1 in ps

    def test_len_and_pages(self):
        ps = PageStore()
        ps.ensure(1, MSIState.SHARED)
        ps.ensure(9, MSIState.MODIFIED)
        assert len(ps) == 2
        assert sorted(ps.pages()) == [1, 9]


# -- the buffer rule: one host buffer per page version --------------------------

_S, _E, _M = MSIState.SHARED, MSIState.EXCLUSIVE, MSIState.MODIFIED
_STORE_OPS = st.tuples(
    st.sampled_from(
        ["install", "set_state", "upgrade", "ensure", "raw", "write_bytes", "snapshot", "drop"]
    ),
    st.integers(0, 1),  # which store
    st.integers(0, 1),  # page
    st.sampled_from([_S, _E, _M]),
    st.integers(0, PAGE_SIZE - 1),  # offset; also picks the snapshot to install
    st.binary(min_size=1, max_size=8),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_STORE_OPS, min_size=10, max_size=60))
def test_buffer_rule(ops):
    """Two stores exchanging snapshots, against a model of page -> (bytes,
    state): contents always match, a Modified page is always a private
    ``bytearray``, a copy nobody writes is the very ``bytes`` it was
    installed from or snapshotted into, and no ``bytes`` a store returned or
    took in ever changes afterwards."""
    stores = (PageStore(), PageStore())
    models: tuple[dict, dict] = ({}, {})
    handed: list[tuple[bytes, bytes]] = []  # (object, independent copy)
    snaps = [bytes(range(256)) * (PAGE_SIZE // 256)]
    for name, k, page, state, off, payload in ops:
        store, model = stores[k], models[k]
        held = page in model
        payload = payload[: PAGE_SIZE - off]
        if name == "install":
            data = snaps[off % len(snaps)]
            store.install(page, data, state)
            model[page] = (data, state)
            handed.append((data, bytes(bytearray(data))))
            if state is not _M:
                assert store._pages[page] is data
        elif name == "ensure":
            store.ensure(page, state)
            model[page] = (model[page][0] if held else bytes(PAGE_SIZE), state)
        elif name == "drop":
            assert store.drop(page) == (model.pop(page)[0] if held else None)
        elif not held:
            continue
        elif name == "set_state":
            store.set_state(page, state)
            model[page] = (model[page][0], state)
        elif name == "upgrade":
            was = model[page][1]
            assert store.silently_upgrade(page) == (was is _E)
            model[page] = (model[page][0], _M if was is _E else was)
        elif name in ("raw", "write_bytes"):
            if name == "raw":
                store.raw(page)[off : off + len(payload)] = payload
            else:
                store.write_bytes(page * PAGE_SIZE + off, payload)
            content = bytearray(model[page][0])
            content[off : off + len(payload)] = payload
            model[page] = (bytes(content), model[page][1])
        else:  # snapshot
            snap = store.snapshot(page)
            assert type(snap) is bytes and snap == model[page][0]
            if model[page][1] is not _M:
                assert store._pages[page] is snap
            handed.append((snap, bytes(bytearray(snap))))
            snaps.append(snap)
        for st_, md in zip(stores, models):
            assert set(st_.pages()) == set(md)
            for p, (content, p_state) in md.items():
                assert st_.read_bytes(p * PAGE_SIZE, PAGE_SIZE) == content
                assert st_.state(p) is p_state
                if p_state is _M:
                    assert type(st_._pages[p]) is bytearray
        for obj, copy in handed:
            assert type(obj) is bytes and obj == copy


def test_page_buffers_per_version_are_pinned():
    """Host memory's exact count, the twin of the CI call-count guard: after
    a small private-RMW run and its checksum read, the home and the three
    nodes hold 31 page copies in 15 distinct buffers (34 in 34 when every
    holder kept a private copy and the ``.bss`` was loaded as zeros).  A
    change that copies a page nobody writes, or materialises one nobody
    touched, moves it."""
    cluster = Cluster(2)
    r = cluster.run(memaccess.build_private_rmw(2, 2, pages_per_thread=2, passes=2, stride=8))
    assert r.exit_code == 0
    stores = [cluster.jobs[0].runtime.master.home] + [
        node.tenants[0].memory.pages for node in cluster._fleet.nodes.values()
    ]
    buffers = {id(store._pages[page]) for store in stores for page in store.pages()}
    assert len(buffers) == 15


class TestPrivateMemory:
    def test_untouched_page_reads_zero(self):
        for make in (baseline_memory, FlatMemory):
            assert make().load(0x7654_3210, 8, False) == 0

    def test_zero_fill_is_a_modified_page(self):
        mem = FlatMemory()
        mem.store(0x5008, 8, 5)
        assert mem.pages.state(5) is MSIState.MODIFIED
        assert mem.load(0x5008, 8, False) == 5


class TestMemoryContract:
    def test_cross_page_write_bytes_allowed(self, mem):
        """Bulk (loader, kernel) accesses may span pages; guest accesses may not."""
        addr = PAGE_SIZE - 2
        mem.write_bytes(addr, b"\x01\x02\x03\x04")
        assert mem.read_bytes(addr, 4) == b"\x01\x02\x03\x04"
        assert mem.load(PAGE_SIZE, 2, False) == 0x0403

    def test_guest_access_cross_page_rejected(self, mem):
        with pytest.raises(UnalignedAccess):
            mem.load(PAGE_SIZE - 2, 4, False)
        with pytest.raises(UnalignedAccess):
            mem.store(PAGE_SIZE - 1, 2, 0)
        with pytest.raises(UnalignedAccess):
            mem.fetch_code(PAGE_SIZE - 2, 4)

    def test_unaligned_atomic_rejected(self, mem):
        with pytest.raises(UnalignedAccess):
            mem.atomic_add(CPUState(tid=1), 0x1004, 1)

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_narrow_loads_sign_extend_on_request(self, mem, size):
        mem.store(0x123456, size, -2)
        assert mem.load(0x123456, size, False) == (1 << (8 * size)) - 2
        assert mem.load(0x123456, size, True) == 2**64 - 2

    def test_sign_extension_helper(self):
        assert sign_extend(0xFF, 1) == 2**64 - 1
        assert sign_extend(0x7F, 1) == 0x7F
        assert sign_extend(0x8000, 2) == 2**64 - 0x8000

    def test_reservation_killed_by_other_thread_store(self, mem):
        cpu1 = CPUState(tid=1)
        mem.store(0x1000, 8, 5)
        mem.load_reserved(cpu1, 0x1000)
        mem.store(0x1000, 8, 6)  # thread 2 stores into the reserved cell
        assert mem.store_conditional(cpu1, 0x1000, 7) is False
        assert mem.load(0x1000, 8, False) == 6

    def test_reservation_killed_by_overlapping_narrow_store(self, mem):
        cpu = CPUState(tid=1)
        mem.load_reserved(cpu, 0x1000)
        mem.store(0x1004, 1, 9)  # 1-byte store inside the reserved cell
        assert mem.store_conditional(cpu, 0x1000, 7) is False

    def test_reservation_killed_by_kernel_write(self, mem):
        cpu = CPUState(tid=1)
        mem.load_reserved(cpu, 0x1008)
        mem.write_bytes(0x1000, bytes(16))  # e.g. a timespec written over it
        assert mem.store_conditional(cpu, 0x1008, 7) is False

    def test_two_threads_can_both_reserve(self, mem):
        """LL by two threads: first SC wins, second fails (its reservation
        is killed by the successful store)."""
        cpu1, cpu2 = CPUState(tid=1), CPUState(tid=2)
        mem.load_reserved(cpu1, 0x2000)
        mem.load_reserved(cpu2, 0x2000)
        assert mem.store_conditional(cpu1, 0x2000, 1) is True
        assert mem.store_conditional(cpu2, 0x2000, 2) is False
        assert mem.load(0x2000, 8, False) == 1

    def test_sc_to_different_address_fails(self, mem):
        cpu = CPUState(tid=1)
        mem.load_reserved(cpu, 0x3000)
        assert mem.store_conditional(cpu, 0x3008, 1) is False


# -- differential: the variants are one implementation ---------------------------

_ADDR = st.builds(
    lambda page, cell, byte: (page << 12) + 8 * cell + byte,
    st.sampled_from(PAGES[:3]), st.integers(0, 3), st.integers(0, 7),
)
_CELL = _ADDR.map(lambda a: a & ~7)
_VALUE = st.one_of(st.integers(0, 2), st.integers(0, 2**64 - 1))  # small ones let CAS match
_TID = st.sampled_from([1, 2])
_SIZE = st.sampled_from([1, 2, 4, 8])
_OPS = st.one_of(
    st.tuples(st.just("load"), _ADDR, _SIZE, st.booleans()),
    st.tuples(st.just("store"), _ADDR, _SIZE, _VALUE),
    st.tuples(st.just("load_reserved"), _TID, _CELL),
    st.tuples(st.just("store_conditional"), _TID, _CELL, _VALUE),
    st.tuples(st.just("atomic_cas"), _TID, _CELL, _VALUE, _VALUE),
    st.tuples(st.just("atomic_add"), _TID, _CELL, _VALUE),
    st.tuples(st.just("atomic_swap"), _TID, _CELL, _VALUE),
)


def apply(mem, op):
    name, *args = op
    if name not in ("load", "store"):
        args[0] = CPUState(tid=args[0])
    return getattr(mem, name)(*args)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_OPS, max_size=40))
def test_variants_agree(ops):
    mems = [make() for make in VARIANTS.values()]
    for op in ops:
        results = [apply(mem, op) for mem in mems]
        assert results[1:] == results[:-1], op
    for page in PAGES[:3]:
        images = [mem.read_bytes(page << 12, PAGE_SIZE) for mem in mems]
        assert images[1:] == images[:-1]


@settings(max_examples=100, deadline=None)
@given(
    addr=st.integers(0, 2**32).map(lambda a: a & ~7),
    value=st.integers(0, 2**64 - 1),
    size=st.sampled_from([1, 2, 4, 8]),
)
def test_store_load_roundtrip(addr, value, size):
    mem = FlatMemory()
    mem.store(addr, size, value)
    mask = (1 << (8 * size)) - 1
    assert mem.load(addr, size, False) == value & mask
    expected_signed = sign_extend(value & mask, size) if size < 8 else value & mask
    assert mem.load(addr, size, True) == expected_signed
