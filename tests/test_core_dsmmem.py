"""DSMMemory unit tests: protection checks, split translation, atomics, the
length of the resident access path and node-side page teardown.  What every
memory variant shares is tested once in test_mem_stores.py."""

import pytest

from repro.core.config import DQEMUConfig
from repro.core.dsmmem import DSMMemory, MergeStall
from repro.core.llsc import LLSCTable
from repro.core.node import NodeRuntime
from repro.core.stats import RunStats
from repro.dbt.cpu import CPUState
from repro.mem.api import PageStall
from repro.mem.msi import MSIState
from repro.mem.pagestore import PageStore
from repro.mem.splitmap import SplitEntry, SplitMap
from repro.net.fabric import Fabric
from repro.net.messages import Invalidate, SplitTableUpdate
from repro.sim import Simulator
from tests.conftest import python_calls

PAGE = 0x10
BASE = PAGE << 12


def make_mem():
    store, split, llsc = PageStore(), SplitMap(), LLSCTable()
    return DSMMemory(store, split, llsc), store, split, llsc


def cpu(tid=1):
    return CPUState(tid=tid)


class TestProtection:
    def test_read_of_absent_page_stalls(self):
        mem, *_ = make_mem()
        with pytest.raises(PageStall) as exc:
            mem.load(BASE + 8, 8, False)
        assert exc.value.page == PAGE
        assert exc.value.write is False
        assert exc.value.offset == 8
        assert exc.value.size == 8

    def test_write_to_shared_page_stalls_for_upgrade(self):
        mem, store, *_ = make_mem()
        store.install(PAGE, bytes(4096), MSIState.SHARED)
        assert mem.load(BASE, 8, False) == 0  # read OK
        with pytest.raises(PageStall) as exc:
            mem.store(BASE + 16, 1, 7)
        assert exc.value.write is True
        assert exc.value.size == 1

    def test_modified_page_fully_accessible(self):
        mem, store, *_ = make_mem()
        store.install(PAGE, bytes(4096), MSIState.MODIFIED)
        mem.store(BASE, 8, 0xABCD)
        assert mem.load(BASE, 8, False) == 0xABCD

    def test_fetch_code_needs_read(self):
        mem, store, *_ = make_mem()
        with pytest.raises(PageStall):
            mem.fetch_code(BASE, 4)
        store.install(PAGE, b"\x01" * 4096, MSIState.SHARED)
        assert mem.fetch_code(BASE, 4) == b"\x01\x01\x01\x01"


class TestSplitTranslation:
    def setup_method(self):
        self.mem, self.store, self.split, self.llsc = make_mem()
        self.shadows = (0x60000, 0x60001)
        self.split.install(SplitEntry(PAGE, self.shadows, 2048))

    def test_access_routed_to_shadow_page(self):
        self.store.install(self.shadows[1], bytes(4096), MSIState.MODIFIED)
        addr = BASE + 2048 + 8  # region 1
        self.mem.store(addr, 8, 42)
        assert self.store.read((self.shadows[1] << 12) + 2048 + 8, 8) == 42

    def test_stall_names_shadow_page(self):
        with pytest.raises(PageStall) as exc:
            self.mem.load(BASE + 100, 8, False)  # region 0, shadow absent
        assert exc.value.page == self.shadows[0]

    def test_region_crossing_raises_merge_stall(self):
        with pytest.raises(MergeStall) as exc:
            self.mem.load(BASE + 2044, 8, False)
        assert exc.value.orig_page == PAGE

    def test_atomic_on_split_page(self):
        self.store.install(self.shadows[0], bytes(4096), MSIState.MODIFIED)
        c = cpu()
        assert self.mem.atomic_add(c, BASE + 8, 5) == 0
        assert self.store.read((self.shadows[0] << 12) + 8, 8) == 5


class TestAtomics:
    def test_lr_needs_read_sc_needs_write(self):
        mem, store, _, llsc = make_mem()
        store.install(PAGE, bytes(4096), MSIState.SHARED)
        c = cpu()
        assert mem.load_reserved(c, BASE) == 0  # S suffices for LL
        with pytest.raises(PageStall) as exc:
            mem.store_conditional(c, BASE, 1)  # SC stores -> needs M (Fig. 3)
        assert exc.value.write

    def test_sc_succeeds_with_modified_and_reservation(self):
        mem, store, _, llsc = make_mem()
        store.install(PAGE, bytes(4096), MSIState.MODIFIED)
        c = cpu()
        mem.load_reserved(c, BASE)
        assert mem.store_conditional(c, BASE, 99) is True
        assert mem.load(BASE, 8, False) == 99

    def test_reservation_killed_by_page_invalidation(self):
        """The paper's false-positive SC scheme (§4.4)."""
        mem, store, _, llsc = make_mem()
        store.install(PAGE, bytes(4096), MSIState.MODIFIED)
        c = cpu()
        mem.load_reserved(c, BASE)
        assert mem.invalidate(PAGE) == bytes(4096)  # coherence invalidation
        store.install(PAGE, bytes(4096), MSIState.MODIFIED)  # re-acquired
        assert mem.store_conditional(c, BASE, 1) is False
        assert llsc.spurious_kills == 1

    def test_cas_requires_modified(self):
        mem, store, *_ = make_mem()
        store.install(PAGE, bytes(4096), MSIState.SHARED)
        with pytest.raises(PageStall):
            mem.atomic_cas(cpu(), BASE, 0, 1)


class TestResidentPathLength:
    """A resident, unsplit, reservation-free access is the softmmu-hit case:
    it must stay a couple of frames, not a walk through the layers."""

    def setup_method(self):
        self.mem, store, *_ = make_mem()
        store.install(PAGE, bytes(4096), MSIState.MODIFIED)

    def test_load_is_at_most_two_python_calls(self):
        calls = python_calls(self.mem.load, BASE + 8, 8, False)
        assert len(calls) <= 2, calls

    def test_store_is_at_most_two_python_calls(self):
        calls = python_calls(self.mem.store, BASE + 8, 8, 7)
        assert len(calls) <= 2, calls
        assert self.mem.load(BASE + 8, 8, False) == 7


class TestNodeSideTeardown:
    """Reservations die with their page whichever handler drops it: an SC on
    a page the node lost must fail even after the page comes back."""

    SHADOWS = (0x60000, 0x60001)

    def setup_method(self):
        self.sim = Simulator()
        fabric = Fabric(self.sim)
        self.master, self.node = (
            NodeRuntime(self.sim, fabric, nid, DQEMUConfig(), RunStats()) for nid in (0, 1)
        )
        self.node.start()
        self.mem = self.node.bundle(0).memory

    def command(self, msg):
        self.master.endpoint.request(self.node.node_id, msg)
        self.sim.run()

    def reserve(self, page, addr):
        """Hold ``page`` Modified with one live reservation, taken at ``addr``."""
        self.mem.pages.install(page, bytes(4096), MSIState.MODIFIED)
        self.mem.load_reserved(cpu(), addr)
        assert len(self.mem.llsc) == 1

    def assert_torn_down(self, page, addr):
        """``page`` and its reservation are gone, and stay gone for the SC
        that follows the re-acquired page."""
        assert self.mem.pages.state(page) is MSIState.INVALID
        assert len(self.mem.llsc) == 0
        self.mem.pages.install(page, bytes(4096), MSIState.MODIFIED)
        assert self.mem.store_conditional(cpu(), addr, 1) is False

    def test_invalidate_handler(self):
        self.reserve(PAGE, BASE)
        self.command(Invalidate(page=PAGE))
        self.assert_torn_down(PAGE, BASE)

    def test_split_install_drops_the_original_page(self):
        self.reserve(PAGE, BASE)
        self.command(SplitTableUpdate(entries=(SplitEntry(PAGE, self.SHADOWS, 2048),)))
        assert PAGE in self.mem.split
        assert self.mem.pages.state(PAGE) is MSIState.INVALID
        # BASE is now served by the first shadow page, which holds no reservation.
        self.assert_torn_down(self.SHADOWS[0], BASE)

    def test_merge_drops_the_shadow_pages(self):
        self.command(SplitTableUpdate(entries=(SplitEntry(PAGE, self.SHADOWS, 2048),)))
        self.reserve(self.SHADOWS[0], BASE)  # the reservation lands on the shadow page
        self.command(SplitTableUpdate(entries=()))
        assert PAGE not in self.mem.split
        self.assert_torn_down(self.SHADOWS[0], self.SHADOWS[0] << 12)
