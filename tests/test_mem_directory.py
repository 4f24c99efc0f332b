"""Directory/MSI protocol tests, including property-based invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.mem.directory import Directory
from repro.mem.msi import MSIState


class TestPlans:
    def test_first_read_has_no_actions(self):
        d = Directory()
        plan = d.plan(1, 100, write=False)
        assert plan.fetch_from is None
        assert plan.invalidate == ()
        assert not plan.already_granted

    def test_read_after_read_adds_sharer(self):
        d = Directory()
        d.commit(1, 100, write=False)
        plan = d.plan(2, 100, write=False)
        assert plan.fetch_from is None
        d.commit(2, 100, write=False)
        assert d.sharers(100) == frozenset({1, 2})

    def test_repeat_read_already_granted(self):
        d = Directory()
        d.commit(1, 100, write=False)
        assert d.plan(1, 100, write=False).already_granted

    def test_write_invalidates_other_sharers(self):
        d = Directory()
        d.commit(1, 100, write=False)
        d.commit(2, 100, write=False)
        d.commit(3, 100, write=False)
        plan = d.plan(2, 100, write=True)
        assert set(plan.invalidate) == {1, 3}
        assert plan.fetch_from is None  # sharers hold clean copies
        d.commit(2, 100, write=True)
        assert d.owner(100) == 2
        assert d.sharers(100) == frozenset()

    def test_write_fetches_from_previous_owner(self):
        d = Directory()
        d.commit(1, 100, write=True)
        plan = d.plan(2, 100, write=True)
        assert plan.fetch_from == 1
        assert plan.invalidate == (1,)
        d.commit(2, 100, write=True)
        assert d.owner(100) == 2

    def test_read_downgrades_owner(self):
        d = Directory()
        d.commit(1, 100, write=True)
        plan = d.plan(2, 100, write=False)
        assert plan.fetch_from == 1
        d.commit(2, 100, write=False)
        assert d.owner(100) is None
        assert d.sharers(100) == frozenset({1, 2})

    def test_owner_rewrite_is_noop(self):
        d = Directory()
        d.commit(1, 100, write=True)
        assert d.plan(1, 100, write=True).already_granted

    def test_sharer_upgrade_to_owner(self):
        d = Directory()
        d.commit(1, 100, write=False)
        plan = d.plan(1, 100, write=True)
        assert not plan.already_granted
        assert plan.invalidate == ()  # no *other* sharers
        d.commit(1, 100, write=True)
        assert d.owner(100) == 1

    def test_invalidating_every_holder_leaves_no_entry(self):
        d = Directory()
        d.commit(1, 100, write=False)
        d.commit(2, 100, write=False)
        txn = d.plan(0, 100, write=True)  # the master's own write
        assert txn.invalidate == (1, 2)
        txn.dropped.extend(txn.invalidate)
        d.apply(txn)
        assert d.holders(100) == ()
        assert 100 not in d._entries

    def test_dropped_owner_is_unlisted(self):
        d = Directory()
        d.commit(1, 100, write=True)
        txn = d.plan(2, 100, write=True)
        txn.dropped.append(txn.fetch_from)
        d.apply(txn)  # nothing granted
        assert d.owner(100) is None

    def test_pages_independent(self):
        d = Directory()
        d.commit(1, 100, write=True)
        d.commit(2, 200, write=True)
        assert d.owner(100) == 1
        assert d.owner(200) == 2


class TestTransactions:
    """``plan`` opens, the record says what was done, ``apply`` writes it."""

    def test_plan_changes_nothing(self):
        d = Directory()
        d.commit(1, 100, write=False)
        txn = d.plan(2, 100, write=True)
        txn.dropped.append(1)
        txn.grant = MSIState.MODIFIED
        assert d.sharers(100) == {1} and d.owner(100) is None

    def test_cleaned_owner_becomes_sharer(self):
        d = Directory()
        d.commit(1, 100, write=True)
        txn = d.plan(2, 100, write=False)
        txn.cleaned = txn.fetch_from
        txn.grant = MSIState.SHARED
        d.apply(txn)
        assert d.owner(100) is None and d.sharers(100) == {1, 2}

    def test_exclusive_grant_lists_an_owner(self):
        d = Directory()
        txn = d.plan(3, 100, write=False)
        assert d.settled(txn) == (None, frozenset())
        txn.grant = MSIState.EXCLUSIVE
        d.apply(txn)
        assert d.owner(100) == 3 and d.sharers(100) == frozenset()

    def test_an_exit_keeps_the_effects_and_no_grant(self):
        # The requester is latched after one invalidation landed: what was
        # done is kept and the grant is refused.
        latched = set()
        d = Directory(latched)
        for n in (1, 2, 3):
            d.commit(n, 100, write=False)
        txn = d.plan(1, 100, write=True)
        assert txn.invalidate == (2, 3)
        txn.dropped.append(2)  # 3's ack never landed
        latched.add(1)
        d.evict_node(1)
        txn.grant = MSIState.MODIFIED
        d.apply(txn)
        assert d.owner(100) is None and d.sharers(100) == {3}
        d.check_invariants()

    def test_apply_reads_the_entry_as_it_stands(self):
        d = Directory()
        d.commit(1, 100, write=False)
        d.commit(2, 100, write=False)
        txn = d.plan(3, 100, write=False)
        d.evict_node(2)  # concurrent with the transaction
        txn.grant = MSIState.SHARED
        d.apply(txn)
        assert d.sharers(100) == {1, 3}

    def test_a_latched_node_is_never_listed(self):
        latched = {2}
        d = Directory(latched)
        d.commit(3, 100, write=False)
        d.commit(2, 100, write=False)  # refused
        assert d.sharers(100) == {3}
        d.commit(1, 200, write=True)
        latched.add(1)  # latched, not yet evicted
        d.apply(d.plan(3, 200, write=False))  # any transaction unlists it
        assert d.holders(200) == ()
        d.check_invariants()

    def test_check_invariants_names_a_latched_node(self):
        latched = set()
        d = Directory(latched)
        d.commit(1, 100, write=True)
        latched.add(1)
        with pytest.raises(ProtocolError, match="latched"):
            d.check_invariants()


# -- property-based: random request streams keep invariants ----------------------

requests = st.lists(
    st.tuples(
        st.integers(0, 5),  # node
        st.integers(0, 3),  # page
        st.booleans(),  # write?
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(requests)
def test_invariants_hold_under_any_request_stream(reqs):
    d = Directory()
    for node, page, write in reqs:
        plan = d.plan(node, page, write)
        if not plan.already_granted:
            d.commit(node, page, write)
        d.check_invariants()


@settings(max_examples=200, deadline=None)
@given(requests)
def test_single_writer_multiple_readers(reqs):
    """After any stream: at most one owner; owner excludes sharers."""
    d = Directory()
    for node, page, write in reqs:
        plan = d.plan(node, page, write)
        if not plan.already_granted:
            d.commit(node, page, write)
    for page in range(4):
        ent = d.peek(page)
        if ent.owner is not None:
            assert ent.sharers == set()


@settings(max_examples=200, deadline=None)
@given(requests)
def test_write_plan_invalidates_every_other_holder(reqs):
    d = Directory()
    for node, page, write in reqs:
        plan = d.plan(node, page, write)
        if not plan.already_granted:
            d.commit(node, page, write)
    # Take one more write from node 0 on each page and check the plan covers
    # all holders except the requester.
    for page in range(4):
        holders = set(d.holders(page))
        plan = d.plan(0, page, write=True)
        if plan.already_granted:
            assert holders == {0}
            continue
        covered = set(plan.invalidate)
        assert covered == holders - {0}


@settings(max_examples=100, deadline=None)
@given(requests)
def test_grant_makes_request_satisfied(reqs):
    """Immediately repeating a request after commit is always a no-op."""
    d = Directory()
    for node, page, write in reqs:
        plan = d.plan(node, page, write)
        if not plan.already_granted:
            d.commit(node, page, write)
        assert d.plan(node, page, write).already_granted
