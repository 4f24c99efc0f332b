"""Bounded model check of the coherence transaction (docs/PROTOCOL.md
"Coherence transactions").

A breadth-first search over the interleavings of one page's transactions on
three slave nodes, driving the real :class:`~repro.mem.directory.Directory`
and each :class:`~repro.mem.protocols.CoherencePolicy` through ``plan`` /
record / ``apply`` the way the master's handlers do: a page request
(``CoherenceService.handle``, fast ack included), the kernel's read and
write (``own_page_for_read``, ``pull_home_and_invalidate``) and a forwarded
push.  One transaction is open at a time (the page lock).  Each of its
effects — a pull or an invalidation acked, then the grant — is one step,
and a crash (latch plus ``evict_node``) may land between any two; so may an
Exclusive holder's silent upgrade.  Checked at every state:

* single writer / multiple readers, over the nodes' copies and the entry;
* no latched node is listed after ``apply`` (``Directory.check_invariants``);
* a payload-free grant (an upgrade ack, or the fast ack of a node the
  directory already lists) goes only to a listed node holding the page.

A handler whose dead-requester return skips ``apply`` is the mutant: it
must be caught, with the requester dying between its invalidation and its
grant as the shortest counterexample.  ``python tests/test_directory_model.py``
prints each protocol's state count and the mutant's counterexample.
"""

from __future__ import annotations

import pickle
from collections import deque

import pytest

from repro import DQEMUConfig
from repro.errors import ProtocolError
from repro.mem.directory import Directory, Transaction
from repro.mem.msi import MSIState
from repro.mem.protocols import PROTOCOL_NAMES, make_policy

PAGE = 7
NODES = (1, 2, 3)
KERNEL = -1  # the requester of the master's own transactions
MAX_CRASHES = 1
#: Transactions a trace may open under a policy that keeps per-page history
#: (its counters make the state space unbounded); msi and mesi keep none and
#: are searched to exhaustion.
MAX_TRANSACTIONS = {"msi": None, "mesi": None, "migrate": 4, "adaptive": 4}
#: Short enough that the adaptive classifier switches a page's protocol
#: (two windows agreeing) and the migrating policies move a home within the
#: bound.
CONFIG = dict(adaptive_window=2, migration_trigger=2)


class Violation(Exception):
    pass


class World:
    """One state, rebuilt from its key: copies, directory, policy, open
    transaction."""

    def __init__(self, key, mutant, bounded):
        copies, holders, latched, policy, self.opened, self.crashes, self.txns = key
        self.copies = dict(zip(NODES, copies))
        self.latched = set(latched)
        self.directory = Directory(self.latched)
        owner, sharers = holders
        if owner is not None:
            self.directory.commit(owner, PAGE, write=True)
        for n in sharers:
            self.directory.commit(n, PAGE, write=False)
        self.policy = pickle.loads(policy)
        self.mutant = mutant
        self.bounded = bounded

    def key(self):
        ent = self.directory.peek(PAGE)
        return (
            tuple(self.copies[n] for n in NODES),
            (ent.owner, tuple(sorted(ent.sharers))),
            frozenset(self.latched), pickle.dumps(self.policy),
            self.opened, self.crashes, self.txns,
        )

    def check(self):
        held = [c for c in self.copies.values() if c in "SEM"]
        if held.count("M") + held.count("E") > 1 or (
            ("M" in held or "E" in held) and "S" in held
        ):
            raise Violation(f"SWMR: copies {self.copies}")
        try:
            self.directory.check_invariants()
        except ProtocolError as exc:
            raise Violation(str(exc)) from None

    def payload_free(self, node, why):
        if node not in self.directory.holders(PAGE) or self.copies[node] == "I":
            raise Violation(f"{why} to n{node}, which holds no copy")

    # -- opening a transaction ---------------------------------------------------

    def begin(self, kind, node, write):
        d = self.directory
        if kind == "request":
            if not write and d.plan(node, PAGE, False).already_granted:
                self.payload_free(node, "fast ack without payload")
                return "fast ack (already listed)"
            was_sharer = node in d.sharers(PAGE)
            self.policy.observe(node, PAGE, write)
        else:
            was_sharer = False
        txn = d.plan(node, PAGE, write)
        if kind == "push" and (txn.fetch_from is not None or txn.already_granted):
            return "push skipped"
        self.opened = (
            kind, node, write, was_sharer, txn.fetch_from, txn.invalidate, (), None, 0,
        )
        self.txns += self.bounded
        return "opened"

    def effects(self):
        kind, _node, _write, _was, fetch_from, invalidate, *_ = self.opened
        if kind == "kernel-write":  # every holder, the owner's data pulled
            return [("invalidate", n) for n in invalidate] + [("finish", None)]
        out = [("pull", fetch_from)] if fetch_from is not None else []
        out += [("invalidate", n) for n in invalidate if n != fetch_from]
        return out + [("finish", None)]

    # -- one effect of the open transaction ------------------------------------

    def step(self):
        kind, node, write, was_sharer, fetch_from, invalidate, dropped, cleaned, i = self.opened
        txn = Transaction()
        vars(txn).update(
            node=node, page=PAGE, write=write, fetch_from=fetch_from,
            invalidate=invalidate, dropped=list(dropped), cleaned=cleaned,
        )
        effect, peer = self.effects()[i]
        if effect == "pull":
            if peer in self.latched:
                txn.dropped.append(peer)
                said = f"n{peer} latched: given up"
            elif write:
                self.copies[peer] = "I"
                txn.dropped.append(peer)
                said = f"n{peer} invalidated, data pulled"
            else:
                self.copies[peer] = "S"
                txn.cleaned = peer
                said = f"n{peer} written back, kept S"
        elif effect == "invalidate":
            if peer in self.latched:
                said = f"n{peer} latched: skipped"
            else:
                self.copies[peer] = "I"
                txn.dropped.append(peer)
                said = f"n{peer} invalidated"
        else:
            said = self.finish(kind, node, write, was_sharer, txn)
            self.opened = None
            return said
        self.opened = (
            kind, node, write, was_sharer, fetch_from, invalidate,
            tuple(txn.dropped), txn.cleaned, i + 1,
        )
        return said

    def finish(self, kind, node, write, was_sharer, txn):
        if kind == "request":
            if node in self.latched:
                if self.mutant:
                    return "requester latched: return, nothing applied"
                self.directory.apply(txn)
                return "requester latched: return"
            if write:
                said = "grant M"
                if was_sharer and self.policy.upgrade_without_payload(node, PAGE):
                    self.payload_free(node, "upgrade ack without payload")
                    said = "grant M (upgrade ack)"
                txn.grant = MSIState.MODIFIED
            else:
                owner, sharers = self.directory.settled(txn)
                exclusive = owner is None and not sharers and self.policy.grant_exclusive(
                    node, PAGE
                )
                txn.grant = MSIState.EXCLUSIVE if exclusive else MSIState.SHARED
                said = f"grant {txn.grant.value}"
            self.copies[node] = txn.grant.value
        elif kind == "push":
            txn.grant = MSIState.SHARED
            if node not in self.latched:
                self.copies[node] = "S"
            said = "pushed"
        else:
            said = "done"
        self.directory.apply(txn)
        return f"{said} to n{node}" if kind in ("request", "push") else said

    def crash(self, node):
        self.copies[node] = "X"
        self.latched.add(node)
        self.directory.evict_node(node)
        self.policy.evict_node(node)
        self.crashes += 1


def actions(key, bound):
    """The actions enabled in ``key``'s state."""
    copies, _holders, _latched, _policy, opened, crashes, txns = key
    out = []
    live = [n for n, c in zip(NODES, copies) if c != "X"]
    if opened is not None:
        out.append(("step", None))
    elif bound is None or txns < bound:
        for n, c in zip(NODES, copies):
            if c == "I":
                out += [("request", (n, False)), ("push", (n, False))]
            if c in "IS":
                out.append(("request", (n, True)))
        out += [("kernel-read", (KERNEL, False)), ("kernel-write", (KERNEL, True))]
    for n, c in zip(NODES, copies):
        if c == "E":
            out.append(("silent", n))
    if crashes < MAX_CRASHES:
        out += [("crash", n) for n in live]
    return out


def describe(world, action):
    """What ``action`` is, before it runs: the first half of a trace line."""
    kind, arg = action
    if kind == "step":
        opened, node = world.opened[:2]
        return f"  {opened}" if node == KERNEL else f"  {opened} n{node}"
    if kind == "crash":
        return f"n{arg} crashes"
    if kind == "silent":
        return f"n{arg} upgrades E->M silently"
    node, write = arg
    who = "kernel" if node == KERNEL else f"n{node}"
    if kind == "push":
        return f"{who} is pushed the page"
    return f"{who} {'writes' if write else 'reads'}"


def run(world, action):
    """Run ``action`` on ``world``; returns what happened."""
    kind, arg = action
    if kind == "step":
        return world.step()
    if kind == "crash":
        world.crash(arg)
        return "latched, evicted"
    if kind == "silent":
        world.copies[arg] = "M"
        return "M"
    node, write = arg
    return world.begin(kind, node, write)


def explore(protocol, mutant=False):
    """Breadth-first search; returns ``(states, None)`` when every state
    within the bound is clean, else ``(states, shortest counterexample)``."""
    policy = make_policy(DQEMUConfig(coherence_protocol=protocol, **CONFIG))
    bound = MAX_TRANSACTIONS[protocol]
    init = (("I",) * len(NODES), (None, ()), frozenset(), pickle.dumps(policy), None, 0, 0)
    seen = {init}
    frontier = deque([(init, ())])
    while frontier:
        key, trace = frontier.popleft()
        for action in actions(key, bound):
            world = World(key, mutant, bound is not None)
            line = describe(world, action)
            try:
                line += ": " + run(world, action)
                world.check()
            except Violation as exc:
                return len(seen), [*trace, line, f"VIOLATION: {exc}"]
            nxt = world.key()
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, (*trace, line)))
    return len(seen), None


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_transactions_keep_the_invariants(protocol):
    states, counterexample = explore(protocol)
    assert counterexample is None, "\n".join(counterexample)
    assert states > 500  # the search is not vacuous


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_a_return_that_skips_apply_is_caught(protocol):
    _states, trace = explore(protocol, mutant=True)
    print(f"\n{protocol}:", *trace, sep="\n  ")
    # Shortest: n2's write takes n1's copy away, n2 dies before its grant,
    # and its return leaves n1 listed; n1's next read is acked without data.
    assert [line.split(":")[0].strip() for line in trace] == [
        "n1 reads", "request n1", "n2 writes", "request n2", "n2 crashes",
        "request n2", "n1 reads", "VIOLATION",
    ]
    assert trace[5].endswith("requester latched: return, nothing applied")
    assert trace[7] == "VIOLATION: fast ack without payload to n1, which holds no copy"


if __name__ == "__main__":
    for name in PROTOCOL_NAMES:
        count, bad = explore(name)
        print(f"{name}: {count} states, {'clean' if bad is None else 'VIOLATION'}")
        _count, trace = explore(name, mutant=True)
        print("  mutant counterexample:", *trace, sep="\n    ")
