"""Tests for the simulated interconnect: timing model, RPC, routing."""

import pytest

from collections import Counter

from repro.cost import CostModel
from repro.errors import ConfigError, NetworkError
from repro.net import Endpoint, Fabric
from repro.net.faults import FaultInjector, FaultPlan, duplicate
from repro.net.messages import (
    HEADER_BYTES,
    Ack,
    PageData,
    PageRequest,
    SyscallReply,
    SyscallRequest,
)
from repro.sim import Simulator


def drain(q):
    """Every frame waiting in mailbox ``q``, oldest first."""
    return [q.get().value for _ in range(len(q))]


def make_cluster(n=3, **kw):
    sim = Simulator()
    fabric = Fabric(sim, **kw)
    eps = [Endpoint(sim, fabric, i) for i in range(n)]
    return sim, fabric, eps


class TestTiming:
    def test_small_message_rtt_matches_paper(self):
        """64-byte control frames should see ~55 us round trips (paper §6.1)."""
        sim, fabric, (master, slave, _) = make_cluster()
        result = {}

        def slave_proc():
            reply = yield slave.request(0, PageRequest(page=1))
            result["rtt"] = sim.now
            assert isinstance(reply, SyscallReply)

        def master_proc():
            q = master.subscribe("page_request")
            msg = yield q.get()
            master.reply(msg, SyscallReply(retval=0))

        sim.spawn(master_proc())
        sim.spawn(slave_proc())
        sim.run()
        rtt_us = result["rtt"] / 1000
        assert 54 <= rtt_us <= 60

    def test_page_transfer_adds_serialization(self):
        sim, fabric, (a, b, _) = make_cluster()
        arrivals = {}

        def receiver():
            q = b.subscribe("page_data")
            yield q.get()
            arrivals["t"] = sim.now

        sim.spawn(receiver())
        a.send(1, PageData(page=0, data=bytes(4096)))
        sim.run()
        # one-way latency 27.4us + 2x serialization of ~4160B at 1Gb/s (~33.3us each)
        expected = 27_400 + 2 * fabric.serialization_ns(4096 + HEADER_BYTES)
        assert arrivals["t"] == expected

    def test_uplink_serialization_queues_back_to_back_sends(self):
        sim, fabric, (a, b, _) = make_cluster()
        arrivals = []

        def receiver():
            q = b.subscribe("page_data")
            for _ in range(2):
                yield q.get()
                arrivals.append(sim.now)

        sim.spawn(receiver())
        a.send(1, PageData(page=0, data=bytes(4096)))
        a.send(1, PageData(page=1, data=bytes(4096)))
        sim.run()
        ser = fabric.serialization_ns(4096 + HEADER_BYTES)
        assert arrivals[1] - arrivals[0] == ser

    def test_downlink_contention_from_two_senders(self):
        sim, fabric, eps = make_cluster(4)
        arrivals = []

        def receiver():
            q = eps[0].subscribe("page_data")
            for _ in range(2):
                yield q.get()
                arrivals.append(sim.now)

        sim.spawn(receiver())
        eps[1].send(0, PageData(page=0, data=bytes(4096)))
        eps[2].send(0, PageData(page=1, data=bytes(4096)))
        sim.run()
        ser = fabric.serialization_ns(4096 + HEADER_BYTES)
        # Both arrive at the switch simultaneously; the second is serialized
        # behind the first on node 0's downlink.
        assert arrivals[1] - arrivals[0] == ser

    def test_loopback_is_fast_and_skips_links(self):
        sim, fabric, eps = make_cluster()
        arrivals = {}

        def receiver():
            q = eps[0].subscribe("page_data")
            yield q.get()
            arrivals["t"] = sim.now

        sim.spawn(receiver())
        eps[0].send(0, PageData(page=0, data=bytes(4096)))
        sim.run()
        assert arrivals["t"] == fabric.cost.loopback_latency_ns

    def test_bandwidth_validation(self):
        # A link's costs are validated once, by the cost model it is built from.
        sim = Simulator()
        with pytest.raises(ConfigError, match="bandwidth_bps must be > 0"):
            Fabric(sim, CostModel(bandwidth_bps=0))
        with pytest.raises(ConfigError, match="one_way_latency_ns must be >= 0"):
            Fabric(sim, CostModel(one_way_latency_ns=-5))


class TestEndpoint:
    def test_request_reply_correlation(self):
        sim, fabric, (m, s1, s2) = make_cluster()
        results = {}

        def slave(ep, tag, page):
            reply = yield ep.request(0, PageRequest(page=page))
            results[tag] = reply.page

        def master():
            q = m.subscribe("page_request")
            for _ in range(2):
                msg = yield q.get()
                m.reply(msg, PageData(page=msg.page, data=b""))

        sim.spawn(master())
        sim.spawn(slave(s1, "s1", 7))
        sim.spawn(slave(s2, "s2", 9))
        sim.run()
        assert results == {"s1": 7, "s2": 9}

    def test_unknown_reply_raises(self):
        sim, fabric, (a, b, _) = make_cluster()
        b.send(0, PageData(page=1, in_reply_to=999, data=b""))
        with pytest.raises(NetworkError, match="unknown request"):
            sim.run()

    def test_unrouted_message_raises(self):
        sim, fabric, (a, b, _) = make_cluster()
        a.send(1, PageRequest(page=1))
        with pytest.raises(NetworkError, match="no subscriber"):
            sim.run()

    def test_default_queue_catches_unrouted(self):
        """With no router set, a frame's routing key is its kind."""
        sim, fabric, (a, b, _) = make_cluster()
        got = []

        def receiver():
            q = b.subscribe("page_request")
            got.append((yield q.get()))

        sim.spawn(receiver())
        a.send(1, PageRequest(page=3))
        sim.run()
        assert got[0].page == 3

    def test_custom_router_by_source(self):
        """The master routes each slave's traffic to its own manager queue."""
        sim, fabric, (m, s1, s2) = make_cluster()
        m.set_router(lambda msg: ("mgr", msg.src))
        seen = {1: [], 2: []}

        def manager(slave_id):
            q = m.subscribe(("mgr", slave_id))
            msg = yield q.get()
            seen[slave_id].append(msg.page)

        sim.spawn(manager(1))
        sim.spawn(manager(2))
        s1.send(0, PageRequest(page=11))
        s2.send(0, PageRequest(page=22))
        sim.run()
        assert seen == {1: [11], 2: [22]}

    def test_duplicate_attach_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim)
        Endpoint(sim, fabric, 0)
        with pytest.raises(NetworkError):
            Endpoint(sim, fabric, 0)


class TestMessages:
    def test_sizes_include_header(self):
        assert PageRequest(page=1).size_bytes() == HEADER_BYTES
        pd = PageData(page=1, data=bytes(4096))
        assert pd.size_bytes() == HEADER_BYTES + 4096

    def test_req_ids_stamped_at_transmit_are_unique(self):
        # Ids come from the fabric's per-cluster sequence, assigned on first
        # transmit — construction alone leaves the frame unstamped.
        sim, fabric, (a, b, _) = make_cluster()
        b.subscribe("page_request")
        msgs = [PageRequest(page=i) for i in range(100)]
        assert all(m.req_id == 0 for m in msgs)
        for m in msgs:
            a.send(1, m)
        assert len({m.req_id for m in msgs}) == 100

    def test_req_id_sequences_are_per_fabric(self):
        # Two clusters in one process no longer interleave id streams.
        _, _, (a1, b1, _) = make_cluster()
        _, _, (a2, b2, _) = make_cluster()
        b1.subscribe("page_request")
        b2.subscribe("page_request")
        m1, m2 = PageRequest(page=1), PageRequest(page=1)
        a1.send(1, m1)
        a2.send(1, m2)
        assert m1.req_id == m2.req_id == 1

    def test_syscall_request_payload_scales_with_args(self):
        small = SyscallRequest(sysno=1, args=(1,))
        big = SyscallRequest(sysno=1, args=(1, 2, 3, 4, 5, 6))
        assert big.payload_bytes() > small.payload_bytes()

    def test_fabric_stats_accumulate(self):
        sim, fabric, (a, b, _) = make_cluster()
        b.subscribe("page_request")
        b.subscribe("page_data")
        a.send(1, PageRequest(page=1))
        a.send(1, PageData(page=1, data=bytes(100)))
        sim.run()
        assert fabric.stats.messages_sent == 2
        assert fabric.stats.by_kind["page_request"] == 1
        assert fabric.stats.bytes_by_kind["page_data"] == HEADER_BYTES + 100

    def test_fabric_stats_per_node_tx_rx_bytes(self):
        sim, fabric, (a, b, c) = make_cluster()
        for ep in (a, b):
            ep.subscribe("page_request")
        a.subscribe("page_data")
        b.send(0, PageRequest(page=1))
        c.send(0, PageData(page=1, data=bytes(100)))
        c.send(1, PageRequest(page=2))
        sim.run()
        st = fabric.stats
        assert st.tx_bytes_by_node[1] == HEADER_BYTES
        assert st.tx_bytes_by_node[2] == 2 * HEADER_BYTES + 100
        # Node 0 is the hot receiver (the master-link picture).
        assert st.rx_bytes_by_node[0] == 2 * HEADER_BYTES + 100
        assert st.rx_bytes_by_node[1] == HEADER_BYTES
        assert st.tx_bytes_by_node[0] == 0  # Counter: absent keys read as 0

    def test_public_deliver_routes_like_the_fabric(self):
        """Endpoint.deliver is the fabric's (and RPC layer's) entry point."""
        sim, fabric, (a, b, _) = make_cluster()
        q = b.subscribe("page_request")
        b.deliver(PageRequest(page=9, src=0, dst=1))
        got = []

        def receiver():
            got.append((yield q.get()))

        sim.spawn(receiver())
        sim.run()
        assert got[0].page == 9


class TestFrameDelivery:
    """``Fabric.transmit``: the frame rides as the delivery timer's value."""

    def test_stats_equal_a_recount_over_the_delivered_frames(self):
        sim, fabric, eps = make_cluster()
        inboxes = [
            ep.subscribe(kind) for ep in eps for kind in ("page_request", "page_data", "ack")
        ]
        sent = [
            (0, 1, PageRequest(page=1)),
            (1, 0, PageData(page=1, data=bytes(4096), tenant=1)),
            (2, 0, PageRequest(page=2, tenant=1)),
            (0, 0, Ack()),  # loopback is counted like any frame
            (2, 1, PageData(page=3, data=bytes(100))),
            (1, 2, Ack(tenant=1)),
        ]
        for src, dst, msg in sent:
            eps[src].send(dst, msg)
        sim.run()
        delivered = [m for q in inboxes for m in drain(q)]
        assert sorted(map(id, delivered)) == sorted(id(m) for _, _, m in sent)

        def recount(frames):
            return {
                "messages_sent": len(frames),
                "bytes_sent": sum(m.size_bytes() for m in frames),
                "by_kind": Counter(m.kind for m in frames),
                "bytes_by_kind": sum(
                    (Counter({m.kind: m.size_bytes()}) for m in frames), Counter()
                ),
                "tx_bytes_by_node": sum(
                    (Counter({m.src: m.size_bytes()}) for m in frames), Counter()
                ),
                "rx_bytes_by_node": sum(
                    (Counter({m.dst: m.size_bytes()}) for m in frames), Counter()
                ),
            }

        def counters(stats):
            return {name: getattr(stats, name) for name in recount([])}

        assert counters(fabric.stats) == recount(delivered)
        for tenant in (0, 1):
            assert counters(fabric.stats_for(tenant)) == recount(
                [m for m in delivered if m.tenant == tenant]
            )
        # Each frame is one record per (kind, src, dst), the six counters
        # folds over it; the fleet total is computed from the slices on
        # every read.
        assert sum(n for n, _ in fabric.stats.frames.values()) == len(delivered)
        assert counters(fabric.stats) == counters(fabric.stats)
        assert fabric.stats is not fabric.stats

    def test_unknown_destination_and_source_still_raise(self):
        sim, fabric, eps = make_cluster(n=2)
        with pytest.raises(NetworkError, match="message to unknown node 9"):
            eps[0].send(9, Ack())
        with pytest.raises(NetworkError, match="message from unknown node 7"):
            fabric.transmit(Ack(src=7, dst=1))
        assert fabric.stats.messages_sent == 0  # rejected before being counted

    def test_rejected_call_leaves_nothing_pending(self):
        sim, fabric, eps = make_cluster(n=2)
        with pytest.raises(NetworkError, match="unknown node 9"):
            eps[0].request(9, PageRequest(page=1))
        assert eps[0].pending_requests == 0

    def test_injected_duplicate_arrives_as_a_distinct_clone(self):
        sim, fabric, eps = make_cluster(n=2)
        FaultInjector(sim, FaultPlan.of(duplicate(kinds={"page_data"}))).attach(fabric)
        inbox = eps[1].subscribe("page_data")
        original = PageData(page=4, data=b"\x07" * 64)
        eps[0].send(1, original)
        sim.run()
        first, second = drain(inbox)
        assert first is original and second is not original
        assert second == original  # field for field, request id included
        assert fabric.stats.messages_sent == 2
