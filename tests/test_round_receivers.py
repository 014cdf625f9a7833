"""Receiver-driven round loops: ``arrivals``, ``InboxView`` and ``node_index``.

Primitive round loops visit only a round's receivers, sorted into node
(or member) order, instead of scanning every node.  That is sound only
if :func:`~repro.primitives.protocol.arrivals` yields exactly what a
:func:`~repro.primitives.protocol.take` scan over every ranked node
yields, minus the empty visits.  These tests pin that equivalence, the
once-per-round receiver index, and the read-only ID -> index map the
loops rank nodes by.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ncc.config import NCCConfig
from repro.ncc.message import msg
from repro.ncc.network import Network
from repro.primitives.protocol import InboxView, arrivals, take

KINDS = ("a", "b", "c")


def random_inboxes(seed: int, nodes: int = 12, messages: int = 30):
    rng = random.Random(seed)
    inboxes = {}
    for i in range(messages):
        node = rng.randrange(1, nodes + 1)
        inboxes.setdefault(node, []).append(msg(rng.choice(KINDS), data=(i,)))
    return inboxes


def full_scan(inboxes, kind, order):
    """The O(n) loop ``arrivals`` replaces: every ranked node, in rank."""
    ranked = sorted(order, key=order.__getitem__)
    return [(v, found) for v in ranked if (found := take(inboxes, v, kind))]


class TestArrivals:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(KINDS + ("z",)))
    def test_matches_full_scan_over_ranked_nodes(self, seed, kind):
        inboxes = random_inboxes(seed)
        rng = random.Random(seed + 1)
        ranked = rng.sample(range(1, 15), 9)  # some receivers unranked
        order = {v: i for i, v in enumerate(ranked)}
        expected = full_scan(inboxes, kind, order)
        assert arrivals(inboxes, kind, order) == expected
        assert arrivals(InboxView(inboxes), kind, order) == expected

    def test_keeps_inbox_order_within_a_node(self):
        inboxes = {5: [msg("a", data=(1,)), msg("b"), msg("a", data=(2,))]}
        [(node, found)] = arrivals(inboxes, "a", {5: 0})
        assert node == 5
        assert [m.data for m in found] == [(1,), (2,)]

    def test_unranked_receivers_are_skipped(self):
        inboxes = {1: [msg("a")], 2: [msg("a")], 3: [msg("a")]}
        assert [v for v, _ in arrivals(inboxes, "a", {3: 0, 1: 1})] == [3, 1]

    def test_absent_kind_and_empty_round_yield_nothing(self):
        assert arrivals({1: [msg("a")]}, "b", {1: 0}) == []
        assert arrivals({}, "a", {1: 0}) == []


class TestInboxView:
    def test_receiver_index_is_built_once_per_round(self):
        view = InboxView(random_inboxes(3))
        first = view.receivers("a")
        assert view.receivers("a") is first
        assert view.receivers("b") is view.receivers("b")

    def test_receivers_cover_exactly_the_delivered_messages(self):
        inboxes = random_inboxes(4)
        view = InboxView(inboxes)
        delivered = sum(len(box) for box in inboxes.values())
        indexed = sum(
            len(found) for kind in KINDS for found in view.receivers(kind).values()
        )
        assert indexed == delivered
        for kind in KINDS:
            for node, found in view.receivers(kind).items():
                assert found == [m for m in inboxes[node] if m.kind == kind]

    def test_view_behaves_like_the_plain_dict(self):
        inboxes = random_inboxes(5)
        view = InboxView(inboxes)
        assert view == inboxes
        for node in inboxes:
            for kind in KINDS:
                assert take(view, node, kind) == take(inboxes, node, kind)


class TestNodeIndex:
    @pytest.mark.parametrize("random_ids", [False, True])
    def test_inverts_node_ids(self, random_ids):
        net = Network(17, NCCConfig(seed=3, random_ids=random_ids))
        index = net.node_index
        assert len(index) == net.n
        assert [index[v] for v in net.node_ids] == list(range(net.n))

    def test_is_read_only(self):
        net = Network(5, NCCConfig(seed=1))
        with pytest.raises(TypeError):
            net.node_index[net.node_ids[0]] = 99
        assert net.node_index[net.node_ids[0]] == 0

    def test_node_ids_is_one_shared_tuple(self):
        net = Network(6, NCCConfig(seed=2))
        assert net.ids.ids is net.ids.ids
        assert isinstance(net.ids.ids, tuple)
