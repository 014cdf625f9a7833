"""Golden send streams: every round's plan and the final meters, pinned.

The determinism suite compares two runs of the *same* code, so it cannot
notice a change that reorders sends consistently.  This suite records a
sha256 digest of the whole message stream a protocol emits — each
round's plan as ``(src, dst, kind, ids, data)`` in plan order — plus the
final :class:`~repro.ncc.metrics.RoundStats`, and compares it with a
digest recorded from a known-good revision.  A refactor of a round loop
must keep every digest unchanged.

The same digests also pin two runtime invariants: the reference engine
(the executable spec of the fast engine) emits and meters exactly the
stream the fast engine does, and a protocol that never overdrives a
receive cap cannot tell unbounded enforcement from the mode it was
recorded under.

Namespace strings embed a process-wide counter (``fresh_ns``), so each
case restarts that counter to make its stream independent of test order.
To re-record after an intentional protocol change, run
``python tests/test_golden_send_stream.py`` from the repository root with
``PYTHONPATH=src`` and paste the printed table into ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
import itertools
import sys

import pytest

from repro import workloads as W
from repro.core.approximate import approximate_degree_realization
from repro.core.connectivity import realize_connectivity_ncc0
from repro.core.degree_realization import realize_degree_sequence
from repro.core.explicit import (
    explicit_conversion_protocol,
    realize_degree_sequence_explicit,
)
from repro.core.result import record_edge
from repro.core.tree_realization import realize_tree
from repro.ncc.config import EnforcementMode, NCCConfig
from repro.ncc.network import Network
from repro.primitives import protocol
from repro.primitives.bbst import build_indexed_path
from repro.primitives.broadcast import global_aggregate
from repro.primitives.butterfly import AggGroup, ButterflyEmulation, ColGroup, McGroup
from repro.primitives.collection import global_collect
from repro.primitives.path_ops import build_undirected_path
from repro.primitives.prefix import prefix_sums
from repro.primitives.protocol import Fork, run_protocol
from repro.primitives.range_multicast import range_multicast

sys.setrecursionlimit(200_000)


#: Config overrides applied on top of each case's own (see RUNTIMES).
_RUNTIME: dict = {}


def _recorded(n: int, seed: int, **overrides):
    """A fresh network whose engine hashes every plan it delivers."""
    net = Network(n, NCCConfig(seed=seed, **{**overrides, **_RUNTIME}))
    digest = hashlib.sha256()
    inner = net.engine.deliver

    def deliver(plan):
        for src, dst, message in plan.sends:
            digest.update(
                repr((src, dst, message.kind, message.ids, message.data)).encode()
            )
        digest.update(b"|")
        return inner(plan)

    net.engine.deliver = deliver
    return net, digest


def _finish(net: Network, digest, outcome) -> str:
    digest.update(repr(net.stats()).encode())
    digest.update(repr(outcome).encode())
    return digest.hexdigest()


def _indexed(net: Network, ns: str = "ip") -> None:
    def proto():
        head = yield from build_undirected_path(net, ns)
        yield from build_indexed_path(net, ns, list(net.node_ids), head)

    run_protocol(net, proto())


# --------------------------------------------------------------------- #
# Cases                                                                  #
# --------------------------------------------------------------------- #

REALIZERS = {
    "degree": (realize_degree_sequence, lambda n: W.power_law_sequence(n, seed=n)),
    "explicit": (realize_degree_sequence_explicit, lambda n: W.regular_sequence(n, 3)),
    "tree": (realize_tree, lambda n: W.random_tree_sequence(n, seed=n)),
    "connectivity": (realize_connectivity_ncc0, lambda n: W.power_law_rho(n, 6, seed=n)),
    "approximate": (approximate_degree_realization, lambda n: W.regular_sequence(n, 4)),
}


def _realizer_case(name: str, n: int, fidelity: str) -> str:
    realizer, build = REALIZERS[name]
    net, digest = _recorded(n, seed=n + 5)
    demands = dict(zip(net.node_ids, build(n)))
    result = realizer(net, demands, sort_fidelity=fidelity)
    return _finish(net, digest, (result.edges, result.stats))


def _aggregate_case() -> str:
    net, digest = _recorded(37, seed=3)
    _indexed(net)
    ids = list(net.node_ids)
    groups = [
        AggGroup(gid=g, members={v: (i * 7 + g) % 11 for i, v in enumerate(ids[g::5])},
                 dest=ids[(g * 13) % len(ids)], op=op)
        for g, op in zip(range(5), ("sum", "max", "min", "sum", "max"))
    ]
    for group in groups:
        for member in group.members:
            net.grant_knowledge(member, group.dest)
    outcome = run_protocol(net, ButterflyEmulation(net, "ip").aggregate(groups))
    return _finish(net, digest, outcome)


def _multicast_case() -> str:
    net, digest = _recorded(37, seed=4)
    _indexed(net)
    ids = list(net.node_ids)
    groups = [
        McGroup(gid=g, source=ids[(g * 11) % len(ids)],
                members=tuple(ids[g::4]), token=(ids[g],), data=(g, g + 1))
        for g in range(4)
    ]
    outcome = run_protocol(net, ButterflyEmulation(net, "ip").multicast(groups))
    return _finish(net, digest, outcome)


def _collect_case() -> str:
    net, digest = _recorded(37, seed=5)
    _indexed(net)
    ids = list(net.node_ids)
    groups = [
        ColGroup(gid=0, tokens={v: ((v,), (1,)) for v in ids[::3]}, dest=ids[4]),
        ColGroup(gid=1, tokens=[(v, ((v,), (i,))) for i, v in enumerate(ids[1::4])]
                 + [(ids[2], ((), (9,)))], dest=ids[4]),
        ColGroup(gid=2, tokens={v: ((), (2,)) for v in ids[2::5]}, claimant=ids[30]),
    ]
    for group in groups[:2]:
        for member, _token in group.token_items():
            net.grant_knowledge(member, group.dest)
    outcome = run_protocol(net, ButterflyEmulation(net, "ip").collect(groups))
    return _finish(net, digest, outcome)


def _global_collect_case() -> str:
    net, digest = _recorded(29, seed=6)

    def proto():
        head = yield from build_undirected_path(net, "gc")
        members = list(net.node_ids)
        root = yield from build_indexed_path(net, "gc", members, head, publish_root=True)
        leader = members[7]
        net.grant_knowledge(root, leader)
        holders = {v: ((v,), (i,)) for i, v in enumerate(members) if i % 3 != 1}
        return (yield from global_collect(net, "gc", members, root, leader, holders))

    outcome = run_protocol(net, proto())
    return _finish(net, digest, outcome)


def _random_conversion_case() -> str:
    net, digest = _recorded(30, seed=7, enforcement=EnforcementMode.DEFER)
    ids = list(net.node_ids)
    for i, u in enumerate(ids):
        for step in (1, 3, 7):
            v = ids[(i * 5 + step) % len(ids)]
            record_edge(net, u, v)
            net.grant_knowledge(u, v)
    outcome = run_protocol(net, explicit_conversion_protocol(net, method="random"))
    return _finish(net, digest, outcome)


def _forked_case() -> str:
    """Member-scoped primitives forked with whole-network butterfly traffic.

    The aggregate, prefix and global collect run over a sub-path of half
    the nodes; the butterfly collection and the range multicast span all
    of them, so every round delivers other kinds to members and
    non-members alike.
    """
    net, digest = _recorded(40, seed=8)
    _indexed(net)
    ids = list(net.node_ids)
    members = ids[:20]

    def proto():
        head = yield from build_undirected_path(net, "sub", order=members)
        root = yield from build_indexed_path(net, "sub", members, head)
        for v in ids:
            net.grant_knowledge(v, ids[3])
        for leader in (members[5], members[9]):
            net.grant_knowledge(root, leader)
        groups = [
            ColGroup(gid=g, tokens={v: ((v,), (g,)) for v in ids[g::3]}, dest=ids[3])
            for g in range(3)
        ]
        pos = {v: i for i, v in enumerate(ids)}
        outcome = yield Fork([
            global_aggregate(net, "sub", members, root, leader=members[5],
                             value_of=lambda v: pos[v] % 7, combine=max),
            prefix_sums(net, "sub", members, root, value_of=lambda v: pos[v] % 5),
            global_collect(net, "sub", members, root, members[9],
                           {v: ((), (pos[v],)) for v in members[::2]}),
            ButterflyEmulation(net, "ip").collect(groups),
            range_multicast(net, "ip", [(ids[21], 22, 35, ((ids[21],), (1,)))]),
        ])
        return outcome

    outcome = run_protocol(net, proto())
    return _finish(net, digest, outcome)


CASES = {
    **{
        f"{name}-n{n}-{fidelity}": (
            lambda name=name, n=n, fidelity=fidelity: _realizer_case(name, n, fidelity)
        )
        for name in REALIZERS
        for n in (40, 100)
        for fidelity in ("full", "charged")
    },
    "butterfly-aggregate": _aggregate_case,
    "butterfly-multicast": _multicast_case,
    "butterfly-collect": _collect_case,
    "global-collect": _global_collect_case,
    "explicit-random": _random_conversion_case,
    "forked-shared-rounds": _forked_case,
}


def _digest(case: str) -> str:
    saved = protocol._ns_counter
    protocol._ns_counter = itertools.count()
    try:
        return CASES[case]()
    finally:
        protocol._ns_counter = saved


GOLDEN = {
    'approximate-n100-charged': '0251e3bdac77237260dc93e5f2effe5f8e56c6c2e13603cace352128c042bc57',
    'approximate-n100-full': '8d9775adfd656e92fc054b7a00f7d06370f6c0c2674420ab236db22f445f0a5d',
    'approximate-n40-charged': '2bd8e4abc0980ea004b29da1766f3f7c3defbeef67a3dfa55bc13ddbba3e763f',
    'approximate-n40-full': '591d0e8c12a68653ae90576bbec563c2829943044afe659c4119bf790be2180f',
    'butterfly-aggregate': '30b15d03c49848809356b08aec4bdfaea903535b347a9f9e755c96abb5c04d6e',
    'butterfly-collect': '865febd941b372285eb5f39b27f7640ccc1a0f3ec5a7c7f4ee443b21affd2435',
    'butterfly-multicast': '5af36dba41fcfb2cee2d2e6a52bed8a4d4ded2a35a0ca39ec2b470c2b0c7a640',
    'connectivity-n100-charged': '7bbc8aeb40764a920bb611473b19eac09f8b9fa7a971ce45b25a245ce1522303',
    'connectivity-n100-full': 'f0716aad19c4b59d6129e32621996269bd5ead07af17be5a5e14b5e9150e2b83',
    'connectivity-n40-charged': 'd49ed96ce3ce484756cf462f15ea06d6e68507af6dea5ecf47f7f9ce0383a952',
    'connectivity-n40-full': '279dc5784e17afe96e28cce14b8a48ce02fe81eba38c951722b3f1e5fa4010e6',
    'degree-n100-charged': '759358b68e1afd1352e6420f1ce01818878cf8c52c0e5d0431257fdb2653ccc4',
    'degree-n100-full': 'd1066f09cc83f30bd91e82aed46889d19318d3c4c758c5190a52679760ea8f31',
    'degree-n40-charged': '89e26af1b77e5502eb2bd56b02f03bbc316ae7b8997e179942b3f70501f730a9',
    'degree-n40-full': '834121db944ef94a353020215618ec6fc65266697d02ff47316a6c4001688212',
    'explicit-n100-charged': '94b8115f4a987072125b2bbcb871130acdd785dc5495d3d2b65c21cbcbae0d95',
    'explicit-n100-full': '889cbfc8dcd946188553a069f71e840976e24c713a968687c454522c06355d23',
    'explicit-n40-charged': '63255d61df86b34d58a220662b7abbbb85ebf934eb55cf2918e077c21b42e1b9',
    'explicit-n40-full': '35863a7ffa404fd56c6692d26f351c3bfb6d81fcab22d4d53bdb8d2e0134a816',
    'explicit-random': 'd6936ea7692b39770fde1908a9a028c5978a8dfb213a9e07d5f195ece0bc81a6',
    'forked-shared-rounds': 'd5f0b2004007151104043c59720bdc2ebbbe9e06eaed57275aba4d02ea776ab8',
    'global-collect': '70ed0978fd7da52d6eac1e5178975aebc5b8f658fe0c564325d44bdf491e9277',
    'tree-n100-charged': 'c9d9c020d4623fee1d53f165ae0014f220411f9c592c2acafb0fdf3e19a47018',
    'tree-n100-full': 'df4fd1f287e7a4f90068766510dfad54648aa2795d6cf5e1e83de544079a109b',
    'tree-n40-charged': 'de1ed210a17c3a22a02f142ca909be8b4d1e47e778da97fabe393465229af806',
    'tree-n40-full': '5bff21fc630646fe5129fcd04fa9d527e4154f632348d357622466030c4169d2',
}


#: Runtimes every golden stream must reproduce bit for bit.
RUNTIMES = {
    "reference-engine": {"engine": "reference"},
    "unbounded": {"enforcement": EnforcementMode.UNBOUNDED},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_send_stream_matches_golden(case):
    assert _digest(case) == GOLDEN[case]


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_send_stream_is_runtime_invariant(case, runtime, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "_RUNTIME", RUNTIMES[runtime])
    assert _digest(case) == GOLDEN[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {_digest(case)!r},")
