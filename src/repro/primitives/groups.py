"""Local computational primitives (Theorems 6, 7, 8) — public wrappers.

Thin protocol wrappers over :class:`~repro.primitives.butterfly.ButterflyEmulation`.
Group specifications are *problem inputs*: each member knows its group id
and the group's destination/source as part of the task (exactly the
paper's setting), so the wrappers seed that knowledge before routing
begins.
"""

from __future__ import annotations

from typing import Sequence

from repro.ncc.network import Network
from repro.primitives.butterfly import (
    AggGroup,
    ButterflyEmulation,
    ColGroup,
    McGroup,
)
from repro.primitives.protocol import Proto


def local_aggregate(
    net: Network, ns: str, groups: Sequence[AggGroup]
) -> Proto:
    """Protocol (Theorem 6): aggregate each group's values to its destination.

    ``ns`` must be an indexed path namespace (positions + 𝓛 levels).
    Returns ``{gid: aggregate}``.
    """
    emu = ButterflyEmulation(net, ns)
    for group in groups:
        for member in group.members:
            net.grant_knowledge(member, group.dest)
    result = yield from emu.aggregate(groups)
    return result


def local_multicast(net: Network, ns: str, groups: Sequence[McGroup]) -> Proto:
    """Protocol (Theorem 7): deliver each source's token to its members.

    Returns the total number of deliveries; members store tokens under
    ``mc:<gid>`` in ``ns``.
    """
    emu = ButterflyEmulation(net, ns)
    result = yield from emu.multicast(groups)
    return result


def token_collect(net: Network, ns: str, groups: Sequence[ColGroup]) -> Proto:
    """Protocol (Theorem 8): collect each group's tokens at its destination.

    Tokens are ``(ids, data)`` pairs; arriving ``ids`` become known to the
    destination.  Groups either name a destination the members know
    (``dest``) or use the claim mechanism (``claimant`` self-identifies by
    group id).  Returns ``{gid: [(ids, data), ...]}``; destinations also
    store tokens under ``col:<gid>``.
    """
    emu = ButterflyEmulation(net, ns)
    for group in groups:
        if group.dest is not None:
            for member, _token in group.token_items():
                net.grant_knowledge(member, group.dest)
    result = yield from emu.collect(groups)
    return result
