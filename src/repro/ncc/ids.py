"""Node identifier management.

The paper assumes unique IDs from ``[1, n^c]`` for a fixed constant ``c``.
``IdSpace`` realises that assumption: it assigns IDs (either sequentially,
as is convenient in NCC1 where w.l.o.g. IDs are ``[1, n]``, or as a random
injection into the full space, as befits P2P addresses), and converts
between *indices* (0-based positions in the simulator's bookkeeping) and
*IDs* (what nodes actually see and exchange).

Protocol code must only ever traffic in IDs; indices exist so the simulator
can use arrays internally.
"""

from __future__ import annotations

import random
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence


class IdSpace:
    """A fixed assignment of unique node IDs.

    Parameters
    ----------
    n:
        Number of nodes.
    exponent:
        IDs live in ``[1, n**exponent]``.
    random_ids:
        Draw a random injection (seeded) instead of ``1..n``.
    seed:
        Seed for the random injection.
    """

    def __init__(
        self,
        n: int,
        *,
        exponent: int = 3,
        random_ids: bool = True,
        seed: int = 0,
    ) -> None:
        if n < 1:
            raise ValueError(f"need at least one node, got n={n}")
        if exponent < 1:
            raise ValueError(f"id space exponent must be >= 1, got {exponent}")
        self.n = n
        self.exponent = exponent
        self.universe = max(n, n**exponent)
        if random_ids and n > 1:
            rng = random.Random(seed)
            ids = rng.sample(range(1, self.universe + 1), n)
        else:
            ids = list(range(1, n + 1))
        self._ids: tuple[int, ...] = tuple(ids)
        self._index_of: dict[int, int] = {node_id: i for i, node_id in enumerate(ids)}
        if len(self._index_of) != n:
            raise ValueError("duplicate IDs generated (internal error)")

    @property
    def ids(self) -> Sequence[int]:
        """All node IDs, ordered by simulator index (one shared tuple)."""
        return self._ids

    @property
    def index(self) -> Mapping[int, int]:
        """Read-only ``{node_id: index}`` map (the inverse of :attr:`ids`)."""
        return MappingProxyType(self._index_of)

    def id_of(self, index: int) -> int:
        """ID of the node at bookkeeping position ``index`` (0-based)."""
        return self._ids[index]

    def index_of(self, node_id: int) -> int:
        """Bookkeeping position of ``node_id``."""
        try:
            return self._index_of[node_id]
        except KeyError:
            raise KeyError(f"unknown node ID {node_id}") from None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._index_of

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterable[int]:
        return iter(self._ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IdSpace(n={self.n}, universe=[1,{self.universe}])"
