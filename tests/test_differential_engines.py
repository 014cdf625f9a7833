"""Property-based differential tests: every engine ≡ reference engine.

The fast engine's contract (see :mod:`repro.ncc.engine`) is
*bit-identical observable behaviour*: same realizations, same knowledge,
same metrics, same raised errors.  These tests drive full protocols —
degree realization on seeded Erdős–Gallai-feasible sequences, tree
realization on random Prüfer-derived sequences — under both engines and
assert the outcomes are equal, and
additionally that the distributed verdicts agree with the sequential
ground truth (`sequential/havel_hakimi.py`, `sequential/trees.py`).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.degree_realization import realize_degree_sequence
from repro.core.tree_realization import realize_tree
from repro.ncc.config import NCCConfig, Variant
from repro.ncc.network import Network
from repro.primitives.bbst import build_bbst
from repro.primitives.protocol import run_protocol
from repro.primitives.sorting import distributed_sort
from repro.sequential import havel_hakimi, is_graphic, is_tree_realizable
from repro.validation import check_degree_match, check_simple, check_tree
from repro.workloads import random_graphic_sequence

#: Engine configurations under differential test; every label must be
#: bit-identical to "reference".
ENGINE_CONFIGS = {
    "fast": {"engine": "fast"},
    "reference": {"engine": "reference"},
}
ENGINES = tuple(ENGINE_CONFIGS)


def nets_for(n: int, seed: int, **overrides):
    """One identically-seeded network per engine configuration."""
    return {
        label: Network(n, NCCConfig(seed=seed, **config, **overrides))
        for label, config in ENGINE_CONFIGS.items()
    }


def assert_all_match_reference(outcomes) -> None:
    for label, outcome in outcomes.items():
        assert outcome == outcomes["reference"], f"engine {label} diverged"


@st.composite
def graphic_sequences(draw):
    """Seeded random Erdős–Gallai-feasible degree sequences."""
    n = draw(st.integers(4, 18))
    p = draw(st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    seed = draw(st.integers(0, 10_000))
    return random_graphic_sequence(n, p, seed=seed)


@st.composite
def tree_sequences(draw):
    """Random tree degree sequences via Prüfer multiplicities."""
    n = draw(st.integers(2, 12))
    prufer = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    degrees = [1] * n
    for x in prufer:
        degrees[x] += 1
    return degrees


class TestDegreeRealizationDifferential:
    @settings(max_examples=20, deadline=None)
    @given(seq=graphic_sequences(), seed=st.integers(0, 1_000))
    def test_fast_matches_reference_and_ground_truth(self, seq, seed):
        assert is_graphic(seq)  # generator guarantees EG feasibility
        outcomes = {}
        for engine, net in nets_for(len(seq), seed).items():
            demands = dict(zip(net.node_ids, seq))
            result = realize_degree_sequence(net, demands)
            outcomes[engine] = (
                result.realized,
                result.announced_unrealizable_by,
                result.edges,
                result.realized_degrees,
                result.phases,
                result.stats,
            )
            # Distributed result must match the sequential oracle.
            assert result.realized
            assert check_simple(result.edges)
            assert check_degree_match(result.edges, demands, net.node_ids)
        assert_all_match_reference(outcomes)
        # Sequential Havel–Hakimi realizes the same sequence.
        assert havel_hakimi(seq) is not None

    @settings(max_examples=10, deadline=None)
    @given(seq=graphic_sequences(), bump=st.integers(1, 3), seed=st.integers(0, 500))
    def test_unrealizable_verdicts_identical(self, seq, bump, seed):
        # Push the largest entries to n-1 to (usually) break graphicality;
        # whatever the verdict, both engines and the oracle must agree.
        seq = list(seq)
        n = len(seq)
        for i in range(min(bump, n)):
            seq[i] = n - 1
        outcomes = {}
        for engine, net in nets_for(n, seed).items():
            demands = dict(zip(net.node_ids, seq))
            result = realize_degree_sequence(net, demands)
            outcomes[engine] = (
                result.realized,
                result.announced_unrealizable_by,
                result.edges,
                result.stats,
            )
            assert result.realized == is_graphic(seq)
            assert result.realized == (havel_hakimi(seq) is not None)
        assert_all_match_reference(outcomes)


class TestTreeRealizationDifferential:
    @settings(max_examples=20, deadline=None)
    @given(
        seq=tree_sequences(),
        variant=st.sampled_from(["max_diameter", "min_diameter"]),
        seed=st.integers(0, 1_000),
    )
    def test_fast_matches_reference_and_ground_truth(self, seq, variant, seed):
        assert is_tree_realizable(seq)  # Prüfer construction guarantees it
        outcomes = {}
        for engine, net in nets_for(len(seq), seed).items():
            demands = dict(zip(net.node_ids, seq))
            result = realize_tree(net, demands, variant=variant)
            outcomes[engine] = (
                result.realized,
                result.edges,
                result.realized_degrees,
                result.diameter,
                result.stats,
            )
            assert result.realized
            if len(seq) > 1:
                assert check_tree(result.edges, net.node_ids)
                assert check_degree_match(result.edges, demands, net.node_ids)
        assert_all_match_reference(outcomes)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1_000), n=st.integers(3, 12))
    def test_infeasible_tree_sequences_identical(self, seed, n):
        rng = random.Random(seed)
        seq = [rng.randrange(0, n) for _ in range(n)]
        if is_tree_realizable(seq):
            seq[0] = 0  # break Harary's condition (a zero degree, n > 1)
        outcomes = {}
        for engine, net in nets_for(n, seed).items():
            demands = dict(zip(net.node_ids, seq))
            result = realize_tree(net, demands)
            outcomes[engine] = (result.realized, result.stats)
            assert not result.realized
        assert_all_match_reference(outcomes)


class TestMetricsIdentity:
    """All engines' metrics must be bit-identical on core primitives."""

    @pytest.mark.parametrize("n,seed", [(16, 1), (32, 2), (64, 3)])
    def test_sorting_metrics_identical(self, n, seed):
        outcomes = {}
        for engine, net in nets_for(n, seed).items():
            rng = random.Random(seed)
            table = {v: rng.randrange(n) for v in net.node_ids}
            _, order = run_protocol(net, distributed_sort(net, lambda v: table[v]))
            outcomes[engine] = (net.stats(), order)
        assert_all_match_reference(outcomes)

    @pytest.mark.parametrize("n,seed", [(16, 4), (48, 5)])
    def test_bbst_metrics_identical(self, n, seed):
        stats = {}
        for engine, net in nets_for(n, seed).items():
            run_protocol(net, build_bbst(net))
            stats[engine] = net.stats()
        assert_all_match_reference(stats)

    def test_ncc1_variant_identical(self):
        stats = {}
        for engine, net in nets_for(
            24, 9, variant=Variant.NCC1, random_ids=False
        ).items():
            rng = random.Random(9)
            table = {v: rng.randrange(24) for v in net.node_ids}
            run_protocol(net, distributed_sort(net, lambda v: table[v]))
            stats[engine] = net.stats()
        assert_all_match_reference(stats)

    def test_knowledge_sets_identical_after_run(self):
        known = {}
        for engine, net in nets_for(20, 13).items():
            rng = random.Random(13)
            table = {v: rng.randrange(20) for v in net.node_ids}
            run_protocol(net, distributed_sort(net, lambda v: table[v]))
            known[engine] = {v: frozenset(s) for v, s in net.known.items()}
        assert_all_match_reference(known)
