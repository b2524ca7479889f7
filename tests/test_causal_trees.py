"""Causal forest recursion, class extraction, and the two sequence lemmas."""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightcone import causal_trees as ct
from lightcone import factor_graph as fg
from lightcone.errors import (
    IndexOutOfRange,
    TargetAbsent,
    TooLarge,
    UnknownFactor,
)


@pytest.fixture
def chain3():
    return fg.build_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def branched():
    # three factors fanning out of node 1
    return fg.build_graph(4, [(0, 1), (1, 2), (1, 3)])


def seq(root, *factors, **kw):
    return ct.FactorSequence(root=root, factors=factors, **kw)


class TestForest:
    def test_empty_sequence_trivial_tree(self, chain3):
        f = ct.build_causal_forest(chain3, seq(0))
        assert f.is_tree and f.vertices == ()

    def test_chain_trace(self, chain3):
        a, b = chain3.factors
        f = ct.build_causal_forest(chain3, seq(0, a, b))
        assert f.is_tree
        assert f.parent_of(a) is None  # hangs off i
        assert f.parent_of(b) == a

    def test_isolated_first_factor(self, chain3):
        a, b = chain3.factors
        f = ct.build_causal_forest(chain3, seq(0, b))
        assert f.n_components == 2
        assert not ct.is_creeping(chain3, seq(0, b))

    def test_reorder_not_creeping(self, chain3):
        # later factor attaches to the isolated predecessor, components
        # never merge
        a, b = chain3.factors
        f = ct.build_causal_forest(chain3, seq(0, b, a))
        assert f.n_components == 2

    def test_repeat_unchanged(self, chain3):
        a, b = chain3.factors
        f1 = ct.build_causal_forest(chain3, seq(0, a, b))
        f2 = ct.build_causal_forest(chain3, seq(0, a, b, a, b, b))
        assert f1.signature() == f2.signature()

    def test_root_attachment_precedence(self, branched):
        # a factor containing i attaches to i even when predecessors
        # intersect it
        a, b, c = sorted(branched.factors)
        f = ct.build_causal_forest(branched, seq(0, a, c, a))
        assert f.parent_of(c) == a
        f2 = ct.build_causal_forest(branched, seq(1, a, c))
        assert f2.parent_of(c) is None  # 1 in c: root wins over a

    def test_unknown_factor(self, chain3):
        with pytest.raises(UnknownFactor):
            ct.build_causal_forest(chain3, seq(0, fg.Factor(nodes=(0, 2))))

    def test_queries_reject_factor_outside_forest(self, branched):
        a, b, c = sorted(branched.factors)
        forest = ct.build_causal_forest(branched, seq(0, a, b))
        for query in (forest.parent_of, forest.children_of, forest.degree):
            with pytest.raises(UnknownFactor):
                query(c)


class TestPathExtraction:
    def test_chain_path(self, chain3):
        a, b = chain3.factors
        tree = ct.build_causal_forest(chain3, seq(0, a, b))
        p = ct.irreducible_path_of_tree(tree, 2)
        assert p.factors == (a, b)

    def test_side_branch_excluded(self, branched):
        a, b, c = sorted(branched.factors)  # {0,1}, {1,2}, {1,3}
        tree = ct.build_causal_forest(branched, seq(0, a, c, b))
        p = ct.irreducible_path_of_tree(tree, 2)
        assert p.factors == (a, b)

    def test_length_one(self, chain3):
        a, _ = chain3.factors
        tree = ct.build_causal_forest(chain3, seq(0, a))
        assert ct.irreducible_path_of_tree(tree, 1).factors == (a,)

    def test_target_absent(self, chain3):
        a, _ = chain3.factors
        tree = ct.build_causal_forest(chain3, seq(0, a))
        with pytest.raises(TargetAbsent):
            ct.irreducible_path_of_tree(tree, 2)

    def test_earliest_j_factor_wins(self, branched):
        # both b and a second j-containing factor present: class ends at the
        # first occurrence in sequence order
        g = fg.build_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        a = fg.Factor(nodes=(0, 1))
        b = fg.Factor(nodes=(1, 2))
        c = fg.Factor(nodes=(1, 3))
        d = fg.Factor(nodes=(2, 3))
        tree = ct.build_causal_forest(g, seq(0, a, c, d, b))
        # target 3: c (position 2) precedes d
        assert ct.irreducible_path_of_tree(tree, 3).factors == (a, c)


class TestForbiddenVertices:
    def test_last_slot_is_target(self, chain3):
        a, b = chain3.factors
        p = ct.sequence_class(chain3, seq(0, a, b), 2)
        assert ct.forbidden_vertices_single(p, 1) == frozenset({2})

    def test_union_case(self):
        g = fg.build_graph(4, [(0, 1), (1, 2), (2, 3)])
        a, b, c = sorted(g.factors)
        p = ct.sequence_class(g, seq(0, a, b, c), 3)
        assert ct.forbidden_vertices_single(p, 0) == frozenset({1, 2, 3})
        assert ct.forbidden_vertices_single(p, 1) == frozenset({2, 3})

    def test_single_factor_path(self, chain3):
        a, _ = chain3.factors
        p = ct.sequence_class(chain3, seq(0, a), 1)
        assert ct.forbidden_vertices_single(p, 0) == frozenset({1})
        with pytest.raises(IndexOutOfRange):
            ct.forbidden_vertices_single(p, 1)


class TestLemma4:
    def test_chain(self, chain3):
        a, b = chain3.factors
        p = ct.sequence_class(chain3, seq(0, a, b), 2)
        assert ct.lemma4_bijection_check(chain3, p, 4)

    def test_branched(self, branched):
        a, b, c = sorted(branched.factors)
        p = ct.sequence_class(branched, seq(0, a, b), 2)
        assert ct.lemma4_bijection_check(branched, p, 5)

    def test_too_short_sequences_empty_both_sides(self, chain3):
        a, b = chain3.factors
        p = ct.sequence_class(chain3, seq(0, a, b), 2)
        # n_max below path length exercises only the empty-set comparisons
        assert ct.lemma4_bijection_check(chain3, p, 1)

    def test_size_cap(self):
        g = fg.standard_graph("complete_q_local", 5, 2)
        a = fg.Factor(nodes=(0, 4))
        p = ct.sequence_class(g, seq(0, a), 4)
        with pytest.raises(TooLarge):
            ct.lemma4_bijection_check(g, p, 4)

    def test_chain_census_n4(self, chain3):
        # class (A,B) at n=4: A must come first and at least one B appear
        a, b = chain3.factors
        p = ct.sequence_class(chain3, seq(0, a, b), 2)
        members = [
            s
            for s in product(chain3.factors, repeat=4)
            if (c := ct.sequence_class(chain3, ct.FactorSequence(root=0, factors=s), 2))
            and c.factors == p.factors
        ]
        assert len(members) == 7  # A???, any of 2^3 tails except BBB->AAAA


class TestSchwingerKarplus:
    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_identity(self, ell):
        assert ct.schwinger_karplus_check(ell, 4, 0.7, seed=3, tol=1e-6)

    def test_zero_insertion_matrix(self):
        # A = 0 makes both sides vanish for l >= 1; exercised via tiny t
        assert ct.schwinger_karplus_check(1, 2, 0.0, seed=0, tol=1e-9)

    def test_many_seeds_fast(self):
        for s in range(4):
            assert ct.schwinger_karplus_check(1, 4, 0.7, seed=s, tol=1e-6)


# -- properties -------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.data())
def test_creeping_iff_connected_prefixes(data):
    g = fg.build_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    n = data.draw(st.integers(min_value=0, max_value=5))
    s = tuple(
        data.draw(st.sampled_from(g.factors), label=f"f{k}") for k in range(n)
    )
    sq = ct.FactorSequence(root=0, factors=s)
    forest = ct.build_causal_forest(g, sq)
    creeping = forest.is_tree
    # equivalent characterization: every new distinct factor contains the
    # root or intersects an earlier factor, and transitively reaches root
    reachable: set = set()
    ok = True
    seen: list = []
    for x in s:
        if x in seen:
            continue
        kind, where = ct.attach_decision(seen, x, 0)
        if kind == "root":
            reachable.add(x)
        elif kind == "factor" and seen[where] in reachable:
            reachable.add(x)
        else:
            ok = False
        seen.append(x)
    assert creeping == ok


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_determinism(data):
    g = fg.build_graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    n = data.draw(st.integers(min_value=0, max_value=6))
    s = tuple(data.draw(st.sampled_from(g.factors)) for _ in range(n))
    sq = ct.FactorSequence(root=0, factors=s)
    f1 = ct.build_causal_forest(g, sq)
    f2 = ct.build_causal_forest(g, sq)
    assert f1 == f2
