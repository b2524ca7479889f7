"""Path enumeration and the bound family built on it."""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import iv  # oracle for the hand-rolled Bessel series

from lightcone import causal_pairs as cp
from lightcone import factor_graph as fg
from lightcone import path_bounds as pb
from lightcone.errors import (
    AlphaOutOfRange,
    BadDimension,
    InvalidParams,
    NotRegular,
    SameNode,
    WeightTooLarge,
)


def chain(n):
    return fg.standard_graph("chain", n)


@st.composite
def small_graphs(draw, max_factors=8):
    """Connected graph on 3..6 nodes with at most ``max_factors`` factors.

    Factor sizes are all 2, all 3 or mixed; some subsets repeat under a
    second flavor.  A spanning set of factors keeps the graph connected.
    """
    n = draw(st.integers(min_value=3, max_value=6))
    sizes = draw(st.sampled_from([(2,), (3,), (2, 3)]))

    def subset_with(v, earlier):
        size = draw(st.sampled_from(sizes))
        others = [u for u in range(n) if u not in (v, earlier)]
        rest = draw(st.permutations(others))[: size - 2]
        return tuple(sorted((v, earlier, *rest)))

    factors = {
        (subset_with(v, draw(st.integers(0, v - 1))), 0) for v in range(1, n)
    }
    extra = draw(st.integers(0, max_factors - len(factors)))
    for _ in range(extra):
        if factors and draw(st.booleans()):
            nodes, _ = draw(st.sampled_from(sorted(factors)))  # repeat a subset
        else:
            v = draw(st.integers(1, n - 1))
            nodes = subset_with(v, draw(st.integers(0, v - 1)))
        factors.add((nodes, draw(st.integers(0, 1))))
    return fg.build_graph(n, sorted(factors))


def _has_distinct_connectors(factors, i, j):
    """System-of-distinct-representatives check for consecutive overlaps."""
    slots = [
        (a.node_set & b.node_set) - {i, j}
        for a, b in zip(factors, factors[1:])
    ]
    owner = {}  # node -> slot currently using it

    def assign(slot, taken):
        for v in slots[slot]:
            if v in taken:
                continue
            taken.add(v)
            if v not in owner or assign(owner[v], taken):
                owner[v] = slot
                return True
        return False

    return all(assign(s, set()) for s in range(len(slots)))


def brute_force_paths(g, i, j, l_max):
    """Every distinct-factor sequence from i to j, checked once complete."""
    found = []
    for first in g.factors:
        if i not in first:
            continue
        others = [f for f in g.factors if f != first]
        for length in range(1, l_max + 1):
            for rest in itertools.permutations(others, length - 1):
                seq = (first, *rest)
                if any(i in f for f in rest) or any(j in f for f in seq[:-1]):
                    continue
                if j not in seq[-1]:
                    continue
                if any(not a.node_set & b.node_set for a, b in zip(seq, seq[1:])):
                    continue
                if _has_distinct_connectors(seq, i, j):
                    found.append(seq)
    found.sort(key=lambda seq: (len(seq), seq))
    return found


class TestEnumerate:
    def test_chain_single_path(self):
        paths = pb.enumerate_irreducible_paths(chain(5), 0, 2)
        assert len(paths) == 1
        assert len(paths[0]) == 2

    def test_k42_census(self):
        paths = pb.enumerate_irreducible_paths(
            fg.standard_graph("complete_q_local", 4, 2), 0, 1
        )
        by_len = sorted(len(p) for p in paths)
        assert by_len == [1, 2, 2, 3, 3]

    def test_star_through_hub(self):
        paths = pb.enumerate_irreducible_paths(fg.standard_graph("star", 4), 0, 1)
        assert len(paths) == 1 and len(paths[0]) == 2

    def test_same_node(self):
        with pytest.raises(SameNode):
            pb.enumerate_irreducible_paths(chain(3), 1, 1)

    def test_path_invariants_brute(self):
        g = fg.standard_graph("complete_q_local", 5, 2)
        for p in pb.enumerate_irreducible_paths(g, 0, 4, l_max=4):
            assert 0 in p.factors[0] and all(0 not in f for f in p.factors[1:])
            assert 4 in p.factors[-1] and all(4 not in f for f in p.factors[:-1])
            assert len(set(p.factors)) == len(p.factors)
            for a, b in zip(p.factors, p.factors[1:]):
                assert a.node_set & b.node_set

    def test_connector_matching_rejects(self):
        # two-node bridge: three factors sharing the single connector node 1
        # cannot chain through it twice with distinct connectors
        g = fg.build_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        paths = pb.enumerate_irreducible_paths(g, 0, 3)
        # direct route 0-1 / 1-3 is fine; route 0-1,1-2,2-3 uses connectors
        # 1 and 2, also fine; no path may reuse node 1 twice
        for p in paths:
            seqs = [
                (a.node_set & b.node_set) - {0, 3}
                for a, b in zip(p.factors, p.factors[1:])
            ]
            assert all(s for s in seqs)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.data())
    def test_matches_brute_force(self, g, data):
        i, j = data.draw(st.permutations(range(g.n_nodes)))[:2]
        l_max = data.draw(st.integers(1, len(g.factors)))
        got = [p.factors for p in pb.enumerate_irreducible_paths(g, i, j, l_max)]
        assert got == brute_force_paths(g, i, j, l_max)

    def test_rematching_keeps_path(self):
        # slots {1, 2} then {1}: the second slot takes node 1 only after the
        # first is moved over to node 2
        g = fg.build_graph(5, [(0, 1, 2), (1, 2, 3), (1, 4)])
        got = [p.factors for p in pb.enumerate_irreducible_paths(g, 0, 4)]
        assert got == brute_force_paths(g, 0, 4, 3)
        assert [len(p) for p in got] == [2, 3]

    def test_explicit_lmax_needed_past_24_factors(self):
        with pytest.raises(InvalidParams):
            pb.enumerate_irreducible_paths(chain(41), 0, 2)
        assert pb.enumerate_irreducible_paths(chain(41), 0, 2, l_max=4)


class TestTheorem3:
    def test_chain_value(self):
        assert pb.theorem3_bound(chain(5), 0, 2, 0.5) == pytest.approx(0.5)

    def test_star_quadratic(self):
        g = fg.as_weighted(fg.standard_graph("star", 4), 0.7)
        assert pb.theorem3_bound(g, 0, 1, 1.3) == pytest.approx(
            2 * (0.7 * 1.3) ** 2
        )

    def test_zero_time(self):
        assert pb.theorem3_bound(chain(4), 0, 3, 0.0) == 0.0

    def test_even_in_t(self):
        g = fg.standard_graph("complete_q_local", 4, 2)
        assert pb.theorem3_bound(g, 0, 2, 0.4) == pb.theorem3_bound(g, 0, 2, -0.4)


class TestHMatrices:
    def test_chain_structure(self):
        hm = pb.h_matrices(fg.as_weighted(chain(4)))
        expect = np.zeros((4, 4))
        for k in range(3):
            expect[k, k + 1] = expect[k + 1, k] = 1.0
        assert np.array_equal(hm.h, expect)
        assert np.array_equal(np.diag(hm.h_tilde), [1.0, 2.0, 2.0, 1.0])

    def test_single_factor(self):
        hm = pb.h_matrices(fg.as_weighted(fg.build_graph(2, [(0, 1)]), 0.3))
        assert hm.h[0, 1] == pytest.approx(0.3)
        assert hm.h_max == pytest.approx(0.3)
        assert hm.h_tilde_max == pytest.approx(0.6)

    def test_long_chain_cap(self):
        hm = pb.h_matrices(fg.as_weighted(chain(41)))
        assert hm.h_tilde_max <= 4.0 + 1e-12

    def test_tilde_dominates_twice_h(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            factors = [(k, k + 1) for k in range(n - 1)]
            w = rng.uniform(0.1, 2.0, size=n - 1)
            hm = pb.h_matrices(fg.as_weighted(fg.build_graph(n, factors), w))
            assert hm.h_tilde_max >= 2.0 * hm.h_max - 1e-12


class TestCorollary6:
    def test_two_node_sinh(self):
        g = fg.build_graph(2, [(0, 1)])
        assert pb.corollary6_bound(g, 0, 1, 0.5) == pytest.approx(math.sinh(1.0))

    def test_star_closed_form(self):
        n, h, t = 6, 0.9, 0.8
        g = fg.as_weighted(fg.standard_graph("star", n), h)
        got = pb.corollary6_bound(g, 0, 1, t)
        want = (math.cosh(2 * h * t * math.sqrt(n - 1)) - 1) / (n - 1)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_time_offdiag(self):
        assert pb.corollary6_bound(chain(4), 0, 3, 0.0) == 0.0

    def test_unreachable_zero(self):
        g = fg.build_graph(5, [(0, 1), (1, 2), (3, 4)])
        assert pb.corollary6_bound(g, 0, 4, 1.5) == 0.0
        assert pb.corollary6_bound(g, 4, 1, 0.2) == 0.0

    def test_endpoints_checked(self):
        g = chain(6)
        for i, j in ((-1, 3), (0, 9), (3, -1), (6, 0)):
            with pytest.raises(InvalidParams):
                pb.corollary6_bound(g, i, j, 1.0)
        # i == j is the diagonal entry of e^{2|t| h}, as before
        assert pb.corollary6_bound(g, 2, 2, 0.0) == 1.0

    # scipy's expm (Pade with scaling and squaring) is itself good to about
    # 1e-12 relative only up to 2|t| max_row_sum(h) ~ 2, and only relative
    # to the largest entry of a row; against 40-digit mpmath the walk sum
    # stays within 1e-14 well beyond that.  Hence the scaled time and the
    # row-relative floor.
    @settings(max_examples=60, deadline=None)
    @given(
        small_graphs(),
        st.floats(min_value=0.01, max_value=2.0),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_matches_expm(self, base, scaled_t, seed):
        rng = np.random.default_rng(seed)
        g = fg.as_weighted(base, rng.uniform(0.2, 1.5, size=len(base.factors)))
        h = pb.h_matrices(g).h
        t = scaled_t / (2.0 * h.sum(axis=1).max())
        want = scipy.linalg.expm(2.0 * t * h)
        for i in range(g.n_nodes):
            floor = 1e-15 * want[i].max()
            for j in range(g.n_nodes):
                got = pb.corollary6_bound(g, i, j, t)
                assert got == pytest.approx(want[i, j], rel=1e-12, abs=floor)

    def test_dominates_theorem3(self):
        g = fg.standard_graph("complete_q_local", 5, 2)
        for t in (0.1, 0.5, 1.0, 2.0):
            assert pb.theorem3_bound(g, 0, 4, t) <= pb.corollary6_bound(g, 0, 4, t) + 1e-9

    def test_chain_matches_bessel(self):
        g = chain(41)
        for t in (0.5, 1.0, 2.0):
            got = pb.corollary6_bound(g, 14, 26, t)
            assert got == pytest.approx(pb.bessel_i(12, 4 * t), rel=1e-6)

    @staticmethod
    def walk_series(g, i, j, t, n_terms):
        """The walk series of (e^{2|t| h})_ij summed to n_terms terms, term by term."""
        h = fg.as_weighted(g).h_sparse
        u = np.zeros(h.shape[0])
        u[i] = 1.0
        total = float(u[j])
        for length in range(1, n_terms):
            u = (2.0 * abs(t) / length) * (h @ u)
            total += float(u[j])
        return total

    def test_never_below_the_series(self):
        rng = np.random.default_rng(12)
        graphs = [
            chain(12),
            fg.standard_graph("star", 7),
            fg.standard_graph("complete_q_local", 6, 2),
            fg.as_weighted(chain(9), rng.uniform(0.1, 2.0, size=8)),
        ]
        for g in graphs:
            n = fg.as_weighted(g).graph.n_nodes
            for t in (0.05, 0.3, 1.0, 2.5):
                for i in range(n):
                    for j in range(n):
                        want = self.walk_series(g, i, j, t, 200)
                        assert pb.corollary6_bound(g, i, j, t) >= want, (i, j, t)


class TestLiebRobinson:
    def test_zero_time(self):
        assert pb.lieb_robinson_bound(chain(5), 0, 3, 0.0, alpha=2.0) == 0.0

    def test_alpha_validation(self):
        with pytest.raises(AlphaOutOfRange):
            pb.lieb_robinson_bound(chain(5), 0, 3, 1.0, alpha=1.0)

    def test_optimized_beats_fixed(self):
        g = chain(9)
        for t in (0.2, 0.7, 1.9):
            opt = pb.lieb_robinson_bound(g, 0, 6, t)
            assert opt <= pb.lieb_robinson_bound(g, 0, 6, t, alpha=math.e) + 1e-12

    def test_dominates_corollary6(self):
        g = chain(9)
        for t in (0.25, 1.0, 2.5):
            assert (
                pb.corollary6_bound(g, 1, 7, t)
                <= pb.lieb_robinson_bound(g, 1, 7, t) + 1e-9
            )


class TestVelocities:
    def test_chain_lr_velocity(self):
        v = pb.velocities(chain(41))
        hm = pb.h_matrices(fg.as_weighted(chain(41)))
        assert v.v_lr == pytest.approx(2 * math.e * hm.h_tilde_max)
        # long-chain limit 8eh, approached from below
        assert v.v_lr <= 8 * math.e + 1e-9
        assert v.v_lr >= 8 * math.e * 0.99

    def test_improvement_factor(self):
        v = pb.velocities(chain(41))
        assert v.v_improved <= v.v_lr / 2 + 1e-9

    def test_single_factor_ratio_two(self):
        v = pb.velocities(fg.as_weighted(fg.build_graph(2, [(0, 1)]), 1.3))
        assert v.v_lr == pytest.approx(2 * v.v_improved)

    def test_alpha_optimization_recovers_2e(self):
        # inf over alpha>1 of rate*alpha/ln(alpha) = e*rate at alpha = e
        hm = pb.h_matrices(fg.as_weighted(chain(12)))
        _, best = pb.golden_section_min(
            lambda u: 2 * hm.h_tilde_max * math.exp(u) / u,
            1e-6,
            math.log(1e3),
            tol=1e-12,
        )
        assert best == pytest.approx(2 * math.e * hm.h_tilde_max, abs=1e-9)


class TestClosedForms:
    def test_bessel_identity_at_zero(self):
        assert pb.closed_form_bound("chain_bessel", 0.0, h=1.0, delta=0) == 1.0
        assert pb.closed_form_bound("chain_bessel", 0.0, h=1.0, delta=3) == 0.0

    def test_bessel_vs_scipy(self):
        for delta in (0, 1, 5, 12):
            for x in (0.1, 1.0, 4.0, 9.5):
                assert pb.bessel_i(delta, x) == pytest.approx(
                    float(iv(delta, x)), rel=1e-10
                )

    def test_thm3_closed_form_matches_enumeration(self):
        g = chain(41)
        for t in (0.3, 1.1):
            got = pb.theorem3_bound(g, 14, 26, t, l_max=12)
            want = pb.closed_form_bound("chain_thm3", t, h=1.0, delta=12)
            assert got == pytest.approx(want, rel=1e-12)

    def test_complete_tfm_large_n(self):
        n, a, t = 4000, 0.7, 0.9
        got = pb.closed_form_bound("complete_tfm", t, n_nodes=n, a=a)
        want = math.expm1(2 * a * t) / (n - 1)
        assert got == pytest.approx(want, rel=1e-2)

    def test_bad_model(self):
        with pytest.raises(InvalidParams):
            pb.closed_form_bound("nope", 1.0)


class TestTfmSum:
    def test_zero_time(self):
        a = 0.8
        g = fg.standard_graph("complete_q_local", 6, 2)
        cap = 6 * a / (2 * len(g.factors))
        assert pb.tfm_sum_bound(fg.as_weighted(g, cap), a, 0.0) == pytest.approx(1 / 6)

    def test_requires_regular(self):
        with pytest.raises(NotRegular):
            pb.tfm_sum_bound(fg.as_weighted(chain(4)), 1.0, 0.5)

    def test_weight_cap(self):
        g = fg.standard_graph("complete_q_local", 4, 2)
        with pytest.raises(WeightTooLarge):
            pb.tfm_sum_bound(fg.as_weighted(g, 1.0), 0.1, 0.5)

    def test_sum_of_cor6_under_bound(self):
        # whole-graph sum of the matrix bound stays under e^{2at}/N
        n, a = 6, 0.8
        g = fg.standard_graph("complete_q_local", n, 2)
        cap = n * a / (2 * len(g.factors))
        wg = fg.as_weighted(g, cap)
        for t in (0.25, 0.5, 1.0):
            total = sum(
                pb.corollary6_bound(wg, i, j, t)
                for i in range(n)
                for j in range(n)
                if i != j
            )
            # bound covers the pair sum normalized per the statement
            assert total / n**2 <= pb.tfm_sum_bound(wg, a, t) + 1e-12


class TestProp1Convert:
    def test_qubit_interval(self):
        lo, hi = pb.prop1_convert(0.6, 2)
        assert lo == pytest.approx(0.6 / math.sqrt(3))
        assert hi == pytest.approx(0.6 * math.sqrt(1.5))

    def test_zero(self):
        assert pb.prop1_convert(0.0, 2) == (0.0, 0.0)

    def test_clipping(self):
        lo, hi = pb.prop1_convert(1.0, 2)
        assert hi == 1.0
        assert lo == pytest.approx(1 / math.sqrt(3))

    def test_round_trip_contains(self):
        lo, hi = pb.prop1_convert(0.4, 3, source="c")
        assert lo <= 0.4 <= hi * math.sqrt(3 * 3 - 1)

    def test_bad_dim(self):
        with pytest.raises(BadDimension):
            pb.prop1_convert(0.5, 1)


# -- ordering property across the family ------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=6),
    st.floats(min_value=0.05, max_value=2.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_bound_ordering_random_graphs(n, t, seed):
    rng = np.random.default_rng(seed)
    factors = [(k, k + 1) for k in range(n - 1)]
    extra = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(2, 2)) if a != b]
    existing = {tuple(sorted(f)) for f in factors}
    for f in extra:
        key = tuple(sorted(f))
        if key not in existing:
            existing.add(key)
            factors.append(key)
    g = fg.as_weighted(
        fg.build_graph(n, factors), rng.uniform(0.2, 1.5, size=len(factors))
    )
    i, j = 0, n - 1
    thm3 = pb.theorem3_bound(g, i, j, t)
    cor6 = pb.corollary6_bound(g, i, j, t)
    lr = pb.lieb_robinson_bound(g, i, j, t)
    assert thm3 <= cor6 + 1e-9
    assert cor6 <= lr + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.5))
def test_bounds_even_and_zero_at_origin(t):
    g = chain(6)
    assert pb.theorem3_bound(g, 0, 4, t) == pb.theorem3_bound(g, 0, 4, -t)
    assert pb.corollary6_bound(g, 0, 4, t) == pb.corollary6_bound(g, 0, 4, -t)
    if t == 0:
        assert pb.theorem3_bound(g, 0, 4, t) == 0.0


class TestCacheOwnership:
    def test_graph_freed_after_bounds(self):
        base = fg.build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
        g = fg.as_weighted(base, [0.3, 0.4, 0.5, 0.6, 0.7])
        pb.theorem3_bound(g, 0, 4, 1.0)
        pb.corollary6_bound(g, 0, 4, 1.0)
        pb.lieb_robinson_bound(g, 0, 4, 1.0)
        pb.h_matrices(g)
        cp.theorem4_bound_bruteforce(g, 0, 4, 0.5)
        refs = weakref.ref(g), weakref.ref(base)
        del g, base
        gc.collect()
        assert [r() for r in refs] == [None, None]

    def test_unit_view_shared(self):
        g = chain(5)
        assert fg.as_weighted(g) is fg.as_weighted(g) is fg.as_weighted(g, 1.0)
        assert pb.h_matrices(fg.as_weighted(g)) is pb.h_matrices(fg.as_weighted(g))
        assert fg.as_weighted(g, 2.0).weights == (2.0,) * 4

    def test_cache_table_bounded(self):
        g = chain(600)
        for j in range(1, 600):
            fg.distance(g, 0, j)
            fg.distance(g, j, 0)
        (table,) = g._caches.values()
        assert len(table) == 256
        assert fg.distance(g, 599, 0) == 2 * 599
