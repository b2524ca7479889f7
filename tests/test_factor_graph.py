"""Factor graph model: construction, metric, genus, ensembles, JSON."""

import ast
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightcone import factor_graph as fg
from lightcone.errors import (
    Disconnected,
    DuplicateFactor,
    EmptyFactor,
    InvalidParams,
    IoError,
    NodeOutOfRange,
    ProbabilityOutOfRange,
)


def chain(n):
    return fg.standard_graph("chain", n)


class TestBuild:
    def test_chain_counts(self):
        g = fg.build_graph(3, [(0, 1), (1, 2)])
        assert len(g.factors) == 2
        assert g.n_edges == 4

    def test_flavors_distinct(self):
        g = fg.build_graph(3, [((0, 1), 0), ((0, 1), 1)])
        assert len(g.factors) == 2
        assert g.factors[0].nodes == g.factors[1].nodes

    def test_empty_factor(self):
        with pytest.raises(EmptyFactor):
            fg.build_graph(2, [()])

    def test_node_out_of_range(self):
        with pytest.raises(NodeOutOfRange):
            fg.build_graph(2, [(0, 2)])

    def test_duplicate(self):
        with pytest.raises(DuplicateFactor):
            fg.build_graph(3, [(0, 1), (1, 0)])

    def test_factors_sorted_canonically(self):
        g = fg.build_graph(4, [(2, 3), (0, 1), ((0, 1), 1)])
        assert g.factors == tuple(sorted(g.factors))

    def test_equal_graphs_hash_equal(self):
        a = fg.build_graph(4, [(0, 1), (1, 2), ((2, 3), 1)])
        b = fg.build_graph(4, [((2, 3), 1), (2, 1), (0, 1)])
        assert a is not b and a == b and hash(a) == hash(b)
        wa = fg.as_weighted(a, [0.5, 1.0, 2.0])
        wb = fg.as_weighted(b, [0.5, 1.0, 2.0])
        assert wa is not wb and wa == wb and hash(wa) == hash(wb)
        assert wa != fg.as_weighted(a, [0.5, 1.0, 2.5])

    def test_weight_of(self):
        g = fg.build_graph(4, [(0, 1), (1, 2), ((1, 2), 1)])
        wg = fg.as_weighted(g, [0.5, 1.0, 2.0])
        assert [wg.weight_of(f) for f in g.factors] == [0.5, 1.0, 2.0]
        with pytest.raises(NodeOutOfRange):
            wg.weight_of(fg.Factor(nodes=(0, 2)))
        with pytest.raises(NodeOutOfRange):
            wg.weight_of(fg.Factor(nodes=(1, 2), flavor=2))


class TestDistance:
    def test_chain_node_node(self):
        g = chain(3)
        assert fg.distance(g, 0, 2) == 4

    def test_node_factor(self):
        g = chain(3)
        assert fg.distance(g, 0, g.factors[0]) == 1

    def test_identity(self):
        g = chain(3)
        assert fg.distance(g, 1, 1) == 0
        assert fg.distance(g, g.factors[0], g.factors[0]) == 0

    def test_disconnected(self):
        g = fg.build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            fg.distance(g, 0, 3)
        assert not g.is_connected and chain(4).is_connected

    def test_endpoints_checked(self):
        g = chain(3)
        for a, b in ((0, 3), (-1, 0), (0, fg.Factor(nodes=(0, 2)))):
            with pytest.raises(NodeOutOfRange):
                fg.distance(g, a, b)

    def test_vertex_numbering(self):
        g = fg.build_graph(3, [(1, 2), (0, 1)])
        assert [g.vertex(site) for site in (0, 2, *g.factors)] == [0, 2, 3, 4]
        assert g.distances_from(0) == [0, 2, 4, 1, 3]


class TestGenus:
    def test_tree_genus_zero(self):
        assert fg.genus(chain(5)) == 0

    def test_triangle(self):
        assert fg.genus(fg.standard_graph("complete_q_local", 3, 2)) == 1

    def test_k4(self):
        assert fg.genus(fg.standard_graph("complete_q_local", 4, 2)) == 3

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            fg.genus(fg.build_graph(4, [(0, 1), (2, 3)]))


class TestStandard:
    def test_chain_factor_count(self):
        assert len(chain(5).factors) == 4

    def test_k42_degrees(self):
        g = fg.standard_graph("complete_q_local", 4, 2)
        assert len(g.factors) == 6
        assert all(g.degree(i) == 3 for i in range(4))

    def test_star_hub(self):
        g = fg.standard_graph("star", 4)
        assert g.degree(3) == 3
        assert all(g.degree(i) == 1 for i in range(3))

    def test_bad_kind(self):
        with pytest.raises(InvalidParams):
            fg.standard_graph("wheel", 5)


class TestErdosRenyi:
    def test_probability_exact_fraction(self):
        # N=7, q=3, m=2, k=2: (2!)(4!)*2 / (6! * 2) = 96/1440 = 1/15
        p = fg.erdos_renyi_inclusion_probability(7, 3, 2, 2)
        assert p == Fraction(1, 15)

    def test_probability_too_large(self):
        with pytest.raises(ProbabilityOutOfRange):
            fg.erdos_renyi_hypergraph(4, 2, 100, 1, seed=0)

    def test_p_equal_one_gives_complete(self):
        # k = N-1 makes p = 1 for q=2, m=1
        g = fg.erdos_renyi_hypergraph(5, 2, 4, 1, seed=3)
        assert len(g.factors) == math.comb(5, 2)

    def test_seed_determinism(self):
        a = fg.erdos_renyi_hypergraph(8, 3, 2, 2, seed=11)
        b = fg.erdos_renyi_hypergraph(8, 3, 2, 2, seed=11)
        assert a == b
        c = fg.erdos_renyi_hypergraph(8, 3, 2, 2, seed=12)
        assert a != c  # overwhelmingly likely

    def test_mean_degree_three_sigma(self):
        # law of large numbers: mean node degree over many draws ~ k
        n, q, k, m = 7, 3, 2.0, 2
        draws = 10_000
        p = float(fg.erdos_renyi_inclusion_probability(n, q, k, m))
        per_node_candidates = m * math.comb(n - 1, q - 1)
        total = 0.0
        for s in range(draws):
            g = fg.erdos_renyi_hypergraph(n, q, k, m, seed=1000 + s)
            total += sum(g.degree(i) for i in range(n)) / n
        mean = total / draws
        # variance of a single node degree: binomial; node degrees within a
        # graph are correlated, so bound the sample std by the per-graph std
        var_deg = per_node_candidates * p * (1 - p)
        sigma = math.sqrt(var_deg / draws)
        assert abs(mean - k) <= 3.0 * sigma


class TestRegularity:
    def test_k42(self):
        rep = fg.regularity_check(fg.standard_graph("complete_q_local", 4, 2))
        assert rep == fg.RegularityReport(True, k=3, q=2)

    def test_star_not_regular(self):
        assert not fg.regularity_check(fg.standard_graph("star", 4)).is_regular

    def test_chain_not_regular(self):
        assert not fg.regularity_check(chain(3)).is_regular

    def test_regular_edge_identity(self):
        for n, q, m in [(5, 2, 1), (6, 3, 2), (4, 4, 3)]:
            g = fg.standard_graph("complete_q_local", n, q, m)
            rep = fg.regularity_check(g)
            assert rep.is_regular
            assert rep.q * len(g.factors) == rep.k * n


class TestJson:
    def test_round_trip_bit_exact(self):
        g = fg.build_graph(4, [(0, 1), ((0, 1), 1), (1, 2, 3)])
        text = fg.graph_to_json(g)
        assert fg.graph_from_json(text) == g
        assert fg.graph_to_json(fg.graph_from_json(text)) == text

    def test_weighted_round_trip(self):
        g = fg.as_weighted(chain(3), [0.25, 1.75])
        text = fg.graph_to_json(g)
        back = fg.graph_from_json(text)
        assert back == g
        assert '"weight"' in text

    def test_unit_weights_omit_key(self):
        g = chain(3)
        assert fg.graph_to_json(fg.as_weighted(g, 1.0)) == fg.graph_to_json(g)

    def test_schema_shape(self):
        obj = json.loads(fg.graph_to_json(chain(3)))
        assert obj == {
            "N": 3,
            "factors": [
                {"nodes": [0, 1], "flavor": 0},
                {"nodes": [1, 2], "flavor": 0},
            ],
        }

    def test_bad_json(self):
        with pytest.raises(IoError):
            fg.graph_from_json("{not json")
        with pytest.raises(IoError):
            fg.graph_from_json('{"factors": []}')
        for bad in (
            {"N": 3, "factors": [{"flavor": 0}]},
            {"N": 3, "factors": [{"nodes": 5}]},
            {"N": "x", "factors": [{"nodes": [0, 1]}]},
        ):
            with pytest.raises(IoError):
                fg.graph_from_json(json.dumps(bad))


# -- property tests ---------------------------------------------------------

@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    # random spanning chain keeps it connected, then extra random factors
    factors = {fg.Factor(nodes=(k, k + 1)) for k in range(n - 1)}
    extra = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3),
            max_size=5,
        )
    )
    for nodes in extra:
        flavor = 0
        while fg.Factor(nodes=tuple(nodes), flavor=flavor) in factors:
            flavor += 1
        factors.add(fg.Factor(nodes=tuple(nodes), flavor=flavor))
    return fg.build_graph(n, sorted(factors))


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.data())
def test_distance_is_a_metric(g, data):
    sites = list(range(g.n_nodes)) + list(g.factors)
    a = data.draw(st.sampled_from(sites))
    b = data.draw(st.sampled_from(sites))
    c = data.draw(st.sampled_from(sites))
    dab = fg.distance(g, a, b)
    assert dab == fg.distance(g, b, a)
    assert (dab == 0) == (a == b)
    assert dab <= fg.distance(g, a, c) + fg.distance(g, c, b)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.data())
def test_node_node_distance_even(g, data):
    i = data.draw(st.integers(min_value=0, max_value=g.n_nodes - 1))
    j = data.draw(st.integers(min_value=0, max_value=g.n_nodes - 1))
    d = fg.distance(g, i, j)
    assert d % 2 == 0
    assert d // 2 == d / 2


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_genus_nonnegative(g):
    assert fg.genus(g) >= 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=9))
def test_tree_genus_zero_property(n):
    assert fg.genus(chain(n)) == 0
    assert fg.genus(fg.standard_graph("star", n)) == 0


def test_no_module_cache_takes_a_graph():
    """Caches keyed by a graph live on the graph (``graph_cache``), so they
    are freed with it; a module-level lru_cache would keep the graph alive."""
    found = []
    for path in sorted(Path(fg.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            decorators = [ast.unparse(d) for d in node.decorator_list]
            if not any("lru_cache" in d or d.endswith("cache") for d in decorators):
                continue
            if "graph_cache" in decorators:
                continue
            if any("Graph" in ast.unparse(a.annotation or ast.Constant("")) for a in node.args.args):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []
