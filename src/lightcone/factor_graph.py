"""Factor graphs: data model, generators, metrics, genus, serialization.

A factor graph G = (V, F, E) is bipartite: nodes V = {0..N-1} on one side,
factors (node subsets with a flavor index) on the other, and an edge (i, X)
for every i in X.  Multiplicity of identical subsets is expressed through the
flavor index, so factor identity survives serialization.

The bipartite graph has one integer vertex numbering: node v is vertex v,
and factor f, its index into the sorted ``factors``, is vertex N + f.  The
breadth-first search runs on these ids (``FactorGraph.distances_from``);
``distance`` turns its node or ``Factor`` arguments into ids once, at the
boundary.

Everything derived from a graph is cached on the graph instance, never in
a module-level cache, so it is freed with the graph: fixed data in
``cached_property`` attributes, results keyed by arguments through
``graph_cache`` (BFS distances here; paths, h matrices and the pair series
in the bound layers).  Graphs are compared and hashed by value, but equal
graphs do not share cache entries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np
import scipy.sparse

from .errors import (
    ComputeError,
    Disconnected,
    DuplicateFactor,
    EmptyFactor,
    InvalidParams,
    IoError,
    NodeOutOfRange,
    ProbabilityOutOfRange,
)

__all__ = [
    "Factor",
    "FactorGraph",
    "WeightedFactorGraph",
    "RegularityReport",
    "build_graph",
    "distance",
    "genus",
    "standard_graph",
    "erdos_renyi_hypergraph",
    "regularity_check",
    "graph_to_json",
    "graph_from_json",
    "as_weighted",
]


@dataclass(frozen=True, order=True)
class Factor:
    """A hyperedge: sorted node subset plus a flavor index.

    Two factors with the same nodes but different flavors are distinct; the
    flavor is how multiplicity m > 1 is represented.
    """

    nodes: tuple[int, ...]
    flavor: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))

    @property
    def node_set(self) -> frozenset[int]:
        return frozenset(self.nodes)

    def __contains__(self, node: int) -> bool:
        return node in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)


Site = Union[int, Factor]  # vertex of the bipartite graph

_CACHE_SIZE = 256  # entries per graph_cache table of one graph


class _GraphCaches:
    """Holds the ``graph_cache`` tables of one graph instance."""

    @cached_property
    def _caches(self) -> dict[Callable, dict]:
        return {}


def graph_cache(fn: Callable) -> Callable:
    """Cache ``fn(g, *key)`` on the graph ``g`` itself, so entries die with g.

    Each graph keeps one table per cached function; a table drops its
    oldest entry once it holds _CACHE_SIZE of them.
    """

    @wraps(fn)
    def cached(g, *key):
        table = g._caches.setdefault(fn, {})
        if key in table:
            return table[key]
        if len(table) >= _CACHE_SIZE:
            del table[next(iter(table))]
        value = table[key] = fn(g, *key)
        return value

    return cached


@dataclass(frozen=True)
class FactorGraph(_GraphCaches):
    n_nodes: int
    factors: tuple[Factor, ...]

    @property
    def graph(self) -> FactorGraph:
        """The unweighted graph: itself (a weighted graph's is its base)."""
        return self

    @cached_property
    def node_adjacency(self) -> tuple[tuple[int, ...], ...]:
        """For each node, indices into ``factors`` of incident factors."""
        adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for fi, f in enumerate(self.factors):
            for node in f.nodes:
                adj[node].append(fi)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def factor_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """For each factor, sorted indices of the other factors sharing a node."""
        return tuple(
            tuple(
                sorted(
                    {
                        other
                        for node in f.nodes
                        for other in self.node_adjacency[node]
                        if other != fi
                    }
                )
            )
            for fi, f in enumerate(self.factors)
        )

    @cached_property
    def n_edges(self) -> int:
        return sum(len(f) for f in self.factors)

    def degree(self, node: int) -> int:
        return len(self.node_adjacency[node])

    @cached_property
    def _vertex_adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbour ids of every vertex: factor vertices of a node, nodes of a factor."""
        n = self.n_nodes
        return tuple(
            tuple(n + fi for fi in adj) for adj in self.node_adjacency
        ) + tuple(f.nodes for f in self.factors)

    @graph_cache
    def distances_from(self, source: int) -> list[int | None]:
        """Edge counts from vertex ``source`` to every vertex (None: unreached).

        The list is cached and shared, so never modify it.
        """
        adjacency = self._vertex_adjacency
        dist: list[int | None] = [None] * len(adjacency)
        dist[source] = 0
        queue = [source]
        for v in queue:  # the loop reads the vertices appended behind it
            for w in adjacency[v]:
                if dist[w] is None:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    @cached_property
    def is_connected(self) -> bool:
        return self.n_nodes == 0 or None not in self.distances_from(0)

    @cached_property
    def _unit_weighted(self) -> WeightedFactorGraph:
        # as_weighted hands this view out, so unweighted callers share its caches
        return WeightedFactorGraph(graph=self, weights=(1.0,) * len(self.factors))

    @cached_property
    def _factor_positions(self) -> dict[Factor, int]:
        positions: dict[Factor, int] = {}
        for fi, f in enumerate(self.factors):
            positions.setdefault(f, fi)
        return positions

    def factor_index(self, f: Factor) -> int:
        try:
            return self._factor_positions[f]
        except KeyError:
            raise NodeOutOfRange(f"factor {f} not in graph") from None

    def vertex(self, site: Site) -> int:
        """Vertex id of a node (itself) or of a factor (N + its index)."""
        if isinstance(site, Factor):
            return self.n_nodes + self.factor_index(site)
        if not 0 <= site < self.n_nodes:
            raise NodeOutOfRange(f"node {site} outside 0..{self.n_nodes - 1}")
        return site


@dataclass(frozen=True)
class WeightedFactorGraph(_GraphCaches):
    """A factor graph with per-factor spectral-norm weights ||H_X|| > 0."""

    graph: FactorGraph
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.graph.factors):
            raise InvalidParams(
                f"{len(self.weights)} weights for {len(self.graph.factors)} factors"
            )
        if any(not (w > 0) for w in self.weights):
            raise InvalidParams("factor weights must be positive")

    def weight_of(self, f: Factor) -> float:
        return self.weights[self.graph.factor_index(f)]

    @cached_property
    def h_sparse(self) -> scipy.sparse.csr_array:
        """Pairwise weight matrix h in CSR form; shared, so never modify it.

        h_ab sums the weights of the factors containing both a and b, added
        in factor order; the diagonal is zero.  ``path_bounds.h_matrices``
        densifies this matrix.
        """
        pair_weight: dict[tuple[int, int], float] = {}
        for f, w in zip(self.factors, self.weights):
            for a_idx, a in enumerate(f.nodes):
                for b in f.nodes[a_idx + 1:]:
                    pair_weight[a, b] = pair_weight.get((a, b), 0.0) + w
        rows = [a for a, _ in pair_weight]
        cols = [b for _, b in pair_weight]
        data = np.array(list(pair_weight.values()) * 2, dtype=float)
        return scipy.sparse.csr_array(
            (data, (rows + cols, cols + rows)), shape=(self.n_nodes,) * 2
        )

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    @property
    def factors(self) -> tuple[Factor, ...]:
        return self.graph.factors


def as_weighted(
    g: FactorGraph | WeightedFactorGraph,
    weights: float | Sequence[float] | Mapping[Factor, float] = 1.0,
) -> WeightedFactorGraph:
    """Attach weights to a graph; scalars broadcast to every factor.

    Unit weights give the one unit-weight view cached on ``g``.
    """
    if isinstance(g, WeightedFactorGraph):
        return g
    if isinstance(weights, Mapping):
        w = tuple(float(weights[f]) for f in g.factors)
    elif isinstance(weights, (int, float)):
        if weights == 1.0:
            return g._unit_weighted
        w = (float(weights),) * len(g.factors)
    else:
        w = tuple(float(x) for x in weights)
    return WeightedFactorGraph(graph=g, weights=w)


def build_graph(
    n_nodes: int,
    factors: Iterable[Factor | Iterable[int] | tuple[Iterable[int], int]],
) -> FactorGraph:
    """Validate and construct a factor graph.

    Each entry of ``factors`` may be a Factor, a bare node iterable (flavor
    0), or a (nodes, flavor) pair.
    """
    if n_nodes < 1:
        raise InvalidParams(f"need at least one node, got {n_nodes}")
    built: list[Factor] = []
    for raw in factors:
        if isinstance(raw, Factor):
            f = raw
        elif (
            isinstance(raw, tuple)
            and len(raw) == 2
            and not isinstance(raw[0], int)
            and isinstance(raw[1], int)
        ):
            f = Factor(nodes=tuple(raw[0]), flavor=raw[1])
        else:
            f = Factor(nodes=tuple(raw))
        if len(f.nodes) == 0:
            raise EmptyFactor("factor with empty node subset")
        if len(set(f.nodes)) != len(f.nodes):
            raise NodeOutOfRange(f"factor {f.nodes} repeats a node")
        if f.nodes[0] < 0 or f.nodes[-1] >= n_nodes:
            raise NodeOutOfRange(f"factor {f.nodes} outside 0..{n_nodes - 1}")
        built.append(f)
    ordered = tuple(sorted(built))
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise DuplicateFactor(f"factor {a.nodes} flavor {a.flavor} appears twice")
    return FactorGraph(n_nodes=n_nodes, factors=ordered)


def distance(g: FactorGraph | WeightedFactorGraph, a: Site, b: Site) -> int:
    """Edge-count distance between two vertices of the bipartite graph.

    Node-node distances are even; halving them gives the effective graph
    metric used by the Lieb-Robinson style bounds.
    """
    base = g.graph
    va, vb = base.vertex(a), base.vertex(b)
    d = base.distances_from(va)[vb] if va != vb else 0
    if d is None:
        raise Disconnected(f"{a!r} and {b!r} lie in different components")
    return d


def genus(g: FactorGraph | WeightedFactorGraph) -> int:
    """|E| + 1 - |V| - |F|: independent loop count of a connected graph."""
    g = g.graph
    if not g.is_connected:
        raise Disconnected("genus requires a connected graph")
    return g.n_edges + 1 - g.n_nodes - len(g.factors)


def standard_graph(kind: str, n_nodes: int, q: int = 2, m: int = 1) -> FactorGraph:
    """Named graph families used throughout the tests and figures.

    chain: nearest-neighbor factors {n, n+1}.
    star: every node paired with hub N-1.
    complete_q_local: all q-subsets, m flavors each.
    """
    if n_nodes < 2:
        raise InvalidParams(f"standard graphs need N >= 2, got {n_nodes}")
    if kind == "chain":
        return build_graph(n_nodes, [(i, i + 1) for i in range(n_nodes - 1)])
    if kind == "star":
        hub = n_nodes - 1
        return build_graph(n_nodes, [(i, hub) for i in range(n_nodes - 1)])
    if kind == "complete_q_local":
        if not 2 <= q <= n_nodes:
            raise InvalidParams(f"need 2 <= q <= N, got q={q}, N={n_nodes}")
        if m < 1:
            raise InvalidParams(f"flavor count must be >= 1, got {m}")
        return build_graph(
            n_nodes,
            [
                Factor(nodes=subset, flavor=fl)
                for subset in combinations(range(n_nodes), q)
                for fl in range(m)
            ],
        )
    raise InvalidParams(f"unknown graph kind {kind!r}")


def erdos_renyi_inclusion_probability(n_nodes: int, q: int, k: Fraction | float, m: int) -> Fraction:
    """Exact inclusion probability (q-1)!(N-q)! k / ((N-1)! m).

    Chosen so the expected node degree is exactly k: each node lies in
    m*C(N-1, q-1) candidate factors and the product telescopes.
    """
    kf = Fraction(k).limit_denominator(10**12) if isinstance(k, float) else Fraction(k)
    return (
        Fraction(math.factorial(q - 1) * math.factorial(n_nodes - q), math.factorial(n_nodes - 1))
        * kf
        / m
    )


def erdos_renyi_hypergraph(
    n_nodes: int, q: int, k: Fraction | float, m: int, seed: int
) -> FactorGraph:
    """Sample the independent-inclusion random hypergraph.

    Every one of the m*C(N,q) flavored candidate factors enters independently
    with the exact probability above; deterministic per seed.
    """
    if not 1 <= q <= n_nodes:
        raise InvalidParams(f"need 1 <= q <= N, got q={q}, N={n_nodes}")
    if m < 1:
        raise InvalidParams(f"flavor count must be >= 1, got {m}")
    if not k > 0:
        raise InvalidParams(f"target degree must be positive, got {k}")
    p = erdos_renyi_inclusion_probability(n_nodes, q, k, m)
    if p > 1:
        raise ProbabilityOutOfRange(f"inclusion probability {p} = {float(p):.6g} > 1")
    rng = np.random.default_rng(seed)
    pf = float(p)
    chosen = []
    # canonical candidate order: sorted subsets, then flavor
    for subset in combinations(range(n_nodes), q):
        for fl in range(m):
            if p == 1 or rng.random() < pf:
                chosen.append(Factor(nodes=subset, flavor=fl))
    return build_graph(n_nodes, chosen)


@dataclass(frozen=True)
class RegularityReport:
    is_regular: bool
    k: int | None = None
    q: int | None = None


def regularity_check(g: FactorGraph | WeightedFactorGraph) -> RegularityReport:
    """All node degrees equal and all factor sizes equal?

    When regular, q|F| = kN holds automatically (both sides count edges);
    a mismatch raises ComputeError.
    """
    g = g.graph
    if not g.factors:
        return RegularityReport(is_regular=False)
    degrees = {g.degree(i) for i in range(g.n_nodes)}
    sizes = {len(f) for f in g.factors}
    if len(degrees) != 1 or len(sizes) != 1:
        return RegularityReport(is_regular=False)
    (k,) = degrees
    (q,) = sizes
    if q * len(g.factors) != k * g.n_nodes:
        raise ComputeError("edge double count q|F| != kN")
    return RegularityReport(is_regular=True, k=k, q=q)


# -- JSON serialization -----------------------------------------------------
#
# Canonical shape: {"N": int, "factors": [{"nodes": [...], "flavor": int}]}
# with nodes sorted and the factor list sorted by (nodes, flavor).  Weighted
# graphs add a "weight" key per factor, emitted only when some weight
# differs from 1.0, so unweighted files stay byte-identical to the schema.


def graph_to_json(g: FactorGraph | WeightedFactorGraph) -> str:
    weights = g.weights if isinstance(g, WeightedFactorGraph) else None
    factors: list[dict] = []
    emit_weights = weights is not None and any(w != 1.0 for w in weights)
    for idx, f in enumerate(g.factors):
        entry: dict = {"nodes": list(f.nodes), "flavor": f.flavor}
        if emit_weights:
            entry["weight"] = weights[idx]
        factors.append(entry)
    return json.dumps({"N": g.n_nodes, "factors": factors}, sort_keys=True)


def graph_from_json(text: str) -> FactorGraph | WeightedFactorGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IoError(f"graph JSON parse failure: {exc}") from exc
    try:
        n = obj["N"]
        raw = obj["factors"]
    except (TypeError, KeyError) as exc:
        raise IoError("graph JSON must carry keys 'N' and 'factors'") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise IoError(f"graph JSON 'N' must be an integer, got {n!r}")
    factors = []
    weights = []
    try:
        for entry in raw:
            factors.append(Factor(nodes=tuple(entry["nodes"]), flavor=entry.get("flavor", 0)))
            weights.append(entry.get("weight"))
        g = build_graph(n, factors)
        if all(w is None for w in weights):
            return g
        # build_graph sorts factors; re-align weights to the sorted order
        order = sorted(range(len(factors)), key=lambda idx: factors[idx])
        return WeightedFactorGraph(
            graph=g, weights=tuple(1.0 if weights[k] is None else float(weights[k]) for k in order)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise IoError(f"malformed graph JSON: {type(exc).__name__}: {exc}") from exc
