"""Factor graphs: data model, generators, metrics, genus, serialization.

A factor graph G = (V, F, E) is bipartite: nodes V = {0..N-1} on one side,
factors (node subsets with a flavor index) on the other, and an edge (i, X)
for every i in X.  Multiplicity of identical subsets is expressed through the
flavor index, so factor identity survives serialization.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence, Union

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


@dataclass(frozen=True)
class FactorGraph:
    n_nodes: int
    factors: tuple[Factor, ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # graphs key the lru_caches of the bound layers; hashing every
        # factor on each lookup would cost O(|F|) per call
        return hash((self.n_nodes, self.factors))

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
    def is_connected(self) -> bool:
        if self.n_nodes == 0:
            return True
        seen_nodes = {0}
        seen_factors: set[int] = set()
        queue: deque[int] = deque([0])
        while queue:
            node = queue.popleft()
            for fi in self.node_adjacency[node]:
                if fi in seen_factors:
                    continue
                seen_factors.add(fi)
                for other in self.factors[fi].nodes:
                    if other not in seen_nodes:
                        seen_nodes.add(other)
                        queue.append(other)
        return len(seen_nodes) == self.n_nodes and len(seen_factors) == len(self.factors)

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


@dataclass(frozen=True)
class WeightedFactorGraph:
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

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.graph, self.weights))

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
    """Attach weights to a graph; scalars broadcast to every factor."""
    if isinstance(g, WeightedFactorGraph):
        return g
    if isinstance(weights, Mapping):
        w = tuple(float(weights[f]) for f in g.factors)
    elif isinstance(weights, (int, float)):
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


def _bfs_distance(g: FactorGraph, start: Site) -> dict[Site, int]:
    dist: dict[Site, int] = {start: 0}
    queue: deque[Site] = deque([start])
    while queue:
        v = queue.popleft()
        d = dist[v]
        if isinstance(v, Factor):
            neighbors: Iterable[Site] = v.nodes
        else:
            neighbors = (g.factors[fi] for fi in g.node_adjacency[v])
        for w in neighbors:
            if w not in dist:
                dist[w] = d + 1
                queue.append(w)
    return dist


def _check_site(g: FactorGraph, a: Site) -> None:
    if isinstance(a, Factor):
        g.factor_index(a)
    elif not 0 <= a < g.n_nodes:
        raise NodeOutOfRange(f"node {a} outside 0..{g.n_nodes - 1}")


def distance(g: FactorGraph | WeightedFactorGraph, a: Site, b: Site) -> int:
    """Edge-count distance between two vertices of the bipartite graph.

    Node-node distances are even; halving them gives the effective graph
    metric used by the Lieb-Robinson style bounds.
    """
    if isinstance(g, WeightedFactorGraph):
        g = g.graph
    _check_site(g, a)
    _check_site(g, b)
    if a == b:
        return 0
    dist = _bfs_distance(g, a)
    if b not in dist:
        raise Disconnected(f"{a!r} and {b!r} lie in different components")
    return dist[b]


def genus(g: FactorGraph | WeightedFactorGraph) -> int:
    """|E| + 1 - |V| - |F|: independent loop count of a connected graph."""
    if isinstance(g, WeightedFactorGraph):
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
    if isinstance(g, WeightedFactorGraph):
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
    if isinstance(g, WeightedFactorGraph):
        base, weights = g.graph, g.weights
    else:
        base, weights = g, None
    factors: list[dict] = []
    emit_weights = weights is not None and any(w != 1.0 for w in weights)
    for idx, f in enumerate(base.factors):
        entry: dict = {"nodes": list(f.nodes), "flavor": f.flavor}
        if emit_weights:
            entry["weight"] = weights[idx]
        factors.append(entry)
    return json.dumps({"N": base.n_nodes, "factors": factors}, sort_keys=True)


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
    factors = []
    weights = []
    any_weight = False
    for entry in raw:
        factors.append(Factor(nodes=tuple(entry["nodes"]), flavor=entry.get("flavor", 0)))
        w = entry.get("weight")
        if w is not None:
            any_weight = True
            weights.append(float(w))
        else:
            weights.append(1.0)
    g = build_graph(n, factors)
    if any_weight:
        # build_graph sorts factors; re-align weights to the sorted order
        order = sorted(range(len(factors)), key=lambda idx: factors[idx])
        return WeightedFactorGraph(graph=g, weights=tuple(weights[idx] for idx in order))
    return g
