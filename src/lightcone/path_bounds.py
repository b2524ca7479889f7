"""Commutator bounds built from irreducible factor paths.

Three nested bounds on C_ij(t), in decreasing tightness: the path-sum bound
(sum over irreducible factor paths), the matrix-exponential bound built from
the pairwise weight matrix h, and the classic exponential-lightcone bound
parameterized by a decay rate alpha.  Also: velocity extraction, closed
forms for the chain / star / complete-graph models, and the conversion
interval between the projector norm C and the commutator norm Chat.

Paths run on the vertex ids of ``factor_graph``: enumeration keeps a path
as a tuple of factor ids (indices into the sorted ``factors``), and the
length pruning reads the graph's BFS distance list.  Id order is factor
order, so sorting id tuples gives the public (length, factors) order;
``IrreduciblePath`` objects are built only by
``enumerate_irreducible_paths``, and ``theorem3_bound`` takes weights by id.
Path lists and h matrices are cached on the graph instance they are asked
of, and BFS distances on its unweighted graph, through
``factor_graph.graph_cache``; no module-level cache holds a graph, so all
of it is freed with the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AlphaOutOfRange,
    BadDimension,
    InvalidParams,
    NotRegular,
    SameNode,
    WeightTooLarge,
)
from .factor_graph import (
    Factor,
    FactorGraph,
    WeightedFactorGraph,
    as_weighted,
    distance,
    graph_cache,
    regularity_check,
)

__all__ = [
    "IrreduciblePath",
    "HMatrices",
    "enumerate_irreducible_paths",
    "theorem3_bound",
    "h_matrices",
    "corollary6_bound",
    "lieb_robinson_bound",
    "velocities",
    "Velocities",
    "closed_form_bound",
    "tfm_sum_bound",
    "prop1_convert",
    "golden_section_min",
    "bessel_i",
]


@dataclass(frozen=True)
class IrreduciblePath:
    """Factor sequence X_1..X_l with i in X_1 only and j in X_l only.

    Consecutive factors intersect, factors are pairwise distinct, and a
    system of pairwise-distinct connector nodes exists, so the path embeds
    as a simple subtree of the graph.
    """

    source: int
    target: int
    factors: tuple[Factor, ...]

    def __len__(self) -> int:
        return len(self.factors)


@graph_cache
def _path_ids(
    g: FactorGraph | WeightedFactorGraph, i: int, j: int, l_max: int | None
) -> tuple[tuple[int, ...], ...]:
    """``enumerate_irreducible_paths`` with each path as a tuple of factor ids."""
    if i == j:
        raise SameNode(f"path endpoints coincide at node {i}")
    base = g.graph
    if not 0 <= i < base.n_nodes or not 0 <= j < base.n_nodes:
        raise InvalidParams(f"nodes ({i}, {j}) outside 0..{base.n_nodes - 1}")
    factors = base.factors
    if l_max is None:
        if len(factors) > 24:
            raise InvalidParams(
                f"|F| = {len(factors)} > 24: pass l_max explicitly (truncated result)"
            )
        l_max = len(factors)
    if l_max < 1:
        raise InvalidParams(f"l_max must be >= 1, got {l_max}")
    l_max = min(l_max, len(factors))
    neighbors = base.factor_neighbors
    # bipartite distance from j, for a lower bound on remaining path length:
    # a factor at odd distance d from j needs (d+1)/2 more factors inclusive
    needed = [
        l_max + 1 if d is None else (d + 1) // 2
        for d in base.distances_from(j)[base.n_nodes:]
    ]
    holds_i = set(base.node_adjacency[i])
    found: list[tuple[int, ...]] = []
    path: list[int] = []
    used = [False] * len(factors)
    # connector slots of the path so far, kept matched to distinct nodes
    slots: list[list[int]] = []
    owner: dict[int, int] = {}  # connector node -> slot matched to it
    trail: list[tuple[int, int | None]] = []  # (node, previous owner)

    def augment(slot: int, seen: set[int]) -> bool:
        """Kuhn step: match ``slot``, re-matching earlier slots if needed."""
        for v in slots[slot]:
            if v in seen:
                continue
            seen.add(v)
            prev = owner.get(v)
            if prev is None or augment(prev, seen):
                trail.append((v, prev))
                owner[v] = slot
                return True
        return False

    def unwind(mark: int) -> None:
        while len(trail) > mark:
            v, prev = trail.pop()
            if prev is None:
                del owner[v]
            else:
                owner[v] = prev

    def dfs(cur: int) -> None:
        if j in factors[cur]:
            found.append(tuple(path))
            return  # j may only sit in the final factor
        if len(path) == l_max:
            return
        for nxt in neighbors[cur]:
            if used[nxt] or nxt in holds_i or len(path) + needed[nxt] > l_max:
                continue
            # the new slot is the whole overlap: nxt holds no i, cur no j
            slots.append([v for v in factors[cur].nodes if v in factors[nxt]])
            mark = len(trail)
            # the slots of every extension include these, so a prefix
            # without distinct connectors cannot complete
            if augment(len(slots) - 1, set()):
                visit(nxt)
                unwind(mark)
            slots.pop()

    def visit(f: int) -> None:
        path.append(f)
        used[f] = True
        dfs(f)
        used[f] = False
        path.pop()

    for first in sorted(holds_i):
        if needed[first] <= l_max:
            visit(first)

    # ids follow the sorted factors, so this is the (length, factors) order
    found.sort(key=lambda p: (len(p), p))
    return tuple(found)


def enumerate_irreducible_paths(
    g: FactorGraph | WeightedFactorGraph,
    i: int,
    j: int,
    l_max: int | None = None,
) -> list[IrreduciblePath]:
    """All irreducible factor paths from i to j with length <= l_max.

    Exhaustive backtracking over factor paths, pruned at every extension:
    a factor too far from j to finish within l_max is skipped, and the
    connector slot shared with the new factor is matched to a node distinct
    from those of the earlier slots by one augmenting-path (Kuhn) step,
    undone on backtracking.  A prefix whose slots have no distinct
    representatives cannot complete, so the pruning drops no path.  Graphs
    with more than 24 factors must pass an explicit l_max (results are then
    a truncation).
    """
    factors = g.graph.factors
    return [
        IrreduciblePath(source=i, target=j, factors=tuple(factors[k] for k in p))
        for p in _path_ids(g, i, j, l_max)
    ]


def theorem3_bound(
    g: FactorGraph | WeightedFactorGraph,
    i: int,
    j: int,
    t: float,
    l_max: int | None = None,
) -> float:
    """Path-sum bound: sum over paths of (2|t|)^l / l! times the weights.

    With l_max below the exhaustive length this is a partial sum (a lower
    bound on the bound); callers surfacing such values label them as
    partial.
    """
    weights = as_weighted(g).weights
    total = 0.0
    at = 2.0 * abs(t)
    for p in _path_ids(g, i, j, l_max):
        w = 1.0
        for k in p:
            w *= weights[k]
        total += at ** len(p) / math.factorial(len(p)) * w
    return total


@dataclass(frozen=True)
class HMatrices:
    """Pairwise weight matrix h and its diagonal completion h-tilde.

    h_ij sums the weights of factors containing both i and j (zero
    diagonal); h-tilde adds the row sums on the diagonal, making it
    positive semi-definite with top eigenvalue >= 2 * top eigenvalue of h.
    """

    h: np.ndarray
    h_tilde: np.ndarray
    h_max: float
    h_tilde_max: float


@graph_cache
def h_matrices(g: FactorGraph | WeightedFactorGraph) -> HMatrices:
    h = as_weighted(g).h_sparse.toarray()
    h_tilde = h + np.diag(h.sum(axis=1))
    return HMatrices(
        h=h,
        h_tilde=h_tilde,
        h_max=float(np.linalg.eigvalsh(h)[-1]),
        h_tilde_max=float(np.linalg.eigvalsh(h_tilde)[-1]),
    )


def corollary6_bound(
    g: FactorGraph | WeightedFactorGraph, i: int, j: int, t: float
) -> float:
    """(e^{2|t| h})_ij summed as nonnegative walk terms.

    h has nonnegative entries, so the Taylor series adds without
    cancellation and the entry keeps full relative accuracy even where
    it is exponentially small; an eigendecomposition would bury such
    entries under absolute reconstruction noise.

    Each term is one product with the sparse h of the graph
    (``WeightedFactorGraph.h_sparse``), so a term costs O(nnz(h)).  The
    term vector u_l = (2|t|)^l h^l e_i / l! shrinks by at least the ratio
    r = 2|t| max_row_sum(h) / (l + 1) per term in the max norm, so once
    r < 1/2 the rest of the series adds at most max(u_l) / (1 - r) to the
    entry.  The sum stops as soon as that tail is at most 1e-13 of the
    total, at any length, and returns the total plus the tail, so the value
    never falls below the series.  While the entry is still 0 the sum goes
    on; a walk from i reaches every node of its component within n - 1
    steps, so an entry still 0 after n terms is returned as 0.0 (j is
    unreachable).
    """
    h = as_weighted(g).h_sparse
    n = h.shape[0]
    if not 0 <= i < n or not 0 <= j < n:
        raise InvalidParams(f"nodes ({i}, {j}) outside 0..{n - 1}")
    x = 2.0 * abs(t)
    row_norm = float(h.sum(axis=1).max())
    u = np.zeros(n)
    u[i] = 1.0
    total = float(u[j])
    length = 0
    while True:
        length += 1
        with np.errstate(over="ignore", invalid="ignore"):
            u = (x / length) * (h @ u)
        total += float(u[j])
        if not math.isfinite(total):
            # all terms are nonnegative, so any overflow means the entry
            # itself overflows (nan can only arise downstream of an inf)
            return math.inf
        top = float(u.max())
        if total == 0.0:
            if top == 0.0 or length >= n:
                return 0.0  # every later term vanishes, or j is unreachable
            continue
        ratio = x * row_norm / (length + 1)
        if ratio < 0.5:
            tail = top / (1.0 - ratio)
            if tail <= 1e-13 * total:
                return total + tail


def golden_section_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Golden-section search for a unimodal scalar minimum on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def lieb_robinson_bound(
    g: FactorGraph | WeightedFactorGraph,
    i: int,
    j: int,
    t: float,
    alpha: float | str = "optimize",
) -> float:
    """(e^{2 alpha h_tilde_max |t|} - 1) * alpha^{-d_tilde(i,j)}.

    alpha="optimize" minimizes over alpha > 1 by golden-section search on
    ln(alpha).
    """
    if i == j:
        raise SameNode(f"path endpoints coincide at node {i}")
    wg = as_weighted(g)
    hm = h_matrices(wg)
    d_tilde = distance(wg.graph, i, j) / 2.0
    rate = 2.0 * hm.h_tilde_max * abs(t)

    def value_at(log_alpha: float) -> float:
        x = rate * math.exp(log_alpha)
        if x > 700.0:  # expm1 overflows; exact to double precision anyway
            z = x - d_tilde * log_alpha
            return math.exp(z) if z < 700.0 else math.inf
        return math.expm1(x) * math.exp(-d_tilde * log_alpha)

    if alpha == "optimize":
        # objective is unimodal in ln(alpha)
        _, best = golden_section_min(
            value_at, math.log(1.0 + 1e-6), math.log(1e3), tol=1e-10
        )
        return best
    alpha = float(alpha)
    if not alpha > 1.0:
        raise AlphaOutOfRange(f"need alpha > 1, got {alpha}")
    return value_at(math.log(alpha))


@dataclass(frozen=True)
class Velocities:
    v_lr: float
    v_improved: float


def velocities(g: FactorGraph | WeightedFactorGraph) -> Velocities:
    """Front speeds: 2e * top eigenvalue of h_tilde, and of h.

    The improved figure is at most half the standard one because
    h_tilde_max >= 2 h_max.
    """
    hm = h_matrices(as_weighted(g))
    e = math.e
    return Velocities(v_lr=2.0 * e * hm.h_tilde_max, v_improved=2.0 * e * hm.h_max)


def bessel_i(order: int, x: float, rel_tol: float = 1e-12) -> float:
    """Modified Bessel function I_n(x) by its power series."""
    if order < 0:
        raise InvalidParams(f"order must be >= 0, got {order}")
    x = float(x)
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    half = x / 2.0
    term = half**order / math.factorial(order)
    total = term
    m = 0
    while True:
        m += 1
        term *= half * half / (m * (m + order))
        total += term
        if term <= rel_tol * abs(total):
            return total


def closed_form_bound(model: str, t: float, **params) -> float:
    """Analytic evaluations for the chain and complete-graph models.

    chain_thm3     (2h|t|)^delta / delta!            params: h, delta
    chain_bessel   I_delta(4h|t|)                    params: h, delta
    chain_lr       (e^{8 h alpha |t|}-1) alpha^-delta  params: h, delta, alpha
    complete_tfm   ((1+2a|t|/(N-1))^{N-1}-1)/(N-1)   params: n_nodes, a
    """
    at = abs(t)
    if model == "chain_thm3":
        h, delta = _chain_params(params)
        return (2.0 * h * at) ** delta / math.factorial(delta)
    if model == "chain_bessel":
        h, delta = _chain_params(params)
        return bessel_i(delta, 4.0 * h * at)
    if model == "chain_lr":
        h, delta = _chain_params(params)
        alpha = float(params.get("alpha", math.e))
        if not alpha > 1.0:
            raise AlphaOutOfRange(f"need alpha > 1, got {alpha}")
        return math.expm1(8.0 * h * alpha * at) * alpha ** (-delta)
    if model == "complete_tfm":
        try:
            n = int(params["n_nodes"])
            a = float(params["a"])
        except KeyError as exc:
            raise InvalidParams(f"complete_tfm needs {exc.args[0]}") from None
        if n < 2 or a < 0:
            raise InvalidParams(f"need N >= 2 and a >= 0, got N={n}, a={a}")
        return ((1.0 + 2.0 * a * at / (n - 1)) ** (n - 1) - 1.0) / (n - 1)
    raise InvalidParams(f"unknown closed-form model {model!r}")


def _chain_params(params: dict) -> tuple[float, int]:
    try:
        h = float(params["h"])
        delta = int(params["delta"])
    except KeyError as exc:
        raise InvalidParams(f"chain model needs {exc.args[0]}") from None
    if h < 0 or delta < 0:
        raise InvalidParams(f"need h >= 0 and delta >= 0, got h={h}, delta={delta}")
    return h, delta


def tfm_sum_bound(g: FactorGraph | WeightedFactorGraph, a: float, t: float) -> float:
    """Whole-graph bound e^{2a|t|}/N for regular graphs with capped weights.

    Admissibility: every factor weight at most N a / (q |F|).
    """
    wg = as_weighted(g)
    report = regularity_check(wg.graph)
    if not report.is_regular:
        raise NotRegular("bound requires a (k, q)-regular graph")
    cap = wg.n_nodes * a / (report.q * len(wg.factors))
    for f, w in zip(wg.factors, wg.weights):
        if w > cap * (1.0 + 1e-12):
            raise WeightTooLarge(
                f"factor {f.nodes} weight {w} exceeds cap {cap:.6g}"
            )
    return math.exp(2.0 * a * abs(t)) / wg.n_nodes


def prop1_convert(value: float, d_j: int, source: str = "hatc") -> tuple[float, float]:
    """Interval for C given Chat (source='hatc') or vice versa (source='c').

    For local dimension d the two norms pin each other to
    [x / sqrt(d^2 - 1), x * sqrt(2 (1 - 1/d^2))], clipped to [0, 1].
    """
    if not isinstance(d_j, int) or d_j < 2:
        raise BadDimension(f"local dimension must be an integer >= 2, got {d_j}")
    if not 0.0 <= value <= 1.0:
        raise InvalidParams(f"norm value must lie in [0, 1], got {value}")
    down = math.sqrt(d_j * d_j - 1.0)
    up = math.sqrt(2.0 * (1.0 - 1.0 / (d_j * d_j)))
    if source == "hatc":
        lo, hi = value / down, value * up
    elif source == "c":
        lo, hi = value / up, value * down
    else:
        raise InvalidParams(f"source must be 'hatc' or 'c', got {source!r}")
    return max(0.0, min(1.0, lo)), max(0.0, min(1.0, hi))
