"""Causal forests of factor sequences and their sequence-algebra checks.

A sequence of factors applied to an operator seeded at node i builds a
forest by a four-case rule: a repeated factor changes nothing; a factor
containing i attaches to i; otherwise the factor attaches to its earliest
intersecting predecessor; failing all that it starts its own component.
Components never merge, so the term a sequence contributes survives iff the
forest is connected ("creeping").  The class of a creeping sequence is the
tree path from i to the earliest factor containing the target j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np
import scipy.integrate
import scipy.linalg

from .errors import (
    ComputeError,
    IndexOutOfRange,
    InvalidParams,
    TargetAbsent,
    TooLarge,
    UnknownFactor,
)
from .factor_graph import Factor, FactorGraph, WeightedFactorGraph, as_weighted
from .path_bounds import IrreduciblePath

__all__ = [
    "FactorSequence",
    "CausalForest",
    "build_causal_forest",
    "is_creeping",
    "irreducible_path_of_tree",
    "sequence_class",
    "forbidden_vertices_single",
    "lemma4_bijection_check",
    "schwinger_karplus_check",
]

ROOT = -1  # parent sentinel: attached to node i
ISOLATED = -2  # parent sentinel: starts its own component


@dataclass(frozen=True)
class FactorSequence:
    """(i, X_1, ..., X_n), optionally two-sided with target j after slot r."""

    root: int
    factors: tuple[Factor, ...]
    target: int | None = None
    marker: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if self.marker is not None and not 0 <= self.marker <= len(self.factors):
            raise IndexOutOfRange(
                f"marker {self.marker} outside 0..{len(self.factors)}"
            )

    def __len__(self) -> int:
        return len(self.factors)


def attach_decision(
    predecessors: Sequence[Factor], x: Factor, root: int
) -> tuple[str, int]:
    """Where does x attach, given the factors already seen (in order)?

    Returns one of ("repeat", first occurrence index), ("root", -1),
    ("factor", index of earliest intersecting predecessor), ("isolated", -1).
    """
    for m, prev in enumerate(predecessors):
        if prev == x:
            return ("repeat", m)
    if root in x:
        return ("root", ROOT)
    xs = x.node_set
    for m, prev in enumerate(predecessors):
        if xs & prev.node_set:
            return ("factor", m)
    return ("isolated", ISOLATED)


@dataclass(frozen=True)
class CausalForest:
    """Attachment forest over {i} union (distinct factors of the sequence).

    ``vertices`` lists distinct factors in first-occurrence order;
    ``parents`` aligns with it (ROOT = attached to i, ISOLATED = own
    component, otherwise an index into ``vertices``).  The generating
    sequence is retained: the class of a sequence depends on occurrence
    order, not only on the abstract tree.
    """

    root: int
    sequence: tuple[Factor, ...]
    vertices: tuple[Factor, ...]
    parents: tuple[int, ...]

    @property
    def n_components(self) -> int:
        return 1 + sum(1 for p in self.parents if p == ISOLATED)

    @property
    def is_tree(self) -> bool:
        return self.n_components == 1

    def parent_of(self, f: Factor) -> Factor | None:
        """Parent factor, or None when attached to i (or isolated)."""
        p = self.parents[self.vertices.index(f)]
        return None if p in (ROOT, ISOLATED) else self.vertices[p]

    def children_of(self, v: Factor | None) -> tuple[Factor, ...]:
        """Children of a factor vertex, or of i when v is None."""
        if v is None:
            want = ROOT
            return tuple(
                f for f, p in zip(self.vertices, self.parents) if p == want
            )
        idx = self.vertices.index(v)
        return tuple(
            f for f, p in zip(self.vertices, self.parents) if p == idx
        )

    def signature(self) -> frozenset:
        """Edge set with factor identities; equal trees compare equal."""
        out = []
        for f, p in zip(self.vertices, self.parents):
            if p == ROOT:
                out.append((("i",), f))
            elif p != ISOLATED:
                out.append((self.vertices[p], f))
        return frozenset(out)

    def degree(self, v: Factor | None) -> int:
        """Degree of a vertex in the abstract tree (None = the root i)."""
        if v is None:
            return sum(1 for p in self.parents if p == ROOT)
        idx = self.vertices.index(v)
        d = sum(1 for p in self.parents if p == idx)
        if self.parents[idx] != ISOLATED:
            d += 1
        return d


def _check_factors(base: FactorGraph, factors: Iterable[Factor]) -> None:
    """Raise UnknownFactor for the first factor missing from the graph."""
    known = base._factor_positions
    for f in factors:
        if f not in known:
            raise UnknownFactor(f"factor {f.nodes} flavor {f.flavor} not in graph")


def _check_sequence(g: FactorGraph | WeightedFactorGraph, seq: FactorSequence) -> FactorGraph:
    base = g.graph if isinstance(g, WeightedFactorGraph) else g
    _check_factors(base, seq.factors)
    if not 0 <= seq.root < base.n_nodes:
        raise UnknownFactor(f"root node {seq.root} outside graph")
    return base


def build_causal_forest(
    g: FactorGraph | WeightedFactorGraph, seq: FactorSequence
) -> CausalForest:
    _check_sequence(g, seq)
    vertices: list[Factor] = []
    parents: list[int] = []
    for x in seq.factors:
        kind, where = attach_decision(vertices, x, seq.root)
        if kind == "repeat":
            continue
        vertices.append(x)
        parents.append(where if kind == "factor" else (ROOT if kind == "root" else ISOLATED))
    return CausalForest(
        root=seq.root,
        sequence=seq.factors,
        vertices=tuple(vertices),
        parents=tuple(parents),
    )


def is_creeping(g: FactorGraph | WeightedFactorGraph, seq: FactorSequence) -> bool:
    return build_causal_forest(g, seq).is_tree


def irreducible_path_of_tree(tree: CausalForest, j: int) -> IrreduciblePath:
    """Tree path from i to the earliest factor of the sequence containing j.

    Parents always occur earlier in the sequence than children, so no
    ancestor of that factor contains j, and any factor containing i hangs
    directly off i; the extracted factor list is an irreducible path.
    """
    if not tree.is_tree:
        raise InvalidParams("path extraction requires a connected causal tree")
    terminal = None
    for f in tree.sequence:
        if j in f:
            terminal = f
            break
    if terminal is None:
        raise TargetAbsent(f"node {j} appears in no factor of the sequence")
    chain: list[Factor] = []
    idx = tree.vertices.index(terminal)
    while True:
        chain.append(tree.vertices[idx])
        p = tree.parents[idx]
        if p == ROOT:
            break
        idx = p
    chain.reverse()
    return IrreduciblePath(source=tree.root, target=j, factors=tuple(chain))


def sequence_class(
    g: FactorGraph | WeightedFactorGraph, seq: FactorSequence, j: int
) -> IrreduciblePath | None:
    """Class of a sequence: None when not creeping or j never appears."""
    forest = build_causal_forest(g, seq)
    if not forest.is_tree:
        return None
    try:
        return irreducible_path_of_tree(forest, j)
    except TargetAbsent:
        return None


def forbidden_vertices_single(path: IrreduciblePath, k: int) -> frozenset[int]:
    """Node set whose factors are excluded from slot k of the class sum.

    {j} at the last slot, else everything touched by factors k+2 onward.
    """
    ell = len(path)
    if not 0 <= k <= ell - 1:
        raise IndexOutOfRange(f"slot {k} outside 0..{ell - 1}")
    if k == ell - 1:
        return frozenset({path.target})
    nodes: set[int] = set()
    for f in path.factors[k + 1:]:  # X_{k+2}..X_l, zero-based slice
        nodes |= f.node_set
    return frozenset(nodes)


def lemma4_bijection_check(
    g: FactorGraph | WeightedFactorGraph,
    path: IrreduciblePath,
    n_max: int,
) -> bool:
    """Class sum vs slotted interleavings: same creeping sequences, no dupes.

    Left side: all length-n sequences whose causal tree lies in the class of
    ``path``.  Right side: interleavings X_1..X_l with slot k (before
    X_{k+1}) filled from factors avoiding the slot's forbidden vertices and
    the final slot unrestricted, filtered to creeping terms (the others
    vanish).  The slotted form generates each sequence at most once; a
    duplicate raises ComputeError.
    """
    base = g.graph if isinstance(g, WeightedFactorGraph) else g
    if len(base.factors) > 6 or n_max > 6:
        raise TooLarge("bijection check capped at |F| <= 6, n_max <= 6")
    factors = base.factors
    i, j = path.source, path.target
    ell = len(path)
    slot_allowed: list[tuple[Factor, ...]] = []
    for k in range(ell):
        forbidden = forbidden_vertices_single(path, k)
        slot_allowed.append(
            tuple(f for f in factors if not (f.node_set & forbidden))
        )
    slot_allowed.append(factors)  # slot l: unrestricted

    for n in range(n_max + 1):
        lhs = {
            seq
            for seq in product(factors, repeat=n)
            if (
                cls := sequence_class(base, FactorSequence(root=i, factors=seq), j)
            )
            is not None
            and cls.factors == path.factors
        }
        rhs: set[tuple[Factor, ...]] = set()
        count = 0
        if n >= ell:
            budget = n - ell
            for comp in _compositions(budget, ell + 1):
                pools = [
                    product(slot_allowed[k], repeat=m) for k, m in enumerate(comp)
                ]
                for fills in product(*pools):
                    seq: list[Factor] = []
                    for k in range(ell):
                        seq.extend(fills[k])
                        seq.append(path.factors[k])
                    seq.extend(fills[ell])
                    tseq = tuple(seq)
                    if is_creeping(base, FactorSequence(root=i, factors=tseq)):
                        count += 1
                        rhs.add(tseq)
        if len(rhs) != count:
            raise ComputeError("slotted decomposition generated a duplicate")
        if lhs != rhs:
            return False
    return True


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def schwinger_karplus_check(
    ell: int,
    dim: int,
    t: float,
    seed: int,
    tol: float = 1e-6,
    series_order: int = 40,
) -> bool:
    """Series-vs-quadrature check of the interleaved exponential identity.

    The series interleaves powers of F_0..F_l between the A_k insertions
    with a single (l + sum m_k)! denominator; the integral form chains
    matrix exponentials over the ordered simplex 0 <= t_1 <= ... <= t_l <= t
    of volume t^l/l!.  Both are evaluated for random matrices with entries
    in [-1, 1] and compared entrywise; the simplex volume itself is included
    as a quadrature sanity check.
    """
    if ell > 2 or dim > 6 or abs(t) > 1.0:
        raise InvalidParams("check capped at l <= 2, dim <= 6, |t| <= 1")
    rng = np.random.default_rng(seed)
    F = [rng.uniform(-1.0, 1.0, size=(dim, dim)) for _ in range(ell + 1)]
    A = [rng.uniform(-1.0, 1.0, size=(dim, dim)) for _ in range(ell)]

    # series: precompute powers
    powers = []
    for Fk in F:
        P = [np.eye(dim)]
        for _ in range(series_order):
            P.append(P[-1] @ Fk)
        powers.append(P)
    series = np.zeros((dim, dim))
    for comp in _compositions_up_to(series_order, ell + 1):
        s = sum(comp)
        coeff = t ** (ell + s) / math.factorial(ell + s)
        term = powers[0][comp[0]]
        for k in range(ell):
            term = powers[k + 1][comp[k + 1]] @ A[k] @ term
        series += coeff * term

    # quadrature
    def expm(M: np.ndarray, s: float) -> np.ndarray:
        return scipy.linalg.expm(M * s)

    if ell == 0:
        quad = expm(F[0], t)
        vol = 1.0
    elif ell == 1:
        quad, _ = scipy.integrate.quad_vec(
            lambda t1: expm(F[1], t - t1) @ A[0] @ expm(F[0], t1),
            0.0,
            t,
            epsabs=tol / 10.0,
        )
        vol, _ = scipy.integrate.quad(lambda t1: 1.0, 0.0, t, epsabs=tol / 10.0)
    else:

        def inner(t2: float) -> np.ndarray:
            val, _ = scipy.integrate.quad_vec(
                lambda t1: expm(F[1], t2 - t1) @ A[0] @ expm(F[0], t1),
                0.0,
                t2,
                epsabs=tol / 10.0,
            )
            return expm(F[2], t - t2) @ A[1] @ val

        quad, _ = scipy.integrate.quad_vec(inner, 0.0, t, epsabs=tol / 10.0)
        vol, _ = scipy.integrate.quad(lambda t2: t2, 0.0, t, epsabs=tol / 10.0)

    volume_ok = abs(vol - t**ell / math.factorial(ell)) <= tol
    return volume_ok and bool(np.max(np.abs(series - quad)) <= tol)


def _compositions_up_to(total: int, parts: int):
    for s in range(total + 1):
        yield from _compositions(s, parts)
