"""Causal forests of factor sequences and their sequence-algebra checks.

A sequence of factors applied to an operator seeded at node i builds a
forest by a four-case rule: a repeated factor changes nothing; a factor
containing i attaches to i; otherwise the factor attaches to its earliest
intersecting predecessor; failing all that it starts its own component.
Components never merge, so the term a sequence contributes survives iff the
forest is connected ("creeping").  The class of a creeping sequence is the
tree path from i to the earliest factor containing the target j.

Inside this module and ``causal_pairs`` a factor is an int id, its index
into the graph's ``factors``, and a node set is an int bitmask with bit v
for node v; ``masks[x]`` is the node mask of factor x.  A graph keeps its
factors sorted, so id order is ``Factor`` order.  A forest is a dict from
each distinct id, in first-occurrence order, to its parent: another id,
ROOT or ISOLATED.  ``_attach`` is the rule above; every forest, reading and
walk of the layer goes through it.  ``Factor`` objects are read and built
only by the public functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Collection, Iterable, Sequence

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
from .factor_graph import Factor, FactorGraph, WeightedFactorGraph
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
REPEAT = -3  # outcome for a factor read before: the forest does not change


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


def _masks(factors: Iterable[Factor]) -> tuple[int, ...]:
    return tuple(sum(1 << v for v in f.nodes) for f in factors)


def _nodes(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def _bit(node: int) -> int:
    """Mask of one node; 0 for a negative node, which no factor holds."""
    return 1 << node if node >= 0 else 0


def _ids(base: FactorGraph, factors: Sequence[Factor]) -> tuple[int, ...]:
    """Ids of factors; UnknownFactor for the first one missing from the graph."""
    known = base._factor_positions
    for f in factors:
        if f not in known:
            raise UnknownFactor(f"factor {f.nodes} flavor {f.flavor} not in graph")
    return tuple(known[f] for f in factors)


def _attach(seen: Collection[int], x: int, masks: Sequence[int], root_bit: int) -> int:
    """Where factor x attaches when read after the factors ``seen``, in order.

    REPEAT when x is among them; ROOT when x holds the root node (whose
    mask is ``root_bit``); else the earliest of them that meets x; else
    ISOLATED.
    """
    if x in seen:
        return REPEAT
    mask = masks[x]
    if mask & root_bit:
        return ROOT
    for p in seen:
        if masks[p] & mask:
            return p
    return ISOLATED


def _forest(word: Iterable[int], masks: Sequence[int], root: int) -> dict[int, int]:
    """Parent of each distinct factor of ``word``, in first-occurrence order."""
    parents: dict[int, int] = {}
    root_bit = _bit(root)
    for x in word:
        p = _attach(parents, x, masks, root_bit)
        if p != REPEAT:
            parents[x] = p
    return parents


def attach_decision(
    predecessors: Sequence[Factor], x: Factor, root: int
) -> tuple[str, int]:
    """Where does x attach, given the factors already seen (in order)?

    Returns one of ("repeat", first occurrence index), ("root", -1),
    ("factor", index of earliest intersecting predecessor), ("isolated", -2).
    """
    letters = (*predecessors, x)
    ids = [letters.index(f) for f in letters]  # a factor's id is its first position
    p = _attach(ids[:-1], ids[-1], _masks(letters), _bit(root))
    kind = {REPEAT: "repeat", ROOT: "root", ISOLATED: "isolated"}.get(p, "factor")
    return (kind, ids[-1] if p == REPEAT else p)


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

    def _index(self, f: Factor) -> int:
        try:
            return self.vertices.index(f)
        except ValueError:
            raise UnknownFactor(
                f"factor {f.nodes} flavor {f.flavor} not in the forest"
            ) from None

    def parent_of(self, f: Factor) -> Factor | None:
        """Parent factor, or None when attached to i (or isolated)."""
        p = self.parents[self._index(f)]
        return None if p in (ROOT, ISOLATED) else self.vertices[p]

    def children_of(self, v: Factor | None) -> tuple[Factor, ...]:
        """Children of a factor vertex, or of i when v is None."""
        want = ROOT if v is None else self._index(v)
        return tuple(f for f, p in zip(self.vertices, self.parents) if p == want)

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
        idx = self._index(v)
        d = sum(1 for p in self.parents if p == idx)
        if self.parents[idx] != ISOLATED:
            d += 1
        return d


def _causal_forest(
    factors: Sequence[Factor], root: int, word: Sequence[int], parents: dict[int, int]
) -> CausalForest:
    """The public forest of ``word``, whose ids index ``factors``."""
    at = {x: k for k, x in enumerate(parents)}
    return CausalForest(
        root=root,
        sequence=tuple(factors[x] for x in word),
        vertices=tuple(factors[x] for x in parents),
        parents=tuple(at.get(p, p) for p in parents.values()),
    )


def _check_sequence(
    g: FactorGraph | WeightedFactorGraph, seq: FactorSequence
) -> tuple[FactorGraph, tuple[int, ...]]:
    """The graph and the ids of a sequence whose factors and root it holds."""
    base = g.graph
    word = _ids(base, seq.factors)
    if not 0 <= seq.root < base.n_nodes:
        raise UnknownFactor(f"root node {seq.root} outside graph")
    return base, word


def build_causal_forest(
    g: FactorGraph | WeightedFactorGraph, seq: FactorSequence
) -> CausalForest:
    base, word = _check_sequence(g, seq)
    parents = _forest(word, _masks(base.factors), seq.root)
    return _causal_forest(base.factors, seq.root, word, parents)


def is_creeping(g: FactorGraph | WeightedFactorGraph, seq: FactorSequence) -> bool:
    return build_causal_forest(g, seq).is_tree


def _class_path(
    word: Sequence[int], parents: dict[int, int], masks: Sequence[int], j: int
) -> tuple[int, ...] | None:
    """Tree path from i to the earliest factor of ``word`` holding j, i's end
    first; None when no factor holds j.

    Parents always occur earlier in the sequence than children, so no
    ancestor of that factor contains j, and any factor containing i hangs
    directly off i; the path is irreducible.
    """
    x = next((x for x in word if masks[x] & _bit(j)), None)
    if x is None:
        return None
    chain = []
    while x != ROOT:
        chain.append(x)
        x = parents[x]
    return tuple(reversed(chain))


def _class_of(
    word: Sequence[int], masks: Sequence[int], i: int, j: int
) -> tuple[int, ...] | None:
    """Class path of a sequence; None when not creeping or j never appears."""
    parents = _forest(word, masks, i)
    if ISOLATED in parents.values():
        return None
    return _class_path(word, parents, masks, j)


def irreducible_path_of_tree(tree: CausalForest, j: int) -> IrreduciblePath:
    """Tree path from i to the earliest factor of the sequence containing j."""
    if not tree.is_tree:
        raise InvalidParams("path extraction requires a connected causal tree")
    at = {f: k for k, f in enumerate(tree.vertices)}
    word = [at[f] for f in tree.sequence]
    chain = _class_path(word, dict(enumerate(tree.parents)), _masks(tree.vertices), j)
    if chain is None:
        raise TargetAbsent(f"node {j} appears in no factor of the sequence")
    factors = tuple(tree.vertices[x] for x in chain)
    return IrreduciblePath(source=tree.root, target=j, factors=factors)


def sequence_class(
    g: FactorGraph | WeightedFactorGraph, seq: FactorSequence, j: int
) -> IrreduciblePath | None:
    """Class of a sequence: None when not creeping or j never appears."""
    base, word = _check_sequence(g, seq)
    chain = _class_of(word, _masks(base.factors), seq.root, j)
    if chain is None:
        return None
    factors = tuple(base.factors[x] for x in chain)
    return IrreduciblePath(source=seq.root, target=j, factors=factors)


def _slot_mask(path_masks: Sequence[int], j: int, k: int) -> int:
    """Node mask excluded from slot k of the class sum of a path (given by
    the masks of its factors): {j} at the last slot, else everything touched
    by factors k+2 onward."""
    if k == len(path_masks) - 1:
        return _bit(j)
    mask = 0
    for m in path_masks[k + 1:]:  # X_{k+2}..X_l, zero-based slice
        mask |= m
    return mask


def forbidden_vertices_single(path: IrreduciblePath, k: int) -> frozenset[int]:
    """Node set whose factors are excluded from slot k of the class sum.

    {j} at the last slot, else everything touched by factors k+2 onward.
    """
    ell = len(path)
    if not 0 <= k <= ell - 1:
        raise IndexOutOfRange(f"slot {k} outside 0..{ell - 1}")
    return _nodes(_slot_mask(_masks(path.factors), path.target, k))


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
    base = g.graph
    if len(base.factors) > 6 or n_max > 6:
        raise TooLarge("bijection check capped at |F| <= 6, n_max <= 6")
    masks = _masks(base.factors)
    chain = _ids(base, path.factors)
    i, j = path.source, path.target
    ell = len(chain)
    ids = range(len(masks))
    path_masks = [masks[x] for x in chain]
    slot_allowed = [
        tuple(x for x in ids if not masks[x] & _slot_mask(path_masks, j, k))
        for k in range(ell)
    ]
    slot_allowed.append(tuple(ids))  # slot l: unrestricted

    for n in range(n_max + 1):
        lhs = {
            seq
            for seq in product(ids, repeat=n)
            if _class_of(seq, masks, i, j) == chain
        }
        rhs: set[tuple[int, ...]] = set()
        count = 0
        if n >= ell:
            budget = n - ell
            for comp in _compositions(budget, ell + 1):
                pools = [
                    product(slot_allowed[k], repeat=m) for k, m in enumerate(comp)
                ]
                for fills in product(*pools):
                    seq: list[int] = []
                    for k in range(ell):
                        seq.extend(fills[k])
                        seq.append(chain[k])
                    seq.extend(fills[ell])
                    if ISOLATED not in _forest(seq, masks, i).values():
                        count += 1
                        rhs.add(tuple(seq))
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
