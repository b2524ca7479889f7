"""Two-sided factor sequences: tree pairs, causal graphs, ordering counts.

A two-sided sequence is a word W = (X_1..X_n) with a projector marker
r in 0..n: reading the word forward builds the right causal tree, reading
it backward builds the left one.  Membership in the contributing set
requires every factor to appear at least twice, some factor to contain the
target j, and both readings to creep.  Orderings psi of a tree pair carry
each factor exactly twice and keep the marker strictly inside the window
of j-occurrences (outside it the projected term vanishes).

Such doubled words come from one walk that checks both readings as it
places letters: a first occurrence must hold i or meet a factor already
started, a second (and last) one must hold i or meet a factor still to
come.  The ordering enumeration, the pair series and random pair sampling
all draw their words from it.

Pairs reduce: a proper nonempty factor subset that is ancestor-closed in
both trees and contains a j-factor spans a smaller pair realized by its
own word; repeated reduction reaches an irreducible pair.  The union of
the two embedded trees is the causal graph M whose genus controls the
ensemble bounds downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator, Sequence

import numpy as np

from .causal_trees import (
    CausalForest,
    FactorSequence,
    _check_factors,
    build_causal_forest,
    forbidden_vertices_single,
    irreducible_path_of_tree,
)
from .errors import (
    ComputeError,
    InvalidOrdering,
    InvalidParams,
    NotCreeping,
    NotIrreducible,
    SameNode,
    TargetAbsent,
    TooLarge,
    UnrepeatedFactor,
)
from .factor_graph import Factor, FactorGraph, WeightedFactorGraph

__all__ = [
    "CausalTreePair",
    "build_causal_tree_pair",
    "is_irreducible_pair",
    "reduce_to_irreducible_pair",
    "CausalGraphProps",
    "causal_graph_props",
    "enumerate_psi",
    "OrderingCounts",
    "count_orderings",
    "ForbiddenSets",
    "forbidden_sets_pair",
    "insertion_consistency_check",
    "Theorem4Report",
    "theorem4_bound_bruteforce",
    "theorem4_coefficients",
    "random_irreducible_pair",
]

_PAIR_CAP = 8  # exhaustive searches stop making sense past this many factors


def _base(g: FactorGraph | WeightedFactorGraph) -> FactorGraph:
    return g.graph if isinstance(g, WeightedFactorGraph) else g


@dataclass(frozen=True)
class CausalTreePair:
    """Left/right causal trees of a two-sided word, sharing a factor set."""

    left: CausalForest
    right: CausalForest
    root: int
    target: int

    @property
    def factors(self) -> frozenset[Factor]:
        return frozenset(self.right.vertices)

    @property
    def word(self) -> tuple[Factor, ...]:
        return self.right.sequence

    def signature(self) -> tuple[frozenset, frozenset]:
        return (self.left.signature(), self.right.signature())


def build_causal_tree_pair(
    g: FactorGraph | WeightedFactorGraph, seq: FactorSequence
) -> CausalTreePair:
    """Validate membership of a two-sided sequence and build its tree pair.

    Checks in order: factors belong to the graph, every factor repeats, the
    target appears, both reading directions creep.
    """
    base = _base(g)
    _check_factors(base, seq.factors)
    if seq.target is None:
        raise TargetAbsent("two-sided sequence needs a target node")
    word = seq.factors
    counts: dict[Factor, int] = {}
    for f in word:
        counts[f] = counts.get(f, 0) + 1
    for f, c in counts.items():
        if c < 2:
            raise UnrepeatedFactor(
                f"factor {f.nodes} flavor {f.flavor} appears only once"
            )
    if not any(seq.target in f for f in word):
        raise TargetAbsent(f"target {seq.target} in no factor of the word")
    bwd, fwd = _readings(base, seq.root, word)
    if not fwd.is_tree:
        raise NotCreeping("forward reading is not creeping")
    if not bwd.is_tree:
        raise NotCreeping("backward reading is not creeping")
    return CausalTreePair(left=bwd, right=fwd, root=seq.root, target=seq.target)


def _readings(
    base: FactorGraph, i: int, word: tuple[Factor, ...]
) -> tuple[CausalForest, CausalForest]:
    """(backward, forward) causal forests of a word read from node i."""
    fwd = build_causal_forest(base, FactorSequence(root=i, factors=word))
    bwd = build_causal_forest(base, FactorSequence(root=i, factors=word[::-1]))
    return bwd, fwd


def _first_last(
    word: Sequence[Factor], start: int = 0
) -> tuple[dict[Factor, int], dict[Factor, int]]:
    """First and last position of each factor, counting from ``start``."""
    first: dict[Factor, int] = {}
    last: dict[Factor, int] = {}
    for p, f in enumerate(word, start=start):
        first.setdefault(f, p)
        last[f] = p
    return first, last


# -- reduction --------------------------------------------------------------

def _ancestor_closed_subsets(pair: CausalTreePair) -> Iterator[frozenset[Factor]]:
    """Proper nonempty subsets closed under parents in both trees and
    containing a factor with the target; smallest first, lexicographic
    tie-break for determinism."""
    factors = sorted(pair.factors)
    j = pair.target
    for size in range(1, len(factors)):
        for combo in combinations(factors, size):
            sub = frozenset(combo)
            if not any(j in f for f in sub):
                continue
            if all(
                (p := tree.parent_of(f)) is None or p in sub
                for tree in (pair.left, pair.right)
                for f in sub
            ):
                yield sub


def is_irreducible_pair(pair: CausalTreePair) -> bool:
    if len(pair.factors) > _PAIR_CAP:
        raise TooLarge(f"irreducibility search capped at {_PAIR_CAP} factors")
    return next(_ancestor_closed_subsets(pair), None) is None


def _restrict_tree(
    tree: CausalForest, keep: frozenset[Factor], base: FactorGraph
) -> CausalForest:
    """Induced subtree on an ancestor-closed factor subset.

    Replaying the restricted subsequence reproduces the induced parents: an
    earlier intersecting subset factor would have been the original parent
    already, so the earliest intersecting predecessor cannot change.
    """
    sub_seq = tuple(f for f in tree.sequence if f in keep)
    return build_causal_forest(base, FactorSequence(root=tree.root, factors=sub_seq))


def reduce_to_irreducible_pair(
    pair: CausalTreePair, g: FactorGraph | WeightedFactorGraph
) -> CausalTreePair:
    """Repeatedly restrict to the minimal reducing subset until none is left.

    Minimal reducing subsets need not be unique (two root factors both
    holding i and j give incomparable singletons); the lexicographic
    tie-break fixes the representative.
    """
    if len(pair.factors) > _PAIR_CAP:
        raise TooLarge(f"reduction capped at {_PAIR_CAP} factors")
    base = _base(g)
    current = pair
    while True:
        sub = next(_ancestor_closed_subsets(current), None)
        if sub is None:
            return current
        current = CausalTreePair(
            left=_restrict_tree(current.left, sub, base),
            right=_restrict_tree(current.right, sub, base),
            root=current.root,
            target=current.target,
        )


# -- causal graph and genus -------------------------------------------------

def _tree_embeddings(tree: CausalForest, j: int) -> list[frozenset[tuple[int, Factor]]]:
    """All valid embeddings of a causal tree as a node-factor edge set.

    Edges: (i, f) for root children; a shared connector node drawn from
    (parent & child) - {i} for every other tree edge; (j, f*) closing on
    the earliest j-factor of the sequence.  Valid embeddings are acyclic
    and keep the i -> j path equal to the tree's class path.
    """
    i = tree.root
    class_path = irreducible_path_of_tree(tree, j).factors
    terminal = next(f for f in tree.sequence if j in f)
    fixed: list[tuple[int, Factor]] = [(j, terminal)]
    slots: list[tuple[Factor, Factor, tuple[int, ...]]] = []
    for f in tree.vertices:
        parent = tree.parent_of(f)
        if parent is None:
            fixed.append((i, f))
        else:
            cands = tuple(sorted((f.node_set & parent.node_set) - {i}))
            slots.append((f, parent, cands))

    out: list[frozenset[tuple[int, Factor]]] = []

    def build(idx: int, edges: list[tuple[int, Factor]]) -> None:
        if idx == len(slots):
            emb = frozenset(edges)
            if _embedding_valid(emb, i, j, class_path):
                out.append(emb)
            return
        f, parent, cands = slots[idx]
        for c in cands:
            edges.append((c, f))
            edges.append((c, parent))
            build(idx + 1, edges)
            edges.pop()
            edges.pop()

    build(0, fixed)
    return out


def _embedding_valid(
    edges: frozenset[tuple[int, Factor]],
    i: int,
    j: int,
    class_path: tuple[Factor, ...],
) -> bool:
    nodes = {n for n, _ in edges}
    facts = {f for _, f in edges}
    if len(edges) != len(nodes) + len(facts) - 1:
        return False  # a connector collision closed a cycle
    adj: dict = {}
    for n, f in edges:
        adj.setdefault(("n", n), []).append(("f", f))
        adj.setdefault(("f", f), []).append(("n", n))
    start, goal = ("n", i), ("n", j)
    parent: dict = {start: None}
    stack = [start]
    while stack:
        v = stack.pop()
        if v == goal:
            break
        for w in adj.get(v, ()):
            if w not in parent:
                parent[w] = v
                stack.append(w)
    if goal not in parent:
        return False
    path_factors = []
    v = goal
    while v is not None:
        if v[0] == "f":
            path_factors.append(v[1])
        v = parent[v]
    path_factors.reverse()
    return tuple(path_factors) == class_path


@dataclass(frozen=True)
class CausalGraphProps:
    genus: int
    prop13: bool
    prop14: bool
    prop15: bool
    n_vertices: int
    n_factors: int
    edges: frozenset[tuple[int, Factor]]


def causal_graph_props(
    pair: CausalTreePair, g: FactorGraph | WeightedFactorGraph
) -> CausalGraphProps:
    """Minimal-genus union of the embedded trees, plus three verdicts.

    prop13: 0 <= genus <= N - 1.
    prop14: at most 2*genus vertices of degree > 2, in the union and in
            each embedded tree separately.
    prop15: at least genus + 1 factors when genus >= 1.
    """
    base = _base(g)
    if not is_irreducible_pair(pair):
        raise NotIrreducible("causal graph props need an irreducible pair")
    left_embs = _tree_embeddings(pair.left, pair.target)
    right_embs = _tree_embeddings(pair.right, pair.target)
    if not left_embs or not right_embs:
        raise ComputeError("pair admits no valid tree embedding")
    best = None
    for le in left_embs:
        for re_ in right_embs:
            union = le | re_
            nodes = {n for n, _ in union}
            facts = {f for _, f in union}
            genus = len(union) + 1 - len(nodes) - len(facts)
            if best is None or genus < best[0]:
                best = (genus, union, le, re_)
    genus, union, le, re_ = best

    def over_two(edge_set: frozenset[tuple[int, Factor]]) -> int:
        deg: dict = {}
        for n, f in edge_set:
            deg[("n", n)] = deg.get(("n", n), 0) + 1
            deg[("f", f)] = deg.get(("f", f), 0) + 1
        return sum(1 for d in deg.values() if d > 2)

    n_factors = len({f for _, f in union})
    return CausalGraphProps(
        genus=genus,
        prop13=0 <= genus <= base.n_nodes - 1,
        prop14=all(over_two(e) <= 2 * genus for e in (union, le, re_)),
        prop15=(genus < 1) or (n_factors >= genus + 1),
        n_vertices=len({n for n, _ in union}),
        n_factors=n_factors,
        edges=union,
    )


# -- word enumeration -------------------------------------------------------

def _creeping_double_words(
    factors: Sequence[Factor], i: int
) -> Iterator[tuple[Factor, ...]]:
    """Words using each factor exactly twice whose two readings creep.

    Letters are placed left to right over the sorted pool, so words come
    out in lexicographic order of pool index.  A reading creeps iff no
    factor gets the "isolated" outcome of ``attach_decision`` at its first
    occurrence in that reading, and that outcome depends only on the
    factors read before it:

    - forward, a factor is first read at its first occurrence, after the
      factors already started; it is not isolated iff it holds i or meets
      one of them;
    - backward, a factor is first read at its last occurrence (its second
      here), after the factors with a letter still to come; it is not
      isolated iff it holds i or meets one of them.

    Both tests are decided when the letter is placed, so failing prefixes
    are pruned at once, and the words yielded are exactly those whose
    ``build_causal_forest`` is a tree on both readings.
    """
    pool = sorted(factors)
    masks = [sum(1 << v for v in f.nodes) for f in pool]
    holds_i = [i in f for f in pool]
    n = 2 * len(pool)
    remaining = [2] * len(pool)
    word: list[int] = []

    def step(started: int) -> Iterator[tuple[Factor, ...]]:
        if len(word) == n:
            yield tuple(pool[k] for k in word)
            return
        for k, left in enumerate(remaining):
            if left == 0:
                continue
            if left == 2:
                if not (holds_i[k] or masks[k] & started):
                    continue
            elif not holds_i[k]:
                to_come = 0
                for m, r in enumerate(remaining):
                    if r and m != k:
                        to_come |= masks[m]
                if not masks[k] & to_come:
                    continue
            remaining[k] = left - 1
            word.append(k)
            yield from step(started | masks[k])
            word.pop()
            remaining[k] = left

    yield from step(0)


def _j_window(word: Sequence[Factor], j: int) -> tuple[int, int] | None:
    """(first, last) 1-based positions whose factor contains j."""
    lo = hi = None
    for p, f in enumerate(word, start=1):
        if j in f:
            hi = p
            if lo is None:
                lo = p
    return None if lo is None else (lo, hi)


def enumerate_psi(
    pair: CausalTreePair, g: FactorGraph | WeightedFactorGraph
) -> list[FactorSequence]:
    """All marked words realizing exactly this tree pair.

    Each factor appears exactly twice, both readings creep, the trees
    match the pair's, and the marker sits inside the j-occurrence window.
    """
    if len(pair.factors) > _PAIR_CAP:
        raise TooLarge(f"ordering enumeration capped at {_PAIR_CAP} factors")
    base = _base(g)
    want = pair.signature()
    i, j = pair.root, pair.target
    out: list[FactorSequence] = []
    for word in _creeping_double_words(pair.factors, i):
        bwd, fwd = _readings(base, i, word)
        if (bwd.signature(), fwd.signature()) != want:
            continue
        window = _j_window(word, j)
        if window is None:
            continue
        for r in range(window[0], window[1]):
            out.append(FactorSequence(root=i, factors=word, target=j, marker=r))
    return out


def _single_orderings(tree: CausalForest, base: FactorGraph) -> int:
    """Creeping single-occurrence sequences with exactly this tree."""
    want = tree.signature()
    count = 0
    for perm in permutations(tree.vertices):
        forest = build_causal_forest(
            base, FactorSequence(root=tree.root, factors=perm)
        )
        if forest.is_tree and forest.signature() == want:
            count += 1
    return count


@dataclass(frozen=True)
class OrderingCounts:
    n_left: int
    n_right: int
    n_psi: int


def count_orderings(
    pair: CausalTreePair, g: FactorGraph | WeightedFactorGraph
) -> OrderingCounts:
    """Brute-force N(Q_L), N(Q_R) and the marked-word count.

    Checks the packing inequality |Psi| <= (2l)!/(l!)^2 N(Q_L) N(Q_R) and
    raises ComputeError if it fails.
    """
    if len(pair.factors) > _PAIR_CAP:
        raise TooLarge(f"ordering counts capped at {_PAIR_CAP} factors")
    base = _base(g)
    n_left = _single_orderings(pair.left, base)
    n_right = _single_orderings(pair.right, base)
    n_psi = len(enumerate_psi(pair, base))
    ell = len(pair.factors)
    cap = math.comb(2 * ell, ell) * n_left * n_right
    if n_psi > cap:
        raise ComputeError(f"packing inequality violated: {n_psi} > {cap}")
    return OrderingCounts(n_left=n_left, n_right=n_right, n_psi=n_psi)


# -- forbidden sets ---------------------------------------------------------

@dataclass(frozen=True)
class ForbiddenSets:
    """Per-slot forbidden nodes and factors, slots 0..len(word)."""

    v_sets: tuple[frozenset[int], ...]
    y_sets: tuple[frozenset[Factor], ...]


def _validate_psi(base: FactorGraph, psi: FactorSequence) -> None:
    if psi.target is None or psi.marker is None:
        raise InvalidOrdering("ordering needs target and marker")
    _check_factors(base, psi.factors)
    counts: dict[Factor, int] = {}
    for f in psi.factors:
        counts[f] = counts.get(f, 0) + 1
    if any(c != 2 for c in counts.values()):
        raise InvalidOrdering("ordering must use each factor exactly twice")
    window = _j_window(psi.factors, psi.target)
    if window is None:
        raise InvalidOrdering("target appears in no factor")
    if not window[0] <= psi.marker < window[1]:
        raise InvalidOrdering(
            f"marker {psi.marker} outside window [{window[0]}, {window[1]})"
        )
    bwd, fwd = _readings(base, psi.root, psi.factors)
    if not (fwd.is_tree and bwd.is_tree):
        raise InvalidOrdering("both readings must be creeping")


def forbidden_sets_pair(
    g: FactorGraph | WeightedFactorGraph,
    psi: FactorSequence,
    variant: str = "standard",
) -> ForbiddenSets:
    """Slot-indexed forbidden node/factor sets for a marked word.

    standard: nodes unreachable at slot k because they occur only in
    factors first appearing two or more positions ahead (or, mirrored,
    last appearing two or more positions behind), plus j outside its
    occurrence window.  primed: the same data organized along the two
    class paths, using the single-path sets bracketed by first appearances
    on the right path and last appearances on the left one.  Both variants
    collect the factor set from everything touching the forbidden nodes
    plus factors wholly in the future or wholly in the past of the slot.
    """
    base = _base(g)
    _validate_psi(base, psi)
    word = psi.factors
    i, j = psi.root, psi.target
    n = len(word)
    first, last = _first_last(word, start=1)
    minj, maxj = _j_window(word, j)

    if variant == "standard":
        v_sets = tuple(
            _v_standard(word, i, j, k, first, last, minj, maxj)
            for k in range(n + 1)
        )
    elif variant == "primed":
        v_sets = _v_primed(base, word, i, j, first, last, minj, maxj)
    else:
        raise InvalidParams(f"unknown variant {variant!r}")

    y_sets = []
    for k in range(n + 1):
        forb = v_sets[k]
        ys = {f for f in base.factors if f.node_set & forb}
        ys |= {f for f in first if first[f] > k}
        ys |= {f for f in last if last[f] <= k}
        y_sets.append(frozenset(ys))
    return ForbiddenSets(v_sets=v_sets, y_sets=tuple(y_sets))


def _v_standard(
    word: tuple[Factor, ...],
    i: int,
    j: int,
    k: int,
    first: dict[Factor, int],
    last: dict[Factor, int],
    minj: int,
    maxj: int,
) -> frozenset[int]:
    prefix_nodes: set[int] = set()
    for f in word[:k]:
        prefix_nodes |= f.node_set
    suffix_nodes: set[int] = set()
    for f in word[k:]:
        suffix_nodes |= f.node_set
    out: set[int] = set()
    for f, p in first.items():
        if p > k + 1:
            out |= f.node_set - prefix_nodes
    for f, p in last.items():
        if p < k:
            out |= f.node_set - suffix_nodes
    out.discard(i)
    if k < minj or k >= maxj:
        out.add(j)
    else:
        out.discard(j)
    return frozenset(out)


def _v_primed(
    base: FactorGraph,
    word: tuple[Factor, ...],
    i: int,
    j: int,
    first: dict[Factor, int],
    last: dict[Factor, int],
    minj: int,
    maxj: int,
) -> tuple[frozenset[int], ...]:
    n = len(word)
    bwd, fwd = _readings(base, i, word)
    gamma_r = irreducible_path_of_tree(fwd, j)
    gamma_l = irreducible_path_of_tree(bwd, j)
    # first appearances increase along the right path, last appearances
    # decrease along the left one; sentinels close the outer brackets
    min_r = [0] + [first[f] for f in gamma_r.factors]
    max_l = [n + 1] + [last[f] for f in gamma_l.factors]
    out = []
    for k in range(n + 1):
        if k < minj:
            p = 0
            while p + 1 < len(min_r) and min_r[p + 1] <= k:
                p += 1
            out.append(forbidden_vertices_single(gamma_r, p))
        elif k < maxj:
            out.append(frozenset())
        else:
            p = 0
            while p + 1 < len(max_l) and max_l[p + 1] > k:
                p += 1
            out.append(forbidden_vertices_single(gamma_l, p))
    return tuple(out)


def _canonical_slots(word: Sequence[Factor]) -> dict[int, int]:
    """Slot assignment for middle occurrences (0-based positions).

    The skeleton keeps each factor's first and last occurrence; a middle
    occurrence's slot is the number of skeleton positions before it.
    """
    first, last = _first_last(word)
    skeleton = [p for p, f in enumerate(word) if p == first[f] or p == last[f]]
    slots: dict[int, int] = {}
    for p, f in enumerate(word):
        if p != first[f] and p != last[f]:
            slots[p] = sum(1 for s in skeleton if s < p)
    return slots


def insertion_consistency_check(
    g: FactorGraph | WeightedFactorGraph,
    psi: FactorSequence,
    variant: str = "standard",
) -> bool:
    """No forbidden insertion is canonical at its own slot.

    Inserting Y from the slot-k forbidden set must break a creeping
    reading, change the tree pair, change the skeleton, or land at a
    different canonical slot.  Forbidden sets exist to keep the slotted
    decomposition of longer words unambiguous; this is the operational
    statement of that role.
    """
    base = _base(g)
    sets = forbidden_sets_pair(base, psi, variant=variant)
    word = psi.factors
    i = psi.root
    bwd, fwd = _readings(base, i, word)
    want = (bwd.signature(), fwd.signature())
    for k, ys in enumerate(sets.y_sets):
        for y in ys:
            new = word[:k] + (y,) + word[k:]
            nb, nf = _readings(base, i, new)
            if not (nf.is_tree and nb.is_tree):
                continue
            if (nb.signature(), nf.signature()) != want:
                continue
            first, last = _first_last(new)
            skeleton = tuple(
                f for p, f in enumerate(new) if p == first[f] or p == last[f]
            )
            if skeleton == word and _canonical_slots(new).get(k) == k:
                return False
    return True


# -- brute-force ensemble bound --------------------------------------------

@dataclass(frozen=True)
class Theorem4Report:
    value: float
    l_max: int
    truncated: bool
    last_shell: float


@lru_cache(maxsize=64)
def _pair_coefficients(
    g: WeightedFactorGraph, i: int, j: int, l_max: int
) -> tuple[tuple[int, float], ...]:
    base = g.graph
    factors = base.factors
    coeffs: dict[int, float] = {}
    irr_cache: dict[tuple, bool] = {}
    for size in range(1, l_max + 1):
        for combo in combinations(factors, size):
            if not any(i in f for f in combo):
                continue
            if not any(j in f for f in combo):
                continue
            weight = 1.0
            for f in combo:
                weight *= (2.0 * g.weight_of(f)) ** 2
            n = 2 * size
            subtotal = 0.0
            for word in _creeping_double_words(combo, i):
                bwd, fwd = _readings(base, i, word)
                sig = (bwd.signature(), fwd.signature())
                irr = irr_cache.get(sig)
                if irr is None:
                    pair = CausalTreePair(left=bwd, right=fwd, root=i, target=j)
                    irr = is_irreducible_pair(pair)
                    irr_cache[sig] = irr
                if not irr:
                    continue
                window = _j_window(word, j)
                if window is None:
                    continue
                subtotal += sum(
                    1.0 / (math.factorial(r) * math.factorial(n - r))
                    for r in range(window[0], window[1])
                )
            if subtotal:
                coeffs[n] = coeffs.get(n, 0.0) + subtotal * weight
    return tuple(sorted(coeffs.items()))


def theorem4_coefficients(
    g: WeightedFactorGraph, i: int, j: int, l_max: int | None = None
) -> dict[int, float]:
    """Coefficients of t^(2s) in the irreducible-pair sum.

    Factor weights are per-factor coupling scales (square roots of the
    variances).  For each factor subset, every both-ways-creeping word
    using each factor exactly twice is classified; irreducible tree pairs
    contribute sum_r 1/(r! (n-r)!) over the marker window times the
    squared couplings.
    """
    if i == j:
        raise SameNode(f"pair endpoints coincide at node {i}")
    if l_max is None:
        l_max = len(g.factors)
    if l_max > 6 or len(g.factors) > 12:
        raise TooLarge("brute force capped at l_max <= 6, |F| <= 12")
    return dict(_pair_coefficients(g, i, j, l_max))


def theorem4_bound_bruteforce(
    g: WeightedFactorGraph,
    i: int,
    j: int,
    t: float,
    l_max: int | None = None,
) -> Theorem4Report:
    """Evaluate the irreducible-pair series at time t.

    All terms are nonnegative, so truncating the subset size is monotone;
    the top-order shell magnitude is reported as convergence evidence.
    """
    full = len(g.factors)
    if l_max is None:
        l_max = min(full, 6)
    coeffs = theorem4_coefficients(g, i, j, l_max)
    value = sum(c * t**p for p, c in coeffs.items())
    top = 2 * l_max
    return Theorem4Report(
        value=value,
        l_max=l_max,
        truncated=l_max < full,
        last_shell=coeffs.get(top, 0.0) * t**top,
    )


# -- random pair generation -------------------------------------------------

def random_irreducible_pair(
    n_nodes: int,
    seed: int,
    max_factors: int = 4,
    q_max: int = 3,
) -> tuple[CausalTreePair, FactorGraph]:
    """Sample an irreducible pair on a random small graph, deterministically.

    Draws a connected random graph, picks endpoints, searches for a
    both-ways-creeping word over a random factor subset, and reduces the
    resulting pair.  Reductions of realizable pairs stay realizable, so
    the result is always a valid irreducible pair.
    """
    rng = np.random.default_rng(seed)
    for _attempt in range(200):
        n = int(rng.integers(3, n_nodes + 1))
        factors: set[Factor] = set()
        # random spanning chain plus extras keeps the graph connected
        perm = rng.permutation(n)
        for a, b in zip(perm, perm[1:]):
            factors.add(Factor(nodes=(int(a), int(b))))
        for _ in range(int(rng.integers(0, 4))):
            size = int(rng.integers(2, q_max + 1))
            nodes = tuple(
                int(x) for x in rng.choice(n, size=min(size, n), replace=False)
            )
            cand = Factor(nodes=nodes)
            flavor = 0
            while cand in factors:
                flavor += 1
                cand = Factor(nodes=nodes, flavor=flavor)
            factors.add(cand)
        g = FactorGraph(n_nodes=n, factors=tuple(sorted(factors)))
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        size = int(rng.integers(1, min(max_factors, len(g.factors)) + 1))
        subset = tuple(
            sorted(
                g.factors[int(x)]
                for x in rng.choice(len(g.factors), size=size, replace=False)
            )
        )
        if not any(i in f for f in subset) or not any(j in f for f in subset):
            continue
        words = list(_creeping_double_words(subset, i))
        if not words:
            continue
        word = words[int(rng.integers(0, len(words)))]
        pair = build_causal_tree_pair(
            g, FactorSequence(root=i, factors=word, target=j)
        )
        return reduce_to_irreducible_pair(pair, g), g
    raise InvalidParams("could not sample a pair; widen the parameters")
