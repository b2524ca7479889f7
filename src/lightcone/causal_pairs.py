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

Words, forests and node sets use the id and bitmask layout of
``causal_trees``.  A pair is the two readings of its word, so the internal
functions carry the word alone (as ids) and read the trees off it; a
pair's signature is the (id, parent) pairs of both readings, in id order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterator, Sequence

import numpy as np

from .causal_trees import (
    ISOLATED,
    ROOT,
    CausalForest,
    FactorSequence,
    _attach,
    _bit,
    _causal_forest,
    _check_sequence,
    _class_path,
    _forest,
    _ids,
    _masks,
    _nodes,
    _slot_mask,
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
from .factor_graph import Factor, FactorGraph, WeightedFactorGraph, graph_cache

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

Word = tuple[int, ...]


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


def _readings(
    word: Word, masks: Sequence[int], i: int
) -> tuple[dict[int, int], dict[int, int]]:
    """(backward, forward) forests of a word read from node i."""
    return _forest(word[::-1], masks, i), _forest(word, masks, i)


def _signature(word: Word, masks: Sequence[int], i: int) -> tuple:
    """Both readings of a word as (id, parent) pairs in id order."""
    return tuple(tuple(sorted(t.items())) for t in _readings(word, masks, i))


def _tree_pair(
    factors: Sequence[Factor], i: int, j: int, word: Word, masks: Sequence[int]
) -> CausalTreePair:
    """The public pair of ``word``, whose ids index ``factors``."""
    bwd, fwd = _readings(word, masks, i)
    return CausalTreePair(
        left=_causal_forest(factors, i, word[::-1], bwd),
        right=_causal_forest(factors, i, word, fwd),
        root=i,
        target=j,
    )


def _pair_word(
    pair: CausalTreePair, g: FactorGraph | WeightedFactorGraph, what: str
) -> tuple[FactorGraph, tuple[int, ...], Word]:
    """(graph, masks, word) of a pair of at most ``_PAIR_CAP`` factors."""
    if len(pair.factors) > _PAIR_CAP:
        raise TooLarge(f"{what} capped at {_PAIR_CAP} factors")
    base = g.graph
    return base, _masks(base.factors), _ids(base, pair.word)


def build_causal_tree_pair(
    g: FactorGraph | WeightedFactorGraph, seq: FactorSequence
) -> CausalTreePair:
    """Validate membership of a two-sided sequence and build its tree pair.

    Checks in order: factors belong to the graph, every factor repeats, the
    target appears, both reading directions creep.
    """
    base, word = _check_sequence(g, seq)
    if seq.target is None:
        raise TargetAbsent("two-sided sequence needs a target node")
    for x, c in Counter(word).items():
        if c < 2:
            f = base.factors[x]
            raise UnrepeatedFactor(
                f"factor {f.nodes} flavor {f.flavor} appears only once"
            )
    masks = _masks(base.factors)
    if _j_window(word, masks, seq.target) is None:
        raise TargetAbsent(f"target {seq.target} in no factor of the word")
    pair = _tree_pair(base.factors, seq.root, seq.target, word, masks)
    if not pair.right.is_tree:
        raise NotCreeping("forward reading is not creeping")
    if not pair.left.is_tree:
        raise NotCreeping("backward reading is not creeping")
    return pair


def _j_window(word: Word, masks: Sequence[int], j: int) -> tuple[int, int] | None:
    """(first, last) 1-based positions whose factor contains j."""
    bit = _bit(j)
    hits = [p for p, x in enumerate(word, start=1) if masks[x] & bit]
    return (hits[0], hits[-1]) if hits else None


# -- reduction --------------------------------------------------------------

def _reducing_subset(
    word: Word, masks: Sequence[int], i: int, j: int
) -> tuple[int, ...] | None:
    """The first proper nonempty factor subset closed under parents in both
    readings and containing a factor with the target, or None when the
    pair is irreducible; smallest first, lexicographic tie-break for
    determinism."""
    bwd, fwd = _readings(word, masks, i)
    pool = sorted(fwd)
    bit = {x: 1 << k for k, x in enumerate(pool)}
    need = [bit.get(bwd[x], 0) | bit.get(fwd[x], 0) for x in pool]
    holds_j = [masks[x] & _bit(j) for x in pool]
    for size in range(1, len(pool)):
        for combo in combinations(range(len(pool)), size):
            sub = sum(1 << k for k in combo)
            if any(holds_j[k] for k in combo) and not any(
                need[k] & ~sub for k in combo
            ):
                return tuple(pool[k] for k in combo)
    return None


def _reduce(word: Word, masks: Sequence[int], i: int, j: int) -> Word:
    """Restrict a word to its minimal reducing subset until none is left.

    Replaying the restricted word reproduces the induced trees: an earlier
    intersecting subset factor would have been the original parent already,
    so the earliest intersecting predecessor cannot change.
    """
    while (sub := _reducing_subset(word, masks, i, j)) is not None:
        word = tuple(x for x in word if x in sub)
    return word


def is_irreducible_pair(pair: CausalTreePair) -> bool:
    if len(pair.factors) > _PAIR_CAP:
        raise TooLarge(f"irreducibility search capped at {_PAIR_CAP} factors")
    factors = sorted(pair.factors)
    at = {f: k for k, f in enumerate(factors)}
    word = tuple(at[f] for f in pair.word)
    return _reducing_subset(word, _masks(factors), pair.root, pair.target) is None


def reduce_to_irreducible_pair(
    pair: CausalTreePair, g: FactorGraph | WeightedFactorGraph
) -> CausalTreePair:
    """Repeatedly restrict to the minimal reducing subset until none is left.

    Minimal reducing subsets need not be unique (two root factors both
    holding i and j give incomparable singletons); the lexicographic
    tie-break fixes the representative.
    """
    base, masks, word = _pair_word(pair, g, "reduction")
    i, j = pair.root, pair.target
    return _tree_pair(base.factors, i, j, _reduce(word, masks, i, j), masks)


# -- causal graph and genus -------------------------------------------------

def _tree_embeddings(
    word: Word, parents: dict[int, int], masks: Sequence[int], i: int, j: int
) -> list[frozenset[tuple[int, int]]]:
    """All valid embeddings of a causal tree as a (node, factor) edge set.

    Edges: (i, f) for root children; a shared connector node drawn from
    (parent & child) - {i} for every other tree edge; (j, f*) closing on
    the earliest j-factor of the sequence.  Valid embeddings are acyclic
    and keep the i -> j path equal to the tree's class path X_1..X_l.  The
    edges always connect, and they hold the walk i, X_1, c_2, X_2, ..., X_l,
    j through the connectors c_k of the class path; in a tree that walk is
    the i -> j path iff it repeats no node, that is iff the c_k are distinct
    and differ from j.
    """
    class_path = _class_path(word, parents, masks, j)
    fixed = {(j, class_path[-1])}
    slots: list[tuple[int, int]] = []
    cands: list[list[int]] = []
    for x, p in parents.items():
        if p == ROOT:
            fixed.add((i, x))
        else:
            slots.append((x, p))
            cands.append(sorted(_nodes(masks[x] & masks[p] & ~_bit(i))))

    out: list[frozenset[tuple[int, int]]] = []
    for choice in product(*cands):
        edges = set(fixed)
        for (x, p), c in zip(slots, choice):
            edges |= {(c, x), (c, p)}
        n_nodes = len({n for n, _ in edges})
        via = dict(zip((x for x, _ in slots), choice))
        walk = [via[x] for x in class_path[1:]] + [j]
        if len(edges) == n_nodes + len(parents) - 1 and len(set(walk)) == len(walk):
            out.append(frozenset(edges))
    return out


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
    base, masks, word = _pair_word(pair, g, "irreducibility search")
    i, j = pair.root, pair.target
    if _reducing_subset(word, masks, i, j) is not None:
        raise NotIrreducible("causal graph props need an irreducible pair")
    bwd, fwd = _readings(word, masks, i)
    left_embs = _tree_embeddings(word[::-1], bwd, masks, i, j)
    right_embs = _tree_embeddings(word, fwd, masks, i, j)
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

    def over_two(edge_set: frozenset[tuple[int, int]]) -> int:
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
        edges=frozenset((n, base.factors[f]) for n, f in union),
    )


# -- word enumeration -------------------------------------------------------

def _creeping_double_words(
    ids: Sequence[int], masks: Sequence[int], i: int
) -> Iterator[Word]:
    """Words using each factor of ``ids`` exactly twice whose two readings creep.

    Letters are placed left to right over the sorted ids, so words come out
    in lexicographic order.  A reading creeps iff no factor gets the
    ISOLATED outcome of ``_attach`` at its first occurrence in that reading,
    and that outcome depends only on the set of factors read before it:

    - forward, a factor is first read at its first occurrence, after the
      factors already started;
    - backward, a factor is first read at its last occurrence (its second
      here), after the factors with a letter still to come.

    Both tests are decided when the letter is placed, so failing prefixes
    are pruned at once, and the words yielded are exactly those whose two
    readings are trees.
    """
    pool = sorted(ids)
    n = 2 * len(pool)
    ibit = _bit(i)
    started: dict[int, None] = {}  # factors with a letter placed
    to_come = dict.fromkeys(pool)  # factors with a letter still to place
    word: list[int] = []

    def step() -> Iterator[Word]:
        if len(word) == n:
            yield tuple(word)
            return
        for x in pool:
            if x not in to_come:
                continue
            first = x not in started
            if first:
                if _attach(started, x, masks, ibit) == ISOLATED:
                    continue
                started[x] = None
            else:
                del to_come[x]
                if _attach(to_come, x, masks, ibit) == ISOLATED:
                    to_come[x] = None
                    continue
            word.append(x)
            yield from step()
            word.pop()
            if first:
                del started[x]
            else:
                to_come[x] = None

    yield from step()


def _psi(
    word: Word, masks: Sequence[int], i: int, j: int
) -> Iterator[tuple[Word, int]]:
    """(word, marker) of every marked word realizing the tree pair of ``word``."""
    want = _signature(word, masks, i)
    for w in _creeping_double_words(set(word), masks, i):
        window = _j_window(w, masks, j)
        if window is not None and _signature(w, masks, i) == want:
            for r in range(*window):
                yield w, r


def enumerate_psi(
    pair: CausalTreePair, g: FactorGraph | WeightedFactorGraph
) -> list[FactorSequence]:
    """All marked words realizing exactly this tree pair.

    Each factor appears exactly twice, both readings creep, the trees
    match the pair's, and the marker sits inside the j-occurrence window.
    """
    base, masks, word = _pair_word(pair, g, "ordering enumeration")
    i, j = pair.root, pair.target
    return [
        FactorSequence(
            root=i, factors=tuple(base.factors[x] for x in w), target=j, marker=r
        )
        for w, r in _psi(word, masks, i, j)
    ]


def _single_orderings(tree: dict[int, int], masks: Sequence[int], i: int) -> int:
    """Creeping single-occurrence sequences with exactly this tree."""
    want = sorted(tree.items())
    forests = (_forest(perm, masks, i) for perm in permutations(tree))
    return sum(1 for forest in forests if sorted(forest.items()) == want)


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
    _, masks, word = _pair_word(pair, g, "ordering counts")
    i = pair.root
    bwd, fwd = _readings(word, masks, i)
    n_left = _single_orderings(bwd, masks, i)
    n_right = _single_orderings(fwd, masks, i)
    n_psi = sum(1 for _ in _psi(word, masks, i, pair.target))
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


def _psi_word(
    g: FactorGraph | WeightedFactorGraph, psi: FactorSequence
) -> tuple[FactorGraph, tuple[int, ...], Word]:
    """(graph, masks, word) of a valid marked word; InvalidOrdering if not."""
    if psi.target is None or psi.marker is None:
        raise InvalidOrdering("ordering needs target and marker")
    base, word = _check_sequence(g, psi)
    if any(c != 2 for c in Counter(word).values()):
        raise InvalidOrdering("ordering must use each factor exactly twice")
    masks = _masks(base.factors)
    window = _j_window(word, masks, psi.target)
    if window is None:
        raise InvalidOrdering("target appears in no factor")
    if not window[0] <= psi.marker < window[1]:
        raise InvalidOrdering(
            f"marker {psi.marker} outside window [{window[0]}, {window[1]})"
        )
    if any(ISOLATED in t.values() for t in _readings(word, masks, psi.root)):
        raise InvalidOrdering("both readings must be creeping")
    return base, masks, word


def _forbidden(
    word: Word, masks: Sequence[int], i: int, j: int, variant: str
) -> tuple[list[int], list[set[int]]]:
    """Node masks and factor id sets forbidden at slots 0..len(word)."""
    n = len(word)
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for p, x in enumerate(word, start=1):
        first.setdefault(x, p)
        last[x] = p
    minj, maxj = _j_window(word, masks, j)
    v_masks = []
    if variant == "standard":
        for k in range(n + 1):
            prefix_nodes = suffix_nodes = out = 0
            for x in word[:k]:
                prefix_nodes |= masks[x]
            for x in word[k:]:
                suffix_nodes |= masks[x]
            for x, p in first.items():
                if p > k + 1:
                    out |= masks[x] & ~prefix_nodes
            for x, p in last.items():
                if p < k:
                    out |= masks[x] & ~suffix_nodes
            out &= ~_bit(i)
            v_masks.append(out & ~_bit(j) if minj <= k < maxj else out | _bit(j))
    elif variant == "primed":
        bwd, fwd = _readings(word, masks, i)
        gamma_r = _class_path(word, fwd, masks, j)
        gamma_l = _class_path(word[::-1], bwd, masks, j)
        # first appearances increase along the right path, last appearances
        # decrease along the left one; sentinels close the outer brackets
        min_r = [0] + [first[x] for x in gamma_r]
        max_l = [n + 1] + [last[x] for x in gamma_l]
        masks_r = [masks[x] for x in gamma_r]
        masks_l = [masks[x] for x in gamma_l]
        for k in range(n + 1):
            if k < minj:
                p = 0
                while p + 1 < len(min_r) and min_r[p + 1] <= k:
                    p += 1
                v_masks.append(_slot_mask(masks_r, j, p))
            elif k < maxj:
                v_masks.append(0)
            else:
                p = 0
                while p + 1 < len(max_l) and max_l[p + 1] > k:
                    p += 1
                v_masks.append(_slot_mask(masks_l, j, p))
    else:
        raise InvalidParams(f"unknown variant {variant!r}")

    y_sets = []
    for k, forb in enumerate(v_masks):
        ys = {x for x, m in enumerate(masks) if m & forb}
        ys |= {x for x in first if first[x] > k}
        ys |= {x for x in last if last[x] <= k}
        y_sets.append(ys)
    return v_masks, y_sets


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
    base, masks, word = _psi_word(g, psi)
    v_masks, y_sets = _forbidden(word, masks, psi.root, psi.target, variant)
    return ForbiddenSets(
        v_sets=tuple(_nodes(m) for m in v_masks),
        y_sets=tuple(frozenset(base.factors[x] for x in ys) for ys in y_sets),
    )


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
    _, masks, word = _psi_word(g, psi)
    i = psi.root
    _, y_sets = _forbidden(word, masks, i, psi.target, variant)
    # an isolated factor shows in a signature, so equal ones mean equal trees
    want = _signature(word, masks, i)
    for k, ys in enumerate(y_sets):
        for y in ys:
            # the skeleton keeps each factor's first and last letter, and a
            # middle letter's canonical slot counts the skeleton letters
            # before it; every factor of psi appears twice, so the skeleton
            # stays psi and the new letter sits at its own slot k exactly
            # when y occurs both before and after position k
            if y in word[:k] and y in word[k:]:
                if _signature(word[:k] + (y,) + word[k:], masks, i) == want:
                    return False
    return True


# -- brute-force ensemble bound --------------------------------------------

@dataclass(frozen=True)
class Theorem4Report:
    value: float
    l_max: int
    truncated: bool
    last_shell: float


@graph_cache
def _pair_coefficients(
    g: WeightedFactorGraph, i: int, j: int, l_max: int
) -> tuple[tuple[int, float], ...]:
    masks = _masks(g.factors)
    ibit, jbit = _bit(i), _bit(j)
    coeffs: dict[int, float] = {}
    irreducible: dict[tuple, bool] = {}
    for size in range(1, l_max + 1):
        for combo in combinations(range(len(masks)), size):
            if not any(masks[x] & ibit for x in combo):
                continue
            if not any(masks[x] & jbit for x in combo):
                continue
            weight = 1.0
            for x in combo:
                weight *= (2.0 * g.weights[x]) ** 2
            n = 2 * size
            subtotal = 0.0
            for word in _creeping_double_words(combo, masks, i):
                sig = _signature(word, masks, i)
                if sig not in irreducible:
                    irreducible[sig] = _reducing_subset(word, masks, i, j) is None
                if not irreducible[sig]:
                    continue
                lo, hi = _j_window(word, masks, j)
                subtotal += sum(
                    1.0 / (math.factorial(r) * math.factorial(n - r))
                    for r in range(lo, hi)
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
    if not 0 <= i < g.n_nodes or not 0 <= j < g.n_nodes:
        raise InvalidParams(f"nodes ({i}, {j}) outside 0..{g.n_nodes - 1}")
    if l_max is None:
        l_max = len(g.factors)
    if l_max < 1:
        raise InvalidParams(f"l_max must be >= 1, got {l_max}")
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
    if n_nodes < 3 or max_factors < 1 or q_max < 2 or seed < 0:
        raise InvalidParams(
            "need n_nodes >= 3, max_factors >= 1, q_max >= 2 and seed >= 0, got "
            f"{n_nodes}, {max_factors}, {q_max} and {seed}"
        )
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
        masks = _masks(g.factors)
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        size = int(rng.integers(1, min(max_factors, len(g.factors)) + 1))
        subset = [int(x) for x in rng.choice(len(g.factors), size=size, replace=False)]
        if not any(masks[x] & _bit(i) for x in subset):
            continue
        if not any(masks[x] & _bit(j) for x in subset):
            continue
        words = list(_creeping_double_words(subset, masks, i))
        if not words:
            continue
        word = _reduce(words[int(rng.integers(0, len(words)))], masks, i, j)
        return _tree_pair(g.factors, i, j, word, masks), g
    raise InvalidParams("could not sample a pair; widen the parameters")
