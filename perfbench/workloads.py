"""Inputs, operations and checks of the benchmark workloads.

Four parts, one per family of results (lattice and all-to-all bound curves,
exact curves, causal structure), make up two workloads: ``bounds`` runs the
lattice and all-to-all rounds, ``exact_causal`` the exact and causal ones.

A part hands out *rounds*: fixed lists of operations whose shapes and
sizes do not depend on the seed.  The seed (with the round index) draws
everything else: weights, couplings,
node labels, pair positions and the seeds handed to the program.  Inputs
never repeat between operations, so no operation reads a cache entry that
an earlier one left, except where an operation shares a graph on purpose
(the pairs of one chain, as in a C_ij profile).

Calls go through the ``lightcone`` package attributes, so a tracer
installed before this module runs sees them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import lightcone as lc
import refs

BOUND_TIMES = (1.0, 2.0, 4.0)
EXACT_TIMES = (0.5, 1.0, 1.5, 2.0)
KRYLOV_TIMES = (0.5, 1.0)
SYK_TIMES = (0.1, 0.3, 0.5)
PAULI_MC_TIMES = (0.25, 0.5, 0.75, 1.0)
CAUSAL_TIMES = (0.25, 0.5, 1.0)


@dataclass
class Op:
    """One user-visible result: run it (timed), then check it (untimed).

    ``known_fault`` names the exception of a fault the benchmark keeps on
    purpose; an op that raises it counts as failed.  Ops with ``timed``
    false count in attempted/failed but not in the timing metrics, so a fix
    of the fault cannot move those metrics by itself.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    timed: bool = True
    known_fault: type | None = None


def _rng(tag: int, seed: int, *rest: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed, *rest])


def _program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def bound_curves(g, i: int, j: int, l_max: int | None):
    """theorem3 (l_max as given), corollary6 and optimised Lieb-Robinson curves."""
    thm3 = [lc.theorem3_bound(g, i, j, t, l_max=l_max) for t in BOUND_TIMES]
    cor6 = [lc.corollary6_bound(g, i, j, t) for t in BOUND_TIMES]
    lr = [lc.lieb_robinson_bound(g, i, j, t, alpha="optimize") for t in BOUND_TIMES]
    return thm3, cor6, lr


# -- lattice ------------------------------------------------------------------

class Lattice:
    """Bound curves for pairs on long chains.

    Round r: a unit chain of 400 + r sites (distinct per round, so its h
    matrices are never cached from an earlier round) with eleven near pairs
    and one far pair, then a random-weight chain of 600 sites with four
    near pairs.  Near pairs sit 8..160 sites apart.  The far pair (60, 260)
    is 200 sites apart and seed-independent: theorem3_bound computes
    at**l / l! and raises OverflowError for every path of >= 171 factors.
    """

    TAG = 1
    UNIT_SITES = 400
    WEIGHTED_SITES = 600
    UNIT_PAIRS = 11
    WEIGHTED_PAIRS = 4
    FAR_PAIR = (60, 260)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    @staticmethod
    def _chain(n: int, weights) -> object:
        g = lc.build_graph(n, [(k, k + 1) for k in range(n - 1)])
        return lc.as_weighted(g, list(weights))

    @staticmethod
    def _near_pair(rng, n: int) -> tuple[int, int]:
        d = int(rng.integers(8, 161))
        i = int(rng.integers(0, n - d))
        return (i, i + d) if rng.random() < 0.5 else (i + d, i)

    def _pair_op(self, kind, g, weights, i, j, unit, timed=True, known_fault=None) -> Op:
        return Op(
            kind=kind,
            run=lambda: bound_curves(g, i, j, abs(i - j)),
            check=lambda out: refs.check_chain_curves(out, weights, i, j, BOUND_TIMES, unit),
            timed=timed,
            known_fault=known_fault,
        )

    def warm_up_ops(self) -> list[Op]:
        weights = [1.0 + 0.01 * k for k in range(39)]
        return [self._pair_op("warm", self._chain(40, weights), weights, 5, 30, unit=False)]

    def round_ops(self, r: int) -> list[Op]:
        rng = _rng(self.TAG, self.seed, r)
        n_unit = self.UNIT_SITES + r
        unit_w = [1.0] * (n_unit - 1)
        unit = self._chain(n_unit, unit_w)
        ops = [
            self._pair_op("unit_chain", unit, unit_w, *self._near_pair(rng, n_unit), unit=True)
            for _ in range(self.UNIT_PAIRS)
        ]
        ops.append(
            self._pair_op(
                "far_pair", unit, unit_w, *self.FAR_PAIR, unit=True,
                timed=False, known_fault=OverflowError,
            )
        )
        n = self.WEIGHTED_SITES
        weights = rng.uniform(0.5, 1.5, n - 1).tolist()
        chain = self._chain(n, weights)
        ops += [
            self._pair_op("weighted_chain", chain, weights, *self._near_pair(rng, n), unit=False)
            for _ in range(self.WEIGHTED_PAIRS)
        ]
        return ops


# -- all-to-all -----------------------------------------------------------------

def _connected(n: int, factors) -> bool:
    seen, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for f in factors:
            if v in f:
                for u in f:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
    return len(seen) == n


def _shape(n: int, m: int, q: int, shape_seed: int) -> list[tuple[int, ...]]:
    """A connected q-local graph on n nodes with m factors, fixed by shape_seed."""
    rng = np.random.default_rng([n, m, q, shape_seed])
    while True:
        factors: set[tuple[int, ...]] = set()
        if q == 2:
            order = rng.permutation(n)
            for k in range(1, n):
                a, b = int(order[k]), int(order[rng.integers(0, k)])
                factors.add((min(a, b), max(a, b)))
        pool = [c for c in itertools.combinations(range(n), q) if c not in factors]
        for k in rng.permutation(len(pool)):
            if len(factors) == m:
                break
            factors.add(pool[k])
        out = sorted(factors)
        if _connected(n, out):
            return out


class AllToAll:
    """Bound curves on small dense graphs, one graph per op, full enumeration.

    Each round runs the same fixed shapes (nodes, factors, locality, shape
    seed); node 0 and node n-1 of a shape are the pair.  The workload seed
    relabels the nodes and, for every other op, draws the weights, so the
    enumeration work is the same for every seed while no two ops share a
    graph.
    """

    TAG = 2
    # (nodes, factors, locality, shape seed).  An op takes about 3-15 ms on
    # the first five shapes, 45 ms on the next (four times), 60-140 ms on
    # the next three and 400 ms on the last (twice).  With the chain pairs
    # (60 ms unit, 250 ms weighted) that puts the median op of the bounds
    # workload among the unit-chain pairs and its tail op among the last
    # shape's ops.
    SHAPES = (
        (6, 12, 3, 1), (6, 14, 3, 1), (6, 12, 2, 0), (8, 13, 2, 3), (6, 14, 2, 0),
        (7, 14, 2, 3), (7, 14, 2, 3), (7, 14, 2, 3), (7, 14, 2, 3),
        (7, 16, 2, 3), (7, 16, 2, 2), (7, 17, 2, 0),
        (7, 17, 2, 2), (7, 17, 2, 2),
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.shapes = [(n, _shape(n, m, q, s)) for n, m, q, s in self.SHAPES]
        self.seen: set = set()

    def _op(self, n, factors, weights, i, j) -> Op:
        g = lc.as_weighted(lc.build_graph(n, factors), weights)

        def run():
            curves = bound_curves(g, i, j, None)
            return curves, len(lc.enumerate_irreducible_paths(g, i, j))

        return Op(
            kind=f"graph_{n}_{len(factors)}_{len(factors[0])}local",
            run=run,
            check=lambda out: refs.check_graph_curves(out[0], out[1], n, factors, weights, i, j, BOUND_TIMES),
        )

    def warm_up_ops(self) -> list[Op]:
        return [self._op(4, [(0, 1), (0, 2), (1, 2), (2, 3)], [0.7, 1.1, 0.9, 1.3], 0, 3)]

    def round_ops(self, r: int) -> list[Op]:
        rng = _rng(self.TAG, self.seed, r)
        ops = []
        for k, (n, shape) in enumerate(self.shapes):
            unit = k % 2 == 0
            while True:
                perm = rng.permutation(n)
                factors = sorted(tuple(sorted(int(perm[v]) for v in f)) for f in shape)
                key = (tuple(factors), int(perm[0]), int(perm[n - 1]))
                if not unit or key not in self.seen:
                    break
            self.seen.add(key)
            weights = [1.0] * len(factors) if unit else rng.uniform(0.5, 1.5, len(factors)).tolist()
            ops.append(self._op(n, factors, weights, int(perm[0]), int(perm[n - 1])))
        return ops


# -- exact ----------------------------------------------------------------------

def _random_2local(rng, n: int, k: int):
    """Connected random 2-local qubit Hamiltonian with k terms."""
    order = rng.permutation(n)
    pairs = {tuple(sorted((int(order[a]), int(order[rng.integers(0, a)])))) for a in range(1, n)}
    pool = [p for p in itertools.combinations(range(n), 2) if p not in pairs]
    for idx in rng.permutation(len(pool))[: k - len(pairs)]:
        pairs.add(pool[idx])
    terms = []
    for a, b in sorted(pairs):
        labels = "".join(rng.choice(list("XYZ"), size=2))
        terms.append(lc.spin_term(n, (a, b), labels, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))))
    return terms


def _xxz_chain(rng, n: int):
    """Chain with XX and ZZ bonds and Z fields.

    The coupling magnitudes are fixed per length; the seed draws the sign of
    each XX bond.  Conjugating by Z on a set of sites flips exactly those
    signs and fixes Z_0, so every seed takes the same Lanczos steps (the
    step count swings by 1.5x between random couplings).
    """
    fixed = np.random.default_rng([n, 7])
    xx, zz, field = fixed.uniform(0.5, 1.5, n - 1), fixed.uniform(0.5, 1.5, n - 1), fixed.uniform(0.5, 1.5, n)
    signs = rng.choice([-1.0, 1.0], size=n - 1)
    terms = []
    for a in range(n - 1):
        terms.append(lc.spin_term(n, (a, a + 1), "XX", float(signs[a] * xx[a]), flavor=0))
        terms.append(lc.spin_term(n, (a, a + 1), "ZZ", float(zz[a]), flavor=1))
    for a in range(n):
        terms.append(lc.spin_term(n, (a,), "Z", float(field[a])))
    return terms


def _exact_check(terms, n, i, j, times, values, what):
    weights = {t.factor: abs(t.coupling) for t in terms}
    g = lc.as_weighted(lc.build_graph(n, list(weights)), weights)
    bounds = [lc.theorem3_bound(g, i, j, t) for t in times]
    ref = refs.c_ij_hilbert([(t.string.labels, t.coupling) for t in terms], n, i, j, times)
    refs.check_exact_curve(values, ref, bounds, what)


def _triangle_entries(jsq: float):
    factors = [lc.Factor(nodes=(0, 1)), lc.Factor(nodes=(1, 2)), lc.Factor(nodes=(0, 2))]
    return [
        lc.EnsembleEntry(
            factor=f,
            string=lc.PauliString(labels=tuple(1 if s in f.nodes else 0 for s in range(3))),
            jsq=jsq,
        )
        for f in factors
    ]


class Exact:
    """Exact C_ij curves: dense, Krylov and Monte Carlo.

    Per round: dense C_ij and hatC_ij on random 2-local Hamiltonians of 5
    and 6 qubits, dense C_ij on three of 7 qubits; Krylov C_ij on a 4-qubit
    and a 5-qubit XXZ chain; mc_expect_c2 over SYK with 8 (five times), 10
    and 12 (twice) modes and over the 3-qubit triangle Pauli ensemble.
    """

    TAG = 3
    DENSE = ((5, 7, True), (6, 9, True), (7, 10, False), (7, 10, False), (7, 10, False))
    KRYLOV = ((4, KRYLOV_TIMES), (5, (0.5,)))
    # five SYK-8 ops hold the median op of exact_causal and two SYK-12 ops
    # of 5 samples its tail; SYK timings drift least with the machine's
    # speed (Krylov ops drift about twice as much)
    SYK = ((8, 16),) * 5 + ((10, 4), (12, 5), (12, 5))
    PAULI_SAMPLES = 200

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _dense_op(self, terms, n, with_hatc) -> Op:
        i, j = 0, n - 1
        a_i = lc.single_site_pauli(n, i, "Z")

        def run():
            c = lc.c_ij_exact(terms, i, j, a_i, EXACT_TIMES).values
            hc = lc.hatc_ij_exact(terms, i, j, a_i, EXACT_TIMES).values if with_hatc else None
            return c, hc

        def check(out):
            what = f"dense {n} qubits"
            _exact_check(terms, n, i, j, EXACT_TIMES, out[0], what)
            if with_hatc:
                refs.check_sandwich(out[0], out[1], what)

        return Op(kind=f"dense_{n}" + ("_hatc" if with_hatc else ""), run=run, check=check)

    def _krylov_op(self, terms, n, times) -> Op:
        i, j = 0, n - 1
        a_i = lc.single_site_pauli(n, i, "Z")
        return Op(
            kind=f"krylov_{n}",
            run=lambda: lc.c_ij_exact(terms, i, j, a_i, times, method="krylov").values,
            check=lambda out: _exact_check(terms, n, i, j, times, out, f"krylov {n} qubits"),
        )

    def _syk_op(self, n_modes, samples, seed) -> Op:
        spec = lc.syk_spec(n_modes, 4, 1.0, seed=seed)

        def check(mc):
            bounds = [lc.theoremFS_series(n_modes, 4, 1.0, t, n_modes - 1).value for t in SYK_TIMES]
            refs.check_mc(mc.mean, mc.stderr, bounds, f"SYK-{n_modes}")

        return Op(
            kind=f"mc_syk_{n_modes}",
            run=lambda: lc.mc_expect_c2(spec, 1, n_modes, SYK_TIMES, samples),
            check=check,
        )

    def _pauli_mc_op(self, seed) -> Op:
        spec = lc.ensemble_spec("pauli", 3, _triangle_entries(0.09), seed=seed)

        def check(mc):
            wg = lc.ensemble_graph(spec)
            bounds = [lc.theorem4_bound_bruteforce(wg, 0, 2, t).value for t in PAULI_MC_TIMES]
            refs.check_mc(mc.mean, mc.stderr, bounds, "Pauli triangle")

        return Op(
            kind="mc_pauli_3",
            run=lambda: lc.mc_expect_c2(spec, 0, 2, PAULI_MC_TIMES, self.PAULI_SAMPLES),
            check=check,
        )

    def warm_up_ops(self) -> list[Op]:
        rng = np.random.default_rng([self.TAG, 2**40])
        return [
            self._dense_op(_random_2local(rng, 3, 3), 3, True),
            self._krylov_op(_xxz_chain(rng, 3), 3, (0.5,)),
            self._syk_op(4, 1, 2**40),
        ]

    def round_ops(self, r: int) -> list[Op]:
        rng = _rng(self.TAG, self.seed, r)
        ops = [self._dense_op(_random_2local(rng, n, k), n, hatc) for n, k, hatc in self.DENSE]
        ops += [self._krylov_op(_xxz_chain(rng, n), n, times) for n, times in self.KRYLOV]
        ops += [self._syk_op(n, s, _program_seed(rng)) for n, s in self.SYK]
        ops.append(self._pauli_mc_op(_program_seed(rng)))
        return ops


# -- causal -----------------------------------------------------------------------

class Causal:
    """Causal-structure verdicts.

    Per round: four blocks of 40 random irreducible pairs on up to 8 nodes
    through causal_graph_props (criterion c08's traffic), one block of 20
    pairs on up to 6 nodes through count_orderings, and
    theorem4_bound_bruteforce curves on the weighted triangle, on a fixed
    4-factor graph and twice on a fixed 5-factor graph, with relabelled
    nodes and random weights.  The nbl table is built and checked once,
    during set-up.
    """

    TAG = 4
    PROPS_BLOCKS = 4
    PROPS_BLOCK = 40
    ORDERINGS_BLOCK = 20
    # (nodes, factors); the pair is node 0 and node n-1
    THEOREM4_SHAPES = (
        (4, ((0, 1), (1, 2), (2, 3), (0, 2))),
        (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 2))),
        (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 2))),
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _props_op(self, seeds) -> Op:
        def run():
            out = []
            for s in seeds:
                pair, g = lc.random_irreducible_pair(8, s)
                out.append((g.n_nodes, lc.causal_graph_props(pair, g)))
            return out

        def check(out):
            for s, (n_nodes, props) in zip(seeds, out):
                refs.check_props(props, n_nodes, f"pair seed {s}")

        return Op(kind="props_block", run=run, check=check)

    def _orderings_op(self, seeds) -> Op:
        def run():
            out = []
            for s in seeds:
                pair, g = lc.random_irreducible_pair(6, s)
                out.append((len(pair.factors), lc.count_orderings(pair, g)))
            return out

        def check(out):
            for s, (n_factors, counts) in zip(seeds, out):
                refs.check_orderings(counts, n_factors, f"pair seed {s}")

        return Op(kind="orderings_block", run=run, check=check)

    def _theorem4_op(self, kind, n, factors, weights, i, j, triangle_scale=None) -> Op:
        wg = lc.as_weighted(lc.build_graph(n, factors), weights)
        pair_weights = [w for f, w in zip(factors, weights) if i in f and j in f]

        def run():
            return [lc.theorem4_bound_bruteforce(wg, i, j, t).value for t in CAUSAL_TIMES]

        def check(values):
            coeffs = lc.theorem4_coefficients(wg, i, j, min(len(factors), 6))
            refs.check_theorem4(values, coeffs, pair_weights, CAUSAL_TIMES, kind, triangle_scale)

        return Op(kind=kind, run=run, check=check)

    def warm_up_ops(self) -> list[Op]:
        rng = np.random.default_rng([self.TAG, 2**40])
        return [
            Op(kind="nbl_table", run=nbl_table, check=refs.check_nbl_table),
            self._props_op([_program_seed(rng)]),
            self._orderings_op([_program_seed(rng)]),
            self._theorem4_op("warm", 3, [(0, 1), (1, 2)], [0.3, 0.4], 0, 2),
        ]

    def round_ops(self, r: int) -> list[Op]:
        rng = _rng(self.TAG, self.seed, r)
        ops = [
            self._props_op([_program_seed(rng) for _ in range(self.PROPS_BLOCK)])
            for _ in range(self.PROPS_BLOCKS)
        ]
        ops.append(self._orderings_op([_program_seed(rng) for _ in range(self.ORDERINGS_BLOCK)]))
        scale = float(rng.uniform(0.5, 2.0))
        w = math.sqrt(0.09 * scale)
        ops.append(
            self._theorem4_op("theorem4_triangle", 3, [(0, 1), (0, 2), (1, 2)], [w, w, w], 0, 2, scale)
        )
        for n, shape in self.THEOREM4_SHAPES:
            perm = rng.permutation(n)
            factors = sorted(tuple(sorted(int(perm[v]) for v in f)) for f in shape)
            weights = rng.uniform(0.2, 0.5, len(factors)).tolist()
            ops.append(
                self._theorem4_op(f"theorem4_{len(shape)}", n, factors, weights, int(perm[0]), int(perm[n - 1]))
            )
        return ops


def nbl_table() -> dict[tuple[int, int], int]:
    """nbl(b, l) for 1 <= b <= l <= 12, the range its series route covers."""
    return {(b, ell): lc.nbl(b, ell) for ell in range(1, 13) for b in range(1, ell + 1)}


class Combined:
    """A workload whose rounds are the rounds of its parts, one after another."""

    def __init__(self, seed: int, parts) -> None:
        self.parts = [part(seed) for part in parts]

    def warm_up_ops(self) -> list[Op]:
        return [op for part in self.parts for op in part.warm_up_ops()]

    def round_ops(self, r: int) -> list[Op]:
        return [op for part in self.parts for op in part.round_ops(r)]


WORKLOADS = {
    "bounds": lambda seed: Combined(seed, (Lattice, AllToAll)),
    "exact_causal": lambda seed: Combined(seed, (Exact, Causal)),
}
