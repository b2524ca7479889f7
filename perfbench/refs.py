"""Reference values computed apart from lightcone, and the checks that use them.

Nothing here calls a lightcone bound or simulator: each reference is built
from the raw inputs (chain weights, edge lists, Pauli labels) with numpy and
scipy, so a check fails when the program's output is wrong, not when two
copies of the same code agree.  Each check raises ``CheckFailed``.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.special
from scipy.sparse.linalg import expm_multiply


class CheckFailed(Exception):
    """An output disagreed with its reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(value: float, ref: float, rel: float, what: str, abs_tol: float = 0.0) -> None:
    require(
        abs(value - ref) <= rel * abs(ref) + abs_tol,
        f"{what}: {value!r} vs reference {ref!r}",
    )


def ordered(thm3: float, cor6: float, lr: float, what: str) -> None:
    """Theorem 3 <= Corollary 6 <= Lieb-Robinson, up to the last ulps."""
    require(thm3 <= cor6 * (1.0 + 1e-12), f"{what}: thm3 {thm3!r} > cor6 {cor6!r}")
    require(cor6 <= lr * (1.0 + 1e-12), f"{what}: cor6 {cor6!r} > lr {lr!r}")


# -- chains -----------------------------------------------------------------

def chain_single_path(weights, i: int, j: int, t: float) -> float:
    """(2t)^d / d! times the weights of the one path from i to j.

    Formed as a running product of (2t w_k / k), which stays in range for
    any d where the result itself does.
    """
    lo, hi = min(i, j), max(i, j)
    value = 1.0
    for k, w in enumerate(weights[lo:hi], start=1):
        value *= 2.0 * abs(t) * float(w) / k
    return value


def unit_chain_images(n: int, i: int, j: int, t: float) -> float:
    """(e^{2|t| h})_ij on an n-site unit chain by the method of images.

    With 1-based a, b the entry is sum_m I_{|a-b+2m(n+1)|}(4t) -
    I_{a+b+2m(n+1)}(4t); |m| <= 2 covers every term above the float range
    for the chains used here.
    """
    a, b = i + 1, j + 1
    x = 4.0 * abs(t)
    total = 0.0
    for m in range(-2, 3):
        shift = 2 * m * (n + 1)
        total += scipy.special.iv(abs(a - b + shift), x) - scipy.special.iv(abs(a + b + shift), x)
    return float(total)


def chain_expm_row(weights, i: int, t: float) -> np.ndarray:
    """Row i of e^{2|t| h} for a weighted chain, by scipy's expm action."""
    w = np.asarray(weights, dtype=float)
    h = scipy.sparse.diags([w, w], [1, -1], format="csr")
    e = np.zeros(len(w) + 1)
    e[i] = 1.0
    return expm_multiply(2.0 * abs(t) * h, e)


def check_chain_curves(out, weights, i: int, j: int, times, unit: bool) -> None:
    """Lattice op: the three bound curves for one pair of a chain."""
    thm3, cor6, lr = out
    n = len(weights) + 1
    for k, t in enumerate(times):
        what = f"chain n={n} ({i},{j}) t={t}"
        close(thm3[k], chain_single_path(weights, i, j, t), 1e-12, what + " thm3")
        if unit:
            close(cor6[k], unit_chain_images(n, i, j, t), 1e-12, what + " cor6 images")
        row = chain_expm_row(weights, i, t)
        close(cor6[k], row[j], 0.0, what + " cor6 expm", abs_tol=1e-9 * float(row.max()))
        ordered(thm3[k], cor6[k], lr[k], what)


# -- small graphs -------------------------------------------------------------

def simple_path_terms(n: int, edges, weights, i: int, j: int) -> list[tuple[int, float]]:
    """(length, weight product) of every simple path from i to j.

    On a 2-local graph without repeated edges these are exactly the
    irreducible factor paths: the connectors of a path are its interior
    nodes, and they are distinct exactly when the path is simple.
    """
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (a, b), w in zip(edges, weights):
        adj[a].append((b, w))
        adj[b].append((a, w))
    out: list[tuple[int, float]] = []
    seen = [False] * n

    def walk(v: int, length: int, weight: float) -> None:
        if v == j:
            out.append((length, weight))
            return
        seen[v] = True
        for u, w in adj[v]:
            if not seen[u]:
                walk(u, length + 1, weight * w)
        seen[v] = False

    walk(i, 0, 1.0)
    return out


def path_sum(terms, t: float) -> float:
    at = 2.0 * abs(t)
    return math.fsum(at**length / math.factorial(length) * w for length, w in terms)


def h_dense(n: int, factors, weights) -> np.ndarray:
    """h_ab = sum of the weights of the factors holding both a and b."""
    h = np.zeros((n, n))
    for nodes, w in zip(factors, weights):
        for a, b in combinations(nodes, 2):
            h[a, b] += w
            h[b, a] += w
    return h


def check_graph_curves(out, n_paths: int, n, factors, weights, i, j, times) -> None:
    """All-to-all op: path count and curves of one graph."""
    thm3, cor6, lr = out
    two_local = all(len(f) == 2 for f in factors)
    terms = simple_path_terms(n, factors, weights, i, j) if two_local else None
    if two_local:
        require(n_paths == len(terms), f"{n_paths} irreducible paths, {len(terms)} simple paths")
    h = h_dense(n, factors, weights)
    for k, t in enumerate(times):
        what = f"graph n={n} |F|={len(factors)} ({i},{j}) t={t}"
        if two_local:
            close(thm3[k], path_sum(terms, t), 1e-12, what + " thm3")
        row = scipy.linalg.expm(2.0 * abs(t) * h)[i]
        close(cor6[k], row[j], 0.0, what + " cor6 expm", abs_tol=1e-9 * float(row.max()))
        ordered(thm3[k], cor6[k], lr[k], what)


# -- qubit Hamiltonians -------------------------------------------------------

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli_matrix(labels) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for a in labels:
        out = np.kron(out, _PAULI[a])
    return out


def c_ij_hilbert(terms, n: int, i: int, j: int, times) -> list[float]:
    """C_ij(t) for A_i = Z_i, from e^{iHt} A e^{-iHt} in Hilbert space.

    The evolved operator minus its depolarisation at site j,
    A - (I_j/2) (x) Tr_j A, is the part acting non-trivially on j; C is its
    normalised Frobenius norm.  ``terms`` is a list of (labels, coupling).
    """
    dim = 2**n
    hmat = np.zeros((dim, dim), dtype=complex)
    for labels, coupling in terms:
        hmat += coupling * pauli_matrix(labels)
    vals, vecs = np.linalg.eigh(hmat)
    a = pauli_matrix([3 if k == i else 0 for k in range(n)])
    a_eig = vecs.conj().T @ a @ vecs
    shape = [1] * (2 * n)
    shape[j] = shape[n + j] = 2
    delta = np.eye(2).reshape(shape)
    out = []
    for t in times:
        phase = np.exp(1j * vals * t)
        at = (vecs * phase) @ a_eig @ (vecs * phase).conj().T
        tensor = at.reshape([2] * (2 * n))
        traced = np.trace(tensor, axis1=j, axis2=n + j)
        dep = 0.5 * np.expand_dims(np.expand_dims(traced, j), n + j) * delta
        rest = tensor - dep
        out.append(float(np.sqrt(np.sum(np.abs(rest) ** 2) / dim)))
    return out


def check_exact_curve(values, ref, bounds, what: str) -> None:
    """C within 1e-8 of the Hilbert-space reference, in [0, 1], under thm3."""
    for k, (v, r, b) in enumerate(zip(values, ref, bounds)):
        close(v, r, 0.0, f"{what} point {k} C vs Hilbert space", abs_tol=1e-8)
        require(0.0 <= v <= 1.0, f"{what} point {k}: C = {v!r} outside [0, 1]")
        require(v <= b + 1e-8, f"{what} point {k}: C = {v!r} above theorem 3 bound {b!r}")


def check_sandwich(c_values, hatc_values, what: str) -> None:
    """Criterion c03: hatC / sqrt(3) <= C <= sqrt(3/2) hatC."""
    for k, (cv, hv) in enumerate(zip(c_values, hatc_values)):
        require(
            hv / math.sqrt(3.0) <= cv + 1e-12 and cv <= math.sqrt(1.5) * hv + 1e-8,
            f"{what} point {k}: C = {cv!r}, hatC = {hv!r} break the sandwich",
        )


def check_mc(mean, stderr, bounds, what: str) -> None:
    """Monte Carlo mean of C^2 in [0, 1] and under its bound plus 3 sigma."""
    for k, (m, s, b) in enumerate(zip(mean, stderr, bounds)):
        require(0.0 <= m <= 1.0, f"{what} point {k}: mean {m!r} outside [0, 1]")
        require(m <= b + 3.0 * s, f"{what} point {k}: mean {m!r} above bound {b!r} + 3 x {s!r}")


# -- causal structure ---------------------------------------------------------

def eulerian(b: int, ell: int) -> int:
    """sum_{k<b} (-1)^k C(l+1, k) (b-k)^l, the Eulerian number A(l, b-1)."""
    return sum((-1) ** k * math.comb(ell + 1, k) * (b - k) ** ell for k in range(b))


def check_nbl_table(table) -> None:
    for (b, ell), value in table.items():
        require(value == eulerian(b, ell), f"nbl({b}, {ell}) = {value}, Eulerian sum {eulerian(b, ell)}")


def check_props(props, n_nodes: int, what: str) -> None:
    """Propositions 13-15 hold, re-derived from the returned union graph."""
    edges = props.edges
    nodes = {v for v, _ in edges}
    factors = {f for _, f in edges}
    genus = len(edges) + 1 - len(nodes) - len(factors)
    degree: dict = {}
    for v, f in edges:
        degree[("n", v)] = degree.get(("n", v), 0) + 1
        degree[("f", f)] = degree.get(("f", f), 0) + 1
    branching = sum(1 for d in degree.values() if d > 2)
    require(props.prop13 and props.prop14 and props.prop15, f"{what}: verdicts {props!r}")
    require(genus == props.genus, f"{what}: genus {props.genus} but union gives {genus}")
    require(0 <= genus <= n_nodes - 1, f"{what}: genus {genus} outside 0..{n_nodes - 1}")
    require(branching <= 2 * genus, f"{what}: {branching} branch vertices > 2 x genus {genus}")
    require(genus < 1 or len(factors) >= genus + 1, f"{what}: {len(factors)} factors, genus {genus}")


def check_orderings(counts, n_factors: int, what: str) -> None:
    """Ordering census of an irreducible pair: nonempty and packed."""
    cap = math.comb(2 * n_factors, n_factors) * counts.n_left * counts.n_right
    require(counts.n_left >= 1 and counts.n_right >= 1, f"{what}: empty tree orderings {counts!r}")
    require(1 <= counts.n_psi <= cap, f"{what}: {counts.n_psi} orderings outside 1..{cap}")


def check_theorem4(values, coeffs, pair_weights, times, what: str, triangle_scale=None) -> None:
    """Double-word series: c_2 = 4 sum w_X^2 over factors holding i and j.

    ``pair_weights`` are the weights of those factors.  On the triangle with
    every variance 0.09 s, the hand expansion of criterion c09 also fixes
    c_4 = 0.0324 s^2.
    """
    close(coeffs.get(2, 0.0), 4.0 * math.fsum(w * w for w in pair_weights), 1e-12, what + " c2")
    if triangle_scale is not None:
        close(coeffs.get(2, 0.0), 0.36 * triangle_scale, 1e-12, what + " triangle c2")
        close(coeffs.get(4, 0.0), 0.0324 * triangle_scale**2, 1e-12, what + " triangle c4")
    for k, (t, v) in enumerate(zip(times, values)):
        floor = math.fsum(c * t**p for p, c in coeffs.items() if p <= 4)
        require(v >= floor * (1.0 - 1e-12), f"{what} t={t}: value {v!r} below its first shells {floor!r}")
        require(k == 0 or v >= values[k - 1], f"{what}: series not increasing in t")
