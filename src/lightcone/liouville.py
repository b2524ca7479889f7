"""Operator vectors and Heisenberg evolution in string space.

Operators are sparse real-coefficient vectors over an orthonormal string
basis: Pauli strings for qubits, or Hermitized Majorana subsets
i^(m(m-1)/2) psi_{i1}..psi_{im} keyed by the ascending index tuple.  The
Liouvillian L|O) = |i[H,O]) is real and antisymmetric, so e^(Lt) is a
rotation of coefficient space.

Two evolution paths.  The dense path works in Hilbert space (2^n, cheap
next to 4^n): with H = V diag(lam) V^dag it forms B = V^dag A V once and
A(t) = W B W^dag, W = V diag(e^(i lam t)), two matmuls per time point.
``evolve_operator`` then re-expands A(t) into strings; ``c_ij_exact`` and
``hatc_ij_exact`` read their norms off A(t) directly and never expand.
Dense matrices of strings and Hamiltonians are built from Pauli bitmasks
in one scatter (see ``pauli.pauli_sum_dense``).  The Krylov path runs a
Lanczos recurrence directly on the antisymmetric Liouvillian in string
space.  Coefficients below 1e-15 are pruned with the discarded weight
accumulated per vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    BasisMismatch,
    ComputeError,
    InvalidParams,
    KrylovNotConverged,
    OddQ,
    TooLarge,
)
from .factor_graph import Factor
from .majorana import (
    MajoranaString,
    majorana_basis_to_pauli,
    majorana_product,
    n_qubits_for,
)
from .pauli import PauliString, commutator_term, dense_to_pauli_tensor, pauli_sum_dense

__all__ = [
    "PRUNE_THRESHOLD",
    "OperatorVector",
    "operator_vector",
    "single_site_pauli",
    "majorana_mode",
    "norm",
    "inner",
    "pauli_commutator",
    "HamiltonianTerm",
    "spin_term",
    "liouvillian_apply",
    "evolve_operator",
    "build_syk_hamiltonian",
    "syk_variance",
]

PRUNE_THRESHOLD = 1e-15

_DENSE_QUBIT_CAP = 10
_DENSE_MAJORANA_CAP = 16


@dataclass
class OperatorVector:
    """Sparse string-basis vector; treat instances as immutable snapshots.

    ``terms`` maps PauliString -> float (pauli kind) or ascending index
    tuple -> float (majorana kind).  ``prune_error`` accumulates the l2
    weight discarded by thresholding across the operations that built it.
    """

    kind: str
    n: int
    terms: dict = field(default_factory=dict)
    prune_error: float = 0.0

    def copy(self) -> "OperatorVector":
        return OperatorVector(
            kind=self.kind, n=self.n, terms=dict(self.terms),
            prune_error=self.prune_error,
        )


def operator_vector(
    kind: str, n: int, terms: Mapping, prune_error: float = 0.0
) -> OperatorVector:
    if kind not in ("pauli", "majorana"):
        raise InvalidParams(f"unknown basis kind {kind!r}")
    kept: dict = {}
    dropped_sq = 0.0
    for key, c in terms.items():
        c = float(c)
        if abs(c) > PRUNE_THRESHOLD:
            kept[key] = kept.get(key, 0.0) + c
        else:
            dropped_sq += c * c
    return OperatorVector(
        kind=kind, n=n, terms=kept,
        prune_error=prune_error + math.sqrt(dropped_sq),
    )


def single_site_pauli(n: int, site: int, label: str | int) -> OperatorVector:
    return OperatorVector(
        kind="pauli", n=n, terms={PauliString.single(n, site, label): 1.0}
    )


def majorana_mode(n_majorana: int, k: int) -> OperatorVector:
    if not 1 <= k <= n_majorana:
        raise InvalidParams(f"mode {k} outside 1..{n_majorana}")
    return OperatorVector(kind="majorana", n=n_majorana, terms={(k,): 1.0})


def _check_same(a: OperatorVector, b: OperatorVector) -> None:
    if a.kind != b.kind or a.n != b.n:
        raise BasisMismatch(
            f"basis ({a.kind}, n={a.n}) vs ({b.kind}, n={b.n})"
        )


def norm(o: OperatorVector) -> float:
    return math.sqrt(sum(c * c for c in o.terms.values()))


def inner(a: OperatorVector, b: OperatorVector) -> float:
    _check_same(a, b)
    small, large = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
    return sum(c * large.terms.get(k, 0.0) for k, c in small.terms.items())


def _string_comm(kind: str, n: int, s1, s2):
    """i[basis(s1), basis(s2)] = coeff * basis(s_out), or None."""
    if kind == "pauli":
        return commutator_term(s1, s2)
    m1, m2 = len(s1), len(s2)
    shared = len(set(s1) & set(s2))
    if (m1 * m2 - shared) % 2 == 0:
        return None
    raw = majorana_product(
        MajoranaString(n_majorana=n, indices=s1),
        MajoranaString(n_majorana=n, indices=s2),
    )
    mu = len(raw.indices)
    e = (m1 * (m1 - 1) // 2 + m2 * (m2 - 1) // 2 - mu * (mu - 1) // 2) % 4
    # anticommuting Hermitian elements: the product phase is odd, the
    # commutator coefficient 2 i^(e+1) is real
    if e % 2 != 1:
        raise ComputeError("anticommuting basis elements gave an even phase")
    coeff = 2.0 * raw.sign * (1.0 if (e + 1) % 4 == 0 else -1.0)
    return coeff, raw.indices


def pauli_commutator(a: OperatorVector, b: OperatorVector) -> OperatorVector:
    """i[a, b] in the shared string basis (either kind)."""
    _check_same(a, b)
    out: dict = {}
    for s1, c1 in a.terms.items():
        for s2, c2 in b.terms.items():
            hit = _string_comm(a.kind, a.n, s1, s2)
            if hit is None:
                continue
            coeff, s = hit
            out[s] = out.get(s, 0.0) + c1 * c2 * coeff
    return operator_vector(
        a.kind, a.n, out, prune_error=a.prune_error + b.prune_error
    )


@dataclass(frozen=True)
class HamiltonianTerm:
    """One bounded interaction: coupling times a unit-norm basis string."""

    factor: Factor | None
    string: PauliString | tuple[int, ...]
    coupling: float


def spin_term(
    n: int,
    sites: Sequence[int],
    labels: str,
    coupling: float,
    flavor: int = 0,
) -> HamiltonianTerm:
    """Pauli interaction, e.g. sites (2,3) with labels "XX"."""
    if len(sites) != len(labels):
        raise InvalidParams("one label per site required")
    ls = [0] * n
    for site, ch in zip(sites, labels):
        ls[site] = "IXYZ".index(ch)
    return HamiltonianTerm(
        factor=Factor(nodes=tuple(sites), flavor=flavor),
        string=PauliString(labels=tuple(ls)),
        coupling=float(coupling),
    )


def _terms_kind(terms: Sequence[HamiltonianTerm]) -> str:
    if not terms:
        raise InvalidParams("empty Hamiltonian")
    return "pauli" if isinstance(terms[0].string, PauliString) else "majorana"


def liouvillian_apply(
    terms: Sequence[HamiltonianTerm], o: OperatorVector
) -> OperatorVector:
    """L|O) = sum_X i[J_X H_X, O]."""
    if _terms_kind(terms) != o.kind:
        raise BasisMismatch("Hamiltonian and operator bases differ")
    out: dict = {}
    for term in terms:
        for s, c in o.terms.items():
            hit = _string_comm(o.kind, o.n, term.string, s)
            if hit is None:
                continue
            coeff, key = hit
            out[key] = out.get(key, 0.0) + term.coupling * c * coeff
    return operator_vector(o.kind, o.n, out, prune_error=o.prune_error)


# -- dense path -------------------------------------------------------------

def _dense_matrix(kind: str, n: int, entries: Iterable[tuple]) -> np.ndarray:
    """sum c * basis(key) over (key, c) entries, as one Pauli-mask scatter."""
    labels, coeffs = [], []
    for key, c in entries:
        if kind == "pauli":
            labels.append(key.labels)
            coeffs.append(c)
        else:
            sign, p = majorana_basis_to_pauli(n, tuple(key))
            labels.append(p.labels)
            coeffs.append(sign * c)
    nq = n if kind == "pauli" else n_qubits_for(n)
    return pauli_sum_dense(nq, labels, coeffs)


@lru_cache(maxsize=8)
def _dense_eig(terms: tuple, kind: str, n: int):
    H = _dense_matrix(kind, n, ((t.string, t.coupling) for t in terms))
    vals, vecs = np.linalg.eigh(H)
    return vals, vecs


@lru_cache(maxsize=4)
def _pauli_to_majorana_map(n_majorana: int) -> dict:
    """labels tuple of the JW image -> (subset, sign), for even mode count."""
    out = {}
    for m in range(n_majorana + 1):
        for subset in combinations(range(1, n_majorana + 1), m):
            sign, p = majorana_basis_to_pauli(n_majorana, subset)
            out[p.labels] = (subset, sign)
    return out


def _dense_heisenberg(
    terms: Sequence[HamiltonianTerm], o: OperatorVector
) -> Callable[[float], np.ndarray]:
    """t -> A(t) = e^(iHt) A e^(-iHt) as a dense Hilbert-space matrix.

    With H = V diag(lam) V^dag, B = V^dag A V is formed once and each time
    point costs two matmuls: A(t) = W B W^dag with W = V diag(e^(i lam t)).
    Raises the dense path's size and basis errors before any work, and
    ``ComputeError`` when A(t) has an anti-Hermitian part, i.e. when its
    string coefficients would leave the real span.
    """
    if _terms_kind(terms) != o.kind:
        raise BasisMismatch("Hamiltonian and operator bases differ")
    kind, n = o.kind, o.n
    if kind == "pauli" and n > _DENSE_QUBIT_CAP:
        raise TooLarge(f"dense path capped at {_DENSE_QUBIT_CAP} qubits")
    if kind == "majorana":
        if n > _DENSE_MAJORANA_CAP:
            raise TooLarge(f"dense path capped at {_DENSE_MAJORANA_CAP} modes")
        if n % 2 != 0:
            raise InvalidParams("dense path needs an even mode count")
    vals, vecs = _dense_eig(tuple(terms), kind, n)
    B = vecs.conj().T @ _dense_matrix(kind, n, o.terms.items()) @ vecs
    root_dim = math.sqrt(vecs.shape[0])

    def at(t: float) -> np.ndarray:
        W = vecs * np.exp(1j * vals * t)
        At = (W @ B) @ W.conj().T
        # l2 norm of the imaginary parts of A(t)'s string coefficients
        leak = float(np.linalg.norm(At - At.conj().T)) / (2.0 * root_dim)
        if not leak < 1e-9:
            raise ComputeError(
                f"evolved operator left the real span (imaginary weight {leak:.2e})"
            )
        return At

    return at


def _dense_to_vector(At: np.ndarray, o: OperatorVector) -> OperatorVector:
    """Expand a dense A(t) evolved from ``o`` back into ``o``'s string basis."""
    kind, n = o.kind, o.n
    coeffs = dense_to_pauli_tensor(At).real
    total_sq = float(np.sum(coeffs * coeffs))
    kept: dict = {}
    kept_sq = 0.0
    if kind == "pauli":
        for idx in np.argwhere(np.abs(coeffs) > PRUNE_THRESHOLD):
            c = float(coeffs[tuple(idx)])
            kept[PauliString(labels=tuple(int(x) for x in idx))] = c
            kept_sq += c * c
    else:
        lookup = _pauli_to_majorana_map(n)
        for idx in np.argwhere(np.abs(coeffs) > PRUNE_THRESHOLD):
            c = float(coeffs[tuple(idx)])
            subset, sign = lookup[tuple(int(x) for x in idx)]
            kept[subset] = sign * c
            kept_sq += c * c
    dropped = math.sqrt(max(total_sq - kept_sq, 0.0))
    return OperatorVector(
        kind=kind, n=n, terms=kept, prune_error=o.prune_error + dropped
    )


# -- Krylov path ------------------------------------------------------------

def _axpy(dst: dict, c: float, src: dict) -> None:
    for k, v in src.items():
        dst[k] = dst.get(k, 0.0) + c * v


def _krylov_evolve(
    terms: tuple,
    o: OperatorVector,
    t: float,
    tol: float,
    max_dim: int,
) -> OperatorVector:
    norm0 = norm(o)
    if norm0 == 0.0:
        return o.copy()
    basis: list[dict] = [{k: v / norm0 for k, v in o.terms.items()}]
    betas: list[float] = []
    y = None

    def dot(u: dict, v: dict) -> float:
        small, large = (u, v) if len(u) <= len(v) else (v, u)
        return sum(c * large.get(k, 0.0) for k, c in small.items())

    for m in range(1, max_dim + 1):
        vk = OperatorVector(kind=o.kind, n=o.n, terms=basis[-1])
        w = dict(liouvillian_apply(terms, vk).terms)
        if len(basis) >= 2:
            _axpy(w, betas[-1], basis[-2])
        # full reorthogonalization keeps the recurrence honest at tol
        for vb in basis:
            _axpy(w, -dot(w, vb), vb)
        beta = math.sqrt(sum(c * c for c in w.values()))
        # expm on the skew tridiagonal block is the pricey part at large m;
        # past m=60 only sample it every few steps
        if beta < 1e-13 or m <= 60 or m % 5 == 0 or m == max_dim:
            T = np.zeros((m, m))
            for k, b in enumerate(betas):
                T[k + 1, k] = b
                T[k, k + 1] = -b
            y = scipy.linalg.expm(t * T)[:, 0]
            if beta < 1e-13:
                break  # exact invariant subspace
            if beta * abs(y[-1]) * abs(t) < tol:
                break
            if m == max_dim:
                raise KrylovNotConverged(
                    f"no convergence in {max_dim} Lanczos steps "
                    f"(residual {beta * abs(y[-1]) * abs(t):.2e})"
                )
        betas.append(beta)
        basis.append({k: v / beta for k, v in w.items()})

    out: dict = {}
    for coeff, vb in zip(y, basis):
        _axpy(out, norm0 * float(coeff), vb)
    return operator_vector(o.kind, o.n, out, prune_error=o.prune_error)


def evolve_operator(
    terms: Sequence[HamiltonianTerm],
    o: OperatorVector,
    t: float,
    method: str = "dense",
    tol: float = 1e-10,
    max_krylov: int = 400,
) -> OperatorVector:
    """A(t) = e^(Lt) A under the Hamiltonian's Liouvillian."""
    if _terms_kind(terms) != o.kind:
        raise BasisMismatch("Hamiltonian and operator bases differ")
    terms = tuple(terms)
    if t == 0.0:
        return o.copy()
    if method == "dense":
        return _dense_to_vector(_dense_heisenberg(terms, o)(t), o)
    if method == "krylov":
        return _krylov_evolve(terms, o, t, tol, max_krylov)
    raise InvalidParams(f"unknown method {method!r}")


# -- SYK Hamiltonian --------------------------------------------------------

def syk_variance(n_majorana: int, q: int, jbar: float = 1.0) -> float:
    """Per-coupling variance (q-1)! jbar^2 / (2q N^(q-1))."""
    return math.factorial(q - 1) * jbar**2 / (2 * q * n_majorana ** (q - 1))


def build_syk_hamiltonian(
    n_majorana: int,
    q: int,
    jbar: float = 1.0,
    seed: int | None = None,
    couplings: Sequence[float] | None = None,
) -> list[HamiltonianTerm]:
    """All-to-all q-mode interactions with Gaussian couplings.

    Each ascending q-subset {i1 < ... < iq} carries i^(q/2) J psi...psi,
    which for even q is exactly J times the Hermitized basis element.
    Factors record the 0-based mode indices (mode k maps to node k-1).
    """
    if q % 2 != 0:
        raise OddQ(f"q must be even, got {q}")
    if not 2 <= q <= n_majorana:
        raise InvalidParams(f"need 2 <= q <= {n_majorana}")
    subsets = list(combinations(range(1, n_majorana + 1), q))
    if couplings is None:
        rng = np.random.default_rng(seed)
        couplings = rng.normal(
            0.0, math.sqrt(syk_variance(n_majorana, q, jbar)), size=len(subsets)
        )
    elif len(couplings) != len(subsets):
        raise InvalidParams(
            f"expected {len(subsets)} couplings, got {len(couplings)}"
        )
    return [
        HamiltonianTerm(
            factor=Factor(nodes=tuple(k - 1 for k in subset)),
            string=subset,
            coupling=float(j),
        )
        for subset, j in zip(subsets, couplings)
    ]
