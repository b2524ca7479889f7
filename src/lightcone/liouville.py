"""Operator vectors and Heisenberg evolution in string space.

Operators are sparse real-coefficient vectors over an orthonormal string
basis: Pauli strings for qubits, or Hermitized Majorana subsets
i^(m(m-1)/2) psi_{i1}..psi_{im} keyed by the ascending index tuple.  The
Liouvillian L|O) = |i[H,O]) is real and antisymmetric, so e^(Lt) is a
rotation of coefficient space.  Inside, each string is its int code (see
``pauli``; a Majorana element is its Jordan-Wigner image, sign folded into
the coefficient), so ``pauli._commutator`` serves both kinds; the kind
matters only where keys cross the API, in ``_encode`` and ``terms``.

Two evolution paths, each a closure t -> A(t) built once per time grid.
``_dense_heisenberg`` works in Hilbert space (2^n, cheap next to 4^n):
``evolve_operator`` re-expands its A(t) into strings, while ``c_ij_exact``
and ``hatc_ij_exact`` read their norms off A(t) directly.
``_krylov_heisenberg`` runs one Lanczos recurrence on the antisymmetric
Liouvillian in string space, shared by every t of the grid.  Dense matrices
are built from the codes in one scatter.  Coefficients below 1e-15 are
pruned with the discarded weight accumulated per vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    BasisMismatch,
    ComputeError,
    InvalidParams,
    KrylovNotConverged,
    OddQ,
    SizeMismatch,
    TooLarge,
)
from .factor_graph import Factor
from .majorana import _basis_code, _basis_indices, n_qubits_for
from .pauli import (
    PauliString,
    _code,
    _codes,
    _commutator,
    _placed,
    _string,
    _sum_dense,
    dense_to_pauli_tensor,
)

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
_KRYLOV_MAX_DIM = 400


def _qubits(kind: str, n: int) -> int:
    """Qubits of the code space: n, or ceil(n/2) for n Majorana modes."""
    return n if kind == "pauli" else n_qubits_for(n)


def _encode(kind: str, n: int, key) -> tuple[int, int]:
    """(code, sign) of a public basis key: basis(key) = sign * sigma(code)."""
    if kind == "pauli":
        if not isinstance(key, PauliString):
            raise BasisMismatch(f"{key!r} is not a Pauli string")
        if key.n_sites != n:
            raise SizeMismatch(f"string {key} does not fit {n} sites")
        return _code(key.labels), 1
    if not isinstance(key, tuple):
        raise BasisMismatch(f"{key!r} is not a Majorana index tuple")
    return _basis_code(n, key)


class OperatorVector:
    """Sparse string-basis vector; treat instances as immutable snapshots.

    ``codes`` maps string codes to coefficients; ``terms`` is the public view
    keyed by PauliString (pauli kind) or ascending index tuple (majorana).
    ``prune_error`` accumulates the l2 weight discarded by thresholding
    across the operations that built it.
    """

    def __init__(
        self, kind: str, n: int, terms: Mapping | None = None, prune_error: float = 0.0
    ) -> None:
        if kind not in ("pauli", "majorana"):
            raise InvalidParams(f"unknown basis kind {kind!r}")
        self.kind, self.n, self.prune_error = kind, n, prune_error
        coded = ((_encode(kind, n, key), c) for key, c in (terms or {}).items())
        self.codes: dict[int, float] = {code: sign * c for (code, sign), c in coded}

    @cached_property
    def terms(self) -> dict:
        if self.kind == "pauli":
            return {_string(code, self.n): c for code, c in self.codes.items()}
        keys = ((_basis_indices(self.n, code), c) for code, c in self.codes.items())
        return {key: sign * c for (key, sign), c in keys}

    def copy(self) -> "OperatorVector":
        return _vector(self.kind, self.n, dict(self.codes), self.prune_error)


def _vector(kind: str, n: int, codes: dict, prune_error: float = 0.0) -> OperatorVector:
    o = OperatorVector(kind, n, prune_error=prune_error)
    o.codes = codes
    return o


def _pruned(
    kind: str, n: int, codes: Mapping[int, float], prune_error: float = 0.0
) -> OperatorVector:
    kept: dict = {}
    dropped_sq = 0.0
    for code, c in codes.items():
        c = float(c)
        if abs(c) > PRUNE_THRESHOLD:
            kept[code] = c
        else:
            dropped_sq += c * c
    return _vector(kind, n, kept, prune_error + math.sqrt(dropped_sq))


def operator_vector(
    kind: str, n: int, terms: Mapping, prune_error: float = 0.0
) -> OperatorVector:
    return _pruned(kind, n, OperatorVector(kind, n, terms).codes, prune_error)


def single_site_pauli(n: int, site: int, label: str | int) -> OperatorVector:
    string = PauliString.single(n, site, label)
    return OperatorVector(kind="pauli", n=n, terms={string: 1.0})


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
    return math.sqrt(sum(c * c for c in o.codes.values()))


def _dot(u: dict, v: dict) -> float:
    small, large = (u, v) if len(u) <= len(v) else (v, u)
    return sum(c * large.get(k, 0.0) for k, c in small.items())


def inner(a: OperatorVector, b: OperatorVector) -> float:
    _check_same(a, b)
    return _dot(a.codes, b.codes)


def pauli_commutator(a: OperatorVector, b: OperatorVector) -> OperatorVector:
    """i[a, b] in the shared string basis (either kind)."""
    _check_same(a, b)
    out = _commutator(_qubits(a.kind, a.n), a.codes.items(), b.codes)
    return _pruned(a.kind, a.n, out, a.prune_error + b.prune_error)


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
    return HamiltonianTerm(
        factor=Factor(nodes=tuple(sites), flavor=flavor),
        string=_placed(n, sites, labels),
        coupling=float(coupling),
    )


def _term_codes(
    terms: Sequence[HamiltonianTerm], kind: str, n: int
) -> list[tuple[int, float]]:
    """(code, signed coupling) per term, checked against the operator's basis."""
    if not terms:
        raise InvalidParams("empty Hamiltonian")
    encoded = [_encode(kind, n, term.string) for term in terms]
    return [(code, sign * term.coupling) for (code, sign), term in zip(encoded, terms)]


def liouvillian_apply(
    terms: Sequence[HamiltonianTerm], o: OperatorVector
) -> OperatorVector:
    """L|O) = sum_X i[J_X H_X, O]."""
    out = _commutator(_qubits(o.kind, o.n), _term_codes(terms, o.kind, o.n), o.codes)
    return _pruned(o.kind, o.n, out, o.prune_error)


# -- dense path -------------------------------------------------------------

@lru_cache(maxsize=8)
def _dense_eig(nq: int, entries: tuple[tuple[int, float], ...]):
    return np.linalg.eigh(_sum_dense(nq, entries))


def _dense_heisenberg(
    entries: Sequence[tuple[int, float]], o: OperatorVector
) -> Callable[[float], np.ndarray]:
    """t -> A(t) = e^(iHt) A e^(-iHt) as a dense Hilbert-space matrix.

    With H = V diag(lam) V^dag, B = V^dag A V is formed once and each time
    point costs two matmuls: A(t) = W B W^dag with W = V diag(e^(i lam t)).
    ``entries`` come from ``_term_codes``.  Raises the dense path's size
    errors before any work, and ``ComputeError`` when A(t) has an
    anti-Hermitian part, i.e. when its string coefficients would leave the
    real span.
    """
    kind, n = o.kind, o.n
    if kind == "pauli" and n > _DENSE_QUBIT_CAP:
        raise TooLarge(f"dense path capped at {_DENSE_QUBIT_CAP} qubits")
    if kind == "majorana":
        if n > _DENSE_MAJORANA_CAP:
            raise TooLarge(f"dense path capped at {_DENSE_MAJORANA_CAP} modes")
        if n % 2 != 0:
            raise InvalidParams("dense path needs an even mode count")
    nq = _qubits(kind, n)
    vals, vecs = _dense_eig(nq, tuple(entries))
    B = vecs.conj().T @ _sum_dense(nq, o.codes.items()) @ vecs
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
    coeffs = dense_to_pauli_tensor(At).real
    total_sq = float(np.sum(coeffs * coeffs))
    labels = np.argwhere(np.abs(coeffs) > PRUNE_THRESHOLD)
    values = coeffs[tuple(labels.T)].tolist()
    kept_sq = 0.0
    for c in values:
        kept_sq += c * c
    dropped = math.sqrt(max(total_sq - kept_sq, 0.0))
    codes = _codes(labels).tolist()
    return _vector(o.kind, o.n, dict(zip(codes, values)), o.prune_error + dropped)


# -- Krylov path ------------------------------------------------------------

def _axpy(dst: dict, c: float, src: dict) -> None:
    for k, v in src.items():
        dst[k] = dst.get(k, 0.0) + c * v


def _krylov_heisenberg(
    terms: Sequence[HamiltonianTerm], o: OperatorVector, tol: float, max_dim: int
) -> Callable[[float], OperatorVector]:
    """t -> A(t) = e^(Lt) A by a Lanczos recurrence on the Liouvillian.

    The basis and the b_m do not depend on t, so all calls share one
    recurrence, extended only as far as each t needs: each t stops at the
    same step m, with the same result, as on a fresh recurrence."""
    norm0 = norm(o)
    basis: list[dict] = [{k: v / norm0 for k, v in o.codes.items()}] if norm0 else []
    betas: list[float] = []  # betas[m - 1] = b_m, the residual norm of step m

    def extend() -> None:
        w = liouvillian_apply(terms, _vector(o.kind, o.n, basis[-1])).codes
        if betas:
            _axpy(w, betas[-1], basis[-2])
        # full reorthogonalization keeps the recurrence honest at tol
        for vb in basis:
            _axpy(w, -_dot(w, vb), vb)
        betas.append(math.sqrt(sum(c * c for c in w.values())))
        if betas[-1] >= 1e-13:  # else an exact invariant subspace: every t stops
            basis.append({k: v / betas[-1] for k, v in w.items()})

    def at(t: float) -> OperatorVector:
        if norm0 == 0.0:
            return o.copy()
        for m in range(1, max_dim + 1):
            if len(betas) < m:
                extend()
            beta = betas[m - 1]
            # expm on the skew tridiagonal block is the pricey part at large m;
            # past m=60 only sample it every few steps
            if beta < 1e-13 or m <= 60 or m % 5 == 0 or m == max_dim:
                below = np.array(betas[: m - 1])
                y = scipy.linalg.expm(t * (np.diag(below, -1) - np.diag(below, 1)))[:, 0]
                residual = beta * abs(y[-1]) * abs(t)
                if beta < 1e-13 or residual < tol:
                    break  # converged, or an exact invariant subspace
                if m == max_dim:
                    raise KrylovNotConverged(
                        f"no convergence in {max_dim} Lanczos steps (residual {residual:.2e})"
                    )
        out: dict = {}
        for coeff, vb in zip(y, basis):
            _axpy(out, norm0 * float(coeff), vb)
        return _pruned(o.kind, o.n, out, o.prune_error)

    return at


def _check_method(method: str) -> None:
    if method not in ("dense", "krylov"):
        raise InvalidParams(f"unknown method {method!r}")


def evolve_operator(
    terms: Sequence[HamiltonianTerm],
    o: OperatorVector,
    t: float,
    method: str = "dense",
    tol: float = 1e-10,
    max_krylov: int = _KRYLOV_MAX_DIM,
) -> OperatorVector:
    """A(t) = e^(Lt) A under the Hamiltonian's Liouvillian."""
    _check_method(method)
    terms = tuple(terms)
    entries = _term_codes(terms, o.kind, o.n)
    if t == 0.0:
        return o.copy()
    if method == "dense":
        return _dense_to_vector(_dense_heisenberg(entries, o)(t), o)
    return _krylov_heisenberg(terms, o, tol, max_krylov)(t)


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
