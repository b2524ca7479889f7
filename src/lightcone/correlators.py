"""Exact commutator-norm correlators, read off Hilbert space.

C_ij(t) measures how much of the evolved operator A_i(t) has developed
support on site j:

    C_ij(t) = sqrt( (A_i(t)| P_j |A_i(t)) / (A_i|A_i) )

where P_j keeps Pauli strings acting non-trivially at j.  For Majorana
operators the projector keeps basis elements with a nonvanishing
anticommutator {B_S, psi_j}, which selects subsets S with
|S| - [j in S] even.  The qubit variant hatC additionally maximizes the
normalized commutator norm over the choice of single-site probe.

With ``method="dense"`` nothing is expanded into strings.  A(t) is a
D x D matrix (D = 2^n for n qubits, 2^(n/2) for n Majorana modes) from
the dense path of ``liouville``, and with |X|_F the Frobenius norm:

    Pauli     (A|P_j|A) = |A - tr_j(A)/2 (x) 1_j|_F^2 / D
    Majorana  (A|P_j|A) = |{A, psi_j}|_F^2 / (4D)
    hatC      G_ab = Re tr([A, s^a_j]^dag [A, s^b_j]) / (4D (A_i|A_i))

The Pauli weight subtracts the partial trace directly instead of taking
|A|^2 - |rest|^2, so a small C keeps its relative accuracy.  C and hatC
share one loop that builds one evolution of A_i per time grid, dense or
Krylov (see ``liouville``).  At t = 0, where A(0) = A, and on the Krylov
path the loop reads string-space vectors, so C(0) is exactly 0 off site i
and exactly 1 on it.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .curves import BoundCurve
from .errors import BadInitialOperator, BasisMismatch, ComputeError, InvalidParams
from .liouville import (
    HamiltonianTerm,
    OperatorVector,
    _KRYLOV_MAX_DIM,
    _check_method,
    _dense_heisenberg,
    _dense_to_vector,
    _krylov_heisenberg,
    _qubits,
    _term_codes,
    _vector,
    inner,
    pauli_commutator,
    single_site_pauli,
)
from .majorana import _mode_code
from .pauli import PauliString, _code, _code_actions, _dual

__all__ = [
    "projector_apply",
    "projected_weight",
    "c_ij_exact",
    "hatc_ij_exact",
]


def _check_site(kind: str, n: int, j: int) -> None:
    if kind == "pauli" and not 0 <= j < n:
        raise InvalidParams(f"site {j} outside 0..{n - 1}")
    if kind == "majorana" and not 1 <= j <= n:
        raise InvalidParams(f"mode {j} outside 1..{n}")


def _keeps(o: OperatorVector, j: int) -> Callable[[int], bool]:
    """Test on codes for the strings P_j keeps: a Pauli string acting on
    site j, or a Majorana element commuting with psi_j ({B, psi_j} != 0)."""
    _check_site(o.kind, o.n, j)
    nq = _qubits(o.kind, o.n)
    if o.kind == "pauli":
        site = _code(PauliString.single(nq, j, "Y").labels)  # Y has both bits
        return lambda code: code & site != 0
    dual = _dual(_mode_code(o.n, j), nq)
    return lambda code: (code & dual).bit_count() % 2 == 0


def projector_apply(o: OperatorVector, j: int) -> OperatorVector:
    """P_j O: the component of O acting non-trivially on site/mode j."""
    keeps = _keeps(o, j)
    kept = {k: c for k, c in o.codes.items() if keeps(k)}
    return _vector(o.kind, o.n, kept, o.prune_error)


def projected_weight(o: OperatorVector, j: int) -> float:
    """(O| P_j |O) without materializing the projected vector."""
    keeps = _keeps(o, j)
    return sum(c * c for k, c in o.codes.items() if keeps(k))


def _validate_initial(a: OperatorVector, i: int) -> None:
    if not a.terms:
        raise BadInitialOperator("initial operator is zero")
    for key in a.terms:
        if a.kind == "majorana" and key != (i,):
            raise BadInitialOperator(f"majorana initial operator must be a multiple of mode {i}")
        if a.kind == "pauli" and key.is_identity:
            raise BadInitialOperator("initial operator must be traceless")
        if a.kind == "pauli" and key.support != (i,):
            raise BadInitialOperator(f"support {key.support} is not exactly site {i}")


# Below this C the Hilbert-space norm is within three orders of the rounding
# floor the eigensolver leaves in A(t), about sqrt(D) eps |H| / gap (up to
# 2.6e-15 seen on 7 qubits).  Such a time point is read from A(t)'s string
# coefficients instead, pruned as ``evolve_operator`` prunes them, so a C
# that vanishes by conservation or symmetry reads exactly 0.
_FLOOR = 1e-12


def _sq_norm(x: np.ndarray) -> float:
    return float(np.vdot(x, x).real)


def _products(A: np.ndarray, action) -> tuple[np.ndarray, np.ndarray]:
    """(A S, S A) for a string S with S|c> = phase[c] |perm[c]>."""
    perm, phase = action
    return A[:, perm] * phase, phase[perm][:, None] * A[perm]


def _dense_weight(At: np.ndarray, kind: str, n: int, j: int) -> float:
    """(A(t)| P_j |A(t)) from the dense matrix A(t)."""
    dim = At.shape[0]
    if kind == "majorana":
        (psi,) = zip(*_code_actions(_qubits(kind, n), [_mode_code(n, j)]))
        a_psi, psi_a = _products(At, psi)
        return _sq_norm(a_psi + psi_a) / (4 * dim)
    # rows and columns split as (sites < j, site j, sites > j)
    lo, hi = 2**j, 2 ** (n - 1 - j)
    T = At.reshape(lo, 2, hi, lo, 2, hi)
    # A - tr_j(A)/2 (x) 1_j keeps the off-diagonal blocks in j whole and
    # leaves +-(A_00 - A_11)/2 in each diagonal block
    off = _sq_norm(T[:, 0, :, :, 1, :]) + _sq_norm(T[:, 1, :, :, 0, :])
    diag = _sq_norm(T[:, 0, :, :, 0, :] - T[:, 1, :, :, 1, :])
    return (off + 0.5 * diag) / dim


def _string_gram(at: OperatorVector, probes, denom: float) -> np.ndarray:
    comms = [pauli_commutator(at, p) for p in probes]
    gram = np.empty((3, 3))
    for a in range(3):
        for b in range(a, 3):
            gram[a, b] = gram[b, a] = inner(comms[a], comms[b]) / denom
    return gram


def _dense_gram(At: np.ndarray, probes, denom: float) -> np.ndarray:
    actions = zip(*_code_actions(probes[0].n, [c for p in probes for c in p.codes]))
    comms = np.stack([np.subtract(*_products(At, act)).ravel() for act in actions])
    return (comms.conj() @ comms.T).real / (At.shape[0] * denom)


def _top(gram: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(gram)[-1])


def _exact_curve(
    name: str, terms: Sequence[HamiltonianTerm], i: int, j: int, a_i: OperatorVector,
    times: Sequence[float], method: str, tol: float,
    dense_sq: Callable[[np.ndarray], float],
    string_sq: Callable[[OperatorVector], float],
    scale: float = 1.0,
) -> BoundCurve:
    """sqrt(sq / scale) on a time grid, from one evolution of ``a_i``.

    ``dense_sq`` reads sq off a dense A(t), ``string_sq`` off a string-space
    A(t): at t = 0, on the Krylov path and below the floor."""
    _check_method(method)
    _validate_initial(a_i, i)
    entries = _term_codes(terms, a_i.kind, a_i.n)
    _check_site(a_i.kind, a_i.n, j)
    evolve, values = None, []
    for t in times:
        if t == 0.0:
            sq = string_sq(a_i)
        elif method == "krylov":
            evolve = evolve or _krylov_heisenberg(terms, a_i, tol, _KRYLOV_MAX_DIM)
            sq = string_sq(evolve(t))
        else:
            evolve = evolve or _dense_heisenberg(entries, a_i)
            At = evolve(t)
            sq = dense_sq(At)
            if sq < _FLOOR**2 * scale:
                sq = string_sq(_dense_to_vector(At, a_i))
        v = math.sqrt(max(sq, 0.0) / scale)
        if not v <= 1.0 + 1e-9:
            raise ComputeError(f"{name}={v} escaped [0,1]")
        values.append(min(v, 1.0))
    return BoundCurve(tuple(times), tuple(values), label=f"{name.lower()}_exact")


def c_ij_exact(
    terms: Sequence[HamiltonianTerm],
    i: int,
    j: int,
    a_i: OperatorVector,
    times: Sequence[float],
    method: str = "dense",
    tol: float = 1e-10,
) -> BoundCurve:
    """Exact C_ij(t) on a time grid."""
    return _exact_curve(
        "C", terms, i, j, a_i, times, method, tol,
        lambda At: _dense_weight(At, a_i.kind, a_i.n, j),
        lambda at: projected_weight(at, j),
        scale=inner(a_i, a_i),
    )


def hatc_ij_exact(
    terms: Sequence[HamiltonianTerm],
    i: int,
    j: int,
    a_i: OperatorVector,
    times: Sequence[float],
    method: str = "dense",
    tol: float = 1e-10,
) -> BoundCurve:
    """Probe-optimized hatC_ij(t): sup_B |[A_i(t), B_j]| / (2|A_i||B_j|).

    The supremum over traceless single-site probes B_j = sum_a u_a T_j^a
    with |u| = 1 is the top eigenvalue of the 3x3 Gram matrix of the
    commutators with the three Pauli probes.
    """
    if a_i.kind != "pauli":
        raise BasisMismatch("probe optimization is defined on the qubit basis")
    denom = 4.0 * inner(a_i, a_i)
    probes = [single_site_pauli(a_i.n, j, lab) for lab in "XYZ"]
    return _exact_curve(
        "hatC", terms, i, j, a_i, times, method, tol,
        lambda At: _top(_dense_gram(At, probes, denom)),
        lambda at: _top(_string_gram(at, probes, denom)),
    )
