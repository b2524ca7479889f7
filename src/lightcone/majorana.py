"""Majorana-string algebra with psi_k^2 = 1 normalization.

A string is an ascending index subset with a sign: sign * psi_{i1}...psi_im.
Products count transpositions and contract repeated modes.  The orthonormal
operator basis attaches the Hermitizing phase i^(m(m-1)/2) to each subset;
under the Jordan-Wigner realization psi_{2r-1} = Z..Z X_r, psi_{2r} =
Z..Z Y_r every basis element is a Pauli string times a sign, which is how
the dense path and the re-expansion work.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ComputeError, SizeMismatch
from .pauli import PauliString, pauli_dense, string_product

__all__ = [
    "MajoranaString",
    "majorana_product",
    "jw_pauli_of_mode",
    "majorana_basis_to_pauli",
    "majorana_dense",
    "n_qubits_for",
]


def n_qubits_for(n_majorana: int) -> int:
    return (n_majorana + 1) // 2


@dataclass(frozen=True)
class MajoranaString:
    """sign * psi_{i1}...psi_{im} with 1-based ascending indices."""

    n_majorana: int
    indices: tuple[int, ...]
    sign: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(int(k) for k in self.indices))
        if any(not 1 <= k <= self.n_majorana for k in self.indices):
            raise ValueError("indices must lie in 1..n_majorana")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("indices must be strictly ascending")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def __len__(self) -> int:
        return len(self.indices)


def majorana_product(s1: MajoranaString, s2: MajoranaString) -> MajoranaString:
    """Ordered product with transposition signs and psi^2 = 1 contractions."""
    if s1.n_majorana != s2.n_majorana:
        raise SizeMismatch(
            f"mode counts differ: {s1.n_majorana} vs {s2.n_majorana}"
        )
    cur = list(s1.indices)
    flips = 0
    for b in s2.indices:
        pos = bisect_left(cur, b)
        if pos < len(cur) and cur[pos] == b:
            flips += len(cur) - pos - 1
            cur.pop(pos)
        else:
            flips += len(cur) - pos
            cur.insert(pos, b)
    sign = s1.sign * s2.sign * (1 if flips % 2 == 0 else -1)
    return MajoranaString(
        n_majorana=s1.n_majorana, indices=tuple(cur), sign=sign
    )


@lru_cache(maxsize=None)
def jw_pauli_of_mode(n_majorana: int, k: int) -> PauliString:
    """psi_k as a Pauli string on ceil(n_majorana/2) qubits."""
    if not 1 <= k <= n_majorana:
        raise ValueError(f"mode {k} outside 1..{n_majorana}")
    nq = n_qubits_for(n_majorana)
    r = (k + 1) // 2  # qubit hosting the mode: k = 2r-1 gives X, k = 2r gives Y
    label = 1 if k % 2 == 1 else 2
    labels = [3] * (r - 1) + [label] + [0] * (nq - r)
    return PauliString(labels=tuple(labels))


@lru_cache(maxsize=None)
def majorana_basis_to_pauli(
    n_majorana: int, indices: tuple[int, ...]
) -> tuple[float, PauliString]:
    """Basis element i^(m(m-1)/2) psi_{i1}...psi_{im} as sign * PauliString."""
    nq = n_qubits_for(n_majorana)
    m = len(indices)
    phase = (m * (m - 1) // 2) % 4
    s = PauliString.identity(nq)
    for k in indices:
        p, s = string_product(s, jw_pauli_of_mode(n_majorana, k))
        phase = (phase + p) % 4
    if phase not in (0, 2):
        raise ComputeError("basis element must be Hermitian")
    return (1.0 if phase == 0 else -1.0), s


def majorana_dense(s: MajoranaString) -> np.ndarray:
    """Dense matrix of a raw string on 2^ceil(n/2) dimensions."""
    nq = n_qubits_for(s.n_majorana)
    out = np.eye(2**nq, dtype=complex) * s.sign
    for k in s.indices:
        out = out @ pauli_dense(jw_pauli_of_mode(s.n_majorana, k))
    return out
