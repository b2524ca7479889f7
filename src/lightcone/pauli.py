"""Pauli-string algebra over qubit sites.

Strings are stored as per-site labels 0..3 = I, X, Y, Z.  Two strings
either commute or anticommute; products carry a power of i tracked mod 4.
The normalized trace inner product makes the strings an orthonormal basis,
so operators live in a real coefficient space.

Dense matrices come from bitmasks, not Kronecker products.  A string on n
qubits is a pair of masks (x, z) plus its Y count n_Y, with bit n-1-k
belonging to site k so that basis states are ordered as in ``np.kron``:

    sigma |c> = i^(n_Y) (-1)^popcount(c & z) |c ^ x>

so every string is a signed permutation of the 2^n basis states, and a
weighted sum of strings is one scatter of (row, column, value) triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "PauliString",
    "string_product",
    "strings_commute",
    "commutator_term",
    "pauli_dense",
    "pauli_sum_dense",
    "dense_to_pauli_tensor",
]

LABELS = "IXYZ"

# _MUL[a][b] = (c, p) with sigma_a sigma_b = i^p sigma_c
_MUL = (
    ((0, 0), (1, 0), (2, 0), (3, 0)),
    ((1, 0), (0, 0), (3, 1), (2, 3)),
    ((2, 0), (3, 3), (0, 0), (1, 1)),
    ((3, 0), (2, 1), (1, 3), (0, 0)),
)

_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-site Paulis, one label per site."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(int(a) for a in self.labels))
        if any(a not in (0, 1, 2, 3) for a in self.labels):
            raise ValueError("labels must be 0..3 (I, X, Y, Z)")

    @classmethod
    def from_str(cls, text: str) -> "PauliString":
        return cls(labels=tuple(LABELS.index(ch) for ch in text))

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(labels=(0,) * n)

    @classmethod
    def single(cls, n: int, site: int, label: str | int) -> "PauliString":
        a = LABELS.index(label) if isinstance(label, str) else int(label)
        labels = [0] * n
        labels[site] = a
        return cls(labels=tuple(labels))

    @property
    def n_sites(self) -> int:
        return len(self.labels)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(k for k, a in enumerate(self.labels) if a != 0)

    @property
    def is_identity(self) -> bool:
        return all(a == 0 for a in self.labels)

    def __str__(self) -> str:
        return "".join(LABELS[a] for a in self.labels)


def string_product(s1: PauliString, s2: PauliString) -> tuple[int, PauliString]:
    """(p, s) with s1*s2 = i^p * s; p taken mod 4."""
    phase = 0
    out = []
    for a, b in zip(s1.labels, s2.labels):
        c, p = _MUL[a][b]
        out.append(c)
        phase += p
    return phase % 4, PauliString(labels=tuple(out))


def strings_commute(s1: PauliString, s2: PauliString) -> bool:
    clashes = sum(
        1 for a, b in zip(s1.labels, s2.labels) if a != 0 and b != 0 and a != b
    )
    return clashes % 2 == 0


def commutator_term(s1: PauliString, s2: PauliString) -> tuple[float, PauliString] | None:
    """i[s1, s2] = coeff * s, or None when the strings commute.

    Anticommuting strings give [s1,s2] = 2 s1 s2 with an odd i-power, so
    the coefficient is always +/-2.
    """
    if strings_commute(s1, s2):
        return None
    p, s = string_product(s1, s2)
    coeff = 2.0 if (p + 1) % 4 == 0 else -2.0
    return coeff, s


def _parity(v: np.ndarray) -> np.ndarray:
    """popcount(v) mod 2 of non-negative int64 entries, by an xor fold."""
    for shift in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


# i^k for k = 0..3
_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])


def _string_actions(n: int, labels) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase), each (K, 2^n): string k maps |c> to phase[k, c] |perm[k, c]>.

    labels is a (K, n) array of 0..3; bit n-1-s of a basis index is site s.
    """
    labels = np.asarray(labels, dtype=np.int64)
    bits = np.left_shift(1, np.arange(n - 1, -1, -1, dtype=np.int64))
    x = ((labels == 1) | (labels == 2)).astype(np.int64) @ bits
    z = ((labels == 2) | (labels == 3)).astype(np.int64) @ bits
    n_y = np.count_nonzero(labels == 2, axis=1)
    cols = np.arange(2**n, dtype=np.int64)
    sign = 1 - 2 * _parity(cols[None, :] & z[:, None])
    return cols[None, :] ^ x[:, None], _I_POW[n_y % 4][:, None] * sign


def _string_action(s: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) with s|c> = phase[c] |perm[c]>, perm[c] = c ^ x."""
    perm, phase = _string_actions(s.n_sites, [s.labels])
    return perm[0], phase[0]


def pauli_sum_dense(
    n: int, labels: Sequence[Sequence[int]], coeffs: Sequence[float]
) -> np.ndarray:
    """sum_k coeffs[k] * sigma(labels[k]) as a dense 2^n x 2^n matrix.

    All terms are scattered at once: entry (c ^ x_k, c) of term k carries
    coeffs[k] i^(n_Y) (-1)^popcount(c & z_k), and entries that land on the
    same cell are added in term order.
    """
    dim = 2**n
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros(dim * dim, dtype=complex)
    if coeffs.size == 0:
        return out.reshape(dim, dim)
    perm, phase = _string_actions(n, labels)
    values = (coeffs[:, None] * phase).ravel()
    flat = (perm * dim + np.arange(dim)).ravel()
    out.real = np.bincount(flat, weights=values.real, minlength=dim * dim)
    out.imag = np.bincount(flat, weights=values.imag, minlength=dim * dim)
    return out.reshape(dim, dim)


def pauli_dense(s: PauliString) -> np.ndarray:
    return pauli_sum_dense(s.n_sites, [s.labels], [1.0])


@lru_cache(maxsize=1)
def _site_transform() -> np.ndarray:
    # W[a, 2*i + j] = sigma_a[j, i]: contracting a (2,2) site block with W
    # over the pair index computes tr(sigma_a . block)
    W = np.empty((4, 4), dtype=complex)
    for a in range(4):
        for i in range(2):
            for j in range(2):
                W[a, 2 * i + j] = _SIGMA[a][j, i]
    return W


def dense_to_pauli_tensor(A: np.ndarray) -> np.ndarray:
    """Coefficients of a 2^n matrix in the Pauli basis, shape (4,)*n.

    c[a_1..a_n] = tr((sigma_a1 x ... x sigma_an) A) / 2^n.  The imaginary
    parts are returned as-is; Hermitian input gives real coefficients.
    """
    dim = A.shape[0]
    n = dim.bit_length() - 1
    if A.shape != (dim, dim) or 2**n != dim:
        raise ValueError("matrix must be square with power-of-two dimension")
    # index layout (i_1..i_n, j_1..j_n) -> (i_1, j_1, i_2, j_2, ...)
    T = A.reshape((2,) * (2 * n))
    order = [x for k in range(n) for x in (k, n + k)]
    T = T.transpose(order).reshape((4,) * n)
    W = _site_transform()
    for k in range(n):
        T = np.moveaxis(np.tensordot(W, T, axes=([1], [k])), 0, k)
    return T / dim
