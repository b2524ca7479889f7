"""Pauli-string algebra over qubit sites, on integer codes.

A string on n qubits is one int, code = x | z << n, where bit n-1-k of the
masks x and z belongs to site k (I, X, Y, Z = (0,0), (1,0), (1,1), (0,1)),
so that basis states are ordered as in ``np.kron``:

    sigma |c> = i^(n_Y) (-1)^popcount(c & z) |c ^ x>,  n_Y = popcount(x & z)

Two strings commute when popcount((x1 & z2) ^ (z1 & x2)) is even, and the
phase of a product comes from popcounts (Aaronson & Gottesman,
arXiv:quant-ph/0406196).  This one kernel serves Pauli operators and,
through their Jordan-Wigner images, Majorana operators (see ``majorana``).
``PauliString`` (labels 0..3 = I, X, Y, Z per site) is the public key.
The strings are orthonormal under the normalized trace, and a weighted sum
of strings is one scatter of (row, column, value) triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidParams, SizeMismatch

__all__ = [
    "PauliString",
    "string_product",
    "pauli_dense",
    "pauli_sum_dense",
    "dense_to_pauli_tensor",
]

LABELS = "IXYZ"

# label of (x_k, z_k) = (index & 1, index >> 1)
_LABEL_OF_BITS = (0, 1, 3, 2)

# a single-site label given as a letter or as 0..3
_LABEL_INDEX = {**{ch: a for a, ch in enumerate(LABELS)}, 0: 0, 1: 1, 2: 2, 3: 3}


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
        return _placed(n, (site,), (label,))

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


def _placed(n: int, sites: Sequence[int], labels: Sequence) -> PauliString:
    """The string with labels[k] (a letter of IXYZ or 0..3) on sites[k]."""
    if len(sites) != len(labels) or len(set(sites)) != len(sites):
        raise InvalidParams(f"need one label per distinct site: {sites}, {labels!r}")
    ls = [0] * n
    for site, label in zip(sites, labels):
        if not 0 <= site < n:
            raise InvalidParams(f"site {site} outside 0..{n - 1}")
        if label not in _LABEL_INDEX:
            raise InvalidParams(f"label {label!r} is not one of I, X, Y, Z")
        ls[site] = _LABEL_INDEX[label]
    return PauliString(labels=tuple(ls))


def _code(labels: Sequence[int]) -> int:
    """Code x | z << n of per-site labels 0..3."""
    x = z = 0
    for a in labels:
        # X and Y carry an x bit, Y and Z a z bit
        x = x << 1 | (0b0110 >> int(a) & 1)
        z = z << 1 | (0b1100 >> int(a) & 1)
    return x | z << len(labels)


def _codes(labels: np.ndarray) -> np.ndarray:
    """Codes of the rows of a (K, n) label array, as ``_code`` does one row."""
    n = labels.shape[1]
    bits = 1 << np.arange(n - 1, -1, -1)
    # X and Y (1, 2) carry an x bit, Y and Z (2, 3) a z bit
    return (labels % 3 != 0) @ bits | (labels >= 2) @ bits << n


def _site_bits(code: int, n: int) -> list[tuple[int, int]]:
    """(x_k, z_k) of sites k = 0..n-1."""
    return [(code >> b & 1, code >> (b + n) & 1) for b in range(n - 1, -1, -1)]


def _dual(code: int, n: int) -> int:
    """z | x << n: sigma(a), sigma(b) anticommute iff popcount(_dual(a) & b) is odd."""
    return code >> n | (code & ((1 << n) - 1)) << n


def _string(code: int, n: int) -> PauliString:
    """The PauliString of a code on n qubits."""
    bits = _site_bits(code, n)
    return PauliString(labels=tuple(_LABEL_OF_BITS[x | z << 1] for x, z in bits))


def _product(a: int, b: int, n: int) -> tuple[int, int]:
    """(p, a ^ b) with sigma(a) sigma(b) = i^p sigma(a ^ b), p mod 4."""
    c = a ^ b
    p = (a & a >> n).bit_count() + (b & b >> n).bit_count() - (c & c >> n).bit_count()
    return (p + 2 * (a >> n & b & ((1 << n) - 1)).bit_count()) % 4, c


def _commutator(
    n: int, left: Iterable[tuple[int, float]], right: Mapping[int, float]
) -> dict[int, float]:
    """i[A, B] as {code: coeff}; A, B are (code, coeff) pairs, added left-major.

    An anticommuting pair gives 2 i^(p+1) c1 c2 sigma(a ^ b), p odd.
    """
    out: dict[int, float] = {}
    for a, ca in left:
        dual = _dual(a, n)
        for b, cb in right.items():
            if (dual & b).bit_count() & 1:
                p, k = _product(a, b, n)
                out[k] = out.get(k, 0.0) + ca * cb * (2.0 if p == 3 else -2.0)
    return out


def string_product(s1: PauliString, s2: PauliString) -> tuple[int, PauliString]:
    """(p, s) with s1*s2 = i^p * s; p taken mod 4."""
    n = s1.n_sites
    if s2.n_sites != n:
        raise SizeMismatch(f"site counts differ: {n} vs {s2.n_sites}")
    p, c = _product(_code(s1.labels), _code(s2.labels), n)
    return p, _string(c, n)


def _parity(v: np.ndarray) -> np.ndarray:
    """popcount(v) mod 2 of non-negative int64 entries, by an xor fold."""
    for shift in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


# i^k for k = 0..3
_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])


def _code_actions(n: int, codes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase), each (K, 2^n): string k maps |c> to phase[k, c] |perm[k, c]>."""
    n_y = np.array([(c & c >> n).bit_count() for c in codes], dtype=np.int64)
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    x, z = codes & ((1 << n) - 1), codes >> n
    cols = np.arange(2**n, dtype=np.int64)
    sign = 1 - 2 * _parity(cols[None, :] & z[:, None])
    return cols[None, :] ^ x[:, None], _I_POW[n_y % 4][:, None] * sign


def _sum_dense(n: int, entries: Iterable[tuple[int, float]]) -> np.ndarray:
    """sum of c * sigma(code) over (code, c) entries as a dense 2^n x 2^n matrix.

    All terms are scattered at once: entry (c ^ x_k, c) of term k carries
    c_k i^(n_Y) (-1)^popcount(c & z_k), and entries that land on the same
    cell are added in term order.
    """
    entries = list(entries)
    dim = 2**n
    out = np.zeros(dim * dim, dtype=complex)
    if not entries:
        return out.reshape(dim, dim)
    perm, phase = _code_actions(n, [code for code, _ in entries])
    values = (np.array([c for _, c in entries], dtype=float)[:, None] * phase).ravel()
    flat = (perm * dim + np.arange(dim)).ravel()
    out.real = np.bincount(flat, weights=values.real, minlength=dim * dim)
    out.imag = np.bincount(flat, weights=values.imag, minlength=dim * dim)
    return out.reshape(dim, dim)


def pauli_sum_dense(
    n: int, labels: Sequence[Sequence[int]], coeffs: Sequence[float]
) -> np.ndarray:
    """sum_k coeffs[k] * sigma(labels[k]) as a dense 2^n x 2^n matrix."""
    return _sum_dense(n, zip(map(_code, labels), coeffs))


def pauli_dense(s: PauliString) -> np.ndarray:
    return pauli_sum_dense(s.n_sites, [s.labels], [1.0])


@lru_cache(maxsize=1)
def _site_transform() -> np.ndarray:
    # W[a, 2*i + j] = sigma_a[j, i]: contracting a (2,2) site block with W
    # over the pair index computes tr(sigma_a . block)
    return np.stack([pauli_sum_dense(1, [(a,)], [1.0]).T.ravel() for a in range(4)])


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
