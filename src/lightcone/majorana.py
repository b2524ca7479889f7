"""Majorana-string algebra with psi_k^2 = 1 normalization, on Pauli codes.

A string is an ascending index subset with a sign: sign * psi_{i1}...psi_im.
The orthonormal operator basis attaches the Hermitizing phase i^(m(m-1)/2)
to each subset.  Under the Jordan-Wigner realization psi_{2r-1} = Z..Z X_r,
psi_{2r} = Z..Z Y_r on ceil(n/2) qubits every basis element is the Pauli
string of one code times an exact sign (``_basis_code``).  Inside the
package Majorana operators live on these codes with the sign folded into
the coefficient, so they share the Pauli kernel; the sign is applied again
where an index tuple crosses the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidParams, SizeMismatch
from .pauli import PauliString, _code, _product, _site_bits, _string

__all__ = [
    "MajoranaString",
    "majorana_product",
    "jw_pauli_of_mode",
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


def _mode_code(n_majorana: int, k: int) -> int:
    """Code of psi_k: X (k odd) or Y (k even) on qubit r = ceil(k/2), Z before it."""
    if not 1 <= k <= n_majorana:
        raise SizeMismatch(f"mode {k} outside 1..{n_majorana}")
    r, nq = (int(k) + 1) // 2, n_qubits_for(n_majorana)
    return _code([3] * (r - 1) + [1 if k % 2 else 2] + [0] * (nq - r))


def jw_pauli_of_mode(n_majorana: int, k: int) -> PauliString:
    """psi_k as a Pauli string on ceil(n_majorana/2) qubits."""
    return _string(_mode_code(n_majorana, k), n_qubits_for(n_majorana))


@lru_cache(maxsize=None)
def _basis_code(n_majorana: int, indices: tuple[int, ...]) -> tuple[int, int]:
    """(code, sign) with i^(m(m-1)/2) psi_{i1}...psi_{im} = sign * sigma(code).

    The ordered product of the mode strings is i^p sigma(code), and the
    Hermitizing phase makes i^(p + m(m-1)/2) real.
    """
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise InvalidParams(f"mode indices {indices} are not strictly ascending")
    code = p = 0
    for k in indices:
        q, code = _product(code, _mode_code(n_majorana, k), n_qubits_for(n_majorana))
        p += q
    return code, 1 if (p + len(indices) * (len(indices) - 1) // 2) % 4 == 0 else -1


def _basis_indices(n_majorana: int, code: int) -> tuple[tuple[int, ...], int]:
    """(indices, sign) of the basis element with image ``code``.

    Qubit r holds x = a ^ b and z = b ^ c for modes a = 2r-1, b = 2r and c
    the parity of the modes on later qubits, so it reads from the last one.
    """
    nq = n_qubits_for(n_majorana)
    later = 0
    found = []
    for r, (x, z) in zip(range(nq, 0, -1), reversed(_site_bits(code, nq))):
        b = z ^ later
        if b:
            found.append(2 * r)
        if x ^ b:
            found.append(2 * r - 1)
        later ^= x
    indices = tuple(reversed(found))
    return indices, _basis_code(n_majorana, indices)[1]


def majorana_product(s1: MajoranaString, s2: MajoranaString) -> MajoranaString:
    """Ordered product with transposition signs and psi^2 = 1 contractions."""
    n = s1.n_majorana
    if s2.n_majorana != n:
        raise SizeMismatch(f"mode counts differ: {n} vs {s2.n_majorana}")
    (c1, g1), (c2, g2) = _basis_code(n, s1.indices), _basis_code(n, s2.indices)
    p, c3 = _product(c1, c2, n_qubits_for(n))
    out, g3 = _basis_indices(n, c3)
    h1, h2, h3 = (len(s) * (len(s) - 1) // 2 for s in (s1.indices, s2.indices, out))
    # psi_S = i^-h g sigma(code), so psi_S1 psi_S2 = i^(p+h3-h1-h2) g1 g2 g3 psi_S3
    sign = s1.sign * s2.sign * g1 * g2 * g3 * (1 if (p + h3 - h1 - h2) % 4 == 0 else -1)
    return MajoranaString(n_majorana=n, indices=out, sign=sign)
