"""Majorana strings on Jordan-Wigner codes against products of mode matrices."""

import itertools

import numpy as np
import pytest

from lightcone.errors import InvalidParams, SizeMismatch
from lightcone.majorana import (
    MajoranaString,
    _basis_code,
    _basis_indices,
    jw_pauli_of_mode,
    majorana_product,
    n_qubits_for,
)
from lightcone.pauli import _sum_dense, pauli_dense


def subsets(n):
    for m in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), m)


def raw_dense(n, indices, sign=1):
    """sign * psi_i1 ... psi_im from the mode matrices."""
    out = sign * np.eye(2 ** n_qubits_for(n), dtype=complex)
    for k in indices:
        out = out @ pauli_dense(jw_pauli_of_mode(n, k))
    return out


def test_modes_anticommute_and_square_to_one():
    for n in range(1, 7):
        psi = [pauli_dense(jw_pauli_of_mode(n, k)) for k in range(1, n + 1)]
        eye = np.eye(psi[0].shape[0])
        for a, pa in enumerate(psi):
            for b, pb in enumerate(psi):
                assert (pa @ pb + pb @ pa == (2 * eye if a == b else 0)).all()


def test_basis_code_is_the_hermitized_product():
    # i^(m(m-1)/2) psi_S = sign * sigma(code) for every subset of 1..6 modes
    for n in range(1, 7):
        nq = n_qubits_for(n)
        for s in subsets(n):
            code, sign = _basis_code(n, s)
            m = len(s)
            want = 1j ** (m * (m - 1) // 2) * raw_dense(n, s)
            assert (sign * _sum_dense(nq, [(code, 1.0)]) == want).all(), (n, s)
            assert _basis_indices(n, code) == (s, sign)


def test_basis_code_rejects_bad_subsets():
    with pytest.raises(SizeMismatch):
        _basis_code(4, (1, 9))
    with pytest.raises(SizeMismatch):
        jw_pauli_of_mode(4, 0)
    with pytest.raises(InvalidParams):
        _basis_code(4, (2, 1))
    with pytest.raises(InvalidParams):
        _basis_code(4, (2, 2))


def test_product_matches_dense():
    for n in (3, 4, 5):
        all_s = list(subsets(n))
        for s1, s2 in itertools.product(all_s, repeat=2):
            a = MajoranaString(n_majorana=n, indices=s1, sign=-1 if len(s1) % 3 == 1 else 1)
            b = MajoranaString(n_majorana=n, indices=s2)
            c = majorana_product(a, b)
            assert c.indices == tuple(sorted(set(s1) ^ set(s2)))
            want = raw_dense(n, s1, a.sign) @ raw_dense(n, s2, b.sign)
            assert (raw_dense(n, c.indices, c.sign) == want).all(), (s1, s2)


def test_product_mode_count_mismatch():
    with pytest.raises(SizeMismatch):
        majorana_product(
            MajoranaString(n_majorana=4, indices=(1,)),
            MajoranaString(n_majorana=6, indices=(1,)),
        )
