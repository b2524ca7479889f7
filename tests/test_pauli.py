"""Pauli strings as bitmasks: dense matrices and products against Kronecker products."""

import itertools

import numpy as np
import pytest

from lightcone.errors import SizeMismatch
from lightcone.pauli import (
    PauliString,
    _code,
    _code_actions,
    _parity,
    pauli_dense,
    pauli_sum_dense,
    string_product,
)

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def kron_dense(labels) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for a in labels:
        out = np.kron(out, SIGMA[a])
    return out


def all_strings(max_sites=3):
    for n in range(1, max_sites + 1):
        for labels in itertools.product(range(4), repeat=n):
            yield labels


def test_pauli_dense_equals_kron():
    for labels in all_strings():
        got = pauli_dense(PauliString(labels=labels))
        want = kron_dense(labels)
        assert got.shape == want.shape
        assert (got == want).all(), labels


def test_dense_without_numpy2_popcount(monkeypatch):
    # numpy >= 1.24 is supported, and np.bitwise_count arrived in numpy 2.0
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    for labels in all_strings():
        assert (pauli_dense(PauliString(labels=labels)) == kron_dense(labels)).all()


def test_string_action_is_the_matrix():
    for labels in all_strings():
        perm, phase = (row[0] for row in _code_actions(len(labels), [_code(labels)]))
        dim = len(perm)
        m = np.zeros((dim, dim), dtype=complex)
        m[perm, np.arange(dim)] = phase
        assert (m == kron_dense(labels)).all(), labels


def test_sum_equals_sequential_kron_sum():
    # entries meeting in one cell are added in term order, as a loop of
    # kron products adds them, so the sum is bit-identical
    rng = np.random.default_rng(0)
    for n in range(1, 6):
        labels = [tuple(int(a) for a in rng.integers(0, 4, n)) for _ in range(25)]
        coeffs = rng.normal(size=25)
        want = np.zeros((2**n, 2**n), dtype=complex)
        for ls, c in zip(labels, coeffs):
            want += c * kron_dense(ls)
        assert (pauli_sum_dense(n, labels, coeffs) == want).all()


def test_empty_sum_and_zero_sites():
    assert (pauli_sum_dense(3, [], []) == 0).all()
    assert pauli_sum_dense(3, [], []).shape == (8, 8)
    assert (pauli_dense(PauliString.identity(0)) == np.ones((1, 1))).all()


def test_parity_fold():
    rng = np.random.default_rng(1)
    v = rng.integers(0, 2**62, size=500)
    want = np.array([bin(int(x)).count("1") % 2 for x in v])
    assert (_parity(v) == want).all()


def test_string_product_matches_dense():
    # every pair on 1-3 qubits: s1 s2 = i^p s as matrices, exactly
    for n in range(1, 4):
        strings = [PauliString(labels=ls) for ls in itertools.product(range(4), repeat=n)]
        dense = {s: pauli_dense(s) for s in strings}
        for s1 in strings:
            for s2 in strings:
                p, s = string_product(s1, s2)
                assert 0 <= p < 4
                assert (1j**p * dense[s] == dense[s1] @ dense[s2]).all(), (s1, s2)


def test_string_product_size_mismatch():
    with pytest.raises(SizeMismatch):
        string_product(PauliString.from_str("XY"), PauliString.from_str("Z"))
