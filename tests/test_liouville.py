"""Operator vectors, commutators, Liouvillian evolution, SYK builder."""

import itertools
import math

import numpy as np
import pytest

from lightcone import liouville
from lightcone.causal_trees import FactorSequence, is_creeping
from lightcone.errors import (
    BasisMismatch,
    InvalidParams,
    KrylovNotConverged,
    OddQ,
    SizeMismatch,
    TooLarge,
)
from lightcone.factor_graph import Factor
from lightcone.liouville import (
    HamiltonianTerm,
    OperatorVector,
    build_syk_hamiltonian,
    evolve_operator,
    inner,
    liouvillian_apply,
    majorana_mode,
    norm,
    operator_vector,
    pauli_commutator,
    single_site_pauli,
    spin_term,
    syk_variance,
)
from lightcone.pauli import PauliString, pauli_dense


def vec_diff(a: OperatorVector, b: OperatorVector) -> float:
    keys = set(a.terms) | set(b.terms)
    return math.sqrt(
        sum((a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) ** 2 for k in keys)
    )


def random_2local(n, rng, labels=("XX", "YY", "ZZ"), fields=True):
    terms = []
    for k in range(n - 1):
        for fl, ls in enumerate(labels):
            terms.append(spin_term(n, (k, k + 1), ls, rng.normal(), flavor=fl))
    if fields:
        for k in range(n):
            terms.append(spin_term(n, (k,), "Z", rng.normal()))
    return terms


def dense_of(o: OperatorVector) -> np.ndarray:
    from lightcone.liouville import _qubits
    from lightcone.pauli import _sum_dense

    return _sum_dense(_qubits(o.kind, o.n), o.codes.items())


class TestVectors:
    def test_basis_orthonormality(self):
        x = single_site_pauli(2, 0, "X")
        y = single_site_pauli(2, 0, "Y")
        assert inner(x, x) == 1.0
        assert inner(x, y) == 0.0
        assert norm(x) == 1.0

    def test_prune_accumulates_error(self):
        o = operator_vector("pauli", 1, {PauliString.from_str("X"): 1e-16})
        assert o.terms == {}
        assert o.prune_error == pytest.approx(1e-16)

    def test_kind_mismatch(self):
        with pytest.raises(BasisMismatch):
            inner(single_site_pauli(2, 0, "X"), majorana_mode(2, 1))
        with pytest.raises(BasisMismatch):
            inner(single_site_pauli(2, 0, "X"), single_site_pauli(3, 0, "X"))

    def test_mode_range(self):
        with pytest.raises(InvalidParams):
            majorana_mode(4, 5)
        with pytest.raises(InvalidParams):
            operator_vector("spin", 2, {})


class TestCommutator:
    def test_xy_gives_minus_two_z(self):
        c = pauli_commutator(
            single_site_pauli(1, 0, "X"), single_site_pauli(1, 0, "Y")
        )
        assert c.terms == {PauliString.from_str("Z"): -2.0}

    def test_matches_dense_and_antisymmetric(self):
        rng = np.random.default_rng(0)
        n = 3
        for _ in range(40):
            a = operator_vector(
                "pauli", n,
                {
                    PauliString(labels=tuple(rng.integers(0, 4, n))): rng.normal()
                    for _ in range(3)
                },
            )
            b = operator_vector(
                "pauli", n,
                {
                    PauliString(labels=tuple(rng.integers(0, 4, n))): rng.normal()
                    for _ in range(3)
                },
            )
            ab = pauli_commutator(a, b)
            ba = pauli_commutator(b, a)
            for k in ab.terms:
                assert ab.terms[k] == pytest.approx(-ba.terms.get(k, 0.0))
            dense = 1j * (
                dense_of(a) @ dense_of(b) - dense_of(b) @ dense_of(a)
            )
            np.testing.assert_allclose(dense_of(ab), dense, atol=1e-12)

    def test_disjoint_support_vanishes(self):
        a = single_site_pauli(4, 0, "X")
        b = single_site_pauli(4, 3, "Y")
        assert pauli_commutator(a, b).terms == {}

    def test_majorana_matches_dense(self):
        rng = np.random.default_rng(1)
        n = 6
        subsets = [
            tuple(sorted(rng.choice(np.arange(1, n + 1), size=m, replace=False)))
            for m in (1, 2, 3, 4)
            for _ in range(3)
        ]
        for s1 in subsets:
            for s2 in subsets:
                a = operator_vector("majorana", n, {tuple(int(x) for x in s1): 1.0})
                b = operator_vector("majorana", n, {tuple(int(x) for x in s2): 1.0})
                c = pauli_commutator(a, b)
                dense = 1j * (
                    dense_of(a) @ dense_of(b) - dense_of(b) @ dense_of(a)
                )
                np.testing.assert_allclose(dense_of(c), dense, atol=1e-12)


class TestLiouvillian:
    def test_vanishes_off_support(self):
        # L_X |O_i) = 0 when i is not in X
        h = [spin_term(4, (1, 2), "XX", 0.7)]
        assert liouvillian_apply(h, single_site_pauli(4, 3, "Z")).terms == {}

    def test_single_term_norm_bound(self):
        # |L_X O| <= 2 |J_X| |O| for a unit-norm interaction string
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            h = [
                HamiltonianTerm(
                    factor=None,
                    string=PauliString(labels=tuple(rng.integers(0, 4, n))),
                    coupling=float(rng.normal()),
                )
            ]
            o = operator_vector(
                "pauli", n,
                {
                    PauliString(labels=tuple(rng.integers(0, 4, n))): rng.normal()
                    for _ in range(2)
                },
            )
            assert norm(liouvillian_apply(h, o)) <= 2 * abs(h[0].coupling) * norm(o) + 1e-12

    def test_output_is_traceless(self):
        rng = np.random.default_rng(3)
        h = random_2local(3, rng)
        o = operator_vector(
            "pauli", 3, {PauliString.from_str("IXI"): 1.0, PauliString.from_str("III"): 0.5}
        )
        out = liouvillian_apply(h, o)
        assert PauliString.identity(3) not in out.terms

    def _matrix_of(self, fn, n):
        """Operator-space matrix of a linear map over all 4^n basis strings."""
        strings = [
            PauliString(labels=ls) for ls in itertools.product(range(4), repeat=n)
        ]
        cols = []
        for s in strings:
            out = fn(OperatorVector(kind="pauli", n=n, terms={s: 1.0}))
            cols.append([out.terms.get(k, 0.0) for k in strings])
        return np.array(cols).T

    def test_projector_liouvillian_commutation(self):
        # [P_j, L_X] = 0 exactly when j is outside X
        from lightcone.correlators import projector_apply

        n = 3
        h_x = [spin_term(n, (0, 1), "XY", 0.8)]
        L = self._matrix_of(lambda o: liouvillian_apply(h_x, o), n)
        for j in range(n):
            P = self._matrix_of(lambda o, j=j: projector_apply(o, j), n)
            commutes = np.allclose(L @ P, P @ L, atol=1e-12)
            assert commutes == (j not in (0, 1))

    def test_disjoint_liouvillians_commute(self):
        n = 4
        h_x = [spin_term(n, (0, 1), "XX", 0.9)]
        h_y = [spin_term(n, (2, 3), "ZY", -1.1)]
        h_z = [spin_term(n, (1, 2), "YY", 0.4)]
        Lx = self._matrix_of(lambda o: liouvillian_apply(h_x, o), n)
        Ly = self._matrix_of(lambda o: liouvillian_apply(h_y, o), n)
        Lz = self._matrix_of(lambda o: liouvillian_apply(h_z, o), n)
        assert np.allclose(Lx @ Ly, Ly @ Lx, atol=1e-12)
        assert not np.allclose(Lx @ Lz, Lz @ Lx, atol=1e-12)

    def test_nonzero_nested_application_implies_creeping(self):
        # factor sequences whose nested Liouvillian action survives are
        # exactly rooted growth sequences (up to algebraic cancellations)
        from lightcone.factor_graph import build_graph

        n = 5
        fa, fb, fc = Factor(nodes=(0, 1)), Factor(nodes=(1, 2)), Factor(nodes=(3, 4))
        g = build_graph(n, [fa, fb, fc])
        strings = {
            fa: spin_term(n, (0, 1), "XX", 1.0, flavor=0),
            fb: spin_term(n, (1, 2), "XX", 1.0, flavor=0),
            fc: spin_term(n, (3, 4), "XX", 1.0, flavor=0),
        }
        o0 = single_site_pauli(n, 0, "Z")
        for length in (1, 2, 3):
            for seq in itertools.product((fa, fb, fc), repeat=length):
                out = o0
                for f in seq:
                    out = liouvillian_apply([strings[f]], out)
                if out.terms:
                    assert is_creeping(g, FactorSequence(root=0, factors=seq))


class TestEvolution:
    def test_time_zero_identity(self):
        h = [spin_term(2, (0, 1), "XX", 1.0)]
        o = single_site_pauli(2, 0, "X")
        assert evolve_operator(h, o, 0.0).terms == o.terms

    def test_commuting_hamiltonian_fixed_point(self):
        h = [spin_term(3, (0,), "Z", 0.7), spin_term(3, (1,), "Z", -0.2)]
        z = single_site_pauli(3, 2, "Z")
        for method in ("dense", "krylov"):
            ev = evolve_operator(h, z, 2.0, method=method)
            assert vec_diff(ev, z) < 1e-12

    def test_norm_preserved_random_six_qubit(self):
        rng = np.random.default_rng(4)
        h = random_2local(6, rng)
        o = single_site_pauli(6, 0, "X")
        for t in np.linspace(0.0, 3.0, 7):
            ev = evolve_operator(h, o, float(t), method="dense")
            assert abs(norm(ev) - 1.0) < 1e-10

    def test_time_additivity(self):
        rng = np.random.default_rng(5)
        h = random_2local(4, rng)
        o = single_site_pauli(4, 1, "Y")
        for method in ("dense", "krylov"):
            one = evolve_operator(
                h, evolve_operator(h, o, 0.4, method=method), 0.7, method=method
            )
            two = evolve_operator(h, o, 1.1, method=method)
            assert vec_diff(one, two) < 1e-9

    def test_dense_matches_matrix_conjugation(self):
        rng = np.random.default_rng(6)
        n = 3
        h = random_2local(n, rng)
        o = single_site_pauli(n, 0, "X")
        t = 0.9
        H = sum(term.coupling * pauli_dense(term.string) for term in h)
        vals, vecs = np.linalg.eigh(H)
        U = (vecs * np.exp(1j * vals * t)) @ vecs.conj().T
        target = U @ pauli_dense(PauliString.single(n, 0, "X")) @ U.conj().T
        ev = evolve_operator(h, o, t, method="dense")
        np.testing.assert_allclose(dense_of(ev), target, atol=1e-10)

    def test_krylov_matches_dense(self):
        rng = np.random.default_rng(7)
        h = random_2local(5, rng)
        o = single_site_pauli(5, 0, "X")
        for t in (0.3, 1.1, 2.0):
            d = evolve_operator(h, o, t, method="dense")
            k = evolve_operator(h, o, t, method="krylov", tol=1e-12)
            assert vec_diff(d, k) < 1e-8

    def test_krylov_matches_dense_majorana(self):
        h = build_syk_hamiltonian(6, 2, seed=8)
        o = majorana_mode(6, 1)
        d = evolve_operator(h, o, 0.8, method="dense")
        k = evolve_operator(h, o, 0.8, method="krylov", tol=1e-12)
        assert vec_diff(d, k) < 1e-8
        # quadratic couplings keep a single mode in the one-string sector
        assert all(len(key) == 1 for key in d.terms)

    def test_krylov_closure_matches_lone_calls(self):
        # one shared recurrence, visited out of order, gives each t exactly
        # what a fresh recurrence gives it
        rng = np.random.default_rng(7)
        h = random_2local(5, rng)
        o = operator_vector("pauli", 5, {PauliString.single(5, 0, "X"): 0.6, PauliString.single(5, 0, "Z"): -1.7})
        evolve = liouville._krylov_heisenberg(h, o, 1e-10, 400)
        for t in (1.1, 0.3, 2.0, -0.7):
            shared, lone = evolve(t), evolve_operator(h, o, t, method="krylov")
            assert {k: c.hex() for k, c in shared.codes.items()} == {k: c.hex() for k, c in lone.codes.items()}
            assert shared.prune_error.hex() == lone.prune_error.hex()

    def test_krylov_not_converged(self):
        rng = np.random.default_rng(9)
        h = random_2local(5, rng)
        o = single_site_pauli(5, 0, "X")
        with pytest.raises(KrylovNotConverged):
            evolve_operator(h, o, 2.0, method="krylov", max_krylov=3)

    def test_size_caps(self):
        n = 11
        h = [spin_term(n, (0, 1), "XX", 1.0)]
        with pytest.raises(TooLarge):
            evolve_operator(h, single_site_pauli(n, 0, "X"), 0.1, method="dense")
        big = build_syk_hamiltonian(18, 2, seed=0)
        with pytest.raises(TooLarge):
            evolve_operator(big, majorana_mode(18, 1), 0.1, method="dense")

    def test_basis_mismatch_and_bad_method(self):
        h = [spin_term(2, (0, 1), "XX", 1.0)]
        with pytest.raises(BasisMismatch):
            evolve_operator(h, majorana_mode(2, 1), 0.1)
        with pytest.raises(InvalidParams):
            evolve_operator(h, single_site_pauli(2, 0, "X"), 0.1, method="magic")

    def test_prune_error_budget(self):
        rng = np.random.default_rng(10)
        h = random_2local(4, rng)
        ev = evolve_operator(h, single_site_pauli(4, 0, "X"), 1.5, method="dense")
        assert 0.0 <= ev.prune_error < 1e-12


class TestBoundaryChecks:
    """Keys and terms are checked where they are turned into codes."""

    @pytest.mark.parametrize("path", ["apply", "krylov", "dense"])
    def test_term_wider_than_operator(self, path):
        h = [spin_term(3, (0, 2), "XX", 1.0)]
        o = single_site_pauli(2, 0, "Z")
        with pytest.raises(SizeMismatch):
            if path == "apply":
                liouvillian_apply(h, o)
            else:
                evolve_operator(h, o, 0.5, method=path)

    def test_mixed_hamiltonian(self):
        mixed = [
            spin_term(2, (0, 1), "XX", 1.0),
            HamiltonianTerm(factor=None, string=(1, 2), coupling=1.0),
        ]
        with pytest.raises(BasisMismatch):
            liouvillian_apply(mixed, single_site_pauli(2, 0, "Z"))
        with pytest.raises(BasisMismatch):
            liouvillian_apply(mixed[::-1], majorana_mode(4, 1))
        with pytest.raises(BasisMismatch):
            evolve_operator(mixed, single_site_pauli(2, 0, "Z"), 0.5)

    def test_mode_outside_range(self):
        with pytest.raises(SizeMismatch):
            operator_vector("majorana", 4, {(9,): 1.0})
        h = [HamiltonianTerm(factor=None, string=(1, 9), coupling=1.0)]
        with pytest.raises(SizeMismatch):
            liouvillian_apply(h, majorana_mode(4, 1))
        with pytest.raises(InvalidParams):
            operator_vector("majorana", 4, {(3, 1): 1.0})

    def test_key_of_the_wrong_size(self):
        with pytest.raises(SizeMismatch):
            operator_vector("pauli", 2, {PauliString.from_str("XYZ"): 1.0})
        with pytest.raises(BasisMismatch):
            OperatorVector(kind="majorana", n=4, terms={PauliString.from_str("XY"): 1.0})

    @pytest.mark.parametrize(
        "sites, labels", [((-1,), "Z"), ((0, 0), "XZ"), ((0, 1), "XQ"), ((5,), "X"), ((0,), "XY")]
    )
    def test_spin_term_validation(self, sites, labels):
        with pytest.raises(InvalidParams):
            spin_term(3, sites, labels, 1.0)

    @pytest.mark.parametrize("site, label", [(5, "X"), (-1, "X"), (0, "Q"), (0, "XY"), (0, 7)])
    def test_single_site_validation(self, site, label):
        with pytest.raises(InvalidParams):
            single_site_pauli(3, site, label)
        with pytest.raises(InvalidParams):
            PauliString.single(3, site, label)
        assert single_site_pauli(3, 1, 2).terms == {PauliString.from_str("IYI"): 1.0}
        assert PauliString.single(3, 1, "Y") == PauliString.from_str("IYI")

    def test_terms_view_round_trip(self):
        # public keys go in and come back out with their coefficients
        rng = np.random.default_rng(11)
        keys = [tuple(int(k) for k in s) for s in itertools.combinations(range(1, 8), 3)]
        terms = {k: float(rng.normal()) for k in keys}
        o = operator_vector("majorana", 7, terms)
        assert o.terms == terms and list(o.terms) == keys
        strings = {PauliString(labels=ls): float(rng.normal()) for ls in itertools.product(range(4), repeat=3)}
        assert operator_vector("pauli", 3, strings).terms == strings


class TestSykBuilder:
    def test_term_count_q2(self):
        assert len(build_syk_hamiltonian(4, 2, seed=0)) == 6

    def test_odd_q_rejected(self):
        with pytest.raises(OddQ):
            build_syk_hamiltonian(6, 3, seed=0)

    def test_seed_determinism(self):
        a = build_syk_hamiltonian(8, 4, seed=123)
        b = build_syk_hamiltonian(8, 4, seed=123)
        assert a == b

    def test_explicit_couplings_and_factors(self):
        h = build_syk_hamiltonian(4, 2, couplings=[1.0] * 6)
        assert h[0].string == (1, 2)
        assert h[0].factor == Factor(nodes=(0, 1))
        with pytest.raises(InvalidParams):
            build_syk_hamiltonian(4, 2, couplings=[1.0] * 5)

    def test_variance_matches_formula(self):
        n, q, jbar = 6, 2, 1.3
        target = syk_variance(n, q, jbar)
        assert target == pytest.approx(math.factorial(q - 1) * jbar**2 / (2 * q * n ** (q - 1)))
        sq = []
        for seed in range(10_000):
            sq.extend(
                t.coupling**2 for t in build_syk_hamiltonian(n, q, jbar, seed=seed)
            )
        m = len(sq)
        # sample mean of J^2 for Gaussian J has sd sigma^2 sqrt(2/M)
        band = 3.0 * target * math.sqrt(2.0 / m)
        assert abs(np.mean(sq) - target) < band

    def test_q4_single_move(self):
        # L_{1234} acting on psi_4 psi_5 psi_6 moves the shared mode:
        # the survivor is 2 J psi_1 psi_2 psi_3 psi_5 psi_6
        j = 0.37
        term = next(
            t
            for t in build_syk_hamiltonian(8, 4, couplings=[j] * 70)
            if t.string == (1, 2, 3, 4)
        )
        out = liouvillian_apply([term], operator_vector("majorana", 8, {(4, 5, 6): 1.0}))
        assert out.terms == {(1, 2, 3, 5, 6): pytest.approx(2.0 * j)}

    def test_hermitian_dense(self):
        h = build_syk_hamiltonian(4, 4, seed=11)
        from lightcone.liouville import _term_codes
        from lightcone.pauli import _sum_dense

        H = _sum_dense(2, _term_codes(h, "majorana", 4))
        np.testing.assert_allclose(H, H.conj().T, atol=1e-14)
