"""Exact correlators: projectors, C_ij, probe-optimized hatC_ij."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightcone import liouville
from lightcone.correlators import (
    c_ij_exact,
    hatc_ij_exact,
    projected_weight,
    projector_apply,
)
from lightcone.errors import (
    BadInitialOperator,
    BasisMismatch,
    ComputeError,
    InvalidParams,
    TooLarge,
)
from lightcone.factor_graph import Factor, as_weighted, build_graph
from lightcone.liouville import (
    build_syk_hamiltonian,
    evolve_operator,
    inner,
    majorana_mode,
    operator_vector,
    pauli_commutator,
    single_site_pauli,
    spin_term,
)
from lightcone.majorana import jw_pauli_of_mode
from lightcone.path_bounds import prop1_convert, theorem3_bound
from lightcone.pauli import PauliString, pauli_dense

from test_liouville import dense_of, random_2local


class TestProjector:
    def test_pauli_keep_rule(self):
        o = operator_vector(
            "pauli", 3,
            {
                PauliString.from_str("XIZ"): 0.5,
                PauliString.from_str("IYI"): 0.3,
            },
        )
        p0 = projector_apply(o, 0)
        assert set(p0.terms) == {PauliString.from_str("XIZ")}
        assert projected_weight(o, 1) == pytest.approx(0.09)
        assert projected_weight(o, 2) == pytest.approx(0.25)

    def test_idempotent_and_weight_consistent(self):
        o = operator_vector(
            "pauli", 2,
            {PauliString.from_str("XY"): 0.8, PauliString.from_str("IZ"): -0.6},
        )
        once = projector_apply(o, 1)
        assert projector_apply(once, 1).terms == once.terms
        assert projected_weight(o, 1) == pytest.approx(
            sum(c * c for c in once.terms.values())
        )

    def test_site_range(self):
        o = single_site_pauli(2, 0, "X")
        with pytest.raises(InvalidParams):
            projector_apply(o, 2)
        with pytest.raises(InvalidParams):
            projected_weight(majorana_mode(4, 1), 0)

    def test_majorana_rule_matches_dense_anticommutator(self):
        # (O|P_j|O) = 2^(-2-N/2) tr({O, psi_j}^dag {O, psi_j})
        n = 6
        h = build_syk_hamiltonian(n, 2, seed=5)
        ot = evolve_operator(h, majorana_mode(n, 1), 0.9, method="dense")
        O = dense_of(ot)
        for j in range(1, n + 1):
            psi = pauli_dense(jw_pauli_of_mode(n, j))
            ac = O @ psi + psi @ O
            dense_w = float(np.trace(ac.conj().T @ ac).real) / (4 * 2 ** (n // 2))
            assert projected_weight(ot, j) == pytest.approx(dense_w, abs=1e-12)

    def test_majorana_keep_rule_parity(self):
        o = operator_vector(
            "majorana", 4, {(1,): 0.5, (2,): 0.5, (1, 2): 0.5, (1, 2, 3): 0.5}
        )
        # keep iff |S| - [j in S] is even
        assert set(projector_apply(o, 1).terms) == {(1,), (1, 2, 3)}
        assert set(projector_apply(o, 4).terms) == {(1, 2)}


def ring_terms(n, rng):
    terms = random_2local(n, rng, labels=("XX", "ZZ"), fields=True)
    return terms


class TestCij:
    def test_time_zero_values(self):
        rng = np.random.default_rng(0)
        h = ring_terms(4, rng)
        a = single_site_pauli(4, 0, "X")
        assert c_ij_exact(h, 0, 3, a, (0.0, 0.2)).values[0] == 0.0
        assert c_ij_exact(h, 0, 0, a, (0.0, 0.2)).values[0] == 1.0

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            h = ring_terms(n, rng)
            a = single_site_pauli(n, 0, "Y")
            curve = c_ij_exact(h, 0, n - 1, a, np.linspace(0.0, 2.0, 9))
            assert all(0.0 <= v <= 1.0 for v in curve.values)

    def test_initial_operator_validation(self):
        h = ring_terms(3, np.random.default_rng(2))
        with pytest.raises(BadInitialOperator):
            c_ij_exact(h, 0, 2, operator_vector("pauli", 3, {}), (0.0, 0.1))
        with pytest.raises(BadInitialOperator):
            c_ij_exact(h, 0, 2, single_site_pauli(3, 1, "X"), (0.0, 0.1))
        with pytest.raises(BadInitialOperator):
            c_ij_exact(
                h, 0, 2,
                operator_vector("pauli", 3, {PauliString.identity(3): 1.0}),
                (0.0, 0.1),
            )
        syk = build_syk_hamiltonian(4, 2, seed=0)
        with pytest.raises(BadInitialOperator):
            c_ij_exact(
                syk, 1, 2,
                operator_vector("majorana", 4, {(1, 2): 1.0}),
                (0.0, 0.1),
            )

    def test_krylov_matches_dense(self):
        rng = np.random.default_rng(3)
        h = ring_terms(4, rng)
        a = single_site_pauli(4, 0, "X")
        ts = (0.0, 0.4, 1.0)
        d = c_ij_exact(h, 0, 3, a, ts, method="dense")
        k = c_ij_exact(h, 0, 3, a, ts, method="krylov", tol=1e-12)
        np.testing.assert_allclose(d.values, k.values, atol=1e-8)

    def test_krylov_grid_runs_one_recurrence(self, monkeypatch):
        # the Lanczos basis does not depend on t: a grid costs as many
        # Liouvillian applies as its largest t alone, with the same values
        n = 4
        h = [spin_term(n, (k, k + 1), ls, c) for k in range(n - 1) for ls, c in (("XX", 1.0), ("YY", 1.0), ("ZZ", 0.6))]
        h += [spin_term(n, (k,), "Z", 0.3 + 0.2 * k) for k in range(n)]
        a = single_site_pauli(n, 0, "X")
        ts = (0.5, 1.0)
        calls = []
        real = liouville.liouvillian_apply
        monkeypatch.setattr(liouville, "liouvillian_apply", lambda *args: calls.append(1) or real(*args))
        evolve_operator(h, a, max(ts), method="krylov")
        alone = len(calls)
        for j in range(n):
            apart = [math.sqrt(projected_weight(evolve_operator(h, a, t, method="krylov"), j)) for t in ts]
            calls.clear()
            curve = c_ij_exact(h, 0, j, a, ts, method="krylov")
            assert len(calls) == alone
            assert [v.hex() for v in curve.values] == [min(v, 1.0).hex() for v in apart]

    def test_majorana_cij(self):
        n = 6
        h = build_syk_hamiltonian(n, 4, seed=4)
        a = majorana_mode(n, 1)
        curve = c_ij_exact(h, 1, 5, a, (0.0, 0.5, 1.0))
        assert curve.values[0] == 0.0
        assert all(0.0 <= v <= 1.0 for v in curve.values)

    def test_exact_below_path_sum_bound(self):
        # 20 random 2-local qubit systems: C_ij(t) <= the path-sum bound
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            terms = []
            factors = []
            weights = []
            for k in range(n - 1):
                for fl, ls in enumerate(("XX", "ZZ")):
                    j = float(rng.normal())
                    if abs(j) < 1e-3:
                        continue
                    terms.append(spin_term(n, (k, k + 1), ls, j, flavor=fl))
                    factors.append(Factor(nodes=(k, k + 1), flavor=fl))
                    weights.append(abs(j))
            g = as_weighted(build_graph(n, factors), dict(zip(factors, weights)))
            a = single_site_pauli(n, 0, "X")
            ts = np.linspace(0.25, 2.0, 8)
            curve = c_ij_exact(terms, 0, n - 1, a, ts)
            for t, v in zip(curve.times, curve.values):
                assert v <= theorem3_bound(g, 0, n - 1, t) + 1e-8


class TestHatC:
    def test_time_zero(self):
        rng = np.random.default_rng(6)
        h = ring_terms(4, rng)
        a = single_site_pauli(4, 0, "X")
        assert hatc_ij_exact(h, 0, 3, a, (0.0, 0.3)).values[0] == 0.0

    def test_z_probe_saturates(self):
        # evolved operator exactly Z_j: the probe sphere reaches 1
        a = single_site_pauli(3, 1, "Z")
        h = [spin_term(3, (0,), "X", 0.4)]
        curve = hatc_ij_exact(h, 1, 1, a, (0.0, 0.5))
        assert curve.values == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_krylov_matches_dense(self):
        rng = np.random.default_rng(3)
        h = ring_terms(4, rng)
        a = single_site_pauli(4, 0, "X")
        ts = (0.0, 0.4, 1.0)
        for j in range(4):
            d = hatc_ij_exact(h, 0, j, a, ts, method="dense")
            k = hatc_ij_exact(h, 0, j, a, ts, method="krylov", tol=1e-12)
            np.testing.assert_allclose(d.values, k.values, atol=1e-8)

    def test_majorana_rejected(self):
        h = build_syk_hamiltonian(4, 2, seed=0)
        with pytest.raises(BasisMismatch):
            hatc_ij_exact(h, 1, 2, majorana_mode(4, 1), (0.0, 0.1))

    def test_prop1_sandwich_qubits(self):
        # c and hatc differ by at most dimension factors: 10^3 (H, t) pairs
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(250):
            n = int(rng.integers(2, 5))
            h = random_2local(n, rng, labels=("XX", "YY", "ZZ"))
            a = single_site_pauli(n, 0, "X")
            j = int(rng.integers(0, n))
            ts = tuple(sorted(set(rng.uniform(0.05, 2.0, 4))))
            c = c_ij_exact(h, 0, j, a, ts)
            hc = hatc_ij_exact(h, 0, j, a, ts)
            for cv, hv in zip(c.values, hc.values):
                lo, hi = prop1_convert(hv, 2, source="hatc")
                assert lo - 1e-8 <= cv <= hi + 1e-8
                checked += 1
        assert checked >= 1000


# -- Hilbert-space route against the string route ----------------------------

def string_route_c(terms, j, a, times):
    denom = inner(a, a)
    return [
        math.sqrt(projected_weight(evolve_operator(terms, a, t, method="dense"), j) / denom)
        for t in times
    ]


def string_route_hatc(terms, j, a, times):
    denom = 4.0 * inner(a, a)
    probes = [single_site_pauli(a.n, j, lab) for lab in "XYZ"]
    out = []
    for t in times:
        comms = [pauli_commutator(evolve_operator(terms, a, t, method="dense"), p) for p in probes]
        gram = np.array([[inner(x, y) / denom for y in comms] for x in comms])
        out.append(math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)))
    return out


def assert_close(got, want):
    for g, w in zip(got, want):
        assert abs(g - w) <= max(1e-15, 1e-12 * abs(w)), (got, want)


class TestHilbertRoute:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=10_000),
        st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=3, unique=True),
    )
    def test_pauli_matches_string_route(self, n, seed, times):
        rng = np.random.default_rng(seed)
        terms = []
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.5:
                    labels = "".join(rng.choice(list("XYZ"), 2))
                    terms.append(spin_term(n, (a, b), labels, rng.normal(), flavor=len(terms)))
            if rng.random() < 0.5:
                terms.append(spin_term(n, (a,), str(rng.choice(list("XYZ"))), rng.normal()))
        if not terms:
            terms.append(spin_term(n, (0,), "X", 1.0))
        i = int(rng.integers(n))
        a = single_site_pauli(n, i, str(rng.choice(list("XYZ"))))
        times = (0.0, *sorted(times))
        for j in range(n):
            assert_close(c_ij_exact(terms, i, j, a, times).values, string_route_c(terms, j, a, times))
            assert_close(hatc_ij_exact(terms, i, j, a, times).values, string_route_hatc(terms, j, a, times))

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([2, 4]),
        st.sampled_from([4, 6, 8, 10]),
        st.integers(min_value=0, max_value=10_000),
        st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=3, unique=True),
    )
    def test_syk_matches_string_route(self, q, n, seed, times):
        h = build_syk_hamiltonian(n, q, seed=seed)
        i = 1 + seed % n
        a = majorana_mode(n, i)
        times = (0.0, *sorted(times))
        for j in range(1, n + 1):
            assert_close(c_ij_exact(h, i, j, a, times).values, string_route_c(h, j, a, times))

    def test_conserved_operator_reads_exact_zero(self):
        # Z_0 commutes with every term, so C_0j vanishes exactly off site 0;
        # the eigensolver leaves ~1e-15 in A(t), which must not show
        n = 5
        rng = np.random.default_rng(11)
        terms = [spin_term(n, (0, 1), "ZZ", 0.7), spin_term(n, (0,), "Z", -0.4)]
        terms += [spin_term(n, (k, k + 1), "XY", rng.normal()) for k in range(1, n - 1)]
        terms += [spin_term(n, (k,), "X", rng.normal()) for k in range(1, n)]
        a = single_site_pauli(n, 0, "Z")
        for j in range(1, n):
            assert c_ij_exact(terms, 0, j, a, (0.5, 1.5)).values == (0.0, 0.0)
            assert hatc_ij_exact(terms, 0, j, a, (0.5, 1.5)).values == (0.0, 0.0)

    def test_reruns_bit_identical(self):
        h = build_syk_hamiltonian(8, 4, seed=3)
        a = majorana_mode(8, 1)
        ts = (0.0, 0.3, 0.9)
        assert c_ij_exact(h, 1, 8, a, ts).values == c_ij_exact(h, 1, 8, a, ts).values


class TestErrorContract:
    def test_site_out_of_range(self):
        h = ring_terms(3, np.random.default_rng(12))
        a = single_site_pauli(3, 0, "X")
        for j in (-1, 3):
            for times in ((0.0,), (0.5,)):
                with pytest.raises(InvalidParams):
                    c_ij_exact(h, 0, j, a, times)
                with pytest.raises(InvalidParams):
                    hatc_ij_exact(h, 0, j, a, times)
        syk = build_syk_hamiltonian(4, 2, seed=1)
        for j in (0, 5):
            with pytest.raises(InvalidParams):
                c_ij_exact(syk, 1, j, majorana_mode(4, 1), (0.5,))

    def test_unknown_method_rejected_up_front(self):
        # before any work: a t = 0 grid or an empty grid needs no evolution
        h = ring_terms(3, np.random.default_rng(12))
        a = single_site_pauli(3, 0, "X")
        for times in ((), (0.0,), (0.0, 0.5)):
            with pytest.raises(InvalidParams, match="unknown method"):
                c_ij_exact(h, 0, 1, a, times, method="magic")
            with pytest.raises(InvalidParams, match="unknown method"):
                hatc_ij_exact(h, 0, 1, a, times, method="magic")
        with pytest.raises(InvalidParams, match="unknown method"):
            evolve_operator(h, a, 0.0, method="magic")

    def test_odd_mode_count(self):
        h = build_syk_hamiltonian(5, 2, seed=2)
        with pytest.raises(InvalidParams):
            c_ij_exact(h, 1, 3, majorana_mode(5, 1), (0.0, 0.5))

    def test_size_caps(self):
        n = 11
        h = [spin_term(n, (0, 1), "XX", 1.0)]
        a = single_site_pauli(n, 0, "X")
        with pytest.raises(TooLarge):
            c_ij_exact(h, 0, 1, a, (0.5,))
        with pytest.raises(TooLarge):
            hatc_ij_exact(h, 0, 1, a, (0.5,))
        big = build_syk_hamiltonian(18, 2, seed=0)
        with pytest.raises(TooLarge):
            c_ij_exact(big, 1, 2, majorana_mode(18, 1), (0.5,))

    def test_basis_mismatch(self):
        h = ring_terms(4, np.random.default_rng(13))
        with pytest.raises(BasisMismatch):
            c_ij_exact(h, 1, 2, majorana_mode(4, 1), (0.5,))
        with pytest.raises(BasisMismatch):
            c_ij_exact(h, 1, 2, majorana_mode(4, 1), (0.0,))
        # the Hamiltonian is checked before the time grid is read
        with pytest.raises(BasisMismatch):
            c_ij_exact(h, 1, 2, majorana_mode(4, 1), ())
        syk = build_syk_hamiltonian(4, 2, seed=0)
        a = single_site_pauli(4, 1, "Z")
        with pytest.raises(BasisMismatch):
            hatc_ij_exact(syk, 1, 2, a, ())
        with pytest.raises(InvalidParams, match="empty Hamiltonian"):
            c_ij_exact([], 1, 2, a, ())
        with pytest.raises(InvalidParams, match="empty Hamiltonian"):
            hatc_ij_exact([], 1, 2, a, ())

    def test_basis_checked_before_size_cap(self):
        # a Majorana Hamiltonian on an operator past the dense cap
        syk = build_syk_hamiltonian(4, 2, seed=0)
        a = single_site_pauli(11, 0, "Z")
        with pytest.raises(BasisMismatch):
            c_ij_exact(syk, 0, 1, a, (0.5,))
        with pytest.raises(BasisMismatch):
            evolve_operator(syk, a, 0.5)

    def test_time_zero_grid_needs_no_dense_path(self):
        # at t = 0 A(0) = A exactly: no size cap, no even-mode rule, and the
        # values are exactly 0 off site i and 1 on it
        n = 11
        h = [spin_term(n, (0, 1), "XX", 1.0)]
        a = single_site_pauli(n, 0, "Z")
        assert c_ij_exact(h, 0, 1, a, (0.0,)).values == (0.0,)
        assert c_ij_exact(h, 0, 0, a, (0.0,)).values == (1.0,)
        assert hatc_ij_exact(h, 0, 1, a, (0.0,)).values == (0.0,)
        odd = build_syk_hamiltonian(5, 2, seed=2)
        assert c_ij_exact(odd, 1, 3, majorana_mode(5, 1), (0.0,)).values == (0.0,)
        assert c_ij_exact(odd, 1, 1, majorana_mode(5, 1), (0.0,)).values == (1.0,)


@pytest.fixture
def fresh_eig_cache():
    # eigenpairs computed under a patch must not leak into other tests
    cached = liouville._dense_eig
    cached.cache_clear()
    yield
    cached.cache_clear()


class TestTypedGuards:
    """Result guards raise ComputeError (CLI exit 3), and survive python -O."""

    def non_unitary_basis(self, monkeypatch):
        real = liouville._dense_eig

        def doubled(nq, entries):
            vals, vecs = real(nq, entries)
            return vals, 2.0 * vecs

        monkeypatch.setattr(liouville, "_dense_eig", doubled)

    def test_c_escapes_unit_interval(self, monkeypatch, fresh_eig_cache):
        self.non_unitary_basis(monkeypatch)
        h = ring_terms(3, np.random.default_rng(14))
        with pytest.raises(ComputeError, match="escaped"):
            c_ij_exact(h, 0, 0, single_site_pauli(3, 0, "X"), (0.5,))

    def test_hatc_escapes_unit_interval(self, monkeypatch, fresh_eig_cache):
        self.non_unitary_basis(monkeypatch)
        h = ring_terms(3, np.random.default_rng(15))
        with pytest.raises(ComputeError, match="escaped"):
            hatc_ij_exact(h, 0, 0, single_site_pauli(3, 0, "X"), (0.5,))

    def test_imaginary_leak(self, monkeypatch, fresh_eig_cache):
        # a non-Hermitian operator matrix gives A(t) an anti-Hermitian part
        real = liouville._sum_dense
        monkeypatch.setattr(
            liouville, "_sum_dense",
            lambda nq, entries: real(nq, entries) * (1.0 + 1e-3j),
        )
        h = ring_terms(3, np.random.default_rng(16))
        a = single_site_pauli(3, 0, "X")
        with pytest.raises(ComputeError, match="real span"):
            c_ij_exact(h, 0, 2, a, (0.5,))
        with pytest.raises(ComputeError, match="real span"):
            hatc_ij_exact(h, 0, 2, a, (0.5,))
        with pytest.raises(ComputeError, match="real span"):
            evolve_operator(h, a, 0.5, method="dense")
