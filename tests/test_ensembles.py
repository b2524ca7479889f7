"""Random ensembles: sampling, Monte Carlo, genus series, scrambling times."""

import math

import numpy as np
import pytest

from lightcone.causal_pairs import theorem4_bound_bruteforce
from lightcone.curves import BoundCurve
from lightcone.ensembles import (
    EnsembleEntry,
    complete_spin_spec,
    ensemble_graph,
    ensemble_spec,
    mc_expect_c2,
    pairwise_sum,
    sample_hamiltonian,
    scrambling_time,
    sqrtlogn_bound,
    su2_heisenberg_spec,
    syk_genus0_bound,
    syk_largeq_exact,
    syk_rate_ratio,
    syk_spec,
    theoremFS_series,
)
from lightcone.errors import BadQ, GenusOutOfRange, InvalidParams
from lightcone.factor_graph import Factor
from lightcone.liouville import syk_variance
from lightcone.pauli import PauliString, pauli_dense


def triangle_spec(law="gaussian", seed=42, jsq=0.09):
    factors = [Factor(nodes=(0, 1)), Factor(nodes=(1, 2)), Factor(nodes=(0, 2))]
    entries = [
        EnsembleEntry(
            factor=f,
            string=PauliString(
                labels=tuple(1 if k in f.nodes else 0 for k in range(3))
            ),
            jsq=jsq,
        )
        for f in factors
    ]
    return ensemble_spec("pauli", 3, entries, law=law, seed=seed)


class TestSpecs:
    def test_validation(self):
        good = triangle_spec()
        with pytest.raises(InvalidParams):
            ensemble_spec("spin", 3, good.entries)
        with pytest.raises(InvalidParams):
            ensemble_spec("pauli", 3, good.entries, law="uniform")
        with pytest.raises(InvalidParams):
            ensemble_spec("pauli", 3, [])
        bad = EnsembleEntry(factor=Factor(nodes=(0,)), string=PauliString.from_str("X"), jsq=-1.0)
        with pytest.raises(InvalidParams):
            ensemble_spec("pauli", 1, [bad])
        with pytest.raises(InvalidParams):
            ensemble_spec("majorana", 2, [good.entries[0]])

    def test_complete_spin(self):
        spec = complete_spin_spec(5, 2, jbar=2.0)
        assert len(spec.entries) == 10
        assert spec.entries[0].jsq == pytest.approx(4.0 * 1 / (2 * 5))
        spec3 = complete_spin_spec(5, 3)
        assert len(spec3.entries) == 10
        assert spec3.entries[0].jsq == pytest.approx(2.0 / (3 * 25))
        with pytest.raises(InvalidParams):
            complete_spin_spec(3, 4)

    def test_su2_heisenberg(self):
        spec = su2_heisenberg_spec(4)
        assert len(spec.entries) == 3 * 6
        assert all(e.jsq == pytest.approx(0.25) for e in spec.entries)
        flavors = {e.factor.flavor for e in spec.entries}
        assert flavors == {0, 1, 2}
        # one bond's three flavors sum to the Heisenberg coupling, norm 3
        bond = [e.string for e in spec.entries if e.factor.nodes == (0, 1)]
        H = sum(pauli_dense(s) for s in bond)
        assert np.linalg.norm(H, 2) == pytest.approx(3.0, abs=1e-12)

    def test_syk_spec(self):
        spec = syk_spec(8, 4)
        assert len(spec.entries) == 70
        assert spec.entries[0].jsq == pytest.approx(syk_variance(8, 4))
        assert spec.entries[0].factor.nodes == (0, 1, 2, 3)
        assert spec.entries[0].string == (1, 2, 3, 4)
        with pytest.raises(InvalidParams):
            syk_spec(8, 3)

    def test_ensemble_graph_weights(self):
        g = ensemble_graph(triangle_spec())
        assert all(w == pytest.approx(0.3) for w in g.weights)
        assert g.graph.n_nodes == 3


class TestSampling:
    def test_gaussian_moments(self):
        spec = su2_heisenberg_spec(4, seed=7)
        draws = np.array(
            [[t.coupling for t in sample_hamiltonian(spec, s)] for s in range(10_000)]
        )
        m = draws.size
        assert abs(draws.mean()) < 3.0 * math.sqrt(0.25 / m)
        target = 0.25
        assert abs((draws**2).mean() - target) < 3.0 * target * math.sqrt(2.0 / m)

    def test_rademacher_support(self):
        spec = triangle_spec(law="rademacher")
        for s in range(50):
            for term in sample_hamiltonian(spec, s):
                assert abs(term.coupling) == pytest.approx(0.3)

    def test_substream_determinism(self):
        spec = triangle_spec(seed=9)
        assert sample_hamiltonian(spec, 3) == sample_hamiltonian(spec, 3)
        a = [t.coupling for t in sample_hamiltonian(spec, 0)]
        b = [t.coupling for t in sample_hamiltonian(spec, 1)]
        assert a != b

    def test_pairwise_sum_matches_fsum(self):
        rng = np.random.default_rng(0)
        vals = list(rng.normal(size=1000))
        assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), rel=1e-14)


class TestMonteCarlo:
    def test_time_zero_mean(self):
        mc = mc_expect_c2(triangle_spec(), 0, 2, (0.0, 0.3), 20)
        assert mc.mean[0] == 0.0
        assert mc.stderr[0] == 0.0

    def test_deterministic_magnitude_zero_stderr(self):
        # single rademacher coupling: |J| fixed, so C is sample-independent
        e = EnsembleEntry(
            factor=Factor(nodes=(0, 1)),
            string=PauliString.from_str("XX"),
            jsq=0.25,
        )
        spec = ensemble_spec("pauli", 2, [e], law="rademacher")
        mc = mc_expect_c2(spec, 0, 1, (0.4, 0.8), 8)
        assert all(se == 0.0 for se in mc.stderr)
        assert all(0.0 < m <= 1.0 for m in mc.mean)

    def test_reproducible(self):
        a = mc_expect_c2(triangle_spec(), 0, 2, (0.3, 0.7), 30)
        b = mc_expect_c2(triangle_spec(), 0, 2, (0.3, 0.7), 30)
        assert a == b
        assert a.n_samples == 30
        with pytest.raises(InvalidParams):
            mc_expect_c2(triangle_spec(), 0, 2, (0.3,), 0)

    def test_mean_in_unit_interval_and_curve(self):
        mc = mc_expect_c2(triangle_spec(), 0, 2, (0.2, 0.6, 1.0), 50)
        assert all(0.0 <= m <= 1.0 for m in mc.mean)
        curve = mc.mean_curve()
        assert isinstance(curve, BoundCurve)
        assert curve.values == mc.mean

    def test_below_bruteforce_bound_both_laws(self):
        g = ensemble_graph(triangle_spec())
        for law in ("gaussian", "rademacher"):
            mc = mc_expect_c2(triangle_spec(law=law), 0, 2, (0.2, 0.6, 1.0), 300)
            for t, m, se in zip(mc.times, mc.mean, mc.stderr):
                assert m <= theorem4_bound_bruteforce(g, 0, 2, t).value + 3 * se

    def test_below_genus_series_complete_graph(self):
        for q in (2, 3):
            spec = complete_spin_spec(5, q, jbar=1.0, seed=3)
            mc = mc_expect_c2(spec, 0, 4, (0.05, 0.2, 0.5), 60)
            for t, m, se in zip(mc.times, mc.mean, mc.stderr):
                bound = theoremFS_series(5, q, 1.0, t, 4).value
                assert m <= bound + 3 * se

    def test_below_genus_series_syk(self):
        spec = syk_spec(8, 4, jbar=1.0, seed=4)
        mc = mc_expect_c2(spec, 1, 2, (0.1, 0.3), 20)
        for t, m, se in zip(mc.times, mc.mean, mc.stderr):
            bound = theoremFS_series(8, 4, 1.0, t, 7).value
            assert m <= bound + 3 * se


class TestTheoremFS:
    def test_zero_time(self):
        r = theoremFS_series(12, 4, 1.0, 0.0, 11)
        assert r.value == pytest.approx(1 / 12)
        assert r.terms[1:] == tuple([0.0] * 11)

    def test_lambda_star_pin(self):
        assert theoremFS_series(12, 4, 1.0, 0.1, 0).lam_star == 24 * math.sqrt(3)
        assert theoremFS_series(10, 2, 0.5, 0.1, 0).lam_star == pytest.approx(
            24 * math.sqrt(2) / 2
        )

    def test_genus_zero_truncation(self):
        r = theoremFS_series(10, 3, 0.7, 0.2, 0)
        assert r.value == pytest.approx(math.exp(r.lam_star * 0.2) / 10)

    def test_term_ratio_identity(self):
        r = theoremFS_series(8, 2, 1.0, 0.001, 7)
        x = r.terms[1] / r.terms[0]
        for g in range(7):
            assert r.terms[g + 1] / r.terms[g] == pytest.approx((g + 1) * x)

    def test_genus_range(self):
        with pytest.raises(GenusOutOfRange):
            theoremFS_series(8, 2, 1.0, 0.1, 8)
        with pytest.raises(GenusOutOfRange):
            theoremFS_series(8, 2, 1.0, 0.1, -1)

    def test_majorant_dominates_series(self):
        for t in (1e-5, 1e-4):
            r = theoremFS_series(6, 2, 1.0, t, 5)
            assert r.majorant < math.inf
            assert r.value <= r.majorant

    def test_majorant_divergence(self):
        r = theoremFS_series(6, 2, 1.0, 1.0, 5)
        assert r.majorant == math.inf
        td = r.majorant_divergence_time
        base = 6144.0 * math.e**4 * (td) ** 2 * math.exp(r.lam_star * td)
        assert base == pytest.approx(1.0, rel=1e-5)


class TestSykBounds:
    def test_zero_time_and_badq(self):
        assert syk_genus0_bound(10, 4, 1.0, 0.0) == pytest.approx(0.1)
        assert syk_largeq_exact(10, 1.0, 0.0) == pytest.approx(0.1)
        with pytest.raises(BadQ):
            syk_genus0_bound(10, 2, 1.0, 0.1)
        with pytest.raises(BadQ):
            syk_genus0_bound(10, 5, 1.0, 0.1)

    def test_rate_exceeds_largeq_by_sqrt2(self):
        # bound rate 2 sqrt(2(q-1)/q) J vs exact large-q rate 2 J
        q = 10**6
        assert 2 * math.sqrt(2 * (q - 1) / q) / 2 == pytest.approx(
            math.sqrt(2), abs=1e-6
        )

    def test_rate_ratio_monotone_limit(self):
        qs = [2, 4, 8, 16, 64, 10**6]
        ratios = [syk_rate_ratio(q) for q in qs]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=1e-6)
        assert syk_rate_ratio(2) == pytest.approx(math.sqrt(0.5))


class TestSqrtLogN:
    def test_zero_time(self):
        assert sqrtlogn_bound(100, 4, 1.0, 0.0) == 0.0

    def test_monotone_increasing(self):
        ts = np.linspace(0.0, 2.0, 40)
        vals = [sqrtlogn_bound(1000, 2, 1.0, float(t)) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v >= 0 for v in vals)

    def test_first_term_structure(self):
        # at large N the N^-2 correction is negligible
        n, q, t = 10**6, 3, 0.3
        gamma = (q - 1) / q
        first = (math.cosh(4 * math.sqrt(gamma) * t) - 1) / n
        assert sqrtlogn_bound(n, q, 1.0, t) == pytest.approx(first, rel=1e-4)

    def test_large_n_finite_time_vanishes(self):
        assert sqrtlogn_bound(10**9, 2, 1.0, 1.0) == pytest.approx(
            7.73318673427396e-09, rel=1e-12, abs=0
        )
        with pytest.raises(InvalidParams):
            sqrtlogn_bound(10, 1, 1.0, 0.1)
        with pytest.raises(InvalidParams):
            sqrtlogn_bound(0, 2, 1.0, 0.1)

    def test_huge_n_no_overflow(self):
        # n^2 beyond float range once n >= 1e155, n itself once n >= 1e309
        at_1e9 = sqrtlogn_bound(10**9, 2, 1.0, 1.0)
        first = math.cosh(2.0 * math.sqrt(2.0)) - 1.0
        for e in (155, 200, 400):
            value = sqrtlogn_bound(10**e, 2, 1.0, 1.0)
            assert math.isfinite(value) and value <= at_1e9
            assert value == pytest.approx(first * 10.0**-e, rel=1e-12)
        # u = 648 at t = 9: the N^-2 term still counts at n = 1e300
        second = 2.0 * (math.e - 1.0) * 648.0 * math.exp(
            2.0 * 648.0 - 600.0 * math.log(10.0)
        )
        assert sqrtlogn_bound(10**300, 2, 1.0, 9.0) == pytest.approx(
            second, rel=1e-9
        )

    def test_never_nan(self):
        # past the range of exp the bound is +inf, not 0 * inf
        for n in (10, 10**6, 10**200, 10**400):
            for t in (0.0, 0.5, 9.0, 9.5, 100.0, math.inf):
                value = sqrtlogn_bound(n, 2, 1.0, t)
                assert not math.isnan(value) and value >= 0.0
            assert sqrtlogn_bound(n, 2, 1.0, 100.0) == math.inf


class TestScramblingTime:
    def test_delta_domain(self):
        for d in (0.0, 1.0, 1.5):
            with pytest.raises(InvalidParams):
                scrambling_time(lambda t: t, d)

    def test_cosh_inversion_oracle(self):
        n, q, jbar, delta = 10_000, 4, 1.0, 0.5
        gamma = (q - 1) / q
        fn = lambda t: (math.cosh(4 * math.sqrt(gamma) * jbar * t) - 1) / n
        v = scrambling_time(fn, delta, mode="bound_crossing")
        assert v.verdict == "crossed"
        analytic = math.acosh(delta**2 * n) / (4 * math.sqrt(gamma) * jbar)
        assert v.t_star == pytest.approx(analytic, rel=0.01)

    def test_immediate_and_open(self):
        v = scrambling_time(lambda t: 1.0, 0.5)
        assert v.t_star == 0.0 and v.verdict == "crossed"
        o = scrambling_time(lambda t: 1e-9, 0.99, t_max=10.0)
        assert o.verdict == "open" and o.t_star is None
        assert o.scanned == (0.0, 10.0)

    def test_exact_curve_mode(self):
        grid = (0.0, 0.5, 1.0, 1.5)
        pair_a = BoundCurve(times=grid, values=(0.0, 0.1, 0.7, 0.2), label="a")
        pair_b = BoundCurve(times=grid, values=(0.0, 0.6, 0.65, 0.9), label="b")
        v = scrambling_time([pair_a, pair_b], 0.5, mode="exact_curve")
        # running max: a crosses 0.5 at t=1.0, b at t=0.5; both only at 1.0
        assert v.t_star == 1.0 and v.verdict == "crossed"
        single = scrambling_time(pair_a, 0.65, mode="exact_curve")
        assert single.t_star == 1.0
        never = scrambling_time([pair_a], 0.9, mode="exact_curve")
        assert never.verdict == "open" and never.scanned == (0.0, 1.5)

    def test_exact_curve_grid_mismatch_and_mode(self):
        a = BoundCurve(times=(0.0, 1.0), values=(0.0, 0.5), label="a")
        b = BoundCurve(times=(0.0, 2.0), values=(0.0, 0.5), label="b")
        with pytest.raises(InvalidParams):
            scrambling_time([a, b], 0.3, mode="exact_curve")
        with pytest.raises(InvalidParams):
            scrambling_time(a, 0.3, mode="grid")

    def test_sqrtlogn_crossing_times_frozen(self):
        # regression pins for the delta=0.1, q=2, J=1 crossing of delta^2;
        # the scaling ratio sits at 1.72, not at sqrt(2) ~ 1.41
        ts = {}
        for n in (10**3, 10**6):
            fn = lambda t, n=n: sqrtlogn_bound(n, 2, 1.0, t)
            ts[n] = scrambling_time(fn, 0.1).t_star
        assert ts[10**3] == pytest.approx(0.641330, abs=1e-4)
        assert ts[10**6] == pytest.approx(1.104324, abs=1e-4)
        assert ts[10**6] / ts[10**3] == pytest.approx(1.721926, abs=1e-3)
