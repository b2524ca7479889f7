"""The benchmark's checks pass on lightcone's outputs and reject perturbed ones.

    python3 -m pytest perfbench/test_checks.py -q
"""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import lightcone as lc  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402
from worker import tail  # noqa: E402

TIMES = workloads.BOUND_TIMES


def scaled(curve, k, factor):
    out = list(curve)
    out[k] *= factor
    return out


def chain(n, weights):
    return lc.as_weighted(lc.build_graph(n, [(k, k + 1) for k in range(n - 1)]), weights)


@pytest.fixture(scope="module")
def unit_chain():
    n, i, j = 60, 12, 41
    w = [1.0] * (n - 1)
    return w, i, j, workloads.bound_curves(chain(n, w), i, j, abs(i - j))


@pytest.fixture(scope="module")
def weighted_chain():
    n, i, j = 60, 23, 20
    w = list(0.5 + (k % 7) / 7 for k in range(n - 1))
    return w, i, j, workloads.bound_curves(chain(n, w), i, j, abs(i - j))


def test_unit_chain_passes_and_rejects_perturbations(unit_chain):
    w, i, j, (thm3, cor6, lr) = unit_chain
    refs.check_chain_curves((thm3, cor6, lr), w, i, j, TIMES, unit=True)
    for bad in (
        (thm3, scaled(cor6, 1, 1 - 1e-9), lr),
        (scaled(thm3, 0, 1 + 1e-9), cor6, lr),
        (thm3, cor6, scaled(lr, 2, 0.5 * cor6[2] / lr[2])),
    ):
        with pytest.raises(refs.CheckFailed):
            refs.check_chain_curves(bad, w, i, j, TIMES, unit=True)


def test_weighted_chain_passes_and_rejects_perturbations(weighted_chain):
    w, i, j, (thm3, cor6, lr) = weighted_chain
    refs.check_chain_curves((thm3, cor6, lr), w, i, j, TIMES, unit=False)
    for bad in (
        (scaled(thm3, 2, 1 - 1e-9), cor6, lr),
        (thm3, scaled(cor6, 2, 1 - 1e-6), lr),
    ):
        with pytest.raises(refs.CheckFailed):
            refs.check_chain_curves(bad, w, i, j, TIMES, unit=False)


def test_images_sum_is_the_bessel_series_away_from_the_ends():
    # interior pair: the reflections vanish, leaving I_d(4t)
    assert refs.unit_chain_images(200, 90, 102, 1.5) == pytest.approx(lc.bessel_i(12, 6.0), rel=1e-12)


@pytest.fixture(scope="module")
def small_graph():
    n = 6
    factors = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)]
    weights = [0.6, 1.3, 0.9, 1.1, 0.7, 1.4, 0.8, 1.2]
    g = lc.as_weighted(lc.build_graph(n, factors), weights)
    curves = workloads.bound_curves(g, 0, 5, None)
    return n, factors, weights, curves, len(lc.enumerate_irreducible_paths(g, 0, 5))


def test_graph_passes_and_rejects_a_dropped_path(small_graph):
    n, factors, weights, (thm3, cor6, lr), n_paths = small_graph
    refs.check_graph_curves((thm3, cor6, lr), n_paths, n, factors, weights, 0, 5, TIMES)
    with pytest.raises(refs.CheckFailed):
        refs.check_graph_curves((thm3, cor6, lr), n_paths - 1, n, factors, weights, 0, 5, TIMES)
    terms = refs.simple_path_terms(n, factors, weights, 0, 5)
    dropped = [refs.path_sum(terms[1:], t) for t in TIMES]
    with pytest.raises(refs.CheckFailed):
        refs.check_graph_curves((dropped, cor6, lr), n_paths, n, factors, weights, 0, 5, TIMES)
    with pytest.raises(refs.CheckFailed):
        refs.check_graph_curves((thm3, scaled(cor6, 0, 1 + 1e-6), lr), n_paths, n, factors, weights, 0, 5, TIMES)


@pytest.fixture(scope="module")
def exact_case():
    rng = workloads._rng(0, 0, 0)
    n = 4
    terms = workloads._random_2local(rng, n, 5)
    a_i = lc.single_site_pauli(n, 0, "Z")
    times = workloads.EXACT_TIMES
    c = lc.c_ij_exact(terms, 0, n - 1, a_i, times).values
    hc = lc.hatc_ij_exact(terms, 0, n - 1, a_i, times).values
    return terms, n, times, c, hc


def test_exact_curve_passes_and_rejects_a_shift(exact_case):
    terms, n, times, c, hc = exact_case
    workloads._exact_check(terms, n, 0, n - 1, times, c, "case")
    refs.check_sandwich(c, hc, "case")
    shifted = [v + 1e-6 for v in c]
    with pytest.raises(refs.CheckFailed):
        workloads._exact_check(terms, n, 0, n - 1, times, shifted, "case")
    with pytest.raises(refs.CheckFailed):
        refs.check_sandwich(c, [v * 0.1 for v in hc], "case")


def test_krylov_matches_the_hilbert_space_reference():
    rng = workloads._rng(0, 0, 1)
    terms = workloads._xxz_chain(rng, 3)
    a_i = lc.single_site_pauli(3, 0, "Z")
    c = lc.c_ij_exact(terms, 0, 2, a_i, (0.5, 1.0), method="krylov").values
    workloads._exact_check(terms, 3, 0, 2, (0.5, 1.0), c, "krylov")


def test_mc_check_rejects_a_mean_above_the_bound():
    refs.check_mc([0.1, 0.2], [0.01, 0.01], [0.1, 0.25], "mc")
    with pytest.raises(refs.CheckFailed):
        refs.check_mc([0.1, 0.2], [0.01, 0.01], [0.06, 0.25], "mc")


def test_nbl_table_is_eulerian_and_the_reference_can_fail():
    for ell in range(1, 9):
        for b in range(1, ell + 1):
            assert lc.nbl(b, ell) == refs.eulerian(b, ell)
    assert refs.eulerian(2, 4) == 11 and refs.eulerian(3, 5) == 66


def test_props_check_rejects_a_wrong_genus():
    pair, g = lc.random_irreducible_pair(8, 3)
    props = lc.causal_graph_props(pair, g)
    refs.check_props(props, g.n_nodes, "pair")
    with pytest.raises(refs.CheckFailed):
        refs.check_props(dataclasses.replace(props, genus=props.genus + 1), g.n_nodes, "pair")
    with pytest.raises(refs.CheckFailed):
        refs.check_props(dataclasses.replace(props, prop14=False), g.n_nodes, "pair")


def test_orderings_check_rejects_an_empty_census():
    pair, g = lc.random_irreducible_pair(6, 5)
    counts = lc.count_orderings(pair, g)
    refs.check_orderings(counts, len(pair.factors), "pair")
    with pytest.raises(refs.CheckFailed):
        refs.check_orderings(dataclasses.replace(counts, n_psi=0), len(pair.factors), "pair")


def test_triangle_coefficients_and_their_perturbation():
    w = math.sqrt(0.09 * 1.5)
    op = workloads.Causal(0)._theorem4_op("tri", 3, [(0, 1), (0, 2), (1, 2)], [w, w, w], 0, 2, 1.5)
    values = op.run()
    op.check(values)
    wg = lc.as_weighted(lc.build_graph(3, [(0, 1), (0, 2), (1, 2)]), [w, w, w])
    coeffs = lc.theorem4_coefficients(wg, 0, 2, 3)
    bad = dict(coeffs)
    bad[4] *= 1 + 1e-9
    with pytest.raises(refs.CheckFailed):
        refs.check_theorem4(values, bad, [w], workloads.CAUSAL_TIMES, "tri", 1.5)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    times = [float(k) for k in range(1, 61)]
    value, pct = tail(times)
    assert pct == 83 and sum(1 for t in times if t > value) == 10
    assert tail(times[:10]) == (10.0, 100)
