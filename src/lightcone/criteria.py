"""The shipped guarantees, one function each, run by the tests and `lightcone check`.

``CRITERIA`` lists them in order as (id, label, function); a function
raises ``ComputeError``, with the offending values, when its guarantee
fails.  c01-c13 are the acceptance criteria; ``self`` holds simulation
and series self-checks that no criterion covers.  Criterion 7's census
bound N(b,l) <= b^l is an equality exactly on the b = 1 column.
Criterion 12's sqrt(log N) law is asymptotic: the crossing-time ratio
t*(N^2)/t*(N) at delta = 0.1 is ~1.72 at N = 1e3 and falls strictly
towards sqrt(2) as N grows.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from .causal_pairs import (
    causal_graph_props,
    count_orderings,
    random_irreducible_pair,
    theorem4_bound_bruteforce,
    theorem4_coefficients,
)
from .causal_trees import lemma4_bijection_check, schwinger_karplus_check
from .correlators import c_ij_exact, hatc_ij_exact
from .ensembles import (
    EnsembleEntry,
    ensemble_graph,
    ensemble_spec,
    mc_expect_c2,
    scrambling_time,
    sqrtlogn_bound,
    syk_rate_ratio,
    syk_spec,
    theoremFS_series,
)
from .errors import ComputeError
from .factor_graph import Factor, as_weighted, build_graph, standard_graph
from .liouville import (
    build_syk_hamiltonian,
    evolve_operator,
    majorana_mode,
    norm,
    single_site_pauli,
    spin_term,
)
from .path_bounds import (
    bessel_i,
    corollary6_bound,
    enumerate_irreducible_paths,
    golden_section_min,
    h_matrices,
    lieb_robinson_bound,
    theorem3_bound,
)
from .pauli import PauliString
from .tree_counts import nbl

__all__ = ["CRITERIA", "Criterion"]


class Criterion(NamedTuple):
    id: str
    label: str
    run: Callable[[], None]


def _require(ok: bool, what: str, **values) -> None:
    """Raise ComputeError naming the failed check and its values unless ok."""
    if not ok:
        raise ComputeError(what + ": " + ", ".join(f"{k}={v!r}" for k, v in values.items()))


def _require_close(what: str, actual: float, expected: float, *, rel=None, atol=None):
    """|actual - expected| within max(rel |expected|, 1e-12), or within atol."""
    tol = atol if rel is None else max(rel * abs(expected), 1e-12)
    _require(abs(actual - expected) <= tol, what, actual=actual, expected=expected, tol=tol)


def _random_2local(stream: int, trial: int, n_lo: int, n_hi: int):
    """Random 2-local qubit Hamiltonian: unit couplings up to sign,
    one random two-letter Pauli string per sampled pair."""
    rng = np.random.default_rng([stream, trial])
    n = int(rng.integers(n_lo, n_hi + 1))
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    k = int(rng.integers(max(1, n - 1), len(pairs) + 1))
    terms = []
    for a, b in pairs[:k]:
        labels = "".join(rng.choice(list("XYZ"), size=2))
        sign = float(rng.choice([-1.0, 1.0]))
        terms.append(spin_term(n, (a, b), labels, sign))
    return n, terms, rng


def _triangle_entries():
    factors = [Factor(nodes=(0, 1)), Factor(nodes=(1, 2)), Factor(nodes=(0, 2))]
    return [
        EnsembleEntry(
            factor=f,
            string=PauliString(
                labels=tuple(1 if s in f.nodes else 0 for s in range(3))
            ),
            jsq=0.09,
        )
        for f in factors
    ]


def c01() -> None:
    g = as_weighted(standard_graph("chain", 41))
    i, j = 14, 26  # separation 12, interior so the boundary is invisible
    for k in range(1, 21):
        t = 0.25 * k
        thm3 = theorem3_bound(g, i, j, t, l_max=24)
        cor6 = corollary6_bound(g, i, j, t)
        lr = lieb_robinson_bound(g, i, j, t, alpha=math.e)
        _require(thm3 <= cor6 + 1e-9, "thm3 above cor6", t=t, thm3=thm3, cor6=cor6)
        _require(cor6 <= lr + 1e-9, "cor6 above lr", t=t, cor6=cor6, lr=lr)
        ref = bessel_i(12, 4.0 * t)
        _require(abs(cor6 - ref) <= 1e-6 * ref, "cor6 off I_12(4t)", t=t, cor6=cor6, ref=ref)


def c02() -> None:
    times = tuple(np.linspace(0.0, 2.0, 9))
    for trial in range(20):
        n, terms, _ = _random_2local(7, trial, 2, 6)
        g = as_weighted(build_graph(n, [term.factor for term in terms]))
        for i in range(n):
            a_i = single_site_pauli(n, i, "Z")
            for j in range(n):
                if j == i:
                    continue
                curve = c_ij_exact(terms, i, j, a_i, times)
                for t, v in zip(times, curve.values):
                    bound = theorem3_bound(g, i, j, t)
                    _require(v <= bound + 1e-8, "C above thm3", trial=trial, i=i, j=j, t=t,
                             c=v, thm3=bound)


def c03() -> None:
    checked = 0
    for trial in range(250):
        n, terms, rng = _random_2local(3, trial, 2, 4)
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        ts = tuple(sorted(rng.uniform(0.05, 2.0, size=4)))
        a_i = single_site_pauli(n, i, "Z")
        c = c_ij_exact(terms, i, j, a_i, ts)
        hc = hatc_ij_exact(terms, i, j, a_i, ts)
        for cv, hv in zip(c.values, hc.values):
            _require(hv / math.sqrt(3.0) <= cv, "hatC/sqrt(3) above C", trial=trial, c=cv,
                     hc=hv)
            _require(cv <= math.sqrt(1.5) * hv + 1e-8, "C above sqrt(1.5) hatC", trial=trial,
                     c=cv, hc=hv)
            checked += 1
    _require(checked == 1000, "not 1000 values checked", checked=checked)


def c04() -> None:
    follows = 0
    for trial in range(100):
        rng = np.random.default_rng([4, trial])
        n = int(rng.integers(2, 9))
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        k = int(rng.integers(1, min(len(pairs), 2 * n) + 1))
        chosen = [Factor(nodes=p) for p in pairs[:k]]
        weights = {f: float(rng.uniform(0.1, 2.0)) for f in chosen}
        hm = h_matrices(as_weighted(build_graph(n, chosen), weights))
        # single-factor graphs achieve equality; allow float rounding only
        _require(hm.h_tilde_max >= 2.0 * hm.h_max * (1.0 - 1e-12) - 1e-15, "h_tilde below 2h",
                 trial=trial, h_tilde_max=hm.h_tilde_max, h_max=hm.h_max)
        follows += 1
        if trial < 10:
            _, best = golden_section_min(
                lambda lam: 2.0 * hm.h_tilde_max * math.exp(lam) / lam,
                1e-6,
                math.log(1e3),
                tol=1e-13,
            )
            target = 2.0 * math.e * hm.h_tilde_max
            _require(abs(best - target) <= 1e-9 * target, "velocity infimum off", trial=trial,
                     best=best, target=target)
    _require(follows == 100, "not 100 graphs checked", follows=follows)


def c05() -> None:
    for ell in (0, 1, 2):
        for seed in range(10):
            ok = schwinger_karplus_check(ell, 4, 0.7, seed, tol=1e-6)
            _require(ok, "identity fails", ell=ell, seed=seed)


def c06() -> None:
    chain = build_graph(3, [(0, 1), (1, 2)])
    (path,) = [
        p for p in enumerate_irreducible_paths(chain, 0, 2) if len(p) == 2
    ]
    _require(lemma4_bijection_check(chain, path, 5), "bijection fails", graph="chain")

    branched = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    (path,) = [
        p for p in enumerate_irreducible_paths(branched, 0, 2) if len(p) == 2
    ]
    _require(lemma4_bijection_check(branched, path, 5), "bijection fails", graph="branched")


def c07() -> None:
    for ell in range(1, 6):
        for b in range(1, ell + 1):
            brute, gf = nbl(b, ell, "bruteforce"), nbl(b, ell, "generating_function")
            _require(brute == gf, "census routes differ", b=b, ell=ell, brute=brute, gf=gf)
    for ell in range(1, 13):
        _require(nbl(1, ell) == 1, "N(1, l) is not 1", ell=ell)
    for ell in range(1, 13):
        for b in range(1, ell + 1):
            count = nbl(b, ell)
            _require(count <= b**ell, "N(b, l) exceeds b^l", b=b, ell=ell, count=count)
            _require((count == b**ell) == (b == 1), "N(b, l) = b^l must hold exactly at b = 1",
                     b=b, ell=ell, count=count)


def c08() -> None:
    violations = []
    for seed in range(10_000):
        pair, g = random_irreducible_pair(8, seed)
        props = causal_graph_props(pair, g)
        if not (props.prop13 and props.prop14 and props.prop15):
            violations.append((seed, props))
    _require(violations == [], "props 13-15 fail", violations=violations)


def c09() -> None:
    times = tuple(np.linspace(0.25, 1.0, 4))
    entries = _triangle_entries()
    # hand-expanded series for this graph, frozen as an independent check
    wg = ensemble_graph(ensemble_spec("pauli", 3, entries))
    coeffs = theorem4_coefficients(wg, 0, 2, 3)
    _require_close("coeffs[2]", coeffs[2], 0.36, rel=1e-12)
    _require_close("coeffs[4]", coeffs[4], 0.0324, rel=1e-12)
    for law in ("gaussian", "rademacher"):
        spec = ensemble_spec("pauli", 3, entries, law=law, seed=9)
        mc = mc_expect_c2(spec, 0, 2, times, 2000)
        for k, t in enumerate(times):
            bound = theorem4_bound_bruteforce(wg, 0, 2, t).value
            _require(mc.mean[k] <= bound + 3.0 * mc.stderr[k], "MC above bound", law=law, t=t,
                     mean=mc.mean[k], stderr=mc.stderr[k], bound=bound)


def c10() -> None:
    spec = syk_spec(12, 4, 1.0, seed=42)
    times = tuple(np.linspace(0.1, 0.5, 5))
    mc = mc_expect_c2(spec, 1, 12, times, 50)
    for k, t in enumerate(times):
        report = theoremFS_series(12, 4, 1.0, t, 11)
        _require(report.lam_star == 24.0 * math.sqrt(3.0), "lam_star off", lam=report.lam_star)
        _require(mc.mean[k] <= report.value + 3.0 * mc.stderr[k], "MC above genus series",
                 t=t, mean=mc.mean[k], stderr=mc.stderr[k], series=report.value)
    ratios = [syk_rate_ratio(q) for q in range(2, 51, 2)]
    _require(all(a < b for a, b in zip(ratios, ratios[1:])), "not rising", ratios=ratios)
    _require(all(r < 1.0 for r in ratios), "rate ratio reaches 1", ratios=ratios)
    _require_close("syk_rate_ratio(1e8)", syk_rate_ratio(10**8), 1.0, atol=1e-8)


def c11() -> None:
    n = 6
    terms = [
        spin_term(n, (0, 1), "XX", 1.0),
        spin_term(n, (1, 2), "YY", 1.0),
        spin_term(n, (2, 3), "XX", 1.0),
        spin_term(n, (3, 4), "YY", 1.0),
        spin_term(n, (4, 5), "XX", 1.0),
    ]
    fit_ts = (5e-3, 1e-2, 2e-2)
    curve = c_ij_exact(terms, 0, 5, single_site_pauli(n, 0, "Z"), fit_ts)
    us = [t * t for t in fit_ts]
    rs = [v / t**5 for t, v in zip(fit_ts, curve.values)]
    fitted = 0.0  # Lagrange extrapolation of C(t)/t^5 to t = 0
    for k in range(3):
        w = 1.0
        for m in range(3):
            if m != k:
                w *= us[m] / (us[m] - us[k])
        fitted += w * rs[k]
    g = as_weighted(build_graph(n, [term.factor for term in terms]))
    # the unique length-5 path makes the bound a pure monomial, so its
    # leading coefficient is just the value at t = 1
    leading = theorem3_bound(g, 0, 5, 1.0)
    _require_close("thm3 leading coefficient", leading, 2**5 / math.factorial(5), rel=1e-12)
    _require_close("fitted C(t)/t^5 at t = 0", fitted, leading, rel=0.01)


def c12() -> None:
    delta = 0.1

    def bound_at(n_sites):
        return lambda t: sqrtlogn_bound(n_sites, 2, 1.0, t)

    v3 = scrambling_time(bound_at(10**3), delta)
    v6 = scrambling_time(bound_at(10**6), delta)
    _require(v3.verdict == "crossed" and v6.verdict == "crossed", "no crossing",
             v3=v3.verdict, v6=v6.verdict)
    _require_close("t*(1e3)", v3.t_star, 0.641330, atol=1e-5)
    _require_close("t*(1e6)", v6.t_star, 1.104324, atol=1e-5)
    vanishing = sqrtlogn_bound(10**9, 2, 1.0, 1.0)
    _require(vanishing < 1e-6, "bound at N = 1e9, t = 1 not vanishing", value=vanishing)
    # the asymptotic law along N = 1e3, 1e6, ..., 1e96, each N the square
    # of the one before: t*(N^2)/t*(N) falls strictly towards sqrt(2), and
    # 16 gamma t*^2 / ln N rises towards 1
    ns = [10 ** (3 * 2**k) for k in range(6)]
    t_star = []
    for n_sites in ns:
        v = scrambling_time(bound_at(n_sites), delta)
        _require(v.verdict == "crossed", "no crossing", n_sites=n_sites, verdict=v.verdict)
        t_star.append(v.t_star)
    ratios = [b / a for a, b in zip(t_star, t_star[1:])]
    _require(all(b < a for a, b in zip(ratios, ratios[1:])), "not falling", ratios=ratios)
    _require_close("last t* ratio", ratios[-1], math.sqrt(2.0), rel=0.02)
    gamma = 0.5  # (q - 1) / q at q = 2
    scaled = [16.0 * gamma * t * t / math.log(n) for n, t in zip(ns, t_star)]
    _require(all(a < b for a, b in zip(scaled, scaled[1:])), "not rising", scaled=scaled)
    _require(scaled[-1] < 1.0, "scaled reaches 1", scaled=scaled)


def c13() -> None:
    for a in range(31):
        for b in range(31):
            bound = 2 ** (a + b) * math.factorial(a) * math.factorial(b)
            _require(math.factorial(a + b) <= bound, "(a+b)! above 2^(a+b) a! b!", a=a, b=b)


def _distance(one, two) -> float:
    """l2 distance between two operator vectors of one basis."""
    return math.sqrt(
        sum(
            (one.terms.get(k, 0.0) - two.terms.get(k, 0.0)) ** 2
            for k in set(one.terms) | set(two.terms)
        )
    )


def self_checks() -> None:
    rng = np.random.default_rng(2024)
    n = 4
    terms = []
    for k in range(n - 1):
        terms.append(spin_term(n, (k, k + 1), "XX", float(rng.normal())))
        terms.append(spin_term(n, (k, k + 1), "ZZ", float(rng.normal())))
    o = single_site_pauli(n, 0, "X")
    ev = evolve_operator(terms, o, 1.5)
    _require(abs(norm(ev) - 1.0) < 1e-10, "norm drift in dense evolution", norm=norm(ev))
    half = evolve_operator(terms, o, 0.6, method="krylov")
    two = evolve_operator(terms, half, 0.9, method="krylov")
    one = evolve_operator(terms, o, 1.5, method="krylov")
    gap = _distance(one, two)
    _require(gap < 1e-9, "time additivity broken in Krylov evolution", gap=gap)

    syk = build_syk_hamiltonian(8, 4, seed=2024)
    psi = majorana_mode(8, 1)
    dense = evolve_operator(syk, psi, 0.8)
    krylov = evolve_operator(syk, psi, 0.8, method="krylov", tol=1e-12)
    gap = _distance(dense, krylov)
    _require(gap < 1e-8, "Majorana Krylov and dense disagree", gap=gap)

    pair, g = random_irreducible_pair(6, seed=0)
    counts = count_orderings(pair, g)
    _require(counts.n_psi >= 1, "empty ordering set", n_psi=counts.n_psi)

    r = theoremFS_series(8, 4, 1.0, 0.2, 5)
    _require(r.lam_star == 24 * math.sqrt(3), "rate constant off", lam=r.lam_star)
    x = r.terms[1] / r.terms[0]
    for g_idx in range(5):
        ratio = r.terms[g_idx + 1] / r.terms[g_idx]
        _require(abs(ratio - (g_idx + 1) * x) <= 1e-10 * (g_idx + 1) * x,
                 "genus-term ratio broken", g=g_idx, ratio=ratio, x=x)


CRITERIA: tuple[Criterion, ...] = (
    Criterion("c01", "chain bound ordering and closed form", c01),
    Criterion("c02", "exact below path sum all pairs", c02),
    Criterion("c03", "probe projector sandwich", c03),
    Criterion("c04", "velocity infimum and matrix dominance", c04),
    Criterion("c05", "interleaved exponential identity", c05),
    Criterion("c06", "slot interleaving bijection", c06),
    Criterion("c07", "attachment count identities", c07),
    Criterion("c08", "causal graph structure props", c08),
    Criterion("c09", "ensemble mc under double word bound", c09),
    Criterion("c10", "majorana ensemble under genus series", c10),
    Criterion("c11", "early time tightness", c11),
    Criterion("c12", "sqrt logn crossing ratio and finite time vanishing", c12),
    Criterion("c13", "binomial factorial inequality", c13),
    Criterion(
        "self",
        "norm preservation, Krylov additivity, Majorana Krylov vs dense, "
        "ordering census, genus-term ratios",
        self_checks,
    ),
)
