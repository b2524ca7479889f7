"""Command-line front end: bounds, simulation, ensembles, figures, checks.

Artifacts are CSV (or JSON) with a comment header echoing the full run
config and library version, so identical configs give bit-identical
files.  Exit codes: 0 ok, 2 configuration, 3 computation, 4 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import _export_thread_cap
from ._version import __version__
from .correlators import c_ij_exact
from .curves import BoundCurve, evaluate_curve, write_curves_csv
from .ensembles import (
    EnsembleEntry,
    EnsembleSpec,
    complete_spin_spec,
    ensemble_graph,
    ensemble_spec,
    mc_expect_c2,
    su2_heisenberg_spec,
    syk_rate_ratio,
    syk_spec,
    theoremFS_series,
)
from .errors import ComputeError, ConfigError, InvalidParams, IoError, LightconeError
from .factor_graph import (
    Factor,
    WeightedFactorGraph,
    as_weighted,
    build_graph,
    distance,
    genus,
    graph_from_json,
    standard_graph,
)
from .liouville import HamiltonianTerm, majorana_mode, single_site_pauli
from .path_bounds import (
    bessel_i,
    corollary6_bound,
    golden_section_min,
    h_matrices,
    lieb_robinson_bound,
    theorem3_bound,
)
from .pauli import PauliString

__all__ = ["main"]

_FMT = ".17g"


def _apply_thread_cap() -> int | None:
    raw = os.environ.get("LIGHTCONE_THREADS")
    if raw is None:
        return None
    cap = _export_thread_cap()
    if cap is None:
        raise ConfigError(f"LIGHTCONE_THREADS must be a positive integer, got {raw!r}")
    return cap


def _read_text(path: str) -> str:
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path!r}: {exc}") from exc


def _read_json(path: str) -> dict:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise IoError(f"{path!r}: JSON parse failure: {exc}") from exc


def _load_graph(path: str) -> WeightedFactorGraph:
    return as_weighted(graph_from_json(_read_text(path)))


def _time_grid(tmax: float, steps: int) -> tuple[float, ...]:
    if tmax <= 0:
        raise ConfigError(f"--tmax must be positive, got {tmax}")
    if steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {steps}")
    return tuple(float(t) for t in np.linspace(0.0, tmax, steps))


def _load_terms(path: str) -> tuple[str, int, list[HamiltonianTerm]]:
    data = _read_json(path)
    try:
        kind = data["kind"]
        n = int(data["n"])
        raw = data["terms"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path!r}: need keys kind, n, terms") from exc
    if kind not in ("pauli", "majorana"):
        raise ConfigError(f"{path!r}: unknown kind {kind!r}")
    terms = []
    try:
        for entry in raw:
            string = entry["string"]
            if kind == "pauli":
                string = PauliString.from_str(string)
                if string.n_sites != n:
                    raise ConfigError(f"string {entry['string']!r} is not {n} sites")
            else:
                string = tuple(int(k) for k in string)
            factor = None
            if entry.get("factor") is not None:
                factor = Factor(
                    nodes=tuple(entry["factor"]), flavor=int(entry.get("flavor", 0))
                )
            terms.append(
                HamiltonianTerm(
                    factor=factor, string=string, coupling=float(entry["coupling"])
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"{path!r}: each term needs a string and a coupling ({type(exc).__name__}: {exc})"
        ) from exc
    if not terms:
        raise ConfigError(f"{path!r}: empty Hamiltonian")
    return kind, n, terms


_BUILDERS = {
    "complete_spin": complete_spin_spec,
    "su2_heisenberg": su2_heisenberg_spec,
    "syk": syk_spec,
}


def _load_spec(path: str) -> EnsembleSpec:
    data = _read_json(path)
    if "builder" in data:
        name = data["builder"]
        if name not in _BUILDERS:
            raise ConfigError(
                f"unknown builder {name!r}; choose from {sorted(_BUILDERS)}"
            )
        kwargs = {k: v for k, v in data.items() if k != "builder"}
        try:
            return _BUILDERS[name](**kwargs)
        except TypeError as exc:
            raise ConfigError(f"builder {name!r}: {exc}") from exc
    try:
        kind = data["kind"]
        n = int(data["n"])
        raw = data["entries"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path!r}: need keys kind, n, entries") from exc
    entries = []
    try:
        for e in raw:
            string = e["string"]
            string = (
                PauliString.from_str(string)
                if kind == "pauli"
                else tuple(int(k) for k in string)
            )
            entries.append(
                EnsembleEntry(
                    factor=Factor(
                        nodes=tuple(e["nodes"]), flavor=int(e.get("flavor", 0))
                    ),
                    string=string,
                    jsq=float(e["jsq"]),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"{path!r}: each entry needs nodes, a string and jsq ({type(exc).__name__}: {exc})"
        ) from exc
    return ensemble_spec(kind, n, entries, law=data.get("law", "gaussian"))


def _emit_curves(out, curves, config: dict, fmt: str) -> None:
    if fmt == "csv":
        if out is None:
            write_curves_csv(sys.stdout, curves, config)
        else:
            write_curves_csv(out, curves, config)
        return
    payload = {
        "version": __version__,
        "config": config,
        "curves": [
            {
                "label": c.label,
                "l_max": c.l_max,
                "g_max": c.g_max,
                "times": list(c.times),
                "values": list(c.values),
            }
            for c in curves
        ],
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoError(f"cannot write {out!r}: {exc}") from exc


def _emit_table(out, header: list[str], rows, config: dict) -> None:
    """Wide-format CSV with the same self-describing comment header."""

    def _write(fh):
        fh.write(f"# version: {__version__}\n")
        fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(float(x), _FMT) for x in row) + "\n")

    if out is None:
        _write(sys.stdout)
    else:
        try:
            with open(out, "w", newline="") as fh:
                _write(fh)
        except OSError as exc:
            raise IoError(f"cannot write {out!r}: {exc}") from exc


# -- subcommands ------------------------------------------------------------

def _cmd_graph(args) -> int:
    g = _load_graph(args.graph)
    base = g.graph
    info = {
        "n_nodes": base.n_nodes,
        "n_factors": len(base.factors),
        "genus": genus(base),
        "max_weight": max(g.weights),
    }
    if args.i is not None and args.j is not None:
        d = distance(base, args.i, args.j)
        info["distance"] = d
        info["d_tilde"] = d / 2.0
    if args.format == "json":
        sys.stdout.write(json.dumps(info, sort_keys=True) + "\n")
    else:
        for key, val in info.items():
            sys.stdout.write(f"{key}: {val}\n")
    return 0


def _cmd_bound(args) -> int:
    g = _load_graph(args.graph)
    times = _time_grid(args.tmax, args.steps)
    alpha = args.alpha
    if alpha not in (None, "optimize"):
        try:
            alpha = float(alpha)
        except ValueError as exc:
            raise ConfigError(f"--alpha must be a number or 'optimize': {alpha!r}") from exc
    selected = ("thm3", "cor6", "lr") if args.bound == "all" else (args.bound,)
    curves = []
    for name in selected:
        if name == "thm3":
            fn = lambda t: theorem3_bound(g, args.i, args.j, t, l_max=args.l_max)
            curves.append(evaluate_curve(fn, times, "thm3", l_max=args.l_max))
        elif name == "cor6":
            curves.append(
                evaluate_curve(
                    lambda t: corollary6_bound(g, args.i, args.j, t), times, "cor6"
                )
            )
        else:
            a = "optimize" if alpha is None else alpha
            curves.append(
                evaluate_curve(
                    lambda t: lieb_robinson_bound(g, args.i, args.j, t, alpha=a),
                    times,
                    "lr",
                )
            )
    config = {
        "command": "bound",
        "graph": args.graph,
        "bound": args.bound,
        "i": args.i,
        "j": args.j,
        "tmax": args.tmax,
        "steps": args.steps,
        "l_max": args.l_max,
        "alpha": args.alpha,
    }
    _emit_curves(args.out, curves, config, args.format)
    return 0


def _cmd_simulate(args) -> int:
    kind, n, terms = _load_terms(args.terms)
    if args.graph is not None:
        g = _load_graph(args.graph).graph
        known = set(g.factors)
        for term in terms:
            if term.factor is not None and term.factor not in known:
                raise ConfigError(f"term factor {term.factor} absent from graph")
    times = _time_grid(args.tmax, args.steps)
    a_i = (
        single_site_pauli(n, args.i, "Z")
        if kind == "pauli"
        else majorana_mode(n, args.i)
    )
    curve = c_ij_exact(terms, args.i, args.j, a_i, times, method=args.method)
    config = {
        "command": "simulate",
        "terms": args.terms,
        "graph": args.graph,
        "i": args.i,
        "j": args.j,
        "tmax": args.tmax,
        "steps": args.steps,
        "method": args.method,
    }
    _emit_curves(args.out, [curve], config, args.format)
    return 0


def _cmd_ensemble(args) -> int:
    spec = dataclasses.replace(_load_spec(args.spec), seed=args.seed)
    times = _time_grid(args.tmax, args.steps)
    mc = mc_expect_c2(spec, args.i, args.j, times, args.samples, method=args.method)
    curves = [
        mc.mean_curve("mc_mean"),
        BoundCurve(times=mc.times, values=mc.stderr, label="mc_stderr"),
    ]
    config = {
        "command": "ensemble",
        "spec": args.spec,
        "i": args.i,
        "j": args.j,
        "tmax": args.tmax,
        "steps": args.steps,
        "samples": args.samples,
        "seed": args.seed,
        "method": args.method,
    }
    _emit_curves(args.out, curves, config, args.format)
    return 0


def _cmd_figures(args) -> int:
    if args.which == "lr":
        delta = args.delta
        n_sites = 41
        if not 1 <= delta <= n_sites - 1:
            raise InvalidParams(f"delta must lie in 1..{n_sites - 1}")
        g = as_weighted(standard_graph("chain", n_sites))
        i = (n_sites - 1 - delta) // 2
        j = i + delta
        try:
            alpha = math.e if args.alpha is None else float(args.alpha)
        except ValueError as exc:
            raise ConfigError(f"--alpha must be a number: {args.alpha!r}") from exc
        times = [0.25 * k for k in range(1, 21)]
        rows = [
            (
                t,
                theorem3_bound(g, i, j, t, l_max=24),
                corollary6_bound(g, i, j, t),
                lieb_robinson_bound(g, i, j, t, alpha=alpha),
            )
            for t in times
        ]
        config = {
            "command": "figures",
            "which": "lr",
            "delta": delta,
            "i": i,
            "j": j,
            "alpha": alpha,
            "chain_sites": n_sites,
        }
        _emit_table(args.out, ["t", "thm3", "cor6", "lr_alpha"], rows, config)
        return 0
    qs = list(range(2, 51, 2))
    rows = [(q, syk_rate_ratio(q), 1.0) for q in qs]
    config = {"command": "figures", "which": "syk", "q_grid": qs}
    _emit_table(
        args.out,
        ["q", "rate_ratio_bound", "rate_ratio_largeq_exact"],
        rows,
        config,
    )
    return 0


# -- invariant checks -------------------------------------------------------

def _require(ok: bool, detail: str) -> None:
    if not ok:
        raise ComputeError(detail)


def _check_combinatorics() -> list[str]:
    from .causal_pairs import count_orderings, random_irreducible_pair
    from .causal_trees import lemma4_bijection_check, irreducible_path_of_tree
    from .causal_trees import FactorSequence, build_causal_forest
    from .tree_counts import nbl

    done = []
    chain = build_graph(3, [(0, 1), (1, 2)])
    seq = FactorSequence(
        root=0, factors=(Factor(nodes=(0, 1)), Factor(nodes=(1, 2)))
    )
    path = irreducible_path_of_tree(build_causal_forest(chain, seq), 2)
    _require(lemma4_bijection_check(chain, path, 4), "slot interleaving mismatch")
    done.append("slot-interleaving bijection (chain)")

    for b in (1, 2, 3):
        for ell in range(1, 6):
            _require(
                nbl(b, ell, "bruteforce") == nbl(b, ell, "generating_function"),
                f"attachment-count mismatch at b={b}, l={ell}",
            )
    done.append("attachment counts: Eulerian recurrence vs brute force")

    pair, g = random_irreducible_pair(6, seed=0)
    counts = count_orderings(pair, g)
    _require(counts.n_psi >= 1, "empty ordering set for an irreducible pair")
    done.append("ordering census on a random irreducible pair")
    return done


def _check_bounds() -> list[str]:
    done = []
    g = as_weighted(standard_graph("chain", 25))
    i, j = 9, 15
    for t in (0.5, 1.0, 1.5):
        a = theorem3_bound(g, i, j, t)
        b = corollary6_bound(g, i, j, t)
        c = lieb_robinson_bound(g, i, j, t, alpha=math.e)
        _require(a <= b + 1e-9 and b <= c + 1e-9, f"bound ordering broken at t={t}")
        # interior pair, so boundary reflections are invisible at this depth
        _require(
            abs(b - bessel_i(6, 4.0 * t)) <= 1e-6 * max(b, 1e-300),
            f"chain closed form off at t={t}",
        )
    done.append("bound ordering and chain closed form")

    hm = h_matrices(g)
    target = 2.0 * math.e * hm.h_tilde_max
    _, best = golden_section_min(
        lambda la: 2.0 * hm.h_tilde_max * math.exp(la) / la,
        math.log(1.0 + 1e-6),
        math.log(1e3),
        tol=1e-12,
    )
    _require(abs(best - target) <= 1e-9 * target, "velocity infimum off")
    _require(hm.h_tilde_max >= 2.0 * hm.h_max - 1e-12, "h_tilde below 2h")
    done.append("front velocity infimum")
    return done


def _distance(one, two) -> float:
    """l2 distance between two operator vectors of one basis."""
    return math.sqrt(
        sum(
            (one.terms.get(k, 0.0) - two.terms.get(k, 0.0)) ** 2
            for k in set(one.terms) | set(two.terms)
        )
    )


def _check_simulation() -> list[str]:
    from .liouville import build_syk_hamiltonian, evolve_operator, norm, spin_term
    from .path_bounds import prop1_convert
    from .correlators import hatc_ij_exact

    done = []
    rng = np.random.default_rng(2024)
    n = 4
    terms = []
    for k in range(n - 1):
        terms.append(spin_term(n, (k, k + 1), "XX", float(rng.normal())))
        terms.append(spin_term(n, (k, k + 1), "ZZ", float(rng.normal())))
    o = single_site_pauli(n, 0, "X")
    ev = evolve_operator(terms, o, 1.5)
    _require(abs(norm(ev) - 1.0) < 1e-10, "norm drift in dense evolution")
    two = evolve_operator(terms, evolve_operator(terms, o, 0.6, method="krylov"), 0.9, method="krylov")
    one = evolve_operator(terms, o, 1.5, method="krylov")
    _require(_distance(one, two) < 1e-9, "time additivity broken in Krylov evolution")
    done.append("norm preservation and additivity")

    syk = build_syk_hamiltonian(8, 4, seed=2024)
    psi = majorana_mode(8, 1)
    dense = evolve_operator(syk, psi, 0.8)
    krylov = evolve_operator(syk, psi, 0.8, method="krylov", tol=1e-12)
    _require(_distance(dense, krylov) < 1e-8, "Majorana Krylov and dense disagree")
    done.append("Majorana Krylov vs dense (SYK-8)")

    ts = (0.4, 1.1)
    c = c_ij_exact(terms, 0, 3, o, ts)
    hc = hatc_ij_exact(terms, 0, 3, o, ts)
    for cv, hv in zip(c.values, hc.values):
        lo, hi = prop1_convert(hv, 2, source="hatc")
        _require(lo - 1e-8 <= cv <= hi + 1e-8, "projector/probe sandwich broken")
    done.append("projector vs probe sandwich")
    return done


def _check_ensembles() -> list[str]:
    from .causal_pairs import theorem4_bound_bruteforce

    done = []
    r = theoremFS_series(8, 4, 1.0, 0.2, 5)
    _require(r.lam_star == 24 * math.sqrt(3), "rate constant off")
    x = r.terms[1] / r.terms[0]
    for g_idx in range(5):
        _require(
            abs(r.terms[g_idx + 1] / r.terms[g_idx] - (g_idx + 1) * x)
            <= 1e-10 * (g_idx + 1) * x,
            "genus-term ratio broken",
        )
    done.append("genus series term structure")

    factors = [Factor(nodes=(0, 1)), Factor(nodes=(1, 2)), Factor(nodes=(0, 2))]
    entries = [
        EnsembleEntry(
            factor=f,
            string=PauliString(
                labels=tuple(1 if k in f.nodes else 0 for k in range(3))
            ),
            jsq=0.09,
        )
        for f in factors
    ]
    spec = ensemble_spec("pauli", 3, entries, seed=11)
    mc = mc_expect_c2(spec, 0, 2, (0.5,), 30)
    wg = ensemble_graph(spec)
    bound = theorem4_bound_bruteforce(wg, 0, 2, 0.5).value
    _require(
        mc.mean[0] <= bound + 3 * mc.stderr[0],
        "Monte Carlo exceeded the double-word bound",
    )
    done.append("Monte Carlo under the double-word bound")
    return done


_CHECK_GROUPS = {
    "combinatorics": _check_combinatorics,
    "bounds": _check_bounds,
    "simulation": _check_simulation,
    "ensembles": _check_ensembles,
}


def _cmd_check(args) -> int:
    groups = list(_CHECK_GROUPS) if args.suite == "all" else [args.suite]
    for name in groups:
        try:
            passed = _CHECK_GROUPS[name]()
        except LightconeError as exc:
            sys.stdout.write(f"FAIL {name}: {exc}\n")
            raise
        for line in passed:
            sys.stdout.write(f"ok {name}: {line}\n")
    return 0


# -- parser -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lightcone",
        description="Operator-growth bounds and exact cross-checks "
        "on factor-graph Hamiltonians.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common_out(sp):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("graph", help="inspect a factor-graph JSON file")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--i", type=int, default=None)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=_cmd_graph)

    sp = sub.add_parser("bound", help="evaluate growth bounds on a time grid")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--bound", choices=("thm3", "cor6", "lr", "all"), default="all")
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--l-max", type=int, default=None, dest="l_max")
    sp.add_argument("--alpha", default=None, help="decay base or 'optimize'")
    common_out(sp)
    sp.set_defaults(fn=_cmd_bound)

    sp = sub.add_parser("simulate", help="exact C_ij(t) for a Hamiltonian JSON")
    sp.add_argument("--graph", default=None)
    sp.add_argument("--terms", required=True)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--method", choices=("dense", "krylov"), default="dense")
    common_out(sp)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("ensemble", help="Monte-Carlo E[C^2] for an ensemble spec")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--method", choices=("dense", "krylov"), default="dense")
    common_out(sp)
    sp.set_defaults(fn=_cmd_ensemble)

    sp = sub.add_parser("figures", help="emit figure data as CSV")
    sp.add_argument("which", choices=("lr", "syk"))
    sp.add_argument("--delta", type=int, default=12, help="chain separation (lr)")
    sp.add_argument("--alpha", default=None, help="decay base for the lr column")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_figures)

    sp = sub.add_parser("check", help="run module invariant suites")
    sp.add_argument(
        "suite", choices=("all",) + tuple(_CHECK_GROUPS), nargs="?", default="all"
    )
    sp.set_defaults(fn=_cmd_check)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        _apply_thread_cap()
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except LightconeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
