"""Span tracing of lightcone's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``lightcone`` module namespace that holds it, so calls made through a
name imported into another module (``correlators.evolve_operator``,
``ensembles.c_ij_exact``, ``causal_pairs.build_causal_forest``, the bound
functions in ``cli``) are timed too.  Spans stay in memory as
``[name, op, parent, start, end, count, raised]`` and are written out once,
when the run ends.  Per-string helpers such as ``commutator_term`` are not
wrapped; their work shows in ``liouville.strings_out``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _len(out) -> int:
    return len(out)


def _n_terms(out) -> int:
    return len(out.terms)


def _n_samples(out) -> int:
    return out.n_samples


def _evolve_name(args, kwargs) -> str:
    method = kwargs.get("method", args[3] if len(args) > 3 else "dense")
    return f"liouville.evolve_{method}"


# (span name, defining module, function, work count of the result, name chooser)
TRACED = (
    ("factor_graph.build", "lightcone.factor_graph", "build_graph", None, None),
    ("factor_graph.distance", "lightcone.factor_graph", "distance", None, None),
    ("path_bounds.enumerate", "lightcone.path_bounds", "enumerate_irreducible_paths", _len, None),
    ("path_bounds.theorem3", "lightcone.path_bounds", "theorem3_bound", None, None),
    ("path_bounds.h_matrices", "lightcone.path_bounds", "h_matrices", None, None),
    ("path_bounds.corollary6", "lightcone.path_bounds", "corollary6_bound", None, None),
    ("path_bounds.lieb_robinson", "lightcone.path_bounds", "lieb_robinson_bound", None, None),
    ("liouville.evolve", "lightcone.liouville", "evolve_operator", _n_terms, _evolve_name),
    ("liouville.liouvillian_apply", "lightcone.liouville", "liouvillian_apply", None, None),
    ("correlators.c_ij_exact", "lightcone.correlators", "c_ij_exact", None, None),
    ("correlators.hatc_ij_exact", "lightcone.correlators", "hatc_ij_exact", None, None),
    ("ensembles.mc", "lightcone.ensembles", "mc_expect_c2", _n_samples, None),
    ("ensembles.sample_hamiltonian", "lightcone.ensembles", "sample_hamiltonian", None, None),
    ("causal_pairs.random_pair", "lightcone.causal_pairs", "random_irreducible_pair", None, None),
    ("causal_pairs.props", "lightcone.causal_pairs", "causal_graph_props", None, None),
    ("causal_pairs.theorem4", "lightcone.causal_pairs", "theorem4_bound_bruteforce", None, None),
    ("causal_trees.build_forest", "lightcone.causal_trees", "build_causal_forest", None, None),
    ("tree_counts.nbl", "lightcone.tree_counts", "nbl", None, None),
)

# op id of spans recorded outside any timed op
SETUP_OP = -1


class Tracer:
    """Span collector; ``op`` tags new spans, ``recording`` pauses it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = SETUP_OP
        self.recording = True

    def install(self) -> None:
        importlib.import_module("lightcone")
        importlib.import_module("lightcone.cli")
        modules = [m for name, m in sys.modules.items() if name == "lightcone" or name.startswith("lightcone.")]
        for name, module_name, attr, count, chooser in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, count, chooser)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, name, fn, count, chooser):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [
                chooser(args, kwargs) if chooser else name,
                tracer.op,
                stack[-1] if stack else -1,
                clock(),
                0.0,
                0,
                False,
            ]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(out)
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Busy time, self time, calls and work counts per traced layer."""
        spans = self.spans
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        work: dict[str, int] = {}
        raised: dict[str, int] = {}
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[2] >= 0:
                child_time[span[2]] += span[4] - span[3]
        lanczos = 0
        for k, (name, _op, parent, start, end, n, failed) in enumerate(spans):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child_time[k])
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + n
            raised[name] = raised.get(name, 0) + int(failed)
            if name == "liouville.liouvillian_apply" and self._under(k, "liouville.evolve_krylov"):
                lanczos += 1

        def s(name):
            return total.get(name, 0.0)

        def per_s(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        strings = work.get("liouville.evolve_dense", 0) + work.get("liouville.evolve_krylov", 0)
        evolve_s = s("liouville.evolve_dense") + s("liouville.evolve_krylov")
        found = work.get("path_bounds.enumerate", 0)
        samples = work.get("ensembles.mc", 0)
        return {
            "path_bounds.enumerate_s": (s("path_bounds.enumerate"), "s"),
            "path_bounds.paths_found": (found, "count"),
            "path_bounds.paths_per_s": (per_s(found, s("path_bounds.enumerate")), "1/s"),
            "path_bounds.theorem3_self_s": (own.get("path_bounds.theorem3", 0.0), "s"),
            "path_bounds.theorem3_failed": (raised.get("path_bounds.theorem3", 0), "count"),
            "path_bounds.corollary6_s": (s("path_bounds.corollary6"), "s"),
            "path_bounds.corollary6_calls": (calls.get("path_bounds.corollary6", 0), "count"),
            "path_bounds.h_matrices_s": (s("path_bounds.h_matrices"), "s"),
            "path_bounds.h_matrices_calls": (calls.get("path_bounds.h_matrices", 0), "count"),
            "path_bounds.lieb_robinson_self_s": (own.get("path_bounds.lieb_robinson", 0.0), "s"),
            "factor_graph.distance_s": (s("factor_graph.distance"), "s"),
            "factor_graph.build_s": (s("factor_graph.build"), "s"),
            "liouville.evolve_dense_s": (s("liouville.evolve_dense"), "s"),
            "liouville.evolve_dense_calls": (calls.get("liouville.evolve_dense", 0), "count"),
            "liouville.strings_out": (strings, "count"),
            "liouville.strings_per_s": (per_s(strings, evolve_s), "1/s"),
            "liouville.evolve_krylov_s": (s("liouville.evolve_krylov"), "s"),
            "liouville.evolve_krylov_calls": (calls.get("liouville.evolve_krylov", 0), "count"),
            "liouville.lanczos_steps": (lanczos, "count"),
            "liouville.liouvillian_apply_s": (s("liouville.liouvillian_apply"), "s"),
            "correlators.c_ij_exact_self_s": (own.get("correlators.c_ij_exact", 0.0), "s"),
            "correlators.hatc_ij_exact_self_s": (own.get("correlators.hatc_ij_exact", 0.0), "s"),
            "ensembles.mc_samples": (samples, "count"),
            "ensembles.mc_s": (s("ensembles.mc"), "s"),
            "ensembles.samples_per_s": (per_s(samples, s("ensembles.mc")), "1/s"),
            "ensembles.sample_hamiltonian_s": (s("ensembles.sample_hamiltonian"), "s"),
            "causal_pairs.random_pair_s": (s("causal_pairs.random_pair"), "s"),
            "causal_pairs.random_pair_calls": (calls.get("causal_pairs.random_pair", 0), "count"),
            "causal_pairs.props_s": (s("causal_pairs.props"), "s"),
            "causal_pairs.theorem4_s": (s("causal_pairs.theorem4"), "s"),
            "causal_pairs.theorem4_calls": (calls.get("causal_pairs.theorem4", 0), "count"),
            "causal_trees.build_forest_s": (s("causal_trees.build_forest"), "s"),
            "causal_trees.build_forest_calls": (calls.get("causal_trees.build_forest", 0), "count"),
            "tree_counts.nbl_s": (s("tree_counts.nbl"), "s"),
        }

    def _under(self, k: int, name: str) -> bool:
        parent = self.spans[k][2]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][2]
        return False
