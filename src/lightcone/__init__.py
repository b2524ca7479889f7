"""Operator-growth bounds on factor-graph Hamiltonians.

Public surface is re-exported from the submodules; see README for a map.
"""

import os as _os


def _export_thread_cap() -> int | None:
    """Copy a valid LIGHTCONE_THREADS into the BLAS/OpenMP pool variables.

    Runs on import, before any submodule imports numpy: the pools read
    these variables once, when their library loads.  Variables already set
    win.  Returns the cap, or None when it is unset or not a positive
    integer; the CLI rejects such a value with exit code 2.
    """
    try:
        cap = int(_os.environ["LIGHTCONE_THREADS"])
    except (KeyError, ValueError):
        return None
    if cap < 1:
        return None
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(var, str(cap))
    return cap


_export_thread_cap()

from ._version import __version__  # noqa: E402
from .causal_pairs import (
    CausalTreePair,
    OrderingCounts,
    Theorem4Report,
    build_causal_tree_pair,
    causal_graph_props,
    count_orderings,
    enumerate_psi,
    forbidden_sets_pair,
    insertion_consistency_check,
    is_irreducible_pair,
    random_irreducible_pair,
    reduce_to_irreducible_pair,
    theorem4_bound_bruteforce,
    theorem4_coefficients,
)
from .causal_trees import (
    CausalForest,
    FactorSequence,
    attach_decision,
    build_causal_forest,
    forbidden_vertices_single,
    irreducible_path_of_tree,
    is_creeping,
    lemma4_bijection_check,
    schwinger_karplus_check,
    sequence_class,
)
from .correlators import (
    c_ij_exact,
    hatc_ij_exact,
    projected_weight,
    projector_apply,
)
from .curves import BoundCurve, evaluate_curve, read_curves_csv, write_curves_csv
from .ensembles import (
    EnsembleEntry,
    EnsembleSpec,
    MCResult,
    ScramblingVerdict,
    TheoremFSReport,
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
from .errors import (
    ComputeError,
    ConfigError,
    IoError,
    LightconeError,
)
from .factor_graph import (
    Factor,
    FactorGraph,
    WeightedFactorGraph,
    as_weighted,
    build_graph,
    distance,
    genus,
    graph_from_json,
    graph_to_json,
    standard_graph,
)
from .liouville import (
    HamiltonianTerm,
    OperatorVector,
    build_syk_hamiltonian,
    evolve_operator,
    inner,
    liouvillian_apply,
    majorana_mode,
    norm,
    operator_vector,
    single_site_pauli,
    spin_term,
    syk_variance,
)
from .majorana import MajoranaString, majorana_product
from .path_bounds import (
    HMatrices,
    IrreduciblePath,
    Velocities,
    bessel_i,
    closed_form_bound,
    corollary6_bound,
    enumerate_irreducible_paths,
    golden_section_min,
    h_matrices,
    lieb_robinson_bound,
    prop1_convert,
    tfm_sum_bound,
    theorem3_bound,
    velocities,
)
from .pauli import PauliString, string_product
from .tree_counts import branch_census, nbl

__all__ = [
    "__version__",
    "BoundCurve",
    "CausalForest",
    "CausalTreePair",
    "ComputeError",
    "ConfigError",
    "EnsembleEntry",
    "EnsembleSpec",
    "Factor",
    "FactorGraph",
    "FactorSequence",
    "HMatrices",
    "HamiltonianTerm",
    "IoError",
    "IrreduciblePath",
    "LightconeError",
    "MCResult",
    "MajoranaString",
    "OperatorVector",
    "OrderingCounts",
    "PauliString",
    "ScramblingVerdict",
    "Theorem4Report",
    "TheoremFSReport",
    "Velocities",
    "WeightedFactorGraph",
    "as_weighted",
    "attach_decision",
    "bessel_i",
    "branch_census",
    "build_causal_forest",
    "build_causal_tree_pair",
    "build_graph",
    "build_syk_hamiltonian",
    "c_ij_exact",
    "causal_graph_props",
    "closed_form_bound",
    "complete_spin_spec",
    "corollary6_bound",
    "count_orderings",
    "distance",
    "ensemble_graph",
    "ensemble_spec",
    "enumerate_irreducible_paths",
    "enumerate_psi",
    "evaluate_curve",
    "evolve_operator",
    "forbidden_sets_pair",
    "forbidden_vertices_single",
    "genus",
    "golden_section_min",
    "graph_from_json",
    "graph_to_json",
    "h_matrices",
    "hatc_ij_exact",
    "inner",
    "insertion_consistency_check",
    "irreducible_path_of_tree",
    "is_creeping",
    "is_irreducible_pair",
    "lemma4_bijection_check",
    "lieb_robinson_bound",
    "liouvillian_apply",
    "majorana_mode",
    "majorana_product",
    "mc_expect_c2",
    "nbl",
    "norm",
    "operator_vector",
    "pairwise_sum",
    "projected_weight",
    "projector_apply",
    "prop1_convert",
    "random_irreducible_pair",
    "read_curves_csv",
    "reduce_to_irreducible_pair",
    "sample_hamiltonian",
    "schwinger_karplus_check",
    "scrambling_time",
    "sequence_class",
    "single_site_pauli",
    "spin_term",
    "sqrtlogn_bound",
    "standard_graph",
    "string_product",
    "su2_heisenberg_spec",
    "syk_genus0_bound",
    "syk_largeq_exact",
    "syk_rate_ratio",
    "syk_spec",
    "syk_variance",
    "tfm_sum_bound",
    "theorem3_bound",
    "theorem4_bound_bruteforce",
    "theorem4_coefficients",
    "theoremFS_series",
    "velocities",
    "write_curves_csv",
]
