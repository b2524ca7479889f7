"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test runs one criterion of `lightcone.criteria`, which raises
ComputeError when its guarantee fails; c01, c02 and c05 also hold a
wall-clock gate.  The terminal summary (see conftest) prints one
pass/fail line per criterion.
"""

import time

from lightcone import criteria


def _within(seconds, run):
    start = time.monotonic()
    run()
    assert time.monotonic() - start < seconds


def test_c01_chain_bound_ordering_and_closed_form():
    _within(5.0, criteria.c01)


def test_c02_exact_below_path_sum_all_pairs():
    _within(60.0, criteria.c02)


def test_c03_probe_projector_sandwich():
    criteria.c03()


def test_c04_velocity_infimum_and_matrix_dominance():
    criteria.c04()


def test_c05_interleaved_exponential_identity():
    _within(30.0, criteria.c05)


def test_c06_slot_interleaving_bijection():
    criteria.c06()


def test_c07_attachment_count_identities():
    criteria.c07()


def test_c08_causal_graph_structure_props():
    criteria.c08()


def test_c09_ensemble_mc_under_double_word_bound():
    criteria.c09()


def test_c10_majorana_ensemble_under_genus_series():
    criteria.c10()


def test_c11_early_time_tightness():
    criteria.c11()


def test_c12_sqrt_logn_crossing_ratio_and_finite_time_vanishing():
    criteria.c12()


def test_c13_binomial_factorial_inequality():
    criteria.c13()
