"""Bit-identity pins of the causal layer.

The values were recorded from the Factor-object implementation that the
id-and-bitmask layer replaced; they must not move by a single bit.  Floats
are pinned as ``float.hex``; a word is the string of its factors' indices
into ``g.factors``, prefixed by its marker.
"""

import pytest

from lightcone.causal_pairs import (
    count_orderings,
    enumerate_psi,
    forbidden_sets_pair,
    random_irreducible_pair,
    theorem4_coefficients,
)
from lightcone.causal_trees import FactorSequence
from lightcone.factor_graph import as_weighted, build_graph

# (nodes, factors, weights, i, j): the triangle and the benchmark's 4- and
# 5-factor shapes, with the pair at node 0 and node n-1
THEOREM4_PINS = (
    (
        3,
        [(0, 1), (0, 2), (1, 2)],
        0.3,
        0,
        2,
        {2: "0x1.70a3d70a3d70ap-2", 4: "0x1.096bb98c7e282p-5"},
    ),
    (
        4,
        [(0, 1), (1, 2), (2, 3), (0, 2)],
        [0.25, 0.3, 0.35, 0.4],
        0,
        3,
        {4: "0x1.d7dbf487fcb94p-5", 6: "0x1.1d7218aac1f7fp-9", 8: "0x1.949e8815e3966p-7"},
    ),
    (
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)],
        [0.25, 0.3, 0.35, 0.4, 0.45],
        0,
        4,
        {6: "0x1.53bd1676640a8p-8", 8: "0x1.ce6c093d9663ap-14", 10: "0x1.21110d3cab35cp-10"},
    ),
)


@pytest.mark.parametrize("n, factors, weights, i, j, want", THEOREM4_PINS)
def test_theorem4_coefficients(n, factors, weights, i, j, want):
    wg = as_weighted(build_graph(n, factors), weights)
    got = theorem4_coefficients(wg, i, j)
    assert {p: c.hex() for p, c in got.items()} == want


# seed of random_irreducible_pair(6, seed): (N(Q_L), N(Q_R), |Psi|), psi list
ORDERING_PINS = (
    (2, (1, 1, 1), ["3:241142"]),
    (
        13,
        (2, 2, 20),
        [
            "4:202330", "3:203230", "4:203230", "3:203320", "4:220330",
            "3:223030", "4:223030", "3:223300", "2:230230", "3:230230",
            "4:230230", "2:230320", "3:230320", "2:232030", "3:232030",
            "4:232030", "2:232300", "3:232300", "2:233020", "2:233200",
        ],
    ),
    (58, (1, 1, 1), ["4:01322310"]),
)


@pytest.mark.parametrize("seed, counts, psis", ORDERING_PINS)
def test_orderings_and_psi_words(seed, counts, psis):
    pair, g = random_irreducible_pair(6, seed)
    c = count_orderings(pair, g)
    assert (c.n_left, c.n_right, c.n_psi) == counts
    got = [
        f"{p.marker}:" + "".join(str(g.factors.index(f)) for f in p.factors)
        for p in enumerate_psi(pair, g)
    ]
    assert got == psis


# the genus-1 word (A, B, D, C, B, C, D, A) with marker 4: per slot, the
# sorted forbidden nodes and the sorted indices of the forbidden factors
FORBIDDEN_PINS = {
    "standard": (
        [[1, 2, 3, 4], [2, 3, 4], [3, 4], [4], [], [], [2, 4], [2, 3, 4], [1, 2, 3, 4]],
        [[0, 1, 2, 3], [1, 2, 3], [2, 3], [3], [], [1], [1, 3], [1, 2, 3], [0, 1, 2, 3]],
    ),
    "primed": (
        [[1, 2, 3, 4], [2, 3, 4], [4], [4], [], [], [4], [2, 3, 4], [1, 2, 3, 4]],
        [[0, 1, 2, 3], [1, 2, 3], [2, 3], [3], [], [1], [1, 3], [1, 2, 3], [0, 1, 2, 3]],
    ),
}


@pytest.mark.parametrize("variant", sorted(FORBIDDEN_PINS))
def test_forbidden_sets(variant):
    g = build_graph(5, [(0, 1), (1, 2), (1, 3), (2, 3, 4)])
    by = {f.nodes: f for f in g.factors}
    A, B, D, C = by[(0, 1)], by[(1, 2)], by[(1, 3)], by[(2, 3, 4)]
    psi = FactorSequence(root=0, factors=(A, B, D, C, B, C, D, A), target=4, marker=4)
    sets = forbidden_sets_pair(g, psi, variant)
    got_v = [sorted(v) for v in sets.v_sets]
    got_y = [sorted(g.factors.index(f) for f in y) for y in sets.y_sets]
    assert (got_v, got_y) == FORBIDDEN_PINS[variant]
