"""Pinned values of the path layer, recorded as float.hex.

Path lists in order, the Theorem 3, Corollary 6 and Lieb-Robinson bounds
(optimized and fixed alpha), the top eigenvalues of h and h-tilde, and
distances between node and factor endpoints, on a chain, a star, the
two-flavor complete 2-local graph and one graph with random weights.  Any
change to the enumeration order, the product and sum orders or the vertex
numbering shows here as a changed bit.
"""

import hashlib

import pytest

from lightcone import factor_graph as fg
from lightcone import path_bounds as pb

RANDOM_WEIGHTS = [0.7, 1.3, 0.9, 1.1, 0.6, 1.4, 0.8, 1.2, 1.05]


def _random_graph():
    g = fg.build_graph(
        6,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (1, 3, 4), ((2, 3), 1), (0, 5)],
    )
    return fg.as_weighted(g, RANDOM_WEIGHTS)


GRAPHS = {
    "chain": (lambda: fg.standard_graph("chain", 6), (0, 4)),
    "star": (lambda: fg.standard_graph("star", 5), (1, 3)),
    "k4m2": (lambda: fg.standard_graph("complete_q_local", 4, q=2, m=2), (0, 3)),
    "random": (_random_graph, (0, 4)),
}

# (path count, sha256 of the repr of the path list as ((nodes, flavor), ...))
PATHS = {
    "chain": (1, "e59ed2b6d869088e377e7646b7aa4bce094318c05e5a5e8910018d7824bd5af0"),
    "star": (1, "b1b6f22c7359beab3d6565744d42b5748b7cf815f3b06598dbe0b4223fd730d2"),
    "k4m2": (26, "948ff133412c40e56a3e247a931ad426e198c3d63448c92f73e96ae970bd691e"),
    "random": (11, "9c8125b15e24dc079fae430c824078bdbfd5797e7890fa51da9c9cffff21cd0b"),
}

RANDOM_PATHS = [
    (((0, 1), 0), ((1, 3, 4), 0)),
    (((0, 5), 0), ((4, 5), 0)),
    (((0, 2), 0), ((1, 2), 0), ((1, 3, 4), 0)),
    (((0, 2), 0), ((2, 3), 0), ((1, 3, 4), 0)),
    (((0, 2), 0), ((2, 3), 0), ((3, 4), 0)),
    (((0, 2), 0), ((2, 3), 1), ((1, 3, 4), 0)),
    (((0, 2), 0), ((2, 3), 1), ((3, 4), 0)),
    (((0, 1), 0), ((1, 2), 0), ((2, 3), 0), ((1, 3, 4), 0)),
    (((0, 1), 0), ((1, 2), 0), ((2, 3), 0), ((3, 4), 0)),
    (((0, 1), 0), ((1, 2), 0), ((2, 3), 1), ((1, 3, 4), 0)),
    (((0, 1), 0), ((1, 2), 0), ((2, 3), 1), ((3, 4), 0)),
]

# t -> (theorem3, corollary6, lieb_robinson optimized, lieb_robinson alpha=2)
BOUNDS = {
    "chain": {
        0.5: ("0x1.5555555555555p-5", "0x1.923c421517836p-5", "0x1.44b039871ad85p+5", "0x1.b3d26b5a8d541p+6"),
        1.5: ("0x1.b000000000000p+1", "0x1.9c99a220b5aaap+3", "0x1.1c9121b62bcb3p+16", "0x1.3c5363d406a05p+28"),
    },
    "star": {
        0.5: ("0x1.0000000000000p-1", "0x1.618fa0df2da97p-1", "0x1.26d3c4369c269p+7", "0x1.5825dcf950560p+12"),
        1.5: ("0x1.2000000000000p+2", "0x1.916e67db9bb4cp+5", "0x1.8f0e16f9cc3b2p+21", "0x1.370470aec26edp+41"),
    },
    "k4m2": {
        0.5: ("0x1.1555555555556p+3", "0x1.934b2013c4ab2p+6", "0x1.3de1ca78f70ddp+17", "0x1.8ab7fb5435fb7p+33"),
        1.5: ("0x1.c800000000000p+6", "0x1.f4f2209142e95p+23", "0x1.ea25be6d6aa1ep+51", "0x1.d531d8a7ee79cp+102"),
    },
    "random": {
        0.5: ("0x1.cf80346dc5d64p+0", "0x1.07d9bd5da384cp+2", "0x1.48fac78ec69edp+11", "0x1.a7148dd49b70ep+20"),
        1.5: ("0x1.5baf34d6a161ep+5", "0x1.054d185c91b24p+13", "0x1.0ff3f162a29e6p+34", "0x1.20e32e889b0a1p+66"),
    },
}

# (h_max, h_tilde_max)
EIGENVALUES = {
    "chain": ("0x1.cd4bca9cb5c77p+0", "0x1.ddb3d742c2654p+1"),
    "star": ("0x1.fffffffffffffp+0", "0x1.4000000000000p+2"),
    "k4m2": ("0x1.8000000000000p+2", "0x1.8000000000000p+3"),
    "random": ("0x1.de70b69a0b9c2p+1", "0x1.f80d4aed4e8b5p+2"),
}

# distance(i, j), (i, last factor), (first factor, j), (first, last factor)
DISTANCES = {
    "chain": (8, 9, 7, 8),
    "star": (4, 3, 3, 2),
    "k4m2": (2, 3, 3, 4),
    "random": (4, 3, 3, 4),
}


def _paths(g, i, j):
    return [
        tuple((f.nodes, f.flavor) for f in p.factors)
        for p in pb.enumerate_irreducible_paths(g, i, j)
    ]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_path_lists(name):
    build, (i, j) = GRAPHS[name]
    paths = _paths(build(), i, j)
    count, digest = PATHS[name]
    assert len(paths) == count
    assert hashlib.sha256(repr(paths).encode()).hexdigest() == digest
    if name == "random":
        assert paths == RANDOM_PATHS


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_bounds(name):
    build, (i, j) = GRAPHS[name]
    g = build()
    for t, want in BOUNDS[name].items():
        got = (
            pb.theorem3_bound(g, i, j, t),
            pb.corollary6_bound(g, i, j, t),
            pb.lieb_robinson_bound(g, i, j, t),
            pb.lieb_robinson_bound(g, i, j, t, alpha=2.0),
        )
        assert tuple(v.hex() for v in got) == want, t


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_eigenvalues(name):
    build, _ = GRAPHS[name]
    hm = pb.h_matrices(fg.as_weighted(build()))
    assert (hm.h_max.hex(), hm.h_tilde_max.hex()) == EIGENVALUES[name]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_distances(name):
    build, (i, j) = GRAPHS[name]
    g = build()
    first, last = g.factors[0], g.factors[-1]
    got = (
        fg.distance(g, i, j),
        fg.distance(g, i, last),
        fg.distance(g, first, j),
        fg.distance(g, first, last),
    )
    assert got == DISTANCES[name]
