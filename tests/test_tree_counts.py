"""Branch census of creeping sequences: two routes and the growth bounds."""

import math

import pytest

from lightcone.errors import InvalidParams, TooLarge
from lightcone.tree_counts import branch_census, nbl


def test_small_tables_frozen():
    # hand-traced: l=3 has six arrival histories; four have two branches
    assert branch_census(1) == {1: 1}
    assert branch_census(2) == {1: 1, 2: 1}
    assert branch_census(3) == {1: 1, 2: 4, 3: 1}
    assert branch_census(4) == {1: 1, 2: 11, 3: 11, 4: 1}
    assert branch_census(5) == {1: 1, 2: 26, 3: 66, 4: 26, 5: 1}


def test_census_totals_factorial():
    for ell in range(1, 6):
        assert sum(branch_census(ell).values()) == math.factorial(ell)


def test_routes_agree():
    for ell in range(1, 6):
        for b in range(1, ell + 1):
            assert nbl(b, ell, "bruteforce") == nbl(b, ell, "generating_function")


def test_single_branch_always_one():
    for ell in range(1, 13):
        assert nbl(1, ell) == 1


def test_two_branch_closed_form():
    # the recurrence reproduces 2^l - l - 1 for the two-branch column
    for ell in range(2, 13):
        assert nbl(2, ell) == 2**ell - ell - 1


def test_derivation_bound_everywhere():
    # the actual majorant: N(b,l) <= b^l - (b-1)^l, equality only at b=1
    for ell in range(1, 13):
        for b in range(1, ell + 1):
            assert nbl(b, ell) <= b**ell - (b - 1) ** ell


def test_strict_growth_bound_above_one_branch():
    for ell in range(1, 13):
        for b in range(2, ell + 1):
            assert nbl(b, ell) < b**ell


def test_eulerian_closed_form():
    # N(b, l) = A(l, b-1) = sum_k (-1)^k C(l+1, k) (b-k)^l
    for ell in range(1, 21):
        for b in range(1, ell + 1):
            eulerian = sum(
                (-1) ** k * math.comb(ell + 1, k) * (b - k) ** ell
                for k in range(b)
            )
            assert nbl(b, ell) == eulerian


def test_out_of_range_zero():
    assert nbl(4, 3) == 0
    assert nbl(0, 3) == 0


def test_caps():
    with pytest.raises(TooLarge):
        branch_census(6)
    # no cap on the recurrence: A(13, 6), the central Eulerian number
    assert nbl(7, 13) == 2275172004
    with pytest.raises(InvalidParams):
        nbl(1, 0)
    with pytest.raises(InvalidParams):
        nbl(1, 3, method="guess")


def test_factorial_inequality_exact():
    # 1/(a! b!) <= 2^(a+b)/(a+b)!, i.e. C(a+b, a) <= 2^(a+b), exact integers
    for a in range(31):
        for b in range(31):
            lhs = math.factorial(a + b)
            rhs = 2 ** (a + b) * math.factorial(a) * math.factorial(b)
            assert lhs <= rhs
