"""Counting creeping sequences of abstract factors by branch number.

A creeping sequence of l distinct abstract factors is an arrival history:
the k-th factor attaches to the root i or to any earlier factor, so there
are l! histories in total.  Histories are counted up to isomorphism via a
canonical rooted encoding (arrival index plus sorted child encodings); the
branch number b is the count of degree-1 vertices other than i, i.e. the
childless factors.

The same counts are the Eulerian numbers A(l, b-1), the coefficients of
x^b t^l / l! in the closed-form generating function

    A(t, x) = (x e^t - x e^{tx}) / (e^{tx} - x e^t).

``nbl`` computes them in exact integers from that function's coefficient
recurrence, and the brute-force census stays as the independent
cross-check.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

from .errors import ComputeError, InvalidParams, TooLarge

__all__ = ["nbl", "branch_census"]

_BRUTE_CAP = 5


@lru_cache(maxsize=None)
def branch_census(ell: int) -> dict[int, int]:
    """Map b -> number of length-l creeping sequence classes with b branches."""
    if ell < 1:
        raise InvalidParams(f"need l >= 1, got {ell}")
    if ell > _BRUTE_CAP:
        raise TooLarge(f"brute-force census capped at l <= {_BRUTE_CAP}")
    seen: set = set()
    census: dict[int, int] = {}
    # parent[k] = -1 for the root, else an earlier factor's arrival index
    for parents in product(*(range(-1, k) for k in range(ell))):
        children: list[list[int]] = [[] for _ in range(ell)]
        roots: list[int] = []
        for k, p in enumerate(parents):
            (roots if p == -1 else children[p]).append(k)

        def encode(v: int) -> tuple:
            return (v, tuple(sorted(encode(c) for c in children[v])))

        key = tuple(sorted(encode(r) for r in roots))
        if key in seen:
            continue
        seen.add(key)
        b = sum(1 for k in range(ell) if not children[k])
        census[b] = census.get(b, 0) + 1
    if sum(census.values()) != math.factorial(ell):
        raise ComputeError(f"census of l = {ell} does not total l!")
    return dict(sorted(census.items()))


@lru_cache(maxsize=None)
def _eulerian_row(ell: int) -> tuple[int, ...]:
    """A(l, m) for m = 0..l-1, by A(n, m) = (n-m) A(n-1, m-1) + (m+1) A(n-1, m).

    The generating function's rows A_n(x) = sum_m A(n, m) x^m obey
    A_n(x) = (1 + (n-1)x) A_{n-1}(x) + x(1-x) A_{n-1}'(x); reading off the
    x^m coefficient gives the recurrence.
    """
    row = [1]  # A(0, 0)
    for n in range(1, ell + 1):
        row = [
            (n - m) * (row[m - 1] if m else 0)
            + (m + 1) * (row[m] if m < len(row) else 0)
            for m in range(n)
        ]
    return tuple(row)


def nbl(b: int, ell: int, method: str = "generating_function") -> int:
    """Census entry: creeping sequence classes of length l with b branches.

    The entry is the Eulerian number A(l, b-1), the count of permutations
    of l letters with b-1 descents:

        N(b, l) = sum_{k=0}^{b-1} (-1)^k C(l+1, k) (b-k)^l.

    Dominance: N(b, l) <= b^l - (b-1)^l <= b^l, so N(b, l) = b^l exactly
    when b = 1 and N(b, l) < b^l for every b >= 2.  (Labelling each value
    by the index of the ascending run holding it maps the permutations
    injectively to words over b letters that use the letter 0.)
    """
    if ell < 1:
        raise InvalidParams(f"need l >= 1, got {ell}")
    if b < 1 or b > ell:
        return 0
    if method == "bruteforce":
        return branch_census(ell).get(b, 0)
    if method == "generating_function":
        return _eulerian_row(ell)[b - 1]
    raise InvalidParams(f"unknown method {method!r}")
