"""Phi rows of whole families against closed forms, up to the vertex cap.

The set-partition enumeration, phi_brute and the labelling walk all stop
near n = 12.  Paths, cycles, complete and complete bipartite graphs have
exact Phi_k in closed form, from code that shares nothing with the
searches, so graph_indices, the route behind analyze, is held to them at
every n up to 64 and k <= 4.
"""

from __future__ import annotations

import math

import pytest

from symbreak import formulas, limits
from symbreak.graphs import complete, complete_bipartite, cycle, path
from symbreak.indices import graph_indices

K_MAX = 4
N_MAX = 64


def _phi_rows(g) -> list[int]:
    return [row.phi for row in graph_indices(g, phi_max=K_MAX).phi.rows]


def _mobius(d: int) -> int:
    sign, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if d > 1 else sign


def phi_cycle_closed(n: int, k: int) -> int:
    """Phi_k(C_n), n >= 3: the asymmetric bracelets of n beads in k colors
    (Gilbert & Riordan, Illinois J. Math. 5, 1961).

    A = sum_{d | n} mu(d) k^(n/d) counts the colorings with no rotational
    symmetry.  Such a coloring is kept by at most one reflection, and R
    counts the pairs (coloring, reflection keeping it): a reflection whose
    orbits on a period Z_m number o(m) keeps F(o) = sum_{d | n} mu(d)
    k^o(n/d) of them.  The dihedral group of order 2n acts freely on the
    rest, so 2n Phi_k = A - R.
    """
    def total(orbits):
        return sum(_mobius(d) * k ** orbits(n // d)
                   for d in range(1, n + 1) if n % d == 0)

    aperiodic = total(lambda m: m)
    if n % 2:
        kept = n * total(lambda m: (m + 1) // 2)
    else:
        # through two vertices, and through two edge midpoints
        kept = n // 2 * (total(lambda m: m // 2 + 1)
                         + total(lambda m: (m + 1) // 2))
    return (aperiodic - kept) // (2 * n)


def test_mobius():
    assert [_mobius(d) for d in range(1, 13)] == [
        1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


@pytest.mark.parametrize("n", range(2, N_MAX + 1))
def test_paths(n):
    assert _phi_rows(path(n)) == [formulas.phi_path_closed(n, k)
                                  for k in range(1, K_MAX + 1)]


@pytest.mark.parametrize("n", range(3, N_MAX + 1))
def test_cycles(n):
    assert _phi_rows(cycle(n)) == [phi_cycle_closed(n, k)
                                   for k in range(1, K_MAX + 1)]


def test_complete_graphs():
    # |Aut(K_64)| = 64!, so the group budget is raised to it
    with limits.scoped(max_aut=math.factorial(N_MAX)):
        for n in range(2, N_MAX + 1):
            assert _phi_rows(complete(n)) == [
                formulas.phi_complete_closed(n, k)
                for k in range(1, K_MAX + 1)]


def test_complete_bipartite_graphs():
    # a != b: each side takes a set of colors; a = b: an unordered pair of
    # distinct sets, as the sides swap (stars and K_{1,1} = K2 included)
    def closed(a, b, k):
        if a == b:
            return math.comb(math.comb(k, a), 2)
        return math.comb(k, a) * math.comb(k, b)

    # a! b! (times 2 when a = b) <= (a + b)! <= 64!
    with limits.scoped(max_aut=math.factorial(N_MAX)):
        for a in range(1, N_MAX // 2 + 1):
            for b in range(a, N_MAX - a + 1):
                assert _phi_rows(complete_bipartite(a, b)) == [
                    closed(a, b, k) for k in range(1, K_MAX + 1)], (a, b)
