"""Closed-form evaluators for symmetry-breaking indices of graph operations.

Each evaluator computes the closed form exactly over the integers.  The
radical-based forms (``*_radical_*``) are evaluated by monotone inversion
with ``math.isqrt`` style scans, never through floating point, so the floor
or ceiling they encode is exact for every input.

Evaluators are deliberately permissive: they compute the formula whenever it
is arithmetically meaningful.  The matching ``*_preconditions`` helpers
report which hypotheses an instance violates; the verification harness uses
them to mark instances as out of coverage instead of calling a disagreement
a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidInputError, PreconditionError
from .graphs import (
    Graph,
    RootedGraph,
    connected_components,
    delete_vertex,
    disjoint_union,
    induced_subgraph,
    is_connected,
    is_2connected,
    is_isomorphic,
)
from .indices import (
    distinguishing_number,
    distinguishing_threshold,
    is_steady,
    least_k,
    rooted_indices,
    stirling2,
)
from .perms import automorphism_group, stabilizer


def binomial(n: int, k: int) -> int:
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# counting colorings of paths and complete graphs


def phi_path_closed(n: int, k: int) -> int:
    """Distinguishing k-colorings of the n-vertex path: (k^n - k^ceil(n/2))/2.

    At n = 1 the expression collapses to 0, although the single vertex does
    admit distinguishing colorings; callers wanting the true count for the
    one-vertex graph should use the general counting route instead.
    """
    if n < 1:
        raise PreconditionError("path coloring count needs n >= 1")
    if k < 1:
        raise InvalidInputError("palette size must be positive")
    num = k ** n - k ** ((n + 1) // 2)
    assert num % 2 == 0
    return num // 2


def phi_complete_closed(n: int, k: int) -> int:
    """Distinguishing k-colorings of the complete graph: C(k, n)."""
    if n < 2:
        raise PreconditionError("complete-graph coloring count needs n >= 2")
    if k < 1:
        raise InvalidInputError("palette size must be positive")
    return math.comb(k, n)


# ---------------------------------------------------------------------------
# disjoint unions


def nu_repeated(g: Graph) -> int:
    """Smallest order of a repeated component-isomorphism class, or g.n if
    every class is a singleton.  Components must all be asymmetric."""
    if g.n == 0:
        raise InvalidInputError("nu of the empty graph is undefined")
    parts = connected_components(g)
    subs = [induced_subgraph(g, c) for c in parts.components]
    for comp in subs:
        if automorphism_group(comp).order != 1:
            raise PreconditionError("nu is defined for unions of asymmetric "
                                    "components only")
    repeated = [len(parts.components[cls[0]]) for cls in parts.classes
                if len(cls) >= 2]
    return min(repeated) if repeated else g.n


def theta_union(components: Sequence[Graph]) -> int:
    """Distinguishing threshold of a disjoint union from component data.

    Symmetric components contribute max_i { theta(C_i) + (n - |C_i|) }.
    If every component is asymmetric the value is n - nu + 1 where nu is the
    smallest repeated class order (n when all classes are distinct).  In the
    mixed case the asymmetric side only contributes when it has a repeated
    class; otherwise its best automorphism is the identity and the symmetric
    side alone decides.
    """
    if not components:
        raise InvalidInputError("union must be nonempty")
    for c in components:
        if not is_connected(c):
            raise PreconditionError("every union component must be connected")
    sym: list[Graph] = []
    asym: list[Graph] = []
    for comp in components:
        (sym if automorphism_group(comp).order > 1 else asym).append(comp)

    n = sum(c.n for c in components)
    n_asym = sum(c.n for c in asym)
    if not asym:
        return max(distinguishing_threshold(c) + (n - c.n) for c in sym)
    if not sym:
        gb, _ = disjoint_union(asym)
        return n - nu_repeated(gb) + 1

    theta_a = max(distinguishing_threshold(c) + (n - n_asym - c.n)
                  for c in sym)
    gb, _ = disjoint_union(asym)
    nu = nu_repeated(gb)
    if nu == gb.n:  # no repeated asymmetric class: identity is its only map
        return theta_a + n_asym
    theta_b = gb.n - nu + 1
    return max(theta_a + n_asym, theta_b + (n - n_asym))


# ---------------------------------------------------------------------------
# vertex-sums


@dataclass(frozen=True)
class VertexSumBound:
    """Value of min{ k : phi_count(G - u, k) >= t } together with whether the
    root is steady, which is exactly when the bound is an equality."""

    value: int
    exact: bool


def d_vertex_sum_power(g: Graph, u: int, t: int) -> VertexSumBound:
    """Distinguishing number bound for the vertex-sum of t copies of g at u.

    The value is the least k whose count of distinguishing k-colorings of
    g - u reaches t.  It is the exact distinguishing number when u is steady
    (every automorphism of g - u preserves u's old neighborhood) and an upper
    bound otherwise.
    """
    if t < 2:
        raise PreconditionError("vertex-sum power needs t >= 2")
    if not is_connected(g):
        raise PreconditionError("factor must be connected")
    return VertexSumBound(least_k(delete_vertex(g, u), t), is_steady(g, u))


def d_vsum_complete_closed(n: int, t: int) -> int:
    """min{ k : C(k, n-1) >= t } for the t-fold sum of complete graphs."""
    if n < 3 or t < 2:
        raise PreconditionError("needs complete order >= 3 and t >= 2")
    k = n - 1
    while math.comb(k, n - 1) < t:
        k += 1
    return k


def d_vsum_cycles(n: int, t: int) -> int:
    """min{ k : phi_path_closed(n-1, k) >= t } for the t-fold sum of cycles."""
    if n < 3 or t < 2:
        raise PreconditionError("needs cycle length >= 3 and t >= 2")
    k = 1
    while phi_path_closed(n - 1, k) < t:
        k += 1
    return k


def d_vsum_radical_k3(t: int) -> int:
    """floor((1 + sqrt(8t + 1)) / 2), evaluated exactly."""
    if t < 2:
        raise PreconditionError("needs t >= 2")
    return (1 + math.isqrt(8 * t + 1)) // 2


def d_vsum_radical_k4(t: int) -> int:
    """Ceiling of the real root of x^3 - x = 6t, evaluated exactly."""
    if t < 2:
        raise PreconditionError("needs t >= 2")
    m = 1
    while m ** 3 - m < 6 * t:
        m += 1
    return m


def d_vsum_radical_k5(t: int) -> int:
    """Ceiling of the real root >= 3 of x(x-1)(x-2)(x-3) = 24t."""
    if t < 2:
        raise PreconditionError("needs t >= 2")
    m = 3
    while m * (m - 1) * (m - 2) * (m - 3) < 24 * t:
        m += 1
    return m


def d_vsum_radical_cycle(n: int, t: int) -> int:
    """Ceiling of the 2/(n-1)-th root of (1 + sqrt(8t+1))/2 for odd cycles,
    i.e. min{ j : j^m (j^m - 1) >= 2t } with m = (n-1)/2."""
    if n < 3 or n % 2 == 0:
        raise PreconditionError("needs an odd cycle length >= 3")
    if t < 2:
        raise PreconditionError("needs t >= 2")
    m = (n - 1) // 2
    j = 1
    while (j ** m) * (j ** m - 1) < 2 * t:
        j += 1
    return j


@dataclass(frozen=True)
class RadicalRow:
    t: int
    minimum_form: int
    radical_form: int

    @property
    def agree(self) -> bool:
        return self.minimum_form == self.radical_form


_RADICAL_KINDS = ("K3", "K4", "K5", "C5", "C7")


def radical_discrepancy_rows(kind: str, t_values: Sequence[int]) -> list[RadicalRow]:
    """Side-by-side table of the minimum-form value and the radical form.

    The radical forms are reported verbatim; disagreements are data, not
    errors, so rows are never adjusted to match.
    """
    rows = []
    for t in t_values:
        if kind == "K3":
            a, b = d_vsum_complete_closed(3, t), d_vsum_radical_k3(t)
        elif kind == "K4":
            a, b = d_vsum_complete_closed(4, t), d_vsum_radical_k4(t)
        elif kind == "K5":
            a, b = d_vsum_complete_closed(5, t), d_vsum_radical_k5(t)
        elif kind in ("C5", "C7"):
            n = int(kind[1:])
            a, b = d_vsum_cycles(n, t), d_vsum_radical_cycle(n, t)
        else:
            raise InvalidInputError(f"unknown radical table kind {kind!r}; "
                                    f"choose from {_RADICAL_KINDS}")
        rows.append(RadicalRow(t, a, b))
    return rows


def d_vsum_nonisomorphic(factors: Sequence[RootedGraph]) -> int:
    """max_i D(G_i - u_i) for a vertex-sum of pairwise non-isomorphic rooted
    factors (see preconditions)."""
    if len(factors) < 2:
        raise PreconditionError("needs at least two factors")
    return max(distinguishing_number(delete_vertex(f.graph, f.root))
               for f in factors)


def _steady_factors_unmet(factors: Sequence[RootedGraph]) -> list[str]:
    """The factor hypotheses both vertex-sum rules share that fail."""
    out = []
    if len(factors) < 2:
        out.append("needs at least two factors")
    for i, f in enumerate(factors):
        if not is_2connected(f.graph):
            out.append(f"factor {i} is not 2-connected")
        elif not is_steady(f.graph, f.root):
            out.append(f"root of factor {i} is not steady")
    return out


def d_vsum_nonisomorphic_preconditions(
        factors: Sequence[RootedGraph]) -> list[str]:
    out = _steady_factors_unmet(factors)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if is_isomorphic(factors[i].graph, factors[j].graph,
                             pin=(factors[i].root, factors[j].root)):
                out.append(f"factors {i} and {j} are isomorphic as rooted "
                           f"graphs")
    return out


def theta_vsum_2connected(factors: Sequence[RootedGraph]) -> int:
    """theta of a vertex-sum as 1 + theta of the union of deleted factors."""
    if len(factors) < 2:
        raise PreconditionError("needs at least two factors")
    deleted = [delete_vertex(f.graph, f.root) for f in factors]
    union, _ = disjoint_union(deleted)
    return distinguishing_threshold(union) + 1


def theta_vsum_2connected_preconditions(
        factors: Sequence[RootedGraph]) -> list[str]:
    """The identification Aut(sum) = Aut(union of deletions) needs every
    factor 2-connected with a steady root, and any two factors whose
    deletions are isomorphic must already be isomorphic as rooted graphs
    (otherwise the union has automorphisms the sum lacks)."""
    out = _steady_factors_unmet(factors)
    deleted = [delete_vertex(f.graph, f.root) for f in factors]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if is_isomorphic(deleted[i], deleted[j]) and not is_isomorphic(
                    factors[i].graph, factors[j].graph,
                    pin=(factors[i].root, factors[j].root)):
                out.append(f"factors {i} and {j} have isomorphic deletions "
                           f"but are not rooted-isomorphic")
    return out


def theta_vsum_cycles(n: int, t: int) -> int:
    """ceil((n-1)/2) + (n-1)(t-1) + 2 for the t-fold sum of n-cycles."""
    if n < 3 or t < 2:
        raise PreconditionError("needs cycle length >= 3 and t >= 2")
    return n // 2 + (n - 1) * (t - 1) + 2


# ---------------------------------------------------------------------------
# smooth rooted products


def aut_order_rooted(g: Graph, h: RootedGraph) -> int:
    """|Aut(G)| * |Stab(root)|^|G| for the smooth rooted product."""
    base = automorphism_group(g).order
    stab = stabilizer(automorphism_group(h.graph), h.root).order
    return base * stab ** g.n


def d_rooted(g: Graph, h: RootedGraph) -> int:
    """Least k whose rooted distinguishing-coloring count of (H, v) reaches
    D(G)."""
    return least_k(h.graph, distinguishing_number(g),
                   stabilizer(automorphism_group(h.graph), h.root))


def theta_rooted(g: Graph, h: RootedGraph) -> int:
    """(|G| - 1)|H| + theta(H, v), except that a rigid base with a rigid
    rooted copy forces the product itself rigid, where theta is 1."""
    base_rigid = automorphism_group(g).order == 1
    r = rooted_indices(h)
    if base_rigid and r.aut_order == 1:
        return 1
    return (g.n - 1) * h.graph.n + r.theta


def rooted_preconditions(g: Graph, h: RootedGraph) -> list[str]:
    """A one-vertex base gives the plain copy graph, whose automorphisms
    need not fix the root, so the product group formula needs |G| >= 2.
    A one-vertex copy is harmless: the product is just the base graph."""
    out = []
    if g.n < 2:
        out.append("base graph needs at least two vertices")
    if not is_connected(g):
        out.append("base graph must be connected")
    if not is_connected(h.graph):
        out.append("copy graph must be connected")
    return out


def theta_rooted_preconditions(g: Graph, h: RootedGraph) -> list[str]:
    """theta_rooted additionally needs the root stabilizer nontrivial unless
    the base is rigid too; a rigid root under a symmetric base leaves the
    product's largest automorphism unaccounted for."""
    out = rooted_preconditions(g, h)
    stab_trivial = stabilizer(automorphism_group(h.graph),
                              h.root).is_trivial()
    if stab_trivial and automorphism_group(g).order != 1:
        out.append("root stabilizer is trivial but the base graph is not "
                   "rigid")
    return out


# ---------------------------------------------------------------------------
# coronas


def aut_order_corona(g: Graph, h: Graph) -> int:
    """|Aut(G)| * |Aut(H)|^|G|; needs |G| >= 2 (a one-vertex base builds a
    cone, whose apex can mix with the copy)."""
    return automorphism_group(g).order * automorphism_group(h).order ** g.n


def d_corona(g: Graph, h: Graph) -> int:
    """Least k with k * Phi_k(H) >= D(G): the base vertex takes any of the
    k colors and its copy must break the copy's own symmetries.

    A one-vertex base is outside this rule (the apex may gain symmetries
    that mix it into the copy), so it is rejected rather than estimated.
    """
    if g.n < 2:
        raise PreconditionError("base graph needs at least two vertices")
    return least_k(h, distinguishing_number(g), weight=lambda k: k)


def theta_corona(g: Graph, h: Graph) -> int:
    """|G| + |H|(|G| - 1) + theta(H) when the copy has symmetries; otherwise
    (|H| + 1) theta(G) - |H|."""
    if automorphism_group(h).order > 1:
        return g.n + h.n * (g.n - 1) + distinguishing_threshold(h)
    return (h.n + 1) * distinguishing_threshold(g) - h.n


def corona_preconditions(g: Graph, h: Graph) -> list[str]:
    out = []
    if g.n < 2:
        out.append("base graph needs at least two vertices")
    if h.n < 1:
        out.append("copy graph must be nonempty")
    return out


# ---------------------------------------------------------------------------
# lexicographic products


def d_lexicographic(g: Graph, h: Graph) -> int:
    """Least k whose count of distinguishing k-colorings of H reaches D(G).

    Valid when all automorphisms of the product preserve fibers."""
    return least_k(h, distinguishing_number(g))


def theta_lexicographic(g: Graph, h: Graph) -> int:
    """(|G| - 1)|H| + theta(H) when the inner factor has symmetries;
    otherwise (theta(G) - 1)|H| + 1."""
    if automorphism_group(h).order > 1:
        return (g.n - 1) * h.n + distinguishing_threshold(h)
    return (distinguishing_threshold(g) - 1) * h.n + 1


def lexicographic_preconditions(g: Graph, h: Graph) -> list[str]:
    """Both lexicographic formulas need every product automorphism to
    preserve fibers; the naturality check itself lives in products.

    One-vertex factors stay in coverage: with |G| = 1 the whole product is
    a single fiber and with |H| = 1 the fibers are singletons, so naturality
    holds automatically and both formulas collapse to the other factor's
    index.
    """
    from .products import all_automorphisms_natural

    out = []
    if g.n < 1 or h.n < 1:
        out.append("factors must be nonempty")
    if not out and not all_automorphisms_natural(g, h):
        out.append("product has automorphisms that split fibers")
    return out
