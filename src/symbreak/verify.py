"""Verification harness: every closed-form rule against independent brute force.

Each registered rule owns a default instance grid at desk scale and
declares the grid keys it reads; a key that no selected rule reads is
rejected before any rule runs, so a mistyped key cannot fall back to the
default grid unnoticed.  Running a rule builds the object under test (a
product graph, a union, a coloring count), evaluates the closed form,
recomputes the same quantity by brute force through the counting
machinery, and emits one verdict per instance:

  agree / disagree   preconditions hold and the two routes match / differ
  inconclusive       a precondition fails; both values are still reported
                     when affordable, but the rule makes no claim there
  skipped            the instance blew an enumeration budget; the reason
                     is recorded so every requested instance appears exactly
                     once in the output

Rule identifiers (``thm3.7``, ``eq1``, ...) are opaque catalog tokens; the
registry's summary strings say what each rule states.  Two rules compare a
pair of closed forms rather than a formula against a search: the radical
rows of ``cor3.8``/``cor3.9`` put the algebraic rearrangement in
``predicted`` and the direct scan of the defining minimum in ``brute_force``;
their known disagreements are findings, reported and never patched.

Brute-force routes on products take automorphism groups only below a
ceiling (min of the process budget and _MATERIALIZE_CAP elements); larger
groups become budget notes or skips.  These routes read the group's
stabilizer chain and never build its elements.  The group-order rules eq3
and thm4.2 read the order of the chain that the search builds on the
product graph itself, so they share no route with the factor formulas they
check.  The element list is built only by the oracles that read elements
one at a time, phi_brute and the thm3.5 restriction check, on the small
graphs of their own grids.  The restriction check lists a graph's
distinguishing partitions once, by testing every set partition against
every element, and reuses the list for each vertex the rule asks about; it
shares no code with is_steady, the minimal cycles or the kill table.
Instances whose preconditions already failed run their informational brute
force under a tighter scratch budget so a hopeless instance cannot stall
the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from . import corpus, formulas, limits, products
from .errors import BudgetExceededError, InvalidInputError
from .graph6 import emit_graph6
from .graphs import (Graph, RootedGraph, build_graph, complete, cycle,
                     disjoint_union, delete_vertex, path, star)
from .indices import (distinguishing_number, distinguishing_threshold,
                      is_steady, phi_brute, rooted_indices)
from .perms import AutGroup, automorphism_group, orbits

# a ceiling on group order for the brute-force routes on products; none of
# them builds an element list, but the budget notes it produces embed the
# number, and the anchor digest covers them
_MATERIALIZE_CAP = 200_000
_SCRATCH_CAP = 1_000_000


@dataclass(frozen=True)
class TheoremVerdict:
    """One closed-form-vs-brute-force comparison.

    agree is None when one side was not computed (skipped, or budget hit on
    an inconclusive row); otherwise it is exactly (predicted == brute_force).
    """

    theorem_id: str
    instance: str
    predicted: int | None
    brute_force: int | None
    preconditions_met: bool
    agree: bool | None
    status: str  # agree | disagree | inconclusive | skipped
    notes: tuple[str, ...] = ()


def _skip(rule: str, instance: str, reason: str) -> TheoremVerdict:
    return TheoremVerdict(rule, instance, None, None, True, None, "skipped",
                          (reason,))


def _verdict(rule: str, instance: str, predicted_fn, brute_fn,
             unmet: Sequence[str] = (), notes: Sequence[str] = ()
             ) -> TheoremVerdict:
    unmet = tuple(unmet)
    notes = tuple(notes)
    try:
        predicted = predicted_fn()
    except BudgetExceededError as exc:
        return _skip(rule, instance, f"prediction hit budget: {exc}")
    if unmet:
        brute = None
        extra: tuple[str, ...] = ()
        try:
            with limits.scoped(
                    max_aut=min(limits.aut_cap(), _SCRATCH_CAP),
                    max_colorings=min(limits.coloring_cap(), _SCRATCH_CAP)):
                brute = brute_fn()
        except BudgetExceededError as exc:
            extra = (f"brute force hit budget: {exc}",)
        agree = None if brute is None else predicted == brute
        return TheoremVerdict(rule, instance, predicted, brute, False, agree,
                              "inconclusive", unmet + notes + extra)
    try:
        brute = brute_fn()
    except BudgetExceededError as exc:
        return _skip(rule, instance, f"brute force hit budget: {exc}")
    agree = predicted == brute
    return TheoremVerdict(rule, instance, predicted, brute, True, agree,
                          "agree" if agree else "disagree", notes)


def _brute_group(g: Graph):
    """Automorphism group of a product under the _MATERIALIZE_CAP ceiling.
    Callers read its order or its chain, never its elements."""
    with limits.scoped(max_aut=min(limits.aut_cap(), _MATERIALIZE_CAP)):
        return automorphism_group(g)


def _brute_order(p: Graph) -> int:
    return _brute_group(p).order


def _brute_d(p: Graph) -> int:
    return distinguishing_number(p, _brute_group(p))


# ---------------------------------------------------------------------------
# grid specifications


def parse_grid(spec: str | None) -> dict:
    """Parse 'K3,t=2..5' style grid overrides.

    Comma-separated tokens; 'key=value' sets a key, a bare token sets the
    family.  Values: 'a..b' is an inclusive integer range with b >= a,
    ASCII digits with an optional leading '-' an integer, anything else a
    string.
    """
    grid: dict = {}
    if not spec:
        return grid
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            key, _, value = token.partition("=")
            key = key.strip()
            value = value.strip()
            if ".." in value:
                lo, _, hi = value.partition("..")
                values = []
                if all(map(limits.INTEGER.fullmatch, (lo, hi))):
                    values = list(range(int(lo), int(hi) + 1))
                if not values:
                    raise InvalidInputError(f"bad range {value!r} in grid")
                grid[key] = values
            elif limits.INTEGER.fullmatch(value):
                grid[key] = int(value)
            else:
                grid[key] = value
        else:
            grid["family"] = token
    return grid


def _ints(grid: dict, key: str, default: Sequence[int]) -> list[int]:
    value = grid.get(key, default)
    if isinstance(value, str):
        raise InvalidInputError(
            f"grid key {key!r} must be an integer or a range a..b, "
            f"got {value!r}")
    return [value] if isinstance(value, int) else list(value)


def _cap(grid: dict, default: int = 12) -> int:
    value = grid.get("max", default)
    if not isinstance(value, int) or value < 1:
        raise InvalidInputError("grid key 'max' must be a positive integer")
    return value


# ---------------------------------------------------------------------------
# shared grids and oracles


def _set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of range(n) as restricted-growth strings."""
    if n == 0:
        yield ()
        return
    part = [0] * n

    def rec(i: int, mx: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(part)
            return
        for b in range(mx + 1):
            part[i] = b
            yield from rec(i + 1, mx + (1 if b == mx else 0))

    yield from rec(1, 1) if n > 1 else iter([(0,)])


@lru_cache(maxsize=1)
def _distinguishing_partitions(group: AutGroup) -> tuple[tuple[int, ...], ...]:
    """The set partitions of the group's vertices that no non-identity
    element preserves, scanned element by element.  A labelling is
    preserved by an image iff reading it through the image gives it back."""
    getters = [itemgetter(*img) for img in group.nonidentity_images()]
    return tuple(part for part in _set_partitions(group.n)
                 if not any(get(part) == part for get in getters))


def _restriction_property(g: Graph, u: int) -> bool:
    """Does every distinguishing coloring of g restrict to a distinguishing
    coloring of g - u?  Checked over color partitions, which decide
    distinguishability.  The rule asks about every vertex of one graph in
    turn, so g's distinguishing partitions are listed once per graph."""
    parts = _distinguishing_partitions(automorphism_group(g))
    dnonid = automorphism_group(delete_vertex(g, u)).nonidentity_images()
    if not dnonid:  # nothing to break, and g - u may have no vertex
        return True
    getters = [itemgetter(*img) for img in dnonid]
    drop = itemgetter(*(v for v in range(g.n) if v != u))
    for part in parts:
        rest = drop(part)
        if any(get(rest) == rest for get in getters):
            return False
    return True


def _k4_minus_edge() -> Graph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


_VSUM_FAMILIES: dict[str, tuple[Callable[[], Graph], int]] = {
    "K3": (lambda: complete(3), 0),
    "K4": (lambda: complete(4), 0),
    "K5": (lambda: complete(5), 0),
    "C5": (lambda: cycle(5), 0),
    "C7": (lambda: cycle(7), 0),
    "K4-e": (_k4_minus_edge, 2),
    "P4": (lambda: path(4), 0),
}


def _vsum_instances(grid: dict,
                    defaults: list[tuple[str, list[int]]]
                    ) -> list[tuple[str, Graph, int, int]]:
    family = grid.get("family")
    if family is not None:
        if not isinstance(family, str) or family not in _VSUM_FAMILIES:
            known = ", ".join(sorted(_VSUM_FAMILIES))
            raise InvalidInputError(
                f"unknown vertex-sum family {family!r} (known: {known})")
        chosen = [(family, _ints(grid, "t", [2, 3]))]
    else:
        chosen = [(name, _ints(grid, "t", ts)) for name, ts in defaults]
    out = []
    for name, ts in chosen:
        ctor, root = _VSUM_FAMILIES[name]
        g = ctor()
        out.extend((name, g, root, t) for t in ts)
    return out


# ---------------------------------------------------------------------------
# rules


def _rule_eq1(grid: dict) -> list[TheoremVerdict]:
    ns = _ints(grid, "n", range(2, 9))
    ks = _ints(grid, "k", range(1, 5))
    out = []
    for n in ns:
        g = path(n)
        for k in ks:
            out.append(_verdict(
                "eq1", f"path:{n},k={k}",
                lambda n=n, k=k: formulas.phi_path_closed(n, k),
                lambda g=g, k=k: phi_brute(g, k).phi))
    return out


def _rule_eq2(grid: dict) -> list[TheoremVerdict]:
    out = []
    for g in corpus.connected_graphs(min(_cap(grid, 6), 6)):
        group = automorphism_group(g)
        theta = distinguishing_threshold(g, group)
        name = emit_graph6(g)
        for k in range(theta, theta + 3):
            def exact(g=g, k=k, group=group):
                num = math.factorial(k) * formulas.stirling2(g.n, k)
                q, r = divmod(num, group.order)
                if r:
                    raise AssertionError("count not divisible by group order")
                return q
            out.append(_verdict(
                "eq2", f"{name},k={k},exact",
                exact,
                lambda g=g, k=k, group=group: phi_brute(g, k, group).varphi))

            def cumulative(g=g, k=k, group=group):
                return sum(formulas.binomial(k, i)
                           * phi_brute(g, i, group).varphi
                           for i in range(1, min(k, g.n) + 1))
            out.append(_verdict(
                "eq2", f"{name},k={k},cumulative",
                cumulative,
                lambda g=g, k=k, group=group: phi_brute(g, k, group).phi))
    return out


def _union_instances() -> list[tuple[str, str, list[Graph]]]:
    from .graphs import asymmetric6 as a6
    return [
        ("a", "C4+C4", [cycle(4), cycle(4)]),
        ("a", "P3+P4", [path(3), path(4)]),
        ("a", "K2+K2", [complete(2), complete(2)]),
        ("a", "K3+C4", [complete(3), cycle(4)]),
        ("b", "asym6+asym6", [a6(), a6()]),
        ("b", "asym6+K1", [a6(), complete(1)]),
        ("b", "K1+K1", [complete(1), complete(1)]),
        ("c", "C4+K1", [cycle(4), complete(1)]),
        ("c", "C10+K1", [cycle(10), complete(1)]),
        ("c", "K2+K1+asym6", [complete(2), complete(1), a6()]),
        ("c", "asym6+P4", [a6(), path(4)]),
        ("c", "asym6+K1+K1", [a6(), complete(1), complete(1)]),
        ("c", "K3+K1+K1", [complete(3), complete(1), complete(1)]),
    ]


def _rule_thm21(grid: dict) -> list[TheoremVerdict]:
    out = []
    for case, name, comps in _union_instances():
        union, _ = disjoint_union(comps)
        out.append(_verdict(
            "thm2.1", f"union[{case}]:{name}",
            lambda comps=comps: formulas.theta_union(comps),
            lambda union=union: distinguishing_threshold(union)))
    return out


def _rule_thm35(grid: dict) -> list[TheoremVerdict]:
    out = []
    for g in corpus.connected_graphs(min(_cap(grid, 6), 6)):
        name = emit_graph6(g)
        for ob in orbits(automorphism_group(g)):
            u = ob[0]
            out.append(_verdict(
                "thm3.5", f"{name},u={u}",
                lambda g=g, u=u: int(is_steady(g, u)),
                lambda g=g, u=u: int(_restriction_property(g, u))))
    return out


def _rule_thm37(grid: dict) -> list[TheoremVerdict]:
    defaults = [("K3", [2, 3, 4, 5]), ("K4", [2, 3, 4]), ("C5", [2, 3]),
                ("K4-e", [2]), ("P4", [2])]
    out = []
    for name, g, root, t in _vsum_instances(grid, defaults):
        bound = formulas.d_vertex_sum_power(g, root, t)
        product, _ = products.vertex_sum_power(g, root, t)
        unmet = [] if bound.exact else [
            "root is not steady: the minimum form is an upper bound only"]
        out.append(_verdict(
            "thm3.7", f"{name}@{root},t={t}",
            lambda bound=bound: bound.value,
            lambda p=product: _brute_d(p),
            unmet=unmet))
    return out


_RADICAL_NOTE = ("radical rearrangement under test; the direct scan of the "
                 "defining minimum is the canonical value")


def _vsum_closed_rows(rule: str, closed_form,
                      defaults: list[tuple[str, list[int]]],
                      grid: dict) -> list[TheoremVerdict]:
    """cor3.8 and cor3.9: closed_form(n, t), the minimum form, against
    search on each t-fold vertex-sum, then the radical rows of each family.
    A rule takes only the families of its defaults."""
    instances = _vsum_instances(grid, defaults)
    kinds = [name for name, _ in defaults]
    family = grid.get("family")
    if family is not None:
        if family not in kinds:
            raise InvalidInputError(
                f"rule {rule} takes family {', '.join(kinds)}, "
                f"got {family!r}")
        kinds = [family]
    out = []
    for name, g, root, t in instances:
        product, _ = products.vertex_sum_power(g, root, t)
        out.append(_verdict(
            rule, f"{name},t={t},min-form",
            lambda n=g.n, t=t: closed_form(n, t),
            lambda p=product: _brute_d(p)))
    ts = _ints(grid, "t", range(2, 51))
    for kind in kinds:
        for row in formulas.radical_discrepancy_rows(kind, ts):
            out.append(_verdict(
                rule, f"{kind},t={row.t},radical",
                lambda row=row: row.radical_form,
                lambda row=row: row.minimum_form,
                notes=(_RADICAL_NOTE,)))
    return out


def _rule_cor38(grid: dict) -> list[TheoremVerdict]:
    return _vsum_closed_rows(
        "cor3.8", formulas.d_vsum_complete_closed,
        [("K3", [2, 3, 4, 5]), ("K4", [2, 3, 4]), ("K5", [2])], grid)


def _rule_cor39(grid: dict) -> list[TheoremVerdict]:
    return _vsum_closed_rows("cor3.9", formulas.d_vsum_cycles,
                             [("C5", [2, 3]), ("C7", [2])], grid)


def _thm310_instances() -> list[tuple[str, list[RootedGraph]]]:
    return [
        ("K3@0+C4@0", [RootedGraph(complete(3), 0), RootedGraph(cycle(4), 0)]),
        ("K3@0+K4@0", [RootedGraph(complete(3), 0), RootedGraph(complete(4), 0)]),
        ("C4@0+C5@0", [RootedGraph(cycle(4), 0), RootedGraph(cycle(5), 0)]),
        ("K3@0+C4@0+C5@0", [RootedGraph(complete(3), 0),
                            RootedGraph(cycle(4), 0),
                            RootedGraph(cycle(5), 0)]),
        ("K3@0+K4-e@2", [RootedGraph(complete(3), 0),
                         RootedGraph(_k4_minus_edge(), 2)]),
        ("star3@0+P3@1", [RootedGraph(star(3), 0), RootedGraph(path(3), 1)]),
    ]


def _rule_thm310(grid: dict) -> list[TheoremVerdict]:
    out = []
    for name, factors in _thm310_instances():
        product, _ = products.vertex_sum(factors)
        out.append(_verdict(
            "thm3.10", name,
            lambda factors=factors: formulas.d_vsum_nonisomorphic(factors),
            lambda p=product: _brute_d(p),
            unmet=formulas.d_vsum_nonisomorphic_preconditions(factors)))
    return out


def _thm312_instances() -> list[tuple[str, list[RootedGraph]]]:
    return [
        ("K3@0+K3@0", [RootedGraph(complete(3), 0), RootedGraph(complete(3), 0)]),
        ("K3@0+C4@0", [RootedGraph(complete(3), 0), RootedGraph(cycle(4), 0)]),
        ("C4@0+C4@0", [RootedGraph(cycle(4), 0), RootedGraph(cycle(4), 0)]),
        ("K3@0+K4@0", [RootedGraph(complete(3), 0), RootedGraph(complete(4), 0)]),
        ("C5@0+C5@0", [RootedGraph(cycle(5), 0), RootedGraph(cycle(5), 0)]),
        ("C4@0+K4-e@0", [RootedGraph(cycle(4), 0),
                         RootedGraph(_k4_minus_edge(), 0)]),
        ("P4@0+P4@0", [RootedGraph(path(4), 0), RootedGraph(path(4), 0)]),
    ]


def _rule_thm312(grid: dict) -> list[TheoremVerdict]:
    out = []
    for name, factors in _thm312_instances():
        product, _ = products.vertex_sum(factors)
        out.append(_verdict(
            "thm3.12", name,
            lambda factors=factors: formulas.theta_vsum_2connected(factors),
            lambda p=product: distinguishing_threshold(p),
            unmet=formulas.theta_vsum_2connected_preconditions(factors)))
    return out


def _rule_thm313(grid: dict) -> list[TheoremVerdict]:
    pairs = [(3, 2), (3, 3), (4, 2), (5, 2)]
    if "n" in grid or "t" in grid:
        ns = _ints(grid, "n", [3])
        ts = _ints(grid, "t", [2])
        pairs = [(n, t) for n in ns for t in ts]
    out = []
    for n, t in pairs:
        product, _ = products.vertex_sum_power(cycle(n), 0, t)
        out.append(_verdict(
            "thm3.13", f"C{n},t={t}",
            lambda n=n, t=t: formulas.theta_vsum_cycles(n, t),
            lambda p=product: distinguishing_threshold(p)))
    return out


def _rooted_copies(h: Graph) -> list[RootedGraph]:
    """h rooted at the least vertex of each orbit of its group."""
    return [RootedGraph(h, ob[0]) for ob in orbits(automorphism_group(h))]


# per product kind: the least base order, the vertices each base vertex
# adds beside its copy's, the copies of one pool graph, and the product
_PRODUCTS = {"rooted": (2, 0, _rooted_copies, products.rooted_product_smooth),
             "corona": (2, 1, lambda h: [h], products.corona),
             "lex": (1, 0, lambda h: [h], products.lexicographic)}


def _pairs(kind: str, grid: dict) -> list[tuple[Graph, Graph]]:
    """(base, pool graph) pairs of connected graphs on at most 6 vertices
    whose product of the kind has at most the grid's max vertices."""
    min_n, extra = _PRODUCTS[kind][:2]
    cap = _cap(grid)
    pool = corpus.connected_graphs(6)
    return [(g, h)
            for g in corpus.connected_graphs(6, min_n=min_n)
            for h in pool
            if g.n * (h.n + extra) <= cap]


def _product_rows(rule: str, kind: str, predicted_of, brute_of, unmet_of,
                  grid: dict) -> list[TheoremVerdict]:
    """One verdict per factor pair of the kind's grid, "rooted" (a copy
    per root orbit), "corona" or "lex": predicted_of(g, h) against
    brute_of on the product graph, with unmet_of(g, h) the preconditions
    the pair fails (for "lex", the naturality check).  A pair whose
    preconditions spend a budget is a skip record, and so is a pool graph
    whose root orbits do, once per base, named without a root.  Each
    distinct factor is named once per rule."""
    copies_of, build = _PRODUCTS[kind][2:]
    name = cache(emit_graph6)
    out = []
    for g, hb in _pairs(kind, grid):
        try:
            copies = copies_of(hb)
        except BudgetExceededError as exc:
            out.append(_skip(rule, f"{kind}({name(g)},{name(hb)})",
                             f"root orbits hit budget: {exc}"))
            continue
        for h in copies:
            copy = f"{name(hb)}@{h.root}" if kind == "rooted" else name(hb)
            instance = f"{kind}({name(g)},{copy})"
            try:
                unmet = unmet_of(g, h)
            except BudgetExceededError as exc:
                out.append(_skip(rule, instance,
                                 f"preconditions hit budget: {exc}"))
                continue
            product, _ = build(g, h)
            out.append(_verdict(
                rule, instance,
                lambda g=g, h=h: predicted_of(g, h),
                lambda p=product: brute_of(p),
                unmet=unmet))
    return out


def _rule_eq3(grid: dict) -> list[TheoremVerdict]:
    return _product_rows("eq3", "corona", formulas.aut_order_corona,
                         _brute_order, formulas.corona_preconditions, grid)


def _rule_thm42(grid: dict) -> list[TheoremVerdict]:
    return _product_rows("thm4.2", "rooted", formulas.aut_order_rooted,
                         _brute_order, formulas.rooted_preconditions, grid)


def _rule_thm43(grid: dict) -> list[TheoremVerdict]:
    return _product_rows("thm4.3", "rooted", formulas.d_rooted, _brute_d,
                         formulas.rooted_preconditions, grid)


def _rule_thm44(grid: dict) -> list[TheoremVerdict]:
    return _product_rows("thm4.4", "rooted", formulas.theta_rooted,
                         distinguishing_threshold,
                         formulas.theta_rooted_preconditions, grid)


def _rule_thm51(grid: dict) -> list[TheoremVerdict]:
    return _product_rows("thm5.1", "corona", formulas.d_corona, _brute_d,
                         formulas.corona_preconditions, grid)


def _rule_thm52(grid: dict) -> list[TheoremVerdict]:
    return _product_rows("thm5.2", "corona", formulas.theta_corona,
                         distinguishing_threshold,
                         formulas.corona_preconditions, grid)


def _rule_thm61(grid: dict) -> list[TheoremVerdict]:
    return _product_rows("thm6.1", "lex", formulas.theta_lexicographic,
                         distinguishing_threshold,
                         formulas.lexicographic_preconditions, grid)


def _rule_lexd(grid: dict) -> list[TheoremVerdict]:
    return _product_rows("lex-d", "lex", formulas.d_lexicographic, _brute_d,
                         formulas.lexicographic_preconditions, grid)


@dataclass(frozen=True)
class Rule:
    rule_id: str
    summary: str
    runner: Callable[[dict], list[TheoremVerdict]]
    keys: tuple[str, ...]  # the grid keys the runner reads


_RULES: tuple[Rule, ...] = (
    Rule("eq1", "path coloring-count closed form vs partition search",
         _rule_eq1, ("n", "k")),
    Rule("eq2", "factorial/Stirling exact count above the threshold and the "
         "binomial accumulation identity vs partition search", _rule_eq2,
         ("max",)),
    Rule("eq3", "corona group order = base order times copy order to the "
         "base size, vs enumerated product group", _rule_eq3, ("max",)),
    Rule("thm2.1", "disjoint-union threshold case analysis vs enumerated "
         "threshold", _rule_thm21, ()),
    Rule("thm3.5", "steady vertex iff every distinguishing coloring "
         "restricts to a distinguishing coloring of the deletion",
         _rule_thm35, ("max",)),
    Rule("thm3.7", "t-fold vertex-sum distinguishing number: minimum-form "
         "bound, exact at steady roots, vs search", _rule_thm37,
         ("family", "t")),
    Rule("cor3.8", "complete-graph vertex-sum: minimum form vs search, and "
         "radical closed form vs minimum form", _rule_cor38,
         ("family", "t")),
    Rule("cor3.9", "cycle vertex-sum: minimum form vs search, and radical "
         "closed form vs minimum form", _rule_cor39,
         ("family", "t")),
    Rule("thm3.10", "vertex-sum of distinct 2-connected steady-rooted "
         "factors: max deletion distinguishing number vs search",
         _rule_thm310, ()),
    Rule("thm3.12", "vertex-sum threshold = threshold of the union of "
         "deletions + 1, vs enumeration", _rule_thm312, ()),
    Rule("thm3.13", "t-fold cycle vertex-sum threshold closed form vs "
         "enumeration", _rule_thm313, ("n", "t")),
    Rule("thm4.2", "rooted-product group order = base order times "
         "root-stabilizer order to the base size, vs enumeration",
         _rule_thm42, ("max",)),
    Rule("thm4.3", "rooted-product distinguishing number via rooted "
         "coloring counts, vs search", _rule_thm43, ("max",)),
    Rule("thm4.4", "rooted-product threshold case analysis vs enumeration",
         _rule_thm44, ("max",)),
    Rule("thm5.1", "corona distinguishing number via k times the copy's "
         "coloring count, vs search", _rule_thm51, ("max",)),
    Rule("thm5.2", "corona threshold case analysis vs enumeration",
         _rule_thm52, ("max",)),
    Rule("thm6.1", "lexicographic threshold case analysis under "
         "fiber-preserving groups, vs enumeration", _rule_thm61,
         ("max",)),
    Rule("lex-d", "lexicographic distinguishing number via the inner "
         "factor's coloring counts, vs search", _rule_lexd, ("max",)),
)

RULES: dict[str, Rule] = {r.rule_id: r for r in _RULES}


def rule_ids() -> list[str]:
    return [r.rule_id for r in _RULES]


def run_rules(ids: Sequence[str] | None = None,
              grid: dict | None = None) -> list[TheoremVerdict]:
    """Run the named rules (all when ids is None) and collect verdicts."""
    grid = grid or {}
    if ids is None:
        chosen = list(_RULES)
    else:
        chosen = []
        for rule_id in ids:
            if rule_id not in RULES:
                known = ", ".join(rule_ids())
                raise InvalidInputError(
                    f"unknown rule {rule_id!r} (known: {known})")
            chosen.append(RULES[rule_id])
    read = {key for rule in chosen for key in rule.keys}
    unread = [key for key in grid if key not in read]
    if unread:
        raise InvalidInputError(
            f"no selected rule reads grid key "
            f"{', '.join(map(repr, unread))} (they read: "
            f"{', '.join(sorted(read)) or 'none'})")
    out: list[TheoremVerdict] = []
    for rule in chosen:
        out.extend(rule.runner(grid))
    return out
