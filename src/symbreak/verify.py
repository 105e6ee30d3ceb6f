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
  skipped            the instance hit a budget; its one note says where

A rule is one record, built by _rule, over a generator of rows: a row is
(instance, predicted, brute[, unmet[, notes]]), the two sides as thunks
and unmet the preconditions the instance fails, or (instance, reason) for
a skip record.  _verdicts is the one place verdicts are built: one per
row, in order, each row's two sides run before the next row is drawn, so
a row's thunks may close over its generator's loop variables.  The rule id
is written only in the record.

Budget hits are caught in two places, so every rule reports, and the
command exits 0, under every budget.  A generator sets up each row (builds
its graphs, computes its preconditions and the values that name it) only
through _guarded, which turns a hit into that row's skip record; _verdict
runs the two sides.  A skip note reads "<stage> hit budget: <error>", with
the stage one of

  construction   building the instance's graphs: factors, unions, products
  preconditions  the preconditions it fails (thm3.7: the minimum-form bound)
  root orbits    the orbit roots of rooted product copies, or thm3.5's rows
  threshold      theta of an eq2 graph, which names the graph's rows
  prediction     the closed form
  brute force    the independent route

A hit on the values that name rows skips them all in one record, named by
the graph6 of the graph (kind(base,pool) for a pool graph's root orbits).
The vertex cap bounds the graphs a rule builds; the corpus graphs that
eq2, thm3.5 and the product grids start from are fixtures, read whatever
the cap.

Rule identifiers (``thm3.7``, ``eq1``, ...) are opaque catalog tokens; the
registry's summary strings say what each rule states.  The radical rows of
``cor3.8``/``cor3.9`` compare two closed forms, the algebraic rearrangement
as ``predicted`` and the direct scan of the defining minimum as
``brute_force``; their known disagreements are findings, never patched.

The brute-force |Aut| and D routes on products take groups only below a
ceiling (min of the process budget and _MATERIALIZE_CAP elements); the
theta routes (thm3.12, thm3.13, thm4.4, thm5.2, thm6.1) run
distinguishing_threshold under the process budget alone.  These read the
group's stabilizer chain, never its elements; eq3 and thm4.2 read the
order of the chain the search builds on the product itself, so they share
no route with the factor formulas they check.  Elements are listed only
by phi_brute and thm3.5's restriction check (which shares no code with
is_steady), on the small graphs of their own grids.  Rows whose
preconditions already failed run their brute force under a tighter
scratch budget, so a hopeless instance cannot stall the run.

Answers that several rules or rows share are computed once per process,
in lru_caches that a caller wanting a fresh state clears with the others:
product graphs (_product, keyed on the kind, the factors and the vertex
cap), a graph's root-orbit copies (_rooted_copies_under, keyed on the
graph and the automorphism cap) and the lexicographic naturality answer
(products.all_automorphisms_natural, keyed on the factors and both caps).
So the rules of one product kind read one table, at a smaller max a
subset.  eq2 computes each (graph, k) pair of phi_brute once for all of
the graph's rows; a raise stores nothing, so a row that spends the budget
is the same skip as without the memo.  The memos share answers across
rules, never a row's two sides, which keep their separate routes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from . import corpus, formulas, limits, products
from .errors import BudgetExceededError, InvalidInputError
from .graph6 import emit_graph6
from .graphs import (Graph, RootedGraph, asymmetric6, build_graph, complete,
                     cycle, disjoint_union, delete_vertex, path, star)
from .indices import (distinguishing_number, distinguishing_threshold,
                      is_steady, phi_brute)
from .perms import AutGroup, automorphism_group, orbits

# a ceiling on group order for the brute-force |Aut| and D routes on
# products; neither builds an element list, but the budget notes they
# produce embed the number, and the anchor digest covers them
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
    part = [0] * n

    def rec(i: int, mx: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(part)
            return
        for b in range(mx + 1):
            part[i] = b
            yield from rec(i + 1, mx + (1 if b == mx else 0))

    yield from rec(0, 0)


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


def _guarded(stage: str, instance: str, setup, *args):
    """setup(*args), as the value of ``yield from``: the one place where
    setting up a row meets a budget.  On a hit it yields the skip record
    (instance, "<stage> hit budget: <message>") instead and returns None,
    and the caller goes on to its next row."""
    try:
        return setup(*args)
    except BudgetExceededError as exc:
        yield instance, f"{stage} hit budget: {exc}"


_CONSTRUCTORS = {"K": complete, "C": cycle, "P": path, "star": star}


def _graph(name: str) -> Graph:
    """The graph a factor name spells: K4-e (K4 less the edge 2-3), asym6
    (graphs.asymmetric6), or K, C, P or star and the constructor's
    parameter, e.g. C10 or star3."""
    if name == "K4-e":
        return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    if name == "asym6":
        return asymmetric6()
    kind, size = re.fullmatch(r"(K|C|P|star)(-?[0-9]+)", name).groups()
    return _CONSTRUCTORS[kind](int(size))


def _rooted(name: str) -> RootedGraph:
    """The rooted factor a name spells, e.g. K4-e@2."""
    graph, _, root = name.rpartition("@")
    return RootedGraph(_graph(graph), int(root))


def _joined(name: str, part, join) -> tuple[list, Graph]:
    """The parts of a "+"-joined name, each built by part, and the graph
    join builds from them."""
    parts = [part(token) for token in name.split("+")]
    return parts, join(parts)[0]


def _vsum_power(name: str, root: int, t: int) -> tuple[Graph, Graph]:
    """The named graph and the vertex-sum of t copies of it at root."""
    g = _graph(name)
    return g, products.vertex_sum_power(g, root, t)[0]


# vertex-sum family -> the root its copies are glued at
_VSUM_FAMILIES = {"K3": 0, "K4": 0, "K5": 0, "C5": 0, "C7": 0, "K4-e": 2,
                  "P4": 0}


def _vsum_instances(grid: dict, defaults: list[tuple[str, list[int]]]
                    ) -> list[tuple[str, int, int]]:
    family = grid.get("family")
    if family is not None:
        if not isinstance(family, str) or family not in _VSUM_FAMILIES:
            known = ", ".join(sorted(_VSUM_FAMILIES))
            raise InvalidInputError(
                f"unknown vertex-sum family {family!r} (known: {known})")
        chosen = [(family, _ints(grid, "t", [2, 3]))]
    else:
        chosen = [(name, _ints(grid, "t", ts)) for name, ts in defaults]
    return [(name, _VSUM_FAMILIES[name], t) for name, ts in chosen
            for t in ts]


# ---------------------------------------------------------------------------
# rules


def _eq1_rows(grid: dict) -> Iterator[tuple]:
    ns = _ints(grid, "n", range(2, 9))
    ks = _ints(grid, "k", range(1, 5))
    for n in ns:
        # the closed form collapses to 0 on one vertex
        unmet = () if n >= 2 else ("the closed form needs n >= 2",)
        for k in ks:
            instance = f"path:{n},k={k}"
            g = yield from _guarded("construction", instance, path, n)
            if g is not None:
                yield (instance, partial(formulas.phi_path_closed, n, k),
                       lambda: phi_brute(g, k).phi, unmet)


def _eq2_rows(grid: dict) -> Iterator[tuple]:
    for g in corpus.connected_graphs(min(_cap(grid, 6), 6)):
        name = emit_graph6(g)
        # theta names the graph's rows, so a budget hit skips the graph
        theta = yield from _guarded("threshold", name,
                                    distinguishing_threshold, g)
        if theta is None:
            continue
        group = automorphism_group(g)  # theta's group, so it cannot raise
        # each (g, k) pair once for every row of g: all rows run under the
        # process budget, and a raise stores nothing
        pair = cache(partial(phi_brute, g, group=group))
        for k in range(theta, theta + 3):
            def exact():
                num = math.factorial(k) * formulas.stirling2(g.n, k)
                q, r = divmod(num, group.order)
                if r:
                    raise AssertionError("count not divisible by group order")
                return q
            yield (f"{name},k={k},exact", exact, lambda: pair(k).varphi)
            yield (f"{name},k={k},cumulative",
                   lambda: sum(formulas.binomial(k, i) * pair(i).varphi
                               for i in range(1, min(k, g.n) + 1)),
                   lambda: pair(k).phi)


# thm2.1's three cases, each union named by its components
_UNIONS = (("a", "C4+C4"), ("a", "P3+P4"), ("a", "K2+K2"), ("a", "K3+C4"),
           ("b", "asym6+asym6"), ("b", "asym6+K1"), ("b", "K1+K1"),
           ("c", "C4+K1"), ("c", "C10+K1"), ("c", "K2+K1+asym6"),
           ("c", "asym6+P4"), ("c", "asym6+K1+K1"), ("c", "K3+K1+K1"))


def _thm21_rows(grid: dict) -> Iterator[tuple]:
    for case, name in _UNIONS:
        instance = f"union[{case}]:{name}"
        built = yield from _guarded("construction", instance, _joined, name,
                                    _graph, disjoint_union)
        if built is not None:
            comps, union = built
            yield (instance, partial(formulas.theta_union, comps),
                   partial(distinguishing_threshold, union))


def _thm35_rows(grid: dict) -> Iterator[tuple]:
    for g in corpus.connected_graphs(min(_cap(grid, 6), 6)):
        name = emit_graph6(g)
        # a vertex per orbit names the graph's rows
        copies = yield from _guarded("root orbits", name, _rooted_copies, g)
        for h in copies or ():
            yield (f"{name},u={h.root}", lambda: int(is_steady(g, h.root)),
                   lambda: int(_restriction_property(g, h.root)))


def _thm37_rows(grid: dict) -> Iterator[tuple]:
    defaults = [("K3", [2, 3, 4, 5]), ("K4", [2, 3, 4]), ("C5", [2, 3]),
                ("K4-e", [2]), ("P4", [2])]
    for name, root, t in _vsum_instances(grid, defaults):
        instance = f"{name}@{root},t={t}"
        built = yield from _guarded("construction", instance, _vsum_power,
                                    name, root, t)
        if built is None:
            continue
        g, product = built
        bound = yield from _guarded("preconditions", instance,
                                    formulas.d_vertex_sum_power, g, root, t)
        if bound is not None:
            unmet = () if bound.exact else (
                "root is not steady: the minimum form is an upper bound only",)
            yield (instance, lambda: bound.value, partial(_brute_d, product),
                   unmet)


_RADICAL_NOTE = ("radical rearrangement under test; the direct scan of the "
                 "defining minimum is the canonical value")


def _vsum_closed_rows(rule: str, closed_form,
                      defaults: Sequence[tuple[str, Sequence[int]]],
                      grid: dict) -> Iterator[tuple]:
    """cor3.8 and cor3.9: closed_form(n, t), the minimum form, against
    search on each t-fold vertex-sum, then the radical rows of each family.
    A rule takes only the families of its defaults; the error for any
    other family names the rule by its id, rule."""
    instances = _vsum_instances(grid, defaults)
    kinds = [name for name, _ in defaults]
    family = grid.get("family")
    if family is not None:
        if family not in kinds:
            raise InvalidInputError(
                f"rule {rule} takes family {', '.join(kinds)}, "
                f"got {family!r}")
        kinds = [family]
    for name, root, t in instances:
        instance = f"{name},t={t},min-form"
        built = yield from _guarded("construction", instance, _vsum_power,
                                    name, root, t)
        if built is not None:
            g, product = built
            yield (instance, partial(closed_form, g.n, t),
                   partial(_brute_d, product))
    ts = _ints(grid, "t", range(2, 51))
    for kind in kinds:
        for row in formulas.radical_discrepancy_rows(kind, ts):
            yield (f"{kind},t={row.t},radical", lambda: row.radical_form,
                   lambda: row.minimum_form, (), (_RADICAL_NOTE,))


# the vertex-sums of thm3.10 and thm3.12, each named by its rooted factors
_THM310 = ("K3@0+C4@0", "K3@0+K4@0", "C4@0+C5@0", "K3@0+C4@0+C5@0",
           "K3@0+K4-e@2", "star3@0+P3@1")
_THM312 = ("K3@0+K3@0", "K3@0+C4@0", "C4@0+C4@0", "K3@0+K4@0", "C5@0+C5@0",
           "C4@0+K4-e@0", "P4@0+P4@0")


def _vsum_rooted_rows(names: Sequence[str], predicted_of, brute_of, unmet_of,
                      grid: dict) -> Iterator[tuple]:
    """thm3.10 and thm3.12: predicted_of(factors) against brute_of on the
    vertex-sum of the rooted factors each of names spells, with
    unmet_of(factors) the preconditions the factors fail.  The instances
    are fixed, so the rules read no grid key."""
    for name in names:
        built = yield from _guarded("construction", name, _joined, name,
                                    _rooted, products.vertex_sum)
        if built is None:
            continue
        factors, product = built
        unmet = yield from _guarded("preconditions", name, unmet_of, factors)
        if unmet is not None:
            yield (name, partial(predicted_of, factors),
                   partial(brute_of, product), unmet)


def _thm313_rows(grid: dict) -> Iterator[tuple]:
    pairs = [(3, 2), (3, 3), (4, 2), (5, 2)]
    if "n" in grid or "t" in grid:
        ns = _ints(grid, "n", [3])
        ts = _ints(grid, "t", [2])
        pairs = [(n, t) for n in ns for t in ts]
    for n, t in pairs:
        instance = f"C{n},t={t}"
        built = yield from _guarded("construction", instance, _vsum_power,
                                    f"C{n}", 0, t)
        if built is not None:
            yield (instance, partial(formulas.theta_vsum_cycles, n, t),
                   partial(distinguishing_threshold, built[1]))


def _rooted_copies(h: Graph) -> tuple[RootedGraph, ...]:
    """h rooted at the least vertex of each orbit of its group."""
    return _rooted_copies_under(h, limits.aut_cap())


@lru_cache(maxsize=256)
def _rooted_copies_under(h: Graph, max_aut: int) -> tuple[RootedGraph, ...]:
    """_rooted_copies under the automorphism cap max_aut."""
    return tuple(RootedGraph(h, ob[0]) for ob in orbits(automorphism_group(h)))


# per product kind: the least base order, the vertices each base vertex
# adds beside its copy's, the copies of one pool graph, and the name of
# its constructor in products
_PRODUCTS = {"rooted": (2, 0, _rooted_copies, "rooted_product_smooth"),
             "corona": (2, 1, lambda h: (h,), "corona"),
             "lex": (1, 0, lambda h: (h,), "lexicographic")}


@lru_cache(maxsize=2048)
def _product(kind: str, g: Graph, h, max_vertices: int) -> Graph:
    """The product of the kind of g and h, built under the vertex cap
    max_vertices.  The constructor is looked up in products at each build,
    so a wrapper installed there sees every build."""
    return getattr(products, _PRODUCTS[kind][3])(g, h)[0]


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


def _product_rows(kind: str, predicted_of, brute_of, unmet_of,
                  grid: dict) -> Iterator[tuple]:
    """One row per factor pair of the kind's grid, "rooted" (a copy per
    root orbit), "corona" or "lex": predicted_of(g, h) against brute_of on
    the product graph, with unmet_of(g, h) the preconditions the pair fails
    (for "lex", the naturality check).  A pool graph whose root orbits hit
    a budget is one skip per base, named without a root.  Each distinct
    factor is named once per rule."""
    copies_of = _PRODUCTS[kind][2]
    name = cache(emit_graph6)
    for g, hb in _pairs(kind, grid):
        copies = yield from _guarded("root orbits",
                                     f"{kind}({name(g)},{name(hb)})",
                                     copies_of, hb)
        for h in copies or ():
            copy = f"{name(hb)}@{h.root}" if kind == "rooted" else name(hb)
            instance = f"{kind}({name(g)},{copy})"
            unmet = yield from _guarded("preconditions", instance, unmet_of,
                                        g, h)
            if unmet is None:
                continue
            product = yield from _guarded("construction", instance, _product,
                                          kind, g, h, limits.vertex_cap())
            if product is not None:
                yield (instance, partial(predicted_of, g, h),
                       partial(brute_of, product), unmet)


def _verdicts(rule_id: str, rows: Callable[[dict], Iterator[tuple]],
              grid: dict) -> list[TheoremVerdict]:
    """The one place a rule's verdicts are built: one per row of
    rows(grid), in order.  A row is (instance, predicted, brute[, unmet[,
    notes]]), with the two sides as thunks, or (instance, reason) for a skip
    record; each row is evaluated before the next is drawn."""
    return [_skip(rule_id, *row) if len(row) == 2 else _verdict(rule_id, *row)
            for row in rows(grid)]


@dataclass(frozen=True)
class Rule:
    rule_id: str
    summary: str
    runner: Callable[[dict], list[TheoremVerdict]]
    keys: tuple[str, ...]  # the grid keys the runner reads


def _rule(rule_id: str, summary: str, rows, keys: tuple[str, ...],
          *args) -> Rule:
    """A rule whose verdicts come from the row generator rows(*args, grid)."""
    return Rule(rule_id, summary,
                partial(_verdicts, rule_id, partial(rows, *args)), keys)


def _product_rule(rule_id: str, summary: str, kind: str, predicted_of,
                  brute_of, unmet_of) -> Rule:
    """A rule over the factor pairs of one product kind (see _product_rows),
    read at the grid's max."""
    return _rule(rule_id, summary, _product_rows, ("max",), kind,
                 predicted_of, brute_of, unmet_of)


_RULES: tuple[Rule, ...] = (
    _rule("eq1", "path coloring-count closed form vs partition search",
          _eq1_rows, ("n", "k")),
    _rule("eq2", "factorial/Stirling exact count above the threshold and the "
          "binomial accumulation identity vs partition search", _eq2_rows,
          ("max",)),
    _product_rule("eq3", "corona group order = base order times copy order "
                  "to the base size, vs enumerated product group", "corona",
                  formulas.aut_order_corona, _brute_order,
                  formulas.corona_preconditions),
    _rule("thm2.1", "disjoint-union threshold case analysis vs enumerated "
          "threshold", _thm21_rows, ()),
    _rule("thm3.5", "steady vertex iff every distinguishing coloring "
          "restricts to a distinguishing coloring of the deletion",
          _thm35_rows, ("max",)),
    _rule("thm3.7", "t-fold vertex-sum distinguishing number: minimum-form "
          "bound, exact at steady roots, vs search", _thm37_rows,
          ("family", "t")),
    _rule("cor3.8", "complete-graph vertex-sum: minimum form vs search, and "
          "radical closed form vs minimum form", _vsum_closed_rows,
          ("family", "t"), "cor3.8", formulas.d_vsum_complete_closed,
          (("K3", (2, 3, 4, 5)), ("K4", (2, 3, 4)), ("K5", (2,)))),
    _rule("cor3.9", "cycle vertex-sum: minimum form vs search, and radical "
          "closed form vs minimum form", _vsum_closed_rows, ("family", "t"),
          "cor3.9", formulas.d_vsum_cycles, (("C5", (2, 3)), ("C7", (2,)))),
    _rule("thm3.10", "vertex-sum of distinct 2-connected steady-rooted "
          "factors: max deletion distinguishing number vs search",
          _vsum_rooted_rows, (), _THM310,
          formulas.d_vsum_nonisomorphic, _brute_d,
          formulas.d_vsum_nonisomorphic_preconditions),
    _rule("thm3.12", "vertex-sum threshold = threshold of the union of "
          "deletions + 1, vs enumeration", _vsum_rooted_rows, (),
          _THM312, formulas.theta_vsum_2connected,
          distinguishing_threshold,
          formulas.theta_vsum_2connected_preconditions),
    _rule("thm3.13", "t-fold cycle vertex-sum threshold closed form vs "
          "enumeration", _thm313_rows, ("n", "t")),
    _product_rule("thm4.2", "rooted-product group order = base order times "
                  "root-stabilizer order to the base size, vs enumeration",
                  "rooted", formulas.aut_order_rooted, _brute_order,
                  formulas.rooted_preconditions),
    _product_rule("thm4.3", "rooted-product distinguishing number via rooted "
                  "coloring counts, vs search", "rooted", formulas.d_rooted,
                  _brute_d, formulas.rooted_preconditions),
    _product_rule("thm4.4", "rooted-product threshold case analysis vs "
                  "enumeration", "rooted", formulas.theta_rooted,
                  distinguishing_threshold,
                  formulas.theta_rooted_preconditions),
    _product_rule("thm5.1", "corona distinguishing number via k times the "
                  "copy's coloring count, vs search", "corona",
                  formulas.d_corona, _brute_d, formulas.corona_preconditions),
    _product_rule("thm5.2", "corona threshold case analysis vs enumeration",
                  "corona", formulas.theta_corona, distinguishing_threshold,
                  formulas.corona_preconditions),
    _product_rule("thm6.1", "lexicographic threshold case analysis under "
                  "fiber-preserving groups, vs enumeration", "lex",
                  formulas.theta_lexicographic, distinguishing_threshold,
                  formulas.lexicographic_preconditions),
    _product_rule("lex-d", "lexicographic distinguishing number via the "
                  "inner factor's coloring counts, vs search", "lex",
                  formulas.d_lexicographic, _brute_d,
                  formulas.lexicographic_preconditions),
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
