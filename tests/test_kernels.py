"""The search kernels against plain reference walks, and their memos."""

from __future__ import annotations

import gc
import math
import subprocess
import sys
import tracemalloc

import pytest

from symbreak import graph6, kernels, limits, perms, verify
from symbreak.errors import BudgetExceededError
from symbreak.graphs import (RootedGraph, asymmetric6, complete,
                             complete_bipartite, cycle, delete_vertex, kneser,
                             path, petersen, star)
from symbreak.indices import (distinguishing_number, graph_indices, phi_brute,
                              rooted_indices)
from symbreak.perms import (AutGroup, automorphism_group,
                            enumerate_automorphisms, orbits)
from symbreak.products import lexicographic

from conftest import vsum

SAMPLE = [path(5), cycle(6), complete(5), star(4), petersen(),
          asymmetric6(), complete_bipartite(2, 3)]


def _adj(g):
    return g.adjacency()


def _fresh_exists(*args):
    """The existence search itself, not its per-process memo."""
    kernels._exists.cache_clear()
    return kernels.exists_distinguishing_partition(*args)


def _fresh_probe(n, adj, k, node_budget, colors=None):
    """The probes of rung k on graph adj, one class of size 1, from the
    chain searched from colors, not from their per-process memo."""
    kernels._probe.cache_clear()
    _, chain = kernels.search_automorphisms(n, adj, 10**7, colors)
    return kernels._probe(n, tuple(adj), colors, chain, (0,) * n, (1,), k,
                          node_budget)


def _fresh_count(*args):
    """The count climbed from an empty ladder: its per-process memo is
    cleared before and after, so no ladder outlives the call."""
    kernels._count.cache_clear()
    try:
        return kernels.count_distinguishing_partitions(*args)
    finally:
        kernels._count.cache_clear()


def test_backend_reports_a_name():
    assert kernels.backend_name() == "pure"


def _closure(n, generators):
    """Every product of the generators, by breadth-first search."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        frontier = [img for e in frontier for t in generators
                    for img in [tuple(t[v] for v in e)] if img not in seen]
        seen.update(frontier)
    return seen


@pytest.mark.parametrize("g", SAMPLE, ids=lambda g: f"n{g.n}m{g.m}")
def test_generators_give_the_search_order(g):
    order, chain = kernels.search_automorphisms(g.n, _adj(g), 10**7)
    generators = [t for reps in chain for t in reps[1:]]
    elements = [p.image for p in enumerate_automorphisms(g)]
    assert order == len(elements)
    assert _closure(g.n, generators) == set(elements)
    with pytest.raises(BudgetExceededError,
                       match=f"^automorphism search exceeded cap {order - 1}$"):
        kernels.search_automorphisms(g.n, _adj(g), order - 1)


def _search_order_reference(n, adj, colors):
    """The search order as first written: the prefix's neighborhood is
    ORed together again at every step."""
    size = {c: 0 for c in colors}
    for c in colors:
        size[c] += 1
    order = []
    placed = 0
    while len(order) < n:
        adj_mask = 0
        for v in order:
            adj_mask |= adj[v]
        best = min((v for v in range(n) if not placed >> v & 1),
                   key=lambda v: (not adj_mask >> v & 1, size[colors[v]], v))
        order.append(best)
        placed |= 1 << best
    return order


def test_search_order_matches_reference(connected7):
    for g in connected7:
        for h in [g] + [delete_vertex(g, u) for u in range(g.n)]:
            adj = h.adjacency()
            colors = kernels._refine_colors(h.n, adj)
            assert (kernels._search_order(h.n, adj, colors)
                    == _search_order_reference(h.n, adj, colors))


def _exists_reference(n, elements, kmax):
    """The existence search as first written, over image and inverse lists,
    filtering a list of element ids at every node, trying the blocks newest
    first; returns (answer, nodes), one node per child, counted before the
    child is tried."""
    invs = []
    for e in elements:
        inv = [0] * n
        for v in range(n):
            inv[e[v]] = v
        invs.append(inv)
    color = [-1] * n
    nodes = 0

    def rec(v, b, live):
        nonlocal nodes
        # newest block first: a witness needs many blocks
        for c in range(min(b + 1, kmax) - 1, -1, -1):
            nodes += 1
            color[v] = c
            nlive = [e for e in live
                     if not (elements[e][v] < v
                             and color[elements[e][v]] != c)
                     and not (invs[e][v] < v and color[invs[e][v]] != c)]
            if not nlive or (v + 1 < n
                             and rec(v + 1, b + 1 if c == b else b, nlive)):
                return True
        return False

    return rec(0, 0, list(range(len(elements)))), nodes


def _exists_rungs(connected7):
    """(n, elements, k, reference answer, reference nodes) for every rung
    k = 2..D of the corpus groups: minimal cycle partitions for every
    nontrivial group, every non-identity element for the groups of order
    at most 240."""
    rungs = []
    for g in connected7:
        group = enumerate_automorphisms(g)
        if group.is_trivial():
            continue
        sets = [group.minimal_cycles]
        if group.order <= 240:
            sets.append(group.nonidentity_images())
        for elements in sets:
            for k in range(2, g.n + 1):
                found, nodes = _exists_reference(g.n, elements, k)
                rungs.append((g.n, elements, k, found, nodes))
                if found:
                    break
    return rungs


def _assert_exists_budget_boundary(rungs):
    kernels._exists.cache_clear()
    for n, elements, k, found, nodes in rungs:
        assert kernels.exists_distinguishing_partition(
            n, elements, k, nodes) is found
        with pytest.raises(BudgetExceededError,
                           match=f"^coloring search exceeded budget "
                                 f"{nodes - 1}$"):
            kernels.exists_distinguishing_partition(n, elements, k, nodes - 1)


# without its memo the existence search is the plain existence walk
def test_exists_visits_the_reference_nodes(monkeypatch, connected7):
    monkeypatch.setattr(kernels, "_MEMO_WORDS", 0)
    rungs = _exists_rungs(connected7)
    assert sum(found for *_, found, _ in rungs) > 1000
    _assert_exists_budget_boundary(rungs)


def test_exists_memo_never_charges_more_nodes(connected7):
    kernels._exists.cache_clear()
    below = 0
    for n, elements, k, found, nodes in _exists_rungs(connected7):
        assert kernels.exists_distinguishing_partition(
            n, elements, k, nodes) is found
        try:
            assert kernels.exists_distinguishing_partition(
                n, elements, k, nodes - 1) is found
            below += 1
        except BudgetExceededError:
            pass
    # dead subtrees met again are skipped, on most rungs
    assert below >= 1000


def test_exists_budget_boundary_past_64_vertices(monkeypatch):
    monkeypatch.setattr(kernels, "_MEMO_WORDS", 0)
    with limits.scoped(max_vertices=66):
        g = path(66)
    elements = enumerate_automorphisms(g).minimal_cycles
    found, nodes = _exists_reference(66, elements, 2)
    assert (found, nodes) == (True, 66)
    _assert_exists_budget_boundary([(66, elements, 2, found, nodes)])


def test_exists_answers_a_non_natural_lex_product():
    # rungs k = 2..5 must each be shown empty; within 10^6 nodes only the
    # memo of dead subtrees does that.  D's own ladder starts at 6, its
    # largest transposition class, so the rungs are asked here
    g, _ = lexicographic(graph6.parse_graph6("En}?"),
                         graph6.parse_graph6("A_"))
    minimal = automorphism_group(g).minimal_cycles
    kernels._exists.cache_clear()
    assert not any(kernels.exists_distinguishing_partition(
        g.n, minimal, k, 10**6) for k in range(2, 6))
    with limits.scoped(max_colorings=10**6):
        assert distinguishing_number(g) == 6 == graph_indices(g).d


def _count_reference(n, elements, kmax):
    """The plain count: the walk of _exists_reference taken to the end,
    trying the blocks in increasing order.  A node that leaves no element
    live adds every completion of its partition to A, one by one; a full
    assignment with a live element adds nothing.  Returns (A, nodes), nodes
    counted as there."""
    invs = [[e.index(v) for v in range(n)] for e in elements]
    color = [-1] * n
    A = [0] * (kmax + 1)
    nodes = 0

    def close(v, b):
        if v == n:
            A[b] += 1
            return
        for c in range(min(b + 1, kmax)):
            close(v + 1, b + 1 if c == b else b)

    def rec(v, b, live):
        nonlocal nodes
        for c in range(min(b + 1, kmax)):
            nodes += 1
            color[v] = c
            nlive = [e for e in live
                     if not (elements[e][v] < v
                             and color[elements[e][v]] != c)
                     and not (invs[e][v] < v and color[invs[e][v]] != c)]
            nb = b + 1 if c == b else b
            if not nlive:
                close(v + 1, nb)
            elif v + 1 < n:
                rec(v + 1, nb, nlive)

    rec(0, 0, list(range(len(elements))))
    return A, nodes


def _labelling_reference(n, elements, k):
    """The plain labelling walk with one class and k labels: the walk of
    _exists_reference taken to the end, trying the blocks in increasing
    order.  A new block weighs the labels still unused, a node that leaves
    no element live labels the rest freely, and a full assignment with a
    live element adds nothing.  Returns (labellings, nodes), nodes counted
    as there."""
    invs = [[e.index(v) for v in range(n)] for e in elements]
    color = [-1] * n
    nodes = 0

    def rec(v, b, live):
        nonlocal nodes
        total = 0
        for c in range(min(b + 1, k)):
            nodes += 1
            color[v] = c
            nlive = [e for e in live
                     if not (elements[e][v] < v
                             and color[elements[e][v]] != c)
                     and not (invs[e][v] < v and color[invs[e][v]] != c)]
            if not nlive:
                ways = k ** (n - v - 1)
            elif v + 1 < n:
                ways = rec(v + 1, b + 1 if c == b else b, nlive)
            else:
                continue
            total += ways * (k - b if c == b else 1)
        return total

    return rec(0, 0, list(range(len(elements)))), nodes


# the count from an empty ladder, without the walk's memo, gives the plain
# count's A, and charges the plain labelling walk's nodes at k = 1..K, summed
def test_count_visits_the_reference_nodes(monkeypatch, connected7):
    monkeypatch.setattr(kernels, "_MEMO_WORDS", 0)
    rungs = _exists_rungs(connected7)
    for n, elements, k, _, _ in rungs:
        A, _ = _count_reference(n, elements, k)
        nodes = sum(_labelling_reference(n, elements, j)[1]
                    for j in range(1, k + 1))
        assert _fresh_count(n, elements, k, nodes) == A
        with pytest.raises(BudgetExceededError,
                           match=f"^coloring search exceeded budget "
                                 f"{nodes - 1}$"):
            _fresh_count(n, elements, k, nodes - 1)


def test_budget_raises():
    g = complete(6)
    with pytest.raises(BudgetExceededError):
        kernels.search_automorphisms(g.n, _adj(g), 100)
    elems = [p.image for p in automorphism_group(cycle(6)).elements
             if not p.is_identity()]
    with pytest.raises(BudgetExceededError):
        kernels.count_distinguishing_partitions(6, elems, 6, 10)


def test_pure_backend_full_pipeline():
    """Indices computed in a fresh interpreter, with its own hash seed and
    empty memos, match this process's."""
    code = (
        "from symbreak.indices import graph_indices\n"
        "from symbreak.graphs import petersen\n"
        "r = graph_indices(petersen(), phi_max=3)\n"
        "print(r.d, r.theta, r.aut_order,\n"
        "      [(row.k, row.phi, row.varphi) for row in r.phi.rows])\n")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True)
    r = graph_indices(petersen(), phi_max=3)
    expected = (f"{r.d} {r.theta} {r.aut_order} "
                f"{[(row.k, row.phi, row.varphi) for row in r.phi.rows]}")
    assert out.stdout.strip() == expected


def _c6_elements():
    return [p.image for p in automorphism_group(cycle(6)).elements
            if not p.is_identity()]


K6 = complete(6).adjacency()
C6 = cycle(6).adjacency()
C6_RELABELLED = cycle(6).relabel([3, 5, 1, 0, 2, 4]).adjacency()


def _fresh_k6():
    return AutGroup(6, K6, *kernels.search_automorphisms(6, K6, 10**7))


PIN_0 = (1, 0, 0, 0, 0, 0)  # vertex 0 in a class of its own

# (kernel call, whether it spends its budget)
KERNEL_CALLS = {
    "search": (lambda: kernels.search_automorphisms(6, K6, 10**7), False),
    "search-budget": (lambda: kernels.search_automorphisms(6, K6, 100), True),
    "search-pinned": (lambda: kernels.search_automorphisms(6, K6, 10**7,
                                                           PIN_0), False),
    "search-pinned-budget": (lambda: kernels.search_automorphisms(
        6, K6, 100, PIN_0), True),
    # what a group reads from the chain's products, early exit included,
    # each on a fresh group
    "search-stream": (lambda: (_fresh_k6().max_cycles,
                               _fresh_k6().minimal_cycles,
                               _fresh_k6().elements,
                               orbits(_fresh_k6())), False),
    "blocks": (lambda: kernels.all_automorphisms_preserve_blocks(
        6, K6, [0, 0, 1, 1, 2, 2], 10**7), False),
    "blocks-budget": (lambda: kernels.all_automorphisms_preserve_blocks(
        6, K6, [0] * 6, 100), True),
    "iso": (lambda: kernels.isomorphic(6, C6, C6_RELABELLED, (0, 3)), False),
    "count": (lambda: _fresh_count(6, _c6_elements(), 3, 10**7), False),
    "count-budget": (lambda: _fresh_count(6, _c6_elements(), 3, 10), True),
    # 180 nodes suffice only with memo hits: the plain walks need 227
    "count-memo": (lambda: _fresh_count(6, _c6_elements(), 3, 180), False),
    "exists": (lambda: _fresh_exists(6, _c6_elements(), 3, 10**7), False),
    "exists-budget": (lambda: _fresh_exists(6, _c6_elements(), 6, 2), True),
    "labellings": (lambda: kernels.count_distinguishing_labellings(
        6, _c6_elements(), (0,) * 6, (3,), 10**7), False),
    "labellings-budget": (lambda: kernels.count_distinguishing_labellings(
        6, _c6_elements(), (0,) * 6, (3,), 2), True),
    "probe": (lambda: _fresh_probe(6, C6, 3, 10**7), False),
    "probe-pinned": (lambda: _fresh_probe(6, K6, 5, 10**7, PIN_0), False),
    "probe-budget": (lambda: _fresh_probe(6, K6, 5, 47), True),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CALLS))
def test_pure_kernels_leave_no_reference_cycles(name):
    call, spends_budget = KERNEL_CALLS[name]
    automorphism_group(cycle(6))  # warm the group cache outside the window
    gc.collect()
    gc.disable()
    try:
        raised = False
        try:
            call()
        except BudgetExceededError:
            raised = True
        assert raised == spends_budget
        assert gc.collect() == 0
    finally:
        gc.enable()


def _peak_traced_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pure_budget_exit_builds_no_elements():
    adj = complete(30).adjacency()

    def call():
        with pytest.raises(BudgetExceededError,
                           match="exceeded cap 100000$"):
            kernels.search_automorphisms(30, adj, 100_000)

    assert _peak_traced_bytes(call) < 1 << 20


def test_automorphism_search_is_the_chain_on_every_backend():
    # the search answers with the stabilizer chain, not with the group:
    # |Aut| is the product of the transversal sizes, each transversal
    # opens with the identity and holds automorphisms only
    for g in SAMPLE:
        adj = g.adjacency()
        order, chain = kernels.search_automorphisms(g.n, adj, math.inf)
        assert order == math.prod(len(t) for t in chain)
        ident = tuple(range(g.n))
        for t in chain:
            assert t[0] == ident and len(set(t)) == len(t) > 1
            for img in t[1:]:
                assert all(adj[img[v]] == sum(1 << img[u] for u in range(g.n)
                                              if adj[v] >> u & 1)
                           for v in range(g.n))
        generators = [img for t in chain for img in t[1:]]
        assert len(_closure(g.n, generators)) == order


def test_pure_stream_stores_no_group():
    adj = complete(8).adjacency()

    def call():
        group = AutGroup(8, adj,
                         *kernels.search_automorphisms(8, adj, 10**7))
        assert (group.order, group.max_cycles) == (40320, 7)

    assert _peak_traced_bytes(call) < 1 << 20


def test_max_cycles_stops_at_n_minus_1():
    # 12! products would take hours; the first block holds a transposition
    adj = complete(12).adjacency()
    group = AutGroup(12, adj,
                     *kernels.search_automorphisms(12, adj, math.inf))
    assert group.order == math.factorial(12)
    assert group.max_cycles == 11


def test_chain_answers_of_k9_store_no_group():
    def call():
        # automorphism_group without its cache, so the group is fresh
        group = enumerate_automorphisms(complete(9))
        assert len(group.minimal_cycles) == 36
        assert group.max_cycles == 8
        assert orbits(group) == (tuple(range(9)),)
        assert "elements" not in vars(group)

    assert _peak_traced_bytes(call) < 5 << 20


def _minimal(g):
    return automorphism_group(g).minimal_cycles


def test_count_memo_skips_nodes(monkeypatch):
    c6 = _c6_elements()
    assert _fresh_count(6, c6, 3, 180) == [0, 0, 6, 68]
    c4x4 = _minimal(vsum(cycle(4), 4))
    assert _fresh_count(13, c4x4, 3, 30_000) == [0, 0, 0, 24192]
    # without the memo the same budgets run out
    monkeypatch.setattr(kernels, "_MEMO_WORDS", 0)
    with pytest.raises(BudgetExceededError,
                       match="^coloring search exceeded budget 180$"):
        _fresh_count(6, c6, 3, 180)
    with pytest.raises(BudgetExceededError):
        _fresh_count(13, c4x4, 3, 30_000)


# nodes the memoized count charges over its walks at k = 1, 2, 3: one
# budget for all of them, so no single walk may spend it alone
@pytest.mark.parametrize("elements,total,A", [
    (_c6_elements, 180, [0, 0, 6, 68]),
    (lambda: _minimal(vsum(cycle(4), 4)), 25_245, [0, 0, 0, 24192])],
    ids=["C6", "C4x4"])
def test_count_charges_one_budget_across_its_walks(elements, total, A):
    elements = elements()
    n = len(elements[0])
    assert _fresh_count(n, elements, 3, total) == A
    with pytest.raises(BudgetExceededError,
                       match=f"^coloring search exceeded budget "
                             f"{total - 1}$"):
        _fresh_count(n, elements, 3, total - 1)


@pytest.mark.parametrize("g,k", [(vsum(cycle(4), 4), 3),
                                 (vsum(complete(3), 5), 4)],
                         ids=["C4x4", "K3x5"])
def test_count_is_exact_whatever_the_memo_holds(monkeypatch, g, k):
    elements = _minimal(g)
    full = _fresh_count(g.n, elements, k, 10**7)
    assert sum(full) > 0
    # a full memo searches on without storing; 0 stores nothing at all
    for words in (2_000, 0):
        monkeypatch.setattr(kernels, "_MEMO_WORDS", words)
        assert _fresh_count(g.n, elements, k, 10**7) == full


def test_count_memo_memory_is_capped(monkeypatch):
    elements = _minimal(kneser(7, 2))

    def call():
        with pytest.raises(BudgetExceededError):
            _fresh_count(21, elements, 3, 5_000)

    full = _peak_traced_bytes(call)
    monkeypatch.setattr(kernels, "_MEMO_WORDS", 1 << 12)
    capped = _peak_traced_bytes(call)
    # 4096 words of memo plus the kill table; uncapped, this search
    # stores several times that before its budget runs out
    assert capped < 384 << 10
    assert full > 2 * capped


# -- probes ----------------------------------------------------------------------

def test_probe_charges_n_nodes_per_labelling():
    # C6 at 3 labels: the first labelling that no rotation or reflection
    # keeps is the probe's witness, after a node per vertex per probe
    witness, nodes = _fresh_probe(6, C6, 3, 10**7)
    assert nodes % 6 == 0 and 0 < nodes <= 6 * kernels._PROBES
    assert not any(all(witness[e[v]] == witness[v] for v in range(6))
                   for e in _c6_elements())
    assert _fresh_probe(6, C6, 3, nodes) == (witness, nodes)
    with pytest.raises(BudgetExceededError,
                       match=f"^coloring search exceeded budget "
                             f"{nodes - 1}$"):
        _fresh_probe(6, C6, 3, nodes - 1)
    # K6 has no distinguishing labelling at 5 labels: every probe fails,
    # and the eighth exceeds a budget of 47
    assert _fresh_probe(6, K6, 5, 48) == (None, 48)
    with pytest.raises(BudgetExceededError,
                       match="^coloring search exceeded budget 47$"):
        _fresh_probe(6, K6, 5, 47)
    # a palette of 0 labels charges nothing
    assert kernels._probe(2, (2, 1), None, (((0, 1), (1, 0)),), (0, 0),
                          (4,), 3, 0) == (None, 0)


def test_walk_charges_on_top_of_the_probes():
    # K6's D: its transposition class starts the rungs at 6, where no
    # probe finds a witness, so the walk charges past their 48 nodes
    g = complete(6)
    group = automorphism_group(g)
    kernels._probe.cache_clear()
    assert kernels._probe(6, group.adj, None, group.chain, (0,) * 6, (1,),
                          6, 10**7) == (None, 48)
    found, walk = kernels.count_distinguishing_labellings(
        6, group.minimal_cycles, (0,) * 6, (6,), 10**7, True)
    assert found == 1
    kernels._exists.cache_clear()
    with limits.scoped(max_colorings=48 + walk):
        assert distinguishing_number(g, group) == 6
    with limits.scoped(max_colorings=48 + walk - 1):
        with pytest.raises(BudgetExceededError,
                           match=f"^coloring search exceeded budget "
                                 f"{48 + walk - 1}$"):
            distinguishing_number(g, group)


# -- per-process memos ---------------------------------------------------------

def test_memo_never_stores_a_spent_budget():
    kernels._count.cache_clear()
    kernels._exists.cache_clear()
    c6 = _c6_elements()
    for _ in range(2):
        # the count's first walk, at k = 1, charges 6 nodes
        with pytest.raises(BudgetExceededError,
                           match="^coloring search exceeded budget 5$"):
            kernels.count_distinguishing_partitions(6, c6, 3, 5)
        with pytest.raises(BudgetExceededError,
                           match="^coloring search exceeded budget 2$"):
            kernels.exists_distinguishing_partition(6, c6, 6, 2)
    assert kernels._count.cache_info().currsize == 0
    assert kernels._exists.cache_info().currsize == 0
    # at 10 the walk at k = 1 completes and the one at k = 2 raises: the
    # ladder keeps rung 1 and its nodes, and nothing of the walk that raised
    for _ in range(2):
        with pytest.raises(BudgetExceededError,
                           match="^coloring search exceeded budget 10$"):
            kernels.count_distinguishing_partitions(6, c6, 3, 10)
    assert kernels._count.cache_info().currsize == 1
    ladder = kernels._count(6, tuple(c6), (0,) * 6, (1,), 10)
    assert (ladder.N, ladder.nodes) == ([0], 6)
    assert kernels.count_distinguishing_partitions(6, c6, 1, 10) == [0, 0]
    # the same searches answer at a larger budget
    assert kernels.count_distinguishing_partitions(6, c6, 3, 10**7) == [
        0, 0, 6, 68]
    assert kernels.exists_distinguishing_partition(6, c6, 6, 10**7)


def test_eq2_runs_each_count_walk_once(walks):
    kernels._count.cache_clear()
    assert verify.run_rules(["eq2"])
    counts = [(n, elements, budget, palettes[0])
              for n, elements, budget, palettes, first in walks
              if not first]
    assert len(counts) > 100
    assert len(counts) == len(set(counts))


# a count whose ladder is climbed in two steps charges exactly what a fresh
# count charges at the top rung, and raises one node below it
@pytest.mark.parametrize("elements,total,A", [
    (_c6_elements, 180, [0, 0, 6, 68]),
    (lambda: _minimal(vsum(cycle(4), 4)), 25_245, [0, 0, 0, 24192])],
    ids=["C6", "C4x4"])
def test_memo_extends_the_ladder_a_fresh_count_climbs(walks, elements, total,
                                                      A):
    kernels._count.cache_clear()
    elements = tuple(elements())
    n = len(elements[0])
    assert kernels.count_distinguishing_partitions(n, elements, 2,
                                                   total) == A[:3]
    assert len(walks) == 2
    assert kernels.count_distinguishing_partitions(n, elements, 3,
                                                   total) == A
    assert len(walks) == 3
    assert kernels._count(n, elements, (0,) * n, (1,), total).nodes == total
    # a count at or below the ladder's top is a slice: no walk
    assert kernels.count_distinguishing_partitions(n, elements, 2,
                                                   total) == A[:3]
    assert kernels.count_distinguishing_partitions(n, elements, 1,
                                                   total) == A[:2]
    assert len(walks) == 3
    # one node short, the climb from rung 2 raises the unchanged text at
    # the walk a fresh count raises at, and rungs 1 and 2 still answer
    assert kernels.count_distinguishing_partitions(n, elements, 2,
                                                   total - 1) == A[:3]
    for _ in range(2):
        with pytest.raises(BudgetExceededError,
                           match=f"^coloring search exceeded budget "
                                 f"{total - 1}$"):
            kernels.count_distinguishing_partitions(n, elements, 3,
                                                    total - 1)
    del walks[:]
    assert kernels.count_distinguishing_partitions(n, elements, 1,
                                                   total - 1) == A[:2]
    assert kernels.count_distinguishing_partitions(n, elements, 2,
                                                   total - 1) == A[:3]
    assert walks == []
    # the ladder holds N_k = sum_j A_j * k!/(k-j)! for the rungs it climbed
    assert kernels._count(n, elements, (0,) * n, (1,), total - 1).N == [
        sum(a * math.perm(k, j) for j, a in enumerate(A[:k + 1]))
        for k in (1, 2)]


def test_ladder_of_classes_is_its_walks_on_one_budget():
    # K4,4's twin quotient: two classes of 4 false twins, swapped
    n, elements, classes, sizes = 2, ((1, 0),), (0, 0), (4,)
    kernels._count.cache_clear()
    counts = [kernels.count_distinguishing_labellings(
        n, elements, classes, (math.comb(k, 4),), 10**7)
        for k in range(1, 9)]
    assert kernels.labelling_ladder(n, elements, classes, sizes, 8,
                                    10**7) == [c for c, _ in counts]
    assert kernels._count(n, elements, classes, sizes, 10**7).nodes == sum(
        nodes for _, nodes in counts)
    # N_8 = |Aut_w(G')| * Phi_8(K4,4): two distinct 4-sets of 8 colors
    assert kernels.labelling_ladder(n, elements, classes, sizes, 8,
                                    10**7)[7] == 2 * 2415
    # the sizes are part of the key
    assert kernels.labelling_ladder(n, elements, classes, (1,), 2,
                                    10**7) == [0, 2]
    assert kernels._count.cache_info().currsize == 2


def test_count_below_one_block_runs_no_walk(walks):
    kernels._count.cache_clear()
    c6 = _c6_elements()
    assert kernels.count_distinguishing_partitions(6, c6, 0, 1) == [0]
    assert kernels.count_distinguishing_partitions(6, c6, -1, 1) == []
    assert kernels.count_distinguishing_partitions(0, [], 2, 1) == [0, 0, 0]
    assert walks == []
    assert kernels._count.cache_info().currsize == 0


def test_memo_keeps_the_budget_in_its_key():
    g = cycle(6)
    group = automorphism_group(g)
    assert phi_brute(g, 3, group) == phi_brute(g, 3, group)
    with limits.scoped(max_colorings=10):
        with pytest.raises(BudgetExceededError,
                           match="^coloring search exceeded budget 10$"):
            phi_brute(g, 3, group)


def test_memo_answers_a_fresh_list():
    c6 = _c6_elements()
    first = kernels.count_distinguishing_partitions(6, c6, 3, 10**7)
    first[2] = -1
    first.append(5)
    assert kernels.count_distinguishing_partitions(6, c6, 3, 10**7) == [
        0, 0, 6, 68]


def test_memo_key_reads_elements_as_a_tuple():
    kernels._count.cache_clear()
    kernels._exists.cache_clear()
    c6 = _c6_elements()
    assert isinstance(c6, list)
    for search in (kernels.count_distinguishing_partitions,
                   kernels.exists_distinguishing_partition):
        assert search(6, c6, 3, 10**7) == search(6, tuple(c6), 3, 10**7)
    for memo in (kernels._count, kernels._exists):
        info = memo.cache_info()
        assert (info.hits, info.misses) == (1, 1)


def test_cache_clear_empties_every_memo():
    g = cycle(6)
    group = automorphism_group(g)
    rooted_indices(RootedGraph(g, 0), phi_max=3)
    distinguishing_number(g, group)
    kernels.exists_distinguishing_partition(6, group.minimal_cycles, 2, 10**7)
    verify._restriction_property(g, 0)
    memos = (kernels._count, kernels._exists, kernels._kill_table,
             kernels._probe, perms.colored_group,
             verify._distinguishing_partitions)
    assert all(memo.cache_info().currsize for memo in memos)
    # every lru_cache callable in the package's module namespaces, as a
    # caller that wants a process's fresh state would find them
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "symbreak":
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    assert not any(memo.cache_info().currsize for memo in memos)


def test_d_ladder_builds_one_kill_table(monkeypatch):
    g = vsum(complete(3), 4)
    group = automorphism_group(g)
    assert len(group.minimal_cycles) == 16
    kernels._exists.cache_clear()
    kernels._kill_table.cache_clear()
    # with the probes off, every rung is walked
    monkeypatch.setattr(kernels, "_probe", lambda *args: (None, 0))
    assert distinguishing_number(g, group) == 4
    # rungs k = 3, 4 read the table built on the first, k = 2
    info = kernels._kill_table.cache_info()
    assert (info.misses, info.hits) == (1, 2)
