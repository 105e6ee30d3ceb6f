"""The quotient route of graph_indices against the direct functions.

graph_indices collapses every twin class of a graph to one weighted vertex
and counts labellings of the quotient, a twin-free graph being its own
quotient; distinguishing_number, distinguishing_threshold, phi_table and
phi_brute stay on the direct route and serve as its oracles here.  The
route builds only the quotient's chain, so |Aut|, the automorphism budget
and the orbits behind steady are held to G's own chain too, and the
searches are counted.
"""

from __future__ import annotations

import json
import math
import random
import time
from itertools import product as iproduct

import pytest

from symbreak import graph6, kernels, limits, perms
from symbreak.errors import BudgetExceededError
from symbreak.graphs import (build_graph, complete, complete_bipartite, cycle,
                             path, petersen, star)
from symbreak.indices import (distinguishing_number, distinguishing_threshold,
                              graph_indices, phi_brute, phi_table,
                              twin_quotient)
from symbreak.perms import automorphism_group, orbits, stabilizer

from conftest import SYMMETRIC_SHAPES, vsum

K44_PENDANT = build_graph(9, [(u, 4 + v) for u in range(4) for v in range(4)]
                          + [(0, 8)])


def _assert_matches_direct(g):
    group = automorphism_group(g)
    # past n, so the Stirling and zero rows are compared too
    k_max = min(g.n, 6) + 3
    report = graph_indices(g, phi_max=k_max)
    assert report.aut_order == group.order
    assert report.d == distinguishing_number(g, group)
    assert report.theta == distinguishing_threshold(g, group)
    assert report.phi == phi_table(g, k_max, group)
    assert graph_indices(g).d == report.d
    twins = twin_quotient(g)
    sizes = math.prod(math.factorial(t) for _, t in twins.weights)
    assert sizes * twins.group(group.order).order == group.order


def test_corpus_matches_the_direct_route(connected7):
    assert len(connected7) == 996
    with_twins = 0
    for g in connected7:
        _assert_matches_direct(g)
        with_twins += twin_quotient(g).swaps > 1
    assert with_twins == 665


def test_quotient_stabilizers_keep_the_weights(connected7):
    # a quotient group keeps its weights, so a vertex's stabilizer in it is
    # the elements of the quotient group that fix the vertex
    for g in connected7:
        q = twin_quotient(g).group(limits.aut_cap())
        for x in range(q.n):
            fixing = sum(e[x] == x for e in q.elements)
            assert stabilizer(q, x).order == fixing


@pytest.mark.parametrize("name", sorted(SYMMETRIC_SHAPES))
def test_symmetric_shapes_match_the_direct_route(name):
    g = SYMMETRIC_SHAPES[name]()
    if name != "kneser_7_2":
        _assert_matches_direct(g)
        return
    # Kneser(7,2)'s phi rows would spend the coloring budget, so only D,
    # theta and |Aut| here
    group = automorphism_group(g)
    report = graph_indices(g)
    assert (report.aut_order, report.d, report.theta) == (
        group.order, distinguishing_number(g, group),
        distinguishing_threshold(g, group))


def test_twin_rows_walk_only_below_n(walks):
    # theta = n for a graph with twins, so the rows at k >= n need no walk
    table = graph_indices(complete(5), phi_max=40).phi
    assert len([w for w in walks if not w[4]]) <= 4
    assert table == phi_table(complete(5), 40)


@pytest.mark.parametrize("parts", [5, 6])
def test_weighted_quotient_rungs_start_at_the_largest_class(parts):
    # K_{2,...,2}: parts classes of two false twins over a complete
    # quotient, whose transposition class is parts.  C(4, 2) = 6 >= parts
    # pairs of colors give D = 4, below that class, so the quotient's rungs
    # must start from the class size, 2, not from its transpositions
    g = build_graph(2 * parts, [(u, v) for u in range(2 * parts)
                                for v in range(u) if u // 2 != v // 2])
    assert graph_indices(g).d == distinguishing_number(g) == 4


@pytest.mark.parametrize("g,quotient_order", [
    (vsum(cycle(4), 4), 24), (K44_PENDANT, 1), (complete_bipartite(4, 4), 2),
], ids=["vsum_C4x4", "K4,4+pendant", "K4,4"])
def test_rows_match_phi_brute(g, quotient_order):
    twins = twin_quotient(g)
    assert twins.group(automorphism_group(g).order).order == quotient_order
    assert len(twins.classes) > 1
    rows = graph_indices(g, phi_max=5).phi.rows
    for row in rows:
        assert (row.phi, row.varphi) == phi_brute(g, row.k)


@pytest.mark.parametrize("g,quotient", [
    (complete(4), (((0, 1, 2, 3),), ((1, 4),), (0,))),
    (star(3), (((0,), (1, 2, 3)), ((0, 1), (0, 3)), (0b10, 0b01))),
    # two true-twin classes, no loops
    (vsum(complete(3), 2), (((0,), (1, 2), (3, 4)), ((0, 1), (1, 2), (1, 2)),
                            (0b110, 0b001, 0b001))),
    # 0 and {1,2,3} both see {4..7}
    (K44_PENDANT, (((0,), (1, 2, 3), (4, 5, 6, 7), (8,)),
                   ((0, 1), (0, 3), (0, 4), (0, 1)),
                   (0b1100, 0b0100, 0b0011, 0b0001))),
    # no twins: singleton classes on g's own adjacency
    (path(4), (((0,), (1,), (2,), (3,)), ((0, 1),) * 4,
               (0b10, 0b101, 0b1010, 0b100))),
    (petersen(), (tuple((v,) for v in range(10)), ((0, 1),) * 10,
                  petersen().adjacency())),
], ids=["K4", "star3", "vsum_K3x2", "K4,4+pendant", "P4", "petersen"])
def test_twin_quotient(g, quotient):
    assert twin_quotient(g) == quotient


def _labellings_brute(n, elements, classes, palettes):
    count = 0
    for labels in iproduct(*(range(palettes[c]) for c in classes)):
        if not any(all(labels[e[v]] == labels[v] for v in range(n))
                   for e in elements):
            count += 1
    return count


def test_labelling_walk_against_enumeration(connected6):
    # classes are unions of orbits, so every element keeps them
    rng = random.Random(5)
    checked = 0
    for g in connected6:
        group = automorphism_group(g)
        if group.is_trivial():
            continue
        merged = [rng.randrange(3) for _ in orbits(group)]
        classes = [0] * g.n
        for ob, c in zip(orbits(group), merged):
            for v in ob:
                classes[v] = sorted(set(merged)).index(c)
        for _ in range(3):
            palettes = [rng.randint(1, 4) for _ in set(merged)]
            if math.prod(palettes[c] for c in classes) > 5000:
                continue
            want = _labellings_brute(g.n, group.nonidentity_images(),
                                     classes, palettes)
            got, _ = kernels.count_distinguishing_labellings(
                g.n, group.minimal_cycles, classes, palettes, 10**7)
            assert got == want
            assert kernels.count_distinguishing_labellings(
                g.n, group.minimal_cycles, classes, palettes, 10**7,
                True)[0] == min(want, 1)
            checked += 1
    assert checked > 300


def test_labelling_walk_on_any_elements():
    # the walk needs no group: random class-keeping permutations, where
    # two live elements can tie one later vertex to two frontier vertices
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 6)
        classes = [rng.randrange(2) for _ in range(n)]
        elements = set()
        for _ in range(rng.randint(1, 4)):
            image = list(range(n))
            for c in (0, 1):
                members = [v for v in range(n) if classes[v] == c]
                shuffled = rng.sample(members, len(members))
                for v, w in zip(members, shuffled):
                    image[v] = w
            if image != list(range(n)):
                elements.add(tuple(image))
        palettes = [rng.randint(1, 3), rng.randint(1, 3)]
        want = _labellings_brute(n, elements, classes, palettes)
        assert kernels.count_distinguishing_labellings(
            n, sorted(elements), classes, palettes, 10**7)[0] == want
    assert kernels.count_distinguishing_labellings(
        4, [(2, 1, 0, 3), (0, 2, 1, 3)], (0,) * 4, (2,), 10**7)[0] == 4


def test_labelling_walk_is_the_weighted_partition_count(connected7):
    # one class of palette k: N_k = sum_j A_j * k(k-1)...(k-j+1)
    for g in connected7[::7]:
        elements = automorphism_group(g).minimal_cycles
        for k in range(1, 5):
            A = kernels.count_distinguishing_partitions(g.n, elements, k,
                                                        10**7)
            assert kernels.count_distinguishing_labellings(
                g.n, elements, (0,) * g.n, (k,), 10**7)[0] == sum(
                    a * math.perm(k, j) for j, a in enumerate(A))


@pytest.mark.parametrize("first", [False, True])
def test_labelling_walk_budget(first):
    elements = automorphism_group(cycle(6)).minimal_cycles
    with pytest.raises(BudgetExceededError,
                       match="^coloring search exceeded budget 3$"):
        kernels.count_distinguishing_labellings(6, elements, (0,) * 6, (3,),
                                                3, first)


def test_analyze_scans_no_full_group(run_cli, monkeypatch):
    scanned, counted = [], []
    scan = perms._minimal_cycle_partitions
    count = kernels.labelling_polynomial

    def scan_spy(n, blocks):
        scanned.append(n)
        return scan(n, blocks)

    def count_spy(n, *args):
        counted.append(n)
        return count(n, *args)

    monkeypatch.setattr(perms, "_minimal_cycle_partitions", scan_spy)
    monkeypatch.setattr(kernels, "labelling_polynomial", count_spy)
    perms._cached_group.cache_clear()
    perms.colored_group.cache_clear()
    for argv, n in ((("builtin:complete:10",), 10),
                    (("builtin:complete:8", "--phi-max", "8", "--steady"), 8),
                    (("builtin:complete_bipartite:4:4", "--phi-max", "5"), 8)):
        code, _, err = run_cli("analyze", *argv)
        assert (code, err) == (0, "")
        assert n not in scanned and n not in counted
    # the spies see a twin-free graph's own scan and count
    code, _, _ = run_cli("analyze", "builtin:petersen", "--phi-max", "3")
    assert code == 0 and 10 in scanned and 10 in counted


@pytest.mark.parametrize("spec,d,theta,seconds", [
    ("builtin:kneser:7:2", 2, 17, None), ("builtin:kneser:9:2", 2, 30, 5)],
    ids=["kneser_7_2", "kneser_9_2"])
def test_probe_answers_d_with_no_scan_and_no_walk(run_cli, monkeypatch, walks,
                                                  spec, d, theta, seconds):
    # a probe answers the one rung and theta comes from the chain's levels
    # (AutGroup.max_cycles), so the minimal-cycle scan never runs and no
    # walk starts
    scanned = []
    scan = perms._minimal_cycle_partitions
    monkeypatch.setattr(perms, "_minimal_cycle_partitions",
                        lambda n, blocks: scanned.append(n) or scan(n, blocks))
    perms._cached_group.cache_clear()
    perms.colored_group.cache_clear()
    kernels._probe.cache_clear()
    start = time.perf_counter()
    code, out, err = run_cli("analyze", spec)
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    record = json.loads(out)["graphs"][0]
    assert (record["d"], record["theta"]) == (d, theta)
    assert scanned == [] and walks == []
    # Kneser(9,2)'s rung alone was a 3,175,310-node walk
    assert seconds is None or elapsed < seconds


@pytest.mark.parametrize("spec", [
    "builtin:complete_bipartite:4:4",
    "g6:" + graph6.emit_graph6(vsum(cycle(4), 4)),
], ids=["K4,4", "vsum_C4x4"])
@pytest.mark.parametrize("argv", [(), ("--phi-max", "3")],
                         ids=["d", "phi"])
def test_twin_route_spends_the_coloring_budget(run_cli, spec, argv):
    code, out, err = run_cli("analyze", spec, *argv, "--max-colorings", "1")
    record = json.loads(out)["graphs"][0]
    if argv and spec == "builtin:complete_bipartite:4:4":
        # K4,4's quotient has one atom, so its polynomial spends one join,
        # and the table reads D from it with no rung
        assert (code, err) == (0, "")
        assert (record["d"], record["theta"]) == (5, 8)
        return
    assert (code, err) == (3, "")
    assert record["skipped"] == "coloring search exceeded budget 1"


def test_twin_count_walks_share_one_budget(run_cli):
    # four C4 summed at a vertex: one labelling polynomial gives its counts
    # at k = 1..12, and its 6 atoms charge 35 joins in all
    spec = "g6:" + graph6.emit_graph6(vsum(cycle(4), 4))
    for budget, expected in ((34, 3), (35, 0)):
        code, out, err = run_cli("analyze", spec, "--phi-max", "12",
                                 "--max-colorings", str(budget))
        assert (code, err) == (expected, "")
        record = json.loads(out)["graphs"][0]
        assert record["skipped"] == (
            f"coloring search exceeded budget {budget}" if expected else None)


def test_twin_budget_is_the_order_of_g(connected7):
    shapes = [make() for _, make in sorted(SYMMETRIC_SHAPES.items())]
    graphs = [g for g in connected7 + tuple(shapes)
              if twin_quotient(g).swaps > 1]
    assert len(graphs) == 665 + 8
    for g in graphs:
        order = automorphism_group(g).order
        with limits.scoped(max_aut=order - 1):
            with pytest.raises(BudgetExceededError, match=(
                    f"^automorphism search exceeded cap {order - 1}$")):
                graph_indices(g)
        with limits.scoped(max_aut=order):
            assert graph_indices(g).aut_order == order


def test_twin_orbits_are_the_orbits_of_g(connected7):
    checked = 0
    for g in connected7:
        twins = twin_quotient(g)
        if twins.swaps > 1:
            group = automorphism_group(g)
            assert twins.orbits(twins.group(group.order)) == orbits(group)
            checked += 1
    assert checked == 665


@pytest.fixture
def certificates() -> list[int]:
    """n of every cap-1 search, the certificate of a probe labelling,
    while the test runs; the searches fixture fills it."""
    return []


@pytest.fixture
def searches(monkeypatch, certificates) -> list[tuple]:
    """(n, order_cap) of every automorphism search that builds a group
    while the test runs.  A search at cap 1 certifies a probe and goes to
    certificates instead; none of these tests builds a group at cap 1."""
    seen = []
    search = kernels.search_automorphisms

    def spy(n, adj, order_cap, colors=None):
        if order_cap == 1:
            certificates.append(n)
        else:
            seen.append((n, order_cap))
        return search(n, adj, order_cap, colors)

    monkeypatch.setattr(kernels, "search_automorphisms", spy)
    perms._cached_group.cache_clear()
    perms.colored_group.cache_clear()
    kernels._probe.cache_clear()
    return seen


def test_over_budget_twin_graph_raises_before_refining(run_cli, searches,
                                                       monkeypatch):
    # 30! > 1e5: the quotient search, on one vertex, runs at cap 0
    refined = []
    refine = kernels._refine_colors
    monkeypatch.setattr(kernels, "_refine_colors",
                        lambda *args: refined.append(args) or refine(*args))
    code, out, err = run_cli("analyze", "builtin:complete:30",
                             "--max-aut", "100000")
    assert (code, err) == (3, "")
    assert json.loads(out)["graphs"][0]["skipped"] == (
        "automorphism search exceeded cap 100000")
    assert searches == [(1, 0)] and refined == []


def test_k44_steady_builds_no_chain_on_g(run_cli, searches):
    code, out, err = run_cli("analyze", "builtin:complete_bipartite:4:4",
                             "--steady")
    assert (code, err) == (0, "")
    assert json.loads(out)["graphs"][0]["steady"] == list(range(8))
    # the quotient's chain only: G - u is certified by its refinement
    assert [n for n, _ in searches] == [2]


@pytest.mark.parametrize("g,n", [(petersen(), 10),
                                 (complete_bipartite(4, 4), 2)],
                         ids=["petersen", "K4,4"])
def test_quotient_group_is_searched_once(searches, g, n):
    first = graph_indices(g, phi_max=3)
    assert [m for m, _ in searches] == [n]
    assert graph_indices(g, phi_max=3) == first
    assert [m for m, _ in searches] == [n]


@pytest.mark.parametrize("g", [complete_bipartite(4, 4), vsum(cycle(4), 4)],
                         ids=["K4,4", "vsum_C4x4"])
def test_analyze_exits_3_exactly_past_the_order(run_cli, g):
    order = automorphism_group(g).order
    for cap, expected in ((order - 1, 3), (order, 0)):
        code, out, err = run_cli("analyze", "g6:" + graph6.emit_graph6(g),
                                 "--max-aut", str(cap))
        assert (code, err) == (expected, "")
        assert json.loads(out)["graphs"][0]["skipped"] == (
            f"automorphism search exceeded cap {cap}" if expected else None)


def test_corpus_search_count(connected7, searches, certificates):
    # one search per graph, its twin quotient's: steadiness at the default
    # budget reads G's bitmasks, certifies from G - u's degrees or refined
    # colors, or walks the chain's representatives, and never calls the
    # search (1,816 searches when it built Aut(G - u)'s chain, 4,800
    # before the twin route stopped building G's chain)
    for g in connected7:
        graph_indices(g, phi_max=4, steady=True)
    assert len(searches) == len(connected7) == 996
    # each table reads D from its polynomial, so no rung probes, and no
    # labelling needs a certificate
    assert len(certificates) == 0
