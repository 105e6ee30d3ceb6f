"""Automorphism search against an independent oracle: networkx VF2.

VF2 shares no code with the kernels (no refinement, no search order, no
stabilizer chain), so agreement on the order, the sorted element list and
the largest non-identity cycle count is evidence for both collect modes.
The streamed mode returns only the order and the cycle count, which a
wrongly composed stream can still get right, so the pure kernel's stream
is also checked element by element.
"""

from __future__ import annotations

import random

import pytest

from symbreak import _kernels_py as pure
from symbreak.errors import BudgetExceededError
from symbreak.graphs import complete, complete_bipartite, cycle, petersen

from conftest import vsum

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402

try:
    from symbreak import _kernels as compiled
except ImportError:
    compiled = None

BACKENDS = [pure] + ([compiled] if compiled is not None else [])


def _vf2(g) -> tuple[int, int, list[tuple[int, ...]]]:
    """(order, max_cycles, sorted elements) from VF2 self-isomorphisms."""
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    elements = sorted(tuple(m[v] for v in range(g.n))
                      for m in GraphMatcher(G, G).isomorphisms_iter())
    max_cycles = 0
    for e in elements:
        if list(e) == list(range(g.n)):
            continue
        seen, cycles = set(), 0
        for v in range(g.n):
            if v not in seen:
                cycles += 1
                while v not in seen:
                    seen.add(v)
                    v = e[v]
        max_cycles = max(max_cycles, cycles)
    return len(elements), max_cycles, elements


def _assert_matches_oracle(kernel, g) -> None:
    order, max_cycles, elements = _vf2(g)
    adj = g.adjacency()
    assert kernel.search_automorphisms(g.n, adj, 10**7, True) == (
        order, max_cycles, elements)
    assert kernel.search_automorphisms(g.n, adj, 10**7, False) == (
        order, max_cycles, None)
    if kernel is pure:
        # the stream behind collect=False, walked through every level
        _, chain = pure._stabilizer_chain(g.n, adj, 10**7)
        streamed = [e for block in pure._product_blocks(g.n, chain, 1)
                    for e in block]
        assert sorted(streamed) == elements
    # exact cap boundary, in both modes
    for collect in (True, False):
        assert kernel.search_automorphisms(g.n, adj, order, collect)[0] == order
        with pytest.raises(BudgetExceededError) as info:
            kernel.search_automorphisms(g.n, adj, order - 1, collect)
        assert str(info.value) == f"automorphism search exceeded cap {order - 1}"


@pytest.mark.parametrize("kernel", BACKENDS, ids=lambda k: k.__name__)
def test_corpus_matches_vf2(kernel, connected7):
    assert len(connected7) == 996
    for g in connected7:
        _assert_matches_oracle(kernel, g)


# the symmetric benchmark shapes; K8 and Kneser(7,2) take seconds in VF2
SHAPES = {
    "K4x3": lambda: vsum(complete(4), 3),
    "K3x4": lambda: vsum(complete(3), 4),
    "K3x5": lambda: vsum(complete(3), 5),
    "K5x2": lambda: vsum(complete(5), 2),
    "C4x4": lambda: vsum(cycle(4), 4),
    "K4,4": lambda: complete_bipartite(4, 4),
    "K7": lambda: complete(7),
    "petersen": petersen,
    "C12": lambda: cycle(12),
}


@pytest.mark.parametrize("kernel", BACKENDS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_symmetric_shapes_match_vf2_under_relabelling(kernel, name):
    g = SHAPES[name]()
    image = list(range(g.n))
    random.Random(name).shuffle(image)
    _assert_matches_oracle(kernel, g.relabel(image))
