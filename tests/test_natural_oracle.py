"""Fiber preservation in lexicographic products against Sabidussi's
criterion, and the fiber check's budget contract.

Sabidussi (The composition of graphs, Duke Math. J. 26, 1959): every
automorphism of G∘H maps fibers onto fibers iff
  (a) if H is disconnected, no two vertices of G share an open
      neighborhood, and
  (b) if the complement of H is disconnected, no two vertices of G share a
      closed neighborhood.
The criterion reads only the factors, through networkx, so it shares no
code with the stabilizer chain that all_automorphisms_natural searches.
"""

from __future__ import annotations

import itertools

import pytest

from symbreak import kernels
from symbreak.errors import BudgetExceededError
from symbreak.graphs import build_graph, complete
from symbreak.products import all_automorphisms_natural

try:
    import networkx as nx
except ImportError:
    nx = None


def _sabidussi(G, H) -> bool:
    def shared(closed: bool) -> bool:
        hoods = [frozenset(G[v]) | ({v} if closed else set()) for v in G]
        return len(set(hoods)) < len(hoods)

    if not nx.is_connected(H) and shared(closed=False):
        return False
    if not nx.is_connected(nx.complement(H)) and shared(closed=True):
        return False
    return True


def _ours(G):
    return build_graph(G.number_of_nodes(), G.edges())


@pytest.mark.skipif(nx is None, reason="networkx not installed")
def test_atlas_pairs_match_sabidussi():
    atlas = [G for G in nx.graph_atlas_g() if 1 <= G.number_of_nodes() <= 4]
    assert len(atlas) == 18
    pairs = list(itertools.product(atlas, repeat=2))
    assert len(pairs) == 324
    mismatches = [(nx.to_graph6_bytes(G), nx.to_graph6_bytes(H))
                  for G, H in pairs
                  if all_automorphisms_natural(_ours(G), _ours(H))
                  != _sabidussi(G, H)]
    assert mismatches == []
    # both answers occur, so the comparison can tell them apart
    assert len({_sabidussi(G, H) for G, H in pairs}) == 2


K4, K6 = complete(4).adjacency(), complete(6).adjacency()


def test_splitter_answers_below_the_cap():
    # |Aut(K4)| = 24 is far over the cap, but a transposition across the
    # two blocks splits them, and that decides
    assert kernels.all_automorphisms_preserve_blocks(
        4, K4, [0, 0, 1, 1], 1) is False


def test_preserved_blocks_over_the_cap_raise():
    with pytest.raises(BudgetExceededError,
                       match="^automorphism search exceeded cap 100$"):
        kernels.all_automorphisms_preserve_blocks(6, K6, [0] * 6, 100)
    assert kernels.all_automorphisms_preserve_blocks(6, K6, [0] * 6, 720)
