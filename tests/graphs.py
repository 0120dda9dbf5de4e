"""Graph and group constructors only the tests use."""

from __future__ import annotations

import random
from typing import Sequence

from diffgenus.groups import GroupTable
from diffgenus.simplegraph import SimpleGraph


def complete_multipartite(parts: Sequence[int]) -> SimpleGraph:
    """Vertices in consecutive runs of the given sizes, every two runs
    joined completely."""
    bounds, start = [], 0
    for p in parts:
        bounds.append(range(start, start + p))
        start += p
    edges = [(a, b) for i, x in enumerate(bounds) for y in bounds[i + 1 :] for a in x for b in y]
    return SimpleGraph(start, edges)


def complete_bipartite(m: int, n: int) -> SimpleGraph:
    return complete_multipartite([m, n])


def random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    """G(n, p): each pair of vertices joined with probability p."""
    g = SimpleGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def assert_sound(g: SimpleGraph) -> None:
    """g's adjacency is what `SimpleGraph.add_edge` would have built: one
    int mask per vertex, in range, with its own bit clear, and symmetric,
    with an edge count that matches its edge list, and one label per
    vertex."""
    assert len(g.masks) == g.n and len(g.labels) == g.n, g
    for v, mask in enumerate(g.masks):
        assert type(mask) is int and 0 <= mask < 1 << g.n, (v, mask)
        assert not mask >> v & 1, v
        for w in range(g.n):
            assert (mask >> w & 1) == (g.masks[w] >> v & 1), (v, w)
    assert g.edge_count == len(g.edges()), g


def from_networkx(G) -> SimpleGraph:
    """A networkx graph on vertices 0..n-1, in the order of G's nodes."""
    index = {x: i for i, x in enumerate(G.nodes)}
    return SimpleGraph(len(index), ((index[x], index[y]) for x, y in G.edges))


def swap_semidirect_times_z3() -> GroupTable:
    """(Z2 x Z2) : Z4 x Z3, where the Z4 generator swaps the two Z2 factors.

    Element (a, b, k, c) times (a', b', k', c') is
    (a + a'', b + b'', k + k' mod 4, c + c' mod 3), with (a'', b'') = (b', a')
    when k is odd and (a', b') otherwise. Its Sylow 2-subgroup has 7
    involutions and 8 elements of order 4, and satisfies condition C2.
    """
    elems = [(a, b, k, c) for a in range(2) for b in range(2) for k in range(4) for c in range(3)]
    index = {e: i for i, e in enumerate(elems)}

    def product(x, y):
        a1, b1, k1, c1 = x
        a2, b2, k2, c2 = y
        if k1 % 2:
            a2, b2 = b2, a2
        return ((a1 + a2) % 2, (b1 + b2) % 2, (k1 + k2) % 4, (c1 + c2) % 3)

    mult = [[index[product(x, y)] for y in elems] for x in elems]
    return GroupTable(mult, source="(Z2 x Z2) : Z4 x Z3")
