"""Graph constructors only the tests use."""

from __future__ import annotations

from typing import Sequence

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
