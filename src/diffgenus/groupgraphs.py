"""Power graph, enhanced power graph, and their difference for a finite group.

Vertex labels are (element index, element order) pairs so that exported
graphs stay readable; the difference graph drops the identity and every
other isolated vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .groups import GroupTable, cyclic_subgroups, maximal_cyclic_subgroups
from .simplegraph import SimpleGraph, induced_subgraph


@dataclass
class GroupGraph:
    kind: str  # "power" | "enhanced" | "difference"
    graph: SimpleGraph
    group: GroupTable

    def element_of(self, vertex: int) -> int:
        return self.graph.labels[vertex][0]


def _power_rows(g: GroupTable) -> list[int]:
    """Bitmask adjacency of the power relation: x ~ y iff one generates the
    other (x != y), that is y lies in <x> or x in <y>. Each element
    generates exactly one cyclic subgroup, so the relation is read off the
    cyclic subgroups, each spanned once: a subgroup's full-order members,
    its generators, are power-adjacent to all of its members, and the
    others to its generators."""
    rows, orders = [0] * g.order, g.orders()
    for members in cyclic_subgroups(g):
        mask = gens = 0
        order = len(members)
        for y in members:
            mask |= 1 << y
            if orders[y] == order:
                gens |= 1 << y
        for y in members:
            rows[y] |= mask if gens >> y & 1 else gens
    for x in range(g.order):
        rows[x] &= ~(1 << x)
    return rows


def _enhanced_rows(g: GroupTable) -> list[int]:
    """Bitmask adjacency of the common-cyclic-subgroup relation."""
    n = g.order
    rows = [0] * n
    for members in maximal_cyclic_subgroups(g):
        mask = 0
        for y in members:
            mask |= 1 << y
        for x in members:
            rows[x] |= mask
    for x in range(n):
        rows[x] &= ~(1 << x)
    return rows


def _graph(g: GroupTable, rows: list[int], vertices: Iterable[int]) -> SimpleGraph:
    """The graph of the symmetric, loop-free `rows` on `vertices`, each
    labelled by its element and that element's order."""
    return induced_subgraph(SimpleGraph.from_masks(rows, list(enumerate(g.orders()))), vertices)


def power_graph(g: GroupTable) -> GroupGraph:
    return GroupGraph("power", _graph(g, _power_rows(g), range(g.order)), g)


def enhanced_power_graph(g: GroupTable) -> GroupGraph:
    return GroupGraph("enhanced", _graph(g, _enhanced_rows(g), range(g.order)), g)


def difference_graph(g: GroupTable) -> GroupGraph:
    """Enhanced-power edges that are not power edges, isolated vertices
    (always including the identity) removed: the rows, compacted onto the
    kept elements."""
    power = _power_rows(g)
    enhanced = _enhanced_rows(g)
    diff = [enhanced[x] & ~power[x] for x in range(g.order)]
    diff[0] = 0  # the identity is power-adjacent to everything
    for x in range(1, g.order):
        diff[x] &= ~1
    vertices = [x for x in range(1, g.order) if diff[x]]
    return GroupGraph("difference", _graph(g, diff, vertices), g)
