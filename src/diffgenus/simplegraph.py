"""Simple undirected graphs with the operations the genus pipeline needs:
induced subgraphs, genus-preserving homeomorphic reduction, block
decomposition (by networkx), girth/bipartiteness, and the conversion to
networkx. networkx is imported inside the functions that use it, as the
group layer imports this module and never needs networkx."""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional, Sequence


class SimpleGraph:
    """Labeled undirected simple graph on vertices 0..n-1."""

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Optional[Sequence] = None,
    ):
        if n < 0:
            raise ValueError("negative vertex count")
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            self.add_edge(u, v)
        if labels is not None:
            if len(labels) != n:
                raise ValueError("labels length must equal vertex count")
            self.labels = list(labels)
        else:
            self.labels = list(range(n))

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range")
        self.adj[u].add(v)
        self.adj[v].add(u)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> list[int]:
        return sorted(self.adj[v])

    def adjacency_masks(self) -> list[int]:
        masks = [0] * self.n
        for u in range(self.n):
            m = 0
            for v in self.adj[u]:
                m |= 1 << v
            masks[u] = m
        return masks

    def checksum(self) -> str:
        """Hex digest identifying the graph up to labels (vertex ids + edges)."""
        payload = f"{self.n};" + ";".join(f"{u},{v}" for u, v in self.edges())
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def connected_components(self) -> list[list[int]]:
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in self.adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    def __repr__(self) -> str:
        return f"<SimpleGraph n={self.n} m={self.edge_count}>"

    # constructors ---------------------------------------------------------

    @staticmethod
    def complete(n: int) -> "SimpleGraph":
        return SimpleGraph(n, combinations(range(n), 2))

    @staticmethod
    def cycle(n: int) -> "SimpleGraph":
        return SimpleGraph(n, ((i, (i + 1) % n) for i in range(n)))

    @staticmethod
    def path(n: int) -> "SimpleGraph":
        return SimpleGraph(n, ((i, i + 1) for i in range(n - 1)))


def induced_subgraph(g: SimpleGraph, vertices: Iterable[int]) -> SimpleGraph:
    """Subgraph on the given vertices with exactly the edges inside them.

    Vertices are renumbered 0..k-1 in ascending original order; labels carry
    over.
    """
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"unknown vertex {v}")
    index = {v: i for i, v in enumerate(vs)}
    sub = SimpleGraph(len(vs), labels=[g.labels[v] for v in vs])
    sub.adj = [{index[w] for w in g.adj[v] if w in index} for v in vs]
    return sub


# ---------------------------------------------------------------------------
# Homeomorphic reduction


@dataclass
class ReductionLog:
    """Replayable record of a homeomorphic reduction.

    Step kinds: removed_isolated(v), removed_degree_one(v),
    suppressed_degree_two(v, u, w), dropped_parallel(u, v).
    vertex_map sends surviving original ids to output ids.
    """

    steps: list[tuple] = field(default_factory=list)
    vertex_map: dict[int, int] = field(default_factory=dict)


def reduce_homeomorphic(g: SimpleGraph) -> tuple[SimpleGraph, ReductionLog]:
    """Iteratively delete isolated and degree-1 vertices and suppress
    degree-2 vertices, dropping any parallel edges this creates.

    The output has the same genus and crosscap as the input. Trees and
    cycles reduce to the empty graph.
    """
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    log = ReductionLog()
    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            deg = len(adj[v])
            if deg == 0:
                log.steps.append(("removed_isolated", v))
                del adj[v]
                changed = True
            elif deg == 1:
                (u,) = adj[v]
                adj[u].discard(v)
                del adj[v]
                log.steps.append(("removed_degree_one", v))
                changed = True
            elif deg == 2:
                u, w = sorted(adj[v])
                adj[u].discard(v)
                adj[w].discard(v)
                del adj[v]
                log.steps.append(("suppressed_degree_two", v, u, w))
                if w in adj[u]:
                    log.steps.append(("dropped_parallel", u, w))
                else:
                    adj[u].add(w)
                    adj[w].add(u)
                changed = True
    survivors = sorted(adj)
    log.vertex_map = {v: i for i, v in enumerate(survivors)}
    out = SimpleGraph(len(survivors), labels=[g.labels[v] for v in survivors])
    out.adj = [{log.vertex_map[w] for w in adj[v]} for v in survivors]
    return out, log


# ---------------------------------------------------------------------------
# Blocks and girth


def to_networkx(g: SimpleGraph):
    """g as a networkx Graph on nodes 0..n-1 whose vertices list their
    neighbours in ascending order, as g.neighbors does."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def block_decomposition(g: SimpleGraph) -> list[SimpleGraph]:
    """Maximal 2-connected subgraphs plus bridges, as networkx's
    biconnected components (Hopcroft and Tarjan, CACM 16(6), 1973) close
    them in a depth-first search that starts each component at its lowest
    vertex and walks neighbours in ascending order. Only the blocks are
    returned.

    Every edge lands in exactly one block; a bridge becomes a K2 block.
    Block graphs inherit the original labels.
    """
    import networkx as nx

    blocks = []
    for comp in nx.biconnected_component_edges(to_networkx(g)):
        vs = sorted({x for e in comp for x in e})
        index = {x: i for i, x in enumerate(vs)}
        blocks.append(SimpleGraph(len(vs), ((index[u], index[v]) for u, v in comp),
                                  labels=[g.labels[x] for x in vs]))
    return blocks


def girth_and_bipartite(g: SimpleGraph) -> tuple[float, bool]:
    """Shortest cycle length (math.inf for forests) and bipartiteness.

    Bipartiteness is tested first, by 2-colouring each component. A
    bipartite graph has only even cycles, so its girth is at least 4, and
    any simple graph's is at least 3. The breadth-first search from each
    vertex in turn, which finds the shortest cycle through it, stops once
    it has found a cycle of that least possible length."""
    color = [-1] * g.n
    bipartite = True
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack and bipartite:
            v = stack.pop()
            for w in g.adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    bipartite = False
                    break

    least = 4 if bipartite else 3
    best = math.inf
    for s in range(g.n):
        if best == least:
            break  # no cycle is shorter
        dist = {s: 0}
        parent = {s: -1}
        dq = deque([s])
        while dq:
            v = dq.popleft()
            if 2 * dist[v] >= best:
                break
            for w in g.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    dq.append(w)
                elif parent[v] != w and parent[w] != v:
                    cyc = dist[v] + dist[w] + 1
                    if cyc < best:
                        best = cyc
    return best, bipartite
