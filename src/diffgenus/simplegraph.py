"""Simple undirected graphs with the operations the genus pipeline needs:
induced subgraphs, genus-preserving homeomorphic reduction with a log
that undoes it step by step, block decomposition, girth/bipartiteness,
and the conversion to networkx, whose one use is the planarity test of a
reduction that no face count decides and that is not K4. networkx is
imported inside that conversion, as the group layer imports this module
and never needs networkx. A graph's adjacency is one int bitmask per
vertex, which only this module writes."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional, Sequence


class SimpleGraph:
    """Labeled undirected simple graph on vertices 0..n-1. Bit w of
    masks[v] is set when v and w are adjacent; degrees, neighbours and
    edges, in ascending order, are read off the masks."""

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Optional[Sequence] = None,
    ):
        if n < 0:
            raise ValueError("negative vertex count")
        self.n = n
        self.masks: list[int] = [0] * n
        for u, v in edges:
            self.add_edge(u, v)
        if labels is not None:
            if len(labels) != n:
                raise ValueError("labels length must equal vertex count")
            self.labels = list(labels)
        else:
            self.labels = list(range(n))

    @classmethod
    def from_masks(cls, masks: Sequence[int], labels: Optional[Sequence] = None) -> SimpleGraph:
        """The graph whose adjacency is `masks`, taken unchecked: they must
        be symmetric, clear their own bits and set none past len(masks)."""
        g = cls(len(masks), labels=labels)
        g.masks = list(masks)
        return g

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range")
        self.masks[u] |= 1 << v
        self.masks[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        """Whether u and v, both vertices of the graph, are adjacent."""
        return self.masks[u] >> v & 1 == 1

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (u, v) with u < v, in ascending order."""
        return [(u, v) for u, m in enumerate(self.masks) for v in _bits(m >> u + 1 << u + 1)]

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.masks[v])

    def checksum(self) -> str:
        """Hex digest identifying the graph up to labels (vertex ids + edges)."""
        return edge_list_checksum(self.n, self.edges())

    def connected_components(self) -> list[list[int]]:
        """Each component's vertices, ascending, by lowest vertex. An
        isolated vertex is its own component at once, with no operation on
        a set as wide as the graph."""
        masks, comps = self.masks, []
        seen = [False] * self.n
        for s in range(self.n):
            if seen[s]:
                continue
            comp = layer = 1 << s if masks[s] else 0  # no wide set for an isolated vertex
            while layer:  # one breadth-first layer at a time
                reach = 0
                for v in _bits(layer):
                    reach |= masks[v]
                layer = reach & ~comp
                comp |= layer
            comps.append(_bits(comp) if comp else [s])
            for v in comps[-1]:
                seen[v] = True
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


def edge_list_checksum(n: int, edges: Iterable[tuple[int, int]]) -> str:
    """`SimpleGraph.checksum` of the graph on n vertices whose edges(), in
    order, are `edges`: for a caller that has decoded them already."""
    payload = f"{n};" + ";".join(f"{u},{v}" for u, v in edges)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def induced_subgraph(g: SimpleGraph, vertices: Iterable[int]) -> SimpleGraph:
    """Subgraph on the given vertices with exactly the edges inside them.

    Vertices are renumbered 0..k-1 in ascending original order; labels carry
    over.
    """
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"unknown vertex {v}")
    return SimpleGraph.from_masks(_compacted(g.masks, vs), [g.labels[v] for v in vs])


_BYTE_PLACES: list[list[tuple[int, ...]]] = []  # [k][b]: the set bits of byte b at byte place k < 32


def _bits(m: int) -> list[int]:
    """The positions of the set bits of m >= 0, ascending. Each nonzero
    byte of the low 256 bits, which hold every catalog graph, is looked up
    in a table of its bit positions at its place, made the first time a
    mask reaches that place. Bits past them are read one at a time, so a
    wide sparse mask costs what its set bits do, and the tables stay
    small."""
    if m >> 256:
        out, m = _bits(m & (1 << 256) - 1), m >> 256
        while m:
            low = m & -m
            out.append(255 + low.bit_length())  # the bit's position, 256 up
            m ^= low
        return out
    while m >> 8 * len(_BYTE_PLACES):
        place = tuple(range(8 * len(_BYTE_PLACES), 8 * len(_BYTE_PLACES) + 8))
        _BYTE_PLACES.append([tuple(place[i] for i in range(8) if b >> i & 1) for b in range(256)])
    out = []
    for table in _BYTE_PLACES:
        if not m:
            break
        byte = m & 255
        if byte:
            out += table[byte]
        m >>= 8
    return out


def _compacted(masks: Sequence[int], vs: Sequence[int]) -> list[int]:
    """masks[v] for each v of the ascending vertices vs, with the bit of
    vs[i] moved to bit i and the bits outside vs dropped, by the compress
    of Hacker's Delight (Warren, 2nd ed., section 7-4). Round j moves by
    2**j each kept bit whose count of dropped positions below it has bit j
    set. The moves depend on vs alone, so a row costs a few int operations
    per round that moves anything, whatever its degree."""
    keep = sum(1 << v for v in vs)
    shifts = [1 << j for j in range((keep.bit_length() - 1).bit_length())]
    kept, below, moves = keep, ((1 << keep.bit_length()) - 1 ^ keep) << 1, []
    for shift in shifts:
        odd = below  # made, at each position, the parity of `below` up to it
        for step in shifts:
            odd ^= odd << step
        move = odd & kept
        kept = kept ^ move | move >> shift
        below &= ~odd
        if move:
            moves.append((shift, move))
    out = []
    for v in vs:
        x = masks[v] & keep
        for shift, move in moves:
            t = x & move
            x = x ^ t | t >> shift
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# Homeomorphic reduction


@dataclass
class ReductionLog:
    """Replayable record of a homeomorphic reduction, in original ids.

    Step kinds, in the order they were made:
    - removed_isolated(v): v had no neighbour left;
    - removed_degree_one(v, u): v's only neighbour was u;
    - suppressed_degree_two(v, u, w), u < w: v's two neighbours were u and
      w, and the edge u-w took the place of the path u-v-w;
    - dropped_parallel(u, w), right after the suppression that made it:
      u and w were adjacent already, so that edge stayed single.
    Each step names all it changed, so each can be undone on its own, from
    the last back to the first. vertex_map sends surviving original ids to
    output ids.
    """

    steps: list[tuple] = field(default_factory=list)
    vertex_map: dict[int, int] = field(default_factory=dict)


def reduce_homeomorphic(g: SimpleGraph) -> tuple[SimpleGraph, ReductionLog]:
    """Iteratively delete isolated and degree-1 vertices and suppress
    degree-2 vertices, dropping any parallel edges this creates.

    The output has the same genus and crosscap as the input. Trees and
    cycles reduce to the empty graph. A graph no step applies to, such as
    a reduction, comes back as itself, with no step and every vertex
    mapped to itself.
    """
    masks = list(g.masks)
    alive = (1 << g.n) - 1
    log = ReductionLog()
    changed = True
    while changed:
        changed = False
        for v in _bits(alive):
            m = masks[v]
            deg = m.bit_count()
            if deg > 2:
                continue
            alive ^= 1 << v
            changed = True
            if deg == 0:
                log.steps.append(("removed_isolated", v))
            elif deg == 1:
                u = m.bit_length() - 1
                masks[u] ^= 1 << v
                log.steps.append(("removed_degree_one", v, u))
            else:
                u, w = (m & -m).bit_length() - 1, m.bit_length() - 1
                masks[u] ^= 1 << v
                masks[w] ^= 1 << v
                log.steps.append(("suppressed_degree_two", v, u, w))
                if masks[u] >> w & 1:
                    log.steps.append(("dropped_parallel", u, w))
                else:
                    masks[u] |= 1 << w
                    masks[w] |= 1 << u
    if not log.steps:
        log.vertex_map = {v: v for v in range(g.n)}
        return g, log
    survivors = _bits(alive)
    log.vertex_map = {v: i for i, v in enumerate(survivors)}
    out = SimpleGraph.from_masks(_compacted(masks, survivors), [g.labels[v] for v in survivors])
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
    """Maximal 2-connected subgraphs plus bridges, in the order networkx's
    biconnected components gives them: a depth-first search (Hopcroft and
    Tarjan, CACM 16(6), 1973) that starts each component at its lowest
    vertex, enters unvisited neighbours in ascending order and closes a
    block when a child's subtree reaches no higher than its parent. A block
    is that parent and the vertices found since the child, the child
    included, that no earlier block closed. Isolated vertices make none.

    Every edge lands in exactly one block; a bridge becomes a K2 block.
    A block is the subgraph its vertices induce, as an edge joining two of
    them outside it would leave a larger 2-connected subgraph. Block
    graphs inherit the original labels. A graph that is one block on all
    its vertices comes back as itself, uncopied.
    """
    masks = g.masks
    disc = [0] * g.n  # discovery times, from 1 up
    low = [0] * g.n  # least discovery time a back edge reaches from the subtree
    place = [0] * g.n  # position on `found` of each vertex found below a root
    visited, time, blocks = 0, 0, []
    for root in range(g.n):
        if visited >> root & 1 or not masks[root]:
            continue
        visited |= 1 << root
        time += 1
        disc[root] = low[root] = time
        path, todo, found = [root], [masks[root]], []
        while path:
            left = todo[-1] & ~visited
            if left:  # enter the lowest unvisited neighbour
                w = (left & -left).bit_length() - 1
                todo[-1] = left ^ 1 << w
                visited |= 1 << w
                time += 1
                disc[w] = time
                # every visited neighbour but the parent is an ancestor
                back = masks[w] & visited & ~(1 << path[-1])
                low[w] = min([disc[x] for x in _bits(back)], default=time)
                place[w] = len(found)
                path.append(w)
                todo.append(masks[w])
                found.append(w)
                continue
            v = path.pop()
            todo.pop()
            if path:
                p = path[-1]
                if low[v] >= disc[p]:
                    blocks.append([p, *found[place[v]:]])
                    del found[place[v]:]
                elif low[v] < low[p]:
                    low[p] = low[v]
    if len(blocks) == 1 and len(blocks[0]) == g.n:
        return [g]
    return [induced_subgraph(g, block) for block in blocks]


def girth_and_bipartite(g: SimpleGraph) -> tuple[float, bool]:
    """Shortest cycle length (math.inf for forests) and bipartiteness.

    Bipartiteness is tested first: a graph is bipartite iff no
    breadth-first layer holds an edge. A bipartite graph has only even
    cycles, so its girth is at least 4, and any simple graph's is at least
    3. Then a breadth-first search runs from each vertex in turn, until a
    cycle of that least length is found. At distance d, an edge inside the
    layer closes a cycle of at most 2d + 1 edges, and a vertex at distance
    d + 1 with two neighbours in the layer one of at most 2d + 2; from a
    vertex on a shortest cycle, the first such bound is that cycle's
    length."""
    masks = g.masks
    bipartite = True
    unseen = (1 << g.n) - 1
    while unseen and bipartite:
        seen = layer = unseen & -unseen
        while layer:
            reach = 0
            for v in _bits(layer):
                bipartite = bipartite and not masks[v] & layer
                reach |= masks[v]
            layer = reach & ~seen
            seen |= layer
        unseen &= ~seen
    least = 4 if bipartite else 3
    best = math.inf
    for s in range(g.n):
        if best == least:
            break  # no cycle is shorter
        seen = layer = 1 << s
        d = 0
        while layer and 2 * d + 1 < best:
            reach = twice = 0
            for v in _bits(layer):
                if masks[v] & layer:
                    best = 2 * d + 1
                fresh = masks[v] & ~seen
                twice |= reach & fresh
                reach |= fresh
            if twice and 2 * d + 2 < best:
                best = 2 * d + 2
            layer = reach
            seen |= reach
            d += 1
    return best, bipartite
