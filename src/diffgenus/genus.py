"""Genus and crosscap computation: planarity, Euler-formula and subgraph
lower bounds, and a face-set search that picks an embedding's faces as
closed walks (Ringel's view of an embedding as its faces; faces built one
at a time, after Brinkmann, arXiv:2005.08243). Every scheme it finds is
re-verified by face tracing and becomes a certificate.

Planarity is decided on the homeomorphic reduction by counts where they
can: an empty reduction is planar, one on 4 vertices is K4, and a
positive face count of one of its blocks (Euler's formula with triangular
faces counted apart, after a greedy cover of the triangles) answers no.
networkx is asked only about a reduction these leave open. A planar
embedding of the reduction is lifted back to the graph through the
reduction log. The piece keeps that reduction, its blocks and their
counts for its search and its bound.

The face-set search, the one search, runs once per piece and surface, from
the plan-time lower bound, on the graph's homeomorphic reduction, which has
the same genus and crosscap and minimum degree >= 3. That bound is the
larger of the Euler and K_{m,n} bounds and a sum of face counts over the
reduction's blocks, found only where the former is below the stop. A
search that completes without a hit proves the bound + 1; one that hits
gives the value, with a certificate on the reduction. Its node cap is
picked before it starts:
`_NODE_CAP` on a rotation space that fits `_EXHAUSTIVE_CAP`, else
`_FACE_NODE_CAP`. Only a pass that stops at its cap leaves the piece to
the restart phase, `heuristic_embedding`: seeded relabellings of the
reduction, each searched under a small node cap at one value from the
bound up to the lowest found so far, whose lowest hit is the upper end.
The face-set search skips every walk
into a twin (same open or same closed neighbourhood) while a lower twin is
also untouched: swapping two untouched twins is an automorphism that fixes
the partial embedding, so that branch mirrors one already tried
(lex-leader symmetry breaking for interchangeable values, after Crawford,
Ginsberg, Luks and Roy, KR 1996). It prunes nodes only: where the
unpruned search ends within its cap, this one excludes the same values and
hits the same scheme first.

Each graph is planned once: `GraphPlan` keeps a `_Piece` per component,
and a `_Piece` keeps all that is known of a connected graph on both
surfaces, down to the nonplanar pieces of its split, which are `_Piece`s
too. A split that hands back the reduction whole leaves the component as
its own piece, so no graph is planned twice.

The Euler genus of an embedding scheme is 2 - V + E - F on each component;
orientable genus is half the minimum over all-positive schemes, crosscap the
minimum over unbalanced schemes.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from collections import Counter
from functools import cached_property
from itertools import chain
from typing import Optional

from .embeddings import EmbeddingScheme, SchemeError, make_scheme, trace_faces
from .simplegraph import (
    ReductionLog,
    SimpleGraph,
    block_decomposition,
    girth_and_bipartite,
    induced_subgraph,
    reduce_homeomorphic,
    to_networkx,
)

ORIENTABLE = "orientable"
NONORIENTABLE = "nonorientable"

_EXHAUSTIVE_CAP = 10_000_000  # max rotation systems for _NODE_CAP
_NODE_CAP = 3_000_000  # face-set search on a space that fits _EXHAUSTIVE_CAP: nodes, per piece and surface
_FACE_NODE_CAP = 100_000  # face-set search: faces started and corners placed, per piece and surface


@dataclass
class SearchBudget:
    """Effort knobs for the restart phase, which runs on a piece whose
    face-set pass stops at its node cap: how many seeded restarts, the node
    cap of each, and their seed. And where to stop."""

    restarts: int = 64
    nodes_per_restart: int = 5_000
    seed: int = 0
    lower_stop: Optional[int] = None  # stop once the lower bound reaches this


DEFAULT_BUDGET = SearchBudget()


@dataclass
class GenusResult:
    surface: str
    lower: int
    upper: Optional[int]
    exact: bool
    certificate: Optional[EmbeddingScheme] = None
    certificate_graph: Optional[SimpleGraph] = None
    provenance: list[str] = field(default_factory=list)

    @property
    def value(self) -> Optional[int]:
        return self.lower if self.exact else None


@dataclass
class PlanarityResult:
    """A planarity test's answer, with what it found on the way that a
    nonplanar graph's search and lower bound read again: the graph's girth,
    its homeomorphic reduction, and that reduction's blocks with their face
    counts, each where the test got that far."""

    planar: bool
    scheme: Optional[EmbeddingScheme] = None
    reduced: Optional[SimpleGraph] = None  # the homeomorphic reduction, when the test made one
    blocks: Optional[list[SimpleGraph]] = None  # the reduction's blocks, when the test found them
    counts: Optional[list[int]] = None  # `_face_counts(blocks)`, with the blocks
    girth: Optional[float] = None  # the graph's, when Euler's formula read it


# ---------------------------------------------------------------------------
# Formulas and bounds


def formula_oracle(kind: str, params: tuple[int, ...], surface: str) -> int:
    """Closed-form genus/crosscap of complete and complete bipartite graphs,
    including the crosscap-3 exception at K7."""
    if surface not in (ORIENTABLE, NONORIENTABLE):
        raise ValueError(f"unknown surface {surface!r}")
    if kind == "complete":
        (n,) = params
        if n < 3:
            raise ValueError("complete-graph formulas need n >= 3")
        if surface == ORIENTABLE:
            return -((n - 3) * (n - 4) // -12)
        if n == 7:
            return 3
        return -((n - 3) * (n - 4) // -6)
    if kind == "complete_bipartite":
        m, n = params
        if m < 2 or n < 2:
            raise ValueError("bipartite formulas need m, n >= 2")
        if surface == ORIENTABLE:
            return -((m - 2) * (n - 2) // -4)
        return -((m - 2) * (n - 2) // -2)
    raise ValueError(f"unknown graph family {kind!r}")


def _euler_count(g: SimpleGraph, girth: float) -> int:
    """2 - V + E - F_max, F_max being 1 on a forest and floor(2E/girth)
    otherwise, girth being g's: a lower bound on the Euler genus
    2 - V + E - F of connected g. On a connected graph with a cycle every
    facial walk holds a cycle (a walk over a tree's edges covers both sides
    of each, so every corner at its vertices and every edge there, and the
    tree is the graph), so is at least the girth long, and the walks'
    lengths sum to 2E."""
    f_max = 1 if math.isinf(girth) else (2 * g.edge_count) // int(girth)
    return 2 - g.n + g.edge_count - f_max


def _triangle_count(g: SimpleGraph) -> int:
    """2 - V + E - F_max with the triangular faces counted apart: a lower
    bound on the Euler genus of g, each of whose components must have a
    cycle, so that every facial walk holds one and is at least 3 long. A
    facial walk of length 3 is a triangle of g, and takes one side of each
    of its edges. So with C an edge cover of g's triangles, the triangular
    faces are f3 <= min(2|C|, floor(2E/3)), every other face is at least 4
    long, and F_max = f3 + floor((2E - 3 f3)/4), which never falls as f3
    rises. C is a greedy cover: it takes the edge on the most uncovered
    triangles next, read off a max-heap whose stale counts are pushed
    again when popped (counts only fall), so the cover is near-linear in
    the triangles. It stops once 2|C| reaches floor(2E/3)."""
    masks, edges = g.masks, g.edges()
    index = {e: i for i, e in enumerate(edges)}
    triangles: list[tuple[int, int, int]] = []  # by edge indices
    on: list[list[int]] = [[] for _ in edges]  # per edge: its triangles
    for i, (u, v) in enumerate(edges):
        common = masks[u] & masks[v] >> v + 1 << v + 1
        while common:
            w = (common & -common).bit_length() - 1
            common ^= 1 << w
            t = (i, index[(u, w)], index[(v, w)])
            for e in t:
                on[e].append(len(triangles))
            triangles.append(t)
    m = len(edges)
    cap = 2 * m // 3
    left = [len(ts) for ts in on]  # per edge: its uncovered triangles
    heap = [(-c, e) for e, c in enumerate(left) if c]
    heapq.heapify(heap)
    covered = [False] * len(triangles)
    cover = 0
    while heap and 2 * cover < cap:
        c, e = heapq.heappop(heap)
        if -c != left[e]:
            if left[e]:
                heapq.heappush(heap, (-left[e], e))
            continue
        cover += 1
        for t in on[e]:
            if not covered[t]:
                covered[t] = True
                for f in triangles[t]:
                    left[f] -= 1
    f3 = min(2 * cover, cap)
    return 2 - g.n + m - f3 - (2 * m - 3 * f3) // 4


def _face_counts(blocks: list[SimpleGraph]) -> list[int]:
    """The positive `_triangle_count`s of the blocks with a cycle, each a
    lower bound on its block's Euler genus; a bridge has no face count. At
    girth 3 the count is at least the Euler count and at girth 4 it is the
    Euler count, so only a block of girth 5 or more could count higher by
    Euler's formula."""
    counts = (_triangle_count(b) for b in blocks if b.edge_count >= b.n)
    return [c for c in counts if c > 0]


def euler_lower_bound(g: SimpleGraph, surface: str) -> int:
    """Euler-formula bound on the genus or crosscap of connected g:
    `_euler_count`, halved and rounded up for the genus."""
    if not g.is_connected():
        raise ValueError("euler_lower_bound needs a connected graph")
    if g.edge_count == 0:
        return 0
    return max(0, _lower_on(surface, _euler_count(g, girth_and_bipartite(g)[0])))


_SUBGRAPH_CANDIDATE_CAP = 16


def bipartite_subgraph_bound(g: SimpleGraph, surface: str) -> tuple[int, Optional[str]]:
    """Best lower bound obtainable from a complete bipartite subgraph with
    small side <= 4, found among the highest-degree vertices. Returns the
    bound and a witness description like "K_{3,10}"."""
    if g.n == 0 or g.edge_count == 0:
        return 0, None
    masks = g.masks
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    cands = order[:_SUBGRAPH_CANDIDATE_CAP]
    best, desc = 0, None
    # per subset, in the order of combinations(cands, m): its last member's
    # position and the AND of its masks, its members' common neighbours
    # (never a member, as no vertex is its own neighbour)
    level = [(i, masks[v]) for i, v in enumerate(cands)]
    for m in (2, 3, 4):
        level = [(j, common & masks[cands[j]]) for i, common in level for j in range(i + 1, len(cands))]
        most = 1  # the bound grows with the other side: try only a larger one
        for _, common in level:
            n_side = common.bit_count()
            if n_side <= most:
                continue
            most = n_side
            val = formula_oracle("complete_bipartite", (m, n_side), surface)
            if val > best:
                best, desc = val, f"K_{{{m},{n_side}}}"
    return best, desc


def rotation_space_size(g: SimpleGraph) -> int:
    """Number of rotation systems after anchoring each vertex's cyclic order
    and halving by the global reflection."""
    total = 1
    for v in range(g.n):
        total *= math.factorial(max(g.degree(v) - 1, 0))
    return max(1, total // 2)


# ---------------------------------------------------------------------------
# Planarity (library-backed where no count decides; every embedding is
# re-verified here)

# the planar embedding of K4 on 0..3 that networkx's planarity test gives
_K4_ROTATIONS = ((1, 3, 2), (0, 2, 3), (1, 0, 3), (2, 0, 1))


def is_planar(g: SimpleGraph) -> PlanarityResult:
    """Planarity with a genus-0 scheme as a yes-witness. A no-answer comes
    without a witness: networkx extracts a Kuratowski subdivision with one
    planarity test per edge, and nothing here reads one.

    Euler's formula answers no first. A planar simple graph with a cycle
    (E >= V ensures one) has `_euler_count` <= 0: a bridge joining two of
    its components keeps it planar and its girth c >= 3, and adds 1 to E
    and at most 1 to floor(2E/c), so never lowers the count. The count is
    positive wherever E > 3V - 6, as F_max <= 2E/3, and it settles the
    Petersen graph (E = 15 on V = 10, girth 5) and K3,3.

    Otherwise the answer is the homeomorphic reduction's, which the result
    keeps: deleting leaves, suppressing degree-2 vertices and dropping
    parallel edges keep planarity (Mohar and Thomassen, Graphs on Surfaces,
    2001). Every vertex of a nonempty reduction has degree >= 3, so it has
    at least 4 vertices and each of its components has a cycle.
    - An empty reduction, as trees, cycles and most planar catalog graphs
      leave, is planar.
    - A reduction on 4 vertices is K4, embedded by `_K4_ROTATIONS`.
    - Otherwise a positive `_triangle_count` of one of the reduction's
      blocks with a cycle answers no, as Euler genus adds over blocks. The
      whole reduction's count is not taken: the blocks' vertices sum to
      V + b - c (b blocks, c components), their edges to E, and their
      greedy f3 and F_max to at most the whole's, so their positive counts
      sum to at least it. A no-answer keeps the girth, the blocks and
      their positive counts.
    - networkx decides what these leave open.
    A yes lifts the reduction's embedding back to g through the log
    (`_lift_rotations`), and the lifted scheme is traced at genus 0."""
    n, m = g.n, g.edge_count
    girth = None
    if m >= n > 0:  # so g has a cycle
        girth = girth_and_bipartite(g)[0]
        if _euler_count(g, girth) > 0:
            return PlanarityResult(False, girth=girth)
    reduced, log = reduce_homeomorphic(g)
    rotations: list[list[int]] = [[] for _ in range(n)]
    if reduced.n:
        if reduced.n == 4:
            order = _K4_ROTATIONS
        else:
            blocks = block_decomposition(reduced)
            no = PlanarityResult(False, reduced=reduced, blocks=blocks, counts=_face_counts(blocks), girth=girth)
            if no.counts:
                return no
            import networkx as nx  # here, so a run the counts decide never loads it

            ok, emb = nx.check_planarity(to_networkx(reduced), counterexample=False)
            if not ok:
                return no
            order = [emb.neighbors_cw_order(i) for i in range(reduced.n)]
        survivors = list(log.vertex_map)
        for v, i in log.vertex_map.items():
            rotations[v] = [survivors[w] for w in order[i]]
    _lift_rotations(rotations, log)
    scheme = _verified_scheme(g, g.edges(), rotations, [1] * m, None, 0, ORIENTABLE)
    return PlanarityResult(True, scheme=scheme, reduced=reduced)


def _lift_rotations(rotations: list[list[int]], log: ReductionLog) -> None:
    """Turn rotations of the reduced graph, in original ids, into rotations
    of the graph the log reduced, undoing its steps from the last back to
    the first. Each undo keeps the Euler genus:
    - a deleted leaf goes back into its neighbour's rotation (V and E rise
      by 1, and the face at that corner takes both sides of the new edge);
    - a suppressed vertex subdivides the edge its suppression made, taking
      that edge's place in both rotations (V and E rise by 1);
    - a suppression whose edge was dropped as a parallel comes back as a
      2-gon on the edge it doubled: v goes right after w in u's rotation
      and right before u in w's, so u -> v -> w -> u is a new face (V + 1,
      E + 2, F + 1).
    An isolated vertex keeps its empty rotation."""
    doubled = None  # the edge of the dropped parallel undone last
    for step in reversed(log.steps):
        if step[0] == "dropped_parallel":
            doubled = step[1:]
        elif step[0] == "removed_degree_one":
            _, v, u = step
            rotations[u].append(v)
            rotations[v] = [u]
        elif step[0] == "suppressed_degree_two":
            _, v, u, w = step
            ru, rw = rotations[u], rotations[w]
            if doubled == (u, w):
                ru.insert(ru.index(w) + 1, v)
                rw.insert(rw.index(u), v)
            else:
                ru[ru.index(w)] = v
                rw[rw.index(u)] = v
            rotations[v] = [u, w]
            doubled = None


# ---------------------------------------------------------------------------
# Darts and co-tree edges


class _DartIndex:
    """Edge i = (u, v) of g.edges() has darts 2i (u to v) and 2i + 1;
    out[v][w] is the dart from v to w, and head[d] the vertex dart d points
    to (its tail is head[d ^ 1])."""

    def __init__(self, g: SimpleGraph):
        self.edges = g.edges()
        self.m = len(self.edges)
        self.head = [x for u, v in self.edges for x in (v, u)]
        self.out: list[dict[int, int]] = [{} for _ in range(g.n)]
        for i, (u, v) in enumerate(self.edges):
            self.out[u][v] = 2 * i
            self.out[v][u] = 2 * i + 1
        self.base = 2 * len(g.connected_components()) - g.n + self.m


def _cotree_edges(g: SimpleGraph) -> list[int]:
    """Indices (into g.edges()) of edges outside a BFS spanning forest."""
    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    seen = [False] * g.n
    tree: set[int] = set()
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        queue = [s]
        while queue:
            v = queue.pop()
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    tree.add(index[(v, w) if v < w else (w, v)])
                    queue.append(w)
    return [i for i in range(len(edges)) if i not in tree]


# ---------------------------------------------------------------------------
# Face-set search


def _face_set_search(
    g: SimpleGraph, euler: int, orientable: bool, node_cap: int
) -> tuple[Optional[EmbeddingScheme], int]:
    """An embedding of g at Euler genus `euler`, on the orientable surface
    or else on a nonorientable one, found as its F = 2 - V + E - euler
    faces. g must be connected with minimum degree >= 3, so that every
    facial walk is closed and never backtracks, and every vertex fixes the
    turns the signs are read from.

    Faces are built one at a time as walks. The sides of each edge are
    covered at most twice, and at each vertex the corners the walks turn
    through form chains over its darts, which may close only into one cycle
    through all of them: the vertex's rotation. A new face starts on the
    uncovered edge with the fewest corner continuations at its two ends.
    The uncovered sides must still fit the faces left: each is at least the
    girth long, the open one must get back to its start, and with girth 3
    every face but a triangle is at least 4 long, where the triangles are
    at most the free sides of a greedy edge cover of the triangles usable
    when the open face started. A union-find with parity over the face
    orientations meets the two sides of every edge; an orientable target
    prunes at the first inconsistency, a nonorientable one needs one.

    Twins are vertices with the same open neighbourhood (false twins) or
    the same closed one (true twins), grouped into classes once per search.
    A vertex is untouched while no side of its edges is covered. The open
    walk never enters an untouched vertex while a lower member of its class
    is untouched too. This is sound: swapping the two is a graph
    automorphism that fixes every covered side, corner and face, and keeps
    Euler genus and orientability, so the skipped subtree holds a hit
    exactly when the lower twin's does, and that one is tried first, as
    each vertex's darts are in neighbour order. Exclusions and the first
    hit are therefore those of the unpruned search; only nodes fall.

    Returns (scheme, nodes), where nodes counts the faces started and the
    corners placed. A hit returns the re-verified scheme; None with
    nodes <= node_cap proves that g has no such embedding, and
    nodes > node_cap means the search stopped at the cap."""
    deg = [g.degree(v) for v in range(g.n)]
    if min(deg) < 3:
        raise ValueError("face-set search needs minimum degree >= 3")
    idx = _DartIndex(g)
    faces_needed = idx.base - euler
    girth = girth_and_bipartite(g)[0]
    if faces_needed < 1 or _euler_count(g, girth) > euler:
        return None, 0
    girth = int(girth)
    head = idx.head
    nbrs = [g.neighbors(v) for v in range(g.n)]
    out = [[idx.out[v][w] for w in nbrs[v]] for v in range(g.n)]
    # twin classes, keyed by open and by closed neighbourhood (an open one
    # never equals a closed one); a vertex has at most one nontrivial class,
    # and keeps its lower classmates in it
    classes: dict[int, list[int]] = {}
    for v, mask in enumerate(g.masks):
        classes.setdefault(mask, []).append(v)
        classes.setdefault(mask | 1 << v, []).append(v)
    lower: list[tuple[int, ...]] = [()] * g.n
    for members in classes.values():
        for i in range(1, len(members)):
            lower[members[i]] = tuple(members[:i])
    touched = [0] * g.n  # edge sides covered at each vertex
    dist = []  # dist[w][v]: the edges on a shortest path from w to v
    for s in range(g.n):
        row = [-1] * g.n
        row[s] = 0
        queue = [s]
        for v in queue:
            for w in nbrs[v]:
                if row[w] < 0:
                    row[w] = row[v] + 1
                    queue.append(w)
        dist.append(row)
    # per triangle: its edges and its corners (vertex, dart, dart)
    triangles = [] if girth > 3 else [
        (
            (idx.out[x][y] >> 1, idx.out[y][z] >> 1, idx.out[x][z] >> 1),
            ((x, idx.out[x][y], idx.out[x][z]), (y, idx.out[y][x], idx.out[y][z]),
             (z, idx.out[z][x], idx.out[z][y])),
        )
        for x, y in idx.edges for z in nbrs[x] if z > y and g.has_edge(y, z)
    ]

    side = [0] * idx.m  # sides covered per edge
    first = [0] * idx.m  # 2 * face + direction of the first side covered
    corners = [0] * (2 * idx.m)  # per dart: corners at its tail that use it
    other = list(range(2 * idx.m))  # chain endpoints point at each other
    length = [1] * (2 * idx.m)  # darts in the chain, read at its endpoints
    parent = list(range(faces_needed))
    parity = [0] * faces_needed  # orientation relative to the parent face
    size = [1] * faces_needed
    faces: list[list[int]] = []  # darts of the closed faces, then the open one
    rooms: list[int] = []  # per face: the triangle room when it started
    uncovered, closed, conflicts = 2 * idx.m, 0, 0
    found: Optional[list[list[int]]] = None

    def addable(a: int, b: int, v: int) -> bool:
        return corners[a] < 2 and corners[b] < 2 and (other[a] != b or length[a] == deg[v])

    def join(a: int, b: int) -> Optional[tuple[int, int, int, int]]:
        corners[a] += 1
        corners[b] += 1
        s, t = other[a], other[b]
        if s == b:
            return None  # the chain closes into the vertex's rotation
        la, lb = length[a], length[b]
        other[s], other[t] = t, s
        length[s] = length[t] = la + lb
        return s, t, la, lb

    def unjoin(a: int, b: int, log: Optional[tuple[int, int, int, int]]) -> None:
        corners[a] -= 1
        corners[b] -= 1
        if log is not None:
            s, t, la, lb = log
            other[s], other[a] = a, s
            other[b], other[t] = t, b
            length[s] = length[a] = la
            length[b] = length[t] = lb

    def find(f: int) -> tuple[int, int]:
        p = 0
        while parent[f] != f:
            p ^= parity[f]
            f = parent[f]
        return f, p

    def cover(d: int):
        """Cover a side of d's edge by the open face: a log for `uncover`,
        or None when an orientable target can no longer be met."""
        nonlocal uncovered, conflicts
        e = d >> 1
        if side[e] == 0:
            first[e] = 2 * closed + (d & 1)
            log: tuple = ()
        else:
            # the two sides read the edge in opposite directions once both
            # faces are oriented: same directions mean opposite orientations
            r1, p1 = find(first[e] >> 1)
            r2, p2 = find(closed)
            want = int((first[e] & 1) == (d & 1))
            if r1 != r2:
                if size[r1] < size[r2]:
                    r1, r2 = r2, r1
                parent[r2], parity[r2] = r1, p1 ^ p2 ^ want
                size[r1] += size[r2]
                log = (r1, r2)
            elif p1 ^ p2 == want:
                log = ()
            elif orientable:
                return None
            else:
                conflicts += 1
                log = (-1,)
        side[e] += 1
        touched[head[d]] += 1
        touched[head[d ^ 1]] += 1
        uncovered -= 1
        return log

    def uncover(d: int, log: tuple) -> None:
        nonlocal uncovered, conflicts
        side[d >> 1] -= 1
        touched[head[d]] -= 1
        touched[head[d ^ 1]] -= 1
        uncovered += 1
        if len(log) == 1:
            conflicts -= 1
        elif log:
            r1, r2 = log
            parent[r2], parity[r2] = r2, 0
            size[r1] -= size[r2]

    def triangle_room(limit: int) -> int:
        """How many more faces may be triangles, up to `limit`: at most the
        free sides of a greedy edge cover of the usable triangles."""
        usable = []
        for edges, turns in triangles:
            if side[edges[0]] == 2 or side[edges[1]] == 2 or side[edges[2]] == 2:
                continue
            for v, a, b in turns:
                if corners[a] == 2 or corners[b] == 2 or (other[a] == b and length[a] != deg[v]):
                    break
            else:
                # an edge with one free side counts twice: the greedy cover
                # takes the edge with the most triangles per free side
                usable.append(edges + tuple(e for e in edges if side[e]))
        room = 0
        while usable and room < limit:
            count = Counter(chain.from_iterable(usable))
            e = max(count, key=count.__getitem__)
            room += 2 - side[e]
            usable = [t for t in usable if e not in t]
        return min(room, limit)

    def least_sides(later: int, room: int) -> int:
        """The fewest sides `later` more faces take: each at least the girth
        long, and with girth 3 at least 4 long but for `room` triangles."""
        return girth * later if girth > 3 else 4 * later - min(room, later)

    def start_edge() -> Optional[int]:
        """The uncovered edge with the fewest continuations at its two ends,
        or None when some edge has none at one end."""
        best, best_score = None, 0
        for e in range(idx.m):
            if side[e] == 2:
                continue
            score = 1
            for a in (2 * e, 2 * e + 1):
                # the darts d that `addable(a, d, v)` admits: a dart is in
                # at most as many corners as its edge has covered sides, so
                # with a side free a is in fewer than two, and so is d
                v = head[a ^ 1]
                close, closes = other[a], length[a] == deg[v]
                count = 0
                for d in out[v]:
                    if d != a and side[d >> 1] < 2 and (d != close or closes):
                        count += 1
                if not count:
                    return None
                score *= count
            if best is None or score < best_score:
                best, best_score = e, score
        return best

    def step():
        """Yields one child per choice after applying it, and undoes it
        when resumed."""
        nonlocal closed, found
        if len(faces) == closed:  # no face is open: start one
            left = faces_needed - closed
            if not left:
                if not uncovered and (orientable or conflicts):
                    found = [list(f) for f in faces]
                return
            room = triangle_room(left) if girth == 3 else 0
            if uncovered < least_sides(left, room):
                return
            e = start_edge()
            if e is None:
                return
            d = 2 * e
            log = cover(d)
            if log is None:
                return
            faces.append([d])
            rooms.append(room)
            yield
            rooms.pop()
            faces.pop()
            uncover(d, log)
            return
        walk = faces[-1]
        last = walk[-1]
        v, a, start = head[last], last ^ 1, walk[0]
        later = faces_needed - closed - 1
        after, home = least_sides(later, rooms[-1]), head[start ^ 1]
        if v == home and a != start and addable(a, start, v) and uncovered >= after and (later or not uncovered):
            log = join(a, start)
            closed += 1
            yield
            closed -= 1
            unjoin(a, start, log)
        for d in out[v]:
            if d == a or side[d >> 1] == 2 or not addable(a, d, v):
                continue
            w = head[d]
            if lower[w] and not touched[w] and not all(touched[u] for u in lower[w]):
                continue  # mirrors the branch into a lower untouched twin
            if uncovered - 1 - dist[w][home] < after:
                continue
            log = cover(d)
            if log is None:
                continue
            corner = join(a, d)
            walk.append(d)
            yield
            walk.pop()
            unjoin(a, d, corner)
            uncover(d, log)

    nodes = 0
    stack = [step()]
    while stack:
        if next(stack[-1], 0) == 0:
            stack.pop()
            if found is not None:
                break
            continue
        nodes += 1
        if nodes > node_cap:
            return None, nodes
        stack.append(step())
    if found is None:
        return None, nodes
    return _scheme_from_faces(g, idx, found, euler, orientable), nodes


def _scheme_from_faces(
    g: SimpleGraph, idx: _DartIndex, faces: list[list[int]], euler: int, orientable: bool
) -> EmbeddingScheme:
    """The scheme whose faces are `faces`, each a cyclic list of darts.
    Each vertex's corners link its darts into its rotation. A face turning
    from x through u to w turns +1 at u when w follows x in u's rotation,
    else -1; the sign of an edge is the product of the turns at its two
    ends."""
    link: list[list[int]] = [[] for _ in range(2 * idx.m)]
    for f in faces:
        for d, nxt in zip(f, f[1:] + f[:1]):
            link[d ^ 1].append(nxt)
            link[nxt].append(d ^ 1)
    head = idx.head
    rotations, position = [], []
    for v in range(g.n):
        degree = g.degree(v)
        order = [idx.out[v][g.neighbors(v)[0]]]
        while len(order) < degree:
            x, y = link[order[-1]]
            order.append(y if len(order) > 1 and x == order[-2] else x)
        rotations.append([head[d] for d in order])
        position.append({w: i for i, w in enumerate(rotations[-1])})

    def turn(d_in: int, d_out: int) -> int:
        u = head[d_in]
        rot = rotations[u]
        return 1 if rot[(position[u][head[d_in ^ 1]] + 1) % len(rot)] == head[d_out] else -1

    signs = [1] * idx.m
    for f in faces:
        for before, d, after in zip(f[-1:] + f[:-1], f, f[1:] + f[:1]):
            signs[d >> 1] = turn(before, d) * turn(d, after)
    # reversing the rotation at a vertex and negating the signs at it keeps
    # every face: do it so that a spanning tree's edges are +1, as in every
    # other certificate, which leaves an orientable scheme all-positive
    flip = [False] * g.n
    seen = [False] * g.n
    seen[0] = True
    queue = [0]
    for v in queue:
        for w in g.neighbors(v):
            if not seen[w]:
                seen[w] = True
                flip[w] = flip[v] ^ (signs[idx.out[v][w] >> 1] < 0)
                queue.append(w)
    rotations = [rot[::-1] if flip[v] else rot for v, rot in enumerate(rotations)]
    signs = [-s if flip[u] != flip[v] else s for s, (u, v) in zip(signs, idx.edges)]
    return _verified_scheme(g, idx.edges, rotations, signs, None, euler // 2 if orientable else euler,
                            ORIENTABLE if orientable else NONORIENTABLE)


# ---------------------------------------------------------------------------
# Restart phase


def heuristic_embedding(
    g: SimpleGraph,
    target: int,
    surface: str,
    budget: Optional[SearchBudget] = None,
) -> Optional[tuple[EmbeddingScheme, int]]:
    """Seeded restarts of the face-set search for a scheme of g at the
    target genus or crosscap t >= 1. g must be connected with minimum
    degree >= 3, as the face-set search needs.

    The upper end starts at the neighbour-order rotation system: all signs
    +1 on the orientable surface, and on the nonorientable one the first
    co-tree edge negated, which unbalances the scheme. Restart k relabels g
    by a permutation drawn from random.Random(budget.seed) and searches
    the value t + k % (best - t), best being the lowest value found so
    far, under a cap of `budget.nodes_per_restart` nodes; a hit lowers best
    to that value. The restarts stop once best reaches t. A relabelling
    changes the order in which the search tries vertices and darts, so a
    value one order leaves in the heavy tail of its search may be hit
    within a few thousand nodes under another (Gomes, Selman and Kautz,
    "Boosting combinatorial search through randomization", AAAI 1998).

    Returns the scheme at best, mapped back to g and re-verified (a hit's,
    or the neighbour-order scheme when no restart hits), and best, which
    the caller reads without tracing the scheme again. None comes only
    from no restart.
    """
    budget = budget or DEFAULT_BUDGET
    if target < 1:
        raise ValueError("target must be at least 1")
    if not budget.restarts:
        return None
    orientable = surface == ORIENTABLE
    edges = g.edges()
    signs = [1] * len(edges)
    if not orientable:
        signs[_cotree_edges(g)[0]] = -1
    scheme = make_scheme(g, [g.neighbors(v) for v in range(g.n)], dict(zip(edges, signs)), seed=budget.seed)
    euler = trace_faces(g, scheme).euler_genus
    best = euler // 2 if orientable else euler
    rng = random.Random(budget.seed)
    for k in range(budget.restarts):
        if best <= target:
            break
        value = target + k % (best - target)
        perm = list(range(g.n))
        rng.shuffle(perm)
        euler = 2 * value if orientable else value
        hit, _ = _face_set_search(
            SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in edges]), euler, orientable, budget.nodes_per_restart
        )
        if hit is not None:
            back = {perm[v]: v for v in range(g.n)}
            rotations = [[back[w] for w in hit.rotations[perm[v]]] for v in range(g.n)]
            sign = hit.sign_map()
            signs = [sign[(perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])] for u, v in edges]
            best, scheme = value, _verified_scheme(g, edges, rotations, signs, budget.seed, value, surface)
    return scheme, best


def _verified_scheme(g, edges, rotations, signs, seed, value, surface):
    """The scheme, traced once and held to `verify_certificate`'s rule for
    genus or crosscap `value` on `surface`."""
    scheme = make_scheme(g, rotations, dict(zip(edges, signs)), seed=seed)
    trace = trace_faces(g, scheme)
    if not trace.matches(surface, value):
        raise SchemeError(
            f"scheme scored at {value} on the {surface} surface does not re-verify"
            f" (traced euler genus {trace.euler_genus},"
            f" {'orientable' if trace.orientable else 'nonorientable'})"
        )
    return scheme


# ---------------------------------------------------------------------------
# Exact computations


@dataclass
class _Piece:
    """A connected graph and what is known of it on both surfaces: a
    planar embedding, or else a lower bound on its Euler genus min(2 genus,
    crosscap) from Euler's formula and K_{m,n} subgraphs, which bounds the
    crosscap as it stands and the genus once halved, rounding up; its
    homeomorphic reduction, its blocks and their face counts, each kept
    from the planarity test or found on first use; then, found on first
    use, the node cap of a face-set search on the reduction, its split and
    the split's nonplanar pieces. Nothing here depends on a surface or a
    budget. Search results are never kept, so each search of a piece
    starts from these facts alone."""

    graph: SimpleGraph
    planar: PlanarityResult
    euler_lower: int = 0
    provenance: list[str] = field(default_factory=list)

    @cached_property
    def reduced(self) -> SimpleGraph:
        """The reduction the planarity test made, or, where Euler's formula
        answered it, one made now: a dense piece that `lower_stop` stops
        before its search, as most of a sweep's are, never needs one."""
        if self.planar.reduced is not None:
            return self.planar.reduced
        return reduce_homeomorphic(self.graph)[0]

    @cached_property
    def node_cap(self) -> int:
        """Judged on the reduction, the graph the face-set pass searches."""
        return _NODE_CAP if rotation_space_size(self.reduced) <= _EXHAUSTIVE_CAP else _FACE_NODE_CAP

    @cached_property
    def blocks(self) -> list[SimpleGraph]:
        """The reduction's blocks: the planarity test's where it found
        them, else found now."""
        return self.planar.blocks if self.planar.blocks is not None else block_decomposition(self.reduced)

    @cached_property
    def face_counts(self) -> list[int]:
        """`_face_counts` of the reduction's blocks: the planarity test's
        where it counted them, else counted now."""
        return self.planar.counts if self.planar.counts is not None else _face_counts(self.blocks)

    def bound(self, surface: str) -> int:
        """The plan-time lower bound on `surface`: the larger of
        `euler_lower`'s and the sum over the blocks' face counts. Euler
        genus adds over blocks, so the crosscap, which is at least the
        Euler genus, is at least the counts' sum; the genus adds over
        blocks (Battle, Harary, Kodama and Youngs 1962), and a block's is
        at least half its Euler genus, so the genus is at least the sum of
        the halved counts, each rounded up."""
        counts = self.face_counts
        summed = sum(counts) if surface == NONORIENTABLE else sum((c + 1) // 2 for c in counts)
        return max(_lower_on(surface, self.euler_lower), summed)

    @cached_property
    def split(self) -> tuple[SimpleGraph, list[SimpleGraph], list[SimpleGraph]]:
        """The reduction, the blocks of that, and each block reduced again.
        Reduction keeps the genus and the crosscap."""
        return self.reduced, self.blocks, [reduce_homeomorphic(block)[0] for block in self.blocks]

    @cached_property
    def nonplanar(self) -> list[_Piece]:
        """The nonplanar pieces of the split, searched in this graph's
        place. A split that hands back the reduction itself, one block with
        nothing left to reduce, leaves this graph as its own piece, with its
        own bounds, searched on that reduction; every other reduced block is
        planned as a piece of its own."""
        pieces = [self if b is self.reduced else _piece(b) for b in self.split[2] if b.edge_count]
        return [p for p in pieces if not p.planar.planar]


def _piece(g: SimpleGraph) -> _Piece:
    """The facts about connected g that hold on both surfaces. g's girth is
    read once, by the planarity test, which reads it on every graph with a
    cycle, so on every nonplanar one. The K_{m,n} bound is sought only when
    `_degree_cap` leaves it room to beat the Euler bound: where the cap
    does not, the bound could not raise the lower end, so skipping it
    leaves the bound and its provenance as they are."""
    if g.edge_count and not g.is_connected():
        raise ValueError("exact search needs a connected graph")
    planar = is_planar(g)
    if planar.planar:
        return _Piece(g, planar, provenance=["planar embedding found"])
    # the crosscap bounds below are Euler genus bounds: K_{m,n} has Euler
    # genus min(2 genus, crosscap) = its crosscap
    lower, prov = 1, ["nonplanar"]
    elb = _euler_count(g, planar.girth)
    if elb > lower:
        lower = elb
        prov.append(f"euler bound {elb}")
    if _degree_cap(g) > lower:
        sub_bound, sub_desc = bipartite_subgraph_bound(g, NONORIENTABLE)
        if sub_bound > lower:
            lower = sub_bound
            prov.append(f"subgraph {sub_desc} bound {sub_bound}")
    return _Piece(g, planar, lower, prov)


def _degree_cap(g: SimpleGraph) -> int:
    """A ceiling on `bipartite_subgraph_bound(g, NONORIENTABLE)`: the larger
    crosscap of K_{3,d3} and K_{4,d4}, where d_m is g's m-th largest degree.
    The bound's K_{m,n} has n common neighbours of m vertices, at most the
    smallest of their degrees, which is at most d_m; its crosscap grows
    with n, and K_{2,n} bounds nothing, as its crosscap is 0."""
    degrees = sorted((g.degree(v) for v in range(g.n)), reverse=True)
    return max((formula_oracle("complete_bipartite", (m, degrees[m - 1]), NONORIENTABLE)
                for m in (3, 4) if m <= g.n and degrees[m - 1] >= 2), default=0)


def _lower_on(surface: str, euler_lower: int) -> int:
    return euler_lower if surface == NONORIENTABLE else (euler_lower + 1) // 2


def exact_genus(g: SimpleGraph, budget: Optional[SearchBudget] = None) -> GenusResult:
    """Orientable genus of a connected graph: lower bounds, then one
    face-set pass from the bound on the graph's homeomorphic reduction.
    Where no stop is set, or the Euler and K_{m,n} bound is below it, the
    pass starts from `_Piece.bound` instead, which adds the halved face
    counts of the reduction's blocks, each rounded up. The pass raises the
    bound by each value it excludes until it hits or its node cap is spent:
    `_NODE_CAP` on a rotation space that fits `_EXHAUSTIVE_CAP`, else
    `_FACE_NODE_CAP`. A pass stopped by the cap is followed by the
    restart phase on the reduction, from the bound it reached: the upper
    end is the lowest value a seeded restart hits, or the neighbour-order
    scheme's when none does. Every certificate binds to the reduction."""
    return _exact_surface(_piece(g), ORIENTABLE, budget or DEFAULT_BUDGET)


def exact_crosscap(g: SimpleGraph, budget: Optional[SearchBudget] = None) -> GenusResult:
    """Nonorientable genus (crosscap) of a connected graph; the search is
    restricted to unbalanced schemes, with planarity handled separately."""
    return _exact_surface(_piece(g), NONORIENTABLE, budget or DEFAULT_BUDGET)


def _face_set_pass(
    g: SimpleGraph, surface: str, lower: int, stop: Optional[int], node_cap: int, prov: list[str]
) -> tuple[Optional[EmbeddingScheme], int]:
    """Face-set searches on g, a homeomorphic reduction, at lower,
    lower + 1, ... until one hits, the bound reaches `stop` or `node_cap`
    nodes are spent. Each that completes without a hit proves the next
    value. Returns the hit's scheme or None, and the bound reached."""
    nodes = 0
    while stop is None or lower < stop:
        euler = 2 * lower if surface == ORIENTABLE else lower
        scheme, used = _face_set_search(g, euler, surface == ORIENTABLE, node_cap - nodes)
        nodes += used
        if scheme is not None:
            prov.append(f"face-set certificate at {lower}")
            return scheme, lower
        if nodes > node_cap:
            prov.append(f"face-set search stopped by node cap at {lower}")
            return None, lower
        prov.append(f"face-set search excludes {lower}")
        lower += 1
    prov.append(f"stopped at lower bound >= {stop}")
    return None, lower


def _exact_surface(piece: _Piece, surface: str, budget: SearchBudget) -> GenusResult:
    prov = list(piece.provenance)
    if piece.planar.planar:
        return GenusResult(surface, 0, 0, True, certificate=piece.planar.scheme,
                           certificate_graph=piece.graph, provenance=prov)

    g = piece.reduced
    stop = budget.lower_stop
    lower = _lower_on(surface, piece.euler_lower)
    if stop is None or lower < stop:
        counted = piece.bound(surface)
        if counted > lower:
            lower = counted
            prov.append(f"block face count bound {lower}")
    prov.append(f"lower bound {lower}")
    scheme, lower = _face_set_pass(g, surface, lower, stop, piece.node_cap, prov)
    upper = lower
    if scheme is None:
        restarted = heuristic_embedding(g, lower, surface, budget) if stop is None or lower < stop else None
        if restarted is None:
            return GenusResult(surface, lower, None, False, provenance=prov)
        scheme, upper = restarted
        prov.append(f"restart certificate at {lower} (seed {budget.seed})" if upper == lower
                    else f"restart upper bound {upper}")
    return GenusResult(surface, lower, upper, upper == lower,
                       certificate=scheme, certificate_graph=g, provenance=prov)


# ---------------------------------------------------------------------------
# Orchestrator


class GraphPlan:
    """A graph's components with an edge, each a `_Piece` with what
    `genus_of_graph` finds of it before it searches, kept for every later
    call on the plan and for `derived_subgraphs`. A component that spans
    the graph is the graph itself, so the plan describes the graph as it
    was when planned and holds only while the graph is left unchanged."""

    def __init__(self, g: SimpleGraph):
        self.graph = g
        self.components = [
            _piece(g if len(comp) == g.n else induced_subgraph(g, comp))
            for comp in g.connected_components() if len(comp) > 1
        ]


def genus_of_graph(
    g: SimpleGraph | GraphPlan,
    budget: Optional[SearchBudget] = None,
    surface: str = ORIENTABLE,
) -> GenusResult:
    """Genus or crosscap of any graph, combined over the pieces its plan
    splits its nonplanar components into. Planar pieces count 0, and each
    component's own bounds bound the sum over its pieces. Given a graph, it
    plans it first; given a `GraphPlan`, it reads what the plan's `_Piece`s
    hold, the components' and their pieces' alike: planarity tests with
    their embeddings, lower bounds, reductions, splits and node caps, which
    hold on either surface. It never shares a search: those depend on the
    surface and the budget, so every call runs its own, and its result is
    the one a call on the graph alone gives.

    A nonplanar component's floor is its own Euler and K_{m,n} bound. Where
    no stop is set, or that floor is below it, the floor is raised to the
    sum of its pieces' plan-time bounds where that is higher
    (`_Piece.bound`, which reads each piece's face counts), and a floor at
    the stop ends the component before any search.

    The genus adds over the pieces. The crosscap (Stahl and Beineke, J.
    Graph Theory 1 (1977) 75-78) is the sum over the nonplanar pieces of
    eg(B) = min(2 genus(B), crosscap(B)), plus 1 when every one of them is
    orientably simple, crosscap(B) = 2 genus(B) + 1. With one nonplanar
    piece that is the piece's crosscap, so only with more are the pieces
    searched on the orientable surface too. An unsettled piece leaves the
    bracket [sum of min(2 genus, crosscap) lower bounds, sum of crosscap
    upper bounds]. The certificate of a single piece, or of a single planar
    component, comes with the result, exact or not, at its upper end.
    """
    plan = g if isinstance(g, GraphPlan) else GraphPlan(g)
    budget = budget or DEFAULT_BUDGET
    if plan.graph.edge_count == 0:
        return GenusResult(surface, 0, 0, True, provenance=["empty graph"])

    prov: list[str] = []
    results: list[GenusResult] = []  # the planar components', then the pieces'
    searched: list[tuple[int, list[_Piece]]] = []  # per component: bound, nonplanar pieces
    lower, upper, exact = 0, 0, True
    for ci, whole in enumerate(plan.components):
        if whole.planar.planar:
            prov.append(f"component {ci}: planar")
            results.append(_exact_surface(whole, surface, budget))
            continue
        # the unreduced component's bounds also bound the sum over its pieces
        # (reduction can break bipartiteness and weaken the girth bound), and
        # so does the sum of the pieces' own
        floor, why = _lower_on(surface, whole.euler_lower), whole.provenance
        stop = budget.lower_stop
        if stop is None or floor < stop:
            summed = sum(p.bound(surface) for p in whole.nonplanar)
            if summed > floor:
                floor, why = summed, [*why, f"pieces' bounds sum to {summed}"]
        prov.append(f"component {ci}: lower bound {floor} [{'; '.join(why)}]")
        if stop is not None and floor >= stop:
            prov.append(f"component {ci}: stopped at lower bound >= {stop}")
            lower, upper, exact = lower + floor, None, False
            continue
        searched.append((floor, whole.nonplanar))

    both = surface == NONORIENTABLE and sum(len(pieces) for _, pieces in searched) > 1
    simple = True
    k = 0  # pieces are numbered apart from the planar components
    for floor, pieces in searched:
        total, settled = 0, True  # of genus, of crosscap with one piece, else of eg
        for p in pieces:
            res = _exact_surface(p, surface, budget)
            prov.append(f"piece {k}: {_describe(res)}")
            results.append(res)
            part, settled = res.lower, settled and res.exact
            if both:
                orient = _exact_surface(p, ORIENTABLE, budget)
                prov.append(f"piece {k} orientable: {_describe(orient)}")
                part, settled = min(2 * orient.lower, res.lower), settled and orient.exact
                simple = simple and res.lower == 2 * orient.lower + 1
            total += part
            k += 1
            upper = None if upper is None or res.upper is None else upper + res.upper
        if settled and floor > total:
            raise SchemeError(f"component bound {floor} exceeds exact block sum {total}")
        lower += max(floor, total)
        exact = exact and settled

    if exact:
        lower = upper = lower + (both and simple)
    one = results[0] if len(results) == 1 and upper is not None else None
    return GenusResult(
        surface, lower, upper, exact,
        certificate=one.certificate if one else None,
        certificate_graph=one.certificate_graph if one else None,
        provenance=prov,
    )


def _describe(res: GenusResult) -> str:
    if res.exact:
        return f"exact {res.lower} [{'; '.join(res.provenance)}]"
    up = res.upper if res.upper is not None else "?"
    return f"bounds [{res.lower}, {up}] [{'; '.join(res.provenance)}]"


def derived_subgraphs(g: SimpleGraph | GraphPlan) -> list[SimpleGraph]:
    """The graphs the pipeline may bind a certificate to, each once by
    checksum: the graph itself, its components, and each component's
    reduction, blocks and reduced blocks, as its `_Piece.split` holds them.
    Used to match a certificate back to its graph. Given the plan
    `genus_of_graph` searched, it reads the splits the certificates were
    issued on rather than splitting again; given a graph, it plans it
    first. It reads no search result, which the plan never keeps."""
    plan = g if isinstance(g, GraphPlan) else GraphPlan(g)
    graphs = [plan.graph]
    for piece in plan.components:
        reduced, blocks, pieces = piece.split
        graphs += [piece.graph, reduced, *blocks, *pieces]
    unique: dict[str, SimpleGraph] = {}
    for h in graphs:
        unique.setdefault(h.checksum(), h)
    return list(unique.values())
