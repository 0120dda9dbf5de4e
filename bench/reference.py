"""Answers known without diffgenus, used to check the benchmark's outputs.

Everything here is written from the definitions and shares no code with the
package: closed-form genus and crosscap formulas, a brute-force search over
signed rotation systems, the difference graph built straight from cyclic
spans, Cayley tables built from group presentations, and a homomorphism
check for table isomorphisms.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import permutations, product

import networkx as nx
import numpy as np


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def complete_genus(n: int) -> int:
    """Ringel and Youngs: genus of K_n."""
    return ceil_div((n - 3) * (n - 4), 12)


def complete_crosscap(n: int) -> int:
    """Ringel: crosscap of K_n, with Franklin's exception at n = 7."""
    return 3 if n == 7 else ceil_div((n - 3) * (n - 4), 6)


def bipartite_genus(m: int, n: int) -> int:
    """Ringel: genus of K_{m,n}."""
    return ceil_div((m - 2) * (n - 2), 4)


def bipartite_crosscap(m: int, n: int) -> int:
    """Ringel: crosscap of K_{m,n}."""
    return ceil_div((m - 2) * (n - 2), 2)


def is_nonplanar(n: int, edges: list[tuple[int, int]]) -> bool:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return not nx.check_planarity(g)[0]


def is_connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj = _adjacency(n, edges)
    seen = {0}
    queue = deque([0])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def rotation_count(n: int, edges: list[tuple[int, int]]) -> int:
    """Rotation systems with each vertex's first neighbour fixed."""
    total = 1
    for nbrs in _adjacency(n, edges):
        for k in range(2, len(nbrs)):
            total *= k
    return total


def brute_force_surface(
    n: int, edges: list[tuple[int, int]], nonorientable: bool, known_lower: int = 0
) -> int:
    """Genus (or crosscap) of a connected graph by trying every rotation
    system (and, for crosscap, every nonempty set of negative co-tree edges
    over positive spanning-tree edges). Stops early once a scheme reaches
    `known_lower`, which the caller must have proved."""
    adj = _adjacency(n, edges)
    darts = [(u, v) for u in range(n) for v in adj[u]]
    dart_id = {d: i for i, d in enumerate(darts)}
    edge_of = [min(u, v) * n + max(u, v) for u, v in darts]
    choices = [[(nbrs[0],) + p for p in permutations(nbrs[1:])] if nbrs else [()] for nbrs in adj]
    if nonorientable:
        cotree = _cotree(n, adj)
        patterns = [
            {cotree[i] for i in range(len(cotree)) if mask >> i & 1}
            for mask in range(1, 1 << len(cotree))
        ]
    else:
        patterns = [set()]
    sign_rows = [[-1 if e in neg else 1 for e in edge_of] for neg in patterns]
    target = known_lower if nonorientable else 2 * known_lower
    best = None
    for rots in product(*choices):
        succ = [0] * len(darts)
        pred = [0] * len(darts)
        for v, rot in enumerate(rots):
            d = len(rot)
            for i, u in enumerate(rot):
                incoming = dart_id[(u, v)]
                succ[incoming] = dart_id[(v, rot[(i + 1) % d])]
                pred[incoming] = dart_id[(v, rot[(i - 1) % d])]
        for signs in sign_rows:
            faces = _count_faces(succ, pred, signs)
            euler = 2 - n + len(edges) - faces
            if best is None or euler < best:
                best = euler
                if best <= target:
                    return best if nonorientable else best // 2
    if best is None:
        raise ValueError("graph has no scheme of the requested kind")
    return best if nonorientable else best // 2


def _count_faces(succ, pred, signs) -> int:
    """Face walks on (dart, orientation) states: crossing a negative edge
    flips the orientation, which decides whether the walk turns to the next
    or the previous neighbour. Each face is met once in each direction."""
    size = len(succ)
    seen = bytearray(2 * size)
    orbits = 0
    for start in range(2 * size):
        if seen[start]:
            continue
        orbits += 1
        state = start
        while not seen[state]:
            seen[state] = 1
            d, o = state >> 1, state & 1
            o ^= signs[d] < 0
            state = ((pred[d] if o else succ[d]) << 1) | o
    if orbits % 2:
        raise ValueError("face walks do not pair up")
    return orbits // 2


def _adjacency(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return [sorted(a) for a in adj]


def _cotree(n: int, adj: list[list[int]]) -> list[int]:
    """Edge keys outside a BFS spanning tree rooted at vertex 0."""
    seen = {0}
    tree = set()
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                tree.add(min(v, w) * n + max(v, w))
                queue.append(w)
    return sorted({min(u, v) * n + max(u, v) for u in range(n) for v in adj[u]} - tree)


def cyclic_spans(rows) -> list[int]:
    """Bitmask of <x> for every element x, by repeated multiplication."""
    spans = []
    for x in range(len(rows)):
        mask, y = 1, x
        while y != 0:
            mask |= 1 << y
            y = rows[y][x]
        spans.append(mask)
    return spans


def difference_graph_edges(rows) -> tuple[set[int], set[tuple[int, int]]]:
    """Vertices and edges (as element pairs x < y) of the difference graph:
    x ~ y in the enhanced power graph when both lie in one cyclic subgroup,
    in the power graph when one lies in the span of the other; the
    difference keeps enhanced edges that are not power edges."""
    n = len(rows)
    spans = cyclic_spans(rows)
    generators: dict[int, int] = {}  # span -> elements generating it
    for y, mask in enumerate(spans):
        generators[mask] = generators.get(mask, 0) | 1 << y
    together = [0] * n  # elements sharing a cyclic subgroup with x
    inside = [0] * n  # elements whose span contains x
    for mask, gens in generators.items():
        for x in _bits(mask):
            together[x] |= mask
            inside[x] |= gens
    edges = set()
    for x in range(1, n):
        above = together[x] & ~(spans[x] | inside[x]) & ~((1 << (x + 1)) - 1)
        edges.update((x, y) for y in _bits(above))
    vertices = {v for e in edges for v in e}
    return vertices, edges


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_isomorphism(rows_a, rows_b, mapping) -> bool:
    """True when `mapping` is a bijection with phi(a*b) = phi(a)*phi(b)."""
    a = np.asarray(rows_a, dtype=np.int64)
    b = np.asarray(rows_b, dtype=np.int64)
    phi = np.asarray(mapping, dtype=np.int64)
    n = len(a)
    if a.shape != (n, n) or b.shape != (n, n) or phi.shape != (n,):
        return False
    if not np.array_equal(np.sort(phi), np.arange(n)):
        return False
    return bool(np.array_equal(phi[a], b[phi[:, None], phi[None, :]]))


def group_table(descriptor: str) -> np.ndarray:
    """Cayley table of a direct product such as "Q16 x Z3 x Z25", built from
    presentations: Z(n) cyclic; D(m), Q(m) and SD(m) of order m, generated
    by x of order m/2 and y with y x y^-1 = x^r (r = -1 for D and Q,
    m/4 - 1 for SD) and y^2 = 1, except y^2 = x^(m/4) for Q."""
    table = np.zeros((1, 1), dtype=np.int64)
    for factor in descriptor.split(" x "):
        family, order = re.fullmatch(r"(SD|Z|D|Q)(\d+)", factor.strip()).groups()
        right = _factor_table(family, int(order))
        na, nb = len(table), len(right)
        # element (a, b) is a * nb + b
        table = (table[:, None, :, None] * nb + right[None, :, None, :]).reshape(na * nb, na * nb)
    return table


def _factor_table(family: str, n: int) -> np.ndarray:
    idx = np.arange(n)
    if family == "Z":
        return (idx[:, None] + idx[None, :]) % n
    half = n // 2
    r = {"D": half - 1, "Q": half - 1, "SD": half // 2 - 1}[family]
    y_squared = half // 2 if family == "Q" else 0
    i, j = idx % half, idx // half  # element x^i y^j is i + half * j
    # (x^i y^j)(x^k y^l) = x^(i + k r^j + [j = l = 1] y_squared) y^(j + l)
    twist = np.where(j == 1, r, 1)
    power = (i[:, None] + i[None, :] * twist[:, None] + y_squared * (j[:, None] & j[None, :])) % half
    return power + half * ((j[:, None] + j[None, :]) % 2)


def relabelled_table_text(table: np.ndarray, perm: np.ndarray) -> str:
    """The table with element e renamed perm[e], in the Cayley-table file
    format: the order, then one row per line."""
    n = len(table)
    out = np.empty_like(table)
    out[perm[:, None], perm[None, :]] = perm[table]
    lines = [str(n)] + [" ".join(map(str, row)) for row in out.tolist()]
    return "\n".join(lines) + "\n"
