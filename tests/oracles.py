"""Independent brute-force oracles for cross-checking the package.

Everything here is written from first principles against the definitions,
deliberately sharing no code with the package internals it checks.
"""

from __future__ import annotations

from itertools import combinations, permutations, product


def brute_force_genus(g) -> int:
    """Minimum orientable genus by enumerating every rotation system and
    tracing faces with a plain dict walk."""
    verts = range(g.n)
    nbrs = {v: sorted(g.adj[v]) for v in verts}
    choices = []
    for v in verts:
        ns = nbrs[v]
        if len(ns) <= 1:
            choices.append([tuple(ns)])
        else:
            anchor, rest = ns[0], ns[1:]
            choices.append([(anchor,) + p for p in permutations(rest)])

    edge_count = sum(len(ns) for ns in nbrs.values()) // 2
    n_comps, isolated = _components(g)
    best = None
    for rots in product(*choices):
        succ = {}
        for v in verts:
            rot = rots[v]
            d = len(rot)
            for i, u in enumerate(rot):
                succ[(u, v)] = (v, rot[(i + 1) % d])
        seen = set()
        faces = isolated
        for d0 in succ:
            if d0 in seen:
                continue
            faces += 1
            dart = d0
            while dart not in seen:
                seen.add(dart)
                dart = succ[dart]
        euler = 2 * n_comps - g.n + edge_count - faces
        assert euler % 2 == 0
        genus = euler // 2
        if best is None or genus < best:
            best = genus
        if best == 0:
            break
    return best if best is not None else 0


def brute_force_crosscap(g) -> int:
    """Least Euler genus over the unbalanced signed rotation systems of a
    connected graph, which for a nonplanar graph is its crosscap. Switching
    at vertices turns any scheme into one whose DFS spanning-tree edges are
    +1, and such a scheme is unbalanced exactly when some other edge is -1;
    so every rotation system is tried with every such sign pattern, and the
    faces are counted by `partial_face_counts`. Stops at 1, the least Euler
    genus of a nonorientable surface."""
    nbrs = {v: sorted(g.adj[v]) for v in range(g.n)}
    tree = set()
    seen = set()

    def dfs(v):
        seen.add(v)
        for w in nbrs[v]:
            if w not in seen:
                tree.add((min(v, w), max(v, w)))
                dfs(w)

    dfs(0)
    edges = [(u, v) for u in range(g.n) for v in nbrs[u] if u < v]
    cotree = [e for e in edges if e not in tree]
    choices = [
        [tuple(ns)] if len(ns) <= 1 else [(ns[0],) + p for p in permutations(ns[1:])]
        for ns in nbrs.values()
    ]
    best = None
    for rots in product(*choices):
        rotations = dict(enumerate(rots))
        for pattern in product((1, -1), repeat=len(cotree)):
            if -1 not in pattern:
                continue
            signs = dict.fromkeys(tree, 1)
            signs.update(zip(cotree, pattern))
            faces, _ = partial_face_counts(g, rotations, signs)
            euler = 2 - g.n + len(edges) - faces
            if best is None or euler < best:
                best = euler
                if best == 1:
                    return best
    return best


def _components(g) -> tuple[int, int]:
    seen = set()
    comps = 0
    isolated = 0
    for s in range(g.n):
        if s in seen:
            continue
        comps += 1
        stack = [s]
        seen.add(s)
        size = 0
        while stack:
            v = stack.pop()
            size += 1
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if size == 1 and not g.adj[s]:
            isolated += 1
    return comps, isolated


def brute_force_difference(group) -> tuple[list[int], list[tuple[int, int]]]:
    """Vertices and edges of the difference graph straight from the
    definitions: power adjacency via cyclic spans, enhanced adjacency via
    membership in a common span, isolated vertices dropped."""
    n = group.order

    def span(x):
        out = {0}
        y = x
        while y != 0:
            out.add(y)
            y = group.mult(y, x)
        return out

    spans = [span(x) for x in range(n)]
    power = set()
    for x in range(n):
        for y in range(x + 1, n):
            if y in spans[x] or x in spans[y]:
                power.add((x, y))
    enhanced = set()
    for z in range(n):
        members = sorted(spans[z])
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                enhanced.add((members[i], members[j]))
    diff = sorted(enhanced - power)
    vertices = sorted({v for e in diff for v in e})
    return vertices, diff


def brute_force_has_complete_bipartite(g, m: int, n: int) -> bool:
    """K_{m,n} subgraph containment by trying every m-subset as the A side."""
    vs = set(range(g.n))
    for a_side in combinations(sorted(vs), m):
        rest = vs - set(a_side)
        common = [w for w in rest if all(w in g.adj[a] for a in a_side)]
        if len(common) >= n:
            return True
    return False


def brute_force_girth(g) -> float:
    """Shortest cycle via the delete-one-edge shortest-path method."""
    import math
    from collections import deque

    best = math.inf
    edges = [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]
    for u, v in edges:
        dist = {u: 0}
        dq = deque([u])
        while dq:
            x = dq.popleft()
            for y in g.adj[x]:
                if (x, y) in ((u, v), (v, u)):
                    continue
                if y not in dist:
                    dist[y] = dist[x] + 1
                    dq.append(y)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def brute_force_bipartite(g) -> bool:
    """2-colorability by exhausting all colorings (exponential; tiny graphs
    only)."""
    if g.n == 0:
        return True
    for bits in range(1 << (g.n - 1)):
        coloring = [0] + [(bits >> i) & 1 for i in range(g.n - 1)]
        if all(coloring[u] != coloring[v] for u in range(g.n) for v in g.adj[u] if u < v):
            return True
    return False


def partial_face_counts(g, rotations: dict, signs=None) -> tuple[int, int]:
    """(closed faces, open states) of a partial rotation system, by walking
    every state again: the reference for the searches' face counters.

    Without signs a state is a dart (u, v); with signs (a dict keyed by
    (u, v), u < v) it is (u, v, o) for a local orientation o, and the walk
    turns the other way round v when o times the sign of uv is -1. A state
    has a successor once v has a rotation. Closed state cycles pair up
    with their mirror walks, so with signs a face is two cycles.
    """
    succ = {}
    for v, rot in rotations.items():
        d = len(rot)
        for i, u in enumerate(rot):
            if signs is None:
                succ[(u, v)] = (v, rot[(i + 1) % d])
                continue
            for o in (1, -1):
                o2 = o * signs[(u, v) if u < v else (v, u)]
                w = rot[(i + 1) % d] if o2 == 1 else rot[(i - 1) % d]
                succ[(u, v, o)] = (v, w, o2)
    darts = [(u, v) for u in range(g.n) for v in g.adj[u]]
    states = darts if signs is None else [(u, v, o) for u, v in darts for o in (1, -1)]
    on_cycle = set()
    cycles = 0
    for s0 in states:
        if s0 in on_cycle:
            continue
        walk = [s0]
        s = succ.get(s0)
        while s is not None and s != s0:
            walk.append(s)
            s = succ.get(s)
        if s == s0:
            cycles += 1
            on_cycle.update(walk)
    per_face = 1 if signs is None else 2
    assert cycles % per_face == 0
    return cycles // per_face, len(states) - len(on_cycle)
