"""Independent brute-force oracles for cross-checking the package.

Everything here is written from first principles against the definitions,
deliberately sharing no code with the package internals it checks; only
the exception types come from the package, and the `GroupTable`
constructor, which proves a subgroup's own table (`subgroup_table`) a
group. Besides the brute-force
searches and a Kuratowski subdivision from networkx, this holds
independent checks of the structural lemmas the pipeline rests on: the
difference graph's vertex set, the lcm witness, the Sylow projection, the
complete multipartite shape, the replay of a homeomorphic reduction and
the partition of a graph's edges into blocks, and the intersection
pattern of subgroups that conditions C1-C3 speak of. It also keeps the
harness's former two-branch status rule, against which the range rule is
checked, the group layer's former numpy table validator and generating
sequence, against which the tuple-row ones are checked, and its former
Cayley-table file parser, against which `ingest_table` is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, product

import networkx as nx
import numpy as np

from diffgenus.groups import (
    AssociativityError,
    GroupError,
    GroupTable,
    IdentityError,
    InverseError,
    LatinSquareError,
    NotNilpotentError,
    TableParseError,
)


def neighbour_sets(g) -> list[set[int]]:
    """One neighbour set per vertex of g, read off its edge list once, so
    that an oracle shares nothing with the masks it checks."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_force_genus(g) -> int:
    """Minimum orientable genus by enumerating every rotation system and
    tracing faces with a plain dict walk."""
    verts = range(g.n)
    adj = neighbour_sets(g)
    nbrs = {v: sorted(adj[v]) for v in verts}
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
    nbrs = {v: sorted(a) for v, a in enumerate(neighbour_sets(g))}
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
    darts = [(u, v) for u in range(g.n) for v in nbrs[u]]
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
            faces, _ = partial_face_counts(darts, rotations, signs)
            euler = 2 - g.n + len(edges) - faces
            if best is None or euler < best:
                best = euler
                if best == 1:
                    return best
    return best


def components(g) -> list[list[int]]:
    """Each component's vertices, ascending, by lowest vertex: a search over
    neighbour sets from each vertex no earlier search reached."""
    adj = neighbour_sets(g)
    seen: set[int] = set()
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        seen.add(s)
        stack, comp = [s], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _components(g) -> tuple[int, int]:
    comps = components(g)
    return len(comps), sum(len(comp) == 1 for comp in comps)


def brute_force_difference(group) -> tuple[list[int], list[tuple[int, int]]]:
    """Vertices and edges of the difference graph straight from the
    definitions: power adjacency via cyclic spans, enhanced adjacency via
    membership in a common span, isolated vertices dropped."""
    n = group.order
    spans = _spans(group)
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
    adj = neighbour_sets(g)
    for a_side in combinations(range(g.n), m):
        common = set.intersection(*(adj[a] for a in a_side)) - set(a_side)
        if len(common) >= n:
            return True
    return False


def brute_force_girth(g) -> float:
    """Shortest cycle via the delete-one-edge shortest-path method."""
    import math
    from collections import deque

    best = math.inf
    adj = neighbour_sets(g)
    edges = [(u, v) for u in range(g.n) for v in adj[u] if u < v]
    for u, v in edges:
        dist = {u: 0}
        dq = deque([u])
        while dq:
            x = dq.popleft()
            for y in adj[x]:
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
    adj = neighbour_sets(g)
    for bits in range(1 << (g.n - 1)):
        coloring = [0] + [(bits >> i) & 1 for i in range(g.n - 1)]
        if all(coloring[u] != coloring[v] for u in range(g.n) for v in adj[u] if u < v):
            return True
    return False


@dataclass
class KuratowskiWitness:
    kind: str  # "K5" or "K3,3"
    branch_vertices: list[int]
    edges: list[tuple[int, int]]


def kuratowski_witness(g) -> KuratowskiWitness | None:
    """A K5 or K3,3 subdivision in g, from networkx, or None when g is
    planar: an independent no-witness for `genus.is_planar`."""
    graph = nx.Graph()
    graph.add_nodes_from(range(g.n))
    adj = neighbour_sets(g)
    graph.add_edges_from((u, v) for u in range(g.n) for v in adj[u] if u < v)
    ok, counter = nx.check_planarity(graph, counterexample=True)
    if ok:
        return None
    branch = sorted(v for v in counter.nodes if counter.degree(v) >= 3)
    kind = "K5" if any(counter.degree(v) >= 4 for v in branch) else "K3,3"
    edges = sorted(tuple(sorted(e)) for e in counter.edges)
    return KuratowskiWitness(kind, branch, edges)


def partial_face_counts(darts, rotations: dict, signs=None) -> tuple[int, int]:
    """(closed faces, open states) of a partial rotation system on a graph
    with darts `darts`, both (u, v) and (v, u) for each edge, by walking
    every state: how `brute_force_crosscap` counts faces.

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


# ---------------------------------------------------------------------------
# Cayley-table validation with numpy, as the group layer once did it


def numpy_validate_table(arr: np.ndarray) -> None:
    """Raise unless the nonempty square int array `arr` is a group with
    identity 0: rows and columns first, then the identity, the inverses and
    Light's test on the generators of `numpy_generating_sequence`."""
    n = len(arr)
    target = np.arange(n)
    for what, lines in (("row", arr), ("column", arr.T)):
        bad = np.flatnonzero((np.sort(lines, axis=1) != target).any(axis=1))
        if bad.size:
            raise LatinSquareError(f"{what} {bad[0]} is not a permutation of 0..{n - 1}")
    if not (np.array_equal(arr[0], target) and np.array_equal(arr[:, 0], target)):
        raise IdentityError("index 0 is not a two-sided identity")
    right_inverse = np.argmax(arr == 0, axis=1)
    bad = np.flatnonzero(arr[right_inverse, target] != 0)
    if bad.size:
        raise InverseError(int(bad[0]))
    for g in numpy_generating_sequence(arr):
        bad = np.argwhere(arr[arr[:, g]] != arr[:, arr[g]])  # (x*g)*y against x*(g*y)
        if bad.size:
            x, y = map(int, bad[0])
            raise AssociativityError((x, g, y))


def numpy_generating_sequence(arr: np.ndarray) -> list[int]:
    """Generators of the table's product, each the smallest element outside
    the closure of 0 and the generators before it under the product."""
    span = np.zeros(len(arr), dtype=bool)
    span[0] = True
    gens: list[int] = []
    while not span.all():
        g = int(np.argmin(span))
        gens.append(g)
        span[g] = True
        while True:
            members = np.flatnonzero(span)
            span[arr[np.ix_(members, members)]] = True
            if np.count_nonzero(span) == members.size:
                break
    return gens


# ---------------------------------------------------------------------------
# Cayley-table files, parsed with int() row by row as the group layer once did


def parse_table_text(text: str) -> list[tuple[int, ...]]:
    """The rows of a Cayley-table file, relabelled so that the identity is
    0. Every entry is read with `int` and each row is checked for a
    non-integer entry, then its length, then its range; raises
    TableParseError with the line number, or IdentityError."""
    rows: list[tuple[int, ...]] = []
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise TableParseError(f"expected group order, got {line!r}", lineno)
            if n < 1:
                raise TableParseError(f"order must be positive, got {n}", lineno)
            continue
        if len(rows) == n:
            raise TableParseError(f"unexpected data after the {n} table rows", lineno)
        try:
            row = tuple(map(int, line.split()))
        except ValueError:
            raise TableParseError(f"non-integer entry in {line!r}", lineno)
        if len(row) != n:
            raise TableParseError(f"expected {n} entries, got {len(row)}", lineno)
        if min(row) < 0 or max(row) >= n:
            x = next(x for x in row if not 0 <= x < n)
            raise TableParseError(f"entry {x} out of range 0..{n - 1}", lineno)
        rows.append(row)
    if n is None:
        raise TableParseError("empty table file")
    if len(rows) != n:
        raise TableParseError(f"expected {n} rows, found {len(rows)}")
    elements = range(n)
    e = next((e for e in elements if all(rows[e][x] == x == rows[x][e] for x in elements)), None)
    if e is None:
        raise IdentityError("no two-sided identity element in table")
    swap = list(elements)
    swap[0], swap[e] = e, 0  # new label of each old one, and its own inverse
    return [tuple(swap[rows[swap[a]][swap[b]]] for b in elements) for a in elements]


# ---------------------------------------------------------------------------
# Group structure from element powers


@cache
def _spans(group) -> tuple[frozenset[int], ...]:
    """The cyclic subgroup each element generates, by repeated products."""
    out = []
    for x in range(group.order):
        members, y = {0}, x
        while y != 0:
            members.add(y)
            y = group.mult(y, x)
        out.append(frozenset(members))
    return tuple(out)


def _primes(n: int) -> list[int]:
    """The primes dividing n, ascending."""
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def _is_prime_power(n: int) -> bool:
    if n == 1:
        return True
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            return n == 1
        d += 1
    return True


def vertex_membership(group, x: int) -> bool:
    """Membership in the difference graph's vertex set, computed from the
    subgroup structure rather than from the graph.

    A non-identity x is left out exactly when its span is a maximal cyclic
    subgroup or every cyclic subgroup containing x has prime-power order.
    The identity returns False by convention.
    """
    if x == 0:
        return False
    spans = set(_spans(group))
    own = _spans(group)[x]
    if not any(own < s for s in spans):
        return False
    return not all(_is_prime_power(len(s)) for s in spans if x in s)


def _unclosed_prime_part(group):
    """(p, (a, b)) for the first prime p whose p-elements a, b have a product
    outside them, or None when every prime's p-elements are closed."""
    orders = [len(s) for s in _spans(group)]
    for p in _primes(group.order):
        members = [x for x, m in enumerate(orders) if _is_prime_power(m) and (m == 1 or m % p == 0)]
        closed = set(members)
        for a in members:
            for b in members:
                if group.mult(a, b) not in closed:
                    return p, (a, b)
    return None


def is_nilpotent(group) -> bool:
    """A finite group is nilpotent exactly when, for every prime p, its
    p-elements are closed under the product (and so form the unique, normal
    Sylow p-subgroup)."""
    return _unclosed_prime_part(group) is None


def lcm_witness(group, s: int, t: int) -> int:
    """An element of order lcm(s, t), which every nilpotent group has when s
    and t are element orders in it."""
    unclosed = _unclosed_prime_part(group)
    if unclosed is not None:
        raise NotNilpotentError(*unclosed)
    orders = [len(span) for span in _spans(group)]
    if s not in orders or t not in orders:
        raise GroupError(f"orders {s}, {t} not both realized in the group")
    target = math.lcm(s, t)
    if target not in orders:
        raise RuntimeError(f"no element of order {target} found in nilpotent group")
    return orders.index(target)


def sylow_projection(group) -> dict[int, tuple[int, ...]]:
    """Each element's p-parts, one per prime of the group order in ascending
    order. For x of order m = q*r, with q the power of p in m, the p-part is
    x^(r * (r^-1 mod q)): it has order q, and the parts multiply back to x.
    For p not dividing m, q = 1 and the part is the identity."""
    primes = _primes(group.order)
    out = {}
    for x in range(group.order):
        powers, y = [0], x
        while y != 0:
            powers.append(y)
            y = group.mult(y, x)
        m = len(powers)
        parts = []
        for p in primes:
            q = 1
            while m % (q * p) == 0:
                q *= p
            r = m // q
            parts.append(powers[r * pow(r, -1, q)])
        out[x] = tuple(parts)
    return out


def intersection_pattern(subs) -> list[list[int]]:
    """Matrix of pairwise intersection orders of the member sets `subs` of
    subgroups of one group; the diagonal holds the subgroups' orders."""
    return [[len(a & b) for b in subs] for a in subs]


def subgroup_table(g, members) -> tuple[GroupTable, list[int]]:
    """The subgroup of g on the member set `members` as a table of its own,
    proven a group by the constructor, and the list mapping its indices to
    g's elements (the identity stays at 0)."""
    elems = [0] + sorted(set(members) - {0})
    index = {e: i for i, e in enumerate(elems)}
    mult = [[index[g.mult(a, b)] for b in elems] for a in elems]
    return GroupTable(mult, source=f"subgroup of {g.source}"), elems


# ---------------------------------------------------------------------------
# Graph shapes


def complete_multipartite_parts(g) -> list[int] | None:
    """Sorted part sizes when g is complete multipartite, else None.

    A graph is complete multipartite exactly when its complement is a
    disjoint union of cliques; the parts are the complement's components.
    """
    if g.n == 0:
        return []
    comp_adj = [set(range(g.n)) - a - {v} for v, a in enumerate(neighbour_sets(g))]
    seen = [False] * g.n
    parts = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in comp_adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        comp_set = set(comp)
        for x in comp:
            if not comp_set - comp_adj[x] == {x}:
                return None  # complement component is not a clique
        parts.append(len(comp))
    return sorted(parts)


def replay_reduction(g, log) -> tuple[int, list[tuple[int, int]]]:
    """Apply a recorded reduction step list to g, checking each step, and
    return the vertex count and sorted edges of the result, renumbered in
    ascending order of the surviving vertices."""
    adj = dict(enumerate(neighbour_sets(g)))
    for step in log.steps:
        kind = step[0]
        if kind == "removed_isolated":
            (_, v) = step
            if adj[v]:
                raise ValueError(f"replay: vertex {v} is not isolated")
            del adj[v]
        elif kind == "removed_degree_one":
            (_, v, u) = step
            if adj[v] != {u}:
                raise ValueError(f"replay: vertex {v} is not a leaf on {u}")
            adj[u].discard(v)
            del adj[v]
        elif kind == "suppressed_degree_two":
            (_, v, u, w) = step
            if adj[v] != {u, w}:
                raise ValueError(f"replay: vertex {v} neighbors mismatch")
            adj[u].discard(v)
            adj[w].discard(v)
            del adj[v]
            if w not in adj[u]:
                adj[u].add(w)
                adj[w].add(u)
        elif kind == "dropped_parallel":
            pass  # suppression above already kept the single copy
        else:
            raise ValueError(f"replay: unknown step {kind}")
    vmap = {v: i for i, v in enumerate(sorted(adj))}
    edges = sorted((vmap[v], vmap[w]) for v in adj for w in adj[v] if v < w)
    return len(vmap), edges


def block_partition(g) -> set[frozenset[tuple[int, int]]]:
    """The blocks of g as sets of edges (u, v), u < v, from the definition:
    two edges that share a vertex v are in one block exactly when their
    other ends are connected in G - v, and the blocks are the classes this
    relation generates."""
    parent = {e: e for e in g.edges()}
    adj = neighbour_sets(g)

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for v in range(g.n):
        side = {}  # neighbour of v -> a representative of its component in G - v
        for a in sorted(adj[v]):
            if a in side:
                continue
            stack, reached = [a], {a}
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y != v and y not in reached:
                        reached.add(y)
                        stack.append(y)
            for b in adj[v] & reached:
                side[b] = a
        for b, a in side.items():
            parent[find((min(v, b), max(v, b)))] = find((min(v, a), max(v, a)))

    classes: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for e in parent:
        classes.setdefault(find(e), set()).add(e)
    return {frozenset(c) for c in classes.values()}


def two_branch_status(predicted_value: int, lower: int, upper: int | None, exact: bool) -> str:
    """The verdict of a predicted class (0, 1, 2, or 3 for "at least 3")
    against a computed [lower, upper] result, by the two-branch rule the
    harness used before its single range rule: an exact class is met only
    by an exact equal value, and the open class by a lower end of 3."""
    if predicted_value < 3:
        if exact:
            return "consistent" if lower == predicted_value else "contradiction"
        if lower > predicted_value:
            return "contradiction"
        if upper is not None and upper < predicted_value:
            return "contradiction"
        return "inconclusive"
    if lower >= 3:
        return "consistent"
    if exact and lower < 3:
        return "contradiction"
    if upper is not None and upper < 3:
        return "contradiction"
    return "inconclusive"
