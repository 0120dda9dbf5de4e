import math
import os
import random
import subprocess
import sys
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from graphs import assert_sound, complete_bipartite, complete_multipartite, from_networkx, random_graph
from oracles import complete_multipartite_parts
from diffgenus import simplegraph
from diffgenus.simplegraph import (
    SimpleGraph,
    block_decomposition,
    girth_and_bipartite,
    induced_subgraph,
    reduce_homeomorphic,
    to_networkx,
)


def test_basic_construction():
    g = SimpleGraph(3, [(0, 1), (1, 2)])
    assert g.edge_count == 2
    assert g.neighbors(1) == [0, 2]
    with pytest.raises(ValueError):
        g.add_edge(1, 1)
    with pytest.raises(ValueError):
        g.add_edge(0, 5)
    assert g.has_edge(0, 1) and g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.masks == [0b010, 0b101, 0b010]


@pytest.mark.parametrize("edge", [(-1, 0), (0, -1), (3, 0), (0, 3)])
def test_an_out_of_range_endpoint_is_rejected(edge):
    """A mask would shift by -1 with a different error, or set a bit
    for a vertex that does not exist."""
    with pytest.raises(ValueError, match="out of range"):
        SimpleGraph(3, [edge])
    g = SimpleGraph(3)
    with pytest.raises(ValueError, match="out of range"):
        g.add_edge(*edge)
    assert g.masks == [0, 0, 0]


def test_induced_subgraph_k5():
    k5 = SimpleGraph.complete(5)
    sub = induced_subgraph(k5, [0, 2, 4])
    assert sub.n == 3 and sub.edge_count == 3


def test_induced_subgraph_empty():
    g = SimpleGraph.complete(4)
    sub = induced_subgraph(g, [])
    assert sub.n == 0 and sub.edge_count == 0


def test_induced_subgraph_unknown_vertex():
    with pytest.raises(ValueError):
        induced_subgraph(SimpleGraph(3), [0, 7])


def test_induced_subgraph_keeps_labels():
    g = SimpleGraph(4, [(0, 1), (2, 3)], labels=["a", "b", "c", "d"])
    sub = induced_subgraph(g, [1, 3])
    assert sub.labels == ["b", "d"]


def test_multipartite_parts_direct_builds():
    for a in range(1, 6):
        for b in range(1, 6):
            for c in range(1, 6):
                g = complete_multipartite([a, b, c])
                assert complete_multipartite_parts(g) == sorted([a, b, c])


def test_multipartite_star_and_negative():
    star = complete_bipartite(1, 3)
    assert complete_multipartite_parts(star) == [1, 3]
    path = SimpleGraph.path(4)
    assert complete_multipartite_parts(path) is None
    assert complete_multipartite_parts(SimpleGraph.complete(4)) == [1, 1, 1, 1]
    assert complete_multipartite_parts(SimpleGraph(3)) == [3]


def test_reduce_pendants_and_cycles():
    # path vanishes
    reduced, _ = reduce_homeomorphic(SimpleGraph.path(5))
    assert reduced.n == 0
    # cycle vanishes
    reduced, _ = reduce_homeomorphic(SimpleGraph.cycle(6))
    assert reduced.n == 0
    # K4 is already reduced
    reduced, _ = reduce_homeomorphic(SimpleGraph.complete(4))
    assert reduced.n == 4 and reduced.edge_count == 6


def test_reduce_subdivided_k4():
    # subdivide one edge of K4: the degree-2 vertex must be suppressed
    g = SimpleGraph(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)])
    reduced, log = reduce_homeomorphic(g)
    assert reduced.n == 4 and reduced.edge_count == 6
    kinds = [s[0] for s in log.steps]
    assert "suppressed_degree_two" in kinds


def test_reduce_parallel_drop():
    # two vertices joined by two length-2 paths: reduces to nothing
    g = SimpleGraph(4, [(0, 2), (2, 1), (0, 3), (3, 1)])
    reduced, log = reduce_homeomorphic(g)
    assert reduced.n == 0
    assert any(s[0] == "dropped_parallel" for s in log.steps)


def test_reduce_replay_and_idempotence():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 12), rng.uniform(0.1, 0.6))
        reduced, log = reduce_homeomorphic(g)
        replayed_n, replayed_edges = oracles.replay_reduction(g, log)
        assert replayed_n == reduced.n
        assert replayed_edges == reduced.edges()
        again, log2 = reduce_homeomorphic(reduced)
        assert not log2.steps
        assert again.edges() == reduced.edges()


def test_a_graph_with_nothing_to_reduce_comes_back_as_itself():
    """No step applies to K4, the Petersen graph, the empty graph or any
    reduction, so each comes back as the same object, with no step and
    every vertex mapped to itself, and no masks are copied."""
    rng = random.Random(5)
    graphs = [SimpleGraph.complete(4), SimpleGraph(0),
              SimpleGraph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])]
    graphs += [reduce_homeomorphic(random_graph(rng, rng.randint(5, 12), rng.uniform(0.3, 0.7)))[0]
               for _ in range(20)]
    for g in graphs:
        masks = g.masks
        out, log = reduce_homeomorphic(g)
        assert out is g and out.masks is masks
        assert not log.steps and log.vertex_map == {v: v for v in range(g.n)}
    assert sum(g.n > 0 for g in graphs) >= 12


def _cut_labels(blocks: list[SimpleGraph]) -> list:
    """The labels that lie in two or more blocks: the cut vertices."""
    counts = Counter(label for b in blocks for label in b.labels)
    return sorted(label for label, k in counts.items() if k >= 2)


def test_blocks_k5_single():
    blocks = block_decomposition(SimpleGraph.complete(5))
    assert len(blocks) == 1 and not _cut_labels(blocks)
    assert blocks[0].edge_count == 10


def test_blocks_two_triangles_at_a_vertex():
    g = SimpleGraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    blocks = block_decomposition(g)
    assert len(blocks) == 2
    assert _cut_labels(blocks) == [0]
    assert all(b.n == 3 and b.edge_count == 3 for b in blocks)


def test_blocks_match_the_definition():
    """The edge partition, read through labels, equals the oracle's, on
    seeded random graphs of 3-12 vertices under shuffled labels, some of
    them disconnected or with isolated vertices."""
    rng = random.Random(23)
    disconnected = isolated = 0
    for _ in range(200):
        n = rng.randint(3, 12)
        g = random_graph(rng, n, rng.uniform(0.1, 0.5))
        g.labels = rng.sample(range(100, 200), n)
        disconnected += not g.is_connected()
        isolated += any(g.degree(v) == 0 for v in range(g.n))
        expected = {
            frozenset(frozenset((g.labels[u], g.labels[v])) for u, v in block) for block in oracles.block_partition(g)
        }
        found = [
            frozenset(frozenset((b.labels[u], b.labels[v])) for u, v in b.edges()) for b in block_decomposition(g)
        ]
        assert len(found) == len(expected) and set(found) == expected
    assert disconnected >= 20 and isolated >= 20, (disconnected, isolated)


def test_blocks_come_in_networkx_order():
    """The blocks, as vertex lists and in order, are networkx's biconnected
    components: on every component of each catalog difference graph up
    to order 200 and on its reduction, and on seeded random graphs, some sparse
    enough to be forests or disconnected and some wider than the decoder's
    byte tables."""
    from diffgenus.catalog import builtin_catalog
    from diffgenus.groupgraphs import difference_graph

    def expected(g):
        return [sorted(block) for block in nx.biconnected_components(to_networkx(g))]

    graphs = []
    for entry in builtin_catalog(200):
        g = difference_graph(entry.group).graph
        graphs += [induced_subgraph(g, comp) for comp in g.connected_components() if len(comp) > 1]
        graphs.append(reduce_homeomorphic(g)[0])
    rng = random.Random(43)
    graphs += [random_graph(rng, rng.randint(0, 30), rng.uniform(0.02, 0.4)) for _ in range(300)]
    graphs += [random_graph(rng, rng.randint(257, 400), 2 / 300) for _ in range(5)]
    for g in graphs:
        assert [b.labels for b in block_decomposition(SimpleGraph.from_masks(g.masks))] == expected(g)


def test_builders_make_sound_graphs():
    """induced_subgraph, reduce_homeomorphic and block_decomposition build
    masks without `add_edge`: on seeded random graphs, some of them
    disconnected or with isolated vertices, and on sparse ones with masks
    wider than a machine word and than the decoder's byte tables, each
    output is sound and keeps the edges it should."""
    rng = random.Random(31)
    disconnected = isolated = 0
    for _ in range(200):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.uniform(0.05, 0.7))
        g.labels = rng.sample(range(100, 200), n)
        disconnected += not g.is_connected()
        isolated += any(g.degree(v) == 0 for v in range(g.n))
        vs = sorted(rng.sample(range(n), rng.randint(0, n)))
        sub = induced_subgraph(g, vs)
        assert_sound(sub)
        assert sub.labels == [g.labels[v] for v in vs]
        assert sub.edges() == [(vs.index(u), vs.index(v)) for u, v in g.edges() if u in vs and v in vs]
        reduced, log = reduce_homeomorphic(g)
        assert_sound(reduced)
        assert reduced.labels == [g.labels[v] for v in sorted(log.vertex_map, key=log.vertex_map.get)]
        blocks = block_decomposition(g)
        for b in blocks:
            assert_sound(b)
        assert sum(b.edge_count for b in blocks) == g.edge_count
    assert disconnected >= 20 and isolated >= 20, (disconnected, isolated)
    for _ in range(20):
        n = rng.randint(65, 320)
        g = random_graph(rng, n, rng.uniform(0.005, 0.05))
        assert all(g.neighbors(v) == [w for w in range(n) if g.has_edge(v, w)] for v in range(n))
        vs = sorted(rng.sample(range(n), rng.randint(0, n)))
        index = {v: i for i, v in enumerate(vs)}
        sub = induced_subgraph(g, vs)
        assert_sound(sub)
        assert sub.edges() == [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
        reduced, log = reduce_homeomorphic(g)
        assert_sound(reduced)
        assert (reduced.n, reduced.edges()) == oracles.replay_reduction(g, log)


def test_group_layer_does_not_import_networkx():
    """networkx is imported only by the functions that use it, so a run that
    builds groups and their difference graphs, or imports the genus layer,
    the harness or the CLI without testing planarity, never loads it."""
    modules = ("groups", "groupgraphs", "simplegraph", "catalog", "classify", "embeddings", "graphio",
               "genus", "harness", "cli")
    code = "; ".join([*(f"import diffgenus.{m}" for m in modules), "import sys", "print('networkx' in sys.modules)"])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(simplegraph.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_girth_bipartite_known_values():
    assert girth_and_bipartite(complete_bipartite(3, 6)) == (4, True)
    assert girth_and_bipartite(SimpleGraph.complete(5)) == (3, False)
    girth, bip = girth_and_bipartite(SimpleGraph.path(4))
    assert math.isinf(girth) and bip
    # a 4-cycle met before the triangle does not end the search
    assert girth_and_bipartite(SimpleGraph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)])) == (3, False)


def test_girth_of_bipartite_graphs_matches_oracles():
    """On bipartite graphs the search stops at the first 4-cycle. The named
    graphs have girths 4, 6 and 8. The seeded draws are random bipartite
    graphs, mostly of girth 4 or forests, and full subdivisions of random
    graphs, which are bipartite with twice the girth: 6, 8 or more."""
    named = {
        "Q3": (from_networkx(nx.hypercube_graph(3)), 4),
        "Heawood": (from_networkx(nx.heawood_graph()), 6),
        "C8": (SimpleGraph.cycle(8), 8),
        **{f"K{m},{n}": (complete_bipartite(m, n), 4 if m > 1 else math.inf)
           for m, n in [(1, 5), (2, 2), (2, 6), (3, 3), (3, 7), (4, 5)]},
    }
    for name, (g, girth) in named.items():
        assert girth_and_bipartite(g) == (girth, True), name
        assert oracles.brute_force_girth(g) == girth and oracles.brute_force_bipartite(g), name
    rng = random.Random(41)
    seen = Counter()
    for i in range(200):
        if i % 2:
            a, b = rng.randint(2, 6), rng.randint(2, 6)
            p = rng.uniform(0.2, 0.9)
            g = SimpleGraph(a + b, [(u, a + v) for u in range(a) for v in range(b) if rng.random() < p])
        else:
            base = random_graph(rng, rng.randint(4, 6), rng.uniform(0.4, 0.9))
            edges = rng.sample(base.edges(), min(8, base.edge_count))
            n = base.n
            g = SimpleGraph(n + len(edges), [x for k, (u, v) in enumerate(edges) for x in ((u, n + k), (n + k, v))])
        girth, bip = girth_and_bipartite(g)
        assert bip and oracles.brute_force_bipartite(g)
        assert girth == oracles.brute_force_girth(g)
        seen[girth] += 1
    longer = sum(n for girth, n in seen.items() if 8 <= girth < math.inf)
    assert seen[4] >= 40 and seen[6] >= 30 and longer >= 5 and seen[math.inf] >= 5, seen


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**36 - 1))
def test_girth_bipartite_match_oracles(bits):
    n = 9
    g = SimpleGraph(n)
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if bits >> (k % 36) & 1 and (bits >> ((k * 7 + 3) % 36)) & 1:
                g.add_edge(u, v)
            k += 1
    girth, bip = girth_and_bipartite(g)
    assert girth == oracles.brute_force_girth(g)
    assert bip == oracles.brute_force_bipartite(g)


def test_checksum_distinguishes_edges():
    a = SimpleGraph(3, [(0, 1)])
    b = SimpleGraph(3, [(0, 2)])
    assert a.checksum() != b.checksum()
    assert a.checksum() == SimpleGraph(3, [(0, 1)]).checksum()
