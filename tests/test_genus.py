import hashlib
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations
from typing import Optional

import networkx as nx
import pytest

import oracles
from graphs import complete_bipartite, from_networkx, random_graph
from diffgenus.catalog import builtin_catalog
from diffgenus import genus as genus_module
from diffgenus.embeddings import FaceTrace, SchemeError, trace_faces, verify_certificate
from diffgenus.genus import (
    NONORIENTABLE,
    ORIENTABLE,
    GenusResult,
    GraphPlan,
    SearchBudget,
    bipartite_subgraph_bound,
    derived_subgraphs,
    euler_lower_bound,
    exact_crosscap,
    exact_genus,
    formula_oracle,
    genus_of_graph,
    heuristic_embedding,
    is_planar,
    rotation_space_size,
)
from diffgenus.groupgraphs import difference_graph
from diffgenus.groups import build_group, is_p_group
from diffgenus.harness import verify_sweep
from diffgenus.simplegraph import (
    SimpleGraph,
    block_decomposition,
    girth_and_bipartite,
    induced_subgraph,
    reduce_homeomorphic,
    to_networkx,
)


def connected_random_graph(rng: random.Random, n_max=8, space_cap=60_000) -> SimpleGraph:
    """Random connected graph whose anchored rotation space stays small
    enough for the naive all-rotations oracle."""
    while True:
        n = rng.randint(4, n_max)
        g = SimpleGraph(n)
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            g.add_edge(order[i], order[rng.randrange(i)])
        extra = rng.randint(0, n)
        for _ in range(extra):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v)
        if rotation_space_size(g) <= space_cap:
            return g


# -- formulas ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n,genus,crosscap",
    [(3, 0, 0), (4, 0, 0), (5, 1, 1), (6, 1, 1), (7, 1, 3), (8, 2, 4)],
)
def test_formula_complete(n, genus, crosscap):
    assert formula_oracle("complete", (n,), ORIENTABLE) == genus
    assert formula_oracle("complete", (n,), NONORIENTABLE) == crosscap


@pytest.mark.parametrize(
    "m,n,genus,crosscap",
    [(2, 2, 0, 0), (3, 3, 1, 1), (3, 4, 1, 1), (3, 5, 1, 2), (3, 6, 1, 2),
     (4, 4, 1, 2), (4, 6, 2, 4), (3, 10, 2, 4), (3, 12, 3, 5), (4, 8, 3, 6),
     (5, 6, 3, 6), (6, 5, 3, 6), (6, 9, 7, 14), (6, 10, 8, 16)],
)
def test_formula_bipartite(m, n, genus, crosscap):
    assert formula_oracle("complete_bipartite", (m, n), ORIENTABLE) == genus
    assert formula_oracle("complete_bipartite", (m, n), NONORIENTABLE) == crosscap


def test_formula_range_errors():
    with pytest.raises(ValueError):
        formula_oracle("complete", (2,), ORIENTABLE)
    with pytest.raises(ValueError):
        formula_oracle("complete_bipartite", (1, 5), ORIENTABLE)
    with pytest.raises(ValueError):
        formula_oracle("petersen", (1,), ORIENTABLE)


# -- bounds -----------------------------------------------------------------


def test_euler_bound_values():
    assert euler_lower_bound(complete_bipartite(3, 6), ORIENTABLE) == 1
    assert euler_lower_bound(complete_bipartite(3, 6), NONORIENTABLE) == 2
    assert euler_lower_bound(SimpleGraph.complete(5), ORIENTABLE) == 1
    assert euler_lower_bound(SimpleGraph.complete(4), ORIENTABLE) == 0
    assert euler_lower_bound(SimpleGraph.path(5), ORIENTABLE) == 0
    # a degree-1 vertex keeps the girth count: 2 - 11 + 16 - floor(32 / 5)
    petersen_leaf = _with_pendant_path(_petersen(), 0, 1)
    assert euler_lower_bound(petersen_leaf, ORIENTABLE) == 1
    assert euler_lower_bound(petersen_leaf, NONORIENTABLE) == 1


def test_euler_bound_requires_connected():
    g = SimpleGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        euler_lower_bound(g, ORIENTABLE)


def test_euler_bound_never_exceeds_truth():
    rng = random.Random(17)
    for _ in range(20):
        g = connected_random_graph(rng, n_max=7, space_cap=20_000)
        lb = euler_lower_bound(g, ORIENTABLE)
        assert lb <= oracles.brute_force_genus(g)


def _with_pendant_path(core: SimpleGraph, at: int, length: int) -> SimpleGraph:
    """core with a path of `length` new vertices hung from vertex `at`."""
    path = [at, *range(core.n, core.n + length)]
    return SimpleGraph(core.n + length, core.edges() + list(zip(path, path[1:])))


def _pendant_cores() -> list[SimpleGraph]:
    """Petersen, K5 and K3,3, each with a pendant path of 1 and of 2 vertices."""
    cores = (_petersen(), SimpleGraph.complete(5), complete_bipartite(3, 3))
    return [_with_pendant_path(core, 0, length) for core in cores for length in (1, 2)]


def test_euler_bound_never_exceeds_truth_with_degree_one_vertices():
    """Every facial walk of a connected graph with a cycle holds one, so the
    girth count bounds graphs with degree-1 vertices too: Petersen, K5 and
    K3,3 with pendant paths, and seeded random graphs with one hung on. The
    crosscap oracle runs where rotations times co-tree sign patterns stay
    few."""
    graphs = _pendant_cores()
    rng = random.Random(41)
    while len(graphs) < 30:
        g = connected_random_graph(rng, n_max=7, space_cap=20_000)
        g = _with_pendant_path(g, rng.randrange(g.n), rng.randint(1, 2))
        if rotation_space_size(g) <= 20_000:
            graphs.append(g)
    positive = crosscaps = 0
    for g in graphs:
        assert min(g.degree(v) for v in range(g.n)) == 1
        genus_bound = euler_lower_bound(g, ORIENTABLE)
        assert genus_bound <= oracles.brute_force_genus(g), g.edges()
        positive += genus_bound > 0
        if g.edge_count >= g.n and rotation_space_size(g) << (g.edge_count - g.n + 1) <= 100_000:
            assert euler_lower_bound(g, NONORIENTABLE) <= oracles.brute_force_crosscap(g), g.edges()
            crosscaps += 1
    assert positive >= 2 and crosscaps >= 10, (positive, crosscaps)


def _triangle_graph(rng: random.Random) -> SimpleGraph:
    """A seeded connected graph with a triangle whose rotation space the
    brute-force oracles can walk: one draw in three a dense G(n, p), else a
    near-complete bipartite graph with 1-3 chords inside its sides, whose
    few triangles the Euler count at girth 3 undercounts; a third of the
    bipartite ones get a leaf."""
    while True:
        if rng.random() < 1 / 3:
            g = random_graph(rng, rng.randint(4, 7), rng.uniform(0.5, 0.95))
        else:
            a, b = rng.randint(3, 4), rng.randint(3, 4)
            edges = {(u, a + v) for u in range(a) for v in range(b) if rng.random() < 0.85}
            for _ in range(rng.randint(1, 3)):
                u, v = sorted(rng.sample(range(a + b), 2))
                edges.add((u, v))
            leaf = rng.random() < 1 / 3
            if leaf:
                edges.add((rng.randrange(a + b), a + b))
            g = SimpleGraph(a + b + leaf, sorted(edges))
        if g.is_connected() and girth_and_bipartite(g)[0] == 3 and rotation_space_size(g) <= 5_000:
            return g


def test_triangle_count_never_exceeds_the_euler_genus():
    """The triangle count bounds the Euler genus min(2 genus, crosscap)
    from below: on seeded small graphs with triangles against the
    brute-force oracles (the crosscap one where it can walk every scheme),
    and on K5 to K12 against their formulas, K7's crosscap of 3 included.
    At girth 3 it is at least the Euler count; it beats that count on some
    of the graphs and meets the Euler genus on some."""
    rng = random.Random(43)
    positive = tight = beats = crosscaps = 0
    for _ in range(60):
        g = _triangle_graph(rng)
        count = genus_module._triangle_count(g)
        assert count >= genus_module._euler_count(g, 3), g.edges()
        euler = 2 * oracles.brute_force_genus(g)
        assert count <= euler, g.edges()
        if count >= 1 and rotation_space_size(g) << (g.edge_count - g.n + 1) <= 50_000:
            euler = min(euler, oracles.brute_force_crosscap(g))
            assert count <= euler, g.edges()
            crosscaps += 1
        positive += count > 0
        tight += count == euler > 0
        beats += count > genus_module._euler_count(g, 3)
    assert min(positive, beats) >= 10 and min(tight, crosscaps) >= 3, (positive, tight, beats, crosscaps)
    for n in range(5, 13):
        euler = min(2 * formula_oracle("complete", (n,), ORIENTABLE), formula_oracle("complete", (n,), NONORIENTABLE))
        assert genus_module._triangle_count(SimpleGraph.complete(n)) <= euler, n


def test_triangle_count_on_the_catalog_reductions_that_reached_networkx():
    """The six nonplanar reductions of the order-200 catalog that the Euler
    count on the whole graph leaves open (girth 3, count 0) are decided by
    the triangle count: Z20, Z28, Z44, Z4 x Z3 x Z3, Z4 x Z2 x Z3 and
    D8 x Z2 x Z3 count 1, 2, 4, 3, 2 and 2, where the Euler count at girth
    3 gives at most 0."""
    want = {"Z20": 1, "Z28": 2, "Z44": 4, "Z4 x Z3 x Z3": 3, "Z4 x Z2 x Z3": 2, "D8 x Z2 x Z3": 2}
    for name, count in want.items():
        graph = difference_graph(build_group(name)).graph
        (comp,) = [c for c in graph.connected_components() if len(c) > 1]
        reduced = reduce_homeomorphic(induced_subgraph(graph, comp))[0]
        assert genus_module._triangle_count(reduced) == count, name
        assert genus_module._euler_count(reduced, 3) <= 0, name


def test_subgraph_bound_finds_planted_bipartite():
    g = complete_bipartite(3, 10)
    bound, desc = bipartite_subgraph_bound(g, ORIENTABLE)
    assert bound == 2 and desc == "K_{3,10}"
    bound_n, _ = bipartite_subgraph_bound(g, NONORIENTABLE)
    assert bound_n == 4


def test_subgraph_bound_witnesses_exist_in_catalog_graphs():
    """The K_{m,n} each bound names is a subgraph of the graph it bounds."""
    checked = 0
    for e in builtin_catalog(60):
        if is_p_group(e.group):
            continue
        graph = difference_graph(e.group).graph
        for comp in graph.connected_components():
            piece = induced_subgraph(graph, comp)
            if is_planar(piece).planar:
                continue
            _, desc = bipartite_subgraph_bound(piece, ORIENTABLE)
            m, n = map(int, re.fullmatch(r"K_\{(\d+),(\d+)\}", desc).groups())
            assert oracles.brute_force_has_complete_bipartite(piece, m, n), (e.name, desc)
            checked += 1
    assert checked == 42


def test_piece_skips_the_subgraph_bound_only_where_it_cannot_win(monkeypatch):
    """On every component of every catalog difference graph up to order 200
    and on seeded random graphs, `_piece` gives the lower end and provenance
    it gives when it always seeks the K_{m,n} bound, and the degree cap is
    never below that bound."""
    graphs = []
    for e in builtin_catalog(200):
        graph = difference_graph(e.group).graph
        graphs += [induced_subgraph(graph, comp) for comp in graph.connected_components() if len(comp) > 1]
    rng = random.Random(43)
    few = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.9))
        g = induced_subgraph(g, max(g.connected_components(), key=len))
        few += sum(g.degree(v) >= 2 for v in range(g.n)) < 4
        graphs.append(g)
    assert few >= 10, few
    for g in graphs:
        assert genus_module._degree_cap(g) >= bipartite_subgraph_bound(g, NONORIENTABLE)[0], g.edges()
    sought = 0
    original = genus_module.bipartite_subgraph_bound

    def counted(g, surface):
        nonlocal sought
        sought += 1
        return original(g, surface)

    monkeypatch.setattr(genus_module, "bipartite_subgraph_bound", counted)
    pieces = [genus_module._piece(g) for g in graphs]
    nonplanar = sum(not p.planar.planar for p in pieces)
    assert 10 <= sought <= nonplanar - 100, (sought, nonplanar)
    monkeypatch.setattr(genus_module, "_degree_cap", lambda g: math.inf)
    for g, piece in zip(graphs, pieces):
        always = genus_module._piece(g)
        assert (piece.euler_lower, piece.provenance) == (always.euler_lower, always.provenance), g.edges()


# -- planarity --------------------------------------------------------------


def test_planar_yes_with_scheme():
    k4 = SimpleGraph.complete(4)
    res = is_planar(k4)
    assert res.planar
    trace = trace_faces(k4, res.scheme)
    assert trace.euler_genus == 0 and trace.orientable


def test_planar_no_with_witness():
    k33 = complete_bipartite(3, 3)
    assert not is_planar(k33).planar
    witness = oracles.kuratowski_witness(k33)
    assert witness.kind == "K3,3"
    assert len(witness.branch_vertices) == 6
    k5 = SimpleGraph.complete(5)
    assert not is_planar(k5).planar
    assert oracles.kuratowski_witness(k5).kind == "K5"
    assert oracles.kuratowski_witness(SimpleGraph.complete(4)) is None


def test_planar_agrees_with_exact_genus_on_corpus():
    rng = random.Random(29)
    for _ in range(25):
        g = connected_random_graph(rng, n_max=8, space_cap=40_000)
        res = exact_genus(g)
        assert res.exact
        assert is_planar(g).planar == (res.value == 0)


def _spy_on_networkx_planarity(monkeypatch) -> list:
    """The graphs `is_planar` hands to networkx's planarity test, from now on."""
    calls = []
    original = nx.check_planarity

    def spy(G, *args, **kwargs):
        calls.append(G)
        return original(G, *args, **kwargs)

    monkeypatch.setattr(nx, "check_planarity", spy)
    return calls


def _planarity_corpus(rng: random.Random) -> list[SimpleGraph]:
    """Seeded graphs of every shape `is_planar` must handle: dense and sparse
    G(n, p), often disconnected or with isolated vertices; dense ones with
    pendant paths and isolated vertices attached; bipartite ones, where only
    the girth can answer before networkx; and forests."""
    graphs = []
    for i in range(400):
        kind = i % 4
        if kind == 0:
            graphs.append(random_graph(rng, rng.randint(1, 14), rng.uniform(0.05, 0.9)))
        elif kind == 1:
            g = random_graph(rng, rng.randint(3, 10), rng.uniform(0.3, 0.9))
            n, extra = g.n, []
            for _ in range(rng.randint(1, 3)):
                length = rng.randint(0, 4)  # 0: an isolated vertex
                path = list(range(n, n + length + 1))
                extra += list(zip(path, path[1:])) + ([(rng.randrange(g.n), path[0])] if length else [])
                n += length + 1
            graphs.append(SimpleGraph(n, g.edges() + extra))
        elif kind == 2:
            a, b = rng.randint(1, 7), rng.randint(1, 7)
            p = rng.uniform(0.3, 1.0)
            graphs.append(SimpleGraph(a + b, [(u, a + v) for u in range(a) for v in range(b) if rng.random() < p]))
        else:
            n = rng.randint(1, 14)
            graphs.append(SimpleGraph(n, [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.8]))
    return graphs


def test_is_planar_agrees_with_networkx_on_random_graphs(monkeypatch):
    """Every answer matches networkx's planarity test, and every yes comes
    with a scheme that traces to genus 0; each of the edge count, the girth
    bound and networkx gives some of the answers."""
    reference = nx.check_planarity
    calls = _spy_on_networkx_planarity(monkeypatch)
    by_count = by_girth = planar = disconnected = isolated = 0
    for g in _planarity_corpus(random.Random(37)):
        asked = len(calls)
        res = is_planar(g)
        assert res.planar == reference(to_networkx(g))[0], g.edges()
        if res.planar:
            trace = trace_faces(g, res.scheme)
            assert trace.euler_genus == 0 and trace.orientable
            planar += 1
        elif len(calls) == asked:
            if g.edge_count > 3 * g.n - 6:
                by_count += 1
            else:
                by_girth += 1
        disconnected += not g.is_connected()
        isolated += any(g.degree(v) == 0 for v in range(g.n))
    assert min(by_count, by_girth, planar, disconnected, isolated) >= 20, (
        by_count, by_girth, planar, disconnected, isolated)


@pytest.mark.parametrize(
    "build, asked",
    [(lambda: from_networkx(nx.octahedral_graph()), 1), (lambda: from_networkx(nx.icosahedral_graph()), 1),
     (lambda: from_networkx(nx.hypercube_graph(3)), 1), (lambda: complete_bipartite(2, 3), 0),
     (lambda: complete_bipartite(2, 4), 0), (lambda: complete_bipartite(2, 7), 0)],
    ids=["octahedron", "icosahedron", "Q3", "K2,3", "K2,4", "K2,7"],
)
def test_is_planar_boundary_edge_counts_reach_networkx(monkeypatch, build, asked):
    """E = 3V - 6 (the octahedron and icosahedron) and E = 2V - 4 with girth
    4 (the cube and K_{2,n}) are as many edges as a planar graph of that
    girth has, so Euler's formula cannot answer: planar, with a scheme that
    re-verifies. The three solids have minimum degree 3 and are their own
    reductions, so networkx is asked once; K_{2,n} reduces to nothing (its
    degree-2 side is suppressed into one edge and dropped parallels of it,
    whose ends then go as a leaf and an isolated vertex), so networkx is
    not asked."""
    g = build()
    assert g.edge_count in (3 * g.n - 6, 2 * g.n - 4)
    calls = _spy_on_networkx_planarity(monkeypatch)
    res = is_planar(g)
    assert res.planar and len(calls) == asked
    assert res.reduced.n == (g.n if asked else 0)
    trace = trace_faces(g, res.scheme)
    assert trace.euler_genus == 0 and trace.orientable


def _reducible_graph(rng: random.Random) -> SimpleGraph:
    """A seeded graph whose reduction takes steps of every kind: a G(n, p)
    core, dense enough to be nonplanar now and then, with some edges
    subdivided into chains (each chain is suppressed into the edge it
    replaced), some edges doubled by a path of length 2 (its middle vertex
    is suppressed into a parallel, which is dropped), leaf chains hung on
    it, isolated vertices beside it and, every third time, a second such
    part."""
    edges, n = [], 0
    for _ in range(1 + (rng.random() < 1 / 3)):
        core = random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.8))
        base = n
        n += core.n
        for u, v in core.edges():
            u, v = u + base, v + base
            kind = rng.random()
            if kind < 0.3:  # a chain of 1-3 new vertices in place of the edge
                chain = [u, *range(n, n + rng.randint(1, 3)), v]
                n += len(chain) - 2
                edges += zip(chain, chain[1:])
                continue
            edges.append((u, v))
            if kind < 0.5:  # a new vertex on both ends of the edge
                edges += [(u, n), (v, n)]
                n += 1
        for _ in range(rng.randint(0, 3)):  # a leaf chain of 1-4 new vertices
            chain = [rng.randrange(base, base + core.n), *range(n, n + rng.randint(1, 4))]
            n += len(chain) - 1
            edges += zip(chain, chain[1:])
        n += rng.randint(0, 2)  # isolated vertices
    return SimpleGraph(n, edges)


def test_is_planar_matches_networkx_through_every_reduction_step():
    """`is_planar` agrees with networkx on graphs whose reductions take
    every kind of step, on disconnected graphs, and on 0 and 1 vertices;
    every yes, lifted through the reduction log, traces to Euler genus 0
    and orientable on the graph itself."""
    rng = random.Random(41)
    graphs = [SimpleGraph(0), SimpleGraph(1), SimpleGraph(2), SimpleGraph(2, [(0, 1)])]
    graphs += [_reducible_graph(rng) for _ in range(400)]
    kinds, seen = Counter(), Counter()
    for g in graphs:
        res = is_planar(g)
        assert res.planar == nx.check_planarity(to_networkx(g))[0], (g.n, g.edges())
        if res.planar:
            trace = trace_faces(g, res.scheme)
            assert trace.euler_genus == 0 and trace.orientable, (g.n, g.edges())
            seen["planar, reduction empty" if res.reduced.n == 0 else "planar, reduction left"] += 1
        else:
            seen["nonplanar"] += 1
        kinds.update(step[0] for step in reduce_homeomorphic(g)[1].steps)
        seen["disconnected"] += not g.is_connected()
    assert min(kinds[k] for k in ("removed_isolated", "removed_degree_one", "suppressed_degree_two",
                                  "dropped_parallel")) >= 100, kinds
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


@pytest.mark.parametrize(
    "build",
    [lambda: SimpleGraph(9, [(v, (v - 1) // 2) for v in range(1, 9)]), lambda: complete_bipartite(2, 9),
     lambda: difference_graph(build_group("Z39")).graph],
    ids=["tree", "K2,9", "Z39"],
)
def test_an_empty_reduction_is_planar_without_networkx(monkeypatch, build):
    """A graph that reduces to nothing is planar, and its scheme, lifted
    from no rotation at all, traces to genus 0 with no networkx call."""
    g = build()
    calls = _spy_on_networkx_planarity(monkeypatch)
    res = is_planar(g)
    assert res.planar and res.reduced.n == 0 and not calls
    trace = trace_faces(g, res.scheme)
    assert trace.euler_genus == 0 and trace.orientable


@pytest.mark.parametrize(
    "build",
    [lambda: SimpleGraph.complete(4),
     lambda: SimpleGraph(8, [(0, 4), (4, 1), (0, 2), (0, 3), (1, 5), (5, 2), (1, 3), (2, 3), (3, 6), (6, 7)]),
     lambda: difference_graph(build_group("Z12")).graph, lambda: difference_graph(build_group("D8 x Z3")).graph],
    ids=["K4", "K4 subdivided, with a leaf chain", "Z12", "D8 x Z3"],
)
def test_a_k4_reduction_is_planar_without_networkx(monkeypatch, build):
    """A reduction on 4 vertices is K4, as each vertex left has degree >= 3:
    it takes the fixed rotation system networkx gives K4, lifted back to the
    graph, which traces to genus 0 with no networkx call."""
    g = build()
    calls = _spy_on_networkx_planarity(monkeypatch)
    res = is_planar(g)
    assert res.planar and res.reduced.checksum() == SimpleGraph.complete(4).checksum() and not calls
    trace = trace_faces(g, res.scheme)
    assert trace.euler_genus == 0 and trace.orientable


def test_block_counts_decide_two_k33_sharing_a_vertex(monkeypatch, planning_calls):
    """Two K3,3 sharing a vertex are their own reduction, with girth 4 and
    a count of 2 - 11 + 18 - floor(36/4) = 0; each block, a K3,3, counts
    1, so `is_planar` answers no without networkx. The exact search splits
    the graph into the blocks that test found, decomposing it once."""
    side = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)] + [(a, b) for a in (0, 6, 7) for b in (8, 9, 10)]
    g = SimpleGraph(11, side)
    calls = _spy_on_networkx_planarity(monkeypatch)
    res = is_planar(g)
    assert not res.planar and res.reduced is g and not calls
    assert genus_module._triangle_count(g) == 0
    assert [genus_module._triangle_count(b) for b in res.blocks] == [1, 1]
    planning_calls.clear()
    assert exact_genus(g).lower == 2
    steps = Counter(step for step, _ in planning_calls.elements())
    assert steps["block_decomposition"] == 1 and not calls, steps


def test_pieces_are_numbered_apart_from_planar_components():
    """K3,3 beside a disjoint triangle: the triangle is planar component 1,
    and K3,3, component 0's one nonplanar piece, is piece 0."""
    k33 = complete_bipartite(3, 3)
    g = SimpleGraph(9, k33.edges() + [(6, 7), (6, 8), (7, 8)])
    res = genus_of_graph(g)
    assert res.exact and res.value == 1
    assert [line.split(":")[0] for line in res.provenance] == ["component 0", "component 1", "piece 0"]


def test_a_piece_keeps_the_reduction_its_planarity_test_made(monkeypatch):
    """K3,3 with a leaf passes Euler's formula (2 - 7 + 10 - floor(20/4) =
    0), so `is_planar` reduces it, and the reduction, K3,3, has a positive
    triangle count (2 - 6 + 9 - floor(18/4) = 1), which answers no without
    networkx; the search then runs on that reduction, which the piece
    keeps. K6 with a leaf has more than 3V - 6 edges (16 on 7 vertices),
    so Euler's formula answers no before any reduction, and the piece
    reduces the graph when its search starts. Either way the graph is
    reduced once, and networkx is never asked."""
    cases = [(complete_bipartite(3, 3), True), (SimpleGraph.complete(6), False)]
    for core, reduced_by_test in cases:
        g = SimpleGraph(core.n + 1, core.edges() + [(0, core.n)])
        calls = _spy_on_networkx_planarity(monkeypatch)
        reductions = []
        original = genus_module.reduce_homeomorphic

        def spy(h):
            reductions.append(h.checksum())
            return original(h)

        monkeypatch.setattr(genus_module, "reduce_homeomorphic", spy)
        res = exact_genus(g)
        monkeypatch.undo()
        assert not calls and reductions == [g.checksum()]
        assert res.exact and res.value == 1
        assert res.certificate_graph.checksum() == core.checksum()
        kept = genus_module._piece(g).planar.reduced
        assert (kept is not None) == reduced_by_test
        assert kept is None or kept.checksum() == core.checksum()


def test_the_order_200_sweep_asks_networkx_nothing_and_copies_each_graph_once(monkeypatch):
    """Over `verify_sweep(200)` no planarity test reaches networkx: the
    reductions of Z12 and D8 x Z3 are K4, and the six nonplanar ones that
    the Euler count leaves open have positive triangle counts. And a graph
    with nothing to reduce, such as a block that is reduced already, comes
    back from `reduce_homeomorphic` as itself with no step, so, keyed by
    checksum, no graph is reduced to a copy twice."""
    calls = _spy_on_networkx_planarity(monkeypatch)
    copies, returned = Counter(), Counter()
    original = genus_module.reduce_homeomorphic

    def spy(h):
        out, log = original(h)
        if out is h:
            assert not log.steps and log.vertex_map == {v: v for v in range(h.n)}
            assert all(h.degree(v) >= 3 for v in range(h.n))
            returned[h.checksum()] += 1
        else:
            assert any(h.degree(v) < 3 for v in range(h.n))
            copies[h.checksum()] += 1
        return out, log

    monkeypatch.setattr(genus_module, "reduce_homeomorphic", spy)
    records, summary = verify_sweep(200)
    assert summary.total == summary.consistent == 285
    assert not calls
    assert max(copies.values()) == 1 and sum(returned.values()) >= 26, (copies, returned)


def test_is_planar_matches_networkx_on_triangulated_grids(monkeypatch):
    """k x k grids with one diagonal per cell, planar, whose reductions
    (only the two degree-2 corners go) no count decides, so networkx is
    asked; and the same grids with an edge between the first and the last
    interior vertex, nonplanar from k = 5, where no count decides either."""
    reference = nx.check_planarity
    calls = _spy_on_networkx_planarity(monkeypatch)
    for k in range(3, 16):
        edges = [(k * i + j, k * i + j + 1) for i in range(k) for j in range(k - 1)]  # across
        edges += [(k * i + j, k * i + j + k) for i in range(k - 1) for j in range(k)]  # down
        edges += [(k * i + j, k * i + j + k + 1) for i in range(k - 1) for j in range(k - 1)]  # diagonal
        grid = SimpleGraph(k * k, edges)
        assert grid.edge_count == 3 * k * k - 4 * k + 1
        inner = [k * i + j for i in range(1, k - 1) for j in range(1, k - 1)]
        u, v = inner[0], inner[-1]
        crossed = SimpleGraph(k * k, edges + ([(u, v)] if u != v and not grid.has_edge(u, v) else []))
        for g in (grid, crossed):
            res = is_planar(g)
            assert res.planar == reference(to_networkx(g))[0] == (g is grid or k < 5), k
            assert res.reduced.n == k * k - 2
            if res.planar:
                trace = trace_faces(g, res.scheme)
                assert trace.euler_genus == 0 and trace.orientable
    assert len(calls) == 26


def test_is_planar_answers_dense_graphs_without_networkx(monkeypatch):
    """K5 and Z30's difference graph have more than 3V - 6 edges; K3,3 and
    the Petersen graph more than their girth allows."""
    graphs = [SimpleGraph.complete(5), complete_bipartite(3, 3), from_networkx(nx.petersen_graph()),
              difference_graph(build_group("Z30")).graph]
    calls = _spy_on_networkx_planarity(monkeypatch)
    assert not any(is_planar(g).planar for g in graphs)
    assert not calls


def test_is_planar_answers_no_alone_exactly_when_the_euler_bound_is_positive(monkeypatch):
    """`is_planar` and `euler_lower_bound` share one face count, and a
    count decides wherever it can: on every component of the planarity
    corpus's graphs and on the pendant cores, a positive bound answers no
    without networkx, degree-1 vertices or not; and networkx is asked
    exactly when no count decides, that is, when the reduction is neither
    empty nor K4 and neither its triangle count nor a block's is positive. An
    answer that no networkx call gave matches networkx all the same."""
    graphs = [induced_subgraph(h, comp) for h in _planarity_corpus(random.Random(37))
              for comp in h.connected_components()] + _pendant_cores()
    reference = nx.check_planarity
    calls = _spy_on_networkx_planarity(monkeypatch)
    positive = leafy = by_reduction = asked_total = 0
    for g in graphs:
        asked = len(calls)
        planar = is_planar(g).planar
        asked = len(calls) - asked
        bound = euler_lower_bound(g, NONORIENTABLE)
        reduced = reduce_homeomorphic(g)[0]
        counted = reduced.n > 4 and any(genus_module._triangle_count(b) > 0
                                        for b in [reduced, *block_decomposition(reduced)] if b.edge_count >= b.n)
        decided = bound > 0 or reduced.n in (0, 4) or counted
        assert asked == (not decided), g.edges()
        assert planar == reference(to_networkx(g))[0], g.edges()
        if bound > 0:
            assert not planar, g.edges()
        positive += bound > 0
        leafy += bound > 0 and min(g.degree(v) for v in range(g.n)) == 1
        by_reduction += bound <= 0 and counted
        asked_total += asked
    assert positive >= 60 and leafy >= 5, (positive, leafy)
    assert by_reduction >= 20 and asked_total >= 20, (by_reduction, asked_total)


# -- exact searches ----------------------------------------------------------


@pytest.mark.parametrize(
    "builder,surface,value",
    [
        (lambda: complete_bipartite(3, 3), ORIENTABLE, 1),
        (lambda: complete_bipartite(4, 4), ORIENTABLE, 1),
        (lambda: SimpleGraph.complete(5), ORIENTABLE, 1),
        (lambda: SimpleGraph.complete(6), ORIENTABLE, 1),
        (lambda: SimpleGraph.complete(5), NONORIENTABLE, 1),
        (lambda: complete_bipartite(3, 3), NONORIENTABLE, 1),
        (lambda: complete_bipartite(3, 5), NONORIENTABLE, 2),
    ],
)
def test_exact_known_values(builder, surface, value):
    g = builder()
    res = exact_genus(g) if surface == ORIENTABLE else exact_crosscap(g)
    assert res.exact and res.value == value
    assert res.certificate is not None
    assert verify_certificate(res.certificate_graph, res.certificate, surface, value)


def test_exact_genus_empty_and_disconnected():
    assert exact_genus(SimpleGraph(3)).value == 0
    with pytest.raises(ValueError):
        exact_genus(SimpleGraph(4, [(0, 1), (2, 3)]))


def test_exact_genus_matches_bruteforce_small():
    rng = random.Random(41)
    for _ in range(15):
        g = connected_random_graph(rng, n_max=7, space_cap=20_000)
        res = exact_genus(g)
        assert res.exact
        assert res.value == oracles.brute_force_genus(g)


def test_lower_stop_short_circuits():
    g = complete_bipartite(4, 8)  # genus 3 by formula
    budget = SearchBudget(lower_stop=3)
    res = exact_genus(g, budget)
    assert not res.exact
    assert res.lower >= 3
    assert res.upper is None


def test_crosscap_respects_euler_parity_freedom():
    # on the nonorientable side euler genus may be odd
    res = exact_crosscap(SimpleGraph.complete(5))
    assert res.value == 1


def test_crosscap_bracket_bound():
    for builder in (lambda: SimpleGraph.complete(6), lambda: complete_bipartite(4, 4)):
        g = builder()
        genus = exact_genus(g)
        crosscap = exact_crosscap(g)
        assert crosscap.exact and genus.exact
        assert crosscap.value <= 2 * genus.value + 1


# -- restart phase ---------------------------------------------------------------


def test_heuristic_planar_target():
    # planarity is settled before any restart, so genus 0 is no target
    with pytest.raises(ValueError):
        heuristic_embedding(SimpleGraph.complete(4), 0, ORIENTABLE, SearchBudget(seed=0))


def test_heuristic_hits_formula_targets():
    g = complete_bipartite(3, 10)
    scheme, value = heuristic_embedding(g, 2, ORIENTABLE, SearchBudget(seed=0))
    assert value == 2
    assert verify_certificate(g, scheme, ORIENTABLE, 2)


def test_heuristic_nonorientable_target_validation():
    with pytest.raises(ValueError):
        heuristic_embedding(SimpleGraph.complete(5), 0, NONORIENTABLE, SearchBudget(seed=0))


def test_heuristic_deterministic_given_seed():
    g = complete_bipartite(3, 6)
    a, a_value = heuristic_embedding(g, 1, ORIENTABLE, SearchBudget(seed=5))
    b, b_value = heuristic_embedding(g, 1, ORIENTABLE, SearchBudget(seed=5))
    assert a.rotations == b.rotations and a_value == b_value


def test_heuristic_follows_the_budget_seed():
    g = SimpleGraph.complete(7)
    found = {seed: heuristic_embedding(g, 1, ORIENTABLE, budget=SearchBudget(seed=seed)) for seed in (0, 5)}
    assert [scheme.seed for scheme, _ in found.values()] == [0, 5]
    assert found[0][0].rotations != found[5][0].rotations
    for scheme, value in found.values():
        assert value == 1 and verify_certificate(g, scheme, ORIENTABLE, 1)


def test_heuristic_miss_returns_the_lowest_scheme_met():
    """With no node to spend, every restart misses, so the lowest scheme
    met is the neighbour-order one: all signs +1 on the orientable surface,
    only the first co-tree edge negated on the nonorientable one."""
    g = SimpleGraph.complete(7)
    starved = SearchBudget(restarts=3, nodes_per_restart=0, seed=3)
    neighbour_order = tuple(tuple(g.neighbors(v)) for v in range(g.n))
    for surface, negated in ((ORIENTABLE, []), (NONORIENTABLE, [g.edges()[genus_module._cotree_edges(g)[0]]])):
        scheme, value = heuristic_embedding(g, 1, surface, starved)
        assert scheme.rotations == neighbour_order
        assert [(u, v) for u, v, sign in scheme.signs if sign < 0] == negated
        trace = trace_faces(g, scheme)
        assert trace.orientable == (surface == ORIENTABLE) and trace.euler_genus > 2
        assert value == (trace.euler_genus // 2 if surface == ORIENTABLE else trace.euler_genus)
        assert heuristic_embedding(g, 1, surface, budget=SearchBudget(restarts=0)) is None


def _petersen() -> SimpleGraph:
    g = SimpleGraph(10)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
        g.add_edge(i, i + 5)
        g.add_edge(i + 5, (i + 2) % 5 + 5)
    return g


def test_heuristic_certificates_are_pinned():
    """Rotations and signs of fixed restart-phase calls on both surfaces,
    each verified at the value it reaches. The neighbour-order scheme is
    above every target, so each scheme is a restart's hit, mapped back. All
    but the last reach their target; K8, under 1,000 nodes a restart,
    misses genus 2 and comes down from 9 to 3."""
    calls = [
        (SimpleGraph.complete(6), 1, ORIENTABLE, 100, 1),
        (SimpleGraph.complete(7), 1, ORIENTABLE, 100, 1),
        (_petersen(), 1, ORIENTABLE, 100, 1),
        (complete_bipartite(3, 3), 1, NONORIENTABLE, 100, 1),
        (SimpleGraph.complete(5), 1, NONORIENTABLE, 100, 1),
        (_petersen(), 1, NONORIENTABLE, 100, 1),
        (SimpleGraph.complete(7), 3, NONORIENTABLE, 100, 3),
        (SimpleGraph.complete(8), 2, ORIENTABLE, 1_000, 3),
    ]
    found = []
    for g, target, surface, nodes, value in calls:
        budget = SearchBudget(restarts=4, nodes_per_restart=nodes, seed=1)
        scheme, reached = heuristic_embedding(g, target, surface, budget)
        assert reached == value and verify_certificate(g, scheme, surface, value)
        found.append((scheme.rotations, scheme.signs))
    digest = hashlib.sha256(repr(found).encode()).hexdigest()
    assert digest == "03e91f5cd6d2e3c9b8e06837b093c262f8b91523e3382e04579e7f6e8c62e71d"


def _nonplanar_random_graph(rng: random.Random) -> SimpleGraph:
    """Random connected nonplanar graph on 8 to 13 vertices."""
    while True:
        n = rng.randint(8, 13)
        g = SimpleGraph(n)
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            g.add_edge(order[i], order[rng.randrange(i)])
        for _ in range(rng.randint(n, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v)
        if not is_planar(g).planar:
            return g


def _starved_results(monkeypatch) -> list[tuple[int, GenusResult]]:
    """Both surfaces of 20 seeded nonplanar graphs under 4 restarts of 50
    nodes, with the face-set pass off, so every upper end comes from the
    restart phase alone."""
    monkeypatch.setattr(genus_module, "_FACE_NODE_CAP", 0)
    monkeypatch.setattr(genus_module, "_EXHAUSTIVE_CAP", 0)
    budget = SearchBudget(restarts=4, nodes_per_restart=50)
    rng = random.Random(7)
    out = []
    for i in range(20):
        g = _nonplanar_random_graph(rng)
        out += [(i, exact_genus(g, budget)), (i, exact_crosscap(g, budget))]
    return out


def test_every_bracket_from_a_run_carries_its_certificate(monkeypatch):
    brackets = 0
    for _, r in _starved_results(monkeypatch):
        if r.exact:
            continue
        brackets += 1
        assert r.upper is not None and r.upper > r.lower
        assert r.certificate_graph.checksum() == r.certificate.graph_checksum
        assert verify_certificate(r.certificate_graph, r.certificate, r.surface, r.upper)
    assert brackets >= 20


# -- orchestrator -------------------------------------------------------------


def _glue(a: SimpleGraph, b: SimpleGraph, how: str) -> SimpleGraph:
    """a and a copy of b: "apart", "shared" (b's vertex 0 is a's vertex 0)
    or "bridge" (an edge joins a's vertex 0 to b's)."""
    shift = a.n - 1 if how == "shared" else a.n
    g = SimpleGraph(shift + b.n)
    for u, v in a.edges():
        g.add_edge(u, v)
    for u, v in b.edges():
        g.add_edge(*(0 if how == "shared" and x == 0 else x + shift for x in (u, v)))
    if how == "bridge":
        g.add_edge(0, shift)
    return g


def _assert_crosscap_two(g: SimpleGraph) -> None:
    """Crosscap exactly 2 from the combine rule in under a second, and an
    independent embedding in the Klein bottle found by the restart phase on
    each component's reduction, searched whole: Euler genus adds over
    components."""
    start = time.perf_counter()
    res = genus_of_graph(g, surface=NONORIENTABLE)
    assert time.perf_counter() - start < 1.0
    assert res.exact and res.value == 2, (res.lower, res.upper, res.provenance)
    components = [reduce_homeomorphic(induced_subgraph(g, c))[0] for c in g.connected_components()]
    target = 2 if len(components) == 1 else 1
    for h in components:
        scheme, value = heuristic_embedding(h, target, NONORIENTABLE)
        trace = trace_faces(h, scheme)
        assert value == trace.euler_genus == target and not trace.orientable


def test_genus_of_graph_block_additivity():
    # two K5 blocks sharing a cut vertex: genus 2
    g = SimpleGraph(9)
    for u in range(5):
        for v in range(u + 1, 5):
            g.add_edge(u, v)
    block2 = [0, 5, 6, 7, 8]
    for i in range(5):
        for j in range(i + 1, 5):
            g.add_edge(block2[i], block2[j])
    res = genus_of_graph(g)
    assert res.exact and res.value == 2
    # crosscap over blocks: each block has crosscap 1 = Euler genus 1
    k33 = complete_bipartite(3, 3)
    for g in (g, _glue(k33, k33, "shared"), _glue(k33, k33, "bridge")):
        assert g.is_connected() and len(block_decomposition(g)) >= 2
        _assert_crosscap_two(g)


def test_genus_of_graph_component_additivity():
    g = SimpleGraph(11)
    for u in range(5):
        for v in range(u + 1, 5):
            g.add_edge(u, v)  # K5
    for u in range(5, 11):
        for v in range(u + 1, 11):
            g.add_edge(u, v)  # K6
    res = genus_of_graph(g)
    assert res.exact and res.value == 2
    g = _glue(SimpleGraph.complete(5), complete_bipartite(3, 3), "apart")
    assert len(g.connected_components()) == 2
    _assert_crosscap_two(g)


@pytest.mark.parametrize(
    "k5_values,want", [((1, 3), 5), ((1, 1), 3)], ids=["both_simple", "k5_not_simple"]
)
def test_crosscap_adds_one_when_every_piece_is_orientably_simple(monkeypatch, k5_values, want):
    # (genus, crosscap) stubbed per piece: K3,3 at (1, 3), orientably simple,
    # and K5 at k5_values; the sum of eg = min(2 genus, crosscap) is 4 or 3
    values = {5: k5_values, 6: (1, 3)}

    def stub(piece, surface, budget):
        value = values[piece.graph.n][surface == NONORIENTABLE]
        return GenusResult(surface, value, value, True)

    monkeypatch.setattr(genus_module, "_exact_surface", stub)
    g = _glue(SimpleGraph.complete(5), complete_bipartite(3, 3), "apart")
    res = genus_of_graph(g, surface=NONORIENTABLE)
    assert res.exact and res.value == want
    assert res.certificate is None  # the value rests on two pieces
    # the genus adds without the orientable-simple rule
    assert genus_of_graph(g).value == 2


def test_crosscap_adds_one_for_two_k7_blocks():
    # K7 has genus 1 and crosscap 3 = 2 * 1 + 1, so two K7 blocks sharing a
    # vertex have crosscap 2 + 2 + 1; the face-set search proves each K7
    # has no Klein bottle embedding
    g = _glue(SimpleGraph.complete(7), SimpleGraph.complete(7), "shared")
    res = genus_of_graph(g, surface=NONORIENTABLE)
    assert res.exact and res.value == 5, (res.lower, res.upper, res.provenance)
    assert sum("face-set search excludes 2" in line for line in res.provenance) == 2


def test_genus_of_graph_empty():
    res = genus_of_graph(SimpleGraph(0))
    assert res.exact and res.value == 0


def test_genus_equals_blocks_and_reduction_on_corpus():
    rng = random.Random(59)
    for _ in range(10):
        g = connected_random_graph(rng, n_max=7, space_cap=20_000)
        base = exact_genus(g)
        reduced, _ = reduce_homeomorphic(g)
        if reduced.n and reduced.is_connected():
            assert exact_genus(reduced).value == base.value
        blocks = block_decomposition(g)
        total = 0
        for b in blocks:
            rb, _ = reduce_homeomorphic(b)
            total += exact_genus(rb).value if rb.n else 0
        assert total == base.value


def _result_fields(res: GenusResult) -> tuple:
    """Every field of a result, the certificate graph by its checksum."""
    graph = res.certificate_graph
    return (res.surface, res.lower, res.upper, res.exact, res.provenance, res.certificate,
            None if graph is None else graph.checksum())


def test_certificates_bind_to_derived_subgraphs():
    """genus_of_graph and derived_subgraphs read one plan: both surfaces
    searched from it in turn, as verify_group does, give field by field what
    a fresh call on the graph gives, and every certificate is bound to a
    graph the plan's split lists."""
    catalog = [
        difference_graph(e.group).graph for e in builtin_catalog(40) if not is_p_group(e.group)
    ]
    glued = []
    rng = random.Random(67)
    path = SimpleGraph(3, [(0, 1), (1, 2)])
    nonplanar = [SimpleGraph.complete(5), complete_bipartite(3, 3)]
    for i in range(8):
        a = connected_random_graph(rng, n_max=7, space_cap=20_000)
        b = _glue(nonplanar[i % 2], path, "shared")
        glued += [a, _glue(a, path, "shared"), _glue(a, b, "apart")]
        glued.append(_glue(b, a, ("shared", "bridge")[i % 2]))
    # K3,3 with an edge subdivided at vertex 0, where a K4 hangs: the
    # nonplanar piece is a block reduced again, unlike the whole reduction
    k33_edges = [(u, v) for u in (1, 2, 3) for v in (4, 5, 6) if (u, v) != (1, 4)]
    subdivided = SimpleGraph(7, [(0, 1), (0, 4)] + k33_edges)
    glued.append(_glue(subdivided, SimpleGraph.complete(4), "shared"))
    # two nonplanar pieces, which the crosscap searches on both surfaces
    glued += [_glue(*nonplanar, how) for how in ("apart", "shared", "bridge")]
    # (genus budget, crosscap budget): the sweep's lower_stop=3, which
    # settles a predicted ">=3", on the catalog graphs; on the glued ones
    # the full budget with it, both ways round
    stop, full = SearchBudget(lower_stop=3), SearchBudget()
    runs = [(g, (stop, stop)) for g in catalog]
    runs += [(g, budgets) for g in glued for budgets in [(full, stop), (stop, full)]]
    certified = both = 0
    for g, budgets in runs:
        plan = GraphPlan(g)
        results = [genus_of_graph(plan, b, surface=s) for b, s in zip(budgets, (ORIENTABLE, NONORIENTABLE))]
        checksums = {h.checksum() for h in derived_subgraphs(plan)}
        for res, budget in zip(results, budgets):
            assert _result_fields(res) == _result_fields(genus_of_graph(g, budget, surface=res.surface))
            both += any(" orientable: " in line for line in res.provenance)
            if res.certificate is not None:
                certified += 1
                assert res.certificate_graph.checksum() == res.certificate.graph_checksum
                assert res.certificate.graph_checksum in checksums
                # at the upper end, which is the value when the result is exact
                assert verify_certificate(res.certificate_graph, res.certificate, res.surface, res.upper)
    assert certified >= len(runs)
    assert both  # the crosscap's search of several pieces on both surfaces


@pytest.mark.parametrize("exact", [exact_genus, exact_crosscap])
def test_exact_search_tests_planarity_once_and_never_splits(planning_calls, exact):
    graphs = [SimpleGraph.complete(5), _glue(complete_bipartite(3, 3), SimpleGraph.path(3), "shared"),
              SimpleGraph.cycle(5)]
    for g in graphs:
        planning_calls.clear()
        exact(g)
        steps = Counter(step for step, _ in planning_calls.elements())
        assert steps["is_planar"] == 1 and steps["block_decomposition"] == 0, steps


def test_plan_copies_only_a_component_that_does_not_span(monkeypatch):
    """A connected graph is planned as itself, with no induced subgraph; a
    graph with several components or isolated vertices still plans each
    component with an edge on its own vertices, under their labels."""
    copies = 0
    original = genus_module.induced_subgraph

    def counted(g, vertices):
        nonlocal copies
        copies += 1
        return original(g, vertices)

    monkeypatch.setattr(genus_module, "induced_subgraph", counted)
    for g in [SimpleGraph.complete(5), SimpleGraph.cycle(6), difference_graph(build_group("Z30")).graph]:
        plan = GraphPlan(g)
        assert copies == 0 and [p.graph for p in plan.components] == [g]
    # K4 on 0-3, vertex 4 isolated, a triangle on 5-7
    edges = list(combinations(range(4), 2)) + [(5, 6), (6, 7), (5, 7)]
    g = SimpleGraph(8, edges, labels="abcdefgh")
    plan = GraphPlan(g)
    assert copies == 2
    assert [(p.graph.labels, p.graph.edges()) for p in plan.components] == [
        (list("abcd"), list(combinations(range(4), 2))),
        (list("fgh"), [(0, 1), (0, 2), (1, 2)]),
    ]
    res = genus_of_graph(plan)
    assert res.exact and res.value == 0


def test_derived_subgraphs_contains_reduction():
    g = SimpleGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    checksums = {h.checksum() for h in derived_subgraphs(g)}
    reduced, _ = reduce_homeomorphic(g)
    assert g.checksum() in checksums
    assert reduced.checksum() in checksums


# -- face-set search alone (no heuristic restarts) ------------------------------


NO_RESTARTS = SearchBudget(restarts=0)


@pytest.mark.parametrize(
    "builder,surface,value",
    [
        (lambda: complete_bipartite(3, 3), ORIENTABLE, 1),
        (lambda: SimpleGraph.complete(5), ORIENTABLE, 1),
        (lambda: complete_bipartite(4, 4), ORIENTABLE, 1),
        (lambda: complete_bipartite(3, 3), NONORIENTABLE, 1),
        (lambda: complete_bipartite(3, 4), NONORIENTABLE, 1),
        (lambda: SimpleGraph.complete(5), NONORIENTABLE, 1),
    ],
)
def test_exhaustive_only_matches_known_values(builder, surface, value):
    g = builder()
    res = exact_genus(g, NO_RESTARTS) if surface == ORIENTABLE else exact_crosscap(g, NO_RESTARTS)
    assert res.exact and res.value == value
    assert f"face-set certificate at {value}" in res.provenance
    assert verify_certificate(res.certificate_graph, res.certificate, surface, value)


def test_exhaustive_only_matches_bruteforce_random():
    """Seeded distinct nonplanar graphs, every other one with a pendant path
    of two edges grafted on: the values must match the oracles on the graph,
    and the face-set certificate must verify on the graph's homeomorphic
    reduction, which the search runs on."""
    rng = random.Random(77)
    seen = set()
    while len(seen) < 12:
        # a random spanning tree and other edges up to 9 or 10: fewer is
        # planar, as K3,3 has 9 edges and K5 has 10, and more makes the
        # oracles' spaces large
        n = rng.choice((5, 6))
        order = list(range(n))
        rng.shuffle(order)
        tree = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
        rest = [e for e in combinations(range(n), 2) if e not in tree]
        g = SimpleGraph(n, [*tree, *rng.sample(rest, rng.randint(9, 10) - len(tree))])
        if g.checksum() in seen or rotation_space_size(g) > 4_000 or is_planar(g).planar:
            continue
        seen.add(g.checksum())
        if len(seen) % 2:
            # at a vertex of least degree, to keep the oracles' spaces small
            v = min(range(g.n), key=g.degree)
            g = SimpleGraph(g.n + 2, [*g.edges(), (v, g.n), (g.n, g.n + 1)])
        for res, value in (
            (exact_genus(g, NO_RESTARTS), oracles.brute_force_genus(g)),
            (exact_crosscap(g, NO_RESTARTS), oracles.brute_force_crosscap(g)),
        ):
            assert res.exact and res.value == value
            assert res.certificate_graph.checksum() == reduce_homeomorphic(g)[0].checksum()
            assert verify_certificate(res.certificate_graph, res.certificate, res.surface, value)


def test_node_cap_abort_degrades_to_bounds(monkeypatch):
    # K3,3's rotation space fits _EXHAUSTIVE_CAP, so its one pass gets _NODE_CAP
    monkeypatch.setattr(genus_module, "_NODE_CAP", 5)
    res = exact_genus(complete_bipartite(3, 3), NO_RESTARTS)
    assert not res.exact and (res.lower, res.upper) == (1, None)
    assert res.provenance.count("face-set search stopped by node cap at 1") == 1


def test_crosscap_node_cap_abort_degrades_to_bounds(monkeypatch):
    # a space above _EXHAUSTIVE_CAP gets _FACE_NODE_CAP
    monkeypatch.setattr(genus_module, "_EXHAUSTIVE_CAP", 0)
    monkeypatch.setattr(genus_module, "_FACE_NODE_CAP", 1)
    res = exact_crosscap(complete_bipartite(3, 3), NO_RESTARTS)
    assert not res.exact and (res.lower, res.upper) == (1, None)
    assert res.provenance.count("face-set search stopped by node cap at 1") == 1


def test_one_face_set_pass_settles_a_small_space_past_the_small_cap(monkeypatch):
    """A cubic graph on 16 vertices whose rotation space fits
    _EXHAUSTIVE_CAP: excluding genus 1 takes about 109,000 nodes, more than
    _FACE_NODE_CAP, so its one pass runs under _NODE_CAP, proves genus 2 and
    finds a scheme there before any restart."""
    g = SimpleGraph(16, [
        (0, 4), (0, 9), (0, 10), (0, 13), (1, 7), (1, 14), (1, 15), (2, 9), (2, 12), (2, 13),
        (3, 6), (3, 11), (3, 15), (4, 6), (4, 12), (5, 6), (5, 9), (5, 14), (5, 15), (6, 10),
        (7, 10), (7, 13), (8, 9), (8, 11), (8, 12), (11, 14),
    ])
    res = exact_genus(g, NO_RESTARTS)
    assert res.exact and res.value == 2, (res.lower, res.upper, res.provenance)
    assert res.provenance[-3:] == ["lower bound 1", "face-set search excludes 1", "face-set certificate at 2"]
    assert verify_certificate(g, res.certificate, ORIENTABLE, 2)

    def spy(*args, **kwargs):
        raise AssertionError("the restart phase must not start")

    monkeypatch.setattr(genus_module, "heuristic_embedding", spy)
    res = exact_genus(g)
    assert res.exact and res.value == 2


def test_one_face_set_pass_settles_a_sparse_cubic_crosscap():
    # a pass that starts over at the bound after 100,000 nodes left [1, ?]
    g = SimpleGraph(18, [
        (0, 4), (0, 8), (0, 10), (1, 2), (1, 3), (1, 15), (2, 4), (2, 12), (3, 9), (3, 17),
        (4, 17), (5, 9), (5, 14), (5, 16), (6, 7), (6, 8), (6, 13), (7, 9), (7, 10), (8, 11),
        (10, 13), (11, 14), (11, 16), (12, 14), (12, 15), (13, 16), (15, 17),
    ])
    res = exact_crosscap(g, NO_RESTARTS)
    assert res.exact and res.value == 2, (res.lower, res.upper, res.provenance)
    assert verify_certificate(g, res.certificate, NONORIENTABLE, 2)


def test_crosscap_search_skips_balanced_schemes():
    # K4 is planar, so only a balanced scheme reaches Euler genus 0; the
    # nonorientable target at 1 must come back unbalanced
    g = SimpleGraph.complete(4)
    scheme, _ = genus_module._face_set_search(g, 1, False, genus_module._FACE_NODE_CAP)
    trace = trace_faces(g, scheme)
    assert trace.euler_genus == 1 and not trace.orientable


# -- face-set search -------------------------------------------------------------


def _face_sets(g: SimpleGraph, euler: int, surface: str):
    return genus_module._face_set_search(g, euler, surface == ORIENTABLE, genus_module._FACE_NODE_CAP)


def _subdivided(g: SimpleGraph, paths: dict) -> SimpleGraph:
    """g with each edge in `paths` replaced by a path through that many new
    vertices."""
    h = SimpleGraph(g.n + sum(paths.values()))
    fresh = g.n
    for u, v in g.edges():
        inner = list(range(fresh, fresh + paths.get((u, v), 0)))
        fresh += len(inner)
        walk = [u, *inner, v]
        for a, b in zip(walk, walk[1:]):
            h.add_edge(a, b)
    return h


def _min_degree_three(rng: random.Random, n: int, low: Optional[int] = None) -> SimpleGraph:
    """A random spanning tree on n vertices, then each vertex in turn joined
    to random non-neighbours until it has degree 3, or 2 for vertex `low`."""
    order = list(range(n))
    rng.shuffle(order)
    g = SimpleGraph(n, [(order[i], order[rng.randrange(i)]) for i in range(1, n)])
    for v in range(n):
        others = [w for w in range(n) if w != v and not g.has_edge(v, w)]
        for w in rng.sample(others, max(0, (2 if v == low else 3) - g.degree(v))):
            g.add_edge(v, w)
    return g


def _with_twin(g: SimpleGraph, v: int, closed: bool) -> SimpleGraph:
    """g and a new vertex with v's open neighbourhood (a false twin of v)
    or its closed one (a true twin)."""
    return SimpleGraph(g.n + 1, [*g.edges(), *((w, g.n) for w in [*g.neighbors(v), *([v] if closed else [])])])


def _assert_face_sets_match_the_oracles(graphs, count: int, space_cap: int) -> None:
    """On `count` distinct nonplanar graphs whose rotations times co-tree
    sign patterns, which the crosscap oracle tries, are at most
    `space_cap`: the search excludes every Euler genus below the oracles'
    genus and crosscap, and its scheme at them re-verifies."""
    seen = set()
    for g in graphs:
        if len(seen) == count:
            return
        if g.checksum() in seen or is_planar(g).planar:
            continue
        if rotation_space_size(g) << (g.edge_count - g.n + 1) > space_cap:
            continue
        seen.add(g.checksum())
        values = {ORIENTABLE: 2 * oracles.brute_force_genus(g), NONORIENTABLE: oracles.brute_force_crosscap(g)}
        for surface, value in values.items():
            for euler in range(0 if surface == ORIENTABLE else 1, value + 1, 1 + (surface == ORIENTABLE)):
                scheme, nodes = _face_sets(g, euler, surface)
                assert nodes <= genus_module._FACE_NODE_CAP
                assert (scheme is not None) == (euler == value), (g.edges(), surface, euler)
            genus = value // 2 if surface == ORIENTABLE else value
            assert verify_certificate(g, scheme, surface, genus)


def test_face_set_search_matches_bruteforce_random():
    """Seeded random graphs of minimum degree >= 3 on 6 to 8 vertices."""
    rng = random.Random(131)
    graphs = iter(lambda: _min_degree_three(rng, rng.randint(6, 8)), None)
    _assert_face_sets_match_the_oracles(graphs, 8, 30_000)


@pytest.mark.parametrize("closed", [False, True], ids=["false-twins", "true-twins"])
def test_face_set_search_matches_bruteforce_with_planted_twins(closed):
    """Seeded random graphs on 6 to 8 vertices, the last a planted twin of
    a vertex of least degree, so that walks into the higher of two
    untouched twins are skipped. For a true twin, vertex 0 may be drawn
    with degree 2, so that the two twins can end with degree 3."""
    rng = random.Random(137 + closed)

    def draw() -> SimpleGraph:
        g = _min_degree_three(rng, rng.randint(5, 7), 0 if closed else None)
        return _with_twin(g, min(range(g.n), key=g.degree), closed)

    _assert_face_sets_match_the_oracles(iter(draw, None), 2, 150_000)


def test_face_set_exclusions_match_the_combine_rule():
    """Two blocks sharing a vertex, searched whole: the search excludes the
    Euler genus below the value the oracles give on the blocks, combined by
    additivity (genus) or by Stahl and Beineke (crosscap), and hits it."""
    k5, k33 = SimpleGraph.complete(5), complete_bipartite(3, 3)
    genus = {b: oracles.brute_force_genus(b) for b in (k5, k33)}
    crosscap = {b: oracles.brute_force_crosscap(b) for b in (k5, k33)}
    cases = [(k33, k33, ORIENTABLE), (k33, k33, NONORIENTABLE), (k5, k33, NONORIENTABLE), (k5, k5, NONORIENTABLE)]
    for a, b, surface in cases:
        if surface == ORIENTABLE:
            euler = 2 * (genus[a] + genus[b])
        else:
            euler = sum(min(2 * genus[x], crosscap[x]) for x in (a, b))
            euler += all(crosscap[x] == 2 * genus[x] + 1 for x in (a, b))
        g = _glue(a, b, "shared")
        lower = 2 * (euler // 2 - 1) if surface == ORIENTABLE else euler - 1
        scheme, nodes = _face_sets(g, lower, surface)
        assert scheme is None and nodes <= genus_module._FACE_NODE_CAP, (a.n, b.n, surface)
        scheme, _ = _face_sets(g, euler, surface)
        assert verify_certificate(g, scheme, surface, euler // 2 if surface == ORIENTABLE else euler)


def _assert_certified_on_the_reduction(g: SimpleGraph, value: int) -> None:
    reduced = reduce_homeomorphic(g)[0]
    derived = {h.checksum() for h in derived_subgraphs(g)}
    for res in (exact_genus(g), exact_crosscap(g)):
        assert res.exact and res.value == value
        assert f"face-set certificate at {value}" in res.provenance
        assert res.certificate_graph.checksum() == reduced.checksum()
        assert res.certificate_graph.checksum() in derived
        assert verify_certificate(res.certificate_graph, res.certificate, res.surface, value)


def test_face_set_certificates_on_subdivided_graphs():
    # a degree-2 vertex fixes no turn to read a sign from: the search runs
    # on the reduction, which suppresses it
    for base in (complete_bipartite(3, 3), SimpleGraph.complete(5)):
        edges = base.edges()
        g = _subdivided(base, {edges[0]: 1, edges[1]: 2, edges[-1]: 1})
        _assert_certified_on_the_reduction(g, 1)
        with pytest.raises(ValueError, match="minimum degree"):
            _face_sets(g, 2, ORIENTABLE)


def test_face_set_search_skips_a_graph_with_a_leaf():
    # facial walks turn back at a leaf, which the face sets rule out: the
    # search runs on the reduction, which deletes it
    g = SimpleGraph(6, [*SimpleGraph.complete(5).edges(), (0, 5)])
    _assert_certified_on_the_reduction(g, 1)
    with pytest.raises(ValueError, match="minimum degree"):
        _face_sets(g, 2, ORIENTABLE)


def test_face_set_node_cap_falls_back_to_the_restart_phase(monkeypatch):
    """Excluding genus 1 for K5 and K5 sharing a vertex, searched whole,
    takes 18,349 nodes, more than a cap of 10,000, so the restart phase
    from 1 gives the upper end 2 and its scheme, bound to the reduction.
    Split into its two K5 blocks, the graph's genus is exact 2."""
    monkeypatch.setattr(genus_module, "_FACE_NODE_CAP", 10_000)
    g = _glue(SimpleGraph.complete(5), SimpleGraph.complete(5), "shared")
    res = exact_genus(g, SearchBudget(restarts=8))
    assert res.provenance[-2:] == ["face-set search stopped by node cap at 1", "restart upper bound 2"]
    assert not res.exact and (res.lower, res.upper) == (1, 2)
    assert res.certificate_graph.checksum() == reduce_homeomorphic(g)[0].checksum()
    assert verify_certificate(res.certificate_graph, res.certificate, ORIENTABLE, 2)
    res = genus_of_graph(g)
    assert res.exact and res.value == 2


def test_restart_phase_settles_the_z40_genus():
    """Z40's difference graph stops at genus 11, its Euler bound, after the
    100,000 nodes of its one face-set pass; a seeded restart hits 11."""
    res = exact_genus(difference_graph(build_group("Z40")).graph)
    assert res.exact and res.value == 11, (res.lower, res.upper, res.provenance)
    assert res.provenance[-2:] == ["face-set search stopped by node cap at 11", "restart certificate at 11 (seed 0)"]
    assert verify_certificate(res.certificate_graph, res.certificate, ORIENTABLE, 11)


def test_face_set_search_settles_two_k5_sharing_a_vertex():
    # its rotation space is past _EXHAUSTIVE_CAP, so the one pass runs
    # under _FACE_NODE_CAP
    g = _glue(SimpleGraph.complete(5), SimpleGraph.complete(5), "shared")
    res = exact_genus(g, NO_RESTARTS)
    assert res.exact and res.value == 2, (res.lower, res.upper, res.provenance)
    assert res.provenance[-2:] == ["face-set search excludes 1", "face-set certificate at 2"]
    assert verify_certificate(res.certificate_graph, res.certificate, ORIENTABLE, 2)


def test_twin_classes_prune_the_face_set_search():
    """Excluding genus 1, searched whole, on two K3,3 sharing a vertex
    (false twins) and two K5 sharing a vertex (true twins): the node counts
    are pinned, far below the 14,798 and 342,982 nodes the search took
    without skipping walks into the higher of two untouched twins."""
    k33, k5 = complete_bipartite(3, 3), SimpleGraph.complete(5)
    for block, nodes, unpruned in ((k33, 934, 14_798), (k5, 18_349, 342_982)):
        scheme, count = _face_sets(_glue(block, block, "shared"), 2, ORIENTABLE)
        assert scheme is None and count == nodes and 10 * count < unpruned


def test_face_set_search_settles_the_z44_crosscap():
    g = difference_graph(build_group("Z44")).graph
    start = time.perf_counter()
    res = genus_of_graph(g, surface=NONORIENTABLE)
    assert time.perf_counter() - start < 1.0
    assert res.exact and res.value == 4, (res.lower, res.upper)
    assert verify_certificate(res.certificate_graph, res.certificate, NONORIENTABLE, 4)


def test_face_set_scheme_must_reverify(monkeypatch):
    monkeypatch.setattr(genus_module, "trace_faces", lambda g, scheme: FaceTrace([], 0, 99, True))
    with pytest.raises(SchemeError, match="re-verify"):
        _face_sets(SimpleGraph.complete(5), 2, ORIENTABLE)


# -- correctness guards --------------------------------------------------------


def test_is_planar_rejects_an_embedding_that_does_not_reverify(monkeypatch):
    monkeypatch.setattr(genus_module, "trace_faces", lambda g, scheme: FaceTrace([], 0, 2, True))
    with pytest.raises(SchemeError, match="re-verify"):
        is_planar(SimpleGraph.complete(4))


@pytest.mark.parametrize("surface", [ORIENTABLE, NONORIENTABLE])
def test_heuristic_rejects_a_scheme_that_does_not_reverify(monkeypatch, surface):
    monkeypatch.setattr(genus_module, "trace_faces", lambda g, scheme: FaceTrace([], 0, 99, True))
    with pytest.raises(SchemeError, match="re-verify"):
        heuristic_embedding(SimpleGraph.complete(5), 1, surface, SearchBudget(seed=0))


def test_component_bound_above_exact_block_sum_raises(monkeypatch):
    monkeypatch.setattr(
        genus_module, "_exact_surface", lambda g, surface, budget: GenusResult(surface, 0, 0, True)
    )
    with pytest.raises(SchemeError, match="exceeds exact block sum"):
        genus_of_graph(SimpleGraph.complete(5))


def test_guards_survive_optimized_mode():
    code = (
        "from dataclasses import replace\n"
        "from diffgenus.embeddings import SchemeError, make_scheme, trace_faces\n"
        "from diffgenus.simplegraph import SimpleGraph\n"
        "assert False, 'asserts are live'\n"
        "g = SimpleGraph.complete(4)\n"
        "scheme = make_scheme(g, [g.neighbors(v) for v in range(g.n)])\n"
        "bad = replace(scheme, signs=((0, 1, 2),) + scheme.signs[1:])\n"
        "try:\n"
        "    trace_faces(g, bad)\n"
        "except SchemeError:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(genus_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"
