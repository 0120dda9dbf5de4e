import os
import random
import subprocess
import sys

import pytest

import oracles
from diffgenus import genus as genus_module
from diffgenus.embeddings import FaceTrace, SchemeError, make_scheme, trace_faces, verify_certificate
from diffgenus.genus import (
    NONORIENTABLE,
    ORIENTABLE,
    GenusResult,
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
    kuratowski_witness,
    rotation_space_size,
)
from diffgenus.simplegraph import SimpleGraph, block_decomposition, reduce_homeomorphic


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
    assert euler_lower_bound(SimpleGraph.complete_bipartite(3, 6), ORIENTABLE) == 1
    assert euler_lower_bound(SimpleGraph.complete_bipartite(3, 6), NONORIENTABLE) == 2
    assert euler_lower_bound(SimpleGraph.complete(5), ORIENTABLE) == 1
    assert euler_lower_bound(SimpleGraph.complete(4), ORIENTABLE) == 0
    assert euler_lower_bound(SimpleGraph.path(5), ORIENTABLE) == 0


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


def test_subgraph_bound_finds_planted_bipartite():
    g = SimpleGraph.complete_bipartite(3, 10)
    bound, desc = bipartite_subgraph_bound(g, ORIENTABLE)
    assert bound == 2 and desc == "K_{3,10}"
    bound_n, _ = bipartite_subgraph_bound(g, NONORIENTABLE)
    assert bound_n == 4


# -- planarity --------------------------------------------------------------


def test_planar_yes_with_scheme():
    k4 = SimpleGraph.complete(4)
    res = is_planar(k4)
    assert res.planar
    trace = trace_faces(k4, res.scheme)
    assert trace.euler_genus == 0 and trace.orientable


def test_planar_no_with_witness():
    k33 = SimpleGraph.complete_bipartite(3, 3)
    assert not is_planar(k33).planar
    witness = kuratowski_witness(k33)
    assert witness.kind == "K3,3"
    assert len(witness.branch_vertices) == 6
    k5 = SimpleGraph.complete(5)
    assert not is_planar(k5).planar
    assert kuratowski_witness(k5).kind == "K5"
    assert kuratowski_witness(SimpleGraph.complete(4)) is None


def test_planar_agrees_with_exact_genus_on_corpus():
    rng = random.Random(29)
    for _ in range(25):
        g = connected_random_graph(rng, n_max=8, space_cap=40_000)
        res = exact_genus(g)
        assert res.exact
        assert is_planar(g).planar == (res.value == 0)


# -- exact searches ----------------------------------------------------------


@pytest.mark.parametrize(
    "builder,surface,value",
    [
        (lambda: SimpleGraph.complete_bipartite(3, 3), ORIENTABLE, 1),
        (lambda: SimpleGraph.complete_bipartite(4, 4), ORIENTABLE, 1),
        (lambda: SimpleGraph.complete(5), ORIENTABLE, 1),
        (lambda: SimpleGraph.complete(6), ORIENTABLE, 1),
        (lambda: SimpleGraph.complete(5), NONORIENTABLE, 1),
        (lambda: SimpleGraph.complete_bipartite(3, 3), NONORIENTABLE, 1),
        (lambda: SimpleGraph.complete_bipartite(3, 5), NONORIENTABLE, 2),
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
    g = SimpleGraph.complete_bipartite(4, 8)  # genus 3 by formula
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
    for builder in (lambda: SimpleGraph.complete(6), lambda: SimpleGraph.complete_bipartite(4, 4)):
        g = builder()
        genus = exact_genus(g)
        crosscap = exact_crosscap(g)
        assert crosscap.exact and genus.exact
        assert crosscap.value <= 2 * genus.value + 1


# -- heuristic ---------------------------------------------------------------


def test_heuristic_planar_target():
    scheme = heuristic_embedding(SimpleGraph.complete(4), 0, ORIENTABLE, seed=0)
    assert scheme is not None
    assert verify_certificate(SimpleGraph.complete(4), scheme, ORIENTABLE, 0)


def test_heuristic_infeasible_target_returns_none():
    assert heuristic_embedding(SimpleGraph.complete_bipartite(3, 6), 0, ORIENTABLE, seed=0) is None


def test_heuristic_hits_formula_targets():
    g = SimpleGraph.complete_bipartite(3, 10)
    scheme = heuristic_embedding(g, 2, ORIENTABLE, seed=0)
    assert scheme is not None
    assert verify_certificate(g, scheme, ORIENTABLE, 2)


def test_heuristic_nonorientable_target_validation():
    with pytest.raises(ValueError):
        heuristic_embedding(SimpleGraph.complete(5), 0, NONORIENTABLE, seed=0)


def test_heuristic_deterministic_given_seed():
    g = SimpleGraph.complete_bipartite(3, 6)
    a = heuristic_embedding(g, 1, ORIENTABLE, seed=5)
    b = heuristic_embedding(g, 1, ORIENTABLE, seed=5)
    assert a is not None and b is not None
    assert a.rotations == b.rotations


# -- orchestrator -------------------------------------------------------------


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
        blocks, _ = block_decomposition(g)
        total = 0
        for b in blocks:
            rb, _ = reduce_homeomorphic(b)
            total += exact_genus(rb).value if rb.n else 0
        assert total == base.value


def test_derived_subgraphs_contains_reduction():
    g = SimpleGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    checksums = {h.checksum() for h in derived_subgraphs(g)}
    reduced, _ = reduce_homeomorphic(g)
    assert g.checksum() in checksums
    assert reduced.checksum() in checksums


# -- exhaustive search, forced (no heuristic restarts) ------------------------


def _bnb_only() -> SearchBudget:
    return SearchBudget(restarts=0)


@pytest.mark.parametrize(
    "builder,surface,value",
    [
        (lambda: SimpleGraph.complete_bipartite(3, 3), ORIENTABLE, 1),
        (lambda: SimpleGraph.complete(5), ORIENTABLE, 1),
        (lambda: SimpleGraph.complete_bipartite(4, 4), ORIENTABLE, 1),
        (lambda: SimpleGraph.complete_bipartite(3, 3), NONORIENTABLE, 1),
        (lambda: SimpleGraph.complete_bipartite(3, 4), NONORIENTABLE, 1),
        (lambda: SimpleGraph.complete(5), NONORIENTABLE, 1),
    ],
)
def test_exhaustive_only_matches_known_values(builder, surface, value):
    g = builder()
    res = exact_genus(g, _bnb_only()) if surface == ORIENTABLE else exact_crosscap(g, _bnb_only())
    assert res.exact and res.value == value
    assert any("exhaustive" in line for line in res.provenance)
    assert verify_certificate(res.certificate_graph, res.certificate, surface, value)


def test_exhaustive_only_matches_bruteforce_random():
    rng = random.Random(77)
    done = 0
    while done < 12:
        g = connected_random_graph(rng, n_max=6, space_cap=4_000)
        # fewer than 9 edges is planar: K3,3 has 9 edges and K5 has 10
        if g.edge_count < 9 or is_planar(g).planar:
            continue
        done += 1
        res = exact_genus(g, _bnb_only())
        assert res.exact
        assert res.value == oracles.brute_force_genus(g)
        res = exact_crosscap(g, _bnb_only())
        assert res.exact
        assert res.value == oracles.brute_force_crosscap(g)
        assert verify_certificate(res.certificate_graph, res.certificate, NONORIENTABLE, res.value)


def test_node_cap_abort_degrades_to_bounds():
    res = exact_genus(
        SimpleGraph.complete_bipartite(3, 3), SearchBudget(restarts=0, node_cap=5)
    )
    assert not res.exact
    assert res.lower == 1
    assert any("aborted" in line for line in res.provenance)


def test_crosscap_node_cap_abort_degrades_to_bounds():
    # the crosscap search may assign node_cap rotations per co-tree sign
    # pattern: 15 here, against 480 configurations
    res = exact_crosscap(
        SimpleGraph.complete_bipartite(3, 3), SearchBudget(restarts=0, node_cap=1)
    )
    assert not res.exact
    assert res.lower == 1
    assert any("aborted" in line for line in res.provenance)


def test_crosscap_search_skips_balanced_schemes():
    # K4 is planar, so only a balanced scheme reaches Euler genus 0
    g = SimpleGraph.complete(4)
    cotree = genus_module._cotree_edges(g)
    best, rotations, signs, completed = genus_module._bnb_min_euler(g, 0, 10_000, cotree)
    assert completed and best == 1
    assert any(signs[ei] == -1 for ei in cotree)
    sign_map = dict(zip(g.edges(), signs))
    trace = trace_faces(g, make_scheme(g, rotations, sign_map))
    assert trace.euler_genus == 1 and not trace.orientable


# -- face counting -------------------------------------------------------------


def _random_signs(rng: random.Random, g: SimpleGraph) -> dict:
    return {e: rng.choice((1, -1)) for e in g.edges()}


def test_face_counter_matches_full_recount():
    """The branch-and-bound's incremental counter, and the heuristic's
    recounting evaluator, against the reference recount after every assign
    and unassign, in a random last-in, first-out order, and the evaluator
    after a sign flip; at full assignments against face tracing too."""
    rng = random.Random(83)
    for _ in range(200):
        g = connected_random_graph(rng, n_max=7, space_cap=20_000)
        idx = genus_module._DartIndex(g)
        for sign_map in (None, _random_signs(rng, g)):
            signs = None if sign_map is None else [sign_map[e] for e in idx.edges]
            counter = genus_module._FaceCounter(idx, signs)
            recount = genus_module._Evaluator(idx, signs)
            order = list(range(g.n))
            rng.shuffle(order)
            assigned: dict[int, list[int]] = {}

            def check():
                want = oracles.partial_face_counts(g, assigned, sign_map)
                assert counter.stats() == want
                assert recount.stats() == want
                if signs is not None:  # the heuristic's sign move, and back
                    ei = rng.randrange(idx.m)
                    recount.flip_sign(ei)
                    flipped = dict(sign_map)
                    flipped[idx.edges[ei]] *= -1
                    assert recount.stats() == oracles.partial_face_counts(g, assigned, flipped)
                    recount.flip_sign(ei)

            full_seen = 0
            while full_seen < 2:
                if len(assigned) == g.n:
                    rotations = [assigned[v] for v in range(g.n)]
                    trace = trace_faces(g, make_scheme(g, rotations, sign_map))
                    assert counter.stats() == (trace.face_count, 0)
                    assert counter.euler() == recount.euler() == trace.euler_genus
                    full_seen += 1
                if assigned and (len(assigned) == g.n or rng.random() < 0.4):
                    v = order[len(assigned) - 1]
                    counter.unassign(v)
                    recount.unassign(v)
                    del assigned[v]
                else:
                    v = order[len(assigned)]
                    rotation = g.neighbors(v)
                    rng.shuffle(rotation)
                    counter.assign(v, rotation)
                    recount.assign(v, rotation)
                    assigned[v] = rotation
                check()
            while assigned:
                v = order[len(assigned) - 1]
                counter.unassign(v)
                recount.unassign(v)
                del assigned[v]
                check()


def test_face_counter_requires_last_in_first_out():
    g = SimpleGraph.complete(4)
    counter = genus_module._FaceCounter(genus_module._DartIndex(g))
    counter.assign(0, g.neighbors(0))
    counter.assign(1, g.neighbors(1))
    with pytest.raises(SchemeError):
        counter.unassign(0)


# -- correctness guards --------------------------------------------------------


@pytest.mark.parametrize("kind", ["_Evaluator", "_FaceCounter"])
@pytest.mark.parametrize("signed", [False, True])
def test_euler_on_partial_assignment_raises(kind, signed):
    g = SimpleGraph.complete(4)
    idx = genus_module._DartIndex(g)
    ev = getattr(genus_module, kind)(idx, [1] * idx.m if signed else None)
    ev.assign(0, g.neighbors(0))
    with pytest.raises(SchemeError, match="partial"):
        ev.euler()


def test_unpaired_state_cycles_raise():
    g = SimpleGraph(2, [(0, 1)])
    ev = genus_module._Evaluator(genus_module._DartIndex(g), [1])
    ev.nxt = [1, 0, 2, 3]  # three state cycles cannot be mirror pairs
    with pytest.raises(SchemeError, match="pair up"):
        ev.stats()


def test_is_planar_rejects_an_embedding_that_does_not_reverify(monkeypatch):
    monkeypatch.setattr(genus_module, "trace_faces", lambda g, scheme: FaceTrace([], 0, 2, True))
    with pytest.raises(SchemeError, match="re-verify"):
        is_planar(SimpleGraph.complete(4))


def test_orientable_search_rejects_odd_euler_genus(monkeypatch):
    monkeypatch.setattr(genus_module._FaceCounter, "euler", lambda self: 3)
    with pytest.raises(SchemeError, match="odd euler genus"):
        exact_genus(SimpleGraph.complete_bipartite(3, 3), _bnb_only())


def test_component_bound_above_exact_block_sum_raises(monkeypatch):
    monkeypatch.setattr(
        genus_module, "_exact_surface", lambda g, surface, budget: GenusResult(surface, 0, 0, True)
    )
    with pytest.raises(SchemeError, match="exceeds exact block sum"):
        genus_of_graph(SimpleGraph.complete(5))


def test_guards_survive_optimized_mode():
    code = (
        "import sys\n"
        "from diffgenus import genus\n"
        "from diffgenus.embeddings import SchemeError\n"
        "from diffgenus.simplegraph import SimpleGraph\n"
        "assert False, 'asserts are live'\n"
        "g = SimpleGraph.complete(4)\n"
        "ev = genus._FaceCounter(genus._DartIndex(g))\n"
        "ev.assign(0, g.neighbors(0))\n"
        "try:\n"
        "    ev.euler()\n"
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
