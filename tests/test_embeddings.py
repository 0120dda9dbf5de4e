import json
import random

import pytest

from graphs import complete_bipartite
from diffgenus.embeddings import (
    CertificateMismatch,
    SchemeError,
    certificate_from_json,
    certificate_to_json,
    make_scheme,
    trace_faces,
    verify_certificate,
)
from diffgenus.simplegraph import SimpleGraph


def planar_k4_scheme(k4):
    # rotations read off a plane drawing with vertex 3 in the middle
    return make_scheme(k4, [[1, 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]])


def test_k4_planar_rotation():
    k4 = SimpleGraph.complete(4)
    trace = trace_faces(k4, planar_k4_scheme(k4))
    assert trace.face_count == 4
    assert trace.euler_genus == 0
    assert trace.orientable


def test_single_edge():
    g = SimpleGraph(2, [(0, 1)])
    trace = trace_faces(g, make_scheme(g, [[1], [0]]))
    assert trace.face_count == 1
    assert trace.euler_genus == 0


def test_face_lengths_sum_to_2e():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 9)
        g = SimpleGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    g.add_edge(u, v)
        rotations = []
        for v in range(n):
            rot = g.neighbors(v)
            rng.shuffle(rot)
            rotations.append(rot)
        signs = {}
        for u, v in g.edges():
            signs[(u, v)] = rng.choice([1, -1])
        trace = trace_faces(g, make_scheme(g, rotations, signs))
        assert sum(len(f) for f in trace.faces) == 2 * g.edge_count
        assert trace.euler_genus >= 0


def test_k33_all_positive_rotations_exhaustive():
    """Every all-positive rotation system of K_{3,3} has Euler genus >= 2 and
    the minimum is exactly 2 (the graph is toroidal, not planar)."""
    from itertools import permutations, product

    g = complete_bipartite(3, 3)
    best = None
    choices = []
    for v in range(6):
        ns = g.neighbors(v)
        choices.append([[ns[0], *p] for p in permutations(ns[1:])])
    for rots in product(*choices):
        trace = trace_faces(g, make_scheme(g, list(rots)))
        assert trace.euler_genus >= 2
        best = trace.euler_genus if best is None else min(best, trace.euler_genus)
    assert best == 2


def test_unbalanced_sign_detected():
    g = SimpleGraph.cycle(3)
    rotations = [g.neighbors(v) for v in range(3)]
    balanced = trace_faces(g, make_scheme(g, rotations))
    assert balanced.orientable and balanced.euler_genus == 0
    twisted = trace_faces(g, make_scheme(g, rotations, {(0, 1): -1}))
    assert not twisted.orientable
    assert twisted.euler_genus == 1  # a cycle on the projective plane


def test_vertex_flip_is_invisible():
    """Reversing one vertex rotation while negating its incident signs gives
    the same surface."""
    g = SimpleGraph.complete(4)
    base = planar_k4_scheme(g)
    flipped_rot = [list(r) for r in base.rotations]
    flipped_rot[2] = list(reversed(flipped_rot[2]))
    signs = {}
    for u, v in g.edges():
        signs[(u, v)] = -1 if 2 in (u, v) else 1
    flipped = make_scheme(g, flipped_rot, signs)
    trace = trace_faces(g, flipped)
    assert trace.euler_genus == 0
    assert trace.orientable  # balanced after potential relabeling


def test_scheme_validation_errors():
    # make_scheme only freezes; trace_faces holds the rules
    g = SimpleGraph.complete(4)
    with pytest.raises(SchemeError, match="rotation at 0"):
        trace_faces(g, make_scheme(g, [[1, 2], [0, 2, 3], [0, 1, 3], [0, 1, 2]]))
    with pytest.raises(SchemeError, match="rotation at 0"):
        trace_faces(g, make_scheme(g, [[1, 2, 2], [0, 2, 3], [0, 1, 3], [0, 1, 2]]))
    with pytest.raises(SchemeError, match="sign"):
        trace_faces(g, make_scheme(g, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]], {(0, 1): 2}))
    with pytest.raises(SchemeError, match="non-edges"):
        make_scheme(g, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]], {(1, 0): 1})


def test_checksum_mismatch_raises():
    k4 = SimpleGraph.complete(4)
    other = complete_bipartite(2, 2)
    scheme = planar_k4_scheme(k4)
    with pytest.raises(CertificateMismatch):
        trace_faces(other, scheme)


def test_verify_certificate_true_and_false_claims():
    k4 = SimpleGraph.complete(4)
    scheme = planar_k4_scheme(k4)
    assert verify_certificate(k4, scheme, "orientable", 0)
    assert not verify_certificate(k4, scheme, "orientable", 1)
    assert not verify_certificate(k4, scheme, "nonorientable", 1)


def test_certificate_json_round_trip():
    k4 = SimpleGraph.complete(4)
    scheme = planar_k4_scheme(k4)
    text = certificate_to_json(scheme, "orientable", 0)
    doc = json.loads(text)
    assert set(doc) == {"graph_checksum", "surface", "genus", "rotations", "signs", "seed"}
    loaded, surface, genus = certificate_from_json(text)
    assert surface == "orientable" and genus == 0
    assert verify_certificate(k4, loaded, surface, genus)


def test_certificate_json_missing_field():
    with pytest.raises(SchemeError):
        certificate_from_json(json.dumps({"surface": "orientable"}))


def test_isolated_vertices_count_as_faces():
    g = SimpleGraph(3, [(0, 1)])
    trace = trace_faces(g, make_scheme(g, [[1], [0], []]))
    assert trace.euler_genus == 0
    assert trace.face_count == 2  # edge face plus the isolated vertex's sphere


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda signs: signs[0].update(s=0), id="0"),
        pytest.param(lambda signs: signs[0].update(s=2), id="2"),
        pytest.param(lambda signs: signs.pop(0), id="None"),
        # each of these leaves every edge's own sign in place
        pytest.param(lambda signs: signs.append({"u": 0, "v": 99, "s": 1}), id="non-edge"),
        pytest.param(lambda signs: signs.insert(0, {"u": 0, "v": 1, "s": -1}), id="edge-signed-twice"),
        pytest.param(lambda signs: signs.append({"u": 1, "v": 0, "s": -1}), id="reversed-edge"),
    ],
)
def test_trace_rejects_corrupted_signs(damage):
    # a certificate file reaches trace_faces as it was read
    k4 = SimpleGraph.complete(4)
    doc = json.loads(certificate_to_json(planar_k4_scheme(k4), "orientable", 0))
    damage(doc["signs"])
    scheme, _, _ = certificate_from_json(json.dumps(doc))
    with pytest.raises(SchemeError, match="sign"):
        trace_faces(k4, scheme)


def test_trace_checks_face_lengths_against_edge_count():
    class Miscounted(SimpleGraph):
        @property
        def edge_count(self):
            return super().edge_count + 1

    k4 = SimpleGraph.complete(4)
    with pytest.raises(SchemeError, match="2E"):
        trace_faces(Miscounted(4, k4.edges()), planar_k4_scheme(k4))
