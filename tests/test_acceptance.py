"""Acceptance suite: one test per criterion, each printing a PASS line with
its timing. Certificates produced by the genus/crosscap computations are
collected and re-verified through the command-line verifier in the last
test."""

import hashlib
import json
import random
import time

from click.testing import CliRunner

import oracles
from graphs import complete_bipartite, swap_semidirect_times_z3
from oracles import complete_multipartite_parts, lcm_witness, vertex_membership
from diffgenus.catalog import TWO_GROUP_ATOMS, builtin_catalog
from diffgenus.classify import GE3, classify_genus, condition_reports
from diffgenus.cli import main as cli_main
from diffgenus.embeddings import verify_certificate
from diffgenus.genus import (
    NONORIENTABLE,
    ORIENTABLE,
    SearchBudget,
    exact_crosscap,
    exact_genus,
    formula_oracle,
    genus_of_graph,
    is_planar,
    rotation_space_size,
)
from diffgenus.graphio import write_edgelist
from diffgenus.groupgraphs import difference_graph
from diffgenus.groups import build_group, is_p_group, sylow_decomposition
from diffgenus.harness import CONSISTENT, verify_sweep
from diffgenus.simplegraph import (
    SimpleGraph,
    block_decomposition,
    induced_subgraph,
    reduce_homeomorphic,
)

GENUS1_GROUPS = ["Z18", "Z20", "Z2 x Z2 x Z5", "Z28", "Z2 x Z2 x Z7",
                 "Z4 x Z2 x Z3", "D8 x Z2 x Z3"]
GENUS2_FAST = ["Z35", "Z2 x Z2 x Z3 x Z3", "Z2 x Z2 x Z11", "Q8 x Z3"]
GENUS2_SLOW = ["Z44", "Z4 x Z3 x Z3"]
CROSSCAP1_GROUPS = ["Z20", "Z2 x Z2 x Z5"]
CROSSCAP2_GROUPS = ["Z18", "Z28", "Z2 x Z2 x Z7", "Z4 x Z2 x Z3"]

_CERT_STORE: dict[tuple[str, str], tuple] = {}


def _compute(desc: str, surface: str):
    """Difference-graph genus/crosscap with timing; certificates stored for
    the round-trip criterion."""
    key = (desc, surface)
    if key not in _CERT_STORE:
        graph = difference_graph(build_group(desc)).graph
        start = time.perf_counter()
        res = genus_of_graph(graph, SearchBudget(), surface=surface)
        elapsed = time.perf_counter() - start
        _CERT_STORE[key] = (res, elapsed)
    return _CERT_STORE[key]


def test_criterion_1_torus_groups():
    """Orientable genus exactly 1, certified, for the seven genus-1 groups."""
    for desc in GENUS1_GROUPS:
        res, elapsed = _compute(desc, ORIENTABLE)
        assert res.exact and res.value == 1, (desc, res.lower, res.upper, res.provenance)
        assert res.certificate is not None and res.certificate_graph is not None
        assert verify_certificate(res.certificate_graph, res.certificate, ORIENTABLE, 1)
        assert elapsed <= 60.0, (desc, elapsed)
    print("ACCEPTANCE criterion 1: PASS (7 groups, exact genus 1 with certificates)")


def test_criterion_2_double_torus_groups():
    """Orientable genus exactly 2 for the genus-2 groups; heuristic upper
    bounds allowed on the two large reduced graphs."""
    for desc in GENUS2_FAST:
        res, elapsed = _compute(desc, ORIENTABLE)
        assert res.exact and res.value == 2, (desc, res.lower, res.upper, res.provenance)
        assert verify_certificate(res.certificate_graph, res.certificate, ORIENTABLE, 2)
        assert elapsed <= 60.0, (desc, elapsed)
    for desc in GENUS2_SLOW:
        res, elapsed = _compute(desc, ORIENTABLE)
        assert res.exact and res.value == 2, (desc, res.lower, res.upper, res.provenance)
        assert verify_certificate(res.certificate_graph, res.certificate, ORIENTABLE, 2)
        assert elapsed <= 600.0, (desc, elapsed)

    # no catalog 2-group satisfies C2, so the C2 row is checked on an
    # off-catalog witness
    c2_atoms = [atom for atom in TWO_GROUP_ATOMS
                if condition_reports(build_group(atom))[1].holds]
    assert c2_atoms == []
    witness = swap_semidirect_times_z3()
    assert classify_genus(witness).value == 2
    res = genus_of_graph(difference_graph(witness).graph, SearchBudget(), surface=ORIENTABLE)
    assert res.exact and res.value == 2, (res.lower, res.upper, res.provenance)
    assert verify_certificate(res.certificate_graph, res.certificate, ORIENTABLE, 2)
    print("ACCEPTANCE criterion 2: PASS (6 groups, exact genus 2; C2 verified on the"
          f" off-catalog {witness.source}, as no catalog 2-group satisfies it)")


def test_criterion_3_crosscap_groups():
    """Crosscap exactly 1 for the two projective groups, exactly 2 for the
    four crosscap-2 groups."""
    for desc in CROSSCAP1_GROUPS:
        res, elapsed = _compute(desc, NONORIENTABLE)
        assert res.exact and res.value == 1, (desc, res.lower, res.upper, res.provenance)
        assert verify_certificate(res.certificate_graph, res.certificate, NONORIENTABLE, 1)
        assert elapsed <= 120.0, (desc, elapsed)
    for desc in CROSSCAP2_GROUPS:
        res, elapsed = _compute(desc, NONORIENTABLE)
        assert res.exact and res.value == 2, (desc, res.lower, res.upper, res.provenance)
        assert verify_certificate(res.certificate_graph, res.certificate, NONORIENTABLE, 2)
        assert elapsed <= 120.0, (desc, elapsed)
    # crosscap never exceeds twice the genus plus one on the computed pairs
    for desc in CROSSCAP1_GROUPS + CROSSCAP2_GROUPS:
        if (desc, ORIENTABLE) in _CERT_STORE or desc in GENUS1_GROUPS:
            genus_res, _ = _compute(desc, ORIENTABLE)
            crosscap_res, _ = _compute(desc, NONORIENTABLE)
            assert crosscap_res.value <= 2 * genus_res.value + 1, desc
    print("ACCEPTANCE criterion 3: PASS (crosscap 1 and 2 groups exact with certificates)")


def test_criterion_4_planar_groups():
    planar_groups = ["Z12", "D8 x Z3", "Z2 x Z2 x Z2 x Z3", "Z2 x Z5",
                     "Z2 x Z7", "Z3 x Z5", "Z2 x Z3 x Z3"]
    for desc in planar_groups:
        g = build_group(desc)
        start = time.perf_counter()
        graph = difference_graph(g).graph
        assert graph.edge_count == 0 or is_planar(graph).planar, desc
        predicted = classify_genus(g)
        assert predicted.value == 0, (desc, predicted.basis)
        assert time.perf_counter() - start <= 5.0, desc
    print("ACCEPTANCE criterion 4: PASS (7 planar groups: planarity check and class 0)")


def test_criterion_5_formula_equivalence():
    start = time.perf_counter()
    for n in range(3, 8):
        g = SimpleGraph.complete(n)
        crosscap = exact_crosscap(g)
        assert exact_genus(g).value == formula_oracle("complete", (n,), ORIENTABLE), n
        assert crosscap.value == formula_oracle("complete", (n,), NONORIENTABLE), n
    # Franklin's exception: K7 does not embed in the Klein bottle
    assert "face-set search excludes 2" in crosscap.provenance
    assert "face-set certificate at 3" in crosscap.provenance
    assert verify_certificate(crosscap.certificate_graph, crosscap.certificate, NONORIENTABLE, 3)
    orientable_grid = [(m, n) for m in range(2, 5) for n in range(m, 5)] + [(3, 5), (3, 6)]
    for m, n in orientable_grid:
        g = complete_bipartite(m, n)
        want = formula_oracle("complete_bipartite", (m, n), ORIENTABLE)
        assert exact_genus(g).value == want, (m, n)
    crosscap_grid = [(m, n) for m in range(2, 5) for n in range(m, 9 - m)] + [(3, 6)]
    for m, n in crosscap_grid:
        g = complete_bipartite(m, n)
        want = formula_oracle("complete_bipartite", (m, n), NONORIENTABLE)
        assert exact_crosscap(g).value == want, (m, n)
    # the large case closes through a lower bound plus a heuristic witness
    res = exact_genus(complete_bipartite(3, 10))
    assert res.exact and res.value == 2
    assert res.value == formula_oracle("complete_bipartite", (3, 10), ORIENTABLE)
    elapsed = time.perf_counter() - start
    assert elapsed <= 300.0, elapsed
    print(f"ACCEPTANCE criterion 5: PASS (formula equivalence, {elapsed:.1f}s)")


def test_criterion_6_structural_suite():
    start = time.perf_counter()
    checked = 0
    for entry in builtin_catalog(100):
        g = entry.group
        graph = difference_graph(g).graph
        if is_p_group(g):
            assert graph.n == 0, entry.name  # empty difference graph
            continue
        checked += 1
        index = {lab[0]: v for v, lab in enumerate(graph.labels)}
        vertices = set(index)
        # vertex predicate equals the computed vertex set
        predicted = {x for x in range(1, g.order) if vertex_membership(g, x)}
        assert predicted == vertices, entry.name
        edges = {
            tuple(sorted((graph.labels[u][0], graph.labels[v][0])))
            for u, v in graph.edges()
        }
        # coprime orders are adjacent
        import math as _math

        orders = [g.element_order(x) for x in range(g.order)]
        for x in range(1, g.order):
            for y in range(x + 1, g.order):
                if _math.gcd(orders[x], orders[y]) == 1:
                    assert (x, y) in edges, (entry.name, x, y)
        # elements of one Sylow part are never adjacent
        dec = sylow_decomposition(g)
        for comp in dec.components:
            members = sorted(comp - {0})
            for i, x in enumerate(members):
                for y in members[i + 1 :]:
                    assert (x, y) not in edges, (entry.name, x, y)
        # the prime-part join is complete multipartite with the right parts
        keep, sizes = [], []
        for comp in dec.components:
            part = sorted(comp - {0})
            sizes.append(len(part))
            keep.extend(index[x] for x in part)
        sub = induced_subgraph(graph, keep)
        assert complete_multipartite_parts(sub) == sorted(sizes), entry.name
        # two prime-exponent factors: the whole graph is that bipartite join
        exps = [max(g.element_order(x) for x in comp) for comp in dec.components]
        if len(dec.primes) == 2 and exps == dec.primes:
            want = sorted(len(c) - 1 for c in dec.components)
            assert complete_multipartite_parts(graph) == want, entry.name
        # an element of order lcm(s, t) exists for every realized pair
        realized = sorted(set(orders))
        for s in realized:
            for t in realized:
                z = lcm_witness(g, s, t)
                assert g.element_order(z) == _math.lcm(s, t), (entry.name, s, t)
    elapsed = time.perf_counter() - start
    assert elapsed <= 600.0, elapsed
    print(f"ACCEPTANCE criterion 6: PASS ({checked} non-p-groups checked, {elapsed:.1f}s)")


def _sweep_digests(records) -> tuple[str, str]:
    """SHA-256 digests of a sweep: of every value and status, with the
    graph each certificate is bound to, and of the certificates themselves,
    each verified at its upper end first."""
    values, schemes = [], []
    for r in records:
        for res in (r.computed_genus, r.computed_crosscap):
            cert, graph = res.certificate, res.certificate_graph
            values.append((r.group_name, res.surface, res.lower, res.upper, res.exact, r.status,
                           None if graph is None else graph.checksum()))
            if cert is not None:
                assert verify_certificate(graph, cert, res.surface, res.upper), r.group_name
                schemes.append((r.group_name, res.surface, cert.rotations, cert.signs))
    return (hashlib.sha256(repr(values).encode()).hexdigest(),
            hashlib.sha256(repr(schemes).encode()).hexdigest())


def test_criterion_7_full_sweep():
    start = time.perf_counter()
    records, summary = verify_sweep(100)
    assert summary.contradictions == 0, [r.group_name for r in records if r.status == "contradiction"]
    for r in records:
        assert r.status == CONSISTENT, (r.group_name, r.status)
        for predicted, computed in (
            (r.predicted_genus, r.computed_genus),
            (r.predicted_crosscap, r.computed_crosscap),
        ):
            if predicted.value < GE3:
                assert computed.exact and computed.value == predicted.value, r.group_name
            else:
                assert computed.lower >= 3, (r.group_name, computed.lower)
    values, schemes = _sweep_digests(records)
    assert values == "0fc3ea57561eac65022cf2c209790ff3b03c9f96627209847483d7ba7ea70e5a"
    assert schemes == "07fec0b41baf471329e1c2af5507f8601fd64ce755e4b9d6f6b61f82c8f8593e"
    elapsed = time.perf_counter() - start
    assert elapsed <= 900.0, elapsed
    print(
        f"ACCEPTANCE criterion 7: PASS (sweep of {summary.total} groups <= order 100,"
        f" 0 contradictions, {elapsed:.1f}s)"
    )


def test_order_200_sweep_is_pinned():
    """The whole catalog, pinned as criterion 7 pins order 100: the records
    past order 100 are otherwise checked only for contradictions."""
    records, summary = verify_sweep(200)
    assert summary.total == summary.consistent == 285
    assert _sweep_digests(records) == (
        "5dd599a7f0ad04cff2c829ec56e6460bf8c63ffc5636f187501f7ab97a253c05",
        "d3062412293ffdfe32f6fbb868571fe695ef352fb2d0f8fb59268fea77e8f409",
    )


def test_criterion_8_random_graph_cross_checks():
    start = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    genus_histogram: dict[int, int] = {}
    while checked < 50:
        n = rng.randint(4, 8)
        if checked % 2 == 0:
            g = SimpleGraph(n)
            order = list(range(n))
            rng.shuffle(order)
            for i in range(1, n):
                g.add_edge(order[i], order[rng.randrange(i)])
            for _ in range(rng.randint(1, 2 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and not g.has_edge(u, v):
                    g.add_edge(u, v)
        else:
            # dense slice: most of a complete graph, to hit positive genus
            n = rng.randint(5, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            g = SimpleGraph(n, pairs[: rng.randint(int(0.6 * len(pairs)), len(pairs))])
            if not g.is_connected():
                continue
        if rotation_space_size(g) > 150_000:
            continue
        checked += 1
        base = exact_genus(g)
        assert base.exact, checked
        genus_histogram[base.value] = genus_histogram.get(base.value, 0) + 1
        # (c) naive all-rotations brute force
        assert base.value == oracles.brute_force_genus(g), checked
        # (b) homeomorphic reduction preserves the value
        reduced, _ = reduce_homeomorphic(g)
        if reduced.n and reduced.is_connected():
            assert exact_genus(reduced).value == base.value, checked
        elif reduced.n == 0:
            assert base.value == 0, checked
        # (a) block additivity
        blocks = block_decomposition(g)
        total = 0
        for b in blocks:
            rb, _ = reduce_homeomorphic(b)
            total += exact_genus(rb).value if rb.n else 0
        assert total == base.value, checked
    assert any(v > 0 for v in genus_histogram), "corpus must include nonplanar graphs"
    elapsed = time.perf_counter() - start
    assert elapsed <= 300.0, elapsed
    print(
        f"ACCEPTANCE criterion 8: PASS (50 random graphs, 0 mismatches,"
        f" genus histogram {dict(sorted(genus_histogram.items()))}, {elapsed:.1f}s)"
    )


def test_criterion_9_certificate_round_trip(tmp_path):
    """Every certificate from criteria 1-3 re-verifies through the CLI after
    writing both the bound graph and the certificate to files."""
    for desc in GENUS1_GROUPS + GENUS2_FAST + GENUS2_SLOW:
        _compute(desc, ORIENTABLE)
    for desc in CROSSCAP1_GROUPS + CROSSCAP2_GROUPS:
        _compute(desc, NONORIENTABLE)

    runner = CliRunner()
    count = 0
    for (desc, surface), (res, _) in sorted(_CERT_STORE.items()):
        if res.certificate is None:
            continue
        count += 1
        slug = f"{desc.replace(' ', '')}-{surface[0]}"
        graph_path = tmp_path / f"{slug}.el"
        cert_path = tmp_path / f"{slug}.cert.json"
        graph_path.write_text(write_edgelist(res.certificate_graph))
        cert_path.write_text(
            json.dumps(res.certificate.to_json_dict(surface, res.value), indent=2)
        )
        result = runner.invoke(cli_main, ["genus", "verify", str(graph_path), str(cert_path)])
        assert result.exit_code == 0, (desc, surface, result.output)
        assert "certificate valid" in result.output
    assert count >= len(GENUS1_GROUPS) + len(GENUS2_FAST) + len(GENUS2_SLOW) + 6
    print(f"ACCEPTANCE criterion 9: PASS ({count} certificates re-verified via the CLI)")
