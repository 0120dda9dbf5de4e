import hashlib

import pytest

from graphs import swap_semidirect_times_z3
from oracles import intersection_pattern, subgroup_table
from diffgenus import groups as gr
from diffgenus.catalog import builtin_catalog
from diffgenus.classify import GE3, classify_crosscap, classify_genus, condition_reports
from diffgenus.embeddings import verify_certificate
from diffgenus.genus import ORIENTABLE, genus_of_graph, is_planar
from diffgenus.groupgraphs import difference_graph
from diffgenus.harness import CONSISTENT, verify_group


# -- conditions ---------------------------------------------------------------


def _holding(g):
    return [r.condition for r in condition_reports(g) if r.holds]


def _order4_maximal_cyclic(g):
    return [s for s in gr.maximal_cyclic_subgroups(g) if len(s) == 4]


def test_condition_c1_z4z2():
    g = gr.build_group("Z4 x Z2")
    report = condition_reports(g)[0]
    assert report.condition == "C1" and report.holds
    assert report.exponent == 4
    m4 = _order4_maximal_cyclic(g)
    assert len(m4) == 2
    assert intersection_pattern(m4)[0][1] == 2


def test_condition_c1_d8z2():
    assert _holding(gr.build_group("D8 x Z2")) == ["C1"]


def test_condition_c3_q8(q8):
    c1, c2, c3 = condition_reports(q8)
    assert c3.holds
    assert len(_order4_maximal_cyclic(q8)) == 3
    assert not c1.holds
    assert not c2.holds


def test_condition_all_false_z4z2z2():
    assert _holding(gr.build_group("Z4 x Z2 x Z2")) == []


def test_condition_wrong_exponent():
    for desc in ("Z2 x Z2", "Z8", "D16"):
        assert _holding(gr.build_group(desc)) == [], desc


def test_condition_rejects_non_2_group():
    for desc in ("Z1", "Z9"):
        with pytest.raises(gr.GroupError):
            condition_reports(gr.build_group(desc))


def test_conditions_are_read_off_the_group_as_off_its_sylow_2_subgroup():
    """On every even-order catalog group up to order 200 and the C2 probe,
    the conditions read off the group's own table are those of its Sylow
    2-subgroup, built as a table of its own: the same holding condition
    and the same exponent."""
    groups = [(e.name, e.group) for e in builtin_catalog(200) if e.order % 2 == 0]
    groups.append(("C2 probe", swap_semidirect_times_z3()))
    for name, g in groups:
        two_part, _ = subgroup_table(g, gr.sylow_decomposition(g).components[0])
        assert condition_reports(g) == condition_reports(two_part), name


def test_conditions_mutually_exclusive_over_2_groups():
    two_groups = ["Z2", "Z4", "Z8", "Z2 x Z2", "Z2 x Z2 x Z2", "Z4 x Z2",
                  "Z4 x Z4", "Z4 x Z2 x Z2", "D8", "D16", "Q8", "Q16", "SD16",
                  "D8 x Z2", "Q8 x Z2"]
    for desc in two_groups:
        holds = [r.holds for r in condition_reports(gr.build_group(desc))]
        assert sum(holds) <= 1, desc


def test_condition_report_records_reading():
    report = condition_reports(gr.build_group("Q8"))[2]
    assert "exempt" in report.note


# -- classifier ---------------------------------------------------------------


GENUS_CASES = [
    ("Z12", 0), ("D8 x Z3", 0), ("Z2 x Z2 x Z3", 0), ("Z2 x Z2 x Z2 x Z3", 0),
    ("Z2 x Z5", 0), ("Z2 x Z7", 0), ("Z3 x Z5", 0), ("Z2 x Z3 x Z3", 0), ("Z21", 0),
    ("Z18", 1), ("Z20", 1), ("Z2 x Z2 x Z5", 1), ("Z28", 1), ("Z2 x Z2 x Z7", 1),
    ("Z4 x Z2 x Z3", 1), ("D8 x Z2 x Z3", 1),
    ("Z35", 2), ("Z4 x Z3 x Z3", 2), ("Z2 x Z2 x Z3 x Z3", 2), ("Z2 x Z2 x Z11", 2),
    ("Z44", 2), ("Q8 x Z3", 2),
    ("Z2 x Z2 x Z13", GE3), ("Z36", GE3), ("Z2 x Z2 x Z9", GE3), ("Z30", GE3),
    ("Z4 x Z4 x Z3", GE3), ("Z4 x Z2 x Z2 x Z3", GE3), ("Q8 x Z2 x Z3", GE3),
    ("Z8 x Z3", GE3), ("Z42", GE3), ("Z100", GE3), ("Z75", GE3), ("Z55", GE3),
]


@pytest.mark.parametrize("desc,expected", GENUS_CASES)
def test_classify_genus(desc, expected):
    got = classify_genus(gr.build_group(desc))
    assert got.value == expected, got.basis
    if expected == GE3:
        assert got.witness


CROSSCAP_CASES = [
    ("Z12", 0), ("D8 x Z3", 0), ("Z2 x Z5", 0),
    ("Z20", 1), ("Z2 x Z2 x Z5", 1),
    ("Z18", 2), ("Z28", 2), ("Z2 x Z2 x Z7", 2), ("Z4 x Z2 x Z3", 2), ("D8 x Z2 x Z3", 2),
    ("Z35", GE3), ("Z44", GE3), ("Z4 x Z3 x Z3", GE3), ("Z2 x Z2 x Z3 x Z3", GE3),
    ("Z2 x Z2 x Z11", GE3), ("Q8 x Z3", GE3), ("Z36", GE3),
]


@pytest.mark.parametrize("desc,expected", CROSSCAP_CASES)
def test_classify_crosscap(desc, expected):
    got = classify_crosscap(gr.build_group(desc))
    assert got.value == expected, got.basis


def test_p_groups_classify_as_empty(q8):
    for g in (q8, gr.build_group("Z8"), gr.build_group("Z3 x Z3"), gr.build_group("Z1")):
        assert classify_genus(g).value == 0
        assert classify_crosscap(g).value == 0
        assert "empty" in classify_genus(g).basis


def test_classifier_requires_nilpotent(s3):
    with pytest.raises(gr.NotNilpotentError):
        classify_genus(s3)
    with pytest.raises(gr.NotNilpotentError):
        classify_crosscap(s3)
    with pytest.raises(gr.NotNilpotentError):
        condition_reports(s3)


def test_classifier_is_isomorphism_invariant():
    import random

    z18 = gr.build_group("Z18")
    rng = random.Random(99)
    perm = list(range(1, 18))
    rng.shuffle(perm)
    perm = [0] + perm
    inv = [0] * 18
    for i, p in enumerate(perm):
        inv[p] = i
    mult = [[inv[z18.mult(perm[i], perm[j])] for j in range(18)] for i in range(18)]
    shuffled = gr.GroupTable(mult, source="shuffled Z18")
    assert classify_genus(shuffled).value == 1
    assert classify_crosscap(shuffled).value == 2


def test_planar_class_iff_planar_graph_small_catalog():
    """Class 0 must coincide with actual planarity of the difference graph."""
    descs = ["Z6", "Z10", "Z12", "Z14", "Z15", "Z18", "Z20", "Z2 x Z2 x Z3",
             "D8 x Z3", "Q8 x Z3", "Z2 x Z2 x Z5", "Z21", "Z30", "Z33",
             "Z2 x Z3 x Z3", "Z4 x Z2 x Z3", "Z36"]
    for desc in descs:
        g = gr.build_group(desc)
        predicted = classify_genus(g)
        graph = difference_graph(g).graph
        planar = graph.edge_count == 0 or is_planar(graph).planar
        assert (predicted.value == 0) == planar, desc


def test_ge3_predictions_carry_computable_bound():
    for desc in ("Z36", "Z2 x Z2 x Z13", "Z30", "Z4 x Z4 x Z3"):
        g = gr.build_group(desc)
        assert classify_genus(g).value == GE3
        graph = difference_graph(g).graph
        from diffgenus.genus import SearchBudget

        res = genus_of_graph(graph, SearchBudget(lower_stop=3), surface=ORIENTABLE)
        assert res.lower >= 3, desc


# -- rows no catalog group reaches -------------------------------------------

# Off-catalog groups, each reaching a >=3 row of its own, with that row's basis.
PROBES = {
    "Z2 x Z9 x Z3": "Z2 x (3-group with two order-9 chains meeting in order 3)",
    "Z4 x Z5 x Z5": "4-part x (5-group of order >= 5^2, exponent 5)",
    "D8 x Z5 x Z5": "2-part of order >= 8 with partner of prime exponent, order >= p^2",
    "Z2 x Z3 x Z5 x Z7": "four or more prime factors",
}


@pytest.mark.parametrize("desc", PROBES)
def test_probe_reaches_its_ge3_row(desc):
    record = verify_group(gr.build_group(desc), name=desc)
    assert record.status == CONSISTENT
    for predicted in (record.predicted_genus, record.predicted_crosscap):
        assert predicted.value == GE3 and predicted.basis == PROBES[desc]
    assert record.computed_genus.lower >= 3
    assert record.computed_crosscap.lower >= 3


def test_c2_row():
    """(Z2 x Z2) : Z4 x Z3 reaches the C2 row, which no catalog group
    reaches."""
    g = swap_semidirect_times_z3()
    two_part, _ = subgroup_table(g, gr.sylow_decomposition(g).components[0])
    assert two_part.order_spectrum() == {1: 1, 2: 7, 4: 8}
    assert _holding(two_part) == ["C2"]
    genus, crosscap = classify_genus(g), classify_crosscap(g)
    assert genus.value == 2
    assert genus.basis == "condition C2 product: (2-group with two disjoint chain pairs) x Z3"
    assert crosscap.value == GE3
    assert crosscap.basis == "condition C2 product exceeds crosscap 2"
    record = verify_group(g)
    assert record.status == CONSISTENT
    res = record.computed_genus
    assert res.exact and res.value == 2
    assert verify_certificate(res.certificate_graph, res.certificate, ORIENTABLE, 2)
    assert record.computed_crosscap.lower >= 3


def test_classifier_output_is_pinned():
    """Class, basis and witness on both surfaces for every catalog group,
    the probes and the C2 witness; the digest was taken before the
    classifier was rewritten as one table."""
    groups = [(e.name, e.group) for e in builtin_catalog(200)]
    groups += [(desc, gr.build_group(desc)) for desc in PROBES]
    groups.append(("(Z2 x Z2) : Z4 x Z3", swap_semidirect_times_z3()))
    rows = []
    for name, g in groups:
        for c in (classify_genus(g), classify_crosscap(g)):
            rows.append((name, c.label, c.basis, c.witness))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "dad9672b96fb10c50bb1c6cf942577821f967e4eda2fc77778511a4c8c3fcaeb"
