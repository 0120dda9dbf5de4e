import json
import weakref

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import two_branch_status
from diffgenus import classify
from diffgenus import groups as gr
from diffgenus import harness
from diffgenus.catalog import builtin_catalog
from diffgenus.classify import GenusClass
from diffgenus.cli import main
from diffgenus.embeddings import certificate_from_json, verify_certificate
from diffgenus.genus import NONORIENTABLE, ORIENTABLE, GenusResult
from diffgenus.groupgraphs import GroupGraph
from diffgenus.harness import (
    CONSISTENT,
    CONTRADICTION,
    ClassificationRecord,
    _status_against,
    export_report,
    verify_group,
    verify_sweep,
)
from diffgenus.simplegraph import SimpleGraph


def test_verify_group_z18():
    record = verify_group(gr.build_group("Z18"), name="Z18")
    assert record.status == CONSISTENT
    assert record.predicted_genus.value == 1
    assert record.computed_genus.exact and record.computed_genus.value == 1
    assert record.predicted_crosscap.value == 2
    assert record.computed_crosscap.exact and record.computed_crosscap.value == 2


def test_verify_group_plans_each_graph_once(planning_calls, monkeypatch):
    """Both surfaces of a record read one plan: each distinct graph gets at
    most one planarity test, one of each lower bound and one block split,
    and the plan is freed once the record is returned."""
    plans = []

    class TrackedPlan(harness.GraphPlan):
        def __init__(self, g):
            super().__init__(g)
            plans.append(weakref.ref(self))

    monkeypatch.setattr(harness, "GraphPlan", TrackedPlan)
    entries = [e for e in builtin_catalog(40) if not gr.is_p_group(e.group)]
    assert len(entries) == 35
    for e in entries:
        planning_calls.clear()
        record = verify_group(e.group, name=e.name)
        assert record.status == CONSISTENT
        assert planning_calls, e.name
        repeated = {key: n for key, n in planning_calls.items() if n > 1}
        assert not repeated, (e.name, repeated)
        assert plans[-1]() is None, e.name
    assert len(plans) == len(entries)


def test_verify_group_p_group_trivial_row(q8):
    record = verify_group(q8, name="Q8")
    assert record.status == CONSISTENT
    assert record.computed_genus.value == 0


def test_verify_group_ge3_lower_bound():
    record = verify_group(gr.build_group("Z2 x Z2 x Z13"), name="Z2 x Z2 x Z13")
    assert record.status == CONSISTENT
    assert record.predicted_genus.label == "GE3"
    assert record.computed_genus.lower >= 3
    assert record.computed_crosscap.lower >= 3


def test_verify_group_rejects_non_nilpotent(s3):
    with pytest.raises(gr.NotNilpotentError):
        verify_group(s3)


def test_sweep_small_order():
    records, summary = verify_sweep(12)
    assert summary.contradictions == 0
    assert summary.total == len(records)
    by_name = {r.group_name: r for r in records}
    assert by_name["Z12"].predicted_genus.value == 0
    # all non-p-groups up to order 12 are planar
    for r in records:
        assert r.status == CONSISTENT


def test_sweep_records_sorted_and_reproducible():
    a, _ = verify_sweep(20)
    b, _ = verify_sweep(20)
    keys = [(r.order, r.group_name) for r in a]
    assert keys == sorted(keys)
    for ra, rb in zip(a, b):
        assert ra.group_name == rb.group_name
        assert _numeric_view(ra) == _numeric_view(rb)


def _numeric_view(r: ClassificationRecord):
    def res_view(res):
        return None if res is None else (res.lower, res.upper, res.exact)

    return (
        r.predicted_genus.value,
        r.predicted_crosscap.value,
        res_view(r.computed_genus),
        res_view(r.computed_crosscap),
        r.status,
    )


def test_sweep_covers_catalog():
    records, _ = verify_sweep(24)
    names = {r.group_name for r in records}
    expected = {e.name for e in builtin_catalog(24)}
    assert names == expected


def test_export_report_round_trip():
    records, _ = verify_sweep(18)
    doc, table = export_report(records)
    parsed = json.loads(doc)
    assert len(parsed) == len(records)
    assert list(parsed[0]) == [
        "group", "order", "predicted_genus", "predicted_crosscap",
        "computed_genus", "computed_crosscap", "status", "timings_ms",
    ]
    assert "contradictions: 0" in table


def test_export_report_empty():
    doc, table = export_report([])
    assert json.loads(doc) == []
    assert "contradictions: 0" in table


def test_record_certificates_reverify():
    record = verify_group(gr.build_group("Z20"), name="Z20")
    doc = record.to_json_dict()
    for key in ("computed_genus", "computed_crosscap"):
        cert_doc = doc[key].get("certificate")
        assert cert_doc is not None
        scheme, surface, value = certificate_from_json(json.dumps(cert_doc))
        res = record.computed_genus if key == "computed_genus" else record.computed_crosscap
        assert verify_certificate(res.certificate_graph, scheme, surface, value)


def test_status_logic_direct():
    from diffgenus.classify import GenusClass
    from diffgenus.genus import GenusResult, ORIENTABLE
    from diffgenus.harness import CONTRADICTION, INCONCLUSIVE, _status_against

    exact = lambda v: GenusResult(ORIENTABLE, v, v, True)
    bounds = lambda lo, hi: GenusResult(ORIENTABLE, lo, hi, False)
    one = GenusClass(1, "x")
    ge3 = GenusClass(3, "x", witness="w")
    assert _status_against(one, exact(1)) == CONSISTENT
    assert _status_against(one, exact(2)) == CONTRADICTION
    assert _status_against(one, bounds(1, 2)) == INCONCLUSIVE
    assert _status_against(one, bounds(2, None)) == CONTRADICTION
    assert _status_against(one, bounds(0, 0)) == CONTRADICTION
    assert _status_against(ge3, bounds(3, None)) == CONSISTENT
    assert _status_against(ge3, bounds(2, None)) == INCONCLUSIVE
    assert _status_against(ge3, exact(2)) == CONTRADICTION


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 6),
    st.one_of(st.none(), st.integers(0, 4)),
    st.booleans(),
)
@example(0, 0, 0, False)
@example(1, 1, 0, False)
@example(2, 2, 0, False)
@example(3, 3, 0, False)
@example(1, 0, 0, False)
def test_range_rule_matches_the_two_branch_rule(value, lower, extra, exact):
    """The range rule gives the old two-branch verdict on every well-formed
    result: an exact one has equal ends, an inexact one an upper end at or
    above its lower end, or none. An inexact result with equal ends reads
    as no single value, so it confirms GE3 but no exact class."""
    upper = lower if exact else (None if extra is None else lower + extra)
    predicted = GenusClass(value, "x", witness="w")
    computed = GenusResult(ORIENTABLE, lower, upper, exact)
    assert _status_against(predicted, computed) == two_branch_status(value, lower, upper, exact)


def test_a_p_group_with_a_vertex_in_its_graph_is_a_contradiction(monkeypatch):
    """Z8's difference graph is empty by the paper; a builder that gives it
    an edgeless vertex still leaves genus and crosscap 0, so only the
    emptiness claim can catch it."""
    z8 = gr.build_group("Z8")
    monkeypatch.setattr(harness, "difference_graph", lambda g: GroupGraph("difference", SimpleGraph(1), g))
    record = verify_group(z8, name="Z8")
    assert record.computed_genus.exact and record.computed_genus.value == 0
    assert record.computed_crosscap.exact and record.computed_crosscap.value == 0
    assert record.status == CONTRADICTION

    edge = SimpleGraph(2, [(0, 1)])
    monkeypatch.setattr(harness, "difference_graph", lambda g: GroupGraph("difference", edge, g))
    assert verify_group(z8, name="Z8").status == CONTRADICTION


@pytest.mark.parametrize("name", ["Z8", "Q8", "Z3 x Z3", "D8 x Z2"])
def test_a_p_group_record_takes_the_common_path(name):
    record = verify_group(gr.build_group(name), name=name)
    assert record.status == CONSISTENT
    for res, surface in ((record.computed_genus, ORIENTABLE), (record.computed_crosscap, NONORIENTABLE)):
        assert res.surface == surface
        assert (res.lower, res.upper, res.exact) == (0, 0, True)
    assert list(record.timings_ms) == ["classify", "build_graph", "genus", "crosscap", "total"]


@pytest.mark.parametrize("desc", ["Z44", "Q8 x Z3", "Z8", "Z30"])
def test_the_classifier_reads_a_group_once(monkeypatch, desc):
    """`verify_group` and `diffgenus classify` read both classes from one
    pass over the Sylow structure, and give the classes that
    `classify_genus` and `classify_crosscap` give."""
    g = gr.build_group(desc)
    reads = []
    original = classify._structure

    def spy(group):
        reads.append(group)
        return original(group)

    monkeypatch.setattr(classify, "_structure", spy)
    record = harness.verify_group(g)
    assert len(reads) == 1
    out = CliRunner().invoke(main, ["classify", desc, "--json"])
    assert out.exit_code == 0 and len(reads) == 2
    doc = json.loads(out.output)
    assert record.predicted_genus == classify.classify_genus(g)
    assert record.predicted_crosscap == classify.classify_crosscap(g)
    assert doc["genus"] == record.predicted_genus.to_json_dict()
    assert doc["crosscap"] == record.predicted_crosscap.to_json_dict()
