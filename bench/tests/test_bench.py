"""Self-tests for the benchmark's own code. Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, concat, layer_metrics, observed, self_times  # noqa: E402


@pytest.mark.parametrize(
    "count, expected",
    [(149, 90), (39, None), (40, 75), (99, 75), (100, 90), (1000, 99), (10_000, 99.9)],
)
def test_tail_percentile_leaves_ten_items_beyond(count, expected):
    assert run.tail_percentile(count) == expected


def test_tail_value_has_ten_items_above_it():
    values = [float(v) for v in range(1, 150)]
    q = run.tail_percentile(len(values))
    tail = run.nearest_rank(values, q)
    assert tail == 135.0
    assert sum(1 for v in values if v > tail) >= run.TAIL_MIN_BEYOND


def test_self_time_subtracts_children_only():
    spans = [
        Span("a", 0.0, 10.0, -1, "x"),
        Span("b", 1.0, 4.0, 0, "x"),
        Span("c", 2.0, 3.0, 1, "x"),
        Span("b", 5.0, 6.0, 0, "x"),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    metrics = layer_metrics(spans, ["a", "b", "c", "unused"])
    assert metrics["b.calls"] == 2
    assert metrics["b.total_s"] == 4.0
    assert metrics["b.self_s"] == 3.0
    assert metrics["unused.calls"] == 0


def test_recursive_call_counts_total_once():
    spans = [Span("f", 0.0, 10.0, -1, None), Span("f", 2.0, 5.0, 0, None)]
    metrics = layer_metrics(spans, ["f"])
    assert metrics == {"f.calls": 2, "f.total_s": 10.0, "f.self_s": 10.0}


def test_concatenated_spans_keep_their_parents():
    first = [Span("a", 0.0, 4.0, -1, "setup"), Span("b", 1.0, 2.0, 0, "setup")]
    second = [Span("a", 5.0, 9.0, -1, "x"), Span("b", 6.0, 8.0, 0, "x")]
    spans = concat(first, second)
    assert [s.parent for s in spans] == [-1, 0, -1, 2]
    assert self_times(spans) == [3.0, 1.0, 2.0, 2.0]
    assert second[1].parent == 0


def test_fail_share_counts_items_with_any_problem():
    items = [
        run.ItemResult("ok", 0.1),
        run.ItemResult("raised", 0.2, ["raised ValueError: x"]),
        run.ItemResult("wrong twice", 0.3, ["a", "b"]),
    ]
    assert run.count_failures(items) == (3, 2)


def test_fastest_pass_sums_each_items_least_time():
    passes = [
        run.Pass(0.9, [run.ItemResult("a", 0.5), run.ItemResult("b", 0.4)]),
        run.Pass(0.8, [run.ItemResult("a", 0.3), run.ItemResult("b", 0.5)]),
        run.Pass(1.0, [run.ItemResult("a", 0.4), run.ItemResult("b", 0.6)]),
    ]
    assert run.fastest_pass(passes) == pytest.approx(0.7)
    assert run.fastest_reference([[0.2, 0.1], [0.1, 0.3], [0.3, 0.2]]) == pytest.approx(0.2)


class _FakeWorkload:
    def items(self):
        return [types.SimpleNamespace(id=str(i)) for i in range(4)]

    def run(self, item):
        if item.id == "1":
            raise ValueError("boom")
        return int(item.id)

    def check(self, item, output):
        if output == 3:
            raise KeyError("check broke")
        return [] if output % 2 == 0 else ["odd"]


def test_raising_items_and_checks_are_failures_not_crashes():
    workload = _FakeWorkload()
    wall, done = run.run_pass(workload)
    result = run.checked(workload, wall, done)
    assert [bool(i.problems) for i in result.items] == [False, True, False, True]
    assert result.items[1].problems == ["raised ValueError: boom"]
    assert run.count_failures(result.items) == (4, 2)


@pytest.mark.parametrize("count, slots", [(4, 4), (run.REF_SLOTS, run.REF_SLOTS), (55, run.REF_SLOTS)])
def test_reference_units_are_spread_over_the_pass(count, slots):
    workload = types.SimpleNamespace(
        items=lambda: [types.SimpleNamespace(id=str(i)) for i in range(count)],
        run=lambda item: None,
    )
    refs = []
    _, done = run.run_pass(workload, refs=refs)
    assert len(done) == count and len(refs) == slots


def _modules():
    a = types.ModuleType("pkg.a")

    def f(x):
        return x + 1

    a.f = f
    b = types.ModuleType("pkg.b")
    b.f = f  # as after `from .a import f`
    b.g = lambda: b.f(1)
    return a, b, f


def test_wrappers_patch_importers_and_are_restored():
    a, b, f = _modules()
    tracer = Tracer()
    tracer.item = "item-0"
    with tracer.installed([a, b], {"a.f": lambda r: r}):
        assert a.f is not f and b.f is a.f
        assert a.f(1) == 2 and b.g() == 2
    assert a.f is f and b.f is f
    assert [(s.name, s.item, s.parent) for s in tracer.spans] == [("a.f", "item-0", -1)] * 2
    assert observed(tracer.spans, "a.f") == [2.0, 2.0]


def test_wrappers_are_restored_when_the_body_raises():
    a, b, f = _modules()
    with pytest.raises(RuntimeError):
        with Tracer().installed([a, b], {"a.f": None}):
            raise RuntimeError("stop")
    assert a.f is f and b.f is f


def test_span_of_a_raising_call_is_closed():
    a, b, _ = _modules()
    a.f = lambda x: 1 / x
    tracer = Tracer()
    with tracer.installed([a], {"a.f": None}):
        with pytest.raises(ZeroDivisionError):
            a.f(0)
        a.f(1)
    assert [s.parent for s in tracer.spans] == [-1, -1]
    assert all(s.end >= s.start for s in tracer.spans)


def test_reference_answers_on_known_graphs():
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    assert reference.is_nonplanar(6, k33)
    assert reference.brute_force_surface(6, k33, nonorientable=False) == reference.bipartite_genus(3, 3) == 1
    assert reference.brute_force_surface(6, k33, nonorientable=True) == reference.bipartite_crosscap(3, 3) == 1
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert reference.brute_force_surface(4, k4, nonorientable=False) == 0


def test_reference_difference_graph_of_z6():
    # 3 (order 2) and 2, 4 (order 3) lie in one cyclic group, neither
    # generating the other
    rows = reference.group_table("Z6").tolist()
    assert reference.difference_graph_edges(rows) == ({2, 3, 4}, {(2, 3), (3, 4)})


def test_reference_tables_and_isomorphism_check():
    q8 = reference.group_table("Q8")
    identity = list(range(8))
    assert reference.is_isomorphism(q8, q8, identity)
    assert not reference.is_isomorphism(q8, reference.group_table("D8"), identity)
    perm = [0, 2, 1, 3, 4, 5, 6, 7]
    assert not reference.is_isomorphism(q8, q8, [0, 0] + identity[2:])
    text = reference.relabelled_table_text(q8, reference.np.array(perm))
    relabelled = [list(map(int, line.split())) for line in text.splitlines()[1:]]
    assert reference.is_isomorphism(q8, relabelled, perm)
