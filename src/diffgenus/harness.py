"""End-to-end verification: for each catalog group, compare the structural
classification of the difference graph's genus and crosscap against values
computed independently by the embedding machinery, and report consistency."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from .catalog import builtin_catalog
from .classify import GE3, GenusClass, classify_both
from .genus import (
    DEFAULT_BUDGET,
    GenusResult,
    GraphPlan,
    NONORIENTABLE,
    ORIENTABLE,
    SearchBudget,
    genus_of_graph,
)
from .groupgraphs import difference_graph
from .groups import GroupTable, is_p_group

CONSISTENT = "consistent"
CONTRADICTION = "contradiction"
INCONCLUSIVE = "inconclusive"


@dataclass
class ClassificationRecord:
    group_name: str
    order: int
    predicted_genus: GenusClass
    predicted_crosscap: GenusClass
    computed_genus: GenusResult
    computed_crosscap: GenusResult
    status: str
    timings_ms: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group_name,
            "order": self.order,
            "predicted_genus": self.predicted_genus.to_json_dict(),
            "predicted_crosscap": self.predicted_crosscap.to_json_dict(),
            "computed_genus": _result_dict(self.computed_genus),
            "computed_crosscap": _result_dict(self.computed_crosscap),
            "status": self.status,
            "timings_ms": {k: round(v, 1) for k, v in self.timings_ms.items()},
        }


def _result_dict(r: GenusResult) -> dict:
    out = {
        "surface": r.surface,
        "lower": r.lower,
        "upper": r.upper,
        "exact": r.exact,
        "provenance": list(r.provenance),
    }
    if r.certificate is not None and r.certificate_graph is not None:
        value = r.lower if r.exact else (r.upper if r.upper is not None else r.lower)
        out["certificate"] = r.certificate.to_json_dict(r.surface, value)
    return out


def _status_against(predicted: GenusClass, computed: GenusResult) -> str:
    """One range rule. The class predicts [v, v], or [3, inf) for GE3; the
    result gives [lower, upper], with inf for an open upper end. Ranges
    that do not meet contradict. A result inside the predicted range is
    consistent, where an inexact result counts as open above: its lower
    end can confirm GE3, but it confirms no single value. Anything else is
    inconclusive."""
    want_lo = predicted.value  # GE3 is 3
    want_hi = math.inf if predicted.value >= GE3 else predicted.value
    hi = math.inf if computed.upper is None else computed.upper
    if computed.lower > want_hi or hi < want_lo:
        return CONTRADICTION
    if computed.lower >= want_lo and (hi if computed.exact else math.inf) <= want_hi:
        return CONSISTENT
    return INCONCLUSIVE


def _combine(*statuses: str) -> str:
    if CONTRADICTION in statuses:
        return CONTRADICTION
    if INCONCLUSIVE in statuses:
        return INCONCLUSIVE
    return CONSISTENT


def verify_group(
    g: GroupTable,
    budget: Optional[SearchBudget] = None,
    name: str = "",
) -> ClassificationRecord:
    """Classify the group, compute genus and crosscap of its difference
    graph, and compare by `_status_against`. Every group takes this one
    path; non-nilpotent input raises NotNilpotentError. A p-group's graph
    is empty, so both results are an exact 0, and the paper's stronger
    claim for it, a difference graph with no vertex at all, is checked
    too: a p-group whose graph has a vertex is a contradiction.

    Both surfaces are computed from one `GraphPlan` of the graph, so what
    its pieces hold (planarity tests, lower bounds, reductions and splits)
    is found once per record. The searches are not shared: each surface
    runs its own under its own budget. The plan is not kept in the record."""
    budget = budget or DEFAULT_BUDGET
    label = name or g.source or f"order-{g.order} group"
    t_start = time.perf_counter()
    predicted_genus, predicted_crosscap = classify_both(g)  # raises NotNilpotentError if needed
    t_classify = time.perf_counter()

    graph = difference_graph(g).graph
    t_build = time.perf_counter()

    plan = GraphPlan(graph)
    genus_budget = _budget_for(predicted_genus, budget)
    computed_genus = genus_of_graph(plan, genus_budget, surface=ORIENTABLE)
    t_genus = time.perf_counter()

    crosscap_budget = _budget_for(predicted_crosscap, budget)
    computed_crosscap = genus_of_graph(plan, crosscap_budget, surface=NONORIENTABLE)
    t_crosscap = time.perf_counter()

    status = _combine(
        _status_against(predicted_genus, computed_genus),
        _status_against(predicted_crosscap, computed_crosscap),
        CONTRADICTION if graph.n and is_p_group(g) else CONSISTENT,
    )
    return ClassificationRecord(
        label, g.order, predicted_genus, predicted_crosscap,
        computed_genus, computed_crosscap, status,
        {
            "classify": (t_classify - t_start) * 1e3,
            "build_graph": (t_build - t_classify) * 1e3,
            "genus": (t_genus - t_build) * 1e3,
            "crosscap": (t_crosscap - t_genus) * 1e3,
            "total": (t_crosscap - t_start) * 1e3,
        },
    )


def _budget_for(predicted: GenusClass, budget: SearchBudget) -> SearchBudget:
    """Predicted >=3 classes only need a lower bound of 3; exact classes get
    the full search budget."""
    if predicted.value < GE3:
        return budget
    return replace(budget, lower_stop=3)


@dataclass
class SweepSummary:
    total: int
    consistent: int
    contradictions: int
    inconclusive: int

    @property
    def ok(self) -> bool:
        return self.contradictions == 0


def verify_sweep(
    max_order: int, budget: Optional[SearchBudget] = None
) -> tuple[list[ClassificationRecord], SweepSummary]:
    """Run verify_group over every catalog group of order <= max_order,
    p-groups included."""
    budget = budget or DEFAULT_BUDGET
    records = [verify_group(e.group, budget, name=e.name) for e in builtin_catalog(max_order)]
    records.sort(key=lambda r: (r.order, r.group_name))
    summary = SweepSummary(
        total=len(records),
        consistent=sum(1 for r in records if r.status == CONSISTENT),
        contradictions=sum(1 for r in records if r.status == CONTRADICTION),
        inconclusive=sum(1 for r in records if r.status == INCONCLUSIVE),
    )
    return records, summary


def export_report(records: list[ClassificationRecord]) -> tuple[str, str]:
    """JSON array plus a fixed-width table; field order is stable."""
    doc = json.dumps([r.to_json_dict() for r in records], indent=2)
    header = f"{'group':<24} {'order':>5} {'genus':>10} {'crosscap':>10} {'computed':>18} {'status':<13}"
    lines = [header, "-" * len(header)]
    for r in records:
        cg = _fmt_result(r.computed_genus)
        cc = _fmt_result(r.computed_crosscap)
        lines.append(
            f"{r.group_name:<24} {r.order:>5} {r.predicted_genus.label:>10}"
            f" {r.predicted_crosscap.label:>10} {cg + '/' + cc:>18} {r.status:<13}"
        )
    contradictions = sum(1 for r in records if r.status == CONTRADICTION)
    lines.append(f"contradictions: {contradictions}")
    return doc, "\n".join(lines)


def _fmt_result(r: GenusResult) -> str:
    if r.exact:
        return str(r.value)
    hi = r.upper if r.upper is not None else "?"
    return f"[{r.lower},{hi}]"
