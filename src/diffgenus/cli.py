"""Command-line interface.

Exit codes: 0 success, 1 verification found a contradiction, 2 input error.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import click

from . import groups as gr
from .catalog import MAX_CATALOG_ORDER, builtin_catalog
from .classify import classify_both, condition_reports
from .embeddings import (
    CertificateMismatch,
    SchemeError,
    certificate_from_json,
    certificate_to_json,
    verify_certificate,
)
from .genus import NONORIENTABLE, ORIENTABLE, SearchBudget, genus_of_graph
from .graphio import parse_edgelist, write_dot, write_edgelist
from .groupgraphs import difference_graph, enhanced_power_graph, power_graph
from .groups import GroupError, NotNilpotentError
from .harness import export_report, verify_group, verify_sweep
from .simplegraph import reduce_homeomorphic


class InputError(click.ClickException):
    exit_code = 2


def _load_group(spec: str) -> gr.GroupTable:
    path = Path(spec)
    if path.exists():
        try:
            return gr.ingest_table(path.read_text(encoding="utf-8-sig"), source=str(path))
        except (GroupError, OSError, UnicodeDecodeError) as exc:
            raise InputError(str(exc))
    try:
        return gr.build_group(spec)
    except GroupError as exc:
        raise InputError(str(exc))


def _load_graph(path: str):
    try:
        return parse_edgelist(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:
        raise InputError(str(exc))


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(str(exc))


_BUDGET_HELP = "face-set nodes per seeded restart, on a piece whose face-set pass stops at its node cap"


def _budget(nodes: int | None, seed: int | None) -> SearchBudget:
    b = SearchBudget()
    if nodes is not None:
        b.nodes_per_restart = nodes
    if seed is not None:
        b.seed = seed
    return b


@click.group()
def main():
    """Difference graphs of nilpotent groups: build, embed, classify."""


# -- group ------------------------------------------------------------------


@main.group()
def group():
    """Build, ingest, and inspect finite groups."""


@group.command("build")
@click.argument("descriptor")
def group_build(descriptor):
    """Print the Cayley table of a descriptor like "Z4 x Z2 x Z3"."""
    g = _load_group(descriptor)
    click.echo(gr.table_to_text(g), nl=False)


@group.command("ingest")
@click.argument("path", type=click.Path(exists=True))
def group_ingest(path):
    """Validate a Cayley-table file and echo the normalized table."""
    g = _load_group(path)
    click.echo(f"# valid group of order {g.order}")
    click.echo(gr.table_to_text(g), nl=False)


@group.command("info")
@click.argument("spec")
def group_info(spec):
    """Order, exponent, order spectrum, Sylow structure, maximal cyclics."""
    g = _load_group(spec)
    click.echo(f"order:    {g.order}")
    click.echo(f"exponent: {g.exponent()}")
    spectrum = " ".join(f"{o}^{c}" for o, c in g.order_spectrum().items())
    click.echo(f"order spectrum: {spectrum}")
    try:
        dec = gr.sylow_decomposition(g)
        parts = ", ".join(f"{p}: order {len(c)}" for p, c in zip(dec.primes, dec.components))
        click.echo(f"nilpotent: yes (Sylow {parts})" if parts else "nilpotent: yes (trivial)")
    except NotNilpotentError as exc:
        click.echo(f"nilpotent: no ({exc})")
    maximal = gr.maximal_cyclic_subgroups(g)
    sizes = Counter(map(len, maximal))
    desc = " ".join(f"{o}^{c}" for o, c in sorted(sizes.items()))
    click.echo(f"maximal cyclic subgroups: {len(maximal)} (orders {desc})")


# -- graph ------------------------------------------------------------------


@main.group()
def graph():
    """Build and transform group graphs."""


@graph.command("build")
@click.option("--kind", type=click.Choice(["power", "enhanced", "difference"]), required=True)
@click.option("--out", "fmt", type=click.Choice(["edgelist", "dot"]), default="edgelist")
@click.argument("spec")
def graph_build(kind, fmt, spec):
    """Write the power / enhanced / difference graph of a group."""
    g = _load_group(spec)
    builder = {"power": power_graph, "enhanced": enhanced_power_graph, "difference": difference_graph}[kind]
    gg = builder(g)
    writer = write_edgelist if fmt == "edgelist" else write_dot
    click.echo(writer(gg.graph), nl=False)


@graph.command("reduce")
@click.argument("path", type=click.Path(exists=True))
@click.option("--log", "log_path", type=click.Path(), default=None)
def graph_reduce(path, log_path):
    """Homeomorphic reduction of an edge-list graph.

    --log writes the steps in the order they were made, in input ids:
    [removed_isolated, v]; [removed_degree_one, v, u], u being v's only
    neighbour; [suppressed_degree_two, v, u, w], the edge u-w replacing
    the path u-v-w; and [dropped_parallel, u, w] right after a suppression
    whose u-w was an edge already. Then vertex_map sends each surviving
    input id to its output id."""
    g = _load_graph(path)
    reduced, log = reduce_homeomorphic(g)
    if log_path:
        doc = {
            "steps": [list(step) for step in log.steps],
            "vertex_map": {str(k): v for k, v in log.vertex_map.items()},
        }
        _write(log_path, json.dumps(doc, indent=2))
    click.echo(write_edgelist(reduced), nl=False)


# -- genus ------------------------------------------------------------------


@main.group()
def genus():
    """Compute and verify genus/crosscap of edge-list graphs."""


@genus.command("compute")
@click.argument("path", type=click.Path(exists=True))
@click.option("--surface", type=click.Choice(["o", "n"]), default="o")
@click.option("--exact", is_flag=True, help="fail (exit 1) unless the result is exact")
@click.option("--budget", type=click.IntRange(min=0), default=None, help=_BUDGET_HELP)
@click.option("--seed", type=int, default=None)
@click.option("--cert", "cert_path", type=click.Path(), default=None)
def genus_compute(path, surface, exact, budget, seed, cert_path):
    g = _load_graph(path)
    surf = ORIENTABLE if surface == "o" else NONORIENTABLE
    res = genus_of_graph(g, _budget(budget, seed), surface=surf)
    kind = "genus" if surf == ORIENTABLE else "crosscap"
    if res.exact:
        click.echo(f"{kind}: {res.value} (exact)")
    else:
        hi = res.upper if res.upper is not None else "?"
        click.echo(f"{kind}: in [{res.lower}, {hi}]")
    for line in res.provenance:
        click.echo(f"  - {line}")
    if cert_path:
        if res.certificate is None:
            raise InputError("no certificate available for this result")
        value = res.value if res.exact else res.upper
        _write(cert_path, certificate_to_json(res.certificate, surf, value))
        click.echo(f"certificate written to {cert_path}")
    if exact and not res.exact:
        sys.exit(1)


@genus.command("verify")
@click.argument("graph_path", type=click.Path(exists=True))
@click.argument("cert_path", type=click.Path(exists=True))
def genus_verify(graph_path, cert_path):
    """Check a certificate against the graph, or against the reduced piece
    of it the certificate was issued for."""
    from .genus import derived_subgraphs

    g = _load_graph(graph_path)
    try:
        scheme, surface, value = certificate_from_json(Path(cert_path).read_text(encoding="utf-8-sig"))
    except (SchemeError, ValueError, OSError) as exc:
        click.echo(f"bad certificate file: {exc}")
        sys.exit(2)
    target = None
    for candidate in derived_subgraphs(g):
        if candidate.checksum() == scheme.graph_checksum:
            target = candidate
            break
    if target is None:
        click.echo("certificate/graph mismatch: checksum matches no derived subgraph")
        sys.exit(2)
    note = "" if target.checksum() == g.checksum() else " (on the reduced graph)"
    try:
        ok = verify_certificate(target, scheme, surface, value)
    except (CertificateMismatch, SchemeError) as exc:
        click.echo(f"certificate/graph mismatch: {exc}")
        sys.exit(2)
    if ok:
        click.echo(f"certificate valid: {surface} {value}{note}")
    else:
        click.echo("certificate INVALID: claim does not match traced faces")
        sys.exit(1)


# -- classify ---------------------------------------------------------------


@main.command("classify")
@click.argument("spec")
@click.option("--json", "as_json", is_flag=True)
def classify_cmd(spec, as_json):
    """Predict genus and crosscap class of the difference graph."""
    g = _load_group(spec)
    try:
        cg, cc = classify_both(g)
    except NotNilpotentError as exc:
        raise InputError(f"not nilpotent: {exc}")
    reports = condition_reports(g) if g.order % 2 == 0 else []
    if as_json:
        doc = {
            "group": g.source or f"order-{g.order}",
            "order": g.order,
            "genus": cg.to_json_dict(),
            "crosscap": cc.to_json_dict(),
            "conditions": [
                {"condition": r.condition, "holds": r.holds, "note": r.note}
                for r in reports
            ],
        }
        click.echo(json.dumps(doc, indent=2))
        return
    click.echo(f"group:    {g.source or g.order}")
    click.echo(f"genus:    {cg.label}  ({cg.basis})")
    if cg.witness:
        click.echo(f"          witness: {cg.witness}")
    click.echo(f"crosscap: {cc.label}  ({cc.basis})")
    if cc.witness:
        click.echo(f"          witness: {cc.witness}")
    for r in reports:
        click.echo(f"condition {r.condition}: {'holds' if r.holds else 'fails'}")


# -- verify / catalog -------------------------------------------------------


@main.group()
def verify():
    """Check classifications against computed genus/crosscap."""


@verify.command("group")
@click.argument("spec")
@click.option("--budget", type=click.IntRange(min=0), default=None, help=_BUDGET_HELP)
@click.option("--seed", type=int, default=None)
def verify_group_cmd(spec, budget, seed):
    g = _load_group(spec)
    try:
        record = verify_group(g, _budget(budget, seed), name=spec)
    except NotNilpotentError as exc:
        raise InputError(f"not nilpotent: {exc}")
    _, table = export_report([record])
    click.echo(table)
    if record.status == "contradiction":
        sys.exit(1)


@verify.command("sweep")
@click.option("--max-order", type=click.IntRange(1, MAX_CATALOG_ORDER), default=100)
@click.option("--budget", type=click.IntRange(min=0), default=None, help=_BUDGET_HELP)
@click.option("--seed", type=int, default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
def verify_sweep_cmd(max_order, budget, seed, report_path):
    records, summary = verify_sweep(max_order, _budget(budget, seed))
    doc, table = export_report(records)
    click.echo(table)
    click.echo(
        f"total {summary.total}: {summary.consistent} consistent,"
        f" {summary.contradictions} contradictions, {summary.inconclusive} inconclusive"
    )
    if report_path:
        _write(report_path, doc)
        click.echo(f"report written to {report_path}")
    if not summary.ok:
        sys.exit(1)


@main.group()
def catalog():
    """The built-in group catalog."""


@catalog.command("list")
@click.option("--max-order", type=click.IntRange(1, MAX_CATALOG_ORDER), default=MAX_CATALOG_ORDER)
def catalog_list(max_order):
    """List catalog groups up to the given order."""
    for entry in builtin_catalog(max_order):
        click.echo(f"{entry.order:>4}  {entry.name}")


if __name__ == "__main__":
    main()
