import hashlib
import json

import pytest
from click.testing import CliRunner

from graphs import complete_bipartite
from diffgenus import genus
from diffgenus.catalog import builtin_catalog
from diffgenus.cli import main
from diffgenus.embeddings import certificate_to_json
from diffgenus.graphio import write_edgelist
from diffgenus.simplegraph import SimpleGraph


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def test_group_build_and_ingest(tmp_path):
    result = run("group", "build", "Z6")
    assert result.exit_code == 0
    table = tmp_path / "z6.tbl"
    table.write_text(result.output)
    result = run("group", "ingest", str(table))
    assert result.exit_code == 0
    assert "valid group of order 6" in result.output


def _data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("#")]


def test_group_ingest_reads_a_table_saved_with_a_byte_order_mark(tmp_path):
    table = run("group", "build", "Z6").output
    path = tmp_path / "z6.tbl"
    path.write_text(table, encoding="utf-8-sig")
    result = run("group", "ingest", str(path))
    assert result.exit_code == 0, result.output
    assert _data_lines(result.output) == _data_lines(table)


def test_genus_compute_reads_an_edge_list_saved_with_a_byte_order_mark(tmp_path):
    el = run("graph", "build", "--kind", "difference", "Z12").output
    plain, marked = tmp_path / "d12.el", tmp_path / "d12-bom.el"
    plain.write_text(el)
    marked.write_text(el, encoding="utf-8-sig")
    expected = run("genus", "compute", str(plain))
    result = run("genus", "compute", str(marked))
    assert result.exit_code == 0, result.output
    assert result.output == expected.output


def test_group_info():
    result = run("group", "info", "Q8 x Z3")
    assert result.exit_code == 0
    assert "order:    24" in result.output
    assert "nilpotent: yes" in result.output
    assert "maximal cyclic subgroups: 3" in result.output


def test_group_info_rejects_garbage():
    result = run("group", "info", "FOO99")
    assert result.exit_code != 0


def test_group_info_on_a_directory_is_input_error(tmp_path):
    result = run("group", "info", str(tmp_path))
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output


def test_genus_verify_on_a_certificate_directory_is_input_error(tmp_path):
    path = tmp_path / "d20.el"
    path.write_text(run("graph", "build", "--kind", "difference", "Z20").output)
    result = run("genus", "verify", str(path), str(tmp_path))
    assert result.exit_code == 2, result.output
    assert "bad certificate file" in result.output


@pytest.mark.parametrize(
    "command",
    [("verify", "sweep", "--max-order", "4", "--report"), ("genus", "compute", "{graph}", "--cert"),
     ("graph", "reduce", "{graph}", "--log")],
    ids=["sweep-report", "compute-cert", "reduce-log"],
)
def test_an_output_path_that_is_a_directory_is_input_error(tmp_path, command):
    graph = tmp_path / "k5.el"
    graph.write_text(write_edgelist(SimpleGraph.complete(5)))
    result = run(*(arg.format(graph=graph) for arg in command), str(tmp_path))
    assert result.exit_code == 2, result.output
    assert "Is a directory" in result.output


def test_graph_build_difference_edgelist():
    result = run("graph", "build", "--kind", "difference", "Z12")
    assert result.exit_code == 0
    header = result.output.splitlines()[0].split()
    assert header == ["7", "10"]


def test_graph_build_dot():
    result = run("graph", "build", "--kind", "power", "--out", "dot", "Z4")
    assert result.exit_code == 0
    assert result.output.startswith("graph G {")


def test_graph_build_output_is_pinned():
    """Every catalog group up to order 60, each graph kind in both formats:
    the digest was taken while graphs kept one neighbour set per vertex,
    and the bytes must not move."""
    h = hashlib.sha256()
    for entry in builtin_catalog(60):
        for kind in ("power", "enhanced", "difference"):
            for fmt in ("edgelist", "dot"):
                result = run("graph", "build", "--kind", kind, "--out", fmt, entry.name)
                assert result.exit_code == 0, (entry.name, kind, fmt, result.output)
                h.update(result.output.encode())
    assert h.hexdigest() == "2677ee01770d7e3a3d8ab36778f2b961f3a95bbf7ea1c18a6dc7a9fd898ae525"


def test_graph_reduce(tmp_path):
    el = run("graph", "build", "--kind", "difference", "Z18").output
    path = tmp_path / "d18.el"
    path.write_text(el)
    log_path = tmp_path / "log.json"
    result = run("graph", "reduce", str(path), "--log", str(log_path))
    assert result.exit_code == 0
    assert result.output.splitlines()[0].split() == ["9", "18"]
    log = json.loads(log_path.read_text())
    leaves = [step for step in log["steps"] if step[0] == "removed_degree_one"]
    assert leaves and all(len(step) == 3 for step in leaves)


def test_genus_compute_and_verify(tmp_path):
    el = run("graph", "build", "--kind", "difference", "Z20").output
    path = tmp_path / "d20.el"
    path.write_text(el)
    cert = tmp_path / "cert.json"
    result = run("genus", "compute", str(path), "--surface", "o", "--exact", "--cert", str(cert))
    assert result.exit_code == 0
    assert "genus: 1 (exact)" in result.output
    result = run("genus", "verify", str(path), str(cert))
    assert result.exit_code == 0
    assert "certificate valid" in result.output


def test_genus_verify_reads_a_certificate_saved_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "d20.el"
    path.write_text(run("graph", "build", "--kind", "difference", "Z20").output)
    cert = tmp_path / "cert.json"
    assert run("genus", "compute", str(path), "--cert", str(cert)).exit_code == 0
    cert.write_text(cert.read_text(), encoding="utf-8-sig")
    assert cert.read_bytes().startswith(b"\xef\xbb\xbf")
    result = run("genus", "verify", str(path), str(cert))
    assert result.exit_code == 0, result.output
    assert "certificate valid: orientable 1" in result.output


@pytest.mark.parametrize("edge", ["-1 0", "0 3"])
def test_genus_compute_on_an_out_of_range_endpoint_is_input_error(tmp_path, edge):
    path = tmp_path / "range.el"
    path.write_text(f"3 1\n{edge}\n")
    result = run("genus", "compute", str(path))
    assert result.exit_code == 2, result.output
    assert "out of range" in result.output


def test_genus_compute_on_a_repeated_edge_is_input_error(tmp_path):
    path = tmp_path / "dup.el"
    path.write_text("3 2\n0 1\n1 0\n")
    result = run("genus", "compute", str(path))
    assert result.exit_code == 2, result.output
    assert "repeated edge 1 0" in result.output


def test_genus_compute_on_a_negative_edge_count_is_input_error(tmp_path):
    path = tmp_path / "neg.el"
    path.write_text("3 -1\n")
    result = run("genus", "compute", str(path))
    assert result.exit_code == 2, result.output
    assert "negative edge count -1" in result.output


@pytest.mark.parametrize(
    "command",
    [("genus", "compute", "{graph}"), ("verify", "group", "Z20"), ("verify", "sweep", "--max-order", "4")],
    ids=["compute", "group", "sweep"],
)
def test_a_negative_budget_is_input_error(tmp_path, command):
    graph = tmp_path / "k5.el"
    graph.write_text(write_edgelist(SimpleGraph.complete(5)))
    result = run(*(arg.format(graph=graph) for arg in command), "--budget", "-3")
    assert result.exit_code == 2, result.output
    assert "--budget" in result.output
    result = run(*(arg.format(graph=graph) for arg in command), "--budget", "0")
    assert result.exit_code == 0, result.output


def test_genus_compute_certifies_a_bracket(tmp_path, monkeypatch):
    # one nonplanar piece carries the upper end, so the scheme of its
    # restart phase comes with the bracket; the face-set pass, which
    # settles this crosscap, is off, and 100 nodes a restart hit 18, below
    # the neighbour-order scheme's 28, but not 8
    monkeypatch.setattr(genus, "_FACE_NODE_CAP", 0)
    path = tmp_path / "d24.el"
    path.write_text(run("graph", "build", "--kind", "difference", "Z24").output)
    cert = tmp_path / "cert.json"
    result = run("genus", "compute", str(path), "--surface", "n", "--budget", "100", "--cert", str(cert))
    assert result.exit_code == 0, result.output
    assert "crosscap: in [8, 18]" in result.output
    result = run("genus", "verify", str(path), str(cert))
    assert result.exit_code == 0
    assert "certificate valid: nonorientable 18" in result.output


def test_genus_compute_settles_the_z24_crosscap(tmp_path):
    # the component reduces to one block, so it is its own piece: the
    # search starts from the component's Euler bound 8 and hits there
    path = tmp_path / "d24.el"
    path.write_text(run("graph", "build", "--kind", "difference", "Z24").output)
    cert = tmp_path / "cert.json"
    result = run("genus", "compute", str(path), "--surface", "n", "--cert", str(cert))
    assert result.exit_code == 0, result.output
    assert "crosscap: 8 (exact)" in result.output
    assert "piece 0: exact 8 [nonplanar; euler bound 8; lower bound 8; face-set certificate at 8]" in result.output
    assert "excludes" not in result.output
    result = run("genus", "verify", str(path), str(cert))
    assert result.exit_code == 0
    assert "certificate valid: nonorientable 8" in result.output


@pytest.mark.parametrize("surface", ["o", "n"])
def test_genus_verify_binds_a_direct_certificate_to_the_reduction(tmp_path, surface):
    # K3,3 with a pendant edge and a subdivided edge: the face-set search
    # runs on its homeomorphic reduction, K3,3, and so does the certificate
    k33 = complete_bipartite(3, 3)
    u, v = k33.edges()[0]
    g = SimpleGraph(8, [*k33.edges()[1:], (u, 6), (6, v), (0, 7)])
    res = genus.exact_genus(g) if surface == "o" else genus.exact_crosscap(g)
    assert res.exact and res.value == 1
    assert res.certificate_graph.checksum() == k33.checksum() != g.checksum()
    path, cert = tmp_path / "g.el", tmp_path / "cert.json"
    path.write_text(write_edgelist(g))
    cert.write_text(certificate_to_json(res.certificate, res.surface, res.value))
    result = run("genus", "verify", str(path), str(cert))
    assert result.exit_code == 0, result.output
    assert f"certificate valid: {res.surface} 1 (on the reduced graph)" in result.output


def test_genus_verify_rejects_wrong_graph(tmp_path):
    el20 = run("graph", "build", "--kind", "difference", "Z20").output
    el18 = run("graph", "build", "--kind", "difference", "Z18").output
    p20, p18 = tmp_path / "a.el", tmp_path / "b.el"
    p20.write_text(el20)
    p18.write_text(el18)
    cert = tmp_path / "cert.json"
    assert run("genus", "compute", str(p20), "--cert", str(cert)).exit_code == 0
    result = run("genus", "verify", str(p18), str(cert))
    assert result.exit_code == 2


def test_genus_verify_rejects_tampered_claim(tmp_path):
    el = run("graph", "build", "--kind", "difference", "Z20").output
    path = tmp_path / "d20.el"
    path.write_text(el)
    cert = tmp_path / "cert.json"
    assert run("genus", "compute", str(path), "--cert", str(cert)).exit_code == 0
    doc = json.loads(cert.read_text())
    doc["genus"] = 0
    cert.write_text(json.dumps(doc))
    result = run("genus", "verify", str(path), str(cert))
    assert result.exit_code == 1
    assert "INVALID" in result.output


def _drop_last_rotation(doc):
    doc["rotations"].pop()


def _add_rotation(doc):
    doc["rotations"].append([0])


def _sign_as_list(doc):
    e = doc["signs"][0]
    doc["signs"][0] = [e["u"], e["v"], e["s"]]


def _sign_without_s(doc):
    del doc["signs"][0]["s"]


def _unknown_surface(doc):
    doc["surface"] = "torus"


def _sign_for_a_non_edge(doc):
    # every edge keeps its own sign, so the faces alone would still verify
    rotations = doc["rotations"]
    v = next(w for w in range(1, len(rotations)) if w not in rotations[0])
    doc["signs"].append({"u": 0, "v": v, "s": 1})


def _set(*path, value):
    """A damage that puts `value` at `path` in the certificate document."""

    def damage(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value

    return pytest.param(damage, id=f"{'.'.join(map(str, path))}={json.dumps(value)}")


@pytest.mark.parametrize(
    "damage",
    [_drop_last_rotation, _add_rotation, _sign_as_list, _sign_without_s, _unknown_surface, _sign_for_a_non_edge,
     # certificate numbers are JSON integers, never cast
     _set("genus", value=1.7), _set("genus", value=True), _set("genus", value="2"), _set("genus", value=-1),
     _set("signs", 0, "s", value=True), _set("signs", 0, "s", value=2.5), _set("signs", 0, "u", value="0"),
     _set("rotations", 0, 0, value=1.0), _set("rotations", 0, 0, value=True), _set("seed", value=True),
     _set("seed", value=0.5)],
)
def test_genus_verify_malformed_certificate_is_input_error(tmp_path, damage):
    # the checksum still matches the graph, so only the shape is wrong
    path = tmp_path / "d20.el"
    path.write_text(run("graph", "build", "--kind", "difference", "Z20").output)
    cert = tmp_path / "cert.json"
    assert run("genus", "compute", str(path), "--cert", str(cert)).exit_code == 0
    doc = json.loads(cert.read_text())
    damage(doc)
    cert.write_text(json.dumps(doc))
    result = run("genus", "verify", str(path), str(cert))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip()


def test_classify_text_and_json():
    result = run("classify", "Z18")
    assert result.exit_code == 0
    assert "genus:    1" in result.output
    assert "crosscap: 2" in result.output
    result = run("classify", "Q8 x Z3", "--json")
    doc = json.loads(result.output)
    assert doc["genus"]["class"] == "2"
    assert doc["crosscap"]["class"] == "GE3"
    assert [c["holds"] for c in doc["conditions"]] == [False, False, True]


def test_classify_lists_conditions_only_with_a_sylow_2_subgroup():
    """Z1 has no Sylow 2-subgroup and lists no conditions; Z2's fails all
    three, as its exponent is 2."""
    result = run("classify", "Z1")
    assert result.exit_code == 0 and "condition" not in result.output
    assert json.loads(run("classify", "Z1", "--json").output)["conditions"] == []
    result = run("classify", "Z2")
    assert result.exit_code == 0
    assert [line for line in result.output.splitlines() if line.startswith("condition")] == [
        "condition C1: fails", "condition C2: fails", "condition C3: fails",
    ]
    conditions = json.loads(run("classify", "Z2", "--json").output)["conditions"]
    assert [(c["condition"], c["holds"]) for c in conditions] == [("C1", False), ("C2", False), ("C3", False)]


def test_classify_non_nilpotent_is_input_error(tmp_path):
    # S3's table: not nilpotent
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    index = {p: i for i, p in enumerate(perms)}
    lines = ["6"]
    for p in perms:
        lines.append(" ".join(str(index[compose(p, q)]) for q in perms))
    path = tmp_path / "s3.tbl"
    path.write_text("\n".join(lines) + "\n")
    result = run("classify", str(path))
    assert result.exit_code != 0
    assert "not nilpotent" in result.output


def test_verify_group_cmd():
    result = run("verify", "group", "Z20")
    assert result.exit_code == 0
    assert "consistent" in result.output


def test_verify_sweep_cmd(tmp_path):
    report = tmp_path / "report.json"
    result = run("verify", "sweep", "--max-order", "14", "--report", str(report))
    assert result.exit_code == 0
    assert "contradictions: 0" in result.output
    records = json.loads(report.read_text())
    assert all(r["status"] == "consistent" for r in records)


def test_catalog_list_cmd():
    result = run("catalog", "list", "--max-order", "16")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert any("Z2 x Z2 x Z3" in line for line in lines)
    assert all(int(line.split()[0]) <= 16 for line in lines)


@pytest.mark.parametrize("command", [("catalog", "list"), ("verify", "sweep")])
def test_max_order_past_the_catalog_is_input_error(command):
    result = run(*command, "--max-order", "201")
    assert result.exit_code == 2, result.output
    assert "201" in result.output


@pytest.mark.parametrize("command", [("catalog", "list"), ("verify", "sweep")])
@pytest.mark.parametrize("max_order", ["0", "-3"])
def test_max_order_below_one_is_input_error(command, max_order):
    result = run(*command, "--max-order", max_order)
    assert result.exit_code == 2, result.output
    assert "--max-order" in result.output
    assert "contradictions" not in result.output


def test_genus_compute_on_a_repeated_label_line_is_input_error(tmp_path):
    path = tmp_path / "labels.el"
    path.write_text("3 2\n0 1\n1 2\n0 5 2\n0 6 2\n")
    result = run("genus", "compute", str(path))
    assert result.exit_code == 2, result.output
    assert "repeated label line for vertex 0" in result.output


def test_verify_group_cmd_on_a_p_group():
    result = run("verify", "group", "Z8")
    assert result.exit_code == 0, result.output
    assert "0/0 consistent" in result.output
