"""Edge-list and DOT serialization for SimpleGraph.

Edge-list format: header "n m", then one "u v" line per edge with 0-based
graph-local ids, then one label line "id element order" per vertex.
"""

from __future__ import annotations

from .simplegraph import SimpleGraph


def write_edgelist(g: SimpleGraph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    for v in range(g.n):
        elem, order = _label_fields(g.labels[v], v)
        lines.append(f"{v} {elem} {order}")
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> SimpleGraph:
    tokens = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens.append(line.split())
    if not tokens:
        raise ValueError("empty edge-list input")
    head = tokens[0]
    if len(head) != 2:
        raise ValueError(f"expected header 'n m', got {' '.join(head)!r}")
    n, m = int(head[0]), int(head[1])
    if m < 0:
        raise ValueError(f"negative edge count {m}")
    if len(tokens) < 1 + m:
        raise ValueError(f"expected {m} edge lines, found {len(tokens) - 1}")
    g = SimpleGraph(n)
    for row in tokens[1 : 1 + m]:
        if len(row) != 2:
            raise ValueError(f"bad edge line {' '.join(row)!r}")
        u, v = int(row[0]), int(row[1])
        if 0 <= u < n and 0 <= v < n and g.has_edge(u, v):
            raise ValueError(f"repeated edge {u} {v}")
        g.add_edge(u, v)
    labels: list = list(range(n))
    labelled = set()
    for row in tokens[1 + m :]:
        if len(row) != 3:
            raise ValueError(f"bad label line {' '.join(row)!r}")
        vid, elem, order = int(row[0]), int(row[1]), int(row[2])
        if not 0 <= vid < n:
            raise ValueError(f"label vertex {vid} out of range")
        if vid in labelled:
            raise ValueError(f"repeated label line for vertex {vid}")
        labelled.add(vid)
        labels[vid] = (elem, order)
    g.labels = labels
    return g


def write_dot(g: SimpleGraph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        elem, order = _label_fields(g.labels[v], v)
        lines.append(f'  {v} [label="{elem} (o={order})"];')
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def _label_fields(label, vertex: int) -> tuple[int, int]:
    if isinstance(label, tuple) and len(label) == 2:
        return int(label[0]), int(label[1])
    if isinstance(label, int):
        return label, 0
    return vertex, 0
