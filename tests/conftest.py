from __future__ import annotations

from collections import Counter

import pytest

from diffgenus import groups as gr


@pytest.fixture(scope="session")
def q8():
    return gr.build_group("Q8")


@pytest.fixture(scope="session")
def d8():
    return gr.build_group("D8")


@pytest.fixture(scope="session")
def z12():
    return gr.build_group("Z12")


@pytest.fixture(scope="session")
def s3():
    """Symmetric group on 3 points as an ingested-style table (identity 0)."""
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    index = {p: i for i, p in enumerate(perms)}
    mult = [[index[compose(p, q)] for q in perms] for p in perms]
    return gr.GroupTable(mult, source="S3")


@pytest.fixture
def planning_calls(monkeypatch):
    """Counter of the calls `diffgenus.genus` makes to each planning step,
    keyed by (step, checksum of the graph it was given)."""
    from diffgenus import genus

    calls = Counter()

    def spying(name, original):
        def spy(g, *args, **kwargs):
            calls[name, g.checksum()] += 1
            return original(g, *args, **kwargs)
        return spy

    for name in ("is_planar", "euler_lower_bound", "bipartite_subgraph_bound", "block_decomposition",
                 "_triangle_count"):
        monkeypatch.setattr(genus, name, spying(name, getattr(genus, name)))
    return calls
