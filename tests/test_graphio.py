import pytest

from graphs import complete_bipartite
from diffgenus import groups as gr
from diffgenus.graphio import parse_edgelist, write_dot, write_edgelist
from diffgenus.groupgraphs import difference_graph
from diffgenus.simplegraph import SimpleGraph


def test_edgelist_round_trip_plain():
    g = complete_bipartite(2, 3)
    again = parse_edgelist(write_edgelist(g))
    assert again.n == g.n
    assert again.edges() == g.edges()


def test_edgelist_round_trip_group_labels():
    gg = difference_graph(gr.build_group("Z18"))
    text = write_edgelist(gg.graph)
    again = parse_edgelist(text)
    assert again.edges() == gg.graph.edges()
    assert [tuple(lab) for lab in again.labels] == [tuple(lab) for lab in gg.graph.labels]


def test_edgelist_header_counts():
    g = SimpleGraph(4, [(0, 1), (2, 3)])
    first = write_edgelist(g).splitlines()[0]
    assert first == "4 2"


def test_parse_edgelist_errors():
    with pytest.raises(ValueError):
        parse_edgelist("")
    with pytest.raises(ValueError):
        parse_edgelist("3\n0 1\n")  # header must be "n m"
    with pytest.raises(ValueError):
        parse_edgelist("2 2\n0 1\n")  # missing an edge line


def test_parse_edgelist_rejects_a_repeated_edge():
    with pytest.raises(ValueError, match="repeated edge 1 0"):
        parse_edgelist("3 2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="repeated edge 0 1"):
        parse_edgelist("3 3\n0 1\n1 2\n0 1\n")


@pytest.mark.parametrize("edge", ["-1 0", "0 -1", "3 0", "0 3"])
def test_parse_edgelist_rejects_an_out_of_range_endpoint(edge):
    with pytest.raises(ValueError, match="out of range"):
        parse_edgelist(f"3 1\n{edge}\n")


def test_parse_edgelist_rejects_a_negative_edge_count():
    with pytest.raises(ValueError, match="negative edge count -1"):
        parse_edgelist("3 -1\n")
    with pytest.raises(ValueError, match="negative edge count -2"):
        parse_edgelist("3 -2\n0 0 0\n")


def test_parse_edgelist_rejects_a_repeated_label_line():
    with pytest.raises(ValueError, match="repeated label line for vertex 0"):
        parse_edgelist("3 2\n0 1\n1 2\n0 5 2\n0 6 2\n")
    with pytest.raises(ValueError, match="repeated label line for vertex 2"):
        parse_edgelist("3 0\n2 1 1\n0 0 1\n2 1 1\n")
    g = parse_edgelist("3 0\n2 1 1\n0 0 1\n1 2 2\n")
    assert g.labels == [(0, 1), (2, 2), (1, 1)]


def test_dot_output_mentions_labels():
    gg = difference_graph(gr.build_group("Z12"))
    dot = write_dot(gg.graph)
    assert dot.startswith("graph G {")
    assert "(o=" in dot
    assert dot.count(" -- ") == gg.graph.edge_count
