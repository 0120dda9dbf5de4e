import math
from collections import Counter

import oracles
from graphs import assert_sound
from oracles import complete_multipartite_parts, vertex_membership
from diffgenus import groups as gr
from diffgenus.catalog import builtin_catalog
from diffgenus.groupgraphs import difference_graph, enhanced_power_graph, power_graph
from diffgenus.simplegraph import induced_subgraph, reduce_homeomorphic


def _edge_labels(gg):
    lab = gg.graph.labels
    return sorted(
        tuple(sorted((lab[u][0], lab[v][0]))) for u, v in gg.graph.edges()
    )


def test_power_graph_z4_complete():
    gg = power_graph(gr.build_group("Z4"))
    assert gg.graph.n == 4 and gg.graph.edge_count == 6


def test_power_graph_z2z2_star():
    gg = power_graph(gr.build_group("Z2 x Z2"))
    assert _edge_labels(gg) == [(0, 1), (0, 2), (0, 3)]


def test_power_graph_trivial():
    gg = power_graph(gr.build_group("Z1"))
    assert gg.graph.n == 1 and gg.graph.edge_count == 0


def test_enhanced_z12_complete():
    gg = enhanced_power_graph(gr.build_group("Z12"))
    assert gg.graph.edge_count == 12 * 11 // 2


def test_enhanced_equals_power_on_z2z2():
    g = gr.build_group("Z2 x Z2")
    assert _edge_labels(enhanced_power_graph(g)) == _edge_labels(power_graph(g))


def test_enhanced_equals_power_on_p_groups(q8, d8):
    for g in (q8, d8, gr.build_group("Z8"), gr.build_group("Z4 x Z2")):
        assert _edge_labels(enhanced_power_graph(g)) == _edge_labels(power_graph(g))


def test_power_subset_enhanced():
    for desc in ("Z12", "Z18", "Q8 x Z3", "Z4 x Z2 x Z3", "Z2 x Z2 x Z5"):
        g = gr.build_group(desc)
        p = set(_edge_labels(power_graph(g)))
        e = set(_edge_labels(enhanced_power_graph(g)))
        assert p <= e


def test_difference_graph_matches_definition_oracle():
    """On every catalog group up to order 100, each on a fresh table: the
    cyclic subgroups are the elements' spans, each listed once; the element
    orders the spans leave in the table are the spans' sizes; the power
    graph's edges are the power relation; and the difference graph is the
    one built from the definitions."""
    for e in builtin_catalog(100):
        g = gr.GroupTable(e.group.rows(), source=e.name)
        spans = oracles._spans(g)
        subs = gr.cyclic_subgroups(g)
        assert len(subs) == len(set(subs)) and set(subs) == set(spans), e.name
        assert g.orders() == [len(span) for span in spans], e.name
        power = sorted((x, y) for x in range(g.order) for y in range(x + 1, g.order) if y in spans[x] or x in spans[y])
        assert _edge_labels(power_graph(g)) == power, e.name
        want_vertices, want_edges = oracles.brute_force_difference(g)
        gg = difference_graph(g)
        assert sorted(lab[0] for lab in gg.graph.labels) == want_vertices, e.name
        assert _edge_labels(gg) == want_edges, e.name


def test_group_graphs_are_sound():
    """The group graphs read each neighbour set off a bitmask row, with no
    `add_edge` check: every one built from a catalog group up to order 100
    is sound, and its labels are (element, order) pairs."""
    for e in builtin_catalog(100):
        for build in (power_graph, enhanced_power_graph, difference_graph):
            gg = build(e.group)
            assert_sound(gg.graph)
            assert all(e.group.element_order(x) == o for x, o in gg.graph.labels), (e.name, gg.kind)


def test_difference_z12_shape():
    # seven vertices (orders 2,3,3,4,4,6,6), ten edges
    gg = difference_graph(gr.build_group("Z12"))
    assert gg.graph.n == 7
    assert gg.graph.edge_count == 10
    assert sorted(o for _, o in gg.graph.labels) == [2, 3, 3, 4, 4, 6, 6]


def test_difference_p_group_empty(q8):
    for g in (q8, gr.build_group("Z8"), gr.build_group("Z3 x Z3")):
        assert difference_graph(g).graph.n == 0


def test_difference_z2z2z5_is_k34():
    gg = difference_graph(gr.build_group("Z2 x Z2 x Z5"))
    assert complete_multipartite_parts(gg.graph) == [3, 4]


def test_difference_z2z2z7_is_k36():
    gg = difference_graph(gr.build_group("Z2 x Z2 x Z7"))
    assert complete_multipartite_parts(gg.graph) == [3, 6]


def test_difference_z18_reduces_to_k36():
    gg = difference_graph(gr.build_group("Z18"))
    assert gg.graph.n == 11 and gg.graph.edge_count == 20
    reduced, _ = reduce_homeomorphic(gg.graph)
    assert complete_multipartite_parts(reduced) == [3, 6]


def test_difference_z18_induced_on_orders_2_6_9():
    g = gr.build_group("Z18")
    gg = difference_graph(g)
    keep = [v for v, (elem, order) in enumerate(gg.graph.labels) if order in (2, 6, 9)]
    sub = induced_subgraph(gg.graph, keep)
    assert complete_multipartite_parts(sub) == [3, 6]


def test_vertex_membership_matches_graph():
    for desc in ("Z12", "Z18", "Z20", "Z36", "Q8 x Z3", "Z4 x Z2 x Z3",
                 "D8 x Z3", "Z2 x Z2 x Z5", "Q8", "Z30"):
        g = gr.build_group(desc)
        gg = difference_graph(g)
        in_graph = {lab[0] for lab in gg.graph.labels}
        predicted = {x for x in range(g.order) if vertex_membership(g, x)}
        assert predicted == in_graph, desc


def test_vertex_membership_specific_cases():
    z18 = gr.build_group("Z18")
    assert not vertex_membership(z18, 1)  # generator spans the whole group
    order9 = next(x for x in range(18) if z18.element_order(x) == 9)
    assert vertex_membership(z18, order9)
    assert not vertex_membership(z18, 0)  # identity, by convention
    qz3 = gr.build_group("Q8 x Z3")
    order12 = next(x for x in range(24) if qz3.element_order(x) == 12)
    assert not vertex_membership(qz3, order12)


def test_coprime_orders_adjacent():
    for desc in ("Z12", "Q8 x Z3", "Z4 x Z2 x Z3", "Z2 x Z2 x Z5"):
        g = gr.build_group(desc)
        gg = difference_graph(g)
        edges = set(_edge_labels(gg))
        vertices = {lab[0] for lab in gg.graph.labels}
        for x in range(1, g.order):
            for y in range(x + 1, g.order):
                ox, oy = g.element_order(x), g.element_order(y)
                if math.gcd(ox, oy) == 1:
                    assert (x, y) in edges
                    assert x in vertices and y in vertices


def test_sylow_elements_never_adjacent():
    for desc in ("Z12", "Q8 x Z3", "Z36", "Z4 x Z3 x Z3"):
        g = gr.build_group(desc)
        dec = gr.sylow_decomposition(g)
        edges = set(_edge_labels(difference_graph(g)))
        for comp in dec.components:
            members = sorted(comp - {0})
            for i, x in enumerate(members):
                for y in members[i + 1 :]:
                    assert (x, y) not in edges


def test_incomparable_orders_in_common_cyclic_are_adjacent():
    for desc in ("Z12", "Z18", "Z36", "Z44"):
        g = gr.build_group(desc)
        edges = set(_edge_labels(difference_graph(g)))
        subs = gr.cyclic_subgroups(g)
        for s in subs:
            members = sorted(s - {0})
            for i, x in enumerate(members):
                for y in members[i + 1 :]:
                    ox, oy = g.element_order(x), g.element_order(y)
                    if ox % oy and oy % ox:
                        assert (x, y) in edges


def test_prime_part_join_is_complete_multipartite():
    """Induced subgraph on the union of nonidentity Sylow elements is the
    complete multipartite join of the parts."""
    for desc in ("Z12", "Q8 x Z3", "Z30", "Z2 x Z2 x Z5", "Z4 x Z3 x Z3"):
        g = gr.build_group(desc)
        gg = difference_graph(g)
        dec = gr.sylow_decomposition(g)
        index = {lab[0]: v for v, lab in enumerate(gg.graph.labels)}
        keep = []
        sizes = []
        for comp in dec.components:
            part = sorted(comp - {0})
            sizes.append(len(part))
            keep.extend(index[x] for x in part)
        sub = induced_subgraph(gg.graph, keep)
        assert complete_multipartite_parts(sub) == sorted(sizes), desc


def test_prime_exponent_product_is_exactly_complete_bipartite():
    cases = [
        ("Z2 x Z2 x Z5", [3, 4]),
        ("Z2 x Z2 x Z7", [3, 6]),
        ("Z2 x Z2 x Z3 x Z3", [3, 8]),
        ("Z2 x Z3", [1, 2]),
        ("Z2 x Z2 x Z2 x Z3", [2, 7]),
    ]
    for desc, parts in cases:
        gg = difference_graph(gr.build_group(desc))
        assert complete_multipartite_parts(gg.graph) == parts, desc


def test_subgroup_difference_graph_is_induced():
    """For a non-EPPO subgroup H, the difference graph of H is the induced
    subgraph of the parent's difference graph on H's vertex set."""
    cases = [
        ("Z36", "Z18"),   # index-2 cyclic subgroup
        ("Z4 x Z2 x Z3", "Z12"),
        ("Q8 x Z3", "Z12"),
    ]
    for parent_desc, sub_desc in cases:
        parent = gr.build_group(parent_desc)
        target = gr.build_group(sub_desc)
        sub = _find_subgroup_isomorphic_to(parent, target)
        assert sub is not None, (parent_desc, sub_desc)
        h_group, h_elems = oracles.subgroup_table(parent, sub)
        gg_h = difference_graph(h_group)
        h_edges = {
            tuple(sorted((h_elems[gg_h.graph.labels[u][0]], h_elems[gg_h.graph.labels[v][0]])))
            for u, v in gg_h.graph.edges()
        }
        gg = difference_graph(parent)
        index = {lab[0]: v for v, lab in enumerate(gg.graph.labels)}
        h_vertices = {h_elems[lab[0]] for lab in gg_h.graph.labels}
        keep = [index[x] for x in sorted(h_vertices)]
        induced = induced_subgraph(gg.graph, keep)
        induced_edges = {
            tuple(sorted((induced.labels[u][0], induced.labels[v][0])))
            for u, v in induced.edges()
        }
        assert h_edges == induced_edges, (parent_desc, sub_desc)


def _find_subgroup_isomorphic_to(parent, target):
    """Search cyclic-subgroup joins for a subgroup isomorphic to target;
    its member set, or None."""
    from itertools import combinations

    spans = gr.cyclic_subgroups(parent)
    for a, b in combinations(spans, 2):
        members = _closure(parent, a | b)
        if len(members) != target.order:
            continue
        h, _ = oracles.subgroup_table(parent, members)
        if gr.group_isomorphic(h, target)[0]:
            return members
    return None


def _closure(g, seed):
    members = set(seed)
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for y in list(members):
            for z in (g.mult(x, y), g.mult(y, x)):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    return members


def test_identity_always_excluded():
    for desc in ("Z12", "Z18", "Q8 x Z3"):
        gg = difference_graph(gr.build_group(desc))
        assert all(lab[0] != 0 for lab in gg.graph.labels)


def test_labels_carry_orders():
    g = gr.build_group("Z18")
    gg = difference_graph(g)
    for elem, order in gg.graph.labels:
        assert g.element_order(elem) == order


def test_difference_z44_contains_k3_10():
    gg = difference_graph(gr.build_group("Z44"))
    assert oracles.brute_force_has_complete_bipartite(gg.graph, 3, 10)


def test_difference_z28_reduces_to_k36_plus_one_edge():
    gg = difference_graph(gr.build_group("Z28"))
    reduced, _ = reduce_homeomorphic(gg.graph)
    assert reduced.n == 9 and reduced.edge_count == 19
    # dropping the edge between the two order-4 vertices leaves K_{3,6}
    extra = [
        (u, v) for u, v in reduced.edges()
        if reduced.labels[u][1] == 4 and reduced.labels[v][1] == 4
    ]
    assert len(extra) == 1
    u, v = extra[0]
    trimmed = SimpleGraphFromEdges(reduced, drop=(u, v))
    assert complete_multipartite_parts(trimmed) == [3, 6]


def SimpleGraphFromEdges(g, drop):
    from diffgenus.simplegraph import SimpleGraph

    out = SimpleGraph(g.n, [e for e in g.edges() if e != drop], labels=g.labels)
    return out


def test_difference_z18_block_structure():
    from diffgenus.simplegraph import block_decomposition

    gg = difference_graph(gr.build_group("Z18"))
    blocks = block_decomposition(gg.graph)
    sizes = sorted(b.n for b in blocks)
    assert sizes == [2, 2, 9]
    # a cut vertex is a label that lies in two or more blocks
    counts = Counter(label for b in blocks for label in b.labels)
    assert sum(k >= 2 for k in counts.values()) == 1


def test_genus_of_empty_difference_graph(q8):
    from diffgenus.genus import genus_of_graph

    graph = difference_graph(q8).graph
    res = genus_of_graph(graph)
    assert res.exact and res.value == 0
