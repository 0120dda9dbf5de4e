"""The benchmark's workloads: inputs made from a seed, the timed calls into
diffgenus, and the checks on their outputs.

Each workload has `prepare()` (untimed, once per run), `items()` (fresh
inputs for one pass, untimed), `run(item)` (the timed calls) and
`check(item, output)`, which returns what is wrong with an output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Any

import numpy as np

import reference
from diffgenus import catalog, classify, embeddings, genus, groupgraphs, groups, harness
from diffgenus.simplegraph import SimpleGraph


@dataclass
class Item:
    id: str
    inputs: Any


# Every catalog group up to this order: the paper's verification run, cut
# so that a run holds several passes. Up to order 40 one pass takes about
# 2 s on a 2-core Xeon, half of it the annealing heuristic on Z28; up to
# order 100 it takes about 20 s, so a run could time it only once.
SWEEP_MAX_ORDER = 40
# The search seed of `diffgenus verify sweep`. The sweep's time moves by
# about a third between search seeds (19 s to 30 s over seeds 0-3 up to
# order 100), far beyond the 0.25 bound on pass_vs_ref, so the run seed only
# orders the groups.
SWEEP_SEARCH_SEED = 0


class Sweep:
    """harness.verify_group on every catalog group of order <= 40."""

    name = "sweep"
    setup_modules = ("diffgenus.catalog", "diffgenus.harness")
    setup_catalog = True

    def __init__(self, seed: int):
        self.seed = seed
        self.budget = genus.SearchBudget(seed=SWEEP_SEARCH_SEED)
        self.entries: list[catalog.CatalogEntry] = []

    def prepare(self) -> None:
        self.entries = catalog.builtin_catalog(SWEEP_MAX_ORDER)
        random.Random(self.seed).shuffle(self.entries)

    def items(self) -> list[Item]:
        # fresh tables, so no pass reuses what an earlier pass cached on them
        return [
            Item(e.name, groups.GroupTable(e.group.rows(), names=e.group.names, source=e.group.source))
            for e in self.entries
        ]

    def run(self, item: Item) -> harness.ClassificationRecord:
        return harness.verify_group(item.inputs, self.budget, name=item.id)

    def check(self, item: Item, record: harness.ClassificationRecord) -> list[str]:
        problems = []
        if record.status != harness.CONSISTENT:
            problems.append(f"status {record.status}")
        pairs = ((record.predicted_genus, record.computed_genus),
                 (record.predicted_crosscap, record.computed_crosscap))
        for predicted, result in pairs:
            if result is None:
                problems.append("no computed result")
                continue
            if predicted.value < classify.GE3 and not result.exact:
                problems.append(f"{result.surface}: exact value {predicted.value} not reached")
            problems += _certificate_problems(result, result.lower if result.exact else result.upper)
        return problems


def _certificate_problems(result: genus.GenusResult, value) -> list[str]:
    if result.certificate is None:
        return []
    if result.certificate_graph is None or value is None:
        return [f"{result.surface}: certificate without graph or value"]
    if not embeddings.verify_certificate(result.certificate_graph, result.certificate, result.surface, value):
        return [f"{result.surface}: certificate does not verify at {value}"]
    return []


def _petersen() -> tuple[int, list[tuple[int, int]]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, outer + spokes + inner


def _complete(n: int) -> tuple[int, list[tuple[int, int]]]:
    return n, list(combinations(range(n), 2))


def _bipartite(m: int, n: int) -> tuple[int, list[tuple[int, int]]]:
    return m + n, [(a, m + b) for a in range(m) for b in range(n)]


def _k33_pair() -> tuple[int, list[tuple[int, int]]]:
    """Two K3,3 sharing vertex 0: genus 2 by additivity over blocks, while
    the Euler bound gives only 1, so the search must run to completion."""
    first = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
    second = [(a, b) for a in (0, 6, 7) for b in (8, 9, 10)]
    return 11, first + second


O, N = genus.ORIENTABLE, genus.NONORIENTABLE

# Shapes (vertices, edges) of the random graphs, so every seed draws the
# same mix of sizes; each graph's configuration space stays under the cap,
# far below the default exhaustive cap, so every search takes 0.03-0.15 s
# and the draw moves a pass's time little from seed to seed. Larger shapes
# such as (6, 11) range from 0.3 s to 1.2 s a graph.
RANDOM_SHAPES = ((6, 10), (7, 11))
RANDOM_PER_SHAPE = 8
RANDOM_CONFIG_CAP = 10_000


class Exhaustive:
    """exact_genus / exact_crosscap with no heuristic restarts, so the
    branch-and-bound decides every item. An item is one graph searched on
    one surface; each graph is searched on every surface listed for it."""

    name = "exhaustive"
    setup_modules = ("diffgenus.genus",)
    setup_catalog = False

    def __init__(self, seed: int):
        self.seed = seed
        self.budget = genus.SearchBudget(restarts=0)
        # id -> (n, edges, {surface: value known without diffgenus})
        self.graphs: dict[str, tuple[int, list[tuple[int, int]], dict[str, int]]] = {}

    def prepare(self) -> None:
        ref = reference
        self.graphs = {
            "K3,3": (*_bipartite(3, 3), {O: ref.bipartite_genus(3, 3), N: ref.bipartite_crosscap(3, 3)}),
            "K3,4": (*_bipartite(3, 4), {O: ref.bipartite_genus(3, 4), N: ref.bipartite_crosscap(3, 4)}),
            "K5": (*_complete(5), {O: ref.complete_genus(5), N: ref.complete_crosscap(5)}),
            "K3,5": (*_bipartite(3, 5), {O: ref.bipartite_genus(3, 5)}),
            "K4,4": (*_bipartite(4, 4), {O: ref.bipartite_genus(4, 4)}),
            "K3,3+K3,3": (*_k33_pair(), {O: 2 * ref.bipartite_genus(3, 3)}),
        }
        n, edges = _petersen()
        self.graphs["Petersen"] = (n, edges, self._brute_force(n, edges))
        rng = random.Random(self.seed)
        for n, m in RANDOM_SHAPES:
            for k in range(RANDOM_PER_SHAPE):
                edges = _random_nonplanar(rng, n, m)
                self.graphs[f"G({n},{m})#{k}"] = (n, edges, self._brute_force(n, edges))

    @staticmethod
    def _brute_force(n: int, edges: list[tuple[int, int]]) -> dict[str, int]:
        if not reference.is_nonplanar(n, edges):
            raise ValueError("the brute-force answers assume a nonplanar graph")
        return {
            O: reference.brute_force_surface(n, edges, nonorientable=False, known_lower=1),
            N: reference.brute_force_surface(n, edges, nonorientable=True, known_lower=1),
        }

    def items(self) -> list[Item]:
        return [
            Item(f"{name} {surface}", (SimpleGraph(n, edges), surface, want))
            for name, (n, edges, answers) in self.graphs.items()
            for surface, want in answers.items()
        ]

    def run(self, item: Item) -> genus.GenusResult:
        graph, surface, _ = item.inputs
        search = genus.exact_genus if surface == O else genus.exact_crosscap
        return search(graph, self.budget)

    def check(self, item: Item, result: genus.GenusResult) -> list[str]:
        _, surface, want = item.inputs
        problems = []
        if not result.exact:
            problems.append(f"bracket [{result.lower}, {result.upper}]")
        elif result.lower != want:
            problems.append(f"{result.lower}, expected {want}")
        elif result.certificate is None:
            problems.append("exact value without certificate")
        return problems + _certificate_problems(result, result.lower)


def _random_nonplanar(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    pairs = list(combinations(range(n), 2))
    while True:
        edges = sorted(rng.sample(pairs, m))
        if not reference.is_connected(n, edges) or not reference.is_nonplanar(n, edges):
            continue
        configs = reference.rotation_count(n, edges) // 2 * ((1 << (m - n + 1)) - 1)
        if configs <= RANDOM_CONFIG_CAP:
            return edges


# Each pass builds three groups of each order: a 2-group of order 16 times an
# odd part of order 5, 9 or 15 (80, 144 and 240 elements), about 0.5 s a
# pass on a 2-core Xeon. Fixing the orders keeps a pass's work alike across
# seeds; the seed picks the structures and the relabellings. Tables above
# groups.FULL_ASSOC_CHECK_MAX (256) take a sampled associativity check of a
# fixed million samples in Python, about 2.5 s for each of build and ingest,
# whatever the order; no workload times them, because items that long vary
# with host contention by a third between runs even at their fastest.
TABLE_TWO_PARTS = (
    "Z16", "Z8 x Z2", "Z4 x Z4", "Z4 x Z2 x Z2", "Z2 x Z2 x Z2 x Z2",
    "D16", "Q16", "SD16", "D8 x Z2", "Q8 x Z2",
)
TABLE_ODD_PARTS = (("Z5",), ("Z9", "Z3 x Z3"), ("Z15", "Z3 x Z5"))
TABLE_PER_ORDER = 3


class Tables:
    """build_group, ingest_table on a relabelled copy, group_isomorphic
    between the two and difference_graph, for groups of order 80-240."""

    name = "tables"
    setup_modules = ("diffgenus.groups", "diffgenus.groupgraphs")
    setup_catalog = False

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs: list[tuple[str, str]] = []  # (descriptor, relabelled table text)

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        for odd_parts in TABLE_ODD_PARTS:
            for _ in range(TABLE_PER_ORDER):
                descriptor = f"{rng.choice(TABLE_TWO_PARTS)} x {rng.choice(odd_parts)}"
                table = reference.group_table(descriptor)
                perm = np.random.default_rng(rng.randrange(2**32)).permutation(len(table))
                self.inputs.append((descriptor, reference.relabelled_table_text(table, perm)))

    def items(self) -> list[Item]:
        # the same descriptor may be drawn twice, with another relabelling
        return [Item(f"{d} #{k}", (d, text)) for k, (d, text) in enumerate(self.inputs)]

    def run(self, item: Item) -> dict:
        descriptor, text = item.inputs
        built = groups.build_group(descriptor)
        ingested = groups.ingest_table(text, source="relabelled")
        found, mapping = groups.group_isomorphic(built, ingested, cap=built.order)
        graph = groupgraphs.difference_graph(built)
        return {"built": built, "ingested": ingested, "found": found, "mapping": mapping, "graph": graph}

    def check(self, item: Item, out: dict) -> list[str]:
        problems = []
        built, ingested = out["built"], out["ingested"]
        if not out["found"]:
            problems.append("relabelled table not found isomorphic")
        elif not reference.is_isomorphism(built.rows(), ingested.rows(), out["mapping"]):
            problems.append("returned mapping is not an isomorphism")
        graph = out["graph"].graph
        vertices, edges = reference.difference_graph_edges(built.rows())
        elements = [out["graph"].element_of(v) for v in range(graph.n)]
        if set(elements) != vertices or len(elements) != len(vertices):
            problems.append("difference graph vertex set differs from the definition")
        if {tuple(sorted((elements[u], elements[v]))) for u, v in graph.edges()} != edges:
            problems.append("difference graph edge set differs from the definition")
        return problems


WORKLOADS = {w.name: w for w in (Sweep, Exhaustive, Tables)}
