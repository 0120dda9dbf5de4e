"""Benchmark for diffgenus: times calls into the package's public functions
from outside, checks every output, and prints the metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py): `sweep`, `exhaustive`, `tables`. Each run is
one process running a closed loop: one caller, the next item starts when the
previous one returns. With `--trace 0` it times at least MIN_PASSES passes
over the workload's items, and more while the next pass still ends within
`--seconds`, with a fixed reference timed between the items, and prints the
end-to-end metrics. With `--trace 1` it runs one untraced pass and two
traced passes, and prints the per-layer metrics of the first traced pass
(plus the traced set-up); the two traced passes must repeat every call count
exactly.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Item details, the
environment and the spans go to `.bench_results/` under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

MIN_PASSES = 3
REF_SLOTS = 8
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
CATALOG_ORDER = 200
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
TAIL_MIN_BEYOND = 10
LIBRARY_MODULES = (
    "groups", "catalog", "groupgraphs", "classify",
    "simplegraph", "genus", "embeddings", "harness",
)

# Measured in a fresh interpreter: import what the workload calls and, for
# the sweep, build the catalog the program caches for the process.
SETUP_CHILD = """
import importlib, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
for name in sys.argv[3:]:
    importlib.import_module(name)
if int(sys.argv[2]):
    importlib.import_module("diffgenus.catalog").builtin_catalog(int(sys.argv[2]))
print(time.perf_counter() - start)
"""

TRACED = {
    "groups.build_group": None,
    "groups.ingest_table": None,
    "groups.group_isomorphic": lambda r: r[0],
    "groups.maximal_cyclic_subgroups": None,
    "groups.sylow_decomposition": None,
    "catalog.builtin_catalog": None,
    "groupgraphs.difference_graph": lambda r: r.graph.edge_count,
    "classify.classify_genus": None,
    "classify.classify_crosscap": None,
    "simplegraph.induced_subgraph": None,
    "simplegraph.reduce_homeomorphic": None,
    "simplegraph.block_decomposition": None,
    "simplegraph.girth_and_bipartite": None,
    "genus.genus_of_graph": None,
    "genus.exact_genus": None,
    "genus.exact_crosscap": None,
    "genus.is_planar": lambda r: not r.planar,
    "genus.euler_lower_bound": None,
    "genus.bipartite_subgraph_bound": None,
    "genus.heuristic_embedding": lambda r: r is not None,
    "embeddings.trace_faces": None,
    "embeddings.make_scheme": None,
    "harness.verify_group": None,
}

# name -> (wrapped function whose observed values it summarizes, summary)
RATIOS = {
    "genus.is_planar.nonplanar_share": ("genus.is_planar", "mean"),
    "genus.heuristic_embedding.hit_share": ("genus.heuristic_embedding", "mean"),
    "groups.group_isomorphic.found_share": ("groups.group_isomorphic", "mean"),
    "groupgraphs.difference_graph.edges": ("groupgraphs.difference_graph", "sum"),
}
SETUP_LAYERS = ("groups.build_group", "groups.group_isomorphic")


@dataclass
class ItemResult:
    id: str
    seconds: float
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    wall_s: float
    items: list[ItemResult]


# ---------------------------------------------------------------------------
# Statistics


def tail_percentile(count: int):
    """The highest of TAIL_PERCENTILES that leaves at least TAIL_MIN_BEYOND
    of `count` samples above it (nearest rank), or None."""
    for q in TAIL_PERCENTILES:
        if count - math.ceil(q * count / 100) >= TAIL_MIN_BEYOND:
            return q
    return None


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def count_failures(items: list[ItemResult]) -> tuple[int, int]:
    """(attempted, failed): an item fails when anything was wrong with it."""
    return len(items), sum(1 for item in items if item.problems)


def fastest_pass(passes: list[Pass]) -> float:
    """One pass with every item at its fastest of the run: the sum over
    items of each item's least time over the passes."""
    best: dict[str, float] = {}
    for p in passes:
        for item in p.items:
            best[item.id] = min(best.get(item.id, math.inf), item.seconds)
    return sum(best.values())


def fastest_reference(refs: list[list[float]]) -> float:
    """The same for the reference units: the sum over slots of each slot's
    least time over the passes."""
    return sum(min(slot) for slot in zip(*refs))


def ratio_metrics(spans: list[tracer.Span]) -> dict[str, float]:
    out = {}
    for name, (source, how) in RATIOS.items():
        values = tracer.observed(spans, source)
        total = sum(values)
        out[name] = total if how == "sum" else (total / len(values) if values else 0.0)
    return out


# ---------------------------------------------------------------------------
# Running


def reference_unit() -> int:
    """Fixed pure-Python work that shares no code with diffgenus: integer
    arithmetic, dict updates, tuples and a sort, like the package's own
    inner loops. Its time tracks how fast the host runs Python right now."""
    counts: dict[int, int] = {}
    pairs = []
    for i in range(24_000):
        key = (i * 7919) % 251
        counts[key] = counts.get(key, 0) + 1
        pairs.append((key, i & 15))
    pairs.sort()
    return len(counts) + pairs[-1][1]


def run_pass(workload, active=None, refs=None):
    """One timed pass. Returns the wall time and (item, seconds, output,
    error) per item; outputs are checked later, outside any tracing. With a
    list `refs`, REF_SLOTS reference units are timed between the items,
    spread evenly over the pass, and their times appended to it."""
    items = workload.items()
    done = []
    start = time.perf_counter()
    for i, item in enumerate(items):
        if active is not None:
            active.item = item.id
        began = time.perf_counter()
        try:
            output, error = workload.run(item), None
        except Exception as exc:  # a raising item is a failed item, not a crash
            output, error = None, f"raised {type(exc).__name__}: {exc}"
        done.append((item, time.perf_counter() - began, output, error))
        if refs is not None and (i + 1) * REF_SLOTS // len(items) > i * REF_SLOTS // len(items):
            began = time.perf_counter()
            reference_unit()
            refs.append(time.perf_counter() - began)
    return time.perf_counter() - start, done


def checked(workload, wall: float, done) -> Pass:
    results = []
    for item, seconds, output, error in done:
        if error is not None:
            problems = [error]
        else:
            try:
                problems = workload.check(item, output)
            except Exception as exc:  # a check that cannot run fails the item
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        results.append(ItemResult(item.id, seconds, problems))
    return Pass(wall, results)


def program_setup(workload) -> None:
    if workload.setup_catalog:
        importlib.import_module("diffgenus.catalog").builtin_catalog(CATALOG_ORDER)


def measure_setup(workload, src: Path) -> float:
    """The set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CHILD, str(src),
         str(CATALOG_ORDER if workload.setup_catalog else 0), *workload.setup_modules],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


def untraced_run(workload, seconds: float, src: Path):
    program_setup(workload)
    workload.prepare()
    setup, passes, refs = [], [], []
    start = time.perf_counter()
    wall = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - start + wall <= seconds:
        # SETUP_SAMPLES set-ups spread evenly over the run, so that a slow
        # phase of the host shorter than the run does not set all of them
        if len(setup) < 1 + (SETUP_SAMPLES - 1) * (time.perf_counter() - start) / seconds:
            setup.append(measure_setup(workload, src))
        refs.append([])
        wall, done = run_pass(workload, refs=refs[-1])
        passes.append(checked(workload, wall, done))
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(workload, src))
    items = [item for p in passes for item in p.items]
    times = [item.seconds for item in items]
    attempted, failed = count_failures(items)
    q = tail_percentile(len(times))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_vs_ref": (fastest_pass(passes) / fastest_reference(refs), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "passes": len(passes),
        "pass_s": fastest_pass(passes),
        "ref_s": fastest_reference(refs),
        "pass_wall_s": [p.wall_s for p in passes],
        "items": len(times),
        "setup_samples_s": setup,
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_tail_ms": None if q is None else {"percentile": q, "value": nearest_rank(times, q) * 1e3},
        "fail_share": failed / attempted,
    }
    return metrics, notes, passes, None


def traced_run(workload):
    modules = [importlib.import_module(f"diffgenus.{name}") for name in LIBRARY_MODULES]
    setup_tracer = tracer.Tracer()
    setup_tracer.item = "setup"
    with setup_tracer.installed(modules, TRACED):
        program_setup(workload)
    workload.prepare()
    wall, done = run_pass(workload)
    passes = [checked(workload, wall, done)]
    tracers = []
    for _ in range(2):
        active = tracer.Tracer()
        with active.installed(modules, TRACED):
            wall, done = run_pass(workload, active)
        passes.append(checked(workload, wall, done))
        tracers.append(active)

    names = list(TRACED)
    counts = [
        {k: v for k, v in tracer.layer_metrics(t.spans, names).items() if k.endswith(".calls")}
        | ratio_metrics(t.spans)
        for t in tracers
    ]
    repeat_problem = None
    if counts[0] != counts[1]:
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        repeat_problem = f"traced passes differ in {', '.join(differ)}"

    spans = tracer.concat(setup_tracer.spans, tracers[0].spans)
    metrics = {}
    for name, value in tracer.layer_metrics(spans, names).items():
        metrics[name] = (value, "count" if name.endswith(".calls") else "s")
    for name, value in ratio_metrics(spans).items():
        metrics[name] = (value, "count" if name.endswith(".edges") else "ratio")
    setup_layers = tracer.layer_metrics(setup_tracer.spans, SETUP_LAYERS)
    for name in SETUP_LAYERS:
        metrics[f"setup.{name}.self_s"] = (setup_layers[f"{name}.self_s"], "s")
    traced_wall = statistics.mean(p.wall_s for p in passes[1:])
    metrics["trace.overhead_share"] = (traced_wall / passes[0].wall_s - 1, "ratio")
    notes = {
        "passes": len(passes),
        "untraced_wall_s": passes[0].wall_s,
        "traced_wall_s": [p.wall_s for p in passes[1:]],
        "spans": [s.to_json_dict() for s in spans],
    }
    return metrics, notes, passes, repeat_problem


# ---------------------------------------------------------------------------
# Environment


def environment(root: Path, src: Path) -> dict:
    import networkx
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_hash(src),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path):
    """HEAD's commit when the root is a git checkout, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_hash(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "exhaustive", "tables"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "diffgenus" / "__init__.py").is_file():
        print(f"bench: no diffgenus sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(1, str(src))
    import diffgenus

    if Path(diffgenus.__file__).resolve().parent != (src / "diffgenus").resolve():
        print(f"bench: imported diffgenus from {diffgenus.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, notes, passes, extra_problem = traced_run(workload)
    else:
        metrics, notes, passes, extra_problem = untraced_run(workload, args.seconds, src)

    items = [item for p in passes for item in p.items]
    attempted, failed = count_failures(items)
    env = environment(root, src) | {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }
    report = {
        "environment": env,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "problems": ([extra_problem] if extra_problem else [])
        + [f"{i.id}: {p}" for i in items for p in i.problems],
        **{k: v for k, v in notes.items() if k != "spans"},
        "items": [{"id": i.id, "seconds": i.seconds, "problems": i.problems} for p in passes for i in p.items],
    }
    out_dir = root / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if "spans" in notes:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(notes["spans"]))

    print(f"workload {args.workload}, seed {args.seed}: {notes['passes']} passes, {attempted} items, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    if not args.trace:
        print(f"  {'pass_s':<48} {notes['pass_s']:.6g} s, reference {notes['ref_s']:.6g} s")
        tail = notes["item_tail_ms"]
        tail_text = "undefined (too few items)" if tail is None else f"p{tail['percentile']:g} {tail['value']:.6g} ms"
        print(f"  {'item_p50_ms':<48} {notes['item_p50_ms']:.6g} ms over {notes['items']} items")
        print(f"  {'item_tail_ms':<48} {tail_text} over {notes['items']} items")
        print(f"  {'fail_share':<48} {notes['fail_share']:.6g} ({failed}/{attempted})")
    for problem in report["problems"][:20]:
        print(f"  problem: {problem}")
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0 and extra_problem is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
