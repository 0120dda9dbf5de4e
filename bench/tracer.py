"""Spans recorded around calls into the package, from outside it.

A Tracer replaces chosen module functions with wrappers that record one span
per call: name, start, end, the enclosing span and the current item id.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from types import ModuleType
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

Observer = Optional[Callable[[Any], float]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    item: Optional[str]
    value: Optional[float] = None  # what the observer saw in the result

    def to_json_dict(self) -> dict:
        return asdict(self)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item: Optional[str] = None
        self._open: list[int] = []
        self._patched: list[tuple[ModuleType, str, Callable]] = []

    def wrap(self, name: str, fn: Callable, observe: Observer = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.item)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    span.value = float(observe(result))
                return result
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        return traced

    @contextmanager
    def installed(
        self, modules: Iterable[ModuleType], targets: Mapping[str, Observer]
    ) -> Iterator["Tracer"]:
        """Wrap each target ("module.function", module named by its last
        dotted part) in every given module that holds the same function
        object, including modules that imported it by name. Everything is
        put back on exit, also when the body raises."""
        modules = list(modules)
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        try:
            for name, observe in targets.items():
                module_name, _, fn_name = name.partition(".")
                original = getattr(by_name[module_name], fn_name)
                wrapper = self.wrap(name, original, observe)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
            yield self
        finally:
            while self._patched:
                module, attr, original = self._patched.pop()
                setattr(module, attr, original)


def concat(*span_lists: list[Span]) -> list[Span]:
    """One list of spans from several tracers, parents re-indexed."""
    out: list[Span] = []
    for spans in span_lists:
        offset = len(out)
        out += [replace(s, parent=s.parent + offset if s.parent >= 0 else -1) for s in spans]
    return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list[Span], names: Iterable[str]) -> dict[str, float]:
    """`<name>.calls`, `.total_s` and `.self_s` for every name. total_s counts
    a recursive call once, at its outermost span."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for i, span in enumerate(spans):
        if f"{span.name}.calls" not in out:
            continue
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += selfs[i]
        if not _inside(spans, i, span.name):
            out[f"{span.name}.total_s"] += span.end - span.start
    return out


def _inside(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def observed(spans: list[Span], name: str) -> list[float]:
    return [s.value for s in spans if s.name == name and s.value is not None]
