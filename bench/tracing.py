"""Spans around the public functions and methods of a set of modules.

A span is ``[name, start, end, parent, query]``: the wrapped callable's
name, ``time.perf_counter`` readings at entry and exit, the index of the
span that was open when it started (-1 for none) and the query id, which
the span named ``query_span`` advances on entry.  Spans are kept in memory
and written out by the caller once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time


class Tracer:
    """Wraps callables in place while installed; restores them on uninstall."""

    def __init__(self, modules, query_span: str):
        self.modules = modules
        self.query_span = query_span
        self.spans: list = []
        self.query = -1
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        tracer, spans, stack = self, self.spans, self._stack
        clock = time.perf_counter
        starts_query = name == self.query_span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_query:
                tracer.query += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.query]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and every public method of a public
        class defined in the modules, then rebind the names under which the
        modules import each other's functions, so that the wrappers see
        every call.  Span names are ``<module>.<function>`` and
        ``<module>.<Class>.<method>``."""
        wrapped = {}
        for module in self.modules:
            prefix = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{prefix}.{attr}", obj)
                elif inspect.isclass(obj):
                    for name, member in list(vars(obj).items()):
                        if (name.startswith("_") or not inspect.isfunction(member)
                                or getattr(member, "__isabstractmethod__", False)):
                            continue
                        self._patch(obj, name, self._wrap(
                            f"{prefix}.{obj.__name__}.{name}", member))
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        """Return the spans recorded so far and start afresh."""
        spans = self.spans[:]
        del self.spans[:]
        self.query = -1
        return spans


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def write_jsonl(path, rounds, header: dict) -> None:
    """A header object, then one JSON array per span:
    ``[round, name, start, end, parent, query]``, parent indexing the spans
    of the same round; ``rounds`` is a list of span lists."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({**header, "fields": [
            "round", "name", "start", "end", "parent", "query"]}) + "\n")
        for number, spans in enumerate(rounds):
            for span in spans:
                fh.write(json.dumps([number, *span]) + "\n")
