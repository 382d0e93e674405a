"""Span tracing of wipcast's layers from outside the package.

Nothing under ``src/`` is instrumented. Instead :class:`Tracer` rebinds the
module attributes (and a few ``StoryIndex`` methods) that name each layer's
public entry points, and substitutes ``wipcast.cli.build_embedder`` and
``build_backend`` so embedder and chat calls go through traced proxies. Every
module that imported a function by name gets the wrapper, so calls between
modules are seen wherever they happen.

Per-row helpers (``wip_event``, ``parse_timestamp``, ``story_from_dict``,
``StoryIndex.add`` ...) are deliberately left alone: they run hundreds of
thousands of times per operation and their spans would dominate the overhead.

Spans are kept in memory and written out at the end. Each records name,
start, end, parent and thread. A span opened on a pool thread with nothing
open on that thread is parented to the innermost span open on the thread that
installed the tracer, which is the thread that submitted the work.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from time import perf_counter

# (module, attribute) -> span name. Functions are looked up in their defining
# module and rebound in every wipcast module that holds the same object.
FUNCTIONS = {
    ("eventlog", "parse_xes"): "eventlog.parse_xes",
    ("eventlog", "parse_csv"): "eventlog.parse_csv",
    ("eventlog", "validate"): "eventlog.validate",
    ("wipseries", "build_wip_series"): "wipseries.build_wip_series",
    ("wipseries", "export_wip_csv"): "wipseries.export_wip_csv",
    ("wipseries", "load_wip_csv"): "wipseries.load_wip_csv",
    ("narrative", "render_query_story"): "narrative.render_query_story",
    ("narrative", "render_contextual_story"): "narrative.render_contextual_story",
    ("narrative", "render_windowed_story"): "narrative.render_windowed_story",
    ("narrative", "write_stories_jsonl"): "narrative.write_stories_jsonl",
    ("narrative", "read_stories_jsonl"): "narrative.read_stories_jsonl",
    ("memory", "save_index"): "memory.save_index",
    ("memory", "load_index"): "memory.load_index",
    ("agents", "predictor_predict"): "agents.predictor_predict",
    ("agents", "trend_analyze"): "agents.trend_analyze",
    ("agents", "fuse"): "agents.fuse",
    ("evaluation", "rolling_forecast"): "evaluation.rolling_forecast",
    ("evaluation", "persistence_baseline"): "evaluation.persistence_baseline",
    ("evaluation", "summarize"): "evaluation.summarize",
    ("evaluation", "emit_report"): "evaluation.emit_report",
    ("cli", "cmd_ingest"): "cli.ingest",
    ("cli", "cmd_stories"): "cli.stories",
    ("cli", "cmd_index"): "cli.index",
    ("cli", "cmd_forecast"): "cli.forecast",
    ("cli", "cmd_evaluate"): "cli.evaluate",
}

METHODS = {
    "add_story": "memory.add_story",
    "retrieve": "memory.retrieve",
    "documents": "memory.documents",
}


def _size(_args, result):
    return len(result)


def _series_days(_args, result):
    return len(result.events)


def _index_size(args, _result):
    return len(args[0])


# span name -> function of (positional arguments, result) giving the span's size.
SIZES = {
    "eventlog.parse_xes": _size,
    "eventlog.parse_csv": _size,
    "wipseries.build_wip_series": _series_days,
    "memory.load_index": _size,
    "memory.retrieve": _index_size,
}


# A span is a list: [name, start, end, parent span or None, thread id, size,
# raised, fusion mode asked, fusion mode used].
NAME, START, END, PARENT, THREAD, SIZE, RAISED, MODE_ASKED, MODE_USED = range(9)


class Tracer:
    """Collects spans; :meth:`install` wraps the layers, :meth:`uninstall` restores them."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._main_thread = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        size = SIZES.get(name)
        signature = inspect.signature(fn) if name == "agents.fuse" else None
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span = [name, 0.0, 0.0, parent, threading.get_ident(),
                    None, False, None, None]
            stack.append(span)
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if size is not None:
                span[SIZE] = size(args, result)
            if signature is not None:
                span[MODE_ASKED] = signature.bind(*args, **kwargs).arguments.get("mode", "rules")
                span[MODE_USED] = result.mode
            return result

        return traced

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "wipcast" and not mod_name.startswith("wipcast."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self, wipcast_pkg) -> None:
        modules = {name: sys.modules[f"{wipcast_pkg.__name__}.{name}"]
                   for name in ("eventlog", "wipseries", "narrative", "memory",
                                "agents", "evaluation", "cli")}
        for (mod, attr), name in FUNCTIONS.items():
            original = getattr(modules[mod], attr)
            self._rebind(original, self.wrap(name, original))
        index_cls = modules["memory"].StoryIndex
        for attr, name in METHODS.items():
            original = index_cls.__dict__[attr]
            self._restore.append((index_cls, attr, original))
            setattr(index_cls, attr, self.wrap(name, original))
        cli = modules["cli"]
        build_embedder, build_backend = cli.build_embedder, cli.build_backend
        tracer = self

        def traced_embedder(cfg):
            inner = build_embedder(cfg)
            return _Proxy(inner, {
                "embed": tracer.wrap("memory.embed", inner.embed),
                "embed_many": tracer.wrap("memory.embed_many", inner.embed_many)})

        def traced_backend(cfg):
            inner = build_backend(cfg)
            return _Proxy(inner, {"chat": tracer.wrap("llm.chat", inner.chat)})

        for attr, value in (("build_embedder", traced_embedder),
                            ("build_backend", traced_backend)):
            self._restore.append((cli, attr, getattr(cli, attr)))
            setattr(cli, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write_jsonl(self, path: str) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                fh.write(json.dumps({
                    "id": i, "name": span[NAME], "start": span[START], "end": span[END],
                    "parent": None if parent is None else ids[id(parent)],
                    "thread": span[THREAD], "size": span[SIZE], "raised": span[RAISED],
                }) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_table(spans) -> dict[str, dict]:
    """Per span name: calls, busy_s, self_s, raised, size_sum.

    busy_s sums span durations, across threads, so spans on the predictor
    pool can add up to more than wall time. self_s subtracts from each span
    the part of its interval that its child spans cover (their union, since
    children on pool threads overlap each other).
    """
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(id(span[PARENT]), []).append((span[START], span[END]))
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                            "raised": 0, "size_sum": 0})
        duration = span[END] - span[START]
        row["calls"] += 1
        row["busy_s"] += duration
        row["self_s"] += duration - _covered(children.get(id(span), ()),
                                             span[START], span[END])
        row["raised"] += span[RAISED]
        row["size_sum"] += span[SIZE] or 0
    return table


class _Proxy:
    """Forwards everything to ``inner``; the given methods replace its own."""

    def __init__(self, inner, methods):
        self._inner = inner
        self.__dict__.update(methods)

    def __getattr__(self, name):
        return getattr(self._inner, name)
