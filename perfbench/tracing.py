"""Spans around the server's layers, recorded from outside ``src/``.

The server launcher (:mod:`serve`) calls :func:`install` before the
server starts.  It replaces public functions and methods with wrappers
by patching module and class attributes; no file under ``src/`` is
edited.  Each wrapper records one span: name, start, end, its own id,
its parent's id, and the id of the request it belongs to (the id of the
outermost span on the thread).  Spans stay in memory until the run
ends and are then written out in one piece.

Whether a request is traced is decided once, at its outermost span, so
a request is either wholly traced or not at all.  In slice mode the
decision alternates with wall-clock time (off, on, off, ...), which
lets one run measure the tracing overhead against its own untraced
slices.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
from time import perf_counter_ns, thread_time_ns

__all__ = ["PATCHES", "Tracer", "install", "analyse"]

#: (module, attribute path, span name).  Functions imported by name
#: into a module are patched where they are looked up, not where they
#: are defined.
PATCHES = (
    ("repro.server.app", "ModelRepositoryApp.handle", "app.handle"),
    ("repro.server.telemetry", "ServerTelemetry.begin", "telemetry.begin"),
    ("repro.server.telemetry", "ServerTelemetry.finish",
     "telemetry.finish"),
    ("repro.server.store", "ModelStore.put", "store.put"),
    ("repro.server.store", "parse_xml", "store.parse"),
    ("repro.server.store", "xsd_validate", "store.validate"),
    ("repro.server.store", "document_to_model", "store.to_model"),
    ("repro.server.cache", "SiteCache.entry", "cache.entry"),
    ("repro.server.cache", "SiteCache._attempt", "cache.build"),
    ("repro.server.cache", "_build_variant", "cache.build_variant"),
    ("repro.server.cache", "republish_incremental",
     "incremental.republish"),
    ("repro.server.cache", "check_site", "linkcheck.check"),
    ("repro.server.cache", "publish_multi_page", "publisher.publish"),
    ("repro.server.cache", "publish_single_page", "publisher.publish"),
    # The structural-edit fallback inside republish_incremental.
    ("repro.web.incremental", "publish_with_index", "publisher.publish"),
    ("repro.server.app", "parse_query", "olap.parse"),
    ("repro.server.app", "resolve_query", "olap.resolve"),
    ("repro.olap.service.service", "OlapService.execute", "olap.execute"),
    ("repro.olap.engine", "CubeEngine.execute", "olap.engine"),
    ("repro.olap.service.service", "synthesize_star", "olap.datagen"),
    ("repro.olap.service.service", "render_json", "olap.render_json"),
    ("repro.olap.service.service", "render_xml", "olap.render_xml"),
)


def _republish_note(result) -> dict:
    info = result[2]
    return {"pages_rebuilt": info["pages_rebuilt"],
            "pages_reused": info["pages_reused"]}


#: Span name → function of the wrapped call's return value, whose dict
#: is kept on the span.
NOTES = {"incremental.republish": _republish_note}

#: Spans that also note their thread's CPU time (``cpu_ns``), which
#: unlike the span's duration excludes waits for the interpreter lock.
CPU_SPANS = ("app.handle",)


class Tracer:
    """Thread-aware span recorder with an off / on / sliced switch."""

    def __init__(self) -> None:
        self.enabled = False
        self.slice_start_ns = 0
        self.slice_ns = 0
        #: (name, start_ns, end_ns, span_id, parent_id, request_id,
        #: note dict or None)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_slices(self, start_ns: int, slice_ns: int) -> None:
        """Trace requests that begin in odd slices after *start_ns*."""
        self.slice_start_ns = start_ns
        self.slice_ns = slice_ns

    def _trace_new_request(self) -> bool:
        if self.slice_ns:
            offset = perf_counter_ns() - self.slice_start_ns
            return offset >= 0 and (offset // self.slice_ns) % 2 == 1
        return self.enabled

    def wrap(self, name: str, fn):
        tracer = self
        note = NOTES.get(name)
        cpu = name in CPU_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent_id, request_id = stack[-1]
                if request_id == 0:  # inside an untraced request
                    return fn(*args, **kwargs)
            elif not tracer._trace_new_request():
                stack.append((0, 0))
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            else:
                parent_id = 0
                request_id = None
            span_id = next(tracer._ids)
            if request_id is None:
                request_id = span_id
            stack.append((span_id, request_id))
            extra = None
            cpu_start = thread_time_ns() if cpu else 0
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    extra = note(result)
                return result
            finally:
                end = perf_counter_ns()
                if cpu:
                    extra = {"cpu_ns": thread_time_ns() - cpu_start}
                stack.pop()
                tracer.spans.append((name, start, end, span_id, parent_id,
                                     request_id, extra))

        return traced


def install(tracer: Tracer) -> None:
    """Patch every entry of :data:`PATCHES` to record into *tracer*."""
    for module_name, attribute, span_name in PATCHES:
        owner = importlib.import_module(module_name)
        *parents, leaf = attribute.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if isinstance(owner, type) \
            else getattr(owner, leaf)
        setattr(owner, leaf, tracer.wrap(span_name, original))


def analyse(spans: list, keep=None) -> dict:
    """Per-name durations, self times and per-request sums (in ns).

    *keep*, when given, is called with the start of each request's
    outermost span and keeps the request's spans when it returns true.
    A span's self time is its duration minus the durations of its
    direct children.
    """
    request_start = {span[5]: span[1] for span in spans
                     if span[3] == span[5]}
    if keep is not None:
        spans = [span for span in spans
                 if keep(request_start.get(span[5], span[1]))]
    child_time: dict[int, int] = {}
    for _name, start, end, _sid, parent, _rid, _note in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0) + (end - start)
    by_name: dict[str, dict] = {}
    for name, start, end, span_id, _p, request_id, note in spans:
        entry = by_name.setdefault(name, {
            "durations": [], "selfs": [], "notes": [], "per_request": {}})
        duration = end - start
        entry["durations"].append(duration)
        entry["selfs"].append(duration - child_time.get(span_id, 0))
        entry["per_request"][request_id] = \
            entry["per_request"].get(request_id, 0) + duration
        if note is not None:
            entry["notes"].append(note)
    return by_name


def table(by_name: dict) -> list[str]:
    """The per-layer span table, one line per span name."""
    lines = [f"{'span':<24}{'calls':>7}{'total_ms':>11}{'p50_us':>11}"
             f"{'self_ms':>11}{'self_p50_us':>13}"]
    for name in sorted(by_name):
        entry = by_name[name]
        lines.append(
            f"{name:<24}{len(entry['durations']):>7}"
            f"{sum(entry['durations']) / 1e6:>11.2f}"
            f"{statistics.median(entry['durations']) / 1e3:>11.1f}"
            f"{sum(entry['selfs']) / 1e6:>11.2f}"
            f"{statistics.median(entry['selfs']) / 1e3:>13.1f}")
    return lines
