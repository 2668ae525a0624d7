"""In-memory spans around the serving stack's public entry points.

The benchmark never edits the program to trace it: :meth:`Tracer.wrap`
replaces a public method *on the instance the benchmark holds* (a
``ModelServer``, an ``InferenceEngine``, a ``Pipeline``, a
``ClusterRouter``) with a wrapper that records one span per call. Spans
live in a list until the run ends, then :meth:`Tracer.write_chrome`
dumps them as Chrome trace-event JSON, which Perfetto and
``chrome://tracing`` open with no extra dependency.

A span is ``(id, name, start, end, parent, rid, thread, args)``. The
parent is the innermost open span on the same thread; ``rid`` is the
benchmark's operation index, set by the load generator around each
submit so every span a request causes on the generator thread carries it.

The untraced run uses :class:`NullTracer`, whose methods do nothing, so
the measured path holds no wrappers at all.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class NullTracer:
    """Tracing off: no wrappers, no spans."""

    @contextmanager
    def span(self, name: str, **args):
        yield

    def wrap(self, obj, method: str, name: str,
             args_fn: Optional[Callable] = None) -> None:
        return None

    def set_rid(self, rid: Optional[int]) -> None:
        return None


class Tracer(NullTracer):
    """Records spans in memory; thread safe under the interpreter lock
    (``list.append`` and ``next(itertools.count())`` are atomic)."""

    def __init__(self):
        self.clock = time.perf_counter
        self.epoch = self.clock()
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_rid(self, rid: Optional[int]) -> None:
        self._local.rid = rid

    @contextmanager
    def span(self, name: str, **args):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        rid = getattr(self._local, "rid", None)
        stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, rid,
                               threading.get_ident(), args))

    def wrap(self, obj, method: str, name: str,
             args_fn: Optional[Callable] = None) -> None:
        """Shadow ``obj.method`` with a span-recording wrapper.

        ``args_fn(*call_args)`` may return a dict stored with the span
        (e.g. the batch size of an engine call). The wrapper inlines
        :meth:`span` because it runs once per request.
        """
        original = getattr(obj, method)
        clock, spans, ids = self.clock, self.spans, self._ids
        local = self._local          # per-thread attributes
        get_ident = threading.get_ident

        def traced(*call_args, **call_kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            args = args_fn(*call_args) if args_fn is not None else {}
            start = clock()
            try:
                return original(*call_args, **call_kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent,
                              getattr(local, "rid", None), get_ident(),
                              args))

        setattr(obj, method, traced)

    # ------------------------------------------------------------------
    def select(self, name: str, window: Optional[tuple] = None) -> list:
        """Spans named ``name``, optionally only those starting inside
        ``window = (start, end)``."""
        return [span for span in self.spans if span[1] == name
                and (window is None
                     or window[0] <= span[2] <= window[1])]

    def write_chrome(self, path: str) -> int:
        """Write every span as a Chrome ``X`` (complete) event; returns
        the number of events written."""
        threads: Dict[int, int] = {}
        events = []
        pid = os.getpid()
        for span_id, name, start, end, parent, rid, thread, args in \
                sorted(self.spans, key=lambda span: span[2]):
            tid = threads.setdefault(thread, len(threads) + 1)
            event_args = {"id": span_id, "parent": parent, **args}
            if rid is not None:
                event_args["rid"] = rid
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": round((start - self.epoch) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid, "tid": tid, "args": event_args})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
        return len(events)
