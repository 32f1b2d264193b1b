"""Span tracing from outside the program.

The traced run wraps the public functions of each layer, from this
file only: nothing in ``repro`` is edited and nothing is registered in
``repro.obs``.  A wrapper records a span only while a timed operation
is open, so set-up and the untimed churn between operations cost
nothing and count nothing.

Spans nest strictly (one thread, synchronous calls), so a span's self
time is its duration minus the durations of its direct children.  Each
timed operation is a root span named after its path; its children's
self times are summed per path and compared with the root's duration,
which is the traced end-to-end figure of that path.

Spans live in this process's memory.  Per-layer totals are accumulated
as spans close; raw spans are kept only for the first
``KEEP_OPS`` operations of each path and written out as Chrome
trace-event JSON (open it at https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

perf = time.perf_counter
#: Operations per path whose raw spans are kept for the trace file.
KEEP_OPS = 2

#: The after-hook of a wrapper: (tracer, args, result, before value).
After = Callable[["Tracer", tuple, Any, Any], None]


class Tracer:
    """Nested spans, self times per span name, and counters."""

    def __init__(self) -> None:
        #: Open spans: [name, start, child seconds, span id].
        self._stack: List[List[Any]] = []
        self.path: Optional[str] = None
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Calls not nested in a span of the same name (one RSA
        #: operation per outermost sign call, for instance).
        self.outer_calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        #: Per path: root durations, summed self times of the spans
        #: under the roots, and operation count.
        self.figure_s: Dict[str, float] = defaultdict(float)
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        self.ops: Dict[str, int] = defaultdict(int)
        self.events: List[Dict[str, Any]] = []
        self._epoch = perf()
        self._next_id = 0
        self._keep = False
        self._originals: List[Tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def begin(self, path: str) -> None:
        """Open the root span of one timed operation on ``path``."""
        if self._stack:
            raise RuntimeError(f"operation {path} opened inside a span")
        self.path = path
        self._keep = self.ops[path] < KEEP_OPS
        self._enter(path)

    def end(self) -> float:
        """Close the root span; returns its duration (the figure)."""
        path = self.path
        assert path is not None and len(self._stack) == 1
        duration, _self = self._exit()
        self.figure_s[path] += duration
        self.ops[path] += 1
        self.path = None
        return duration

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, perf(), 0.0, self._next_id])

    def _exit(self) -> Tuple[float, float]:
        end = perf()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        own = duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            self.self_s[name] += own
            self.calls[name] += 1
            if parent[0] != name:
                self.total_s[name] += duration
                self.outer_calls[name] += 1
            assert self.path is not None
            self.layer_self_s[self.path] += own
            parent_id = parent[3]
        else:
            parent_id = 0
        if self._keep:
            self.events.append({
                "name": name, "cat": name.rsplit(".", 1)[0], "ph": "X",
                "ts": round((start - self._epoch) * 1e6, 3),
                "dur": round(duration * 1e6, 3), "pid": 1, "tid": 1,
                "args": {"id": span_id, "parent": parent_id,
                         "op": f"{self.path}#{self.ops[self.path]}",
                         "self_us": round(own * 1e6, 3)}})
        return duration, own

    # -- counters ----------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        if self.path is not None:
            self.counts[name] += n

    def high_water(self, name: str, value: float) -> None:
        if self.path is not None and value > self.maxima[name]:
            self.maxima[name] = value

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: Optional[str],
             before: Optional[Callable[[tuple], Any]] = None,
             after: Optional[After] = None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``owner`` is a module or a class; class- and static methods
        keep their kind.  With ``name=None`` the wrapper only runs the
        hooks (a counter without a span).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod,
                                             staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.path is None:
                return fn(*args, **kwargs)
            seen = before(args) if before is not None else None
            if name is None:
                result = fn(*args, **kwargs)
            else:
                tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit()
            if after is not None:
                after(tracer, args, result, seen)
            return result

        self._originals.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def unwrap_all(self) -> None:
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------

    def write_chrome_trace(self, path: str, meta: Dict[str, Any]) -> int:
        """Write the kept spans as Chrome trace-event JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self.events,
                       "displayTimeUnit": "ms", "otherData": meta}, fh)
        return len(self.events)
