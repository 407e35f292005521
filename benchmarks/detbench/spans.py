"""Spans around the calls the benchmark makes into detbag layers.

A span records name, start, end and item id; its parent is the span that
encloses it, recovered from the intervals after the pass (one thread, so
spans nest). Names are `<module>.<function>` of the detbag call they wrap.
With tracing off, `Tracer.wrap` hands back the function itself and
`Tracer.count` does nothing, so an untraced pass runs exactly the calls a
user would make.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Span and counter recorder for one pass; off by default."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.item = None  # id stamped on each span: "prelude", int, "finalize"
        self.spans: list = []  # (name, start, end, item, calls) in completion order
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, fn, name: str):
        """fn itself when off; otherwise fn recording one span per call.
        The clock reads sit next to the call so the span holds as little of
        the recorder's own cost as possible."""
        if not self.enabled:
            return fn
        spans, clock = self.spans, time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, clock(), self.item, 1))

        return traced

    def span(self, name: str, calls: int = 1):
        """Context manager recording one span that stands for `calls` calls
        made in a tight loop, where a span per call would cost more than the
        call; a no-op when off."""
        return _Span(self, name, calls) if self.enabled else contextlib.nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def nested(self) -> list:
        """Spans in start order as (name, start, end, item, calls, parent
        index)."""
        ordered = sorted(self.spans, key=lambda s: (s[1], -s[2]))
        out, open_ = [], []  # open_: indices of spans enclosing the cursor
        for span in ordered:
            while open_ and out[open_[-1]][2] <= span[1]:
                open_.pop()
            out.append((*span, open_[-1] if open_ else -1))
            open_.append(len(out) - 1)
        return out

    def summary(self) -> dict:
        """Per-name calls, busy time (summed duration) and self time
        (duration minus the time its child spans cover), plus counters and
        the summed top-level span time per item."""
        spans = self.nested()
        child_time = [0.0] * len(spans)
        for _name, start, end, _item, _calls, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        top: dict = defaultdict(float)
        for i, (name, start, end, item, n, parent) in enumerate(spans):
            calls[name] += n
            busy[name] += end - start
            self_s[name] += end - start - child_time[i]
            if parent < 0:
                top[item] += end - start
        return {"calls": dict(calls), "busy_s": dict(busy), "self_s": dict(self_s),
                "counts": dict(self.counts), "top_level_s": dict(top)}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, item, calls, parent) in enumerate(self.nested()):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item, "calls": calls})
                         + "\n")
            for name, n in sorted(self.counts.items()):
                fh.write(json.dumps({"counter": name, "value": n}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "calls", "start")

    def __init__(self, tracer: Tracer, name: str, calls: int):
        self.tracer, self.name, self.calls = tracer, name, calls

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr.spans.append((self.name, self.start, end, tr.item, self.calls))
        return False
