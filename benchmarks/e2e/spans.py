"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the calls into
each layer of ``repro`` (nothing under ``src/`` knows about them).  Each
span carries a name, start, end (``time.monotonic`` seconds, which on
Linux is one system-wide clock, so parent and child stamps compare), the
id of the span that caused it, and the run id; spans stay in memory and
are written out once, when the run ends.  A span whose ``attrs`` carry
``"synth": true`` was not observed directly but laid out from a measured
duration (a ``Stopwatch`` lap delta, a ``StepRecord.wall_seconds``).

A disabled recorder hands out ``nullcontext`` and wraps nothing, so the
untraced run executes the same harness code with no recording cost.
"""

from __future__ import annotations

import contextlib
import time


class Recorder:
    def __init__(self, run_id: str, *, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @property
    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def add(self, name: str, start: float, end: float,
            parent: int | None, **attrs) -> int:
        """Record a finished span; returns its id."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": start, "end": end, "parent": parent,
                           "run": self.run_id, "attrs": attrs})
        return len(self.spans) - 1

    def span(self, name: str, **attrs):
        """Context manager timing its body as a child of the open span.

        Yields the span's ``attrs`` dict so the body can attach counters
        read at the same boundary.
        """
        if not self.enabled:
            return contextlib.nullcontext(attrs)
        return self._span(name, attrs)

    @contextlib.contextmanager
    def _span(self, name: str, attrs: dict):
        sid = self.add(name, time.monotonic(), float("nan"), self.current,
                       **attrs)
        self._stack.append(sid)
        try:
            yield self.spans[sid]["attrs"]
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.monotonic()

    def wrap_method(self, obj, method: str, name: str,
                    describe=None) -> None:
        """Record every ``obj.method(...)`` call as a span named ``name``
        (instance-level wrapper; the class is left alone).

        ``describe(args, result) -> dict`` adds attributes read at the
        call boundary (counts the callee reports, input sizes).
        """
        if not self.enabled:
            return
        inner = getattr(obj, method)

        def traced(*args, **kwargs):
            with self._span(name, {}) as attrs:
                result = inner(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, result))
                return result

        setattr(obj, method, traced)


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, total duration and self time
    (duration minus the part covered by child spans), in seconds."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"],
                               {"count": 0, "total_s": 0.0, "self_s": 0.0})
        duration = s["end"] - s["start"]
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(s["id"], 0.0)
    return table
