"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, start, end, parent and counts.  Spans stay in memory
and are written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    """Single-threaded span recorder."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1]["id"] if self._stack else None
        record = {"id": len(self.spans), "name": name, "parent": parent, "counts": {}, "children_s": 0.0}
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1]["children_s"] += record["end"] - record["start"]

    def count(self, name: str, value) -> None:
        """Attach a count to the innermost open span."""
        self._stack[-1]["counts"][name] = value

    def summary(self, factor) -> dict[str, dict]:
        """Per span name: calls, total, self and median milliseconds, and summed counts.

        ``factor(start, end)`` scales each span's times (see ``speed.py``).
        """
        rows: dict[str, dict] = {}
        durations: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            scale = factor(s["start"], s["end"])
            row = rows.setdefault(s["name"], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "counts": defaultdict(int)})
            duration = (s["end"] - s["start"]) * scale * 1e3
            row["calls"] += 1
            row["total_ms"] += duration
            row["self_ms"] += duration - s["children_s"] * scale * 1e3
            durations[s["name"]].append(duration)
            for key, value in s["counts"].items():
                row["counts"][key] += value
        for name, row in rows.items():
            row["median_ms"] = statistics.median(durations[name])
            row["counts"] = dict(row["counts"])
        return rows

    def write(self, path, extra: dict) -> None:
        origin = self.spans[0]["start"] if self.spans else 0.0
        spans = [
            {
                "id": s["id"],
                "name": s["name"],
                "parent": s["parent"],
                "start_ms": (s["start"] - origin) * 1e3,
                "end_ms": (s["end"] - origin) * 1e3,
                "self_ms": (s["end"] - s["start"] - s["children_s"]) * 1e3,
                "counts": s["counts"],
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": spans}, indent=1) + "\n")
