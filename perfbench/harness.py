"""Shared pieces of the benchmark: statistics, answer checks, spans, output.

Nothing here imports the program under test, so the statistics and the
answer checker can be unit-tested without ``src/`` on the path.
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = fraction * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of no samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: A served workload sets up this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5


def timed_setup(build: Callable[[], Any], discard: Callable[[Any], None]) -> Tuple[Any, float]:
    """Set up ``SETUP_REPEATS`` times; keep the last, discard the others.

    Returns the kept result and the median set-up time in seconds.
    """
    times = []
    kept = None
    for attempt in range(SETUP_REPEATS):
        start = time.perf_counter()
        kept = build()
        times.append(time.perf_counter() - start)
        if attempt < SETUP_REPEATS - 1:
            discard(kept)
    return kept, median(times)


def peak_rss_kb(pid: int) -> int:
    """A live process's peak RSS, from the kernel's process status."""
    try:
        with open("/proc/%d/status" % pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# -- answer checks ------------------------------------------------------------


def canonical(value: Any) -> Any:
    """A hashable, order-free form of a JSON-like value.

    Records become sorted item tuples; lists stay lists (a bag's order is
    handled by :func:`multiset_close`, nested collections compare as
    written); tagged dates (``{"$date": ...}``) become their ISO text.
    """
    if isinstance(value, dict):
        if set(value) == {"$date"}:
            return value["$date"]
        return tuple(sorted((k, canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if hasattr(value, "isoformat"):
        return value.isoformat()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _close(a: Any, b: Any, rel: float, abs_tol: float) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_close(x, y, rel, abs_tol) for x, y in zip(a, b))
    return a == b


def _sort_key(value: Any) -> str:
    """Order rows by their content with floats rounded to 2 decimals."""

    def coarse(v: Any) -> Any:
        if isinstance(v, float):
            return round(v, 2)
        if isinstance(v, tuple):
            return tuple(coarse(x) for x in v)
        return v

    return repr(coarse(value))


def multiset_close(
    actual: Iterable[Any], expected: Iterable[Any], rel: float = 1e-9, abs_tol: float = 1e-6
) -> bool:
    """Multiset equality of two row collections, floats within a tolerance.

    Rows are canonicalised, sorted on a coarse key, and compared pairwise;
    when a float sits on a rounding boundary the sorted orders can differ,
    so a failed pairwise pass falls back to greedy matching.
    """
    left = [canonical(v) for v in actual]
    right = [canonical(v) for v in expected]
    if len(left) != len(right):
        return False
    left.sort(key=_sort_key)
    right.sort(key=_sort_key)
    if all(_close(a, b, rel, abs_tol) for a, b in zip(left, right)):
        return True
    unmatched = list(right)
    for row in left:
        for index, candidate in enumerate(unmatched):
            if _close(row, candidate, rel, abs_tol):
                del unmatched[index]
                break
        else:
            return False
    return True


# -- spans ----------------------------------------------------------------------


class SpanRecorder:
    """The benchmark's own spans, kept in memory until the run ends.

    Each span has a name, a start, an end and a parent; spans nest per
    thread.  :meth:`chrome_trace` writes them in Chrome ``trace_event``
    form and :meth:`self_times` gives each name's duration minus the
    part its child spans cover.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._origin = time.perf_counter()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **args: Any):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        record = {
            "id": span_id,
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "tid": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
            "child_seconds": 0.0,
            "args": args,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1]["child_seconds"] += record["end"] - record["start"]
            with self._lock:
                self.spans.append(record)

    def add(self, name: str, seconds: float, parent: Dict[str, Any]) -> None:
        """Record a child span whose duration the program reported itself.

        Used for compile stages: ``CompilationResult.timings()`` gives each
        stage's time; the stages are laid out back to back from the
        parent's start.
        """
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        start = parent["start"] + parent.get("_cursor", 0.0)
        parent["_cursor"] = parent.get("_cursor", 0.0) + seconds
        parent["child_seconds"] += seconds
        record = {
            "id": span_id,
            "parent": parent["id"],
            "name": name,
            "tid": parent["tid"],
            "start": start,
            "end": start + seconds,
            "child_seconds": 0.0,
            "args": {},
        }
        with self._lock:
            self.spans.append(record)

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds."""
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span["end"] - span["start"]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += max(0.0, duration - span["child_seconds"])
        return table

    def chrome_trace(self) -> Dict[str, Any]:
        tids: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s["start"]):
            tid = tids.setdefault(span["tid"], len(tids) + 1)
            args = {k: v for k, v in span["args"].items() if isinstance(v, (str, int, float, bool))}
            args["span_id"] = span["id"]
            if span["parent"] is not None:
                args["parent_id"] = span["parent"]
            events.append(
                {
                    "name": span["name"],
                    "cat": span["name"].split(".")[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": round((span["start"] - self._origin) * 1e6, 3),
                    "dur": round((span["end"] - span["start"]) * 1e6, 3),
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class NullRecorder:
    """The untraced run's recorder: spans cost one context manager."""

    @contextmanager
    def span(self, name: str, **args: Any):
        yield None


def layer_table(recorder: SpanRecorder) -> str:
    rows = sorted(recorder.self_times().items(), key=lambda item: -item[1]["self_s"])
    lines = ["%-34s %8s %12s %12s" % ("span (layer)", "count", "total_ms", "self_ms")]
    for name, row in rows:
        lines.append(
            "%-34s %8d %12.3f %12.3f"
            % (name, row["count"], row["total_s"] * 1e3, row["self_s"] * 1e3)
        )
    return "\n".join(lines)


# -- the result line --------------------------------------------------------------


class Result:
    """What one workload run reports: op counts, checks and metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.notes: List[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        if value is None or (isinstance(value, float) and math.isnan(value)):
            raise ValueError("metric %s has no value" % name)
        self.metrics[name] = {"value": float(value), "unit": unit}

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": self.metrics,
            },
            sort_keys=False,
        )
