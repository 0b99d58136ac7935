"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into psverify's
public functions; nothing inside the package is instrumented. Each span
holds its name, start, end, parent span and the id of the operation it
belongs to. Spans stay in memory until `dump` writes them out.
"""

import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or None, op id, error flag]
        self.spans = []
        self._stack = []
        self.op_id = None

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.op_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException:
            record[5] = True
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def record(self, name, start, end):
        """Add a finished span measured outside `span`, under the open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, self.op_id, False])

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def summary(self) -> dict:
        """Per span name: calls, busy_s, p50_ms, errors and self_s.

        Self time is a span's duration minus the time its child spans cover;
        with one calling thread, children never overlap each other.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        by_name = {}
        for i, (name, start, end, _, _, error) in enumerate(self.spans):
            row = by_name.setdefault(name, {"durations": [], "errors": 0, "self_s": 0.0})
            row["durations"].append(end - start)
            row["errors"] += int(error)
            row["self_s"] += end - start - child_time[i]
        return {
            name: {
                "calls": len(row["durations"]),
                "busy_s": sum(row["durations"]),
                "p50_ms": 1e3 * statistics.median(row["durations"]),
                "errors": row["errors"],
                "self_s": row["self_s"],
            }
            for name, row in sorted(by_name.items())
        }

    def top_level_seconds(self, since: float) -> float:
        """Summed duration of parentless spans that started at or after `since`."""
        return sum(end - start for _, start, end, parent, _, _ in self.spans
                   if parent is None and start >= since)

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "error")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh, separators=(",", ":"))


@contextmanager
def traced_attributes(tracer, targets):
    """Temporarily replace module attributes with span-recording wrappers.

    `targets` holds (module, attribute, span name) triples. This times the
    public functions that a batch routine such as `make_synthetic_corpus`
    calls through its module namespace, without editing the routine.
    """
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    for module, attr, name in targets:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
