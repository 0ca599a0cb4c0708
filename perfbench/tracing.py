"""Spans around the benchmark's own calls into symcert.

A span is (name, start, end, parent, op id, error).  Spans stay in
memory while the workload runs and are written out once it ends, so the
only cost inside an op is two clock reads and a list append.  The
untraced run calls ``direct`` instead, which adds one Python frame.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


def direct(name, fn, *args):
    """Untraced call: same signature as ``Tracer.call``."""
    return fn(*args)


class Tracer:
    def __init__(self) -> None:
        # each record: [name, start, end, parent index or -1, op id, error]
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id, False]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            return fn(*args)
        except BaseException:
            record[5] = True
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def summary(self) -> dict:
        """Per span name: calls, self time (span time minus the time its
        child spans cover), errors, and the median span duration in ms."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        durations: dict[str, list[float]] = {}
        for index, (name, start, end, _, _, error) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "errors": 0})
            row["calls"] += 1
            row["busy_s"] += (end - start) - child_time[index]
            row["errors"] += int(error)
            durations.setdefault(name, []).append(end - start)
        for name, values in durations.items():
            out[name]["p50_ms"] = statistics.median(values) * 1e3
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id, error in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op_id,
                            "error": error,
                        }
                    )
                )
                handle.write("\n")
