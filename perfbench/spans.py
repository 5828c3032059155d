"""Spans and work counters recorded at the benchmark's own call sites.

A span is [name, start, end, parent index, task id, groups]. Its name is
"layer.function"; groups name the sub-buckets (engine kind, sweep or cold,
verify suite, ...) its self time is also added to. Spans stay in memory and
are written out once, when the run ends. Counters are kept in both modes, so
every pass can be compared against the first; spans only when tracing.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class NoTrace:
    """Untraced pass: calls straight through, counts work."""

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self.task = None
        self.peak_child_kb = 0  # largest child process, as the child reports it

    def span(self, name, fn, *args, groups=()):
        return fn(*args)

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] += value


class Tracer(NoTrace):
    """Traced pass: every span call is timed by clock and linked to its parent."""

    def __init__(self, clock=perf_counter) -> None:
        super().__init__()
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name, fn, *args, groups=()):
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.task, groups]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = self.clock()
        try:
            return fn(*args)
        finally:
            record[2] = self.clock()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def busy(self, scales) -> Counter:
        """Self time summed per "layer.busy_s" and per "layer.group.busy_s",
        each span's scaled to reference speed by its task's factor in scales."""
        out: Counter = Counter()
        for (name, _, _, _, task, groups), own in zip(self.spans, self.self_times()):
            own *= scales[task]
            layer = name.split(".", 1)[0]
            out[f"{layer}.busy_s"] += own
            for group in groups:
                out[f"{layer}.{group}.busy_s"] += own
        return out

    def dump(self, path, pass_index: int) -> None:
        """Append this pass's spans to a JSON-lines file."""
        with open(path, "a") as fh:
            for i, (name, start, end, parent, task, groups) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "pass": pass_index,
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "task": task,
                            "groups": list(groups),
                        }
                    )
                    + "\n"
                )
