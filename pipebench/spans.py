"""Span recorder for the pipeline benchmark.

Every public ``hplab`` call made by a workload goes through :meth:`Recorder.call`,
which counts it as one operation.  With tracing on, each call also leaves a
span (id, name, parent, start, end, attributes) in memory; the spans are
written out once, at the end of the run, to a trace file kept apart from the
result.  With tracing off no span is recorded.
"""

from __future__ import annotations

import json
import time


class CallFailed(RuntimeError):
    """A pipeline call raised; the round it belongs to is abandoned."""


class Recorder:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.attempted = 0
        self.failed = 0
        self.tracing = False
        self._stack = []

    def open(self, name: str, **attrs) -> int | None:
        """Open a span under the innermost open one; returns its id, or
        None while tracing is off."""
        if not self.tracing:
            return None
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": time.perf_counter() - self.t0, "end": None,
                           "attrs": attrs})
        self._stack.append(sid)
        return sid

    def close(self, sid: int | None, **attrs):
        if sid is None:
            return
        span = self.spans[sid]
        span["end"] = time.perf_counter() - self.t0
        span["attrs"].update(attrs)
        self._stack.pop()

    def call(self, metric: str | None, fn, *args, **kwargs):
        """Run one public pipeline call as one operation.

        The span is named after the called function; ``metric`` names the
        per-layer time metric its duration adds to (None: none).  Counts the
        failure and raises CallFailed when the call raises.
        """
        self.attempted += 1
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        sid = self.open(name, metric=metric)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.close(sid, error=f"{type(exc).__name__}: {exc}")
            raise CallFailed(f"{name}: {type(exc).__name__}: {exc}") from exc
        self.close(sid)
        return out

    def metric_seconds(self, parent: int) -> dict:
        """Summed duration per metric of the spans directly under ``parent``."""
        out: dict = {}
        for s in self.spans:
            metric = s["attrs"].get("metric")
            if s["parent"] == parent and metric and s["end"] is not None:
                out[metric] = out.get(metric, 0.0) + s["end"] - s["start"]
        return out

    def write(self, path: str, meta: dict):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh, indent=1)
            fh.write("\n")
