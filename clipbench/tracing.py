"""Instrumentation the benchmark attaches from outside the program.

* ``ExecutionLog`` keeps one record per Ray Data execution with that
  execution's per-operator stats (the executor's own frozen summary). It
  is cheap and on in every run: the bytes the read operators deliver come
  from it.
* ``ReadCalls`` notes every ``ray.data.read_parquet`` call (paths, columns,
  block count), so the traced run can replay an op's reads as a read floor.
* ``Tracer`` records spans around the benchmark's calls into the program.
  It is used only for ``--trace 1``.
"""

from __future__ import annotations

import contextlib
import json
import time


def flat_ops(summary) -> list:
    """Every operator of a Ray Data stats summary, upstream first."""
    ops = []
    for parent in summary.parents:
        ops.extend(flat_ops(parent))
    ops.extend(summary.operators_stats)
    return ops


def _sum(d) -> float:
    return float((d or {}).get("sum", 0.0))


class Execution:
    """One Ray Data execution: wall window and per-operator task sums."""

    def __init__(self, start: float, end: float, summary):
        self.start, self.end = start, end
        self.ops = [{"name": o.operator_name, "sub": o.is_sub_operator,
                     "wall": _sum(o.wall_time), "udf": _sum(o.udf_time),
                     "bytes": _sum(o.output_size_bytes)}
                    for o in flat_ops(summary)]
        self.spilled = summary.global_bytes_spilled

    @property
    def wall(self) -> float:
        return self.end - self.start

    def has(self, token: str) -> bool:
        return any(token in o["name"] for o in self.ops)

    def op_sum(self, token: str, field: str) -> float:
        return sum(o[field] for o in self.ops if token in o["name"])


# operator-name tokens in Ray Data's stats: the program's UDF names, and
# the all-to-all operators a shuffle shows up as
VALIDATE = "validate_batch_fn"
DECODE = "_apply_stage"
REFERENTIAL = "BroadcastMembershipCheck"
READ = "ReadParquet"
SHUFFLE_TOKENS = ("Sort", "Shuffle", "Aggregate", "Repartition")


def is_shuffle(op: dict) -> bool:
    return op["sub"] or any(t in op["name"] for t in SHUFFLE_TOKENS)


def _executor_class():
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    return StreamingExecutor


class ExecutionLog:
    def __init__(self):
        self.executions: list[Execution] = []
        self._orig = None

    def install(self) -> None:
        cls = _executor_class()
        orig = self._orig = cls.shutdown
        log = self

        def shutdown(executor, force, exception=None):
            fresh = executor._execution_started and not executor._shutdown
            orig(executor, force, exception)
            stats = executor._final_stats
            if fresh and stats is not None:
                log.executions.append(Execution(
                    executor._start_time, time.perf_counter(),
                    stats.to_summary()))

        cls.shutdown = shutdown

    def uninstall(self) -> None:
        if self._orig is not None:
            _executor_class().shutdown = self._orig
            self._orig = None

    def between(self, start: float, end: float) -> list:
        return [e for e in self.executions
                if e.start >= start and e.end <= end]


class ReadCalls:
    def __init__(self):
        self.calls: list[tuple[tuple, dict]] = []  # (args, kwargs)
        self._orig = None

    def install(self) -> None:
        import ray.data

        orig = self._orig = ray.data.read_parquet

        def read_parquet(*args, **kwargs):
            self.calls.append((args, kwargs))
            return orig(*args, **kwargs)

        ray.data.read_parquet = read_parquet

    def uninstall(self) -> None:
        if self._orig is not None:
            import ray.data

            ray.data.read_parquet = self._orig
            self._orig = None


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def dump(self, path: str, executions: list) -> None:
        """Write the spans, plus one ``ray.execution`` span per execution,
        whose parent is the innermost span that encloses it."""
        spans = list(self.spans)
        for ex in executions:
            inside = [s for s in self.spans
                      if s["end"] is not None and s["start"] <= ex.start
                      and ex.end <= s["end"]]
            parent = max(inside, key=lambda s: s["start"], default=None)
            spans.append({"id": len(spans), "name": "ray.execution",
                          "parent": parent and parent["id"],
                          "start": ex.start, "end": ex.end,
                          "ops": [o["name"] for o in ex.ops]})
        with open(path, "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")


class NullTracer:
    """The untraced ops' tracer: spans cost nothing and record nothing."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext({})
