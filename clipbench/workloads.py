"""The three workloads: what one op does and what it must answer.

Each workload has ``first(tracer)``, the set-up op a fresh Ray session
runs before timing starts, and ``op(tracer, k)``, one steady op. Both
return an ``Outcome``: the answer to check against the oracle, the clips
the op processed and, for ``resume``, what it rewrote.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SUMMARY_KEYS = ("n", "n_valid", "n_violations", "n_dupe_keys",
                "n_referential")


@dataclasses.dataclass
class Outcome:
    answer: dict
    clips: int
    wall: float  # seconds inside the program's calls
    expect_extra: dict = dataclasses.field(default_factory=dict)
    written_bytes: int = 0
    shard_gaps: list = dataclasses.field(default_factory=list)


def _decode_partial(t: pa.Table) -> pa.Table:
    return pa.table({
        "n": [t.num_rows],
        "n_valid": [int(pc.sum(t["valid"]).as_py() or 0)],
        "n_violations": [int(pc.sum(
            pc.list_value_length(t["violations"])).as_py() or 0)],
        "n_decode_ok": [int(pc.sum(t["decode_ok"]).as_py() or 0)],
    })


def _decode_summary(ds) -> dict:
    """summarize_verdicts plus the decode_ok count, in the same one pass."""
    tot = dict.fromkeys(("n", "n_valid", "n_violations", "n_decode_ok"), 0)
    for b in ds.map_batches(_decode_partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        for k in tot:
            tot[k] += int(pc.sum(b[k]).as_py() or 0)
    return tot


class Flagship:
    """``verdicts`` (decode=False) and ``decode`` (decode=True)."""

    def __init__(self, clips_dir: str, n_clips: int, decode: bool):
        self.clips_dir, self.n_clips, self.decode = clips_dir, n_clips, decode

    def first(self, tracer) -> Outcome:
        return self.op(tracer, 0)

    def op(self, tracer, k: int) -> Outcome:
        from jschon_ray.pipelines.validate import (
            clip_validation_pipeline,
            summarize_verdicts,
        )

        t0 = time.perf_counter()
        with tracer.span("pipelines.clip_validation_pipeline"):
            out = clip_validation_pipeline(self.clips_dir, decode=self.decode)
        with tracer.span("pipelines.summarize_verdicts"):
            s = _decode_summary(out["verdicts"]) if self.decode \
                else summarize_verdicts(out["verdicts"])
        with tracer.span("pipelines.uniqueness_violations"):
            s["n_dupe_keys"] = out["dupes"].count()
        with tracer.span("pipelines.referential_violations"):
            s["n_referential"] = out["referential"].count()
        return Outcome(s, self.n_clips, time.perf_counter() - t0)


def _written_since(root: str, t0: float) -> int:
    total = 0
    for d, _, files in os.walk(root):
        for f in files:
            st = os.stat(os.path.join(d, f))
            if st.st_mtime >= t0:
                total += st.st_size
    return total


class Resume:
    """``resume``: a full run in set-up, then lose half the manifest rows
    and resume, once per op."""

    def __init__(self, clips_dir: str, rows_per_file: dict, work: str,
                 seed: int):
        self.clips_dir, self.rows = clips_dir, rows_per_file
        self.work, self.seed = work, seed
        self.run_dir = None

    def _resume(self, tracer, lost: list, t0: float) -> Outcome:
        from jschon_ray.pipelines.resumable import run_resumable_validation
        from jschon_ray.state.manifest import Manifest

        with tracer.span("pipelines.run_resumable_validation"):
            r = run_resumable_validation(self.clips_dir, self.run_dir)
        wall = time.perf_counter() - t0
        unix_end = time.time()
        unix_start = unix_end - wall
        done = Manifest(self.run_dir).complete_shards()
        ends = sorted(done[sid]["finished_at_unix"] for sid in lost
                      if sid in done)
        answer = {k: r[k] for k in SUMMARY_KEYS}
        answer["shards_processed"] = r["shards_processed"]
        answer["shards_skipped"] = r["shards_skipped"]
        return Outcome(
            answer,
            clips=sum(self.rows[done[sid]["input_path"]] for sid in lost
                      if sid in done),
            wall=wall,
            expect_extra={"shards_processed": len(lost),
                          "shards_skipped": len(self.rows) - len(lost)},
            written_bytes=_written_since(self.run_dir, unix_start),
            shard_gaps=list(np.diff([unix_start] + ends)))

    def _shard_ids(self) -> list:
        from jschon_ray.state.manifest import shard_id_for

        return sorted(shard_id_for(p) for p in self.rows)

    def first(self, tracer) -> Outcome:
        self.run_dir = os.path.join(self.work, "run")
        shutil.rmtree(self.run_dir, ignore_errors=True)
        return self._resume(tracer, self._shard_ids(), time.perf_counter())

    def op(self, tracer, k: int) -> Outcome:
        ids = self._shard_ids()
        rng = np.random.default_rng([self.seed, k])
        lost = sorted(rng.choice(ids, len(ids) // 2, replace=False).tolist())
        t0 = time.perf_counter()
        for sid in lost:
            os.remove(os.path.join(self.run_dir, "manifest", f"{sid}.json"))
        return self._resume(tracer, lost, t0)
