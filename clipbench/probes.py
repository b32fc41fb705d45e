"""Layer probes for the traced run.

Each probe calls one layer's public functions from outside, on the
workload's own input, and returns per-layer metrics. Kernel probes run in
the driver process without Ray; the others run small Ray jobs in the live
session and read the executions the execution log recorded.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

CHECK_BATCH = 4096   # validate_dataset's default batch_size
DECODE_BATCH = 1024  # the flagship's ClipDecoder batch_size
PROFILE_COLUMNS = ["sr_hz", "dur_ms", "transcript"]  # resume's profile


def _timed(fn, reps: int) -> tuple[float, object]:
    """Median wall of ``reps`` calls, and the last result."""
    walls, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls), out


def _rate(rows: int, fn, reps: int = 3) -> float:
    return rows / _timed(fn, reps)[0]


def kernels(files: list[str], decode: bool) -> dict:
    """vspec, stages and state kernels in one process, at the pipeline's
    batch sizes, on the spec and columns the pipeline itself would use."""
    from jschon_ray.pipelines.specs import CLIP_SPEC
    from jschon_ray.pipelines.validate import discharge_payload_checks
    from jschon_ray.stages.decode import ClipDecoder
    from jschon_ray.stages.validate import ViolationExploder
    from jschon_ray.state.profile import TableProfile
    from jschon_ray.state.sketches import hash_array
    from jschon_ray.vspec.catalog import SpecCatalog
    from jschon_ray.vspec.evaluator import compile_spec

    full = pa.concat_tables(pq.read_table(f) for f in files)
    spec, pruned = (CLIP_SPEC, False) if decode else \
        discharge_payload_checks(CLIP_SPEC, files, "bytes")
    table = full.drop_columns(["bytes"]) if pruned else full
    compile_s, plan = _timed(
        lambda: compile_spec(spec, table.schema, catalog=SpecCatalog()), 5)
    n = table.num_rows
    checks = [table.slice(i, CHECK_BATCH) for i in range(0, n, CHECK_BATCH)]
    checked = [plan.check_batch(b) for b in checks]
    decodes = [full.slice(i, DECODE_BATCH)
               for i in range(0, n, DECODE_BATCH)]
    decoder, exploder = ClipDecoder(), ViolationExploder(["clip_id"])
    payload_mb = pc.sum(pc.binary_length(full["bytes"])).as_py() / 1e6
    decode_s = _timed(lambda: [decoder(b) for b in decodes], 3)[0]
    ids = full["clip_id"].to_numpy(zero_copy_only=False)

    per_file = [pq.read_table(f, columns=PROFILE_COLUMNS) for f in files]
    build_s, _ = _timed(
        lambda: [TableProfile().add_table(t, columns=PROFILE_COLUMNS)
                 for t in per_file], 3)
    blobs = [TableProfile().add_table(t, columns=PROFILE_COLUMNS).to_bytes()
             for t in per_file]

    def merge():
        m = TableProfile()
        for b in blobs:
            m.merge(TableProfile.from_bytes(b))
        return m

    return {
        "vspec.compile_s": compile_s,
        "vspec.check_rows_per_s": _rate(
            n, lambda: [plan.check_batch(b) for b in checks]),
        "stages.decode_rows_per_s": n / decode_s,
        "stages.decode_mb_per_s": payload_mb / decode_s,
        "stages.explode_rows_per_s": _rate(
            n, lambda: [exploder(b) for b in checked]),
        "state.hash_rows_per_s": _rate(n, lambda: hash_array(ids)),
        "state.profile_build_s": build_s / len(per_file),
        "state.sketch_bytes": float(statistics.median(map(len, blobs))),
        "state.sketch_merge_s": _timed(merge, 3)[0],
    }


def _count_rows(t: pa.Table) -> pa.Table:
    return pa.table({"n": [t.num_rows]})


def _consume(ds) -> int:
    return sum(sum(b["n"].to_pylist()) for b in ds.map_batches(
        _count_rows, batch_format="pyarrow", batch_size=None)
        .iter_batches(batch_format="pyarrow"))


def sources(files: list[str], read_calls: list, work: str) -> dict:
    """Stats discharge, the read floor (the op's own read calls replayed
    with an identity count) and the parquet writer."""
    import ray.data

    from jschon_ray.pipelines.specs import CLIP_SPEC
    from jschon_ray.pipelines.validate import discharge_payload_checks
    from jschon_ray.sources.io import write_table

    discharge_s = _timed(
        lambda: discharge_payload_checks(CLIP_SPEC, files, "bytes"), 3)[0]
    if not read_calls:
        raise RuntimeError("the op made no ray.data.read_parquet call, so "
                           "there is no read to replay as a floor")
    t0 = time.perf_counter()
    for args, kwargs in read_calls:
        _consume(ray.data.read_parquet(*args, **kwargs))
    floor_s = time.perf_counter() - t0

    table = pa.concat_tables(
        pq.read_table(f).drop_columns(["bytes"]) for f in files)
    out = os.path.join(work, "write_probe")
    shutil.rmtree(out, ignore_errors=True)
    ds = ray.data.from_arrow(table).repartition(len(files)).materialize()
    t0 = time.perf_counter()
    write_table(ds, out)
    write_s = time.perf_counter() - t0
    written = sum(os.path.getsize(os.path.join(out, f))
                  for f in os.listdir(out))
    shutil.rmtree(out)
    return {"sources.discharge_s": discharge_s,
            "sources.read_floor_s": floor_s,
            "sources.write_mb_per_s": written / 1e6 / write_s}


def decode_job(files: list[str]) -> None:
    """A read -> ClipDecoder job, for workloads whose op does not decode."""
    from jschon_ray.sources.io import read_table
    from jschon_ray.stages.decode import ClipDecoder
    from jschon_ray.stages.taskpool import stage_fn

    _consume(read_table(files).map_batches(
        stage_fn(ClipDecoder), batch_format="pyarrow",
        batch_size=DECODE_BATCH))


def resume_merge_and_pending(run_dir: str, clips_dir: str) -> dict:
    """A resume with nothing pending, and the manifest's pending scan."""
    import glob

    from jschon_ray.pipelines.resumable import run_resumable_validation
    from jschon_ray.state.manifest import Manifest, shard_id_for

    merge_s, r = _timed(
        lambda: run_resumable_validation(clips_dir, run_dir), 1)
    if r["shards_processed"]:
        raise RuntimeError("a resume with nothing pending redid shards")
    shards = {shard_id_for(p): p for p in
              sorted(glob.glob(os.path.join(clips_dir, "*.parquet")))}
    man = Manifest(run_dir)
    return {"pipelines.resume_merge_s": merge_s,
            "state.manifest_pending_s": _timed(
                lambda: man.pending(shards), 5)[0]}
