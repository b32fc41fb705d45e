"""What each per-layer metric should move.

Names, units and directions live in ``BENCHMARK.json`` and are read from
there. ``MOVES`` maps every per-layer metric to the end-to-end metric and
the workloads on which a change to that layer should show.
"""

import json
import os

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load(path: str = SPEC_PATH) -> dict:
    """BENCHMARK.json, with ``workloads`` as names and the metric lists as
    {name: unit} in file order."""
    with open(path) as f:
        spec = json.load(f)
    return {"workloads": tuple(w["name"] for w in spec["workloads"]),
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


ALL = ("verdicts", "decode", "resume")

# per-layer metric -> (end-to-end metric it should move, workloads)
MOVES = {
    "ray.init_s": ("setup_s", ALL),
    "ray.warm_s": ("setup_s", ALL),
    "vspec.compile_s": ("setup_s", ALL),
    "vspec.check_rows_per_s": ("clips_per_s", ("verdicts",)),
    "ray.validate.udf_s": ("clips_per_s", ("verdicts",)),
    "ray.validate.overhead_s": ("clips_per_s", ("verdicts",)),
    "stages.decode_rows_per_s": ("clips_per_s", ("decode",)),
    "stages.decode_mb_per_s": ("clips_per_s", ("decode",)),
    "ray.decode.udf_s": ("clips_per_s", ("decode",)),
    "sources.read_floor_s": ("clips_per_s", ("verdicts", "decode")),
    "ray.read.wall_s": ("clips_per_s", ("decode",)),
    "ray.read.bytes_out": ("scan_bytes_per_clip", ("verdicts",)),
    "ray.spilled_bytes": ("job_s", ("decode",)),
    "sources.discharge_s": ("job_s", ("verdicts",)),
    "pipelines.verdicts_s": ("job_s", ("verdicts",)),
    "pipelines.uniqueness_s": ("job_s", ("verdicts",)),
    "pipelines.referential_s": ("job_s", ("verdicts",)),
    "ray.shuffle.wall_s": ("job_s", ("verdicts",)),
    "state.hash_rows_per_s": ("job_s", ("verdicts",)),
    "pipelines.resume_shard_s": ("job_s", ("resume",)),
    "pipelines.resume_merge_s": ("job_s", ("resume",)),
    "state.profile_build_s": ("job_s", ("resume",)),
    "state.sketch_merge_s": ("job_s", ("resume",)),
    "state.sketch_bytes": ("job_s", ("resume",)),
    "state.manifest_pending_s": ("job_s", ("resume",)),
    "sources.write_mb_per_s": ("job_s", ("resume",)),
    "sources.write_bytes_per_clip": ("job_s", ("resume",)),
    "stages.explode_rows_per_s": ("job_s", ("resume",)),
    "ray.jobs_per_op": ("job_s", ("resume",)),
    "driver.collect_s": ("job_s", ("resume",)),
    "bench.trace_overhead_s": ("job_s", ALL),
}
