"""`ray job submit` entrypoint for the flagship validation pipeline.

The north rule runs this engine on a fixed-size multi-node Ray cluster
via `ray job submit`; this is the submittable script:

    ray job submit --working-dir . -- \
        python jobs/validate_job.py \
            --input  /data/clips_shards/          \
            --output /data/validated/run-042/     \
            --spec   contracts/clips-v2.json

Semantics (pipelines/resumable.py run_resumable_validation):
  * every input shard runs the full validate -> verdicts/violations ->
    profile-sketch pass as one Dataset job and lands under
    out/<stage>/shard=<id>/ with a manifest row (per-partition lineage);
  * a killed submission is RESUBMITTED with the same --output and skips
    finished shards (Ray does not resume a failed job's completed work
    across submissions — the manifest is the checkpoint boundary);
  * cross-shard checks (key uniqueness, referential, drift profile)
    merge over the narrow outputs, never the payload bytes;
  * exactly one JSON summary line goes to stdout (job logs / driver
    scraping).

Under `ray job submit` (RAY_ADDRESS names the cluster) the session
attaches to the cluster the job was submitted to; standalone it starts
local Ray (jschon_ray/runtime.py). The library itself never starts Ray.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="validate_job")
    ap.add_argument("--input", required=True,
                    help="directory of input shards (*.parquet; a "
                         "*.lance dataset root when lance is installed)")
    ap.add_argument("--output", required=True,
                    help="run directory: shard outputs + manifest; "
                         "reuse it to resume")
    ap.add_argument("--spec", default=None,
                    help="JSON spec file (default: the built-in clips "
                         "contract)")
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="standalone only; ignored under a cluster")
    args = ap.parse_args(argv)

    spec = None
    if args.spec:
        with open(args.spec) as f:
            spec = json.load(f)

    from jschon_ray.pipelines.resumable import run_resumable_validation
    from jschon_ray.runtime import session

    with session(args.num_cpus):
        summary = run_resumable_validation(args.input, args.output,
                                           spec=spec)
    summary.pop("profile", None)      # sketch blob: stays in the run dir
    print(json.dumps(summary, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
