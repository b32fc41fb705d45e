"""Resumable flagship run: shard-looped validation with manifest lineage.

Each input shard (parquet file / Lance fragment) runs the full flagship
pipeline as ONE Ray Data job: validate -> verdicts + violations written to
`out/<name>/shard=<id>/` -> per-shard profile sketch blob -> manifest row.
A killed run resumes by processing only pending shards; cross-shard checks
(clip_id uniqueness, final profile/drift) run over the merged outputs,
which never need the heavy bytes column.

Scale note: at 100 TB a "shard" is a Lance fragment group (~1-10 GB), so
the driver loop is thousands of iterations while each iteration is a fully
parallel Dataset job that saturates the cluster; shards can also be
dispatched a few at a time. The loop is the checkpoint boundary, not the
parallelism boundary.
"""

from __future__ import annotations

import glob
import os
import shutil

from ..sources.io import footer_plan, read_table, write_table
from ..state.manifest import Manifest, shard_id_for
from ..state.profile import TableProfile
from .specs import CLIP_SPEC
from .validate import (
    clip_dataset_checks,
    clip_verdicts,
    explode_violations,
    summarize_verdicts,
)


#: columns whose mergeable sketches each shard writes
PROFILE_COLUMNS = ["sr_hz", "dur_ms", "transcript"]


def run_resumable_validation(clips_dir: str, out_dir: str, *,
                             spec=None) -> dict:
    """Validate all shards under `clips_dir`, resuming from the manifest.

    Returns the merged summary:
      {n, n_valid, n_violations, n_dupe_keys, n_referential,
       shards_processed, shards_skipped, profile: TableProfile}
    """
    from .stats import profile_dataset

    spec = spec or CLIP_SPEC
    man = Manifest(out_dir)
    shard_paths = {shard_id_for(p): p for p in
                   sorted(glob.glob(os.path.join(clips_dir, "*.parquet")))}
    pending = man.pending(shard_paths)
    skipped = len(shard_paths) - len(pending)

    for sid, path in pending.items():
        # a pending shard may have partial outputs from a killed/corrupt
        # attempt — clear them so the redo is idempotent, not additive
        vdir = os.path.join(out_dir, "verdicts", f"shard={sid}")
        xdir = os.path.join(out_dir, "violations", f"shard={sid}")
        for d in (vdir, xdir):
            shutil.rmtree(d, ignore_errors=True)
        # one footer plan per shard serves the stats discharge, the verdict
        # read and the profile read; a shard whose stats prove `bytes`
        # non-null skips the payload scan (per-file granularity — a dirty
        # shard only costs itself)
        plan = footer_plan(path)
        write_table(clip_verdicts(plan, spec), vdir)

        # read back the (bytes-free) verdicts for the cheap derived outputs
        vds = read_table(vdir)
        write_table(explode_violations(vds), xdir)
        summary = summarize_verdicts(vds)

        prof = profile_dataset(read_table(plan, columns=PROFILE_COLUMNS),
                               columns=PROFILE_COLUMNS)
        blob_path = os.path.join(out_dir, "sketches", f"{sid}.bin")
        os.makedirs(os.path.dirname(blob_path), exist_ok=True)
        tmp = blob_path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(prof.to_bytes())
        os.replace(tmp, blob_path)

        man.mark_complete(sid, input_path=path, n_rows=summary["n"],
                          n_valid=summary["n_valid"],
                          n_violations=summary["n_violations"],
                          sketch_blob_path=blob_path)

    # ---- merge phase (runs over ALL shards' outputs, cheap columns only) --
    done = man.complete_shards()
    total = {"n": 0, "n_valid": 0, "n_violations": 0}
    profile = TableProfile()
    for row in done.values():
        total["n"] += row["n_rows"]
        total["n_valid"] += row["n_valid"]
        total["n_violations"] += row["n_violations"]
        if row.get("sketch_blob_path") and os.path.exists(
                row["sketch_blob_path"]):
            with open(row["sketch_blob_path"], "rb") as f:
                profile.merge(TableProfile.from_bytes(f.read()))

    verdict_files = sorted(glob.glob(
        os.path.join(out_dir, "verdicts", "shard=*", "*.parquet")))
    dupes, refv = clip_dataset_checks(verdict_files)
    total["n_dupe_keys"] = dupes.count()
    total["n_referential"] = refv.count()
    total["shards_processed"] = len(pending)
    total["shards_skipped"] = skipped
    total["profile"] = profile
    return total
