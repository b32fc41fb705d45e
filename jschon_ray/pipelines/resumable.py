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

from ..sources.io import read_table, write_table
from ..state.manifest import Manifest, shard_id_for
from ..state.profile import TableProfile
from .specs import CLIP_SPEC
from .validate import (
    clip_dataset_checks,
    clip_verdicts,
    explode_violations,
    summarize_verdicts,
)


def run_resumable_validation(clips_dir: str, out_dir: str, *, spec=None,
                             profile_columns=("sr_hz", "dur_ms",
                                              "transcript")) -> dict:
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

    import shutil

    for sid, path in pending.items():
        # a pending shard may have partial outputs from a killed/corrupt
        # attempt — clear them so the redo is idempotent, not additive
        vdir = os.path.join(out_dir, "verdicts", f"shard={sid}")
        xdir = os.path.join(out_dir, "violations", f"shard={sid}")
        for d in (vdir, xdir):
            shutil.rmtree(d, ignore_errors=True)
        # per-shard stats discharge: shards whose metadata proves `bytes`
        # non-null skip the payload scan entirely (per-file granularity —
        # a dirty shard only costs itself)
        write_table(clip_verdicts(path, spec), vdir)

        # read back the (bytes-free) verdicts for the cheap derived outputs
        vds = read_table(vdir)
        write_table(explode_violations(vds), xdir)
        summary = summarize_verdicts(vds)

        prof = profile_dataset(read_table(path, columns=list(profile_columns)),
                               columns=list(profile_columns))
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


def run_resumable_stage(input_dir: str, out_dir: str, stage_fn, *,
                        columns=None, pattern: str = "*.parquet") -> dict:
    """Run ANY per-shard Dataset transform chain with manifest lineage —
    the generic form of `run_resumable_validation` for non-validation
    pipelines (featurization, augmentation, decode): each input shard
    runs `stage_fn(ds) -> Dataset` as one fully-parallel Ray Data job,
    its output lands in `out/data/shard=<id>/`, and one atomic manifest
    row records completion. A killed run redoes only pending shards;
    redo clears the shard's partial outputs first, so it is idempotent,
    never additive.

    Scale posture matches the flagship loop: the shard loop is the
    CHECKPOINT boundary, not the parallelism boundary — each iteration
    saturates the cluster, and at 100 TB shards are fragment groups
    dispatched a few at a time.

    Returns {n_rows, shards_processed, shards_skipped, out_dir}.
    """
    import shutil

    import pyarrow.parquet as pq

    man = Manifest(out_dir)
    shard_paths = {shard_id_for(p): p for p in
                   sorted(glob.glob(os.path.join(input_dir, pattern)))}
    pending = man.pending(shard_paths)
    skipped = len(shard_paths) - len(pending)

    for sid, path in pending.items():
        odir = os.path.join(out_dir, "data", f"shard={sid}")
        shutil.rmtree(odir, ignore_errors=True)
        ds = read_table(path, columns=columns)
        out = stage_fn(ds)
        write_table(out, odir)
        n = sum(pq.read_metadata(f).num_rows for f in
                glob.glob(os.path.join(odir, "*.parquet")))
        man.mark_complete(sid, input_path=path, n_rows=n, n_valid=n,
                          n_violations=0,
                          extra={"output_dir": odir})

    done = man.complete_shards()
    return {"n_rows": sum(r["n_rows"] for r in done.values()),
            "shards_processed": len(pending),
            "shards_skipped": skipped,
            "out_dir": out_dir}
