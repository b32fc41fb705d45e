"""Partition manifest: per-shard checkpoint lineage for resumable runs.

The north rule requires a killed run to resume without recomputation. Ray
retries failed *tasks* within a job, but completed work does not survive a
new `ray job submit` — so lineage is ours (SURVEY.md §4): the unit of
checkpointing is the input shard (one parquet file / Lance fragment). After
a shard's pipeline completes we write its outputs under `out/shard=<id>/`
and append a manifest row carrying:

    shard_id, input_path, status, n_rows, n_valid, n_violations,
    sketch_blob (merged TableProfile partial for the shard),
    finished_at_unix

A resumed run loads the manifest, skips complete shards, processes the rest,
and the final merge (summary counters + profile sketches) is identical to a
from-scratch run because every piece of state is mergeable.

Writes are atomic: manifest rows are one JSON file per shard under
`manifest/` (rename after write), so a crash mid-write never corrupts the
ledger — the shard is simply redone.
"""

from __future__ import annotations

import json
import os
import time


class Manifest:
    def __init__(self, root: str):
        self.root = root
        self.dir = os.path.join(root, "manifest")
        os.makedirs(self.dir, exist_ok=True)

    def _path(self, shard_id: str) -> str:
        return os.path.join(self.dir, f"{shard_id}.json")

    def complete_shards(self) -> dict[str, dict]:
        out = {}
        for fn in os.listdir(self.dir):
            if not fn.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.dir, fn)) as f:
                    row = json.load(f)
            except (OSError, json.JSONDecodeError):
                continue  # partial/corrupt entry -> shard will be redone
            if row.get("status") == "complete":
                out[row["shard_id"]] = row
        return out

    def mark_complete(self, shard_id: str, *, input_path: str,
                      n_rows: int, n_valid: int, n_violations: int,
                      sketch_blob_path: str | None = None) -> None:
        row = {
            "shard_id": shard_id,
            "input_path": input_path,
            "status": "complete",
            "n_rows": n_rows,
            "n_valid": n_valid,
            "n_violations": n_violations,
            "sketch_blob_path": sketch_blob_path,
            "finished_at_unix": time.time(),
        }
        tmp = self._path(shard_id) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(row, f)
        os.replace(tmp, self._path(shard_id))

    def pending(self, shard_paths: dict[str, str]) -> dict[str, str]:
        """{shard_id: input_path} minus completed shards."""
        done = self.complete_shards()
        return {sid: p for sid, p in shard_paths.items() if sid not in done}


def shard_id_for(path: str) -> str:
    """Deterministic shard id = basename without extension (input fragment
    identity; retries of the same input are idempotent)."""
    return os.path.splitext(os.path.basename(path))[0]
