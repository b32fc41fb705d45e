"""Quarantine split: route a validated Dataset to clean / quarantine
sinks in one pass.

The write-path composition a delivery pipeline ends with: validate ->
clean rows (minus bookkeeping columns) stream to `out_dir/clean/`,
invalid rows KEEP their violation details and land in
`out_dir/quarantine/`, and only a summary dict reaches the driver. Both
sinks are partitioned parquet (one file per block — the resumable-output
contract: re-running a shard overwrites its own files, never a giant
single file).

The reference separates verdicts from error trees in one in-memory
result (`/root/reference/jschon/jsonschema.py:269-305` scope.valid +
collect errors); at dataset scale the separation is physical: two sinks,
so downstream consumers never re-filter the full corpus.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

from .validate import validate_dataset


def quarantine_split(ds, spec, out_dir: str):
    """Validate `ds` against `spec` and write clean/quarantine sinks.

    Returns {'n': total, 'n_clean': ..., 'n_quarantined': ...,
    'clean_dir': ..., 'quarantine_dir': ...}. The summary comes from two
    streaming counts — no row set is ever collected on the driver.

    Violation rows are for humans and re-ingest tooling, so the `bytes`
    payload is not duplicated into the quarantine sink (re-fetch by key
    instead).
    """
    checked = validate_dataset(ds, spec)
    clean_dir = os.path.join(out_dir, "clean")
    quar_dir = os.path.join(out_dir, "quarantine")

    def split(valid: bool):
        def fn(t: pa.Table) -> pa.Table:
            col = t["valid"]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            mask = col if valid else pc.invert(col)
            part = t.filter(mask)
            drop = ("valid", "violations") if valid else ("bytes",)
            return part.drop_columns(
                [c for c in drop if c in part.column_names])
        return fn

    # checked is consumed twice (two sinks + counts); materialize the
    # validated narrow result once so the read+validate lineage doesn't
    # re-run per consumer. Blocks spill to the object store if large.
    checked = checked.materialize()
    clean = checked.map_batches(split(True), batch_format="pyarrow")
    quar = checked.map_batches(split(False), batch_format="pyarrow")
    clean.write_parquet(clean_dir)
    quar.write_parquet(quar_dir)
    n = checked.count()
    n_quar = quar.count()
    return {"n": n, "n_clean": n - n_quar, "n_quarantined": n_quar,
            "clean_dir": clean_dir, "quarantine_dir": quar_dir}
