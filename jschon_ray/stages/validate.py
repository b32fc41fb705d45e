"""Validation stage: a stateless map_batches function over a compiled plan.

`validate_batch_fn` is a plain task function that takes whole blocks and
cuts them into `CHECK_ROWS`-row pieces itself (`taskpool.in_pieces`), so
its `map_batches` sets no `batch_size` and Ray fuses it with the upstream
read: heavy payload columns never hop through the object store between
read and validate. The declarative spec dict (cheap to pickle)
ships with each task; each worker process compiles it ONCE per (spec,
batch schema) and reuses the plan from `_PLAN_CACHE` — the Ray analogue of
the reference compiling a JSONSchema once and evaluating many instances
(/root/reference/jschon/jsonschema.py:27-125 vs :191-220).

Use via `pipelines/validate.py::validate_dataset`.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..state.allocator import tune_worker_allocator
from ..vspec.catalog import SpecCatalog
from ..vspec.evaluator import compile_spec
from .taskpool import in_pieces

CHECK_ROWS = 4096  # rows per plan.check_batch call


# Per-worker-process compiled plans, keyed on the WHOLE spec (specs come
# from outside the program; two that share a prefix are different plans)
# and the batch schema.
_PLAN_CACHE: dict = {}


def validate_batch_fn(batch: pa.Table, *, spec, keep_columns=None) -> pa.Table:
    import json

    key = (json.dumps(spec, sort_keys=True, default=str),
           tuple(batch.schema.names),
           tuple(str(f.type) for f in batch.schema))
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        tune_worker_allocator()  # once per worker, before heavy batches
        plan = _PLAN_CACHE[key] = compile_spec(spec, batch.schema,
                                               catalog=SpecCatalog())
    def check(piece: pa.Table) -> pa.Table:
        out = plan.check_batch(piece)
        if keep_columns is not None:
            out = out.select(list(keep_columns) + ["valid", "violations"])
        return out

    return in_pieces(check, batch, CHECK_ROWS)


class ViolationExploder:
    """Flatten per-row violation lists into one row per violation.

    Vectorized: list_flatten + list_parent_indices; key columns are gathered
    by take(). Output schema: key_cols + instanceLocation / keywordLocation /
    absoluteKeywordLocation / error (the reference's `basic` error unit,
    /root/reference/jschon/output.py:46-70).
    """

    def __init__(self, key_cols=("clip_id",)):
        self.key_cols = list(key_cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch["violations"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col)
        par = pc.list_parent_indices(col)
        cols = {k: pc.take(batch[k], par) for k in self.key_cols}
        for f in ("instanceLocation", "keywordLocation",
                  "absoluteKeywordLocation", "error"):
            cols[f] = pc.struct_field(flat, f)
        return pa.table(cols)
