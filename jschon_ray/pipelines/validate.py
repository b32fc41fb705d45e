"""The flagship validation pipeline and its dataset-scale check stages.

Pipeline shape (SURVEY.md §3.4):

    read (column-pruned, fragment-parallel)
      -> map_batches(validate_batch_fn)      per-row constraint suite, fused
                                             with the read
      -> [map_batches(ClipDecoder)]          opt-in decode/format checks,
                                             fused with both
      -> groupby(clip_id) uniqueness         the one required shuffle
      -> broadcast semi-join vs codec dim    referential (NO shuffle)
      -> verdicts / violations / summary

Each step has one builder, shared by the flagship, the resumable shard
loop (`pipelines/resumable.py`) and the CLI: `clip_verdicts` (discharge ->
read -> validate), `clip_dataset_checks` (uniqueness + referential) and
`explode_violations`.

Scale notes baked in:
  * uniqueness and the semi-join read ONLY their key columns — bytes never
    enter a shuffle (SURVEY.md §7 hard part (e));
  * a large dimension key set is put in the object store once and read per
    actor in __init__, not re-shipped per batch;
  * the validate and decode stages cut whole read blocks into 4,096- and
    1,024-row pieces themselves (`stages/taskpool.py::in_pieces`), so
    their map_batches set no `batch_size` and Ray fuses them with the
    read: payload bytes are decoded and dropped inside the read task;
  * everything returns lazy Datasets; callers consume via write/iter.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..sources.io import cluster_cpus, footer_plan, read_table
from ..stages.validate import ViolationExploder, validate_batch_fn
from .specs import CLIP_SPEC


def default_concurrency():
    """Actor-pool size for stateful stages: autoscale up to the CPU count
    (Ray requires explicit ``concurrency`` for callable classes)."""
    return (1, max(2, cluster_cpus()))


def validate_dataset(ds, spec, *, keep_columns=None):
    """Append valid/violations to every row of `ds` (lazy); with
    `keep_columns`, each output row keeps only those columns plus the two.

    The spec is checked against the vspec metaschema once, driver-side,
    before anything compiles (the reference's metaschema step,
    /root/reference/jschon/catalog/__init__.py:191-238). Validation is a
    STATELESS task function with no `batch_size`: it cuts each block into
    4,096-row pieces itself, so it fuses with the upstream read and
    payload columns never hop through the object store between read and
    validate. The compiled plan is cached per worker process."""
    if isinstance(spec, dict):
        from ..vspec.metaschema import validate_spec

        validate_spec(spec)
    return ds.map_batches(
        functools.partial(validate_batch_fn, spec=spec,
                          keep_columns=keep_columns),
        batch_format="pyarrow",
    )


_ANNOT_ONLY = frozenset({
    "title", "description", "default", "deprecated", "readOnly", "writeOnly",
    "examples", "contentMediaType", "contentEncoding", "contentSchema",
    "$comment",
})


def _only_presence_checks(sub) -> bool:
    """True if a property subschema is guaranteed to pass for any non-null
    binary cell: `{"type": "binary"}` plus annotations, or `true`."""
    if sub is True:
        return True
    if not isinstance(sub, dict):
        return False
    for k, v in sub.items():
        if k in _ANNOT_ONLY:
            continue
        if k == "type" and (v == "binary" or (isinstance(v, list)
                                              and "binary" in v)):
            continue
        return False
    return True


def _stats_dischargeable(spec, col: str) -> bool:
    """Can every check touching `col` be discharged by 'col is always
    present with binary type' (provable from parquet row-group stats)?

    Conservative deep walk: property-set-counting keywords, name checks,
    regexes matching the column, or non-trivial subschemas on the column
    all veto the discharge."""
    import re as _re
    ok = True

    def walk(node):
        nonlocal ok
        if not ok:
            return
        if isinstance(node, dict):
            for k, v in node.items():
                if k in ("minProperties", "maxProperties", "propertyNames"):
                    ok = False
                elif k == "patternProperties" and isinstance(v, dict):
                    for rx, sub in v.items():
                        if _re.search(rx, col):
                            ok = False
                        walk(sub)
                elif k == "dependentRequired" and isinstance(v, dict):
                    if col in v or any(col in deps for deps in v.values()
                                       if isinstance(deps, list)):
                        ok = False
                elif k == "dependentSchemas" and isinstance(v, dict):
                    if col in v:
                        ok = False
                    for sub in v.values():
                        walk(sub)
                elif k == "properties" and isinstance(v, dict):
                    sub = v.get(col)
                    if sub is not None and not _only_presence_checks(sub):
                        ok = False
                    for name, s in v.items():
                        if name != col:
                            walk(s)
                elif k in ("enum", "const", "default", "examples"):
                    continue  # data values, not schemas
                else:
                    walk(v)
        elif isinstance(node, list):
            for x in node:
                walk(x)

    walk(spec)
    return ok


def _discharge_col(spec, col: str):
    """Rewrite the spec as if `col` were proven always-present-and-binary:
    drop it from every `required` list and from `properties`. Sound exactly
    when the stats prove presence — `required` minus an always-present name
    is equivalent, and missing-property error lists can never contain it."""
    if isinstance(spec, dict):
        out = {}
        for k, v in spec.items():
            if k == "required" and isinstance(v, list):
                out[k] = [n for n in v if n != col]
            elif k == "properties" and isinstance(v, dict):
                out[k] = {n: _discharge_col(s, col)
                          for n, s in v.items() if n != col}
            elif k in ("enum", "const", "default", "examples"):
                out[k] = v
            else:
                out[k] = _discharge_col(v, col)
        return out
    if isinstance(spec, list):
        return [_discharge_col(x, col) for x in spec]
    return spec


def discharge_payload_checks(spec, files, col: str = "bytes"):
    """Prune a heavy payload column from the read when parquet row-group
    statistics prove its only checks (presence + binary type).

    The 100 TB move: a verdict-only pass must not scan the audio payload
    just to assert `required` — null counts in file metadata prove it per
    row group. `files` may be a ``FooterPlan``. Returns (possibly
    rewritten spec, prunable: bool); any file with missing stats or a null
    vetoes (exactness over speed).
    """
    if not _stats_dischargeable(spec, col) or \
            not footer_plan(files).non_null_binary(col):
        return spec, False
    return _discharge_col(spec, col), True


def explode_violations(ds, key_cols=("clip_id",)):
    """violations list<struct> -> one row per violation (lazy)."""
    return ds.map_batches(
        functools.partial(_explode_batch, key_cols=list(key_cols)),
        batch_format="pyarrow",
    )


def _explode_batch(batch, key_cols):
    return ViolationExploder(key_cols)(batch)


def uniqueness_violations(ds, key="clip_id"):
    """Keys appearing more than once — the `uniqueItems` analogue lifted
    across rows (/root/reference/jschon/vocabulary/validation.py:163-177).
    Output columns: (key, n_rows).

    ONE exact shuffle of the key columns — it streams at any scale
    (nothing materializes on the driver). A hash-bucket co-group, not
    groupby(key): ray's sort-based groupby range-partitions by sorting the
    RAW key column — 2.3 s of string sorting for 100k clip_ids where the
    same exactness needs only an int64 bucket sort + one arrow C++
    group_by per bucket (measured ~4x faster; a key's rows never split
    across buckets, so per-bucket counts are global).
    """
    from ..state.sketches import hash_array

    key_list = [key] if isinstance(key, str) else list(key)
    num_buckets = 64

    def tag(t: pa.Table) -> pa.Table:
        import pandas as pd

        h = hash_array(pd.Series(
            t[key_list[0]].to_numpy(zero_copy_only=False)))
        for k in key_list[1:]:
            h = h ^ (hash_array(pd.Series(
                t[k].to_numpy(zero_copy_only=False)))
                * np.uint64(0x9E3779B97F4A7C15))
        b = (h % np.uint64(num_buckets)).astype(np.int64)
        return t.select(key_list).append_column("_b", pa.array(b))

    def bucket_dupes(g: pa.Table) -> pa.Table:
        c = g.group_by(key_list).aggregate([([], "count_all")])
        c = c.filter(pc.greater(c["count_all"], 1))
        return pa.table(
            {**{k: c[k] for k in key_list},
             "n_rows": c["count_all"].cast(pa.int64())})

    return ds.select_columns(key_list) \
        .map_batches(tag, batch_format="pyarrow") \
        .groupby("_b").map_groups(bucket_dupes, batch_format="pyarrow")


class BroadcastMembershipCheck:
    """Semi-join membership mask against a broadcast key set.

    The `$ref` analogue mandated by the north star
    (/root/reference/jschon/vocabulary/core.py:82-103 -> referential
    integrity). For key sets beyond the closure-capture sweet spot the set
    is put in the object store ONCE (ray.put on the driver) and
    materialized per actor in __init__ — never re-shipped per batch.
    Emits rows whose `column` value is NOT in the dimension key set.
    """

    def __init__(self, column, values_ref, key_cols):
        self.column = column
        vals = ray.get(values_ref) if isinstance(
            values_ref, ray.ObjectRef) else values_ref
        self.value_set = vals if isinstance(vals, pa.Array) \
            else pa.array(sorted(vals))
        self.key_cols = list(key_cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.column]
        present = pc.is_valid(col)
        member = pc.is_in(col, value_set=self.value_set)
        bad = pc.and_(present, pc.invert(pc.fill_null(member, False)))
        out = batch.filter(bad)
        return out.select(self.key_cols + [self.column])


# below this size the key set rides the (cheap, one-time) task closure;
# above it, ray.put + per-actor fetch avoids re-shipping per task
_BROADCAST_CLOSURE_LIMIT = 100_000


def referential_violations(ds, column, dim_values, key_cols=("clip_id",)):
    """Rows whose `column` is absent from `dim_values` (broadcast anti-join).

    `dim_values`: an iterable of keys, or a ray.ObjectRef to one (put once,
    reused across stages). Small sets run as stateless tasks (no actor-pool
    spin-up latency); large sets use an actor pool reading one object-store
    copy."""
    if not isinstance(dim_values, ray.ObjectRef) \
            and len(dim_values) <= _BROADCAST_CLOSURE_LIMIT:
        check = BroadcastMembershipCheck(column, frozenset(dim_values),
                                         list(key_cols))
        return ds.map_batches(check.__call__, batch_format="pyarrow")
    values_ref = dim_values if isinstance(dim_values, ray.ObjectRef) \
        else ray.put(frozenset(dim_values))
    return ds.map_batches(
        BroadcastMembershipCheck,
        fn_constructor_kwargs=dict(column=column, values_ref=values_ref,
                                   key_cols=list(key_cols)),
        batch_format="pyarrow",
        concurrency=default_concurrency(),
    )


def summarize_verdicts(ds):
    """Tiny driver-side summary: counts by validity (safe to materialize)."""
    agg = ds.map_batches(
        lambda t: pa.table({
            "n": [t.num_rows],
            "n_valid": [int(pc.sum(t["valid"]).as_py() or 0)],
            "n_violations": [int(pc.sum(
                pc.list_value_length(t["violations"])).as_py() or 0)],
        }),
        batch_format="pyarrow",
    )
    tot = {"n": 0, "n_valid": 0, "n_violations": 0}
    for b in agg.iter_batches(batch_format="pyarrow"):
        tot["n"] += int(pc.sum(b["n"]).as_py() or 0)
        tot["n_valid"] += int(pc.sum(b["n_valid"]).as_py() or 0)
        tot["n_violations"] += int(pc.sum(b["n_violations"]).as_py() or 0)
    return tot


def clip_verdicts(path, spec):
    """Verdict rows (every clips column but `bytes`, plus valid/violations)
    for the clips table at `path` (a directory, a file, a file list or a
    ``FooterPlan``).

    A verdict-only pass should not scan the audio payload just to assert
    presence: when parquet row-group stats prove `bytes` is never null
    (and its only checks are presence + binary type), those checks are
    discharged from metadata and the column is pruned AT THE READ — at
    100 TB that is the difference between scanning ~1% of the table and
    all of it. Otherwise `bytes` is read and dropped inside the fused
    read->validate task (it never enters the object store: the validate
    stage batches internally, so nothing stops Ray fusing it)."""
    plan = footer_plan(path)
    spec, pruned = discharge_payload_checks(spec, plan, "bytes")
    if pruned:
        keep = [c for c in plan.column_names() if c != "bytes"]
        ds = read_table(plan, columns=keep)
    else:
        ds = read_table(plan)
        # no part file, no footer to list the columns (hive layout; the
        # discharge is vetoed then): the read's own schema lists them
        keep = [c for c in plan.column_names() or ds.schema().names
                if c != "bytes"]
    return validate_dataset(ds, spec, keep_columns=keep)


def clip_dataset_checks(source):
    """The two dataset-scale checks over clips rows at `source` (a clips
    table, verdict files or a ``FooterPlan`` of either — neither check
    needs `bytes`): duplicate clip_ids and codecs missing from
    `codecs_dim_table()`. Each reads only its own columns, pruned at the
    parquet reader.

    Returns (dupes, referential) as lazy Datasets."""
    from ..sources.clips import codecs_dim_table

    plan = footer_plan(source)
    dupes = uniqueness_violations(read_table(plan, columns=["clip_id"]))
    refv = referential_violations(
        read_table(plan, columns=["clip_id", "codec"]), "codec",
        codecs_dim_table()["codec"].to_pylist())
    return dupes, refv


def clip_validation_pipeline(clips_path, *, decode=False):
    """End-to-end flagship over the clips table at `clips_path`.

    Returns dict of lazy Datasets: verdicts, violations, dupes,
    referential. The table's footers are read once, into one
    ``FooterPlan`` that every read of the op takes. With `decode`, the
    payload is read and decoded in the validate task, and verdict rows
    carry the decoder's columns instead of `bytes`.
    """
    plan = footer_plan(clips_path)
    if decode:
        from ..stages.decode import ClipDecoder
        from ..stages.taskpool import stage_fn

        # task pool, not actors, and no batch_size (stage_fn cuts
        # ClipDecoder.PIECE_ROWS-row pieces): Ray fuses it with the
        # read->validate stage, so payload bytes never take an
        # object-store hop (taskpool.py)
        verdicts = validate_dataset(read_table(plan), CLIP_SPEC) \
            .map_batches(stage_fn(ClipDecoder), batch_format="pyarrow")
    else:
        verdicts = clip_verdicts(plan, CLIP_SPEC)
    dupes, refv = clip_dataset_checks(plan)
    return {"verdicts": verdicts, "violations": explode_violations(verdicts),
            "dupes": dupes, "referential": refv}
