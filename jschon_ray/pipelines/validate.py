"""The flagship validation pipeline and its dataset-scale check stages.

Pipeline shape (SURVEY.md §3.4):

    read (column-pruned, fragment-parallel)
      -> map_batches(SpecValidator)          per-row constraint suite
      -> [map_batches(ClipDecoder)]          opt-in decode/format checks
      -> groupby(clip_id) uniqueness         the one required shuffle
      -> broadcast semi-join vs codec dim    referential (NO shuffle)
      -> verdicts / violations / summary

Scale notes baked in:
  * uniqueness shuffles ONLY the key column (select_columns first) — bytes
    never enter a shuffle (SURVEY.md §7 hard part (e));
  * the dimension table is broadcast via ray.put once and read per actor in
    __init__, not re-shipped per batch;
  * everything returns lazy Datasets; callers consume via write/iter.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..sources.io import cluster_cpus
from ..stages.validate import SpecValidator, ViolationExploder
from .specs import CLIP_SPEC


def default_concurrency():
    """Actor-pool size for stateful stages: autoscale up to the CPU count
    (Ray requires explicit ``concurrency`` for callable classes)."""
    return (1, max(2, cluster_cpus()))


def validate_dataset(ds, spec, *, keep_columns=None, batch_size=4096,
                     concurrency=None, formats_factory=None,
                     check_spec=True):
    """Append valid/violations to every row of `ds` (lazy).

    ``check_spec``: validate the spec against the vspec metaschema once,
    driver-side, before compiling (the reference's metaschema step,
    /root/reference/jschon/catalog/__init__.py:191-238).

    Default path is a STATELESS task function (fuses with the upstream
    read: payload columns never hop through the object store between read
    and validate; the compiled plan is cached per worker process). Pass
    `formats_factory` (stateful format validators) to switch to the actor
    pool, which holds that state per actor."""
    if check_spec and isinstance(spec, dict):
        from ..vspec.metaschema import validate_spec

        validate_spec(spec)
    if formats_factory is None:
        from ..stages.validate import validate_batch_fn

        return ds.map_batches(
            functools.partial(validate_batch_fn, spec=spec,
                              keep_columns=keep_columns),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    return ds.map_batches(
        SpecValidator,
        fn_constructor_kwargs=dict(spec=spec, keep_columns=keep_columns,
                                   formats_factory=formats_factory),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency or default_concurrency(),
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
    row group. Returns (possibly rewritten spec, prunable: bool); any file
    with missing stats or a null vetoes (exactness over speed).
    """
    if not _stats_dischargeable(spec, col):
        return spec, False
    import pyarrow.parquet as pq
    for f in files:
        try:
            md = pq.read_metadata(f)
        except Exception:
            return spec, False
        sch = md.schema.to_arrow_schema()
        idx = sch.get_field_index(col)
        if idx < 0:
            return spec, False
        import pyarrow as _pa
        if sch.field(idx).type not in (_pa.binary(), _pa.large_binary()):
            return spec, False
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            if st is None or st.null_count is None or st.null_count > 0:
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


def uniqueness_violations(ds, key="clip_id", *, hash_first=False):
    """Keys appearing more than once — the `uniqueItems` analogue lifted
    across rows (/root/reference/jschon/vocabulary/validation.py:163-177).
    Output columns: (key, n_rows).

    Default: ONE exact groupby shuffle on the key column — it streams at
    any scale (per-block partial counts shuffle, nothing materializes on
    the driver). ``hash_first=True`` switches to a two-phase plan that
    shuffles only a 64-bit key hash and then exactly re-groups candidate
    rows; measured faster when parallelism is scarce (serial string sort
    dominates) but it collects the candidate-hash set on the driver, so it
    assumes duplicates are a SMALL fraction — at 10^12 rows with ~1% dupes
    that set no longer fits, which is why it is not the default.
    """
    key_list = [key] if isinstance(key, str) else list(key)
    keys = ds.select_columns(key_list)
    if not hash_first:
        # hash-bucket co-group, not groupby(key): ray's sort-based
        # groupby range-partitions by sorting the RAW key column —
        # 2.3 s of string sorting for 100k clip_ids where the same
        # exactness needs only an int64 bucket sort + one arrow C++
        # group_by per bucket (measured ~4x faster; a key's rows never
        # split across buckets, so per-bucket counts are global)
        from ..state.sketches import hash_array

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

        return keys.map_batches(tag, batch_format="pyarrow") \
            .groupby("_b").map_groups(bucket_dupes,
                                      batch_format="pyarrow")
    if len(key_list) > 1:
        raise ValueError("hash_first supports a single key column")
    key = key_list[0]

    from ..state.sketches import hash_array

    def to_hash(t: pa.Table) -> pa.Table:
        h = hash_array(t[key].to_pandas()).astype(np.int64)
        return pa.table({"h": h})

    hcounts = keys.map_batches(to_hash, batch_format="pyarrow") \
        .groupby("h").count()
    cand = hcounts.map_batches(
        lambda t: t.filter(pc.greater(t["count()"], 1)).select(["h"]),
        batch_format="pyarrow")
    # candidate hashes ≈ (true dupe keys + ~0 collisions): small enough to
    # collect and broadcast
    cand_arr = np.sort(np.concatenate(
        [b["h"].to_numpy(zero_copy_only=False)
         for b in cand.iter_batches(batch_format="pyarrow")] or
        [np.zeros(0, np.int64)]))
    if not len(cand_arr):
        import ray.data as rd
        sch = ds.schema()
        ktype = sch.types[sch.names.index(key)]
        return rd.from_arrow(pa.table(
            {key: pa.array([], ktype),
             "n_rows": pa.array([], pa.int64())}))
    if len(cand_arr) > 4_000_000:
        # duplicate-heavy data: the candidate set is no longer "small";
        # the direct exact shuffle is the better plan
        return uniqueness_violations(ds, key, hash_first=False)

    def keep_candidates(t: pa.Table, cand=cand_arr) -> pa.Table:
        h = hash_array(t[key].to_pandas()).astype(np.int64)
        idx = np.searchsorted(cand, h)
        idx[idx == len(cand)] = 0
        return t.filter(pa.array(cand[idx] == h))

    exact = keys.map_batches(keep_candidates, batch_format="pyarrow") \
        .groupby(key).count()

    def keep_dupes(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["count()"], 1))
        return t.rename_columns([key, "n_rows"])

    return exact.map_batches(keep_dupes, batch_format="pyarrow")


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


def clip_validation_pipeline(clips_path, *, spec=None, decode=False,
                             out_dir=None, batch_size=4096,
                             concurrency=None):
    """End-to-end flagship over a clips table (path or Dataset).

    Returns dict of lazy Datasets: verdicts, violations, dupes, referential
    — plus writes partitioned parquet when out_dir is given.
    """
    from ..sources.clips import codecs_dim_table
    from ..sources.io import read_table, write_table

    is_path = isinstance(clips_path, str)
    spec = spec or CLIP_SPEC

    if decode:
        ds = read_table(clips_path) if is_path else clips_path
        checked = validate_dataset(ds, spec, batch_size=batch_size,
                                   concurrency=concurrency)
        from ..stages.decode import ClipDecoder
        from ..stages.taskpool import stage_fn

        # task pool, not actors: ClipDecoder's only state is tol_ms, and
        # the task form lets Ray fuse it with the read->validate stage so
        # payload bytes never take an object-store hop (taskpool.py)
        checked = checked.map_batches(
            stage_fn(ClipDecoder), batch_format="pyarrow",
            batch_size=1024)
        verdicts = checked
    else:
        # verdict-only runs should not scan the audio payload just to
        # assert presence: when parquet row-group stats prove `bytes` is
        # never null (and its only checks are presence + binary type), the
        # checks are discharged from metadata and the column is pruned AT
        # THE READ — at 100 TB that is the difference between scanning ~1%
        # of the table and all of it. Otherwise `bytes` is read and dropped
        # inside the fused read->validate task (never enters the object
        # store).
        pruned = False
        if is_path:
            import pyarrow.parquet as pq

            from ..sources.io import table_files
            files = table_files(clips_path)
            spec, pruned = discharge_payload_checks(spec, files, "bytes")
            names = pq.read_schema(files[0]).names
            keep = [c for c in names if c != "bytes"]
            ds = read_table(clips_path, columns=keep) if pruned \
                else read_table(clips_path)
        else:
            ds = clips_path
            keep = [c for c in ds.schema().names if c != "bytes"]
        verdicts = validate_dataset(ds, spec, batch_size=batch_size,
                                    concurrency=concurrency,
                                    keep_columns=keep)

    violations = explode_violations(verdicts, key_cols=("clip_id",))
    # dupes/referential never need the (heavy) bytes column: re-read with
    # column pruning at the parquet reader when we own the read
    if is_path:
        key_ds = read_table(clips_path, columns=["clip_id"])
        ref_ds = read_table(clips_path, columns=["clip_id", "codec"])
    else:
        key_ds = ds.select_columns(["clip_id"])
        ref_ds = ds.select_columns(["clip_id", "codec"])
    dupes = uniqueness_violations(key_ds, key="clip_id")
    dim = codecs_dim_table()
    refv = referential_violations(ref_ds, "codec",
                                  dim["codec"].to_pylist(),
                                  key_cols=("clip_id",))
    out = {"verdicts": verdicts, "violations": violations, "dupes": dupes,
           "referential": refv}
    if out_dir:
        for name in ("verdicts", "violations", "dupes", "referential"):
            write_table(out[name], f"{out_dir}/{name}")
    return out
