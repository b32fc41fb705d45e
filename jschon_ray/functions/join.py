"""Partitioned hash join for two large Datasets.

The portable bucketed pattern (ray_guide "Joins and lookups"): add
``bucket = hash(key) % B`` to both sides, tag the side, union, then
``groupby(bucket).map_groups`` joins each co-grouped bucket with a pandas
merge. Broadcast joins (pipelines/validate.referential_violations) stay the
right tool when one side is small; this is for fact×fact.

Skew note: a hot key lands in one bucket; cap with more buckets or by
salting the *probe* side and replicating the build side per salt — we keep
B configurable and document the assumption that a single bucket's rows fit
one worker's memory.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state.sketches import hash_array


def _tag_batch(batch: pa.Table, key: str, side: int, num_buckets: int,
               all_cols: list) -> pa.Table:
    keys = batch[key]
    bucket = (hash_array(keys.to_pandas()) % num_buckets).astype(np.int64)
    cols = {"__bucket": pa.array(bucket),
            "__side": pa.array(np.full(batch.num_rows, side, np.int8))}
    for name, typ in all_cols:
        if name in batch.column_names:
            cols[name] = batch[name].cast(typ) \
                if batch.schema.field(name).type != typ else batch[name]
        else:
            cols[name] = pa.nulls(batch.num_rows, typ)
    return pa.table(cols)


def hash_join(left, right, *, on: str, how: str = "inner",
              num_buckets: int = 32, suffixes=("", "_r")):
    """Join two Datasets on one key column. Returns a lazy Dataset.

    how: 'inner' | 'left' | 'full'. Column collisions get `suffixes`
    applied to the right side (the join key stays unsuffixed). 'full'
    keeps unmatched rows of BOTH sides (nulls on the absent side) —
    same one-shuffle bucketed plan, since a key's rows from either side
    land in the same bucket.
    """
    lsch = left.schema()
    rsch = right.schema()
    lcols = list(zip(lsch.names, lsch.types))
    rname_map = {}
    rcols = []
    for n, t in zip(rsch.names, rsch.types):
        if n == on:
            continue
        out = n if n not in lsch.names else n + suffixes[1]
        rname_map[n] = out
        rcols.append((out, t))
    all_cols = [(on, lsch.types[lsch.names.index(on)])] \
        + [(n, t) for n, t in lcols if n != on] + rcols

    def tag_right(batch: pa.Table) -> pa.Table:
        batch = batch.rename_columns(
            [rname_map.get(c, c) for c in batch.column_names])
        return _tag_batch(batch, on, 1, num_buckets, all_cols)

    tagged = left.map_batches(
        functools.partial(_tag_batch, key=on, side=0,
                          num_buckets=num_buckets, all_cols=all_cols),
        batch_format="pyarrow",
    ).union(right.map_batches(tag_right, batch_format="pyarrow"))

    lnames = [on] + [n for n, _ in lcols if n != on]
    rnames = [n for n, _ in rcols]
    join_type = {"inner": "inner", "left": "left outer",
                 "full": "full outer"}[how]

    def join_bucket(g: pa.Table) -> pa.Table:
        # arrow-native per-bucket join: typed nulls never widen int64 ->
        # float64 the way a pandas merge would
        import pyarrow.compute as pc
        lmask = pc.equal(g["__side"], 0)
        l = g.filter(lmask).select(lnames)
        r = g.filter(pc.invert(lmask)).select([on] + rnames)
        return l.join(r, keys=on, join_type=join_type)

    return tagged.groupby("__bucket").map_groups(join_bucket,
                                                 batch_format="pyarrow")


def _distinct_tag_batch(batch: pa.Table, *, col: str, out: str,
                        side: int) -> pa.Table:
    """Per-block distinct keys + side tag: the only rows that ever
    shuffle in a set op / membership check. A block contributes each key
    once no matter how many rows carry it."""
    import pyarrow.compute as pc
    keys = pc.drop_null(batch[col]).unique()
    n = len(keys)
    return pa.table({out: keys,
                     "_in_a": pa.array(np.full(n, 1 - side, np.int64)),
                     "_in_b": pa.array(np.full(n, side, np.int64))})


def key_set_op(a, b, *, on_a: str, on_b: str, op: str, out: str = "key"):
    """Distributed set operation on key columns: 'intersect', 'except'
    (keys of `a` not in `b`), or 'union' — SQL INTERSECT / EXCEPT /
    UNION (distinct) semantics over the two columns.

    Scale shape: each block first reduces to its DISTINCT keys (payloads
    and duplicate rows never move), then one keys-only groupby shuffle
    sums per-side presence; the filter is a vectorized mask on the tiny
    aggregate. Skewed duplicate-heavy keys cost one row per block, not
    one per occurrence.
    """
    if op not in ("intersect", "except", "union"):
        raise ValueError(f"unknown set op: {op!r}")
    tagged = a.map_batches(
        functools.partial(_distinct_tag_batch, col=on_a, out=out, side=0),
        batch_format="pyarrow",
    ).union(b.map_batches(
        functools.partial(_distinct_tag_batch, col=on_b, out=out, side=1),
        batch_format="pyarrow"))
    agg = tagged.groupby(out).sum(["_in_a", "_in_b"])

    def pick(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        in_a = pc.greater(t["sum(_in_a)"], 0)
        in_b = pc.greater(t["sum(_in_b)"], 0)
        mask = {"intersect": pc.and_(in_a, in_b),
                "except": pc.and_(in_a, pc.invert(in_b)),
                "union": pc.or_(in_a, in_b)}[op]
        return t.filter(mask).select([out])

    return agg.map_batches(pick, batch_format="pyarrow")


def referential_violations_shuffle(fact, dim, *, fact_key: str,
                                   dim_key: str, bloom=None):
    """Referential-integrity violations when the dimension is TOO LARGE
    to broadcast (the scale complement of
    pipelines.validate.referential_violations): fact keys absent from
    the dimension, with how many fact rows carry each.

    Plan: per-block (distinct key, row count) partials on the fact side,
    distinct-key partials on the dim side, one keys-only groupby shuffle
    — dim payload columns and fact duplicates never move (the `$ref`
    semi-join of SURVEY §2.3 without the broadcast assumption).

    `bloom`: optional state.sketches.BloomFilter built over the dim keys.
    Keys the bloom rejects are DEFINITE violations (no false negatives)
    and skip the shuffle entirely — a pure win in the violation-heavy
    regime; keys it accepts still go through the exact shuffle, so the
    result is exact either way.

    Emits (fact_key, n_rows) per violating key.
    """
    def fact_partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keyed = batch.select([fact_key]) \
            .filter(pc.is_valid(batch[fact_key]))
        counts = keyed.group_by(fact_key).aggregate([(fact_key, "count")])
        keys = counts[fact_key]
        n = counts[f"{fact_key}_count"].cast(pa.int64())
        return pa.table({fact_key: keys, "_n": n,
                         "_dim": pa.array(np.zeros(len(keys), np.int64))})

    def dim_partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keys = pc.drop_null(batch[dim_key]).unique()
        return pa.table({fact_key: keys,
                         "_n": pa.array(np.zeros(len(keys), np.int64)),
                         "_dim": pa.array(np.ones(len(keys), np.int64))})

    facts = fact.map_batches(fact_partial, batch_format="pyarrow")
    definite = None
    if bloom is not None:
        # bind the class into the closure (ships by value with the task;
        # workers in a driver-owned session don't have this repo on path)
        from ..state.sketches import BloomFilter
        blob = bloom.to_bytes()

        def split(t: pa.Table):
            bf = BloomFilter.from_bytes(blob)
            hit = bf.contains(t[fact_key].to_numpy(zero_copy_only=False))
            return t.filter(pa.array(hit)), t.filter(pa.array(~hit))

        def misses(t: pa.Table) -> pa.Table:
            return split(t)[1].select([fact_key, "_n"])

        def hits(t: pa.Table) -> pa.Table:
            return split(t)[0]

        definite = facts.map_batches(misses, batch_format="pyarrow") \
            .groupby(fact_key).sum("_n")
        definite = definite.map_batches(
            lambda t: t.rename_columns([fact_key, "n_rows"]),
            batch_format="pyarrow")
        facts = facts.map_batches(hits, batch_format="pyarrow")

    tagged = facts.union(dim.map_batches(dim_partial,
                                         batch_format="pyarrow"))
    agg = tagged.groupby(fact_key).sum(["_n", "_dim"])

    def violations(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        mask = pc.equal(t["sum(_dim)"], 0)
        v = t.filter(mask)
        return pa.table({fact_key: v[fact_key],
                         "n_rows": v["sum(_n)"].cast(pa.int64())})

    out = agg.map_batches(violations, batch_format="pyarrow")
    return out.union(definite) if definite is not None else out


class _BroadcastJoiner:
    """Per-batch C++ hash join against one object-store copy of the small
    side (materialized once per actor in __init__, never per batch)."""

    def __init__(self, small_ref, on, how):
        import ray

        self.small = ray.get(small_ref) \
            if isinstance(small_ref, ray.ObjectRef) else small_ref
        self.on = on
        # per-batch probes cannot express full/right outer (unmatched
        # small-side rows would repeat once per batch) — reject rather
        # than silently degrade
        self.how = {"left": "left outer", "inner": "inner"}[how]

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.join(self.small, keys=self.on, join_type=self.how)


def broadcast_join(ds, small, *, on: str, how: str = "inner",
                   concurrency=None):
    """Enrich a large Dataset with a SMALL dimension table — the
    no-shuffle fact×dim plan (ray_guide "Joins and lookups": broadcast the
    small side with ray.put once, probe per batch).

    `small`: pyarrow Table / pandas DataFrame (driver-side). Each batch
    runs one pyarrow C++ hash join against the broadcast table; the fact
    side never moves. `how`: 'inner' | 'left'. Rows of `small` must be
    unique on `on` (enforced) so the output row count is predictable.

    Complements `hash_join` (both sides large -> bucketed shuffle) and
    `referential_violations` (membership-only anti-join).
    """
    import ray

    if isinstance(small, pd.DataFrame):
        small = pa.Table.from_pandas(small, preserve_index=False).replace_schema_metadata(None)
    n_keys = len(small.column(on).unique())
    if n_keys != small.num_rows:
        raise ValueError(f"broadcast_join: small side not unique on {on!r}")
    small = small.combine_chunks()
    if small.nbytes <= 4 << 20:
        # tiny dim: closure-capture into STATELESS tasks — no actor-pool
        # spin-up (measured: the pool costs ~3s wall for a 5-row dim);
        # the task closure ships once per worker process, not per batch
        joiner = _BroadcastJoiner(small, on, how)
        return ds.map_batches(joiner.__call__, batch_format="pyarrow")
    small_ref = ray.put(small)
    from ..pipelines.validate import default_concurrency

    return ds.map_batches(
        _BroadcastJoiner,
        fn_constructor_kwargs=dict(small_ref=small_ref, on=on, how=how),
        batch_format="pyarrow",
        concurrency=concurrency or default_concurrency(),
    )


_SALT_COL = "__salted_key"


def _salt_probe(batch: pa.Table, *, on: str, hot: pa.Array,
                num_salts: int) -> pa.Table:
    """Probe-side salting: cold rows get salt 0; a hot key's rows are
    dealt round-robin over `num_salts` salts, so its per-salted-key row
    count is bounded by ceil(hot_rows / num_salts) per batch."""
    import pyarrow.compute as pc

    k = batch[on]
    is_hot = pc.fill_null(pc.is_in(k, value_set=hot), False) \
               .to_numpy(zero_copy_only=False)
    salt = np.zeros(batch.num_rows, np.int64)
    salt[is_hot] = np.arange(int(is_hot.sum())) % num_salts
    s = pc.binary_join_element_wise(
        pc.cast(k, pa.string()),
        pa.array(salt.astype("U"), pa.string()), "#")
    return batch.append_column(_SALT_COL, s)


def _explode_build(batch: pa.Table, *, on: str, hot: pa.Array,
                   num_salts: int) -> pa.Table:
    """Build-side replication: cold rows carry salt 0 once; each hot
    build row is replicated once per salt so every probe salt finds its
    match. Extra rows = |hot build rows| x num_salts."""
    import pyarrow.compute as pc

    is_hot = pc.fill_null(pc.is_in(batch[on], value_set=hot), False)
    cold = batch.filter(pc.invert(is_hot))
    hotp = batch.filter(is_hot)
    zero = pa.array(np.zeros(cold.num_rows, np.int64).astype("U"),
                    pa.string())
    parts = [cold.append_column(
        _SALT_COL, pc.binary_join_element_wise(
            pc.cast(cold[on], pa.string()), zero, "#"))]
    for sgroup in range(num_salts):
        tag = pa.array(np.full(hotp.num_rows, sgroup,
                               np.int64).astype("U"), pa.string())
        parts.append(hotp.append_column(
            _SALT_COL, pc.binary_join_element_wise(
                pc.cast(hotp[on], pa.string()), tag, "#")))
    return pa.concat_tables(parts)


def salted_hash_join(left, right, *, on: str, hot_keys,
                     num_salts: int = 8, how: str = "inner",
                     num_buckets: int = 32, suffixes=("", "_r")):
    """`hash_join` for SKEWED keys: the named hot keys' build rows are
    replicated `num_salts` ways and their probe rows scattered across
    the salts, so one hot key's join work spreads over `num_salts`
    shuffle buckets instead of serializing on a single straggler task
    (SURVEY §4 skew row; the join-side complement of the salted
    grouped-stats aggregate).

    `hot_keys`: iterable of key values to salt (from a heavy-hitter
    pass, e.g. state.sketches count-min or a groupby count). Join
    OUTPUT is identical to `hash_join` for any salt assignment, since
    replicated build rows meet every probe salt — only the physical
    distribution changes. Cost: |hot build rows| x num_salts extra
    replicated rows; keep `hot_keys` to true heavy hitters.

    how: 'inner' | 'left' only. 'full' is rejected: replicated build
    rows would surface as duplicate unmatched copies (a hot right-only
    key appears once per salt), so full-outer must go through plain
    `hash_join`.
    """
    import pyarrow.compute as pc

    if how not in ("inner", "left"):
        raise ValueError(
            f"salted_hash_join supports how='inner'|'left', got {how!r};"
            " use hash_join(how='full') — salting replicates build rows"
            " and would emit duplicate unmatched copies under full-outer")

    hot = pa.array(sorted(set(hot_keys)))
    skey = _SALT_COL

    lefts = left.map_batches(
        functools.partial(_salt_probe, on=on, hot=hot,
                          num_salts=num_salts),
        batch_format="pyarrow")
    rights = right.map_batches(
        functools.partial(_explode_build, on=on, hot=hot,
                          num_salts=num_salts),
        batch_format="pyarrow") \
        .map_batches(lambda t: t.drop_columns([on]),
                     batch_format="pyarrow")
    joined = hash_join(lefts, rights, on=skey, how=how,
                       num_buckets=num_buckets, suffixes=suffixes)
    return joined.map_batches(lambda t: t.drop_columns([skey]),
                              batch_format="pyarrow")


#: logical ops whose re-execution costs ~a pruned re-read: the scan
#: itself, in-memory inputs, projections, and our metadata-strip stage
#: (sources.io._strip_block_meta — schema-only, fuses with the read).
#: Not Limit: which rows a limit keeps depends on task completion order,
#: so two executions may see different rows and pick different plans.
_CHEAP_OPS = {"Read", "InputData", "FromArrow", "FromPandas", "FromItems",
              "FromNumpy", "Project"}


def _plan_is_cheap(ds) -> bool:
    """True when re-executing `ds` twice is acceptable: its logical plan
    is a linear chain of scan / projection / metadata-only ops, so the
    second execution is a (column-pruned) re-read rather than a re-run
    of real transforms. Unknown plan shapes return False (safe side:
    materialize once rather than compute twice)."""
    try:
        node = ds._plan._logical_plan.dag
    except Exception:
        return False
    while True:
        name = type(node).__name__
        if name == "MapBatches":
            if "_strip_block_meta" not in (getattr(node, "name", "") or ""):
                return False
        elif name not in _CHEAP_OPS:
            return False
        deps = node.input_dependencies
        if not deps:
            return True
        if len(deps) != 1:
            return False
        node = deps[0]


def hash_join_auto(left, right, *, on: str, how: str = "inner",
                   num_buckets: int = 32, num_salts: int = 8,
                   skew_num: int = 1, skew_den: int = 100,
                   suffixes=("", "_r")):
    """`hash_join` with AUTOMATIC skew handling: one exact heavy-hitter
    pass over the probe (left) side's key column (per-block count
    combiner + keys-only groupby, relational.heavy_hitters) finds keys
    holding more than ``skew_num/skew_den`` of the rows; if any exist
    and `how` permits, the join runs as `salted_hash_join` with those
    keys salted `num_salts` ways, otherwise as plain `hash_join`.

    This is the auto-trigger the salted mode's docstring promises: a
    fact×fact join no longer needs the caller to know its key
    distribution — a 50%-hot key that would serialize one bucket's
    map_groups task is detected and spread across `num_salts` tasks.
    The detection pass reads ONLY the probe key column (pruned read if
    the input is a fresh parquet scan) and shuffles one row per
    distinct key per block, so its cost is a small fraction of the join
    shuffle it protects.

    'full' joins never salt (replicated build rows would duplicate
    unmatched copies — see salted_hash_join) and fall through to the
    plain plan unconditionally.

    COST NOTE: the detection pass and the join each consume the probe
    Dataset, and lazy Datasets don't cache — so when `left` carries
    real upstream transforms (anything beyond scan / projection /
    metadata ops, per `_plan_is_cheap`) it is `materialize()`d ONCE
    here and both passes read the cached blocks; a plain pruned scan is
    left lazy, since its second execution is a cheap one-column
    re-read. Object-store cost of the materialization is the probe's
    post-transform size — the same bytes the join shuffle moves anyway.
    """
    if how in ("inner", "left"):
        from .relational import heavy_hitters

        if not _plan_is_cheap(left):
            left = left.materialize()
        hot = heavy_hitters(left, col=on, num=skew_num, den=skew_den) \
            .to_pandas()
        # a NULL key can be a heavy hitter (arrow group_by keeps the
        # null group) but must never enter the hot SET: it matches no
        # build row, sorted() would compare None against real keys,
        # and int keys would decay to a float value_set through NaN
        hot = hot[hot[on].notna()]
        if len(hot):
            return salted_hash_join(
                left, right, on=on, hot_keys=list(hot[on]),
                num_salts=num_salts, how=how,
                num_buckets=num_buckets, suffixes=suffixes)
    return hash_join(left, right, on=on, how=how,
                     num_buckets=num_buckets, suffixes=suffixes)
