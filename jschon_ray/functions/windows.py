"""Event-time windows over stream-shaped tables (ray_guide pattern).

Ray Data is a batch engine; windows are expressed as vectorized bucket
columns (tumbling) or per-key sorted-group passes. Every per-key pass
goes through one scan: `route_by_key` hash-routes rows on the key into a
bounded number of buckets (keys never split), and `keyed_scan` hands
each bucket to the operator stably sorted by (key, ordering columns)
with a key-start mask — deterministic for any input partitioning.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ..state.sketches import hash_array

# Per-row float outputs are rounded half away from zero to the digits the
# SQL oracles round to: window deltas, medians and rolling stats to 4,
# transition probabilities and the EWMA recursion to 6.
_DECIMALS = 4
_FINE_DECIMALS = 6


def add_tumbling_window(batch: pa.Table, *, ts_col: str = "ts",
                        unit: str = "hour",
                        out: str = "window_start") -> pa.Table:
    """Vectorized tumbling bucket: floor the timestamp to the unit
    (matches SQL date_trunc semantics)."""
    return batch.append_column(out, pc.floor_temporal(batch[ts_col],
                                                      unit=unit))


def tumbling_agg(ds, *, key_cols=("event_type",), ts_col="ts",
                 value_col="value", unit="hour"):
    """count + sum + mean(value) per (key, window) — one vectorized
    bucket column, a PER-BLOCK combiner (arrow group_by inside the map
    stage), then a groupby shuffle over the tiny partials.

    The combiner is the scale move: without it the exchange carries
    every event row (measured 15.1 s for 10M events); with it each
    block ships at most |keys x windows-per-block| partial rows
    (count/sum decompose; mean = sum/count at the end)."""
    from ray.data.aggregate import Sum

    keys = list(key_cols) + ["window_start"]

    def partial(t: pa.Table) -> pa.Table:
        t = add_tumbling_window(t, ts_col=ts_col, unit=unit)
        agg = t.group_by(keys).aggregate(
            [([], "count_all"), (value_col, "sum"),
             (value_col, "count")])
        # select/rename by NAME, not position — arrow's key/aggregate
        # column ordering has changed across pyarrow majors
        agg = agg.select(keys + ["count_all", f"{value_col}_sum",
                                 f"{value_col}_count"])
        return agg.rename_columns(
            keys + ["_n", "_sum", "_nv"]).replace_schema_metadata(None)

    parts = ds.map_batches(partial, batch_format="pyarrow")
    merged = parts.groupby(keys).aggregate(
        Sum("_n", alias_name="n"), Sum("_sum", alias_name="sum_value"),
        Sum("_nv", alias_name="_nv"))

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].cast(pa.int64())
        nv = pc.cast(t["_nv"], pa.float64())
        # SQL avg semantics: nulls excluded from the mean (count(v)),
        # while n stays count(*) — avg NULL when every value is null
        avg = pc.if_else(pc.greater(nv, 0.0),
                         pc.divide(pc.cast(t["sum_value"],
                                           pa.float64()), nv),
                         pa.scalar(None, pa.float64()))
        out = {k: t[k] for k in keys}
        out["n"] = n
        out["sum_value"] = t["sum_value"]
        out["avg_value"] = avg
        return pa.table(out)

    return merged.map_batches(finish, batch_format="pyarrow")


def session_counts(ds, *, key_col="user_id", ts_col="ts",
                   tie_col="event_id", gap_minutes=30,
                   num_buckets: int | None = None):
    """Sessions per key: a new session starts when the gap since the
    previous event (ordered by (ts, tie)) exceeds `gap_minutes`.

    One `keyed_scan` pass that emits final per-key rows — groups stay
    bounded at scale (vs one pandas group per key) and no second shuffle
    is needed. Returns (key, n_events, n_sessions).
    """
    gap_us = int(gap_minutes) * 60_000_000

    def scan_bucket(g: pd.DataFrame, new_key: np.ndarray) -> pd.DataFrame:
        n = len(g)
        keys = g[key_col].to_numpy()
        ts_us = _epoch_us(g[ts_col])
        new_sess = new_key | (np.diff(ts_us, prepend=ts_us[:1]) > gap_us)
        key_starts = np.flatnonzero(new_key)
        n_events = np.diff(np.append(key_starts, n))
        # sessions per key = count of new_sess flags inside each segment
        csum = np.concatenate([[0], np.cumsum(new_sess)])
        n_sessions = csum[np.append(key_starts[1:], n)] \
            - csum[key_starts]
        return pd.DataFrame({
            key_col: keys[key_starts],
            "n_events": n_events.astype("int64"),
            "n_sessions": n_sessions.astype("int64")})

    return keyed_scan(ds, scan_bucket, key_col=key_col,
                      order_cols=[ts_col, tie_col],
                      cols=[key_col, ts_col, tie_col],
                      non_null=[key_col, ts_col], num_buckets=num_buckets)


def session_stats(ds, *, key_col="user_id", ts_col="ts",
                  tie_col="event_id", gap_minutes=30,
                  num_buckets: int | None = None):
    """Per-SESSION rows (key, session_idx, n_events, dur_us): a new
    session opens when the gap since the previous event exceeds
    `gap_minutes`; duration = last-minus-first event time inside the
    session (exact microseconds). Unlike `session_counts` (one row per
    key), this materializes the session table itself — the input to
    engagement/duration analytics — in one `keyed_scan` pass with
    vectorized boundary detection."""
    gap_us = int(gap_minutes) * 60_000_000

    def scan_bucket(g: pd.DataFrame, new_key: np.ndarray) -> pd.DataFrame:
        n = len(g)
        keys = g[key_col].to_numpy()
        ts_us = _epoch_us(g[ts_col])
        new_sess = new_key | (np.diff(ts_us, prepend=ts_us[:1]) > gap_us)
        starts = np.flatnonzero(new_sess)
        sizes = np.diff(np.append(starts, n))
        first = ts_us[starts]
        last = ts_us[np.append(starts[1:], n) - 1]
        # 1-based session index within each key
        key_start = np.flatnonzero(new_key[starts])
        sess_per_key = np.diff(np.append(key_start, len(starts)))
        idx = np.concatenate([np.arange(1, c + 1)
                              for c in sess_per_key]) \
            if len(starts) else np.zeros(0, np.int64)
        return pd.DataFrame({
            key_col: keys[starts],
            "session_idx": idx.astype("int64"),
            "n_events": sizes.astype("int64"),
            "dur_us": (last - first).astype("int64")})

    return keyed_scan(ds, scan_bucket, key_col=key_col,
                      order_cols=[ts_col, tie_col],
                      cols=[key_col, ts_col, tie_col],
                      non_null=[key_col, ts_col], num_buckets=num_buckets)


def _round_half_away(a: np.ndarray, decimals: int) -> np.ndarray:
    """SQL round() semantics (half away from zero) — np.round is
    banker's half-to-even, which diverges on representable .5
    boundaries."""
    s = 10.0 ** decimals
    return np.sign(a) * np.floor(np.abs(a) * s + 0.5) / s


def resolve_buckets(ds, num_buckets=None, *, row_bytes: int = 64,
                    target_bytes: int = 256 << 20, lo: int = 16,
                    hi: int = 65536) -> int:
    """Auto-size hash buckets when the caller passes None: one bucket's
    pandas frame should stay ~``target_bytes`` (default 256 MB), so group
    tasks are memory-bounded at any input size — 10M rows of a ~64-byte
    narrow scan stay at the ``lo`` floor (parallelism), 10^12 rows hit
    ~240k raw and clamp to ``hi``. Exactness never depends on the bucket
    count (keys don't split across buckets), so the estimate only needs
    to be order-of-magnitude right. ``ds.count()`` on the usual fresh
    parquet read resolves from file metadata; if counting fails, fall
    back to the historical default of 64.

    CAVEAT: on a TRANSFORMED lineage (filter/map/join upstream),
    ``ds.count()`` executes the whole upstream pipeline once just for
    the row count. A caller that transforms its read before a keyed
    operator sizes the buckets here from the source read and passes the
    result as that operator's ``num_buckets``.
    """
    if num_buckets is not None:
        return num_buckets
    try:
        n = ds.count()
    except Exception:
        return 64
    import math
    return int(min(hi, max(lo, math.ceil(n * row_bytes / target_bytes))))


def _key_bucket(batch: pa.Table, *, key_col: str,
                num_buckets: int) -> pa.Table:
    """Append a deterministic hash bucket of the key column. The bucket
    only routes rows (bounded group count for map_groups); it never
    appears in output, so any stable hash works."""
    col = batch[key_col]
    if pa.types.is_integer(col.type):
        v = col.to_numpy(zero_copy_only=False)
        if v.dtype.kind == "f":   # nulls decay int columns to float+NaN
            # deterministic routing for null keys (NaN->uint64 is
            # platform-defined and warns); NaN rows still group apart
            # downstream — callers wanting null-key semantics prefilter
            v = np.nan_to_num(v, nan=-1.0)
        k = v.astype(np.uint64)
        mixed = (k * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
        b = (mixed % np.uint64(num_buckets)).astype(np.int32)
    else:
        h = hash_array(col.to_pandas()).astype(np.uint64)
        b = (h % np.uint64(num_buckets)).astype(np.int32)
    return batch.append_column("_bucket", pa.array(b))


def _valid(batch: pa.Table, cols) -> pa.ChunkedArray:
    """Row mask: no null in any of `cols`."""
    mask = None
    for c in cols:
        m = pc.is_valid(batch[c])
        mask = m if mask is None else pc.and_(mask, m)
    return mask


def _non_null_rows(ds, cols):
    """Keyed-scan NULL convention (pinned by
    tests/test_windows_null_edges.py): a row with a null partition key,
    null ordering timestamp, or null interval bound has no place in the
    scan — dropped up front, the SQL `WHERE key IS NOT NULL AND ts IS
    NOT NULL` prefilter. The windowed GROUP BY family (tumbling /
    hopping) deliberately does NOT use this: SQL GROUP BY keeps null
    groups, and so do they."""
    cols = list(cols)

    def drop(batch: pa.Table) -> pa.Table:
        return batch.filter(_valid(batch, cols))

    return ds.map_batches(drop, batch_format="pyarrow")


def route_by_key(ds, *, key_col: str, cols=None, non_null=(), prep=None,
                 num_buckets: int | None = None, row_bytes: int = 64):
    """Tag every row of `ds` with the hash bucket (`_bucket`) of
    `key_col`, ready for ``groupby("_bucket").map_groups``: keep `cols`
    (every column when None), drop rows with a null in any `non_null`
    column (`_non_null_rows`), apply the batch transform `prep` if
    given, then route. The bucket count is `num_buckets`, or when None
    is sized by `resolve_buckets` on `ds` itself — the source lineage,
    counted before any of these steps, never a filtered one."""
    buckets = resolve_buckets(ds, num_buckets, row_bytes=row_bytes)
    if cols is not None:
        ds = ds.select_columns(list(cols))
    if non_null:
        ds = _non_null_rows(ds, non_null)
    if prep is not None:
        ds = ds.map_batches(prep, batch_format="pyarrow")
    return ds.map_batches(functools.partial(_key_bucket, key_col=key_col,
                                            num_buckets=buckets),
                          batch_format="pyarrow")


def keyed_scan(ds, fn, *, key_col: str, order_cols=(), cols=None,
               non_null=(), num_buckets: int | None = None,
               row_bytes: int = 64):
    """The per-key segmented scan: rows routed by `route_by_key`, one
    pandas group per bucket, and each group handed to ``fn(g, first)``
    with `g` stably sorted by (key_col, *order_cols) and ``first[i]``
    True where row i starts a new key (`_key_last(first)` marks each
    key's last row). Keys never split across buckets, so `fn` sees whole
    keys and the result is exact for any bucket count: one shuffle of
    the narrow columns, vectorized segment passes, no per-key Python
    dispatch."""
    by = [key_col, *order_cols]

    @functools.wraps(fn)         # the Ray operator keeps the operator's name
    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(by, kind="mergesort")
        keys = g[key_col].to_numpy()
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        return fn(g, first)

    return route_by_key(ds, key_col=key_col, cols=cols, non_null=non_null,
                        num_buckets=num_buckets, row_bytes=row_bytes) \
        .groupby("_bucket").map_groups(scan, batch_format="pandas")


def _key_last(first: np.ndarray) -> np.ndarray:
    """Last-row-of-key mask from a key-start mask."""
    return np.append(first[1:], True)[:len(first)]


def _key_start(first: np.ndarray) -> np.ndarray:
    """Index of the first row of each row's key."""
    idx = np.arange(len(first), dtype=np.int64)
    return np.maximum.accumulate(np.where(first, idx, 0))


def _key_sizes(first: np.ndarray) -> np.ndarray:
    """Row count of each row's key."""
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, len(first)))
    return np.repeat(sizes, sizes)


def _trailing_frame(v: np.ndarray, first: np.ndarray, k: int) -> np.ndarray:
    """(k, n) matrix of each row's trailing k values (row j = lag j),
    NaN before the key's first row — reduced column-wise by the rolling
    operators; k is small and fixed."""
    n = len(v)
    idx = np.arange(n, dtype=np.int64)
    seg = _key_start(first)
    lag = np.full((k, n), np.nan)
    for j in range(k):
        src = idx - j
        ok = src >= seg
        lag[j, ok] = v[src[ok]]
    return lag


def _epoch_us(s: pd.Series) -> np.ndarray:
    return s.to_numpy().astype("datetime64[us]").astype(np.int64)


def keyed_window_scan(ds, *, key_col: str, ts_col: str, tie_col: str,
                      value_col: str, k: int = 5, num_buckets: int | None = None,
                      to_int=None):
    """Per-key ordered window pass: running (cumulative) sum, rolling
    k-row sum and rolling count over rows ordered by (ts, tie) within
    each key — SQL `SUM(v) OVER (PARTITION BY key ORDER BY ts, tie
    ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW)` semantics, as one
    `keyed_scan` pass of segmented cumsums.

    `to_int`: optional batch fn mapping the float value column to exact
    int64 units (e.g. cents) so cumulative sums hash-match a SQL oracle
    bit-for-bit; default keeps the column as-is (float cumsum).

    Emits (key_col, tie_col, row_in_key, cum_value, roll_sum, roll_n).
    """
    def scan_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        n = len(g)
        v = g[value_col].to_numpy()
        if to_int is not None:
            v = to_int(v)
        idx = np.arange(n, dtype=np.int64)
        seg = _key_start(first)
        cs = np.cumsum(v)
        base = np.where(seg > 0, cs[np.maximum(seg - 1, 0)], 0)
        lo = np.maximum(idx - (k - 1), seg)
        prev = lo - 1
        roll = cs - np.where(prev >= 0, cs[np.maximum(prev, 0)], 0)
        return pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            tie_col: g[tie_col].to_numpy(),
            "row_in_key": idx - seg,
            "cum_value": cs - base,
            "roll_sum": roll,
            "roll_n": (idx - lo + 1).astype(np.int64)})

    return keyed_scan(ds, scan_bucket, key_col=key_col,
                      order_cols=[ts_col, tie_col],
                      cols=[key_col, ts_col, tie_col, value_col],
                      non_null=[key_col, ts_col], num_buckets=num_buckets)


def hopping_agg(ds, *, key_cols=("event_type",), ts_col="ts",
                value_col="value", width_minutes=60, stride_minutes=30):
    """count + sum(value) per (key, hopping window): windows of `width`
    starting every `stride` (width must be an integer multiple of stride).

    Vectorized explode: a row at time t belongs to exactly width/stride
    windows, so each batch is concatenated m times with shifted
    window_start columns — no Python row loop, no per-row fan-out
    machinery. The groupby then pre-aggregates per block before the
    shuffle (Ray's sort aggregate ships partials, not rows).
    """
    if width_minutes % stride_minutes:
        raise ValueError("width must be an integer multiple of stride")
    m = width_minutes // stride_minutes
    stride_us = stride_minutes * 60_000_000

    from ray.data.aggregate import Count, Sum

    def explode(t: pa.Table) -> pa.Table:
        # a null timestamp belongs to no hop, so it must not be
        # replicated m times: it contributes ONE row to the null-window
        # group (SQL GROUP BY keeps null groups once per source row)
        has_ts = pc.is_valid(t[ts_col])
        nulls = t.filter(pc.invert(has_ts))
        t = t.filter(has_ts)
        ts_us = t[ts_col].cast(pa.timestamp("us")).cast(pa.int64())
        k = pc.floor(pc.divide(ts_us.cast(pa.float64()), stride_us))
        k = k.cast(pa.int64())
        parts = []
        base = t.select(list(key_cols) + [value_col])
        for j in range(m):
            start = pc.multiply(pc.subtract(k, j), stride_us) \
                .cast(pa.timestamp("us"))
            parts.append(base.append_column("window_start", start))
        if nulls.num_rows:
            parts.append(
                nulls.select(list(key_cols) + [value_col]).append_column(
                    "window_start",
                    pa.nulls(nulls.num_rows, pa.timestamp("us"))))
        return pa.concat_tables(parts)

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    return exploded.groupby(list(key_cols) + ["window_start"]).aggregate(
        Count(alias_name="n"), Sum(value_col, alias_name="sum_value"))


def funnel_conversion(ds, *, user_col: str, ts_col: str, type_col: str,
                      step_a: str, step_b: str, within,
                      num_buckets: int | None = None):
    """Per-user funnel analysis: did any `step_a` event lead to a
    `step_b` event at-or-after it within `within`? The product-analytics
    primitive (click -> purchase conversion) as ONE bounded shuffle.

    Scale shape: rows are filtered to the two step types at the read
    (column- and row-pruned), routed by user (`route_by_key`), and each
    bucket runs a segmented-numpy REVERSE scan: sort by (user, ts,
    a-before-b on ties), walk backward carrying the index of the
    nearest upcoming step_b within the user segment — no per-user
    Python dispatch. Rows with null user/ts are dropped.

    Emits one row per user with >= 1 step event:
    (user_col, n_a, n_b, converted, min_gap_us) where min_gap_us =
    min over step_a events of (first step_b at-or-after) - ts, null if
    no (a, b) pair exists.
    """

    within_us = _to_us_windows(within)

    def prefilter(t: pa.Table) -> pa.Table:
        return t.filter(pc.and_(
            pc.is_in(t[type_col], value_set=pa.array([step_a, step_b])),
            _valid(t, [user_col, ts_col])))

    keyed = route_by_key(ds, key_col=user_col,
                         cols=[user_col, ts_col, type_col], prep=prefilter,
                         num_buckets=num_buckets)

    def scan_bucket(g: pd.DataFrame) -> pd.DataFrame:
        is_b = (g[type_col] == step_b).to_numpy()
        ts = g[ts_col].to_numpy()
        if np.issubdtype(ts.dtype, np.datetime64):
            ts = ts.astype("datetime64[us]").astype(np.int64)
        else:
            ts = ts.astype(np.int64)
        # sort: user, ts, a before b on equal ts (so the backward scan
        # from an a-row sees a same-timestamp b as "at-or-after")
        order = np.lexsort((is_b, ts,
                            g[user_col].to_numpy()))
        users = g[user_col].to_numpy()[order]
        ts = ts[order]
        is_b_s = is_b[order]
        n = len(g)
        idx = np.arange(n, dtype=np.int64)
        # nearest upcoming b index per row = forward-fill of b positions
        # over the REVERSED array (walking backward, remember the last b
        # seen); run globally, then kill hits beyond the row's segment
        rev_new = np.empty(n, dtype=bool)
        rev_new[-1] = True
        rev_new[:-1] = users[1:] != users[:-1]
        # seg_end[i] = last index of i's segment
        ends = np.where(rev_new, idx, n + 1)
        seg_end = np.minimum.accumulate(ends[::-1])[::-1]
        j = np.arange(n, dtype=np.int64)
        rc = np.where(is_b_s[::-1], j, np.int64(-1))
        ff = np.maximum.accumulate(rc)
        nb = np.where(ff >= 0, n - 1 - ff, np.int64(-1))[::-1]
        valid = (nb >= 0) & (nb <= seg_end)
        a_rows = ~is_b_s
        gap = np.where(valid, ts[np.clip(nb, 0, n - 1)] - ts,
                       np.int64(-1))
        dfa = pd.DataFrame({
            "u": users, "a": a_rows.astype(np.int64),
            "b": is_b_s.astype(np.int64),
            "gap": np.where(a_rows & valid, gap, np.int64(-1))})
        agg = dfa.groupby("u", sort=False).agg(
            n_a=("a", "sum"), n_b=("b", "sum"))
        pos = dfa[dfa["gap"] >= 0].groupby("u", sort=False)["gap"].min()
        agg["min_gap_us"] = pos.reindex(agg.index)
        agg["converted"] = agg["min_gap_us"].notna() \
            & (agg["min_gap_us"] <= within_us)
        out = agg.reset_index().rename(columns={"u": user_col})
        out["n_a"] = out["n_a"].astype(np.int64)
        out["n_b"] = out["n_b"].astype(np.int64)
        return out[[user_col, "n_a", "n_b", "converted", "min_gap_us"]]

    return keyed.groupby("_bucket").map_groups(scan_bucket,
                                               batch_format="pandas")


def _to_us_windows(value) -> int:
    if isinstance(value, (int, np.integer)):
        return int(value)
    return int(pd.Timedelta(value).value // 1000)


def retention_cohorts(ds, *, user_col: str, ts_col: str,
                      unit: str = "week", num_buckets: int | None = None):
    """Cohort retention matrix: users grouped by their FIRST activity
    bucket (the cohort), counted in every later bucket they return —
    the standard growth-analytics rollup.

    Shape: per-block DISTINCT (user, bucket) pairs prune before the one
    user-keyed shuffle (`route_by_key`: a user's full history
    co-locates); each group then derives (cohort = min bucket, offset =
    bucket - cohort) pairs vectorized and emits pre-aggregated counts,
    so the final exchange is cohort-matrix-sized. Null user/ts dropped.

    Emits (cohort, offset, n_users): n_users distinct users whose first
    bucket is `cohort` and who were active `offset` units later
    (offset 0 = the cohort size).
    """

    freq = {"week": "W", "day": "D", "hour": "h"}[unit]

    def pairs(t: pa.Table) -> pa.Table:
        df = t.to_pandas().dropna(subset=[user_col, ts_col])
        if freq == "W":  # ANSI-ish: weeks since epoch, Monday start
            b = (df[ts_col].dt.normalize()
                 - pd.to_timedelta(df[ts_col].dt.weekday, unit="D"))
        else:
            b = df[ts_col].dt.floor(freq)
        out = pd.DataFrame({user_col: df[user_col], "bucket": b}) \
            .drop_duplicates()
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    keyed = route_by_key(ds, key_col=user_col, cols=[user_col, ts_col],
                         prep=pairs, num_buckets=num_buckets)

    step = {"W": 7 * 86400, "D": 86400, "h": 3600}[freq]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([user_col, "bucket"])
        first = g.groupby(user_col, sort=False)["bucket"].transform("min")
        off = (g["bucket"] - first).dt.total_seconds() \
            .to_numpy(np.int64) // step
        agg = pd.DataFrame({"cohort": first, "offset": off}) \
            .groupby(["cohort", "offset"], sort=False).size() \
            .reset_index(name="n_users")
        return agg

    merged = keyed.groupby("_bucket").map_groups(per_bucket,
                                                 batch_format="pandas")
    final = merged.groupby(["cohort", "offset"]).sum(["n_users"])

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "cohort": t["cohort"].cast(pa.timestamp("us")),
            "offset": t["offset"].cast(pa.int64()),
            "n_users": t["sum(n_users)"].cast(pa.int64())})

    return final.map_batches(finish, batch_format="pyarrow")


def event_bigrams(ds, *, user_col: str, ts_col: str, tie_col: str,
                  type_col: str, num_buckets: int | None = None):
    """Per-key consecutive-event transition counts (path analysis):
    how often does event type A immediately precede B within a user's
    (ts, tie)-ordered stream — SQL `lag() OVER (PARTITION BY user ORDER
    BY ts, tie)` + GROUP BY.

    Shape: one `keyed_scan` pass (shift-compare, no per-user dispatch)
    emitting per-bucket (prev, next) partial counts -> one tiny
    transition-matrix-sized groupby. Null user/ts rows are dropped.
    Emits (prev, next, n).
    """

    def scan_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        types = g[type_col].to_numpy()
        same = ~first
        prev = np.roll(types, 1)
        df = pd.DataFrame({"prev": prev[same], "next": types[same]})
        return df.groupby(["prev", "next"], sort=False).size() \
            .reset_index(name="n")

    parts = keyed_scan(ds, scan_bucket, key_col=user_col,
                       order_cols=[ts_col, tie_col],
                       cols=[user_col, ts_col, tie_col, type_col],
                       non_null=[user_col, ts_col], num_buckets=num_buckets)
    merged = parts.groupby(["prev", "next"]).sum("n")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"prev": t["prev"], "next": t["next"],
                         "n": t["sum(n)"].cast(pa.int64())})

    return merged.map_batches(finish, batch_format="pyarrow")


def keyed_moving_median(ds, *, key_col: str, ts_col: str, tie_col: str,
                        value_col: str, k: int = 3,
                        num_buckets: int | None = None):
    """Per-key trailing moving median (robust smoothing): SQL
    `median(v) OVER (PARTITION BY key ORDER BY ts, tie ROWS BETWEEN
    k-1 PRECEDING AND CURRENT ROW)` semantics, window truncated at the
    key's first row. Even windows interpolate (mean of the middle two),
    matching DuckDB's continuous median.

    One `keyed_scan` pass: inside a bucket the window is materialized as
    a (k, n) lag matrix with NaN outside the frame and reduced with ONE
    np.nanmedian — vectorized for the small fixed k this op targets; a
    large-k variant would switch to a sliding two-heap pass instead.

    Emits (key_col, tie_col, med) with `med` rounded to 4 decimals so
    float interpolation hash-matches the oracle.
    """
    def scan_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        lag = _trailing_frame(g[value_col].to_numpy(np.float64), first, k)
        med = _round_half_away(np.nanmedian(lag, axis=0), _DECIMALS)
        return pd.DataFrame({key_col: g[key_col].to_numpy(),
                             tie_col: g[tie_col].to_numpy(),
                             "med": med})

    return keyed_scan(ds, scan_bucket, key_col=key_col,
                      order_cols=[ts_col, tie_col],
                      cols=[key_col, ts_col, tie_col, value_col],
                      non_null=[key_col, ts_col], num_buckets=num_buckets)


def keyed_lag(ds, *, key_col: str, ts_col: str, tie_col: str,
              value_col: str, num_buckets: int | None = None):
    """Per-key LAG deltas: microsecond gap since the previous row and
    value change vs the previous row, ordered by (ts, tie) within each
    key — SQL `x - lag(x) OVER (PARTITION BY key ORDER BY ts, tie)`
    semantics with NULL on each key's first row.

    One `keyed_scan` pass with a vectorized diff per bucket — no
    per-key dispatch, no driver loop, and the wide columns never move.

    Emits (key_col, tie_col, gap_us:int64?, value_delta:double?); the
    delta is rounded to 4 decimals so it hash-matches a SQL oracle.
    """
    def scan_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        ts_us = _epoch_us(g[ts_col])
        v = g[value_col].to_numpy(np.float64)
        gap = np.diff(ts_us, prepend=ts_us[:1])
        dv = np.diff(v, prepend=v[:1])
        return pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            tie_col: g[tie_col].to_numpy(),
            "gap_us": pd.array(np.where(first, 0, gap), dtype="Int64"),
            "value_delta": _round_half_away(dv, _DECIMALS),
            "_first": first,
        })

    out = keyed_scan(ds, scan_bucket, key_col=key_col,
                     order_cols=[ts_col, tie_col],
                     cols=[key_col, ts_col, tie_col, value_col],
                     non_null=[key_col, ts_col], num_buckets=num_buckets)

    def null_first(t: pa.Table) -> pa.Table:
        keep = pc.invert(t["_first"])
        gap = pc.if_else(keep, t["gap_us"], pa.nulls(len(t), pa.int64()))
        dv = pc.if_else(keep, t["value_delta"],
                        pa.nulls(len(t), pa.float64()))
        return pa.table({key_col: t[key_col], tie_col: t[tie_col],
                         "gap_us": gap, "value_delta": dv})

    return out.map_batches(null_first, batch_format="pyarrow")


def keyed_lead(ds, *, key_col: str, ts_col: str, tie_col: str,
               value_col: str, num_buckets: int | None = None):
    """Per-key LEAD deltas: microsecond gap UNTIL the next row and value
    change vs the next row — SQL `lead(x) OVER (PARTITION BY key ORDER
    BY ts, tie) - x` with NULL on each key's last row (time-to-next-
    event / churn-gap inputs). Mirror image of `keyed_lag`: same
    `keyed_scan` pass, diff taken forward."""
    def scan_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        ts_us = _epoch_us(g[ts_col])
        v = g[value_col].to_numpy(np.float64)
        gap = np.diff(ts_us, append=ts_us[-1:])
        dv = np.diff(v, append=v[-1:])
        return pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            tie_col: g[tie_col].to_numpy(),
            "gap_us": gap, "value_delta": _round_half_away(dv, _DECIMALS),
            "_last": _key_last(first),
        })

    out = keyed_scan(ds, scan_bucket, key_col=key_col,
                     order_cols=[ts_col, tie_col],
                     cols=[key_col, ts_col, tie_col, value_col],
                     non_null=[key_col, ts_col], num_buckets=num_buckets)

    def null_last(t: pa.Table) -> pa.Table:
        keep = pc.invert(t["_last"])
        gap = pc.if_else(keep, t["gap_us"], pa.nulls(len(t), pa.int64()))
        dv = pc.if_else(keep, t["value_delta"],
                        pa.nulls(len(t), pa.float64()))
        return pa.table({key_col: t[key_col], tie_col: t[tie_col],
                         "lead_gap_us": gap, "lead_delta": dv})

    return out.map_batches(null_last, batch_format="pyarrow")


def keyed_throttle(ds, *, key_col: str, ts_col: str, tie_col: str,
                   min_gap_us: int, num_buckets: int | None = None):
    """LAG-based rate limiting: keep a row iff it is the key's first
    row or arrived at least `min_gap_us` after the PREVIOUS row (kept
    or not) — i.e. SQL `lag(ts)`-relative throttling, which stays
    window-expressible (a kept-relative throttle would be a sequential
    dependency and lose SQL parity).

    Emits the kept (key_col, tie_col, gap_us) rows; `gap_us` is NULL on
    first-of-key rows. One `keyed_scan` pass, vectorized diff.
    """
    def scan_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        ts_us = _epoch_us(g[ts_col])
        gap = np.diff(ts_us, prepend=ts_us[:1])
        keep = first | (gap >= min_gap_us)
        return pd.DataFrame({
            key_col: g[key_col].to_numpy()[keep],
            tie_col: g[tie_col].to_numpy()[keep],
            "gap_us": pd.array(gap[keep], dtype="Int64"),
            "_first": first[keep]})

    out = keyed_scan(ds, scan_bucket, key_col=key_col,
                     order_cols=[ts_col, tie_col],
                     cols=[key_col, ts_col, tie_col],
                     non_null=[key_col, ts_col], num_buckets=num_buckets)

    def null_first(t: pa.Table) -> pa.Table:
        gap = pc.if_else(pc.invert(t["_first"]), t["gap_us"],
                         pa.nulls(len(t), pa.int64()))
        return pa.table({key_col: t[key_col], tie_col: t[tie_col],
                         "gap_us": gap})

    return out.map_batches(null_first, batch_format="pyarrow")


def keyed_latest(ds, *, key_cols: list, ts_col: str, tie_col: str,
                 num_buckets: int | None = None, keep: str = "last"):
    """Latest (or, with keep='first', earliest) row per composite key
    (the snapshot / type-2-SCD dedup: `row_number() OVER (PARTITION BY
    keys ORDER BY ts DESC, tie DESC) = 1`; keep='first' flips to ASC —
    first-touch attribution). Rows route on the FIRST key (composite
    keys never split), then one sorted keep-last pass per bucket — no
    per-key dispatch, duplicates collapse inside the bucket so the
    output is bounded by the key-domain size.

    NULL convention: rows with a null key component or null timestamp
    are dropped up front — without this, NaT sorts LAST under pandas
    and a timestamp-less row silently wins the 'latest' slot."""
    def last_per_key(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        out = g.drop_duplicates(list(key_cols), keep=keep)
        return out.drop(columns=["_bucket"])

    return keyed_scan(ds, last_per_key, key_col=key_cols[0],
                      order_cols=[*key_cols[1:], ts_col, tie_col],
                      non_null=[*key_cols, ts_col], num_buckets=num_buckets)


def keyed_distinct_runs(ds, *, key_col: str, ts_col: str, tie_col: str,
                        run_col: str, num_buckets: int | None = None):
    """Run-length compression of an event stream: keep a row iff it is
    the key's first row or `run_col` differs from the PREVIOUS row's
    value (ordered by ts, tie) — `run_col != lag(run_col)` semantics,
    the dedup used to collapse repeated states/heartbeats into
    transitions. One `keyed_scan` pass, like `keyed_lag`."""
    def scan_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        runs = g[run_col].to_numpy()
        keep = first.copy()
        keep[1:] |= runs[1:] != runs[:-1]
        return g.loc[keep, [key_col, ts_col, tie_col, run_col]]

    return keyed_scan(ds, scan_bucket, key_col=key_col,
                      order_cols=[ts_col, tie_col],
                      cols=[key_col, ts_col, tie_col, run_col],
                      non_null=[key_col, ts_col], num_buckets=num_buckets)


def keyed_percent_rank(ds, *, key_col: str, value_col: str, tie_col: str,
                       num_buckets: int | None = None):
    """Per-key exact rank + percent_rank: `percent_rank() OVER
    (PARTITION BY key ORDER BY value, tie)` — (rank-1)/(n_key-1), 0.0
    for single-row keys, under a tie-broken total order (so ranks are
    dense and reproducible). One `keyed_scan` pass over the three
    narrow columns; keys never split, so per-key sizes are known inside
    the bucket and the pct divides two exact integers."""
    def rank_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        rank = np.arange(len(g), dtype=np.int64) - _key_start(first) + 1
        n_key = _key_sizes(first)
        pct = np.where(n_key > 1, (rank - 1) / np.maximum(n_key - 1, 1),
                       0.0)
        return pd.DataFrame({key_col: g[key_col].to_numpy(),
                             tie_col: g[tie_col].to_numpy(),
                             value_col: g[value_col].to_numpy(),
                             "rnk": rank, "pct": pct})

    return keyed_scan(ds, rank_bucket, key_col=key_col,
                      order_cols=[value_col, tie_col],
                      cols=[key_col, value_col, tie_col],
                      non_null=[key_col], num_buckets=num_buckets)


def keyed_cume_dist(ds, *, key_col: str, value_col: str, tie_col: str,
                    num_buckets: int | None = None):
    """Per-key exact cumulative distribution: `cume_dist() OVER
    (PARTITION BY key ORDER BY value)` — (# rows with value <= current)
    / n_key, ties counted together (the SQL tie semantics, unlike
    percent_rank's tie-broken order). One `keyed_scan` pass over three
    narrow columns; each output value divides two exact integers so it
    hash-matches the oracle bit-for-bit.

    Pass an integer `value_col` (e.g. cents) so tie groups are exact.

    Partitioning assumption: a key's rows fit one bucket task (same as
    keyed_percent_rank). For low-cardinality keys over huge tables the
    scale path is a value-histogram CDF instead (the
    grouped_percentile_cont_lowcard shape) — counts shuffle, rows
    don't."""
    def cd_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        vals = g[value_col].to_numpy()
        new_val = first.copy()
        new_val[1:] |= vals[1:] != vals[:-1]
        # last index of each value-tie group, broadcast back to rows
        gid = np.cumsum(new_val) - 1
        gend = np.cumsum(np.bincount(gid)) - 1
        k_le = gend[gid] - _key_start(first) + 1  # rows with value <= current
        return pd.DataFrame({key_col: g[key_col].to_numpy(),
                             tie_col: g[tie_col].to_numpy(),
                             value_col: vals,
                             "cd": k_le / _key_sizes(first)})

    return keyed_scan(ds, cd_bucket, key_col=key_col,
                      order_cols=[value_col, tie_col],
                      cols=[key_col, value_col, tie_col],
                      non_null=[key_col], num_buckets=num_buckets)


def keyed_rolling_stats(ds, *, key_col: str, ts_col: str, tie_col: str,
                        value_col: str, k: int = 5,
                        num_buckets: int | None = None):
    """Per-key trailing rolling mean + sample stddev (the anomaly-score
    inputs): `avg(v) OVER w` / `stddev_samp(v) OVER w` with w = ROWS
    BETWEEN k-1 PRECEDING AND CURRENT ROW, window truncated at the
    key's first row; stddev is NULL for single-row windows (SQL
    stddev_samp semantics).

    Same lag-matrix shape as `keyed_moving_median`: (k, n) with NaN
    outside the frame, reduced with one nanmean/nanstd pass. Rounded to
    4 decimals so both stats hash-match a SQL oracle."""
    import warnings

    def scan_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        lag = _trailing_frame(g[value_col].to_numpy(np.float64), first, k)
        cnt = np.sum(~np.isnan(lag), axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mean = np.nanmean(lag, axis=0)
            std = np.nanstd(lag, axis=0, ddof=1)
        std = np.where(cnt > 1, std, np.nan)
        return pd.DataFrame({key_col: g[key_col].to_numpy(),
                             tie_col: g[tie_col].to_numpy(),
                             "roll_mean": _round_half_away(mean, _DECIMALS),
                             "roll_std": _round_half_away(std, _DECIMALS)})

    return keyed_scan(ds, scan_bucket, key_col=key_col,
                      order_cols=[ts_col, tie_col],
                      cols=[key_col, ts_col, tie_col, value_col],
                      non_null=[key_col, ts_col], num_buckets=num_buckets)


def keyed_streaks(ds, *, key_col: str, ts_col: str,
                  unit_s: int = 86400, num_buckets: int | None = None):
    """Gaps-and-islands per key: longest run of CONSECUTIVE active time
    units (default: days) per key — SQL's `day - row_number()` island
    trick, run as one bucketed segmented-numpy pass.

    Scale shape: one shuffle of (key, ts) into hash buckets
    (`route_by_key`); per bucket the scan dedups (key, unit) pairs,
    sorts once, and derives island boundaries from vectorized diffs (an
    island starts where the key changes or the unit advances by more
    than 1). Output is one row per key: max_streak, n_active_units,
    n_streaks.
    """
    keyed = route_by_key(ds, key_col=key_col, cols=[key_col, ts_col],
                         non_null=[key_col, ts_col],
                         num_buckets=num_buckets, row_bytes=16)

    unit_us = int(unit_s) * 1_000_000

    def scan_bucket(g: pd.DataFrame) -> pd.DataFrame:
        day = _epoch_us(g[ts_col]) // unit_us
        d = pd.DataFrame({key_col: g[key_col].to_numpy(), "_u": day}) \
            .drop_duplicates().sort_values([key_col, "_u"],
                                           kind="mergesort")
        n = len(d)
        if not n:
            return pd.DataFrame({key_col: g[key_col].iloc[:0],
                                 "max_streak": pd.Series([], dtype="int64"),
                                 "n_active_units": pd.Series([], dtype="int64"),
                                 "n_streaks": pd.Series([], dtype="int64")})
        keys = d[key_col].to_numpy()
        u = d["_u"].to_numpy()
        new_run = np.ones(n, dtype=bool)
        new_run[1:] = (keys[1:] != keys[:-1]) | ((u[1:] - u[:-1]) != 1)
        starts = np.flatnonzero(new_run)
        run_len = np.diff(np.append(starts, n))
        runs = pd.DataFrame({key_col: keys[starts], "_len": run_len})
        out = runs.groupby(key_col, sort=False).agg(
            max_streak=("_len", "max"),
            n_active_units=("_len", "sum"),
            n_streaks=("_len", "size")).reset_index()
        for c in ("max_streak", "n_active_units", "n_streaks"):
            out[c] = out[c].astype("int64")
        return out

    return keyed.groupby("_bucket").map_groups(scan_bucket,
                                               batch_format="pandas")


def keyed_transition_counts(ds, *, key_col: str, ts_col: str,
                            tie_col: str, type_col: str,
                            num_buckets: int | None = None):
    """First-order Markov transition matrix over per-key ordered event
    types: counts and conditional probabilities of (type -> next type)
    — SQL `lead(type) OVER (PARTITION BY key ORDER BY ts, tie)` then a
    pair groupby.

    Scale shape: the `keyed_scan` pass emits only (cur, next) PAIR
    COUNTS per bucket (a partial aggregate — at most n_types^2 rows per
    bucket), so the final shuffle moves a bounded matrix, not events.
    P(next|cur) is derived from the global counts, rounded to 6
    decimals.
    """
    def scan_bucket(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        if len(g) < 2:
            # typed empty (string extension dtype, not object: size-0
            # object frames trip Ray's block size estimator)
            return pd.DataFrame({"cur_type": pd.Series([], dtype="string"),
                                 "next_type": pd.Series([], dtype="string"),
                                 "n": pd.Series([], dtype="int64")})
        typ = g[type_col].to_numpy()
        same = ~first[1:]
        pairs = pd.DataFrame({"cur_type": typ[:-1][same],
                              "next_type": typ[1:][same]})
        out = pairs.groupby(["cur_type", "next_type"], sort=False) \
            .size().reset_index(name="n")
        out["n"] = out["n"].astype("int64")
        return out

    partial = keyed_scan(ds, scan_bucket, key_col=key_col,
                         order_cols=[ts_col, tie_col],
                         cols=[key_col, ts_col, tie_col, type_col],
                         non_null=[key_col, ts_col],
                         num_buckets=num_buckets, row_bytes=32)
    from ray.data.aggregate import Sum
    total = partial.groupby(["cur_type", "next_type"]).aggregate(
        Sum("n", alias_name="n")).to_pandas()
    if total.empty:    # empty input loses its schema through pandas
        return pd.DataFrame({"cur_type": pd.Series([], dtype=object),
                             "next_type": pd.Series([], dtype=object),
                             "n": pd.Series([], dtype="int64"),
                             "p": pd.Series([], dtype="float64")})
    total["n"] = total["n"].astype("int64")
    tot = total.groupby("cur_type")["n"].transform("sum")
    total["p"] = _round_half_away(
        (total["n"] / tot).to_numpy(np.float64), _FINE_DECIMALS)
    return total


def cohort_retention_matrix(ds, *, key_col: str, ts_col: str,
                            unit_s: int = 604800,
                            num_buckets: int | None = None):
    """Cohort retention matrix: keys cohorted by their FIRST active
    unit (default: epoch week); cell (cohort, offset) counts the
    distinct keys of that cohort active `offset` units later.

    Scale shape: one hash-bucket shuffle of (key, ts) (`route_by_key`);
    per bucket the scan reduces each key's events to its distinct
    (cohort, offset) cells (a per-key partial — keys never split across
    buckets, so the cohort/first-unit is exact); the final shuffle
    aggregates the bounded (cohort x offset) matrix.
    """
    keyed = route_by_key(ds, key_col=key_col, cols=[key_col, ts_col],
                         non_null=[key_col, ts_col],
                         num_buckets=num_buckets, row_bytes=16)

    unit_us = int(unit_s) * 1_000_000

    def scan_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # null keys / null timestamps carry no cohort membership — same
        # drop convention as the rest of the keyed family (a null key
        # would surface as IntCastingNaNError from the groupby
        # transform; a NaT would alias to int64-min and fabricate a
        # cohort)
        g = g.dropna(subset=[key_col, ts_col])
        if not len(g):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ("cohort_unit", "unit_offset",
                                           "n_keys")})
        d = pd.DataFrame({key_col: g[key_col].to_numpy(),
                          "_u": _epoch_us(g[ts_col]) // unit_us}) \
            .drop_duplicates()
        first = d.groupby(key_col, sort=False)["_u"].transform("min")
        cells = pd.DataFrame({
            "cohort_unit": first.astype("int64"),
            "unit_offset": (d["_u"] - first).astype("int64"),
        }).groupby(["cohort_unit", "unit_offset"], sort=False) \
            .size().reset_index(name="n_keys")
        cells["n_keys"] = cells["n_keys"].astype("int64")
        return cells

    partial = keyed.groupby("_bucket").map_groups(scan_bucket,
                                                  batch_format="pandas")
    from ray.data.aggregate import Sum
    out = partial.groupby(["cohort_unit", "unit_offset"]).aggregate(
        Sum("n_keys", alias_name="n_keys")).to_pandas()
    if out.empty:      # empty input loses its schema through pandas
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in ("cohort_unit", "unit_offset",
                                       "n_keys")})
    out["n_keys"] = out["n_keys"].astype("int64")
    return out.sort_values(["cohort_unit", "unit_offset"]) \
        .reset_index(drop=True)


def keyed_interval_coverage(ds, *, key_col: str, lo_col: str,
                            hi_col: str, num_buckets: int | None = None):
    """Merge overlapping [lo, hi) intervals per key and report coverage
    — SQL's running-max island trick (`lo > max(hi) OVER preceding`
    starts a new merged window).

    One `keyed_scan` pass ordered by (lo, hi) that finds window
    boundaries with a SEGMENTED running max (pandas groupby(seg).cummax
    — one C-level pass, exact for any int64 bound magnitudes; an
    offset-accumulate trick was rejected because large
    epoch-microsecond bounds or millions of keys per bucket overflow
    the offsets silently). Output: one row per key with n_windows and
    covered units.
    """
    def scan_bucket(g: pd.DataFrame, new_key: np.ndarray) -> pd.DataFrame:
        n = len(g)
        if not n:
            return pd.DataFrame({key_col: g[key_col].iloc[:0],
                                 "n_windows": pd.Series([], dtype="int64"),
                                 "covered": pd.Series([], dtype="int64")})
        keys = g[key_col].to_numpy()
        lo = g[lo_col].to_numpy(np.int64)
        hi = g[hi_col].to_numpy(np.int64)
        seg_id = np.cumsum(new_key) - 1
        # segmented running max of hi, exact for any int64 magnitudes
        run = pd.Series(hi).groupby(seg_id).cummax().to_numpy(np.int64)
        prev_max = np.empty(n, np.int64)
        prev_max[0] = np.iinfo(np.int64).min
        prev_max[1:] = run[:-1]
        new_win = new_key | (lo > prev_max)
        # merged window bounds
        starts = np.flatnonzero(new_win)
        ends = np.append(starts[1:], n) - 1
        w = pd.DataFrame({key_col: keys[starts],
                          "_len": (run[ends] - lo[starts]).astype("int64")})
        out = w.groupby(key_col, sort=False).agg(
            n_windows=("_len", "size"),
            covered=("_len", "sum")).reset_index()
        out["n_windows"] = out["n_windows"].astype("int64")
        out["covered"] = out["covered"].astype("int64")
        return out

    return keyed_scan(ds, scan_bucket, key_col=key_col,
                      order_cols=[lo_col, hi_col],
                      cols=[key_col, lo_col, hi_col],
                      non_null=[key_col, lo_col, hi_col],
                      num_buckets=num_buckets, row_bytes=24)


def keyed_ewma(ds, *, key_col: str, ts_col: str, tie_col: str,
               value_col: str, alpha: float = 0.3,
               num_buckets: int | None = None, chunk: int = 64):
    """Per-key exponentially weighted moving average (y_t = alpha*x_t +
    (1-alpha)*y_{t-1}, seeded y_0 = x_0) — the streaming-smoothing
    recursion, vectorized by BLOCKED exponential rescaling: inside each
    `chunk`-row block the recursion is one cumsum of x_i*(1-a)^(-i)
    scaled back by (1-a)^i (chunk=64 keeps (1-a)^-i finite for any
    alpha <= 0.9999), with one carry value per block. The Python loop
    is over blocks, not rows.

    Emits (key, tie, ewma), ewma rounded to 6 decimals. Not
    SQL-expressible as a single window (recursive), so registry entries
    using it are rows-only; parity is pinned by a per-row numpy
    reference test.
    """
    a = float(alpha)
    if not (0.0 < a <= 0.9999):
        raise ValueError(
            f"keyed_ewma requires 0 < alpha <= 0.9999 (got {alpha!r}): "
            "the blocked rescaling uses (1-alpha)**(-i), which is "
            "undefined/overflowing outside that range")
    r = 1.0 - a

    def scan_bucket(g: pd.DataFrame, new_key: np.ndarray) -> pd.DataFrame:
        n = len(g)
        x = g[value_col].to_numpy(np.float64)
        y = np.empty(n)
        # position within segment
        pos = np.arange(n) - _key_start(new_key)
        for s in range(0, n, chunk):
            e = min(s + chunk, n)
            p = pos[s:e]
            first = p == 0
            # within-block recursion with carry from y[s-1]
            pb = np.arange(e - s)
            w = r ** (-pb.astype(np.float64))
            seed = np.where(first, x[s:e],
                            a * x[s:e])
            # reset cumsum at segment starts inside the block:
            # cumulative sums computed per contiguous run via
            # subtracting the running value at each reset point
            cs = np.cumsum(seed * w)
            resets = np.flatnonzero(first)
            base = np.zeros(e - s)
            if len(resets):
                rv = cs[resets] - seed[resets] * w[resets]
                base = np.repeat(
                    rv, np.diff(np.append(resets, e - s)))
                if resets[0] != 0:
                    head = np.zeros(resets[0])
                    base = np.concatenate([head, base])
            yb = (cs - base) * (r ** pb)
            # carry the running value across the block boundary for
            # rows whose segment started before this block
            # (pos > local index <=> no reset since block start)
            if s > 0:
                same_seg = pos[s:e] > pb
                yb = yb + np.where(same_seg,
                                   y[s - 1] * (r ** (pb + 1)),
                                   0.0)
            y[s:e] = yb
        return pd.DataFrame({key_col: g[key_col].to_numpy(),
                             tie_col: g[tie_col].to_numpy(),
                             "ewma": _round_half_away(y, _FINE_DECIMALS)})

    return keyed_scan(ds, scan_bucket, key_col=key_col,
                      order_cols=[ts_col, tie_col],
                      cols=[key_col, ts_col, tie_col, value_col],
                      non_null=[key_col, ts_col], num_buckets=num_buckets)
