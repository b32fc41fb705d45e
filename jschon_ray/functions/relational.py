"""Wide-table relational reshapes: pivot, exact grouped quantiles over
low-cardinality domains, ordered grouped string aggregation.

All three follow the partial-then-merge shape (SURVEY §4 "pre-aggregate
inside map_batches"): each block reduces to at most (groups × categories)
partial rows before anything shuffles, so the exchange volume is bounded
by the OUTPUT size, not the input size.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from .graph import pair_bucket_of


def pivot_agg(ds, *, row_key: str, col_codes_batch, categories: list,
              value_col: str | None = None, prefix: str = "c"):
    """Pivot to a wide table: one row per `row_key`, one count column
    (and, with `value_col`, one sum column) per category.

    `col_codes_batch(batch) -> np.ndarray[int]` maps each row to a
    category index in [0, len(categories)); -1 drops the row. The
    category set is STATIC (schema fixed before execution — the
    jschon-style compile-time column set, SURVEY §2.2
    additionalProperties note).

    Per-block partial: one np.bincount over (row_group × category) codes
    — a single fused histogram, no per-category pass; then one
    pre-aggregated groupby(row_key).sum over groups×categories partial
    rows. Output columns: `{prefix}{cat}_n` (+ `{prefix}{cat}_sum`).
    """
    ncat = len(categories)
    names = [f"{prefix}{c}_n" for c in categories]
    sum_names = [f"{prefix}{c}_sum" for c in categories] if value_col \
        else []

    def partial(t: pa.Table) -> pa.Table:
        codes = np.asarray(col_codes_batch(t))
        keys = t[row_key].to_pandas()
        kcodes, uniq = pd.factorize(keys, sort=False)
        keep = (codes >= 0) & (kcodes >= 0)
        flat = kcodes[keep] * ncat + codes[keep]
        counts = np.bincount(flat, minlength=len(uniq) * ncat) \
            .reshape(len(uniq), ncat)
        cols = {row_key: pa.array(uniq)}
        for j, n in enumerate(names):
            cols[n] = pa.array(counts[:, j].astype(np.int64))
        if value_col:
            vals = t[value_col].to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            # SQL SUM skips NULLs; a NaN weight would poison the cell
            vals = np.nan_to_num(vals, nan=0.0)
            sums = np.bincount(flat, weights=vals[keep],
                               minlength=len(uniq) * ncat) \
                .reshape(len(uniq), ncat)
            for j, n in enumerate(sum_names):
                cols[n] = pa.array(sums[:, j])
        return pa.table(cols)

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(row_key).sum(names + sum_names)
    renames = {f"sum({n})": n for n in names + sum_names}

    def finish(t: pa.Table) -> pa.Table:
        t = t.rename_columns([renames.get(c, c) for c in t.column_names])
        for n in names:
            i = t.schema.get_field_index(n)
            t = t.set_column(i, n, pc.round(t[n]).cast(pa.int64()))
        return t

    return agg.map_batches(finish, batch_format="pyarrow")


def grouped_median_lowcard(ds, *, key: str, value_col: str,
                           out: str = "median"):
    """EXACT per-group median when the value domain is low-cardinality
    (ints, codes, small discrete grids): shuffle (key, value) COUNT pairs
    — never rows — then a vectorized weighted-median finish per key.

    ANSI/DuckDB `median` semantics: for even group sizes, the mean of the
    two middle values (quantile_cont interpolation), so oracles
    hash-match. Complements the t-digest path in pipelines/stats.py
    (approximate, any domain) with an exact one where the domain allows.
    """
    counts = ds.select_columns([key, value_col]) \
        .map_batches(
            lambda t: t.filter(pc.is_valid(t[value_col]))
                       .group_by([key, value_col])
                       .aggregate([([], "count_all")]),
            batch_format="pyarrow") \
        .groupby([key, value_col]).sum("count_all")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(value_col, kind="mergesort")
        w = g["sum(count_all)"].to_numpy(np.int64)
        v = g[value_col].to_numpy(np.float64)
        n = int(w.sum())
        cum = np.cumsum(w)
        if n % 2:
            med = v[np.searchsorted(cum, n // 2 + 1)]
        else:
            lo = v[np.searchsorted(cum, n // 2)]
            hi = v[np.searchsorted(cum, n // 2 + 1)]
            med = (lo + hi) / 2.0
        return pd.DataFrame({key: [g[key].iloc[0]], out: [float(med)]})

    return counts.groupby(key).map_groups(finish, batch_format="pandas")


def grouped_string_agg(ds, *, key: str, value_col: str, order_col: str,
                       sep: str = "|", out: str = "agg"):
    """Deterministic grouped concatenation: values joined by `sep` in
    `order_col` order within each key — SQL
    `string_agg(value, sep ORDER BY order_col)`.

    The full (key, value, order) projection shuffles; use on filtered /
    projected inputs (concatenation output is inherently
    group-row-sized). Ordering requires (order_col) unique per key for a
    deterministic result.
    """
    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_col, kind="mergesort")
        return pd.DataFrame({
            key: [g[key].iloc[0]],
            out: [sep.join(str(v) for v in g[value_col])],
            "n_parts": [len(g)]})

    return ds.select_columns([key, value_col, order_col]) \
        .groupby(key).map_groups(finish, batch_format="pandas")


def grouped_mode_lowcard(ds, *, key: str, value_col: str,
                         out: str = "mode_value"):
    """Deterministic per-group MODE over a low-cardinality value domain:
    the most frequent value, ties broken by SMALLEST value (an explicit
    rule — SQL's bare `mode()` tie choice is engine-defined).

    Same shuffle shape as `grouped_median_lowcard`: per-block
    (key, value) COUNT pairs are the only rows that move; the exchange is
    bounded by keys x distinct-values, never the input. Emits
    (key, out, n_mode) with n_mode the exact occurrence count.
    """
    def partial(t: pa.Table) -> pa.Table:
        # NULL values are ignored (SQL mode() semantics); null KEYS are
        # kept as their own group (dropna=False)
        df = t.filter(pc.is_valid(t[value_col])) \
            .select([key, value_col]).to_pandas()
        c = df.groupby([key, value_col], sort=False, dropna=False) \
            .size().reset_index(name="n")
        return pa.Table.from_pandas(c, preserve_index=False).replace_schema_metadata(None)

    counts = ds.map_batches(partial, batch_format="pyarrow")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(value_col)["n"].sum()
        mx = agg.max()
        return pd.DataFrame({
            key: [g[key].iloc[0]],
            out: [agg[agg == mx].index.min()],
            "n_mode": [int(mx)]})

    return counts.groupby(key).map_groups(finish, batch_format="pandas")


def grouped_distinct_count(ds, *, key: str, value_col: str,
                           out: str = "n_distinct"):
    """EXACT `count(DISTINCT value)` per group (the grouped complement of
    `dedup.exact_distinct_counts`, and the exact complement of the HLL
    sketch in `state/sketches.py`): per-block distinct (key, value) pairs
    are pruned BEFORE the shuffle, so at most keys x distinct-values rows
    move regardless of input size. NULL values are not counted (SQL
    semantics)."""
    def partial(t: pa.Table) -> pa.Table:
        df = t.select([key, value_col]).to_pandas() \
            .dropna(subset=[value_col]).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    pairs = ds.map_batches(partial, batch_format="pyarrow")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({key: [g[key].iloc[0]],
                             out: [int(g[value_col].nunique())]})

    return pairs.groupby(key).map_groups(finish, batch_format="pandas")


def grouped_corr(ds, *, key: str, x_col: str, y_col: str,
                 out: str = "corr"):
    """Per-group Pearson correlation from mergeable moment partials
    (n, sx, sy, sxx, syy, sxy): each block reduces to one 6-number row
    per key in-block, the groupby sums those, and the final ratio is
    computed per group — SQL `corr(y, x) GROUP BY key` semantics
    (row pairs with a NULL on either side are dropped; groups with < 2
    rows or zero variance yield NULL).

    Float note: partial sums associate differently than a single-node
    scan, so compare to an oracle with rounding (the registry rounds to
    4 decimals on both sides)."""
    def partial(t: pa.Table) -> pa.Table:
        df = t.select([key, x_col, y_col]).to_pandas() \
            .dropna(subset=[x_col, y_col])
        x = df[x_col].to_numpy(dtype=np.float64)
        y = df[y_col].to_numpy(dtype=np.float64)
        m = pd.DataFrame({key: df[key], "n": np.float64(1.0),
                          "sx": x, "sy": y, "sxx": x * x, "syy": y * y,
                          "sxy": x * y})
        agg = m.groupby(key, sort=False).sum().reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False).replace_schema_metadata(None)

    cols = ["n", "sx", "sy", "sxx", "syy", "sxy"]
    merged = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(key).sum(cols)

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.rename(columns={f"sum({c})": c for c in cols})
        n, sx, sy = df["n"], df["sx"], df["sy"]
        cov = df["n"] * df["sxy"] - sx * sy
        vx = n * df["sxx"] - sx * sx
        vy = n * df["syy"] - sy * sy
        denom = np.sqrt(vx * vy)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where((n >= 2) & (denom > 0), cov / denom, np.nan)
        return pa.Table.from_pandas(
            pd.DataFrame({key: df[key], out: r}), preserve_index=False).replace_schema_metadata(None)

    return merged.map_batches(finish, batch_format="pyarrow")


def _assert_keys_nonnull(t: pa.Table, keys, fn: str) -> None:
    """rollup/cube/grouping-sets mark rolled-up slots with None, so a
    NULL key value would be indistinguishable from a subtotal row (no
    GROUPING() indicator column). Reject NULL keys loudly instead of
    silently conflating the two — callers must pre-drop or fill them."""
    for k in keys:
        if t[k].null_count:
            raise ValueError(
                f"{fn}: key column {k!r} contains NULLs, which would be "
                "indistinguishable from rolled-up subtotal markers; "
                "drop or fill NULL keys before aggregating")


def _grouping_sets(ds, *, keys: list, sets: list, value_col: str,
                   fn: str):
    """The one-pass shape shared by rollup/cube/grouping sets: per-block
    partials at the FINEST level only, one groupby shuffle of those
    (bounded by the finest group domain), then every requested set
    re-aggregated from the finest RESULT — output-bounded work, the input
    is never re-read or re-shuffled per level. Rolled-up key slots are
    null in the key's dtype when it holds one (float NaN, datetime NaT),
    else object None, so the output dtype never depends on how pandas
    treats all-null columns in `pd.concat`."""
    def partial(t: pa.Table) -> pa.Table:
        _assert_keys_nonnull(t, keys, fn)
        df = t.select(list(keys) + [value_col]).to_pandas()
        df["_v"] = df[value_col].astype(np.float64)
        agg = df.groupby(list(keys), sort=False, dropna=False) \
            .agg(n=("_v", "size"), s=("_v", "sum")).reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False).replace_schema_metadata(None)

    finest = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(list(keys)).sum(["n", "s"]).to_pandas()
    finest = finest.rename(columns={"sum(n)": "n", "sum(s)": "s"})
    finest["n"] = finest["n"].astype(np.int64)
    dtypes = {k: finest[k].dtype if finest[k].dtype.kind in "fmM"
              else object for k in keys}

    levels = []
    for sub in sets:
        sub = list(sub)
        if any(k not in keys for k in sub):
            raise ValueError(f"grouping set {sub!r} not a subset of "
                             f"{keys!r}")
        if sub == list(keys):
            lv = finest.copy()
        elif sub:
            lv = finest.groupby(sub, dropna=False, sort=False) \
                .agg(n=("n", "sum"), s=("s", "sum")).reset_index()
        else:
            lv = pd.DataFrame({"n": [int(finest["n"].sum())],
                               "s": [float(finest["s"].sum())]})
        for k in keys:
            lv[k] = lv[k].astype(dtypes[k]) if k in sub \
                else pd.Series([None] * len(lv), lv.index, dtypes[k])
        levels.append(lv[list(keys) + ["n", "s"]])
    out = pd.concat(levels, ignore_index=True)
    return out.rename(columns={"s": f"sum_{value_col}"})


def rollup_agg(ds, *, keys: list, value_col: str):
    """`GROUP BY ROLLUP(keys...)`: subtotals at every key prefix plus the
    grand total, in one pass (`_grouping_sets`). Returns a pandas
    DataFrame (keys..., n, sum_value) with nulls in rolled-up key slots,
    finest-to-total order. Key columns must be non-NULL (see
    `_assert_keys_nonnull`).
    """
    sets = [keys[:k] for k in range(len(keys), -1, -1)]
    return _grouping_sets(ds, keys=keys, sets=sets, value_col=value_col,
                          fn="rollup_agg")


def cube_agg(ds, *, keys: list, value_col: str):
    """`GROUP BY CUBE(keys...)`: subtotals at EVERY key subset (2^k
    grouping sets), in one pass (`_grouping_sets`) — the input is read
    and shuffled exactly once regardless of k. Returns pandas (keys...,
    n, sum_value) with nulls in the rolled-up key slots. Key columns
    must be non-NULL (see `_assert_keys_nonnull`)."""
    import itertools

    sets = [keys, *itertools.chain.from_iterable(
        itertools.combinations(keys, r) for r in range(len(keys)))]
    return _grouping_sets(ds, keys=keys, sets=sets, value_col=value_col,
                          fn="cube_agg")


def grouping_sets_agg(ds, *, keys: list, sets: list, value_col: str):
    """`GROUP BY GROUPING SETS (...)`: arbitrary subset list, in one pass
    (`_grouping_sets`). `sets` is a list of key subsets (tuples/lists,
    may be empty for the grand total); each must be a subset of `keys`.
    Key columns must be non-NULL (see `_assert_keys_nonnull`)."""
    return _grouping_sets(ds, keys=keys, sets=sets, value_col=value_col,
                          fn="grouping_sets_agg")


def grouped_trimmed_mean_lowcard(ds, *, key: str, value_col: str,
                                 trim: float = 0.1,
                                 out: str = "trimmed_mean"):
    """EXACT per-group trimmed mean over a low-cardinality integer
    domain: drop floor(trim*n) observations from each tail, average the
    rest. Works on (key, value) COUNT pairs — the kept multiset is
    computed by clipping the cumulative counts, so equal values trim
    identically in any engine and the mean divides two exact
    integers."""
    counts = ds.select_columns([key, value_col]) \
        .map_batches(
            lambda t: t.filter(pc.is_valid(t[value_col]))
                       .group_by([key, value_col])
                       .aggregate([([], "count_all")]),
            batch_format="pyarrow") \
        .groupby([key, value_col]).sum("count_all")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(value_col, kind="mergesort")
        w = g["sum(count_all)"].to_numpy(np.int64)
        v = g[value_col].to_numpy(np.int64)
        n = int(w.sum())
        k = int(np.floor(trim * n))
        cum = np.cumsum(w)
        lo = cum - w  # exclusive prefix
        # kept copies of each value after trimming k from both tails
        kept = np.minimum(cum, n - k) - np.maximum(lo, k)
        kept = np.clip(kept, 0, None)
        total = int(kept.sum())
        s = int((kept * v).sum())
        return pd.DataFrame({key: [g[key].iloc[0]],
                             "n_kept": [total],
                             out: [s / total if total else np.nan]})

    return counts.groupby(key).map_groups(finish, batch_format="pandas")


def grouped_percentile_cont_lowcard(ds, *, key: str, value_col: str,
                                    qs: tuple = (0.25, 0.5, 0.75),
                                    prefix: str = "p"):
    """EXACT per-group interpolated percentiles (`percentile_cont` /
    DuckDB `quantile_cont`) for low-cardinality value domains: shuffle
    (key, value) COUNT pairs — never rows — then reproduce the standard
    pos = q*(n-1) linear interpolation per key in float64, matching the
    SQL engine's arithmetic bit-for-bit on integer domains.

    Output: one row per key, one `{prefix}{q*100:g}` column per q."""
    counts = ds.select_columns([key, value_col]) \
        .map_batches(
            lambda t: t.filter(pc.is_valid(t[value_col]))
                       .group_by([key, value_col])
                       .aggregate([([], "count_all")]),
            batch_format="pyarrow") \
        .groupby([key, value_col]).sum("count_all")

    names = [f"{prefix}{q * 100:g}" for q in qs]

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(value_col, kind="mergesort")
        w = g["sum(count_all)"].to_numpy(np.int64)
        v = g[value_col].to_numpy(np.float64)
        n = int(w.sum())
        cum = np.cumsum(w)
        row = {key: [g[key].iloc[0]]}
        for q, nm in zip(qs, names):
            pos = q * (n - 1)
            lo_i, hi_i = int(np.floor(pos)), int(np.ceil(pos))
            lo = v[np.searchsorted(cum, lo_i + 1)]
            hi = v[np.searchsorted(cum, hi_i + 1)]
            row[nm] = [lo + (hi - lo) * (pos - lo_i)]
        return pd.DataFrame(row)

    return counts.groupby(key).map_groups(finish, batch_format="pandas")


def grouped_weighted_median_lowcard(ds, *, key: str, value_col: str,
                                    weight_col: str,
                                    out: str = "wmedian"):
    """EXACT per-group weighted median over a low-cardinality value
    domain: the smallest value whose cumulative weight reaches half the
    group's total (lower weighted median — deterministic, no
    interpolation, so integer weights keep both engines identical).
    Shuffles (key, value, weight-sum) partial rows — never inputs.
    Weights must be non-negative (cumulative weight would be unsorted
    otherwise); enforced per group."""
    def partial(t: pa.Table) -> pa.Table:
        return t.select([key, value_col, weight_col]) \
            .group_by([key, value_col]) \
            .aggregate([(weight_col, "sum")]) \
            .rename_columns([key, value_col, "w"])

    counts = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby([key, value_col]).sum("w")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(value_col, kind="mergesort")
        w = g["sum(w)"].to_numpy()   # keep dtype: float weights stay float
        if w.dtype.kind == "f":
            w = w.astype(np.float64)
        else:
            w = w.astype(np.int64)
        if (w < 0).any():
            raise ValueError(
                "grouped_weighted_median_lowcard requires non-negative "
                f"weights; key {g[key].iloc[0]!r} has a negative "
                "per-value weight sum")
        v = g[value_col].to_numpy()
        cum = np.cumsum(w)
        total = cum[-1]
        # smallest v with 2*cumw >= total (exact compare: ints stay
        # ints; float weights compare in float64 without truncation)
        i = int(np.searchsorted(2 * cum, total))
        total_out = float(total) if w.dtype.kind == "f" else int(total)
        return pd.DataFrame({key: [g[key].iloc[0]], out: [v[i]],
                             "total_w": [total_out]})

    return counts.groupby(key).map_groups(finish, batch_format="pandas")


def grouped_spearman(ds, *, key: str, x_col: str, y_col: str,
                     decimals: int = 6, num_buckets: int = 32):
    """Per-group Spearman rank correlation: average-rank transform of
    both variables inside each group, then Pearson over the ranks from
    EXACT integer moments (doubled average ranks are whole numbers, so
    ties cost no float error). Groups hash-bucket whole (keys never
    split); the closed-form finish's double arithmetic is meant to be
    mirrored verbatim in a SQL oracle.

    Integer-moment overflow bound: sum(rank2^2) <= n*(2n)^2 per group —
    int64-safe to ~1.5e6 rows per group; beyond that switch the moment
    dtype to float128/object (documented deviation)."""
    from .windows import route_by_key

    # null keys form no group and are dropped before routing: a null in
    # an int key column would turn its bucket's key column float
    keyed = route_by_key(ds, key_col=key, cols=[key, x_col, y_col],
                         non_null=[key], num_buckets=num_buckets)

    def _rank2(v: np.ndarray) -> np.ndarray:
        # 2 * average rank (1-based), whole-number ints even with ties
        order = np.argsort(v, kind="mergesort")
        sv = v[order]
        new = np.empty(len(v), dtype=bool)
        if len(v):
            new[0] = True
            new[1:] = sv[1:] != sv[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(v)))
        # min rank (1-based) of each tie group; avg2 = 2*min + size - 1
        min_rank = starts + 1
        avg2_group = 2 * min_rank + sizes - 1
        avg2_sorted = np.repeat(avg2_group, sizes)
        out = np.empty(len(v), np.int64)
        out[order] = avg2_sorted
        return out

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        out_rows = []
        for k, sub in g.groupby(key, sort=False):
            x = sub[x_col].to_numpy(np.float64)
            y = sub[y_col].to_numpy(np.float64)
            ok = ~(np.isnan(x) | np.isnan(y))   # SQL corr drops NULL pairs
            x, y, sub = x[ok], y[ok], sub[ok]
            rx = _rank2(x)
            ry = _rank2(y)
            n = len(sub)
            if n > 1_500_000:
                # sum(rank2^2) would wrap int64; extended precision
                # keeps the moments faithful (documented deviation)
                rx = rx.astype(np.longdouble)
                ry = ry.astype(np.longdouble)
            sx, sy = int(rx.sum()), int(ry.sum())
            sxy = int((rx * ry).sum())
            sxx = int((rx * rx).sum())
            syy = int((ry * ry).sum())
            nf = float(n)
            num = nf * sxy - float(sx) * float(sy)
            den = np.sqrt((nf * sxx - float(sx) ** 2)
                          * (nf * syy - float(sy) ** 2))
            rho = num / den if den > 0 else np.nan
            out_rows.append({key: k, "n": n,
                             "rho": np.round(rho, decimals)})
        return pd.DataFrame(out_rows)

    return keyed.groupby("_bucket").map_groups(per_group,
                                               batch_format="pandas")


def fd_violations(ds, *, determinant: list, dependent: str,
                  out: str = "n_values"):
    """Functional-dependency validation at dataset scale — the
    dataset-wide analogue of the reference's dependent-keyword family
    (dependentRequired, /root/reference/jschon/vocabulary/validation.py:
    243-256; dependentSchemas, applicator.py:119-139): assert that rows
    agreeing on `determinant` agree on `dependent`, and report the keys
    that don't.

    Shuffle shape: per-block DISTINCT (determinant..., dependent) tuples
    prune before the exchange (the `grouped_distinct_count` shape), so
    at most keys x distinct-dependent-values rows move. NULL dependents
    are ignored (SQL count(DISTINCT) semantics, documented). Emits one
    row per violating key: (determinant..., n_values) with n_values > 1.
    """
    cols = list(determinant) + [dependent]

    def partial(t: pa.Table) -> pa.Table:
        df = t.select(cols).to_pandas() \
            .dropna(subset=[dependent]).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    pairs = ds.map_batches(partial, batch_format="pyarrow")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        n = g[dependent].nunique()
        if n <= 1:  # typed empty frame so block schemas stay aligned
            empty = pd.DataFrame({c: g[c].iloc[:0] for c in determinant})
            empty[out] = pd.Series([], dtype="int64")
            return empty
        row = pd.DataFrame({c: [g[c].iloc[0]] for c in determinant})
        row[out] = np.int64(n)
        return row

    return pairs.groupby(list(determinant)).map_groups(
        finish, batch_format="pandas")


def grouped_zscore(ds, *, key: str, value_col: str, keep_cols=(),
                   out: str = "z", ddof: int = 1):
    """Per-row z-score against the row's GROUP statistics — the
    outlier-scoring validation primitive (distribution-aware range
    check; the dynamic complement of the spec's static minimum/maximum
    bounds).

    Two phases: per-block (key, n, sum, sumsq) moment partials -> one
    tiny groupby (the only shuffle, key-count-sized); the merged stats
    broadcast back through a second stateless pass that standardizes
    every row. Groups with < 2 rows or zero variance yield null z.
    NULL values pass through with null z.
    """
    def partial(t: pa.Table) -> pa.Table:
        df = t.select([key, value_col]).to_pandas() \
            .dropna(subset=[key, value_col])
        v = df[value_col].to_numpy(np.float64)
        m = pd.DataFrame({key: df[key], "n": np.float64(1.0),
                          "s": v, "ss": v * v})
        agg = m.groupby(key, sort=False).sum().reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False).replace_schema_metadata(None)

    merged = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(key).sum(["n", "s", "ss"]).to_pandas()
    merged = merged.rename(columns={f"sum({c})": c
                                    for c in ("n", "s", "ss")})
    n = merged["n"].to_numpy(np.float64)
    mean = merged["s"].to_numpy(np.float64) / n
    var = (merged["ss"].to_numpy(np.float64) - n * mean * mean) \
        / np.maximum(n - ddof, 1.0)
    std = np.sqrt(np.maximum(var, 0.0))
    ok = (n >= 2) & (std > 0)
    stats = {k: (m_, s_) for k, m_, s_, good in
             zip(merged[key], mean, std, ok) if good}

    keep_cols = list(keep_cols)

    mean_map = {k: v[0] for k, v in stats.items()}
    std_map = {k: v[1] for k, v in stats.items()}

    def standardize(t: pa.Table) -> pa.Table:
        df = t.select([key, value_col] + keep_cols).to_pandas()
        ms = df[key].map(mean_map)
        ss = df[key].map(std_map)
        v = df[value_col].to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (v - ms.to_numpy(np.float64)) / ss.to_numpy(np.float64)
        cols = {c: df[c] for c in keep_cols + [key, value_col]}
        cols[out] = z
        return pa.Table.from_pandas(pd.DataFrame(cols),
                                    preserve_index=False).replace_schema_metadata(None)

    return ds.map_batches(standardize, batch_format="pyarrow")


def grouped_skew_kurt(ds, *, key: str, value_col: str,
                      skew_out: str = "skew", kurt_out: str = "kurt"):
    """Per-group sample skewness and excess kurtosis — the 3rd/4th-moment
    distribution-shape stats a drift/profile check reads (SQL
    `skewness(v)` / `kurtosis(v)` GROUP BY key semantics, bias-corrected
    like DuckDB/Excel).

    Numerics: raw power sums of a wide column cancel catastrophically at
    the 4th moment, so this is a two-pass centered plan — pass 1 is a
    tiny (key, n, sum) aggregate whose means broadcast back; pass 2 sums
    per-block CENTERED powers (n, c2, c3, c4) per key, one
    key-count-sized shuffle. Groups with < 3 rows (skew) / < 4 rows
    (kurtosis) or zero variance yield null.
    """
    def mean_partial(t: pa.Table) -> pa.Table:
        df = t.select([key, value_col]).to_pandas() \
            .dropna(subset=[key, value_col])
        v = df[value_col].to_numpy(np.float64)
        m = pd.DataFrame({key: df[key], "n": np.float64(1.0), "s": v})
        agg = m.groupby(key, sort=False).sum().reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False).replace_schema_metadata(None)

    stats = ds.map_batches(mean_partial, batch_format="pyarrow") \
        .groupby(key).sum(["n", "s"]).to_pandas()
    stats = stats.rename(columns={"sum(n)": "n", "sum(s)": "s"})
    means = {k: s_ / n_ for k, n_, s_ in
             zip(stats[key], stats["n"], stats["s"]) if n_ > 0}

    def centered_partial(t: pa.Table) -> pa.Table:
        df = t.select([key, value_col]).to_pandas() \
            .dropna(subset=[key, value_col])
        mu = df[key].map(means).to_numpy(np.float64)
        d = df[value_col].to_numpy(np.float64) - mu
        m = pd.DataFrame({key: df[key], "n": np.float64(1.0),
                          "c2": d * d, "c3": d ** 3, "c4": d ** 4})
        agg = m.groupby(key, sort=False).sum().reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False).replace_schema_metadata(None)

    cols = ["n", "c2", "c3", "c4"]
    merged = ds.map_batches(centered_partial, batch_format="pyarrow") \
        .groupby(key).sum(cols)

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas().rename(
            columns={f"sum({c})": c for c in cols})
        n = df["n"].to_numpy(np.float64)
        m2 = df["c2"].to_numpy(np.float64)
        m3 = df["c3"].to_numpy(np.float64)
        m4 = df["c4"].to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.sqrt(m2 / np.maximum(n - 1, 1.0))  # sample stddev
            skew = n / np.maximum((n - 1) * (n - 2), 1.0) * m3 / s ** 3
            kurt = (n * (n + 1)) / np.maximum(
                (n - 1) * (n - 2) * (n - 3), 1.0) * m4 / s ** 4 \
                - 3.0 * (n - 1) ** 2 / np.maximum((n - 2) * (n - 3), 1.0)
        skew = np.where((n >= 3) & (s > 0), skew, np.nan)
        kurt = np.where((n >= 4) & (s > 0), kurt, np.nan)
        return pa.Table.from_pandas(
            pd.DataFrame({key: df[key], skew_out: skew, kurt_out: kurt}),
            preserve_index=False).replace_schema_metadata(None)

    return merged.map_batches(finish, batch_format="pyarrow")


def equi_width_histogram(ds, *, value_col: str, lo_e2: int, width_e2: int,
                         n_bins: int, out_bin: str = "bin",
                         out_count: str = "n"):
    """Exact equi-width histogram over integer-cents units: bin =
    (cents - lo_e2) // width_e2, clamped into [0, n_bins) (under/overflow
    land in the edge bins, SQL `least/greatest` semantics). Bins with no
    rows are absent from the output (SQL GROUP BY semantics).

    Scale shape: each block reduces to at most n_bins partial rows via
    one vectorized `np.bincount` (no per-row Python), then a bin-count
    -sized groupby merges partials — exchange volume is O(n_bins) per
    block regardless of input size. All arithmetic is int64 → the
    result hash-matches a SQL oracle exactly, no float rounding.

    `value_col` must already be exact int64 cents (use a `to_cents`
    map upstream); NULLs are dropped.
    """
    def partial(t: pa.Table) -> pa.Table:
        v = pc.drop_null(t[value_col]).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        b = (v - lo_e2) // width_e2
        np.clip(b, 0, n_bins - 1, out=b)
        counts = np.bincount(b, minlength=n_bins)
        nz = np.nonzero(counts)[0]
        return pa.table({out_bin: pa.array(nz.astype(np.int64)),
                         out_count: pa.array(counts[nz].astype(np.int64))})

    merged = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(out_bin).sum(out_count)

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns([out_bin, out_count])

    return merged.map_batches(rename, batch_format="pyarrow")


def aggregate_consistency_violations(detail, master, *, key: str,
                                     detail_value_col: str,
                                     master_total_col: str,
                                     rel_tol: float = 0.01,
                                     num_buckets: int = 32):
    """Cross-table aggregate-consistency validation: every master row's
    stored total must equal the sum of its detail rows' values within
    `rel_tol` (relative), and every master row must HAVE detail rows.
    Emits one violation row per failing master:
    (key, reason 'missing_detail' | 'total_mismatch', diff_cents).

    This is the dataset-scale reading of the reference's dependency
    checks (`dependentRequired`, vocabulary/validation.py:243-256 — "if
    this exists, that must exist/agree") lifted across tables.

    Shape: per-block partial sums of the detail value (combiner before
    the shuffle — the detail table is the big side, and only (key,
    partial) rows move), one narrow groupby(key), then a bucketed hash
    join against the master (both sides large => no broadcast).

    Exactness: detail values are rounded to integer cents PER ROW before
    any summation, so the aggregate is an associative int64 sum —
    verdicts are bit-stable under any partitioning / summation order
    (a post-sum float round flips boundary cents between runs; measured
    3/14890 rows at sf0.01).
    """
    def partial(t: pa.Table) -> pa.Table:
        # SQL SUM skips NULL details; NaN would cast to INT64_MIN and
        # corrupt the key's whole sum
        t = t.filter(pc.is_valid(t[detail_value_col]))
        v = t[detail_value_col].to_numpy(zero_copy_only=False) * 100
        # 2-decimal money times 0.05-step multipliers lands EXACTLY on
        # half cents; match SQL round()'s half-away-from-zero (np.round
        # is half-even: measured 6/6000 rows off by one cent)
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        df = pd.DataFrame({key: t[key].to_numpy(zero_copy_only=False),
                           "_calc_cents": cents}) \
            .groupby(key, as_index=False)["_calc_cents"].sum()
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    sums = detail.select_columns([key, detail_value_col]) \
        .map_batches(partial, batch_format="pyarrow") \
        .groupby(key).sum("_calc_cents")
    sums = sums.map_batches(
        lambda t: t.rename_columns([key, "_calc_cents"]),
        batch_format="pyarrow")

    from .join import hash_join

    joined = hash_join(
        master.select_columns([key, master_total_col]), sums,
        on=key, how="left", num_buckets=num_buckets)

    def _half_away(x):
        return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)

    def verdict(t: pa.Table) -> pa.Table:
        total = t[master_total_col].to_numpy(zero_copy_only=False)
        total_cents = _half_away(total * 100)
        calc = t["_calc_cents"].to_numpy(zero_copy_only=False)
        missing = np.isnan(calc) if calc.dtype.kind == "f" else \
            np.asarray(t["_calc_cents"].is_null())
        calc_i = np.where(missing, 0, calc).astype(np.int64)
        diff = total_cents - calc_i
        tol = _half_away(np.abs(total) * rel_tol * 100)
        bad = missing | (np.abs(diff) > tol)
        reason = np.where(missing, "missing_detail", "total_mismatch")
        return pa.table({
            key: t[key].filter(pa.array(bad)),
            "reason": pa.array(reason[bad], pa.string()),
            "diff_cents": pa.array(np.where(missing, 0, diff)[bad],
                                   pa.int64())})

    return joined.map_batches(verdict, batch_format="pyarrow")


def copurchase_pairs(ds, *, order_col: str, item_col: str,
                     min_count: int = 2, num_buckets: int = 64):
    """Market-basket pair mining: for every unordered item pair, in how
    many orders do both appear — `SELECT p1, p2, count(*) FROM d a JOIN
    d b ON same order AND a.item < b.item GROUP BY p1, p2 HAVING
    count >= min_count` over the DISTINCT (order, item) set.

    Scale shape: orders are hash-bucketed (one narrow shuffle of the two
    key columns; baskets never split), pairs are built per bucket with a
    vectorized shifted-compare loop bounded by the LARGEST basket (not
    the row count), and pre-aggregated per bucket before the second,
    pair-keyed shuffle — the classic combiner: the exchange carries one
    row per (bucket, pair), not one per co-occurrence.
    """
    from .windows import route_by_key

    keyed = route_by_key(ds, key_col=order_col, cols=[order_col, item_col],
                         num_buckets=num_buckets)

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([order_col, item_col]) \
             .sort_values([order_col, item_col], kind="mergesort")
        n = len(g)
        ok = g[order_col].to_numpy()
        it = g[item_col].to_numpy()
        if n < 2:
            return pd.DataFrame({"p1": it[:0], "p2": it[:0],
                                 "n_orders": np.array([], np.int64)})
        # run length of the largest basket bounds the shift loop
        seg_start = np.empty(n, dtype=bool)
        seg_start[0] = True
        seg_start[1:] = ok[1:] != ok[:-1]
        starts = np.flatnonzero(seg_start)
        max_run = int(np.diff(np.append(starts, n)).max())
        p1_parts, p2_parts = [], []
        for j in range(1, max_run):
            i = np.arange(n - j)
            same = ok[i] == ok[i + j]
            p1_parts.append(it[i[same]])
            p2_parts.append(it[i[same] + j])
        p1 = np.concatenate(p1_parts) if p1_parts else it[:0]
        p2 = np.concatenate(p2_parts) if p2_parts else it[:0]
        out = pd.DataFrame({"p1": p1, "p2": p2})
        out = out.groupby(["p1", "p2"], as_index=False).size() \
                 .rename(columns={"size": "n_orders"})
        out["n_orders"] = out["n_orders"].astype(np.int64)
        return out

    from .blocks import arrow_out

    partial = keyed.groupby("_bucket").map_groups(arrow_out(pairs_bucket),
                                                  batch_format="pandas")

    # final pair combine as a second bucketed map_groups rather than
    # ray groupby(["p1","p2"]): the partial relation arrives as many
    # tiny blocks and the multi-key Aggregate pays a fixed per-block
    # shuffle cost that dominated wall time (57 s vs ~2 s for the same
    # 119k rows at sf0.01); hashing pairs into `num_buckets` groups
    # keeps the exchange bounded and the per-group sum vectorized.
    def add_pair_bucket(t: pa.Table) -> pa.Table:

        b = pair_bucket_of(
            t["p1"].to_numpy(zero_copy_only=False),
            t["p2"].to_numpy(zero_copy_only=False), num_buckets)
        return t.append_column("_pb", pa.array(b))

    def combine_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["p1", "p2"], as_index=False)["n_orders"] \
            .sum()
        out = out[out["n_orders"] >= min_count]
        out["n_orders"] = out["n_orders"].astype(np.int64)
        return out

    return partial.map_batches(add_pair_bucket,
                               batch_format="pyarrow") \
        .groupby("_pb").map_groups(
            arrow_out(lambda g: combine_bucket(g.drop(columns=["_pb"]))),
            batch_format="pandas")


def grouped_weighted_avg(ds, *, key: str, weight_col: str, value_col: str,
                         w_scale: float = 100.0, v_scale: float = 100.0):
    """Weighted average per group in exact integer units: emits the two
    integer sums plus their ratio, so the ratio divides the SAME two
    exact integers on both engine and oracle sides (no float-order
    drift). One partial-aggregated groupby; only the key + two int
    columns shuffle.

    avg = sum(round(w*w_scale) * round(v*v_scale)) / sum(round(w*w_scale))
    (ratio in v_scale units).
    """
    from ray.data.aggregate import Sum

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        w = pc.round(pc.multiply(t[weight_col], w_scale),
                     round_mode="half_towards_infinity").cast(pa.int64())
        v = pc.round(pc.multiply(t[value_col], v_scale),
                     round_mode="half_towards_infinity").cast(pa.int64())
        return pa.table({key: t[key], "w_int": w,
                         "wv_int": pc.multiply(w, v)})

    agg = ds.map_batches(project, batch_format="pyarrow") \
            .groupby(key).aggregate(Sum("w_int", alias_name="w_sum"),
                                    Sum("wv_int", alias_name="wv_sum"))

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        w = t["w_sum"]
        wv = t["wv_sum"]
        if w.type != pa.int64():
            w = pc.round(w).cast(pa.int64())
        if wv.type != pa.int64():
            wv = pc.round(wv).cast(pa.int64())
        ratio = pc.divide(wv.cast(pa.float64()), w.cast(pa.float64()))
        return pa.table({key: t[key], "w_sum": w, "wv_sum": wv,
                         "wavg": ratio})

    return agg.map_batches(finish, batch_format="pyarrow")


def grouped_mad(ds, *, key: str, value_col: str):
    """Median absolute deviation per group (robust spread): median of
    |x - group_median(x)| — two chained exact grouped medians with the
    per-group medians broadcast between passes (a dict of one float per
    key; the rows never re-shuffle for the lookup). Requires the same
    low-cardinality value domain as `grouped_median_lowcard`.

    Emits (key, median, mad) with DuckDB quantile_cont interpolation
    semantics on both passes.
    """
    import pyarrow.compute as pc

    meds = grouped_median_lowcard(ds, key=key, value_col=value_col) \
        .to_pandas()
    med_map = dict(zip(meds[key], meds["median"]))

    def absdev(t: pa.Table) -> pa.Table:
        m = pa.array([med_map[k] for k in t[key].to_pylist()],
                     pa.float64())
        dev = pc.abs(pc.subtract(t[value_col].cast(pa.float64()), m))
        return pa.table({key: t[key], "dev": dev})

    devs = ds.select_columns([key, value_col]) \
             .map_batches(absdev, batch_format="pyarrow")
    mads = grouped_median_lowcard(devs, key=key, value_col="dev",
                                  out="mad")

    def attach_median(t: pa.Table) -> pa.Table:
        med = pa.array([med_map[k] for k in t[key].to_pylist()],
                       pa.float64())
        return pa.table({key: t[key], "median": med, "mad": t["mad"]})

    return mads.map_batches(attach_median, batch_format="pyarrow")


def group_entropy(ds, *, key: str, cat_col: str, decimals: int = 4,
                  out: str = "entropy"):
    """Shannon entropy (nats) of a categorical distribution per key:
    -sum(p * ln p) over the key's category frequencies. One keys-only
    count shuffle (the per-batch combiner collapses rows to distinct
    (key, cat) pairs), then a vectorized segmented finish — rows never
    move."""

    counts = ds.select_columns([key, cat_col]) \
        .map_batches(
            lambda t: t.group_by([key, cat_col])
                       .aggregate([([], "count_all")]),
            batch_format="pyarrow") \
        .groupby([key, cat_col]).sum("count_all")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        n = g["sum(count_all)"].to_numpy(np.float64)
        tot = n.sum()
        p = n / tot
        ent = float(-np.sum(p * np.log(p)))
        return pd.DataFrame({key: [g[key].iloc[0]],
                             out: [round(ent, decimals)],
                             "n_events": [np.int64(tot)]})

    return counts.groupby(key).map_groups(finish, batch_format="pandas")


def grouped_vector_mean(ds, *, key: str, vec_col: str,
                        decimals: int = 4):
    """Elementwise mean of a list<float> column per group (class
    centroids): each batch contributes ONE partial (key, dim, sum, n)
    row per key x dimension — the combiner — so the shuffle carries
    O(batches x keys x dim) rows regardless of input size; a final
    keys-only aggregate divides.

    Emits exploded (key, i, c) rows (dimension index, centroid value
    rounded to `decimals`) so oracles compare without list-format
    ambiguity.
    """

    def partial(t: pa.Table) -> pa.Table:
        keys = t[key].to_numpy(zero_copy_only=False)
        import numpy as _np
        vecs = _np.stack(t[vec_col].to_pandas().to_numpy()) \
                  .astype(_np.float64)
        d = vecs.shape[1]
        out_k, out_i, out_s, out_n = [], [], [], []
        for kv in _np.unique(keys):
            rows = vecs[keys == kv]
            out_k.append(_np.full(d, kv))
            out_i.append(_np.arange(d, dtype=_np.int64))
            out_s.append(rows.sum(axis=0))
            out_n.append(_np.full(d, len(rows), _np.int64))
        return pa.table({key: pa.array(_np.concatenate(out_k)),
                         "i": pa.array(_np.concatenate(out_i)),
                         "s": pa.array(_np.concatenate(out_s)),
                         "n": pa.array(_np.concatenate(out_n))})

    agg = ds.select_columns([key, vec_col]) \
            .map_batches(partial, batch_format="pyarrow") \
            .groupby([key, "i"]).sum(["s", "n"])

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        c = pc.round(pc.divide(t["sum(s)"],
                               pc.cast(t["sum(n)"], pa.float64())),
                     ndigits=decimals,
                     round_mode="half_towards_infinity")
        return pa.table({key: t[key], "i": t["i"], "c": c})

    return agg.map_batches(finish, batch_format="pyarrow")


def heavy_hitters(ds, *, col: str, num: int = 1, den: int = 1000):
    """Keys whose frequency share exceeds num/den — the exact
    heavy-hitter pass that feeds skew handling (its output is the
    `hot_keys` input of `join.salted_hash_join`). Per-batch count
    combiner, one keys-only groupby, then an exact integer
    cross-multiplied threshold (count * den > total * num); the total
    is one scalar aggregate over the already-reduced key counts.

    Complements the approximate count-min path in state.sketches (use
    that when the key domain itself is too large to groupby)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    counts = ds.select_columns([col]) \
        .map_batches(
            lambda t: t.group_by([col]).aggregate([([], "count_all")]),
            batch_format="pyarrow") \
        .groupby(col).sum("count_all").materialize()

    def fix(t: pa.Table) -> pa.Table:
        c = t["sum(count_all)"]
        if c.type != pa.int64():
            c = pc.round(c).cast(pa.int64())
        return pa.table({col: t[col], "n": c})

    counts = counts.map_batches(fix, batch_format="pyarrow")
    tot = int(counts.aggregate(Sum("n", alias_name="tot"))["tot"])

    def keep(t: pa.Table) -> pa.Table:
        mask = pc.greater(pc.multiply(t["n"], np.int64(den)),
                          np.int64(tot) * np.int64(num))
        return t.filter(pc.fill_null(mask, False))

    return counts.map_batches(keep, batch_format="pyarrow")


def skyline_2d(ds, *, min_col: str, max_col: str, keep_cols=()):
    """2-D Pareto frontier (skyline): rows where no other row is <= on
    `min_col` AND >= on `max_col` with at least one strict inequality —
    SQL `NOT EXISTS (dominator)`.

    Scale shape: dominance within a block implies dominance globally,
    so each block first prunes to its LOCAL skyline (vectorized sort +
    running-max sweep); only the union of local skylines — O(frontier)
    rows, typically tiny — reaches the exact final sweep. No all-pairs
    pass ever touches the full input.
    """
    import pandas as pd

    cols = [min_col, max_col, *[c for c in keep_cols
                                if c not in (min_col, max_col)]]

    def sweep(df: pd.DataFrame) -> pd.DataFrame:
        """Exact skyline of a frame: sort by (min asc, max desc); a row
        is dominated iff some row in an earlier (strictly lower) min
        group has max >= it, or its own min group holds a strictly
        higher max."""
        df = df.sort_values([min_col, max_col],
                            ascending=[True, False], kind="mergesort")
        mn = df[min_col].to_numpy()
        mx = df[max_col].to_numpy()
        n = len(df)
        if n == 0:
            return df
        # running max of `max_col` over strictly-lower min groups
        new_grp = np.empty(n, dtype=bool)
        new_grp[0] = True
        new_grp[1:] = mn[1:] != mn[:-1]
        grp_id = np.cumsum(new_grp) - 1
        grp_best = np.maximum.accumulate(mx[new_grp])   # per-group max
        prev_best = np.full(n, -np.inf)
        gi = grp_id - 1
        ok = gi >= 0
        prev_best[ok] = grp_best[gi[ok]]
        own_best = grp_best[grp_id]
        keep = (mx > prev_best) & (mx >= own_best)
        return df[keep]

    def local_skyline(t: pa.Table) -> pa.Table:
        df = t.select(cols).to_pandas()
        return pa.Table.from_pandas(sweep(df), preserve_index=False).replace_schema_metadata(None)

    pruned = ds.map_batches(local_skyline, batch_format="pyarrow")
    df = pruned.to_pandas()
    if df.empty:       # empty input loses its schema through pandas
        return pd.DataFrame({c: [] for c in cols})
    final = sweep(df)
    return final.sort_values(cols).reset_index(drop=True)
