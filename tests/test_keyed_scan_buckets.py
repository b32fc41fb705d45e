"""Every operator built on the one keyed scan (`windows.route_by_key` /
`windows.keyed_scan`) gives the same rows for any bucket count: keys
never split across buckets, so 1 bucket and 7 buckets must agree.

One small table drives them all: interleaved keys, tied timestamps
(broken by `tie`), null keys and null timestamps."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import jschon_ray.functions.relational as R
import jschon_ray.functions.windows as W

pytestmark = pytest.mark.usefixtures("ray_session")

N = 120


def _table() -> pa.Table:
    i = np.arange(N)
    k = (i * 5) % 11                         # keys interleave across rows
    sec = (i // 3) * 600                     # 3 rows share each timestamp
    sec[i % 17 == 0] += 86_400 * (i[i % 17 == 0] % 4)   # multi-day keys
    ts = np.datetime64("2024-01-01", "us") \
        + (sec * 1_000_000).astype("timedelta64[us]")
    null_key = i % 13 == 5
    null_ts = i % 19 == 7
    v = np.round(np.sin(i) * 10, 2)
    return pa.table({
        "k": pa.array(k, pa.int64(), mask=null_key),
        "ts": pa.array(ts, pa.timestamp("us"), mask=null_ts),
        "tie": pa.array(N - i, pa.int64()),
        "v": pa.array(v, pa.float64()),
        "cents": pa.array((v * 100).astype(np.int64) % 7, pa.int64()),
        "typ": pa.array(np.array(["a", "b", "c"])[(i // 2) % 3]),
        "lo": pa.array(sec, pa.int64(), mask=null_ts),
        "hi": pa.array(sec + 900, pa.int64(), mask=null_ts),
    })


ROW = dict(key_col="k", ts_col="ts", tie_col="tie")

CASES = {
    "session_counts": (W.session_counts, ROW),
    "session_stats": (W.session_stats, ROW),
    "keyed_window_scan": (W.keyed_window_scan, {**ROW, "value_col": "v"}),
    "funnel_conversion": (W.funnel_conversion, dict(
        user_col="k", ts_col="ts", type_col="typ", step_a="a",
        step_b="b", within="1h")),
    "retention_cohorts": (W.retention_cohorts, dict(
        user_col="k", ts_col="ts", unit="day")),
    "event_bigrams": (W.event_bigrams, dict(
        user_col="k", ts_col="ts", tie_col="tie", type_col="typ")),
    "keyed_moving_median": (W.keyed_moving_median,
                            {**ROW, "value_col": "v"}),
    "keyed_lag": (W.keyed_lag, {**ROW, "value_col": "v"}),
    "keyed_lead": (W.keyed_lead, {**ROW, "value_col": "v"}),
    "keyed_throttle": (W.keyed_throttle, {**ROW, "min_gap_us": 1}),
    "keyed_latest": (W.keyed_latest, dict(
        key_cols=["k", "typ"], ts_col="ts", tie_col="tie")),
    "keyed_distinct_runs": (W.keyed_distinct_runs,
                            {**ROW, "run_col": "typ"}),
    "keyed_percent_rank": (W.keyed_percent_rank, dict(
        key_col="k", value_col="v", tie_col="tie")),
    "keyed_cume_dist": (W.keyed_cume_dist, dict(
        key_col="k", value_col="cents", tie_col="tie")),
    "keyed_rolling_stats": (W.keyed_rolling_stats,
                            {**ROW, "value_col": "v"}),
    "keyed_streaks": (W.keyed_streaks, dict(key_col="k", ts_col="ts")),
    "keyed_transition_counts": (W.keyed_transition_counts,
                                {**ROW, "type_col": "typ"}),
    "cohort_retention_matrix": (W.cohort_retention_matrix, dict(
        key_col="k", ts_col="ts", unit_s=86400)),
    "keyed_interval_coverage": (W.keyed_interval_coverage, dict(
        key_col="k", lo_col="lo", hi_col="hi")),
    "keyed_ewma": (W.keyed_ewma, {**ROW, "value_col": "v"}),
    "grouped_spearman": (R.grouped_spearman, dict(
        key="k", x_col="v", y_col="cents")),
    "copurchase_pairs": (R.copurchase_pairs, dict(
        order_col="k", item_col="cents", min_count=1)),
}


def _rows(out) -> pd.DataFrame:
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    floats = [c for c in df.columns if df[c].dtype.kind == "f"]
    by = [c for c in df.columns if c not in floats] + floats
    return df[sorted(df.columns)].sort_values(by).reset_index(drop=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_does_not_depend_on_bucket_count(name):
    import ray.data

    fn, kwargs = CASES[name]
    ds = ray.data.from_arrow(_table()).repartition(3)
    one = _rows(fn(ds, num_buckets=1, **kwargs))
    seven = _rows(fn(ds, num_buckets=7, **kwargs))
    assert len(one), name
    # float outputs may differ in the last ulp: per-bucket cumsums and
    # EWMA blocks run over a different row mix at each bucket count
    pd.testing.assert_frame_equal(one, seven, check_exact=False,
                                  rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("query", ["q_events_ewma_value",
                                   "q_supplier_busy_windows"])
def test_transformed_lineage_query_executes_once(monkeypatch, query):
    """A query that filters or maps its read before a keyed scan sizes
    the buckets from the source read: counting the transformed lineage
    would execute the read a second time just for the row count."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from jschon_ray.pipelines import queries as Q

    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        runs.append(self)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    assert len(getattr(Q, query)("/root/testdata/sf0.001")) > 0
    assert len(runs) == 1
