"""10M-event stress of the keyed window/scan family.

Evidence produced (one JSON line):
  - wall time per stage over 10,000,000 synthetic events x 100,000
    users: sessionization (gap-based), tumbling per-type counts,
    keyed EWMA, keyed lag, rolling stats — the family's hot members,
    each a hash-bucketed co-group (functions/windows.py);
  - driver max-RSS bound (all results are consumed as aggregates or
    counted — nothing O(rows) lands on the driver);
  - exact DuckDB parity for the sessionization and tumbling stages on
    the FULL 10M rows (DuckDB runs the same gap/window SQL over the
    same generated parquet — a value check, not a sample).

Events are generated deterministically into a /tmp parquet (seeded per
block) so DuckDB and Ray read identical bytes.

Run: python scripts/stress_windows_10m.py [n_events]
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa

N_USERS = 100_000
TYPES = np.array(["view", "click", "cart", "purchase"], dtype=object)


def gen_batch(batch: pa.Table) -> pa.Table:
    ids = batch["id"].to_numpy(zero_copy_only=False)
    rng = np.random.default_rng(int(ids[0]) * 6364136223846793005
                                % (2**63))
    n = len(ids)
    user = rng.integers(0, N_USERS, n)
    # timestamps spread over 30 days with per-user burstiness
    base = np.datetime64("2026-01-01T00:00:00", "us")
    ts = base + rng.integers(0, 30 * 86400_000_000, n).astype(
        "timedelta64[us]")
    return pa.table({
        "event_id": pa.array(ids.astype(np.int64)),
        "user_id": pa.array(user.astype(np.int64)),
        "ts": pa.array(ts),
        "event_type": pa.array(TYPES[rng.integers(0, 4, n)],
                               pa.string()),
        "value": pa.array(np.round(rng.random(n) * 100, 2)),
    })


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
    import ray.data as rd

    from jschon_ray.functions.windows import (keyed_ewma, keyed_lag,
                                              keyed_rolling_stats,
                                              session_counts,
                                              tumbling_agg)
    from jschon_ray.sources.io import cluster_cpus, read_table

    data_dir = "/tmp/windows_stress_events"
    shutil.rmtree(data_dir, ignore_errors=True)
    rd.range(n, override_num_blocks=128) \
        .map_batches(gen_batch, batch_format="pyarrow") \
        .write_parquet(data_dir)

    timings = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[name] = round(time.perf_counter() - t0, 2)
        return out

    def src(cols):
        return read_table(data_dir, columns=cols)

    # 1. sessionization: gap > 30min starts a new session; consume as
    #    the total session count (per-user rows stay distributed)
    sess = timed("sessionize_10m", lambda: session_counts(
        src(["user_id", "ts", "event_id"]), key_col="user_id",
        ts_col="ts", tie_col="event_id",
        gap_minutes=30).to_pandas())
    total_sessions = int(sess["n_sessions"].sum())

    # 2. tumbling hourly counts per type
    tumb = timed("tumbling_hour_10m", lambda: tumbling_agg(
        src(["event_type", "ts", "value"]), key_cols=("event_type",),
        ts_col="ts", unit="hour").to_pandas())

    # 3. keyed EWMA over every event (result counted, not collected)
    timed("keyed_ewma_10m", lambda: keyed_ewma(
        src(["user_id", "ts", "event_id", "value"]), key_col="user_id",
        ts_col="ts", tie_col="event_id", value_col="value",
        alpha=0.3).count())

    # 4. keyed lag
    timed("keyed_lag_10m", lambda: keyed_lag(
        src(["user_id", "ts", "event_id", "value"]), key_col="user_id",
        ts_col="ts", tie_col="event_id", value_col="value").count())

    # 5. rolling stats (window of 8 events per user)
    timed("rolling_stats_10m", lambda: keyed_rolling_stats(
        src(["user_id", "ts", "event_id", "value"]), key_col="user_id",
        ts_col="ts", tie_col="event_id", value_col="value",
        k=8).count())

    # ---- DuckDB parity on the FULL data (sessions + tumbling) ---------
    import duckdb
    con = duckdb.connect()
    dsess = con.sql(f"""
WITH e AS (SELECT user_id, ts FROM read_parquet('{data_dir}/*.parquet')
           WHERE user_id IS NOT NULL AND ts IS NOT NULL),
d AS (SELECT user_id, ts - lag(ts) OVER (PARTITION BY user_id
                                         ORDER BY ts) AS gap FROM e)
SELECT CAST(count(*) FILTER (gap IS NULL
            OR gap > INTERVAL 30 MINUTE) AS BIGINT) AS n
FROM d""").fetchone()[0]
    sess_match = (dsess == total_sessions)

    dt = con.sql(f"""
SELECT event_type, date_trunc('hour', ts) AS w,
       CAST(count(*) AS BIGINT) AS n
FROM read_parquet('{data_dir}/*.parquet') GROUP BY 1, 2""").df()
    tumb_match = None
    try:
        import pandas as pd
        aa = tumb[["event_type", "window_start", "n"]].copy()
        aa.columns = ["event_type", "w", "n"]
        aa = aa.sort_values(["event_type", "w"]).reset_index(drop=True)
        bb = dt.sort_values(["event_type", "w"]).reset_index(drop=True)
        aa["w"] = pd.to_datetime(aa["w"])
        bb["w"] = pd.to_datetime(bb["w"])
        # keys AND counts must align — count-only equality could mask a
        # shifted-window bug
        tumb_match = bool(
            len(aa) == len(bb)
            and (aa["event_type"].to_numpy()
                 == bb["event_type"].to_numpy()).all()
            and (aa["w"].to_numpy() == bb["w"].to_numpy()).all()
            and (aa["n"].to_numpy() == bb["n"].to_numpy()).all())
    except Exception as ex:
        tumb_match = f"compare-error: {ex}"

    rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    print(json.dumps({
        "metric": "windows_family_stress", "n_events": n,
        "n_users": N_USERS, "timings_sec": timings,
        "total_sessions": total_sessions,
        "sessions_match_duckdb": bool(sess_match),
        "tumbling_match_duckdb": tumb_match,
        "driver_max_rss_gb": round(rss_gb, 2),
        "num_cpus": cluster_cpus(),
    }))


if __name__ == "__main__":
    from jschon_ray.runtime import session

    with session():
        main()
