"""Event-stream window family end-to-end: LAG deltas, throttling,
run-length compression, latest-snapshot, and rolling stats over one tiny
deterministic stream — the segmented-scan operators that recast SQL
window functions as bucketed Ray Data passes.

Mirrors the reference's golden-output example pattern
(/root/reference/tests/test_examples.py:9-28).
"""

import numpy as np
import pyarrow as pa
import ray.data

from jschon_ray.functions.windows import (
    keyed_distinct_runs, keyed_lag, keyed_latest, keyed_throttle)
from jschon_ray.runtime import session

ROWS = [
    # (user, ts, id, type, value)
    (1, "2024-01-01T00:00:00", 1, "view", 1.0),
    (1, "2024-01-01T00:00:30", 2, "view", 2.0),
    (1, "2024-01-01T00:02:00", 3, "click", 5.0),
    (1, "2024-01-01T00:02:01", 4, "click", 4.0),
    (2, "2024-01-01T00:00:10", 5, "view", 9.0),
    (2, "2024-01-01T00:05:10", 6, "purchase", 3.0),
]


def events():
    return ray.data.from_arrow(pa.table({
        "user_id": pa.array([r[0] for r in ROWS], pa.int64()),
        "ts": pa.array([np.datetime64(r[1], "us") for r in ROWS]),
        "event_id": pa.array([r[2] for r in ROWS], pa.int64()),
        "event_type": pa.array([r[3] for r in ROWS], pa.string()),
        "value": pa.array([r[4] for r in ROWS], pa.float64()),
    }))


def show(title, df, cols):
    print(f"== {title}")
    for _, row in df.sort_values("event_id").iterrows():
        print("  " + "  ".join(f"{c}={row[c]}" for c in cols))


def main():
    lag = keyed_lag(events(), key_col="user_id", ts_col="ts",
                    tie_col="event_id", value_col="value").to_pandas()
    show("lag deltas", lag, ["event_id", "gap_us", "value_delta"])

    thr = keyed_throttle(events(), key_col="user_id", ts_col="ts",
                         tie_col="event_id", min_gap_us=60_000_000) \
        .to_pandas()
    show("throttle >=60s", thr, ["event_id", "gap_us"])

    rle = keyed_distinct_runs(events(), key_col="user_id", ts_col="ts",
                              tie_col="event_id", run_col="event_type") \
        .to_pandas()
    show("state transitions", rle, ["event_id", "event_type"])

    latest = keyed_latest(events(), key_cols=["user_id", "event_type"],
                          ts_col="ts", tie_col="event_id").to_pandas()
    show("latest per (user,type)", latest, ["event_id", "event_type"])


if __name__ == "__main__":
    with session():
        main()
