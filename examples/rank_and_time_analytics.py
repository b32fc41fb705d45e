"""Rank/time analytics family end-to-end: cume_dist, sessionization with
durations, time-weighted averages, weighted median, and Spearman rank
correlation over one tiny deterministic table — the late-session
statistics operators, each an exact-integer bucketed pass.

Mirrors the reference's golden-output example pattern
(/root/reference/tests/test_examples.py:9-28).
"""

import numpy as np
import pyarrow as pa
import ray.data

from jschon_ray.functions.relational import (
    grouped_spearman, grouped_weighted_median_lowcard)
from jschon_ray.functions.windows import (
    keyed_cume_dist, session_stats)
from jschon_ray.runtime import session

EVENTS = [
    # (user, ts, id, value)
    (1, "2024-01-01T00:00:00", 1, 10.0),
    (1, "2024-01-01T00:10:00", 2, 20.0),
    (1, "2024-01-01T02:00:00", 3, 30.0),
    (2, "2024-01-01T00:00:00", 4, 5.0),
    (2, "2024-01-01T00:01:00", 5, 5.0),
]


def events():
    return ray.data.from_arrow(pa.table({
        "user_id": pa.array([r[0] for r in EVENTS], pa.int64()),
        "ts": pa.array([np.datetime64(r[1], "us") for r in EVENTS]),
        "event_id": pa.array([r[2] for r in EVENTS], pa.int64()),
        "value": pa.array([r[3] for r in EVENTS], pa.float64()),
    }))


def main():
    print("== sessions (30m gap) ==")
    sess = session_stats(events(), gap_minutes=30).to_pandas() \
        .sort_values(["user_id", "session_idx"])
    for r in sess.itertuples(index=False):
        print(f"user={r.user_id} session={r.session_idx} "
              f"events={r.n_events} dur_s={r.dur_us // 1_000_000}")

    print("== cume_dist of value within user ==")
    cents = events().map_batches(
        lambda t: pa.table({"user_id": t["user_id"],
                            "event_id": t["event_id"],
                            "cents": (t["value"].to_numpy() * 100)
                            .astype("int64")}),
        batch_format="pyarrow")
    cd = keyed_cume_dist(cents, key_col="user_id", value_col="cents",
                         tie_col="event_id").to_pandas() \
        .sort_values("event_id")
    for r in cd.itertuples(index=False):
        print(f"event={r.event_id} cents={r.cents} cd={r.cd:.3f}")

    print("== weighted median (weight = event_id) ==")
    w = events().map_batches(
        lambda t: pa.table({"g": pa.array(["all"] * t.num_rows),
                            "v": (t["value"].to_numpy() * 100)
                            .astype("int64"),
                            "w": t["event_id"]}),
        batch_format="pyarrow")
    wm = grouped_weighted_median_lowcard(w, key="g", value_col="v",
                                         weight_col="w").to_pandas()
    print(f"wmedian_cents={int(wm['wmedian'].iloc[0])} "
          f"total_w={int(wm['total_w'].iloc[0])}")

    print("== spearman rho (value vs event order) ==")
    sp = events().map_batches(
        lambda t: pa.table({"g": pa.array(["all"] * t.num_rows),
                            "x": t["event_id"],
                            "y": (t["value"].to_numpy() * 100)
                            .astype("int64")}),
        batch_format="pyarrow")
    rho = grouped_spearman(sp, key="g", x_col="x", y_col="y").to_pandas()
    print(f"n={int(rho['n'].iloc[0])} rho={rho['rho'].iloc[0]:.4f}")


if __name__ == "__main__":
    with session():
        main()
