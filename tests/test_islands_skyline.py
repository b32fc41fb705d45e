"""Round-2 relational ops: streaks, Markov transitions, cohort matrix,
skyline, key gaps — small-input semantics vs hand-computed truth."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _events(rows):
    return pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([np.datetime64(r[1], "us") for r in rows],
                       pa.timestamp("us")),
        "event_id": pa.array(list(range(len(rows))), pa.int64()),
        "event_type": pa.array([r[2] if len(r) > 2 else "x"
                                for r in rows], pa.string()),
    })


def test_keyed_streaks_islands():
    import ray.data

    from jschon_ray.functions.windows import keyed_streaks

    rows = [
        # user 1: days 0,1,2 then 5 -> streaks [3, 1]
        (1, "2024-01-01T10:00"), (1, "2024-01-02T01:00"),
        (1, "2024-01-02T23:00"), (1, "2024-01-03T00:00"),
        (1, "2024-01-06T12:00"),
        # user 2: single day
        (2, "2024-01-04T00:00"),
    ]
    ds = ray.data.from_arrow(_events(rows))
    out = keyed_streaks(ds, key_col="user_id", ts_col="ts",
                        num_buckets=4).to_pandas() \
        .set_index("user_id").sort_index()
    assert out.loc[1, "max_streak"] == 3
    assert out.loc[1, "n_active_units"] == 4
    assert out.loc[1, "n_streaks"] == 2
    assert out.loc[2, "max_streak"] == 1
    assert out.loc[2, "n_streaks"] == 1


def test_keyed_transition_counts_matrix():
    import ray.data

    from jschon_ray.functions.windows import keyed_transition_counts

    rows = [
        (1, "2024-01-01T00:00", "a"), (1, "2024-01-01T00:01", "b"),
        (1, "2024-01-01T00:02", "a"), (1, "2024-01-01T00:03", "b"),
        (2, "2024-01-01T00:00", "a"), (2, "2024-01-01T00:01", "a"),
    ]
    ds = ray.data.from_arrow(_events(rows))
    out = keyed_transition_counts(
        ds, key_col="user_id", ts_col="ts", tie_col="event_id",
        type_col="event_type", num_buckets=4)
    got = {(r.cur_type, r.next_type): (r.n, r.p)
           for r in out.itertuples()}
    assert got[("a", "b")] == (2, 0.666667)   # from 'a': b,b,a
    assert got[("a", "a")] == (1, 0.333333)
    assert got[("b", "a")] == (1, 1.0)
    # P(next|a) sums to 1
    assert abs(got[("a", "b")][1] + got[("a", "a")][1] - 1.0) < 1e-9


def test_cohort_retention_matrix_cells():
    import ray.data

    from jschon_ray.functions.windows import cohort_retention_matrix

    # unit = 1 day for readability
    rows = [
        (1, "2024-01-01T00:00"), (1, "2024-01-02T00:00"),
        (2, "2024-01-01T12:00"),
        (3, "2024-01-02T00:00"), (3, "2024-01-04T00:00"),
    ]
    ds = ray.data.from_arrow(_events(rows))
    out = cohort_retention_matrix(ds, key_col="user_id", ts_col="ts",
                                  unit_s=86400, num_buckets=4)
    cells = {(r.cohort_unit, r.unit_offset): r.n_keys
             for r in out.itertuples()}
    day0 = int(np.datetime64("2024-01-01").astype(
        "datetime64[D]").astype(int))
    assert cells[(day0, 0)] == 2            # users 1, 2 start day0
    assert cells[(day0, 1)] == 1            # user 1 returns next day
    assert cells[(day0 + 1, 0)] == 1        # user 3 cohort day1
    assert cells[(day0 + 1, 2)] == 1        # user 3 returns day3


def test_skyline_2d_dominance():
    import ray.data

    from jschon_ray.functions.relational import skyline_2d

    t = pa.table({
        "id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "price": pa.array([1.0, 2.0, 2.0, 3.0, 1.0, 5.0]),
        "size": pa.array([10, 20, 15, 20, 10, 30], pa.int32()),
    })
    ds = ray.data.from_arrow(t).repartition(3)
    out = skyline_2d(ds, min_col="price", max_col="size",
                     keep_cols=("id",))
    # dominated: id3 (2,15) by id2 (2,20); id4 (3,20) by id2;
    # kept: id1/id5 duplicates (1,10), id2 (2,20), id6 (5,30)
    assert sorted(out["id"]) == [1, 2, 5, 6]


def test_key_gaps_internal_and_boundary():
    import ray.data

    from jschon_ray.functions.scan import key_gaps

    keys = [1, 2, 3, 7, 8, 20, 21, 21, 40]
    t = pa.table({"k": pa.array(keys, pa.int64())})
    ds = ray.data.from_arrow(t).random_shuffle(seed=5).repartition(4)
    out = key_gaps(ds, key_col="k").to_pandas() \
        .sort_values("gap_lo").reset_index(drop=True)
    expect = pd.DataFrame({
        "gap_lo": [4, 9, 22], "gap_hi": [6, 19, 39],
        "gap_len": [3, 11, 18]})
    pd.testing.assert_frame_equal(
        out[["gap_lo", "gap_hi", "gap_len"]].astype("int64"), expect)


def test_keyed_interval_coverage_merges_overlaps():
    import ray.data

    from jschon_ray.functions.windows import keyed_interval_coverage

    t = pa.table({
        "k": pa.array([1, 1, 1, 1, 2], pa.int64()),
        # key 1: [0,10) [5,12) merge ->[0,12); [20,25) separate
        # plus contained [6,8) swallowed
        "lo": pa.array([0, 5, 20, 6, 3], pa.int64()),
        "hi": pa.array([10, 12, 25, 8, 9], pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(2)
    out = keyed_interval_coverage(ds, key_col="k", lo_col="lo",
                                  hi_col="hi", num_buckets=4) \
        .to_pandas().set_index("k").sort_index()
    assert out.loc[1, "n_windows"] == 2
    assert out.loc[1, "covered"] == 12 + 5
    assert out.loc[2, "n_windows"] == 1
    assert out.loc[2, "covered"] == 6


def test_keyed_ewma_matches_pandas_ewm():
    import ray.data

    from jschon_ray.functions.windows import keyed_ewma

    rng = np.random.default_rng(3)
    n = 1000
    t = pa.table({
        "k": pa.array(rng.integers(0, 7, n), pa.int64()),
        "ts": pa.array(
            np.datetime64("2024-01-01", "us")
            + rng.permutation(n).astype("timedelta64[us]") * 1000,
            pa.timestamp("us")),
        "tie": pa.array(np.arange(n), pa.int64()),
        "v": pa.array(rng.normal(0, 10, n)),
    })
    alpha = 0.35
    ds = ray.data.from_arrow(t).repartition(4)
    got = keyed_ewma(ds, key_col="k", ts_col="ts", tie_col="tie",
                     value_col="v", alpha=alpha, num_buckets=4,
                     chunk=16) \
        .to_pandas().sort_values("tie").reset_index(drop=True)
    df = t.to_pandas().sort_values(["k", "ts", "tie"])
    df["ref"] = df.groupby("k")["v"] \
        .transform(lambda s: s.ewm(alpha=alpha, adjust=False).mean())
    ref = df.sort_values("tie").reset_index(drop=True)
    np.testing.assert_allclose(got["ewma"], ref["ref"], atol=1e-6)


def test_scd2_history_intervals():
    import ray.data

    from jschon_ray.functions.diff import scd2_history

    old = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                    "v": pa.array(["a", "b", "c"])})
    new = pa.table({"k": pa.array([1, 2, 4], pa.int64()),
                    "v": pa.array(["a", "B", "d"])})
    out = scd2_history(ray.data.from_arrow(old),
                       ray.data.from_arrow(new),
                       key_col="k", compare_cols=["v"],
                       n_buckets=4).to_pandas() \
        .sort_values(["k", "valid_from"]).reset_index(drop=True)
    rows = [tuple(r) for r in
            out[["k", "v", "valid_from", "valid_to"]].itertuples(
                index=False)]
    assert rows == [
        (1, "a", 1, -1),          # unchanged, open
        (2, "b", 1, 2),           # changed: closed old
        (2, "B", 2, -1),          # changed: open new
        (3, "c", 1, 2),           # removed: closed
        (4, "d", 2, -1),          # added: open
    ]


def test_bigram_logprob_hand_computed():
    import ray.data

    from jschon_ray.functions.text import bigram_logprob

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["a b a b", "b a", "solo"]),
    })
    out = bigram_logprob(ray.data.from_arrow(t)).to_pandas() \
        .set_index("doc_id").sort_index()
    # corpus bigrams: (a,b)x2, (b,a)x2  -> contexts a:2, b:2
    # P(b|a)=1.0, P(a|b)=1.0 -> all logprobs 0
    assert out.loc[1, "n_bigrams"] == 3
    assert out.loc[1, "avg_logprob"] == 0.0
    assert out.loc[2, "n_bigrams"] == 1
    # single-token doc: no bigrams, null score
    assert out.loc[3, "n_bigrams"] == 0
    assert pd.isna(out.loc[3, "avg_logprob"])


def test_bigram_logprob_conditional_values():
    import ray.data

    from jschon_ray.functions.text import bigram_logprob

    # contexts: the->{cat:2, dog:1}; P(cat|the)=2/3, P(dog|the)=1/3
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["the cat", "the cat", "the dog"]),
    })
    out = bigram_logprob(ray.data.from_arrow(t)).to_pandas() \
        .set_index("doc_id").sort_index()
    assert out.loc[1, "avg_logprob"] == round(float(np.log(2 / 3)), 4)
    assert out.loc[3, "avg_logprob"] == round(float(np.log(1 / 3)), 4)


def test_keyed_interval_coverage_huge_bounds():
    """Regression: epoch-microsecond-scale bounds (> 2^41) in one
    bucket must not let one key's running max bleed into the next
    (the offset-accumulate trick failed exactly here)."""
    import ray.data

    from jschon_ray.functions.windows import keyed_interval_coverage

    t = pa.table({
        "k": pa.array([1, 2, 2], pa.int64()),
        "lo": pa.array([0, 0, 10000], pa.int64()),
        "hi": pa.array([3_000_000_000_000, 100, 10050], pa.int64()),
    })
    ds = ray.data.from_arrow(t)
    out = keyed_interval_coverage(ds, key_col="k", lo_col="lo",
                                  hi_col="hi", num_buckets=1) \
        .to_pandas().set_index("k").sort_index()
    assert out.loc[2, "n_windows"] == 2
    assert out.loc[2, "covered"] == 150
    assert out.loc[1, "covered"] == 3_000_000_000_000
