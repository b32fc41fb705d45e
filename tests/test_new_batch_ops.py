"""Edge-case unit tests for the late-session operator batch: lag/throttle/
latest scans, basket pairs, MAD/entropy/vector-mean, weighted sampling.

Oracle-level parity lives in test_driver_contract.py; these cover the
degenerate shapes the sf tables don't exercise (single-row keys, empty
inputs, all-duplicate baskets, one-element vectors).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data


def _events(rows):
    return ray.data.from_arrow(pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([np.datetime64(r[1], "us") for r in rows]),
        "event_id": pa.array([r[2] for r in rows], pa.int64()),
        "value": pa.array([float(r[3]) for r in rows], pa.float64()),
    }))


class TestKeyedLag:
    def test_single_row_keys_all_null(self, ray_session):
        from jschon_ray.functions.windows import keyed_lag
        ds = _events([(1, "2024-01-01T00:00:00", 1, 1.0),
                      (2, "2024-01-01T00:00:05", 2, 2.0)])
        out = keyed_lag(ds, key_col="user_id", ts_col="ts",
                        tie_col="event_id", value_col="value") \
            .to_pandas().sort_values("event_id")
        assert out["gap_us"].isna().all()
        assert out["value_delta"].isna().all()

    def test_gaps_and_deltas(self, ray_session):
        from jschon_ray.functions.windows import keyed_lag
        ds = _events([(1, "2024-01-01T00:00:00", 1, 1.0),
                      (1, "2024-01-01T00:00:02", 2, 3.5),
                      (1, "2024-01-01T00:00:02", 3, 2.0)])
        out = keyed_lag(ds, key_col="user_id", ts_col="ts",
                        tie_col="event_id", value_col="value") \
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        assert pd.isna(out.loc[0, "gap_us"])
        assert out.loc[1, "gap_us"] == 2_000_000
        assert out.loc[2, "gap_us"] == 0          # tie ts, ordered by id
        assert out.loc[1, "value_delta"] == 2.5
        assert out.loc[2, "value_delta"] == -1.5


class TestKeyedThrottle:
    def test_keeps_first_and_spaced(self, ray_session):
        from jschon_ray.functions.windows import keyed_throttle
        ds = _events([(1, "2024-01-01T00:00:00", 1, 0),
                      (1, "2024-01-01T00:00:01", 2, 0),   # 1s -> dropped
                      (1, "2024-01-01T00:01:30", 3, 0)])  # 89s -> kept
        out = keyed_throttle(ds, key_col="user_id", ts_col="ts",
                             tie_col="event_id",
                             min_gap_us=60_000_000).to_pandas()
        assert sorted(out["event_id"]) == [1, 3]


class TestKeyedLatest:
    def test_composite_key_latest(self, ray_session):
        from jschon_ray.functions.windows import keyed_latest
        tbl = pa.table({
            "user_id": pa.array([1, 1, 1, 2], pa.int64()),
            "event_type": ["a", "a", "b", "a"],
            "ts": pa.array([np.datetime64(x, "us") for x in
                            ["2024-01-01T00:00:00", "2024-01-01T00:00:09",
                             "2024-01-01T00:00:05", "2024-01-01T00:00:01"]]),
            "event_id": pa.array([1, 2, 3, 4], pa.int64()),
            "value": pa.array([0.0, 1.0, 2.0, 3.0], pa.float64()),
        })
        from_arrow = ray.data.from_arrow(tbl)
        out = keyed_latest(from_arrow,
                           key_cols=["user_id", "event_type"],
                           ts_col="ts", tie_col="event_id") \
            .to_pandas().sort_values(["user_id", "event_type"])
        assert list(out["event_id"]) == [2, 3, 4]


class TestCopurchasePairs:
    def test_duplicates_collapse_and_min_count(self, ray_session):
        from jschon_ray.functions.relational import copurchase_pairs
        # order 1: {10, 20, 20} -> one (10,20); order 2: {10, 20};
        # order 3: {10, 30} -> (10,30) appears once -> filtered
        tbl = pa.table({
            "o": pa.array([1, 1, 1, 2, 2, 3, 3], pa.int64()),
            "p": pa.array([10, 20, 20, 10, 20, 10, 30], pa.int64())})
        out = copurchase_pairs(ray.data.from_arrow(tbl), order_col="o",
                               item_col="p", min_count=2).to_pandas()
        assert len(out) == 1
        assert (int(out["p1"].iloc[0]), int(out["p2"].iloc[0]),
                int(out["n_orders"].iloc[0])) == (10, 20, 2)

    def test_empty_when_no_pairs(self, ray_session):
        from jschon_ray.functions.relational import copurchase_pairs
        tbl = pa.table({"o": pa.array([1, 2], pa.int64()),
                        "p": pa.array([10, 20], pa.int64())})
        out = copurchase_pairs(ray.data.from_arrow(tbl), order_col="o",
                               item_col="p", min_count=1).to_pandas()
        assert len(out) == 0


class TestGroupedStats:
    def test_mad_odd_even(self, ray_session):
        from jschon_ray.functions.relational import grouped_mad
        tbl = pa.table({"k": ["a"] * 5 + ["b"] * 4,
                        "v": pa.array([1, 2, 3, 4, 100, 10, 20, 30, 40],
                                      pa.float64())})
        out = grouped_mad(ray.data.from_arrow(tbl), key="k",
                          value_col="v").to_pandas() \
            .set_index("k").sort_index()
        # a: median 3, |dev| = [2,1,0,1,97] -> mad 1
        assert out.loc["a", "median"] == 3.0
        assert out.loc["a", "mad"] == 1.0
        # b: median 25, |dev| = [15,5,5,15] -> mad (5+15)/2 = 10
        assert out.loc["b", "median"] == 25.0
        assert out.loc["b", "mad"] == 10.0

    def test_entropy_uniform_and_point(self, ray_session):
        from jschon_ray.functions.relational import group_entropy
        tbl = pa.table({"k": [1, 1, 1, 1, 2, 2], 
                        "c": ["x", "y", "x", "y", "z", "z"]})
        out = group_entropy(ray.data.from_arrow(tbl), key="k",
                            cat_col="c").to_pandas().set_index("k")
        assert out.loc[1, "entropy"] == pytest.approx(np.log(2), abs=1e-4)
        assert out.loc[2, "entropy"] == 0.0

    def test_vector_mean(self, ray_session):
        from jschon_ray.functions.relational import grouped_vector_mean
        tbl = pa.table({
            "label": pa.array([0, 0, 1], pa.int32()),
            "embedding": pa.array([[1.0, 3.0], [3.0, 5.0], [7.0, 9.0]],
                                  pa.list_(pa.float32()))})
        out = grouped_vector_mean(ray.data.from_arrow(tbl), key="label",
                                  vec_col="embedding").to_pandas()
        out = out.sort_values(["label", "i"]).reset_index(drop=True)
        assert list(out["c"]) == [2.0, 4.0, 7.0, 9.0]


class TestWeightedSample:
    def test_zero_weight_never_full_weight_always(self, ray_session):
        from jschon_ray.functions.split import weighted_sample
        tbl = pa.table({"id": pa.array(range(200), pa.int64()),
                        "w": pa.array([0] * 100 + [10 ** 9] * 100,
                                      pa.int64())})
        kept = weighted_sample(tbl, id_col="id", weight_col="w",
                               factor=100.0)
        ids = kept["id"].to_numpy()
        assert (ids >= 100).all() and len(ids) == 100

    def test_deterministic(self, ray_session):
        from jschon_ray.functions.split import weighted_sample
        tbl = pa.table({"id": pa.array(range(500), pa.int64()),
                        "w": pa.array([50] * 500, pa.int64())})
        a = weighted_sample(tbl, id_col="id", weight_col="w",
                            factor=100.0)["id"].to_pylist()
        b = weighted_sample(tbl, id_col="id", weight_col="w",
                            factor=100.0)["id"].to_pylist()
        assert a == b and 150 < len(a) < 350


class TestSaltedHashJoin:
    def _skewed(self):
        rng = np.random.default_rng(7)
        n = 5000
        keys = np.where(rng.random(n) < 0.9, 7,
                        rng.integers(0, 50, n)).astype(np.int64)
        left = pa.table({"k": pa.array(keys),
                         "payload": pa.array(np.arange(n, dtype=np.int64))})
        right = pa.table({"k": pa.array(np.arange(50, dtype=np.int64)),
                          "dim": pa.array([f"d{i}" for i in range(50)])})
        return left, right

    def test_matches_plain_hash_join(self, ray_session):
        from jschon_ray.functions.join import hash_join, salted_hash_join
        left, right = self._skewed()
        a = salted_hash_join(ray.data.from_arrow(left),
                             ray.data.from_arrow(right), on="k",
                             hot_keys=[7], num_salts=4).to_pandas()
        b = hash_join(ray.data.from_arrow(left),
                      ray.data.from_arrow(right), on="k").to_pandas()
        a = a.sort_values(["k", "payload"]).reset_index(drop=True)
        b = b.sort_values(["k", "payload"]).reset_index(drop=True)
        assert len(a) == len(b) == 5000
        pd.testing.assert_frame_equal(a[sorted(a.columns)],
                                      b[sorted(b.columns)])

    def test_auto_trigger_parity_on_skew(self, ray_session):
        """hash_join_auto detects the >=50%-hot key via the
        heavy-hitter pass and its salted plan matches the plain join
        bit-for-bit."""
        from jschon_ray.functions.join import hash_join, hash_join_auto
        left, right = self._skewed()   # 90% of 5000 rows on key 7
        a = hash_join_auto(ray.data.from_arrow(left),
                           ray.data.from_arrow(right), on="k",
                           num_salts=4).to_pandas()
        b = hash_join(ray.data.from_arrow(left),
                      ray.data.from_arrow(right), on="k").to_pandas()
        a = a.sort_values(["k", "payload"]).reset_index(drop=True)
        b = b.sort_values(["k", "payload"]).reset_index(drop=True)
        assert len(a) == len(b) == 5000
        pd.testing.assert_frame_equal(a[sorted(a.columns)],
                                      b[sorted(b.columns)])

    def test_auto_trigger_detects_hot_key(self, ray_session):
        """The heavy-hitter pass feeding the auto-trigger flags exactly
        the skewed key at the default 1% share threshold."""
        from jschon_ray.functions.relational import heavy_hitters
        left, _ = self._skewed()
        hot = heavy_hitters(ray.data.from_arrow(left), col="k",
                            num=1, den=4).to_pandas()   # >25% share
        assert list(hot["k"]) == [7]

    def test_salting_bounds_per_task_rows(self):
        """The boundedness invariant the salted plan exists for: after
        probe-side salting, no single shuffle key holds more than
        cold_max + ceil(hot/num_salts) rows (vs 90% of the input on one
        key unsalted), and the build side replicates hot rows exactly
        num_salts times."""
        import pyarrow.compute as pc

        from jschon_ray.functions.join import (_SALT_COL, _explode_build,
                                               _salt_probe)
        left, right = self._skewed()
        hot = pa.array([7], pa.int64())
        salted = _salt_probe(left, on="k", hot=hot, num_salts=4)
        per_key = salted.group_by(_SALT_COL) \
            .aggregate([([], "count_all")]).column("count_all")
        n_hot = pc.sum(pc.equal(left["k"], 7)).as_py()
        cold_max = pc.max(
            left.filter(pc.not_equal(left["k"], 7)).group_by("k")
                .aggregate([([], "count_all")]).column("count_all")).as_py()
        assert n_hot > len(left) // 2          # genuinely skewed input
        bound = cold_max + (n_hot + 3) // 4
        assert pc.max(per_key).as_py() <= bound

        built = _explode_build(right, on="k", hot=hot, num_salts=4)
        assert built.num_rows == right.num_rows + 3   # hot row x4 total
        hot_copies = built.filter(pc.equal(built["k"], 7))
        assert hot_copies.num_rows == 4
        assert len(hot_copies.column(_SALT_COL).unique()) == 4

    def test_auto_trigger_null_heavy_key_excluded(self, ray_session):
        """A NULL probe key above the share threshold must not enter
        the hot set (sorted() would compare None to real keys); the
        join result matches the plain plan, nulls matching nothing."""
        from jschon_ray.functions.join import hash_join, hash_join_auto
        left = pa.table({
            "k": pa.array(["hot"] * 40 + [None] * 40
                          + [f"c{i}" for i in range(20)], pa.string()),
            "payload": pa.array(np.arange(100, dtype=np.int64))})
        right = pa.table({"k": pa.array(["hot", "c3"], pa.string()),
                          "dim": pa.array([1, 2], pa.int64())})
        a = hash_join_auto(ray.data.from_arrow(left),
                           ray.data.from_arrow(right), on="k",
                           num_salts=3, skew_num=1,
                           skew_den=4).to_pandas()
        b = hash_join(ray.data.from_arrow(left),
                      ray.data.from_arrow(right), on="k").to_pandas()
        a = a.sort_values(["k", "payload"]).reset_index(drop=True)
        b = b.sort_values(["k", "payload"]).reset_index(drop=True)
        assert len(a) == len(b) == 41          # 40 hot + 1 c3
        pd.testing.assert_frame_equal(a[sorted(a.columns)],
                                      b[sorted(b.columns)])

    def test_left_join_unmatched_survive(self, ray_session):
        from jschon_ray.functions.join import salted_hash_join
        left = pa.table({"k": pa.array([7, 7, 99], pa.int64()),
                         "payload": pa.array([1, 2, 3], pa.int64())})
        right = pa.table({"k": pa.array([7], pa.int64()),
                          "dim": ["hot"]})
        out = salted_hash_join(ray.data.from_arrow(left),
                               ray.data.from_arrow(right), on="k",
                               hot_keys=[7], num_salts=3,
                               how="left").to_pandas()
        out = out.sort_values("payload").reset_index(drop=True)
        assert list(out["dim"]) == ["hot", "hot", None] or \
               list(out["dim"].fillna("NULL")) == ["hot", "hot", "NULL"]

    def test_auto_join_runs_probe_transforms_once(self, ray_session,
                                                  tmp_path):
        """hash_join_auto must not execute a non-trivial probe pipeline
        twice: the detection pass and the join share one materialized
        probe. The probe's map_batches UDF drops a marker file per
        invocation; a double execution would leave 2 markers for the
        single input block."""
        from jschon_ray.functions.join import hash_join_auto
        left, right = self._skewed()
        marks = tmp_path / "probe_calls"
        marks.mkdir()

        def expensive(t: pa.Table, _dir=str(marks)) -> pa.Table:
            import os
            import uuid
            with open(os.path.join(_dir, uuid.uuid4().hex), "w"):
                pass
            return t

        probe = ray.data.from_arrow(left).map_batches(
            expensive, batch_format="pyarrow")
        out = hash_join_auto(probe, ray.data.from_arrow(right),
                             on="k", num_salts=4).to_pandas()
        assert len(out) == 5000               # salted plan still correct
        assert len(list(marks.iterdir())) == 1   # one block, executed once

    def test_plan_is_cheap_classifier(self, ray_session):
        """Scan/projection/metadata-only plans re-execute; anything with
        a real transform materializes (safe side on unknown shapes)."""
        from jschon_ray.functions.join import _plan_is_cheap
        from jschon_ray.sources.io import read_table, table_path
        import os
        sf = os.environ.get("GRAFT_SF_DIR_SMALL", "/root/testdata/sf0.001")
        tbl = pa.table({"k": pa.array([1, 2], pa.int64())})
        assert _plan_is_cheap(ray.data.from_arrow(tbl))
        rd_ds = read_table(table_path(sf, "orders"),
                           columns=["o_orderkey"])
        assert _plan_is_cheap(rd_ds)          # scan + metadata strip only
        assert not _plan_is_cheap(
            rd_ds.map_batches(lambda t: t, batch_format="pyarrow"))
        assert not _plan_is_cheap(rd_ds.groupby("o_orderkey").count())

    def test_limit_chain_materializes(self, ray_session):
        """Which rows a Limit keeps depends on task completion order, so a
        second execution could hand the heavy-hitter pass and the join
        different rows and flip the salted/plain choice: a Limit chain is
        materialized once, never re-executed."""
        from jschon_ray.functions.join import _plan_is_cheap
        ds = ray.data.from_arrow(pa.table({"k": pa.array(range(100))}))
        assert _plan_is_cheap(ds.select_columns(["k"]))
        assert not _plan_is_cheap(ds.limit(10))
        assert not _plan_is_cheap(ds.select_columns(["k"]).limit(10))


class TestKeyedCumeDist:
    def test_ties_counted_together(self, ray_session):
        from jschon_ray.functions.windows import keyed_cume_dist
        ds = ray.data.from_arrow(pa.table({
            "seg": pa.array(["a"] * 4, pa.string()),
            "v": pa.array([10, 20, 20, 30], pa.int64()),
            "id": pa.array([1, 2, 3, 4], pa.int64())}))
        out = keyed_cume_dist(ds, key_col="seg", value_col="v",
                              tie_col="id").to_pandas() \
            .sort_values("id").reset_index(drop=True)
        # cume_dist: 10 -> 1/4; both 20s -> 3/4; 30 -> 4/4
        assert out["cd"].tolist() == [0.25, 0.75, 0.75, 1.0]

    def test_single_row_key_is_one(self, ray_session):
        from jschon_ray.functions.windows import keyed_cume_dist
        ds = ray.data.from_arrow(pa.table({
            "seg": pa.array(["a", "b"], pa.string()),
            "v": pa.array([5, 7], pa.int64()),
            "id": pa.array([1, 2], pa.int64())}))
        out = keyed_cume_dist(ds, key_col="seg", value_col="v",
                              tie_col="id").to_pandas()
        assert (out["cd"] == 1.0).all()

    def test_all_equal_values(self, ray_session):
        from jschon_ray.functions.windows import keyed_cume_dist
        ds = ray.data.from_arrow(pa.table({
            "seg": pa.array(["a"] * 3, pa.string()),
            "v": pa.array([9, 9, 9], pa.int64()),
            "id": pa.array([1, 2, 3], pa.int64())}))
        out = keyed_cume_dist(ds, key_col="seg", value_col="v",
                              tie_col="id").to_pandas()
        assert (out["cd"] == 1.0).all()


class TestKeyedLead:
    def test_last_of_key_null(self, ray_session):
        from jschon_ray.functions.windows import keyed_lead
        ds = _events([(1, "2024-01-01T00:00:00", 1, 1.0),
                      (1, "2024-01-01T00:00:03", 2, 4.0),
                      (2, "2024-01-01T00:00:05", 3, 2.0)])
        out = keyed_lead(ds, key_col="user_id", ts_col="ts",
                         tie_col="event_id", value_col="value") \
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        assert out["lead_gap_us"].tolist()[0] == 3_000_000
        assert out["lead_delta"].tolist()[0] == 3.0
        assert pd.isna(out["lead_gap_us"].iloc[1])   # last of user 1
        assert pd.isna(out["lead_gap_us"].iloc[2])   # single-row user 2


class TestCubeAgg:
    def test_all_grouping_sets(self, ray_session):
        from jschon_ray.functions.relational import cube_agg
        ds = ray.data.from_arrow(pa.table({
            "a": pa.array(["x", "x", "y"], pa.string()),
            "b": pa.array(["p", "q", "p"], pa.string()),
            "v": pa.array([1.0, 2.0, 4.0], pa.float64())}))
        out = cube_agg(ds, keys=["a", "b"], value_col="v")
        # 3 finest + 2 (a,*) + 2 (*,b) + 1 total = 8 rows
        assert len(out) == 8
        total = out[out["a"].isna() & out["b"].isna()]
        assert total["n"].iloc[0] == 3
        assert total["sum_v"].iloc[0] == 7.0
        b_only = out[out["a"].isna() & (out["b"] == "p")]
        assert b_only["sum_v"].iloc[0] == 5.0


class TestPercentileContLowcard:
    def test_interpolation_matches_numpy(self, ray_session):
        from jschon_ray.functions.relational import (
            grouped_percentile_cont_lowcard)
        vals = [1, 2, 2, 3, 10, 10, 10, 50]
        ds = ray.data.from_arrow(pa.table({
            "g": pa.array(["a"] * len(vals), pa.string()),
            "v": pa.array(vals, pa.int64())}))
        out = grouped_percentile_cont_lowcard(
            ds, key="g", value_col="v").to_pandas()
        for q, col in ((0.25, "p25"), (0.5, "p50"), (0.75, "p75")):
            assert out[col].iloc[0] == np.quantile(
                np.array(vals, np.float64), q)


class TestKeyedLatestKeepFirst:
    def test_first_touch(self, ray_session):
        from jschon_ray.functions.windows import keyed_latest
        ds = _events([(1, "2024-01-01T00:00:05", 2, 5.0),
                      (1, "2024-01-01T00:00:00", 1, 1.0),
                      (2, "2024-01-01T00:00:09", 3, 9.0)])
        out = keyed_latest(ds, key_cols=["user_id"], ts_col="ts",
                           tie_col="event_id", keep="first") \
            .to_pandas().sort_values("user_id").reset_index(drop=True)
        assert out["event_id"].tolist() == [1, 3]
        assert out["value"].tolist() == [1.0, 9.0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cume_dist_fuzz_vs_duckdb(ray_session, seed):
    import duckdb
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200))
    df = pd.DataFrame({
        "seg": rng.choice(["a", "b", "c"], n),
        "v": rng.integers(-5, 5, n).astype("int64"),
        "id": np.arange(n, dtype="int64")})
    from jschon_ray.functions.windows import keyed_cume_dist
    got = keyed_cume_dist(ray.data.from_pandas(df), key_col="seg",
                          value_col="v", tie_col="id") \
        .to_pandas().sort_values("id").reset_index(drop=True)
    want = duckdb.sql("""
        SELECT seg, id, v,
               cume_dist() OVER (PARTITION BY seg ORDER BY v) AS cd
        FROM df ORDER BY id""").df()
    assert np.array_equal(got["cd"].to_numpy(),
                          want["cd"].to_numpy())


@pytest.mark.parametrize("seed", [0, 1])
def test_keyed_lead_fuzz_vs_duckdb(ray_session, seed):
    import duckdb
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 150))
    df = pd.DataFrame({
        "user_id": rng.integers(0, 8, n).astype("int64"),
        "ts": pd.to_datetime(rng.integers(0, 10**7, n), unit="us"),
        "event_id": np.arange(n, dtype="int64"),
        "value": np.round(rng.normal(0, 3, n), 3)})
    from jschon_ray.functions.windows import keyed_lead
    got = keyed_lead(ray.data.from_pandas(df), key_col="user_id",
                     ts_col="ts", tie_col="event_id",
                     value_col="value") \
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    want = duckdb.sql("""
        SELECT event_id,
               date_diff('microsecond', ts, lead(ts) OVER w)
                 AS lead_gap_us,
               round(lead(value) OVER w - value, 4) AS lead_delta
        FROM df
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ORDER BY event_id""").df()
    gg = got["lead_gap_us"].to_numpy(dtype="float64", na_value=np.nan)
    wg = want["lead_gap_us"].to_numpy(dtype="float64", na_value=np.nan)
    assert np.array_equal(gg, wg, equal_nan=True)
    gd = got["lead_delta"].to_numpy(dtype="float64", na_value=np.nan)
    wd = want["lead_delta"].to_numpy(dtype="float64", na_value=np.nan)
    assert np.array_equal(gd, wd, equal_nan=True)


class TestGroupedSpearman:
    def test_monotonic_and_ties(self, ray_session):
        from jschon_ray.functions.relational import grouped_spearman
        ds = ray.data.from_arrow(pa.table({
            "g": pa.array(["up"] * 5 + ["down"] * 5 + ["tie"] * 4),
            "x": pa.array([1, 2, 3, 4, 5, 1, 2, 3, 4, 5,
                           1, 1, 2, 2], pa.int64()),
            "y": pa.array([10, 20, 30, 40, 50, 50, 40, 30, 20, 10,
                           5, 5, 9, 9], pa.int64())}))
        out = grouped_spearman(ds, key="g", x_col="x", y_col="y") \
            .to_pandas().set_index("g")
        assert out.loc["up", "rho"] == 1.0
        assert out.loc["down", "rho"] == -1.0
        assert out.loc["tie", "rho"] == 1.0  # ties aligned in both vars


class TestSessionStats:
    def test_boundaries_and_durations(self, ray_session):
        from jschon_ray.functions.windows import session_stats
        ds = _events([(1, "2024-01-01T00:00:00", 1, 0),
                      (1, "2024-01-01T00:10:00", 2, 0),
                      (1, "2024-01-01T01:00:00", 3, 0),   # >30m gap
                      (2, "2024-01-01T05:00:00", 4, 0)])
        out = session_stats(ds, gap_minutes=30).to_pandas() \
            .sort_values(["user_id", "session_idx"]) \
            .reset_index(drop=True)
        assert out["session_idx"].tolist() == [1, 2, 1]
        assert out["n_events"].tolist() == [2, 1, 1]
        assert out["dur_us"].tolist() == [600_000_000, 0, 0]


@pytest.mark.parametrize("seed", [0, 1])
def test_cube_agg_fuzz_vs_duckdb(ray_session, seed):
    import duckdb
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 100))
    df = pd.DataFrame({
        "a": rng.choice(["x", "y", "z"], n),
        "b": rng.choice(["p", "q"], n),
        "v": rng.integers(0, 20, n).astype("float64")})
    from jschon_ray.functions.relational import cube_agg
    got = cube_agg(ray.data.from_pandas(df), keys=["a", "b"],
                   value_col="v")
    want = duckdb.sql("""
        SELECT a, b, CAST(count(*) AS BIGINT) AS n, sum(v) AS sum_v
        FROM df GROUP BY CUBE(a, b)""").df()
    key = lambda d: d.fillna("<N>").sort_values(["a", "b"]) \
        .reset_index(drop=True)
    g, w = key(got), key(want)
    assert g.shape == w.shape
    assert (g["n"].to_numpy() == w["n"].to_numpy()).all()
    assert np.allclose(g["sum_v"], w["sum_v"])


@pytest.mark.parametrize("seed", [0, 1])
def test_percentile_cont_fuzz_vs_duckdb(ray_session, seed):
    import duckdb
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 200))
    df = pd.DataFrame({
        "g": rng.choice(["a", "b"], n),
        "v": rng.integers(-30, 30, n).astype("int64")})
    from jschon_ray.functions.relational import (
        grouped_percentile_cont_lowcard)
    got = grouped_percentile_cont_lowcard(
        ray.data.from_pandas(df), key="g", value_col="v") \
        .to_pandas().sort_values("g").reset_index(drop=True)
    want = duckdb.sql("""
        SELECT g, quantile_cont(v, 0.25) AS p25,
               quantile_cont(v, 0.5) AS p50,
               quantile_cont(v, 0.75) AS p75
        FROM df GROUP BY 1 ORDER BY g""").df()
    for c in ("p25", "p50", "p75"):
        assert np.array_equal(got[c].to_numpy(), want[c].to_numpy())


@pytest.mark.parametrize("seed", [0, 1])
def test_weighted_median_fuzz_vs_duckdb(ray_session, seed):
    import duckdb
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 150))
    df = pd.DataFrame({
        "g": rng.choice(["a", "b"], n),
        "v": rng.integers(0, 10, n).astype("int64"),
        "w": rng.integers(1, 100, n).astype("int64")})
    from jschon_ray.functions.relational import (
        grouped_weighted_median_lowcard)
    got = grouped_weighted_median_lowcard(
        ray.data.from_pandas(df), key="g", value_col="v",
        weight_col="w") \
        .to_pandas().sort_values("g").reset_index(drop=True)
    want = duckdb.sql("""
        WITH c AS (SELECT g, v, CAST(sum(w) AS BIGINT) w
                   FROM df GROUP BY 1, 2),
        cw AS (SELECT g, v,
                      sum(w) OVER (PARTITION BY g ORDER BY v
                                   ROWS UNBOUNDED PRECEDING) cum,
                      sum(w) OVER (PARTITION BY g) total
               FROM c)
        SELECT g, CAST(min(v) AS BIGINT) AS wmedian,
               CAST(max(total) AS BIGINT) AS total_w
        FROM cw WHERE 2 * cum >= total GROUP BY 1 ORDER BY g""").df()
    assert got["wmedian"].astype("int64").equals(
        want["wmedian"].astype("int64"))
    assert got["total_w"].astype("int64").equals(
        want["total_w"].astype("int64"))


@pytest.mark.parametrize("seed", [0, 1])
def test_session_stats_fuzz_vs_duckdb(ray_session, seed):
    import duckdb
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200))
    df = pd.DataFrame({
        "user_id": rng.integers(0, 6, n).astype("int64"),
        "ts": pd.to_datetime(rng.integers(0, 3 * 3600 * 10**6, n),
                             unit="us"),
        "event_id": np.arange(n, dtype="int64")})
    from jschon_ray.functions.windows import session_stats
    got = session_stats(ray.data.from_arrow(
        pa.Table.from_pandas(df)), gap_minutes=30).to_pandas() \
        .sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    want = duckdb.sql("""
        WITH marked AS (
          SELECT user_id, ts, event_id,
                 CASE WHEN lag(ts) OVER w IS NULL
                           OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                      THEN 1 ELSE 0 END AS new_sess
          FROM df
          WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
        sess AS (
          SELECT user_id, ts,
                 sum(new_sess) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id
                                     ROWS UNBOUNDED PRECEDING)
                   AS session_idx
          FROM marked)
        SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
               CAST(count(*) AS BIGINT) AS n_events,
               date_diff('microsecond', min(ts), max(ts)) AS dur_us
        FROM sess GROUP BY 1, 2
        ORDER BY user_id, session_idx""").df()
    for c in ("user_id", "session_idx", "n_events", "dur_us"):
        assert got[c].astype("int64").equals(want[c].astype("int64")), c
