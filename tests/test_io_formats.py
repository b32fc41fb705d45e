"""TableIO format dispatch: jsonl/csv round-trips feed the same pipelines.

The reference reads documents from files/URLs/strings
(/root/reference/jschon/json.py:37-62); our table seam generalizes that to
parquet | newline-JSON | CSV sources behind one `read_table` call, so every
pipeline is source-format-agnostic.
"""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from jschon_ray.sources.io import read_table, write_table


@pytest.fixture(scope="module")
def orders_small(ray_session, tmp_path_factory):
    base = str(tmp_path_factory.mktemp("iofmt"))
    ds = read_table("/root/testdata/sf0.001/orders.parquet",
                    columns=["o_orderkey", "o_orderstatus", "o_totalprice"])
    return ds, base


def _sorted_records(ds):
    df = ds.to_pandas().sort_values("o_orderkey").reset_index(drop=True)
    df["o_totalprice"] = df["o_totalprice"].round(2)
    return df


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_roundtrip_matches_parquet(orders_small, fmt):
    ds, base = orders_small
    out = os.path.join(base, fmt)
    write_table(ds, out, format=fmt)
    back = read_table(out, format=fmt)
    exp = _sorted_records(ds)
    got = _sorted_records(back)
    assert list(got.columns) == list(exp.columns) or \
        sorted(got.columns) == sorted(exp.columns)
    got = got[list(exp.columns)]
    assert got.equals(exp)


def test_autodetect_and_pruning(orders_small):
    ds, base = orders_small
    out = os.path.join(base, "auto")
    write_table(ds, out, format="json")
    # dir of .json parts -> detected as json without format=
    back = read_table(out, columns=["o_orderkey"])
    assert back.schema().names == ["o_orderkey"]
    assert back.count() == ds.count()


def test_parquet_filter_on_unprojected_column(ray_session):
    """A filter referencing a column OUTSIDE the projection must still
    apply (pyarrow filters before projecting). The metadata-free
    schema= read path cannot express this (the derived schema is pruned
    to the projection), so read_parquet_clean must take its strip-stage
    fallback for the filter+columns combination — regression for the
    round-5 review finding."""
    import duckdb
    import pyarrow.dataset as pads

    path = "/root/testdata/sf0.001/orders.parquet"
    ds = read_table(path, columns=["o_orderkey"],
                    filter=pads.field("o_totalprice") > 100000.0)
    df = ds.to_pandas()
    assert list(df.columns) == ["o_orderkey"]
    want = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{path}') "
        "WHERE o_totalprice > 100000.0").fetchone()[0]
    assert len(df) == want
    # blocks still arrive metadata-free through the fallback
    batch = ds.take_batch(1, batch_format="pyarrow")
    assert batch.schema.metadata is None


def test_filter_on_nonparquet(orders_small):
    ds, base = orders_small
    out = os.path.join(base, "filt")
    write_table(ds, out, format="csv")
    flt = pc.field("o_orderstatus") == "F"
    got = read_table(out, format="csv", filter=flt).count()
    exp = ds.map_batches(lambda t: t.filter(pc.equal(t["o_orderstatus"],
                                                     "F")),
                         batch_format="pyarrow").count()
    assert got == exp > 0


def test_validation_pipeline_over_jsonl(orders_small):
    """The per-row validation engine runs unchanged over a jsonl source."""
    from jschon_ray.pipelines.queries import ORDERS_SPEC
    from jschon_ray.pipelines.validate import validate_dataset

    ds, base = orders_small
    out = os.path.join(base, "vjson")
    write_table(ds, out, format="json")
    src = read_table(out, format="json")
    verdicts = validate_dataset(src, ORDERS_SPEC)
    df = verdicts.to_pandas()
    assert len(df) == ds.count()
    assert {"valid"} <= set(df.columns)

    ref = validate_dataset(
        read_table("/root/testdata/sf0.001/orders.parquet",
                   columns=["o_orderkey", "o_orderstatus", "o_totalprice"]),
        ORDERS_SPEC).to_pandas()
    got = df.sort_values("o_orderkey")["valid"].tolist()
    exp = ref.sort_values("o_orderkey")["valid"].tolist()
    assert got == exp


def test_partitioned_parquet_write(orders_small, tmp_path):
    """partition_cols gives a hive layout readers can prune by listing."""
    ds, _ = orders_small
    out = str(tmp_path / "by_status")
    write_table(ds, out, partition_cols=["o_orderstatus"])
    import glob
    import os as _os

    parts = sorted(p.split("=")[-1] for p in
                   glob.glob(_os.path.join(out, "o_orderstatus=*")))
    assert parts == ["F", "O", "P"]
    back = read_table(out)
    assert back.count() == ds.count()


def test_lance_detection_and_gating(tmp_path):
    """A `*.lance` directory routes to the Lance branch; without the lance
    package installed the seam raises a clear ImportError instead of
    misreading fragments as parquet parts."""
    import pytest

    from jschon_ray.sources.io import HAVE_LANCE, _detect_format, read_table

    d = tmp_path / "clips.lance"
    d.mkdir()
    assert _detect_format(str(d)) == "lance"
    if not HAVE_LANCE:
        with pytest.raises(ImportError, match="lance"):
            read_table(str(d))


def test_orc_roundtrip(ray_session, tmp_path):
    import ray.data

    from jschon_ray.sources.io import read_table, write_table

    df = pd.DataFrame({"k": np.arange(100, dtype=np.int64),
                       "s": [f"v{i}" for i in range(100)]})
    ds = ray.data.from_pandas(df).repartition(4)
    out = str(tmp_path / "orc_out")
    write_table(ds, out, format="orc")
    files = sorted(os.listdir(out))
    assert len(files) >= 2 and all(f.endswith(".orc") for f in files)

    back = read_table(out).to_pandas().sort_values("k") \
        .reset_index(drop=True)
    assert (back["k"] == df["k"]).all() and (back["s"] == df["s"]).all()
    # column pruning
    only_k = read_table(out, columns=["k"]).to_pandas()
    assert list(only_k.columns) == ["k"]


def test_feather_roundtrip_and_detect(ray_session, tmp_path):
    import ray.data

    from jschon_ray.sources.io import read_table, write_table

    df = pd.DataFrame({"a": np.arange(37), "b": np.arange(37) * 0.5})
    ds = ray.data.from_pandas(df)
    out = str(tmp_path / "fth")
    write_table(ds, out, format="feather")
    assert any(f.endswith(".feather") for f in os.listdir(out))
    back = read_table(out).to_pandas().sort_values("a") \
        .reset_index(drop=True)
    assert np.allclose(back["b"], df["b"])


def test_single_orc_file_read(ray_session, tmp_path):
    import pyarrow.orc as orc

    from jschon_ray.sources.io import read_table

    t = pa.table({"x": [1, 2, 3]})
    f = str(tmp_path / "one.orc")
    orc.write_table(t, f)
    assert read_table(f).to_pandas()["x"].tolist() == [1, 2, 3]


def test_parquet_schema_fast_path_needs_agreeing_footers(ray_session,
                                                         tmp_path):
    """The metadata-free ``schema=`` read is taken only when every
    footer agrees on the projected schema. A two-file list whose `k`
    columns are int32 and int64 takes the strip-stage fallback, so
    neither file is read through the other's schema."""
    import pyarrow.parquet as pq

    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(pa.table({"k": pa.array([1, 2], pa.int32()),
                             "s": ["a", "b"]}), a)
    pq.write_table(pa.table({"k": pa.array([3, 2**40], pa.int64()),
                             "s": ["c", "d"]}), b)
    for files in ([a, b], [b, a]):
        for columns in (None, ["k"]):
            ds = read_table(files, columns=columns)
            assert "_strip_block_meta" in str(ds._plan._logical_plan.dag)
            assert sorted(ds.to_pandas()["k"]) == [1, 2, 3, 2**40]
    # agreeing footers keep the fast path: no strip stage in the plan
    ds = read_table([a, a], columns=["s"])
    assert "_strip_block_meta" not in str(ds._plan._logical_plan.dag)
    assert sorted(ds.to_pandas()["s"]) == ["a", "a", "b", "b"]


@pytest.fixture
def planned_blocks(monkeypatch):
    """The `override_num_blocks` each ray.data.read_parquet call gets
    (None when the call leaves it to Ray)."""
    import ray.data

    seen = []
    orig = ray.data.read_parquet

    def spy(*args, **kwargs):
        seen.append(kwargs.get("override_num_blocks"))
        return orig(*args, **kwargs)

    monkeypatch.setattr(ray.data, "read_parquet", spy)
    return seen


def _small_parts(d):
    """Three 500-row part files: an int key and a string pad column."""
    import pyarrow.parquet as pq

    os.makedirs(d, exist_ok=True)
    for i in range(3):
        k = np.arange(i * 500, (i + 1) * 500)
        pq.write_table(pa.table({"k": k,
                                 "pad": [f"row-{x:08d}" for x in k]}),
                       os.path.join(d, f"part-{i}.parquet"))
    return d


def test_narrow_read_plans_one_block_per_cpu(ray_session, tmp_path,
                                             planned_blocks):
    from jschon_ray.sources.io import cluster_cpus

    d = _small_parts(str(tmp_path / "t"))
    ds = read_table(d, columns=["k"])
    assert planned_blocks == [cluster_cpus()]
    assert ds.count() == 1500


def test_wide_read_plans_blocks_by_projected_bytes(ray_session, tmp_path,
                                                   planned_blocks):
    import glob
    import math

    import pyarrow.parquet as pq
    import ray.data

    from jschon_ray.sources.io import cluster_cpus

    d = _small_parts(str(tmp_path / "t"))
    nbytes = 0
    for f in glob.glob(os.path.join(d, "*.parquet")):
        md = pq.read_metadata(f)
        for g in range(md.num_row_groups):
            col = md.row_group(g).column(md.schema.names.index("pad"))
            nbytes += col.total_uncompressed_size
    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = nbytes // (3 * cluster_cpus())
    try:
        read_table(d, columns=["pad"])
        want = math.ceil(nbytes / ctx.target_max_block_size)
    finally:
        ctx.target_max_block_size = saved
    assert want > cluster_cpus()
    assert planned_blocks == [want]


def test_explicit_num_blocks_wins(ray_session, tmp_path, planned_blocks):
    d = _small_parts(str(tmp_path / "t"))
    ds = read_table(d, columns=["k"], override_num_blocks=7)
    assert planned_blocks == [7]
    assert ds.count() == 1500


def test_hive_directory_keeps_ray_default(ray_session, tmp_path,
                                          planned_blocks):
    import pyarrow.parquet as pq

    out = str(tmp_path / "hive")
    k = np.arange(300)
    pq.write_to_dataset(pa.table({"k": k, "p": k % 3}), out,
                        partition_cols=["p"])
    ds = read_table(out)
    assert planned_blocks == [None]
    assert ds.count() == 300
