"""End-to-end flagship pipeline over Ray Data (local session)."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from jschon_ray.pipelines.specs import CLIP_SPEC
from jschon_ray.pipelines.validate import (
    clip_validation_pipeline,
    referential_violations,
    summarize_verdicts,
    uniqueness_violations,
    validate_dataset,
)
from jschon_ray.sources.clips import generate_clips, write_clips_dataset
from jschon_ray.vspec.evaluator import compile_spec


@pytest.fixture(scope="module")
def clips_dir(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("clips")
    write_clips_dataset(str(d), 2000, seed=42, num_shards=4)
    return str(d)


def oracle_counts(clips_dir):
    import glob
    import pyarrow as pa
    t = pa.concat_tables(pq.read_table(p) for p in
                         sorted(glob.glob(clips_dir + "/*.parquet")))
    cs = compile_spec(CLIP_SPEC, t.schema)
    valid, viols = cs.evaluate_table(t)
    return t, valid, viols


def test_flagship_matches_local_compile(clips_dir, ray_session):
    out = clip_validation_pipeline(clips_dir)
    t, valid, viols = oracle_counts(clips_dir)

    summary = summarize_verdicts(out["verdicts"])
    assert summary["n"] == t.num_rows
    assert summary["n_valid"] == int(valid.sum())
    assert summary["n_violations"] == sum(len(v) for v in viols)

    # exploded violations match the per-row lists
    vdf = out["violations"].to_pandas()
    assert len(vdf) == sum(len(v) for v in viols)
    assert set(vdf.columns) == {"clip_id", "instanceLocation",
                                "keywordLocation",
                                "absoluteKeywordLocation", "error"}

    # duplicate clip_ids from the generator are caught by the shuffle
    dupes = out["dupes"].to_pandas()
    ids = t["clip_id"].to_pylist()
    import collections
    cnt = collections.Counter(ids)
    expected_dupes = {k: c for k, c in cnt.items() if c > 1}
    got = dict(zip(dupes["clip_id"], dupes["n_rows"]))
    assert got == expected_dupes

    # referential: exactly the amr rows
    refv = out["referential"].to_pandas()
    n_amr = sum(1 for c in t["codec"].to_pylist() if c == "amr")
    assert len(refv) == n_amr


def test_verdicts_drop_bytes(clips_dir, ray_session):
    out = clip_validation_pipeline(clips_dir)
    cols = out["verdicts"].schema().names
    assert "bytes" not in cols
    assert "valid" in cols and "violations" in cols


def test_decode_stage_in_pipeline(clips_dir, ray_session):
    out = clip_validation_pipeline(clips_dir, decode=True)
    df = out["verdicts"].to_pandas()
    assert "decode_ok" in df.columns
    assert df["decode_ok"].sum() > 0.6 * len(df)


def test_verdict_pass_is_one_fused_read_task(clips_dir, ray_session):
    """The verdict pass runs as ONE operator chain starting at the read:
    validate (and decode) set no batch_size, so Ray fuses them with
    ReadParquet and the payload is decoded and dropped inside the read
    task instead of crossing the object store."""
    import re

    want = {False: "ReadParquet->MapBatches(validate_batch_fn)",
            True: "ReadParquet->MapBatches(validate_batch_fn)"
                  "->MapBatches(_apply_stage)"}
    for decode, chain in want.items():
        ds = clip_validation_pipeline(clips_dir, decode=decode)["verdicts"]
        names = re.findall(r"^Operator \d+ (\S+): ", ds.materialize().stats(),
                           re.M)
        assert names == [chain], (decode, names)


@pytest.mark.parametrize("query", ["q_audio_resample_vad_clips",
                                   "q_audio_prep_segments",
                                   "q_audio_mfcc_clips"])
def test_audio_stage_chain_fuses_with_its_read(query, ray_session):
    """The audio stages set no batch_size, so a query's whole stage chain
    runs inside the read task: no operator is a ReadParquet of its own."""
    import re

    from jschon_ray.pipelines import queries

    # the clips table is synthesized from the scale's name alone
    ds = getattr(queries, query)("sf0.001")
    names = re.findall(r"^Operator \d+ (\S+): ", ds.materialize().stats(),
                       re.M)
    assert names[0].startswith("ReadParquet->MapBatches(_apply_stage)"), \
        names
    assert "ReadParquet" not in names, names


def test_uniqueness_on_unique_keys(ray_session, tmp_path):
    t = generate_clips(100, seed=9, dirty=False)
    import ray.data as rd
    ds = rd.from_arrow(t)
    # dirty=False still injects no dupes? generator only dupes when dirty
    d = uniqueness_violations(ds).to_pandas()
    ids = t["clip_id"].to_pylist()
    assert (len(d) == 0) == (len(set(ids)) == len(ids))


def test_referential_broadcast(ray_session):
    import ray.data as rd
    t = generate_clips(500, seed=42)
    ds = rd.from_arrow(t)
    v = referential_violations(ds.select_columns(["clip_id", "codec"]),
                               "codec", ["pcm_s16le", "wav", "flac",
                                         "opus", "mp3"]).to_pandas()
    n_amr = sum(1 for c in t["codec"].to_pylist() if c == "amr")
    assert len(v) == n_amr
    assert set(v["codec"]) <= {"amr"}


def test_dupes_and_referential_agree_across_block_counts(ray_session,
                                                         tmp_path):
    """The uniqueness shuffle and the semi-join answer the same at 1, 4
    and 32 read blocks (and at the default block count) over a table
    whose duplicate clip_ids span files."""
    import collections

    import pyarrow as pa

    from jschon_ray.sources.io import read_table

    t = generate_clips(2000, seed=5)
    parts = [t.slice(i * 500, 500) for i in range(4)]
    parts.append(t.slice(0, 40))          # re-sends rows of the first file
    files = []
    for i, p in enumerate(parts):
        files.append(str(tmp_path / f"part-{i}.parquet"))
        pq.write_table(p, files[-1])
    whole = pa.concat_tables(parts)
    cnt = collections.Counter(whole["clip_id"].to_pylist())
    want_dupes = {k: c for k, c in cnt.items() if c > 1}
    first_ids = set(parts[0]["clip_id"].to_pylist())
    assert set(want_dupes) & first_ids & \
        set(parts[-1]["clip_id"].to_pylist())
    codecs = ["pcm_s16le", "wav", "flac", "opus", "mp3"]
    want_ref = sorted(
        (c, k) for c, k in zip(whole["clip_id"].to_pylist(),
                               whole["codec"].to_pylist())
        if k is not None and k not in codecs)
    assert want_ref

    for nb in (1, 4, 32, None):
        keys = read_table(files, columns=["clip_id"],
                          override_num_blocks=nb)
        d = uniqueness_violations(keys).to_pandas()
        assert dict(zip(d["clip_id"], d["n_rows"])) == want_dupes, nb
        ref = read_table(files, columns=["clip_id", "codec"],
                         override_num_blocks=nb)
        r = referential_violations(ref, "codec", codecs).to_pandas()
        assert sorted(zip(r["clip_id"], r["codec"])) == want_ref, nb


def _count_footer_reads(monkeypatch):
    """Count driver-side parquet footer reads per file path."""
    import collections
    import os

    counts = collections.Counter()
    for name in ("read_metadata", "read_schema", "ParquetFile"):
        def counted(where, *args, _orig=getattr(pq, name), **kwargs):
            if isinstance(where, (str, os.PathLike)):
                counts[os.path.realpath(where)] += 1
            return _orig(where, *args, **kwargs)
        monkeypatch.setattr(pq, name, counted)
    return counts


def test_each_op_reads_each_footer_once(clips_dir, ray_session, tmp_path,
                                        monkeypatch):
    """One flagship op (either mode) reads each clips footer once on the
    driver; a fresh resume run reads each input footer once and each
    verdict footer at most twice (its shard's read-back, the merge)."""
    import glob
    import os

    from jschon_ray.pipelines.resumable import run_resumable_validation

    files = sorted(os.path.realpath(f)
                   for f in glob.glob(clips_dir + "/*.parquet"))
    assert len(files) == 4
    for decode in (False, True):
        counts = _count_footer_reads(monkeypatch)
        clip_validation_pipeline(clips_dir, decode=decode)
        assert dict(counts) == {f: 1 for f in files}, decode
        monkeypatch.undo()

    counts = _count_footer_reads(monkeypatch)
    run = str(tmp_path / "run")
    summary = run_resumable_validation(clips_dir, run)
    monkeypatch.undo()
    assert summary["shards_processed"] == 4
    verdicts = {os.path.realpath(f) for f in
                glob.glob(run + "/verdicts/shard=*/*.parquet")}
    assert verdicts
    assert {f: counts[f] for f in files} == {f: 1 for f in files}
    assert set(counts) <= set(files) | verdicts
    assert max(counts[f] for f in verdicts) <= 2


def test_no_part_file_vetoes_the_discharge(tmp_path):
    """A hive-partitioned directory has no direct part file whose footer
    could prove `bytes` non-null, and neither has an empty file list: the
    payload checks stay."""
    from jschon_ray.pipelines.validate import discharge_payload_checks
    from jschon_ray.sources.io import footer_plan

    hive = str(tmp_path / "hive")
    pq.write_to_dataset(generate_clips(50, seed=1, dirty=False), hive,
                        partition_cols=["sr_hz"])
    plan = footer_plan(hive)
    assert plan.files == [] and plan.path == hive
    assert discharge_payload_checks(CLIP_SPEC, plan) == (CLIP_SPEC, False)
    assert discharge_payload_checks(CLIP_SPEC, []) == (CLIP_SPEC, False)


def test_verdicts_over_a_hive_partitioned_directory(ray_session, tmp_path):
    """A hive-partitioned clips directory has no direct part file, so no
    footer lists its columns: the verdict read's own schema does. One
    verdict row per clip; the partition column is kept, `bytes` is not
    (validity is not compared: the reader types `sr_hz` as a string)."""
    from jschon_ray.pipelines.validate import clip_verdicts

    hive = str(tmp_path / "hive")
    clips = generate_clips(50, seed=1, dirty=False)
    pq.write_to_dataset(clips, hive, partition_cols=["sr_hz"])
    df = clip_verdicts(hive, CLIP_SPEC).to_pandas()
    assert sorted(df["clip_id"]) == sorted(clips["clip_id"].to_pylist())
    assert "sr_hz" in df.columns and "bytes" not in df.columns


def test_flagship_and_resume_agree_with_a_null_payload(ray_session,
                                                       tmp_path):
    """One of four files has a null `bytes`, so the payload checks cannot
    be discharged: the flagship takes the unpruned read for the whole
    table, and the resumable loop for that one shard. Both pipelines give
    the local compile's counts, and neither's verdict rows carry `bytes`."""
    import collections
    import glob

    import pyarrow as pa

    from jschon_ray.pipelines.resumable import run_resumable_validation
    from jschon_ray.pipelines.validate import discharge_payload_checks

    clips = str(tmp_path / "clips")
    write_clips_dataset(clips, 800, seed=7, num_shards=4)
    files = sorted(glob.glob(clips + "/*.parquet"))
    assert len(files) == 4
    t = pq.read_table(files[1])
    payload = t["bytes"].to_pylist()
    payload[3] = None
    i = t.schema.get_field_index("bytes")
    pq.write_table(t.set_column(i, t.schema.field(i),
                                pa.array(payload, t.schema.field(i).type)),
                   files[1])
    assert not discharge_payload_checks(CLIP_SPEC, files)[1]
    assert [discharge_payload_checks(CLIP_SPEC, [f])[1] for f in files] \
        == [True, False, True, True]

    whole, valid, viols = oracle_counts(clips)
    ids = collections.Counter(whole["clip_id"].to_pylist())
    want = {"n": whole.num_rows, "n_valid": int(valid.sum()),
            "n_violations": sum(len(v) for v in viols),
            "n_dupe_keys": sum(1 for c in ids.values() if c > 1),
            "n_referential": whole["codec"].to_pylist().count("amr")}
    assert want["n_valid"] < want["n"] and want["n_dupe_keys"]

    out = clip_validation_pipeline(clips)
    flagship = summarize_verdicts(out["verdicts"])
    flagship["n_dupe_keys"] = out["dupes"].count()
    flagship["n_referential"] = out["referential"].count()
    assert flagship == want
    assert "bytes" not in out["verdicts"].schema().names

    run = str(tmp_path / "run")
    resumed = run_resumable_validation(clips, run)
    assert {k: resumed[k] for k in want} == want
    written = glob.glob(run + "/verdicts/shard=*/*.parquet")
    assert written
    assert all("bytes" not in pq.read_schema(f).names for f in written)


def test_plan_cache_keys_on_the_whole_spec():
    """Two specs whose sorted JSON shares its first 512 characters are
    still two plans in one worker process."""
    import pyarrow as pa

    from jschon_ray.stages.validate import validate_batch_fn

    def spec(maximum):
        return {"$id": "https://example.com/plan-cache",
                "description": "d" * 600,
                "properties": {"v": {"maximum": maximum}}}

    batch = pa.table({"v": [10]})
    assert validate_batch_fn(batch, spec=spec(5))["valid"].to_pylist() \
        == [False]
    assert validate_batch_fn(batch, spec=spec(50))["valid"].to_pylist() \
        == [True]
