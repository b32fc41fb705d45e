"""FIXTURES.md F6: resumed run == from-scratch run, pending shards only."""

import os
import shutil

import pytest

from jschon_ray.pipelines.resumable import run_resumable_validation
from jschon_ray.sources.clips import write_clips_dataset
from jschon_ray.state.manifest import Manifest


@pytest.fixture(scope="module")
def clips8(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("clips8")
    write_clips_dataset(str(d), 1600, seed=4, num_shards=8)
    return str(d)


def strip_profile(s):
    return {k: v for k, v in s.items() if k != "profile"}


def test_fresh_run_processes_all(clips8, tmp_path, ray_session):
    out = str(tmp_path / "o1")
    s = run_resumable_validation(clips8, out)
    assert s["shards_processed"] == 8 and s["shards_skipped"] == 0
    assert s["n"] == 1600
    assert 0 < s["n_valid"] < 1600


def test_resume_skips_complete_and_matches(clips8, tmp_path, ray_session):
    out_full = str(tmp_path / "full")
    full = run_resumable_validation(clips8, out_full)

    # simulate a killed run: only 3 shards completed
    out_part = str(tmp_path / "part")
    partial = run_resumable_validation(clips8, out_part)
    man = Manifest(out_part)
    done = sorted(man.complete_shards())
    for sid in done[3:]:
        os.remove(os.path.join(man.dir, f"{sid}.json"))
        shutil.rmtree(os.path.join(out_part, "violations", f"shard={sid}"))
        if sid != done[3]:
            shutil.rmtree(os.path.join(out_part, "verdicts", f"shard={sid}"))
    # one pending shard keeps a stale, corrupt partial output: the redo
    # must clear it, not append to it
    with open(os.path.join(out_part, "verdicts", f"shard={done[3]}",
                           "junk.parquet"), "w") as f:
        f.write("not parquet")

    resumed = run_resumable_validation(clips8, out_part)
    assert resumed["shards_processed"] == 5
    assert resumed["shards_skipped"] == 3
    assert strip_profile(resumed) == {**strip_profile(full),
                                      "shards_processed": 5,
                                      "shards_skipped": 3}
    # merged sketches identical too (mergeable state, any partition order)
    for col in ("sr_hz", "dur_ms"):
        a = resumed["profile"].columns[col]
        b = full["profile"].columns[col]
        assert a.count == b.count and a.nulls == b.nulls
        assert a.hll.estimate() == b.hll.estimate()
        assert abs(a.tdigest.quantile(0.5) - b.tdigest.quantile(0.5)) < 1e-9


def test_rerun_everything_skipped(clips8, tmp_path, ray_session):
    out = str(tmp_path / "o3")
    run_resumable_validation(clips8, out)
    again = run_resumable_validation(clips8, out)
    assert again["shards_processed"] == 0
    assert again["shards_skipped"] == 8
