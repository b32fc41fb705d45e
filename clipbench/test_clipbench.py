"""The benchmark's own tests: python3 -m pytest clipbench -q"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import gen
import metrics
import oracle
import procs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_names_are_well_formed(spec):
    names = [w["name"] for w in spec["workloads"]] + \
        [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_every_layer_metric_moves_an_end_to_end_metric(spec):
    names = metrics.load()
    assert set(metrics.MOVES) == set(names["per_layer"])
    for name, (target, workloads) in metrics.MOVES.items():
        assert target in names["end_to_end"], name
        assert workloads and set(workloads) <= set(names["workloads"]), name
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def _digests(d):
    return {f: hashlib.sha256(open(os.path.join(d, f), "rb").read())
            .hexdigest() for f in sorted(os.listdir(d))}


def test_same_seed_gives_identical_inputs(tmp_path):
    a = gen.write_clips(str(tmp_path / "a"), "resume", 7)
    b = gen.write_clips(str(tmp_path / "b"), "resume", 7)
    c = gen.write_clips(str(tmp_path / "c"), "resume", 8)
    assert len(a) == len(b) == gen.KINDS["resume"]["files"]
    assert _digests(tmp_path / "a") == _digests(tmp_path / "b")
    assert _digests(tmp_path / "a") != _digests(tmp_path / "c")


def test_oracle_matches_hand_count(tmp_path):
    pcm = bytes(320)  # 160 frames: 10 ms at 16 kHz
    rows = [
        # id, payload, sr, dur, codec, transcript
        ("clip-000000000001", pcm, 16000, 10, "pcm_s16le", "hi"),
        # repeated key; a canonical wav; valid and decodes
        ("clip-000000000001", gen._wav(pcm, 16000), 16000, 10, "wav", "hi"),
        # sr below minimum + unknown codec: 2 failures -> 3 violations,
        # referential, does not decode
        ("clip-000000000003", pcm, 4000, 40, "amr", "hi"),
        # empty transcript + non-positive duration: 3 violations; an empty
        # pcm payload decodes (no duration to compare)
        ("clip-000000000004", b"", 16000, 0, "pcm_s16le", ""),
        # valid, null transcript; odd fake-flac payload does not decode
        ("clip-000000000005", b"FAKEflac\0\0\0\0" + pcm[:-1], 16000, 10,
         "flac", None),
        # pattern + multipleOf + maxLength: 3 failures -> 4 violations;
        # decodes (160 frames at 16010 Hz is within 1.5 ms + 1 frame)
        ("CLIP-000000000006", b"FAKEopus\0\0\0\0" + pcm, 16010, 10, "opus",
         "x" * 1100),
    ]
    cols = list(zip(*rows))
    t = pa.table({
        "clip_id": pa.array(cols[0], pa.string()),
        "bytes": pa.array(cols[1], pa.binary()),
        "sr_hz": pa.array(cols[2], pa.int32()),
        "dur_ms": pa.array(cols[3], pa.int32()),
        "codec": pa.array(cols[4], pa.string()),
        "transcript": pa.array(cols[5], pa.string()),
    })
    path = str(tmp_path / "tiny.parquet")
    pq.write_table(t, path)
    got = oracle.expected([path])
    assert got == {"n": 6, "n_valid": 3, "n_violations": 10,
                   "n_dupe_keys": 1, "n_referential": 1, "n_decode_ok": 4,
                   "rows_per_file": {path: 6}}


def _leftovers():
    """Processes carrying any clipbench session mark."""
    return procs.marked(None)


@pytest.mark.parametrize("workload,trace", [
    ("verdicts", 0), ("decode", 0), ("resume", 0), ("verdicts", 1)])
def test_short_run_exits_clean(workload, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert p.returncode == 0, p.stderr[-4000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = metrics.load()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == set(names)
    assert _leftovers() == {}


def test_tree_without_program_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "clipbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "clipbench/run.py", "--workload", "verdicts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
