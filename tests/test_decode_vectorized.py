"""The vectorized ClipDecoder must be cell-identical to the per-row
decode semantics (stages/decode.py::ClipDecoder._slow_row) on every
payload shape: canonical/odd/truncated/bad-magic/unknown/null, plus the
generator's dirty table."""

import numpy as np
import pyarrow as pa
import pytest

from jschon_ray.sources.clips import encode_clip, generate_clips
from jschon_ray.stages.decode import ClipDecoder


def per_row_expected(batch, tol_ms=1.5):
    dec = ClipDecoder(tol_ms=tol_ms)
    n = batch.num_rows
    ok = np.zeros(n, bool)
    err = [None] * n
    frames = np.zeros(n, np.int64)
    mdur = np.full(n, np.nan)
    rms = np.full(n, np.nan)
    clip_ratio = np.full(n, np.nan)
    payloads = batch["bytes"].to_pylist()
    codecs = batch["codec"].to_pylist()
    srs = batch["sr_hz"].to_pylist()
    durs = batch["dur_ms"].to_pylist()
    for i in range(n):
        if payloads[i] is None or codecs[i] is None:
            err[i] = "missing payload or codec"
            continue
        dec._slow_row(payloads[i], codecs[i], srs[i], durs[i], i, ok, err,
                      frames, mdur, rms, clip_ratio)
    return ok, err, frames, mdur, rms, clip_ratio


def compare(batch):
    out = ClipDecoder()(batch)
    ok, err, frames, mdur, rms, clip_ratio = per_row_expected(batch)
    got = {c: out[c].to_pylist() for c in
           ("decode_ok", "decode_error", "n_frames", "measured_dur_ms",
            "rms", "clipping_ratio")}
    assert got["decode_ok"] == list(map(bool, ok))
    assert got["decode_error"] == err
    assert got["n_frames"] == [int(x) for x in frames]
    for name, exp in (("measured_dur_ms", mdur), ("rms", rms),
                      ("clipping_ratio", clip_ratio)):
        for i, (g, e) in enumerate(zip(got[name], exp)):
            if np.isnan(e):
                assert g is None or np.isnan(g), (name, i, g, e)
            else:
                assert g == pytest.approx(e, rel=1e-12), (name, i)


def test_adversarial_payloads():
    wav_ok = encode_clip("c1", 16000, 50, "wav")
    rows = {
        "clip_id": [], "bytes": [], "sr_hz": [], "dur_ms": [],
        "codec": [], "transcript": [],
    }

    def add(payload, sr, dur, codec):
        rows["clip_id"].append(f"clip-{len(rows['bytes']):012d}")
        rows["bytes"].append(payload)
        rows["sr_hz"].append(sr)
        rows["dur_ms"].append(dur)
        rows["codec"].append(codec)
        rows["transcript"].append("t")

    add(encode_clip("a", 16000, 50, "pcm_s16le"), 16000, 50, "pcm_s16le")
    add(b"\x00\x01\x02", 16000, 50, "pcm_s16le")            # odd length
    add(b"", 16000, 50, "pcm_s16le")                        # empty
    add(wav_ok, 16000, 50, "wav")
    add(wav_ok, 22050, 50, "wav")                           # sr mismatch
    add(wav_ok[:30], 16000, 50, "wav")                      # short header
    add(wav_ok[:60], 16000, 50, "wav")                      # truncated data
    add(b"JUNK" + wav_ok[4:], 16000, 50, "wav")             # bad magic
    add(encode_clip("b", 16000, 50, "flac"), 16000, 50, "flac")
    add(b"NOTFAKE-DATA-HERE", 16000, 50, "flac")            # bad fake magic
    add(encode_clip("c", 16000, 50, "opus")[:17], 16000, 50, "opus")  # odd
    add(encode_clip("d", 16000, 400, "pcm_s16le"), 16000, 50,
        "pcm_s16le")                                        # dur mismatch
    add(encode_clip("e", 8000, 50, "mp3"), None, None, "mp3")  # null sr/dur
    add(None, 16000, 50, "wav")                             # null payload
    add(encode_clip("f", 16000, 50, "wav"), 16000, 50, None)  # null codec
    add(encode_clip("g", 16000, 50, "wav"), 16000, 50, "amr")  # unknown

    batch = pa.table({
        "clip_id": pa.array(rows["clip_id"], pa.string()),
        "bytes": pa.array(rows["bytes"], pa.binary()),
        "sr_hz": pa.array(rows["sr_hz"], pa.int32()),
        "dur_ms": pa.array(rows["dur_ms"], pa.int32()),
        "codec": pa.array(rows["codec"], pa.string()),
        "transcript": pa.array(rows["transcript"], pa.string()),
    })
    compare(batch)


def test_dirty_generated_table():
    compare(generate_clips(3000, seed=17))


def test_large_binary_and_sliced_batches():
    t = generate_clips(500, seed=3)
    lb = t.set_column(t.schema.get_field_index("bytes"), "bytes",
                      t["bytes"].cast(pa.large_binary()))
    compare(lb)
    compare(t.slice(100, 250))  # non-zero array offsets


def test_two_chunk_payload_with_extreme_samples():
    """A `bytes` column of two chunks (the decoder addresses each chunk's
    buffer in place) whose samples hit +-32767 and -32768: the int32
    squares and the clip test on them match the per-row decode."""
    samples = [
        np.array([0, 32767, -32767, -32768, 5], "<i2"),
        np.full(7, -32768, "<i2"),
        np.array([32767] * 3 + [1, -1], "<i2"),
        np.array([100, -100, 32766, -32766], "<i2"),
        np.zeros(0, "<i2"),
        np.array([-32768, 32767], "<i2"),
    ]
    payloads = [s.tobytes() for s in samples]
    payloads[2] = b"FAKE" + b"flac".ljust(8, b"\0") + payloads[2]
    codecs = ["pcm_s16le", "pcm_s16le", "flac", "pcm_s16le", "pcm_s16le",
              "pcm_s16le"]
    sr = 1000  # 1 ms per frame, so every duration is declared exactly
    durs = [len(s) for s in samples]
    chunks = [pa.array(payloads[:3], pa.binary()),
              pa.array(payloads[3:], pa.binary())]
    batch = pa.table({
        "clip_id": [f"clip-{i}" for i in range(len(samples))],
        "bytes": pa.chunked_array(chunks),
        "sr_hz": pa.array([sr] * len(samples), pa.int32()),
        "dur_ms": pa.array(durs, pa.int32()),
        "codec": codecs,
    })
    assert batch["bytes"].num_chunks == 2
    compare(batch)
    out = ClipDecoder()(batch)
    assert out["clipping_ratio"].to_pylist()[:4] == [0.6, 1.0, 0.6, 0.0]
    assert out["rms"].to_pylist()[1] == 32768.0
