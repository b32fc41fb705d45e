"""Seeded clip-table generator for the benchmark.

Self-contained on purpose: it does not import ``jschon_ray``, so a change
to the program cannot change the benchmark's inputs. The same
``(kind, seed)`` always gives byte-identical parquet files.

The table has the clips schema the flagship pipeline validates:
``clip_id, bytes, sr_hz, dur_ms, codec, transcript``. Dirty rows cover
every check family of the clip spec (pattern, bounds, multipleOf, enum,
string lengths), the uniqueness check (repeated ``clip_id``) and the
referential check (codec ``amr`` is not in the codec dimension).
Payloads are canonical for their codec: raw s16le, a RIFF/WAVE
container, or the ``FAKE<codec>`` container the decoder reads for
flac/opus/mp3. ``truncate`` cuts that share of payloads to a third.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

CODECS = ["pcm_s16le", "wav", "flac", "opus", "mp3"]
FAKE_CODECS = ("flac", "opus", "mp3")
VALID_SR = [8000, 16000, 22050, 44100, 48000]
WORDS = ("the quick brown fox jumps over lazy dog speech audio clip sample "
         "hello world test data sound wave noise signal voice").split()

# kind -> (clips, files, duration range in ms, truncated share).
# verdicts: payloads are present but short and never null, so the
#   verdict-only path can prune them at the read.
# decode: longer payloads of every codec; the decoder does real work.
# resume: one file per shard; the shard is the unit of resume.
KINDS = {
    "verdicts": dict(n=60_000, files=8, dur=(5, 30), truncate=0.0),
    "decode": dict(n=10_000, files=8, dur=(20, 400), truncate=0.02),
    "resume": dict(n=12_000, files=4, dur=(20, 60), truncate=0.0),
}


def _wav(pcm: bytes, sr: int) -> bytes:
    hdr = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVEfmt "
    hdr += struct.pack("<IHHIIHH", 16, 1, 1, sr, sr * 2, 2, 16)
    return hdr + b"data" + struct.pack("<I", len(pcm)) + pcm


def _payload(codec: str, pcm: bytes, sr: int) -> bytes:
    if codec == "wav":
        return _wav(pcm, sr)
    if codec in FAKE_CODECS:
        return b"FAKE" + codec.encode().ljust(8, b"\0") + pcm
    return pcm  # pcm_s16le, and the unknown codec 'amr'


def clips_table(n: int, seed: int, *, dur=(20, 400),
                truncate: float = 0.0) -> pa.Table:
    """One dirty n-row clips table, fully determined by its arguments."""
    rng = np.random.default_rng(seed)
    ids = np.array([f"clip-{x:012x}" for x in
                    rng.integers(0, 2**48, n, dtype=np.int64)], dtype=object)
    # ~1% repeated keys (uniqueness), ~0.5% ids failing the pattern
    for i in rng.choice(n, max(1, n // 100), replace=False):
        ids[i] = ids[rng.integers(0, n)]
    bad_id = rng.random(n) < 0.005
    ids[bad_id] = [s.upper() for s in ids[bad_id]]

    sr = rng.choice(VALID_SR, n)
    r = rng.random(n)
    sr[r < 0.10] = rng.choice([96000, 4000], int((r < 0.10).sum()))
    sr[(r >= 0.10) & (r < 0.11)] = 16010          # fails multipleOf 25
    d = rng.integers(dur[0], dur[1], n)
    r = rng.random(n)
    d[r < 0.05] = rng.choice([0, -100, 900000], int((r < 0.05).sum()))
    codec = rng.choice(CODECS, n, p=[0.55, 0.15, 0.1, 0.1, 0.1]) \
        .astype(object)
    codec[rng.random(n) < 0.05] = "amr"            # enum + referential

    r = rng.random(n)
    k = rng.integers(2, 12, n)
    words = rng.integers(0, len(WORDS), (n, 12))
    transcript = [None if r[i] < 0.02 else "" if r[i] < 0.04
                  else "x" * 1200 if r[i] < 0.05
                  else " ".join(WORDS[w] for w in words[i, :k[i]])
                  for i in range(n)]

    # payload: the declared duration's worth of s16le frames (200 ms for
    # out-of-range durations, none for non-positive ones)
    eff = np.where(d <= 0, 0, np.where(d > 600_000, 200, d))
    nbytes = (sr * eff // 1000) * 2
    pool = rng.integers(0, 256, 2 * int(nbytes.max()) + 2, dtype=np.uint8) \
        .tobytes()
    offs = rng.integers(0, len(pool) // 2, n)
    cut = rng.random(n) < truncate
    payloads = []
    for i in range(n):
        b = _payload(codec[i], pool[offs[i]:offs[i] + nbytes[i]], int(sr[i]))
        payloads.append(b[:max(1, len(b) // 3)] if cut[i] else b)

    return pa.table({
        "clip_id": pa.array(list(ids), pa.string()),
        "bytes": pa.array(payloads, pa.binary()),
        "sr_hz": pa.array(sr, pa.int32()),
        "dur_ms": pa.array(d, pa.int32()),
        "codec": pa.array(list(codec), pa.string()),
        "transcript": pa.array(transcript, pa.string()),
    })


def write_clips(out_dir: str, kind: str, seed: int) -> list[str]:
    """Write the ``kind`` table for ``seed`` as parquet parts under out_dir.

    Uncompressed, one row group per file, no timestamps in the footer, so
    the bytes depend only on ``(kind, seed)``."""
    spec = KINDS[kind]
    os.makedirs(out_dir, exist_ok=True)
    files, per = [], spec["n"] // spec["files"]
    for s in range(spec["files"]):
        t = clips_table(per, seed * 1000 + s, dur=spec["dur"],
                        truncate=spec["truncate"])
        path = os.path.join(out_dir, f"part-{s:04d}.parquet")
        pq.write_table(t, path, compression="NONE",
                       row_group_size=per)
        # flush now, so writeback does not compete with the timed sessions
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        files.append(path)
    return files
