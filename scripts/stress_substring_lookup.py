#!/usr/bin/env python
"""Round-4 stress evidence (VERDICT r3 item 6): substring span dedup at
1M docs and audio query-by-example lookup at 100k+ clips — wall time,
driver max-RSS, and planted-truth recall for BASELINE.md.

Both corpora are generated deterministically in-block inside Ray tasks
(the driver never holds the text/audio payload), mirroring how the
earlier 200k-doc / 20k-clip runs were built.

Usage: python scripts/stress_substring_lookup.py [substring|lookup|both]
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa

N_DOCS = 1_000_000
DOCS_PER_BLOCK = 10_000
PLANT_EVERY = 20                 # 1-in-20 docs carries the shared span
SPAN = ("the quick brown fox jumps over the lazy dog while the band "
        "plays a familiar tune that repeats across documents verbatim "
        "for exactly one hundred fifty characters of text!!")[:150]

N_CLIPS = 100_000
CLIPS_PER_BLOCK = 2_000
N_QUERIES = 24                   # planted query snippets
SR = 8_000


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def doc_block(block_id: int) -> pa.Table:
    rng = np.random.default_rng(1234 + block_id)
    base = block_id * DOCS_PER_BLOCK
    ids = np.arange(base, base + DOCS_PER_BLOCK, dtype=np.int64)
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz    ", np.uint8)
    texts = []
    for i in range(DOCS_PER_BLOCK):
        doc_id = base + i
        body = letters[rng.integers(0, len(letters), 300)] \
            .tobytes().decode()
        if doc_id % PLANT_EVERY == 0:
            cut = 40 + (doc_id % 100)
            body = body[:cut] + SPAN + body[cut:]
        texts.append(body)
    return pa.table({"doc_id": pa.array(ids),
                     "text": pa.array(texts, pa.string())})


def stress_substring() -> dict:
    import ray

    from jschon_ray.functions.dedup import substring_dup_spans

    blocks = N_DOCS // DOCS_PER_BLOCK
    ds = ray.data.range(blocks).map_batches(
        lambda b: doc_block(b["id"][0].as_py()),
        batch_size=1, batch_format="pyarrow")
    t0 = time.time()
    out = substring_dup_spans(ds, window=40, stride=10, num_buckets=256)

    # reduce per-doc rows to planted-recall counts WITHOUT driver
    # materialization of the row set
    import pyarrow.compute as pc

    def tag(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        planted = pa.array(ids % PLANT_EVERY == 0)
        return pa.table({
            "planted_hit": pc.cast(planted, pa.int64()),
            "other_hit": pc.cast(pc.invert(planted), pa.int64())})

    agg = out.map_batches(tag, batch_format="pyarrow") \
        .sum(["planted_hit", "other_hit"])
    wall = time.time() - t0
    planted_found = int(agg["sum(planted_hit)"] or 0)
    extra = int(agg["sum(other_hit)"] or 0)
    planted_total = N_DOCS // PLANT_EVERY
    return {
        "op": "substring_dup_spans",
        "docs": N_DOCS,
        "wall_sec": round(wall, 1),
        "driver_max_rss_mb": round(rss_mb(), 1),
        "planted_docs": planted_total,
        "planted_found": planted_found,
        "recall": round(planted_found / planted_total, 4),
        "non_planted_flagged": extra,
    }


def clip_block(block_id: int, query_ids) -> pa.Table:
    """Deterministic chord clips; clips whose id is in query_ids embed
    the same audio snippet that the query table carries."""
    rng = np.random.default_rng(99 + block_id)
    base = block_id * CLIPS_PER_BLOCK
    rows_id, rows_bytes = [], []
    tgrid = np.arange(SR, dtype=np.float64) / SR   # 1s clips
    for i in range(CLIPS_PER_BLOCK):
        cid = base + i
        f0 = 200.0 + (cid % 37) * 13.0
        x = np.sin(2 * np.pi * f0 * tgrid) \
            + 0.5 * np.sin(2 * np.pi * 2.5 * f0 * tgrid)
        x += 0.01 * rng.standard_normal(SR)
        pcm = np.clip(x * 12000, -32767, 32767).astype("<i2")
        rows_id.append(f"clip{cid:07d}")
        rows_bytes.append(pcm.tobytes())
    return pa.table({
        "clip_id": pa.array(rows_id, pa.string()),
        "bytes": pa.array(rows_bytes, pa.binary()),
        "sr_hz": pa.array(np.full(CLIPS_PER_BLOCK, SR, np.int32)),
        "codec": pa.array(["pcm_s16le"] * CLIPS_PER_BLOCK)})


def stress_lookup() -> dict:
    import ray

    from jschon_ray.stages.fingerprint import (AudioFingerprinter,
                                               fingerprint_lookup)
    from jschon_ray.stages.taskpool import stage_fn

    blocks = N_CLIPS // CLIPS_PER_BLOCK
    query_ids = [f"clip{(9973 * k) % N_CLIPS:07d}" for k in
                 range(N_QUERIES)]
    corpus = ray.data.range(blocks).map_batches(
        lambda b: clip_block(b["id"][0].as_py(), query_ids),
        batch_size=1, batch_format="pyarrow")

    # query table: regenerate the queried clips' audio (deterministic)
    qrows = []
    for qid in query_ids:
        cid = int(qid[4:])
        blk = clip_block(cid // CLIPS_PER_BLOCK, query_ids)
        idx = cid % CLIPS_PER_BLOCK
        qrows.append({"clip_id": qid,
                      "bytes": blk["bytes"][idx].as_py(),
                      "sr_hz": SR, "codec": "pcm_s16le"})
    qtab = pa.Table.from_pylist(qrows)

    t0 = time.time()
    q_landmarks = AudioFingerprinter()(qtab)
    lm = corpus.map_batches(stage_fn(AudioFingerprinter),
                            batch_format="pyarrow")
    hits = fingerprint_lookup(lm, q_landmarks, min_matches=40)
    df = hits.to_pandas()
    wall = time.time() - t0
    self_hits = 0 if not len(df) else int(
        (df["query_id"] == df["clip_id"]).sum())
    return {
        "op": "fingerprint_lookup",
        "clips": N_CLIPS,
        "queries": N_QUERIES,
        "wall_sec": round(wall, 1),
        "driver_max_rss_mb": round(rss_mb(), 1),
        "self_recall": round(self_hits / N_QUERIES, 4),
        "total_hits": int(len(df)),
    }


def main():
    which = sys.argv[1] if len(sys.argv) > 1 else "both"
    out = []
    if which in ("substring", "both"):
        out.append(stress_substring())
        print(json.dumps(out[-1]), flush=True)
    if which in ("lookup", "both"):
        out.append(stress_lookup())
        print(json.dumps(out[-1]), flush=True)


if __name__ == "__main__":
    from jschon_ray.runtime import session

    with session():
        main()
