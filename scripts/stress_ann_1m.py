"""1M-vector ANN stress: IVF build + probe at 20x the bench scale.

Evidence produced (one JSON line):
  - IVF index build wall over 1,000,000 x 64-d synthetic vectors
    (one streaming assignment pass, hive-partitioned cells on disk);
  - query wall for 32 queries at nprobe=8 of 64 cells (pruned probe:
    only nprobe/64 of the corpus leaves storage);
  - RECALL@10 vs the exact brute-force scan for every query (the exact
    pass runs over the same Dataset — this is the oracle, not a
    sample);
  - driver max-RSS bound.

Vectors are clustered Gaussians (128 true clusters, seeded), generated
inside map_batches over a range Dataset — adversarial enough that a
broken cell assignment would crater recall, and nothing O(rows)
touches the driver.

Run: python scripts/stress_ann_1m.py [n_vectors]
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa

DIM = 64
N_TRUE_CLUSTERS = 128


def gen_batch(batch: pa.Table) -> pa.Table:
    ids = batch["id"].to_numpy(zero_copy_only=False)
    rng = np.random.default_rng(int(ids[0]) * 1099511628211 % (2**63))
    # true cluster per row (deterministic by id), Gaussian around a
    # seeded center
    cl = ids % N_TRUE_CLUSTERS
    centers = np.random.default_rng(7).standard_normal(
        (N_TRUE_CLUSTERS, DIM))
    x = centers[cl] + 0.15 * rng.standard_normal((len(ids), DIM))
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    return pa.table({
        "vec_id": pa.array(ids.astype(np.int64)),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(x.astype(np.float32).ravel()), DIM).cast(
                pa.list_(pa.float32())),
    })


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    import ray.data as rd

    from jschon_ray.functions.similarity import (ann_topk,
                                                 ann_topk_ivf_from_index,
                                                 build_ivf_index)
    from jschon_ray.sources.io import cluster_cpus

    idx_dir = "/tmp/ann_stress_idx"
    shutil.rmtree(idx_dir, ignore_errors=True)

    def corpus():
        return rd.range(n, override_num_blocks=128) \
            .map_batches(gen_batch, batch_format="pyarrow")

    t0 = time.perf_counter()
    manifest = build_ivf_index(corpus(), idx_dir, n_centroids=64)
    build_s = time.perf_counter() - t0

    # queries: perturbed members of known clusters
    qrng = np.random.default_rng(99)
    centers = np.random.default_rng(7).standard_normal(
        (N_TRUE_CLUSTERS, DIM))
    qids = qrng.choice(N_TRUE_CLUSTERS, 32, replace=False)
    qmat = centers[qids] + 0.1 * qrng.standard_normal((len(qids), DIM))
    qmat = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    qs = {"ids": np.array([f"q{int(qi)}" for qi in qids]),
          "matrix": qmat}

    t0 = time.perf_counter()
    approx = ann_topk_ivf_from_index(idx_dir, qs, k=10, nprobe=8)
    if hasattr(approx, "to_pandas"):
        approx = approx.to_pandas()
    query_s = time.perf_counter() - t0

    # exact baseline over the SAME persisted parquet (identical IO
    # substrate — regenerating the corpus in memory would flatter the
    # exact side)
    import ray.data as _rd
    t0 = time.perf_counter()
    exact = ann_topk(_rd.read_parquet(os.path.join(idx_dir, "cells")),
                     qs, k=10)
    if hasattr(exact, "to_pandas"):
        exact = exact.to_pandas()
    exact_s = time.perf_counter() - t0

    # pruned-probe scenario: 2 queries x nprobe=4 touch <= 8/64 cells —
    # the single-lookup latency path the hive layout exists for
    qs2 = {"ids": qs["ids"][:2], "matrix": qs["matrix"][:2]}
    t0 = time.perf_counter()
    pruned = ann_topk_ivf_from_index(idx_dir, qs2, k=10, nprobe=4)
    if hasattr(pruned, "to_pandas"):
        pruned = pruned.to_pandas()
    pruned_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ex2 = ann_topk(_rd.read_parquet(os.path.join(idx_dir, "cells")),
                   qs2, k=10)
    if hasattr(ex2, "to_pandas"):
        ex2 = ex2.to_pandas()
    exact2_s = time.perf_counter() - t0
    pruned_recall = []
    for qname in qs2["ids"]:
        a = set(pruned[pruned["query_id"] == qname]["neighbor_id"])
        e = set(ex2[ex2["query_id"] == qname]["neighbor_id"])
        pruned_recall.append(len(a & e) / max(len(e), 1))

    recalls = []
    for qname in qs["ids"]:
        a = set(approx[approx["query_id"] == qname]["neighbor_id"])
        e = set(exact[exact["query_id"] == qname]["neighbor_id"])
        recalls.append(len(a & e) / max(len(e), 1))
    rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    print(json.dumps({
        "metric": "ann_ivf_stress", "n_vectors": n, "dim": DIM,
        "n_cells": 64, "nprobe": 8, "k": 10, "n_queries": len(qs["ids"]),
        "build_sec": round(build_s, 2),
        "build_vecs_per_sec": round(n / build_s, 1),
        "ivf_query_sec": round(query_s, 2),
        "exact_query_sec": round(exact_s, 2),
        "pruned_2q_nprobe4_sec": round(pruned_s, 2),
        "exact_2q_sec": round(exact2_s, 2),
        "pruned_recall_at_10": round(float(np.mean(pruned_recall)), 4),
        "recall_at_10_mean": round(float(np.mean(recalls)), 4),
        "recall_at_10_min": round(float(np.min(recalls)), 4),
        "driver_max_rss_gb": round(rss_gb, 2),
        "num_cpus": cluster_cpus(),
    }))


if __name__ == "__main__":
    from jschon_ray.runtime import session

    with session():
        main()
