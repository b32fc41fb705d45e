"""Distributed k-means over an embedding column (list<float>).

Embedding-space clustering is a core curation primitive at training-data
scale (cluster-balanced sampling, semantic dedup, domain discovery); the
same structure backs the IVF index in `functions/similarity.py` (which
trains driver-side on a sample — this module is the full-data path).

Shape (SURVEY §4 "broadcast small sides / pre-aggregate partials"):

  init      deterministic k-means++ on a driver-side seeded sample
  iterate   broadcast the (k x d) centroid matrix via `ray.put` (read by
            every task, shipped once); ONE map_batches computes per-block
            partial (per-cluster vector sums, counts, inertia) — a
            (k x d + k + 1)-number blob per block, two-level reduced
            (repartition -> per-partition sum) so the driver never sees
            O(num_blocks) rows; driver updates centroids
  assign    one final broadcast pass emits (id, cluster, dist)

The input is never shuffled — every exchange is O(k x d) per block.
Empty clusters keep their previous centroid (documented; at corpus scale
k-means++ over a large sample makes them rare). No jschon analogue
(SURVEY §2.9 new-design operator).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .similarity import _embedding_matrix, seeded_sample


def _assign(x: np.ndarray, cents: np.ndarray):
    """Nearest centroid per row: vectorized ||x-c||^2 via one matmul."""
    d2 = (x * x).sum(axis=1, keepdims=True) - 2.0 * (x @ cents.T) \
        + (cents * cents).sum(axis=1)
    lab = np.argmin(d2, axis=1)
    return lab, np.maximum(d2[np.arange(len(x)), lab], 0.0)


def _kmeanspp(sample: np.ndarray, k: int, rng) -> np.ndarray:
    cents = [sample[rng.integers(len(sample))]]
    for _ in range(1, k):
        d2 = np.min(
            ((sample[:, None, :] - np.asarray(cents)[None, :, :]) ** 2)
            .sum(axis=2), axis=1)
        p = d2 / d2.sum() if d2.sum() > 0 else None
        cents.append(sample[rng.choice(len(sample), p=p)])
    return np.asarray(cents, dtype=np.float64)


def kmeans_fit(ds, *, vec_col: str = "embedding", k: int = 8,
               max_iters: int = 20, tol: float = 1e-6, seed: int = 42,
               sample_size: int = 4096, reduce_parallelism: int = 16):
    """Lloyd's k-means; returns (centroids (k,d) float64, info dict with
    per-iteration inertia). The embedding column is materialized once so
    iterations re-read object-store blocks, not the upstream pipeline."""
    import ray

    narrow = ds.select_columns([vec_col]).materialize()
    # row order fixed before the seeded k-means++ init (an unstable order
    # drifted centroids by 0.11 between runs at sf0.001)
    sample = seeded_sample(narrow, vec_col, sample_size)
    rng = np.random.default_rng(seed)
    cents = _kmeanspp(sample, k, rng)
    d = cents.shape[1]
    inertia_log = []

    for _it in range(max_iters):
        ref = ray.put(cents)

        def partial(t: pa.Table, ref=ref) -> pa.Table:
            import ray as _ray

            c = _ray.get(ref) if isinstance(ref, _ray.ObjectRef) else ref
            x = _embedding_matrix(t, vec_col)
            if x.shape[0] == 0:
                z = np.zeros(k * d + k + 1)
                return pa.table({"blob": pa.array([z.tolist()],
                                                  pa.list_(pa.float64()))})
            lab, d2 = _assign(x, c)
            sums = np.zeros((k, d))
            np.add.at(sums, lab, x)
            counts = np.bincount(lab, minlength=k).astype(np.float64)
            blob = np.concatenate([sums.ravel(), counts, [d2.sum()]])
            return pa.table({"blob": pa.array([blob.tolist()],
                                              pa.list_(pa.float64()))})

        def combine(t: pa.Table) -> pa.Table:
            m = np.vstack([np.asarray(r) for r in
                           t["blob"].to_pylist()]).sum(axis=0)
            return pa.table({"blob": pa.array([m.tolist()],
                                              pa.list_(pa.float64()))})

        parts = narrow.map_batches(partial, batch_format="pyarrow") \
            .repartition(reduce_parallelism) \
            .map_batches(combine, batch_format="pyarrow").to_pandas()
        total = np.vstack([np.asarray(r) for r in parts["blob"]]) \
            .sum(axis=0)
        sums = total[:k * d].reshape(k, d)
        counts = total[k * d:k * d + k]
        inertia_log.append(float(total[-1]))
        new = np.where(counts[:, None] > 0,
                       sums / np.maximum(counts[:, None], 1.0), cents)
        shift = float(np.sqrt(((new - cents) ** 2).sum(axis=1)).max())
        cents = new
        if shift < tol:
            break

    return cents, {"iters": len(inertia_log), "inertia": inertia_log,
                   "counts": counts.astype(np.int64)}


def kmeans_assign(ds, centroids: np.ndarray, *, id_col: str,
                  vec_col: str = "embedding", out: str = "cluster"):
    """Broadcast assignment pass: (id, cluster, dist) per row."""
    import ray

    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        x = _embedding_matrix(t, vec_col)
        lab, d2 = _assign(x, c)
        return pa.table({id_col: t[id_col],
                         out: pa.array(lab.astype(np.int64)),
                         "dist": pa.array(np.sqrt(d2))})

    return ds.map_batches(assign, batch_format="pyarrow")


def pca_fit(ds, *, vec_col: str = "embedding", n_components: int = 8):
    """Distributed PCA in ONE streaming pass: every block contributes
    (n, sum(x), X^T X) partials — a (dim+1)^2-sized message regardless
    of block row count — merged on the driver into the covariance
    matrix, then a local eigendecomposition. No shuffle, no second
    data pass; the only driver-side object is dim x dim.

    Returns dict with 'mean' (dim,), 'components' (n_components, dim;
    rows are unit eigenvectors, sign-normalized so the largest-|coord|
    entry is positive), 'explained_variance' and
    'explained_variance_ratio' (descending). Population covariance
    (ddof=0) so tiny groups stay defined."""
    def partials(t: pa.Table) -> pa.Table:
        x = _embedding_matrix(t, vec_col)
        n, d = x.shape
        s = x.sum(axis=0)
        g = x.T @ x
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "d": pa.array([d], pa.int64()),
            "sum": pa.array([s.tobytes()], pa.binary()),
            "gram": pa.array([g.tobytes()], pa.binary())})

    rows = ds.map_batches(partials, batch_format="pyarrow") \
             .take_all()  # one tiny row per block
    # 0-row blocks (post-filter/repartition) emit degenerate d=0
    # partials; they carry no mass, so drop them before merging.
    rows = [r for r in rows if r["n"] > 0]
    if not rows:
        raise ValueError("pca_fit: dataset is empty")
    n_tot = sum(r["n"] for r in rows)
    d = int(rows[0]["d"])
    s = np.zeros(d)
    g = np.zeros((d, d))
    for r in rows:
        s += np.frombuffer(r["sum"], np.float64)
        g += np.frombuffer(r["gram"], np.float64).reshape(d, d)
    mean = s / n_tot
    cov = g / n_tot - np.outer(mean, mean)
    evals, evecs = np.linalg.eigh(cov)      # ascending
    order = np.argsort(evals)[::-1][:n_components]
    ev = np.clip(evals[order], 0.0, None)
    comps = evecs[:, order].T
    # deterministic sign: largest-|coord| entry positive per component
    for i in range(comps.shape[0]):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    total = float(np.clip(evals, 0.0, None).sum()) or 1.0
    return {"mean": mean, "components": comps,
            "explained_variance": ev,
            "explained_variance_ratio": ev / total,
            "n": int(n_tot)}


def pca_transform(ds, model, *, id_col: str, vec_col: str = "embedding",
                  out: str = "pc"):
    """Project vectors onto fitted components: stateless per-batch
    matmul against the broadcast (n_components, dim) matrix."""
    mean = np.asarray(model["mean"], np.float64)
    comps = np.asarray(model["components"], np.float64)

    def project(t: pa.Table) -> pa.Table:
        x = _embedding_matrix(t, vec_col)
        z = (x - mean) @ comps.T
        return pa.table({id_col: t[id_col],
                         out: pa.array(list(z.astype(np.float32)))})

    return ds.map_batches(project, batch_format="pyarrow")


def linear_probe_fit(ds, *, vec_col: str = "embedding",
                     label_col: str = "label", ridge: float = 1e-3):
    """Closed-form one-vs-rest ridge probe — the standard 'how good are
    these embeddings' measurement — in ONE streaming pass: blocks
    contribute (n, X^T X, X^T Y, per-class counts); the driver solves
    (X^T X + ridge*n*I) W = X^T Y. Message size is dim^2 + dim*k per
    block, independent of rows; no shuffle.

    Returns {'classes', 'W' (dim+1, k; last row is the bias via an
    appended ones-feature), 'n'}."""
    def partials(t: pa.Table) -> pa.Table:
        x = _embedding_matrix(t, vec_col)
        n = x.shape[0]
        x1 = np.concatenate([x, np.ones((n, 1))], axis=1)
        y = np.asarray(t[label_col].to_pylist())
        classes, inv = np.unique(y, return_inverse=True)
        yh = np.zeros((n, len(classes)))
        yh[np.arange(n), inv] = 1.0
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "d1": pa.array([x1.shape[1]], pa.int64()),
            "classes": pa.array([classes.astype(np.int64).tobytes()],
                                pa.binary()),
            "gram": pa.array([(x1.T @ x1).tobytes()], pa.binary()),
            "xty": pa.array([(x1.T @ yh).tobytes()], pa.binary())})

    rows = ds.map_batches(partials, batch_format="pyarrow").take_all()
    rows = [r for r in rows if r["n"] > 0]  # drop 0-row-block partials
    if not rows:
        raise ValueError("linear_probe_fit: dataset is empty")
    d1 = int(rows[0]["d1"])
    all_classes = sorted({c for r in rows
                          for c in np.frombuffer(r["classes"],
                                                 np.int64)})
    cindex = {c: i for i, c in enumerate(all_classes)}
    k = len(all_classes)
    gram = np.zeros((d1, d1))
    xty = np.zeros((d1, k))
    n_tot = 0
    for r in rows:
        n_tot += int(r["n"])
        gram += np.frombuffer(r["gram"], np.float64).reshape(d1, d1)
        local = np.frombuffer(r["classes"], np.int64)
        part = np.frombuffer(r["xty"], np.float64) \
            .reshape(d1, len(local))
        for j, c in enumerate(local):
            xty[:, cindex[int(c)]] += part[:, j]
    reg = ridge * n_tot * np.eye(d1)
    reg[-1, -1] = 0.0  # don't penalize the bias
    w = np.linalg.solve(gram + reg, xty)
    return {"classes": np.asarray(all_classes, np.int64), "W": w,
            "n": int(n_tot)}


def linear_probe_score(ds, model, *, vec_col: str = "embedding",
                       label_col: str = "label"):
    """Training accuracy of the fitted probe: stateless per-batch
    argmax scoring against the broadcast weight matrix; per-block
    (correct, total) partials merge to one exact fraction."""
    w = np.asarray(model["W"], np.float64)
    classes = np.asarray(model["classes"], np.int64)

    def score(t: pa.Table) -> pa.Table:
        x = _embedding_matrix(t, vec_col)
        x1 = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
        pred = classes[np.argmax(x1 @ w, axis=1)]
        y = np.asarray(t[label_col].to_pylist(), np.int64)
        return pa.table({
            "correct": pa.array([int((pred == y).sum())], pa.int64()),
            "total": pa.array([len(y)], pa.int64())})

    rows = ds.map_batches(score, batch_format="pyarrow").take_all()
    c = sum(r["correct"] for r in rows)
    t = sum(r["total"] for r in rows)
    return {"correct": int(c), "total": int(t),
            "accuracy": c / t if t else float("nan")}
