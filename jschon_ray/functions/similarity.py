"""Similarity search over embedding columns (list<float>).

* ANN top-k. Every entry point -- the exact scan (``ann_topk``),
  in-memory IVF (``ann_topk_ivf``), a persisted IVF index
  (``ann_topk_ivf_from_index``), flat PQ (``pq_ann_topk``) and IVF-PQ
  (``ann_topk_ivfpq``) -- runs ONE top-k core: the ``_TopK`` per-block
  scorer as a task-pool stage fused with the read, the one
  ``groupby(query_id)`` reduce of ``_topk`` and, for the two-stage PQ
  paths, the one ``_exact_rerank``. Every path ranks by the DuckDB
  oracle's ``(round(sim, 6) DESC, id)``. A path differs in only two
  ways:

  - how a row is scored: a float row by ``m @ qmat.T``, a PQ row by the
    ADC lookup-table sum over its ``pq_code``;
  - which queries a row may score against: all of them (exact scan,
    flat PQ), those probing the centroid cell the row is nearest to
    (in-memory IVF), or those probing the row's stored ``cell_id``
    (persisted IVF and IVF-PQ). A row in an unprobed cell is never
    scored against that query.
* All-pairs near-dup: exact broadcast, or signature-bucketed candidate
  generation + exact cosine verify (embedding analogue of MinHash-LSH).
* Semantic dedup (SemDeDup): cluster, then prune near-dups per cluster.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pqt
import ray

from ..sources.io import read_parquet_clean


def _embedding_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = pc.list_flatten(arr).to_numpy(zero_copy_only=False) \
        .astype(np.float64)
    n = len(arr)
    if n == 0:      # reshape(0, -1) raises; empty blocks score nothing
        return np.zeros((0, 0), dtype=np.float64)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def seeded_sample(ds, col: str, n: int, *, frac: float | None = None,
                  seed: int | None = None,
                  normalize: bool = False) -> np.ndarray:
    """Up to `n` rows of the vector column `col` as a float64 matrix in a
    reproducible row order (after a seeded ``random_sample(frac)`` when
    `frac` is given, and row normalization when `normalize`).

    Blocks arrive in completion order, which is not stable across
    executions, and callers' seeded inits index this matrix by position,
    so the rows are sorted lexicographically by coordinates."""
    sample = ds.select_columns([col])
    if frac is not None:
        sample = sample.random_sample(frac, seed=seed)
    mats = [_embedding_matrix(b, col)
            for b in sample.limit(n).iter_batches(batch_format="pyarrow")
            if b.num_rows]
    if not mats:
        return np.zeros((0, 0))
    x = np.concatenate(mats)
    if normalize:
        x = _normalize(x)
    return x[np.lexsort(x.T[::-1])]


# ---------------------------------------------------------------------------
# The ANN top-k core: one scorer, one reduce, one rerank


def _query_matrix(queries: dict) -> tuple[np.ndarray, np.ndarray]:
    """(ids, unit-row matrix) of a ``{"ids", "matrix"}`` query set."""
    return (np.asarray(queries["ids"]),
            _normalize(np.asarray(queries["matrix"], np.float64)))


def _probe_cells(qmat: np.ndarray, centroids: np.ndarray,
                 nprobe: int) -> dict:
    """The one probe-to-cells map: cell -> indices of the queries whose
    ``nprobe`` nearest centroids include that cell."""
    nprobe = min(nprobe, len(centroids))
    probe = np.argsort(-(qmat @ centroids.T), axis=1)[:, :nprobe]
    cells: dict[int, list] = {}
    for qi, row in enumerate(probe):
        for cell in row:
            cells.setdefault(int(cell), []).append(qi)
    return {c: np.asarray(v) for c, v in cells.items()}


def _top_rows(sims: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best rows by (sim DESC, id ASC), the oracle's
    ORDER BY: of the rows tied at the k-th similarity, the smallest ids
    are kept. Only the rows at or above the k-th similarity are sorted."""
    n = len(sims)
    cand = np.arange(n)
    if n > k:
        cand = np.flatnonzero(sims >= np.partition(sims, n - k)[n - k])
    return cand[np.lexsort((ids[cand], -sims[cand]))[:k]]


def _adc_lut(qmat: np.ndarray, books: np.ndarray) -> np.ndarray:
    """ADC lookup tables lut[q, j, c] = q_j . codebook[j, c] (Q, m, K):
    scoring a PQ row is then m table lookups and a sum."""
    m, _, sub = books.shape
    return np.einsum("qms,mks->qmk", qmat.reshape(len(qmat), m, sub),
                     books)


def _pq_code_matrix(batch: pa.Table) -> np.ndarray:
    col = batch["pq_code"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.flatten().to_numpy(zero_copy_only=False) \
        .reshape(len(col), -1)


class _TopK:
    """The one per-block ANN scorer: each query's k best rows of a block
    as (query_id, neighbor_id, sim), sims rounded to ``round_decimals``
    BEFORE selection and ties broken by id (``_top_rows``).

    A plain callable, so ``map_batches`` runs it as a task-pool stage
    fused with the read; its state (queries, lookup tables, centroids)
    is a few KB shipped with the function.

    Kernel: given ``lut`` (``_adc_lut``) a row is its ``pq_code`` and
    scores by the ADC sum; otherwise it is the unit-normalized
    ``emb_col`` vector and scores by ``m @ qmat.T``. Gating: without
    ``cell_queries`` (``_probe_cells``) a row scores against every
    query; with it, only against the queries probing the row's cell --
    its nearest of ``centroids`` when those are given, else its stored
    ``cell_id``."""

    def __init__(self, qids, k, round_decimals, *, id_col, emb_col=None,
                 qmat=None, lut=None, cell_queries=None, centroids=None):
        self.qids = pa.array(qids)
        self.k = k
        self.round = round_decimals
        self.id_col = id_col
        self.emb_col = emb_col
        self.qmat = qmat
        self.lut = lut
        self.cell_queries = cell_queries
        self.centroids = centroids

    def _groups(self, batch: pa.Table, rows: np.ndarray):
        """(row positions, query indices) pairs: who scores against whom."""
        if self.cell_queries is None:
            return [(np.arange(len(rows)), np.arange(len(self.qids)))]
        if self.centroids is not None:
            cells = np.argmax(rows @ self.centroids.T, axis=1)
        else:
            cells = batch["cell_id"].to_numpy(zero_copy_only=False)
        return [(np.flatnonzero(cells == c), self.cell_queries[int(c)])
                for c in np.unique(cells) if int(c) in self.cell_queries]

    def _sims(self, rows: np.ndarray, qidx: np.ndarray) -> np.ndarray:
        """(rows, queries) similarity matrix."""
        if self.lut is None:
            return rows @ self.qmat[qidx].T
        j = np.arange(rows.shape[1])
        return np.stack([self.lut[qi][j, rows].sum(axis=1)
                         for qi in qidx], axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        q_pos, row_pos, top_sims = [np.zeros(0, np.int64)], \
            [np.zeros(0, np.int64)], [np.zeros(0, np.float64)]
        if batch.num_rows:
            ids = batch[self.id_col].to_numpy(zero_copy_only=False)
            rows = (_pq_code_matrix(batch) if self.lut is not None else
                    _normalize(_embedding_matrix(batch, self.emb_col)))
            for sel, qidx in self._groups(batch, rows):
                sims = self._sims(rows[sel], qidx)
                if self.round is not None:
                    sims = np.round(sims, self.round)
                for j, qi in enumerate(qidx):
                    top = _top_rows(sims[:, j], ids[sel], self.k)
                    q_pos.append(np.full(len(top), qi))
                    row_pos.append(sel[top])
                    top_sims.append(sims[top, j])
        # typed even when empty: the id column's own type, the queries'
        return pa.table({
            "query_id": self.qids.take(np.concatenate(q_pos)),
            "neighbor_id": batch[self.id_col].take(
                np.concatenate(row_pos)),
            "sim": pa.array(np.concatenate(top_sims), pa.float64())})


def _topk(ds, scorer: _TopK):
    """Scan ``ds`` with ``scorer`` and reduce the per-block partials to
    each query's ``scorer.k`` best rows by (sim DESC, neighbor_id): the
    one final reduce. Returns a lazy Dataset (query_id, neighbor_id,
    rank)."""
    k = scorer.k

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sim", "neighbor_id"],
                          ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "neighbor_id", "rank"]]

    return ds.map_batches(scorer, batch_format="pyarrow") \
        .groupby("query_id").map_groups(final_topk, batch_format="pandas")


def _exact_rerank(raw_ds, short: pd.DataFrame, qids: np.ndarray,
                  qmat: np.ndarray, *, id_col: str, emb_col: str, k: int,
                  round_decimals) -> pd.DataFrame:
    """The one exact rerank of a per-query shortlist (query_id,
    neighbor_id): read the raw vectors of the shortlisted ids only,
    score each query against its own shortlist and rank by
    (round(sim) DESC, id). The driver handles O(Q * shortlist) rows."""
    cands = pa.array(short["neighbor_id"].unique())

    def keep_cands(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[id_col], value_set=cands.cast(
            t.schema.field(id_col).type)))

    tbl = pa.concat_tables(list(
        raw_ds.select_columns([id_col, emb_col])
        .map_batches(keep_cands, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")))
    ids = tbl[id_col].to_numpy(zero_copy_only=False)
    sims = _normalize(_embedding_matrix(tbl, emb_col)) @ qmat.T
    if round_decimals is not None:
        sims = np.round(sims, round_decimals)
    out_q, out_n, out_r = [], [], []
    for qi, qid in enumerate(qids):
        mine = np.flatnonzero(np.isin(
            ids, short["neighbor_id"][short["query_id"] == qid]))
        top = mine[_top_rows(sims[mine, qi], ids[mine], k)]
        out_q.append(np.full(len(top), qid))
        out_n.append(ids[top])
        out_r.append(np.arange(1, len(top) + 1, dtype=np.int64))
    return pd.DataFrame({
        "query_id": np.concatenate(out_q),
        "neighbor_id": np.concatenate(out_n),
        "rank": np.concatenate(out_r)})


def ann_topk(ds, queries: dict, *, id_col="vec_id", emb_col="embedding",
             k=5, round_decimals=6):
    """Exact cosine top-k of each query over the dataset.

    `queries`: {"ids": array, "matrix": (nq, dim) array}. Per-batch partial
    top-k (k rows per query per block) -> groupby(query_id) final top-k.
    Deterministic tie-break: (-sim, neighbor_id), with sims rounded so
    ranking agrees with external engines (the DuckDB oracle) at 1e-6.
    Returns a lazy Dataset (query_id, neighbor_id, rank).
    """
    qids, qmat = _query_matrix(queries)
    return _topk(ds, _TopK(qids, k, round_decimals, id_col=id_col,
                           emb_col=emb_col, qmat=qmat))


def embedding_neardup_exact(ds, *, id_col="vec_id", emb_col="embedding",
                            threshold=0.5, round_decimals=6):
    """Exact all-pairs cosine near-duplicates (baseline path).

    The whole (small-side) matrix is broadcast once via ray.put; each batch
    computes its rows' sims against it — O(n·dim) per row, embarrassingly
    parallel, no shuffle. Use the LSH-banded variant below when n is too
    large to broadcast. Returns pandas (id_a, id_b, sim), id_a < id_b.
    """
    full = {"ids": [], "mat": []}
    for b in ds.select_columns([id_col, emb_col]) \
            .iter_batches(batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        full["ids"].append(b[id_col].to_numpy(zero_copy_only=False))
        full["mat"].append(_embedding_matrix(b, emb_col))
    all_ids = np.concatenate(full["ids"])
    all_mat = _normalize(np.concatenate(full["mat"]))
    ref = ray.put({"ids": all_ids, "mat": all_mat})

    def score(batch: pa.Table) -> pa.Table:
        idt0 = batch.schema.field(id_col).type
        if batch.num_rows == 0:
            return pa.table({"id_a": pa.array([], idt0),
                             "id_b": pa.array([], idt0),
                             "sim": pa.array([], pa.float64())})
        other = ray.get(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        m = _normalize(_embedding_matrix(batch, emb_col))
        sims = np.round(m @ other["mat"].T, round_decimals)
        rows_a, rows_b, rows_s = [], [], []
        for i in range(len(ids)):
            mask = (sims[i] >= threshold) & (other["ids"] > ids[i])
            rows_a.append(np.full(mask.sum(), ids[i]))
            rows_b.append(other["ids"][mask])
            rows_s.append(sims[i][mask])
        idt = batch.schema.field(id_col).type   # keep id dtype on empties
        if rows_a:
            a, b = np.concatenate(rows_a), np.concatenate(rows_b)
            return pa.table({"id_a": pa.array(a).cast(idt),
                             "id_b": pa.array(b).cast(idt),
                             "sim": pa.array(np.concatenate(rows_s),
                                             pa.float64())})
        return pa.table({"id_a": pa.array([], idt),
                         "id_b": pa.array([], idt),
                         "sim": pa.array([], pa.float64())})

    out = ds.map_batches(score, batch_format="pyarrow").to_pandas()
    if "id_a" not in out.columns:       # ray drops schema on all-empty
        out = pd.DataFrame({"id_a": [], "id_b": [],
                            "sim": pd.Series([], dtype="float64")})
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def embedding_neardup_pairs(ds, *, id_col="vec_id", emb_col="embedding",
                            threshold=0.95, bands=8, planes_per_band=6,
                            seed=5, max_bucket=200):
    """All-pairs cosine near-duplicates via banded random-hyperplane LSH.

    `bands` signatures of `planes_per_band` sign bits each (OR-amplified:
    a pair is a candidate if ANY band bucket matches); exact cosine
    verified within buckets. Approximate — recall depends on
    bands/planes_per_band vs threshold. Returns pandas (id_a, id_b, sim)
    with id_a < id_b.
    """
    def emit(batch: pa.Table, planes) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                id_col: batch[id_col],
                "band": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int64()),
                emb_col: batch[emb_col]})
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        m = _normalize(_embedding_matrix(batch, emb_col))
        tabs = []
        for band in range(bands):
            p = planes[band]
            bits = (m @ p.T) > 0
            bucket = np.zeros(len(ids), np.int64)
            for b in range(bits.shape[1]):
                bucket |= bits[:, b].astype(np.int64) << b
            tabs.append(pa.table({
                id_col: batch[id_col],
                "band": pa.array(np.full(len(ids), band, np.int64)),
                "bucket": pa.array(bucket),
                emb_col: batch[emb_col]}))
        return pa.concat_tables(tabs)

    first = ds.take_batch(1, batch_format="pyarrow")
    dim = len(first[emb_col][0])
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((bands, planes_per_band, dim))

    bucketed = ds.map_batches(functools.partial(emit, planes=planes),
                              batch_format="pyarrow")

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(id_col).head(max_bucket)
        if len(g) < 2:
            # typed empty: object-dtype size-0 frames trip Ray's block
            # size estimator (see dedup._empty_pair_table)
            ids0 = g[id_col].iloc[:0]
            return pd.DataFrame({"id_a": ids0, "id_b": ids0.copy(),
                                 "sim": pd.Series([], dtype="float64")})
        ids = g[id_col].to_numpy()
        m = _normalize(np.stack(g[emb_col].to_numpy()))
        sims = m @ m.T
        ia, ib = np.triu_indices(len(ids), k=1)
        s = sims[ia, ib]
        keep = s >= threshold
        return pd.DataFrame({"id_a": np.minimum(ids[ia][keep], ids[ib][keep]),
                             "id_b": np.maximum(ids[ia][keep], ids[ib][keep]),
                             "sim": s[keep]})

    pairs = bucketed.groupby(["band", "bucket"]).map_groups(
        verify, batch_format="pandas").to_pandas()
    if not len(pairs):
        return pd.DataFrame({"id_a": [], "id_b": [], "sim": []})
    return pairs.drop_duplicates(["id_a", "id_b"]) \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# IVF (inverted-file) top-k — the partition-pruning scale path


def train_centroids(ds, *, emb_col="embedding", n_centroids=16,
                    sample_frac=0.1, max_sample=20000, seed=17,
                    iters=10) -> np.ndarray:
    """Driver-side spherical k-means on a small random sample.

    Sampling + training touch O(max_sample) rows; the centroid matrix is
    tiny (n_centroids x dim) and is broadcast to every assignment task.
    At 10^12-row scale, replace sample_frac with a fixed-count
    reservoir — the interface stays the same.
    """
    x = seeded_sample(ds, emb_col, max_sample, frac=sample_frac,
                      seed=seed, normalize=True)
    rng = np.random.default_rng(seed)
    cent = x[rng.choice(len(x), min(n_centroids, len(x)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(x @ cent.T, axis=1)
        for c in range(len(cent)):
            rows = x[assign == c]
            if len(rows):
                cent[c] = rows.mean(axis=0)
        cent = _normalize(cent)
    return cent


def ann_topk_ivf(ds, queries: dict, *, id_col="vec_id",
                 emb_col="embedding", k=5, n_centroids=16, nprobe=4,
                 centroids=None, round_decimals=6, train_kwargs=None):
    """Approximate cosine top-k via IVF partition pruning.

    Train (or accept) `n_centroids` spherical-k-means centroids; each
    query probes its `nprobe` nearest cells and scores only rows
    assigned there. `nprobe == n_centroids` degenerates to the exact
    scan and reproduces `ann_topk` bit-for-bit (same rounding and
    (-sim, neighbor_id) tie-break). Returns (query_id, neighbor_id,
    rank) like `ann_topk`.

    Scale path: assignment is one (batch x C) matmul per batch against
    the centroid matrix shipped with the scorer — no shuffle; recall is
    tuned by nprobe/n_centroids, not by data size.
    """
    if centroids is None:
        centroids = train_centroids(ds, emb_col=emb_col,
                                    n_centroids=n_centroids,
                                    **(train_kwargs or {}))
    qids, qmat = _query_matrix(queries)
    return _topk(ds, _TopK(qids, k, round_decimals, id_col=id_col,
                           emb_col=emb_col, qmat=qmat,
                           cell_queries=_probe_cells(qmat, centroids,
                                                     nprobe),
                           centroids=centroids))


# ---------------------------------------------------------------------------
# persisted / partitioned IVF index — build once, probe with pruned reads


def _cell_assign_fn(centroids, id_col: str, emb_col: str):
    """The ONE cell-assignment closure shared by index build and append
    (they must stay identical: appended rows assigned differently from
    built rows would land where probes don't look first)."""
    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            cell = np.zeros(0, np.int32)
            batch = batch.select([id_col, emb_col])
            batch = batch.append_column("cell_id", pa.array(cell))
            return batch.append_column("cell", pa.array(cell))
        m = _normalize(_embedding_matrix(batch, emb_col))
        cell = np.argmax(m @ centroids.T, axis=1).astype(np.int32)
        batch = batch.select([id_col, emb_col])
        batch = batch.append_column("cell_id", pa.array(cell))
        return batch.append_column("cell", pa.array(cell))
    return assign


def _fresh_build_dir(index_dir: str, subdir: str) -> str:
    """Prepare index_dir/<subdir> for a (re)build. Invalidate the
    manifest FIRST — its presence certifies a complete index, so a
    crash at any later point must leave the directory visibly
    incomplete (readers open manifest.json and fail loudly). Then
    replace any parts left by a previous or crashed build: rerunning
    into a dirty dir would append duplicate part files and silently
    double rows. Same idempotent-rerun posture as functions/layout.py.
    """
    import shutil

    man = os.path.join(index_dir, "manifest.json")
    if os.path.exists(man):
        os.remove(man)
    d = os.path.join(index_dir, subdir)
    if os.path.isdir(d):
        shutil.rmtree(d)
    os.makedirs(d, exist_ok=True)
    return d


def _write_manifest(index_dir: str, manifest: dict) -> None:
    with open(os.path.join(index_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f)


def _read_manifest(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "manifest.json")) as f:
        return json.load(f)


def _read_index(index_dir: str):
    """The one index reader: (manifest, centroids, codebooks) of a
    persisted index, centroids (C, dim) in cell order and codebooks
    (m, K, sub); either is None when the layout has none. The manifest
    is read first, so an index whose build did not finish fails here."""
    manifest = _read_manifest(index_dir)
    centroids = books = None
    path = os.path.join(index_dir, "centroids.parquet")
    if os.path.exists(path):
        t = pqt.read_table(path)
        order = np.argsort(t["cell"].to_numpy(zero_copy_only=False))
        centroids = _embedding_matrix(t.take(order), "centroid")
    path = os.path.join(index_dir, "codebooks.parquet")
    if os.path.exists(path):
        t = pqt.read_table(path)
        sub_i = t["subspace"].to_numpy(zero_copy_only=False)
        code_i = t["code"].to_numpy(zero_copy_only=False)
        vecs = _embedding_matrix(t, "vec")
        books = np.empty((sub_i.max() + 1, code_i.max() + 1,
                          vecs.shape[1]))
        books[sub_i, code_i] = vecs
    return manifest, centroids, books


def _write_codebooks(index_dir: str, books: np.ndarray) -> dict:
    """Write codebooks.parquet (subspace, code, vec); returns the
    manifest's PQ fields."""
    mm, kk, sub = books.shape
    pqt.write_table(
        pa.table({
            "subspace": pa.array(np.repeat(np.arange(mm), kk), pa.int32()),
            "code": pa.array(np.tile(np.arange(kk), mm), pa.int32()),
            "vec": pa.array(list(books.reshape(mm * kk, sub)),
                            pa.list_(pa.float64())),
        }), os.path.join(index_dir, "codebooks.parquet"))
    return {"pq_m": int(mm), "pq_codes": int(kk), "pq_sub": int(sub)}


def _cell_files(index_dir: str, sub: str, cells) -> list:
    dirs = [os.path.join(index_dir, sub, f"cell={c}") for c in cells]
    return [os.path.join(d, f) for d in dirs if os.path.isdir(d)
            for f in sorted(os.listdir(d)) if f.endswith(".parquet")]


def build_ivf_index(ds, index_dir: str, *, id_col="vec_id",
                    emb_col="embedding", n_centroids=16, centroids=None,
                    train_kwargs=None) -> dict:
    """Build a persisted IVF index in ONE pass over ``ds``.

    Layout (the on-disk analogue of the reference's in-memory catalog
    state — index artifacts survive the run, so queries never retrain):

      index_dir/centroids.parquet          (cell, centroid: list<double>)
      index_dir/cells/cell=<c>/*.parquet   ((id_col, emb_col, cell_id))
      index_dir/manifest.json              (dims, counts, column names)

    100 TB posture: the build is a single streaming pass — assignment is
    one (batch x C) matmul against the centroid matrix, and
    ``write_parquet(partition_cols=["cell"])`` lays rows out hive-style
    by cell so probing reads ONLY nprobe/C of the data from storage.
    ``cell_id`` is duplicated inside the files so probing doesn't depend
    on hive-partition parsing. Returns the manifest dict.
    """
    if centroids is None:
        centroids = train_centroids(ds, emb_col=emb_col,
                                    n_centroids=n_centroids,
                                    **(train_kwargs or {}))
    centroids = _normalize(np.asarray(centroids, np.float64))

    cells_dir = _fresh_build_dir(index_dir, "cells")
    # sort by cell before the partitioned write: WITHOUT it every write
    # task splits its own rows across all C cell dirs, leaving
    # O(tasks x C) tiny part files (measured: 8,122 files for a 1M-row
    # 64-cell build, and probes paid ~8 s of footer/scheduling overhead
    # on what should be a pruned read). Sorted, each cell's rows are
    # contiguous across ~2-3 blocks -> O(blocks) files total. The sort
    # is one int-keyed range shuffle of the same bytes the write was
    # already moving; co-locating cells is exactly what the index is
    # for.
    ds.map_batches(_cell_assign_fn(centroids, id_col, emb_col),
                   batch_format="pyarrow") \
        .sort("cell") \
        .write_parquet(cells_dir, partition_cols=["cell"])

    pqt.write_table(
        pa.table({"cell": pa.array(range(len(centroids)), pa.int32()),
                  "centroid": pa.array(list(centroids),
                                       pa.list_(pa.float64()))}),
        os.path.join(index_dir, "centroids.parquet"))
    # per-cell row counts from parquet FOOTERS only (no data read) —
    # makes imbalance()/needs_rebuild() observable from a fresh build,
    # not just after appends
    counts = {}
    for name in os.listdir(cells_dir):
        if not name.startswith("cell="):
            continue
        cdir = os.path.join(cells_dir, name)
        n = sum(pqt.ParquetFile(os.path.join(cdir, f)).metadata.num_rows
                for f in os.listdir(cdir) if f.endswith(".parquet"))
        counts[name.split("=", 1)[1]] = int(n)
    manifest = {"n_centroids": int(len(centroids)),
                "dim": int(centroids.shape[1]),
                "id_col": id_col, "emb_col": emb_col,
                "cell_counts": counts}
    _write_manifest(index_dir, manifest)
    return manifest


def ann_topk_ivf_from_index(index_dir: str, queries: dict, *, k=5,
                            nprobe=4, round_decimals=6):
    """Probe a PERSISTED IVF index (see ``build_ivf_index``).

    Reads ONLY the cell partitions some query probes — at 10^12 rows the
    unprobed (C - nprobe)/C of the table never leaves storage, which is
    the point of persisting the index rather than retraining per run.
    ``nprobe == n_centroids`` reads everything and reproduces the exact
    scan bit-for-bit (same rounding + (-sim, neighbor_id) tie-break).
    Returns (query_id, neighbor_id, rank) like ``ann_topk``.
    """
    manifest, centroids, _ = _read_index(index_dir)
    id_col, emb_col = manifest["id_col"], manifest["emb_col"]
    qids, qmat = _query_matrix(queries)
    cell_queries = _probe_cells(qmat, centroids, nprobe)
    ds = read_parquet_clean(
        _cell_files(index_dir, "cells", sorted(cell_queries)),
        columns=[id_col, emb_col, "cell_id"])
    return _topk(ds, _TopK(qids, k, round_decimals, id_col=id_col,
                           emb_col=emb_col, qmat=qmat,
                           cell_queries=cell_queries))


# ---------------------------------------------------------------------------
# semantic dedup (SemDeDup-style): cluster, then prune near-dups per cluster


def semantic_dedup(ds, *, id_col="vec_id", emb_col="embedding",
                   n_clusters=16, threshold=0.95, centroids=None,
                   train_kwargs=None, max_cluster=200_000):
    """SemDeDup-shaped semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): spherical k-means clusters the embedding space,
    then WITHIN each cluster rows whose cosine similarity to an
    already-kept row exceeds ``threshold`` are dropped (greedy in id
    order, so the survivor set is deterministic).

    Scale shape: the all-pairs work is confined to clusters (the paper's
    core trick) — one broadcast-centroid assignment pass, one
    groupby(cluster) shuffle of (id, embedding), then a vectorized
    greedy scan per cluster. Per-cluster cost is O(c^2) dot products;
    ``max_cluster`` guards the degenerate all-in-one-cluster case
    (raise n_clusters for bigger data — the paper uses
    n_clusters ~ sqrt(N)).

    Emits (id_col, cluster, keep: bool).
    """
    if centroids is None:
        centroids = train_centroids(ds, emb_col=emb_col,
                                    n_centroids=n_clusters,
                                    **(train_kwargs or {}))
    centroids = _normalize(np.asarray(centroids, np.float64))
    cent_ref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({id_col: batch[id_col],
                             emb_col: batch[emb_col],
                             "cluster": pa.array([], pa.int32())})
        cent = ray.get(cent_ref)
        m = _normalize(_embedding_matrix(batch, emb_col))
        cell = np.argmax(m @ cent.T, axis=1).astype(np.int32)
        return pa.table({id_col: batch[id_col], emb_col: batch[emb_col],
                         "cluster": pa.array(cell)})

    def dedup_cluster(g: pd.DataFrame) -> pd.DataFrame:
        n = len(g)
        if n > max_cluster:
            raise ValueError(
                f"cluster of {n} rows exceeds max_cluster={max_cluster}; "
                "raise n_clusters (SemDeDup uses ~sqrt(N))")
        order = np.argsort(g[id_col].to_numpy(), kind="stable")
        ids = g[id_col].to_numpy()[order]
        m = _normalize(np.vstack(g[emb_col].to_numpy()[order]).astype(
            np.float64))
        keep = np.zeros(n, dtype=bool)
        # preallocated kept-matrix: appending to a Python list and
        # re-asarray-ing per row is O(c^2 * dim) extra copying
        kept = np.empty_like(m)
        n_kept = 0
        for i in range(n):
            if n_kept:
                sims = kept[:n_kept] @ m[i]
                if sims.max() > threshold:
                    continue
            keep[i] = True
            kept[n_kept] = m[i]
            n_kept += 1
        return pd.DataFrame({
            id_col: ids,
            "cluster": np.full(n, int(g["cluster"].iloc[0]),
                               dtype=np.int64),
            "keep": keep})

    assigned = ds.map_batches(assign, batch_format="pyarrow")
    return assigned.groupby("cluster").map_groups(dedup_cluster,
                                                  batch_format="pandas")


# ---------------------------------------------------------------------------
# Product quantization (PQ) — compressed embeddings + ADC top-k.
#
# The memory-side scale path: IVF prunes WHICH rows are scored;
# PQ shrinks WHAT is stored/scored. A d-dim float32 embedding (4d bytes)
# becomes m uint8 codes (m bytes, e.g. 64x smaller at d=64, m=4), so the
# candidate set of a 100 TB corpus fits in the object store and distance
# evaluation becomes a table lookup (ADC: asymmetric distance computation,
# Jegou et al., TPAMI 2011). Cosine similarity: vectors are L2-normalized
# BEFORE subspace quantization, so inner product decomposes exactly into
# per-subspace partial products and sim(q, x) ~ sum_j q_j . c[j, code_j].


def pq_train(ds, *, emb_col="embedding", m=8, n_codes=256,
             sample_frac=0.2, max_sample=20000, seed=23,
             iters=12) -> np.ndarray:
    """Per-subspace Lloyd k-means codebooks over a driver-side sample.

    Returns (m, n_codes, d/m) float64. Training touches O(max_sample)
    rows (same posture as `train_centroids`); the codebook is tiny
    (m * n_codes * d/m = n_codes * d floats) and broadcasts to every
    encode/score task. d must be divisible by m.
    """
    x = seeded_sample(ds, emb_col, max_sample, frac=sample_frac,
                      seed=seed, normalize=True)
    d = x.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    rng = np.random.default_rng(seed)
    k = min(n_codes, len(x))
    books = np.empty((m, k, sub))
    for j in range(m):
        xj = x[:, j * sub:(j + 1) * sub]
        cent = xj[rng.choice(len(xj), k, replace=False)]
        for _ in range(iters):
            # argmin ||x - c||^2 == argmax (x.c - ||c||^2/2)
            score = xj @ cent.T - 0.5 * (cent * cent).sum(1)
            assign = np.argmax(score, axis=1)
            for c in range(k):
                rows = xj[assign == c]
                if len(rows):
                    cent[c] = rows.mean(axis=0)
        books[j] = cent
    return books


def _encode_batch(batch: pa.Table, *, books: np.ndarray, id_col: str,
                  emb_col: str) -> pa.Table:
    """The one PQ encoder: embeddings -> m uint8 codes per row. A
    ``cell_id`` column is carried through, with its ``cell`` copy for
    the hive-partitioned write of an index's code cells."""
    m, _, sub = books.shape
    codes = np.zeros((batch.num_rows, m), np.uint8)
    if batch.num_rows:
        x = _normalize(_embedding_matrix(batch, emb_col))
        half_norms = 0.5 * (books * books).sum(2)         # (m, K)
        for j in range(m):
            # argmin ||x - c||^2 == argmax (x.c - ||c||^2/2)
            score = x[:, j * sub:(j + 1) * sub] @ books[j].T \
                - half_norms[j]
            codes[:, j] = np.argmax(score, axis=1)
    out = pa.table({
        id_col: batch[id_col],
        "pq_code": pa.FixedSizeListArray.from_arrays(
            pa.array(codes.reshape(-1), pa.uint8()), m)})
    if "cell_id" in batch.column_names:
        out = out.append_column("cell_id", batch["cell_id"])
        out = out.append_column("cell", batch["cell_id"])
    return out


def pq_encode(ds, codebooks, *, id_col="vec_id", emb_col="embedding"):
    """Encode a Dataset to (id, pq_code fixed_size_list<uint8>[m]).

    The codebooks ship with the task-pool function; one matmul per
    subspace per batch; output rows are m + 8 bytes — the artifact you
    persist next to (or instead of) raw embeddings at scale.
    """
    return ds.map_batches(
        functools.partial(_encode_batch, books=np.asarray(codebooks),
                          id_col=id_col, emb_col=emb_col),
        batch_format="pyarrow")


def pq_ann_topk(codes_ds, queries: dict, codebooks, *, id_col="vec_id",
                k=5, round_decimals=6):
    """Approximate cosine top-k over a PQ-encoded Dataset (ADC).

    `codes_ds` is `pq_encode` output — the raw embedding column is NOT
    read. Returns (query_id, neighbor_id, rank) like `ann_topk`;
    approximation error is bounded by the per-subspace quantization
    error, measured by the recall tests. Ties break (-sim, neighbor_id).
    """
    qids, qmat = _query_matrix(queries)
    return _topk(codes_ds, _TopK(qids, k, round_decimals, id_col=id_col,
                                 lut=_adc_lut(qmat,
                                              np.asarray(codebooks))))


def pq_ann_topk_rerank(codes_ds, raw_ds, queries: dict, codebooks, *,
                       id_col="vec_id", emb_col="embedding", k=5,
                       shortlist=50, round_decimals=6):
    """PQ shortlist + exact rerank — the standard two-stage ANN recipe.

    Stage 1 scans only the compressed codes (ADC) for a `shortlist`-sized
    candidate set per query; stage 2 re-reads the RAW embeddings of just
    those candidates (pruned filter) and reranks them exactly with
    `ann_topk`'s rounding and (-sim, neighbor_id) tie-break. With a
    covering shortlist the result is bit-identical to the exact scan;
    the full float corpus is never scanned. Driver handles
    O(Q * shortlist) rows only.
    """
    short = pq_ann_topk(codes_ds, queries, codebooks, id_col=id_col,
                        k=shortlist,
                        round_decimals=round_decimals).to_pandas()
    qids, qmat = _query_matrix(queries)
    return _exact_rerank(raw_ds, short, qids, qmat, id_col=id_col,
                         emb_col=emb_col, k=k,
                         round_decimals=round_decimals)


# ---------------------------------------------------------------------------
# IVF-PQ: the production ANN layout — pruned cell reads over compressed
# codes. IVF prunes WHICH cells are read; PQ shrinks WHAT each cell
# stores (m uint8 codes per row). Raw embeddings stay in the sibling
# `cells/` partitions (build_ivf_index) and are touched only for the
# exact rerank of a per-query shortlist.


def _write_code_cells(raw_files: list, codes_dir: str, books: np.ndarray,
                      id_col: str, emb_col: str) -> None:
    """Encode raw cell files with frozen ``books`` into hive cell
    partitions under ``codes_dir``, sorted by cell (one file per
    contiguous cell run) like the raw cells."""
    pq_encode(read_parquet_clean(raw_files,
                                 columns=[id_col, emb_col, "cell_id"]),
              books, id_col=id_col, emb_col=emb_col) \
        .sort("cell") \
        .write_parquet(codes_dir, partition_cols=["cell"])


def build_ivfpq_index(ds, index_dir: str, *, id_col="vec_id",
                      emb_col="embedding", n_centroids=16, m=16,
                      n_codes=256, centroids=None, codebooks=None,
                      train_kwargs=None) -> dict:
    """Extend a persisted IVF index with PQ code partitions.

    Two streaming passes: (1) ``build_ivf_index`` writes centroids + raw
    hive-partitioned cells; (2) a pruned read of those cells encodes
    each row to m uint8 codes (flat PQ over the L2-normalized vector;
    residual PQ is a refinement, not a different layout) and writes

      index_dir/codes/cell=<c>/*.parquet   ((id_col, pq_code, cell_id))
      index_dir/codebooks.parquet          (subspace, code, vec)

    At 10^12 rows the code partitions are ~dim*4/m times smaller than
    the raw cells, so the ADC scan phase reads a fraction of the bytes
    even before cell pruning. Returns the manifest dict.
    """
    manifest = build_ivf_index(ds, index_dir, id_col=id_col,
                               emb_col=emb_col, n_centroids=n_centroids,
                               centroids=centroids,
                               train_kwargs=train_kwargs)
    if codebooks is None:
        codebooks = pq_train(ds, emb_col=emb_col, m=m, n_codes=n_codes,
                             **(train_kwargs or {}))
    codebooks = np.asarray(codebooks)
    _write_code_cells(
        _cell_files(index_dir, "cells", range(manifest["n_centroids"])),
        _fresh_build_dir(index_dir, "codes"), codebooks, id_col, emb_col)
    manifest.update(_write_codebooks(index_dir, codebooks))
    _write_manifest(index_dir, manifest)
    return manifest


def ann_topk_ivfpq(index_dir: str, queries: dict, *, k=5, nprobe=4,
                   shortlist=50, rerank=True, round_decimals=6):
    """Probe a persisted IVF-PQ index: pruned cell reads, ADC over
    compressed codes, then (by default) exact rerank of the per-query
    shortlist against the raw cells of the probed partitions.

    With ``nprobe == n_centroids`` and a covering shortlist the reranked
    result is bit-identical to the exact scan (shares the ANN oracle);
    ``rerank=False`` returns the pure-ADC ranking (recall measured by
    tests). Only probed cells are read in BOTH phases.
    """
    man, centroids, books = _read_index(index_dir)
    id_col, emb_col = man["id_col"], man["emb_col"]
    qids, qmat = _query_matrix(queries)
    cell_queries = _probe_cells(qmat, centroids, nprobe)
    cells = sorted(cell_queries)
    codes_ds = read_parquet_clean(_cell_files(index_dir, "codes", cells),
                                  columns=[id_col, "pq_code", "cell_id"])
    top = _topk(codes_ds, _TopK(qids, shortlist if rerank else k,
                                round_decimals, id_col=id_col,
                                lut=_adc_lut(qmat, books),
                                cell_queries=cell_queries)).to_pandas()
    if not rerank:
        return top.sort_values(["query_id", "rank"]) \
            .reset_index(drop=True)
    # exact rerank against the RAW cells of the probed partitions only
    raw = read_parquet_clean(_cell_files(index_dir, "cells", cells),
                             columns=[id_col, emb_col])
    return _exact_rerank(raw, top, qids, qmat, id_col=id_col,
                         emb_col=emb_col, k=k,
                         round_decimals=round_decimals)


def append_to_ivf_index(ds, index_dir: str) -> dict:
    """Append new vectors to a PERSISTED IVF index without retraining
    (standard IVF maintenance): assign each new row to its nearest
    EXISTING centroid (one matmul per batch) and write the
    rows as additional files inside the matching hive cell partitions.
    Probes see old + new rows immediately; centroids are frozen, so
    repeated appends of drifting data degrade cell balance — the
    returned stats carry per-cell counts and an imbalance factor
    (max/mean); rebuild with ``build_ivf_index`` when it grows past
    ~4x. One streaming pass, no shuffle, no read of existing cells.
    """
    manifest, centroids, _ = _read_index(index_dir)
    id_col = manifest["id_col"]
    emb_col = manifest["emb_col"]
    cells_dir = os.path.join(index_dir, "cells")

    def _file_set():
        seen = set()
        for cell_dir in os.listdir(cells_dir):
            if not cell_dir.startswith("cell="):
                continue
            for fn in os.listdir(os.path.join(cells_dir, cell_dir)):
                if fn.endswith(".parquet"):
                    seen.add(os.path.join(cell_dir, fn))
        return seen

    before = _file_set()
    ds.map_batches(_cell_assign_fn(centroids, id_col, emb_col),
                   batch_format="pyarrow") \
        .sort("cell") \
        .write_parquet(cells_dir, partition_cols=["cell"])

    # incremental accounting: stat ONLY the files this write created;
    # running totals persist in the manifest so repeated appends never
    # re-walk the whole index (and the input pipeline never re-executes)
    counts = {int(c): int(n) for c, n in
              manifest.get("cell_counts", {}).items()}
    if not counts:       # pre-append index built before counts existed
        for rel in before:
            c = int(rel.split(os.sep, 1)[0].split("=", 1)[1])
            counts[c] = counts.get(c, 0) + pqt.read_metadata(
                os.path.join(cells_dir, rel)).num_rows
    n_appended = 0
    new_files = sorted(_file_set() - before)
    for rel in new_files:
        c = int(rel.split(os.sep, 1)[0].split("=", 1)[1])
        n = pqt.read_metadata(os.path.join(cells_dir, rel)).num_rows
        counts[c] = counts.get(c, 0) + n
        n_appended += n
    manifest["cell_counts"] = {str(c): n for c, n in counts.items()}
    _write_manifest(index_dir, manifest)
    vals = np.array(list(counts.values()), np.float64)
    return {
        "n_appended": n_appended,
        "cell_counts": counts,
        "new_files": [os.path.join(cells_dir, rel) for rel in new_files],
        "imbalance": float(vals.max() / max(vals.mean(), 1.0))
        if len(vals) else 0.0,
    }


class AnnIndex:
    """THE persisted-ANN entry point — one surface over the three
    on-disk layouts, so build / append / probe never depend on which
    compression tier the index uses:

      kind="ivf"    centroids.parquet + cells/cell=<c>/ raw vectors
                    (build_ivf_index); probes read nprobe/C of storage.
      kind="ivfpq"  the ivf layout + codes/cell=<c>/ PQ codes +
                    codebooks.parquet (build_ivfpq_index); ADC scan over
                    pruned code cells, optional exact rerank against the
                    probed raw cells.
      kind="pq"     codebooks.parquet + codes/ flat PQ codes, no cells;
                    ADC scans all codes (~dim*4/m x smaller than raw),
                    optional exact rerank against a caller-supplied raw
                    Dataset.

    REBUILD POLICY (documented contract): ``append`` assigns to FROZEN
    centroids/codebooks — correct immediately, but drifting appends
    degrade cell balance. Per-cell counts persist in the manifest;
    ``imbalance()`` = max/mean cell count, and ``needs_rebuild()`` turns
    True past ``rebuild_threshold`` (default 4.0 — the hottest cell then
    costs ~4x a mean probe). Rebuild = ``AnnIndex.build`` over the full
    corpus into a fresh dir; probes stay CORRECT throughout (imbalance
    costs probe time, never recall).
    """

    rebuild_threshold = 4.0

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        if not os.path.exists(os.path.join(index_dir, "manifest.json")):
            self._recover_interrupted_rebuild(index_dir)
        self.manifest = _read_manifest(index_dir)
        kind = self.manifest.get("kind")
        if kind is None:  # index built before AnnIndex existed: infer
            has_codes = os.path.isdir(os.path.join(index_dir, "codes"))
            has_cells = os.path.isdir(os.path.join(index_dir, "cells"))
            kind = ("ivfpq" if has_codes and has_cells
                    else "pq" if has_codes else "ivf")
        self.kind = kind

    @staticmethod
    def _recover_interrupted_rebuild(index_dir: str) -> None:
        """Close the rebuild swap's crash window: POSIX cannot exchange
        two directories atomically, so ``rebuild`` renames the live dir
        to ``<dir>.old`` and the fresh one into place — a kill between
        the two renames leaves NO dir at ``index_dir``. Opening an index
        recovers deterministically: prefer the COMPLETE fresh layout
        (it holds every row the old one did), else restore the old."""
        base = index_dir.rstrip("/")
        fresh, old = base + ".rebuild", base + ".old"
        if os.path.exists(os.path.join(fresh, "manifest.json")):
            os.rename(fresh, index_dir)
        elif os.path.exists(os.path.join(old, "manifest.json")):
            os.rename(old, index_dir)

    # ---- build --------------------------------------------------------
    @classmethod
    def build(cls, ds, index_dir: str, *, kind: str = "ivf",
              id_col="vec_id", emb_col="embedding", n_centroids=16,
              m=16, n_codes=256, train_kwargs=None) -> "AnnIndex":
        os.makedirs(index_dir, exist_ok=True)
        if kind == "ivf":
            manifest = build_ivf_index(
                ds, index_dir, id_col=id_col, emb_col=emb_col,
                n_centroids=n_centroids, train_kwargs=train_kwargs)
        elif kind == "ivfpq":
            manifest = build_ivfpq_index(
                ds, index_dir, id_col=id_col, emb_col=emb_col,
                n_centroids=n_centroids, m=m, n_codes=n_codes,
                train_kwargs=train_kwargs)
        elif kind == "pq":
            books = np.asarray(pq_train(ds, emb_col=emb_col, m=m,
                                        n_codes=n_codes,
                                        **(train_kwargs or {})))
            pq_encode(ds, books, id_col=id_col, emb_col=emb_col) \
                .write_parquet(_fresh_build_dir(index_dir, "codes"))
            manifest = {"id_col": id_col, "emb_col": emb_col,
                        **_write_codebooks(index_dir, books)}
        else:
            raise ValueError(f"unknown index kind {kind!r}")
        manifest["kind"] = kind
        _write_manifest(index_dir, manifest)
        return cls(index_dir)

    # ---- append -------------------------------------------------------
    def append(self, ds, *, auto_rebuild: bool = False,
               rebuild_threshold: float | None = None) -> dict:
        """Append rows without retraining (frozen centroids/codebooks).
        Returns stats incl. ``imbalance`` — check ``needs_rebuild()``
        after drifting appends (see class docstring).

        ``auto_rebuild=True`` automates the documented rebuild policy:
        when the post-append imbalance exceeds ``rebuild_threshold``
        (default: the class threshold), the index retrains over its OWN
        on-disk raw cells via :meth:`rebuild` — no external corpus
        handle needed — and the returned stats carry ``rebuilt=True``
        plus the post-rebuild imbalance. ivf/ivfpq only (a flat pq
        index stores no raw vectors to retrain from, and has no cells
        to imbalance)."""
        id_col = self.manifest["id_col"]
        emb_col = self.manifest["emb_col"]
        if self.kind in ("ivf", "ivfpq"):
            stats = append_to_ivf_index(ds, self.index_dir)
            if self.kind == "ivfpq" and stats["new_files"]:
                _write_code_cells(
                    stats["new_files"],
                    os.path.join(self.index_dir, "codes"),
                    _read_index(self.index_dir)[2], id_col, emb_col)
            self.manifest = _read_manifest(self.index_dir)
            self.manifest["kind"] = self.kind
            if auto_rebuild and self.needs_rebuild(rebuild_threshold):
                stats["imbalance_before_rebuild"] = self.imbalance()
                self.rebuild()
                stats["rebuilt"] = True
                stats["imbalance"] = self.imbalance()
            else:
                stats["rebuilt"] = False
            return stats
        # flat pq: encode with frozen codebooks, add code files
        books = _read_index(self.index_dir)[2]
        # materialize once: write + count off the same blocks (a lazy
        # count would re-run the whole encode over ds a second time)
        codes = pq_encode(ds, books, id_col=id_col,
                          emb_col=emb_col).materialize()
        codes.write_parquet(os.path.join(self.index_dir, "codes"))
        return {"n_appended": codes.count(), "imbalance": 0.0}

    # ---- probe --------------------------------------------------------
    def probe(self, queries: dict, *, k=5, nprobe=4, shortlist=50,
              rerank=True, rerank_ds=None, round_decimals=6):
        """Top-k neighbors for a broadcast query set. Always returns a
        pandas DataFrame (query_id, neighbor_id, rank) sorted by
        (query_id, rank) — Q*k rows, bounded by construction, so the
        driver materialization is O(queries), never O(corpus)."""
        if self.kind == "ivf":
            out = ann_topk_ivf_from_index(
                self.index_dir, queries, k=k, nprobe=nprobe,
                round_decimals=round_decimals).to_pandas()
        elif self.kind == "ivfpq":
            out = ann_topk_ivfpq(
                self.index_dir, queries, k=k, nprobe=nprobe,
                shortlist=shortlist, rerank=rerank,
                round_decimals=round_decimals)
        else:
            codes = read_parquet_clean(
                os.path.join(self.index_dir, "codes"))
            books = _read_index(self.index_dir)[2]
            if rerank and rerank_ds is not None:
                out = pq_ann_topk_rerank(
                    codes, rerank_ds, queries, books,
                    id_col=self.manifest["id_col"],
                    emb_col=self.manifest["emb_col"], k=k,
                    shortlist=shortlist, round_decimals=round_decimals)
            else:
                out = pq_ann_topk(
                    codes, queries, books,
                    id_col=self.manifest["id_col"], k=k,
                    round_decimals=round_decimals).to_pandas()
        out = out.sort_values(["query_id", "rank"]) \
            .reset_index(drop=True)
        out["rank"] = out["rank"].astype("int64")
        return out

    # ---- maintenance --------------------------------------------------
    def rebuild(self, *, n_centroids: int | None = None) -> None:
        """Retrain the index over its own on-disk raw vectors and swap
        the fresh layout into place.

        The ivf/ivfpq layouts keep EVERY raw vector under ``cells/``
        (appends included), so the full corpus is one pruned parquet
        read away — no external Dataset handle or re-ingest. The new
        index is built in a sibling ``<dir>.rebuild`` directory and
        swapped in via two renames. POSIX cannot exchange directories
        atomically, so a kill INSIDE the two-rename window leaves no
        dir at ``index_dir`` — the next ``AnnIndex(index_dir)``
        recovers deterministically (``_recover_interrupted_rebuild``:
        prefer the complete fresh layout, else restore ``.old``). A
        crash anywhere else leaves the original index fully intact.
        Probes against the OLD layout remain correct up to the swap
        (imbalance costs probe time, never recall)."""
        import shutil

        if self.kind not in ("ivf", "ivfpq"):
            raise ValueError("rebuild needs raw cells: kind must be "
                             f"'ivf' or 'ivfpq', not {self.kind!r}")
        id_col = self.manifest["id_col"]
        emb_col = self.manifest["emb_col"]
        corpus = read_parquet_clean(
            os.path.join(self.index_dir, "cells"),
            columns=[id_col, emb_col])
        fresh = self.index_dir.rstrip("/") + ".rebuild"
        if os.path.exists(fresh):
            shutil.rmtree(fresh)
        kwargs = dict(id_col=id_col, emb_col=emb_col,
                      n_centroids=n_centroids
                      or self.manifest.get("n_centroids", 16))
        if self.kind == "ivfpq":
            kwargs["m"] = self.manifest.get("pq_m", 16)
            kwargs["n_codes"] = self.manifest.get("pq_codes", 256)
        AnnIndex.build(corpus, fresh, kind=self.kind, **kwargs)
        old = self.index_dir.rstrip("/") + ".old"
        if os.path.exists(old):
            shutil.rmtree(old)
        os.rename(self.index_dir, old)
        os.rename(fresh, self.index_dir)
        shutil.rmtree(old)
        refreshed = AnnIndex(self.index_dir)
        self.manifest = refreshed.manifest
        self.kind = refreshed.kind

    def imbalance(self) -> float:
        counts = self.manifest.get("cell_counts")
        if not counts:
            return 0.0
        vals = np.array(list(counts.values()), np.float64)
        return float(vals.max() / max(vals.mean(), 1.0))

    def needs_rebuild(self, threshold: float | None = None) -> bool:
        t = self.rebuild_threshold if threshold is None else threshold
        return self.imbalance() > t
