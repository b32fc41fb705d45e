"""Mergeable sketches for dataset-scale column statistics.

jschon has no aggregate machinery (SURVEY.md §2.9) — these are the
distributed-only primitives the north star mandates: every sketch supports
``add_batch`` (vectorized over numpy arrays), ``merge`` (associative,
commutative) and ``to_bytes``/``from_bytes`` (checkpointable state blobs for
per-partition lineage). Build one per block inside map_batches, merge in a
tiny second stage — the classic mergeable-summaries pattern (PAPERS.md:
Relative Error Streaming Quantiles PODS'21; mergeable DV sketch SIGMOD'25).

All implementations are numpy-only and deterministic.
"""

from __future__ import annotations

import pickle
import zlib

import numpy as np


def hash_array(values) -> np.ndarray:
    """Stable vectorized 64-bit hashes of an array-like (strings/numbers).

    Uses pandas' hash_pandas_object (SipHash-ish, fixed default key) —
    deterministic across processes and sessions, no Python-level loop.
    """
    import pandas as pd

    s = pd.Series(values)
    return pd.util.hash_pandas_object(s, index=False).to_numpy()


# ---------------------------------------------------------------------------


class TDigest:
    """Merging t-digest (Dunning) for quantiles over unbounded streams.

    Centroids (mean, weight) kept sorted; compression bounds cluster weight
    by the k1-ish limit 4·N·q(1-q)/δ giving tail-accurate quantiles with
    O(δ) state. add_batch is amortized: points buffer until 8·δ then one
    sort+merge pass.
    """

    __slots__ = ("delta", "means", "weights", "_buf", "count")

    def __init__(self, delta: int = 200):
        self.delta = delta
        self.means = np.empty(0)
        self.weights = np.empty(0)
        self._buf: list = []
        self.count = 0.0

    def add_batch(self, values: np.ndarray):
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return self
        self._buf.append(v)
        self.count += len(v)
        if sum(len(b) for b in self._buf) >= 8 * self.delta:
            self._compress()
        return self

    def _pending(self):
        if not self._buf:
            return self.means, self.weights
        bm = np.concatenate(self._buf)
        means = np.concatenate([self.means, bm])
        weights = np.concatenate([self.weights, np.ones(len(bm))])
        return means, weights

    def _compress(self):
        # vectorized merging-digest compression (Dunning's k1 scale):
        # every point maps to an integer cluster index floor(k(q_mid))
        # with k(q) = (δ/π)·asin(2q−1), and consecutive equal indices
        # merge via one add.reduceat — no Python row loop (the greedy
        # pairwise variant this replaces cost ~1 s per 600k values and
        # dominated the sketch-profile stage). k1's derivative enforces
        # the same 4·N·q(1−q)/δ-style weight bound, tail clusters stay
        # near-singleton, and the unit tests pin <=1% rank error
        # unchanged.
        means, weights = self._pending()
        self._buf = []
        if len(means) == 0:
            return
        order = np.argsort(means, kind="stable")
        means, weights = means[order], weights[order]
        total = weights.sum()
        q_mid = (np.cumsum(weights) - 0.5 * weights) / total
        k = np.floor((self.delta / np.pi)
                     * np.arcsin(np.clip(2.0 * q_mid - 1.0, -1.0, 1.0)))
        cut = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        wsum = np.add.reduceat(weights, cut)
        self.means = np.add.reduceat(means * weights, cut) / wsum
        self.weights = wsum

    def merge(self, other: "TDigest") -> "TDigest":
        other._compress()
        self._compress()
        if len(other.means):
            self.means = np.concatenate([self.means, other.means])
            self.weights = np.concatenate([self.weights, other.weights])
            self.count += other.count
            self._compress()
        return self

    def quantile(self, q: float) -> float:
        self._compress()
        if len(self.means) == 0:
            return float("nan")
        if len(self.means) == 1:
            return float(self.means[0])
        cum = np.cumsum(self.weights) - self.weights / 2
        target = q * self.weights.sum()
        return float(np.interp(target, cum, self.means))

    def cdf(self, x: float) -> float:
        self._compress()
        if len(self.means) == 0:
            return float("nan")
        cum = np.cumsum(self.weights) - self.weights / 2
        return float(np.interp(x, self.means, cum / self.weights.sum(),
                               left=0.0, right=1.0))

    def to_bytes(self) -> bytes:
        self._compress()
        return zlib.compress(pickle.dumps(
            (self.delta, self.means, self.weights, self.count)))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TDigest":
        delta, means, weights, count = pickle.loads(zlib.decompress(blob))
        td = cls(delta)
        td.means, td.weights, td.count = means, weights, count
        return td


# ---------------------------------------------------------------------------


class HyperLogLog:
    """HLL distinct counter: 2^p byte registers, merge = elementwise max."""

    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = 14):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, np.uint8)

    def add_hashes(self, hashes: np.ndarray):
        h = hashes.astype(np.uint64, copy=False)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = h & np.uint64((1 << (64 - self.p)) - 1)
        # rank = leading-zero count of the remaining 64-p bits, + 1
        nbits = 64 - self.p
        f = rest.astype(np.float64)
        with np.errstate(divide="ignore"):
            msb = np.floor(np.log2(f, where=rest > 0,
                                   out=np.full(len(f), -1.0)))
        rank = np.where(rest > 0, nbits - msb, nbits + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)
        return self

    def add_batch(self, values):
        return self.add_hashes(hash_array(values))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = self.m
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(np.exp2(-self.registers.astype(np.float64)))
        zeros = int(np.count_nonzero(self.registers == 0))
        if est <= 2.5 * m and zeros:
            return float(m * np.log(m / zeros))  # linear counting
        return float(est)

    def to_bytes(self) -> bytes:
        return zlib.compress(pickle.dumps((self.p, self.registers)))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "HyperLogLog":
        p, regs = pickle.loads(zlib.decompress(blob))
        h = cls(p)
        h.registers = regs
        return h


# ---------------------------------------------------------------------------


class CountMinSketch:
    """Count-min frequency sketch (d×w counters, merge = elementwise add).

    Point queries overestimate by at most eps·N with prob 1-delta for
    w=ceil(e/eps), d=ceil(ln 1/delta). Used for hot-key/frequency checks.
    """

    __slots__ = ("d", "w", "table", "n", "_a", "_b")

    def __init__(self, d: int = 4, w: int = 2048, seed: int = 7):
        self.d = d
        self.w = w
        self.table = np.zeros((d, w), np.int64)
        self.n = 0
        rng = np.random.default_rng(seed)
        self._a = rng.integers(1, 2**63 - 1, d, dtype=np.int64) \
            .astype(np.uint64) | np.uint64(1)
        self._b = rng.integers(0, 2**63 - 1, d, dtype=np.int64) \
            .astype(np.uint64)

    def _rows(self, hashes: np.ndarray) -> np.ndarray:
        h = hashes.astype(np.uint64, copy=False)
        out = np.empty((self.d, len(h)), np.int64)
        for i in range(self.d):
            out[i] = ((h * self._a[i] + self._b[i]) >> np.uint64(32)) \
                .astype(np.int64) % self.w
        return out

    def add_hashes(self, hashes: np.ndarray, counts=None):
        rows = self._rows(hashes)
        c = np.ones(len(hashes), np.int64) if counts is None \
            else np.asarray(counts, np.int64)
        for i in range(self.d):
            np.add.at(self.table[i], rows[i], c)
        self.n += int(c.sum())
        return self

    def add_batch(self, values, counts=None):
        return self.add_hashes(hash_array(values), counts)

    def query_hashes(self, hashes: np.ndarray) -> np.ndarray:
        rows = self._rows(hashes)
        est = self.table[0][rows[0]]
        for i in range(1, self.d):
            est = np.minimum(est, self.table[i][rows[i]])
        return est

    def query(self, values) -> np.ndarray:
        return self.query_hashes(hash_array(values))

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        self.table += other.table
        self.n += other.n
        return self

    def to_bytes(self) -> bytes:
        return zlib.compress(pickle.dumps(
            (self.d, self.w, self.table, self.n, self._a, self._b)))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CountMinSketch":
        d, w, table, n, a, b = pickle.loads(zlib.decompress(blob))
        cm = cls(d, w)
        cm.table, cm.n, cm._a, cm._b = table, n, a, b
        return cm


# ---------------------------------------------------------------------------


class Histogram:
    """Fixed-edge histogram (merge = add) for PSI-style drift comparisons."""

    __slots__ = ("edges", "counts", "n_null")

    def __init__(self, edges):
        self.edges = np.asarray(edges, np.float64)
        self.counts = np.zeros(len(self.edges) + 1, np.int64)
        self.n_null = 0

    def add_batch(self, values: np.ndarray):
        v = np.asarray(values, np.float64)
        nan = np.isnan(v)
        self.n_null += int(nan.sum())
        v = v[~nan]
        idx = np.searchsorted(self.edges, v, side="right")
        np.add.at(self.counts, idx, 1)
        return self

    def merge(self, other: "Histogram") -> "Histogram":
        self.counts += other.counts
        self.n_null += other.n_null
        return self

    def proportions(self) -> np.ndarray:
        tot = self.counts.sum()
        return self.counts / tot if tot else self.counts.astype(float)

    def to_bytes(self) -> bytes:
        return zlib.compress(pickle.dumps(
            (self.edges, self.counts, self.n_null)))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Histogram":
        edges, counts, n_null = pickle.loads(zlib.decompress(blob))
        h = cls(edges)
        h.counts, h.n_null = counts, n_null
        return h


class BloomFilter:
    """Mergeable Bloom filter over 64-bit key hashes: no false negatives,
    false-positive rate ~(1 - e^{-kn/m})^k for n keys, m bits, k probes.

    The membership sketch completing the family (TDigest=quantiles,
    HLL=distinct, CMS=frequency): build per block over a dimension key
    column, OR-merge partials, then probe fact batches vectorized —
    `functions.join.referential_violations_shuffle` uses it to short-cut
    definite violations without a shuffle. Probe positions derive from
    the same `hash_array` double-hashing (h1 + i*h2), so a filter built
    in one process probes correctly in any other.
    """

    def __init__(self, num_bits: int = 1 << 23, num_hashes: int = 4):
        if num_bits % 64:
            raise ValueError("num_bits must be a multiple of 64")
        self.m = num_bits
        self.k = num_hashes
        self.words = np.zeros(num_bits // 64, dtype=np.uint64)
        self.n_added = 0

    def _positions(self, hashes: np.ndarray) -> np.ndarray:
        """(k, n) probe bit positions via Kirsch-Mitzenmacher double
        hashing of the 64-bit input hash."""
        h = hashes.astype(np.uint64)
        h1 = h
        h2 = (h >> np.uint64(33)) | np.uint64(1)  # odd -> full-period
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        return (h1[None, :] + i * h2[None, :]) % np.uint64(self.m)

    def add_hashes(self, hashes: np.ndarray):
        pos = self._positions(np.asarray(hashes)).ravel()
        np.bitwise_or.at(self.words, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))
        self.n_added += len(np.asarray(hashes))
        return self

    def add_batch(self, values):
        return self.add_hashes(hash_array(values))

    def contains_hashes(self, hashes: np.ndarray) -> np.ndarray:
        pos = self._positions(np.asarray(hashes))
        bits = (self.words[(pos >> np.uint64(6)).astype(np.int64)]
                >> (pos & np.uint64(63))) & np.uint64(1)
        return bits.all(axis=0)

    def contains(self, values) -> np.ndarray:
        return self.contains_hashes(hash_array(values))

    def fp_rate(self) -> float:
        """Expected false-positive probability at the current fill."""
        fill = np.count_nonzero(
            np.unpackbits(self.words.view(np.uint8))) / self.m
        return float(fill ** self.k)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if (other.m, other.k) != (self.m, self.k):
            raise ValueError("incompatible bloom parameters")
        np.bitwise_or(self.words, other.words, out=self.words)
        self.n_added += other.n_added
        return self

    def to_bytes(self) -> bytes:
        return zlib.compress(pickle.dumps(
            (self.m, self.k, self.n_added, self.words)))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BloomFilter":
        m, k, n, words = pickle.loads(zlib.decompress(blob))
        bf = cls(num_bits=m, num_hashes=k)
        bf.words, bf.n_added = words, n
        return bf


def build_bloom(ds, col: str, *, num_bits: int = 1 << 23,
                num_hashes: int = 4) -> BloomFilter:
    """Distributed Bloom build: per-block partial filters (map_batches),
    OR-merged in a bounded tree — blobs per merge leg ≤ max(16, #CPUs),
    so the driver never holds #blocks × m/8 bytes."""
    import pyarrow as pa

    def partial(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(num_bits=num_bits, num_hashes=num_hashes)
        vals = batch[col].drop_null()
        if len(vals):
            bf.add_batch(vals.to_numpy(zero_copy_only=False))
        return pa.table({"blob": pa.array([bf.to_bytes()], pa.binary())})

    def or_block(batch: pa.Table) -> pa.Table:
        bf = None
        for blob in batch["blob"].to_pylist():
            part = BloomFilter.from_bytes(blob)
            bf = part if bf is None else bf.merge(part)
        return pa.table({"blob": pa.array([bf.to_bytes()], pa.binary())})

    parts = ds.select_columns([col]) \
        .map_batches(partial, batch_format="pyarrow")
    from ..sources.io import cluster_cpus

    parts = parts.repartition(max(16, cluster_cpus())) \
        .map_batches(or_block, batch_format="pyarrow")
    merged = None
    for b in parts.iter_batches(batch_format="pyarrow"):
        for blob in b["blob"].to_pylist():
            part = BloomFilter.from_bytes(blob)
            merged = part if merged is None else merged.merge(part)
    return merged if merged is not None \
        else BloomFilter(num_bits=num_bits, num_hashes=num_hashes)


# ---------------------------------------------------------------------------
# drift statistics


def ks_statistic(a: TDigest, b: TDigest, points: int = 201) -> float:
    """Approximate two-sample KS statistic from two t-digests: max |CDF
    difference| over a merged grid of quantile probe points."""
    if a.count == 0 or b.count == 0:
        return float("nan")
    qs = np.linspace(0.0, 1.0, points)
    xs = np.unique(np.concatenate([
        [a.quantile(q) for q in qs], [b.quantile(q) for q in qs]]))
    d = max(abs(a.cdf(x) - b.cdf(x)) for x in xs)
    return float(d)


def psi(expected: Histogram, actual: Histogram, eps: float = 1e-6) -> float:
    """Population Stability Index over shared fixed bins.

    Rule of thumb: <0.1 stable, 0.1-0.25 moderate shift, >0.25 drifted.
    """
    p = np.clip(expected.proportions(), eps, None)
    q = np.clip(actual.proportions(), eps, None)
    return float(np.sum((q - p) * np.log(q / p)))
