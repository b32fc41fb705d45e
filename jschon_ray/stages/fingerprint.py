"""Audio fingerprinting: constellation (peak-pair) landmark hashes.

The 100 TB-safe audio near-dup path. The existing
`q_audio_neardup_clips` verifies duplicates with an exact all-pairs
cosine over broadcast mel embeddings — O(N^2) work that is fine as an
oracle but not as the scale path. Fingerprinting is the industry-standard
alternative (Wang's Shazam constellation design, ISMIR 2003): each clip
emits a few hundred small integer landmark hashes; two clips are
duplicates when they share MANY hashes at a CONSISTENT time offset. The
shuffle then moves only (hash, clip_id, t) triples — never payload bytes,
never embeddings — and matching is a bucketed groupby, exactly the shape
of the text MinHash-LSH operator (functions/dedup.py:140).

Landmark construction, fully vectorized per batch:
  1. decode -> non-overlapping Hann frames of EVERY clip stacked into one
     matrix -> one `np.fft.rfft` (same recipe as stages/features.py:32).
  2. per-frame top-P spectral peaks via one `np.argpartition` over the
     whole stack; peaks below the stack-median magnitude are dropped
     (silence guard).
  3. peaks sorted by (clip, frame); pairing = `fan_out` shifted-array
     comparisons (peak i paired with peaks i+1..i+fan_out when the frame
     gap is in (0, max_dt]) — no per-clip loop.
  4. hash packs (f1_bin, f2_bin, dt) into one int64.

Reference analogue: jschon's `format` vocabulary runs expensive opt-in
payload checks as a separate pass (/root/reference/jschon/vocabulary/
format.py:14-32); this stage follows the same contract — payload-reading,
opt-in, emitted as its own map_batches stage, payload bytes dropped
in-stage so only landmark rows continue down the pipeline.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .decode import DecodeError, decode_clip

FINGERPRINT_SCHEMA = pa.schema([
    ("clip_id", pa.string()),
    ("fp_hash", pa.int64()),
    ("t1", pa.int32()),
])


class AudioFingerprinter:
    """map_batches stage: clips table -> landmark rows (clip_id, fp_hash, t1).

    Emits one OUTPUT ROW PER LANDMARK (a flat_map-shaped transform), not
    one per clip: downstream matching is a plain groupby over `fp_hash`.
    Undecodable / empty / silent clips simply emit no rows.

    Use: ds.map_batches(stage_fn(AudioFingerprinter), batch_format="pyarrow")
    """

    def __init__(self, frame_len: int = 1024, peaks_per_frame: int = 3,
                 fan_out: int = 5, max_dt: int = 32, id_col: str = "clip_id"):
        self.frame_len = int(frame_len)
        self.peaks = int(peaks_per_frame)
        self.fan_out = int(fan_out)
        self.max_dt = int(max_dt)
        self.id_col = id_col
        self.window = np.hanning(self.frame_len).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        L = self.frame_len
        payloads = batch["bytes"].to_pylist()
        codecs = batch["codec"].to_pylist()
        ids = batch[self.id_col].to_pylist()

        frames, counts, rows = [], [], []
        for i in range(n):
            if payloads[i] is None or codecs[i] is None:
                continue
            try:
                pcm, _ = decode_clip(payloads[i], codecs[i])
            except (DecodeError, NotImplementedError):
                continue
            f = pcm.astype(np.float32) / 32768.0
            nf = len(f) // L
            if nf == 0:
                continue
            frames.append(f[:nf * L].reshape(nf, L))
            counts.append(nf)
            rows.append(i)

        if not rows:
            return FINGERPRINT_SCHEMA.empty_table()

        stack = (np.concatenate(frames) * self.window).astype(np.float64)
        mag = np.abs(np.fft.rfft(stack, axis=1))          # (F, bins)
        total = mag.shape[0]

        # per-frame top-P peak bins, one argpartition over the stack
        P = min(self.peaks, mag.shape[1])
        top = np.argpartition(mag, -P, axis=1)[:, -P:]    # (F, P)
        top_mag = np.take_along_axis(mag, top, axis=1)
        # silence guard: a peak must rise above 4x the CLIP's median
        # magnitude (tones sit orders of magnitude above it; silent or
        # noise-only frames hover at it). Per-clip, NOT per-batch-stack:
        # landmarks must not depend on which clips share a block, or the
        # pipeline's output would vary with Ray's block layout.
        bounds = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        clip_floor = np.empty(len(rows))
        for j in range(len(rows)):
            clip_floor[j] = np.median(mag[bounds[j]:bounds[j + 1]])
        floor = np.repeat(clip_floor * 4.0, counts)[:, None]
        keep = top_mag > floor

        frame_of = np.repeat(np.arange(total, dtype=np.int64), P)
        clip_of = np.repeat(
            np.repeat(np.arange(len(rows), dtype=np.int64), counts), P)
        frame0 = np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64),
            np.asarray(counts) * P)
        bins = top.reshape(-1)
        mask = keep.reshape(-1)

        clip_of, tloc, bins = (clip_of[mask],
                               (frame_of - frame0)[mask].astype(np.int64),
                               bins[mask].astype(np.int64))
        # sort peaks by (clip, local frame, bin) so pairing shifts are
        # time-ordered within each clip
        order = np.lexsort((bins, tloc, clip_of))
        clip_of, tloc, bins = clip_of[order], tloc[order], bins[order]

        out_id, out_hash, out_t = [], [], []
        for s in range(1, self.fan_out + 1):
            if s >= len(bins):
                break
            same = clip_of[:-s] == clip_of[s:]
            dt = tloc[s:] - tloc[:-s]
            ok = same & (dt > 0) & (dt <= self.max_dt)
            if not ok.any():
                continue
            f1, f2 = bins[:-s][ok], bins[s:][ok]
            h = (f1 << np.int64(20)) | (f2 << np.int64(8)) | dt[ok]
            out_id.append(clip_of[:-s][ok])
            out_hash.append(h)
            out_t.append(tloc[:-s][ok])

        if not out_id:
            return FINGERPRINT_SCHEMA.empty_table()
        cidx = np.concatenate(out_id)
        id_arr = np.asarray(ids, dtype=object)[
            np.asarray(rows, dtype=np.int64)[cidx]]
        return pa.table({
            "clip_id": pa.array(id_arr.tolist(), pa.string()),
            "fp_hash": pa.array(np.concatenate(out_hash)),
            "t1": pa.array(np.concatenate(out_t).astype(np.int32)),
        })


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: landmark hashes are STRUCTURED
    ((f1<<20)|(f2<<8)|dt — the low bits are the frame delta), so a plain
    `hash % n_buckets` collapses to `dt % n_buckets` and nearly every row
    lands in a couple of buckets (measured: 1.86M rows -> 2 buckets).
    Mixing first makes bucket routing uniform for any hash structure."""
    z = h.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def fingerprint_match_pairs(landmarks, *, min_matches: int = 12,
                            max_bucket: int = 32, n_buckets: int = 256,
                            coalesce_blocks: int | None = None):
    """Duplicate pairs from a landmark Dataset via offset-consistency votes.

    1. groupby(COARSE bucket = fp_hash % n_buckets) — only `n_buckets`
       pandas groups, so the per-group Python overhead is O(n_buckets),
       not O(distinct hashes) (same trick as ngram_jaccard_pairs,
       functions/dedup.py:295; a per-hash map_groups measured ~10x
       slower at 5k clips). Inside a bucket, one vectorized self-merge
       on fp_hash yields candidate rows (id_a, id_b, dt = t1_a - t1_b),
       pre-aggregated to per-(pair, dt) partial vote counts. Hashes
       shared by more than `max_bucket` clips are DROPPED, not truncated
       — a hash shared by many clips is non-discriminative (the
       stop-word of audio hashing), and dropping keeps pair fan-out
       linear in landmark count. A hash lives wholly in one bucket, so
       partials from different buckets are disjoint and sum exactly.
    2. groupby(pair_bucket = mix(id_a, id_b) % n_buckets): sum partials;
       a true duplicate's shared hashes agree on ONE time offset, so the
       score is the largest same-offset vote sum. Pairs with score >=
       min_matches survive.

    Scale posture: both shuffles move only small integer rows. At 100 TB
    the landmark table is ~200 rows x 16 bytes per clip; payload bytes
    never enter either exchange. Size n_buckets so one bucket's landmark
    rows fit a worker (~rows/n_buckets). Returns a LAZY Dataset
    (id_a, id_b, matches), id_a < id_b — matched pairs never
    materialize on the driver; feed `connected_components` directly or
    write_parquet, `.to_pandas()` only at test scale.
    """
    import pandas as pd

    from ..state.sketches import hash_array

    if coalesce_blocks:
        # landmark rows inherit the PAYLOAD table's block layout (the
        # fingerprint map is 1 block in -> 1 block out), so a corpus of
        # many small payload blocks hands the two shuffles hundreds of
        # ~20k-row blocks and the sort pays one task per block (measured
        # 4.8 s -> 1.8 s at 100 blocks -> 32 on the sf0.1 chord corpus).
        # Callers opt in with a block count sized to their cluster; at
        # true 100 TB scale landmark blocks are already large and this
        # stays None.
        landmarks = landmarks.repartition(coalesce_blocks)

    def tag_bucket(t: pa.Table) -> pa.Table:
        h = t["fp_hash"].to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            b = (_mix64(h.view(np.uint64))
                 % np.uint64(n_buckets)).view(np.int64)
        return t.append_column("bucket", pa.array(b))

    tagged = landmarks.map_batches(tag_bucket, batch_format="pyarrow")

    def _empty_part() -> pa.Table:
        # TYPED Arrow empty: object-dtype pandas empties trip Ray's
        # block-size estimator ("cannot call `vectorize` on size 0
        # inputs") and decay schemas — see dedup._empty_pair_table
        return pa.table({"id_a": pa.array([], pa.string()),
                         "id_b": pa.array([], pa.string()),
                         "dt": pa.array([], pa.int64()),
                         "votes": pa.array([], pa.int64()),
                         "pair_bucket": pa.array([], pa.int64())})

    def bucket_votes(g: pd.DataFrame) -> pd.DataFrame:
        gb = g.groupby("fp_hash")
        uniq = gb["clip_id"].transform("nunique")
        size = gb["clip_id"].transform("size")
        # a hash can also repeat WITHIN a clip (stationary content); cap
        # total rows too so the merge stays O(max_bucket^2 * occurrences)
        g = g[(uniq >= 2) & (uniq <= max_bucket)
              & (size <= max_bucket * 64)]
        if len(g) < 2:
            return _empty_part()
        m = g[["fp_hash", "clip_id", "t1"]].merge(
            g[["fp_hash", "clip_id", "t1"]], on="fp_hash",
            suffixes=("_a", "_b"))
        m = m[m["clip_id_a"] < m["clip_id_b"]]
        if not len(m):
            return _empty_part()
        part = m.assign(
            dt=(m["t1_a"].to_numpy(np.int64)
                - m["t1_b"].to_numpy(np.int64))) \
            .groupby(["clip_id_a", "clip_id_b", "dt"], sort=False) \
            .size().reset_index(name="votes") \
            .rename(columns={"clip_id_a": "id_a", "clip_id_b": "id_b"})
        pb = (hash_array(part["id_a"])
              ^ (hash_array(part["id_b"]) * np.uint64(0x9E3779B97F4A7C15)))
        part["pair_bucket"] = (pb % np.uint64(n_buckets)).view(np.int64)
        # always Arrow out: a map_groups fn must return ONE block type
        return pa.Table.from_pandas(part, preserve_index=False).replace_schema_metadata(None)

    votes = tagged.groupby("bucket").map_groups(
        bucket_votes, batch_format="pandas")

    def combine(g: pd.DataFrame):
        s = g.groupby(["id_a", "id_b", "dt"], sort=False)["votes"] \
            .sum().reset_index()
        best = s.groupby(["id_a", "id_b"], sort=False)["votes"] \
            .max().reset_index(name="matches")
        best = best[best["matches"] >= min_matches]
        if not len(best):
            return pa.table({"id_a": pa.array([], pa.string()),
                             "id_b": pa.array([], pa.string()),
                             "matches": pa.array([], pa.int64())})
        return pa.Table.from_pandas(best[["id_a", "id_b", "matches"]],
                                    preserve_index=False).replace_schema_metadata(None)

    out = votes.groupby("pair_bucket").map_groups(
        combine, batch_format="pandas")
    # zero-row typed seed: an all-empty result keeps (id_a, id_b,
    # matches) instead of a schema-less Dataset (see dedup._with_schema_seed)
    import ray.data

    return ray.data.from_arrow(
        pa.table({"id_a": pa.array([], pa.string()),
                  "id_b": pa.array([], pa.string()),
                  "matches": pa.array([], pa.int64())})).union(out)


def fingerprint_lookup(landmarks, query_landmarks, *, min_matches: int = 12,
                       n_buckets: int = 64):
    """Query-by-example audio retrieval (the Shazam probe): find, for each
    of a SMALL set of query clips, every corpus clip sharing >=
    `min_matches` landmark hashes at one consistent time offset.

    The dual of `fingerprint_match_pairs`: dedup shuffles the corpus
    landmark table against itself; retrieval BROADCASTS the query
    landmarks (a few hundred rows per query clip) and probes them inside
    the corpus landmark scan, so the corpus side never shuffles at all —
    the only exchanged rows are per-(corpus clip, query, dt) partial vote
    counts, bounded by shared-hash candidates, never by corpus size. At
    100 TB this is the difference between an all-to-all exchange and a
    map-side semi-join: `ray.put` once, `np.searchsorted` per batch.

    `query_landmarks`: (clip_id, fp_hash, t1) rows for the query clips
    (run AudioFingerprinter over the query table — it is driver-small).
    Returns a lazy Dataset (query_id, clip_id, matches, dt): `matches` is
    the best same-offset vote count, `dt` its offset (corpus t1 - query
    t1). Self-matches surface with dt=0 when the query is in the corpus.
    """
    import pandas as pd
    import ray

    from ..state.sketches import hash_array

    if isinstance(query_landmarks, pa.Table):
        qdf = query_landmarks.to_pandas()
    else:
        qdf = query_landmarks
    q_names = sorted(qdf["clip_id"].unique().tolist())
    code_of = {n: i for i, n in enumerate(q_names)}
    qh = qdf["fp_hash"].to_numpy(np.int64)
    order = np.argsort(qh, kind="stable")
    qh = qh[order]
    qcode = qdf["clip_id"].map(code_of).to_numpy(np.int64)[order]
    qt = qdf["t1"].to_numpy(np.int64)[order]
    probe_ref = ray.put((qh, qcode, qt))

    GOLD = np.uint64(0x9E3779B97F4A7C15)

    def _empty_part() -> pa.Table:
        return pa.table({"clip_id": pa.array([], pa.string()),
                         "qcode": pa.array([], pa.int64()),
                         "dt": pa.array([], pa.int64()),
                         "votes": pa.array([], pa.int64()),
                         "bucket": pa.array([], pa.int64())})

    def probe(t: pa.Table, ref) -> pa.Table:
        qh_, qcode_, qt_ = ray.get(ref)   # zero-copy from the local store
        if t.num_rows == 0 or len(qh_) == 0:
            return _empty_part()
        h = t["fp_hash"].to_numpy(zero_copy_only=False).astype(np.int64)
        lo = np.searchsorted(qh_, h, side="left")
        hi = np.searchsorted(qh_, h, side="right")
        cnt = hi - lo
        rows = np.flatnonzero(cnt)
        if len(rows) == 0:
            return _empty_part()
        cnt_nz = cnt[rows]
        rep = np.repeat(rows, cnt_nz)
        first = np.concatenate(([0], np.cumsum(cnt_nz)[:-1]))
        qpos = (np.arange(int(cnt_nz.sum()), dtype=np.int64)
                - np.repeat(first, cnt_nz)) + np.repeat(lo[rows], cnt_nz)
        t1 = t["t1"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t["clip_id"].to_pandas()
        part = pd.DataFrame({
            "clip_id": ids.iloc[rep].to_numpy(),
            "qcode": qcode_[qpos],
            "dt": t1[rep] - qt_[qpos]}) \
            .groupby(["clip_id", "qcode", "dt"], sort=False) \
            .size().reset_index(name="votes")
        with np.errstate(over="ignore"):
            b = (hash_array(part["clip_id"])
                 ^ (part["qcode"].to_numpy(np.uint64) * GOLD))
        part["bucket"] = (b % np.uint64(n_buckets)).view(np.int64)
        return pa.Table.from_pandas(part, preserve_index=False).replace_schema_metadata(None)

    import functools

    votes = landmarks.map_batches(
        functools.partial(probe, ref=probe_ref), batch_format="pyarrow")

    name_arr = np.asarray(q_names, dtype=object)

    def combine(g: pd.DataFrame):
        empty = pa.table({"query_id": pa.array([], pa.string()),
                          "clip_id": pa.array([], pa.string()),
                          "matches": pa.array([], pa.int64()),
                          "dt": pa.array([], pa.int64())})
        if len(g) == 0:
            return empty
        s = g.groupby(["clip_id", "qcode", "dt"], sort=False)["votes"] \
            .sum().reset_index()
        # layout-invariant tie-break: best votes, then smallest dt
        s = s.sort_values(["clip_id", "qcode", "votes", "dt"],
                          ascending=[True, True, False, True])
        best = s.drop_duplicates(["clip_id", "qcode"], keep="first")
        best = best[best["votes"] >= min_matches]
        if not len(best):
            return empty
        return pa.table({
            "query_id": pa.array(
                name_arr[best["qcode"].to_numpy(np.int64)].tolist(),
                pa.string()),
            "clip_id": pa.array(best["clip_id"].tolist(), pa.string()),
            "matches": pa.array(best["votes"].to_numpy(np.int64)),
            "dt": pa.array(best["dt"].to_numpy(np.int64))})

    out = votes.groupby("bucket").map_groups(combine, batch_format="pandas")
    import ray.data

    # zero-row typed seed keeps (query_id, clip_id, matches, dt) on an
    # all-empty result (same convention as fingerprint_match_pairs /
    # dedup._with_schema_seed; Dataset.to_pandas() still drops columns
    # for fully-empty datasets — callers needing pandas rebuild there)
    hit_schema = pa.schema([("query_id", pa.string()),
                            ("clip_id", pa.string()),
                            ("matches", pa.int64()),
                            ("dt", pa.int64())])
    return ray.data.from_arrow(hit_schema.empty_table()).union(out)
