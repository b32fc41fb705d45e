"""Dedup + similarity functions against synthetic near-duplicates."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def near_dup_docs():
    """30 base docs + 5 near-duplicates (one word changed) + 2 exact dups."""
    rng = np.random.default_rng(3)
    vocab = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
             "lambda mu nu xi omicron pi rho sigma tau upsilon").split()
    texts = [" ".join(rng.choice(vocab, 30)) for _ in range(30)]
    near_pairs = []
    for i in range(5):
        w = texts[i].split()
        w[7] = "CHANGED"
        texts.append(" ".join(w))
        near_pairs.append((i, 30 + i))
    texts.append(texts[10])  # exact dup of 10
    texts.append(texts[11])
    return pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                     "text": pa.array(texts)}), near_pairs


def test_minhash_lsh_finds_neardups(ray_session):
    import ray.data as rd
    from jschon_ray.functions.dedup import minhash_lsh_pairs

    t, near_pairs = near_dup_docs()
    out = minhash_lsh_pairs(rd.from_arrow(t), "doc_id", "text",
                            threshold=0.5).to_pandas()
    got = set(zip(out["id_a"].astype(int), out["id_b"].astype(int)))
    for pair in near_pairs:
        assert pair in got, f"missed near-dup {pair}"
    assert (10, 35) in got and (11, 36) in got  # exact dups
    # no false positives among unrelated docs (jaccard verified)
    assert all(j >= 0.5 for j in out["jaccard"])


def test_simhash_finds_neardups(ray_session):
    import ray.data as rd
    from jschon_ray.functions.dedup import simhash_pairs, simhash_signatures

    t, near_pairs = near_dup_docs()
    sig = simhash_signatures(t["text"].to_pylist())
    assert sig[10] == sig[35]  # exact dup -> same signature
    out = simhash_pairs(rd.from_arrow(t), "doc_id", "text",
                        max_hamming=6).to_pandas()
    got = set(zip(out["id_a"].astype(int), out["id_b"].astype(int)))
    assert (10, 35) in got
    hit = sum(1 for p in near_pairs if p in got)
    assert hit >= 3  # simhash recall on 1-word edits


def test_exact_dedup(ray_session):
    import ray.data as rd
    from jschon_ray.functions.dedup import exact_dedup

    t, _ = near_dup_docs()
    kept = exact_dedup(rd.from_arrow(t), "doc_id", "text").to_pandas()
    n_distinct = len(set(t["text"].to_pylist()))
    assert len(kept) == n_distinct
    assert 35 not in set(kept["doc_id"])  # dup of 10 dropped
    assert 10 in set(kept["doc_id"])


def embeddings_with_dups(n=200, dim=32):
    rng = np.random.default_rng(7)
    m = rng.standard_normal((n, dim))
    m[50] = m[10] + 0.01 * rng.standard_normal(dim)  # near-dup pair (10, 50)
    m[60] = m[20]                                    # exact dup (20, 60)
    return pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([row.astype(np.float32) for row in m],
                              pa.list_(pa.float32())),
    })


def test_ann_topk_self_neighbor(ray_session):
    import ray.data as rd
    from jschon_ray.functions.similarity import _embedding_matrix, ann_topk

    t = embeddings_with_dups()
    q = {"ids": np.array([10, 20]),
         "matrix": _embedding_matrix(t.slice(10, 1), "embedding")}
    q["matrix"] = np.vstack([q["matrix"],
                             _embedding_matrix(t.slice(20, 1), "embedding")])
    out = ann_topk(rd.from_arrow(t), q, k=3).to_pandas()
    top10 = out[out.query_id == 10].sort_values("rank")
    assert top10.iloc[0]["neighbor_id"] == 10      # self first
    assert top10.iloc[1]["neighbor_id"] == 50      # near-dup second
    top20 = out[out.query_id == 20].sort_values("rank")
    assert set(top20.head(2)["neighbor_id"]) == {20, 60}


def test_embedding_neardup_exact_and_lsh(ray_session):
    import ray.data as rd
    from jschon_ray.functions.similarity import (
        embedding_neardup_exact,
        embedding_neardup_pairs,
    )

    t = embeddings_with_dups()
    exact = embedding_neardup_exact(rd.from_arrow(t), threshold=0.99)
    pairs = set(zip(exact["id_a"].astype(int), exact["id_b"].astype(int)))
    assert (10, 50) in pairs and (20, 60) in pairs

    lsh = embedding_neardup_pairs(rd.from_arrow(t), threshold=0.99,
                                  bands=8, planes_per_band=4)
    lp = set(zip(lsh["id_a"].astype(int), lsh["id_b"].astype(int)))
    assert (10, 50) in lp and (20, 60) in lp  # OR-amplified recall


def test_rolling_fingerprints():
    from jschon_ray.functions.text import rolling_fingerprints

    a = rolling_fingerprints("the quick brown fox jumps over the lazy dog " * 5)
    b = rolling_fingerprints("the quick brown fox jumps over the lazy dog " * 5)
    assert a == b and len(a) > 0
    c = rolling_fingerprints("completely different content here " * 5)
    overlap = len(set(a) & set(c)) / max(1, len(set(a)))
    assert overlap < 0.2


def test_ngram_jaccard_exact_vs_bruteforce(ray_session):
    """Distributed inverted-index join == brute-force all-pairs Jaccard."""
    import ray.data as rd
    from jschon_ray.functions.dedup import (_word_shingles, jaccard,
                                            ngram_jaccard_pairs)

    t, _ = near_dup_docs()
    out = ngram_jaccard_pairs(rd.from_arrow(t), "doc_id", "text",
                              threshold=0.4).to_pandas()
    texts = t["text"].to_pylist()
    sets = [set(_word_shingles(x, 3)) for x in texts]
    expect = {}
    for a in range(len(texts)):
        for b in range(a + 1, len(texts)):
            j = jaccard(sets[a], sets[b])
            if j >= 0.4 and sets[a] & sets[b]:
                expect[(a, b)] = j
    got = {(int(a), int(b)): j for a, b, j in
           zip(out["id_a"], out["id_b"], out["jaccard"])}
    assert got == pytest.approx(expect)
    # exact set algebra carried through the shuffle
    for (a, b), row in zip(zip(out["id_a"], out["id_b"]),
                           out[["inter", "uni"]].itertuples(index=False)):
        assert row.inter == len(sets[a] & sets[b])
        assert row.uni == len(sets[a] | sets[b])


def test_ngram_jaccard_max_df_drops_hot_shingles(ray_session):
    import ray.data as rd
    from jschon_ray.functions.dedup import ngram_jaccard_pairs

    # every doc shares the hot shingle; only 0/1 share a rare one too
    texts = ["common hot shingle only " + str(i) for i in range(6)]
    texts[1] = texts[0]
    t = pa.table({"doc_id": pa.array(range(6), pa.int64()),
                  "text": pa.array(texts)})
    full = ngram_jaccard_pairs(rd.from_arrow(t), "doc_id", "text",
                               threshold=0.05).to_pandas()
    capped = ngram_jaccard_pairs(rd.from_arrow(t), "doc_id", "text",
                                 threshold=0.05, max_df=3).to_pandas()
    assert len(full) == 15          # all pairs share the hot prefix
    assert len(capped) < len(full)  # hot postings dropped


def test_ann_topk_ivf_exact_when_probing_all(ray_session):
    """nprobe == n_centroids degenerates to the exact scan, bit-for-bit."""
    import pandas as pd
    import ray.data as rd
    from jschon_ray.functions.similarity import (_embedding_matrix,
                                                 ann_topk, ann_topk_ivf)

    t = embeddings_with_dups()
    q = {"ids": np.array([10, 20, 77]),
         "matrix": np.vstack([_embedding_matrix(t.slice(i, 1), "embedding")
                              for i in (10, 20, 77)])}
    exact = ann_topk(rd.from_arrow(t), q, k=5).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    ivf = ann_topk_ivf(rd.from_arrow(t), q, k=5, n_centroids=8,
                       nprobe=8).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(exact, ivf)


def test_ann_topk_ivf_pruned_recall(ray_session):
    """Pruned probing keeps high recall on clustered data and the probed
    cell always contains the query's own (and near-dup) vectors."""
    import ray.data as rd
    from jschon_ray.functions.similarity import (_embedding_matrix,
                                                 ann_topk, ann_topk_ivf)

    t = embeddings_with_dups(n=300)
    ids = [10, 20, 150]
    q = {"ids": np.array(ids),
         "matrix": np.vstack([_embedding_matrix(t.slice(i, 1), "embedding")
                              for i in ids])}
    exact = ann_topk(rd.from_arrow(t), q, k=5).to_pandas()
    ivf = ann_topk_ivf(rd.from_arrow(t), q, k=5, n_centroids=10,
                       nprobe=4).to_pandas()
    # self + near-dup live in the query's own probed cell
    got10 = ivf[ivf.query_id == 10].sort_values("rank")
    assert got10.iloc[0]["neighbor_id"] == 10
    assert 50 in set(got10["neighbor_id"])
    recall = len(set(map(tuple, ivf[["query_id", "neighbor_id"]].values)) &
                 set(map(tuple, exact[["query_id", "neighbor_id"]].values))) \
        / len(exact)
    assert recall >= 0.6, recall


def _lev_ref(a: str, b: str) -> int:
    """Plain O(len*len) reference Levenshtein for kernel validation."""
    la, lb = len(a), len(b)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[lb]


def test_lev_kernels_match_reference():
    from jschon_ray.functions.dedup import _lev_pairs, _lev_vec

    rng = np.random.default_rng(11)
    alpha = list("abcde ")
    pairs = []
    for _ in range(60):
        la, lb = rng.integers(0, 14, 2)
        pairs.append(("".join(rng.choice(alpha, la)),
                      "".join(rng.choice(alpha, lb))))
    pairs += [("", ""), ("", "abc"), ("abc", ""), ("same", "same")]
    ref = np.array([_lev_ref(a, b) for a, b in pairs])
    got = _lev_pairs([a for a, _ in pairs], [b for _, b in pairs])
    np.testing.assert_array_equal(got, ref)
    # capped batch kernel: exact below cap, cap+1 above
    capped = _lev_pairs([a for a, _ in pairs], [b for _, b in pairs], cap=3)
    np.testing.assert_array_equal(capped, np.where(ref <= 3, ref, 4))
    for (a, b), r in zip(pairs, ref):
        one = _lev_vec(a, b, cap=20)
        assert one == r, (a, b, one, r)
        assert _lev_vec(a, b, cap=2) == (r if r <= 2 else None)


def test_editdist_blocked_pairs_vs_bruteforce(ray_session):
    """End-to-end blocked join equals a brute-force scan restricted to
    the same block key (word count + first word), incl. exact dups,
    a null and an empty transcript, and min-dist over duplicate ids."""
    import ray.data as rd
    from jschon_ray.functions.dedup import editdist_blocked_pairs

    texts = ["the cat sat on mat", "the cat sat on hat",   # dist 1
             "the cat sat on mat",                          # exact dup
             "the dog sat on mat",                          # dist 1/2
             "a cat sat on mat",                            # different w1
             "the cat sat on a mat",                        # different n
             "zz yy xx ww vv", None, ""]
    ids = [f"c{i}" for i in range(len(texts))]
    t = pa.table({"clip_id": pa.array(ids), "transcript": pa.array(texts)})
    out = editdist_blocked_pairs(rd.from_arrow(t), "clip_id", "transcript",
                                 max_dist=4).to_pandas()
    got = {(r.id_a, r.id_b): r.dist for r in out.itertuples()}

    # brute force with identical block semantics
    exp = {}
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            a, b = texts[i], texts[j]
            if not a or not b:
                continue
            wa, wb = a.split(" "), b.split(" ")
            if len(wa) != len(wb) or wa[0] != wb[0]:
                continue
            d = _lev_ref(a, b)
            if d <= 4:
                key = tuple(sorted((ids[i], ids[j])))
                exp[key] = min(d, exp.get(key, 99))
    assert got == exp, (got, exp)


def test_cross_doc_dup_ngrams(ray_session):
    """Per-doc dup-gram counts vs a brute-force dictionary, incl. a
    short doc (< k words, emits nothing) and null text."""
    import ray.data as rd
    from jschon_ray.functions.dedup import cross_doc_dup_ngrams

    texts = ["a b c d e f g",        # grams abcde bcdef cdefg
             "x a b c d e y",        # shares abcde
             "p q r s t",            # unique gram pqrst
             "p q r s t u",          # shares pqrst
             "tiny doc", None]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    out = cross_doc_dup_ngrams(rd.from_arrow(t), "doc_id", "text",
                               k=5).to_pandas().set_index("doc_id")

    from collections import Counter
    df = Counter()
    per_doc = {}
    for i, txt in enumerate(texts):
        w = txt.split() if txt else []
        if len(w) < 5:
            continue
        grams = {" ".join(w[j:j + 5]) for j in range(len(w) - 4)}
        per_doc[i] = grams
        df.update(grams)
    for i, grams in per_doc.items():
        assert out.loc[i, "n_grams"] == len(grams)
        assert out.loc[i, "n_dup_grams"] == sum(df[g] >= 2 for g in grams)
    assert set(out.index) == set(per_doc)


def test_dedup_keep_canonical(ray_session):
    import ray.data as rd
    from jschon_ray.functions.dedup import dedup_keep_canonical

    corpus = pa.table({"doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64())})
    cc = pa.table({"node": pa.array([2, 3, 5], pa.int64()),
                   "component": pa.array([2, 2, 5], pa.int64())})
    out = dedup_keep_canonical(rd.from_arrow(corpus), rd.from_arrow(cc),
                               "doc_id").to_pandas()
    # 3 removed (non-canonical in cluster {2,3}); 5 canonical survives
    assert sorted(out["doc_id"]) == [1, 2, 4, 5, 6]


def test_dedup_keep_canonical_shuffle_matches_broadcast(ray_session):
    """The anti-join shuffle mode (no broadcast of the removal set) is
    row-identical to the broadcast mode, payload columns intact."""
    import ray.data as rd
    from jschon_ray.functions.dedup import dedup_keep_canonical

    n = 500
    ids = np.arange(n, dtype=np.int64)
    corpus = pa.table({
        "doc_id": pa.array(ids),
        "text": pa.array([f"doc-{i}" for i in ids]),
        "score": pa.array((ids % 7).astype(np.float64)),
    })
    # clusters {0..9 -> 0}, {100,101 -> 100}, singleton rest
    node = np.concatenate([np.arange(10), [100, 101]]).astype(np.int64)
    comp = np.concatenate([np.zeros(10), [100, 100]]).astype(np.int64)
    cc = pa.table({"node": pa.array(node), "component": pa.array(comp)})

    base = dedup_keep_canonical(
        rd.from_arrow(corpus), rd.from_arrow(cc), "doc_id") \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    shuf = dedup_keep_canonical(
        rd.from_arrow(corpus), rd.from_arrow(cc), "doc_id",
        mode="shuffle", num_buckets=8) \
        .to_pandas()[base.columns].sort_values("doc_id") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(base, shuf)
    removed = set(node[node != comp])
    assert set(shuf["doc_id"]) == set(ids) - removed
    # string-keyed corpus goes through the string hash path
    scorpus = pa.table({"k": pa.array([f"k{i}" for i in range(40)]),
                        "v": pa.array(np.arange(40, dtype=np.int64))})
    scc = pa.table({"node": pa.array(["k3", "k4"]),
                    "component": pa.array(["k3", "k3"])})
    sout = dedup_keep_canonical(rd.from_arrow(scorpus), rd.from_arrow(scc),
                                "k", mode="shuffle",
                                num_buckets=4).to_pandas()
    assert set(sout["k"]) == {f"k{i}" for i in range(40)} - {"k4"}


def test_ivf_persisted_index_exact_when_probing_all(ray_session, tmp_path):
    """A saved index probed exhaustively reproduces the exact scan."""
    import pandas as pd
    import ray.data as rd
    from jschon_ray.functions.similarity import (_embedding_matrix,
                                                 ann_topk,
                                                 ann_topk_ivf_from_index,
                                                 build_ivf_index)

    t = embeddings_with_dups()
    idx = str(tmp_path / "ivf")
    manifest = build_ivf_index(rd.from_arrow(t), idx, n_centroids=8)
    assert manifest["n_centroids"] == 8

    q = {"ids": np.array([10, 20, 77]),
         "matrix": np.vstack([_embedding_matrix(t.slice(i, 1), "embedding")
                              for i in (10, 20, 77)])}
    exact = ann_topk(rd.from_arrow(t), q, k=5).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    got = ann_topk_ivf_from_index(idx, q, k=5, nprobe=8).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(exact, got)


def test_ivf_build_rerun_over_crashed_build_is_exact(ray_session,
                                                     tmp_path):
    """A killed build leaves cell parts WITHOUT a manifest; rerunning
    the build into the same index_dir must REPLACE them (appending
    would silently double every row in the probed cells). Also pins
    the sorted-cell layout: one part file per contiguous cell run, not
    O(write_tasks x cells)."""
    import os

    import pandas as pd
    import ray.data as rd
    from jschon_ray.functions.similarity import (_embedding_matrix,
                                                 ann_topk,
                                                 ann_topk_ivf_from_index,
                                                 build_ivf_index)

    t = embeddings_with_dups()
    idx = str(tmp_path / "ivf_crash")
    # simulate the crashed earlier build: stale parts, no manifest
    os.makedirs(os.path.join(idx, "cells", "cell=0"))
    with open(os.path.join(idx, "cells", "cell=0",
                           "stale.parquet"), "wb") as f:
        f.write(b"torn")
    build_ivf_index(rd.from_arrow(t), idx, n_centroids=8)

    n_files = sum(len(fs) for _, _, fs in
                  os.walk(os.path.join(idx, "cells")))
    assert n_files <= 64            # sorted layout, no stale survivors

    q = {"ids": np.array([10, 20, 77]),
         "matrix": np.vstack([_embedding_matrix(t.slice(i, 1),
                                                "embedding")
                              for i in (10, 20, 77)])}
    exact = ann_topk(rd.from_arrow(t), q, k=5).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    got = ann_topk_ivf_from_index(idx, q, k=5, nprobe=8).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(exact, got)
    # row accounting is exact (duplicated parts would inflate this)
    import json as _json
    with open(os.path.join(idx, "manifest.json")) as f:
        counts = _json.load(f)["cell_counts"]
    assert sum(counts.values()) == t.num_rows

    # rebuild-over-complete-index crash safety: preparing a new build
    # invalidates the manifest FIRST, so a crash mid-rebuild leaves the
    # dir visibly incomplete (readers fail loudly on the missing
    # manifest) instead of serving the OLD manifest over NEW/empty
    # cells
    from jschon_ray.functions.similarity import _fresh_build_dir
    _fresh_build_dir(idx, "cells")     # simulate build #2 up to the
    assert not os.path.exists(         # crash point
        os.path.join(idx, "manifest.json"))
    with pytest.raises(Exception):
        ann_topk_ivf_from_index(idx, q, k=5, nprobe=8)


def test_ivf_persisted_index_pruned_recall_and_read(ray_session, tmp_path):
    """Pruned probing from the saved index keeps recall AND provably
    skips unprobed cell partitions at the read."""
    import os

    import ray.data as rd
    from jschon_ray.functions.similarity import (_embedding_matrix,
                                                 ann_topk,
                                                 ann_topk_ivf_from_index,
                                                 build_ivf_index)

    t = embeddings_with_dups(n=300)
    idx = str(tmp_path / "ivf")
    build_ivf_index(rd.from_arrow(t), idx, n_centroids=10)
    cells = sorted(os.listdir(os.path.join(idx, "cells")))
    assert len(cells) >= 5  # data actually spread over cells

    ids = [10, 20, 150]
    q = {"ids": np.array(ids),
         "matrix": np.vstack([_embedding_matrix(t.slice(i, 1), "embedding")
                              for i in ids])}
    exact = ann_topk(rd.from_arrow(t), q, k=5).to_pandas()
    got = ann_topk_ivf_from_index(idx, q, k=5, nprobe=3).to_pandas()
    recall = len(set(map(tuple, got[["query_id", "neighbor_id"]].values)) &
                 set(map(tuple, exact[["query_id", "neighbor_id"]].values))) \
        / len(exact)
    assert recall >= 0.6, recall
    # with 3 queries * nprobe 3 <= 9 probed cells of >= 10, at least one
    # partition must remain unread; verify the probe set is pruned
    import json

    import numpy as np_
    import pyarrow.parquet as pqt
    cent_t = pqt.read_table(os.path.join(idx, "centroids.parquet"))
    order = np_.argsort(cent_t["cell"].to_numpy(zero_copy_only=False))
    from jschon_ray.functions.similarity import _normalize
    cents = np_.vstack([np_.asarray(v, float)
                        for v in cent_t.take(order)["centroid"].to_pylist()])
    qm = _normalize(np_.asarray(q["matrix"], float))
    probe = np_.argsort(-(qm @ cents.T), axis=1)[:, :3]
    assert len(set(probe.ravel().tolist())) < len(cells)


def test_ivf_persisted_index_rebuild_reuses_layout(ray_session, tmp_path):
    """Index artifacts are self-describing: a second probe run needs only
    the directory (no retraining, no original dataset)."""
    import ray.data as rd
    from jschon_ray.functions.similarity import (_embedding_matrix,
                                                 ann_topk_ivf_from_index,
                                                 build_ivf_index)

    t = embeddings_with_dups()
    idx = str(tmp_path / "ivf")
    build_ivf_index(rd.from_arrow(t), idx, n_centroids=6)
    q = {"ids": np.array([5]),
         "matrix": _embedding_matrix(t.slice(5, 1), "embedding")}
    a = ann_topk_ivf_from_index(idx, q, k=3, nprobe=6).to_pandas()
    b = ann_topk_ivf_from_index(idx, q, k=3, nprobe=6).to_pandas()
    assert a.equals(b) and len(a) == 3


def test_semantic_dedup_drops_planted_dups(ray_session):
    """SemDeDup-shaped pruning: the near-dup (10,50) and exact-dup
    (20,60) pairs each lose their HIGHER id; everything else survives."""
    import ray.data as rd
    from jschon_ray.functions.similarity import semantic_dedup

    t = embeddings_with_dups(n=200)
    out = semantic_dedup(rd.from_arrow(t), n_clusters=8,
                         threshold=0.95).to_pandas()
    assert len(out) == 200
    kept = set(out[out.keep]["vec_id"])
    assert 10 in kept and 50 not in kept      # near-dup: lowest id wins
    assert 20 in kept and 60 not in kept      # exact dup
    # random gaussian vectors in 32-d are nowhere near cos>0.95
    assert len(kept) == 198


def test_semantic_dedup_deterministic_and_cluster_bounded(ray_session):
    import pytest as _pytest
    import ray.data as rd
    from jschon_ray.functions.similarity import semantic_dedup

    t = embeddings_with_dups(n=150)
    a = semantic_dedup(rd.from_arrow(t), n_clusters=6, threshold=0.95) \
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    b = semantic_dedup(rd.from_arrow(t), n_clusters=6, threshold=0.95) \
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert a.equals(b)
    with _pytest.raises(Exception, match="max_cluster"):
        semantic_dedup(rd.from_arrow(t), n_clusters=1, threshold=0.95,
                       max_cluster=10).to_pandas()


def test_pq_encode_compression_and_determinism(ray_session):
    import ray.data as rd
    from jschon_ray.functions.similarity import pq_encode, pq_train

    t = embeddings_with_dups(n=200, dim=32)
    ds = rd.from_arrow(t)
    books = pq_train(ds, m=8, n_codes=32, sample_frac=1.0, seed=5)
    assert books.shape == (8, 32, 4)
    a = pq_encode(ds, books).to_pandas().sort_values("vec_id")
    b = pq_encode(ds.repartition(7), books).to_pandas() \
        .sort_values("vec_id")
    # codes independent of partitioning; 8 bytes per row
    assert [list(x) for x in a["pq_code"]] == [list(x) for x in b["pq_code"]]
    assert all(len(c) == 8 for c in a["pq_code"])
    # exact-dup rows quantize to identical codes
    codes = {v: list(c) for v, c in zip(a["vec_id"], a["pq_code"])}
    assert codes[20] == codes[60]


def test_pq_ann_recall_and_rerank_exact(ray_session):
    import pandas as pd
    import ray.data as rd
    from jschon_ray.functions.similarity import (_embedding_matrix, ann_topk,
                                                 pq_ann_topk,
                                                 pq_ann_topk_rerank,
                                                 pq_encode, pq_train)

    t = embeddings_with_dups(n=300, dim=32)
    ds = rd.from_arrow(t)
    ids = [10, 20, 150]
    q = {"ids": np.array(ids),
         "matrix": np.vstack([_embedding_matrix(t.slice(i, 1), "embedding")
                              for i in ids])}
    exact = ann_topk(ds, q, k=5).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    books = pq_train(ds, m=16, n_codes=64, sample_frac=1.0, seed=5)
    codes = pq_encode(ds, books).materialize()
    # ADC-only: self + exact-dup always recovered, recall@5 >= 0.6
    adc = pq_ann_topk(codes, q, books, k=5).to_pandas()
    assert adc[adc.query_id == 20].iloc[0]["neighbor_id"] in (20, 60)
    rec = []
    for qid in ids:
        e = set(exact[exact.query_id == qid]["neighbor_id"])
        rec.append(len(e & set(adc[adc.query_id == qid]["neighbor_id"]))
                   / len(e))
    assert np.mean(rec) >= 0.6, rec
    # shortlist + exact rerank: bit-identical to the exact scan
    rr = pq_ann_topk_rerank(codes, ds, q, books, k=5, shortlist=60) \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(exact, rr, check_dtype=False)


def test_ivfpq_exact_when_probing_all(ray_session, tmp_path):
    """Exhaustive probe + covering shortlist + exact rerank reproduces
    the exact scan bit-for-bit from a persisted IVF-PQ index."""
    import pandas as pd
    import ray.data as rd
    from jschon_ray.functions.similarity import (_embedding_matrix,
                                                 ann_topk, ann_topk_ivfpq,
                                                 build_ivfpq_index)

    t = embeddings_with_dups(n=300, dim=32)
    ds = rd.from_arrow(t)
    ids = [10, 20, 150]
    q = {"ids": np.array(ids),
         "matrix": np.vstack([_embedding_matrix(t.slice(i, 1), "embedding")
                              for i in ids])}
    exact = ann_topk(ds, q, k=5).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    man = build_ivfpq_index(ds, str(tmp_path), n_centroids=8, m=8,
                            n_codes=32,
                            train_kwargs=dict(sample_frac=1.0, seed=5))
    assert man["pq_m"] == 8 and man["n_centroids"] == 8
    got = ann_topk_ivfpq(str(tmp_path), q, k=5, nprobe=8, shortlist=60) \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(exact, got, check_dtype=False)


def test_ivfpq_pruned_reads_and_recall(ray_session, tmp_path):
    """Pruned probing reads only probed cell partitions in BOTH phases
    and keeps usable recall; ADC-only mode works without raw cells."""
    import os
    import ray.data as rd
    from jschon_ray.functions.similarity import (_cell_files,
                                                 _embedding_matrix,
                                                 ann_topk, ann_topk_ivfpq,
                                                 build_ivfpq_index)

    t = embeddings_with_dups(n=400, dim=32)
    ds = rd.from_arrow(t)
    ids = [10, 20]
    q = {"ids": np.array(ids),
         "matrix": np.vstack([_embedding_matrix(t.slice(i, 1), "embedding")
                              for i in ids])}
    build_ivfpq_index(ds, str(tmp_path), n_centroids=8, m=8, n_codes=32,
                      train_kwargs=dict(sample_frac=1.0, seed=5))
    # cell partitions exist for both layouts
    all_cells = sorted(int(d.split("=")[1]) for d in
                       os.listdir(tmp_path / "codes") if "=" in d)
    assert len(all_cells) >= 4
    some = all_cells[:2]
    assert len(_cell_files(str(tmp_path), "codes", some)) \
        < len(_cell_files(str(tmp_path), "codes", all_cells))
    exact = ann_topk(ds, q, k=5).to_pandas()
    adc = ann_topk_ivfpq(str(tmp_path), q, k=5, nprobe=4, rerank=False)
    rec = []
    for qid in ids:
        e = set(exact[exact.query_id == qid]["neighbor_id"])
        rec.append(len(e & set(adc[adc.query_id == qid]["neighbor_id"]))
                   / len(e))
    assert np.mean(rec) >= 0.5, rec
    # self/exact-dup always lands in the probed cell and survives ADC
    assert adc[adc.query_id == 20].iloc[0]["neighbor_id"] in (20, 60)


def test_ivf_index_incremental_append(ray_session, tmp_path):
    """Append new vectors to a persisted index without retraining:
    exhaustive probes over the appended index reproduce the exact scan
    over old+new, and the balance report counts every row."""
    import pandas as pd
    import ray.data as rd
    from jschon_ray.functions.similarity import (_embedding_matrix,
                                                 ann_topk,
                                                 ann_topk_ivf_from_index,
                                                 append_to_ivf_index,
                                                 build_ivf_index)

    t = embeddings_with_dups()
    half = t.num_rows // 2
    old, new = t.slice(0, half), t.slice(half)
    idx = str(tmp_path / "ivf")
    build_ivf_index(rd.from_arrow(old), idx, n_centroids=8)

    stats = append_to_ivf_index(rd.from_arrow(new), idx)
    assert stats["n_appended"] == new.num_rows
    assert sum(stats["cell_counts"].values()) == t.num_rows
    assert stats["imbalance"] >= 1.0

    q = {"ids": np.array([10, 77]),
         "matrix": np.vstack(
             [_embedding_matrix(t.slice(i, 1), "embedding")
              for i in (10, 77)])}
    exact = ann_topk(rd.from_arrow(t), q, k=5).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    got = ann_topk_ivf_from_index(idx, q, k=5, nprobe=8).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(exact, got)


def _queries_from(t, ids):
    from jschon_ray.functions.similarity import _embedding_matrix

    return {"ids": np.array(ids),
            "matrix": np.vstack([_embedding_matrix(t.slice(i, 1),
                                                   "embedding")
                                 for i in ids])}


def test_ann_index_unified_surface(ray_session, tmp_path):
    """AnnIndex: ONE build/append/probe entry point across ivf, ivfpq
    and pq — full-probe (covering) results are bit-identical to the
    exact scan for every kind."""
    import ray.data as rd
    from jschon_ray.functions.similarity import AnnIndex, ann_topk

    t = embeddings_with_dups(n=240)
    q = _queries_from(t, [10, 20, 77])
    exact = ann_topk(rd.from_arrow(t), q, k=5).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    exact["rank"] = exact["rank"].astype("int64")

    ivf = AnnIndex.build(rd.from_arrow(t), str(tmp_path / "ivf"),
                         kind="ivf", n_centroids=8)
    pd.testing.assert_frame_equal(ivf.probe(q, k=5, nprobe=8), exact)
    assert AnnIndex(str(tmp_path / "ivf")).kind == "ivf"

    ivfpq = AnnIndex.build(rd.from_arrow(t), str(tmp_path / "ivfpq"),
                           kind="ivfpq", n_centroids=8, m=16,
                           train_kwargs=dict(sample_frac=1.0))
    pd.testing.assert_frame_equal(
        ivfpq.probe(q, k=5, nprobe=8, shortlist=240), exact)

    pq_idx = AnnIndex.build(rd.from_arrow(t), str(tmp_path / "pq"),
                            kind="pq", m=16,
                            train_kwargs=dict(sample_frac=1.0))
    got = pq_idx.probe(q, k=5, shortlist=240,
                       rerank_ds=rd.from_arrow(t))
    pd.testing.assert_frame_equal(got, exact)


def test_ann_index_append_and_rebuild_policy(ray_session, tmp_path):
    """append() with frozen centroids: old+new rows probed identically
    to a one-shot build's exact scan; the manifest carries per-cell
    counts and the documented imbalance/needs_rebuild policy works."""
    import ray.data as rd
    from jschon_ray.functions.similarity import AnnIndex, ann_topk

    t = embeddings_with_dups(n=240)
    half = t.num_rows // 2
    idx = AnnIndex.build(rd.from_arrow(t.slice(0, half)),
                         str(tmp_path / "app"), kind="ivf",
                         n_centroids=8)
    stats = idx.append(rd.from_arrow(t.slice(half)))
    assert stats["n_appended"] == t.num_rows - half
    assert stats["imbalance"] >= 1.0
    assert sum(stats["cell_counts"].values()) == t.num_rows
    assert isinstance(idx.needs_rebuild(), bool)
    assert idx.needs_rebuild(threshold=0.5)   # any index exceeds 0.5

    q = _queries_from(t, [10, 200])
    exact = ann_topk(rd.from_arrow(t), q, k=5).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    exact["rank"] = exact["rank"].astype("int64")
    pd.testing.assert_frame_equal(idx.probe(q, k=5, nprobe=8), exact)


def test_ann_index_append_auto_rebuild(ray_session, tmp_path):
    """A skewed append that blows past the imbalance threshold triggers
    the automated rebuild (append(auto_rebuild=True)): the index
    retrains over its own raw cells, imbalance collapses back toward
    balanced, and probes on the rebuilt layout still return the exact
    neighbors (recall preserved through the swap)."""
    import ray.data as rd
    from jschon_ray.functions.similarity import AnnIndex, ann_topk

    t = embeddings_with_dups(n=240)
    half = t.num_rows // 2
    idx = AnnIndex.build(rd.from_arrow(t.slice(0, half)),
                         str(tmp_path / "auto"), kind="ivf",
                         n_centroids=8)

    # skewed drift: every appended vector near ONE existing point, so
    # frozen-centroid assignment piles them into a single cell
    base = np.asarray(t["embedding"].to_pylist()[3], np.float64)
    rng = np.random.default_rng(5)
    skew = base[None, :] + 0.01 * rng.standard_normal((400, len(base)))
    emb_type = t.schema.field("embedding").type
    app = pa.table({
        "vec_id": pa.array(np.arange(10_000, 10_400, dtype=np.int64)),
        "embedding": pa.array(
            list(skew.astype(np.float32)), emb_type)})

    stats = idx.append(rd.from_arrow(app), auto_rebuild=True,
                       rebuild_threshold=2.0)
    assert stats["rebuilt"] is True
    assert stats["imbalance_before_rebuild"] > 2.0
    assert stats["imbalance"] < stats["imbalance_before_rebuild"]
    assert idx.imbalance() == stats["imbalance"]
    # all rows survived the swap
    assert sum(int(v) for v in
               idx.manifest["cell_counts"].values()) == half + 400

    # recall preserved: covering probe == exact scan over old+new rows
    both = pa.concat_tables([t.slice(0, half), app])
    q = _queries_from(both, [10, half + 50])
    q["ids"] = np.array([int(both["vec_id"][10].as_py()),
                         int(both["vec_id"][half + 50].as_py())])
    exact = ann_topk(rd.from_arrow(both), q, k=5).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    exact["rank"] = exact["rank"].astype("int64")
    pd.testing.assert_frame_equal(idx.probe(q, k=5, nprobe=8), exact)


def test_ann_index_append_no_trigger_stays_put(ray_session, tmp_path):
    """A balanced append under the threshold must NOT rebuild."""
    import ray.data as rd
    from jschon_ray.functions.similarity import AnnIndex

    t = embeddings_with_dups(n=240)
    half = t.num_rows // 2
    idx = AnnIndex.build(rd.from_arrow(t.slice(0, half)),
                         str(tmp_path / "noauto"), kind="ivf",
                         n_centroids=8)
    stats = idx.append(rd.from_arrow(t.slice(half)), auto_rebuild=True,
                       rebuild_threshold=50.0)
    assert stats["rebuilt"] is False
    assert not os.path.exists(str(tmp_path / "noauto") + ".rebuild")


def test_ann_index_ivfpq_append_codes_searchable(ray_session, tmp_path):
    """ivfpq append encodes the appended rows with the FROZEN codebooks
    so the ADC phase sees them: a query vector appended after build
    must return itself as top-1."""
    import ray.data as rd
    from jschon_ray.functions.similarity import AnnIndex

    t = embeddings_with_dups(n=240)
    half = t.num_rows // 2
    idx = AnnIndex.build(rd.from_arrow(t.slice(0, half)),
                         str(tmp_path / "apq"), kind="ivfpq",
                         n_centroids=8, m=16,
                         train_kwargs=dict(sample_frac=1.0))
    idx.append(rd.from_arrow(t.slice(half)))
    appended_id = half + 5
    q = _queries_from(t, [appended_id])
    got = idx.probe(q, k=3, nprobe=8, shortlist=240)
    assert got.iloc[0]["neighbor_id"] == appended_id   # self is top-1


def test_ann_index_pq_recall_at_nprobe_below_k(ray_session, tmp_path):
    """Pruned probing with nprobe < k on the PQ path (ivfpq): clustered
    data keeps recall@k high because a query's own cell holds its true
    neighbors. The VERDICT-required nprobe<k recall check."""
    import ray.data as rd
    from jschon_ray.functions.similarity import AnnIndex, ann_topk

    # 6 tight clusters of 40 vectors each: true top-k of any member is
    # inside its own cluster
    rng = np.random.default_rng(42)
    centers = rng.standard_normal((6, 32)) * 10
    rows = []
    for c in range(6):
        rows.append(centers[c] + 0.05 * rng.standard_normal((40, 32)))
    m = np.concatenate(rows)
    t = pa.table({
        "vec_id": pa.array(range(len(m)), pa.int64()),
        "embedding": pa.array([r.astype(np.float32) for r in m],
                              pa.list_(pa.float32()))})
    idx = AnnIndex.build(rd.from_arrow(t), str(tmp_path / "rc"),
                         kind="ivfpq", n_centroids=6, m=16,
                         train_kwargs=dict(sample_frac=1.0))
    ids = [0, 45, 123, 201]
    q = _queries_from(t, ids)
    exact = ann_topk(rd.from_arrow(t), q, k=5).to_pandas()
    got = idx.probe(q, k=5, nprobe=2, shortlist=80)   # nprobe=2 < k=5
    hits = tot = 0
    for qid in ids:
        e = set(exact[exact.query_id == qid]["neighbor_id"])
        g = set(got[got.query_id == qid]["neighbor_id"])
        hits += len(e & g)
        tot += len(e)
    assert hits / tot >= 0.9, f"recall@5 {hits/tot:.2f} at nprobe=2"


def _tie_paths(ds, q, k, tmp_path):
    from jschon_ray.functions.similarity import (ann_topk, ann_topk_ivf,
                                                 ann_topk_ivf_from_index,
                                                 ann_topk_ivfpq,
                                                 build_ivf_index,
                                                 build_ivfpq_index,
                                                 pq_ann_topk, pq_encode,
                                                 pq_train)

    def from_index():
        build_ivf_index(ds, str(tmp_path), n_centroids=4)
        return ann_topk_ivf_from_index(str(tmp_path), q, k=k, nprobe=4)

    def flat_pq():
        books = pq_train(ds, m=4, n_codes=8, sample_frac=1.0)
        return pq_ann_topk(pq_encode(ds, books), q, books, k=k)

    def ivfpq():
        build_ivfpq_index(ds, str(tmp_path), n_centroids=4, m=4,
                          n_codes=8, train_kwargs=dict(sample_frac=1.0))
        return ann_topk_ivfpq(str(tmp_path), q, k=k, nprobe=4,
                              rerank=False)

    return {"ann_topk": lambda: ann_topk(ds, q, k=k),
            "ann_topk_ivf": lambda: ann_topk_ivf(ds, q, k=k, n_centroids=4,
                                                 nprobe=4),
            "ann_topk_ivf_from_index": from_index,
            "pq_ann_topk": flat_pq,
            "ann_topk_ivfpq": ivfpq}


@pytest.mark.parametrize("path", ["ann_topk", "ann_topk_ivf",
                                  "ann_topk_ivf_from_index", "pq_ann_topk",
                                  "ann_topk_ivfpq"])
def test_ann_ties_at_kth_keep_smallest_ids(ray_session, tmp_path, path):
    """More than k rows of one block tie at the k-th similarity: every ANN
    path keeps the smallest ids, as the oracle's ORDER BY sim DESC, id
    does. The tied rows come in descending id order, so a selection that
    keeps whichever tied rows it meets first returns the largest ids."""
    import ray.data as rd

    rng = np.random.default_rng(13)
    v = rng.standard_normal(32)
    v /= np.linalg.norm(v)
    dup_ids = np.arange(30, 18, -1)                 # 12 copies of v
    others = rng.standard_normal((19, 32)) - 3 * v  # far from v
    m = np.vstack([np.tile(v, (len(dup_ids), 1)), others])
    t = pa.table({
        "vec_id": pa.array(np.concatenate([dup_ids, np.arange(19)]),
                           pa.int64()),
        "embedding": pa.array([r.astype(np.float32) for r in m],
                              pa.list_(pa.float32()))})
    q = _queries_from(t, [0])
    out = _tie_paths(rd.from_arrow(t), q, 3, tmp_path)[path]()
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    got = out.sort_values("rank")["neighbor_id"].tolist()
    assert got == [19, 20, 21], got


def test_segment_dedup_counts_vs_bruteforce(ray_session):
    """Corpus-wide segment (10-word line) dedup counts match a pure-Python
    count over the same segmentation — including an in-document repeat,
    a cross-document repeat, and short-tail segments."""
    import ray.data as rd
    from jschon_ray.functions.dedup import segment_dedup_counts

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(30)]
    docs = []
    for i in range(12):
        n = int(rng.integers(3, 35))
        docs.append(" ".join(rng.choice(vocab, n)))
    shared = " ".join(rng.choice(vocab, 10))
    docs[2] = shared + " " + docs[2]          # cross-doc repeat...
    docs[7] = shared + " " + docs[7]          # ...lands in two docs
    docs[4] = shared + " " + shared           # in-doc repeat, aligned

    # brute force over the identical segmentation
    from collections import Counter
    seg_lists = []
    for d in docs:
        ws = d.split(" ")
        seg_lists.append([" ".join(ws[j:j + 10])
                          for j in range(0, len(ws), 10)])
    freq = Counter(s for segs in seg_lists for s in segs)
    want = {i: (len(segs), sum(1 for s in segs if freq[s] >= 2))
            for i, segs in enumerate(seg_lists)}

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array(docs)})).repartition(4)
    got = segment_dedup_counts(ds, id_col="doc_id", col="text",
                               seg_words=10, num_buckets=8).to_pandas()
    got = got.set_index("doc_id").sort_index()
    assert len(got) == len(docs)
    for i in range(len(docs)):
        assert (got.loc[i, "n_segs"], got.loc[i, "n_dup_segs"]) == want[i], i


def test_ann_index_rebuild_crash_window_recovery(ray_session, tmp_path):
    """The rebuild swap's two renames are not atomic; opening an index
    whose dir vanished mid-swap recovers the complete layout — fresh
    preferred, else the old one restored."""
    import shutil

    import ray.data as rd
    from jschon_ray.functions.similarity import AnnIndex

    t = embeddings_with_dups(n=120)
    base = str(tmp_path / "crashy")
    idx = AnnIndex.build(rd.from_arrow(t), base, kind="ivf",
                         n_centroids=4)
    q = _queries_from(t, [3])
    want = idx.probe(q, k=3, nprobe=4)

    # crash AFTER rename(index_dir -> .old), BEFORE rename(.rebuild ->
    # index_dir), with a COMPLETE fresh layout waiting
    shutil.copytree(base, base + ".rebuild")
    os.rename(base, base + ".old")
    rec = AnnIndex(base)                       # recovers the fresh dir
    pd.testing.assert_frame_equal(rec.probe(q, k=3, nprobe=4), want)
    assert not os.path.exists(base + ".rebuild")
    shutil.rmtree(base + ".old")    # recovery keeps .old (data-safe);
                                    # the next rebuild clears it

    # crash with an INCOMPLETE fresh layout: fall back to .old
    os.rename(base, base + ".old")
    os.makedirs(base + ".rebuild")             # no manifest inside
    rec2 = AnnIndex(base)
    pd.testing.assert_frame_equal(rec2.probe(q, k=3, nprobe=4), want)


@pytest.mark.parametrize("query", ["q_minhash_lsh_docs", "q_simhash_docs"])
def test_pair_queries_emit_one_schema(ray_session, query):
    """Every output block of the pairs-only queries carries (id_a, id_b):
    the zero-row schema seed included, which a select_columns after the
    seed used to leave with its score column."""
    import ray
    from ray.data.block import BlockAccessor

    from jschon_ray.pipelines import queries as Q

    ds = getattr(Q, query)("/root/testdata/sf0.001")
    schemas = set()
    for bundle in ds.iter_internal_ref_bundles():
        for ref, _meta in bundle.blocks:
            acc = BlockAccessor.for_block(ray.get(ref))
            # a shuffle partition with no groups yields a block with no
            # columns at all; it carries no schema to disagree with
            if acc.column_names():
                schemas.add(acc.schema())
    assert schemas == {pa.schema([("id_a", pa.int64()),
                                  ("id_b", pa.int64())])}
