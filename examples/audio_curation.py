"""End-to-end audio curation: the ASR-prep chain over one clip drop.

Composes the analysis-tier audio stages (stages/analysis.py) the way a
training-data pipeline would, each as a task/actor-pool `map_batches`
stage over zero-copy Arrow batches:

  1. codec sniff    — declared codec vs payload magic (no decode)
  2. QC gates       — clipping / silence / crest metrics + pass verdict
  3. trim           — cut leading/trailing dead air
  4. compress       — tame dynamic range (frame-level envelope)
  5. wav normalize  — canonical RIFF containers for downstream tools
  6. chunk          — fixed-length overlapping windows (bounded rows)
  7. features       — mel-mean embeddings over the chunks
  8. similarity     — exact cosine top-3 for the first 2 chunks

Run: PYTHONPATH=/root/repo python examples/audio_curation.py
(owns the Ray session via jschon_ray.runtime; library code never
starts Ray).
"""
import json

import numpy as np
import ray.data

from jschon_ray.functions.similarity import ann_topk
from jschon_ray.runtime import session
from jschon_ray.sources.clips import generate_clips
from jschon_ray.stages.analysis import (AudioChunker, AudioQC, Compressor,
                                        SilenceTrimmer, WavWriter)
from jschon_ray.stages.audio_ops import AudioResampler, MelSpectrogram
from jschon_ray.stages.taskpool import stage_fn


def main():
    out = {}

    clips = ray.data.from_arrow(generate_clips(600, seed=17))
    clips = clips.select_columns(["clip_id", "bytes", "sr_hz", "codec"])

    # 1. sniff: payloads whose magic contradicts the codec column
    import pyarrow as pa
    import pyarrow.compute as pc

    def sniff_mismatch(t: pa.Table) -> pa.Table:
        p4 = pc.binary_slice(t["bytes"].combine_chunks(), 0, 4)
        riff = pc.fill_null(pc.equal(p4, b"RIFF"), False)
        declared_wav = pc.fill_null(pc.equal(t["codec"], "wav"), False)
        bad = pc.xor(riff, declared_wav)
        return pa.table({"bad": bad})

    mm = clips.map_batches(sniff_mismatch, batch_format="pyarrow") \
        .filter(expr="bad == True").count()
    out["sniff_mismatches"] = mm

    # 2. QC -> keep only passing clips (payload kept for the chain)
    qc = clips.map_batches(stage_fn(AudioQC, keep_bytes=True),
                           batch_format="pyarrow")
    kept = qc.filter(expr="qc_pass == True") \
        .select_columns(["clip_id", "bytes", "sr_hz", "codec"])
    out["qc"] = {"in": 600, "kept": kept.count()}

    # 3-5. trim -> compress -> canonical wav
    prepped = kept.map_batches(stage_fn(SilenceTrimmer),
                               batch_format="pyarrow") \
        .map_batches(stage_fn(Compressor), batch_format="pyarrow") \
        .map_batches(stage_fn(WavWriter), batch_format="pyarrow")
    wav_ok = prepped.filter(expr="wav_ok == True") \
        .select_columns(["clip_id", "bytes", "sr_hz", "codec"]) \
        .materialize()
    out["prepped_wav"] = wav_ok.count()

    # 6. chunk into 100ms windows, 50ms hop
    chunks = wav_ok.map_batches(
        stage_fn(AudioChunker, chunk_ms=100, hop_ms=50),
        batch_format="pyarrow")

    # 7. mel-mean embeddings per chunk (resample first: constant rate)
    def chunk_key(t: pa.Table) -> pa.Table:
        cid = pc.binary_join_element_wise(
            t["clip_id"], pc.cast(t["chunk_idx"], pa.string()), "#")
        return pa.table({"clip_id": cid, "bytes": t["bytes"],
                         "sr_hz": t["sr_hz"], "codec": t["codec"]})

    mels = chunks.map_batches(chunk_key, batch_format="pyarrow") \
        .map_batches(stage_fn(AudioResampler, target_sr=16000),
                     batch_format="pyarrow") \
        .map_batches(stage_fn(MelSpectrogram, sr=16000),
                     batch_format="pyarrow") \
        .filter(expr="mel_ok == True") \
        .select_columns(["clip_id", "mel_mean"]).materialize()
    out["chunks_embedded"] = mels.count()

    # 8. exact cosine top-3 for the 2 lexically-smallest chunk ids
    qdf = mels.sort("clip_id").limit(2).to_pandas()
    queries = {"ids": qdf["clip_id"].to_numpy(),
               "matrix": np.stack(qdf["mel_mean"].to_numpy())}
    top = ann_topk(mels, queries, id_col="clip_id",
                   emb_col="mel_mean", k=3).to_pandas() \
        .sort_values(["query_id", "rank"])
    out["similar"] = [
        {"q": r.query_id, "rank": int(r.rank), "hit": r.neighbor_id}
        for r in top.itertuples()]

    print(json.dumps(out, default=str, indent=2))


if __name__ == "__main__":
    with session():
        main()
