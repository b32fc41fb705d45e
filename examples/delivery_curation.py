"""End-to-end delivery curation: the round-trip a data team runs per drop.

Composes the engine's validation-tier operators over one synthetic
delivery of audio clips:

  1. spec_compat    — is the new contract safe to swap in? (no data read)
  2. snapshot_diff  — what changed since the accepted snapshot?
  3. repair         — apply the contract's defaults/bounds/enum as fixes
  4. quarantine     — one validate pass -> clean + quarantine sinks
  5. fingerprint    — content-level duplicate pairs across the clean set

Run: PYTHONPATH=/root/repo python examples/delivery_curation.py
(owns the Ray session via jschon_ray.runtime; library code never
starts Ray).
"""
import json
import os
import tempfile

import ray.data

from jschon_ray.functions.diff import snapshot_diff
from jschon_ray.functions.repair import repair_dataset
from jschon_ray.pipelines.quarantine import quarantine_split
from jschon_ray.runtime import session
from jschon_ray.sources.clips import generate_clips, generate_fp_clips
from jschon_ray.stages.fingerprint import (AudioFingerprinter,
                                           fingerprint_match_pairs)
from jschon_ray.stages.taskpool import stage_fn
from jschon_ray.vspec.compat import spec_compat

SPEC_V1 = {
    "$id": "https://example.dev/specs/clips-v1",
    "type": "object",
    "required": ["clip_id", "codec"],
    "properties": {
        "codec": {"enum": ["pcm_s16le", "wav", "flac", "opus", "mp3"]},
        "sr_hz": {"enum": [8000, 16000, 22050, 44100, 48000],
                  "default": 16000},
        "dur_ms": {"type": "integer", "minimum": 1, "maximum": 600000},
    },
}
# v2 widens sr_hz (adds a value) and drops the dur_ms upper bound
SPEC_V2 = {**SPEC_V1, "$id": "https://example.dev/specs/clips-v2",
           "properties": {**SPEC_V1["properties"],
                          "sr_hz": {"enum": [8000, 16000, 22050, 32000,
                                             44100, 48000],
                                    "default": 16000},
                          "dur_ms": {"type": "integer", "minimum": 1}}}


def main():
    out = {}

    # 1. contract evolution: v1 -> v2 must be compatible before swap
    verdict, changes = spec_compat(SPEC_V1, SPEC_V2)
    out["spec_compat"] = {"verdict": verdict, "n_changes": len(changes)}
    assert verdict == "compatible"

    # 2. what changed between deliveries? The accepted snapshot is clean
    # (dirty corpora contain planted duplicate clip_ids, which
    # snapshot_diff rejects by design); the new drop re-encodes some
    # clips and drops a few
    old_t = generate_clips(800, seed=1, dirty=False)
    new_t = old_t.slice(20)                      # 20 rows disappeared
    codec = new_t["codec"].to_pylist()
    codec = ["wav" if i % 37 == 0 else c for i, c in enumerate(codec)]
    import pyarrow as pa
    new_t = new_t.set_column(new_t.column_names.index("codec"), "codec",
                             pa.array(codec, pa.string()))
    old = ray.data.from_arrow(old_t)
    new = ray.data.from_arrow(new_t)
    delta = snapshot_diff(old, new, key_col="clip_id",
                          compare_cols=["sr_hz", "dur_ms", "codec"])
    d = delta.to_pandas()
    out["diff"] = d["status"].value_counts().to_dict() if len(d) else {}

    # 3 + 4. repair what the contract can fix, quarantine the rest
    with tempfile.TemporaryDirectory() as tmp:
        repaired = repair_dataset(ray.data.from_arrow(
            generate_clips(800, seed=2)), SPEC_V2)
        out["quarantine"] = {
            k: v for k, v in quarantine_split(
                repaired.drop_columns(["repaired"]), SPEC_V2, tmp).items()
            if k.startswith("n")}

    # 5. content-dedup the clean corpus (planted-dup chord clips here;
    # for the tone corpus see q_audio_fingerprint_dedup)
    clips, truth = generate_fp_clips(300, seed=3)
    lm = ray.data.from_arrow(clips.select(["clip_id", "bytes", "codec"])) \
        .map_batches(stage_fn(AudioFingerprinter),
                     batch_format="pyarrow")
    pairs = fingerprint_match_pairs(lm, min_matches=40).to_pandas()
    out["fingerprint"] = {"n_pairs": len(pairs),
                          "planted": len(truth),
                          "all_found": sorted(
                              zip(pairs["id_a"], pairs["id_b"]))
                          == truth}
    print(json.dumps(out, default=str, indent=2))


if __name__ == "__main__":
    with session():
        main()
