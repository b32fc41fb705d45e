"""AudioFeatures stage vs a straightforward per-clip reference."""

import numpy as np
import pyarrow as pa
import pytest

from jschon_ray.sources.clips import generate_clips
from jschon_ray.stages.decode import decode_clip
from jschon_ray.stages.features import AudioFeatures, audio_features


def ref_features(payload, codec, sr, frame_len=512, rolloff=0.85):
    """Independent per-clip implementation (per-frame loop)."""
    pcm, _ = decode_clip(payload, codec)
    f = pcm.astype(np.float32) / 32768.0
    zcr = float(np.mean(np.signbit(f[1:]) != np.signbit(f[:-1])))
    ms = float(np.mean(f * f))
    energy = 10.0 * np.log10(ms) if ms > 0 else -120.0
    nf = len(f) // frame_len
    if nf == 0:
        pad = np.zeros(frame_len, np.float32)
        pad[:len(f)] = f
        frames = [pad]
    else:
        frames = [f[j * frame_len:(j + 1) * frame_len] for j in range(nf)]
    w = np.hanning(frame_len).astype(np.float32)
    spec = np.mean([np.abs(np.fft.rfft(fr * w)) for fr in frames], axis=0)
    binf = np.arange(len(spec), dtype=float)
    tot = spec.sum() or 1.0
    cbin = (spec * binf).sum() / tot
    hz = sr / frame_len
    bw = np.sqrt((spec * (binf - cbin) ** 2).sum() / tot) * hz
    cum = np.cumsum(spec)
    roll = np.argmax(cum >= rolloff * cum[-1]) * hz
    safe = np.where(spec > 0, spec, 1e-12)
    flat = np.exp(np.mean(np.log(safe))) / (spec.mean() + 1e-30)
    return zcr, energy, cbin * hz, bw, roll, flat


def test_features_match_reference_loop():
    t = generate_clips(60, seed=5, dirty=False)
    out = AudioFeatures()(t)
    assert out["feat_ok"].to_pylist() == [True] * 60
    cols = {c: out[c].to_numpy(zero_copy_only=False) for c in
            ("zcr", "energy_db", "spec_centroid_hz", "spec_bandwidth_hz",
             "spec_rolloff_hz", "spec_flatness")}
    for i in range(0, 60, 7):
        exp = ref_features(t["bytes"][i].as_py(), t["codec"][i].as_py(),
                           t["sr_hz"][i].as_py())
        got = [cols[c][i] for c in cols]
        np.testing.assert_allclose(got, exp, rtol=1e-5)


def test_short_and_bad_clips():
    base = generate_clips(2, seed=9, dirty=False)
    rows = {
        "clip_id": ["short", "broken", "empty"],
        "bytes": [b"\x01\x00" * 40, b"\xff\x13", None],
        "sr_hz": pa.array([16000, 16000, 16000], pa.int32()),
        "dur_ms": pa.array([5, 5, 5], pa.int32()),
        "codec": ["pcm_s16le", "wav", "pcm_s16le"],
        "transcript": ["a", "b", "c"],
    }
    t = pa.table(rows).cast(base.schema)
    out = AudioFeatures()(t)
    assert out["feat_ok"].to_pylist() == [True, False, False]
    # zero-padded single frame still yields finite spectral features
    assert np.isfinite(out["spec_centroid_hz"][0].as_py())
    assert out["spec_centroid_hz"][1].as_py() is None or \
        np.isnan(out["spec_centroid_hz"][1].as_py())


def test_audio_features_ray_stage(ray_session):
    import ray.data as rd

    t = generate_clips(400, seed=6, dirty=True)
    out = audio_features(rd.from_arrow(t)).to_pandas()
    assert len(out) == 400 and "bytes" not in out.columns
    ok = out["feat_ok"]
    assert 0 < ok.sum() < 400  # dirty rows fail, clean rows pass
    assert out.loc[ok, "spec_centroid_hz"].notna().all()
    assert (out.loc[ok, "zcr"].between(0, 1)).all()
