"""Multimodal image/video actor-pool stages: real raw path, stubbed codecs."""

import numpy as np
import pyarrow as pa
import pytest

from jschon_ray.stages.media import (FrameSampler, ImageDecoder,
                                     MediaCodecUnavailable, decode_image,
                                     decode_video, image_features,
                                     nearest_resize, register_image_codec,
                                     resize_images, sample_frames,
                                     synth_image_table, synth_video_table)


def test_decode_raw_image_roundtrip():
    t = synth_image_table(3)
    img = decode_image(t["bytes"][0].as_py(), "raw", 16, 12, 3)
    assert img.shape == (12, 16, 3)
    assert img.tobytes() == t["bytes"][0].as_py()


def test_compressed_codec_is_marked_stub():
    with pytest.raises(MediaCodecUnavailable):
        decode_image(b"\x89PNG...", "png", 4, 4, 3)
    with pytest.raises(NotImplementedError):  # subclass contract
        decode_video(b"xx", "h264", 4, 4, 3, 2)


def test_deterministic_fake_is_stable():
    a = decode_image(b"payload", "png", 4, 4, 3, deterministic_fake=True)
    b = decode_image(b"payload", "png", 4, 4, 3, deterministic_fake=True)
    c = decode_image(b"other", "png", 4, 4, 3, deterministic_fake=True)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_codec_registry_extension_point():
    register_image_codec("upper4", lambda p, w, h, c:
                         np.full((h, w, c), 255, np.uint8))
    try:
        img = decode_image(b"anything", "upper4", 2, 2, 1)
        assert img.mean() == 255
    finally:
        from jschon_ray.stages import media
        media._IMAGE_CODECS.pop("upper4", None)


def test_nearest_resize_semantics():
    img = np.arange(24, dtype=np.uint8).reshape(4, 6, 1)
    small = nearest_resize(img, 3, 2)
    assert small.shape == (2, 3, 1)
    np.testing.assert_array_equal(small[:, :, 0],
                                  img[::2, ::2, 0])  # exact 2x decimation


def test_image_features_actor_pool(ray_session):
    import ray.data as rd

    t = synth_image_table(40, compressed_every=8)
    out = image_features(rd.from_arrow(t)).to_pandas()
    assert len(out) == 40 and "bytes" not in out.columns
    stub = out[~out["decode_ok"]]
    assert len(stub) == 5
    assert stub["decode_error"].str.contains("MediaCodecUnavailable").all()
    # features match a driver-side numpy reference
    raw = out[out["decode_ok"]].set_index("img_id")
    pix = {i: decode_image(b, "raw", 16, 12, 3)
           for i, b, f in zip(t["img_id"].to_pylist(),
                              t["bytes"].to_pylist(),
                              t["format"].to_pylist()) if f == "raw"}
    for img_id, img in list(pix.items())[:5]:
        row = raw.loc[img_id]
        assert row["px_mean"] == pytest.approx(img.astype(float).mean())
        np.testing.assert_allclose(row["channel_mean"],
                                   img.astype(float).mean(axis=(0, 1)))
        assert sum(row["hist8"]) == 12 * 16


def test_resize_stage(ray_session):
    import ray.data as rd

    t = synth_image_table(10)
    out = resize_images(rd.from_arrow(t), 8, 6) \
        .to_pandas().set_index("img_id")
    assert out["resize_ok"].all()
    assert (out["width"] == 8).all() and (out["height"] == 6).all()
    src = decode_image(t["bytes"][0].as_py(), "raw", 16, 12, 3)
    got = np.frombuffer(out.loc["img-000000", "bytes"],
                        np.uint8).reshape(6, 8, 3)
    np.testing.assert_array_equal(got, nearest_resize(src, 8, 6))


def test_frame_sampler_explodes_rows(ray_session):
    import ray.data as rd

    t = synth_video_table(6, frames=24)
    out = sample_frames(rd.from_arrow(t), every_k=10).to_pandas()
    # 24 frames, every 10th -> idx 0, 10, 20 per clip
    assert len(out) == 6 * 3
    assert sorted(out["frame_idx"].unique()) == [0, 10, 20]
    vid0 = decode_video(t["bytes"][0].as_py(), "rawvideo", 8, 6, 3, 24)
    row = out[(out["clip_id"] == "vid-000000") &
              (out["frame_idx"] == 10)].iloc[0]
    assert row["bytes"] == vid0[10].tobytes()
    assert (out["format"] == "raw").all()


def test_frame_sampler_keep_last():
    t = synth_video_table(1, frames=25)
    out = FrameSampler(10, keep_last=True)(t)
    assert out["frame_idx"].to_pylist() == [0, 10, 20, 24]
