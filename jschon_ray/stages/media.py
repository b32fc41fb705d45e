"""Multimodal (image / video) task-pool stages over opaque binary columns.

The engine treats media exactly as it treats audio (`stages/decode.py`):
an opaque ``bytes`` column plus typed metadata columns, decoded inside
``map_batches`` stages that cut their blocks into pieces
(`stages/taskpool.py`); the stages whose output carries more pixels than
their input take smaller pieces, so ``piece rows x payload`` stays
inside a worker heap.

Formats:
  * ``raw`` images — width x height x channels uint8, C order — and
    ``rawvideo`` — ``n_frames`` concatenated raw frames — are decoded
    FOR REAL (numpy only, no codec libraries needed).
  * compressed formats (png/jpeg/webp/h264/...) are STUBS in this
    container (no PIL/ffmpeg available): they raise
    ``MediaCodecUnavailable`` (a ``NotImplementedError``) unless the
    stage is constructed with ``deterministic_fake=True``, in which case
    a content-hash-seeded fake frame of the declared shape is produced so
    the downstream Ray plumbing (schemas, piece sizing, stage signatures,
    output layout) is exercised end to end.

Expected schemas (input_hint style, media analogue of the clips table):
  images: (img_id, bytes:binary, width:int32, height:int32,
           channels:int32, format:string)
  video:  (clip_id, bytes:binary, width:int32, height:int32,
           channels:int32, n_frames:int32, fps:float64, format:string)

Scale notes: payload bytes never enter a shuffle — every stage here is a
narrow map_batches; feature/row outputs drop the payload unless asked to
keep it. Mirrors the reference's opt-in `format` assertion concept
(/root/reference/jschon/vocabulary/format.py:14-32): decode is an opt-in
stateful check stage, not part of the scalar predicate pass.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .taskpool import stage_fn

RAW_IMAGE_FORMATS = ("raw",)
RAW_VIDEO_FORMATS = ("rawvideo",)


class MediaCodecUnavailable(NotImplementedError):
    """Compressed-media codec not present in this environment (STUB).

    The decode *plumbing* (schema, stage, piece cutting) is real; only
    the codec call itself is unavailable. On a cluster image with
    PIL / pyav installed, register a real decoder via
    ``register_image_codec`` and this error disappears.
    """


# user-extensible codec registry, mirroring the reference's
# format_validator registry (format.py:44-66)
_IMAGE_CODECS: dict = {}


def register_image_codec(fmt: str, fn):
    """fn(payload: bytes, width, height, channels) -> np.ndarray(h, w, c)."""
    _IMAGE_CODECS[fmt] = fn


def _fake_frame(payload: bytes, h: int, w: int, c: int,
                salt: bytes = b"") -> np.ndarray:
    """Deterministic stand-in frame: content-hash-seeded uint8 noise."""
    seed = int.from_bytes(
        hashlib.blake2b(salt + (payload or b""), digest_size=8).digest(),
        "big")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (h, w, c), dtype=np.uint8)


def decode_image(payload: bytes, fmt: str, width: int, height: int,
                 channels: int, *, deterministic_fake: bool = False
                 ) -> np.ndarray:
    """-> (height, width, channels) uint8 array."""
    if payload is None:
        raise ValueError("missing payload")
    if fmt in RAW_IMAGE_FORMATS:
        expect = width * height * channels
        if len(payload) != expect:
            raise ValueError(
                f"raw image payload is {len(payload)} bytes, expected "
                f"{expect} for {width}x{height}x{channels}")
        return np.frombuffer(payload, np.uint8).reshape(
            height, width, channels)
    if fmt in _IMAGE_CODECS:
        return _IMAGE_CODECS[fmt](payload, width, height, channels)
    if deterministic_fake:
        return _fake_frame(payload, height, width, channels)
    raise MediaCodecUnavailable(
        f"no decoder for image format {fmt!r} in this environment")


def decode_video(payload: bytes, fmt: str, width: int, height: int,
                 channels: int, n_frames: int, *,
                 deterministic_fake: bool = False) -> np.ndarray:
    """-> (n_frames, height, width, channels) uint8 array."""
    if payload is None:
        raise ValueError("missing payload")
    if fmt in RAW_VIDEO_FORMATS:
        expect = n_frames * width * height * channels
        if len(payload) != expect:
            raise ValueError(
                f"rawvideo payload is {len(payload)} bytes, expected "
                f"{expect} for {n_frames}x{height}x{width}x{channels}")
        return np.frombuffer(payload, np.uint8).reshape(
            n_frames, height, width, channels)
    if deterministic_fake:
        return np.stack([
            _fake_frame(payload, height, width, channels,
                        salt=i.to_bytes(4, "big"))
            for i in range(n_frames)])
    raise MediaCodecUnavailable(
        f"no decoder for video format {fmt!r} in this environment")


def nearest_resize(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Nearest-neighbor resize (pure numpy index gather, no codec)."""
    h, w = img.shape[:2]
    ys = (np.arange(out_h) * (h / out_h)).astype(np.intp)
    xs = (np.arange(out_w) * (w / out_w)).astype(np.intp)
    return img[ys[:, None], xs[None, :]]


class ImageDecoder:
    """map_batches stage: decode images + per-image features.

    Appends: decode_ok:bool, decode_error:string, px_mean:float64,
    px_std:float64, channel_mean:list<float64>, hist8:list<int64>
    (8-bin luminance histogram). Payload column is dropped unless
    ``keep_bytes=True`` — features, not pixels, flow downstream.

    Use: image_features(ds), or
         ds.map_batches(stage_fn(ImageDecoder, ...), batch_format="pyarrow")
    """

    def __init__(self, *, deterministic_fake: bool = False,
                 keep_bytes: bool = False):
        self.fake = deterministic_fake
        self.keep_bytes = keep_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ok = np.zeros(n, bool)
        err = [None] * n
        px_mean = np.full(n, np.nan)
        px_std = np.full(n, np.nan)
        ch_mean: list = [None] * n
        hist: list = [None] * n
        payloads = batch["bytes"].to_pylist()
        fmts = batch["format"].to_pylist()
        ws = batch["width"].to_pylist()
        hs = batch["height"].to_pylist()
        cs = batch["channels"].to_pylist()
        for i in range(n):
            try:
                img = decode_image(payloads[i], fmts[i], ws[i], hs[i],
                                   cs[i], deterministic_fake=self.fake)
            except (ValueError, NotImplementedError) as e:
                err[i] = f"{type(e).__name__}: {e}"
                continue
            f = img.astype(np.float64)
            px_mean[i] = f.mean()
            px_std[i] = f.std()
            ch_mean[i] = f.mean(axis=(0, 1)).tolist()
            lum = f.mean(axis=2)
            hist[i] = np.histogram(lum, bins=8, range=(0, 256))[0] \
                .astype(np.int64).tolist()
            ok[i] = True
        out = batch if self.keep_bytes else batch.drop_columns(["bytes"])
        return out.append_column("decode_ok", pa.array(ok)) \
            .append_column("decode_error", pa.array(err, pa.string())) \
            .append_column("px_mean", pa.array(px_mean)) \
            .append_column("px_std", pa.array(px_std)) \
            .append_column("channel_mean",
                           pa.array(ch_mean, pa.list_(pa.float64()))) \
            .append_column("hist8", pa.array(hist, pa.list_(pa.int64())))


class ImageResizer:
    """map_batches stage: decode -> nearest-neighbor resize -> raw bytes.

    Output keeps the input schema with bytes/width/height replaced and
    format forced to 'raw'; undecodable rows pass through with
    resize_ok=False so a later filter can route them.
    """

    PIECE_ROWS = 32  # raw output pixels outweigh a compressed input

    def __init__(self, out_w: int, out_h: int, *,
                 deterministic_fake: bool = False):
        self.out_w, self.out_h = int(out_w), int(out_h)
        self.fake = deterministic_fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        payloads = batch["bytes"].to_pylist()
        fmts = batch["format"].to_pylist()
        ws = batch["width"].to_pylist()
        hs = batch["height"].to_pylist()
        cs = batch["channels"].to_pylist()
        new_bytes: list = [None] * n
        ok = np.zeros(n, bool)
        for i in range(n):
            try:
                img = decode_image(payloads[i], fmts[i], ws[i], hs[i],
                                   cs[i], deterministic_fake=self.fake)
            except (ValueError, NotImplementedError):
                new_bytes[i] = payloads[i]
                continue
            new_bytes[i] = nearest_resize(
                img, self.out_w, self.out_h).tobytes()
            ok[i] = True
        cols = {name: batch[name] for name in batch.column_names}
        cols["bytes"] = pa.array(new_bytes, pa.binary())
        cols["width"] = pa.array(
            np.where(ok, self.out_w, ws).astype(np.int32))
        cols["height"] = pa.array(
            np.where(ok, self.out_h, hs).astype(np.int32))
        cols["format"] = pa.array(
            ["raw" if o else f for o, f in zip(ok, fmts)])
        t = pa.table(cols)
        return t.append_column("resize_ok", pa.array(ok))


class FrameSampler:
    """map_batches stage: explode video rows into sampled frame rows.

    Every ``every_k``-th frame (plus the last when ``keep_last``) becomes
    one output row (id, frame_idx:int32, bytes:binary raw frame, width,
    height, channels, format='raw'). Output row count differs from the
    input's — Ray Data map_batches handles that natively.
    """

    PIECE_ROWS = 8  # frames multiply payload volume

    def __init__(self, every_k: int = 10, *, id_col: str = "clip_id",
                 keep_last: bool = False, deterministic_fake: bool = False):
        if every_k < 1:
            raise ValueError("every_k must be >= 1")
        self.every_k = int(every_k)
        self.id_col = id_col
        self.keep_last = keep_last
        self.fake = deterministic_fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids_out: list = []
        idx_out: list = []
        bytes_out: list = []
        w_out: list = []
        h_out: list = []
        c_out: list = []
        ids = batch[self.id_col].to_pylist()
        payloads = batch["bytes"].to_pylist()
        fmts = batch["format"].to_pylist()
        ws = batch["width"].to_pylist()
        hs = batch["height"].to_pylist()
        cs = batch["channels"].to_pylist()
        nf = batch["n_frames"].to_pylist()
        for i in range(batch.num_rows):
            try:
                vid = decode_video(payloads[i], fmts[i], ws[i], hs[i],
                                   cs[i], nf[i],
                                   deterministic_fake=self.fake)
            except (ValueError, NotImplementedError):
                continue
            take = list(range(0, len(vid), self.every_k))
            if self.keep_last and len(vid) and \
                    (len(vid) - 1) not in take:
                take.append(len(vid) - 1)
            for j in take:
                ids_out.append(ids[i])
                idx_out.append(j)
                bytes_out.append(vid[j].tobytes())
                w_out.append(ws[i])
                h_out.append(hs[i])
                c_out.append(cs[i])
        return pa.table({
            self.id_col: pa.array(ids_out,
                                  batch[self.id_col].type),
            "frame_idx": pa.array(idx_out, pa.int32()),
            "bytes": pa.array(bytes_out, pa.binary()),
            "width": pa.array(w_out, pa.int32()),
            "height": pa.array(h_out, pa.int32()),
            "channels": pa.array(c_out, pa.int32()),
            "format": pa.array(["raw"] * len(ids_out)),
        })


# ---------------------------------------------------------------------------
# pipeline helpers (one task-pool stage each)


# task pools (stages/taskpool.py): the decode stubs hold no heavy state —
# a REAL codec-library build would flip these back to actor pools whose
# __init__ loads the codec once per worker.


def image_features(ds, *, deterministic_fake: bool = False):
    return ds.map_batches(
        stage_fn(ImageDecoder, deterministic_fake=deterministic_fake),
        batch_format="pyarrow")


def resize_images(ds, out_w: int, out_h: int, *,
                  deterministic_fake: bool = False):
    return ds.map_batches(
        stage_fn(ImageResizer, out_w=out_w, out_h=out_h,
                 deterministic_fake=deterministic_fake),
        batch_format="pyarrow")


def sample_frames(ds, every_k: int = 10, *, id_col: str = "clip_id",
                  deterministic_fake: bool = False):
    return ds.map_batches(
        stage_fn(FrameSampler, every_k=every_k, id_col=id_col,
                 deterministic_fake=deterministic_fake),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# deterministic synthetic tables (tests / benchmarks; no external data)


def synth_image_table(n: int, *, seed: int = 7, w: int = 16, h: int = 12,
                      channels: int = 3,
                      compressed_every: int = 0) -> pa.Table:
    """n raw images (+ every k-th row flagged as a compressed stub)."""
    rng = np.random.default_rng(seed)
    pix = rng.integers(0, 256, (n, h, w, channels), dtype=np.uint8)
    fmts = ["raw"] * n
    payloads = [pix[i].tobytes() for i in range(n)]
    if compressed_every:
        for i in range(0, n, compressed_every):
            fmts[i] = "png"
            payloads[i] = payloads[i][: (w * h * channels) // 2]
    return pa.table({
        "img_id": pa.array([f"img-{i:06d}" for i in range(n)]),
        "bytes": pa.array(payloads, pa.binary()),
        "width": pa.array([w] * n, pa.int32()),
        "height": pa.array([h] * n, pa.int32()),
        "channels": pa.array([channels] * n, pa.int32()),
        "format": pa.array(fmts),
    })


def synth_video_table(n: int, *, seed: int = 11, w: int = 8, h: int = 6,
                      channels: int = 3, frames: int = 24) -> pa.Table:
    rng = np.random.default_rng(seed)
    vids = rng.integers(0, 256, (n, frames, h, w, channels),
                        dtype=np.uint8)
    return pa.table({
        "clip_id": pa.array([f"vid-{i:06d}" for i in range(n)]),
        "bytes": pa.array([vids[i].tobytes() for i in range(n)],
                          pa.binary()),
        "width": pa.array([w] * n, pa.int32()),
        "height": pa.array([h] * n, pa.int32()),
        "channels": pa.array([channels] * n, pa.int32()),
        "n_frames": pa.array([frames] * n, pa.int32()),
        "fps": pa.array([24.0] * n, pa.float64()),
        "format": pa.array(["rawvideo"] * n),
    })
