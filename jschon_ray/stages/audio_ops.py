"""Audio transform stages: resampling and energy-based VAD segmentation.

Real DSP on the decodable codecs (pcm_s16le / wav / deterministic fakes —
stages/decode.py), no external audio libraries. Every stage here runs as
a task-pool `map_batches` stage (`stages/taskpool.py::stage_fn`), the
same deployment shape as ClipDecoder / AudioFeatures (the reference's
expensive opt-in `format` assertion recast as pipeline stages,
/root/reference/jschon/vocabulary/format.py:14-32).

Vectorization notes: per clip the hot work is pure numpy vector math
(np.interp over sample indices for resampling; one squared-signal
`np.add.reduceat` per batch for frame energies). The only Python-level
loop is over clips in a batch, each iteration touching thousands of
samples at once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .decode import DecodeError, decode_clip


class AudioResampler:
    """Resample decodable clips to `target_sr` (linear interpolation) and
    re-emit raw s16le payloads.

    Output columns replace/append: bytes (resampled pcm_s16le), sr_hz
    (= target for resampled rows), codec ('pcm_s16le'), n_samples,
    resample_ok, resample_error. Failed decodes keep their original
    payload with resample_ok=false.

    Use: ds.map_batches(stage_fn(AudioResampler, target_sr=16000),
                        batch_format="pyarrow")
    """

    def __init__(self, target_sr: int = 16000):
        self.target_sr = int(target_sr)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        payloads = batch["bytes"].to_pylist()
        codecs = batch["codec"].to_pylist()
        srs = batch["sr_hz"].to_pylist()

        out_bytes = [None] * n
        out_sr = np.zeros(n, np.int32)
        n_samples = np.zeros(n, np.int64)
        ok = np.zeros(n, bool)
        err = [None] * n
        for i in range(n):
            try:
                if payloads[i] is None or srs[i] is None or srs[i] <= 0:
                    raise DecodeError("missing payload or sample rate")
                pcm, _ = decode_clip(payloads[i], codecs[i])
                src_sr = int(srs[i])
                if len(pcm) == 0:
                    res = pcm.astype("<i2")
                else:
                    m = int(round(len(pcm) * self.target_sr / src_sr))
                    # sample positions of the target grid on the source
                    # timeline; np.interp is one fused C loop per clip
                    pos = np.arange(m, dtype=np.float64) \
                        * (src_sr / self.target_sr)
                    res = np.interp(pos, np.arange(len(pcm)),
                                    pcm.astype(np.float64))
                    res = np.clip(np.rint(res), -32768, 32767).astype("<i2")
                out_bytes[i] = res.tobytes()
                out_sr[i] = self.target_sr
                n_samples[i] = len(res)
                ok[i] = True
            except (DecodeError, NotImplementedError) as ex:
                out_bytes[i] = payloads[i]
                out_sr[i] = srs[i] or 0
                err[i] = f"{type(ex).__name__}: {ex}"

        cols = {name: batch[name] for name in batch.column_names}
        cols["bytes"] = pa.array(out_bytes, pa.binary())
        cols["sr_hz"] = pa.array(out_sr)
        cols["codec"] = pa.array(
            ["pcm_s16le" if o else c for o, c in zip(ok, codecs)])
        cols["n_samples"] = pa.array(n_samples)
        cols["resample_ok"] = pa.array(ok)
        cols["resample_error"] = pa.array(err, pa.string())
        return pa.table(cols)


SEGMENT_TYPE = pa.list_(pa.struct([("start_ms", pa.int32()),
                                   ("end_ms", pa.int32())]))


class VADSegments:
    """Energy-based voice-activity segments per clip.

    Frames of `frame_ms` are active when their RMS exceeds
    `threshold_db` dBFS; runs of active frames closer than `merge_gap_ms`
    merge, and segments shorter than `min_segment_ms` drop. Appends:
    segments (list<struct<start_ms,end_ms>>), n_segments, speech_ratio,
    vad_ok.

    Frame energies for EVERY clip in the batch come from one squared-
    signal `np.add.reduceat` pass over the concatenated samples.
    """

    def __init__(self, frame_ms: int = 20, threshold_db: float = -35.0,
                 merge_gap_ms: int = 60, min_segment_ms: int = 100):
        self.frame_ms = int(frame_ms)
        self.threshold = 10.0 ** (threshold_db / 20.0)   # RMS, full scale 1
        self.merge_gap = int(merge_gap_ms)
        self.min_segment = int(min_segment_ms)

    def _segments(self, active: np.ndarray) -> list:
        """Merge active-frame runs -> [(start_frame, end_frame)) pairs."""
        if not active.any():
            return []
        d = np.diff(active.astype(np.int8))
        starts = list(np.flatnonzero(d == 1) + 1)
        ends = list(np.flatnonzero(d == -1) + 1)
        if active[0]:
            starts.insert(0, 0)
        if active[-1]:
            ends.append(len(active))
        gap_frames = max(1, self.merge_gap // self.frame_ms)
        merged = [[starts[0], ends[0]]]
        for s, e in zip(starts[1:], ends[1:]):
            if s - merged[-1][1] <= gap_frames:
                merged[-1][1] = e
            else:
                merged.append([s, e])
        min_frames = max(1, self.min_segment // self.frame_ms)
        return [(s, e) for s, e in merged if e - s >= min_frames]

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        payloads = batch["bytes"].to_pylist()
        codecs = batch["codec"].to_pylist()
        srs = batch["sr_hz"].to_pylist()

        segments = []
        n_segments = np.zeros(n, np.int32)
        speech_ratio = np.full(n, np.nan)
        ok = np.zeros(n, bool)

        # gather decodable clips, then one reduceat over the batch
        sigs, rows = [], []
        for i in range(n):
            try:
                if payloads[i] is None or not srs[i]:
                    raise DecodeError("missing payload or sample rate")
                pcm, _ = decode_clip(payloads[i], codecs[i])
                flen = max(1, int(srs[i]) * self.frame_ms // 1000)
                if len(pcm) >= flen:
                    sigs.append((pcm, flen))
                    rows.append(i)
                else:
                    # decoded fine, just shorter than one frame
                    segments.append([])
                    speech_ratio[i] = 0.0
                    ok[i] = True
                    continue
            except (DecodeError, NotImplementedError):
                segments.append(None)
                continue
            segments.append(...)  # placeholder, filled below

        if rows:
            sq = np.concatenate(
                [((p.astype(np.float32) / 32768.0) ** 2)[: (len(p) // f) * f]
                 for p, f in sigs])
            counts = [(len(p) // f) for p, f in sigs]
            flens = np.repeat([f for _, f in sigs], counts)
            offsets = np.concatenate([[0], np.cumsum(flens)[:-1]])
            frame_energy = np.add.reduceat(sq, offsets)
            rms = np.sqrt(frame_energy / flens)
            pos = 0
            for j, i in enumerate(rows):
                nf = counts[j]
                active = rms[pos:pos + nf] > self.threshold
                pos += nf
                segs = self._segments(active)
                segments[i] = [
                    {"start_ms": s * self.frame_ms,
                     "end_ms": e * self.frame_ms} for s, e in segs]
                n_segments[i] = len(segs)
                speech_ratio[i] = float(active.mean())
                ok[i] = True

        for i in range(n):
            if segments[i] is ...:
                segments[i] = []

        cols = {name: batch[name] for name in batch.column_names}
        cols["segments"] = pa.array(segments, SEGMENT_TYPE)
        cols["n_segments"] = pa.array(n_segments)
        cols["speech_ratio"] = pa.array(speech_ratio)
        cols["vad_ok"] = pa.array(ok)
        return pa.table(cols)


def mel_filterbank(sr: int, n_fft: int, n_mels: int,
                   fmin: float = 0.0, fmax: float | None = None) -> np.ndarray:
    """Triangular mel filterbank (HTK mel scale), (n_mels, n_fft//2+1).
    Pure numpy; built once per worker."""
    fmax = fmax or sr / 2.0

    def to_mel(hz):
        return 2595.0 * np.log10(1.0 + np.asarray(hz, np.float64) / 700.0)

    def to_hz(mel):
        return 700.0 * (10.0 ** (np.asarray(mel, np.float64) / 2595.0) - 1.0)

    pts_hz = to_hz(np.linspace(to_mel(fmin), to_mel(fmax), n_mels + 2))
    bins_hz = np.arange(n_fft // 2 + 1, dtype=np.float64) * sr / n_fft
    fb = np.zeros((n_mels, len(bins_hz)))
    for m in range(n_mels):
        lo, ctr, hi = pts_hz[m], pts_hz[m + 1], pts_hz[m + 2]
        up = (bins_hz - lo) / max(ctr - lo, 1e-9)
        down = (hi - bins_hz) / max(hi - ctr, 1e-9)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    return fb.astype(np.float32)


class MelSpectrogram:
    """Time-pooled log-mel features per clip — the canonical ML audio
    featurization, emitted as a fixed-size `list<float32>[n_mels]` column
    (`mel_mean`, frame-mean of log-mel energies) ready for the embedding
    operators (ANN top-k, embedding near-dup).

    Requires a CONSTANT sample rate (the mel bank is sr-specific and built
    once per worker): run AudioResampler(target_sr) first; rows at any
    other rate get mel_ok=false. One `rfft` + one matmul per batch; per-
    clip pooling via add.reduceat — no per-frame Python loop.
    """

    def __init__(self, sr: int = 16000, frame_len: int = 512,
                 n_mels: int = 40, emit: str = "mean"):
        # emit="mean": time-pooled list<float32>[n_mels] (embedding ops)
        # emit="frames": the full per-frame matrix, flattened row-major
        #   to a variable-length list<float32> of n_frames*n_mels (the
        #   ASR-training feature shape; input to SpecAugment)
        self.sr = int(sr)
        self.frame_len = int(frame_len)
        self.n_mels = int(n_mels)
        self.emit = emit
        self.window = np.hanning(frame_len).astype(np.float32)
        self.fb = mel_filterbank(self.sr, frame_len, n_mels)   # (M, bins)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        L = self.frame_len
        payloads = batch["bytes"].to_pylist()
        codecs = batch["codec"].to_pylist()
        srs = batch["sr_hz"].to_pylist()

        ok = np.zeros(n, bool)
        n_frames = np.zeros(n, np.int32)
        mel = [None] * n

        frames, counts, rows = [], [], []
        for i in range(n):
            if payloads[i] is None or srs[i] != self.sr:
                continue
            try:
                pcm, _ = decode_clip(payloads[i], codecs[i])
            except (DecodeError, NotImplementedError):
                continue
            f = pcm.astype(np.float32) / 32768.0
            nf = len(f) // L
            if nf == 0:
                pad = np.zeros(L, np.float32)
                pad[:len(f)] = f
                fr, nf = pad[None, :], 1
            else:
                fr = f[:nf * L].reshape(nf, L)
            frames.append(fr)
            counts.append(nf)
            rows.append(i)

        if rows:
            # float64 cast first — np.fft's float32 input path is ~100x
            # slower for identical (double-precision) results
            stack = (np.concatenate(frames) * self.window) \
                .astype(np.float64)
            power = np.abs(np.fft.rfft(stack, axis=1)) ** 2
            logmel = np.log10(power @ self.fb.T + 1e-10)   # (frames, M)
            offsets = np.zeros(len(rows), np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            if self.emit == "mean":
                pooled = np.add.reduceat(logmel, offsets, axis=0) \
                    / np.asarray(counts, np.float32)[:, None]
                for j, i in enumerate(rows):
                    mel[i] = pooled[j].astype(np.float32)
                    n_frames[i] = counts[j]
                    ok[i] = True
            else:
                for j, i in enumerate(rows):
                    sl = logmel[offsets[j]:offsets[j] + counts[j]]
                    mel[i] = sl.astype(np.float32).ravel()
                    n_frames[i] = counts[j]
                    ok[i] = True

        cols = {name: batch[name] for name in batch.column_names
                if name != "bytes"}
        out_name = "mel_mean" if self.emit == "mean" else "mel_fbank"
        out_type = pa.list_(pa.float32(), self.n_mels) \
            if self.emit == "mean" else pa.list_(pa.float32())
        cols[out_name] = pa.array(
            [m.tolist() if m is not None else None for m in mel],
            out_type)
        cols["mel_frames"] = pa.array(n_frames)
        cols["mel_ok"] = pa.array(ok)
        return pa.table(cols)


class NoiseReducer:
    """Spectral-gate noise reduction (Boll '79 spectral subtraction with a
    per-clip noise profile) — the ASR-prep denoise step.

    Per clip: 50%-overlap Hann STFT; the noise magnitude profile is the
    mean spectrum of the quietest `noise_frac` frames OF THAT CLIP (no
    global state, so output is independent of block layout); gain =
    max(1 - alpha * noise/mag, floor_gain) per bin; WOLA resynthesis
    normalized by the accumulated squared window. Re-emits s16le payload
    like AudioResampler (chainable before VAD / features).

    Vectorization: frames of every clip stack into ONE rfft and ONE
    irfft per batch; the only per-clip Python work is the decode, the
    quantile threshold, and the overlap-add (np.add.at, one fused C call
    per clip).

    Assumption (inherent to spectral gating): the clip contains
    signal-absent frames for the noise estimate — true for speech with
    pauses, FALSE for a start-to-end stationary tone, where the quiet
    frames still hold the tone and the gate subtracts signal (the synth
    tone corpus is exactly this degenerate case; see
    tests/test_audio_ops.py::test_noise_reducer_improves_snr for the
    realistic shape).
    """

    def __init__(self, frame_len: int = 512, noise_frac: float = 0.1,
                 alpha: float = 2.0, floor_gain: float = 0.1):
        self.frame_len = int(frame_len)
        self.hop = self.frame_len // 2
        self.noise_frac = float(noise_frac)
        self.alpha = float(alpha)
        self.floor_gain = float(floor_gain)
        # periodic Hann: exact constant-overlap-add at 50% hop
        n = np.arange(self.frame_len)
        self.window = (0.5 * (1.0 - np.cos(2 * np.pi * n / self.frame_len))) \
            .astype(np.float64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        nrows = batch.num_rows
        L, H = self.frame_len, self.hop
        payloads = batch["bytes"].to_pylist()
        codecs = batch["codec"].to_pylist()

        out_bytes = [None] * nrows
        ok = np.zeros(nrows, bool)

        sigs, frames, counts, rows = [], [], [], []
        for i in range(nrows):
            if payloads[i] is None:
                out_bytes[i] = payloads[i]
                continue
            try:
                pcm, _ = decode_clip(payloads[i], codecs[i])
            except (DecodeError, NotImplementedError):
                out_bytes[i] = payloads[i]
                continue
            f = pcm.astype(np.float64) / 32768.0
            if len(f) < L:
                # too short for one frame: pass through unchanged
                out_bytes[i] = pcm.astype("<i2").tobytes()
                ok[i] = True
                continue
            nf = 1 + (len(f) - L) // H
            idx = np.arange(L)[None, :] + H * np.arange(nf)[:, None]
            frames.append(f[idx] * self.window)
            sigs.append(f)
            counts.append(nf)
            rows.append(i)

        if rows:
            spec = np.fft.rfft(np.concatenate(frames), axis=1)
            mag = np.abs(spec)
            bounds = np.concatenate([[0], np.cumsum(counts)]).astype(int)
            gains = np.empty_like(mag)
            for j in range(len(rows)):
                m = mag[bounds[j]:bounds[j + 1]]
                energy = (m * m).sum(axis=1)
                k = max(1, int(round(len(m) * self.noise_frac)))
                quiet = np.argpartition(energy, k - 1)[:k]
                noise = m[quiet].mean(axis=0)
                with np.errstate(divide="ignore", invalid="ignore"):
                    g = 1.0 - self.alpha * noise / np.maximum(m, 1e-12)
                gains[bounds[j]:bounds[j + 1]] = \
                    np.maximum(g, self.floor_gain)
            clean = np.fft.irfft(spec * gains, n=L, axis=1) * self.window

            wsq = self.window * self.window
            for j, i in enumerate(rows):
                nf = counts[j]
                out_len = (nf - 1) * H + L
                acc = np.zeros(out_len)
                norm = np.zeros(out_len)
                idx = (np.arange(L)[None, :]
                       + H * np.arange(nf)[:, None]).ravel()
                np.add.at(acc, idx, clean[bounds[j]:bounds[j + 1]].ravel())
                np.add.at(norm, idx, np.tile(wsq, nf))
                # where the accumulated window mass is negligible (the
                # outermost samples of the first/last frame) the ratio is
                # numerically meaningless — keep the original sample
                y = np.where(norm > 1e-6,
                             acc / np.maximum(norm, 1e-6),
                             sigs[j][:out_len])
                full = np.zeros(len(sigs[j]))
                full[:out_len] = y
                full[out_len:] = sigs[j][out_len:]   # un-framed tail kept
                out = np.clip(np.rint(full * 32768.0), -32768, 32767) \
                    .astype("<i2")
                out_bytes[i] = out.tobytes()
                ok[i] = True

        cols = {name: batch[name] for name in batch.column_names}
        cols["bytes"] = pa.array(out_bytes, pa.binary())
        cols["codec"] = pa.array(
            ["pcm_s16le" if o else c for o, c in zip(ok, codecs)])
        cols["denoise_ok"] = pa.array(ok)
        return pa.table(cols)


class MFCC:
    """Mel-frequency cepstral coefficients: orthonormal DCT-II over the
    per-frame log-mel matrix, keeping the first `n_mfcc` coefficients —
    the classic compact ASR/speaker feature.

    Consumes MelSpectrogram(emit="frames") output (`mel_fbank` flattened
    (n_frames x n_mels) + `mel_frames` + `mel_ok`) — NO re-decode; payload
    bytes were already dropped upstream, so this stage moves only feature
    floats. The DCT matrix is built once per worker; per batch the work is
    one multiply-add per mel band over all frames of all clips plus
    `np.add.reduceat` mean/std pooling (no per-frame Python loop — the
    MelSpectrogram recipe). Cepstra are computed from the log10-mel energies the mel
    stage emits (a constant ln(10) scale vs natural-log HTK cepstra;
    deterministic and documented rather than silently rescaled).

    Emits mfcc_mean / mfcc_std as fixed list<float32>[n_mfcc] plus
    mfcc_ok; rows with mel_ok=false get nulls. Drops mel_fbank by default
    (`keep_fbank=True` retains it for chained SpecAugment).
    """

    def __init__(self, n_mels: int = 40, n_mfcc: int = 13,
                 keep_fbank: bool = False):
        self.n_mels = int(n_mels)
        self.n_mfcc = int(n_mfcc)
        self.keep_fbank = keep_fbank
        k = np.arange(self.n_mfcc)[:, None]
        n = np.arange(self.n_mels)[None, :]
        d = np.cos(np.pi * k * (2 * n + 1) / (2 * self.n_mels)) \
            * np.sqrt(2.0 / self.n_mels)
        d[0] *= np.sqrt(0.5)
        self.dct = d                       # (n_mfcc, n_mels), rows o.n.

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        fb = batch["mel_fbank"].to_pylist()
        ok_in = batch["mel_ok"].to_pylist()
        mean = [None] * n
        std = [None] * n
        ok = np.zeros(n, bool)

        mats, counts, rows = [], [], []
        for i in range(n):
            if not ok_in[i] or fb[i] is None:
                continue
            m = np.asarray(fb[i], np.float64)
            if m.size == 0 or m.size % self.n_mels:
                continue
            mats.append(m.reshape(-1, self.n_mels))
            counts.append(m.size // self.n_mels)
            rows.append(i)

        if rows:
            stack = np.concatenate(mats)            # (frames, n_mels)
            # the DCT as mel-ordered multiply-adds, not a BLAS matmul:
            # BLAS rounds a row by where it sits in the stack, which
            # would make a clip's cepstra depend on its batch neighbours
            cep = np.zeros((len(stack), self.n_mfcc))  # (frames, n_mfcc)
            for j in range(self.n_mels):
                cep += stack[:, j, None] * self.dct[:, j]
            offsets = np.zeros(len(rows), np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            cnt = np.asarray(counts, np.float64)[:, None]
            mu = np.add.reduceat(cep, offsets, axis=0) / cnt
            ex2 = np.add.reduceat(cep * cep, offsets, axis=0) / cnt
            sd = np.sqrt(np.maximum(ex2 - mu * mu, 0.0))
            for j, i in enumerate(rows):
                mean[i] = mu[j].astype(np.float32)
                std[i] = sd[j].astype(np.float32)
                ok[i] = True

        cols = {name: batch[name] for name in batch.column_names
                if self.keep_fbank or name != "mel_fbank"}
        t = pa.list_(pa.float32(), self.n_mfcc)
        cols["mfcc_mean"] = pa.array(
            [m.tolist() if m is not None else None for m in mean], t)
        cols["mfcc_std"] = pa.array(
            [s.tolist() if s is not None else None for s in std], t)
        cols["mfcc_ok"] = pa.array(ok)
        return pa.table(cols)


class SegmentExtractor:
    """Explode clips into one row PER SPEECH SEGMENT (the ASR-training
    prep step): expects VADSegments output columns (bytes + segments) and
    emits (clip_id, seg_idx, start_ms, end_ms, dur_ms, bytes) with the
    payload sliced to the segment — raw s16le, sliced by sample offset.

    Row-count-changing map_batches (Ray Data allows output rows !=
    input rows); clips with no segments disappear, exactly like a
    flat_map. Slices are zero-copy views of the decoded array until
    tobytes().
    """

    def __init__(self, require_ok: bool = True):
        self.require_ok = require_ok

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["bytes"].to_pylist()
        codecs = batch["codec"].to_pylist()
        srs = batch["sr_hz"].to_pylist()
        seg_col = batch["segments"].to_pylist()
        ids = batch["clip_id"].to_pylist()
        vad_ok = batch["vad_ok"].to_pylist() \
            if self.require_ok and "vad_ok" in batch.column_names \
            else None

        out = {"clip_id": [], "seg_idx": [], "start_ms": [], "end_ms": [],
               "dur_ms": [], "bytes": [], "sr_hz": []}
        for i in range(batch.num_rows):
            if vad_ok is not None and not vad_ok[i]:
                continue
            segs = seg_col[i]
            if not segs:
                continue
            try:
                pcm, _ = decode_clip(payloads[i], codecs[i])
            except (DecodeError, NotImplementedError):
                continue
            sr = int(srs[i])
            for j, s in enumerate(segs):
                a = s["start_ms"] * sr // 1000
                b = min(s["end_ms"] * sr // 1000, len(pcm))
                if b <= a:
                    continue
                out["clip_id"].append(ids[i])
                out["seg_idx"].append(j)
                out["start_ms"].append(s["start_ms"])
                out["end_ms"].append(s["end_ms"])
                out["dur_ms"].append(s["end_ms"] - s["start_ms"])
                out["bytes"].append(pcm[a:b].astype("<i2").tobytes())
                out["sr_hz"].append(sr)
        return pa.table({
            "clip_id": pa.array(out["clip_id"], pa.string()),
            "seg_idx": pa.array(out["seg_idx"], pa.int32()),
            "start_ms": pa.array(out["start_ms"], pa.int32()),
            "end_ms": pa.array(out["end_ms"], pa.int32()),
            "dur_ms": pa.array(out["dur_ms"], pa.int32()),
            "bytes": pa.array(out["bytes"], pa.binary()),
            "sr_hz": pa.array(out["sr_hz"], pa.int32()),
        })


class LoudnessNormalizer:
    """Normalize each decodable clip to a target RMS dBFS (gain-only,
    clipping-protected: gain is capped so the peak stays <= full scale).
    Appends norm_ok, gain_db; rewrites bytes as s16le."""

    def __init__(self, target_db: float = -20.0):
        self.target = 10.0 ** (target_db / 20.0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        payloads = batch["bytes"].to_pylist()
        codecs = batch["codec"].to_pylist()
        ok = np.zeros(n, bool)
        gain_db = np.full(n, np.nan)
        out_bytes = list(payloads)
        for i in range(n):
            try:
                pcm, _ = decode_clip(payloads[i], codecs[i]) \
                    if payloads[i] is not None else (None, None)
                if pcm is None or not len(pcm):
                    raise DecodeError("empty")
            except (DecodeError, NotImplementedError):
                continue
            f = pcm.astype(np.float64) / 32768.0
            rms = float(np.sqrt(np.mean(f * f)))
            if rms <= 0:
                continue
            gain = self.target / rms
            peak = float(np.max(np.abs(f)))
            if peak * gain > 0.999:               # clipping guard
                gain = 0.999 / peak
            out = np.clip(np.rint(f * gain * 32768.0), -32768, 32767)
            out_bytes[i] = out.astype("<i2").tobytes()
            gain_db[i] = 20.0 * np.log10(gain)
            ok[i] = True
        cols = {name: batch[name] for name in batch.column_names}
        cols["bytes"] = pa.array(out_bytes, pa.binary())
        cols["codec"] = pa.array(
            ["pcm_s16le" if o else c for o, c in zip(ok, codecs)])
        cols["norm_ok"] = pa.array(ok)
        cols["gain_db"] = pa.array(gain_db)
        return pa.table(cols)


class AudioAugmenter:
    """Deterministic training-data augmentation: per-clip seeded gain
    jitter + additive noise + speed perturbation (resample-based). The
    seed derives from (clip_id, variant), so re-runs and retried tasks
    produce byte-identical output (idempotent under Ray task retry).

    Emits one row per (input row × variant) with clip_id suffixed
    `#aug<k>` — a row-count-changing map_batches like SegmentExtractor.
    """

    def __init__(self, variants: int = 1, gain_jitter_db: float = 3.0,
                 noise_db: float = -40.0, speed_range: float = 0.1):
        self.variants = int(variants)
        self.gain_jitter_db = float(gain_jitter_db)
        self.noise = 10.0 ** (noise_db / 20.0)
        self.speed_range = float(speed_range)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib

        payloads = batch["bytes"].to_pylist()
        codecs = batch["codec"].to_pylist()
        srs = batch["sr_hz"].to_pylist()
        ids = batch["clip_id"].to_pylist()

        out = {"clip_id": [], "source_clip_id": [], "bytes": [],
               "sr_hz": [], "speed": [], "gain_db": []}
        for i in range(batch.num_rows):
            try:
                pcm, _ = decode_clip(payloads[i], codecs[i]) \
                    if payloads[i] is not None else (None, None)
                if pcm is None or not len(pcm) or not srs[i]:
                    raise DecodeError("empty")
            except (DecodeError, NotImplementedError):
                continue
            f = pcm.astype(np.float64) / 32768.0
            for k in range(self.variants):
                seed = int.from_bytes(hashlib.sha256(
                    f"{ids[i]}#aug{k}".encode()).digest()[:8], "big")
                rng = np.random.default_rng(seed)
                speed = 1.0 + rng.uniform(-self.speed_range,
                                          self.speed_range)
                g_db = rng.uniform(-self.gain_jitter_db,
                                   self.gain_jitter_db)
                m = max(1, int(round(len(f) / speed)))
                pos = np.arange(m, dtype=np.float64) * speed
                pos = np.clip(pos, 0, len(f) - 1)
                v = np.interp(pos, np.arange(len(f)), f)
                v = v * (10.0 ** (g_db / 20.0)) \
                    + rng.standard_normal(m) * self.noise
                v = np.clip(np.rint(v * 32768.0), -32768, 32767)
                out["clip_id"].append(f"{ids[i]}#aug{k}")
                out["source_clip_id"].append(ids[i])
                out["bytes"].append(v.astype("<i2").tobytes())
                out["sr_hz"].append(int(srs[i]))
                out["speed"].append(round(speed, 6))
                out["gain_db"].append(round(g_db, 6))
        return pa.table({
            "clip_id": pa.array(out["clip_id"], pa.string()),
            "source_clip_id": pa.array(out["source_clip_id"], pa.string()),
            "bytes": pa.array(out["bytes"], pa.binary()),
            "sr_hz": pa.array(out["sr_hz"], pa.int32()),
            "speed": pa.array(out["speed"], pa.float64()),
            "gain_db": pa.array(out["gain_db"], pa.float64()),
        })


class SpecAugment:
    """Seeded SpecAugment (Park et al., Interspeech 2019): time- and
    frequency-band masking over per-frame log-mel features — the standard
    ASR training-data augmentation. Input is MelSpectrogram(emit="frames")
    output (`mel_fbank` flattened (n_frames x n_mels) + `mel_frames` +
    `mel_ok`).

    Determinism: each output row's masks derive from
    md5(clip_id '#sa' variant), so re-runs and retried Ray tasks are
    byte-identical (the AudioAugmenter idempotency rule). Masked cells
    are set to the clip's mean log-energy. Emits one row per
    (input row x variant) with clip_id suffixed `#sa<k>`; failed rows
    (mel_ok=false) pass through once with a null fbank.
    """

    def __init__(self, n_mels: int = 40, variants: int = 1,
                 n_time_masks: int = 2, max_time_frac: float = 0.2,
                 n_freq_masks: int = 2, max_freq_bins: int = 8):
        self.n_mels = int(n_mels)
        self.variants = int(variants)
        self.n_time_masks = int(n_time_masks)
        self.max_time_frac = float(max_time_frac)
        self.n_freq_masks = int(n_freq_masks)
        self.max_freq_bins = int(max_freq_bins)

    def _mask(self, mat: np.ndarray, rng) -> np.ndarray:
        nf = mat.shape[0]
        fill = np.float32(mat.mean())
        out = mat.copy()
        t_max = max(1, int(nf * self.max_time_frac))
        for _ in range(self.n_time_masks):
            w = int(rng.integers(0, t_max + 1))
            t0 = int(rng.integers(0, max(nf - w, 0) + 1))
            out[t0:t0 + w, :] = fill
        f_max = min(self.max_freq_bins, self.n_mels)
        for _ in range(self.n_freq_masks):
            w = int(rng.integers(0, f_max + 1))
            f0 = int(rng.integers(0, max(self.n_mels - w, 0) + 1))
            out[:, f0:f0 + w] = fill
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib

        ids = batch["clip_id"].to_pylist()
        fb = batch["mel_fbank"].to_pylist()
        nfr = batch["mel_frames"].to_pylist()
        oks = batch["mel_ok"].to_pylist()

        out = {"clip_id": [], "source_clip_id": [], "mel_fbank": [],
               "mel_frames": [], "mel_ok": []}
        for i in range(batch.num_rows):
            bad = (not oks[i]) or fb[i] is None \
                or len(fb[i]) != int(nfr[i]) * self.n_mels
            if bad:   # incl. upstream n_mels mismatch — same rule as MFCC
                out["clip_id"].append(ids[i])
                out["source_clip_id"].append(ids[i])
                out["mel_fbank"].append(None)
                out["mel_frames"].append(0)
                out["mel_ok"].append(False)
                continue
            mat = np.asarray(fb[i], np.float32) \
                .reshape(int(nfr[i]), self.n_mels)
            for v in range(self.variants):
                tag = f"{ids[i]}#sa{v}"
                seed = int.from_bytes(
                    hashlib.md5(tag.encode()).digest()[:8], "little")
                rng = np.random.default_rng(seed)
                masked = self._mask(mat, rng)
                out["clip_id"].append(tag)
                out["source_clip_id"].append(ids[i])
                out["mel_fbank"].append(masked.ravel().tolist())
                out["mel_frames"].append(int(nfr[i]))
                out["mel_ok"].append(True)
        return pa.table({
            "clip_id": pa.array(out["clip_id"], pa.string()),
            "source_clip_id": pa.array(out["source_clip_id"],
                                       pa.string()),
            "mel_fbank": pa.array(out["mel_fbank"],
                                  pa.list_(pa.float32())),
            "mel_frames": pa.array(out["mel_frames"], pa.int32()),
            "mel_ok": pa.array(out["mel_ok"], pa.bool_())})
