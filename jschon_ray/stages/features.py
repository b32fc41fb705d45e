"""Audio feature extraction: framed-FFT spectral features as a task-pool stage.

The training-data-pipeline companion to `stages/decode.py`'s consistency
checks: per clip, decode PCM and compute zero-crossing rate, energy, and
spectral shape (centroid / bandwidth / rolloff / flatness) from averaged
Hann-windowed frame spectra.

Vectorization: frames from EVERY clip in the batch are stacked into one
(total_frames, frame_len) float32 matrix — a single `np.fft.rfft` call per
batch — then per-clip spectra are recovered with `np.add.reduceat` over
frame offsets. No per-frame Python loop; the only per-row work is the
payload decode (shared with ClipDecoder's semantics, decode.py:81-90).

Analogue of the reference's opt-in `format` assertion stage
(/root/reference/jschon/vocabulary/format.py:14-32): an expensive,
payload-reading check that runs as its own map_batches stage, never
inside the scalar predicate pass and never ahead of a shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .decode import DecodeError, decode_clip
from .taskpool import stage_fn

FEATURE_COLUMNS = ("feat_ok", "zcr", "energy_db", "spec_centroid_hz",
                   "spec_bandwidth_hz", "spec_rolloff_hz", "spec_flatness")


class AudioFeatures:
    """map_batches stage appending the FEATURE_COLUMNS.

    Clips shorter than one frame are zero-padded to a single frame;
    undecodable or empty clips get feat_ok=False and NaN features.

    Use: audio_features(ds), or ds.map_batches(stage_fn(AudioFeatures),
                                               batch_format="pyarrow")
    """

    def __init__(self, frame_len: int = 512, rolloff: float = 0.85,
                 keep_bytes: bool = False):
        self.frame_len = int(frame_len)
        self.rolloff = float(rolloff)
        self.keep_bytes = keep_bytes
        self.window = np.hanning(self.frame_len).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        L = self.frame_len
        ok = np.zeros(n, bool)
        zcr = np.full(n, np.nan)
        energy_db = np.full(n, np.nan)
        centroid = np.full(n, np.nan)
        bandwidth = np.full(n, np.nan)
        rolloff_hz = np.full(n, np.nan)
        flatness = np.full(n, np.nan)

        payloads = batch["bytes"].to_pylist()
        codecs = batch["codec"].to_pylist()
        srs = batch["sr_hz"].to_numpy(zero_copy_only=False)

        frames: list[np.ndarray] = []
        frame_counts: list[int] = []
        rows: list[int] = []
        for i in range(n):
            if payloads[i] is None or codecs[i] is None:
                continue
            try:
                pcm, _ = decode_clip(payloads[i], codecs[i])
            except (DecodeError, NotImplementedError):
                continue
            if not len(pcm) or not srs[i] or srs[i] <= 0:
                continue
            f = pcm.astype(np.float32) / 32768.0
            # time-domain features on the full signal
            zcr[i] = float(np.mean(np.signbit(f[1:]) != np.signbit(f[:-1]))) \
                if len(f) > 1 else 0.0
            ms = float(np.mean(f * f))
            energy_db[i] = 10.0 * np.log10(ms) if ms > 0 else -120.0
            nf = len(f) // L
            if nf == 0:
                pad = np.zeros(L, np.float32)
                pad[:len(f)] = f
                fr = pad[None, :]
                nf = 1
            else:
                fr = f[:nf * L].reshape(nf, L)
            frames.append(fr)
            frame_counts.append(nf)
            rows.append(i)
            ok[i] = True

        if rows:
            # float64 cast first: np.fft's float32 input path is ~100x
            # slower (measured 8.3s vs 0.07s for 20k x 512 frames) and the
            # transform is computed in double either way (bit-identical)
            stack = (np.concatenate(frames) * self.window) \
                .astype(np.float64)
            mag = np.abs(np.fft.rfft(stack, axis=1))
            offsets = np.zeros(len(rows), np.int64)
            np.cumsum(frame_counts[:-1], out=offsets[1:])
            spec = np.add.reduceat(mag, offsets, axis=0) \
                / np.asarray(frame_counts, np.float64)[:, None]

            ridx = np.asarray(rows)
            nbins = spec.shape[1]
            binf = np.arange(nbins, dtype=np.float64)
            hz_per_bin = srs[ridx].astype(np.float64) / L
            tot = spec.sum(axis=1)
            tot = np.where(tot > 0, tot, 1.0)
            cbin = (spec * binf).sum(axis=1) / tot
            centroid[ridx] = cbin * hz_per_bin
            var = (spec * (binf[None, :] - cbin[:, None]) ** 2).sum(axis=1) \
                / tot
            bandwidth[ridx] = np.sqrt(var) * hz_per_bin
            cum = np.cumsum(spec, axis=1)
            roll_bin = np.argmax(
                cum >= self.rolloff * cum[:, -1:], axis=1)
            rolloff_hz[ridx] = roll_bin * hz_per_bin
            safe = np.where(spec > 0, spec, 1e-12)
            flatness[ridx] = np.exp(np.mean(np.log(safe), axis=1)) \
                / (spec.mean(axis=1) + 1e-30)

        out = batch if self.keep_bytes else batch.drop_columns(["bytes"])
        for name, arr in zip(
                FEATURE_COLUMNS,
                (ok, zcr, energy_db, centroid, bandwidth, rolloff_hz,
                 flatness)):
            out = out.append_column(name, pa.array(arr))
        return out


def audio_features(ds, *, frame_len: int = 512):
    """Feature stage as a task pool: AudioFeatures' state is a 512-float
    window, and the actor boundary measurably dominated the stage (see
    stages/taskpool.py)."""
    return ds.map_batches(stage_fn(AudioFeatures, frame_len=frame_len),
                          batch_format="pyarrow")


# ---------------------------------------------------------------------------
# pitch (F0) estimation


class PitchEstimator:
    """Per-clip fundamental-frequency estimate via batched frame
    autocorrelation (Wiener-Khinchin: one zero-padded rfft/irfft pair
    over ALL frames of ALL clips in the batch — no per-frame loop).

    Per frame: the autocorrelation peak lag within the plausible pitch
    band [f_lo, f_hi]; a frame is "voiced" when the peak's normalized
    autocorrelation exceeds `voiced_threshold`. Per clip: median F0 over
    voiced frames (`f0_hz`, NaN if none) + `voiced_ratio` + `pitch_ok`.

    Same stage posture as AudioFeatures (payload-reading, cut into
    pieces, setup in __init__ — the reference's opt-in `format`
    assertion concept, /root/reference/jschon/vocabulary/format.py:14-32,
    as an expensive stateful stage).
    """

    def __init__(self, frame_len: int = 1024, f_lo: float = 50.0,
                 f_hi: float = 500.0, voiced_threshold: float = 0.5,
                 keep_bytes: bool = False):
        self.frame_len = int(frame_len)
        self.f_lo = float(f_lo)
        self.f_hi = float(f_hi)
        self.voiced_threshold = float(voiced_threshold)
        self.keep_bytes = keep_bytes
        self.window = np.hanning(self.frame_len).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        L = self.frame_len
        payloads = batch["bytes"].to_pylist()
        codecs = batch["codec"].to_pylist()
        srs = batch["sr_hz"].to_numpy(zero_copy_only=False)

        f0 = np.full(n, np.nan)
        voiced_ratio = np.full(n, np.nan)
        ok = np.zeros(n, bool)

        frames, counts, rows = [], [], []
        for i in range(n):
            if payloads[i] is None or codecs[i] is None \
                    or not srs[i] or srs[i] <= 0:
                continue
            try:
                pcm, _ = decode_clip(payloads[i], codecs[i])
            except (DecodeError, NotImplementedError):
                continue
            f = pcm.astype(np.float32) / 32768.0
            nf = len(f) // L
            if nf == 0:
                continue  # too short for one pitch frame
            frames.append(f[:nf * L].reshape(nf, L))
            counts.append(nf)
            rows.append(i)

        if rows:
            # float64 cast first — see AudioFeatures; the f32 FFT path is
            # ~100x slower for identical (double) results
            stack = (np.concatenate(frames) * self.window) \
                .astype(np.float64)
            # autocorrelation of every frame in two batched FFTs
            spec = np.fft.rfft(stack, n=2 * L, axis=1)
            ac = np.fft.irfft(spec.real ** 2 + spec.imag ** 2,
                              axis=1)[:, :L]
            ac0 = np.where(ac[:, 0] > 0, ac[:, 0], 1.0)
            nac = ac / ac0[:, None]

            offsets = np.zeros(len(rows), np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            frame_sr = np.repeat(srs[np.asarray(rows)].astype(np.float64),
                                 counts)
            lo = np.maximum((frame_sr / self.f_hi).astype(np.int64), 1)
            hi = np.minimum((frame_sr / self.f_lo).astype(np.int64) + 1, L)

            # mask lags outside each frame's [lo, hi) band, then argmax
            lag_idx = np.arange(L)[None, :]
            band = (lag_idx >= lo[:, None]) & (lag_idx < hi[:, None])
            masked = np.where(band, nac, -np.inf)
            peak_lag = np.argmax(masked, axis=1)
            peak_val = masked[np.arange(len(peak_lag)), peak_lag]
            frame_f0 = np.where(peak_lag > 0, frame_sr / peak_lag, np.nan)
            voiced = np.isfinite(peak_val) \
                & (peak_val >= self.voiced_threshold)

            for j, i in enumerate(rows):
                s, c = offsets[j], counts[j]
                v = voiced[s:s + c]
                voiced_ratio[i] = float(v.mean())
                if v.any():
                    f0[i] = float(np.median(frame_f0[s:s + c][v]))
                ok[i] = True

        out = batch if self.keep_bytes else batch.drop_columns(["bytes"])
        out = out.append_column("pitch_ok", pa.array(ok))
        out = out.append_column("f0_hz", pa.array(f0))
        out = out.append_column("voiced_ratio", pa.array(voiced_ratio))
        return out


def pitch_features(ds, *, frame_len: int = 1024):
    # task pool (see stages/taskpool.py): window-only state
    return ds.map_batches(stage_fn(PitchEstimator, frame_len=frame_len),
                          batch_format="pyarrow")


# ---------------------------------------------------------------------------
# corpus-level CMVN (cepstral/feature mean-variance normalization)


def cmvn_stats(ds, col: str = "mel_mean"):
    """Corpus mean/std of a fixed-size `list<float>` feature column via
    per-block (n, sum, sumsq) partials — three small vectors per block
    flow to the driver, rows never move. Returns (mean, std, n) float64
    arrays; null feature rows are skipped.
    """
    def partial(t: pa.Table) -> pa.Table:
        colv = t[col]
        valid = colv.drop_null()
        if len(valid) == 0:
            return pa.table({"n": pa.array([0], pa.int64()),
                             "sum": pa.array([None], pa.binary()),
                             "sumsq": pa.array([None], pa.binary())})
        m = np.asarray(valid.to_pylist(), dtype=np.float64)
        return pa.table({
            "n": pa.array([m.shape[0]], pa.int64()),
            "sum": pa.array([m.sum(axis=0).tobytes()], pa.binary()),
            "sumsq": pa.array([(m * m).sum(axis=0).tobytes()],
                              pa.binary())})

    n_total, s_total, ss_total = 0, None, None
    for b in ds.map_batches(partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        for i in range(b.num_rows):
            nn = b["n"][i].as_py()
            if not nn:
                continue
            s = np.frombuffer(b["sum"][i].as_py(), dtype=np.float64)
            ss = np.frombuffer(b["sumsq"][i].as_py(), dtype=np.float64)
            n_total += nn
            s_total = s if s_total is None else s_total + s
            ss_total = ss if ss_total is None else ss_total + ss
    if n_total == 0:
        raise ValueError(f"cmvn_stats: no non-null rows in {col!r}")
    mean = s_total / n_total
    var = np.maximum(ss_total / n_total - mean * mean, 0.0)
    return mean, np.sqrt(var), n_total


class CMVNNormalizer:
    """Broadcast-apply corpus CMVN: (x - mean) / std per feature dim,
    appended as `{col}_cmvn` (float32, same fixed list size). The stats
    vectors ride the task closure (a few KB); the big pass stays
    embarrassingly parallel — the canonical two-pass normalization."""

    def __init__(self, mean, std, col: str = "mel_mean",
                 eps: float = 1e-8):
        self.mean = np.asarray(mean, np.float64)
        self.std = np.maximum(np.asarray(std, np.float64), eps)
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        colv = batch[self.col]
        dim = len(self.mean)
        out = []
        vals = colv.to_pylist()
        arr = np.asarray([v if v is not None else [0.0] * dim
                          for v in vals], dtype=np.float64)
        normed = ((arr - self.mean) / self.std).astype(np.float32)
        for i, v in enumerate(vals):
            out.append(normed[i].tolist() if v is not None else None)
        return batch.append_column(
            f"{self.col}_cmvn", pa.array(out, pa.list_(pa.float32(), dim)))


def apply_cmvn(ds, mean, std, *, col: str = "mel_mean"):
    joiner = CMVNNormalizer(mean, std, col=col)
    return ds.map_batches(joiner.__call__, batch_format="pyarrow")
