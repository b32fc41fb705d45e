"""Audio analysis stages: QC metrics, chroma, onset/tempo, time-stretch,
and long-audio chunking.

These extend the validation-tier audio surface (the reference's opt-in
`format` assertion recast as pipeline stages,
/root/reference/jschon/vocabulary/format.py:14-32) with the analysis
operators a training-data curation pipeline runs after decode:

* AudioQC        — clipping / silence / DC / crest / SNR-estimate gates
* ChromaFeatures — 12-bin pitch-class profile (key / tonality signal)
* OnsetTempo     — spectral-flux onset envelope + autocorrelation tempo
* TimeStretcher  — phase-vocoder time-stretch augmentation (rate != 1)
* AudioChunker   — overlapping fixed-length windows over long clips
                   (bounds per-row payload so downstream batches stay
                   memory-bounded at 100 TB)

All are `map_batches` stages in the same deployment shape as
AudioFeatures / MelSpectrogram (stages/features.py, stages/audio_ops.py):
cheap derived state built once per worker (stages/taskpool.py stage_fn),
sample-level math batched into ONE numpy call per batch via concat +
reduceat, per-clip Python work limited to decode and tiny
envelope-length arrays.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .decode import DecodeError, decode_clip

__all__ = [
    "AudioQC", "ChromaFeatures", "OnsetTempo", "TimeStretcher",
    "AudioChunker", "chroma_pitch_class",
]


def _decode_batch(batch: pa.Table):
    """Shared decode scaffold: returns (n, row_indices, float_signals,
    sample_rates) for the decodable rows of a clips batch."""
    n = batch.num_rows
    payloads = batch["bytes"].to_pylist()
    codecs = batch["codec"].to_pylist()
    srs = batch["sr_hz"].to_pylist()
    rows, sigs, rates = [], [], []
    for i in range(n):
        if payloads[i] is None:
            continue
        try:
            pcm, _ = decode_clip(payloads[i], codecs[i])
        except (DecodeError, NotImplementedError):
            continue
        if not len(pcm) or not srs[i] or srs[i] <= 0:
            continue
        rows.append(i)
        sigs.append(pcm.astype(np.float32) / 32768.0)
        rates.append(int(srs[i]))
    return n, rows, sigs, rates


class AudioQC:
    """Quality-control metrics per clip, the audio analogue of the text
    quality gates (functions/text.py): clipping ratio, silence ratio,
    DC offset, crest factor, and a frame-energy SNR estimate, plus a
    combined qc_pass verdict.

    Vectorization: every sample-level reduction (sum, sumsq, max-abs,
    clip count) runs as ONE np.*.reduceat over the concatenated samples
    of the whole batch; frame energies come from one reshape+sum over
    the globally stacked frames. The only per-clip Python work is the
    decode and an O(n_frames) sort for the noise-floor quantile.

    Use: ds.map_batches(stage_fn(AudioQC), batch_format="pyarrow")
    """

    QC_COLUMNS = ("qc_ok", "clip_ratio", "silence_ratio", "dc_offset",
                  "rms_db", "crest_db", "snr_est_db", "qc_pass")

    def __init__(self, frame_len: int = 512, clip_thresh: float = 0.998,
                 silence_db: float = -60.0, noise_frac: float = 0.1,
                 max_clip_ratio: float = 0.01,
                 max_silence_ratio: float = 0.9,
                 min_snr_db: float | None = None,
                 keep_bytes: bool = False):
        # min_snr_db defaults to None (snr_est_db is reported but not
        # gated): the loud-half / noise-floor estimate reads ~0 dB for a
        # perfectly clean STATIONARY signal (no pauses to estimate a
        # floor from), so gating on it by default would fail exactly the
        # cleanest inputs. Opt in for pause-bearing speech corpora.
        self.frame_len = int(frame_len)
        self.clip_thresh = float(clip_thresh)
        self.silence_db = float(silence_db)
        self.noise_frac = float(noise_frac)
        self.max_clip_ratio = float(max_clip_ratio)
        self.max_silence_ratio = float(max_silence_ratio)
        self.min_snr_db = None if min_snr_db is None else float(min_snr_db)
        self.keep_bytes = keep_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        n, rows, sigs, _rates = _decode_batch(batch)
        L = self.frame_len

        ok = np.zeros(n, bool)
        clip_ratio = np.full(n, np.nan)
        silence_ratio = np.full(n, np.nan)
        dc_offset = np.full(n, np.nan)
        rms_db = np.full(n, np.nan)
        crest_db = np.full(n, np.nan)
        snr_est = np.full(n, np.nan)
        qc_pass = np.zeros(n, bool)

        if rows:
            lens = np.array([len(s) for s in sigs], np.int64)
            cat = np.concatenate(sigs)
            offs = np.zeros(len(rows), np.int64)
            np.cumsum(lens[:-1], out=offs[1:])
            abscat = np.abs(cat)
            s_sum = np.add.reduceat(cat, offs)
            s_sumsq = np.add.reduceat(cat * cat, offs)
            s_max = np.maximum.reduceat(abscat, offs)
            s_clip = np.add.reduceat(
                (abscat >= self.clip_thresh).astype(np.float64), offs)

            ridx = np.asarray(rows)
            ok[ridx] = True
            clip_ratio[ridx] = s_clip / lens
            dc_offset[ridx] = s_sum / lens
            ms = s_sumsq / lens
            rdb = np.where(ms > 0, 10.0 * np.log10(np.maximum(ms, 1e-30)),
                           -120.0)
            rms_db[ridx] = rdb
            pdb = np.where(s_max > 0,
                           20.0 * np.log10(np.maximum(s_max, 1e-30)),
                           -120.0)
            crest_db[ridx] = pdb - rdb

            # frame energies: one global reshape+sum, per-clip slices
            frames = [s[:(len(s) // L) * L].reshape(-1, L)
                      if len(s) >= L else
                      np.pad(s, (0, L - len(s)))[None, :]
                      for s in sigs]
            nf = np.array([f.shape[0] for f in frames], np.int64)
            fe = (np.concatenate(frames) ** 2).mean(axis=1)
            fdb = 10.0 * np.log10(np.maximum(fe, 1e-30))
            foffs = np.zeros(len(rows), np.int64)
            np.cumsum(nf[:-1], out=foffs[1:])
            sil = np.add.reduceat(
                (fdb < self.silence_db).astype(np.float64), foffs)
            silence_ratio[ridx] = sil / nf
            # SNR estimate: loud-half mean energy over noise-floor mean
            # (bottom noise_frac frames); per-clip loop over tiny
            # envelope arrays only
            for j, i in enumerate(rows):
                e = np.sort(fe[foffs[j]:foffs[j] + nf[j]])
                k = max(1, int(len(e) * self.noise_frac))
                noise = float(e[:k].mean())
                loud = float(e[len(e) // 2:].mean())
                snr_est[i] = 10.0 * np.log10(
                    max(loud, 1e-30) / max(noise, 1e-30))
            ok_pass = ((clip_ratio[ridx] <= self.max_clip_ratio)
                       & (silence_ratio[ridx] <= self.max_silence_ratio))
            if self.min_snr_db is not None:
                ok_pass &= snr_est[ridx] >= self.min_snr_db
            qc_pass[ridx] = ok_pass

        out = batch if self.keep_bytes else batch.drop_columns(["bytes"])
        for name, arr in zip(self.QC_COLUMNS,
                             (ok, clip_ratio, silence_ratio, dc_offset,
                              rms_db, crest_db, snr_est, qc_pass)):
            out = out.append_column(name, pa.array(arr))
        return out


def chroma_pitch_class(freq_hz: float) -> int:
    """Pitch class (0=A, 11=G#) of a frequency — test oracle helper."""
    return int(np.round(12.0 * np.log2(freq_hz / 440.0))) % 12


class ChromaFeatures:
    """12-bin pitch-class (chroma) profile per clip — the tonality /
    key signal used for music-vs-speech routing and melodic dedup.

    Requires a CONSTANT sample rate (the bin->pitch-class map is
    sr-specific, built once per worker): run AudioResampler first; rows
    at any other rate get chroma_ok=false. One rfft + one (frames x
    bins) @ (bins x 12) matmul per batch; per-clip pooling via
    add.reduceat. Emits chroma (fixed list<float32>[12], L1-normalized)
    and chroma_peak (argmax class, 0=A).
    """

    def __init__(self, sr: int = 16000, frame_len: int = 512,
                 fmin: float = 55.0):
        self.sr = int(sr)
        self.frame_len = int(frame_len)
        L = self.frame_len
        bins = L // 2 + 1
        f = np.arange(bins) * (self.sr / L)
        M = np.zeros((12, bins), np.float64)
        use = f >= fmin
        pc = np.zeros(bins, np.int64)
        pc[use] = (np.round(12.0 * np.log2(f[use] / 440.0))
                   .astype(np.int64)) % 12
        M[pc[use], np.nonzero(use)[0]] = 1.0
        self.map = M                     # (12, bins)
        self.window = np.hanning(L).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        L = self.frame_len
        payloads = batch["bytes"].to_pylist()
        codecs = batch["codec"].to_pylist()
        srs = batch["sr_hz"].to_pylist()

        ok = np.zeros(n, bool)
        peak = np.full(n, -1, np.int32)
        chroma: list = [None] * n

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
            stack = (np.concatenate(frames) * self.window) \
                .astype(np.float64)
            power = np.abs(np.fft.rfft(stack, axis=1)) ** 2
            cg = power @ self.map.T                       # (frames, 12)
            offs = np.zeros(len(rows), np.int64)
            np.cumsum(counts[:-1], out=offs[1:])
            pooled = np.add.reduceat(cg, offs, axis=0)
            tot = pooled.sum(axis=1, keepdims=True)
            pooled = pooled / np.where(tot > 0, tot, 1.0)
            pk = np.argmax(pooled, axis=1).astype(np.int32)
            pk[tot.ravel() <= 0] = -1   # digital silence: no tonal peak
            for j, i in enumerate(rows):
                chroma[i] = pooled[j].astype(np.float32)
                peak[i] = pk[j]
                ok[i] = True

        cols = {name: batch[name] for name in batch.column_names
                if name != "bytes"}
        cols["chroma"] = pa.array(
            [c.tolist() if c is not None else None for c in chroma],
            pa.list_(pa.float32(), 12))
        cols["chroma_peak"] = pa.array(peak)
        cols["chroma_ok"] = pa.array(ok)
        return pa.table(cols)


class OnsetTempo:
    """Spectral-flux onset detection + autocorrelation tempo estimate.

    Requires a CONSTANT sample rate (hop time is sr-derived). Flux is
    computed globally — one rfft over all stacked frames of the batch,
    one np.diff — with clip-boundary rows zeroed; peak-picking and the
    envelope autocorrelation are per-clip loops over O(n_frames)
    arrays (a ~1s clip has ~31 frames at 16 kHz / 512).

    Emits onset_count, onset_rate_hz, tempo_bpm (NaN when the clip has
    too few frames or no periodicity in 30-300 BPM), onset_ok.
    """

    def __init__(self, sr: int = 16000, frame_len: int = 512,
                 delta: float = 1.0, min_rel: float = 0.05,
                 min_bpm: float = 30.0, max_bpm: float = 300.0):
        # min_rel: a peak must also exceed min_rel * the clip's mean
        # per-frame spectral magnitude — the absolute floor that keeps
        # numerical ripple on a stationary signal (flux ~1e-6 of the
        # magnitude scale) from counting as onsets.
        self.sr = int(sr)
        self.frame_len = int(frame_len)
        self.delta = float(delta)
        self.min_rel = float(min_rel)
        self.min_bpm = float(min_bpm)
        self.max_bpm = float(max_bpm)
        self.window = np.hanning(self.frame_len).astype(np.float32)
        self.hop_s = self.frame_len / self.sr

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        L = self.frame_len
        payloads = batch["bytes"].to_pylist()
        codecs = batch["codec"].to_pylist()
        srs = batch["sr_hz"].to_pylist()

        ok = np.zeros(n, bool)
        onset_count = np.zeros(n, np.int32)
        onset_rate = np.full(n, np.nan)
        tempo = np.full(n, np.nan)

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
                continue
            frames.append(f[:nf * L].reshape(nf, L))
            counts.append(nf)
            rows.append(i)

        if rows:
            stack = (np.concatenate(frames) * self.window) \
                .astype(np.float64)
            mag = np.abs(np.fft.rfft(stack, axis=1))
            flux = np.zeros(mag.shape[0])
            d = mag[1:] - mag[:-1]
            np.maximum(d, 0.0, out=d)
            flux[1:] = d.sum(axis=1)
            offs = np.zeros(len(rows), np.int64)
            np.cumsum(counts[:-1], out=offs[1:])
            flux[offs] = 0.0     # no flux across clip boundaries
            framemag = mag.sum(axis=1)
            scale = np.add.reduceat(framemag, offs) \
                / np.asarray(counts, np.float64)

            for j, i in enumerate(rows):
                env = flux[offs[j]:offs[j] + counts[j]]
                ok[i] = True
                if len(env) < 3:
                    continue
                thresh = max(env.mean() + self.delta * env.std(),
                             self.min_rel * scale[j])
                peaks = ((env[1:-1] > thresh)
                         & (env[1:-1] >= env[:-2])
                         & (env[1:-1] >= env[2:]))
                cnt = int(peaks.sum())
                onset_count[i] = cnt
                dur = len(env) * self.hop_s
                onset_rate[i] = cnt / dur if dur > 0 else np.nan
                # tempo: autocorrelation peak in the BPM lag band
                e = env - env.mean()
                if len(e) >= 8 and e.std() > 0:
                    ac = np.correlate(e, e, mode="full")[len(e) - 1:]
                    lag_lo = max(1, int(60.0 / (self.max_bpm
                                                * self.hop_s)))
                    lag_hi = min(len(ac) - 1,
                                 int(60.0 / (self.min_bpm * self.hop_s)))
                    if lag_hi > lag_lo and ac[0] > 0:
                        band = ac[lag_lo:lag_hi + 1]
                        # earliest local max within 50% of the band
                        # peak — avoids octave-down (period-multiple)
                        # errors the raw argmax makes
                        cut = 0.5 * band.max()
                        loc = np.nonzero(
                            (band[1:-1] >= band[:-2])
                            & (band[1:-1] >= band[2:])
                            & (band[1:-1] >= cut))[0] + 1
                        lag = lag_lo + (int(loc[0]) if len(loc)
                                        else int(np.argmax(band)))
                        if ac[lag] > 0.1 * ac[0]:
                            tempo[i] = 60.0 / (lag * self.hop_s)

        cols = {name: batch[name] for name in batch.column_names
                if name != "bytes"}
        cols["onset_count"] = pa.array(onset_count)
        cols["onset_rate_hz"] = pa.array(onset_rate)
        cols["tempo_bpm"] = pa.array(tempo)
        cols["onset_ok"] = pa.array(ok)
        return pa.table(cols)


class TimeStretcher:
    """Phase-vocoder time-stretch (rate-preserving pitch) — the audio
    augmentation analogue of AudioAugmenter's gain/shift variants.

    rate > 1 lengthens, rate < 1 shortens (output_len ~= input_len *
    rate). Synthesis hop Hs = frame_len/4; analysis hop Ha =
    round(Hs / rate). The batch does ONE rfft and ONE irfft over the
    frames of all its clips. Phase propagation (the per-frame cumulative
    sum of instantaneous frequencies) is one np.cumsum per clip over
    that clip's frames alone, so a clip's output does not depend on the
    clips batched with it; the other per-clip loop is the WOLA
    overlap-add, same shape as NoiseReducer (audio_ops.py).

    Re-emits raw s16le payloads (codec='pcm_s16le') with updated
    dur_ms, chainable before any downstream feature stage.
    """

    # the STFT keeps about ten frames x bins float64/complex arrays per
    # clip, ~150x its s16 PCM: half the default piece
    PIECE_ROWS = 128

    def __init__(self, rate: float = 1.25, frame_len: int = 512):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if frame_len % 4:
            raise ValueError("frame_len must be a multiple of 4 "
                             "(Hs = frame_len/4 block overlap-add)")
        self.rate = float(rate)
        self.frame_len = int(frame_len)
        self.hop_s = self.frame_len // 4
        self.hop_a = max(1, int(round(self.hop_s / self.rate)))
        self.window = np.hanning(self.frame_len).astype(np.float64)
        L = self.frame_len
        self.omega = 2.0 * np.pi * np.arange(L // 2 + 1) / L  # rad/sample

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        L, Ha, Hs = self.frame_len, self.hop_a, self.hop_s
        payloads = batch["bytes"].to_pylist()
        codecs = batch["codec"].to_pylist()
        srs = batch["sr_hz"].to_pylist()

        durs = batch["dur_ms"].to_pylist() \
            if "dur_ms" in batch.column_names else [None] * n
        out_bytes: list = [None] * n
        out_ns = np.zeros(n, np.int64)
        ok = np.zeros(n, bool)

        frames, counts, rows = [], [], []
        for i in range(n):
            if payloads[i] is None or srs[i] is None or srs[i] <= 0:
                continue
            try:
                pcm, _ = decode_clip(payloads[i], codecs[i])
            except (DecodeError, NotImplementedError):
                continue
            f = pcm.astype(np.float64) / 32768.0
            if len(f) < L:
                f = np.pad(f, (0, L - len(f)))
            nf = 1 + (len(f) - L) // Ha
            idx = (np.arange(nf)[:, None] * Ha
                   + np.arange(L)[None, :])
            frames.append(f[idx] * self.window)
            counts.append(nf)
            rows.append(i)

        if rows:
            X = np.fft.rfft(np.concatenate(frames), axis=1)
            mag = np.abs(X)
            phase = np.angle(X)
            offs = np.zeros(len(rows), np.int64)
            np.cumsum(np.asarray(counts[:-1]), out=offs[1:])

            # instantaneous frequency per frame (wrapped phase advance
            # over the analysis hop), boundary rows reset below
            dphi = np.empty_like(phase)
            dphi[0] = 0.0
            dphi[1:] = phase[1:] - phase[:-1] - Ha * self.omega
            dphi -= 2.0 * np.pi * np.round(dphi / (2.0 * np.pi))
            inst = self.omega + dphi / Ha                 # rad/sample
            inc = Hs * inst                               # per-frame add
            inc[offs] = 0.0
            # each clip's phase starts at its first frame's and sums only
            # its own increments: a cumsum over the whole batch would
            # round each clip's phase by the clips before it
            syn_phase = np.empty_like(inc)
            for s, c in zip(offs, counts):
                syn_phase[s:s + c] = phase[s] + np.cumsum(inc[s:s + c],
                                                          axis=0)
            Y = mag * np.exp(1j * syn_phase)
            y = np.fft.irfft(Y, n=L, axis=1) * self.window

            # WOLA via Hs-block decomposition: frame j's m-th Hs-block
            # lands at output block j+m, so the whole overlap-add is 4
            # strided vector adds per clip (np.add.at on raveled index
            # grids measured ~20x slower at sf0.01)
            wb = (self.window * self.window).reshape(4, Hs)
            for j, i in enumerate(rows):
                nf = counts[j]
                blocks = y[offs[j]:offs[j] + nf].reshape(nf, 4, Hs)
                acc = np.zeros((nf + 3, Hs))
                nrm = np.zeros((nf + 3, Hs))
                for m in range(4):
                    acc[m:m + nf] += blocks[:, m, :]
                    nrm[m:m + nf] += wb[m]
                sig = acc.ravel() / np.maximum(nrm.ravel(), 1e-8)
                pcm = np.clip(np.rint(sig * 32768.0), -32768, 32767) \
                    .astype("<i2")
                out_bytes[i] = pcm.tobytes()
                out_ns[i] = len(pcm)
                ok[i] = True

        cols = {name: batch[name] for name in batch.column_names
                if name != "bytes"}
        # keep-original-payload contract on failed rows (the sibling
        # stages' rule: a transient decode failure must not erase the
        # clip's audio or duration metadata)
        cols["bytes"] = pa.array(
            [out_bytes[i] if ok[i] else payloads[i] for i in range(n)],
            pa.binary())
        cols["codec"] = pa.array(
            ["pcm_s16le" if ok[i] else (codecs[i] if codecs[i] else None)
             for i in range(n)], pa.string())
        dur = [int(out_ns[i] * 1000 / srs[i]) if ok[i] and srs[i]
               else durs[i] for i in range(n)]
        cols["dur_ms"] = pa.array(dur, pa.int32())
        cols["stretch_ok"] = pa.array(ok)
        cols["n_samples"] = pa.array(out_ns)
        return pa.table(cols)


class AudioChunker:
    """Split clips into fixed-length windows (full chunks only), one
    output row per chunk — the long-audio scale path: a 2-hour
    recording becomes bounded ~chunk_ms rows so downstream feature
    batches never hold a whole file in memory.

    chunk i covers samples [i*hop, i*hop + chunk); a clip with
    n < chunk samples yields 0 rows. n_chunks is therefore exactly
    `(n - chunk) // hop + 1` for n >= chunk — SQL-expressible from
    octet_length(bytes) for raw s16le payloads, which is what the
    audio_chunk_clips driver oracle checks.

    Emits clip_id, chunk_idx, chunk_start_ms, n_chunks, bytes (s16le
    slice), sr_hz, codec='pcm_s16le'. Undecodable rows are dropped
    (they produce no chunks).
    """

    def __init__(self, chunk_ms: int = 400, hop_ms: int = 200,
                 emit_bytes: bool = True):
        self.chunk_ms = int(chunk_ms)
        self.hop_ms = int(hop_ms)
        self.emit_bytes = emit_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        n, rows, sigs, rates = _decode_batch(batch)
        ids = batch["clip_id"].to_pylist()

        o_id, o_idx, o_start, o_n, o_bytes, o_sr = [], [], [], [], [], []
        for j, i in enumerate(rows):
            sr = rates[j]
            # integer arithmetic so the SQL oracle ((sr*ms)//1000) is
            # exact for every sr, not float-rounding-dependent
            chunk = (sr * self.chunk_ms) // 1000
            hop = max(1, (sr * self.hop_ms) // 1000)
            sig = sigs[j]
            ns = len(sig)
            if chunk <= 0 or ns < chunk:
                continue
            nch = (ns - chunk) // hop + 1
            pcm = np.clip(sig * 32768.0, -32768, 32767).astype("<i2") \
                if self.emit_bytes else None
            for c in range(nch):
                s = c * hop
                o_id.append(ids[i])
                o_idx.append(c)
                o_start.append(int(s * 1000 / sr))
                o_n.append(nch)
                o_sr.append(sr)
                if self.emit_bytes:
                    o_bytes.append(pcm[s:s + chunk].tobytes())

        cols = {
            "clip_id": pa.array(o_id, pa.string()),
            "chunk_idx": pa.array(o_idx, pa.int32()),
            "chunk_start_ms": pa.array(o_start, pa.int32()),
            "n_chunks": pa.array(o_n, pa.int32()),
            "sr_hz": pa.array(o_sr, pa.int32()),
        }
        if self.emit_bytes:
            cols["bytes"] = pa.array(o_bytes, pa.binary())
            cols["codec"] = pa.array(["pcm_s16le"] * len(o_id),
                                     pa.string())
        return pa.table(cols)


class SilenceTrimmer:
    """Trim leading/trailing silence (frames below `threshold_db`) and
    re-emit raw s16le payloads — the pre-tokenization dead-air cut.

    Frame energies for the whole batch come from ONE reshape+sum over
    the stacked frames; per clip only the first/last above-threshold
    frame index is Python work. Clips that are entirely silent are
    emitted with trim_ok=false and their original payload (callers
    route them to the quarantine/QC path instead).
    """

    def __init__(self, frame_ms: int = 20, threshold_db: float = -50.0,
                 pad_frames: int = 1):
        self.frame_ms = int(frame_ms)
        self.threshold_db = float(threshold_db)
        self.pad_frames = int(pad_frames)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n, rows, sigs, rates = _decode_batch(batch)
        codecs = batch["codec"].to_pylist()

        out_bytes = batch["bytes"].to_pylist()
        out_codec = list(codecs)
        ok = np.zeros(n, bool)
        kept = np.zeros(n, np.int64)
        cut_ms = np.zeros(n, np.int32)

        if rows:
            # frame with a PER-CLIP frame length (sr-dependent ms) but
            # stack energies globally
            frames, counts, lens = [], [], []
            for j, i in enumerate(rows):
                L = max(1, (rates[j] * self.frame_ms) // 1000)
                s = sigs[j]
                nf = len(s) // L
                if nf == 0:                    # sub-frame clip: pad
                    pad = np.zeros(L, np.float32)
                    pad[:len(s)] = s
                    f, nf = pad[None, :], 1
                else:
                    f = s[:nf * L].reshape(nf, L)
                frames.append((f * f).mean(axis=1))
                counts.append(nf)
                lens.append(L)
            fe = np.concatenate(frames)
            fdb = 10.0 * np.log10(np.maximum(fe, 1e-30))
            offs = np.zeros(len(rows), np.int64)
            np.cumsum(np.asarray(counts[:-1]), out=offs[1:])
            for j, i in enumerate(rows):
                e = fdb[offs[j]:offs[j] + counts[j]]
                above = np.flatnonzero(e >= self.threshold_db)
                if not len(above):
                    continue
                lo = max(0, int(above[0]) - self.pad_frames)
                hi = min(counts[j],
                         int(above[-1]) + 1 + self.pad_frames)
                L = lens[j]
                # last kept frame also keeps the sub-frame remainder
                end = len(sigs[j]) if hi >= counts[j] else hi * L
                seg = sigs[j][lo * L:end]
                pcm = np.clip(seg * 32768.0, -32768, 32767) \
                    .astype("<i2")
                out_bytes[i] = pcm.tobytes()
                out_codec[i] = "pcm_s16le"
                kept[i] = len(pcm)
                cut_ms[i] = int((len(sigs[j]) - len(seg)) * 1000
                                / rates[j])
                ok[i] = True

        cols = {name: batch[name] for name in batch.column_names
                if name not in ("bytes", "codec")}
        cols["bytes"] = pa.array(out_bytes, pa.binary())
        cols["codec"] = pa.array(out_codec, pa.string())
        cols["trim_ok"] = pa.array(ok)
        cols["n_samples"] = pa.array(kept)
        cols["trimmed_ms"] = pa.array(cut_ms)
        return pa.table(cols)


class Compressor:
    """Dynamic-range compressor (broadcast-chain style): static gain
    curve above `threshold_db` at `ratio`:1 over a frame-level RMS
    envelope, attack/release smoothing on the per-FRAME gain (a ~50-
    element scalar recursion per clip — the only non-vectorized loop,
    at frame granularity, never per sample), gain linearly interpolated
    back to sample rate. Re-emits s16le payloads + applied gain stats.
    """

    def __init__(self, threshold_db: float = -20.0, ratio: float = 4.0,
                 frame_ms: int = 10, attack_frames: int = 2,
                 release_frames: int = 8, makeup_db: float = 0.0):
        self.threshold_db = float(threshold_db)
        self.ratio = float(ratio)
        self.frame_ms = int(frame_ms)
        self.a_att = 1.0 / max(1, attack_frames)
        self.a_rel = 1.0 / max(1, release_frames)
        self.makeup = 10.0 ** (float(makeup_db) / 20.0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n, rows, sigs, rates = _decode_batch(batch)
        codecs = batch["codec"].to_pylist()

        out_bytes = batch["bytes"].to_pylist()
        out_codec = list(codecs)
        ok = np.zeros(n, bool)
        mean_gr_db = np.full(n, np.nan)

        for j, i in enumerate(rows):
            sr = rates[j]
            L = max(1, (sr * self.frame_ms) // 1000)
            s = sigs[j]
            nf = len(s) // L
            if nf == 0:                        # sub-frame clip: pad
                pad = np.zeros(L, np.float32)
                pad[:len(s)] = s
                f, nf = pad[None, :], 1
            else:
                f = s[:nf * L].reshape(nf, L)
            lvl_db = 10.0 * np.log10(
                np.maximum((f * f).mean(axis=1), 1e-30))
            over = np.maximum(lvl_db - self.threshold_db, 0.0)
            target = -over * (1.0 - 1.0 / self.ratio)   # dB gain <= 0
            g = np.empty(nf)
            prev = 0.0
            for k in range(nf):                 # frame-level recursion
                a = self.a_att if target[k] < prev else self.a_rel
                prev = prev + a * (target[k] - prev)
                g[k] = prev
            gain = 10.0 ** (g / 20.0) * self.makeup
            # hold each frame's gain across its samples, then apply
            sample_gain = np.repeat(gain, L)
            out = s.astype(np.float64)
            m = min(len(out), nf * L)
            out[:m] *= sample_gain[:m]
            if len(s) > nf * L:
                out[nf * L:] *= gain[-1]
            pcm = np.clip(np.rint(out * 32768.0), -32768, 32767) \
                .astype("<i2")
            out_bytes[i] = pcm.tobytes()
            out_codec[i] = "pcm_s16le"
            mean_gr_db[i] = float(g.mean())
            ok[i] = True

        cols = {name: batch[name] for name in batch.column_names
                if name not in ("bytes", "codec")}
        cols["bytes"] = pa.array(out_bytes, pa.binary())
        cols["codec"] = pa.array(out_codec, pa.string())
        cols["compress_ok"] = pa.array(ok)
        cols["mean_gain_db"] = pa.array(mean_gr_db,
                                        mask=np.isnan(mean_gr_db))
        return pa.table(cols)


class WavWriter:
    """Re-encode decodable clips as canonical RIFF/WAVE containers
    (44-byte header + mono s16le frames, the same layout
    sources/clips.py wav_bytes emits) — the normalize-container step
    before handing a corpus to tooling that wants real .wav payloads.

    Output payload size is EXACTLY 44 + 2*n_samples, which makes the
    transcode audit SQL-expressible for raw-PCM inputs
    (audio_transcode_clips oracle). Undecodable rows keep their payload
    with wav_ok=false.
    """

    def __init__(self):
        pass

    def __call__(self, batch: pa.Table) -> pa.Table:
        import struct

        n, rows, sigs, rates = _decode_batch(batch)
        codecs = batch["codec"].to_pylist()
        out_bytes = batch["bytes"].to_pylist()
        out_codec = list(codecs)
        ok = np.zeros(n, bool)
        nsamp = np.zeros(n, np.int64)

        for j, i in enumerate(rows):
            pcm = np.clip(sigs[j] * 32768.0, -32768, 32767) \
                .astype("<i2")
            data = pcm.tobytes()
            sr = rates[j]
            hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) \
                + b"WAVEfmt "
            hdr += struct.pack("<IHHIIHH", 16, 1, 1, sr, sr * 2, 2, 16)
            hdr += b"data" + struct.pack("<I", len(data))
            out_bytes[i] = hdr + data
            out_codec[i] = "wav"
            nsamp[i] = len(pcm)
            ok[i] = True

        cols = {name: batch[name] for name in batch.column_names
                if name not in ("bytes", "codec")}
        cols["bytes"] = pa.array(out_bytes, pa.binary())
        cols["codec"] = pa.array(out_codec, pa.string())
        cols["wav_ok"] = pa.array(ok)
        cols["n_samples"] = pa.array(nsamp)
        return pa.table(cols)


class PitchShifter:
    """Pitch-shift augmentation by `semitones` with duration preserved:
    phase-vocoder time-stretch by r = 2^(semitones/12) (pitch
    unchanged, duration x r) followed by linear resampling back to the
    original duration (pitch x r, duration ~original) — the classic
    stretch-then-resample composition, reusing TimeStretcher's batched
    kernels. Re-emits s16le payloads.
    """

    PIECE_ROWS = TimeStretcher.PIECE_ROWS  # runs TimeStretcher's STFT

    def __init__(self, semitones: float = 2.0, frame_len: int = 512):
        self.semitones = float(semitones)
        self.rate = 2.0 ** (self.semitones / 12.0)
        self._stretch = TimeStretcher(rate=self.rate,
                                      frame_len=frame_len)

    def __call__(self, batch: pa.Table) -> pa.Table:
        stretched = self._stretch(batch)
        n = stretched.num_rows
        payloads = stretched["bytes"].to_pylist()
        ok_in = stretched["stretch_ok"].to_numpy(zero_copy_only=False)
        orig_payloads = batch["bytes"].to_pylist()

        out_bytes = list(orig_payloads)
        ok = np.zeros(n, bool)
        nsamp = np.zeros(n, np.int64)
        for i in range(n):
            if not ok_in[i] or payloads[i] is None:
                continue
            pcm = np.frombuffer(payloads[i], "<i2").astype(np.float64)
            # resample the stretched signal back to the ORIGINAL
            # duration: reading it at rate r compresses time by r and
            # scales pitch by r. floor (not round) so the output length
            # is a pure function of the input length that a SQL oracle
            # reproduces bit-for-bit (audio_pitchshift_clips)
            target_n = max(1, int(len(pcm) / self.rate))
            pos = np.linspace(0.0, len(pcm) - 1, target_n)
            res = np.interp(pos, np.arange(len(pcm)), pcm)
            out = np.clip(res, -32768, 32767).astype("<i2")
            out_bytes[i] = out.tobytes()
            nsamp[i] = len(out)
            ok[i] = True

        cols = {name: batch[name] for name in batch.column_names
                if name not in ("bytes", "codec")}
        cols["bytes"] = pa.array(out_bytes, pa.binary())
        cols["codec"] = pa.array(
            ["pcm_s16le" if ok[i] else
             (batch["codec"][i].as_py()) for i in range(n)],
            pa.string())
        cols["shift_ok"] = pa.array(ok)
        cols["n_samples"] = pa.array(nsamp)
        return pa.table(cols)


class R128LoudnessNormalizer:
    """Two-phase loudness normalization per clip (measure -> gain), the
    corpus-leveling stage an ASR/TTS data pipeline runs before feature
    extraction: EBU-R128-FLAVORED gated program loudness (400 ms blocks,
    75 % overlap, -70 dB absolute gate then a -10 dB relative gate;
    K-weighting omitted — mono synthetic PCM, documented deviation) and
    a single linear gain to `target_db`, clamped to ±`max_gain_db` so
    pathological near-silence cannot explode. Re-emits s16le payloads
    plus (loudness_db, gain_db, n_samples, loudnorm_ok); undecodable or
    fully-gated clips keep their payload with loudnorm_ok=false (QC /
    quarantine routing, same contract as SilenceTrimmer).

    Batch math: block mean-squares for the whole batch come from ONE
    cumulative-sum pass per clip (no per-block Python loop); gating and
    gain are O(blocks-per-clip) numpy reductions.
    """

    def __init__(self, target_db: float = -23.0, block_ms: int = 400,
                 hop_divisor: int = 4, abs_gate_db: float = -70.0,
                 rel_gate_db: float = -10.0, max_gain_db: float = 30.0):
        self.target_db = float(target_db)
        self.block_ms = int(block_ms)
        self.hop_divisor = int(hop_divisor)
        self.abs_gate_db = float(abs_gate_db)
        self.rel_gate_db = float(rel_gate_db)
        self.max_gain_db = float(max_gain_db)

    def _loudness_db(self, s: np.ndarray, sr: int) -> float | None:
        L = max(1, (sr * self.block_ms) // 1000)
        H = max(1, L // self.hop_divisor)
        if len(s) < L:
            blocks = np.array([float(np.mean(s * s))]) if len(s) else None
        else:
            c = np.concatenate(([0.0], np.cumsum(s.astype(np.float64) ** 2)))
            starts = np.arange(0, len(s) - L + 1, H)
            blocks = (c[starts + L] - c[starts]) / L
        if blocks is None or not len(blocks):
            return None
        bdb = 10.0 * np.log10(np.maximum(blocks, 1e-30))
        keep = bdb > self.abs_gate_db
        if not keep.any():
            return None
        ungated = 10.0 * np.log10(max(float(blocks[keep].mean()), 1e-30))
        keep2 = keep & (bdb > ungated + self.rel_gate_db)
        if not keep2.any():
            keep2 = keep
        return 10.0 * np.log10(max(float(blocks[keep2].mean()), 1e-30))

    def __call__(self, batch: pa.Table) -> pa.Table:
        n, rows, sigs, rates = _decode_batch(batch)
        out_bytes = batch["bytes"].to_pylist()
        out_codec = batch["codec"].to_pylist()
        ok = np.zeros(n, bool)
        loud = np.full(n, np.nan, np.float64)
        gain = np.full(n, np.nan, np.float64)
        kept = np.zeros(n, np.int64)

        for j, i in enumerate(rows):
            ld = self._loudness_db(sigs[j], rates[j])
            if ld is None:
                continue
            g = float(np.clip(self.target_db - ld,
                              -self.max_gain_db, self.max_gain_db))
            scaled = sigs[j] * (10.0 ** (g / 20.0))
            pcm = np.clip(np.rint(scaled * 32768.0), -32768,
                          32767).astype("<i2")
            out_bytes[i] = pcm.tobytes()
            out_codec[i] = "pcm_s16le"
            loud[i] = round(ld, 4)
            gain[i] = round(g, 4)
            kept[i] = len(pcm)
            ok[i] = True

        cols = {name: batch[name] for name in batch.column_names
                if name not in ("bytes", "codec")}
        cols["bytes"] = pa.array(out_bytes, pa.binary())
        cols["codec"] = pa.array(out_codec, pa.string())
        cols["loudnorm_ok"] = pa.array(ok)
        cols["loudness_db"] = pa.array(loud, pa.float64())
        cols["gain_db"] = pa.array(gain, pa.float64())
        cols["n_samples"] = pa.array(kept)
        return pa.table(cols)
