"""Audio decode stage: task-pool map_batches over binary payloads.

The reference's ``format`` keyword concept (opt-in assertion backed by a
registered validator, /root/reference/jschon/vocabulary/format.py:14-32)
lifted to a dataset stage: decode each clip's ``bytes`` per ``codec``,
assert decodability + consistency with the declared (sr_hz, dur_ms), and
optionally emit decoded-PCM features.

Real decoders (no external libs needed):
  * pcm_s16le — raw little-endian int16 frames (numpy frombuffer)
  * wav       — RIFF/WAVE container parse (stdlib struct)
Sandbox stubs (clearly marked): flac/opus/mp3 — no codec libraries in this
container. If ``soundfile`` is importable we'd use it (import-try below);
otherwise payloads carry the deterministic FAKE container written by
sources/clips.py (b'FAKE<codec>' + s16le PCM) and we decode that, or raise
NotImplementedError for real compressed data.

Scale notes: ClipDecoder runs through ``taskpool.stage_fn``, which
decodes whole blocks in ``ClipDecoder.PIECE_ROWS``-row pieces, so its
map_batches sets no ``batch_size`` and fuses with the read; PCM arrays
never leave the stage (only small per-row features do), so blocks stay
bounded.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

try:  # real codec path, absent in this sandbox
    import soundfile  # noqa: F401
    HAVE_SOUNDFILE = True
except ImportError:
    HAVE_SOUNDFILE = False


class DecodeError(ValueError):
    pass


def decode_pcm_s16le(payload: bytes) -> np.ndarray:
    if len(payload) % 2:
        raise DecodeError(f"odd payload length {len(payload)}")
    return np.frombuffer(payload, dtype="<i2")


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """Parse a canonical mono 16-bit RIFF/WAVE payload -> (pcm, sr)."""
    if len(payload) < 44 or payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise DecodeError("not a RIFF/WAVE payload")
    if payload[12:16] != b"fmt ":
        raise DecodeError("missing fmt chunk")
    (_sz, fmt, ch, sr, _br, _ba, bits) = struct.unpack("<IHHIIHH",
                                                       payload[16:36])
    if fmt != 1 or ch != 1 or bits != 16:
        raise DecodeError(f"unsupported wav format fmt={fmt} ch={ch} bits={bits}")
    if payload[36:40] != b"data":
        raise DecodeError("missing data chunk")
    (dlen,) = struct.unpack("<I", payload[40:44])
    data = payload[44:44 + dlen]
    if len(data) < dlen:
        raise DecodeError(f"truncated data chunk ({len(data)} < {dlen})")
    if dlen % 2:
        raise DecodeError(f"odd data chunk length {dlen}")
    return np.frombuffer(data, dtype="<i2"), sr


def decode_fake_container(payload: bytes, codec: str) -> np.ndarray:
    """SANDBOX STUB: deterministic fake for flac/opus/mp3 (see module doc)."""
    magic = b"FAKE" + codec.encode().ljust(8, b"\0")
    if not payload.startswith(magic):
        if HAVE_SOUNDFILE:  # pragma: no cover - not in this container
            import io
            import soundfile as sf
            data, _sr = sf.read(io.BytesIO(payload), dtype="int16")
            return np.asarray(data, dtype="<i2")
        raise NotImplementedError(
            f"real {codec} decoding requires a codec library not present "
            "in this sandbox")
    return decode_pcm_s16le(payload[len(magic):])


def decode_clip(payload: bytes, codec: str) -> tuple[np.ndarray, int | None]:
    """-> (pcm int16 array, container-declared sr or None)."""
    if codec == "pcm_s16le":
        return decode_pcm_s16le(payload), None
    if codec == "wav":
        pcm, sr = decode_wav(payload)
        return pcm, sr
    if codec in ("flac", "opus", "mp3"):
        return decode_fake_container(payload, codec), None
    raise DecodeError(f"unknown codec {codec!r}")


def snr_db(signal: np.ndarray, reference: np.ndarray) -> float:
    """SNR of `signal` vs `reference` in dB (inf when identical)."""
    n = min(len(signal), len(reference))
    if n == 0 or len(signal) != len(reference):
        return float("-inf")
    s = reference.astype(np.float64)
    e = signal.astype(np.float64) - s
    ps = float(np.mean(s * s))
    pe = float(np.mean(e * e))
    if pe == 0.0:
        return float("inf")
    if ps == 0.0:
        return float("-inf")
    return 10.0 * np.log10(ps / pe)


_FAKE_CODECS = ("flac", "opus", "mp3")
_FAKE_MAGIC_LEN = 12


def _binary_parts(col: pa.Array):
    """(data: np.uint8 view, starts, ends, present) of a Binary/LargeBinary
    array — zero-copy access to its payload buffer. A chunked one is
    combined first, a copy only when it has several non-empty chunks
    (the stage path cuts its pieces at the chunk bounds, ClipDecoder.
    PIECE_CHUNKS_OF)."""
    if isinstance(col, pa.ChunkedArray):
        chunks = [c for c in col.chunks if len(c)]
        col = chunks[0] if len(chunks) == 1 else col.combine_chunks()
    buf_validity, buf_offsets, buf_data = col.buffers()
    off_dtype = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    offsets = np.frombuffer(buf_offsets, off_dtype)[
        col.offset:col.offset + len(col) + 1].astype(np.int64)
    data = np.frombuffer(buf_data, np.uint8) if buf_data is not None \
        else np.zeros(0, np.uint8)
    present = np.ones(len(col), bool) if buf_validity is None else \
        np.unpackbits(np.frombuffer(buf_validity, np.uint8),
                      bitorder="little")[col.offset:col.offset + len(col)] \
        .astype(bool)
    return data, offsets[:-1], offsets[1:], present


_STATS_CHUNK = 1 << 19  # bytes of payload per vector group: the working
# set (int16 view + int32 squares) stays cache-resident — large bulk
# temporaries are memory-bandwidth-bound on shared hosts
_CLIP_SQ = 32767 ** 2   # x*x >= this  <=>  |x| >= 32767


def _segment_gather_stats(data: np.ndarray, starts, ends, rows, n,
                          frames, rms, clip_ratio):
    """Bulk int16 stats for sample regions [starts, ends) of `data`:
    cache-sized groups of segments, one squared reduceat per group — no
    per-sample Python work."""
    m = len(rows)
    if m == 0:
        return
    lens = ends - starts
    frames[rows] = lens // 2
    i = 0
    while i < m:
        j, total = i, 0
        while j < m and (j == i or total + lens[j] <= _STATS_CHUNK):
            total += lens[j]
            j += 1
        seg = [data[starts[k]:ends[k]] for k in range(i, j)]
        packed = np.concatenate(seg) if len(seg) > 1 else seg[0].copy()
        s16 = packed.view("<i2")
        # int16 -> int32 squares in ONE temporary (|x| <= 32768, so
        # x*x <= 2**30 fits, and no abs() overflow on -32768); the clip
        # test reads the squares; int64 sums are exact, as float64 was
        sq = np.multiply(s16, s16, dtype=np.int32)
        clip = sq >= _CLIP_SQ
        glens = (lens[i:j] // 2)
        bounds = np.zeros(j - i + 1, np.int64)
        np.cumsum(glens, out=bounds[1:])
        nonempty = np.nonzero(glens > 0)[0]
        if len(nonempty):
            idx = bounds[:-1][nonempty]
            seg_sums = np.add.reduceat(sq, idx, dtype=np.int64)
            seg_clip = np.add.reduceat(clip, idx, dtype=np.int64)
            counts = glens[nonempty].astype(np.float64)
            r = rows[i:j][nonempty]
            rms[r] = np.sqrt(seg_sums / counts)
            clip_ratio[r] = seg_clip / counts
        i = j


class ClipDecoder:
    """map_batches stage: decode + consistency features per clip.

    Output columns appended: decode_ok:bool, decode_error:string,
    n_frames:int64, measured_dur_ms:float64, rms:float64, clipping_ratio:
    float64. Duration consistency: |measured - declared| <= tol_ms.

    As a stage, a block is decoded in pieces of at most ``PIECE_ROWS``
    rows, each inside one chunk of ``bytes``. Hot path is fully
    vectorized: payload slices are addressed through that chunk's binary
    buffer's offsets (zero copy), canonical WAV headers are parsed as a
    (rows, 44) uint8 matrix, and sample statistics use one masked gather
    + reduceat per piece. Rows that do not match a canonical fast path fall back to the
    per-row decoders for byte-identical errors.
    """

    # the sample gather is bounded by _STATS_CHUNK bytes, not by rows, so
    # larger pieces only spread the per-call cost over more rows
    PIECE_ROWS = 1024
    PIECE_CHUNKS_OF = "bytes"  # _binary_parts reads one chunk in place

    def __init__(self, tol_ms: float = 1.5):
        self.tol_ms = tol_ms

    # -- per-row fallback (exact reference of behavior) -------------------
    def _slow_row(self, payload, codec, sr, dur, i, ok, err, frames, mdur,
                  rms, clip_ratio):
        try:
            pcm, declared_sr = decode_clip(payload, codec)
        except (DecodeError, NotImplementedError) as e:
            err[i] = f"{type(e).__name__}: {e}"
            return
        frames[i] = len(pcm)
        if declared_sr is not None and sr is not None and declared_sr != sr:
            err[i] = (f"container sample rate {declared_sr} != declared "
                      f"sr_hz {sr}")
            return
        if sr and sr > 0:
            mdur[i] = 1000.0 * len(pcm) / sr
            if dur is not None and dur > 0 and \
                    abs(mdur[i] - dur) > self.tol_ms + 1000.0 / sr:
                err[i] = (f"duration mismatch: measured {mdur[i]:.1f}ms "
                          f"!= declared {dur}ms")
                return
        if len(pcm):
            f = pcm.astype(np.float64)
            rms[i] = float(np.sqrt(np.mean(f * f)))
            # int16 domain test: abs(-32768) overflows back to -32768
            clip_ratio[i] = float(np.mean((pcm >= 32767)
                                          | (pcm <= -32767)))
        ok[i] = True

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ok = np.zeros(n, bool)
        err = [None] * n
        frames = np.zeros(n, np.int64)
        mdur = np.full(n, np.nan)
        rms = np.full(n, np.nan)
        clip_ratio = np.full(n, np.nan)

        data, starts, ends, present = _binary_parts(batch["bytes"])
        codecs = np.asarray(batch["codec"].to_pylist(), dtype=object)
        srs = batch["sr_hz"].to_numpy(zero_copy_only=False).astype(np.float64)
        durs = batch["dur_ms"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)

        missing = ~present | np.asarray([c is None for c in codecs])
        for i in np.nonzero(missing)[0]:
            err[i] = "missing payload or codec"

        slow_rows: list[int] = []
        # sample regions that survive decode, gathered in one pass at the end
        reg_rows: list[np.ndarray] = []
        reg_starts: list[np.ndarray] = []
        reg_ends: list[np.ndarray] = []
        declared_sr = np.full(n, np.nan)

        live = ~missing

        # ---- pcm_s16le + fake containers: offset arithmetic only ---------
        for codec_name, hdr in [("pcm_s16le", 0)] + \
                [(c, _FAKE_MAGIC_LEN) for c in _FAKE_CODECS]:
            rows = np.nonzero(live & (codecs == codec_name))[0]
            if not len(rows):
                continue
            s, e = starts[rows], ends[rows]
            if hdr:
                magic = np.frombuffer(
                    b"FAKE" + codec_name.encode().ljust(8, b"\0"), np.uint8)
                fits = (e - s) >= hdr
                hm = np.zeros(len(rows), bool)
                if fits.any():
                    hs = s[fits]
                    heads = data[(hs[:, None] +
                                  np.arange(hdr)[None, :]).ravel()] \
                        .reshape(-1, hdr)
                    hm_fit = (heads == magic[None, :]).all(axis=1)
                    hm[fits] = hm_fit
                slow_rows.extend(rows[~hm])  # soundfile / NotImplemented
                rows, s, e = rows[hm], s[hm] + hdr, e[hm]
            odd = ((e - s) % 2) != 0
            for i, ln in zip(rows[odd], (e - s)[odd]):
                err[i] = f"DecodeError: odd payload length {ln}"
            keep = ~odd
            reg_rows.append(rows[keep])
            reg_starts.append(s[keep])
            reg_ends.append(e[keep])

        # ---- canonical wav: header matrix parse ---------------------------
        rows = np.nonzero(live & (codecs == "wav"))[0]
        if len(rows):
            s, e = starts[rows], ends[rows]
            fits = (e - s) >= 44
            slow_rows.extend(rows[~fits])  # exact "not a RIFF/WAVE" errors
            rows, s, e = rows[fits], s[fits], e[fits]
            if len(rows):
                heads = data[(s[:, None] + np.arange(44)[None, :]).ravel()] \
                    .reshape(-1, 44)
                rif = np.frombuffer(b"RIFF", np.uint8)
                wav = np.frombuffer(b"WAVE", np.uint8)
                fmt = np.frombuffer(b"fmt ", np.uint8)
                dat = np.frombuffer(b"data", np.uint8)
                canon = (heads[:, 0:4] == rif).all(1) \
                    & (heads[:, 8:12] == wav).all(1) \
                    & (heads[:, 12:16] == fmt).all(1) \
                    & (heads[:, 36:40] == dat).all(1)
                h16 = heads.view("<u2")  # (rows, 22)
                h32 = heads.view("<u4")  # (rows, 11)
                fmt_code, n_ch, bits = h16[:, 10], h16[:, 11], h16[:, 17]
                wav_sr = h32[:, 6].astype(np.float64)
                dlen = h32[:, 10].astype(np.int64)
                canon &= (fmt_code == 1) & (n_ch == 1) & (bits == 16)
                slow_rows.extend(rows[~canon])  # exact per-row error strings
                rows2, s2, e2 = rows[canon], s[canon], e[canon]
                dlen2, wsr2 = dlen[canon], wav_sr[canon]
                trunc = (e2 - s2 - 44) < dlen2
                for i, have, want in zip(rows2[trunc], (e2 - s2 - 44)[trunc],
                                         dlen2[trunc]):
                    err[i] = ("DecodeError: truncated data chunk "
                              f"({have} < {want})")
                k = ~trunc
                odd = (dlen2 % 2 != 0) & k
                for i, dl in zip(rows2[odd], dlen2[odd]):
                    err[i] = f"DecodeError: odd data chunk length {dl}"
                k &= ~odd
                declared_sr[rows2[k]] = wsr2[k]
                reg_rows.append(rows2[k])
                reg_starts.append(s2[k] + 44)
                reg_ends.append(s2[k] + 44 + dlen2[k])

        # unknown codecs -> per-row for the exact message
        known = {"pcm_s16le", "wav", *_FAKE_CODECS}
        slow_rows.extend(np.nonzero(
            live & np.asarray([c not in known for c in codecs]))[0])

        # ---- bulk sample statistics ---------------------------------------
        if reg_rows:
            rrows = np.concatenate(reg_rows)
            rs = np.concatenate(reg_starts)
            re_ = np.concatenate(reg_ends)
            order = np.argsort(rs, kind="stable")
            rrows, rs, re_ = rrows[order], rs[order], re_[order]
            _segment_gather_stats(data, rs, re_, rrows, n, frames, rms,
                                  clip_ratio)
            # consistency checks, vectorized over decoded rows
            dsr = declared_sr[rrows]
            sr = srs[rrows]
            bad_sr = ~np.isnan(dsr) & ~np.isnan(sr) & (dsr != sr)
            for i in rrows[bad_sr]:
                err[i] = (f"container sample rate {int(declared_sr[i])} != "
                          f"declared sr_hz {int(srs[i])}")
            rest = rrows[~bad_sr]
            srr = srs[rest]
            with np.errstate(divide="ignore", invalid="ignore"):
                md = 1000.0 * frames[rest] / srr
            has_sr = ~np.isnan(srr) & (srr > 0)
            mdur[rest[has_sr]] = md[has_sr]
            durr = durs[rest]
            bad_dur = has_sr & ~np.isnan(durr) & (durr > 0) & \
                (np.abs(md - durr) > self.tol_ms + 1000.0 / srr)
            for i in rest[bad_dur]:
                err[i] = (f"duration mismatch: measured {mdur[i]:.1f}ms "
                          f"!= declared {int(durs[i])}ms")
            ok[rest[~bad_dur]] = True
            # rms/clipping are only reported for fully-ok rows (parity with
            # the sequential check order)
            not_ok = rrows[~np.isin(rrows, rest[~bad_dur])]
            rms[not_ok] = np.nan
            clip_ratio[not_ok] = np.nan

        # ---- per-row fallback ----------------------------------------------
        if slow_rows:
            payload_col = batch["bytes"]
            sr_l = batch["sr_hz"].to_pylist()
            dur_l = batch["dur_ms"].to_pylist()
            for i in sorted(set(int(x) for x in slow_rows)):
                self._slow_row(payload_col[i].as_py(), codecs[i], sr_l[i],
                               dur_l[i], i, ok, err, frames, mdur, rms,
                               clip_ratio)

        out = batch.drop_columns(["bytes"])
        out = out.append_column("decode_ok", pa.array(ok))
        out = out.append_column("decode_error", pa.array(err, pa.string()))
        out = out.append_column("n_frames", pa.array(frames))
        out = out.append_column("measured_dur_ms", pa.array(mdur))
        out = out.append_column("rms", pa.array(rms))
        out = out.append_column("clipping_ratio", pa.array(clip_ratio))
        return out


def audio_decodable_format(tol_ms: float = 1.5):
    """A `format: "audio-decodable"` validator over struct instances —
    the per-row fallback path analogue of ClipDecoder for vspec specs."""

    def validate(row) -> None:
        if not isinstance(row, dict):
            raise ValueError("not a clip object")
        try:
            pcm, declared_sr = decode_clip(row.get("bytes"), row.get("codec"))
        except (DecodeError, NotImplementedError, TypeError) as e:
            raise ValueError(str(e)) from None
        sr = row.get("sr_hz")
        if declared_sr is not None and sr and declared_sr != sr:
            raise ValueError(f"container sr {declared_sr} != sr_hz {sr}")

    return validate
