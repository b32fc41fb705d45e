"""DuckDB oracle: the answer every benchmark op must reproduce.

Written from the clip spec's text, not from the program: a row's
violations are one per failing keyword plus the parent ``/properties``
entry, a null ``transcript`` is an absent optional property, uniqueness
counts repeated ``clip_id`` values, and the referential check counts rows
whose codec is outside the codec dimension. ``n_decode_ok`` re-derives
the decoder's contract (canonical container, whole frames, container
sample rate, declared duration within 1.5 ms + one frame) from the
payload bytes.
"""

from __future__ import annotations

import duckdb

DIM_CODECS = ("pcm_s16le", "wav", "flac", "opus", "mp3")
_IN_DIM = "(" + ", ".join(f"'{c}'" for c in DIM_CODECS) + ")"

_FAILS = f"""
    (NOT regexp_full_match(clip_id, '^clip-[0-9a-f]{{12}}$'))::INT
  + (sr_hz < 8000)::INT + (sr_hz > 48000)::INT + (sr_hz % 25 <> 0)::INT
  + (dur_ms <= 0)::INT + (dur_ms > 600000)::INT
  + (codec NOT IN {_IN_DIM})::INT
  + coalesce(length(transcript) < 1, false)::INT
  + coalesce(length(transcript) > 1024, false)::INT
"""

# frames decoded per row, NULL when the payload does not decode; wav
# header fields are little-endian, read from the hex of the first 44 bytes
_FRAMES = """
CASE
  WHEN codec = 'pcm_s16le' AND len % 2 = 0 THEN len // 2
  WHEN codec IN ('flac', 'opus', 'mp3') AND len >= 12
       AND left(hx, 24) = hex(('FAKE' || rpad(codec, 8, chr(0)))::BLOB)
       AND (len - 12) % 2 = 0 THEN (len - 12) // 2
  WHEN codec = 'wav' AND len >= 44
       AND left(hx, 8) = hex('RIFF'::BLOB)
       AND substr(hx, 17, 16) = hex('WAVEfmt '::BLOB)
       AND substr(hx, 73, 8) = hex('data'::BLOB)
       AND substr(hx, 41, 8) = '01000100'          -- PCM, mono
       AND substr(hx, 69, 4) = '1000'              -- 16 bits
       AND len - 44 >= dlen AND dlen % 2 = 0
       AND wav_sr = sr_hz THEN dlen // 2
END
"""


def _le32(hex_expr: str) -> str:
    """Little-endian uint32 from 8 hex digits."""
    parts = [f"substr({hex_expr}, {i}, 2)" for i in (7, 5, 3, 1)]
    return "('0x' || " + " || ".join(parts) + ")::UBIGINT"


def expected(files: list[str]) -> dict:
    """Whole-table answer plus one row of counts per input file."""
    con = duckdb.connect()
    try:
        flist = "[" + ", ".join(f"'{f}'" for f in files) + "]"
        con.execute(f"""
            CREATE TEMP VIEW clips AS
            SELECT *, {_FAILS} AS fails
            FROM read_parquet({flist}, filename = true)""")
        n, n_valid, n_violations, n_referential = con.execute(f"""
            SELECT count(*), count(*) FILTER (fails = 0),
                   sum(fails + (fails > 0)::INT),
                   count(*) FILTER (codec NOT IN {_IN_DIM})
            FROM clips""").fetchone()
        n_dupe_keys = con.execute("""
            SELECT count(*) FROM (SELECT clip_id FROM clips
                                  GROUP BY clip_id HAVING count(*) > 1)
        """).fetchone()[0]
        n_decode_ok = con.execute(f"""
            WITH p AS (
              SELECT sr_hz, dur_ms, codec, octet_length(bytes) AS len,
                     CASE WHEN codec IN ('wav', 'flac', 'opus', 'mp3')
                          THEN hex(bytes) END AS hx
              FROM clips),
            w AS (
              SELECT *, {_le32("substr(hx, 81, 8)")} AS dlen,
                        {_le32("substr(hx, 49, 8)")} AS wav_sr
              FROM p),
            f AS (SELECT sr_hz, dur_ms, {_FRAMES} AS frames FROM w)
            SELECT count(*) FROM f
            WHERE frames IS NOT NULL
              AND NOT (dur_ms > 0 AND abs(1000.0 * frames / sr_hz - dur_ms)
                       > 1.5 + 1000.0 / sr_hz)""").fetchone()[0]
        per_file = dict(con.execute(
            "SELECT filename, count(*) FROM clips GROUP BY filename"
        ).fetchall())
    finally:
        con.close()
    return {"n": n, "n_valid": n_valid, "n_violations": int(n_violations),
            "n_dupe_keys": n_dupe_keys, "n_referential": n_referential,
            "n_decode_ok": n_decode_ok,
            "rows_per_file": {f: per_file[f] for f in files}}
