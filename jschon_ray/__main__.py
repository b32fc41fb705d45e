"""CLI entry points: `python -m jschon_ray <command> ...`.

The CLI owns the Ray session (`runtime.session`; the library never
starts Ray); every command streams from/to parquet|jsonl|csv via the TableIO
seam and prints ONE summary JSON line to stdout.

Commands
  validate    apply a spec (JSON file) to a table; write verdicts and
              violation rows, print the summary
  uniqueness  duplicate keys by column
  profile     sketch profile (count/null/min/max + t-digest/HLL/CM) per column
  dedup       exact content dedup over a column
  quantiles   exact quantile_disc values by histogram refinement
  clusters    connected components over an edge table (dup clusters)
  chunk       split docs into fixed-token-budget chunks with overlap
  fingerprint audio content near-dup pairs (constellation hashes)
  diff        snapshot diff: added/removed/changed rows by key
  repair      apply a spec's default/bounds/enum/maxLength as fixes
  audio-qc    clip QC metrics (clipping/silence/crest/SNR) + pass counts
  audio-prep  trim silence -> compress -> normalize containers (wav out)
  audio-chunk split clips into fixed-length overlapping windows
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def cmd_validate(args) -> dict:
    from .pipelines.validate import (
        explode_violations,
        summarize_verdicts,
        validate_dataset,
    )
    from .sources.io import read_table, write_table

    with open(args.spec) as f:
        spec = json.load(f)
    ds = read_table(args.input, format=args.input_format)
    verdicts = validate_dataset(ds, spec)
    if args.output:
        write_table(verdicts, os.path.join(args.output, "verdicts"))
        verdicts = read_table(os.path.join(args.output, "verdicts"))
        write_table(explode_violations(verdicts, args.key_cols.split(",")),
                    os.path.join(args.output, "violations"))
    return summarize_verdicts(verdicts)


def cmd_uniqueness(args) -> dict:
    from .pipelines.validate import uniqueness_violations
    from .sources.io import read_table, write_table

    ds = read_table(args.input, format=args.input_format,
                    columns=[args.key])
    dupes = uniqueness_violations(ds, args.key)
    if args.output:
        write_table(dupes, args.output)
        dupes = read_table(args.output)
    df = dupes.to_pandas()
    return {"n_duplicate_keys": int(len(df)),
            "n_duplicate_rows": int(df["n_rows"].sum()) if len(df) else 0}


def cmd_profile(args) -> dict:
    from .pipelines.stats import profile_dataset
    from .sources.io import read_table

    cols = args.columns.split(",")
    ds = read_table(args.input, format=args.input_format, columns=cols)
    prof = profile_dataset(ds, cols)
    out = {}
    for name, p in prof.columns.items():
        entry = {"count": p.count, "nulls": p.nulls, "min": p.vmin,
                 "max": p.vmax, "distinct_hll": round(p.hll.estimate(), 1)}
        if p.tdigest is not None:
            entry.update(p50=p.tdigest.quantile(0.5),
                         p95=p.tdigest.quantile(0.95),
                         p99=p.tdigest.quantile(0.99))
        out[name] = entry
    if args.output:
        with open(args.output, "w") as f:
            json.dump(out, f, default=str)
    return {"columns": sorted(out), "profile": out}


def cmd_dedup(args) -> dict:
    from .functions.dedup import exact_dedup
    from .sources.io import read_table, write_table

    ds = read_table(args.input, format=args.input_format,
                    columns=[args.id_col, args.content_col])
    kept = exact_dedup(ds, args.id_col, args.content_col)
    if args.output:
        write_table(kept, args.output)
        kept = read_table(args.output)
    return {"n_rows_kept": kept.count()}


def cmd_quantiles(args) -> dict:
    from .functions.quantiles import exact_quantiles
    from .sources.io import read_table

    qs = [float(q) for q in args.q.split(",")]
    ds = read_table(args.input, format=args.input_format,
                    columns=[args.column])
    out = exact_quantiles(ds, args.column, qs)
    return {"column": args.column,
            "quantiles": {str(q): (None if pd_isna(v) else float(v))
                          for q, v in zip(out["q"], out["value"])}}


def pd_isna(v):
    import pandas as pd

    return pd.isna(v)


def cmd_clusters(args) -> dict:
    from .functions.graph import connected_components
    from .sources.io import read_table, write_table

    ds = read_table(args.input, format=args.input_format,
                    columns=[args.src, args.dst])
    cc = connected_components(ds, src=args.src, dst=args.dst)
    if args.output:
        write_table(cc, args.output)
        cc = read_table(args.output)
    df = cc.to_pandas()
    return {"n_nodes": int(len(df)),
            "n_components": int(df["component"].nunique())}


def cmd_fingerprint(args) -> dict:
    from .stages.fingerprint import (AudioFingerprinter,
                                     fingerprint_match_pairs)
    from .stages.taskpool import stage_fn
    from .sources.io import read_table

    ds = read_table(args.input, format=args.input_format,
                    columns=[args.id_col, "bytes", "codec"])
    lm = ds.map_batches(stage_fn(AudioFingerprinter, id_col=args.id_col),
                        batch_format="pyarrow")
    # pairs stay a lazy Dataset: written straight to the sink (or
    # counted) without driver materialization
    pairs = fingerprint_match_pairs(lm, min_matches=args.min_matches)
    if args.output:
        from .sources.io import write_table

        pairs = pairs.materialize()
        write_table(pairs, args.output)
    return {"n_pairs": int(pairs.count())}


def cmd_diff(args) -> dict:
    from .functions.diff import snapshot_diff
    from .sources.io import read_table, write_table

    cols = args.compare_cols.split(",")
    old = read_table(args.input, format=args.input_format,
                     columns=[args.key] + cols)
    new = read_table(args.new, format=args.input_format,
                     columns=[args.key] + cols)
    out = snapshot_diff(old, new, key_col=args.key, compare_cols=cols)
    if args.output:
        write_table(out, args.output)
        out = read_table(args.output)
    df = out.to_pandas()
    counts = df["status"].value_counts().to_dict() if len(df) else {}
    return {"n_delta": int(len(df)),
            **{k: int(v) for k, v in counts.items()}}


def cmd_repair(args) -> dict:
    from .functions.repair import repair_dataset
    from .sources.io import read_table, write_table

    with open(args.spec) as f:
        spec = json.load(f)
    ds = read_table(args.input, format=args.input_format)
    out = repair_dataset(ds, spec)
    if args.output:
        write_table(out, args.output)
        out = read_table(args.output)
    import pyarrow as pa
    import pyarrow.compute as pc

    def count_batch(t: pa.Table) -> pa.Table:
        return pa.table({"n": [t.num_rows],
                         "n_rep": [pc.sum(t["repaired"]).as_py() or 0]})

    agg = out.map_batches(count_batch, batch_format="pyarrow").to_pandas()
    return {"n": int(agg["n"].sum()), "n_repaired": int(agg["n_rep"].sum())}


def cmd_chunk(args) -> dict:
    from .functions.text import chunk_documents
    from .sources.io import read_table, write_table

    ds = read_table(args.input, format=args.input_format,
                    columns=[args.id_col, args.content_col])
    chunks = chunk_documents(ds, col=args.content_col,
                             id_col=args.id_col,
                             chunk_tokens=args.chunk_tokens,
                             overlap=args.overlap)
    if args.output:
        write_table(chunks, args.output)
        chunks = read_table(args.output)
    return {"n_chunks": chunks.count()}


def cmd_audio_qc(args) -> dict:
    from .sources.io import read_table, write_table
    from .stages.analysis import AudioQC
    from .stages.taskpool import stage_fn

    ds = read_table(args.input, format=args.input_format,
                    columns=["clip_id", "bytes", "sr_hz", "codec"])
    qc = ds.map_batches(stage_fn(AudioQC), batch_format="pyarrow")
    if args.output:
        write_table(qc, args.output)
        qc = read_table(args.output)
    n = qc.count()
    n_pass = qc.filter(expr="qc_pass == True").count()
    return {"n": n, "n_pass": n_pass}


def cmd_audio_prep(args) -> dict:
    """Trim -> compress -> re-container as canonical wav payloads."""
    from .sources.io import read_table, write_table
    from .stages.analysis import Compressor, SilenceTrimmer, WavWriter
    from .stages.taskpool import stage_fn

    ds = read_table(args.input, format=args.input_format,
                    columns=["clip_id", "bytes", "sr_hz", "codec"])
    out = ds.map_batches(stage_fn(SilenceTrimmer),
                         batch_format="pyarrow") \
        .map_batches(stage_fn(Compressor), batch_format="pyarrow") \
        .map_batches(stage_fn(WavWriter), batch_format="pyarrow")
    if args.output:
        write_table(out, args.output)
        out = read_table(args.output)
        n_ok = out.filter(expr="wav_ok == True").count()
        return {"n": out.count(), "n_wav": n_ok}
    n_ok = out.filter(expr="wav_ok == True").count()
    return {"n_wav": n_ok}


def cmd_audio_chunk(args) -> dict:
    from .sources.io import read_table, write_table
    from .stages.analysis import AudioChunker
    from .stages.taskpool import stage_fn

    ds = read_table(args.input, format=args.input_format,
                    columns=["clip_id", "bytes", "sr_hz", "codec"])
    chunks = ds.map_batches(
        stage_fn(AudioChunker, chunk_ms=args.chunk_ms,
                 hop_ms=args.hop_ms),
        batch_format="pyarrow")
    if args.output:
        write_table(chunks, args.output)
        chunks = read_table(args.output)
    return {"n_chunks": chunks.count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="jschon_ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--input", required=True)
        p.add_argument("--input-format", default=None,
                       choices=[None, "parquet", "json", "csv"])
        p.add_argument("--output", default=None)

    p = sub.add_parser("validate"); common(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--key-cols", default="clip_id",
                   help="comma-separated id columns carried onto "
                        "violation rows")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("uniqueness"); common(p)
    p.add_argument("--key", default="clip_id")
    p.set_defaults(fn=cmd_uniqueness)

    p = sub.add_parser("profile"); common(p)
    p.add_argument("--columns", required=True)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("dedup"); common(p)
    p.add_argument("--id-col", default="doc_id")
    p.add_argument("--content-col", default="text")
    p.set_defaults(fn=cmd_dedup)

    p = sub.add_parser("quantiles"); common(p)
    p.add_argument("--column", required=True)
    p.add_argument("--q", default="0.25,0.5,0.75")
    p.set_defaults(fn=cmd_quantiles)

    p = sub.add_parser("clusters"); common(p)
    p.add_argument("--src", default="id_a")
    p.add_argument("--dst", default="id_b")
    p.set_defaults(fn=cmd_clusters)

    p = sub.add_parser("fingerprint"); common(p)
    p.add_argument("--id-col", default="clip_id")
    p.add_argument("--min-matches", type=int, default=12)
    p.set_defaults(fn=cmd_fingerprint)

    p = sub.add_parser("diff"); common(p)
    p.add_argument("--new", required=True,
                   help="path of the new snapshot (old = --input)")
    p.add_argument("--key", required=True)
    p.add_argument("--compare-cols", required=True,
                   help="comma-separated columns to compare")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("repair"); common(p)
    p.add_argument("--spec", required=True)
    p.set_defaults(fn=cmd_repair)

    p = sub.add_parser("audio-qc"); common(p)
    p.set_defaults(fn=cmd_audio_qc)

    p = sub.add_parser("audio-prep"); common(p)
    p.set_defaults(fn=cmd_audio_prep)

    p = sub.add_parser("audio-chunk"); common(p)
    p.add_argument("--chunk-ms", type=int, default=100)
    p.add_argument("--hop-ms", type=int, default=50)
    p.set_defaults(fn=cmd_audio_chunk)

    p = sub.add_parser("chunk"); common(p)
    p.add_argument("--id-col", default="doc_id")
    p.add_argument("--content-col", default="text")
    p.add_argument("--chunk-tokens", type=int, default=512)
    p.add_argument("--overlap", type=int, default=32)
    p.set_defaults(fn=cmd_chunk)

    args = ap.parse_args(argv)
    from .runtime import session

    with session(args.num_cpus):
        print(json.dumps(args.fn(args), default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
