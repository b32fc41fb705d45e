#!/usr/bin/env python
"""Self-sweep: run EVERY registered query at a small scale factor and,
where an oracle exists, compare against DuckDB the way the driver does
(row count, sorted column names, order-insensitive value hash).

At sf0.001 several predicates legitimately match zero rows, which is
exactly the empty-result edge the typed-`finalize` helper guards: a crash
here is a regression in that guard class.

Usage:
    python scripts/sweep_queries.py [SF_DIR] [--only name1,name2]
Exit code 0 iff every query runs green; 2 when an --only name is not a
registered query. The last line is one JSON summary, including how many
registered queries carry an oracle (n_oracle) and how many are
rows-only (n_rows_only).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res):
    import pyarrow as pa
    import ray.data

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    raise TypeError(f"unexpected result type {type(res)}")


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Driver-style canonicalization: columns sorted by name, rows sorted."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(6)
    if len(df):
        df = df.sort_values(list(df.columns), kind="mergesort")
    return df.reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    c = canon(df)
    payload = c.to_csv(index=False, float_format="%.6g").encode()
    return hashlib.sha256(payload).hexdigest()


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 and not sys.argv[1].startswith("--") \
        else "/root/testdata/sf0.001"
    only = None
    if "--only" in sys.argv:
        only = set(sys.argv[sys.argv.index("--only") + 1].split(","))

    from jschon_ray.pipelines.queries import build_oracles, build_queries

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    queries = build_queries()
    unknown = sorted((only or set()) - set(queries))
    if unknown:
        print(f"unknown query name(s) in --only: {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    oracles = build_oracles(sf_dir)
    results = {}
    n_fail = 0
    for name, fn in queries.items():
        if only and name not in only:
            continue
        t0 = time.time()
        rec: dict = {"err": None}
        try:
            mine = to_pandas(fn(sf_dir))
            rec["rows"] = int(len(mine))
            sql = oracles.get(name)
            if sql is not None:
                want = con.execute(sql).df()
                rec["oracle_rows"] = int(len(want))
                rec["rows_match"] = len(mine) == len(want)
                rec["schema_match"] = sorted(mine.columns) == sorted(want.columns)
                rec["hash_match"] = value_hash(mine) == value_hash(want)
                ok = rec["rows_match"] and rec["schema_match"] and rec["hash_match"]
            else:
                ok = True
            rec["ok"] = bool(ok)
        except Exception:
            rec["ok"] = False
            rec["err"] = traceback.format_exc(limit=6)
            ok = False
        rec["sec"] = round(time.time() - t0, 2)
        results[name] = rec
        if not ok:
            n_fail += 1
        status = "ok " if ok else "FAIL"
        print(f"{status} {name} ({rec['sec']}s)"
              + (f" rows={rec.get('rows')}" if rec.get("rows") is not None else ""),
              flush=True)
        if rec["err"]:
            print(rec["err"], flush=True)
        elif not ok:
            print(f"  detail: rows_match={rec.get('rows_match')} "
                  f"schema_match={rec.get('schema_match')} "
                  f"hash_match={rec.get('hash_match')} "
                  f"oracle_rows={rec.get('oracle_rows')}", flush=True)
            try:
                print("  mine:", canon(mine).head(5).to_dict("records"),
                      flush=True)
                print("  want:", canon(want).head(5).to_dict("records"),
                      flush=True)
            except Exception:
                pass

    print(json.dumps({"sf_dir": sf_dir, "total": len(results),
                      "failed": n_fail, "n_oracle": len(oracles),
                      "n_rows_only": len(queries) - len(oracles)}))
    return 1 if n_fail else 0


if __name__ == "__main__":
    from jschon_ray.runtime import session

    with session():
        rc = main()
    sys.exit(rc)
