"""TableIO seam: parquet / jsonl / csv, plus Lance where installed.

The north rule targets Lance tables; the Lance branch is wired through
``ray.data.read_lance`` / ``Dataset.write_lance`` (column + predicate
pushdown into the Lance scanner, fragment-parallel reads) and activates
when the ``lance`` package is importable. This sandbox has no ``lance``
and the driver testdata is parquet (TESTDATA.md), so reads here take the
parquet path; pipeline code is format-agnostic through this seam.

Scale notes: always pass ``columns=`` so only needed columns leave storage;
readers return a streaming Dataset (never materialized here).
"""

from __future__ import annotations

import glob
import os

try:
    import lance  # noqa: F401
    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False


def table_path(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def table_files(path) -> list:
    """Concrete parquet file paths behind a table path (file or dir)."""
    if isinstance(path, str) and os.path.isdir(path):
        return sorted(glob.glob(os.path.join(path, "*.parquet")))
    return [path] if isinstance(path, str) else list(path)


#: extension -> logical format (the reference's pluggable Source surface,
#: /root/reference/jschon/catalog/__init__.py:26-67, recast as data-table
#: format routing)
_EXT_FORMAT = {".parquet": "parquet", ".jsonl": "json", ".json": "json",
               ".csv": "csv", ".lance": "lance", ".orc": "orc",
               ".feather": "feather", ".arrow": "feather"}


def _detect_format(path) -> str:
    """Logical format of a path/dir/list: by extension, parquet default.
    A directory NAMED `*.lance` is a Lance dataset root (fragments live
    inside it — never globbed as part files)."""
    if isinstance(path, (list, tuple)):
        path = path[0] if path else ""
    if isinstance(path, str) and os.path.isdir(path):
        if path.rstrip("/").endswith(".lance"):
            return "lance"
        for ext, fmt in _EXT_FORMAT.items():
            if ext != ".lance" and glob.glob(os.path.join(path, f"*{ext}")):
                return fmt
        return "parquet"
    ext = os.path.splitext(path)[1].lower() if isinstance(path, str) else ""
    return _EXT_FORMAT.get(ext, "parquet")


def _strip_block_meta(t):
    """Drop schema-level metadata (pandas/parquet provenance blobs) from a
    block.  Metadata-carrying ``pa.Schema`` objects are unhashable, which
    makes Ray's shuffle-reduce schema deduplication (``unify_schemas``)
    log ``Failed to hash the schemas`` on every reduce task, and the blob
    itself is dead weight shipped with every block at scale.  Zero-copy:
    only the schema wrapper changes, the column buffers are shared."""
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def cluster_cpus() -> int:
    """CPUs to size reads and stage pools for: the Ray cluster's CPU
    total when a session is up, else this process's schedulable CPUs.
    Never starts Ray."""
    import ray

    if ray.is_initialized():
        n = int(ray.cluster_resources().get("CPU", 0))
        if n:
            return n
    return len(os.sched_getaffinity(0))


def _parquet_footers(path):
    """Footers of the concrete parquet files behind `path` (a file or a
    list of files), or None for a directory (hive / nested layout, left
    to Ray's listing) or when any footer is unreadable."""
    if isinstance(path, str) and os.path.isdir(path):
        return None
    files = table_files(path)
    if not files:
        return None
    import pyarrow.parquet as pq

    try:
        return [pq.read_metadata(f) for f in files]
    except Exception:
        return None


def _projected_schema(footers, columns):
    """Metadata-free schema of `columns` (every column when None) if all
    footers agree on it, else None."""
    import pyarrow as pa

    out = None
    for md in footers:
        full = md.schema.to_arrow_schema()
        try:
            sch = pa.schema([full.field(n).remove_metadata()
                             for n in (columns or full.names)])
        except KeyError:
            return None
        if out is None:
            out = sch
        elif not sch.equals(out):
            return None
    return out


def _projected_bytes(footers, columns) -> int:
    """Uncompressed bytes of `columns` (every column when None) summed
    over every row group of every footer."""
    top = None if columns is None else set(columns)
    total = 0
    for md in footers:
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            for j in range(g.num_columns):
                c = g.column(j)
                if top is None or c.path_in_schema.split(".")[0] in top:
                    total += c.total_uncompressed_size
    return total


def _default_num_blocks(footers, columns) -> int:
    """Block count for a parquet read with no explicit
    ``override_num_blocks``: one block per cluster CPU, and more only
    when the projected bytes would overfill Ray's target block size.

    Ray's own default (up to ``read_op_min_num_blocks`` = 200) sizes
    splits for the whole, payload-bearing table; a narrow projection then
    arrives as hundreds of tiny blocks and every downstream task and
    every sort-shuffle piece (M blocks -> M x M) pays per-task overhead.
    """
    import math

    from ray.data import DataContext

    n = cluster_cpus()
    target = DataContext.get_current().target_max_block_size
    if target:
        n = max(n, math.ceil(_projected_bytes(footers, columns) / target))
    return n


def read_parquet_clean(path, **kwargs):
    """``ray.data.read_parquet`` with schema metadata stripped from every
    block (see ``_strip_block_meta``)."""
    return _read_parquet(path, _parquet_footers(path), kwargs)


def _read_parquet(path, footers, kwargs):
    """Primary path: when every footer agrees on the projected schema,
    pass it metadata-free as ``schema=`` — the datasource then emits
    clean blocks directly, with no extra operator in the plan and no
    metadata inside the read task (where a post-read strip stage cannot
    reach the ``ReadParquet->SplitBlocks`` schema unification).
    Fallback for shapes where the footers can't speak for the dataset
    (hive partition dirs, unreadable or disagreeing files): a fused
    zero-copy strip stage after the read."""
    import ray.data as rd

    sch = None
    # ray's parquet datasource applies `schema` to the PROJECTED batch,
    # so the derived schema is pruned to `columns` — but a filter
    # expression may reference columns OUTSIDE the projection (pyarrow
    # filters then projects), and pyarrow expressions don't expose their
    # field refs for a subset check. Take the strip-stage fallback for
    # that combination.
    if footers and (kwargs.get("filter") is None
                    or kwargs.get("columns") is None):
        sch = _projected_schema(footers, kwargs.get("columns"))
    if sch is not None:
        return rd.read_parquet(path, schema=sch, **kwargs)
    return rd.read_parquet(path, **kwargs).map_batches(
        _strip_block_meta, batch_format="pyarrow", zero_copy_batch=True)


def read_table(path, *, columns=None, filter=None, override_num_blocks=None,
               format=None):
    """Read a table (file, directory of parts, or list of paths) as a
    streaming ray.data.Dataset.

    `format`: 'parquet' (default) | 'json' (newline-delimited) | 'csv',
    auto-detected from the extension when None. Column pruning + predicate
    pushdown reach storage only on the parquet path — jsonl/csv decode
    whole records, so columns are dropped post-read (still before the
    first exchange) and `filter` applies as a batch kernel.

    Parquet files (not hive directories) read without
    `override_num_blocks` take ``_default_num_blocks``: one block per
    cluster CPU, more only when the projected bytes need them."""
    import ray.data as rd

    fmt = format or _detect_format(path)
    if fmt == "lance":
        # the north-rule primary: columns + (string) predicates push down
        # into the Lance scanner, fragments parallelize the read
        if not HAVE_LANCE:
            raise ImportError(
                "lance is not installed in this environment; the TableIO "
                "seam reads parquet here (TESTDATA.md). Install `pylance` "
                "to read Lance datasets.")
        kwargs = {}
        if override_num_blocks is not None:
            kwargs["override_num_blocks"] = override_num_blocks
        ds = rd.read_lance(
            path, columns=list(columns) if columns is not None else None,
            filter=filter if isinstance(filter, str) else None, **kwargs)
        if filter is not None and not isinstance(filter, str):
            ds = ds.map_batches(lambda t, e=filter: t.filter(e),
                                batch_format="pyarrow")
        return ds
    if fmt in ("orc", "feather"):
        return _read_file_parallel(path, fmt, columns=columns,
                                   filter=filter)
    if isinstance(path, str) and os.path.isdir(path):
        ext = {"parquet": ".parquet", "json": ".jsonl", "csv": ".csv"}[fmt]
        files = sorted(glob.glob(os.path.join(path, f"*{ext}")))
        if fmt == "json" and not files:
            files = sorted(glob.glob(os.path.join(path, "*.json")))
        # no direct part files: hive-partitioned (col=value/ subdirs) or
        # otherwise nested layout — hand the directory to ray, which
        # lists recursively and parses partition columns
        path = files or path
    kwargs = {}
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    if fmt == "parquet":
        if columns is not None:
            kwargs["columns"] = list(columns)
        if filter is not None:
            kwargs["filter"] = filter
        footers = _parquet_footers(path)
        if footers and override_num_blocks is None:
            kwargs["override_num_blocks"] = _default_num_blocks(
                footers, kwargs.get("columns"))
        return _read_parquet(path, footers, kwargs)
    if fmt == "json":
        ds = rd.read_json(path, **kwargs)
    elif fmt == "csv":
        ds = rd.read_csv(path, **kwargs)
    else:
        raise ValueError(f"unknown table format: {fmt!r}")
    if columns is not None:
        ds = ds.select_columns(list(columns))
    if filter is not None:
        import pyarrow.dataset as pads

        expr = filter if not isinstance(filter, pads.Expression) else filter
        ds = ds.map_batches(lambda t, e=expr: t.filter(e),
                            batch_format="pyarrow")
    return ds


def _read_file_parallel(path, fmt: str, *, columns=None, filter=None):
    """Fragment-parallel reader for formats Ray lacks a native datasource
    for (ORC, Feather/Arrow IPC): one read task per file over shared
    storage — the same per-fragment parallelism shape as read_parquet
    (size input files accordingly). ORC prunes columns at the stripe
    reader; Feather is memory-mapped then projected."""
    import pyarrow as pa
    import ray.data as rd

    exts = {"orc": (".orc",), "feather": (".feather", ".arrow")}[fmt]
    if isinstance(path, str) and os.path.isdir(path):
        files = sorted(f for e in exts
                       for f in glob.glob(os.path.join(path, f"*{e}")))
    else:
        files = [path] if isinstance(path, str) else list(path)
    if not files:
        raise FileNotFoundError(f"no {fmt} files under {path!r}")
    cols = list(columns) if columns is not None else None

    def load(batch: pa.Table) -> pa.Table:
        parts = []
        for p in batch["path"].to_pylist():
            if fmt == "orc":
                import pyarrow.orc as orc
                t = orc.ORCFile(p).read(columns=cols)
            else:
                import pyarrow.feather as feather
                t = feather.read_table(p, columns=cols, memory_map=True)
            if filter is not None:
                t = t.filter(filter)
            parts.append(t)
        return pa.concat_tables(parts)

    paths = rd.from_items([{"path": f} for f in files],
                          override_num_blocks=len(files))
    return paths.map_batches(load, batch_format="pyarrow", batch_size=1)


def _block_file_writer(path: str, fmt: str):
    """Per-block part-file writer (ORC / Feather) as a CLOSURE so it
    always pickles by value (driver-owned sessions may not have this
    repo on worker sys.path). Filenames are content-addressed (md5 of
    the block's first key column head + row count), so a retried task
    overwrites its own part instead of duplicating rows — the
    idempotent-write requirement of SURVEY §4."""
    ext = "orc" if fmt == "orc" else "feather"

    def write_block(batch):
        import hashlib
        import os as _os

        import pyarrow as pa
        key = batch.column_names[0] if batch.num_columns else "empty"
        h = hashlib.md5(
            (key + str(batch.num_rows) + str(
                batch[key][:64].to_pylist() if batch.num_columns else "")
             ).encode()).hexdigest()[:16]
        fname = _os.path.join(path, f"part-{h}.{ext}")
        if fmt == "orc":
            import pyarrow.orc as orc
            orc.write_table(batch, fname)
        else:
            import pyarrow.feather as feather
            feather.write_feather(batch, fname)
        return pa.table({"path": pa.array([fname]),
                         "rows": pa.array([batch.num_rows], pa.int64())})

    return write_block


def write_table(ds, path: str, *, format: str = "parquet",
                partition_cols=None, **kwargs):
    """Write a Dataset as a directory of part files (resumable layout:
    one directory per logical partition, never one giant file).
    `format`: 'parquet' (default) | 'json' (newline-delimited) | 'csv'.
    `partition_cols` (parquet only): hive-style key-range layout
    (`col=value/` directories) so reruns and downstream readers can skip
    finished / irrelevant partitions at the listing level."""
    os.makedirs(path, exist_ok=True)
    if format == "parquet":
        if partition_cols:
            kwargs["partition_cols"] = list(partition_cols)
        ds.write_parquet(path, **kwargs)
    elif format == "json":
        ds.write_json(path, **kwargs)
    elif format == "csv":
        ds.write_csv(path, **kwargs)
    elif format == "lance":
        if not HAVE_LANCE:
            raise ImportError("lance is not installed; write parquet here")
        ds.write_lance(path, **kwargs)
    elif format in ("orc", "feather"):
        # drive the lazy pipeline through the per-block writer; the
        # returned manifest (path, rows) is tiny
        ds.map_batches(_block_file_writer(path, format),
                       batch_format="pyarrow").materialize()
    else:
        raise ValueError(f"unknown table format: {format!r}")
    return path
