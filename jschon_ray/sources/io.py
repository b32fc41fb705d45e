"""TableIO seam: parquet / jsonl / csv, plus Lance where installed.

The north rule targets Lance tables; the Lance branch is wired through
``ray.data.read_lance`` / ``Dataset.write_lance`` (column + predicate
pushdown into the Lance scanner, fragment-parallel reads) and activates
when the ``lance`` package is importable. This sandbox has no ``lance``
and the driver testdata is parquet (TESTDATA.md), so reads here take the
parquet path; pipeline code is format-agnostic through this seam.

Scale notes: always pass ``columns=`` so only needed columns leave storage;
readers return a streaming Dataset (never materialized here).

``FooterPlan`` is the one parquet footer reader: built once per table per
op, it serves every read and footer check of that op.
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
    if isinstance(path, FooterPlan):
        return "parquet"
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


class FooterPlan:
    """A parquet table's footers, read once on the driver per op (never
    cached: the resume loop rewrites verdict directories), and what every
    read and check of that op derives from them. ``path`` is what
    ``ray.data.read_parquet`` receives: the path as given, a directory's
    part files, or a directory with none (hive / nested layout, left to
    Ray's listing). An unreadable footer is kept as None; then no schema,
    block count or non-null proof is derived."""

    def __init__(self, path):
        import pyarrow.parquet as pq

        if isinstance(path, str) and os.path.isdir(path):
            self.files = sorted(glob.glob(os.path.join(path, "*.parquet")))
            self.path = self.files or path
        else:
            self.files = [path] if isinstance(path, str) else list(path)
            self.path = path
        self._footers = []
        for f in self.files:
            try:
                self._footers.append(pq.read_metadata(f))
            except Exception:
                self._footers.append(None)
        self._readable = bool(self.files) and None not in self._footers

    def column_names(self) -> list | None:
        """Column names of the first part file; None without one (a hive
        or nested directory, whose columns only the read's own listing
        knows)."""
        if not self.files:
            return None
        if self._footers[0] is None:
            raise OSError(f"unreadable parquet footer: {self.files[0]}")
        return self._footers[0].schema.to_arrow_schema().names

    def schema(self, columns=None):
        """Metadata-free schema of `columns` (every column when None) if
        all footers are readable and agree on it, else None."""
        import pyarrow as pa

        if not self._readable:
            return None
        out = []
        for md in self._footers:
            full = md.schema.to_arrow_schema()
            try:
                out.append(pa.schema([full.field(n).remove_metadata()
                                      for n in (columns or full.names)]))
            except KeyError:
                return None
        return out[0] if all(s.equals(out[0]) for s in out) else None

    def num_blocks(self, columns=None):
        """Block count for a read of `columns` with no explicit
        ``override_num_blocks`` (None without a readable footer set): one
        block per cluster CPU, and more only when the projected
        uncompressed bytes would overfill Ray's target block size. Ray's
        own default (up to 200 blocks) sizes splits for the whole,
        payload-bearing table, so a narrow projection arrived as hundreds
        of tiny blocks, each paying per-task and per-shuffle-piece cost."""
        import math

        from ray.data import DataContext

        if not self._readable:
            return None
        top = None if columns is None else set(columns)
        total = sum(
            c.total_uncompressed_size for md in self._footers
            for g in map(md.row_group, range(md.num_row_groups))
            for c in map(g.column, range(g.num_columns))
            if top is None or c.path_in_schema.split(".")[0] in top)
        n = cluster_cpus()
        target = DataContext.get_current().target_max_block_size
        return max(n, math.ceil(total / target)) if target else n

    def non_null_binary(self, col: str) -> bool:
        """True if `col` is binary in every part file and every row
        group's statistics record zero nulls; no part file, a missing
        column, an unreadable footer or missing stats answer False."""
        import pyarrow as pa

        if not self._readable:
            return False
        for md in self._footers:
            sch = md.schema.to_arrow_schema()
            idx = sch.get_field_index(col)
            if idx < 0 or sch.field(idx).type not in (pa.binary(),
                                                       pa.large_binary()):
                return False
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(idx).statistics
                if st is None or st.null_count is None or st.null_count > 0:
                    return False
        return True


def footer_plan(path) -> FooterPlan:
    """The footer plan of the parquet table at `path` (a file, a file list
    or a directory of part files); an existing plan is returned as is."""
    return path if isinstance(path, FooterPlan) else FooterPlan(path)


def read_parquet_clean(path, **kwargs):
    """``ray.data.read_parquet`` of a path or ``FooterPlan`` with schema
    metadata stripped from every block (see ``_strip_block_meta``).

    Primary path: when every footer agrees on the projected schema, pass
    it metadata-free as ``schema=`` — the datasource then emits clean
    blocks directly, with no extra operator in the plan and no metadata
    inside the read task (where a post-read strip stage cannot reach the
    ``ReadParquet->SplitBlocks`` schema unification). Fallback for shapes
    where the footers can't speak for the dataset (hive partition dirs,
    unreadable or disagreeing files): a fused zero-copy strip stage after
    the read."""
    import ray.data as rd

    plan = footer_plan(path)
    sch = None
    # ray's parquet datasource applies `schema` to the PROJECTED batch,
    # so the derived schema is pruned to `columns` — but a filter
    # expression may reference columns OUTSIDE the projection (pyarrow
    # filters then projects), and pyarrow expressions don't expose their
    # field refs for a subset check. Take the strip-stage fallback for
    # that combination.
    if kwargs.get("filter") is None or kwargs.get("columns") is None:
        sch = plan.schema(kwargs.get("columns"))
    if sch is not None:
        return rd.read_parquet(plan.path, schema=sch, **kwargs)
    return rd.read_parquet(plan.path, **kwargs).map_batches(
        _strip_block_meta, batch_format="pyarrow", zero_copy_batch=True)


def read_table(path, *, columns=None, filter=None, override_num_blocks=None,
               format=None):
    """Read a table (file, directory of parts, list of paths, or a parquet
    ``FooterPlan``) as a streaming ray.data.Dataset.

    `format`: 'parquet' (default) | 'json' (newline-delimited) | 'csv',
    auto-detected from the extension when None. Column pruning + predicate
    pushdown reach storage only on the parquet path — jsonl/csv decode
    whole records, so columns are dropped post-read (still before the
    first exchange) and `filter` applies as a batch kernel.

    Parquet files (not hive directories) read without
    `override_num_blocks` take ``FooterPlan.num_blocks``: one block per
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
    kwargs = {}
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    if fmt == "parquet":
        plan = footer_plan(path)
        if columns is not None:
            kwargs["columns"] = list(columns)
        if filter is not None:
            kwargs["filter"] = filter
        if override_num_blocks is None:
            n = plan.num_blocks(kwargs.get("columns"))
            if n is not None:
                kwargs["override_num_blocks"] = n
        return read_parquet_clean(plan, **kwargs)
    if isinstance(path, str) and os.path.isdir(path):
        ext = ".jsonl" if fmt == "json" else ".csv"
        files = sorted(glob.glob(os.path.join(path, f"*{ext}")))
        if fmt == "json" and not files:
            files = sorted(glob.glob(os.path.join(path, "*.json")))
        # no direct part files: nested layout — hand the directory to ray,
        # which lists recursively
        path = files or path
    if fmt == "json":
        ds = rd.read_json(path, **kwargs)
    elif fmt == "csv":
        ds = rd.read_csv(path, **kwargs)
    else:
        raise ValueError(f"unknown table format: {fmt!r}")
    if columns is not None:
        ds = ds.select_columns(list(columns))
    if filter is not None:
        ds = ds.map_batches(lambda t, e=filter: t.filter(e),
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
