"""Vectorized Arrow-batch spec evaluator.

Compiles a declarative validation spec (jschon-keyword-shaped; see
row_oracle.py for the per-row reference semantics) into a tree of
*column-check closures* over ``pyarrow`` batches. One compiled plan
evaluates a whole ``pa.Table`` batch at once using ``pyarrow.compute``
kernels + numpy boolean algebra and emits:

  - ``valid``: one boolean per row, and
  - violation rows shaped exactly like the reference's ``output('basic')``
    error items (/root/reference/jschon/output.py:46-70): each with
    ``instanceLocation`` / ``keywordLocation`` / ``absoluteKeywordLocation``
    / ``error``, in the reference's preorder emission order (children in
    keyword-topo order, per-instance-node-major for array fan-outs,
    /root/reference/jschon/jsonschema.py:208-218,400-430).

Design notes (scale):
  * compile once on the driver; the compiled plan is pickled into
    map_batches actors — per-batch work is all vectorized kernels.
  * error-message strings are built ONLY for failing rows (violations are
    assumed sparse); the happy path allocates one bool array per keyword.
  * subschemas using features we can't vectorize (deep heterogeneous JSON,
    unevaluated*, enum over timestamps, ...) are routed to a per-row
    fallback (RowEvaluator) for that subtree only — semantics preserved,
    documented slow path.

Null convention: an Arrow null in an object property/column means the
property is ABSENT (jschon: property not present -> subschema not applied,
``required`` fails). A null *list element* is a JSON ``null`` value.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import pointer as jptr
from .catalog import SpecCatalog, SpecError
from .dialect import (
    KEYWORDS,
    STATIC_KEYWORDS,
    dialect_base,
    dialect_tables,
    infer_dialect,
    validate_id_for_dialect,
    json_str,
    keyword_order,
    tuplify,
)
from .extensions import get_plugin
from .row_oracle import RNode, RowEvaluator, _JsonRepr, jtype as py_jtype


class Unvectorizable(Exception):
    """Raised during compile when a subschema needs the per-row fallback."""


def strip_absent(value):
    """Apply the Arrow null convention to a plain-Python value: None-valued
    object members are ABSENT properties (dropped); None list elements are
    JSON nulls (kept). Used when handing table rows to the per-row oracle."""
    if isinstance(value, dict):
        return {k: strip_absent(v) for k, v in value.items() if v is not None}
    if isinstance(value, list):
        return [strip_absent(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# instance contexts


def arrow_jtype(dt: pa.DataType) -> str:
    if pa.types.is_boolean(dt):
        return "boolean"
    if pa.types.is_integer(dt) or pa.types.is_floating(dt) or pa.types.is_decimal(dt):
        return "number"
    if pa.types.is_string(dt) or pa.types.is_large_string(dt):
        return "string"
    if pa.types.is_binary(dt) or pa.types.is_large_binary(dt) \
            or pa.types.is_fixed_size_binary(dt):
        return "binary"
    if pa.types.is_timestamp(dt) or pa.types.is_date(dt):
        return "timestamp"
    if pa.types.is_list(dt) or pa.types.is_large_list(dt) \
            or pa.types.is_fixed_size_list(dt):
        return "array"
    if pa.types.is_struct(dt):
        return "object"
    if pa.types.is_null(dt):
        return "null"
    return "unknown"


def _np_bool(arr: pa.Array, fill: bool) -> np.ndarray:
    """pa boolean array (maybe with nulls) -> np.bool_ with nulls filled."""
    if arr.null_count:
        arr = pc.fill_null(arr, fill)
    return arr.to_numpy(zero_copy_only=False).astype(bool, copy=False)


class Instances:
    """A vector of instance cells under evaluation (one per row/element)."""

    __slots__ = ("n", "values", "table", "present", "loc", "jt",
                 "elem_nulls_are_values", "_pylist", "_list_parts",
                 "_fields")

    def __init__(self, n, values, table, present, loc, jt,
                 elem_nulls_are_values=False):
        self.n = n
        self.values = values          # pa.Array | None (table-kind)
        self.table = table            # pa.Table | None
        self.present = present        # np.bool_[n]
        self.loc = loc                # str | _ElemLoc
        self.jt = jt                  # static json type tag
        self.elem_nulls_are_values = elem_nulls_are_values
        self._pylist = None
        self._list_parts = None
        self._fields = {}

    @classmethod
    def from_table(cls, table: pa.Table) -> "Instances":
        return cls(table.num_rows, None, table,
                   np.ones(table.num_rows, bool), "", "object")

    # -- object-ish access ------------------------------------------------
    def field_names(self):
        if self.table is not None:
            return list(self.table.column_names)
        return [f.name for f in self.values.type]

    def field(self, name) -> pa.Array:
        """One field as a single array, built once per Instances: a table
        column's chunks are combined on first use, not on every call."""
        arr = self._fields.get(name)
        if arr is None:
            if self.table is not None:
                arr = self.table.column(name)
                if isinstance(arr, pa.ChunkedArray):
                    arr = arr.combine_chunks()
            else:
                arr = self.values.field(name)
            self._fields[name] = arr
        return arr

    def field_present(self, name) -> np.ndarray:
        arr = self.field(name)
        ok = self.present & _np_bool(pc.is_valid(arr), False)
        nulls = self.nulls_as_values()
        if nulls.any():
            # a JSON-null struct ELEMENT owns no fields, but Arrow may
            # store physically-valid garbage in its child slots
            ok = ok & ~nulls
        return ok

    def child(self, name) -> "Instances":
        arr = self.field(name)
        present = self.present & _np_bool(pc.is_valid(arr), False)
        nulls = self.nulls_as_values()
        if nulls.any():
            present = present & ~nulls
        return Instances(self.n, arr, None, present,
                         _const_child_loc(self.loc, name),
                         arrow_jtype(arr.type))

    def pylist(self):
        if self._pylist is None:
            if self.table is not None:
                self._pylist = self.table.to_pylist()
            else:
                self._pylist = self.values.to_pylist()
        return self._pylist

    def nulls_as_values(self) -> np.ndarray:
        """Mask of cells that are JSON null values (list-element ctx only)."""
        if self.values is None or not self.elem_nulls_are_values:
            return np.zeros(self.n, bool)
        return self.present & ~_np_bool(pc.is_valid(self.values), False)

    # -- array-ish access -------------------------------------------------
    def list_parts(self):
        """Flatten a list column once per batch: (flat, parent_idx, intra_idx).

        ``pc.list_flatten`` skips null/absent lists; parent/intra indices are
        aligned with the flattened values (zero-copy element access).
        """
        if self._list_parts is None:
            arr = self.values
            flat = pc.list_flatten(arr)
            par = pc.list_parent_indices(arr).to_numpy(zero_copy_only=False)
            par = par.astype(np.int64, copy=False)
            if len(par):
                # intra-row element index: position - first position of row
                starts = np.full(self.n, -1, np.int64)
                # first occurrence of each parent (par is sorted ascending)
                first = np.unique(par, return_index=True)
                starts[first[0]] = first[1]
                intra = np.arange(len(par), dtype=np.int64) - starts[par]
            else:
                intra = par
            self._list_parts = (flat, par, intra)
        return self._list_parts

    def elements(self, sel: np.ndarray | None = None) -> tuple:
        """Element-context Instances (optionally a subset mask over elements).

        Returns (elem_instances, parent_rows, intra_indices) for the selected
        elements.
        """
        flat, par, intra = self.list_parts()
        keep = self.present[par]
        if sel is not None:
            keep &= sel
        if not keep.all():
            idx = np.nonzero(keep)[0]
            flat = flat.take(pa.array(idx))
            par = par[idx]
            intra = intra[idx]
        ei = Instances(len(par), flat, None, np.ones(len(par), bool),
                       _ElemLoc(self.loc, par, intra), arrow_jtype(flat.type),
                       elem_nulls_are_values=True)
        return ei, par, intra


class _ElemLoc:
    """Lazy per-cell instance locations: parent_row loc + '/' + intra index."""

    __slots__ = ("parent", "rows", "idx")

    def __init__(self, parent, rows: np.ndarray, idx: np.ndarray):
        self.parent = parent  # parent-ctx loc (str | _ElemLoc | _SuffixLoc)
        self.rows = rows      # cell -> parent-ctx row
        self.idx = idx        # cell -> intra-row element index

    def resolve(self, cells: np.ndarray) -> list:
        parents = _resolve_loc(self.parent, self.rows[cells])
        ix = self.idx[cells]
        return [f"{p}/{i}" for p, i in zip(parents, ix)]


def _resolve_loc(loc, cells: np.ndarray) -> list:
    if isinstance(loc, str):
        return [loc] * len(cells)
    return loc.resolve(cells)


def _const_child_loc(loc, name):
    if isinstance(loc, str):
        return jptr.join(loc, name)
    # per-cell parent loc with constant suffix
    return _SuffixLoc(loc, jptr.escape_token(str(name)))


class _SuffixLoc:
    __slots__ = ("parent", "suffix")

    def __init__(self, parent, suffix):
        self.parent, self.suffix = parent, suffix

    def resolve(self, cells):
        return [f"{p}/{self.suffix}" for p in _resolve_loc(self.parent, cells)]


# ---------------------------------------------------------------------------
# violation entries


class Entry:
    """A candidate violation: a mask over some cell context + locations.

    ``key_parts`` orders violations identically to the reference's result
    tree insertion order: a list of static int-tuples and per-cell int
    arrays, flattened per emitted violation into one sort key.
    """

    __slots__ = ("key_parts", "kloc", "absloc", "loc", "mask", "rows", "msg")

    def __init__(self, key_parts, kloc, absloc, loc, mask, msg, rows=None):
        self.key_parts = key_parts
        self.kloc = kloc
        self.absloc = absloc
        self.loc = loc
        self.mask = mask
        self.rows = rows          # cell -> current-ctx row (None = identity)
        self.msg = msg            # str | callable(cells)->list

    def and_mask(self, invalid: np.ndarray):
        if not self.mask.any():
            return
        if self.rows is None:
            self.mask = self.mask & invalid
        else:
            self.mask = self.mask & invalid[self.rows]

    def lift(self, parent_indices: np.ndarray, prefix_parts: list):
        """Cross a fan-out boundary: element ctx -> row ctx.

        Per-cell arrays in ``prefix_parts`` are indexed by the fan-out's
        element ctx; re-index them into this entry's own mask ctx first.
        """
        cur = self.rows
        parts = []
        for p in prefix_parts:
            if isinstance(p, np.ndarray) and cur is not None:
                parts.append(p[cur])
            else:
                parts.append(p)
        self.key_parts = parts + self.key_parts
        self.rows = parent_indices if cur is None else parent_indices[cur]
        return self

    def retag(self, prefix: tuple):
        """Prepend a static ordering prefix (same-ctx fan-out, e.g. one
        ``additionalProperties`` subschema applied to several columns)."""
        self.key_parts = [prefix] + self.key_parts
        return self


@dataclass
class KwOut:
    valid: np.ndarray
    asserting: bool = True
    entries: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class SchemaOut:
    valid: np.ndarray
    entries: list


# ---------------------------------------------------------------------------
# compiled nodes


class Site:
    """Compile-time context for one schema node."""

    __slots__ = ("jt", "dtype", "kloc", "base", "sptr", "seq",
                 "elem_nulls_are_values", "_table_schema", "_table_cols",
                 "absloc_override")

    def __init__(self, jt, dtype, kloc, base, sptr, seq,
                 elem_nulls_are_values=False):
        self._table_schema = None
        self._table_cols = None
        # set by _compile_ref when the target is a resource root: the
        # refschema's canonical URI is fragmentless there (jschon prints
        # "base", not "base#"); never inherited by child sites.
        self.absloc_override = None
        self.jt = jt              # static jtype of the instance cells
        self.dtype = dtype        # arrow dtype (None for table)
        self.kloc = kloc          # keywordLocation prefix
        self.base = base          # resource base uri
        self.sptr = sptr          # pointer from resource root
        self.seq = seq            # ordering tuple relative to fan-out root
        self.elem_nulls_are_values = elem_nulls_are_values

    def child(self, ktoken, seq, *, jt=None, dtype=None, base=None, sptr=None,
              kloc=None):
        s = Site(
            jt if jt is not None else self.jt,
            dtype if dtype is not None else self.dtype,
            kloc if kloc is not None else jptr.join(self.kloc, ktoken),
            base if base is not None else self.base,
            sptr if sptr is not None else jptr.join(self.sptr, ktoken),
            seq,
            self.elem_nulls_are_values,
        )
        s._table_schema = self._table_schema
        s._table_cols = self._table_cols
        return s

    @property
    def absloc(self):
        if self.absloc_override is not None:
            return self.absloc_override
        if self.base is None:
            return "None"
        return self.base + "#" + jptr.uri_fragment(self.sptr)


class CSchema:
    """Compiled schema node. evaluate() returns per-cell validity + entries,
    already masked by this node's own final validity (ancestors AND later)."""

    def evaluate(self, inst: Instances) -> SchemaOut:  # pragma: no cover
        raise NotImplementedError


class BoolCS(CSchema):
    def __init__(self, value: bool, site: Site, emit_root_error=True):
        self.value = value
        self.site = site
        # loop-style same-node applicators (items/contains/additionalProperties/
        # propertyNames) overwrite the shared node's error with their final
        # index/name list (pass_() resets, /root/reference/jschon/vocabulary/
        # applicator.py:163-187,248-263,311-343,393-405) — suppress ours there
        self.emit_root_error = emit_root_error

    def evaluate(self, inst: Instances) -> SchemaOut:
        if self.value:
            return SchemaOut(np.ones(inst.n, bool), [])
        valid = ~inst.present
        entries = []
        if inst.present.any() and self.emit_root_error:
            entries.append(Entry(
                [self.site.seq], self.site.kloc, self.site.absloc, inst.loc,
                inst.present.copy(),
                "The instance is disallowed by a boolean false schema"))
        return SchemaOut(valid, entries)


class FallbackCS(CSchema):
    """Per-row fallback: exact reference semantics at Python speed.

    Used for subschemas the vectorized compiler can't express. The whole
    subtree evaluates per present cell via RowEvaluator; error nodes are
    flattened preorder and re-emitted as entries so global ordering and
    message parity are preserved.
    """

    def __init__(self, spec, site: Site, evaluator: RowEvaluator,
                 emit_root_error=True, scope=(), dialect="2020-12"):
        self.spec = spec
        self.site = site
        self.ev = evaluator
        self.emit_root_error = emit_root_error
        self.dialect = dialect  # dialect at the compile point (the subtree
        # may carry no $schema of its own)
        # synthetic ancestry carrying the outer resource bases (root-first)
        # so $dynamicRef inside the fallback subtree sees the full dynamic
        # scope (core.py:148-166); each node also carries the resource's
        # root document so the $recursiveRef walk (legacy.py:38-46) can
        # inspect $recursiveAnchor on it.
        chain = None
        for b in scope:
            node = RNode(base=b, parent=chain)
            doc = evaluator.catalog.resource_root(b)
            if isinstance(doc, (dict, bool)):
                node.schema_doc = doc
                node.is_schema = True
            chain = node
        self._parent_chain = chain

    def evaluate(self, inst: Instances) -> SchemaOut:
        n = inst.n
        valid = np.ones(n, bool)
        entries = []
        values = inst.pylist()
        cells = np.nonzero(inst.present)[0] if not inst.present.all() \
            else np.arange(n)
        null_vals = inst.nulls_as_values()
        prev_dialect = self.ev.dialect
        self.ev.dialect = self.dialect
        try:
            self._eval_cells(cells, values, null_vals, n, inst, valid,
                             entries)
        finally:
            self.ev.dialect = prev_dialect
        return SchemaOut(valid, entries)

    def _eval_cells(self, cells, values, null_vals, n, inst, valid,
                    entries):
        for i in cells:
            v = values[i]
            if v is None and not null_vals[i]:
                continue
            if isinstance(v, (dict, list)):
                v = strip_absent(v)
            node = RNode(path=self.site.kloc, ipath="", base=self.site.base,
                         sptr=self.site.sptr, parent=self._parent_chain)
            if self.site.absloc_override is not None:
                node._abs_override = self.site.absloc_override
            self.ev.eval_schema(self.spec, v, "", node,
                                self.site.base, self.site.sptr)
            if not node.passed:
                valid[i] = False
            for order, (kloc, absloc, iloc, err) in enumerate(
                    _collect_error_nodes(node, not node.valid)):
                if not self.emit_root_error and kloc == self.site.kloc:
                    continue
                mask = np.zeros(n, bool)
                mask[i] = True
                if isinstance(inst.loc, str):
                    loc = inst.loc + iloc
                else:
                    loc = _SuffixedCellLoc(inst.loc, iloc)
                entries.append(Entry(
                    [self.site.seq, (int(i), order)], kloc, absloc, loc,
                    mask, err if isinstance(err, str) else json_str(err)))


class _SuffixedCellLoc:
    __slots__ = ("parent", "suffix")

    def __init__(self, parent, suffix):
        self.parent, self.suffix = parent, suffix

    def resolve(self, cells):
        return [b + self.suffix for b in _resolve_loc(self.parent, cells)]


def _collect_error_nodes(root, root_invalid: bool):
    """Preorder (kloc, absloc, iloc, error) of invalid-subtree error nodes,
    mirroring output('basic') (/root/reference/jschon/output.py:46-70)."""
    out = []

    def visit(node):
        if not node.valid:
            if node.error is not None:
                out.append((node.path, str(node.absolute_uri), node.ipath,
                            node.error))
            for c in node.children.values():
                visit(c)

    if root_invalid:
        visit(root)
    return out


class ObjCS(CSchema):
    def __init__(self, kws: list, site: Site):
        self.kws = kws            # compiled keyword objects, in topo order
        self.site = site

    def evaluate(self, inst: Instances) -> SchemaOut:
        n = inst.n
        valid = np.ones(n, bool)
        entries = []
        siblings: dict[str, KwOut] = {}
        outs = []
        for kw in self.kws:
            out = kw.evaluate(inst, siblings)
            if out is None:
                continue
            siblings[kw.key] = out
            outs.append(out)
        # aggregate + mask AFTER all keywords ran, so minContains' retro-pass
        # of `contains` (/root/reference/jschon/vocabulary/validation.py:192-212)
        # is reflected in both validity and entry visibility
        for out in outs:
            if out.asserting:
                valid &= out.valid
            if out.entries:
                inv = ~out.valid
                for e in out.entries:
                    e.and_mask(inv)
                entries.extend(out.entries)
        valid |= ~inst.present
        invalid = ~valid
        if invalid.any():
            for e in entries:
                e.and_mask(invalid)
            entries = [e for e in entries if e.mask.any()]
        else:
            entries = []
        return SchemaOut(valid, entries)


# ---------------------------------------------------------------------------
# compiled keyword base


class CKw:
    key: str = ""

    def __init__(self, site: Site):
        self.site = site
        self.kloc = site.kloc
        self.absloc = site.absloc
        self.seq = site.seq

    def entry(self, mask, loc, msg, rows=None):
        return Entry([self.seq], self.kloc, self.absloc, loc, mask, msg,
                     rows=rows)

    def evaluate(self, inst: Instances, siblings) -> KwOut | None:
        raise NotImplementedError


def _applicable(inst: Instances) -> np.ndarray:
    """Cells this keyword applies to: present, and not a JSON-null element."""
    nulls = inst.nulls_as_values()
    if nulls.any():
        return inst.present & ~nulls
    return inst.present


def _ok(app: np.ndarray, pa_bool) -> np.ndarray:
    """pa boolean kernel result -> np validity (inapplicable -> valid)."""
    v = _np_bool(pa_bool, True)
    v |= ~app
    return v


# ---------------------------------------------------------------------------
# validation keywords (scalar, vectorized)


class TypeCKw(CKw):
    """``type`` — /root/reference/jschon/vocabulary/validation.py:33-46."""
    key = "type"

    def __init__(self, site, kval):
        super().__init__(site)
        self.types = tuplify(kval)
        self.msg = f"The instance must be of type {json_str(kval)}"
        self.base_ok = site.jt in self.types
        self.int_refine = (
            not self.base_ok and site.jt == "number" and "integer" in self.types
        )
        if self.int_refine and site.dtype is not None \
                and (pa.types.is_integer(site.dtype) or pa.types.is_decimal(site.dtype)):
            self.base_ok, self.int_refine = True, False
        self.null_ok = "null" in self.types

    def evaluate(self, inst, siblings):
        app = _applicable(inst)
        if self.base_ok:
            valid = np.ones(inst.n, bool)
        elif self.int_refine:
            arr = inst.values
            valid = _ok(app, pc.equal(arr, pc.floor(arr)))
        else:
            valid = ~app
        nulls = inst.nulls_as_values()
        if nulls.any():
            valid = valid | nulls if self.null_ok else valid & ~nulls
        fails = ~valid & (app | nulls)
        valid = ~fails
        entries = [self.entry(fails, inst.loc, self.msg)] if fails.any() else []
        return KwOut(valid, entries=entries)


_ENUM_MSG = ("The instance value must be equal to one of the elements "
             "in the defined enumeration")


def _numeric_np(inst) -> np.ndarray:
    """Numeric column -> float64 numpy with NaN at nulls."""
    arr = inst.values
    if pa.types.is_decimal(arr.type):
        arr = arr.cast(pa.float64())
    return arr.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)


class EnumCKw(CKw):
    """``enum`` — /root/reference/jschon/vocabulary/validation.py:49-55.
    Type-aware membership (1 == 1.0, True != 1)."""
    key = "enum"

    def __init__(self, site, kval):
        super().__init__(site)
        self.kval = list(kval)
        jt = site.jt
        if jt == "number":
            self.cands = [float(v) for v in kval
                          if py_jtype(v) == "number"]
        elif jt in ("string", "boolean", "binary"):
            self.cands = [v for v in kval if py_jtype(v) == jt]
        else:
            raise Unvectorizable(f"enum over {jt}")
        self.null_ok = any(v is None for v in kval)

    def evaluate(self, inst, siblings):
        app = _applicable(inst)
        if not self.cands:
            valid = ~app
        elif self.site.jt == "number":
            v = _numeric_np(inst)
            valid = np.isin(v, self.cands)
            valid |= ~app
        else:
            ok = pc.is_in(inst.values,
                          value_set=pa.array(self.cands, type=inst.values.type))
            valid = _ok(app, ok)
        nulls = inst.nulls_as_values()
        if nulls.any() and not self.null_ok:
            valid = valid & ~nulls
        fails = ~valid
        entries = [self.entry(fails, inst.loc, _ENUM_MSG)] if fails.any() else []
        return KwOut(valid, entries=entries)


class ConstCKw(CKw):
    """``const`` — /root/reference/jschon/vocabulary/validation.py:58-63."""
    key = "const"
    MSG = "The instance value must be equal to the defined constant"

    def __init__(self, site, kval):
        super().__init__(site)
        if py_jtype(kval) not in ("number", "string", "boolean", "binary", "null"):
            raise Unvectorizable("const over nested value")
        self.kval = kval

    def evaluate(self, inst, siblings):
        app = _applicable(inst)
        kt = py_jtype(self.kval)
        nulls = inst.nulls_as_values()
        if kt == "null":
            valid = (~app) | nulls
        elif kt != self.site.jt:
            valid = ~app
        elif kt == "number":
            valid = (_numeric_np(inst) == float(self.kval)) | ~app
        else:
            valid = _ok(app, pc.equal(inst.values, pa.scalar(self.kval)))
        if nulls.any() and kt != "null":
            valid = valid & ~nulls
        fails = ~valid
        entries = [self.entry(fails, inst.loc, self.MSG)] if fails.any() else []
        return KwOut(valid, entries=entries)


class MultipleOfCKw(CKw):
    """``multipleOf`` — exact Decimal semantics
    (/root/reference/jschon/vocabulary/validation.py:66-75). Integer column ×
    integer divisor is pure vector math; float paths decide per *unique*
    value with Decimal (cheap for low-cardinality columns like sr_hz), else
    the subschema falls back to the row evaluator at compile time."""
    key = "multipleOf"
    MAX_UNIQUE = 65536

    def __init__(self, site, kval):
        super().__init__(site)
        self.kval = kval
        self.msg = f"The value must be a multiple of {json_str(kval)}"
        self.int_fast = (site.dtype is not None
                         and pa.types.is_integer(site.dtype)
                         and py_jtype(kval) == "number"
                         and float(kval) == int(kval) and int(kval) != 0)

    def _decimal_ok(self, x) -> bool | None:
        try:
            return Decimal(f"{x}") % Decimal(f"{self.kval}") == 0
        except InvalidOperation:
            return None

    def evaluate(self, inst, siblings):
        app = _applicable(inst)
        v = _numeric_np(inst)
        if self.int_fast:
            with np.errstate(invalid="ignore"):
                valid = (np.mod(v, float(int(self.kval))) == 0) | ~app
            invop = np.zeros(inst.n, bool)
        else:
            uniq, inv = np.unique(v, return_inverse=True)
            if len(uniq) > self.MAX_UNIQUE:
                # the docstring's low-cardinality assumption failed:
                # keep the loop bounded with a persistent verdict cache
                # (each distinct value pays the Decimal cost once per
                # actor lifetime, not once per batch)
                cache = getattr(self, "_verdict_cache", None)
                if cache is None:
                    cache = self._verdict_cache = {}
                verdicts = np.empty(len(uniq), dtype=object)
                for j, u in enumerate(uniq):
                    if np.isnan(u):
                        verdicts[j] = True
                        continue
                    got = cache.get(u)
                    if got is None and u not in cache:
                        got = cache[u] = self._decimal_ok(u)
                    verdicts[j] = got
            else:
                verdicts = np.array(
                    [self._decimal_ok(u) if not np.isnan(u) else True
                     for u in uniq], dtype=object)
            ok_u = np.array([bool(x) for x in verdicts], bool)
            invop_u = np.array([x is None for x in verdicts], bool)
            valid = ok_u[inv] | ~app
            invop = invop_u[inv] & app
            valid &= ~invop
        fails = ~valid
        entries = []
        if fails.any():
            plain = fails & ~invop
            if plain.any():
                entries.append(self.entry(plain, inst.loc, self.msg))
            if invop.any():
                vals = v

                def mk(cells, vals=vals):
                    return [f"Invalid operation: {json_str(vals[c])} % "
                            f"{json_str(self.kval)}" for c in cells]
                entries.append(self.entry(invop.copy(), inst.loc, mk))
        return KwOut(valid, entries=entries)


class _BoundCKw(CKw):
    OP = None          # pyarrow.compute kernel name
    MSG = None

    def __init__(self, site, kval):
        super().__init__(site)
        self.kval = kval
        self.msg = self.MSG.format(json_str(kval))
        if site.jt == "timestamp":
            self.bound = pa.scalar(np.datetime64(str(kval).rstrip("Z")))
        else:
            self.bound = pa.scalar(kval)

    def evaluate(self, inst, siblings):
        app = _applicable(inst)
        kern = getattr(pc, self.OP)
        arr = inst.values
        if self.site.jt == "timestamp":
            bound = self.bound.cast(arr.type) \
                if self.bound.type != arr.type else self.bound
        else:
            bound = self.bound
        valid = _ok(app, kern(arr, bound))
        valid |= inst.nulls_as_values()  # null element: keyword inapplicable
        fails = ~valid
        entries = [self.entry(fails, inst.loc, self.msg)] if fails.any() else []
        return KwOut(valid, entries=entries)


class MaximumCKw(_BoundCKw):
    key = "maximum"
    OP = "less_equal"
    MSG = "The value may not be greater than {}"


class ExclusiveMaximumCKw(_BoundCKw):
    key = "exclusiveMaximum"
    OP = "less"
    MSG = "The value must be less than {}"


class MinimumCKw(_BoundCKw):
    key = "minimum"
    OP = "greater_equal"
    MSG = "The value may not be less than {}"


class ExclusiveMinimumCKw(_BoundCKw):
    key = "exclusiveMinimum"
    OP = "greater"
    MSG = "The value must be greater than {}"


class MaxLengthCKw(CKw):
    key = "maxLength"

    def __init__(self, site, kval):
        super().__init__(site)
        self.kval = kval
        self.msg = f"The text is too long (maximum {json_str(kval)} characters)"

    def evaluate(self, inst, siblings):
        app = _applicable(inst)
        valid = _ok(app, pc.less_equal(pc.utf8_length(inst.values), self.kval))
        valid |= inst.nulls_as_values()
        fails = ~valid
        entries = [self.entry(fails, inst.loc, self.msg)] if fails.any() else []
        return KwOut(valid, entries=entries)


class MinLengthCKw(CKw):
    key = "minLength"

    def __init__(self, site, kval):
        super().__init__(site)
        self.kval = kval
        self.msg = f"The text is too short (minimum {json_str(kval)} characters)"

    def evaluate(self, inst, siblings):
        app = _applicable(inst)
        valid = _ok(app, pc.greater_equal(pc.utf8_length(inst.values), self.kval))
        valid |= inst.nulls_as_values()
        fails = ~valid
        entries = [self.entry(fails, inst.loc, self.msg)] if fails.any() else []
        return KwOut(valid, entries=entries)


_RE2_UNSAFE = re.compile(r"\(\?[=!<]|\(\?P=|\\[0-9]")


class PatternCKw(CKw):
    """``pattern`` — unanchored search
    (/root/reference/jschon/vocabulary/validation.py:132-142). re2-safe
    patterns run on Arrow's match_substring_regex kernel; patterns using
    lookaround/backrefs keep Python `re` semantics via a per-value loop."""
    key = "pattern"

    def __init__(self, site, kval):
        super().__init__(site)
        self.kval = kval
        self.rx = re.compile(kval)          # validates; compiled once per actor
        self.safe = _RE2_UNSAFE.search(kval) is None
        self.msg = f"The text must match the regular expression {json_str(kval)}"

    def evaluate(self, inst, siblings):
        app = _applicable(inst)
        if self.safe:
            try:
                ok = pc.match_substring_regex(inst.values, self.kval)
                valid = _ok(app, ok)
                if "$" in self.kval:
                    # RE2 '$' is strict end-of-text; Python re (the
                    # reference engine) also matches before ONE trailing
                    # newline — re-check just the newline-ending values
                    nl = pc.fill_null(
                        pc.ends_with(pc.cast(inst.values, pa.string()),
                                     "\n"), False) \
                        .to_numpy(zero_copy_only=False)
                    redo = app & nl & ~valid
                    if redo.any():
                        valid = valid.copy()
                        valid[redo] = self._py_eval(inst, redo)[redo]
            except pa.ArrowInvalid:
                valid = self._py_eval(inst, app)
        else:
            valid = self._py_eval(inst, app)
        valid |= inst.nulls_as_values()
        fails = ~valid
        entries = [self.entry(fails, inst.loc, self.msg)] if fails.any() else []
        return KwOut(valid, entries=entries)

    def _py_eval(self, inst, app):
        valid = np.ones(inst.n, bool)
        search = self.rx.search
        for i, s in zip(np.nonzero(app)[0], inst.values.take(
                pa.array(np.nonzero(app)[0])).to_pylist()):
            if s is not None and search(s) is None:
                valid[i] = False
        return valid


class FormatCKw(CKw):
    """``format`` with an enabled validator — actor-held Python UDF
    (/root/reference/jschon/vocabulary/format.py:14-32)."""
    key = "format"

    def __init__(self, site, kval, validator, vtypes):
        super().__init__(site)
        self.attr = kval
        self.validator = validator
        self.vtypes = vtypes

    def evaluate(self, inst, siblings):
        if self.site.jt not in self.vtypes:
            return KwOut(np.ones(inst.n, bool), asserting=False)
        app = _applicable(inst)
        valid = np.ones(inst.n, bool)
        msgs = {}
        vals = inst.pylist()
        for i in np.nonzero(app)[0]:
            v = vals[i]
            if v is None:
                continue
            try:
                self.validator(v)
            except ValueError as e:
                valid[i] = False
                msgs[int(i)] = (f'The instance is invalid against the '
                                f'"{self.attr}" format: {e}')
        entries = []
        if msgs:
            def mk(cells, msgs=msgs):
                return [msgs[int(c)] for c in cells]
            entries.append(self.entry(~valid, inst.loc, mk))
        return KwOut(valid, entries=entries)


# ---------------------------------------------------------------------------
# array keywords


class MaxItemsCKw(CKw):
    key = "maxItems"

    def __init__(self, site, kval):
        super().__init__(site)
        self.kval = kval
        self.msg = f"The array has too many elements (maximum {json_str(kval)})"

    def evaluate(self, inst, siblings):
        app = _applicable(inst)
        valid = _ok(app, pc.less_equal(pc.list_value_length(inst.values), self.kval))
        fails = ~valid
        entries = [self.entry(fails, inst.loc, self.msg)] if fails.any() else []
        return KwOut(valid, entries=entries)


class MinItemsCKw(CKw):
    key = "minItems"

    def __init__(self, site, kval):
        super().__init__(site)
        self.kval = kval
        self.msg = f"The array has too few elements (minimum {json_str(kval)})"

    def evaluate(self, inst, siblings):
        app = _applicable(inst)
        valid = _ok(app, pc.greater_equal(pc.list_value_length(inst.values), self.kval))
        fails = ~valid
        entries = [self.entry(fails, inst.loc, self.msg)] if fails.any() else []
        return KwOut(valid, entries=entries)


class UniqueItemsCKw(CKw):
    """``uniqueItems`` over scalar-element lists: sort-free pandas dedup per
    row replaces the reference's quadratic pairwise scan
    (/root/reference/jschon/vocabulary/validation.py:163-177)."""
    key = "uniqueItems"
    MSG = "The array's elements must all be unique"

    def __init__(self, site, kval):
        super().__init__(site)
        elem = site.dtype.value_type
        if arrow_jtype(elem) in ("array", "object", "unknown"):
            raise Unvectorizable("uniqueItems over nested elements")
        self.numeric = arrow_jtype(elem) == "number"

    def evaluate(self, inst, siblings):
        import pandas as pd
        app = _applicable(inst)
        flat, par, _ = inst.list_parts()
        valid = np.ones(inst.n, bool)
        if len(par):
            if self.numeric:
                vals = pd.Series(flat.cast(pa.float64()).to_numpy(
                    zero_copy_only=False))
                key = vals.astype(object).where(vals.notna(), "\0null")
            else:
                key = pd.Series(flat.to_pylist(), dtype=object)
                key = key.where(key.notna(), "\0null")
            df = pd.DataFrame({"p": par, "v": key})
            dup_rows = df.loc[df.duplicated(["p", "v"]), "p"].unique()
            valid[dup_rows] = False
        valid |= ~app
        fails = ~valid
        entries = [self.entry(fails, inst.loc, self.MSG)] if fails.any() else []
        return KwOut(valid, entries=entries)


def _segment_all(n, par, elem_valid):
    ok = np.ones(n, bool)
    if len(par):
        np.logical_and.at(ok, par, elem_valid)
    return ok


def _segment_count(n, par, elem_mask):
    cnt = np.zeros(n, np.int64)
    if len(par):
        np.add.at(cnt, par, elem_mask.astype(np.int64))
    return cnt


class ItemsCKw(CKw):
    """``items`` (2020-12) — one subschema over elements past the prefix
    (/root/reference/jschon/vocabulary/applicator.py:163-187). Vectorized by
    list-flattening the batch and evaluating the element subschema once over
    all selected elements."""
    key = "items"

    def __init__(self, site, kval_cs, n_prefix, emit_index_error=True):
        super().__init__(site)
        self.sub = kval_cs
        self.n_prefix = n_prefix
        # 2019-09 schema-form items fails without an index-list error of its
        # own (/root/reference/jschon/vocabulary/legacy.py:66-73)
        self.emit_index_error = emit_index_error

    def evaluate(self, inst, siblings):
        app = _applicable(inst)
        _, par_all, intra_all = inst.list_parts()
        sel = intra_all >= self.n_prefix if self.n_prefix else None
        ei, par, intra = inst.elements(sel)
        out = self.sub.evaluate(ei)
        valid = _segment_all(inst.n, par, out.valid)
        valid |= ~app
        entries = [e.lift(par, [self.seq, intra]) for e in out.entries]
        fails = ~valid
        if fails.any() and self.emit_index_error:
            bad = ~out.valid
            bad_par, bad_intra = par[bad], intra[bad]

            def mk(cells, bad_par=bad_par, bad_intra=bad_intra):
                idx = {}
                for p, i in zip(bad_par, bad_intra):
                    idx.setdefault(int(p), []).append(int(i))
                return [idx.get(int(r), []) for r in cells]
            entries.insert(0, self.entry(fails, inst.loc, mk))
        return KwOut(valid, entries=entries)


class UnevaluatedItemsCKw(CKw):
    """``unevaluatedItems`` vectorized for the branch-free, no-``contains``
    shape (/root/reference/jschon/vocabulary/applicator.py:190-245):
    coverage per row derives from the prefixItems/items siblings' static
    extents gated on their per-row validity (annotations drop from failed
    subtrees, re-exposing those elements here)."""
    key = "unevaluatedItems"

    def __init__(self, site, sub, n_prefix, has_prefix, has_items):
        super().__init__(site)
        self.sub = sub
        self.n_prefix = n_prefix
        self.has_prefix = has_prefix
        self.has_items = has_items

    def evaluate(self, inst, siblings):
        app = _applicable(inst)
        _, par_all, intra_all = inst.list_parts()
        lengths = np.bincount(par_all, minlength=inst.n) \
            if len(par_all) else np.zeros(inst.n, np.int64)
        start = np.zeros(inst.n, np.int64)
        covered = ~app
        if self.has_prefix and "prefixItems" in siblings:
            pv = siblings["prefixItems"].valid
            start = np.where(pv, np.minimum(lengths, self.n_prefix), 0)
            # a valid prefix covering the whole array discards this keyword
            covered |= pv & (lengths <= self.n_prefix)
        if self.has_items and "items" in siblings:
            iv = siblings["items"].valid
            # items annotates True (and so covers the rest) only when it
            # actually evaluated at least one element and all passed
            covered |= iv & (lengths > self.n_prefix)
        active = app & ~covered
        if not active.any():
            return KwOut(np.ones(inst.n, bool))
        sel = active[par_all] & (intra_all >= start[par_all])
        ei, par, intra = inst.elements(sel)
        out = self.sub.evaluate(ei)
        valid = _segment_all(inst.n, par, out.valid)
        valid |= ~active
        entries = [e.lift(par, [self.seq, intra]) for e in out.entries]
        fails = ~valid
        if fails.any():
            bad = ~out.valid
            bad_par, bad_intra = par[bad], intra[bad]

            def mk(cells, bad_par=bad_par, bad_intra=bad_intra):
                idx = {}
                for p, i in zip(bad_par, bad_intra):
                    idx.setdefault(int(p), []).append(int(i))
                return [idx.get(int(r), []) for r in cells]
            entries.insert(0, self.entry(fails, inst.loc, mk))
        return KwOut(valid, entries=entries)


class AdditionalItems2019CKw(ItemsCKw):
    """2019-09 ``additionalItems`` — discarded per row unless the positional
    ``items`` sibling passed with an integer annotation
    (/root/reference/jschon/vocabulary/legacy.py:96-112)."""
    key = "additionalItems"

    def evaluate(self, inst, siblings):
        items_out = siblings.get("items")
        if items_out is None:
            return KwOut(np.ones(inst.n, bool), asserting=False)
        out = super().evaluate(inst, siblings)
        active = items_out.valid
        valid = out.valid | ~active
        entries = []
        for e in out.entries:
            e.and_mask(active)
            if e.mask.any():
                entries.append(e)
        return KwOut(valid, entries=entries)


class PrefixItemsCKw(CKw):
    """``prefixItems`` — positional subschemas
    (/root/reference/jschon/vocabulary/applicator.py:142-160)."""
    key = "prefixItems"

    def __init__(self, site, subs):
        super().__init__(site)
        self.subs = subs  # list of CSchema, seq-relative ()

    def evaluate(self, inst, siblings):
        app = _applicable(inst)
        valid = np.ones(inst.n, bool)
        entries = []
        fail_lists = {}
        _, par_all, intra_all = inst.list_parts()
        for i, sub in enumerate(self.subs):
            sel = intra_all == i
            if not sel.any():
                continue
            ei, par, intra = inst.elements(sel)
            out = sub.evaluate(ei)
            branch_ok = _segment_all(inst.n, par, out.valid)
            valid &= branch_ok
            entries.extend(e.lift(par, [self.seq + (i,)]) for e in out.entries)
            bad = par[~out.valid]
            for r in bad:
                fail_lists.setdefault(int(r), []).append(i)
        valid |= ~app
        fails = ~valid
        if fails.any():
            def mk(cells, fl=fail_lists):
                return [fl.get(int(r), []) for r in cells]
            entries.insert(0, self.entry(fails, inst.loc, mk))
        return KwOut(valid, entries=entries)


class ContainsCKw(CKw):
    """``contains`` — element-match count per row
    (/root/reference/jschon/vocabulary/applicator.py:248-263)."""
    key = "contains"
    MSG = ('The array does not contain any element that is valid '
           'against the "contains" subschema')

    def __init__(self, site, sub):
        super().__init__(site)
        self.sub = sub

    def evaluate(self, inst, siblings):
        app = _applicable(inst)
        ei, par, intra = inst.elements()
        out = self.sub.evaluate(ei)
        count = _segment_count(inst.n, par, out.valid)
        valid = (count > 0) | ~app
        entries = [e.lift(par, [self.seq, intra]) for e in out.entries]
        fails = ~valid
        if fails.any():
            entries.insert(0, self.entry(fails.copy(), inst.loc, self.MSG))
        return KwOut(valid, entries=entries, extra={"count": count, "app": app})


class MaxContainsCKw(CKw):
    key = "maxContains"

    def __init__(self, site, kval):
        super().__init__(site)
        self.kval = kval
        self.msg = ('The array has too many elements matching the '
                    f'"contains" subschema (maximum {json_str(kval)})')

    def evaluate(self, inst, siblings):
        cont = siblings.get("contains")
        if cont is None:
            return KwOut(np.ones(inst.n, bool), asserting=False)
        count = cont.extra["count"]
        valid = ~(cont.extra["app"] & (count > self.kval))
        fails = ~valid
        entries = [self.entry(fails, inst.loc, self.msg)] if fails.any() else []
        return KwOut(valid, entries=entries)


class MinContainsCKw(CKw):
    """``minContains`` incl. the retro-pass of a failed ``contains``
    (/root/reference/jschon/vocabulary/validation.py:192-212)."""
    key = "minContains"

    def __init__(self, site, kval):
        super().__init__(site)
        self.kval = kval
        self.msg = ('The array has too few elements matching the '
                    f'"contains" subschema (minimum {json_str(kval)})')

    def evaluate(self, inst, siblings):
        cont = siblings.get("contains")
        if cont is None:
            return KwOut(np.ones(inst.n, bool), asserting=False)
        count = cont.extra["count"]
        app = cont.extra["app"]
        valid = ~(app & (count < self.kval))
        mx = siblings.get("maxContains")
        retro = valid & ~cont.valid & (mx.valid if mx is not None else True)
        if retro.any():
            cont.valid = cont.valid | retro
        fails = ~valid
        entries = [self.entry(fails, inst.loc, self.msg)] if fails.any() else []
        return KwOut(valid, entries=entries)


# ---------------------------------------------------------------------------
# object keywords


class PropertiesCKw(CKw):
    """``properties`` — the workhorse: per-column subschema fan-out
    (/root/reference/jschon/vocabulary/applicator.py:266-285). Child result
    nodes are ordered by *instance* (column) order, as the reference iterates
    instance members."""
    key = "properties"

    def __init__(self, site, props):
        super().__init__(site)
        self.props = props  # [(colname, CSchema)] in column order

    def evaluate(self, inst, siblings):
        valid = np.ones(inst.n, bool)
        entries = []
        colfails = []
        for name, sub in self.props:
            ci = inst.child(name)
            out = sub.evaluate(ci)
            fail = ~out.valid
            if fail.any():
                valid &= out.valid
                colfails.append((name, fail))
            entries.extend(out.entries)
        fails = ~valid
        if fails.any():
            def mk(cells, colfails=colfails):
                return ["Properties {} are invalid".format(
                    [n for n, f in colfails if f[r]]) for r in cells]
            entries.insert(0, self.entry(fails, inst.loc, mk))
        return KwOut(valid, entries=entries)


class PatternPropertiesCKw(CKw):
    """``patternProperties`` — regexes resolved to concrete columns at
    compile time (/root/reference/jschon/vocabulary/applicator.py:288-308)."""
    key = "patternProperties"

    def __init__(self, site, matches):
        super().__init__(site)
        self.matches = matches  # [(colname, regex, CSchema)] col-major order

    def evaluate(self, inst, siblings):
        valid = np.ones(inst.n, bool)
        entries = []
        colfails = []
        for name, _regex, sub in self.matches:
            ci = inst.child(name)
            out = sub.evaluate(ci)
            fail = ~out.valid
            if fail.any():
                valid &= out.valid
                colfails.append((name, fail))
            entries.extend(out.entries)
        fails = ~valid
        if fails.any():
            def mk(cells, colfails=colfails):
                return ["Properties {} are invalid".format(
                    [n for n, f in colfails if f[r]]) for r in cells]
            entries.insert(0, self.entry(fails, inst.loc, mk))
        return KwOut(valid, entries=entries)


class AdditionalPropertiesCKw(CKw):
    """``additionalProperties`` — complement column set resolved at compile
    time (/root/reference/jschon/vocabulary/applicator.py:311-343). The
    subschema evaluates into this node (no per-name child node)."""
    key = "additionalProperties"

    def __init__(self, site, cols_subs):
        super().__init__(site)
        self.cols_subs = cols_subs  # [(colname, CSchema seq-rel ())] col order

    def evaluate(self, inst, siblings):
        valid = np.ones(inst.n, bool)
        entries = []
        colfails = []
        for j, (name, sub) in enumerate(self.cols_subs):
            ci = inst.child(name)
            out = sub.evaluate(ci)
            fail = ~out.valid
            if fail.any():
                valid &= out.valid
                colfails.append((name, fail))
            entries.extend(e.retag(self.seq + (j,)) for e in out.entries)
        fails = ~valid
        if fails.any():
            def mk(cells, colfails=colfails):
                return [json_str([n for n, f in colfails if f[r]])
                        for r in cells]
            entries.insert(0, self.entry(fails, inst.loc, mk))
        return KwOut(valid, entries=entries)


class UnevaluatedPropertiesCKw(CKw):
    """``unevaluatedProperties`` vectorized for the branch-free shape
    (/root/reference/jschon/vocabulary/applicator.py:346-390): when the
    schema level carries no branch applicators, the evaluated-name set per
    row is exactly (names matched by a sibling k) gated on that sibling's
    per-row validity — annotations drop from failed subtrees, so a row
    whose ``properties`` failed re-exposes ALL its names here (the same
    behavior the row oracle and the reference exhibit)."""
    key = "unevaluatedProperties"

    def __init__(self, site, cols_subs, contributors):
        super().__init__(site)
        self.cols_subs = cols_subs          # [(colname, CSchema)] col order
        self.contributors = contributors    # [(sibling_key, frozenset names)]

    def evaluate(self, inst, siblings):
        valid = np.ones(inst.n, bool)
        entries = []
        colfails = []
        for j, (name, sub) in enumerate(self.cols_subs):
            pres = inst.field_present(name)
            evaluated = np.zeros(inst.n, bool)
            for key, names in self.contributors:
                if name in names and key in siblings:
                    evaluated |= siblings[key].valid
            target = pres & ~evaluated
            if not target.any():
                continue
            ci = inst.child(name)
            out = sub.evaluate(ci)
            fail = ~out.valid & target
            if fail.any():
                valid &= ~fail
                colfails.append((name, fail))
            for e in out.entries:
                e.and_mask(target)
                if e.mask.any():
                    entries.append(e.retag(self.seq + (j,)))
        fails = ~valid
        if fails.any():
            def mk(cells, colfails=colfails):
                return [json_str([n for n, f in colfails if f[r]])
                        for r in cells]
            entries.insert(0, self.entry(fails, inst.loc, mk))
        return KwOut(valid, entries=entries)


class PropertyNamesCKw(CKw):
    """``propertyNames`` — column names are static, so the subschema is
    evaluated once at compile time against each name
    (/root/reference/jschon/vocabulary/applicator.py:393-405)."""
    key = "propertyNames"

    def __init__(self, site, static_fail_names, static_entries):
        super().__init__(site)
        self.fail_names = static_fail_names
        # [(rel_order, kloc, absloc, name, err)] from the row oracle
        self.static_entries = static_entries

    def evaluate(self, inst, siblings):
        if not self.fail_names:
            return KwOut(np.ones(inst.n, bool))
        pres = {n: inst.field_present(n) for n in self.fail_names}
        any_fail = np.zeros(inst.n, bool)
        for m in pres.values():
            any_fail |= m
        valid = ~any_fail
        entries = []
        for (order, kloc, absloc, name, err) in self.static_entries:
            entries.append(Entry(
                [self.seq, (order,)], kloc, absloc,
                _const_child_loc(inst.loc, name), pres[name].copy(),
                err if isinstance(err, str) else json_str(err)))
        if any_fail.any():
            def mk(cells, pres=pres):
                return [json_str([n for n in self.fail_names if pres[n][r]])
                        for r in cells]
            entries.insert(0, self.entry(any_fail, inst.loc, mk))
        return KwOut(valid, entries=entries)


class MaxPropertiesCKw(CKw):
    key = "maxProperties"

    def __init__(self, site, kval):
        super().__init__(site)
        self.kval = kval
        self.msg = f"The object has too many properties (maximum {json_str(kval)})"

    def evaluate(self, inst, siblings):
        cnt = _present_property_count(inst)
        valid = (cnt <= self.kval) | ~_applicable(inst)
        fails = ~valid
        entries = [self.entry(fails, inst.loc, self.msg)] if fails.any() else []
        return KwOut(valid, entries=entries)


class MinPropertiesCKw(CKw):
    key = "minProperties"

    def __init__(self, site, kval):
        super().__init__(site)
        self.kval = kval
        self.msg = f"The object has too few properties (minimum {json_str(kval)})"

    def evaluate(self, inst, siblings):
        cnt = _present_property_count(inst)
        valid = (cnt >= self.kval) | ~_applicable(inst)
        fails = ~valid
        entries = [self.entry(fails, inst.loc, self.msg)] if fails.any() else []
        return KwOut(valid, entries=entries)


def _present_property_count(inst: Instances) -> np.ndarray:
    cnt = np.zeros(inst.n, np.int64)
    for name in inst.field_names():
        cnt += _np_bool(pc.is_valid(inst.field(name)), False)
    return cnt


class RequiredCKw(CKw):
    """``required`` — presence is Arrow non-null
    (/root/reference/jschon/vocabulary/validation.py:233-240)."""
    key = "required"

    def __init__(self, site, kval, table_cols):
        super().__init__(site)
        self.names = list(kval)
        self.have = [n for n in self.names if n in table_cols]

    def evaluate(self, inst, siblings):
        miss = {}
        any_missing = np.zeros(inst.n, bool)
        for n in self.names:
            if n in self.have:
                m = ~_np_bool(pc.is_valid(inst.field(n)), False)
            else:
                m = np.ones(inst.n, bool)
            miss[n] = m
            any_missing |= m
        any_missing &= _applicable(inst)
        valid = ~any_missing
        entries = []
        if any_missing.any():
            def mk(cells, miss=miss):
                return ["The object is missing required properties {}".format(
                    [n for n in self.names if miss[n][r]]) for r in cells]
            entries.append(self.entry(any_missing, inst.loc, mk))
        return KwOut(valid, entries=entries)


class DependentRequiredCKw(CKw):
    """``dependentRequired``
    (/root/reference/jschon/vocabulary/validation.py:243-256)."""
    key = "dependentRequired"

    def __init__(self, site, kval, table_cols):
        super().__init__(site)
        self.deps = {k: list(v) for k, v in kval.items()}
        self.table_cols = set(table_cols)

    def evaluate(self, inst, siblings):
        failing = np.zeros(inst.n, bool)
        trigger_present = {}
        dep_missing = {}
        for name, deps in self.deps.items():
            tp = _np_bool(pc.is_valid(inst.field(name)), False) \
                if name in self.table_cols else np.zeros(inst.n, bool)
            trigger_present[name] = tp
            dm = {}
            for d in deps:
                dm[d] = ~_np_bool(pc.is_valid(inst.field(d)), False) \
                    if d in self.table_cols else np.ones(inst.n, bool)
            dep_missing[name] = dm
            any_dm = np.zeros(inst.n, bool)
            for m in dm.values():
                any_dm |= m
            failing |= tp & any_dm
        failing &= _applicable(inst)
        valid = ~failing
        entries = []
        if failing.any():
            def mk(cells):
                res = []
                for r in cells:
                    missing = {}
                    for name, deps in self.deps.items():
                        if trigger_present[name][r]:
                            md = [_JsonRepr(d) for d in deps
                                  if dep_missing[name][d][r]]
                            if md:
                                missing[name] = md
                    res.append("The object is missing dependent properties "
                               f"{missing}")
                return res
            entries.append(self.entry(failing, inst.loc, mk))
        return KwOut(valid, entries=entries)


class DependentSchemasCKw(CKw):
    """``dependentSchemas``
    (/root/reference/jschon/vocabulary/applicator.py:119-139)."""
    key = "dependentSchemas"

    def __init__(self, site, subs, table_cols):
        super().__init__(site)
        self.subs = subs  # [(trigger_name, CSchema)] in schema order
        self.table_cols = set(table_cols)

    def evaluate(self, inst, siblings):
        valid = np.ones(inst.n, bool)
        entries = []
        namefails = []
        for name, sub in self.subs:
            if name not in self.table_cols:
                continue
            tp = _np_bool(pc.is_valid(inst.field(name)), False) & inst.present
            if not tp.any():
                continue
            gated = Instances(inst.n, inst.values, inst.table, tp,
                              inst.loc, inst.jt)
            gated._fields = inst._fields  # same cells, same fields
            out = sub.evaluate(gated)
            fail = ~out.valid & tp
            if fail.any():
                valid &= ~fail
                namefails.append((name, fail))
            entries.extend(out.entries)
        fails = ~valid
        if fails.any():
            def mk(cells, namefails=namefails):
                return ["Properties {} are invalid against the corresponding "
                        '"dependentSchemas" subschemas'.format(
                            [n for n, f in namefails if f[r]])
                        for r in cells]
            entries.insert(0, self.entry(fails, inst.loc, mk))
        return KwOut(valid, entries=entries)


# ---------------------------------------------------------------------------
# combinators


class AllOfCKw(CKw):
    """``allOf`` (/root/reference/jschon/vocabulary/applicator.py:28-40)."""
    key = "allOf"

    def __init__(self, site, subs):
        super().__init__(site)
        self.subs = subs

    def evaluate(self, inst, siblings):
        valid = np.ones(inst.n, bool)
        entries = []
        branch_fails = []
        for i, sub in enumerate(self.subs):
            out = sub.evaluate(inst)
            fail = ~out.valid
            if fail.any():
                valid &= out.valid
                branch_fails.append((i, fail))
            entries.extend(out.entries)
        fails = ~valid
        if fails.any():
            def mk(cells, bf=branch_fails):
                return ["The instance is invalid against subschemas {}".format(
                    [i for i, f in bf if f[r]]) for r in cells]
            entries.insert(0, self.entry(fails, inst.loc, mk))
        return KwOut(valid, entries=entries)


class AnyOfCKw(CKw):
    """``anyOf`` — all branches evaluated
    (/root/reference/jschon/vocabulary/applicator.py:43-55)."""
    key = "anyOf"
    MSG = "The instance must be valid against at least one subschema"

    def __init__(self, site, subs):
        super().__init__(site)
        self.subs = subs

    def evaluate(self, inst, siblings):
        valid = np.zeros(inst.n, bool)
        entries = []
        for sub in self.subs:
            out = sub.evaluate(inst)
            valid |= out.valid
            entries.extend(out.entries)
        valid |= ~inst.present
        fails = ~valid
        if fails.any():
            entries.insert(0, self.entry(fails, inst.loc, self.MSG))
        return KwOut(valid, entries=entries)


class OneOfCKw(CKw):
    """``oneOf`` (/root/reference/jschon/vocabulary/applicator.py:58-74)."""
    key = "oneOf"

    def __init__(self, site, subs):
        super().__init__(site)
        self.subs = subs

    def evaluate(self, inst, siblings):
        count = np.zeros(inst.n, np.int64)
        entries = []
        branch_valid = []
        for sub in self.subs:
            out = sub.evaluate(inst)
            count += out.valid
            branch_valid.append(out.valid)
            entries.extend(out.entries)
        valid = (count == 1) | ~inst.present
        fails = ~valid
        if fails.any():
            def mk(cells, bv=branch_valid):
                res = []
                for r in cells:
                    vi = [i for i, v in enumerate(bv) if v[r]]
                    ei = [i for i, v in enumerate(bv) if not v[r]]
                    res.append("The instance must be valid against exactly one "
                               f"subschema; it is valid against {vi} "
                               f"and invalid against {ei}")
                return res
            entries.insert(0, self.entry(fails, inst.loc, mk))
        return KwOut(valid, entries=entries)


class NotCKw(CKw):
    """``not`` (/root/reference/jschon/vocabulary/applicator.py:77-86).
    The subschema evaluates into this node; when it fails, this node passes
    and the subtree's errors are suppressed by the node-validity mask."""
    key = "not"
    MSG = "The instance must not be valid against the subschema"

    def __init__(self, site, sub):
        super().__init__(site)
        self.sub = sub

    def evaluate(self, inst, siblings):
        out = self.sub.evaluate(inst)
        valid = ~out.valid | ~inst.present
        entries = list(out.entries)
        fails = ~valid
        if fails.any():
            entries.insert(0, self.entry(fails, inst.loc, self.MSG))
        return KwOut(valid, entries=entries)


class IfCKw(CKw):
    """``if`` — non-asserting; errors of a false condition stay visible in
    basic output (/root/reference/jschon/vocabulary/applicator.py:89-94)."""
    key = "if"

    def __init__(self, site, sub):
        super().__init__(site)
        self.sub = sub

    def evaluate(self, inst, siblings):
        out = self.sub.evaluate(inst)
        return KwOut(out.valid, asserting=False, entries=out.entries)


class ThenCKw(CKw):
    """``then`` (/root/reference/jschon/vocabulary/applicator.py:97-105)."""
    key = "then"

    def __init__(self, site, sub):
        super().__init__(site)
        self.sub = sub

    def evaluate(self, inst, siblings):
        if_ = siblings.get("if")
        if if_ is None:
            return None  # discarded
        cond = if_.valid & inst.present
        gated = _gate(inst, cond)
        out = self.sub.evaluate(gated)
        valid = out.valid | ~cond
        return KwOut(valid, entries=out.entries)


class ElseCKw(CKw):
    """``else`` (/root/reference/jschon/vocabulary/applicator.py:108-116)."""
    key = "else"

    def __init__(self, site, sub):
        super().__init__(site)
        self.sub = sub

    def evaluate(self, inst, siblings):
        if_ = siblings.get("if")
        if if_ is None:
            return None
        cond = ~if_.valid & inst.present
        gated = _gate(inst, cond)
        out = self.sub.evaluate(gated)
        valid = out.valid | ~cond
        return KwOut(valid, entries=out.entries)


def _gate(inst: Instances, mask: np.ndarray) -> Instances:
    g = Instances(inst.n, inst.values, inst.table, mask & inst.present,
                  inst.loc, inst.jt, inst.elem_nulls_are_values)
    g._fields = inst._fields  # same cells, same fields
    return g


class RefCKw(CKw):
    """``$ref`` — resolved and inlined at compile time
    (/root/reference/jschon/vocabulary/core.py:82-103). The target schema
    evaluates into this node; absoluteKeywordLocation switches to the target
    (refschema semantics, /root/reference/jschon/jsonschema.py:483-510)."""
    key = "$ref"

    def __init__(self, site, target_cs):
        super().__init__(site)
        self.sub = target_cs

    def evaluate(self, inst, siblings):
        out = self.sub.evaluate(inst)
        return KwOut(out.valid, entries=out.entries)


# ---------------------------------------------------------------------------
# compiler


class Compiler:
    """Compile a declarative spec against a concrete Arrow schema.

    The compiled plan is specialized to the table's column set and dtypes
    (static type gating, pattern-property resolution, column complements),
    mirroring how the reference specializes keyword behaviour per instance
    type at evaluation time (/root/reference/jschon/jsonschema.py:208-209).
    """

    def __init__(self, catalog=None, formats=None):
        self.catalog = catalog or SpecCatalog()
        self.formats = formats or {}
        self.rowev = RowEvaluator(self.catalog, self.formats)
        self._ref_stack: list = []
        # resource bases entered along the compile path, root-first: the
        # *static* dynamic scope. Because specs are static per run, the
        # runtime Result-ancestry walk of $dynamicRef
        # (/root/reference/jschon/vocabulary/core.py:148-166) is fully
        # determined at compile time by this chain.
        self._scope: list[str] = []
        # active dialect; switched per resource subtree by $schema
        self.dialect = "2020-12"

    # -- schema ----------------------------------------------------------
    def compile_schema(self, spec, site: Site,
                       suppress_root_error=False) -> CSchema:
        try:
            return self._compile_vec(spec, site, suppress_root_error)
        except Unvectorizable:
            scope = list(self._scope)
            if site.base is not None and (not scope or scope[-1] != site.base):
                scope.append(site.base)
            return FallbackCS(spec, site, self.rowev,
                              emit_root_error=not suppress_root_error,
                              scope=scope, dialect=self.dialect)

    def _compile_vec(self, spec, site: Site, suppress_root_error=False) -> CSchema:
        if isinstance(spec, bool):
            return BoolCS(spec, site, emit_root_error=not suppress_root_error)
        if not isinstance(spec, dict):
            raise SpecError(f"invalid schema: {spec!r}")

        base, sptr = site.base, site.sptr
        if "$id" in spec and isinstance(spec["$id"], str):
            from urllib.parse import urldefrag, urljoin
            # a resource root's own $schema governs its $id rules
            eff = infer_dialect(spec["$schema"]) \
                if isinstance(spec.get("$schema"), str) else self.dialect
            validate_id_for_dialect(spec["$id"], eff)
            # Skip the rejoin when ``base`` is already this node's
            # canonical URI (a $ref jumped directly to this embedded
            # resource root) — rejoining the relative $id would double
            # the path segment. Mirrors row_oracle.eval_schema.
            reg = self.catalog._resources.get(base) if base else None
            if not (reg is not None and reg.get("doc") is spec):
                base = urldefrag(
                    urljoin(base or spec["$id"], spec["$id"])).url
            sptr = ""
            site = site.child("", site.seq, base=base, sptr=sptr,
                              kloc=site.kloc)

        if site.jt == "unknown":
            raise Unvectorizable(f"unsupported arrow type at {site.kloc}")

        pushed = base is not None and (not self._scope
                                       or self._scope[-1] != base)
        if pushed:
            self._scope.append(base)
        prev_dialect = self.dialect
        if "$schema" in spec and isinstance(spec["$schema"], str):
            self.dialect = infer_dialect(spec["$schema"])
        try:
            kwtable, static = dialect_tables(self.dialect)
            kws: list[CKw] = []
            counter = 0
            order = keyword_order(spec.keys(), self.dialect)
            for key in order:
                if key in static:
                    continue
                instance_types = kwtable.get(key, (ALL_JT, ()))[0]
                if site.jt not in instance_types and not (
                        site.elem_nulls_are_values and key in ("type", "enum",
                                                               "const")):
                    continue
                ksite = site.child(key, site.seq + (counter,))
                kw = self.compile_keyword(key, spec[key], spec, ksite)
                counter += 1
                if kw is not None:
                    kws.append(kw)
        finally:
            self.dialect = prev_dialect
            if pushed:
                self._scope.pop()
        return ObjCS(kws, site)

    # -- keywords ---------------------------------------------------------
    def compile_keyword(self, key, kval, schema, site: Site) -> CKw | None:
        if key not in dialect_tables(self.dialect)[0]:
            # out-of-dialect keywords degrade to annotations — a plugin is
            # only active in dialects whose keyword table lists it
            # ($vocabulary gating; jschon vocabulary/__init__.py:100-107)
            return None
        jt = site.jt
        simple = {
            "type": TypeCKw, "enum": EnumCKw, "const": ConstCKw,
            "multipleOf": MultipleOfCKw,
            "maximum": MaximumCKw, "exclusiveMaximum": ExclusiveMaximumCKw,
            "minimum": MinimumCKw, "exclusiveMinimum": ExclusiveMinimumCKw,
            "maxLength": MaxLengthCKw, "minLength": MinLengthCKw,
            "pattern": PatternCKw,
            "maxItems": MaxItemsCKw, "minItems": MinItemsCKw,
            "maxContains": MaxContainsCKw, "minContains": MinContainsCKw,
            "maxProperties": MaxPropertiesCKw,
            "minProperties": MinPropertiesCKw,
        }
        if key in simple:
            return simple[key](site, kval)
        if key == "uniqueItems":
            if not kval:
                return None
            return UniqueItemsCKw(site, kval)
        if key == "required":
            return RequiredCKw(site, kval, self._cols(site))
        if key == "dependentRequired":
            return DependentRequiredCKw(site, kval, self._cols(site))
        if key == "format":
            entry = self.formats.get(kval)
            if entry is None:
                return None  # annotation-only (not enabled for assertion)
            return FormatCKw(site, kval, entry[0], entry[1])
        if key == "properties":
            return self._compile_properties(kval, site)
        if key == "patternProperties":
            return self._compile_pattern_properties(kval, site)
        if key == "additionalProperties":
            return self._compile_additional(kval, schema, site)
        if key == "propertyNames":
            return self._compile_property_names(kval, site)
        if key == "dependentSchemas":
            subs = []
            for i, (name, sub) in enumerate(kval.items()):
                csite = site.child(name, site.seq + (i,))
                subs.append((name, self.compile_schema(sub, csite)))
            return DependentSchemasCKw(site, subs, self._cols(site))
        if key in ("allOf", "anyOf", "oneOf"):
            subs = [self.compile_schema(sub, site.child(str(i), site.seq + (i,)))
                    for i, sub in enumerate(kval)]
            return {"allOf": AllOfCKw, "anyOf": AnyOfCKw,
                    "oneOf": OneOfCKw}[key](site, subs)
        if key in ("not", "if", "then", "else"):
            # subschema evaluates into this node: same kloc, nested seq
            sub = self.compile_schema(kval, site.child(
                "", site.seq, kloc=site.kloc, sptr=site.sptr))
            return {"not": NotCKw, "if": IfCKw, "then": ThenCKw,
                    "else": ElseCKw}[key](site, sub)
        if key == "prefixItems":
            return self._compile_prefix_items(kval, site)
        if key == "items":
            if dialect_base(self.dialect) == "2019-09":
                # legacy forms (/root/reference/jschon/vocabulary/legacy.py:
                # 57-87): array form == positional; schema form applies to
                # every element with no index-list error of its own; boolean
                # form applies to the whole array (row fallback).
                if isinstance(kval, bool):
                    raise Unvectorizable("2019-09 boolean-form items")
                if isinstance(kval, list):
                    ckw = self._compile_prefix_items(kval, site)
                    ckw.key = "items"  # sibling lookups key off kw.key
                    return ckw
                elem_site = self._elem_site(site, site.seq, into_node=True)
                sub = self.compile_schema(kval, elem_site,
                                          suppress_root_error=True)
                return ItemsCKw(site, sub, 0, emit_index_error=False)
            n_prefix = len(schema.get("prefixItems", []))
            elem_site = self._elem_site(site, site.seq, into_node=True)
            sub = self.compile_schema(kval, elem_site, suppress_root_error=True)
            return ItemsCKw(site, sub, n_prefix)
        if key == "additionalItems":  # reached only in the 2019-09 dialect
            items_val = schema.get("items")
            if not isinstance(items_val, list) or len(items_val) == 0:
                # discarded unless items is NON-EMPTY positional: the
                # reference gates on an INT items annotation, and the
                # empty array form yields annotation None
                # (legacy.py:96-112)
                return None
            elem_site = self._elem_site(site, site.seq, into_node=True)
            sub = self.compile_schema(kval, elem_site,
                                      suppress_root_error=True)
            return AdditionalItems2019CKw(site, sub, len(items_val))
        if key == "$recursiveRef":  # 2019-09 only
            if kval != "#":
                raise SpecError('"$recursiveRef" may only take the value "#"')
            target, tbase, tptr = self.catalog.resolve("#", site.base or "")
            if isinstance(target, dict) \
                    and target.get("$recursiveAnchor") is True:
                for b in self._scope:  # root-first: outermost anchor wins
                    hit = self.catalog.resource_root(b)
                    if isinstance(hit, dict) \
                            and hit.get("$recursiveAnchor") is True:
                        target, tbase, tptr = hit, b, ""
                        break
            return self._compile_resolved_ref(target, tbase, tptr, site)
        if key == "contains":
            elem_site = self._elem_site(site, site.seq, into_node=True)
            sub = self.compile_schema(kval, elem_site, suppress_root_error=True)
            return ContainsCKw(site, sub)
        if key == "$ref" or key == "$dynamicRef":
            return self._compile_ref(kval, site, dynamic=key == "$dynamicRef")
        if key == "unevaluatedProperties":
            return self._compile_unevaluated_properties(kval, schema, site)
        if key == "unevaluatedItems":
            return self._compile_unevaluated_items(kval, schema, site)
        if key == "$dynamicAnchor":
            return None
        return self._compile_unknown(key, kval, site)

    # -- helpers ----------------------------------------------------------
    def _cols(self, site: Site):
        if site.dtype is None:
            return site._table_cols  # set by compile_spec for the root
        return [f.name for f in site.dtype]

    def _child_dtype(self, site: Site, name):
        if site.dtype is None:
            sch = site._table_schema
            idx = sch.get_field_index(name)
            return sch.field(idx).type if idx >= 0 else None
        try:
            return site.dtype.field(name).type
        except KeyError:
            return None

    def _prop_site(self, site: Site, name, dtype, seq):
        return Site(arrow_jtype(dtype), dtype,
                    jptr.join(site.kloc, name), site.base,
                    jptr.join(site.sptr, name), seq, False)

    def _elem_site(self, site: Site, seq, into_node=False):
        dt = site.dtype
        elem = dt.value_type
        return Site(arrow_jtype(elem), elem,
                    site.kloc if into_node else site.kloc,
                    site.base, site.sptr, (),  # fan-out boundary: seq resets
                    True)

    def _compile_properties(self, kval, site: Site):
        cols = self._cols(site)
        props = []
        j = 0
        for name in cols:  # instance (column) order, as the reference iterates
            if name not in kval:
                continue
            dtype = self._child_dtype(site, name)
            psite = self._prop_site(site, name, dtype, site.seq + (j,))
            props.append((name, self.compile_schema(kval[name], psite)))
            j += 1
        return PropertiesCKw(site, props)

    def _compile_pattern_properties(self, kval, site: Site):
        cols = self._cols(site)
        rxs = [(rx, re.compile(rx)) for rx in kval]
        matches = []
        j = 0
        for name in cols:
            for rx, crx in rxs:
                if crx.search(name) is not None:
                    dtype = self._child_dtype(site, name)
                    psite = Site(arrow_jtype(dtype), dtype,
                                 jptr.join(site.kloc, rx), site.base,
                                 jptr.join(site.sptr, rx), site.seq + (j,),
                                 False)
                    matches.append((name, rx, self.compile_schema(kval[rx],
                                                                  psite)))
                    j += 1
        return PatternPropertiesCKw(site, matches)

    def _compile_additional(self, kval, schema, site: Site):
        known = set(schema.get("properties", {}).keys())
        rxs = [re.compile(rx) for rx in schema.get("patternProperties", {})]
        cols_subs = []
        for name in self._cols(site):
            if name in known or any(rx.search(name) for rx in rxs):
                continue
            dtype = self._child_dtype(site, name)
            # into-same-node: fresh seq per column (retagged at evaluate)
            csite = Site(arrow_jtype(dtype), dtype, site.kloc, site.base,
                         site.sptr, (), False)
            cols_subs.append((name, self.compile_schema(
                kval, csite, suppress_root_error=True)))
        return AdditionalPropertiesCKw(site, cols_subs)

    def _compile_unevaluated_properties(self, kval, schema, site: Site):
        """Vectorize the branch-free shape; anything that can move name
        annotations across branches falls back to the per-row oracle."""
        unsafe = {"allOf", "anyOf", "oneOf", "not", "if", "then", "else",
                  "dependentSchemas", "$ref", "$dynamicRef", "$recursiveRef"}
        if unsafe & set(schema.keys()):
            raise Unvectorizable(
                "unevaluatedProperties beside branch applicators")
        if any(get_plugin(k) is not None for k in schema.keys()):
            raise Unvectorizable(
                "unevaluatedProperties beside plugin keywords")
        cols = self._cols(site)
        known = set(schema.get("properties", {}).keys())
        rxs = [re.compile(rx) for rx in schema.get("patternProperties", {})]
        prop_names = frozenset(c for c in cols if c in known)
        pat_names = frozenset(c for c in cols
                              if any(rx.search(c) for rx in rxs))
        addl_names = frozenset(
            c for c in cols if c not in prop_names and c not in pat_names
        ) if "additionalProperties" in schema else frozenset()
        contributors = [("properties", prop_names),
                        ("patternProperties", pat_names),
                        ("additionalProperties", addl_names)]
        cols_subs = []
        for name in cols:
            # every column can be unevaluated on SOME row (a failed sibling
            # drops its annotation), so all get a compiled subschema
            dtype = self._child_dtype(site, name)
            csite = Site(arrow_jtype(dtype), dtype, site.kloc, site.base,
                         site.sptr, (), False)
            cols_subs.append((name, self.compile_schema(
                kval, csite, suppress_root_error=True)))
        return UnevaluatedPropertiesCKw(site, cols_subs, contributors)

    def _compile_unevaluated_items(self, kval, schema, site: Site):
        """Vectorize the branch-free, no-contains shape (2020-12 dialect);
        everything else keeps the per-row fallback."""
        unsafe = {"contains", "allOf", "anyOf", "oneOf", "not", "if", "then",
                  "else", "$ref", "$dynamicRef", "$recursiveRef",
                  "additionalItems"}
        if self.dialect != "2020-12" or unsafe & set(schema.keys()):
            raise Unvectorizable("unevaluatedItems beside branch applicators")
        if any(get_plugin(k) is not None for k in schema.keys()):
            raise Unvectorizable("unevaluatedItems beside plugin keywords")
        n_prefix = len(schema.get("prefixItems", []))
        elem_site = self._elem_site(site, site.seq, into_node=True)
        sub = self.compile_schema(kval, elem_site, suppress_root_error=True)
        return UnevaluatedItemsCKw(site, sub, n_prefix,
                                   "prefixItems" in schema,
                                   "items" in schema)

    def _compile_property_names(self, kval, site: Site):
        fail_names = []
        static_entries = []
        order = 0
        for name in self._cols(site):
            node = RNode(path=site.kloc, ipath="", base=site.base,
                         sptr=site.sptr)
            self.rowev.eval_schema(kval, name, "", node, site.base, site.sptr)
            if not node.valid:
                fail_names.append(name)
                for (kloc, absloc, _iloc, err) in _collect_error_nodes(
                        node, True):
                    if kloc == site.kloc:
                        continue  # overwritten by the final name list
                    static_entries.append((order, kloc, absloc, name, err))
                    order += 1
        return PropertyNamesCKw(site, fail_names, static_entries)

    def _compile_prefix_items(self, kval, site: Site):
        subs = []
        for i, sub in enumerate(kval):
            esite = self._elem_site(site, ())
            esite = Site(esite.jt, esite.dtype,
                         jptr.join(site.kloc, i), site.base,
                         jptr.join(site.sptr, i), (), True)
            subs.append(self.compile_schema(sub, esite))
        return PrefixItemsCKw(site, subs)

    def _compile_ref(self, kval, site: Site, dynamic=False):
        target, tbase, tptr = self.catalog.resolve(kval, site.base or "")
        if dynamic:
            # $dynamicRef: when the initial target carries a matching
            # $dynamicAnchor, re-resolve against the static scope chain,
            # outermost (root-most) base winning — compile-time image of
            # the runtime ancestry walk (core.py:148-166). The leaf of the
            # chain is site.base (pushed by the enclosing _compile_vec).
            frag = kval.split("#", 1)[1] if "#" in kval else None
            if frag is not None and not frag.startswith("/") \
                    and isinstance(target, dict) \
                    and target.get("$dynamicAnchor") == frag:
                for b in self._scope:  # root-first: first match wins
                    found = self.catalog.try_resolve_anchor(b, frag)
                    if found is not None and isinstance(found[0], dict) \
                            and found[0].get("$dynamicAnchor") == frag:
                        target, tbase, tptr = found
                        break
        return self._compile_resolved_ref(target, tbase, tptr, site)

    def _compile_resolved_ref(self, target, tbase, tptr, site: Site):
        # cycle key includes the concrete Arrow dtype: a recursive spec over
        # a FINITE Arrow nesting unrolls to the data's static depth (each
        # revisit sees a strictly smaller type; structural keywords no-op
        # once the type bottoms out). Only a revisit at the SAME dtype is a
        # true cycle the static plan can't express.
        ckey = (id(target), str(site.dtype))
        if ckey in self._ref_stack:
            raise Unvectorizable("cyclic $ref")
        self._ref_stack.append(ckey)
        try:
            tsite = Site(site.jt, site.dtype, site.kloc, tbase, tptr,
                         site.seq, site.elem_nulls_are_values)
            if tptr == "":
                tsite.absloc_override = tbase
            if site.dtype is None:
                tsite._table_schema = site._table_schema
                tsite._table_cols = site._table_cols
            sub = self.compile_schema(target, tsite)
        finally:
            self._ref_stack.pop()
        return RefCKw(site, sub)

    def _compile_unknown(self, key, kval, site: Site):
        plugin = get_plugin(key)
        if plugin is not None:
            if plugin.compile_vec is None:
                raise Unvectorizable(f"plugin keyword {key!r} (row-eval only)")
            return plugin.compile_vec(site, kval, self)
        # unknown / annotation-only keywords: no assertion, no entries
        return None


ALL_JT = ("null", "boolean", "number", "string", "array", "object",
          "binary", "timestamp")


# ---------------------------------------------------------------------------
# public API


VIOLATION_STRUCT = pa.struct([
    ("instanceLocation", pa.string()),
    ("keywordLocation", pa.string()),
    ("absoluteKeywordLocation", pa.string()),
    ("error", pa.string()),
])
VIOLATIONS_TYPE = pa.list_(VIOLATION_STRUCT)


class CompiledSpec:
    """A validation plan compiled for one (spec, arrow schema) pair."""

    def __init__(self, root: CSchema, spec, base, table_schema, columns_used):
        self.root = root
        self.spec = spec
        self.base = base
        self.table_schema = table_schema
        self.columns_used = columns_used

    # -- evaluation -------------------------------------------------------
    def evaluate_table(self, table: pa.Table):
        """Returns (valid: np.bool_[n], violations: list[list[dict]])."""
        inst = Instances.from_table(table)
        out = self.root.evaluate(inst)
        return out.valid, _assemble(out, table.num_rows)

    def check_batch(self, table: pa.Table) -> pa.Table:
        """map_batches-ready: append `valid` + `violations` columns."""
        valid, viols = self.evaluate_table(table)
        table = table.append_column("valid", pa.array(valid))
        table = table.append_column(
            "violations", pa.array(viols, type=VIOLATIONS_TYPE))
        return table


def _assemble(out: SchemaOut, n: int) -> list:
    """Flatten entries into per-row, reference-ordered violation dicts."""
    per_row: dict[int, list] = {}
    for e in out.entries:
        cells = np.nonzero(e.mask)[0]
        if not len(cells):
            continue
        rows = e.rows[cells] if e.rows is not None else cells
        locs = _resolve_loc(e.loc, cells)
        if callable(e.msg):
            # row-level message callables take row indices; cell-level (from
            # fallback/format) take their own ctx cells == rows here
            msgs = e.msg(rows if e.rows is None else cells)
        else:
            msgs = [e.msg] * len(cells)
        for ci, row, loc, msg in zip(cells, rows, locs, msgs):
            key = []
            for part in e.key_parts:
                if isinstance(part, np.ndarray):
                    key.append(int(part[ci]))
                else:
                    key.extend(part)
            if not isinstance(msg, str):
                msg = json_str(msg)
            per_row.setdefault(int(row), []).append(
                (tuple(key),
                 {"instanceLocation": loc,
                  "keywordLocation": e.kloc,
                  "absoluteKeywordLocation": e.absloc,
                  "error": msg}))
    result = [[] for _ in range(n)]
    for row, items in per_row.items():
        items.sort(key=lambda kv: kv[0])
        result[row] = [v for _, v in items]
    return result


def compile_spec(spec, table_schema: pa.Schema, *, uri=None, catalog=None,
                 formats=None) -> CompiledSpec:
    """Compile a declarative spec for batches with the given Arrow schema.

    - ``spec``: jschon-2020-12-shaped dict (or bool)
    - ``table_schema``: the pa.Schema of the batches to validate
    - ``formats``: {attr: (validator_fn, (instance_types...))} enabled for
      assertion (like Catalog.enable_formats,
      /root/reference/jschon/catalog/__init__.py:267-279)
    """
    comp = Compiler(catalog, formats)
    if isinstance(spec, dict) and ("$id" in spec or uri):
        base = comp.catalog.register(spec, uri)
    elif isinstance(spec, dict):
        # anonymous document: register under a content-derived synthetic
        # URI so internal '#/$defs/...' refs resolve (the reference
        # assigns anonymous schemas a synthetic UUID URI the same way,
        # jsonschema.py __init__; content hash keeps re-compiles of the
        # same spec idempotent in a shared catalog)
        import hashlib
        import json as _json

        digest = hashlib.md5(
            _json.dumps(spec, sort_keys=True, default=str).encode()) \
            .hexdigest()
        # https scheme: urllib's urljoin only resolves fragments against
        # hierarchical schemes (a urn: base would be dropped)
        base = comp.catalog.register(
            spec, f"https://jschon-ray.dev/anon/{digest}")
    else:
        base = uri
    site = Site("object", None, "", base, "", ())
    site._table_schema = table_schema
    site._table_cols = list(table_schema.names)
    root = comp.compile_schema(spec, site)
    cols = _columns_used(spec, table_schema)
    return CompiledSpec(root, spec, base, table_schema, cols)


def _columns_used(spec, table_schema) -> list:
    """Columns a spec actually reads — for pruning at read_parquet time.

    Conservative allowlist: ANY keyword outside the known column-narrow
    set (incl. $dynamicRef/$recursiveRef, plugin keywords, applicators)
    disables pruning — a pruned read under a keyword whose resolved
    target reads other columns would silently fail every check."""
    if not isinstance(spec, dict):
        return list(table_schema.names)
    safe = {
        "$id", "$schema", "$defs", "$comment", "title", "description",
        "properties", "required", "dependentRequired", "type",
    }
    if set(spec.keys()) - safe:
        return list(table_schema.names)
    used = set(spec.get("properties", {}).keys())
    used |= set(spec.get("required", []))
    for k, v in spec.get("dependentRequired", {}).items():
        used.add(k)
        used.update(v)
    return [c for c in table_schema.names if c in used]
