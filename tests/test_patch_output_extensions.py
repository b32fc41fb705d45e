"""JSON Patch corpus, output formatters vs reference, custom keywords,
format registry."""

import json
import os
import pathlib

import pyarrow as pa
import pytest

from jschon_ray.vspec.catalog import SpecCatalog
from jschon_ray.vspec.evaluator import compile_spec, strip_absent
from jschon_ray.vspec.output import create_output
from jschon_ray.vspec.patch import PatchError, apply_patch, patch_batch
from jschon_ray.vspec.row_oracle import RowEvaluator
from ref_oracle import REFERENCE_UNAVAILABLE, load_reference


# -- JSON Patch -------------------------------------------------------------

RFC6902_EXAMPLES = pathlib.Path(__file__).parent / "data" \
    / "rfc6902_appendix_a.json"
REFERENCE_CORPUS = "/root/reference/tests/data/jsonpatch.json"


def load_patch_corpus(path):
    with open(path) as f:
        return json.load(f)


def reference_patch_cases():
    """The reference checkout's corpus when it is present, else one
    skipped placeholder (one reason, not one skip per case)."""
    if os.path.exists(REFERENCE_CORPUS):
        return load_patch_corpus(REFERENCE_CORPUS)
    return [pytest.param(None, id="reference-corpus", marks=pytest.mark.skip(
        reason=REFERENCE_UNAVAILABLE))]


def check_patch_case(case):
    # the corpus marks expected-failure cases with "result": null
    if case.get("result") is not None:
        assert apply_patch(case["document"], case["patch"]) == case["result"]
    else:
        with pytest.raises(PatchError):
            apply_patch(case["document"], case["patch"])


@pytest.mark.parametrize("case", load_patch_corpus(RFC6902_EXAMPLES),
                         ids=lambda c: c["description"])
def test_patch_rfc6902_examples(case):
    check_patch_case(case)


@pytest.mark.parametrize("case", reference_patch_cases(),
                         ids=lambda c: c["description"])
def test_patch_corpus(case):
    check_patch_case(case)


def test_patch_batch_vectorized_column_ops():
    t = pa.table({"a": [1, 2], "b": ["x", "y"]})
    out = patch_batch(t, [
        {"op": "copy", "from": "/a", "path": "/a2"},
        {"op": "replace", "path": "/b", "value": "z"},
        {"op": "move", "from": "/a", "path": "/c"},
        {"op": "add", "path": "/d", "value": 7},
    ])
    assert out.column_names == ["b", "a2", "c", "d"]
    assert out["a2"].to_pylist() == [1, 2]
    assert out["b"].to_pylist() == ["z", "z"]
    assert out["c"].to_pylist() == [1, 2]
    assert out["d"].to_pylist() == [7, 7]


def test_patch_batch_deep_rowwise():
    t = pa.table({"m": pa.array([{"x": 1}, {"x": 2}],
                                pa.struct([("x", pa.int64())]))})
    out = patch_batch(t, [{"op": "replace", "path": "/m/x", "value": 9}])
    assert out["m"].to_pylist() == [{"x": 9}, {"x": 9}]


# -- output formatters vs reference ----------------------------------------

def _ref():
    h = load_reference()
    if h is None:
        pytest.skip(REFERENCE_UNAVAILABLE)
    return h


@pytest.mark.parametrize("fmt", ["flag", "basic", "detailed", "verbose"])
def test_formatters_match_reference(fmt):
    h = _ref()
    spec = {"$id": f"https://example.com/fmt-{fmt}",
            "required": ["a"],
            "properties": {"a": {"type": "integer", "minimum": 5},
                           "b": {"anyOf": [{"minLength": 2},
                                           {"pattern": "^z"}]}}}
    ev = RowEvaluator(SpecCatalog())
    for instance in ({"a": 3, "b": "q"}, {"a": 7, "b": "zz"}, {"b": "x"}):
        schema = h["JSONSchema"](dict(spec), catalog=h["catalog"],
                                 metaschema_uri=h["URI"](
            "https://json-schema.org/draft/2020-12/schema"))
        expected = schema.evaluate(h["JSON"](instance)).output(fmt)
        root = ev.evaluate(spec, instance)
        assert create_output(root, fmt) == expected, (fmt, instance)


# -- custom keyword plugins -------------------------------------------------

REMOTE_ENUMS = {"https://example.com/colours": ["red", "green", "blue"]}


def row_enum_ref(ctx):
    values = REMOTE_ENUMS[ctx.kval]
    if ctx.instance not in values:
        ctx.node.fail(f"The instance is not a member of the {ctx.kval} "
                      "enumeration")
    else:
        ctx.node.annotation = ctx.kval


def compile_enum_ref(site, kval, compiler):
    import numpy as np
    import pyarrow.compute as pc

    from jschon_ray.vspec.evaluator import CKw, KwOut, _applicable, _ok

    class EnumRefCKw(CKw):
        key = "enumRef"

        def evaluate(self, inst, siblings):
            app = _applicable(inst)
            ok = pc.is_in(inst.values,
                          value_set=pa.array(REMOTE_ENUMS[kval]))
            valid = _ok(app, ok)
            fails = ~valid
            entries = []
            if fails.any():
                entries.append(self.entry(
                    fails, inst.loc,
                    f"The instance is not a member of the {kval} "
                    "enumeration"))
            return KwOut(valid, entries=entries)

    return EnumRefCKw(site)


@pytest.fixture
def enum_ref_plugin():
    from jschon_ray.vspec.extensions import register_keyword, unregister_keyword

    register_keyword("enumRef", instance_types=("string",),
                     row_eval=row_enum_ref, compile_vec=compile_enum_ref)
    yield
    unregister_keyword("enumRef")


def test_custom_keyword_vectorized_and_oracle(enum_ref_plugin):
    spec = {"$id": "https://example.com/ck",
            "properties": {"c": {"enumRef": "https://example.com/colours"}}}
    t = pa.table({"c": ["red", "pink", None]})
    cs = compile_spec(spec, t.schema, catalog=SpecCatalog())
    valid, viols = cs.evaluate_table(t)
    assert valid.tolist() == [True, False, True]
    assert viols[1][1]["keywordLocation"] == "/properties/c/enumRef"
    assert "colours enumeration" in viols[1][1]["error"]
    ev = RowEvaluator(SpecCatalog())
    for i, row in enumerate(t.to_pylist()):
        assert ev.evaluate(spec, strip_absent(row)).valid == bool(valid[i])


def test_custom_keyword_row_only_falls_back(enum_ref_plugin):
    from jschon_ray.vspec.extensions import register_keyword, unregister_keyword

    register_keyword("enumRefSlow", instance_types=("string",),
                     row_eval=row_enum_ref)  # no compile_vec
    try:
        spec = {"$id": "https://example.com/ck2",
                "properties": {"c": {"enumRefSlow":
                                     "https://example.com/colours"}}}
        t = pa.table({"c": ["red", "pink"]})
        cs = compile_spec(spec, t.schema, catalog=SpecCatalog())
        valid, viols = cs.evaluate_table(t)
        assert valid.tolist() == [True, False]
        assert "colours enumeration" in viols[1][-1]["error"]
    finally:
        unregister_keyword("enumRefSlow")


# -- format registry --------------------------------------------------------

def test_format_registry_json_pointer():
    from jschon_ray.vspec.formats import enabled_formats

    spec = {"$id": "https://example.com/fmtreg",
            "properties": {"p": {"format": "json-pointer"}}}
    t = pa.table({"p": ["/a/b", "bad", "", None]})
    cs = compile_spec(spec, t.schema, formats=enabled_formats("json-pointer"),
                      catalog=SpecCatalog())
    valid, viols = cs.evaluate_table(t)
    assert valid.tolist() == [True, False, True, True]
    assert "not a valid JSON pointer" in viols[1][-1]["error"]


def test_format_not_registered_raises():
    from jschon_ray.vspec.formats import enabled_formats

    with pytest.raises(ValueError):
        enabled_formats("nope")


# -- metaschema -------------------------------------------------------------

def test_metaschema_self_check():
    from jschon_ray.vspec.metaschema import check_self
    assert check_self()


def test_bad_spec_rejected_at_pipeline_entry(ray_session):
    import ray.data as rd
    from jschon_ray.pipelines.validate import validate_dataset
    from jschon_ray.vspec.metaschema import SpecValidationError

    ds = rd.from_items([{"x": 1}])
    with pytest.raises(SpecValidationError):
        validate_dataset(ds, {"$id": "https://x/bad", "required": "x"})


def test_metaschema_rejects_bad_pattern():
    from jschon_ray.vspec.metaschema import SpecValidationError, validate_spec
    with pytest.raises(SpecValidationError):
        validate_spec({"properties": {"s": {"pattern": "(["}}})


def test_custom_result_class_threads_to_subtree():
    """Custom Result subclass analogue (reference jsonschema.py:407,419):
    an RNode subclass passed as result_class customizes behavior for the
    WHOLE result tree."""
    from jschon_ray.vspec.catalog import SpecCatalog
    from jschon_ray.vspec.row_oracle import RNode, RowEvaluator

    failures = []

    class AuditResult(RNode):
        __slots__ = ()

        def fail(self, error=None):
            super().fail(error)
            failures.append((self.path, error))

    spec = {"$id": "https://x/audit",
            "properties": {"a": {"type": "integer", "minimum": 5},
                           "b": {"pattern": "^x"}},
            "required": ["c"]}
    ev = RowEvaluator(SpecCatalog())
    root = ev.evaluate(spec, {"a": 3, "b": "nope"},
                       result_class=AuditResult)
    assert not root.valid
    assert type(root) is AuditResult
    # every node in the tree is the subclass
    def walk(n):
        yield n
        for c in n.children.values():
            yield from walk(c)
    assert all(type(n) is AuditResult for n in walk(root))
    paths = {p for p, _ in failures}
    assert "/properties/a/minimum" in paths
    assert "/properties/b/pattern" in paths
    assert "/required" in paths


def test_default_result_class_unchanged():
    from jschon_ray.vspec.catalog import SpecCatalog
    from jschon_ray.vspec.row_oracle import RNode, RowEvaluator

    root = RowEvaluator(SpecCatalog()).evaluate(
        {"$id": "https://x/plain", "minimum": 3}, 5)
    assert type(root) is RNode and root.valid
