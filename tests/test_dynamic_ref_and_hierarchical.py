"""Parity for $dynamicRef dynamic-scope resolution and the 'hierarchical'
output format, against the actual reference evaluator
(/root/reference/jschon/vocabulary/core.py:121-169, output.py:129-165).

Covers both execution paths: the vectorized compile-time scope resolution
and the per-row fallback (forced by unevaluatedProperties) with its
synthetic outer-scope chain.
"""

import json

import pyarrow as pa
import pytest

from jschon_ray.vspec.catalog import SpecCatalog
from jschon_ray.vspec.evaluator import compile_spec, strip_absent
from jschon_ray.vspec.output import create_output
from jschon_ray.vspec.row_oracle import RowEvaluator, output_basic

from ref_oracle import REFERENCE_UNAVAILABLE, load_reference

META = "https://json-schema.org/draft/2020-12/schema"

TREE = {
    "$id": "https://example.com/dyn/tree",
    "$dynamicAnchor": "node",
    "type": "object",
    "properties": {
        "data": True,
        "children": {
            "type": "array",
            "items": {"$dynamicRef": "#node"},
        },
    },
}

STRICT_TREE = {
    "$id": "https://example.com/dyn/strict-tree",
    "$dynamicAnchor": "node",
    "$ref": "tree",
    "unevaluatedProperties": False,
}

GENERIC = {
    "$id": "https://example.com/dyn/generic",
    "$defs": {"n": {"$dynamicAnchor": "num", "minimum": 0}},
    "properties": {"x": {"$dynamicRef": "#num"}},
}

ROOT5 = {
    "$id": "https://example.com/dyn/root5",
    "$defs": {"n2": {"$dynamicAnchor": "num", "minimum": 5}},
    "$ref": "generic",
}


@pytest.fixture(scope="module")
def ref():
    h = load_reference()
    if h is None:
        pytest.skip(REFERENCE_UNAVAILABLE)
    return h


def ref_eval(handle, spec, instance, fmt="basic"):
    schema = handle["JSONSchema"](
        dict(spec), catalog=handle["catalog"],
        metaschema_uri=handle["URI"](META))
    return schema.evaluate(handle["JSON"](instance)).output(fmt)


@pytest.fixture(scope="module")
def ref_docs(ref):
    # register the referenced resources in the reference catalog once
    for doc in (TREE, GENERIC):
        ref["JSONSchema"](dict(doc), catalog=ref["catalog"],
                          metaschema_uri=ref["URI"](META))
    return ref


def our_catalog():
    cat = SpecCatalog()
    for doc in (TREE, GENERIC):
        cat.register(doc)
    return cat


TREE_ROWS = [
    {"children": [{"data": 1}]},          # valid under both
    {"children": [{"daat": 1}]},          # invalid under strict-tree only
    {"data": 0, "children": []},
]


@pytest.mark.parametrize("spec", [TREE, STRICT_TREE],
                         ids=["tree", "strict-tree"])
@pytest.mark.parametrize("row_idx", range(len(TREE_ROWS)))
def test_dynamic_scope_row_oracle_parity(ref_docs, spec, row_idx):
    row = TREE_ROWS[row_idx]
    expected = ref_eval(ref_docs, spec, row)
    ev = RowEvaluator(our_catalog())
    ours = output_basic(ev.evaluate(spec, row))
    assert ours["valid"] == expected["valid"]
    if not expected["valid"]:
        assert ours["errors"] == expected["errors"], (
            json.dumps(ours["errors"], indent=1),
            json.dumps(expected["errors"], indent=1))


def test_strict_tree_vectorized_fallback_scope(ref_docs):
    """strict-tree forces the per-row fallback (unevaluatedProperties);
    the fallback must still see strict-tree's base on the dynamic scope."""
    table = pa.table({
        "children": pa.array(
            [[{"data": 1, "daat": None}], [{"data": None, "daat": 1}], None],
            pa.list_(pa.struct([("data", pa.int64()), ("daat", pa.int64())]))),
    })
    cs = compile_spec(STRICT_TREE, table.schema, catalog=our_catalog())
    valid, viols = cs.evaluate_table(table)
    for i, raw in enumerate(table.to_pylist()):
        row = strip_absent(raw)
        expected = ref_eval(ref_docs, STRICT_TREE, row)
        assert bool(valid[i]) == expected["valid"], f"row {i}"
        got_errs = [v["error"] for v in viols[i]]
        exp_errs = [e["error"] if isinstance(e["error"], str)
                    else json.dumps(e["error"], ensure_ascii=False)
                    for e in expected.get("errors", [])]
        assert got_errs == exp_errs, f"row {i}"


def test_dynamic_override_vectorized(ref_docs):
    """Root re-binds #num to minimum 5: x=3 must FAIL (static treatment
    would pass it against generic's minimum 0)."""
    table = pa.table({"x": pa.array([3, 7, -1, None], pa.int64())})
    cs = compile_spec(ROOT5, table.schema, catalog=our_catalog())
    valid, viols = cs.evaluate_table(table)
    ev = RowEvaluator(our_catalog())
    for i, raw in enumerate(table.to_pylist()):
        row = strip_absent(raw)
        expected = ref_eval(ref_docs, ROOT5, row)
        ours = output_basic(ev.evaluate(ROOT5, row))
        assert ours["valid"] == expected["valid"], f"row {i}"
        assert bool(valid[i]) == expected["valid"], f"row {i}"
        if not expected["valid"]:
            assert ours["errors"] == expected["errors"], f"row {i}"
            got = [(v["keywordLocation"], v["absoluteKeywordLocation"],
                    v["error"]) for v in viols[i]]
            exp = [(e["keywordLocation"], e["absoluteKeywordLocation"],
                    e["error"] if isinstance(e["error"], str)
                    else json.dumps(e["error"], ensure_ascii=False))
                   for e in expected["errors"]]
            assert got == exp, f"row {i}"
    assert not bool(valid[0])  # x=3 < 5: the dynamic override bit


HIER_CASES = [
    ({"type": "object", "properties": {"a": {"type": "integer"},
                                       "b": {"minLength": 2}},
      "required": ["a"]},
     [{"a": 1, "b": "xy"}, {"a": "no", "b": "q"}, {"b": "xy"}]),
    ({"allOf": [{"properties": {"a": {"minimum": 2}}}],
      "anyOf": [{"required": ["b"]}, {"required": ["a"]}]},
     [{"a": 5}, {"a": 0}]),
    ({"if": {"required": ["a"]}, "then": {"required": ["b"]},
      "else": {"required": ["c"]}},
     [{"a": 1}, {"c": 3}, {}]),
]


@pytest.mark.parametrize("case_idx", range(len(HIER_CASES)))
def test_hierarchical_output_parity(ref, case_idx):
    spec_body, rows = HIER_CASES[case_idx]
    spec = {"$id": f"https://example.com/hier-{case_idx}", **spec_body}
    ev = RowEvaluator(SpecCatalog())
    for i, row in enumerate(rows):
        expected = ref_eval(ref, spec, row, fmt="hierarchical")
        ours = create_output(ev.evaluate(spec, row), "hierarchical")
        assert ours == expected, (
            f"case {case_idx} row {i}\n"
            f" got: {json.dumps(ours, indent=1, default=str)}\n"
            f" exp: {json.dumps(expected, indent=1, default=str)}")
