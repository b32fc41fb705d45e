"""2019-09 dialect parity vs the reference evaluator
(/root/reference/jschon/vocabulary/legacy.py): array-form items,
additionalItems, $recursiveRef/$recursiveAnchor, 2019-09 unevaluatedItems.

The dialect is selected by the spec's own ``$schema`` member, mirroring how
the reference keys keyword classes off the metaschema
(/root/reference/jschon/jsonschema.py:110-114).
"""

import json

import pyarrow as pa
import pytest

from jschon_ray.vspec.catalog import SpecCatalog
from jschon_ray.vspec.evaluator import compile_spec, strip_absent
from jschon_ray.vspec.row_oracle import RowEvaluator, output_basic

from ref_oracle import REFERENCE_UNAVAILABLE, load_reference

META19 = "https://json-schema.org/draft/2019-09/schema"
T_LIST = pa.table({"xs": pa.array(
    [[0, 1, 5], [2, 3, 100], [0], [], [0, 0, 0, 0, 50], None],
    pa.list_(pa.int64()))})

CASES = [
    # array-form items + additionalItems
    {"properties": {"xs": {
        "items": [{"maximum": 1}, {"maximum": 2}],
        "additionalItems": {"maximum": 10}}}},
    # schema-form items (fails without an index-list error of its own)
    {"properties": {"xs": {"items": {"type": "integer", "maximum": 10}}}},
    # additionalItems discarded when items is schema-form
    {"properties": {"xs": {"items": {"maximum": 5},
                           "additionalItems": False}}},
    # boolean-form items: applies to the whole array (row-fallback path)
    {"properties": {"xs": {"items": False}}},
    # additionalItems: false past the positional prefix
    {"properties": {"xs": {"items": [{"minimum": 0}],
                           "additionalItems": False}}},
    # 2019-09 unevaluatedItems after positional items
    {"properties": {"xs": {"items": [{"type": "integer"}],
                           "unevaluatedItems": {"maximum": 3}}}},
]


@pytest.fixture(scope="module")
def ref19():
    h = load_reference("2019-09")
    if h is None:
        pytest.skip(REFERENCE_UNAVAILABLE)
    return h


def ref_eval(handle, spec, instance, fmt="basic"):
    schema = handle["JSONSchema"](
        dict(spec), catalog=handle["catalog"],
        metaschema_uri=handle["URI"](META19))
    return schema.evaluate(handle["JSON"](instance)).output(fmt)


@pytest.mark.parametrize("case_idx", range(len(CASES)))
def test_legacy_three_way_parity(ref19, case_idx):
    spec = {"$id": f"https://example.com/legacy-{case_idx}",
            "$schema": META19, **CASES[case_idx]}
    cs = compile_spec(spec, T_LIST.schema, catalog=SpecCatalog())
    vec_valid, vec_viols = cs.evaluate_table(T_LIST)
    ev = RowEvaluator(SpecCatalog())
    for i, raw in enumerate(T_LIST.to_pylist()):
        row = strip_absent(raw)
        expected = ref_eval(ref19, spec, row)
        ours = output_basic(ev.evaluate(spec, row))
        assert ours["valid"] == expected["valid"], f"case {case_idx} row {i}"
        if not expected["valid"]:
            assert ours["errors"] == expected["errors"], (
                f"case {case_idx} row {i}\n"
                f" got: {json.dumps(ours['errors'], indent=1)}\n"
                f" exp: {json.dumps(expected['errors'], indent=1)}")
        assert bool(vec_valid[i]) == expected["valid"], \
            f"case {case_idx} row {i} (vec)"
        exp_vec = [{**e, "error": e["error"] if isinstance(e["error"], str)
                    else json.dumps(e["error"], ensure_ascii=False)}
                   for e in expected.get("errors", [])]
        assert vec_viols[i] == exp_vec, (
            f"case {case_idx} row {i} vec\n"
            f" got: {json.dumps(vec_viols[i], indent=1)}\n"
            f" exp: {json.dumps(exp_vec, indent=1)}")


TREE19 = {
    "$id": "https://example.com/legacy/tree",
    "$schema": META19,
    "$recursiveAnchor": True,
    "type": "object",
    "properties": {
        "data": True,
        "children": {"type": "array", "items": {"$recursiveRef": "#"}},
    },
}

STRICT19 = {
    "$id": "https://example.com/legacy/strict-tree",
    "$schema": META19,
    "$recursiveAnchor": True,
    "$ref": "tree",
    "unevaluatedProperties": False,
}

TREE_ROWS = [
    {"children": [{"data": 1}]},
    {"children": [{"daat": 1}]},   # invalid under strict-tree only
    {"data": 0, "children": []},
]


@pytest.fixture(scope="module")
def ref19_docs(ref19):
    for doc in (TREE19,):
        ref19["JSONSchema"](dict(doc), catalog=ref19["catalog"],
                            metaschema_uri=ref19["URI"](META19))
    return ref19


def our_catalog():
    cat = SpecCatalog()
    cat.register(TREE19)
    return cat


@pytest.mark.parametrize("spec", [TREE19, STRICT19],
                         ids=["tree", "strict-tree"])
@pytest.mark.parametrize("row_idx", range(len(TREE_ROWS)))
def test_recursive_ref_parity(ref19_docs, spec, row_idx):
    row = TREE_ROWS[row_idx]
    expected = ref_eval(ref19_docs, spec, row)
    ev = RowEvaluator(our_catalog())
    ours = output_basic(ev.evaluate(spec, row))
    assert ours["valid"] == expected["valid"]
    if not expected["valid"]:
        assert ours["errors"] == expected["errors"], (
            json.dumps(ours["errors"], indent=1),
            json.dumps(expected["errors"], indent=1))


def test_recursive_ref_vectorized():
    """Vectorized strict-tree (fallback inside, $recursiveRef resolved at
    compile time against the scope chain) agrees with the row oracle."""
    table = pa.table({
        "children": pa.array(
            [[{"data": 1, "daat": None}], [{"data": None, "daat": 1}], None],
            pa.list_(pa.struct([("data", pa.int64()), ("daat", pa.int64())]))),
    })
    cs = compile_spec(STRICT19, table.schema, catalog=our_catalog())
    valid, viols = cs.evaluate_table(table)
    ev = RowEvaluator(our_catalog())
    for i, raw in enumerate(table.to_pylist()):
        row = strip_absent(raw)
        ours = output_basic(ev.evaluate(STRICT19, row))
        assert bool(valid[i]) == ours["valid"], f"row {i}"
    assert bool(valid[0]) and not bool(valid[1])


REC_INNER = {
    "$id": "https://example.com/legacy/rec-inner",
    "$schema": META19,
    "$recursiveAnchor": True,
    "type": "object",
    "properties": {
        "data": True,
        "kids": {"type": "array",
                 "items": {"$recursiveRef": "#",
                           "unevaluatedProperties": False}},
    },
}

REC_OUTER = {
    "$id": "https://example.com/legacy/rec-outer",
    "$schema": META19,
    "$recursiveAnchor": True,
    "$ref": "rec-inner",
    "properties": {"extra": {"type": "integer"}},
}


def test_recursive_rebind_through_nested_fallback(ref19_docs):
    """$recursiveRef inside a per-row FALLBACK subtree of an inner
    resource must still re-bind to the OUTER resource's anchor via the
    fallback's seeded scope chain: under outer binding a child's 'extra'
    is evaluated by outer's properties (so not 'unevaluated'); under the
    wrong inner binding it would fail unevaluatedProperties."""
    ref19_docs["JSONSchema"](dict(REC_INNER), catalog=ref19_docs["catalog"],
                             metaschema_uri=ref19_docs["URI"](META19))
    cat = SpecCatalog()
    cat.register(REC_INNER)
    leaf = pa.struct([("data", pa.int64()), ("extra", pa.int64())])
    table = pa.table({
        "data": pa.array([1, 1], pa.int64()),
        "kids": pa.array(
            [[{"data": 4, "extra": 5}],       # valid ONLY with outer binding
             [{"data": 4, "extra": None}]],
            pa.list_(leaf)),
    })
    cs = compile_spec(REC_OUTER, table.schema, catalog=cat)
    valid, viols = cs.evaluate_table(table)
    ev = RowEvaluator(cat)
    cat2 = SpecCatalog()
    cat2.register(REC_INNER)
    for i, raw in enumerate(table.to_pylist()):
        row = strip_absent(raw)
        expected = ref_eval(ref19_docs, REC_OUTER, row)
        ours = output_basic(RowEvaluator(cat2).evaluate(REC_OUTER, row))
        assert ours["valid"] == expected["valid"], (i, row)
        assert bool(valid[i]) == expected["valid"], (i, row, viols[i])
    assert [bool(v) for v in valid] == [True, True]


def test_recursive_ref_inside_nested_fallback(ref19_docs):
    """A $recursiveRef inside a per-row fallback subtree (forced by a
    sibling unevaluatedProperties) must still see the ROOT resource's
    $recursiveAnchor through the fallback's seeded scope chain."""
    spec = {
        "$id": "https://example.com/legacy/nested-rec",
        "$schema": META19,
        "$recursiveAnchor": True,
        "type": "object",
        "properties": {
            "data": {"type": ["integer", "null"], "minimum": 0},
            "kids": {
                "type": "array",
                "items": {"$recursiveRef": "#",
                          "unevaluatedProperties": False},
            },
        },
    }
    leaf = pa.struct([("data", pa.int64()), ("oops", pa.int64())])
    table = pa.table({
        "data": pa.array([1, 2, 3], pa.int64()),
        "kids": pa.array(
            [[{"data": 4, "oops": None}],
             [{"data": -1, "oops": None}],   # fails root's minimum via rec
             [{"data": 4, "oops": 9}]],      # unevaluated 'oops'
            pa.list_(leaf)),
    })
    cs = compile_spec(spec, table.schema, catalog=SpecCatalog())
    valid, viols = cs.evaluate_table(table)
    ev = RowEvaluator(SpecCatalog())
    for i, raw in enumerate(table.to_pylist()):
        row = strip_absent(raw)
        expected = ref_eval(ref19_docs, spec, row)
        ours = output_basic(ev.evaluate(spec, row))
        assert ours["valid"] == expected["valid"], (i, row)
        if not expected["valid"]:
            assert ours["errors"] == expected["errors"], (i, row)
        assert bool(valid[i]) == expected["valid"], (i, row, viols[i])
    assert [bool(v) for v in valid] == [True, False, False]
