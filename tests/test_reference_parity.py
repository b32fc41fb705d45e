"""Three-way golden parity: reference jschon == row oracle == vectorized.

The reference evaluator itself (/root/reference, loaded via tests/ref_oracle)
is the ground truth: for every (spec, table) case, its ``output('basic')``
must equal our per-row oracle's output byte-for-byte, and the vectorized
engine's violation rows must match the same errors (strings json-encoded for
non-string error values).
"""

import itertools
import json

import pyarrow as pa
import pytest

from jschon_ray.vspec.catalog import SpecCatalog
from jschon_ray.vspec.evaluator import compile_spec, strip_absent
from jschon_ray.vspec.row_oracle import RowEvaluator, output_basic

from ref_oracle import (REFERENCE_UNAVAILABLE, evaluate_with_reference,
                        load_reference)

_ids = itertools.count()


def make_cases():
    """(spec-sans-$id, table) corpus covering every implemented keyword."""
    t_num = pa.table({"x": pa.array([-5, 0, 7, 15, 50, 101, None], pa.int64())})
    t_float = pa.table({"x": pa.array([0.3, 1.0, 2.5, -0.25, None])})
    t_str = pa.table({"s": ["", "ab", "abcd", "clip-00ff", "日本語", None]})
    t_mix = pa.table({
        "a": pa.array([1, None, 3, 4], pa.int64()),
        "b": ["x", "yy", None, "zzz"],
        "c": pa.array([0.5, 1.5, 2.5, None]),
    })
    t_list = pa.table({"xs": pa.array(
        [[1, 2, 3], [], [5, 5], None, [100], [1, 2, 2, 50], [None, 7]],
        pa.list_(pa.int64()))})
    t_struct = pa.table({"m": pa.array(
        [{"lang": "en", "n": 1.0}, {"lang": "xx", "n": -1.0},
         {"lang": None, "n": 5.0}, None],
        pa.struct([("lang", pa.string()), ("n", pa.float64())]))})

    cases = [
        ({"properties": {"x": {"type": "integer", "minimum": 0,
                               "maximum": 100, "multipleOf": 5}}}, t_num),
        ({"properties": {"x": {"exclusiveMinimum": 0,
                               "exclusiveMaximum": 50}}}, t_num),
        ({"properties": {"x": {"enum": [0, 7, "z"]}},
          "required": ["x"]}, t_num),
        ({"properties": {"x": {"const": 7}}}, t_num),
        ({"properties": {"x": {"multipleOf": 0.1}}}, t_float),
        ({"properties": {"x": {"type": "integer"}}}, t_float),
        ({"properties": {"s": {"minLength": 2, "maxLength": 4,
                               "pattern": "^[a-z]+$"}}}, t_str),
        ({"properties": {"s": {"pattern": "clip-[0-9a-f]+"}}}, t_str),
        ({"required": ["a", "b", "missing_col"]}, t_mix),
        ({"dependentRequired": {"a": ["b"], "b": ["c"]}}, t_mix),
        ({"minProperties": 2, "maxProperties": 2}, t_mix),
        ({"properties": {"a": {"type": "integer"}},
          "additionalProperties": {"type": "string"}}, t_mix),
        ({"properties": {"a": True, "b": False}}, t_mix),
        ({"patternProperties": {"^[ab]$": {"type": ["integer", "string"]}}},
         t_mix),
        ({"propertyNames": {"maxLength": 1}}, t_mix),
        ({"dependentSchemas": {"a": {"required": ["b"]},
                               "b": {"properties": {"c": {"minimum": 1}}}}},
         t_mix),
        ({"allOf": [{"properties": {"a": {"minimum": 2}}},
                    {"required": ["b"]}]}, t_mix),
        ({"anyOf": [{"properties": {"a": {"minimum": 2}}},
                    {"required": ["b"]}]}, t_mix),
        ({"oneOf": [{"properties": {"a": {"minimum": 2}}},
                    {"required": ["b"]}]}, t_mix),
        ({"not": {"required": ["a"]}}, t_mix),
        ({"if": {"required": ["a"]},
          "then": {"properties": {"b": {"minLength": 2}}},
          "else": {"required": ["c"]}}, t_mix),
        ({"properties": {"xs": {"minItems": 1, "maxItems": 3,
                                "uniqueItems": True}}}, t_list),
        ({"properties": {"xs": {"items": {"type": "integer",
                                          "maximum": 10}}}}, t_list),
        ({"properties": {"xs": {"prefixItems": [{"maximum": 1},
                                                {"maximum": 2}],
                                "items": {"maximum": 10}}}}, t_list),
        ({"properties": {"xs": {"contains": {"minimum": 2},
                                "minContains": 1, "maxContains": 2}}}, t_list),
        ({"properties": {"xs": {"contains": {"minimum": 1000},
                                "minContains": 0}}}, t_list),
        ({"properties": {"xs": {"items": {"type": ["integer", "null"]}}}},
         t_list),
        ({"properties": {"m": {"type": "object", "required": ["lang"],
                               "properties": {"lang": {"enum": ["en", "fr"]},
                                              "n": {"minimum": 0}}}}},
         t_struct),
        ({"$defs": {"pos": {"exclusiveMinimum": 0}},
          "properties": {"x": {"$ref": "#/$defs/pos"}}}, t_num),
        ({"properties": {"a": {"type": "integer"}},
          "unevaluatedProperties": False}, t_mix),
        ({"properties": {"xs": {"items": False}}}, t_list),
        ({"properties": {"x": False}}, t_num),
        # --- adversarial widening ---
        # nested combinators: oneOf of allOf/if-then
        ({"oneOf": [
            {"allOf": [{"required": ["a"]},
                       {"properties": {"a": {"minimum": 2}}}]},
            {"if": {"required": ["b"]},
             "then": {"properties": {"b": {"minLength": 3}}},
             "else": {"required": ["c"]}},
        ]}, t_mix),
        # anyOf where both branches annotate; not-within-allOf
        ({"allOf": [{"not": {"properties": {"a": {"const": 1}},
                             "required": ["a"]}}],
          "anyOf": [{"required": ["a"]}, {"required": ["b"]},
                    {"required": ["a", "b"]}]}, t_mix),
        # contains + minContains retro-pass + maxContains together
        ({"properties": {"xs": {"contains": {"minimum": 3},
                                "minContains": 0, "maxContains": 1}}},
         t_list),
        # unevaluatedItems after prefixItems + contains carve-out
        ({"properties": {"xs": {"prefixItems": [{"type": "integer"}],
                                "contains": {"minimum": 50},
                                "minContains": 0,
                                "unevaluatedItems": {"maximum": 4}}}},
         t_list),
        # unevaluatedProperties with if/then branch annotations
        ({"if": {"required": ["a"]},
          "then": {"properties": {"b": {"type": "string"}}},
          "properties": {"a": True},
          "unevaluatedProperties": {"type": "number"}}, t_mix),
        # $ref chain through two $defs levels + $anchor
        ({"$defs": {"lvl1": {"$anchor": "one", "$ref": "#/$defs/lvl2"},
                    "lvl2": {"exclusiveMaximum": 50}},
          "properties": {"x": {"$ref": "#one"}}}, t_num),
        # enum deep equality: 1 vs 1.0 vs true, arrays
        ({"properties": {"xs": {"enum": [[1, 2, 3], [], [1.0, 2.0, 3.0],
                                         [True, 7]]}}}, t_list),
        # const with object value (deep equality on struct column)
        ({"properties": {"m": {"const": {"lang": "en", "n": 1.0}}}},
         t_struct),
        # multipleOf on small decimals (Decimal-exact path)
        ({"properties": {"x": {"multipleOf": 0.25}}}, t_float),
        ({"properties": {"x": {"multipleOf": 3}}}, t_num),
        # pattern with unicode + anchors
        ({"properties": {"s": {"pattern": "^[\\u3040-\\u30ff\\u4e00-\\u9fff]+$"}}},
         t_str),
        # patternProperties + additionalProperties complement interplay
        ({"patternProperties": {"^[ac]$": {"type": ["number", "integer"]}},
          "properties": {"b": {"type": "string"}},
          "additionalProperties": False}, t_mix),
        # propertyNames regex
        ({"propertyNames": {"pattern": "^[a-b]$"}}, t_mix),
        # dependentSchemas + unevaluatedProperties union of branches
        ({"dependentSchemas": {"a": {"properties": {"c": True}}},
          "properties": {"a": True, "b": True},
          "unevaluatedProperties": False}, t_mix),
        # nested struct: required/bounds inside an object column + not
        ({"properties": {"m": {
            "type": "object",
            "required": ["lang", "n"],
            "not": {"properties": {"n": {"exclusiveMinimum": 0}}},
        }}}, t_struct),
        # if without then/else (annotation only) + standalone else (no-op)
        ({"if": {"required": ["a"]},
          "properties": {"a": {"type": "integer"}}}, t_mix),
        ({"else": {"required": ["zz"]}, "required": ["a"]}, t_mix),
        # allOf duplicating the same check (two subresults, same ipath)
        ({"allOf": [{"properties": {"a": {"minimum": 2}}},
                    {"properties": {"a": {"minimum": 3}}}]}, t_mix),
        # whole-row type mismatch: string-typed root over object rows
        ({"type": "string"}, t_mix),
        # vectorized unevaluatedProperties (branch-free shapes):
        # a failing `properties` drops its annotation, re-exposing names
        ({"properties": {"a": {"minimum": 2}},
          "unevaluatedProperties": {"type": "string"}}, t_mix),
        ({"properties": {"a": {"minimum": 2}, "b": {"minLength": 1}},
          "patternProperties": {"^c$": {"maximum": 1}},
          "unevaluatedProperties": False}, t_mix),
        ({"patternProperties": {"^[ab]$": {"type": ["integer", "string"]}},
          "additionalProperties": {"maximum": 1},
          "unevaluatedProperties": {"exclusiveMinimum": 100}}, t_mix),
        ({"unevaluatedProperties": {"type": ["integer", "string"]}}, t_mix),
        # vectorized unevaluatedItems (branch-free, no contains)
        ({"properties": {"xs": {"prefixItems": [{"maximum": 1}],
                                "unevaluatedItems": {"maximum": 4}}}},
         t_list),
        ({"properties": {"xs": {"items": {"maximum": 10},
                                "unevaluatedItems": False}}}, t_list),
        ({"properties": {"xs": {"unevaluatedItems": {"type": "integer",
                                                     "minimum": 0}}}},
         t_list),
        ({"properties": {"xs": {"prefixItems": [{"minimum": 100}],
                                "items": {"maximum": 5},
                                "unevaluatedItems": False}}}, t_list),
    ]
    return cases


def enc(v):
    return v if isinstance(v, str) else json.dumps(v, ensure_ascii=False)


@pytest.fixture(scope="module")
def ref():
    h = load_reference()
    if h is None:
        pytest.skip(REFERENCE_UNAVAILABLE)
    return h


@pytest.mark.parametrize("case_idx", range(len(make_cases())))
def test_three_way_parity(ref, case_idx):
    spec_body, table = make_cases()[case_idx]
    uid = f"https://example.com/case-{case_idx}"
    spec = {"$id": uid, **spec_body}

    cs = compile_spec(spec, table.schema, catalog=SpecCatalog())
    vec_valid, vec_viols = cs.evaluate_table(table)

    ev = RowEvaluator(SpecCatalog())
    for i, raw in enumerate(table.to_pylist()):
        row = strip_absent(raw)
        expected = evaluate_with_reference(spec, row, ref)
        root = ev.evaluate(spec, row)
        ours = output_basic(root)

        assert ours["valid"] == expected["valid"], \
            f"case {case_idx} row {i}: oracle valid mismatch"
        if not expected["valid"]:
            assert ours["errors"] == expected["errors"], (
                f"case {case_idx} row {i} oracle errors\n"
                f" got: {json.dumps(ours['errors'], indent=1)}\n"
                f" exp: {json.dumps(expected['errors'], indent=1)}")

        assert bool(vec_valid[i]) == expected["valid"], \
            f"case {case_idx} row {i}: vec valid mismatch"
        exp_vec = [{**e, "error": enc(e["error"])}
                   for e in expected.get("errors", [])]
        got = vec_viols[i]
        assert got == exp_vec, (
            f"case {case_idx} row {i} vec violations\n"
            f" got: {json.dumps(got, indent=1)}\n"
            f" exp: {json.dumps(exp_vec, indent=1)}")
