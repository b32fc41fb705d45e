"""draft-next dialect (reference catalog/_next.py, vocabulary/future.py).

In the reference at v0.12 the next dialect's only behavioral delta vs
2020-12 is IdKeyword_Next (future.py:11-25): ``$id`` must be
fragment-free (``URI.validate(allow_fragment=False)``).  The keyword
surface is otherwise identical, so the dialect shares the 2020-12 tables
(dialect.KEYWORDS_NEXT).
"""

import pyarrow as pa
import pytest

from jschon_ray.vspec.catalog import SpecCatalog
from jschon_ray.vspec.dialect import dialect_tables, infer_dialect
from jschon_ray.vspec.evaluator import compile_spec
from jschon_ray.vspec.metaschema import validate_spec
from jschon_ray.vspec.row_oracle import RowEvaluator

NEXT = "https://json-schema.org/draft/next/schema"


def test_infer_dialect_next():
    assert infer_dialect(NEXT) == "next"
    assert infer_dialect("https://json-schema.org/draft/next/vocab/core") \
        == "next"
    assert infer_dialect("https://json-schema.org/draft/2020-12/schema") \
        == "2020-12"


def test_next_keyword_surface_matches_2020_12():
    t_next, s_next = dialect_tables("next")
    t20, s20 = dialect_tables("2020-12")
    assert t_next == t20 and s_next == s20


def test_next_evaluates_like_2020_12():
    ev = RowEvaluator(SpecCatalog())
    spec = {"$schema": NEXT, "$id": "https://x/next1",
            "type": "object",
            "properties": {"xs": {"prefixItems": [{"type": "integer"}],
                                  "items": {"type": "string"}}},
            "required": ["xs"]}
    assert ev.evaluate(dict(spec), {"xs": [1, "a", "b"]}).passed
    assert not ev.evaluate(dict(spec), {"xs": [1, 2]}).passed
    assert not ev.evaluate(dict(spec), {}).passed


def test_next_dynamic_ref():
    ev = RowEvaluator(SpecCatalog())
    spec = {"$schema": NEXT, "$id": "https://x/next2",
            "type": "array", "items": {"$dynamicRef": "#items"},
            "$defs": {"foo": {"$dynamicAnchor": "items",
                              "type": "string"}}}
    assert ev.evaluate(dict(spec), ["a", "b"]).passed
    assert not ev.evaluate(dict(spec), ["a", 1]).passed


def test_next_rejects_id_with_fragment_row_oracle():
    ev = RowEvaluator(SpecCatalog())
    spec = {"$schema": NEXT, "$id": "https://x/next3#frag",
            "type": "object"}
    with pytest.raises(ValueError, match="fragment-free"):
        ev.evaluate(spec, {})
    # even an EMPTY fragment is rejected (allow_fragment=False)
    spec2 = {"$schema": NEXT, "$id": "https://x/next4#", "type": "object"}
    with pytest.raises(ValueError, match="fragment-free"):
        ev.evaluate(spec2, {})


def test_next_rejects_id_with_fragment_vectorized():
    table = pa.table({"a": [1, 2]})
    spec = {"$schema": NEXT, "$id": "https://x/next5#frag",
            "properties": {"a": {"type": "integer"}}}
    with pytest.raises(ValueError, match="fragment-free"):
        compile_spec(spec, table.schema, catalog=SpecCatalog())


def test_next_rejects_embedded_id_fragment():
    ev = RowEvaluator(SpecCatalog())
    spec = {"$schema": NEXT, "$id": "https://x/next6",
            "properties": {"a": {"$id": "sub#frag", "type": "integer"}}}
    with pytest.raises(ValueError, match="fragment-free"):
        ev.evaluate(spec, {"a": 1})


def test_2020_12_still_allows_empty_fragment_id():
    # the strictness is next-only
    ev = RowEvaluator(SpecCatalog())
    spec = {"$schema": "https://json-schema.org/draft/2020-12/schema",
            "$id": "https://x/ok#", "type": "object"}
    assert ev.evaluate(spec, {}).passed


def test_next_validate_spec():
    validate_spec({"$schema": NEXT, "$id": "https://x/next7",
                   "type": "object",
                   "properties": {"a": {"minimum": 0}}})


def test_next_vectorized_pipeline():
    table = pa.table({
        "clip_id": ["c1", "c2", None],
        "sr_hz": pa.array([16000, 7999, 44100], pa.int32()),
    })
    spec = {"$schema": NEXT, "$id": "https://x/next8",
            "properties": {"clip_id": {"type": "string",
                                       "pattern": "^c[0-9]+$"},
                           "sr_hz": {"minimum": 8000}},
            "required": ["clip_id"]}
    cs = compile_spec(spec, table.schema, catalog=SpecCatalog())
    valid, viols = cs.evaluate_table(table)
    assert list(valid) == [True, False, False]


def test_next_reference_parity():
    """Golden parity with the reference's next catalog where loadable."""
    import sys
    sys.path.insert(0, "tests")
    from ref_oracle import REFERENCE_UNAVAILABLE, load_reference

    handle = load_reference("next")
    if handle is None:
        pytest.skip(REFERENCE_UNAVAILABLE)
    from ref_oracle import evaluate_with_reference

    ev = RowEvaluator(SpecCatalog())
    cases = [
        ({"$schema": NEXT, "$id": "https://x/np1",
          "prefixItems": [{"type": "integer"}],
          "items": {"type": "string"}}, [1, "a"]),
        ({"$schema": NEXT, "$id": "https://x/np2",
          "prefixItems": [{"type": "integer"}],
          "items": {"type": "string"}}, [1, 2]),
        ({"$schema": NEXT, "$id": "https://x/np3",
          "contains": {"const": 5}, "minContains": 2}, [5, 1, 5]),
        ({"$schema": NEXT, "$id": "https://x/np4",
          "contains": {"const": 5}, "minContains": 2}, [5, 1]),
    ]
    for spec, data in cases:
        try:
            want = evaluate_with_reference(spec, data, handle=handle)["valid"]
        except Exception:
            continue  # shimmed metaschema files insufficient
        got = ev.evaluate(dict(spec), data).passed
        assert got == want, (spec, data)
