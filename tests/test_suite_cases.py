"""Vendored JSON-Schema-Test-Suite-style conformance corpus.

Recreates the reference's generated-case harness
(/root/reference/tests/test_suite.py:93-178 + suite_status.json xfail
ledger) over suite-style (schema, instance, valid) triples vendored under
tests/suite_corpus/{2020-12,2019-09}/.  Each triple runs through BOTH
engines:

- the per-row oracle (``RowEvaluator`` — arbitrary JSON instances), the
  primary gate: ``passed`` must equal the case's ``valid``;
- the vectorized Arrow engine (``compile_spec`` over a single-row table),
  cross-checked whenever the instance is representable in the tabular
  model (an object whose members are Arrow-typeable and contain no
  None-valued members — the Arrow convention maps null members to
  ABSENT properties, evaluator.py ``strip_absent``).

Known deviations live in tests/suite_status.json, keyed
``version/file/case-description/test-description`` with
``{"status": "xfail"|"skip", "reason": ...}``, mirroring the reference's
SuiteStatus ledger (test_suite.py:15-76).
"""

import json
import pathlib

import pyarrow as pa
import pytest

from jschon_ray.vspec.catalog import SpecCatalog
from jschon_ray.vspec.evaluator import compile_spec
from jschon_ray.vspec.formats import all_registered
from jschon_ray.vspec.row_oracle import RowEvaluator

CORPUS_DIR = pathlib.Path(__file__).parent / "suite_corpus"
STATUS_PATH = pathlib.Path(__file__).parent / "suite_status.json"

META_URI = {
    "2020-12": "https://json-schema.org/draft/2020-12/schema",
    "2019-09": "https://json-schema.org/draft/2019-09/schema",
    "next": "https://json-schema.org/draft/next/schema",
}

with open(STATUS_PATH) as f:
    _STATUS = json.load(f)


def _status(version, fname, case_desc, test_desc):
    return (
        _STATUS.get(version, {})
        .get(fname, {})
        .get(case_desc, {})
        .get(test_desc, {})
    )


# 2020-12 corpus files whose keywords behave identically in 2019-09 —
# re-run under the 2019-09 dialect too, like the official suite's
# per-draft file duplication. Excludes files touching prefixItems,
# 2020-12 items, $dynamicRef, or unevaluated* interplay.
SHARED_WITH_2019 = {
    "type.json", "enum.json", "const.json", "multipleOf.json",
    "maximum.json", "minimum.json", "exclusiveMaximum.json",
    "exclusiveMinimum.json", "maxLength.json", "minLength.json",
    "pattern.json", "required.json", "maxProperties.json",
    "minProperties.json", "dependentRequired.json", "maxItems.json",
    "minItems.json", "contains.json", "maxContains.json",
    "minContains.json", "properties.json", "patternProperties.json",
    "additionalProperties.json", "propertyNames.json",
    "dependentSchemas.json", "allOf.json", "anyOf.json", "oneOf.json",
    "not.json", "if-then-else.json", "boolean_schema.json",
    "format.json", "content.json", "annotations.json", "default.json",
    "defs.json", "infinite-loop-detection.json",
    # round-3 generated matrices whose keywords behave identically in
    # 2019-09 ($anchor/$defs/$ref-with-siblings all exist there; items /
    # unevaluated* matrices are per-draft and excluded)
    "generated_type_matrix.json", "generated_numeric_bounds.json",
    "generated_string_bounds.json", "generated_array_bounds.json",
    "generated_object_bounds.json", "generated_enum_const.json",
    "generated_applicators.json", "generated_properties_interplay.json",
    "generated_ref_matrix.json",
    # $ref/$anchor/$defs across catalog-registered remote documents behave
    # identically in 2019-09 ($ref-with-siblings and $anchor both exist
    # there; URN bases, embedded $id scoping and boolean-schema refs are
    # draft-independent)
    "refRemote.json", "ref.json", "anchor.json", "anchor_more.json",
    "bignum.json", "id.json", "unknownKeyword.json",
    # optional groups shared verbatim by both drafts
    "optional_float_overflow.json", "optional_non_bmp.json",
    # uniqueItems' deep-equality semantics are identical in 2019-09
    # (validation.py:163-177 is registered unchanged in both catalogs)
    "uniqueItems.json",
    # wrapper-transparency matrix: every wrapper shape (allOf/anyOf/
    # oneOf/not-not/if-then-else/$ref) exists with identical verdict
    # semantics in 2019-09; generator verified all 500 triples against
    # the reference under 2020-12, 2019-09 AND next
    "generated_wrapper_matrix.json",
    # round-4 matrices (scripts/gen_suite_corpus_r4.py): every triple
    # cross-checked against the reference under 2020-12, 2019-09 AND
    # next at generation time; the per-draft unevaluated/items grids
    # live in their own directories and are NOT listed here
    "generated_conditional_matrix.json",
    "generated_propname_dependents.json",
    "generated_contains_grid.json",
    "generated_numeric_edges.json",
    "generated_string_patterns.json",
    "generated_enum_const_deep.json",
    "generated_object_matrix2.json",
    "generated_ref_scopes.json",
    "generated_content_annotations.json",
    "generated_composition_grid.json",
    "generated_uniqueness_grid.json",
    "generated_type_multi.json",
    "generated_length_bounds_grid.json",
    # $ref through unknown-keyword locations is dialect-independent
    # pointer resolution (the reference CatalogErrors on these —
    # suite-optional; both our engines resolve them)
    "optional_ref_of_unknown_keyword.json",
    # identifier-in-non-schema-position semantics are identical in
    # 2019-09 ($anchor/$id both exist there with the same registration
    # rules)
    "optional_anchor.json", "optional_id.json",
    # round-5 closures: unknown-keyword pass-through and default-dialect
    # binding are dialect-independent; cross-checked under all three
    # dialects at generation time (scripts/gen_suite_corpus_r5.py)
    "optional_dependencies_compatibility.json",
    "optional_no_schema.json",
    # round-5b remote-scope tail: $id/anchor/chained-document semantics
    # are identical in 2019-09 (cross-checked under all three dialects
    # at generation, scripts/gen_suite_corpus_r5b.py); the dynamic/
    # unevaluated remote file is 2020-12+next only and NOT listed here
    "refRemote_scopes.json",
}


# draft-next differs from 2020-12 only in the fragment-free $id rule
# (/root/reference/jschon/vocabulary/future.py IdKeyword_Next swapped into
# catalog/_next.py; every other keyword class is reused verbatim), and no
# corpus file uses a fragment $id — so the whole 2020-12 directory re-runs
# under the next dialect, like the official suite's per-draft duplication.
NEXT_EXCLUDE = set()


def _collect():
    params = []
    file_sets = []
    for vdir in sorted(CORPUS_DIR.iterdir()):
        if not vdir.is_dir():
            continue
        for path in sorted(vdir.glob("*.json")):
            file_sets.append((vdir.name, path, ""))
            shared = (path.name in SHARED_WITH_2019
                      or path.name.startswith("optional_format_"))
            if vdir.name == "2020-12" and shared:
                file_sets.append(("2019-09", path, "shared/"))
            if vdir.name == "2020-12" and path.name not in NEXT_EXCLUDE:
                file_sets.append(("next", path, "shared/"))
    for version, path, tag in file_sets:
            # optional/format group: runs with format assertion enabled in
            # both engines (the official suite's format-assertion config;
            # reference analogue = catalog.enable_formats,
            # catalog/__init__.py:267-279)
            fmt = path.name.startswith("optional_format_")
            with open(path) as f:
                cases = json.load(f)
            for case in cases:
                for test in case["tests"]:
                    tid = (
                        f"{version}/{tag}{path.name}::{case['description']}"
                        f"::{test['description']}"
                    )
                    st = _status(
                        version, path.name, case["description"],
                        test["description"],
                    )
                    marks = []
                    if st.get("status") == "xfail":
                        marks.append(pytest.mark.xfail(
                            reason=st.get("reason", ""), strict=False))
                    elif st.get("status") == "skip":
                        marks.append(pytest.mark.skip(
                            reason=st.get("reason", "")))
                    params.append(pytest.param(
                        version, case["schema"], test["data"],
                        test["valid"], case.get("remotes", {}), fmt,
                        id=tid, marks=marks))
    return params


_PARAMS = _collect()


def _inject_dialect(schema, version):
    """Pin the dialect like the reference harness's metaschema_uri param
    (test_suite.py:105-116): root dict schemas without $schema get the
    directory's metaschema."""
    if isinstance(schema, dict) and "$schema" not in schema:
        return {"$schema": META_URI[version], **schema}
    return schema


def _arrow_representable(value):
    """True if an object instance round-trips through the tabular model:
    no None members (None == absent in Arrow), at least one column, and
    homogeneously-typeable values."""
    if not isinstance(value, dict) or not value:
        return False
    def ok(v):
        if v is None:
            return True  # fine INSIDE lists (JSON null); caught for
                         # top-level members below
        if isinstance(v, dict):
            return bool(v) and all(m is not None and ok(m)
                                   for m in v.values())
        if isinstance(v, list):
            return all(ok(m) for m in v)
        return True
    return all(m is not None and ok(m) for m in value.values())


def _register_remotes(catalog, remotes):
    """Pre-register remote documents like the official suite's remotes/
    directory served at http://localhost:1234 (reference
    tests/test_suite.py registers a LocalSource for it)."""
    for r_uri, doc in remotes.items():
        catalog.register(doc, uri=r_uri)


@pytest.mark.parametrize("version,schema,data,valid,remotes,fmt", _PARAMS)
def test_suite_case(version, schema, data, valid, remotes, fmt):
    schema = _inject_dialect(schema, version)
    formats = all_registered() if fmt else None

    # Anonymous root schemas get a synthetic URI so '#/...' refs resolve
    # (the reference harness likewise gives every suite schema a catalog
    # identity, test_suite.py:150-162).
    uri = None
    if isinstance(schema, dict) and "$id" not in schema:
        uri = "https://suite.jschon-ray.local/case"

    # --- engine 1: per-row oracle ------------------------------------
    ev = RowEvaluator(SpecCatalog(), formats=formats)
    ev.dialect = version
    _register_remotes(ev.catalog, remotes)
    result = ev.evaluate(schema, data, uri=uri)
    assert result.passed == valid, (
        f"row oracle: expected valid={valid}, got {result.passed}")

    # --- engine 2: vectorized Arrow engine (single-row table) --------
    if not _arrow_representable(data):
        return
    try:
        table = pa.Table.from_pylist([data])
    except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError):
        return  # heterogeneous values the tabular model can't type
    try:
        case_catalog = SpecCatalog()
        _register_remotes(case_catalog, remotes)
        cs = compile_spec(schema, table.schema, uri=uri,
                          catalog=case_catalog, formats=formats)
        vvalid, vviols = cs.evaluate_table(table)
    except NotImplementedError:
        return  # engine explicitly defers this construct to the oracle
    assert bool(vvalid[0]) == valid, (
        f"vectorized: expected valid={valid}, got {bool(vvalid[0])}")
    if not valid:
        # violation rows must carry the row oracle's exact errors
        # (error values json-encoded for non-strings, like the
        # three-way parity suite's mapping)
        from jschon_ray.vspec.row_oracle import output_basic

        def enc(v):
            return v if isinstance(v, str) \
                else json.dumps(v, ensure_ascii=False)

        expected = [{**e, "error": enc(e["error"])}
                    for e in output_basic(result)["errors"]]
        assert vviols[0] == expected, (
            f"vectorized violations diverge from the row oracle\n"
            f" got: {vviols[0]}\n exp: {expected}")


def test_reference_agrees_with_corpus():
    """Third engine: the actual reference evaluator (loaded from
    /root/reference via tests/ref_oracle) must agree with every corpus
    verdict.  Bulk-run (one pytest case) because the reference is the
    oracle here, not the system under test."""
    from ref_oracle import (REFERENCE_UNAVAILABLE, evaluate_with_reference,
                            load_reference)

    handles = {v: load_reference(v) for v in ("2020-12", "2019-09", "next")}
    if any(h is None for h in handles.values()):
        pytest.skip(REFERENCE_UNAVAILABLE)

    checked = 0
    mismatches = []
    registered = {v: set() for v in handles}
    for p in _PARAMS:
        if p.marks:  # ledgered skip/xfail (suite_status.json) — a known
            continue  # deviation, not an agreement target
        version, schema, data, valid, remotes, fmt = p.values
        if fmt:
            # optional/format files assert with OUR registered validators;
            # the reference ships none of the standard string formats
            # (only the decorator registry) so it runs them annotation-only
            # and cannot agree on the invalid cases.
            continue
        schema = _inject_dialect(schema, version)
        h = handles[version]
        try:
            for r_uri, doc in remotes.items():
                if r_uri in registered[version]:
                    continue
                h["JSONSchema"](
                    doc if isinstance(doc, bool) else dict(doc),
                    catalog=h["catalog"], uri=h["URI"](r_uri),
                    metaschema_uri=h["URI"](h["meta"]))
                registered[version].add(r_uri)
            out = evaluate_with_reference(schema, data,
                                          handle=handles[version])
        except Exception:
            continue  # constructs the shimmed reference can't load
        checked += 1
        if out["valid"] != valid:
            mismatches.append(p.id)
    assert not mismatches, mismatches[:20]
    assert checked >= 2500, checked


def test_corpus_size():
    """The corpus must stay substantial — suite-style coverage, not a
    handful of smoke cases."""
    assert len(_PARAMS) >= 17000


def test_vectorized_cross_check_coverage():
    """A meaningful share of corpus instances must flow through the
    vectorized engine, not just the row oracle."""
    n = sum(1 for p in _PARAMS if _arrow_representable(p.values[2]))
    assert n >= 300, n


# --- optional/format — assertion mode ------------------------------------
# The official suite's optional/format files run with format assertion
# enabled; the repo registers json-pointer and regex validators
# (vspec/formats.py). Cases modeled on the suite's
# optional/format/{json-pointer,regex}.json.

_FORMAT_CASES = [
    ("json-pointer", "", True),
    ("json-pointer", "/foo/bar", True),
    ("json-pointer", "/foo/0", True),
    ("json-pointer", "/", True),
    ("json-pointer", "/a~1b", True),
    ("json-pointer", "/c%d", True),
    ("json-pointer", "/e^f", True),
    ("json-pointer", "/g|h", True),
    ("json-pointer", "/i\\j", True),
    ("json-pointer", "/k\"l", True),
    ("json-pointer", "/ ", True),
    ("json-pointer", "/m~0n", True),
    ("json-pointer", "/foo/-", True),
    ("json-pointer", "/~1~0~0~1~1", True),
    ("json-pointer", "/~1.1", True),
    ("json-pointer", "/~0.1", True),
    ("json-pointer", "#", False),           # URI fragment form, not a pointer
    ("json-pointer", "#/", False),
    ("json-pointer", "/~", False),          # bare tilde
    ("json-pointer", "/~2", False),         # bad escape
    ("json-pointer", "/~-1", False),
    ("json-pointer", "a/b", False),         # missing leading slash
    ("json-pointer", "0", False),
    ("json-pointer", "a", False),
    ("regex", "([abc])+\\s+$", True),
    ("regex", "^(abc]", False),             # unbalanced bracket
    ("regex", "(", False),
    ("regex", ".*", True),
    ("regex", "^a*$", True),
    # standard formats (modeled on optional/format/*.json)
    ("date", "1963-06-19", True),
    ("date", "2020-02-29", True),           # leap day
    ("date", "2021-02-29", False),          # non-leap year
    ("date", "06/19/1963", False),
    ("date", "1963-6-19", False),           # non-padded
    ("date-time", "1963-06-19T08:30:06.283185Z", True),
    ("date-time", "1963-06-19t08:30:06z", True),      # case-insensitive
    ("date-time", "1990-12-31T23:59:60Z", True),      # leap second
    ("date-time", "1990-02-31T15:59:59.123-08:00", False),  # bad day
    ("date-time", "06/19/1963 08:30:06 PST", False),
    ("date-time", "1963-06-19", False),               # date only
    ("time", "08:30:06Z", True),
    ("time", "23:59:60Z", True),                      # leap second
    ("time", "08:30:06+05:30", True),
    ("time", "24:00:00Z", False),
    ("time", "08:30:06", False),                      # missing offset
    ("duration", "P4DT12H30M5S", True),
    ("duration", "PT0.5S", True),
    ("duration", "P4W", True),
    ("duration", "PT1D", False),            # D in time part
    ("duration", "P", False),               # no elements
    ("email", "joe.bloggs@example.com", True),
    ("email", "2962", False),
    ("email", "joe bloggs@example.com", False),
    ("uuid", "2EB8AA08-AA98-11EA-B4AA-73B441D16380", True),
    ("uuid", "2eb8aa08-aa98-11ea-b4aa-73b441d16380", True),
    ("uuid", "2eb8aa08-aa98-11ea-73b441d16380", False),
    ("hostname", "www.example.com", True),
    ("hostname", "-a-host-name-that-starts-with--", False),
    ("hostname", "not_a_valid_host_name", False),
    ("ipv4", "192.168.0.1", True),
    ("ipv4", "127.0.0.0.1", False),
    ("ipv4", "256.256.256.256", False),
    ("ipv4", "087.10.0.1", False),          # leading zero
    ("ipv6", "::1", True),
    ("ipv6", "::42:ff:1", True),
    ("ipv6", "127.0.0.1", False),
    ("uri", "http://foo.bar/?baz=qux#quux", True),
    ("uri", "//foo.bar/?baz=qux#quux", False),        # relative
    ("uri", "/abc", False),
]


@pytest.mark.parametrize("fmt,data,valid", _FORMAT_CASES,
                         ids=[f"{f}:{d!r}" for f, d, _ in _FORMAT_CASES])
def test_format_assertion_cases(fmt, data, valid):
    from jschon_ray.vspec.formats import enabled_formats

    formats = enabled_formats(fmt)
    schema = {"$schema": META_URI["2020-12"], "format": fmt}
    ev = RowEvaluator(SpecCatalog(), formats)
    assert ev.evaluate(schema, data,
                       uri="https://suite.jschon-ray.local/fmt").passed \
        == valid

    # non-strings are never format-failed
    ev2 = RowEvaluator(SpecCatalog(), formats)
    assert ev2.evaluate(dict(schema), 12,
                        uri="https://suite.jschon-ray.local/fmt2").passed


def test_format_annotation_mode_never_fails():
    # without the registry, the same bad values pass (annotation-only)
    ev = RowEvaluator(SpecCatalog())
    for fmt, data, valid in _FORMAT_CASES:
        if not valid:
            assert ev.evaluate({"format": fmt}, data).passed


def test_output_basic_byte_parity_with_reference():
    """Beyond the valid flag: the row oracle's output('basic') must be
    BYTE-IDENTICAL to the reference evaluator's over the whole corpus
    (error strings, keyword/instance/absolute locations, ordering) —
    the conformance-scale extension of tests/test_reference_parity.py's
    golden corpus."""
    from ref_oracle import (REFERENCE_UNAVAILABLE, evaluate_with_reference,
                            load_reference)
    from jschon_ray.vspec.row_oracle import output_basic

    handles = {v: load_reference(v) for v in ("2020-12", "2019-09")}
    if any(h is None for h in handles.values()):
        pytest.skip(REFERENCE_UNAVAILABLE)

    n = match = skip = 0
    mismatches = []
    registered = {v: set() for v in handles}
    for p in _PARAMS:
        version, schema, data, valid, remotes, fmt = p.values
        if version not in handles or fmt:
            # format-assertion files use OUR validators; the reference
            # runs them annotation-only (no byte-parity target there)
            continue
        schema = _inject_dialect(schema, version)
        n += 1
        if isinstance(schema, dict) and "$id" not in schema:
            schema = {**schema,
                      "$id": f"https://parity.jschon-ray.local/{n}"}
        h = handles[version]
        try:
            for r_uri, doc in remotes.items():
                if r_uri in registered[version]:
                    continue
                h["JSONSchema"](
                    doc if isinstance(doc, bool) else dict(doc),
                    catalog=h["catalog"], uri=h["URI"](r_uri),
                    metaschema_uri=h["URI"](h["meta"]))
                registered[version].add(r_uri)
            ref_out = evaluate_with_reference(schema, data,
                                              handle=handles[version])
        except Exception:
            skip += 1  # constructs the shimmed reference can't load
            continue
        ev = RowEvaluator(SpecCatalog())
        ev.dialect = version
        _register_remotes(ev.catalog, remotes)
        ours = output_basic(ev.evaluate(
            dict(schema) if isinstance(schema, dict) else schema, data))
        if ours == ref_out:
            match += 1
        else:
            mismatches.append(p.id)
    assert not mismatches, mismatches[:10]
    assert match >= 1200, (match, skip)
