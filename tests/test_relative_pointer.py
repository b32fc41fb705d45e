"""Relative JSON Pointer vs the draft's own examples
(tests/data/relative_jsonpointer_examples.json, see tests/data/PROVENANCE.md)
and, where a reference checkout is present, the reference's spec-derived
corpus (/root/reference/tests/data/relative_jsonpointer.json, consumed by
the reference's tests/test_jsonpointer.py)."""

import json
import os

import pytest

from jschon_ray.vspec.pointer import RelativeJSONPointer, RelativePointerError
from ref_oracle import REFERENCE_UNAVAILABLE

EXAMPLES = os.path.join(os.path.dirname(__file__), "data",
                        "relative_jsonpointer_examples.json")
CORPUS = "/root/reference/tests/data/relative_jsonpointer.json"


def load_cases(path):
    if not os.path.exists(path):
        return []
    with open(path) as f:
        groups = json.load(f)
    cases = []
    for g in groups:
        for t in g["tests"]:
            cases.append((g["data"], t["start"], t["ref"], t["result"]))
    return cases


EXAMPLE_CASES = load_cases(EXAMPLES)
CASES = load_cases(CORPUS)


def check_case(data, start, ref, result):
    if result == "<fail>":
        with pytest.raises(RelativePointerError):
            RelativeJSONPointer(ref).evaluate(data, start)
        return
    got = RelativeJSONPointer(ref).evaluate(data, start)
    expected = data if result == "<data>" else result
    assert got == expected, f"{start=} {ref=}"


@pytest.mark.parametrize("case", EXAMPLE_CASES,
                         ids=lambda c: f"{c[1]}:{c[2]}")
def test_relative_pointer_draft_examples(case):
    data, start, ref, result = case
    got = RelativeJSONPointer(ref).evaluate(data, start)
    assert got == result and type(got) is type(result)


def test_draft_examples_cover_both_starts_and_forms():
    assert len(EXAMPLE_CASES) == 12
    assert {c[1] for c in EXAMPLE_CASES} == {"/foo/1", "/highly/nested"}
    refs = [c[2] for c in EXAMPLE_CASES]
    assert "0-1" in refs and "0-1#" in refs
    assert sum(r.endswith("#") for r in refs) == 5


@pytest.mark.skipif(not CASES, reason=REFERENCE_UNAVAILABLE)
@pytest.mark.parametrize("case_idx", range(len(CASES)) or [0])
def test_relative_pointer_corpus(case_idx):
    check_case(*CASES[case_idx])


def test_parse_and_str_roundtrip():
    for s in ["0", "1/0", "2/highly/nested/objects", "0#", "1#", "0-1#",
              "2+3/foo", "5/a~1b/c~0d"]:
        assert str(RelativeJSONPointer(s)) == s
    for bad in ["", "#", "-1", "01", "1+0", "a/b", "1 /x"]:
        with pytest.raises(RelativePointerError):
            RelativeJSONPointer(bad)
