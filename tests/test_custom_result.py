"""Per-subtree custom Result class — the analogue of the reference's
``Result.__call__(..., cls=...)`` hook (/root/reference/jschon/
jsonschema.py:400-430: "applied to all nodes within the yielded
subtree"). Covers: class propagation inside the subtree, scoping
(nodes outside stay on the tree's class), verdict invariance (a custom
class changes representation, never semantics), and the root-level
``result_class`` analogue of JSONSchema.evaluate."""

import pytest

from jschon_ray.vspec.catalog import SpecCatalog
from jschon_ray.vspec.extensions import register_keyword, unregister_keyword
from jschon_ray.vspec.row_oracle import RNode, RowEvaluator


class MarkNode(RNode):
    __slots__ = ()


SPEC = {
    "$id": "https://test.example/custom-result",
    "type": "object",
    "properties": {"name": {"type": "string"}},
    "markOf": {
        "properties": {"meta": {"required": ["tag"],
                                "properties": {"tag": {"minLength": 2}}}},
    },
}

INSTANCES = [
    {"name": "ok", "meta": {"tag": "ab"}},
    {"name": "ok", "meta": {"tag": "x"}},
    {"name": 3},
    {"meta": {}},
]


@pytest.fixture()
def mark_keyword():
    def row_eval(ctx):
        sub = ctx.descend(ctx.kval, key="markOf", cls=MarkNode)
        if not sub.passed:
            ctx.node.fail("The instance is invalid against the marked "
                          "subschema")

    register_keyword("markOf", row_eval=row_eval)
    yield
    unregister_keyword("markOf")


def _walk(node):
    yield node
    for c in node.children.values():
        yield from _walk(c)


def test_subtree_nodes_use_custom_class(mark_keyword):
    ev = RowEvaluator(SpecCatalog())
    root = ev.evaluate(SPEC, INSTANCES[0])
    kw_node = root.children[("markOf", "")]
    sub_root = kw_node.children[("markOf", "")]
    subtree = list(_walk(sub_root))
    assert len(subtree) >= 5
    assert all(type(n) is MarkNode for n in subtree), \
        "cls must thread to EVERY node of the yielded subtree"
    outside = [n for n in _walk(root) if n not in subtree]
    assert all(type(n) is RNode for n in outside), \
        "cls must NOT leak outside the subtree"


def test_custom_class_never_changes_verdicts(mark_keyword):
    """Representation-only contract: verdicts with the custom class
    equal (a) the same spec evaluated with plain nodes and (b) the
    subschema evaluated standalone AND'd with the rest."""
    ev = RowEvaluator(SpecCatalog())
    plain_spec = {k: v for k, v in SPEC.items() if k != "markOf"}
    plain_spec["allOf"] = [SPEC["markOf"]]
    plain_spec = {**plain_spec, "$id": "https://test.example/plain-allof"}
    for inst in INSTANCES:
        with_cls = ev.evaluate(SPEC, inst).passed
        via_allof = RowEvaluator(SpecCatalog()).evaluate(
            plain_spec, inst).passed
        assert with_cls == via_allof, inst


def test_descend_default_inherits_tree_class(mark_keyword):
    """Without cls, descend inherits the current class — including a
    custom ROOT class passed to evaluate(result_class=...), mirroring
    JSONSchema.evaluate's result type threading
    (/root/reference/jschon/jsonschema.py:191-220)."""
    def row_eval(ctx):
        sub = ctx.descend(ctx.kval, key="plainOf")
        if not sub.passed:
            ctx.node.fail("invalid against plainOf")

    register_keyword("plainOf", row_eval=row_eval)
    try:
        spec = {"$id": "https://test.example/plain-of",
                "plainOf": {"type": "object"}}

        class RootNode(RNode):
            __slots__ = ()

        ev = RowEvaluator(SpecCatalog())
        root = ev.evaluate(spec, {"a": 1}, result_class=RootNode)
        assert root.passed
        assert all(type(n) is RootNode for n in _walk(root))
    finally:
        unregister_keyword("plainOf")


def test_reference_agrees_on_marked_verdicts(mark_keyword):
    """The marked subschema's semantics are plain JSON Schema; the
    reference must agree with every verdict (the custom class is
    representation-only on BOTH sides, jsonschema.py:407)."""
    import sys

    sys.path.insert(0, "tests")
    from ref_oracle import (REFERENCE_UNAVAILABLE, evaluate_with_reference,
                            load_reference)

    if load_reference("2020-12") is None:
        pytest.skip(REFERENCE_UNAVAILABLE)
    ref_spec = {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "properties": SPEC["properties"],
        "allOf": [SPEC["markOf"]],
    }
    ev = RowEvaluator(SpecCatalog())
    for inst in INSTANCES:
        ours = ev.evaluate(SPEC, inst).passed
        ref = evaluate_with_reference(ref_spec, inst)["valid"]
        assert ours == ref, inst
