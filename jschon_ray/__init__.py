"""jschon_ray — a Ray-Data-native constraint-validation engine.

A from-scratch re-expression of the semantics of jschon
(marksparkza/jschon, the reference evaluator at /root/reference) as
vectorized Arrow-batch predicates running in Ray Data pipelines, plus the
dataset-scale capabilities a 10^12-row audio+transcript table needs
(uniqueness via shuffle, referential semi-joins, mergeable sketches,
distribution-drift tests, checkpoint/resume, dedup, similarity search).

Layout:
  vspec/      declarative validation specs (jschon-keyword-shaped) compiled
              into vectorized per-column Arrow checks; per-row Python oracle
              for parity (reference semantics: jschon/jsonschema.py:191-220)
  sources/    table IO seam (parquet now, lance-ready) + synthetic clip table
  stages/     map_batches stage callables (validators, decoders, text, dedup)
  state/      mergeable sketches (t-digest, HLL, count-min), profiles, drift,
              partition manifests for checkpoint/resume
  pipelines/  end-to-end Dataset pipelines and the driver query registry

Only `runtime.session()` starts Ray, and only entry points call it: the
CLI, jobs/, bench.py, scripts/, examples/ and the test fixture. Library
code never starts or stops Ray, and `import jschon_ray` does not import
`runtime`.
"""

__version__ = "0.1.0"

__all__ = [
    "SpecCatalog", "LocalSource", "compile_spec", "validate",
    "validate_dataset", "register_for_pickle_by_value",
]


def __getattr__(name):
    # lazy re-exports of the primary entry points (keeps bare import cheap)
    if name in ("SpecCatalog", "LocalSource"):
        from .vspec import catalog
        return getattr(catalog, name)
    if name == "compile_spec":
        from .vspec.evaluator import compile_spec
        return compile_spec
    if name == "validate_dataset":
        from .pipelines.validate import validate_dataset
        return validate_dataset
    raise AttributeError(name)


def validate(spec, instance, *, format: str = "basic", catalog=None,
             formats=None):
    """Evaluate one instance against a declarative spec — the analogue of
    the reference's ``schema.evaluate(JSON(x)).output(format)`` one-liner
    (/root/reference/jschon/jsonschema.py:191-220, output.py). For
    datasets, use :func:`validate_dataset` / the pipelines instead."""
    from .vspec.catalog import SpecCatalog
    from .vspec.output import create_output
    from .vspec.row_oracle import RowEvaluator

    ev = RowEvaluator(catalog or SpecCatalog(), formats)
    return create_output(ev.evaluate(spec, instance), format)


def register_for_pickle_by_value() -> None:
    """Ship jschon_ray code to Ray workers by value (cloudpickle).

    On a real cluster the package is installed on every node; in ad-hoc
    sessions (driver-run entrypoints, notebooks) workers may not have the
    repo on sys.path. Registering the package's modules for by-value
    pickling makes map_batches callables self-contained — the compiled
    plans they carry are small, so the overhead is negligible.
    """
    import sys

    from ray import cloudpickle

    for name, mod in list(sys.modules.items()):
        if name == __name__ or name.startswith(__name__ + "."):
            try:
                cloudpickle.register_pickle_by_value(mod)
            except Exception:
                pass
