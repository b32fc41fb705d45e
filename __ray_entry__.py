"""Driver contract for the graft builder (Ray Data target).

Ray is up before this module is imported; nothing here (or in
jschon_ray outside runtime.py) starts or stops Ray.

- entry(): flagship clip-validation pipeline over a deterministic clips
  table derived from sf0.001 scale — returns the verdict summary plus the
  per-keyword violation counts as one small DataFrame.
- queries()/oracle_sql(): one entry per operator family from SURVEY.md §2
  (see jschon_ray/pipelines/queries.py for the registry + determinism notes).
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jschon_ray  # noqa: E402

# workers may not have this repo on sys.path (driver-owned session):
# ship our code by value with the compiled plans
jschon_ray.register_for_pickle_by_value()


def entry() -> Any:
    """Flagship pipeline on sf0.001-scale clips; driver checks rows>=0."""
    from jschon_ray.pipelines.queries import q_clips_validation

    return q_clips_validation("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from jschon_ray.pipelines.queries import build_queries

    return build_queries()


def oracle_sql() -> dict[str, str]:
    from jschon_ray.pipelines.queries import build_oracles

    return build_oracles()
