"""The query registry is derived from the ``q_*`` functions and their
``.oracle`` attributes; this pins it against the names and oracle SQL
frozen in ``tests/data/query_registry.json`` (see PROVENANCE.md), so a
renamed query or an oracle attached to the wrong query fails here."""

import hashlib
import json
import os

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "query_registry.json")


def test_registry_matches_frozen_names_and_oracles(ray_session):
    from jschon_ray.pipelines.queries import build_oracles, build_queries

    with open(FIXTURE) as f:
        want = json.load(f)
    assert sorted(build_queries()) == want["queries"]
    got = {name: hashlib.sha256(sql.encode()).hexdigest()
           for name, sql in build_oracles(want["oracles_sf_dir"]).items()}
    assert got == want["oracle_sql_sha256"]
    assert (len(want["queries"]), len(got)) == (254, 234)

