"""Near-duplicate cluster formation end-to-end: shingle similarity pairs
-> distributed connected components -> keep-one-per-cluster decision.

Mirrors the reference's golden-output example pattern
(/root/reference/tests/test_examples.py:9-28). The pair generator runs
single-process here (the library functions are plain batch callables);
the closure runs through Ray Data because label propagation is
inherently iterative-distributed.
"""

import pandas as pd
import ray.data

from jschon_ray.functions.dedup import jaccard, _word_shingles
from jschon_ray.functions.graph import connected_components
from jschon_ray.runtime import session

DOCS = {
    1: "the quick brown fox jumps over the lazy dog",
    2: "the quick brown fox jumps over the lazy cat",   # ~dup of 1
    3: "a completely different document about spark",
    4: "the quick brown fox leaps over the lazy cat",   # ~dup of 2
    5: "a completely different document about rays",    # ~dup of 3
    6: "nothing like any of the others at all here",
}


def main():
    shingles = {i: set(_word_shingles(t, 3)) for i, t in DOCS.items()}
    pairs = []
    for a in sorted(DOCS):
        for b in sorted(DOCS):
            if a < b:
                j = jaccard(shingles[a], shingles[b])
                if j >= 0.25:
                    pairs.append((a, b, j))
                    print(f"pair ({a},{b})  jaccard={j:.3f}")

    edges = ray.data.from_pandas(pd.DataFrame(
        [(a, b) for a, b, _ in pairs], columns=["id_a", "id_b"]))
    cc = connected_components(edges).to_pandas().sort_values("node")

    print("\nclusters (component = min doc id):")
    for _, row in cc.iterrows():
        keep = "KEEP" if row["node"] == row["component"] else "drop"
        print(f"  doc {row['node']} -> cluster {row['component']}  [{keep}]")

    singletons = sorted(set(DOCS) - set(cc["node"]))
    print(f"\nunpaired docs (trivially kept): {singletons}")


if __name__ == "__main__":
    with session():
        main()
