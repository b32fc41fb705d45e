"""Audio query-by-example retrieval end-to-end: constellation landmarks
-> broadcast query probe -> offset-consistency votes.

The retrieval dual of dedup_clusters.py's pair mining: the corpus
landmark table never shuffles — query landmarks broadcast once and each
scan batch probes them with a searchsorted semi-join
(jschon_ray/stages/fingerprint.py fingerprint_lookup). Mirrors the
reference's golden-output example pattern
(/root/reference/tests/test_examples.py:9-28).
"""

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from jschon_ray.runtime import session
from jschon_ray.sources.clips import generate_fp_clips
from jschon_ray.stages.fingerprint import (AudioFingerprinter,
                                           fingerprint_lookup)
from jschon_ray.stages.taskpool import stage_fn


def main():
    # a 200-clip corpus with planted duplicates (some shifted by 1-2 frames
    # of leading silence — the offset vote must still line up)
    table, truth = generate_fp_clips(200, seed=5)
    table = table.select(["clip_id", "bytes", "codec"])
    print(f"corpus: {table.num_rows} clips, "
          f"{len(truth)} planted duplicate pairs")

    # query: the first planted copy (it has a known partner in the corpus)
    query_id = truth[0][1]
    partner = truth[0][0]
    print(f"query clip: {query_id}  (planted partner: {partner})")

    fp = AudioFingerprinter()
    mask = pc.is_in(table["clip_id"],
                    value_set=pa.array([query_id], pa.string()))
    query_landmarks = fp(table.filter(mask))
    print(f"query landmarks: {query_landmarks.num_rows}")

    corpus = ray.data.from_arrow(table).map_batches(
        stage_fn(AudioFingerprinter), batch_format="pyarrow")
    hits = fingerprint_lookup(corpus, query_landmarks,
                              min_matches=40).to_pandas()
    hits = hits.sort_values(["query_id", "clip_id"]).reset_index(drop=True)

    for r in hits.itertuples():
        tag = "self" if r.clip_id == r.query_id else "match"
        print(f"{tag}: {r.clip_id}  matches={r.matches}  frame_offset={r.dt}")

    retrieved = set(hits.clip_id) - {query_id}
    print(f"retrieved partner correctly: {retrieved == {partner}}")


if __name__ == "__main__":
    with session():
        main()
