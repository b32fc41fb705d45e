"""Tokenizer learning end-to-end: distributed BPE merge training over a
tiny corpus, then applying the learned merges to segment a held-out
word — the tokenizer-building pipeline in miniature.

Mirrors the reference's golden-output example pattern
(/root/reference/tests/test_examples.py:9-28). The trainer touches the
corpus ONCE (word-frequency Dataset); every merge round runs over the
vocabulary table only (functions/text.py bpe_train).
"""

import ray.data

from jschon_ray.functions.text import bpe_train
from jschon_ray.runtime import session

CORPUS = [
    "low low low low low",
    "lower lower newest newest newest",
    "newest newest newest widest",
    "widest widest lowest lowest",
]


def segment(word: str, table) -> list:
    syms = list(word) + ["▁"]
    for left, right in zip(table["left"], table["right"]):
        i, out = 0, []
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                out.append(left + right)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return syms


def main():
    ds = ray.data.from_items([{"text": t} for t in CORPUS],
                             override_num_blocks=2)
    merges = bpe_train(ds, n_merges=8)
    print("learned merges:")
    for row in merges.itertuples(index=False):
        print(f"  {row.rank:2d}. {row.left!r} + {row.right!r}"
              f"  (count {row.pair_count})")

    print("segment('lowest') ->", segment("lowest", merges))
    print("segment('newer')  ->", segment("newer", merges))


if __name__ == "__main__":
    with session():
        main()
