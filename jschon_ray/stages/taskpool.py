"""Task-pool wrappers for light-state stages.

The actor-pool recipe (callable class, ``concurrency=N``) is right when
per-worker setup is EXPENSIVE — model loads, big indexes. The audio DSP
stages hold only tiny derived state (a 512-float Hann window, a
~KB mel filterbank), and measurements showed the actor boundary itself
was the cost: an ActorPoolMapOperator cannot fuse with the upstream
read, so every payload byte takes an extra object-store hop and the
pool's transfer queue gates throughput (audio_features over 100k clips:
19-47 s as an actor pool vs 9-15 s as a task pool on the same input —
the stage's own compute is ~0.5 s).

The one piece-cutting rule: a stage's ``map_batches`` sets no
``batch_size``, and the stage cuts the whole blocks it is handed itself.
Ray does not fuse a row-count-changing upstream (the read) with a
downstream that asks for a minimum bundle of rows, so with a
``batch_size`` the read's blocks go through the object store and wait in
Ray's bundler first; without one, consecutive task-pool stages fuse with
the read into one task. ``_apply_stage`` runs every ``stage_fn`` stage
over ``in_pieces`` of ``STAGE_ROWS`` rows, which bounds the kernel's
working set. A stage class whose working set needs a different bound
says so with a ``PIECE_ROWS`` class constant, and one whose kernel
addresses a column's buffer in place names it in ``PIECE_CHUNKS_OF`` so
no piece crosses that column's chunk bounds. Every stage must give the
same rows whatever the pieces (``tests/test_stage_pieces.py``).

``stage_fn(Cls, **kwargs)`` returns a picklable plain function for
``map_batches`` whose instance is constructed ONCE PER WORKER PROCESS
and cached — the task-pool analogue of actor ``__init__`` state. Use it
for stages whose construction is cheap and deterministic; keep real
actor pools for heavy-state stages.
"""

from __future__ import annotations

import functools

import pyarrow as pa

from ..state.allocator import tune_worker_allocator

STAGE_ROWS = 256  # rows per stage kernel call, unless the class says

_PROC_CACHE: dict = {}


def _apply_stage(batch, *, _cls, _kw):
    key = (_cls, _kw)
    inst = _PROC_CACHE.get(key)
    if inst is None:
        # first touch in this worker process: pin the allocator before
        # the first big decode/FFT allocation (state/allocator.py)
        tune_worker_allocator()
        inst = _PROC_CACHE[key] = _cls(**dict(_kw))
    return in_pieces(inst, batch, getattr(_cls, "PIECE_ROWS", STAGE_ROWS),
                     chunks_of=getattr(_cls, "PIECE_CHUNKS_OF", None))


def stage_fn(cls, **kwargs):
    """A map_batches-ready function applying ``cls(**kwargs)`` with the
    instance cached per worker process. kwargs must be hashable."""
    return functools.partial(_apply_stage, _cls=cls,
                             _kw=tuple(sorted(kwargs.items())))


def in_pieces(fn, batch: pa.Table, rows: int, *, chunks_of=None) -> pa.Table:
    """``fn`` over zero-copy row slices of ``batch`` of at most ``rows``
    rows each, outputs concatenated in row order: the stage-side batching
    that lets a ``map_batches`` stage set no ``batch_size`` and still keep
    its kernel's working set bounded. With ``chunks_of``, no slice crosses
    a chunk boundary of that column, so ``fn`` sees it as one Arrow array.
    ``fn`` must give every piece the same output schema."""
    bounds = [batch.num_rows] if chunks_of is None else \
        [len(c) for c in batch[chunks_of].chunks if len(c)]
    if len(bounds) <= 1 and batch.num_rows <= rows:
        return fn(batch)
    out, start = [], 0
    for size in bounds:
        out.extend(fn(batch.slice(start + i, min(rows, size - i)))
                   for i in range(0, size, rows))
        start += size
    return pa.concat_tables(out)
