"""Per-process glibc allocator tuning for allocation-heavy batch stages.

numpy serves every allocation above glibc's mmap threshold (128 KiB) with
a fresh ``mmap`` and returns it with ``munmap`` on free. A decode / FFT
batch stage therefore re-faults its whole working set on EVERY batch:
each task allocates tens of MB of fresh pages, touches them once, and
gives them straight back to the kernel. Under parallel load those faults
serialize on kernel-side locks (mmap_lock, zone locks) — measured on
this host: fresh-page touch throughput collapses from ~6 GB/s at 1
process to 0.01–2 GB/s per process at 32, while WARM buffers stream at
~10 GB/s/proc. The fix is standard glibc tuning (public ``mallopt(3)``
knobs): disable mmap for large allocations (``M_MMAP_MAX=0``) and stop
trimming the heap (``M_TRIM_THRESHOLD`` high), so freed blocks are
reused from the process heap and pages fault once per worker lifetime
— measured 50–100x on the fault path, ~3x end-to-end on the audio
feature stage at 32 CPUs.

Memory posture: each worker process retains roughly its PEAK live batch
footprint (the block it is handed plus one piece's kernel working set,
bounded by the stage's piece rows x row payload, stages/taskpool.py —
the same bound the stage already needs to run) instead of returning it
between batches. With audio blocks and pieces that is tens to a few
hundred MB per worker — an explicit, bounded trade for not hitting the
kernel page allocator in the hot loop.

Set ``JSCHON_RAY_NO_MALLOPT=1`` to disable (e.g. memory-constrained
debugging). No-op on non-glibc platforms.
"""

from __future__ import annotations

import os

# (pid, applied) of the last call. Keyed by pid: a by-value pickled copy
# of this function (the session's worker set-up hook) carries the
# driver's state into a worker, and a forked child inherits its parent's.
_tuned: tuple[int, bool] | None = None


def tune_worker_allocator() -> bool:
    """Idempotent per-process mallopt tuning; returns True if applied."""
    global _tuned
    pid = os.getpid()
    if _tuned is None or _tuned[0] != pid:
        _tuned = (pid, _mallopt())
    return _tuned[1]


def _mallopt() -> bool:
    if os.environ.get("JSCHON_RAY_NO_MALLOPT"):
        return False
    try:
        import ctypes
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
        ok1 = libc.mallopt(M_MMAP_MAX, 0)
        ok2 = libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)
        return bool(ok1 and ok2)
    except Exception:
        return False
