"""The one Ray session set-up for every entry point.

Library code never starts Ray; entry points (the CLI, the job script,
bench, scripts, examples, the test fixture) wrap their work in
``with session(num_cpus): ...``. Not imported by ``import jschon_ray``.
"""

from __future__ import annotations

import contextlib
import logging
import os


@contextlib.contextmanager
def session(num_cpus: int | None = None):
    """Run the body inside a configured Ray session.

    * Ray already up: reuse it and leave it running afterwards.
    * ``RAY_ADDRESS`` names a cluster (e.g. under ``ray job submit``):
      attach with a plain ``ray.init()``; ``num_cpus`` is ignored.
    * Otherwise start local Ray with ``num_cpus`` CPUs (default: this
      process's schedulable CPUs, so a ``taskset`` pin sizes the session)
      and a worker set-up hook that tunes each worker's allocator
      (``state/allocator.py``) before its first task.

    In every case progress bars (and their name truncation) are off, Ray
    Data's per-execution INFO lines are silenced (its warnings still
    show), the known-harmless empty-bundle schema warning is filtered
    (``state/raylog.py``) and ``jschon_ray`` modules pickle by value.
    Only a session started here is shut down.
    """
    import ray
    import ray.data

    from . import register_for_pickle_by_value
    from .state.allocator import tune_worker_allocator
    from .state.raylog import quiet_empty_schema_warnings

    # before ray.init: the set-up hook is pickled there, and by value it
    # unpickles in workers that cannot import this package yet
    register_for_pickle_by_value()
    quiet_empty_schema_warnings()
    started = not ray.is_initialized()
    if started:
        if os.environ.get("RAY_ADDRESS", "local") != "local":
            ray.init()
        else:
            ray.init(address="local",
                     num_cpus=num_cpus or len(os.sched_getaffinity(0)),
                     include_dashboard=False, logging_level="ERROR",
                     runtime_env={
                         "worker_process_setup_hook": tune_worker_allocator})
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_progress_bar_name_truncation = False  # warns with bars off
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    try:
        yield
    finally:
        if started:
            ray.shutdown()
