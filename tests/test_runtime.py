"""jschon_ray.runtime.session: the one place Ray is started."""

import json
import os
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


def _child_env(**extra):
    env = {k: v for k, v in os.environ.items()
           if k not in ("RAY_ADDRESS", "PYTHONPATH",
                        "JSCHON_RAY_NO_MALLOPT")}
    env.update(extra)
    return env


def test_default_cpus_follow_affinity():
    """Pinned to one CPU, a fresh session has exactly one worker slot —
    sized by sched_getaffinity, not by os.cpu_count()."""
    code = (
        "import json, os, ray\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from jschon_ray.runtime import session\n"
        "with session():\n"
        "    cpus = ray.cluster_resources()['CPU']\n"
        "print(json.dumps({'cpus': cpus,\n"
        "                  'affinity': len(os.sched_getaffinity(0)),\n"
        "                  'up_after': ray.is_initialized()}))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_child_env(PYTHONPATH=str(REPO)),
                         cwd="/tmp", timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got == {"cpus": 1.0, "affinity": 1, "up_after": False}


def test_running_session_is_reused(ray_session):
    import ray

    from jschon_ray.runtime import session

    before = ray.get_runtime_context().get_job_id()
    with session(num_cpus=1):
        assert ray.get_runtime_context().get_job_id() == before
    assert ray.is_initialized()
    assert ray.get_runtime_context().get_job_id() == before


def test_ray_init_only_in_runtime():
    hits = []
    for path in REPO.rglob("*.py"):
        rel = path.relative_to(REPO)
        if rel.parts[0] in ("clipbench", ".git"):
            continue
        if re.search(r"\bray\.init\(", path.read_text(encoding="utf-8")):
            hits.append(str(rel))
    assert hits == ["jschon_ray/runtime.py"]


_HOOK_CHILD = r"""
import ctypes, json, pickle, sys

calls = []


class _Libc:
    def mallopt(self, param, value):
        calls.append([param, value])
        return 1


ctypes.CDLL = lambda *a, **k: _Libc()
hook = pickle.loads(sys.stdin.buffer.read())
try:
    import jschon_ray  # noqa: F401
    importable = True
except ImportError:
    importable = False
print(json.dumps({"importable": importable, "ret": hook(), "calls": calls}))
"""


def _run_pickled_hook(tmp_path, **env):
    """Call the session's worker set-up hook the way a fresh worker does:
    unpickled in a process that cannot import this repo."""
    from ray import cloudpickle

    import jschon_ray
    from jschon_ray.state.allocator import tune_worker_allocator

    jschon_ray.register_for_pickle_by_value()
    out = subprocess.run([sys.executable, "-c", _HOOK_CHILD],
                         input=cloudpickle.dumps(tune_worker_allocator),
                         capture_output=True, env=_child_env(**env),
                         cwd=tmp_path, timeout=120)
    assert out.returncode == 0, out.stderr.decode()[-2000:]
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def test_worker_hook_honours_mallopt_opt_out(tmp_path):
    got = _run_pickled_hook(tmp_path, JSCHON_RAY_NO_MALLOPT="1")
    assert got == {"importable": False, "ret": False, "calls": []}


def test_worker_hook_tunes_allocator_by_default(tmp_path):
    got = _run_pickled_hook(tmp_path)
    assert got == {"importable": False, "ret": True,
                   "calls": [[-4, 0], [-1, 1 << 30]]}


def test_ray_data_info_silenced_warnings_kept(ray_session):
    """Ray Data's per-execution INFO lines are dropped; its warnings still
    reach the handlers."""
    import logging

    from jschon_ray.runtime import session

    seen = []

    class Keep(logging.Handler):
        def emit(self, record):
            seen.append(record.levelno)

    parent = logging.getLogger("ray.data")
    keep = Keep()
    parent.addHandler(keep)
    try:
        with session():
            log = logging.getLogger("ray.data.session_check")
            log.info("execution plan")
            log.warning("a real warning")
    finally:
        parent.removeHandler(keep)
    assert seen == [logging.WARNING]


def test_long_operator_name_not_truncated(ray_session):
    """Under session(), a fused operator name over Ray's 100-character
    progress-bar limit logs no truncation warning (Ray builds the bar
    name even with bars off)."""
    import logging

    import ray.data
    from ray.util import debug

    from jschon_ray.runtime import session

    # closures, so workers unpickle them by value; each name is long
    def validate_each_clip_row_in_full(t):
        return t

    def decode_each_clip_payload_in_full(t):
        return t

    def profile_each_clip_column_in_full(t):
        return t

    seen = []

    class Keep(logging.Handler):
        def emit(self, record):
            seen.append(record.getMessage())

    parent = logging.getLogger("ray.data")
    keep = Keep()
    parent.addHandler(keep)
    # the warning is logged once per process; forget an earlier one
    debug._logged.discard("ray_data_truncate_operator_name")
    try:
        with session():
            ds = ray.data.range(8, override_num_blocks=1)
            for fn in (validate_each_clip_row_in_full,
                       decode_each_clip_payload_in_full,
                       profile_each_clip_column_in_full):
                ds = ds.map_batches(fn, batch_format="pyarrow")
            assert ds.count() == 8
    finally:
        parent.removeHandler(keep)
    assert not [m for m in seen if "Truncating long operator name" in m]
