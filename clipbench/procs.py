"""Process hygiene and the host block.

Every Ray process a session starts (gcs_server, raylet, agents, workers,
``ray::`` actors) inherits the driver's environment, so the session marks
it with a unique environment variable and finds its processes by that mark
in ``/proc`` — including workers whose command line Ray has rewritten.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import time

MARK = "CLIPBENCH_SESSION"


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def marked(token: str | None) -> dict[int, str]:
    """{pid: command line} of live processes carrying ``MARK=token``
    (any token when ``token`` is None)."""
    needle = f"{MARK}={token or ''}".encode()
    found = {}
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                env = f.read()
        except OSError:
            continue  # exited, or a zombie whose environ is gone
        if any(e == needle or (token is None and e.startswith(needle))
               for e in env.split(b"\0")):
            found[int(name)] = _cmdline(int(name))
    return found


def _reap() -> None:
    """Collect exited children so they do not linger as zombies."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def await_exit(token: str, grace_s: float = 15.0) -> dict[int, str]:
    """Wait for the session's processes to end; kill what outlives the
    grace period. Returns the processes that had to be killed."""
    deadline = time.monotonic() + grace_s
    while True:
        _reap()
        alive = marked(token)
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.2)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    end = time.monotonic() + 5.0
    while marked(token) and time.monotonic() < end:
        _reap()
        time.sleep(0.1)
    _reap()
    return alive


def _run(cmd: list[str], cwd: str) -> str | None:
    try:
        return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def host_block(root: str) -> dict:
    """Where the numbers come from: CPUs, RAM, versions, code revision."""
    import duckdb
    import numpy
    import pyarrow
    import ray

    with open("/proc/meminfo") as f:
        mem_kb = int(f.readline().split()[1])
    sha = _run(["git", "rev-parse", "HEAD"], root)
    dirty = _run(["git", "status", "--porcelain"], root) if sha else None
    omp = os.environ.get("OMP_NUM_THREADS")
    return {
        "cpus_affinity": len(os.sched_getaffinity(0)),
        "nproc": _run(["nproc"], root),
        "nproc_note": (f"nproc honours OMP_NUM_THREADS={omp}; Ray is sized "
                       "by CPU affinity instead") if omp else None,
        "ram_gb": round(mem_kb / 2**20, 1),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "ray": ray.__version__, "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__, "duckdb": duckdb.__version__,
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(dirty),
    }


def peak_rss_reset() -> None:
    """Restart the kernel's peak-RSS counter for this process."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def cpu_times() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(since: list[int]) -> float:
    """Share of CPU time the hypervisor gave to others since ``since``."""
    d = [b - a for a, b in zip(since, cpu_times())]
    return d[7] / max(1, sum(d))
