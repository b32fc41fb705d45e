#!/usr/bin/env python3
"""Clip-validation benchmark for jschon_ray: one workload per invocation.

    python3 clipbench/run.py --workload verdicts --seed 1 --seconds 15 --trace 0

Run it from the root of a source tree (the directory holding
``jschon_ray/``). It generates the workload's clips table from the seed,
computes the expected answer with DuckDB, then starts one Ray session in
this process. Set-up is Ray up, the spec compiled and the first op run
cold; steady ops then run in a closed loop with one client for
``--seconds``. Every op is checked against the oracle. At the end Ray is
shut down and every process it started must be gone.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}`` with the end-to-end metrics for ``--trace 0`` and the
per-layer metrics for ``--trace 1``. The line before it is the host block.
Failures are explained on stderr and make the exit code 1; a tree without
an importable ``jschon_ray`` exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
import uuid

T_START = time.perf_counter()

OBJECT_STORE_BYTES = 512 << 20
WATCHDOG_S = 170
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets
# about 62 characters below its temp dir
MAX_RAY_TMP = 45


def _args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """State of one invocation: its inputs, session, ops and problems."""

    def __init__(self, args, root, import_s):
        import gen
        import oracle
        import procs
        from tracing import ExecutionLog, NullTracer, ReadCalls, Tracer

        self.args, self.root, self.import_s = args, root, import_s
        self.trace = bool(args.trace)
        self.work = os.path.join(root, ".clipbench",
                                 f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.ray_tmp = os.path.join(root, ".cbray")
        if len(self.ray_tmp) > MAX_RAY_TMP:
            self.ray_tmp = tempfile.mkdtemp(prefix="cbray")
            print(f"clipbench: checkout path too long for Ray's sockets; "
                  f"Ray temp dir is {self.ray_tmp}", file=sys.stderr)
        t0 = time.perf_counter()
        self.host = procs.host_block(root)
        self.clips_dir = os.path.join(self.work, "clips")
        self.files = gen.write_clips(self.clips_dir, args.workload, args.seed)
        self.expect = oracle.expected(self.files)
        self.prep_s = time.perf_counter() - t0
        self.log = ExecutionLog()
        self.reads = ReadCalls()
        self.tracer = Tracer() if self.trace else NullTracer()
        self.null = NullTracer()
        self.workload = self._workload()
        self.session: dict = {}
        self.ops: list[dict] = []
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.probe_metrics: dict = {}

    def _workload(self):
        import workloads

        if self.args.workload == "resume":
            return workloads.Resume(self.clips_dir,
                                    self.expect["rows_per_file"],
                                    self.work, self.args.seed)
        return workloads.Flagship(self.clips_dir, self.expect["n"],
                                  decode=self.args.workload == "decode")

    def install(self) -> None:
        self.log.install()
        if self.trace:
            self.reads.install()

    def uninstall(self) -> None:
        self.log.uninstall()
        self.reads.uninstall()

    # ---- ops ------------------------------------------------------------

    def _check(self, label, out, execs) -> None:
        from tracing import READ
        from workloads import SUMMARY_KEYS

        keys = SUMMARY_KEYS + (("n_decode_ok",)
                               if self.args.workload == "decode" else ())
        want = {k: self.expect[k] for k in keys}
        want.update(out.expect_extra)
        for k, v in want.items():
            if out.answer.get(k) != v:
                self.problems.append(
                    f"oracle mismatch in {label}: {k}={out.answer.get(k)} "
                    f"expected {v}")
        if not any(e.has(READ) for e in execs):
            self.problems.append(
                f"{label} ran no Ray Data {READ} operator, so its scan "
                "bytes are unknown")

    def run_op(self, k: int, first: bool, traced: bool):
        from tracing import READ

        label = "first op" if first else f"op {k}"
        tracer = self.tracer if traced else self.null
        n_reads = len(self.reads.calls)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op", k=k, first=first):
                out = self.workload.first(tracer) if first \
                    else self.workload.op(tracer, k)
        except Exception:
            self.failed += 1
            self.problems.append(f"{label} failed:\n{traceback.format_exc()}")
            return None
        execs = self.log.between(t0, time.perf_counter())
        self._check(label, out, execs)
        rec = {"first": first, "traced": traced, "wall": out.wall,
               "clips": out.clips, "out": out, "execs": execs,
               "read_calls": self.reads.calls[n_reads:],
               "scan_bytes": sum(e.op_sum(READ, "bytes") for e in execs)}
        self.ops.append(rec)
        return rec

    # ---- the session ----------------------------------------------------

    def run_session(self, window_s: float) -> None:
        import ray
        import ray.data
        from ray import cloudpickle

        import jschon_ray
        import probes
        import procs
        import workloads
        from jschon_ray.pipelines.specs import CLIP_SPEC
        from jschon_ray.vspec.catalog import SpecCatalog
        from jschon_ray.vspec.evaluator import compile_spec

        token = uuid.uuid4().hex
        os.environ[procs.MARK] = token
        info = self.session
        try:
            t0 = time.perf_counter()
            ray.init(address="local",
                     num_cpus=len(os.sched_getaffinity(0)),
                     include_dashboard=False, logging_level="ERROR",
                     log_to_driver=False, _temp_dir=self.ray_tmp,
                     object_store_memory=OBJECT_STORE_BYTES)
            info["init_s"] = time.perf_counter() - t0
            info["log_dir"] = os.path.join(
                ray._private.worker._global_node.get_session_dir_path(),
                "logs")
            ray.data.DataContext.get_current().enable_progress_bars = False
            jschon_ray.register_for_pickle_by_value()
            cloudpickle.register_pickle_by_value(workloads)
            cloudpickle.register_pickle_by_value(probes)
            compile_spec(CLIP_SPEC, self._schema(), catalog=SpecCatalog())
            if self.run_op(0, first=True, traced=False) is None:
                return
            info["setup_s"] = self.import_s + time.perf_counter() - t0
            deadline = time.perf_counter() + window_s
            k, failures = 0, 0
            while True:
                k += 1
                rec = self.run_op(k, first=False,
                                  traced=self.trace and k % 2 == 0)
                failures = 0 if rec else failures + 1
                if failures >= 3:
                    break
                if time.perf_counter() >= deadline and \
                        (not self.trace or k >= 2):
                    break
            if self.trace:
                self.probe_metrics = self.probes()
        except Exception:
            self.problems.append(f"session failed:\n{traceback.format_exc()}")
        finally:
            t_down = time.perf_counter()
            try:
                ray.shutdown()
                info["shutdown_s"] = time.perf_counter() - t_down
            except Exception:
                self.problems.append(
                    f"ray.shutdown failed:\n{traceback.format_exc()}")
            t_down = time.perf_counter()
            left = procs.await_exit(token)
            info["exit_wait_s"] = time.perf_counter() - t_down
            if left:
                self.problems.append(
                    f"the session left {len(left)} processes running "
                    "(killed): " + "; ".join(
                        f"{pid} {cmd[:120]}" for pid, cmd in left.items()))
            del os.environ[procs.MARK]

    def _schema(self):
        import pyarrow.parquet as pq

        return pq.read_schema(self.files[0]).remove_metadata()

    # ---- traced-run probes ------------------------------------------------

    def probes(self) -> dict:
        import probes
        import workloads
        from tracing import DECODE

        wl = self.args.workload
        m = probes.kernels(self.files, decode=wl == "decode")
        steady = [r for r in self.ops if not r["first"]]
        m.update(probes.sources(self.files, steady[-1]["read_calls"],
                                self.work))
        if wl != "decode":
            t0 = time.perf_counter()
            probes.decode_job(self.files)
            m["ray.decode.udf_s"] = sum(
                e.op_sum(DECODE, "udf")
                for e in self.log.between(t0, time.perf_counter()))
        if wl == "resume":
            m.update(probes.resume_merge_and_pending(
                self.workload.run_dir, self.clips_dir))
        else:
            sub = os.path.join(self.work, "probe_clips")
            os.makedirs(sub)
            rows = {}
            for f in self.files[:2]:
                os.link(f, os.path.join(sub, os.path.basename(f)))
                rows[os.path.join(sub, os.path.basename(f))] = \
                    self.expect["rows_per_file"][f]
            res = workloads.Resume(sub, rows, os.path.join(self.work, "probe"),
                                   self.args.seed)
            out = res.first(self.null)
            m["pipelines.resume_shard_s"] = statistics.median(out.shard_gaps)
            m["sources.write_bytes_per_clip"] = out.written_bytes / out.clips
            m.update(probes.resume_merge_and_pending(res.run_dir, sub))
        return m

    # ---- metrics --------------------------------------------------------

    def end_to_end(self) -> dict:
        import procs

        steady = [r for r in self.ops if not r["first"] and not r["traced"]]
        return {
            "setup_s": self.session["setup_s"],
            "clips_per_s": sum(r["clips"] for r in steady)
            / sum(r["wall"] for r in steady),
            "job_s": statistics.median(r["wall"] for r in steady),
            "scan_bytes_per_clip": statistics.median(
                r["scan_bytes"] / r["clips"] for r in steady),
            "driver_peak_rss_mb": procs.peak_rss_mb(),
        }

    def per_layer(self) -> dict:
        from tracing import DECODE, READ, REFERENTIAL, VALIDATE, is_shuffle

        untraced = [r["wall"] for r in self.ops
                    if not r["first"] and not r["traced"]]
        traced = [r for r in self.ops if r["traced"]]
        first = next(r["wall"] for r in self.ops if r["first"])
        job_s = statistics.median(untraced)
        m = {
            "ray.init_s": self.session["init_s"],
            "ray.warm_s": first - job_s,
            "bench.trace_overhead_s":
                statistics.median(r["wall"] for r in traced) - job_s,
        }

        per_op: dict[str, list] = {}
        for r in traced:
            ex = r["execs"]
            val = [e for e in ex if e.has(VALIDATE)]
            vals = {
                "ray.validate.udf_s": sum(e.op_sum(VALIDATE, "udf")
                                          for e in val),
                "ray.validate.overhead_s": sum(
                    o["wall"] - o["udf"] for e in val for o in e.ops
                    if VALIDATE in o["name"] or READ in o["name"]),
                "ray.read.wall_s": sum(e.op_sum(READ, "wall") for e in ex),
                "ray.read.bytes_out": r["scan_bytes"],
                "ray.shuffle.wall_s": sum(o["wall"] for e in ex
                                          for o in e.ops if is_shuffle(o)),
                "pipelines.verdicts_s": sum(
                    e.wall for e in val
                    if not any(map(is_shuffle, e.ops))),
                "pipelines.uniqueness_s": sum(
                    e.wall for e in ex if any(map(is_shuffle, e.ops))),
                "pipelines.referential_s": sum(
                    e.wall for e in ex if e.has(REFERENTIAL)),
                "ray.jobs_per_op": float(len(ex)),
                "driver.collect_s": r["wall"] - sum(e.wall for e in ex),
            }
            if any(e.has(DECODE) for e in ex):
                vals["ray.decode.udf_s"] = sum(e.op_sum(DECODE, "udf")
                                               for e in ex)
            if self.args.workload == "resume":
                out = r["out"]
                vals["sources.write_bytes_per_clip"] = \
                    out.written_bytes / out.clips
            for k, v in vals.items():
                per_op.setdefault(k, []).append(v)
            if self.args.workload == "resume":
                per_op.setdefault("pipelines.resume_shard_s", []).extend(
                    r["out"].shard_gaps)
        m.update({k: statistics.median(v) for k, v in per_op.items()})
        m["ray.spilled_bytes"] = float(max(
            e.spilled for r in traced for e in r["execs"]))
        for k, v in self.probe_metrics.items():
            m.setdefault(k, v)
        return m

    def shares(self) -> str:
        """Median share of a traced op's wall spent in Ray executions,
        grouped by each execution's last operator; the rest is the
        driver's."""
        per_op = []
        for r in self.ops:
            if r["traced"]:
                walls = {"driver": r["wall"]}
                for e in r["execs"]:
                    name = e.ops[-1]["name"]
                    walls[name] = walls.get(name, 0.0) + e.wall
                    walls["driver"] -= e.wall
                per_op.append({k: w / r["wall"] for k, w in walls.items()})
        names = dict.fromkeys(k for shares in per_op for k in shares)
        return ", ".join(
            f"{k} {statistics.median(s.get(k, 0.0) for s in per_op):.0%}"
            for k in names)

    def result(self, names: dict) -> dict:
        values = {}
        try:
            values = self.per_layer() if self.trace else self.end_to_end()
        except (statistics.StatisticsError, ZeroDivisionError, KeyError,
                ValueError, StopIteration):
            self.problems.append(
                f"metrics could not be computed:\n{traceback.format_exc()}")
        out = {}
        for name, unit in names.items():
            v = values.get(name)
            if v is None or not math.isfinite(v):
                self.problems.append(f"metric {name} missing")
                continue
            out[name] = {"value": float(v), "unit": unit}
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": out}

    def report_failure(self) -> None:
        for p in self.problems:
            print(f"clipbench: FAIL: {p}", file=sys.stderr)
        for name in ("raylet.out", "gcs_server.out"):
            path = os.path.join(self.session.get("log_dir", ""), name)
            if os.path.exists(path):
                with open(path, errors="replace") as f:
                    tail = f.readlines()[-15:]
                print(f"clipbench: tail of {name}:\n" + "".join(tail),
                      file=sys.stderr)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        if "log_dir" in self.session:
            shutil.rmtree(os.path.dirname(self.session["log_dir"]),
                          ignore_errors=True)
        if not self.ray_tmp.startswith(self.root):
            shutil.rmtree(self.ray_tmp, ignore_errors=True)


class Stop(BaseException):
    """The watchdog fired or the run was terminated. A BaseException, so
    no op-level handler swallows it; ``finally`` blocks still stop Ray."""


def _stop(signum, frame):
    raise Stop(f"stopped by signal {signal.Signals(signum).name} "
               f"(the watchdog fires after {WATCHDOG_S} s)")


def main(argv=None) -> int:
    import metrics

    spec = metrics.load()
    args = _args(argv, spec["workloads"])
    root = os.getcwd()
    sys.path.insert(1, root)  # after this directory: its modules win
    try:
        import ray
        import ray.data

        import jschon_ray.pipelines.resumable  # noqa: F401
        import jschon_ray.pipelines.validate  # noqa: F401
        from jschon_ray.state.raylog import quiet_empty_schema_warnings
    except ImportError as e:
        print(f"clipbench: cannot import jschon_ray from {root}: {e}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    quiet_empty_schema_warnings()

    import procs

    steal0 = procs.cpu_times()
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(WATCHDOG_S)
    run = None
    try:
        run = Run(args, root, import_s)
        run.install()
        procs.peak_rss_reset()
        run.run_session(args.seconds)
        result = run.result(spec["per_layer"] if run.trace
                            else spec["end_to_end"])
        if run.trace:
            run.tracer.dump(os.path.join(
                root, ".clipbench",
                f"trace-{args.workload}-{args.seed}.jsonl"),
                run.log.executions)
        if run.problems:
            run.report_failure()
    except (Exception, Stop):
        print(f"clipbench: FAIL:\n{traceback.format_exc()}", file=sys.stderr)
        if run is not None:
            run.report_failure()
        return 1
    finally:
        signal.alarm(0)
        if ray.is_initialized():
            ray.shutdown()
        if run is not None:
            run.uninstall()
            run.cleanup()

    steady = [r for r in run.ops if not r["first"]]
    print("clipbench: op walls (s): " + " ".join(
        f"{'F' if r['first'] else 'T' if r['traced'] else ''}{r['wall']:.2f}"
        for r in run.ops), file=sys.stderr)
    print("clipbench: session: " + ", ".join(
        f"{k} {v:.2f}" for k, v in run.session.items()
        if isinstance(v, float))
        + f"; prepared inputs in {run.prep_s:.2f} s", file=sys.stderr)
    if run.trace:
        print(f"clipbench: share of a traced op by execution: "
              f"{run.shares()}", file=sys.stderr)
    print(f"clipbench: {args.workload} seed {args.seed}: "
          f"{len(steady)} steady ops ({sum(r['traced'] for r in steady)} "
          f"traced), {run.attempted} attempted, {run.failed} failed, "
          f"{time.perf_counter() - T_START:.1f} s wall, "
          f"{procs.steal_share(steal0):.0%} CPU steal", file=sys.stderr)
    print(json.dumps({"host": run.host}))
    print(json.dumps(result))
    return 1 if run.problems else 0


if __name__ == "__main__":
    sys.exit(main())
