"""Benchmark of the effbc CLI: canned experiments, one fresh process per rep.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload linear-sweep --seed 0 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 44 --trace 0

A run writes the workload's config from the seed, imports ``effbc.cli``
once unmeasured (a warm-up), then runs ``effbc.cli.main`` on the config
in fresh processes, one rep after another (a closed loop with one
client), until the next rep would end past ``--seconds``; at least
MIN_REPS reps run.  Set-up is the time from a rep's process start until
``effbc.cli`` is imported.  Every rep is checked against the gates in
workloads.py.  With ``--trace 0`` the last line of output is a JSON
object with the end-to-end metrics (medians over the reps); with
``--trace 1`` one untraced rep and at least MIN_TRACED traced reps run
and the per-layer metrics of layer_metrics.py are reported instead.
``--workload all`` runs every workload and prefixes each metric with its
workload's name.  The lines before the last give each metric with its
unit, the sample count, gate failures and the machine record.

The program is imported from ``src`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy
import scipy

from layer_metrics import COUNTS, PER_LAYER, layer_metrics
from workloads import WORKLOADS, check_outputs, cli_argv, make_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)
MIN_REPS = 3
MIN_TRACED = 2
LAST_START_S = 120.0  # no rep starts later than this into the run
DEADLINE_S = 170.0  # a rep still running at this point is killed

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed rep)."""


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Session:
    """Processes and outputs of one workload run, kept under its work dir."""

    def __init__(self, workload, seed, config):
        self.config = config
        self.t_start = time.perf_counter()
        self.dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.dir)
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as f:
            json.dump(config, f)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC, HERE] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.spawns = 0
        self.attempted = 0
        self.failures = []
        self.setups = []
        self.timed_out = False

    def elapsed(self):
        return time.perf_counter() - self.t_start

    def _spawn(self, spec):
        self.spawns += 1
        spec_path = os.path.join(self.dir, f"spec{self.spawns}.json")
        spec["result"] = os.path.join(self.dir, f"result{self.spawns}.json")
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        spawned = _now()
        proc = subprocess.run(
            [sys.executable, CHILD, repr(spawned), spec_path],
            env=self.env, cwd=self.dir, capture_output=True, text=True, timeout=timeout,
        )
        if proc.returncode != 0 or not os.path.exists(spec["result"]):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return None, f"process exited with {proc.returncode}: {tail[0]}"
        with open(spec["result"], encoding="utf-8") as f:
            result = json.load(f)
        if os.path.realpath(result["effbc"]) != os.path.realpath(os.path.join(SRC, "effbc")):
            raise BenchError(f"imported effbc from {result['effbc']}, not from {SRC}")
        self.setups.append(result["setup_s"])
        return result, None

    def probe(self):
        _, error = self._spawn({"probe": True})
        if error:
            raise BenchError(f"cannot import effbc.cli: {error}")

    def rep(self, trace):
        """One CLI run.  Returns its result dict (None if the process died);
        a failed gate is recorded in ``failures``."""
        self.attempted += 1
        out_dir = os.path.join(self.dir, f"out{self.attempted}")
        spec = {"argv": cli_argv(self.config, self.config_path, out_dir), "trace": trace}
        try:
            result, error = self._spawn(spec)
        except subprocess.TimeoutExpired:
            self.timed_out = True
            result, error = None, f"rep still running {DEADLINE_S:.0f} s into the run"
        if result is not None:
            if result["error"]:
                error = result["error"].strip().splitlines()[-1]
            elif result["exit_code"] != 0:
                error = f"CLI exit code {result['exit_code']}"
            else:
                gates = check_outputs(self.config, out_dir)
                error = "; ".join(gates) if gates else None
            result["bytes_written"] = _dir_bytes(out_dir) if os.path.isdir(out_dir) else 0
        shutil.rmtree(out_dir, ignore_errors=True)
        if error:
            self.failures.append(f"rep {self.attempted}: {error}")
        return result

    def keep_going(self, done, minimum, seconds, rep_s):
        """Whether to start another rep: at least ``minimum``, then while the
        next one (taking ``rep_s``) would end within ``seconds``."""
        if self.timed_out or self.elapsed() > LAST_START_S:
            return False
        return done < minimum or self.elapsed() + rep_s <= seconds

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def _reps(session, trace, minimum, seconds):
    reps, durations = [], []
    while session.keep_going(len(reps), minimum, seconds, _median(durations)):
        started = session.elapsed()
        result = session.rep(trace)
        if result is None:
            break
        reps.append(result)
        durations.append(session.elapsed() - started)
    return reps


def end_to_end_metrics(session, seconds):
    reps = _reps(session, False, MIN_REPS, seconds)
    ok = session.attempted - len(session.failures)
    metrics = {
        "wall_s": _median([r["wall_s"] for r in reps]),
        "cpu_s": _median([r["cpu_s"] for r in reps]),
        "setup_s": _median(session.setups),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "success_ratio": ok / session.attempted,
    }
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "setup_s": list(session.setups),
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    return metrics, dict(END_TO_END), samples


def per_layer_metrics(session, seconds):
    base = session.rep(trace=False)
    traced = _reps(session, True, MIN_TRACED, seconds) if base else []
    per_rep = [layer_metrics(r["trace"], r["wall_s"], r["bytes_written"]) for r in traced]
    metrics = {}
    for name, _, _ in PER_LAYER:
        values = [m[name] for m in per_rep if name in m]
        metrics[name] = _median(values)
    walls = [r["wall_s"] for r in traced]
    metrics["trace.overhead_ratio"] = _median(walls) / base["wall_s"] if base and walls else 0.0
    differing = [n for n in COUNTS if len({m[n] for m in per_rep}) > 1]
    metrics["trace.counts_repeat"] = 1.0 if per_rep and not differing else 0.0
    if differing:
        print(f"  counts that differ between traced reps: {', '.join(differing)}")
    samples = {"trace.wall_s": walls}
    return metrics, {name: unit for name, unit, _ in PER_LAYER}, samples


def _blas_threads():
    """(library, effective thread count) of the BLAS numpy loaded."""
    info = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    name = f"{info.get('name')} {info.get('version')}"
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "blas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, None


def environment():
    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas, threads = _blas_threads()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cli_threads": 1,
    }


def run_workload(workload, seed, seconds, trace):
    session = Session(workload, seed, make_config(workload, seed))
    try:
        session.probe()  # warm-up: byte-compiles and pages in the libraries
        session.setups.clear()
        measure = per_layer_metrics if trace else end_to_end_metrics
        metrics, units, samples = measure(session, seconds)
    finally:
        session.close()
    print(f"workload {workload}, seed {seed}, {session.attempted} reps, "
          f"{len(session.failures)} failed, {session.elapsed():.1f} s")
    for failure in session.failures:
        print(f"  FAILED {failure}")
    for name, value in metrics.items():
        n = len(samples.get(name, []))
        extra = f"  (median of {n}: min {min(samples[name]):.4g}, max {max(samples[name]):.4g})" if n else ""
        print(f"  {name:<40} {value:.6g} {units[name]}{extra}")
    return {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "effbc", "cli.py")):
        print(f"error: no effbc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the cell-solve gate reads solution.csv with effbc.reports
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
