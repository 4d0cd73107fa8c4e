"""One measured process: import effbc, optionally trace, run the CLI once.

Usage: child.py <spawn time> <spec.json>

<spawn time> is the parent's CLOCK_MONOTONIC reading just before it
started this process, so setup_s covers interpreter start-up and every
import up to ``effbc.cli``.  The spec names the effbc source directory,
the CLI arguments, whether to trace, and the file the result goes to.
A spec with "probe": true stops after the import.
"""

import time

import json
import os
import sys
import traceback


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    spawned = float(sys.argv[1])
    with open(sys.argv[2], encoding="utf-8") as f:
        spec = json.load(f)
    from effbc import cli

    result = {"setup_s": _now() - spawned, "effbc": os.path.dirname(cli.__file__)}
    if not spec.get("probe"):
        result.update(_run(cli, spec))
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)


def _peak_rss_mb():
    """High-water resident set since exec.  ru_maxrss would also carry the
    size of the parent that forked this process."""
    with open("/proc/self/status", encoding="utf-8") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run(cli, spec):
    if not spec["trace"]:
        return _timed_main(cli, spec)
    from layer_metrics import EffbcTrace

    with EffbcTrace() as trace:
        out = _timed_main(cli, spec)
    out["trace"] = trace.summary()
    return out


def _timed_main(cli, spec):
    out = {"exit_code": None, "error": None}
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        out["exit_code"] = cli.main(spec["argv"])
    except Exception:  # a solver that raises past the CLI is a failed rep
        out["error"] = traceback.format_exc()
    out["wall_s"] = time.perf_counter() - wall0
    out["cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


if __name__ == "__main__":
    main()
