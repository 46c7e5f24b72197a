"""The confgauss benchmark: one workload per invocation, every metric checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up runs ``SETUPS`` times, each in a fresh worker process (import,
seeded inputs, one warm-up request); ``setup_s`` is the median.  The last
worker then runs the timed phase: whole rounds of the workload, at least
two, until ``--seconds`` have passed.  A fixed calibration kernel is timed
between requests; each latency is scaled to the speed at which that
kernel takes ``REF_CALIBRATION_S``, and a request's time is the median of
its scaled repeats.  With ``--trace 1`` the worker runs as many rounds
again with the span recorder installed, and the per-layer metrics are
reported instead of the end-to-end ones.  BLAS/OpenMP threads are pinned
to 1 in the worker's environment.

Informational JSON lines (machine, sample counts, the tail percentile) are
printed first; the last line of standard output is the result object.  The
exit code is 0 when a result was printed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify-n512", "transform-n128", "analyze-export-n128",
             "check-invariants-n128")
SETUPS = 3
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# median time of workloads.Calibration on the machine the benchmark was
# written on (Xeon, 2 vCPUs, numpy 2.4.6, one BLAS thread)
REF_CALIBRATION_S = 0.048

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "nodes_per_s": "nodes/s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _worker_env():
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args, setup_only, deadline):
    """Start one worker; return (setup seconds, ready message, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_worker_env(),
                            cwd=ROOT, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        messages = []
        setup_s = None
        for line in proc.stdout:
            if setup_s is None:
                setup_s = time.perf_counter() - t0
            messages.append(json.loads(line))
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not messages or messages[0].get("event") != "ready":
        raise BenchError(f"worker exited with code {code}")
    if setup_only:
        return setup_s, messages[0], None
    if len(messages) != 2 or messages[1].get("event") != "result":
        raise BenchError("worker sent no result")
    return setup_s, messages[0], messages[1]


def _tail(latencies):
    """Highest listed percentile (nearest rank) with >= 10 samples beyond it.

    With fewer than 40 samples no percentile above the median qualifies and
    the maximum is reported.
    """
    n = len(latencies)
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return f"p{p:g}", ordered[rank - 1]
    return "max", ordered[-1]


def scaled_latencies(rounds):
    """Each request's latency at reference speed, median over its repeats.

    A repeat's latency is multiplied by ``REF_CALIBRATION_S`` over the time
    the calibration kernel took around it; failed repeats are left out.
    """
    out = []
    for i in range(len(rounds[0])):
        ok = [rnd[i]["latency"] * REF_CALIBRATION_S / rnd[i]["calibration"]
              for rnd in rounds if rnd[i]["ok"]]
        if ok:
            out.append(statistics.median(ok))
    return out


def _end_to_end(setups, result):
    rounds = result["rounds"]
    scaled = scaled_latencies(rounds)
    wall = sum(scaled)
    label, tail = _tail(scaled)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "latency_p50_s": statistics.median(scaled),
        "latency_tail_s": tail,
        "nodes_per_s": result["nodes_per_round"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    records = [r for rnd in rounds for r in rnd]
    info = {"samples": len(scaled), "rounds": len(rounds), "tail_percentile": label,
            "setup_runs_s": setups,
            "unscaled_wall_s": sum(r["latency"] for r in records) / len(rounds),
            "calibration_s": statistics.median(r["calibration"] for r in records)}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, info


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _machine():
    """What the numbers were measured on."""
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        caches[f"L{level}{kind[:1].lower() if kind != 'Unified' else ''}"] = \
            _read(index / "size").strip()
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_S
    try:
        workers = [_run_worker(args, k < SETUPS - 1, deadline) for k in range(SETUPS)]
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups = [setup_s for setup_s, _, _ in workers]
    warm_ups_ok = all(ready["warm_up_ok"] for _, ready, _ in workers)
    result = workers[-1][2]
    rounds = result["rounds"] + result.get("traced_rounds", [])
    attempted = sum(len(rnd) for rnd in rounds)
    failed = sum(not r["ok"] for rnd in rounds for r in rnd)
    if not scaled_latencies(result["rounds"]):
        print("benchmark failed: every request failed", file=sys.stderr)
        return 1

    metrics, info = _end_to_end(setups, result)
    if args.trace:
        metrics = result["layers"]
        info["spans_file"] = result["spans_file"]
    info.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "failed_frac": failed / attempted, "warm_ups_ok": warm_ups_ok})
    print(json.dumps({"machine": _machine()}))
    print(json.dumps({"run": info}))
    print(json.dumps({"correct": failed == 0 and warm_ups_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
