"""One benchmark worker process: set up a workload, then run its timed phase.

Started by ``run.py``, never by hand.  It writes protocol lines (JSON) on
its standard output: ``{"event": "ready"}`` once set-up is done, then one
``{"event": "result", ...}``.  Anything the library prints goes to stderr.
With ``--setup-only`` it exits after the ready line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 2


def _import_confgauss():
    """Import the package from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import confgauss

    if Path(confgauss.__file__).resolve().parent != src / "confgauss":
        raise ImportError(f"confgauss imported from {confgauss.__file__}, not {src}")


def _timed_rounds(workload, seconds, rounds=None, scope=contextlib.nullcontext):
    """Repeat the round ``rounds`` times, or else until ``seconds`` pass.

    Without ``rounds`` at least ``MIN_ROUNDS`` run, so that every request
    is repeated.  Returns the per-round record lists.
    """
    out = []
    start = time.perf_counter()
    while True:
        out.append(workload.run_round(scope))
        if rounds is not None:
            if len(out) >= rounds:
                return out
        elif len(out) >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # library output must not mix with the protocol
    sys.stdout = sys.stderr

    def send(msg):
        proto.write(json.dumps(msg) + "\n")
        proto.flush()

    _import_confgauss()
    from workloads import WORKLOADS

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir=workdir)
        warm_ok = workload.warm_up()
        send({"event": "ready", "warm_up_ok": warm_ok})
        if args.setup_only:
            return 0

        untraced = _timed_rounds(workload, args.seconds)
        result = {"event": "result", "warm_up_ok": warm_ok,
                  "rounds": [[r.__dict__ for r in rnd] for rnd in untraced],
                  "nodes_per_round": workload.n ** 2 * len(untraced[0]),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if args.trace:
            from run import scaled_latencies
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = _timed_rounds(workload, args.seconds, rounds=len(untraced),
                                       scope=tracer.request)
            finally:
                tracer.uninstall()
            result["traced_rounds"] = [[r.__dict__ for r in rnd] for rnd in traced]
            wall = sum(scaled_latencies(result["rounds"]))
            wall_traced = sum(scaled_latencies(result["traced_rounds"]))
            requests = sum(len(rnd) for rnd in traced)
            result["layers"] = tracer.layer_metrics(
                requests, len(traced), (wall_traced - wall) / wall)
            spans_path = work_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        send(result)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
