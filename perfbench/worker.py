"""One set-up of one workload, in a fresh process, and the timed runs it serves.

Run by ``run.py``; prints one JSON object per timed run, one a line.
Times start before ``import ringlab``: ``setup_s`` covers the import and
the construction of every ring the workload starts from.  Each timed run
then happens in a child forked right after set-up, so it starts from
exactly the state a fresh process has after set-up: nothing one run
computes or memoizes is there for the next.  ``run_s`` is the workload's
work in the child, JSON serialization included.  The correctness gate
runs in the child after the timing ends.  ringlab is imported from
``src/`` of the checkout this file sits in, never from an installed copy.

    python3 perfbench/worker.py --workload verify --seed 1 [--trace-prefix P] [--smoke]
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback

import workloads
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Ringlab:
    """The ringlab modules a workload calls, looked up by module path."""

    MODULES = ("catalog", "classify", "construct", "elements", "theorems")

    def __init__(self):
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"ringlab.{name}"))


def timed_run(args, workload, tracer, setup: dict, index: int) -> dict:
    """One timed run and its gate; called in a child forked after set-up."""
    t_start = time.perf_counter()
    cpu_start = cpu_seconds()
    error = None
    try:
        workload.run()
    except Exception:  # the run is reported as failed, with its traceback
        error = traceback.format_exc()
    t_run = time.perf_counter()
    cpu = cpu_seconds() - cpu_start
    # A forked child's own peak starts at its size when forked, so the
    # set-up's peak is added back: together they are a fresh process's peak.
    peak_kb = max(setup["peak_kb"], peak_rss_kb())
    if tracer is not None:
        tracer.uninstall()

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    if error is None:
        gate = workload.check(expected)
    else:
        gate = workloads.Gate(attempted=1)
        gate.fail(1, error)

    result = {
        "run": index,
        "setup_s": setup["setup_s"],
        "run_s": t_run - t_start,
        "cpu_s": setup["cpu_s"] + cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "skipped": gate.skipped,
        "verdicts": gate.verdicts,
        "digest": gate.digest,
        "problems": gate.problems[:20],
        "settings": workload.settings() if error is None else {},
        "versions": setup["versions"],
        "traced": tracer is not None,
        "trace_file": None,
    }
    if tracer is not None:
        layer = tracer.layer_metrics(t_start)
        layer.update(gate.layer)
        result["layer"] = layer
        result["trace_file"] = f"{args.trace_prefix}-run{index}.json"
        tracer.write(result["trace_file"], {"workload": args.workload, "seed": args.seed,
                                            "run_start": t_start - tracer.origin,
                                            "layer": layer})
    else:
        result["layer"] = gate.layer
    return result


def fork_run(args, workload, tracer, setup: dict, index: int) -> int:
    """Run :func:`timed_run` in a forked child; its exit status."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        try:
            result = timed_run(args, workload, tracer, setup, index)
            print(json.dumps(result, sort_keys=True), flush=True)
            os._exit(0)
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-prefix", default=None,
                        help="trace the runs; run i writes its spans to <prefix>-run<i>.json")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--dump", action="store_true",
                        help="print the observed vectors and digests that expected.json stores")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    cpu0 = cpu_seconds()
    import numpy  # ringlab's own first import; the user pays it too
    rl = Ringlab()
    tracer = Tracer().install() if args.trace_prefix else None
    workload_cls = workloads.WORKLOADS[args.workload]
    workload = workload_cls(rl, args.seed, smoke=args.smoke)
    workload.setup()
    setup = {
        "setup_s": time.perf_counter() - t0,
        "cpu_s": cpu_seconds() - cpu0,
        "peak_kb": peak_rss_kb(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }

    if args.dump:
        workload.run()
        print(json.dumps({args.workload: workload.observed()}, indent=2, sort_keys=True))
        return 0
    for index in range(workload_cls.RUNS_PER_SETUP):
        status = fork_run(args, workload, tracer, setup, index)
        if status != 0:
            print(f"worker: run {index} ended with wait status {status}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
