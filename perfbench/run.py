"""ringlab's benchmark: one workload, set up in fresh processes, timed, checked.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Each set-up runs ``worker.py`` in a new process, one at a time, and
serves the workload's ``RUNS_PER_SETUP`` timed runs, each in a child
forked right after set-up.  A set-up starts only if, at the mean pace
so far, it would end within ``--seconds``; at least two run.  Metrics
are medians: ``setup_s`` over the set-ups, the others over the runs.
With ``--trace 1`` every second set-up is traced; per-layer metrics are
medians over the traced runs, and ``trace.overhead_s`` is the traced
minus the untraced median ``run_s``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary.  Results and traces are also written under
``perfbench/out/``.  Exit code 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

#: Set-ups per run, so that set-up is timed more than once.
MIN_SETUPS = 2
#: The whole command stays well inside three minutes.
DEADLINE_S = 165.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_declared() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"missing {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def commit() -> str | None:
    """The checkout's commit when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over the package sources, so a result names the code it measured."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "ringlab")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def run_setup(args, traced: bool, index: int, timeout: float) -> list:
    """One set-up in a fresh worker process; the results of the runs it served."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--trace-prefix",
                os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}-setup{index}")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up {index} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"set-up {index} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    runs = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if not runs:
        raise BenchError(f"set-up {index} printed no run")
    for run in runs:
        run["setup"] = index
    return runs


def end_to_end(runs: list) -> dict:
    median = statistics.median
    setups = {r["setup"]: r["setup_s"] for r in runs}
    return {
        "setup_s": median(setups.values()),
        "run_s": median(r["run_s"] for r in runs),
        "wall_s": median(r["setup_s"] + r["run_s"] for r in runs),
        "cpu_s": median(r["cpu_s"] for r in runs),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
        "verdict_count": median(r["verdicts"] for r in runs),
    }


def per_layer(traced: list, untraced: list) -> dict:
    names = set().union(*(r["layer"] for r in traced))
    out = {n: statistics.median(r["layer"].get(n, 0) for r in traced) for n in names}
    out["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                               - statistics.median(r["run_s"] for r in untraced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one ringlab benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    try:
        return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def bench(args) -> int:
    start = time.perf_counter()
    declared = load_declared()
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not os.path.isdir(os.path.join(ROOT, "src", "ringlab")):
        raise BenchError("no ringlab sources under src/ringlab in this checkout")
    os.makedirs(OUT, exist_ok=True)

    runs: list = []
    setups = 0
    while True:
        elapsed = time.perf_counter() - start
        if setups >= MIN_SETUPS:
            per_setup = elapsed / setups
            if elapsed + per_setup > min(args.seconds, DEADLINE_S):
                break
        traced = bool(args.trace) and setups % 2 == 1
        runs += run_setup(args, traced, setups, DEADLINE_S - elapsed)
        setups += 1

    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    digests = sorted({r["digest"] for r in runs})
    correct = failed == 0 and len(digests) == 1

    if args.trace:
        values = per_layer(traced, untraced)
        section = "per_layer"
    else:
        values = end_to_end(untraced)
        section = "end_to_end"
    # A per-layer metric of a layer this workload never calls reads 0.
    not_exercised = [m["name"] for m in declared[section] if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared[section]}

    settings = runs[0]["settings"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "setups": setups,
        "runs": len(runs),
        "traced_runs": len(traced),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "memory_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "versions": runs[0]["versions"],
        "commit": commit(),
        "source_sha256": source_digest(),
        "settings": settings,
    }
    skipped = statistics.median(r["skipped"] for r in runs)
    summary = {
        "failed_frac": failed / attempted if attempted else 1.0,
        "skipped_count": skipped,
        "digests": digests,
        "not_exercised": not_exercised,
        "problems": [p for r in runs for p in r["problems"]][:20],
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"context": context, "summary": summary, "result": result,
                   "runs": runs}, fh, indent=2, sort_keys=True)

    sampled = len(traced) if args.trace else len(untraced)
    print(f"workload {args.workload}, seed {args.seed}: {setups} set-ups, {len(runs)} runs, "
          f"{len(traced)} traced; metrics are medians of {sampled} runs")
    lines = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    lines += [("failed_frac", summary["failed_frac"], "ratio"),
              ("skipped_count", skipped, "count")]
    for name, value, unit in lines:
        print(f"  {name:40s} {value:14.6g} {unit}")
    if summary["problems"]:
        print("  problems: " + json.dumps(summary["problems"])[:2000])
    print("  context: " + json.dumps(context, sort_keys=True))
    print(f"  written: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
