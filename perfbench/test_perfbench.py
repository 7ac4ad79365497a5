"""Smoke test of the benchmark itself, on tiny inputs.

Runs ``run.py --smoke`` (verify on two check ids over four small rings,
the ladder cut to o16/o64, one profiled ring) and the correctness gate
in process.  Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from worker import Ringlab  # noqa: E402

WORKLOADS = ("verify", "classify-ladder", "element-profiles")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)
with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


def bench(workload: str, trace: int) -> tuple[dict, dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"{workload}-seed7-trace{trace}.json"),
              encoding="utf-8") as fh:
        written = json.load(fh)
    return result, written, proc.stdout


@pytest.fixture(scope="module")
def rl():
    return Ringlab()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result, written, stdout = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in DECLARED["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    for name in ("failed_frac", "skipped_count"):
        assert any(line.split()[:1] == [name] for line in stdout.splitlines())
    context = written["context"]
    for key in ("seed", "nproc", "memory_total_mb", "versions", "commit", "settings"):
        assert key in context
    if workload == "verify":
        for key in ("threshold", "derived_order_limit", "iso_order_limit", "oracle_order_limit",
                    "quasi_duo_order_limit", "quasi_duo_count_limit", "usc_reading", "jobs"):
            assert key in context["settings"]


def test_traced_run_emits_every_per_layer_name():
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    exercised = set()
    for workload in WORKLOADS:
        result, written, _ = bench(workload, 1)
        assert result["correct"], written["summary"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        exercised |= set(declared) - set(written["summary"]["not_exercised"])
        traced = [r for r in written["runs"] if r["traced"]]
        assert traced and all(os.path.isfile(r["trace_file"]) for r in traced)
        # the traced runs' output hashes like the untraced ones'
        assert len({r["digest"] for r in written["runs"]}) == 1
    outside_smoke = {f"ladder.{name}.{t}" for name, _ in workloads.LADDER
                     if name not in workloads.SMOKE_LADDER for t in ("build_s", "classify_s")}
    assert set(declared) - exercised == outside_smoke


def test_gate_flags_a_wrong_expected_value(rl):
    ladder = workloads.Ladder(rl, 7, smoke=True)
    ladder.setup()
    ladder.run()
    assert ladder.check(EXPECTED).failed == 0
    wrong = copy.deepcopy(EXPECTED)
    wrong["ladder"]["o64"]["is_clean"] = not wrong["ladder"]["o64"]["is_clean"]
    gate = ladder.check(wrong)
    assert gate.failed == 1 and "o64" in gate.problems[0]

    profiles = workloads.Profiles(rl, 7, smoke=True)
    profiles.setup()
    profiles.run()
    assert profiles.check(EXPECTED).failed == 0
    wrong = copy.deepcopy(EXPECTED)
    wrong["profiles"]["M2(Z2)"] = "0" * 64
    assert profiles.check(wrong).failed == 16


def test_verify_output_is_identical_for_one_and_two_jobs(rl):
    texts = []
    for jobs in (1, 2):
        verify = workloads.Verify(rl, 7, smoke=True)
        verify.jobs = jobs
        verify.setup()
        verify.run()
        assert verify.check(EXPECTED).failed == 0
        texts.append(verify.text)
    assert texts[0] == texts[1]
