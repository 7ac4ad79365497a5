"""The three workloads: what each sets up, runs, and how its output is checked.

Every workload is a closed loop with one caller: a batch run with no
arrivals.  ``setup`` constructs the rings the workload starts from,
``run`` does the timed work (JSON serialization included), and
``check`` is the correctness gate, run after the timing ends.  Each
operation the gate counts is one check row (verify), one rung (ladder)
or one element profile (profiles).  ``RUNS_PER_SETUP`` is how many timed
runs one set-up serves, each forked from the set-up process.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import random
import time
from dataclasses import dataclass, field

_Z2 = {"zn": 2}
_Z4 = {"zn": 4}
_T3Z4 = {"triangular": {"n": 3, "base": _Z4}}
_M2Z4 = {"matrix": {"n": 2, "base": _Z4}}

#: (rung name, spec): one-off ``classify`` calls of rising order.
LADDER = (
    ("o16", {"matrix": {"n": 2, "base": _Z2}}),
    ("o64", {"triangular": {"n": 2, "base": _Z4}}),
    ("o256", _M2Z4),
    ("o4096-T3Z4", _T3Z4),
    ("o4096-M2F8", {"matrix": {"n": 2, "base": {"gf": {"p": 2, "k": 3}}}}),
    ("o8192", {"product": [_Z2, _T3Z4]}),
)

#: Rings profiled element by element, as ``classify --elements --json``.
PROFILED = (
    ("M2(Z4)", _M2Z4),
    ("Z2Q8", {"group_ring": {"base": _Z2, "group": "quaternion8"}}),
    ("T3(Z4)", _T3Z4),
)

#: Seeded single-element queries per profiled ring, as ``ringlab element``.
QUERIES_PER_RING = 300

#: Tiny inputs for the benchmark's own smoke test.
SMOKE_CATALOG = ("Z2", "Z4", "T2(Z2)", "M2(Z2)")
SMOKE_CHECKS = ("prop2.1", "cor3.2")
SMOKE_LADDER = ("o16", "o64")
SMOKE_PROFILED = (("M2(Z2)", {"matrix": {"n": 2, "base": _Z2}}),)
SMOKE_QUERIES = 20


@dataclass
class Gate:
    """What the correctness gate saw in one repetition."""

    attempted: int = 0
    failed: int = 0
    skipped: int = 0
    verdicts: int = 0
    digest: str = ""
    problems: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)

    def fail(self, count: int, problem) -> None:
        self.failed += count
        self.problems.append(problem)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def keyword_defaults(fn) -> dict:
    return {
        name: p.default
        for name, p in inspect.signature(fn).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


def jobs() -> int:
    """Two suite workers, never more threads than the cores we may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _count_pair(profile_json: dict) -> list:
    """[clean, strongly clean] decomposition counts of one rendered profile."""
    return [len(profile_json["clean_decompositions"]),
            len(profile_json["strongly_clean_decompositions"])]


def _verdict_fields(classification_json: dict, gate: Gate) -> None:
    for name, value in classification_json.items():
        if name == "witnesses":
            continue
        if value == "skipped":
            gate.skipped += 1
        else:
            gate.verdicts += 1


# ---------------------------------------------------------------------------
# verify: the real load


class Verify:
    """``ringlab verify --json`` in process, with default limits."""

    RUNS_PER_SETUP = 1

    def __init__(self, rl, seed: int, smoke: bool = False):
        self.rl = rl
        self.smoke = smoke
        self.check_ids = list(SMOKE_CHECKS) if smoke else None
        self.jobs = jobs()

    def setup(self):
        if not self.smoke:
            self.entries = self.rl.catalog.default_catalog()
            return
        specs = dict(self.rl.catalog.DEFAULT_SPECS)
        self.entries = [
            self.rl.catalog.CatalogEntry(name, specs[name], self.rl.construct.build(specs[name]))
            for name in SMOKE_CATALOG
        ]

    def run(self):
        theorems = self.rl.theorems
        self.ctx = theorems.SuiteContext(self.entries, jobs=self.jobs)
        reports = theorems.run_suite(self.ctx, self.check_ids)
        self.payload = theorems.suite_to_json(self.ctx, reports)
        self.text = json.dumps(self.payload, indent=2, sort_keys=True)

    def settings(self) -> dict:
        keys = ("usc_reading", "threshold", "derived_order_limit", "iso_order_limit",
                "oracle_order_limit", "quasi_duo_order_limit", "quasi_duo_count_limit", "jobs")
        out = {k: getattr(self.ctx, k) for k in keys if hasattr(self.ctx, k)}
        out["check_ids"] = self.check_ids or "all"
        out["catalog_rings"] = len(self.entries)
        return out

    def observed(self) -> dict:
        return {"digest": sha256(self.text)}

    def check(self, expected: dict) -> Gate:
        gate = Gate(digest=sha256(self.text))
        counts = {"pass": 0, "fail": 0, "not-applicable": 0, "skipped": 0}
        for report in self.payload["checks"]:
            for row in report["rows"]:
                counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
                if row["verdict"] == "fail":
                    gate.problems.append({"check": report["id"], "ring": row["ring"]})
        gate.attempted = sum(counts.values())
        gate.failed = counts["fail"]
        gate.skipped = counts["skipped"]
        gate.verdicts = gate.attempted - gate.skipped
        if not self.payload["all_pass"] and gate.failed == 0:
            gate.fail(1, "all_pass is false without a fail row")
        gate.layer = {
            "theorems.rows_pass": counts["pass"],
            "theorems.rows_na": counts["not-applicable"],
        }
        return gate


# ---------------------------------------------------------------------------
# classify-ladder: one-off classify calls of rising order


class Ladder:
    """``build(spec)`` then ``classify`` per rung; each ring classified once."""

    RUNS_PER_SETUP = 1

    def __init__(self, rl, seed: int, smoke: bool = False):
        self.rl = rl
        self.rungs = [r for r in LADDER if not smoke or r[0] in SMOKE_LADDER]
        self.rings: dict = {}
        self.results: dict = {}
        self.errors: dict = {}
        self.timings: dict = {}

    def setup(self):
        for name, spec in self.rungs:
            start = time.perf_counter()
            try:
                self.rings[name] = self.rl.construct.build(spec)
            except Exception as exc:  # a refused or broken build is a failed rung
                self.errors[name] = f"build: {type(exc).__name__}: {exc}"
            self.timings[f"ladder.{name}.build_s"] = time.perf_counter() - start

    def run(self):
        for name, _spec in self.rungs:
            ring = self.rings.pop(name, None)
            if ring is None:
                continue
            start = time.perf_counter()
            try:
                result = self.rl.classify.classify(ring)
                self.results[name] = json.dumps(result.to_json(), sort_keys=True)
            except Exception as exc:  # an exception is a failed rung, not a crash
                self.errors[name] = f"classify: {type(exc).__name__}: {exc}"
            self.timings[f"ladder.{name}.classify_s"] = time.perf_counter() - start
            del ring  # free this rung's tables before the next rung allocates

    def settings(self) -> dict:
        return {
            "rungs": [name for name, _ in self.rungs],
            "classify": keyword_defaults(self.rl.classify.classify),
            "build": keyword_defaults(self.rl.construct.build),
        }

    def observed(self) -> dict:
        out = {}
        for name, text in self.results.items():
            vector = json.loads(text)
            vector.pop("witnesses", None)
            out[name] = vector
        return out

    def check(self, expected: dict) -> Gate:
        gate = Gate(attempted=len(self.rungs), layer=dict(self.timings))
        observed = self.observed()
        for name, _spec in self.rungs:
            if name in self.errors:
                gate.fail(1, {name: self.errors[name]})
                continue
            vector = observed[name]
            _verdict_fields(vector, gate)
            want = expected["ladder"][name]
            wrong = sorted(
                f for f in set(want) | set(vector)
                if vector.get(f) != "skipped"
                and isinstance(want.get(f), bool)
                and vector.get(f) != want[f]
            )
            if wrong:
                gate.fail(1, {name: {f: [vector.get(f), want.get(f)] for f in wrong}})
        gate.digest = sha256(json.dumps([self.results.get(n) for n, _ in self.rungs]))
        return gate


# ---------------------------------------------------------------------------
# element-profiles: the scalar per-element path and element labels


class Profiles:
    """``classify --elements --json`` per ring, plus seeded ``element`` queries."""

    #: The run is shorter than the set-up, so one set-up serves four runs.
    RUNS_PER_SETUP = 4

    def __init__(self, rl, seed: int, smoke: bool = False):
        self.rl = rl
        self.seed = seed
        self.profiled = SMOKE_PROFILED if smoke else PROFILED
        self.queries_per_ring = SMOKE_QUERIES if smoke else QUERIES_PER_RING
        self.rings: dict = {}
        self.outputs: dict = {}
        self.answers: dict = {}

    def setup(self):
        rng = random.Random(self.seed)
        self.queries = {}
        for name, spec in self.profiled:
            ring = self.rl.construct.build(spec)
            self.rings[name] = ring
            picks = [rng.randrange(ring.order) for _ in range(self.queries_per_ring)]
            self.queries[name] = [ring.label_of(i) for i in picks]

    def run(self):
        classify = self.rl.classify
        element_profile = self.rl.elements.element_profile
        for name, _spec in self.profiled:
            ring = self.rings[name]
            cls = classify.classify(ring)
            summary = [p.to_json(ring) for p in classify.classify_element_summary(ring)]
            payload = {"name": ring.name, "order": ring.order,
                       "classification": cls.to_json(), "elements": summary}
            self.outputs[name] = json.dumps(payload, indent=2, sort_keys=True)
            answers = []
            for label in self.queries[name]:
                elt = ring.id_of(label)
                profile = element_profile(ring, elt)
                answers.append(json.dumps(
                    {"name": ring.name, "profile": profile.to_json(ring)},
                    indent=2, sort_keys=True,
                ))
            self.answers[name] = answers

    def settings(self) -> dict:
        return {
            "rings": [name for name, _ in self.profiled],
            "queries_per_ring": self.queries_per_ring,
            "classify": keyword_defaults(self.rl.classify.classify),
            "build": keyword_defaults(self.rl.construct.build),
        }

    def observed(self) -> dict:
        out = {}
        for name, text in self.outputs.items():
            counts = [_count_pair(p) for p in json.loads(text)["elements"]]
            out[name] = sha256(json.dumps(counts))
        return out

    def check(self, expected: dict) -> Gate:
        gate = Gate()
        digests = self.observed()
        for name, _spec in self.profiled:
            ring = self.rings[name]
            clean, strong = self.rl.elements.decomposition_counts(ring)
            payload = json.loads(self.outputs[name])
            _verdict_fields(payload["classification"], gate)
            profiles = payload["elements"]
            gate.attempted += len(profiles) + len(self.answers[name])
            if digests[name] != expected["profiles"].get(name):
                gate.fail(len(profiles), {name: "count digest differs from the stored value"})
            else:
                bad = [i for i, p in enumerate(profiles)
                       if _count_pair(p) != [int(clean[i]), int(strong[i])]]
                if bad:
                    gate.fail(len(bad), {name: {"profiles_off_counts": bad[:10]}})
            for label, text in zip(self.queries[name], self.answers[name]):
                profile = json.loads(text)["profile"]
                elt = ring.id_of(label)
                got = _count_pair(profile)
                if profile["element"] != label or got != [int(clean[elt]), int(strong[elt])]:
                    gate.fail(1, {name: {"query": label, "counts": got}})
        gate.digest = sha256(json.dumps(digests, sort_keys=True))
        return gate


WORKLOADS = {"verify": Verify, "classify-ladder": Ladder, "element-profiles": Profiles}
