"""Command-line front end.

Commands: ``build`` (construct and validate a ring from a spec file),
``classify`` (full predicate vector, optionally with the per-element
table), ``element`` (decompositions of one element), ``catalog`` (list
the ring roster), and ``verify`` (run the statement checks and exit
nonzero on any failure).

Exit codes: 0 all good, 1 a verified check failed, 2 usage or spec
error.  Output is deterministic for fixed inputs and flags, including
across worker counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .catalog import default_catalog, load_catalog_file
from .classify import classify, classify_element_summary
from .construct import build, validate_spec
from .core import DEFAULT_THRESHOLD, validate_axioms
from .elements import element_profile
from .errors import RinglabError, SpecError, UnknownElementError
from .invariants import jacobson_radical, units
from .theorems import CHECKS, SuiteContext, run_suite, suite_to_json

def _default_threshold() -> int:
    env = os.environ.get("RINGLAB_THRESHOLD")
    if env:
        try:
            return int(env)
        except ValueError:
            raise SpecError(f"RINGLAB_THRESHOLD must be an integer, got {env!r}")
    return DEFAULT_THRESHOLD


def _add_common(parser: argparse.ArgumentParser, spec_required: bool = False):
    if spec_required:
        parser.add_argument("--spec", required=True, help="path to a RingSpec JSON file")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument(
        "--threshold", type=int, default=None,
        help="largest ring order to build; larger rings are refused with exit 2 "
             "(default 16384; env RINGLAB_THRESHOLD)",
    )


def _load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise SpecError(f"spec file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file is not valid JSON: {exc}")
    validate_spec(doc)
    return doc


def _emit(payload: dict, as_json: bool, text_lines: list[str]):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_build(args) -> int:
    spec = _load_spec(args.spec)
    ring = build(spec, threshold=args.threshold, validate=False)
    report = validate_axioms(ring)
    payload = {
        "name": ring.name,
        "order": ring.order,
        "zero": ring.label_of(ring.zero),
        "one": ring.label_of(ring.one),
        "validation": {
            "ok": report.ok,
            "mode": report.mode,
            "triples_checked": report.triples_checked,
        },
    }
    lines = [
        f"{ring.name}: order {ring.order}",
        f"  zero = {payload['zero']}, one = {payload['one']}",
        f"  axioms: {'pass' if report.ok else 'FAIL'} ({report.mode}, "
        f"{report.triples_checked} triples)",
    ]
    if not report.ok:
        payload["validation"]["axiom"] = report.axiom
        payload["validation"]["witness"] = list(report.witness)
        lines.append(f"  violated: {report.axiom} at {report.witness}")
    _emit(payload, args.json, lines)
    return 0 if report.ok else 1


def cmd_classify(args) -> int:
    spec = _load_spec(args.spec)
    ring = build(spec, threshold=args.threshold, validate=False)
    cls = classify(ring)
    payload = {
        "name": ring.name,
        "order": ring.order,
        "classification": cls.to_json(),
    }
    lines = [f"{ring.name}: order {ring.order}"]
    for name, value in sorted(cls.to_json().items()):
        if name == "witnesses":
            continue
        lines.append(f"  {name} = {value}")
    if cls.witnesses:
        lines.append("  witnesses:")
        for name in sorted(cls.witnesses):
            lines.append(f"    {name}: {json.dumps(cls.witnesses[name], sort_keys=True)}")
    if args.elements:
        summary = [p.to_json(ring) for p in classify_element_summary(ring)]
        payload["elements"] = summary
        lines.append("  elements:")
        for prof in summary:
            lines.append(
                f"    {prof['element']}: clean={len(prof['clean_decompositions'])} "
                f"strongly_clean={len(prof['strongly_clean_decompositions'])}"
            )
    _emit(payload, args.json, lines)
    return 0


def cmd_element(args) -> int:
    spec = _load_spec(args.spec)
    ring = build(spec, threshold=args.threshold, validate=False)
    label = args.element.strip()
    elt = ring.id_of(label)
    if elt is None and label.lstrip("-").isdigit():
        idx = int(label)
        if 0 <= idx < ring.order:
            elt = idx
    if elt is None:
        raise UnknownElementError(
            f"element label {label!r} does not resolve in {ring.name}"
        )
    profile = element_profile(ring, elt)
    payload = {"name": ring.name, "profile": profile.to_json(ring)}
    pj = payload["profile"]
    lines = [f"{ring.name}: element {pj['element']}"]
    lines.append(f"  clean decompositions ({len(pj['clean_decompositions'])}):")
    for d in pj["clean_decompositions"]:
        comm = "commuting" if d["commuting"] else "non-commuting"
        lines.append(f"    e = {d['idempotent']}, u = {d['unit']} ({comm})")
    for flag in ("is_clean", "is_strongly_clean", "is_uniquely_clean",
                 "is_uniquely_strongly_clean"):
        lines.append(f"  {flag} = {pj[flag]}")
    _emit(payload, args.json, lines)
    return 0


def cmd_catalog(args) -> int:
    entries = _load_entries(args)
    payload = {
        "rings": [
            {
                "name": e.name,
                "order": e.ring.order,
                "units": len(units(e.ring)),
                "radical": len(jacobson_radical(e.ring)),
            }
            for e in entries
        ]
    }
    width = max(len(e.name) for e in entries)
    lines = [f"{'name'.ljust(width)}  order  units  |J|"]
    for item in payload["rings"]:
        lines.append(
            f"{item['name'].ljust(width)}  {item['order']:5d}  {item['units']:5d}  {item['radical']:3d}"
        )
    _emit(payload, args.json, lines)
    return 0


def _load_entries(args):
    threshold = args.threshold
    if getattr(args, "catalog", None):
        return load_catalog_file(args.catalog, threshold=threshold)
    return default_catalog(threshold=threshold)


def cmd_verify(args) -> int:
    check_ids: Optional[list[str]] = None
    if args.theorem:
        check_ids = [t.strip() for t in args.theorem.split(",") if t.strip()]
        unknown = [t for t in check_ids if t not in CHECKS]
        if unknown:
            raise SpecError(f"unknown theorem ids: {', '.join(sorted(unknown))}")
    entries = _load_entries(args)
    ctx = SuiteContext(
        entries,
        threshold=args.threshold,
        jobs=args.jobs,
        quasi_duo_count_limit=args.lattice_limit,
    )
    reports = run_suite(ctx, check_ids)
    payload = suite_to_json(ctx, reports)
    lines = []
    id_width = max(len(r.check_id) for r in reports)
    lines.append(f"{'check'.ljust(id_width)}  verdict  pass  fail  n/a  skip")
    for rep in reports:
        counts = {"pass": 0, "fail": 0, "not-applicable": 0, "skipped": 0}
        for row in rep.rows:
            counts[row.verdict] += 1
        lines.append(
            f"{rep.check_id.ljust(id_width)}  {rep.aggregate:7s}  "
            f"{counts['pass']:4d}  {counts['fail']:4d}  {counts['not-applicable']:3d}  "
            f"{counts['skipped']:4d}"
        )
    failures = [
        (rep.check_id, row)
        for rep in reports
        for row in rep.rows
        if row.verdict == "fail"
    ]
    if failures:
        lines.append("failures:")
        for cid, row in failures:
            lines.append(f"  {cid} / {row.ring}: {json.dumps(row.detail, sort_keys=True)}")
    lines.append("result: " + ("all-pass" if not failures else f"{len(failures)} failing rows"))
    _emit(payload, args.json, lines)
    return 0 if not failures else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="exact computation and verification on finite unital rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct and validate a ring")
    _add_common(p_build, spec_required=True)
    p_build.set_defaults(fn=cmd_build)

    p_classify = sub.add_parser("classify", help="compute the classification vector")
    _add_common(p_classify, spec_required=True)
    p_classify.add_argument(
        "--elements", action="store_true", help="include the per-element summary"
    )
    p_classify.set_defaults(fn=cmd_classify)

    p_element = sub.add_parser("element", help="inspect one element's decompositions")
    _add_common(p_element, spec_required=True)
    p_element.add_argument("--element", required=True, help="element label or index")
    p_element.set_defaults(fn=cmd_element)

    p_catalog = sub.add_parser("catalog", help="list the ring catalog")
    _add_common(p_catalog)
    p_catalog.add_argument("--catalog", help="path to a catalog manifest JSON file")
    p_catalog.set_defaults(fn=cmd_catalog)

    p_verify = sub.add_parser("verify", help="run the statement checks")
    _add_common(p_verify)
    p_verify.add_argument("--catalog", help="path to a catalog manifest JSON file")
    p_verify.add_argument(
        "--theorem", help="comma-separated check ids (default: all)", default=None
    )
    p_verify.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1,
        help="accepted for compatibility; does not affect output or scheduling",
    )
    p_verify.add_argument(
        "--lattice-limit", type=int, default=100_000,
        help="member bound on the one-sided ideal lattices behind the radical, "
             "quasi-duo and semi-potence oracles of crosschecks",
    )
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.threshold is None:
        try:
            args.threshold = _default_threshold()
        except SpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.threshold < 1:
        print("error: --threshold must be positive", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RinglabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
