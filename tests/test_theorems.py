import dataclasses
import hashlib
import importlib
import itertools
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ringlab import construct, core
from ringlab import (
    CHECKS,
    SuiteContext,
    build,
    classify,
    corner_ring,
    decomposition_counts,
    jacobson_radical,
    run_suite,
    subring_generated,
    suite_to_json,
    zn,
)
from ringlab.catalog import DEFAULT_SPECS, RADICAL_QUOTIENT_OF, CatalogEntry
from ringlab.classify import CLASSIFICATION_FIELDS, radical_quotient
from ringlab.elements import _subring_is_cusc_uusc, _subring_units, _two_good_pair
from ringlab.errors import SpecError
from ringlab.invariants import get_cache
from ringlab.construct import _corner_subset, _subring_closure
from ringlab.theorems import (
    STATEMENTS,
    _check_thm3_10,
    _is_m2_f2_corner,
    _nonzero_idempotents,
    _radical_quotient_is_z2,
    select_checks,
)
from oracles import reference_check_isomorphic, reference_corner_two_good_witness
from test_acceptance import VERIFY_JSON_SHA256
from test_invariants import _SMALL_SPEC_LIST


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_each_check_passes_on_default_catalog(suite_ctx, check_id):
    report = run_suite(suite_ctx, [check_id])[0]
    fails = [r for r in report.rows if r.verdict == "fail"]
    assert report.aggregate == "pass", (check_id, [(f.ring, f.detail) for f in fails])


def test_prop21_marks_nonabelian_na(suite_ctx):
    report = run_suite(suite_ctx, ["prop2.1"])[0]
    rows = {r.ring: r.verdict for r in report.rows}
    assert rows["T2(Z2)"] == "not-applicable"
    assert rows["Z4"] == "pass"


def test_thm311_skips_oversized_triangulars(suite_ctx):
    report = run_suite(suite_ctx, ["thm3.11"])[0]
    skipped = [r for r in report.rows if r.verdict == "skipped"]
    assert skipped, "expected at least one size-budget skip"
    passed = {r.ring for r in report.rows if r.verdict == "pass"}
    # The catalog's order-4096 triangular ring is reused, not skipped.
    assert "Z4:T3" in passed


def test_quasiduo_decided_on_every_catalog_ring(suite_ctx):
    report = run_suite(suite_ctx, ["quasiduo"])[0]
    rows = {r.ring: r.verdict for r in report.rows}
    assert "skipped" not in rows.values()
    assert rows["T3(Z4)"] == "pass"


def test_unknown_check_id_rejected(suite_ctx):
    with pytest.raises(SpecError, match="unknown theorem ids: thm9.99"):
        run_suite(suite_ctx, ["thm9.99"])


@pytest.mark.parametrize("check_ids", [[], [""], [" ", ""]])
def test_empty_check_selection_rejected(suite_ctx, check_ids):
    with pytest.raises(SpecError, match="no theorem ids selected"):
        run_suite(suite_ctx, check_ids)


def test_check_selection_is_stripped_and_in_registry_order():
    assert select_checks([" thm3.4", "prop2.1 ", "", "thm3.4"]) == ["prop2.1", "thm3.4"]


def test_run_suite_deterministic(suite_ctx):
    ids = ["prop2.1", "thm3.4", "cor3.8"]
    a = json.dumps(suite_to_json(suite_ctx, run_suite(suite_ctx, ids)), sort_keys=True)
    b = json.dumps(suite_to_json(suite_ctx, run_suite(suite_ctx, ids)), sort_keys=True)
    assert a == b


def _verify_json(ctx: SuiteContext) -> str:
    """``verify --json``'s output for ``ctx``, as the CLI prints it."""
    return json.dumps(suite_to_json(ctx, run_suite(ctx)), indent=2, sort_keys=True) + "\n"


def test_verify_json_is_the_same_over_a_second_catalog_of_live_rings():
    # While the first suite holds its rings, the second catalog and its
    # derived rings are the same rings, memos filled by the first run.
    first = SuiteContext()
    text = _verify_json(first)
    second = SuiteContext()
    for a, b in zip(first.entries, second.entries):
        assert (a.ring is b.ring) != construct._bears_table(a.spec), a.name
    assert _verify_json(second) == text
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_JSON_SHA256


def test_failure_path_reports_witness():
    # A catalog of one deliberately mislabeled ring cannot fool the
    # checks; instead, exercise the row machinery directly.
    from ringlab.theorems import TheoremReport

    rep = TheoremReport("demo", "demo")
    rep.require("R", False, {"why": "broken"})
    rep.require("S", True)
    assert rep.aggregate == "fail"
    doc = rep.to_json()
    assert doc["rows"][0] == {"ring": "R", "verdict": "fail", "detail": {"why": "broken"}}


def test_custom_catalog_context():
    entries = [
        CatalogEntry("Z2", {"zn": 2}, zn(2)),
        CatalogEntry("Z3", {"zn": 3}, zn(3)),
    ]
    ctx = SuiteContext(entries)
    reports = run_suite(ctx, ["prop2.1", "thm3.4", "prop3.3"])
    assert all(r.aggregate == "pass" for r in reports)


def test_explore_is_report_only(suite_ctx):
    report = run_suite(suite_ctx, ["explore"])[0]
    assert all(r.verdict in ("pass",) for r in report.rows)


def test_catalog_shape(suite_ctx):
    orders = [e.ring.order for e in suite_ctx.entries]
    assert len(suite_ctx.entries) >= 25
    assert min(orders) == 2
    assert max(orders) == 4096
    names = [e.name for e in suite_ctx.entries]
    assert len(names) == len(set(names))


def test_default_catalog_roster_frozen(suite_ctx):
    assert [(e.name, e.ring.order) for e in suite_ctx.entries] == [
        ("Z2", 2), ("Z3", 3), ("Z4", 4), ("Z6", 6), ("Z8", 8),
        ("F4", 4), ("F8", 8), ("Z2xZ2", 4), ("Z2xZ4", 8),
        ("T2(Z2)", 8), ("T3(Z2)", 64), ("T2(Z4)", 64), ("T3(Z4)", 4096),
        ("M2(Z2)", 16), ("Z2[x]/x^2", 4), ("Z2[x]/x^3", 8), ("Z4[x]/x^2", 16),
        ("TE(Z2)", 4), ("TE(Z4)", 16), ("F4[x;frob]/x^2", 16),
        ("Z2C2", 4), ("Z2C3", 8), ("Z2C4", 16), ("Z2V4", 16), ("Z4C2", 16),
        ("Z2S3", 64), ("Z2Q8", 256), ("FT(Z2,Z2;Z2)", 8),
        ("MC(Z2,Z2;Z2,Z2)", 16), ("IE(Z2,2Z4)", 4), ("IE(Z4,2Z8)", 16),
        ("op(T2(Z2))", 8), ("Z4/J", 2), ("Z8/J", 2), ("T2(Z2)/J", 4),
        ("T2(Z4)/J", 4), ("Z2C4/J", 2),
    ]


def test_every_catalog_ring_is_strongly_clean(suite_ctx):
    # Finite rings are strongly clean, so "exactly one" and "at most one"
    # strongly clean decomposition read the same on every ring built
    # here; the USC/CUSC separation witness belongs to the polynomial
    # analyzer.
    rings = [(e.name, e.ring) for e in suite_ctx.entries]
    rings += [(str(spec), build(spec)) for spec in _SMALL_SPEC_LIST]
    for name, ring in rings:
        assert (decomposition_counts(ring)[1] >= 1).all(), name
        assert classify(ring).is_strongly_clean, name


def test_radical_quotient_is_built_once_per_ring(monkeypatch):
    # classify and the suite share one R/J per ring handle, lemma2.8's
    # "J" sub-ideal included.  classify builds R/J from J's mask, the
    # suite builds other quotients through quotient_ring.
    calls = []

    def counting(original):
        def build_quotient(base, generators, *args, **kwargs):
            generators = sorted(int(g) for g in generators)
            calls.append((base, generators))  # keeps each base (and id) alive
            return original(base, generators, *args, **kwargs)
        return build_quotient

    for name, attr in (("ringlab.classify", "_quotient_by_ideal"),
                       ("ringlab.theorems", "quotient_ring")):
        module = importlib.import_module(name)
        monkeypatch.setattr(module, attr, counting(getattr(module, attr)))
    ctx = SuiteContext()
    run_suite(ctx, ["prop2.2", "lemma2.8", "cor3.6", "thm3.10", "crosschecks"])
    by_radical = Counter(
        id(base) for base, generators in calls
        if generators == jacobson_radical(base).tolist()
    )
    assert len(by_radical) >= len(ctx.entries)
    assert max(by_radical.values()) == 1


def _boolean_leaves(detail, path=()):
    if isinstance(detail, bool):
        yield path, detail
    elif isinstance(detail, dict):
        for key in sorted(detail):
            yield from _boolean_leaves(detail[key], path + (key,))
    elif isinstance(detail, list):
        for i, value in enumerate(detail):
            yield from _boolean_leaves(value, path + (i,))


#: Distinct tuples of boolean leaves in each check's pass rows on the
#: default catalog: a statement row's ``facts``, another row's detail.
#: A catalog change that loses a corner lowers a count.
PASS_CORNERS = ({cid: 1 for cid in CHECKS} | {"example1.4": 2, "explore": 4, "cor2.14": 3}
                | dict.fromkeys(("prop2.5", "cor3.2", "prop3.3", "thm3.4", "cor3.6", "thm4.3"), 2))


def test_pass_rows_keep_their_truth_table_corners(suite_ctx):
    corners = {}
    for rep in run_suite(suite_ctx):
        passed = [row for row in rep.rows if row.verdict == "pass"]
        read = ([row.facts for row in passed if row.facts is not None]
                if rep.check_id in STATEMENTS else [row.detail for row in passed])
        corners[rep.check_id] = len({tuple(_boolean_leaves(d)) for d in read})
    assert corners == PASS_CORNERS


def test_crosschecks_builds_one_lattice_per_ring_and_side(suite_ctx, monkeypatch):
    calls = []

    def counting(original):
        def one_sided_ideals(ring, side, *args, **kwargs):
            calls.append((ring.name, side))
            return original(ring, side, *args, **kwargs)
        return one_sided_ideals

    for name in ("ringlab.invariants", "ringlab.theorems"):
        module = importlib.import_module(name)
        monkeypatch.setattr(module, "one_sided_ideals", counting(module.one_sided_ideals))
    run_suite(suite_ctx, ["crosschecks"])
    small = [e.ring.name for e in suite_ctx.entries if e.ring.order <= 256]
    assert len(calls) == 2 * len(small) == 72
    assert Counter(calls) == Counter((n, side) for n in small for side in ("left", "right"))


_SPEC_KIND_CHECKS = ("cor2.14", "morita", "tav", "prop2.18", "prop2.19",
                     "lemma4.1", "prop4.4", "thm4.3")


@pytest.mark.parametrize("check_id", _SPEC_KIND_CHECKS)
def test_spec_kind_check_without_instances_reports_none(check_id):
    ctx = SuiteContext([CatalogEntry("Z2", {"zn": 2}, zn(2))])
    rows = [r.to_json() for r in run_suite(ctx, [check_id])[0].rows]
    assert rows == [{"ring": "(none)", "verdict": "not-applicable"}]


def test_radical_oracle_reaches_order_256():
    # Z2Q8 is local, J its augmentation ideal: a zero J must be caught.
    spec = dict(DEFAULT_SPECS)["Z2Q8"]
    ctx = SuiteContext([CatalogEntry("Z2Q8", spec, build(spec))])
    ring = ctx.entries[0].ring
    assert ring.order == 256
    classify(ring)  # before the radical below is falsified
    get_cache(ring)._memo["jacobson"] = np.arange(ring.order) == ring.zero
    [row] = run_suite(ctx, ["crosschecks"])[0].rows
    assert row.verdict == "fail"
    assert any(isinstance(p, dict) and "radical_mismatch" in p for p in row.detail), row.detail


def test_corner_units_from_the_unit_group_match_the_table_search(suite_ctx):
    rings = [e.ring for e in suite_ctx.entries]
    rings += [radical_quotient(e.ring) for e in suite_ctx.entries]
    rings += [build(spec) for spec in _SMALL_SPEC_LIST]
    found = []
    for ring in rings:
        for e in _nonzero_idempotents(ring):
            pair = _two_good_pair(ring, _subring_units(ring, _corner_subset(ring, e), e), e)
            assert pair == reference_corner_two_good_witness(ring, e), (ring.name, e)
            found.append(pair is not None)
    assert True in found and False in found


def test_thm3_10_allocates_no_corner_table():
    import tracemalloc

    spec = dict(DEFAULT_SPECS)["T3(Z4)"]
    ctx = SuiteContext([CatalogEntry("T3(Z4)", spec, build(spec))])
    ring = ctx.entries[0].ring
    classify(ring)  # memoized; not measured here
    classify(radical_quotient(ring))
    tracemalloc.start()
    try:
        [row] = _check_thm3_10(ctx).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.verdict == "pass", row.detail
    # An order-4096 corner's product table alone is 4096^2 cells.
    assert peak < 8 * 2**20, peak


_M2Z2 = {"matrix": {"n": 2, "base": {"zn": 2}}}
#: Rings with M2(F2) corners beyond the catalog: Z2 x M2(Z2), M2(Z4),
#: TE(M2(Z2)) and M3(Z2).
_MATRIX_CORNER_SPECS = (
    {"product": [{"zn": 2}, _M2Z2]},
    {"matrix": {"n": 2, "base": {"zn": 4}}},
    {"trivial_extension": _M2Z2},
    {"matrix": {"n": 3, "base": {"zn": 2}}},
)


def test_m2_f2_corner_closed_form_matches_the_isomorphism_search(suite_ctx):
    rings = [e.ring for e in suite_ctx.entries]
    rings += [build(spec) for spec in _MATRIX_CORNER_SPECS]
    rings += [radical_quotient(ring) for ring in rings]
    m2 = build(_M2Z2)
    seen = Counter()
    for ring in rings:
        for e in _nonzero_idempotents(ring):
            corner = corner_ring(ring, e)
            found = _is_m2_f2_corner(ring, e)
            assert found == reference_check_isomorphic(corner, m2).found, (ring.name, e)
            seen[corner.order, found] += 1
    assert seen[16, True] and seen[16, False], seen


def test_radical_quotient_is_z2_closed_form_matches_the_search(suite_ctx):
    z2 = zn(2)
    found = []
    for entry in suite_ctx.entries:
        quot = radical_quotient(entry.ring)
        expected = reference_check_isomorphic(quot, z2).found
        assert _radical_quotient_is_z2(entry.ring) == expected, entry.name
        found.append(expected)
    assert True in found and False in found


def _count_subset_builds(monkeypatch) -> list:
    """Record every ring built on a subset of another ring's elements."""
    construct = importlib.import_module("ringlab.construct")
    real = construct._restrict_to_subset
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(construct, "_restrict_to_subset", counted)
    return calls


def test_suite_builds_no_subring_or_corner(suite_ctx, monkeypatch):
    calls = _count_subset_builds(monkeypatch)
    reports = run_suite(suite_ctx)
    assert calls == []
    assert all(r.aggregate == "pass" for r in reports)


def test_radical_quotient_entries_are_their_bases_own(suite_ctx):
    rings = {e.name: e.ring for e in suite_ctx.entries}
    for name in RADICAL_QUOTIENT_OF:
        assert rings[f"{name}/J"] is radical_quotient(rings[name]), name


def test_thm3_10_builds_no_corner_ring(suite_ctx, monkeypatch):
    calls = _count_subset_builds(monkeypatch)
    rows = _check_thm3_10(suite_ctx).rows
    assert calls == []
    assert {r.verdict for r in rows} == {"pass", "not-applicable"}


def _distinct_subrings(ring, order_limit):
    """Each distinct proper corner, then each distinct one-element
    generated subring when the ring's order is at most ``order_limit``,
    as (members, identity, built ring)."""
    seen = set()
    for e in _nonzero_idempotents(ring):
        members = _corner_subset(ring, e)
        key = frozenset(members.tolist())
        if e != ring.one and key not in seen:
            seen.add(key)
            yield members, e, corner_ring(ring, e)
    if ring.order <= order_limit:
        seen = set()
        for a in range(ring.order):
            members = _subring_closure(ring, [a])
            key = frozenset(members.tolist())
            if key not in seen:
                seen.add(key)
                yield members, ring.one, subring_generated(ring, members)


def test_subring_masks_match_the_built_subrings(suite_ctx):
    # Z2Q8 (order 256) is above the suite's generated-subring gate.
    seen = Counter()
    for entry in suite_ctx.entries:
        for members, one, sub in _distinct_subrings(entry.ring, 256):
            built = classify(sub)
            got = _subring_is_cusc_uusc(entry.ring, members, one)
            assert got == (built.is_CUSC, built.is_UUSC), (entry.name, sub.name)
            seen["CUSC", got[0]] += 1
            seen["UUSC", got[1]] += 1
    assert all(seen[p, v] for p in ("CUSC", "UUSC") for v in (True, False)), seen
    # F4, generated by an element of order 3, is not UUSC.
    m2 = {e.name: e.ring for e in suite_ctx.entries}["M2(Z2)"]
    f4 = _subring_closure(m2, [m2.id_of("(1 1;1 0)")])
    assert f4.size == 4
    assert _subring_is_cusc_uusc(m2, f4, m2.one) == (False, False)


def test_prop2_4_and_cor2_7_build_no_ring(suite_ctx, monkeypatch):
    calls = _count_subset_builds(monkeypatch)
    reports = run_suite(suite_ctx, ["prop2.4", "cor2.7"])
    assert calls == []
    assert all(r.aggregate == "pass" for r in reports)


def test_prop2_4_reports_a_lost_property(suite_ctx, monkeypatch):
    theorems = importlib.import_module("ringlab.theorems")
    real = theorems._subring_is_cusc_uusc
    t2 = {e.name: e.ring for e in suite_ctx.entries}["T2(Z2)"]
    corners = []

    def lose_first_corner(ring, members, one):
        cusc, uusc = real(ring, members, one)
        if ring is t2 and one != ring.one and not corners:
            corners.append(one)
            return False, uusc
        return cusc, uusc

    monkeypatch.setattr(theorems, "_subring_is_cusc_uusc", lose_first_corner)
    report = run_suite(suite_ctx, ["prop2.4"])[0]
    [row] = [r for r in report.rows if r.ring == "T2(Z2)"]
    assert report.aggregate == row.verdict == "fail"
    detail = json.loads(json.dumps(row.to_json()))["detail"]
    assert detail == [f"corner e={t2.label_of(corners[0])}", "CUSC lost"]


def test_prop2_2_builds_no_ring(suite_ctx, monkeypatch):
    theorems = importlib.import_module("ringlab.theorems")

    def refuse(*args, **kwargs):
        raise AssertionError("prop2.2 built a ring")

    monkeypatch.setattr(theorems, "radical_quotient", refuse)
    monkeypatch.setattr(SuiteContext, "derived", refuse)
    rows = run_suite(suite_ctx, ["prop2.2"])[0].rows
    assert {r.verdict for r in rows} <= {"pass", "not-applicable"}


def test_thm3_10_finds_matrix_corners(monkeypatch):
    # Reported as CUSC, M2(Z2) and Z2 x M2(Z2) break the corner
    # obstruction in R and in R/J = R.  The catalog needs no ring of
    # order 2 for its corners to be checked.
    theorems = importlib.import_module("ringlab.theorems")
    real = theorems.classify
    monkeypatch.setattr(theorems, "classify",
                        lambda ring: dataclasses.replace(real(ring), is_CUSC=True))
    specs = {"M2(Z2)": _M2Z2, "Z2xM2(Z2)": _MATRIX_CORNER_SPECS[0]}
    ctx = SuiteContext([CatalogEntry(name, spec, build(spec)) for name, spec in specs.items()])
    rows = _check_thm3_10(ctx).rows
    assert [r.ring for r in rows] == list(specs)
    for row in rows:
        assert row.verdict == "fail"
        corners = [p for p in row.detail if isinstance(p, dict) and "matrix_corner" in p]
        assert {p["matrix_corner"] for p in corners} == {"M2(F2)"}, row.detail
        assert {p["scope"] for p in corners} == {"R", "R/J"}, row.detail


#: (classification flipped to false, field, lemma2.8 direction it breaks).
_LEMMA2_8_DIRECTIONS = (
    ("R", "is_UUSC", "R/I UUSC => R UUSC"),
    ("R/J", "is_UUSC", "R UUSC abelian lifting => R/I UUSC"),
    ("R", "is_CUSC", "R/I CUSC, R abelian => R CUSC"),
    ("R/J", "is_CUSC", "R CUSC abelian lifting => R/I CUSC"),
)


@pytest.mark.parametrize("flipped, field, direction", _LEMMA2_8_DIRECTIONS,
                         ids=[f"{f}-{p}" for f, p, _ in _LEMMA2_8_DIRECTIONS])
def test_lemma2_8_reports_each_direction(monkeypatch, flipped, field, direction):
    # Z4's ideals inside J are 0 and J.  R/0 is R itself, so a flip on
    # R is seen against R/J = Z2, and a flip on R/J against R.
    z4 = build({"zn": 4})
    target = z4 if flipped == "R" else radical_quotient(z4)
    theorems = importlib.import_module("ringlab.theorems")
    real = theorems.classify
    assert all(getattr(real(r), field) and real(r).is_abelian for r in (z4, target))
    monkeypatch.setattr(
        theorems, "classify",
        lambda ring: dataclasses.replace(real(ring), **{field: False}) if ring is target else real(ring))
    [row] = run_suite(SuiteContext([CatalogEntry("Z4", {"zn": 4}, z4)]), ["lemma2.8"])[0].rows
    assert (row.ring, row.verdict) == ("Z4", "fail")
    assert row.detail == {"ideal": "J", "direction": direction}


def test_lemma2_8_asks_no_lifting_question(suite_ctx, monkeypatch):
    theorems = importlib.import_module("ringlab.theorems")
    real = theorems.idempotents_lift_mod
    calls = []

    def counted(ring, ideal):
        calls.append(ring.name)
        return real(ring, ideal)

    monkeypatch.setattr(theorems, "idempotents_lift_mod", counted)
    assert run_suite(suite_ctx, ["lemma2.8"])[0].aggregate == "pass"
    assert calls == []
    # crosschecks keeps its own lifting row, one call per catalog ring.
    run_suite(suite_ctx, ["crosschecks"])
    assert len(calls) == len(suite_ctx.entries)


def test_triangular_route_keeps_to_the_budget(monkeypatch):
    ctx = SuiteContext()
    construct = importlib.import_module("ringlab.construct")
    real = construct._build
    built = Counter()
    orders = {}

    def counted(spec, threshold):
        ring = real(spec, threshold)
        if "triangular" in spec:
            key = json.dumps(spec, sort_keys=True)
            built[key] += 1
            orders[key] = ring.order
        return ring

    monkeypatch.setattr(construct, "_build", counted)
    reports = {r.check_id: r for r in run_suite(ctx)}
    assert built and set(built.values()) == {1}, built
    assert max(orders.values()) <= ctx.derived_order_limit, orders
    entries = {e.name: e for e in ctx.entries}
    asked = {row.ring.rsplit(":T", 1)[0] for cid in ("example2.3", "thm3.11")
             for row in reports[cid].rows if ":T" in row.ring}
    before = dict(built)
    route = {label: c for name in sorted(asked) for _, label, c in ctx.triangulars(entries[name])}
    assert built == before, "the route built a ring again"
    # The catalog's T3(Z4), order 4096, is reused above the budget.
    t3z4 = entries["T3(Z4)"].ring
    assert t3z4.order > ctx.derived_order_limit
    assert route["Z4:T3"] is classify(t3z4)
    for cid, count in (("example2.3", 22), ("thm3.11", 26)):
        rows = [row for row in reports[cid].rows if ":T" in row.ring]
        skipped = {row.ring for row in rows if row.verdict == "skipped"}
        assert skipped == {row.ring for row in rows if route[row.ring] is None}, cid
        assert len(skipped) == count, cid


#: An ideal extension of Z2 by the rng Z2, whose 1 is not quasi-regular.
_NOT_QUASI_REGULAR_IE = {"ideal_extension": {
    "base": {"zn": 2}, "m": {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]},
    "left_action": [[0, 0], [0, 1]], "right_action": [[0, 0], [0, 1]]}}

#: sha256 over every row of the statement checks, with classification
#: fields negated so that their fail rows are reached: each field on
#: every ring, then every field on one catalog ring at a time, then one-ring
#: catalogs for the ``(none)`` rows and ``prop2.19``'s hypotheses.
STATEMENT_ROWS_SHA256 = "01693d1b9f3013f23d94f9abde2b5e7d952e6b0dd295d9088f6c4240285b8d35"


def test_statement_rows_are_pinned_under_negated_classifications(suite_ctx, monkeypatch):
    theorems = importlib.import_module("ringlab.theorems")
    real = theorems.classify
    digest = hashlib.sha256()
    fails, seen = set(), set()

    def run(case, ctx, negate=lambda ring: ()):
        def negated(ring):
            c = real(ring)
            return dataclasses.replace(c, **{f: not getattr(c, f) for f in negate(ring)})
        monkeypatch.setattr(theorems, "classify", negated)
        reports = [r.to_json() for r in run_suite(ctx, list(STATEMENTS))]
        digest.update(json.dumps([case, reports], sort_keys=True).encode())
        rows = [(r["id"], row) for r in reports for row in r["rows"]]
        fails.update(cid for cid, row in rows if row["verdict"] == "fail")
        seen.update((cid, row["verdict"], json.dumps(row.get("detail"), sort_keys=True))
                    for cid, row in rows if cid in ("tav", "prop2.19"))

    for field in CLASSIFICATION_FIELDS:
        run(field, suite_ctx, lambda ring: (field,))
    for entry in suite_ctx.entries:
        run(entry.name, suite_ctx,
            lambda ring: CLASSIFICATION_FIELDS if ring is entry.ring else ())
    for name, spec in (("Z2", {"zn": 2}), ("IE(Z2)", _NOT_QUASI_REGULAR_IE)):
        run(name, SuiteContext([CatalogEntry(name, spec, build(spec))]))
    assert fails == set(STATEMENTS), fails
    assert {("tav", "fail", '"T(A,A) CUSC but A is not"'),
            ("tav", "fail", '"A CUSC abelian but T(A,A) is not"'),
            ("prop2.19", "not-applicable", '{"hypotheses": {"idempotents_central_on_m": true, '
                                           '"m_quasi_regular": false}}')} <= seen
    assert digest.hexdigest() == STATEMENT_ROWS_SHA256


#: What every finite ring satisfies, whatever the kernels return: it is
#: strongly clean, so clean, and CUSC = USC, CUC = UC; potent and
#: semi-potent; and left quasi-duo iff right quasi-duo (iff R/J is
#: commutative).
_ALWAYS_TRUE = {"is_clean", "is_strongly_clean", "is_potent", "is_semi_potent"}
_SAME_AS = {"is_CUSC": "is_USC", "is_CUC": "is_UC", "is_quasi_duo_right": "is_quasi_duo_left"}


class _Free:
    """Stands in for a classification, or for a ring's ``meta`` flags:
    each field is a free input, looked up by path in ``values`` (False
    when unset) and recorded in ``read``, except for the identities."""

    def __init__(self, values, read, path):
        self._values, self._read, self._path = values, read, path

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        if name in _ALWAYS_TRUE:
            return True
        key = self._path + (_SAME_AS.get(name, name),)
        self._read.append(key)
        return self._values.get(key, False)

    get = __getattr__  # ``hypotheses`` is read as a mapping


class _StandInReading:
    """A ``theorems.Reading`` of a ring with two parts, made of free inputs."""

    def __init__(self, values, read):
        self.ring, self.quotient, self._meta = (_Free(values, read, (p,))
                                                for p in ("R", "R/J", "meta"))
        self.parts = [_Free(values, read, (f"part{i}",)) for i in range(2)]
        self.base, self.hypotheses = self.parts[0], self._meta

    two_group = property(lambda self: self._meta.two_group)
    idempotents_in_base = property(lambda self: self._meta.idempotents_in_base)


def _can_fail(statement) -> bool:
    """Whether some values of the inputs ``statement`` reads meet its
    premise and break its conclusion.  The inputs are found by reading:
    enumerate those known so far until no new one is read."""
    inputs = []
    while True:
        read, fails = [], False
        for bits in itertools.product((False, True), repeat=len(inputs)):
            r = _StandInReading(dict(zip(inputs, bits)), read)
            if (statement.premise is None or statement.premise(r)) and not statement.conclusion(r):
                fails = True
        new = [key for key in dict.fromkeys(read) if key not in inputs]
        if not new:
            return fails
        inputs += new


def test_statements_that_cannot_fail_are_the_ones_readme_lists():
    cannot_fail = [cid for cid, statement in STATEMENTS.items() if not _can_fail(statement)]
    assert cannot_fail == ["prop3.3", "thm3.4", "cor3.5"]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("the checks below decide nothing", 1)[1]
    section = section.split("Parts of other checks", 1)[0]
    assert re.findall(r"^- `([^`]+)`", section, re.M) == cannot_fail


def test_a_default_run_computes_each_axiom_report_once(monkeypatch):
    # One report per ring and mode, kept in the ring's memo; derived
    # rings read their base's.  The list keeps every ring alive, so no
    # two of them share an id.
    computed = []
    compute = core._axiom_report

    def counted(ring, mode, cache):
        computed.append((ring, mode))
        return compute(ring, mode, cache)

    monkeypatch.setattr(core, "_axiom_report", counted)
    run_suite(SuiteContext())
    assert computed
    assert len({(id(ring), mode) for ring, mode in computed}) == len(computed)
