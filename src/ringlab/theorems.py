"""Executable checks of ring-theoretic statements over a ring catalog.

Each check instantiates one statement about clean/strongly-clean
decomposition uniqueness on every applicable catalog ring and reports a
verdict per ring: ``pass``, ``fail`` (with a machine-checkable
witness), ``not-applicable`` (hypotheses unmet), or ``skipped`` (size
bounds).  An aggregate failure anywhere signals an implementation bug,
never new mathematics: every statement checked here is established.

Checks share a :class:`SuiteContext` that holds the catalog and the
derived rings built by spec (triangular extensions, matrix rings,
factors).  A ring's classification and its radical quotient live in
the ring's own memo (see :mod:`ringlab.invariants`), so every check
that asks for them reuses one computation per ring handle.  No check
builds a subring or corner: ``prop2.4``, ``cor2.6``, ``cor2.7`` and
``thm3.10`` read them from the parent ring's unit and idempotent masks
through :mod:`ringlab.elements`, which answers every a = e + u and
x = u + v question.  Reports are deterministic: byte-identical across
runs and worker counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .catalog import CatalogEntry, default_catalog
from .classify import Classification, _least_non_regular, classify, radical_quotient
from .construct import (
    _FAMILIES,
    _corner_subset,
    _subring_closure,
    build,
    quotient_ring,
)
from .core import DEFAULT_THRESHOLD, FiniteRing, validate_axioms
from .elements import _subring_is_cusc_uusc, _subring_units, _sweep, _two_good_pair
from .errors import LatticeLimitError, SpecError
from .invariants import (
    DEFAULT_IDEAL_COUNT_LIMIT,
    DEFAULT_IDEAL_ORDER_LIMIT,
    get_cache,
    ideal_generated,
    idempotents_lift_mod,
    is_two_sided_ideal,
    jacobson_radical,
    maximal_members,
    one_sided_ideals,
)
from .polyring import poly_is_clean, poly_is_cusc, poly_view

PASS = "pass"
FAIL = "fail"
NA = "not-applicable"
SKIP = "skipped"


@dataclass
class RingVerdict:
    ring: str
    verdict: str
    detail: Optional[object] = None

    def to_json(self) -> dict:
        out = {"ring": self.ring, "verdict": self.verdict}
        if self.detail is not None:
            out["detail"] = self.detail
        return out


@dataclass
class TheoremReport:
    check_id: str
    title: str
    rows: list[RingVerdict] = field(default_factory=list)

    @property
    def aggregate(self) -> str:
        return FAIL if any(r.verdict == FAIL for r in self.rows) else PASS

    def add(self, ring: str, verdict: str, detail=None):
        self.rows.append(RingVerdict(ring, verdict, detail))

    def require(self, ring: str, condition: bool, detail_on_fail=None, detail_on_pass=None):
        if condition:
            self.add(ring, PASS, detail_on_pass)
        else:
            self.add(ring, FAIL, detail_on_fail)

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "title": self.title,
            "aggregate": self.aggregate,
            "rows": [r.to_json() for r in self.rows],
        }


class SuiteContext:
    """Catalog plus the derived rings shared by all checks, by spec.

    Checks read a ring's parts (base, corner rings, factors) here by
    child spec, since no ring holds another.  Classifications and
    radical quotients are memoized on each ring handle, not here.
    ``usc_reading`` names the one uniqueness reading, exactly one
    decomposition, for the report's ``settings``.

    ``threshold`` is the largest order any build of the suite may have.
    ``quasi_duo_order_limit`` and ``quasi_duo_count_limit`` report the
    bounds of the one lattice per side that ``crosschecks`` builds for
    its radical, quasi-duo and semi-potence oracles, which are
    :func:`one_sided_ideals`' constants.  ``oracle_order_limit`` gates
    regularity by search, ``lemma2.8`` and ``prop2.4``'s generated
    subrings, whose closures are that check's cost.
    ``derived_order_limit`` caps fresh triangular builds; its one reader
    is :meth:`triangulars`, the route of ``example2.3``, ``thm3.11`` and
    ``explore`` to T2 and T3 over a catalog entry.  No limit is set per
    run.  ``iso_order_limit`` bounds nothing: the suite answers
    its isomorphism questions by closed forms.  It stays, with its
    ``settings`` key, because the benchmark harness copies and asserts
    it.  ``jobs`` is accepted for compatibility and changes neither
    output nor scheduling.
    """

    usc_reading = "exact-one"
    derived_order_limit = 1024
    iso_order_limit = 64
    oracle_order_limit = 64
    quasi_duo_order_limit = DEFAULT_IDEAL_ORDER_LIMIT
    quasi_duo_count_limit = DEFAULT_IDEAL_COUNT_LIMIT

    def __init__(
        self,
        entries: Optional[list[CatalogEntry]] = None,
        *,
        threshold: int = DEFAULT_THRESHOLD,
        jobs: int = 1,
    ):
        self.entries = entries if entries is not None else default_catalog(threshold)
        self.threshold = threshold
        self.jobs = max(1, jobs)
        self._rings: dict[str, FiniteRing] = {}
        for entry in self.entries:
            self._rings.setdefault(_spec_key(entry.spec), entry.ring)

    def derived(self, spec: dict) -> FiniteRing:
        """Build (or reuse) a ring by spec; caller handles size errors."""
        key = _spec_key(spec)
        ring = self._rings.get(key)
        if ring is None:
            ring = build(spec, threshold=self.threshold, validate=False)
            self._rings[key] = ring
        return ring

    def triangulars(self, entry: CatalogEntry) -> list[tuple[int, str, Optional[Classification]]]:
        """``(n, "X:Tn", classification)`` of T2 and T3 over a catalog entry.

        A ring already in the cache (such as the catalog's T3(Z4)) is
        reused whatever its size; a fresh build above the budget gives
        None instead of a classification.
        """
        out = []
        for n in (2, 3):
            spec = {"triangular": {"n": n, "base": entry.spec}}
            # From the base's order: a quotient base's order needs the built ring.
            order = _FAMILIES["triangular"].order(spec["triangular"], entry.ring.order)
            permitted = _spec_key(spec) in self._rings or order <= self.derived_order_limit
            out.append((n, f"{entry.name}:T{n}",
                        classify(self.derived(spec)) if permitted else None))
        return out


def _spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def _of_kind(ctx: SuiteContext, rep: TheoremReport, *kinds: str) -> list[tuple]:
    """``(entry, kind, args)`` for each catalog entry whose spec is ``{kind: args}``.

    The checks of a spec kind read the entry's parts as
    ``ctx.derived(child spec)``.  With no such entry, ``rep`` gets the
    single ``(none)`` not-applicable row.
    """
    out = [(entry, kind, entry.spec[kind]) for entry in ctx.entries
           if isinstance(entry.spec, dict) for kind in kinds if kind in entry.spec]
    if not out:
        rep.add("(none)", NA)
    return out


def _is_trivial(ring: FiniteRing) -> bool:
    return ring.order == 1


def _id_set_is_zero_one(ring: FiniteRing) -> bool:
    idem = get_cache(ring).idempotent_mask
    expected = {ring.zero, ring.one}
    return set(int(i) for i in np.flatnonzero(idem)) == expected


def _nonzero_idempotents(ring: FiniteRing) -> list[int]:
    idem = np.flatnonzero(get_cache(ring).idempotent_mask)
    return [int(e) for e in idem if int(e) != ring.zero]


def _radical_quotient_is_z2(ring: FiniteRing) -> bool:
    """R/J is Z2: every unital ring of order 2 is Z2, so iff |R| = 2|J|."""
    return ring.order == 2 * int(get_cache(ring).jacobson_mask.sum())


def _is_m2_f2_corner(ring: FiniteRing, e: int) -> bool:
    """eRe is isomorphic to M2(F2), read without building eRe.

    J(eRe) = eJe (Lam, *A First Course in Noncommutative Rings*, Thm
    21.10), so eRe is semisimple iff eJe = 0.  By Wedderburn-Artin a
    semisimple ring of order 16 is a product of rings M_n(F_q), and the
    only non-commutative one is M2(F2).
    """
    k = _corner_subset(ring, e)
    if k.size != 16:
        return False
    mul = ring.mul_table
    jac = np.flatnonzero(get_cache(ring).jacobson_mask)
    if (mul[mul[e, jac], e] != ring.zero).any():
        return False
    block = mul[np.ix_(k, k)]
    return not (block == block.T).all()


# ---------------------------------------------------------------------------
# individual checks


def _check_example1_4(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport("example1.4", "flagship examples: Z2[x] and T2(Z2)")
    z2 = ctx.derived({"zn": 2})
    view = poly_view(z2)
    cusc, _ = poly_is_cusc(view)
    clean = poly_is_clean(view)
    rep.require("Z2[x]", cusc and not clean,
                {"cusc": cusc, "clean": clean},
                {"cusc": True, "clean": False, "note": "not USC since USC rings are clean"})
    t2 = ctx.derived({"triangular": {"n": 2, "base": {"zn": 2}}})
    c = classify(t2)
    rep.require("T2(Z2)", c.is_UUC and not c.is_CUC,
                {"is_UUC": c.is_UUC, "is_CUC": c.is_CUC})
    rep.require("T2(Z2)", c.is_CUSC and not c.is_CUC,
                {"is_CUSC": c.is_CUSC, "is_CUC": c.is_CUC})
    return rep


def _check_prop2_1(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "prop2.1",
        "abelian rings: two-good/idempotent triviality, UUSC, UUC, CUC, CUSC agree",
    )
    for entry in ctx.entries:
        ring = entry.ring
        c = classify(ring)
        if not c.is_abelian:
            rep.add(entry.name, NA, "not abelian")
            continue
        # 0 = 1 + (-1) is always two-good; no other idempotent may be.
        unit_mask = get_cache(ring).unit_mask
        cond1 = all(_two_good_pair(ring, unit_mask, e) is None
                    for e in _nonzero_idempotents(ring))
        values = (cond1, c.is_UUSC, c.is_UUC, c.is_CUC, c.is_CUSC)
        rep.require(entry.name, len(set(values)) == 1,
                    {"conditions": list(values)})
    return rep


def _check_example2_3(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "example2.3",
        "trivial idempotents: CUSC iff 1 not two-good; USC commutative bases give USC non-CUC triangulars",
    )
    for entry in ctx.entries:
        ring = entry.ring
        if _is_trivial(ring):
            rep.add(entry.name, NA, "order 1")
            continue
        c = classify(ring)
        if _id_set_is_zero_one(ring):
            agree = (c.is_CUSC == (not c.one_is_two_good) == c.is_UUSC)
            rep.require(entry.name, agree, {
                "is_CUSC": c.is_CUSC,
                "one_is_two_good": c.one_is_two_good,
                "is_UUSC": c.is_UUSC,
            })
        else:
            rep.add(entry.name, NA, "idempotents beyond 0 and 1")
    for entry in ctx.entries:
        c = classify(entry.ring)
        if not (c.is_commutative and c.is_USC) or _is_trivial(entry.ring):
            continue
        for _, label, ct in ctx.triangulars(entry):
            if ct is None:
                rep.add(label, SKIP, "triangular ring above derived-size budget")
                continue
            rep.require(label, ct.is_USC and ct.is_CUSC and not ct.is_CUC, {
                "is_USC": ct.is_USC, "is_CUSC": ct.is_CUSC, "is_CUC": ct.is_CUC,
            })
    return rep


def _check_prop2_4(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "prop2.4", "subrings (corners and generated subrings) inherit CUSC/UUSC"
    )
    for entry in ctx.entries:
        ring = entry.ring
        c = classify(ring)
        if not (c.is_CUSC or c.is_UUSC):
            rep.add(entry.name, NA, "neither CUSC nor UUSC")
            continue
        seen: set[frozenset] = set()
        subrings: list[tuple[str, np.ndarray, int]] = []
        for e in _nonzero_idempotents(ring):
            if e == ring.one:
                continue
            k = _corner_subset(ring, e)
            key = frozenset(k.tolist())
            if key in seen:
                continue
            seen.add(key)
            subrings.append((f"corner e={ring.label_of(e)}", k, e))
        if ring.order <= ctx.oracle_order_limit:
            gen_seen: set[frozenset] = set()
            for a in range(ring.order):
                ids = _subring_closure(ring, [a])
                key = frozenset(ids.tolist())
                if key in gen_seen or ids.size == ring.order:
                    continue
                gen_seen.add(key)
                subrings.append((f"subring gen {ring.label_of(a)}", ids, ring.one))
        bad = None
        for desc, members, one in subrings:
            cusc, uusc = _subring_is_cusc_uusc(ring, members, one)
            if c.is_CUSC and not cusc:
                bad = (desc, "CUSC lost")
                break
            if c.is_UUSC and not uusc:
                bad = (desc, "UUSC lost")
                break
        rep.require(entry.name, bad is None, bad,
                    {"subrings_checked": len(subrings)})
    return rep


def _check_prop2_5(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport("prop2.5", "products are CUSC/UUSC iff every factor is")
    instances = [(e.name, e.spec, e.ring) for e in ctx.entries
                 if isinstance(e.spec, dict) and "product" in e.spec]
    fresh = {"product": [{"zn": 2}, {"zn": 3}]}
    instances.append(("Z2xZ3", fresh, ctx.derived(fresh)))
    for name, spec, ring in instances:
        c = classify(ring)
        factor_classes = [classify(ctx.derived(s)) for s in spec["product"]]
        ok = (
            c.is_CUSC == all(f.is_CUSC for f in factor_classes)
            and c.is_UUSC == all(f.is_UUSC for f in factor_classes)
        )
        rep.require(name, ok, {
            "product": {"is_CUSC": c.is_CUSC, "is_UUSC": c.is_UUSC},
            "factors": [
                {"is_CUSC": f.is_CUSC, "is_UUSC": f.is_UUSC} for f in factor_classes
            ],
        })
    return rep


def _check_cor2_6(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport("cor2.6", "subdirect products of CUSC/UUSC rings are CUSC/UUSC")
    # Prime subrings (generated by 1) of products, read from the
    # product's masks: each must surject onto every factor.
    for name, spec in (
        ("diag(Z2xZ2)", {"product": [{"zn": 2}, {"zn": 2}]}),
        ("Z4 in Z2xZ4", {"product": [{"zn": 2}, {"zn": 4}]}),
        ("diag(Z2xZ2xZ2)", {"product": [{"zn": 2}, {"zn": 2}, {"zn": 2}]}),
    ):
        product = ctx.derived(spec)
        members = _subring_closure(product, [])
        weights = product.meta["axis_weights"]
        sizes = product.meta["axis_sizes"]
        surjective = all(
            len({(int(i) // w) % s for i in members}) == s
            for w, s in zip(weights, sizes)
        )
        if not surjective:
            rep.add(name, FAIL, "instance is not subdirect")
            continue
        factors = [classify(ctx.derived(s)) for s in spec["product"]]
        cusc, uusc = _subring_is_cusc_uusc(product, members, product.one)
        ok = True
        detail = {"subring_order": members.size}
        if all(f.is_CUSC for f in factors) and not cusc:
            ok, detail = False, "CUSC not inherited by subdirect product"
        if all(f.is_UUSC for f in factors) and not uusc:
            ok, detail = False, "UUSC not inherited by subdirect product"
        rep.require(name, ok, detail, detail)
    return rep


def _check_cor2_7(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "cor2.7", "central idempotent e: R is CUSC/UUSC iff both Peirce corners are"
    )
    for entry in ctx.entries:
        ring = entry.ring
        cache = get_cache(ring)
        central_idem = [
            int(e) for e in np.flatnonzero(cache.idempotent_mask & cache.center_mask)
            if int(e) not in (ring.zero, ring.one)
        ]
        if not central_idem:
            rep.add(entry.name, NA, "no proper central idempotent")
            continue
        c = classify(ring)
        bad = None
        for e in central_idem:
            parts = [_subring_is_cusc_uusc(ring, _corner_subset(ring, f), f)
                     for f in (e, ring.sub(ring.one, e))]
            if c.is_CUSC != all(cusc for cusc, _ in parts):
                bad = {"idempotent": ring.label_of(e), "predicate": "CUSC"}
                break
            if c.is_UUSC != all(uusc for _, uusc in parts):
                bad = {"idempotent": ring.label_of(e), "predicate": "UUSC"}
                break
        rep.require(entry.name, bad is None, bad,
                    {"central_idempotents": len(central_idem)})
    return rep


def _radical_subideals(ctx: SuiteContext, ring: FiniteRing) -> list[tuple[str, list[int]]]:
    """Deterministic sample of two-sided ideals inside the radical."""
    jac = jacobson_radical(ring).tolist()
    out = [("0", [])]
    if len(jac) > 1:
        out.append(("J", jac))
    if ring.order <= ctx.oracle_order_limit:
        seen = {frozenset({ring.zero}), frozenset(jac)}
        for j in jac:
            if j == ring.zero:
                continue
            ideal = ideal_generated(ring, [j]).tolist()
            key = frozenset(ideal)
            if key in seen:
                continue
            seen.add(key)
            out.append((f"<{ring.label_of(j)}>", ideal))
    return out


def _check_lemma2_8(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "lemma2.8", "ideals inside the radical: UUSC/CUSC transfer between R and R/I"
    )
    for entry in ctx.entries:
        ring = entry.ring
        c = classify(ring)
        bad = None
        checked = 0
        for ideal_name, ideal_ids in _radical_subideals(ctx, ring):
            quot = (radical_quotient(ring) if ideal_name == "J"
                    else quotient_ring(ring, ideal_ids) if ideal_ids else ring)
            qc = classify(quot)
            checked += 1
            if qc.is_UUSC and not c.is_UUSC:
                bad = {"ideal": ideal_name, "direction": "R/I UUSC => R UUSC"}
                break
            # I lies in J, which is nilpotent, so idempotents lift modulo I (Lam §21).
            if c.is_UUSC and c.is_abelian and not qc.is_UUSC:
                bad = {"ideal": ideal_name, "direction": "R UUSC abelian lifting => R/I UUSC"}
                break
            if qc.is_CUSC and c.is_abelian and not c.is_CUSC:
                bad = {"ideal": ideal_name, "direction": "R/I CUSC, R abelian => R CUSC"}
                break
            if c.is_CUSC and c.is_abelian and not qc.is_CUSC:
                bad = {"ideal": ideal_name, "direction": "R CUSC abelian lifting => R/I CUSC"}
                break
        rep.require(entry.name, bad is None, bad, {"ideals_checked": checked})
    return rep


def _check_prop2_2(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "prop2.2", "local characterizations: CUSC+local, R/J = Z2, UC, USC, CUC variants agree"
    )
    for entry in ctx.entries:
        ring = entry.ring
        if _is_trivial(ring):
            rep.add(entry.name, NA, "order 1")
            continue
        c = classify(ring)
        trivial_idem = _id_set_is_zero_one(ring)
        conditions = (
            c.is_CUSC and c.is_local,
            _radical_quotient_is_z2(ring),
            c.is_UC and c.is_local,
            c.is_UC and trivial_idem,
            c.is_USC and c.is_local,
            c.is_USC and trivial_idem,
            c.is_CUC and c.is_local,
        )
        rep.require(entry.name, len(set(conditions)) == 1,
                    {"conditions": list(conditions)})
    return rep


def _check_cor2_14(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "cor2.14",
        "UUSC transfer: truncated (skew) polynomials, trivial extensions, "
        "formal triangular and triangular matrix rings",
    )
    for entry, kind, args in _of_kind(ctx, rep, "trunc_poly", "skew_trunc_poly",
                                      "trivial_extension", "formal_triangular", "triangular"):
        c = classify(entry.ring)
        parts = [classify(ctx.derived(s)).is_UUSC for s in _FAMILIES[kind].children(args)]
        names = ("a", "b") if kind == "formal_triangular" else ("base",)
        rep.require(entry.name, c.is_UUSC == all(parts),
                    {"ring": c.is_UUSC, **dict(zip(names, parts))})
    return rep


def _check_morita(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "morita", "trivial Morita contexts are UUSC iff both corner rings are"
    )
    for entry, _, args in _of_kind(ctx, rep, "trivial_morita"):
        c = classify(entry.ring)
        a = classify(ctx.derived(args["a"]))
        b = classify(ctx.derived(args["b"]))
        rep.require(entry.name, c.is_UUSC == (a.is_UUSC and b.is_UUSC),
                    {"ring": c.is_UUSC, "a": a.is_UUSC, "b": b.is_UUSC})
    return rep


def _check_tav(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "tav",
        "trivial extension CUSC implies base CUSC; converse under central action",
    )
    for entry, _, base_spec in _of_kind(ctx, rep, "trivial_extension"):
        c = classify(entry.ring)
        bc = classify(ctx.derived(base_spec))
        if c.is_CUSC and not bc.is_CUSC:
            rep.add(entry.name, FAIL, "T(A,A) CUSC but A is not")
            continue
        # The action centrality hypothesis (ex = xe on V = A) is the
        # abelian condition on the base.
        if bc.is_CUSC and bc.is_abelian and not c.is_CUSC:
            rep.add(entry.name, FAIL, "A CUSC abelian but T(A,A) is not")
            continue
        rep.add(entry.name, PASS, {"ring": c.is_CUSC, "base": bc.is_CUSC})
    return rep


def _check_prop2_18(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "prop2.18", "an UUSC (CUSC) ideal extension has an UUSC (CUSC) base"
    )
    for entry, _, args in _of_kind(ctx, rep, "ideal_extension"):
        c = classify(entry.ring)
        bc = classify(ctx.derived(args["base"]))
        ok = (not c.is_UUSC or bc.is_UUSC) and (not c.is_CUSC or bc.is_CUSC)
        rep.require(entry.name, ok, {
            "extension": {"is_UUSC": c.is_UUSC, "is_CUSC": c.is_CUSC},
            "base": {"is_UUSC": bc.is_UUSC, "is_CUSC": bc.is_CUSC},
        })
    return rep


def _check_prop2_19(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "prop2.19",
        "base UUSC (CUSC) + central idempotent action + quasi-regular module "
        "forces the ideal extension UUSC (CUSC)",
    )
    for entry, _, args in _of_kind(ctx, rep, "ideal_extension"):
        hyp = entry.ring.meta.get("hypotheses", {})
        if not (hyp.get("idempotents_central_on_m") and hyp.get("m_quasi_regular")):
            rep.add(entry.name, NA, {"hypotheses": hyp})
            continue
        c = classify(entry.ring)
        bc = classify(ctx.derived(args["base"]))
        ok = (not bc.is_UUSC or c.is_UUSC) and (not bc.is_CUSC or c.is_CUSC)
        rep.require(entry.name, ok, {
            "base": {"is_UUSC": bc.is_UUSC, "is_CUSC": bc.is_CUSC},
            "extension": {"is_UUSC": c.is_UUSC, "is_CUSC": c.is_CUSC},
        })
    return rep


def _check_thm3_1(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "thm3.1",
        "semi-potent rings: six equivalent forms of 'units are radical "
        "translates of central idempotents'",
    )
    for entry in ctx.entries:
        ring = entry.ring
        c = classify(ring)
        if not c.is_semi_potent:
            rep.add(entry.name, FAIL, "finite ring reported non-semi-potent (bug)")
            continue
        cache = get_cache(ring)
        quot = radical_quotient(ring)
        qc = classify(quot)
        units = np.flatnonzero(cache.unit_mask)
        # The sweep with J for U: how many ways each unit is e + j.
        _, _, in_j, _ = _sweep(ring, units, unit=cache.jacobson_mask)
        counts = in_j.sum(axis=1)
        cond = (
            qc.is_UUSC,
            qc.is_boolean,
            c.U_equals_one_plus_J,
            bool(cache.ucn0_mask[units].all()),
            bool((counts == 1).all()),
            bool((counts >= 1).all()),
        )
        rep.require(entry.name, len(set(cond)) == 1, {"conditions": list(cond)})
    return rep


def _check_quasiduo(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport("quasiduo", "potent UUSC rings are left and right quasi-duo")
    for entry in ctx.entries:
        c = classify(entry.ring)
        if not (c.is_potent and c.is_UUSC):
            rep.add(entry.name, NA, "not potent UUSC")
            continue
        rep.require(entry.name, c.is_quasi_duo_left and c.is_quasi_duo_right, {
            "left": c.is_quasi_duo_left, "right": c.is_quasi_duo_right,
        })
    return rep


def _check_cor3_2(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport("cor3.2", "regular rings: UUSC iff boolean")
    for entry in ctx.entries:
        c = classify(entry.ring)
        if not c.is_regular:
            rep.add(entry.name, NA, "not regular")
            continue
        rep.require(entry.name, c.is_UUSC == c.is_boolean,
                    {"is_UUSC": c.is_UUSC, "is_boolean": c.is_boolean})
    return rep


def _check_prop3_3(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport("prop3.3", "USC iff clean and CUSC")
    for entry in ctx.entries:
        c = classify(entry.ring)
        rep.require(entry.name, c.is_USC == (c.is_clean and c.is_CUSC), {
            "is_USC": c.is_USC, "is_clean": c.is_clean, "is_CUSC": c.is_CUSC,
        })
    return rep


def _check_thm3_4(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport("thm3.4", "USC iff CUSC and potent")
    for entry in ctx.entries:
        c = classify(entry.ring)
        rep.require(entry.name, c.is_USC == (c.is_CUSC and c.is_potent), {
            "is_USC": c.is_USC, "is_CUSC": c.is_CUSC, "is_potent": c.is_potent,
        })
    return rep


def _check_cor3_5(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "cor3.5",
        "CUSC rings: clean, potent, USC, strongly clean agree "
        "(the exchange condition coincides with clean on finite rings)",
    )
    for entry in ctx.entries:
        c = classify(entry.ring)
        if not c.is_CUSC:
            rep.add(entry.name, NA, "not CUSC")
            continue
        legs = (c.is_clean, c.is_potent, c.is_USC, c.is_strongly_clean)
        rep.require(entry.name, len(set(legs)) == 1, {"legs": list(legs)})
    return rep


def _check_cor3_6(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport("cor3.6", "semi-boolean iff potent with UUSC radical quotient")
    for entry in ctx.entries:
        c = classify(entry.ring)
        qc = classify(radical_quotient(entry.ring))
        rep.require(
            entry.name,
            c.is_semi_boolean == (c.is_potent and qc.is_UUSC),
            {"is_semi_boolean": c.is_semi_boolean, "is_potent": c.is_potent,
             "quotient_is_UUSC": qc.is_UUSC},
        )
    return rep


def _check_cor3_8(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "cor3.8",
        "rings equal to central-idempotent-plus-radical are USC; T2(Z2) separates the converse",
    )
    for entry in ctx.entries:
        c = classify(entry.ring)
        if not c.R_equals_ucn0:
            rep.add(entry.name, NA, "R != ucn0(R)")
            continue
        rep.require(entry.name, c.is_USC, {"is_USC": c.is_USC})
    t2 = ctx.derived({"triangular": {"n": 2, "base": {"zn": 2}}})
    c = classify(t2)
    cache = get_cache(t2)
    a = t2.id_of("(1 1;0 0)")
    e = t2.id_of("(1 0;0 0)")
    u = t2.id_of("(0 1;0 0)")
    witness_ok = (
        a is not None and e is not None and u is not None
        and not cache.ucn0_mask[a]
        and t2.add(e, u) == a
        and t2.mul(e, e) == e
        and not cache.center_mask[e]
    )
    rep.require(
        "T2(Z2) converse", c.is_USC and not c.R_equals_ucn0 and witness_ok,
        {"is_USC": c.is_USC, "R_equals_ucn0": c.R_equals_ucn0,
         "witness_valid": witness_ok},
        {"witness": "(1 1;0 0) = (1 0;0 0) + (0 1;0 0), first summand non-central"},
    )
    return rep


def _check_thm3_9(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport("thm3.9", "semi-potent CUSC/UUSC rings contain 2 in the radical")
    for entry in ctx.entries:
        c = classify(entry.ring)
        if not ((c.is_CUSC or c.is_UUSC) and c.is_semi_potent):
            rep.add(entry.name, NA, "hypotheses unmet")
            continue
        rep.require(entry.name, c.two_in_J, {"two_in_J": c.two_in_J})
    return rep


def _check_thm3_10(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "thm3.10",
        "CUSC/UUSC obstructions: no two-good identity, no corner-unit sums, "
        "no 2x2 matrix corners, in R and in R/J",
    )
    for entry in ctx.entries:
        ring = entry.ring
        c = classify(ring)
        if _is_trivial(ring) or not (c.is_CUSC or c.is_UUSC):
            rep.add(entry.name, NA, "hypotheses unmet")
            continue
        problems = []
        if c.one_is_two_good:
            problems.append("identity is two-good")
        quot = radical_quotient(ring)
        qc = classify(quot)
        if qc.one_is_two_good:
            problems.append("identity is two-good modulo the radical")
        for scope_name, scope in (("R", ring), ("R/J", quot)):
            for e in _nonzero_idempotents(scope):
                corner_units = _subring_units(scope, _corner_subset(scope, e), e)
                pair = _two_good_pair(scope, corner_units, e)
                if pair is not None:
                    problems.append({
                        "scope": scope_name,
                        "idempotent": scope.label_of(e),
                        "units": [scope.label_of(pair[0]), scope.label_of(pair[1])],
                    })
                if _is_m2_f2_corner(scope, e):
                    problems.append({
                        "scope": scope_name,
                        "idempotent": scope.label_of(e),
                        "matrix_corner": "M2(F2)",
                    })
        rep.require(entry.name, not problems, problems)
    return rep


def _check_thm3_11(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "thm3.11",
        "commutative semi-potent bases: CUSC = CUC = CUSC of every triangular ring",
    )
    for entry in ctx.entries:
        c = classify(entry.ring)
        if not (c.is_commutative and c.is_semi_potent):
            rep.add(entry.name, NA, "not a commutative semi-potent base")
            continue
        if c.is_CUSC != c.is_CUC:
            rep.add(entry.name, FAIL, {
                "is_CUSC": c.is_CUSC, "is_CUC": c.is_CUC,
            })
            continue
        for _, label, tc in ctx.triangulars(entry):
            if tc is None:
                rep.add(label, SKIP, "triangular ring above derived-size budget")
                continue
            rep.require(label, tc.is_CUSC == c.is_CUSC,
                        {"base_CUSC": c.is_CUSC, "triangular_CUSC": tc.is_CUSC})
    return rep


def _check_lemma4_1(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "lemma4.1",
        "group rings whose idempotents all lie in the base: CUSC/UUSC transfer",
    )
    for entry, _, args in _of_kind(ctx, rep, "group_ring"):
        ring = entry.ring
        idem = np.flatnonzero(get_cache(ring).idempotent_mask)
        if not np.isin(idem, ring.meta["base_embedding"]).all():
            rep.add(entry.name, NA, "idempotents outside the base")
            continue
        c = classify(ring)
        bc = classify(ctx.derived(args["base"]))
        ok = c.is_CUSC == bc.is_CUSC and c.is_UUSC == bc.is_UUSC
        rep.require(entry.name, ok, {
            "group_ring": {"is_CUSC": c.is_CUSC, "is_UUSC": c.is_UUSC},
            "base": {"is_CUSC": bc.is_CUSC, "is_UUSC": bc.is_UUSC},
        })
    return rep


def _check_prop4_4(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "prop4.4", "2-groups over semi-potent UUSC bases give UUSC group rings"
    )
    for entry, _, args in _of_kind(ctx, rep, "group_ring"):
        bc = classify(ctx.derived(args["base"]))
        if not (entry.ring.meta["group"].is_two_group and bc.is_UUSC and bc.is_semi_potent):
            rep.add(entry.name, NA, "hypotheses unmet")
            continue
        c = classify(entry.ring)
        rep.require(entry.name, c.is_UUSC, {"is_UUSC": c.is_UUSC})
    return rep


def _check_thm4_3(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "thm4.3",
        "potent base, locally finite group: the group ring is CUSC/UUSC iff "
        "the base is and the group is a 2-group",
    )
    for entry, _, args in _of_kind(ctx, rep, "group_ring"):
        bc = classify(ctx.derived(args["base"]))
        if not bc.is_potent:
            rep.add(entry.name, NA, "base not potent")
            continue
        c = classify(entry.ring)
        two = entry.ring.meta["group"].is_two_group
        ok = (
            c.is_CUSC == (bc.is_CUSC and two)
            and c.is_UUSC == (bc.is_UUSC and two)
        )
        rep.require(entry.name, ok, {
            "group_ring": {"is_CUSC": c.is_CUSC, "is_UUSC": c.is_UUSC},
            "base": {"is_CUSC": bc.is_CUSC, "is_UUSC": bc.is_UUSC},
            "two_group": two,
        })
    return rep


def _check_crosschecks(ctx: SuiteContext) -> TheoremReport:
    rep = TheoremReport(
        "crosschecks",
        "dual-route verification: radical vs maximal left ideals, quasi-duo vs "
        "maximal one-sided ideals, unit lifting, augmentation kernel, lattice "
        "semi-potence, axiom validation",
    )
    for entry in ctx.entries:
        ring = entry.ring
        problems = []
        report = validate_axioms(ring)
        if not report.ok:
            problems.append(f"axioms: {report.axiom} at {report.witness}")
        cache = get_cache(ring)
        jac = cache.jacobson_mask
        jac_ids = np.flatnonzero(jac).tolist()
        if ring.order <= ctx.oracle_order_limit:
            # classify reads regularity off J = 0; search for x with axa = a.
            by_search = _least_non_regular(ring) is None
            if by_search != classify(ring).is_regular:
                problems.append({"regular_mismatch": {"element_search": by_search}})
        if ring.order <= ctx.quasi_duo_order_limit:
            # One lattice per side feeds three oracles: J as the meet of
            # the maximal left ideals, quasi-duo and semi-potence.
            try:
                lattices = {side: one_sided_ideals(ring, side) for side in ("left", "right")}
            except LatticeLimitError as exc:
                rep.add(entry.name, SKIP, str(exc))
                continue
            maximal = {side: maximal_members(lattice, ring.order)
                       for side, lattice in lattices.items()}
            meet = set(range(ring.order)).intersection(*maximal["left"])
            if meet != set(jac_ids):
                problems.append({
                    "radical_mismatch": {
                        "quasi_regular": jac_ids,
                        "maximal_meet": sorted(meet),
                    }
                })
            # Quasi-duo by definition: every maximal one-sided ideal is
            # two-sided.
            c = classify(ring)
            closed_form = {"left": c.is_quasi_duo_left, "right": c.is_quasi_duo_right}
            by_lattice = {side: all(is_two_sided_ideal(ring, m) for m in ms)
                          for side, ms in maximal.items()}
            if by_lattice != closed_form:
                problems.append({"quasi_duo_mismatch": {
                    "closed_form": closed_form, "lattice": by_lattice,
                }})
            # Semi-potent: a left ideal outside J holds a nonzero idempotent.
            nz_idem = cache.idempotent_mask.copy()
            nz_idem[ring.zero] = False
            for ideal in lattices["left"]:
                ids = list(ideal)
                if not jac[ids].all() and not nz_idem[ids].any():
                    problems.append({"semi_potent_lattice": sorted(ideal)})
                    break
        if not idempotents_lift_mod(ring, jac_ids).lifts:
            problems.append("idempotents fail to lift modulo the radical")
        quot = radical_quotient(ring)
        proj = quot.meta["projection"]
        qunits = get_cache(quot).unit_mask
        if not (cache.unit_mask == qunits[proj]).all():
            problems.append("units do not match the radical-quotient preimage")
        if isinstance(entry.spec, dict) and "group_ring" in entry.spec:
            eps = ring.meta["augmentation"]
            base = ctx.derived(entry.spec["group_ring"]["base"])
            lhs = eps[ring.mul_table]
            rhs = base.mul_table[eps[:, None], eps[None, :]]
            if not (lhs == rhs).all():
                problems.append("augmentation is not multiplicative")
            if int(eps[ring.one]) != base.one:
                problems.append("augmentation misses the identity")
            if len(np.unique(eps)) != base.order:
                problems.append("augmentation is not surjective")
            if not np.array_equal(np.flatnonzero(eps == base.zero), ring.meta["aug_kernel"]):
                problems.append("augmentation kernel differs from the ideal <1-g>")
        rep.require(entry.name, not problems, problems)
    return rep


def _check_explore(ctx: SuiteContext) -> TheoremReport:
    """Report-only observations; never fails.

    Sweeps UUSC transfer to triangular rings, posed as an open question
    for the statement proved for CUSC: for each commutative entry, the
    UUSC flags of the T2 and T3 that :meth:`SuiteContext.triangulars`
    classifies, beside the base's.  A T_n past the budget is left out
    of the row, not reported as skipped.
    """
    rep = TheoremReport("explore", "observational sweeps (UUSC triangulars)")
    for entry in ctx.entries:
        c = classify(entry.ring)
        if not c.is_commutative:
            continue
        observations = {f"T{n}_is_UUSC": tc.is_UUSC
                        for n, _, tc in ctx.triangulars(entry) if tc is not None}
        if observations:
            observations["base_is_UUSC"] = c.is_UUSC
            rep.add(entry.name, PASS, observations)
    if not rep.rows:
        rep.add("(none)", PASS)
    return rep


#: Registry of check ids in execution order.
CHECKS: dict[str, tuple[str, Callable[[SuiteContext], TheoremReport]]] = {
    "example1.4": ("flagship examples", _check_example1_4),
    "prop2.1": ("abelian equivalences", _check_prop2_1),
    "example2.3": ("trivial-idempotent criterion; triangular USC", _check_example2_3),
    "prop2.4": ("subring inheritance", _check_prop2_4),
    "prop2.5": ("finite products", _check_prop2_5),
    "cor2.6": ("subdirect products", _check_cor2_6),
    "cor2.7": ("Peirce decomposition", _check_cor2_7),
    "lemma2.8": ("radical subideal transfer", _check_lemma2_8),
    "prop2.2": ("local characterizations", _check_prop2_2),
    "cor2.14": ("extension corollaries", _check_cor2_14),
    "morita": ("trivial Morita contexts", _check_morita),
    "tav": ("trivial extension CUSC transfer", _check_tav),
    "prop2.18": ("ideal extension necessity", _check_prop2_18),
    "prop2.19": ("ideal extension sufficiency", _check_prop2_19),
    "thm3.1": ("semi-potent six equivalences", _check_thm3_1),
    "quasiduo": ("quasi-duo corollary", _check_quasiduo),
    "cor3.2": ("regular rings", _check_cor3_2),
    "prop3.3": ("USC = clean + CUSC", _check_prop3_3),
    "thm3.4": ("USC = CUSC + potent", _check_thm3_4),
    "cor3.5": ("CUSC equivalences", _check_cor3_5),
    "cor3.6": ("semi-boolean criterion", _check_cor3_6),
    "cor3.8": ("central-idempotent translates", _check_cor3_8),
    "thm3.9": ("2 in the radical", _check_thm3_9),
    "thm3.10": ("two-good obstructions", _check_thm3_10),
    "thm3.11": ("triangular CUSC criterion", _check_thm3_11),
    "lemma4.1": ("group rings with base idempotents", _check_lemma4_1),
    "prop4.4": ("2-group group rings", _check_prop4_4),
    "thm4.3": ("group ring criterion", _check_thm4_3),
    "crosschecks": ("dual-route verification", _check_crosschecks),
    "explore": ("observational sweeps", _check_explore),
}


def select_checks(check_ids: list[str]) -> list[str]:
    """The registered ids among ``check_ids``, in registry order.

    Ids are stripped and blank ones dropped, so a ``--theorem`` value
    split on commas can be passed as is.  An unknown id or an empty
    selection raises :class:`SpecError`.
    """
    wanted = {c.strip() for c in check_ids} - {""}
    unknown = wanted - CHECKS.keys()
    if unknown:
        raise SpecError(f"unknown theorem ids: {', '.join(sorted(unknown))}")
    if not wanted:
        raise SpecError("no theorem ids selected")
    return [c for c in CHECKS if c in wanted]


def run_suite(
    ctx: SuiteContext, check_ids: Optional[list[str]] = None
) -> list[TheoremReport]:
    """Run the selected checks (all by default) in registry order."""
    selected = list(CHECKS) if check_ids is None else select_checks(check_ids)
    return [CHECKS[cid][1](ctx) for cid in selected]


def suite_to_json(ctx: SuiteContext, reports: list[TheoremReport]) -> dict:
    return {
        "catalog": [
            {"name": e.name, "order": e.ring.order} for e in ctx.entries
        ],
        "settings": {
            "usc_reading": ctx.usc_reading,
            "threshold": ctx.threshold,
            "derived_order_limit": ctx.derived_order_limit,
            "iso_order_limit": ctx.iso_order_limit,
            "oracle_order_limit": ctx.oracle_order_limit,
            "quasi_duo_order_limit": ctx.quasi_duo_order_limit,
            "quasi_duo_count_limit": ctx.quasi_duo_count_limit,
        },
        "checks": [r.to_json() for r in reports],
        "all_pass": all(r.aggregate == PASS for r in reports),
    }
