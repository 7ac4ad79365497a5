"""Executable checks of ring-theoretic statements over a ring catalog.

Each check instantiates one statement about clean/strongly-clean
decomposition uniqueness on every applicable catalog ring and reports a
verdict per ring: ``pass``, ``fail`` (with a machine-checkable
witness), ``not-applicable`` (hypotheses unmet), or ``skipped`` (size
bounds).  An aggregate failure anywhere signals an implementation bug,
never new mathematics: every statement checked here is established.

Every check has a ``check_id``, a ``title`` and a ``rows(ctx)`` that
yields ``(ring, verdict, detail[, facts])``; calling the check turns its
rows into its :class:`TheoremReport`.  Seventeen checks read only
classifications (of a ring, of the rings it is built from and of R/J)
and flags of the ring's ``meta``.  Each is one :class:`Statement` of
:data:`STATEMENTS`; ``cor3.8`` adds a witness row to its statement's.
The others read masks, sweeps or ideal lattices and are a :class:`Check`
over a row function; the eight with one row per catalog entry share
one entry loop, :func:`_each_entry`.  No check builds a subring or
corner: ``prop2.4``, ``cor2.6``, ``cor2.7`` and ``thm3.10`` read them
from the parent's unit and idempotent masks through
:mod:`ringlab.elements`.

Checks share a :class:`SuiteContext` holding the catalog and the rings
derived by spec.  A ring's classification and its R/J live in the ring's
own memo (:mod:`ringlab.invariants`), computed once per ring handle.
Reports are byte-identical across runs and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional

import numpy as np

from .catalog import CatalogEntry, default_catalog
from .classify import Classification, _least_non_regular, classify, radical_quotient
from .construct import (
    _FAMILIES,
    _corner_subset,
    _node,
    _subring_closure,
    build,
    quotient_ring,
    spec_key,
)
from .core import DEFAULT_THRESHOLD, FiniteRing, distinct_ids, validate_axioms
from .elements import _pair_sweep, _subring_is_cusc_uusc, _subring_units, _two_good_pair
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
    facts: Optional[object] = None  # a Statement row's fail detail, on a pass too; not in JSON

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

    def add(self, ring: str, verdict: str, detail=None, facts=None):
        self.rows.append(RingVerdict(ring, verdict, detail, facts))

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
            self._rings.setdefault(spec_key(entry.spec), entry.ring)

    def derived(self, spec: dict) -> FiniteRing:
        """Build (or reuse) a ring by spec; caller handles size errors.

        The dict holds its rings strongly, so their memos last the whole
        suite; :func:`build` only shares a ring that someone still holds.
        """
        key = spec_key(spec)
        ring = self._rings.get(key)
        if ring is None:
            ring = build(spec, threshold=self.threshold)
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
            permitted = spec_key(spec) in self._rings or order <= self.derived_order_limit
            out.append((n, f"{entry.name}:T{n}",
                        classify(self.derived(spec)) if permitted else None))
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


def _is_m2_f2_corner(ring: FiniteRing, e: int, k: np.ndarray) -> bool:
    """eRe is isomorphic to M2(F2), read from its sorted ids ``k`` without building it.

    J(eRe) = eJe (Lam, *A First Course in Noncommutative Rings*, Thm
    21.10), so eRe is semisimple iff eJe = 0.  By Wedderburn-Artin a
    semisimple ring of order 16 is a product of rings M_n(F_q), and the
    only non-commutative one is M2(F2).
    """
    if k.size != 16:
        return False
    mul = ring.mul_table
    jac = np.flatnonzero(get_cache(ring).jacobson_mask)
    if (mul[mul[e, jac], e] != ring.zero).any():
        return False
    block = mul[np.ix_(k, k)]
    return not (block == block.T).all()


# ---------------------------------------------------------------------------
# statements read off classifications


class Reading:
    """What a statement reads of one ring, each part on first use.

    ``ring`` is R's classification; ``parts`` are those of the rings R is
    built from, by child spec (``_node``), and
    ``base`` is the first; ``quotient`` is R/J's.  ``hypotheses``,
    ``two_group`` and ``idempotents_in_base`` are flags of R's ``meta``,
    which ideal extensions and group rings keep.
    """

    def __init__(self, ctx: SuiteContext, ring: FiniteRing, spec: dict):
        self._ctx, self._ring, self._spec, meta = ctx, ring, spec, ring.meta
        self.hypotheses = meta.get("hypotheses", {})
        self.two_group = "group" in meta and meta["group"].is_two_group
        self.idempotents_in_base = "base_embedding" in meta and bool(np.isin(
            np.flatnonzero(get_cache(ring).idempotent_mask), meta["base_embedding"]).all())

    @cached_property
    def ring(self) -> Classification:
        return classify(self._ring)

    @cached_property
    def parts(self) -> list[Classification]:
        return [classify(self._ctx.derived(s)) for _, s in _node(self._spec)[2]]

    @property
    def base(self) -> Classification:
        return self.parts[0]

    @cached_property
    def quotient(self) -> Classification:
        return classify(radical_quotient(self._ring))


class _Rows:
    """A check is the rows it yields: calling it collects them into its report."""

    def __call__(self, ctx: SuiteContext) -> TheoremReport:
        rep = TheoremReport(self.check_id, self.title)
        for row in self.rows(ctx):
            rep.add(*row)
        return rep


@dataclass(frozen=True)
class Statement(_Rows):
    """A check that reads only a :class:`Reading` of each ring.

    It reads the catalog entries of its spec ``kinds`` (every entry if
    none; ``(none)`` is the one row when no entry has them), then the
    fresh rings ``extra``.  A ring whose ``premise`` is false is
    ``not-applicable`` with ``reason`` (a string, or a function of the
    reading); else ``conclusion`` decides it, with ``detail`` on a fail
    and ``passed`` (if given) on a pass.  Both keep ``detail`` as ``facts``.
    """

    check_id: str
    title: str
    conclusion: Callable[[Reading], bool]
    detail: Callable[[Reading], object]
    kinds: tuple[str, ...] = ()
    premise: Optional[Callable[[Reading], bool]] = None
    reason: object = None
    passed: Optional[Callable[[Reading], object]] = None
    extra: tuple[tuple[str, dict], ...] = ()

    def rows(self, ctx: SuiteContext) -> Iterable[tuple]:
        rings = [(e.name, e.spec, e.ring) for e in ctx.entries if not self.kinds
                 or isinstance(e.spec, dict) and not e.spec.keys().isdisjoint(self.kinds)]
        rings += [(name, spec, ctx.derived(spec)) for name, spec in self.extra]
        if self.kinds and not rings:
            yield "(none)", NA, None
        for name, spec, ring in rings:
            r = Reading(ctx, ring, spec)
            if self.premise and not self.premise(r):
                yield name, NA, self.reason(r) if callable(self.reason) else self.reason
                continue
            ok, facts = self.conclusion(r), self.detail(r)
            detail = (self.passed and self.passed(r)) if ok else facts
            yield name, PASS if ok else FAIL, detail, facts


def _fields(c: Classification, *names: str) -> dict:
    """``names`` of ``c`` by name; CUSC and UUSC, which most statements compare, by default."""
    return {name: getattr(c, name) for name in names or ("is_CUSC", "is_UUSC")}


def _like_parts(*names: str) -> Callable[[Reading], bool]:
    """R has each of ``names`` iff every part has it."""
    return lambda r: all(getattr(r.ring, n) == all(getattr(p, n) for p in r.parts) for n in names)


def _uusc_of_parts(r: Reading) -> dict:
    names = ("a", "b") if len(r.parts) == 2 else ("base",)
    return {"ring": r.ring.is_UUSC, **{n: p.is_UUSC for n, p in zip(names, r.parts)}}


def _passes_to(src: Classification, dst: Classification, *names: str) -> bool:
    """Each of ``names`` (UUSC and CUSC by default) that ``src`` has, ``dst`` has too."""
    return all(getattr(dst, n) or not getattr(src, n) for n in names or ("is_UUSC", "is_CUSC"))


_COR3_5_LEGS = ("is_clean", "is_potent", "is_USC", "is_strongly_clean")

#: The statements by check id.  ``cor3.8`` adds its T2(Z2) witness row
#: after its statement's rows.
STATEMENTS: dict[str, Statement] = {s.check_id: s for s in (
    Statement("prop2.5", "products are CUSC/UUSC iff every factor is",
              kinds=("product",), extra=(("Z2xZ3", {"product": [{"zn": 2}, {"zn": 3}]}),),
              conclusion=_like_parts("is_CUSC", "is_UUSC"),
              detail=lambda r: {"product": _fields(r.ring),
                                "factors": [_fields(f) for f in r.parts]}),
    Statement("cor2.14", "UUSC transfer: truncated (skew) polynomials, trivial extensions, "
              "formal triangular and triangular matrix rings",
              kinds=("trunc_poly", "skew_trunc_poly", "trivial_extension", "formal_triangular",
                     "triangular"),
              conclusion=_like_parts("is_UUSC"), detail=_uusc_of_parts),
    Statement("morita", "trivial Morita contexts are UUSC iff both corner rings are",
              kinds=("trivial_morita",), conclusion=_like_parts("is_UUSC"), detail=_uusc_of_parts),
    Statement("tav", "trivial extension CUSC implies base CUSC; converse under central action",
              kinds=("trivial_extension",),
              # The action centrality hypothesis (ex = xe on V = A) is the
              # abelian condition on the base.
              conclusion=lambda r: (_passes_to(r.ring, r.base, "is_CUSC") and (
                  not r.base.is_abelian or _passes_to(r.base, r.ring, "is_CUSC"))),
              detail=lambda r: ("T(A,A) CUSC but A is not" if r.ring.is_CUSC and not r.base.is_CUSC
                                else "A CUSC abelian but T(A,A) is not"),
              passed=lambda r: {"ring": r.ring.is_CUSC, "base": r.base.is_CUSC}),
    Statement("prop2.18", "an UUSC (CUSC) ideal extension has an UUSC (CUSC) base",
              kinds=("ideal_extension",), conclusion=lambda r: _passes_to(r.ring, r.base),
              detail=lambda r: {"extension": _fields(r.ring), "base": _fields(r.base)}),
    Statement("prop2.19", "base UUSC (CUSC) + central idempotent action + quasi-regular module "
              "forces the ideal extension UUSC (CUSC)",
              kinds=("ideal_extension",),
              premise=lambda r: (r.hypotheses.get("idempotents_central_on_m")
                                 and r.hypotheses.get("m_quasi_regular")),
              reason=lambda r: {"hypotheses": r.hypotheses},
              conclusion=lambda r: _passes_to(r.base, r.ring),
              detail=lambda r: {"base": _fields(r.base), "extension": _fields(r.ring)}),
    Statement("quasiduo", "potent UUSC rings are left and right quasi-duo",
              premise=lambda r: r.ring.is_potent and r.ring.is_UUSC, reason="not potent UUSC",
              conclusion=lambda r: r.ring.is_quasi_duo_left and r.ring.is_quasi_duo_right,
              detail=lambda r: {"left": r.ring.is_quasi_duo_left,
                                "right": r.ring.is_quasi_duo_right}),
    Statement("cor3.2", "regular rings: UUSC iff boolean",
              premise=lambda r: r.ring.is_regular, reason="not regular",
              conclusion=lambda r: r.ring.is_UUSC == r.ring.is_boolean,
              detail=lambda r: _fields(r.ring, "is_UUSC", "is_boolean")),
    Statement("prop3.3", "USC iff clean and CUSC",
              conclusion=lambda r: r.ring.is_USC == (r.ring.is_clean and r.ring.is_CUSC),
              detail=lambda r: _fields(r.ring, "is_USC", "is_clean", "is_CUSC")),
    Statement("thm3.4", "USC iff CUSC and potent",
              conclusion=lambda r: r.ring.is_USC == (r.ring.is_CUSC and r.ring.is_potent),
              detail=lambda r: _fields(r.ring, "is_USC", "is_CUSC", "is_potent")),
    Statement("cor3.5", "CUSC rings: clean, potent, USC, strongly clean agree "
              "(the exchange condition coincides with clean on finite rings)",
              premise=lambda r: r.ring.is_CUSC, reason="not CUSC",
              conclusion=lambda r: len({getattr(r.ring, n) for n in _COR3_5_LEGS}) == 1,
              detail=lambda r: {"legs": [getattr(r.ring, n) for n in _COR3_5_LEGS]}),
    Statement("cor3.6", "semi-boolean iff potent with UUSC radical quotient",
              conclusion=lambda r: (r.ring.is_semi_boolean
                                    == (r.ring.is_potent and r.quotient.is_UUSC)),
              detail=lambda r: {**_fields(r.ring, "is_semi_boolean", "is_potent"),
                                "quotient_is_UUSC": r.quotient.is_UUSC}),
    Statement("cor3.8", "rings equal to central-idempotent-plus-radical are USC; "
              "T2(Z2) separates the converse",
              premise=lambda r: r.ring.R_equals_ucn0, reason="R != ucn0(R)",
              conclusion=lambda r: r.ring.is_USC, detail=lambda r: _fields(r.ring, "is_USC")),
    Statement("thm3.9", "semi-potent CUSC/UUSC rings contain 2 in the radical",
              premise=lambda r: (r.ring.is_CUSC or r.ring.is_UUSC) and r.ring.is_semi_potent,
              reason="hypotheses unmet",
              conclusion=lambda r: r.ring.two_in_J, detail=lambda r: _fields(r.ring, "two_in_J")),
    Statement("lemma4.1", "group rings whose idempotents all lie in the base: CUSC/UUSC transfer",
              kinds=("group_ring",),
              premise=lambda r: r.idempotents_in_base, reason="idempotents outside the base",
              conclusion=_like_parts("is_CUSC", "is_UUSC"),
              detail=lambda r: {"group_ring": _fields(r.ring), "base": _fields(r.base)}),
    Statement("prop4.4", "2-groups over semi-potent UUSC bases give UUSC group rings",
              kinds=("group_ring",),
              premise=lambda r: r.two_group and r.base.is_UUSC and r.base.is_semi_potent,
              reason="hypotheses unmet",
              conclusion=lambda r: r.ring.is_UUSC, detail=lambda r: _fields(r.ring, "is_UUSC")),
    Statement("thm4.3", "potent base, locally finite group: the group ring is CUSC/UUSC iff "
              "the base is and the group is a 2-group",
              kinds=("group_ring",),
              premise=lambda r: r.base.is_potent, reason="base not potent",
              conclusion=lambda r: (r.ring.is_CUSC == (r.base.is_CUSC and r.two_group)
                                    and r.ring.is_UUSC == (r.base.is_UUSC and r.two_group)),
              detail=lambda r: {"group_ring": _fields(r.ring), "base": _fields(r.base),
                                "two_group": r.two_group}),
)}


# ---------------------------------------------------------------------------
# checks that read masks, sweeps or ideal lattices


_Row = tuple[str, object]  # (verdict, detail) of one ring


@dataclass(frozen=True)
class Check(_Rows):
    """A check whose ``rows(ctx)`` is a function of the suite."""

    check_id: str
    title: str
    rows: Callable[[SuiteContext], Iterable[tuple]]


def _verdict(ok: bool, on_fail, on_pass=None) -> _Row:
    return (PASS, on_pass) if ok else (FAIL, on_fail)


def _agree(*conditions: bool) -> _Row:
    """Pass iff the conditions all have one value; a fail lists them."""
    return _verdict(len(set(conditions)) == 1, {"conditions": list(conditions)})


def _each_entry(row: Callable[[SuiteContext, CatalogEntry], _Row]):
    """The rows of a check with one row per catalog entry, ``row(ctx, entry)``."""
    def rows(ctx: SuiteContext) -> Iterable[tuple]:
        for entry in ctx.entries:
            yield entry.name, *row(ctx, entry)
    return rows


def _triangular_rows(ctx: SuiteContext, entry: CatalogEntry,
                     verdict: Callable[[Classification], _Row]) -> Iterable[tuple]:
    """A row for T2 and for T3 over ``entry``; one past the budget is skipped."""
    for _, label, tc in ctx.triangulars(entry):
        if tc is None:
            yield label, SKIP, "triangular ring above derived-size budget"
        else:
            yield label, *verdict(tc)


def _example1_4(ctx: SuiteContext) -> Iterable[tuple]:
    view = poly_view(ctx.derived({"zn": 2}))
    cusc, _ = poly_is_cusc(view)
    clean = poly_is_clean(view)
    yield "Z2[x]", *_verdict(cusc and not clean, {"cusc": cusc, "clean": clean},
                             {"cusc": True, "clean": False,
                              "note": "not USC since USC rings are clean"})
    c = classify(ctx.derived({"triangular": {"n": 2, "base": {"zn": 2}}}))
    yield "T2(Z2)", *_verdict(c.is_UUC and not c.is_CUC, {"is_UUC": c.is_UUC, "is_CUC": c.is_CUC})
    yield "T2(Z2)", *_verdict(c.is_CUSC and not c.is_CUC,
                              {"is_CUSC": c.is_CUSC, "is_CUC": c.is_CUC})


def _prop2_1(ctx: SuiteContext, entry: CatalogEntry) -> _Row:
    ring = entry.ring
    c = classify(ring)
    if not c.is_abelian:
        return NA, "not abelian"
    # 0 = 1 + (-1) is always two-good; no other idempotent may be.
    unit_mask = get_cache(ring).unit_mask
    cond1 = all(_two_good_pair(ring, unit_mask, e) is None for e in _nonzero_idempotents(ring))
    return _agree(cond1, c.is_UUSC, c.is_UUC, c.is_CUC, c.is_CUSC)


def _example2_3(ctx: SuiteContext) -> Iterable[tuple]:
    for entry in ctx.entries:
        ring = entry.ring
        if _is_trivial(ring):
            yield entry.name, NA, "order 1"
        elif _id_set_is_zero_one(ring):
            c = classify(ring)
            yield entry.name, *_verdict(c.is_CUSC == (not c.one_is_two_good) == c.is_UUSC, {
                "is_CUSC": c.is_CUSC,
                "one_is_two_good": c.one_is_two_good,
                "is_UUSC": c.is_UUSC,
            })
        else:
            yield entry.name, NA, "idempotents beyond 0 and 1"
    for entry in ctx.entries:
        c = classify(entry.ring)
        if c.is_commutative and c.is_USC and not _is_trivial(entry.ring):
            yield from _triangular_rows(ctx, entry, lambda ct: _verdict(
                ct.is_USC and ct.is_CUSC and not ct.is_CUC,
                {"is_USC": ct.is_USC, "is_CUSC": ct.is_CUSC, "is_CUC": ct.is_CUC}))


def _prop2_4(ctx: SuiteContext, entry: CatalogEntry) -> _Row:
    ring = entry.ring
    c = classify(ring)
    if not (c.is_CUSC or c.is_UUSC):
        return NA, "neither CUSC nor UUSC"
    # e is the identity of eRe, so distinct idempotents give distinct corners.
    subrings = [(f"corner e={ring.label_of(e)}", _corner_subset(ring, e), e)
                for e in _nonzero_idempotents(ring) if e != ring.one]
    if ring.order <= ctx.oracle_order_limit:
        seen: set[frozenset] = set()
        for a in range(ring.order):
            ids = _subring_closure(ring, [a])
            key = frozenset(ids.tolist())
            if key in seen or ids.size == ring.order:
                continue
            seen.add(key)
            subrings.append((f"subring gen {ring.label_of(a)}", ids, ring.one))
    for desc, members, one in subrings:
        cusc, uusc = _subring_is_cusc_uusc(ring, members, one)
        if c.is_CUSC and not cusc:
            return FAIL, (desc, "CUSC lost")
        if c.is_UUSC and not uusc:
            return FAIL, (desc, "UUSC lost")
    return PASS, {"subrings_checked": len(subrings)}


def _cor2_6(ctx: SuiteContext) -> Iterable[tuple]:
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
            yield name, FAIL, "instance is not subdirect"
            continue
        factors = [classify(ctx.derived(s)) for s in spec["product"]]
        cusc, uusc = _subring_is_cusc_uusc(product, members, product.one)
        ok = True
        detail = {"subring_order": members.size}
        if all(f.is_CUSC for f in factors) and not cusc:
            ok, detail = False, "CUSC not inherited by subdirect product"
        if all(f.is_UUSC for f in factors) and not uusc:
            ok, detail = False, "UUSC not inherited by subdirect product"
        yield name, PASS if ok else FAIL, detail


def _cor2_7(ctx: SuiteContext, entry: CatalogEntry) -> _Row:
    ring = entry.ring
    cache = get_cache(ring)
    central_idem = [
        int(e) for e in np.flatnonzero(cache.idempotent_mask & cache.center_mask)
        if int(e) not in (ring.zero, ring.one)
    ]
    if not central_idem:
        return NA, "no proper central idempotent"
    c = classify(ring)
    for e in central_idem:
        parts = [_subring_is_cusc_uusc(ring, _corner_subset(ring, f), f)
                 for f in (e, ring.sub(ring.one, e))]
        if c.is_CUSC != all(cusc for cusc, _ in parts):
            return FAIL, {"idempotent": ring.label_of(e), "predicate": "CUSC"}
        if c.is_UUSC != all(uusc for _, uusc in parts):
            return FAIL, {"idempotent": ring.label_of(e), "predicate": "UUSC"}
    return PASS, {"central_idempotents": len(central_idem)}


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


def _lemma2_8(ctx: SuiteContext, entry: CatalogEntry) -> _Row:
    ring = entry.ring
    c = classify(ring)
    ideals = _radical_subideals(ctx, ring)
    for ideal_name, ideal_ids in ideals:
        quot = (radical_quotient(ring) if ideal_name == "J"
                else quotient_ring(ring, ideal_ids) if ideal_ids else ring)
        qc = classify(quot)
        if qc.is_UUSC and not c.is_UUSC:
            return FAIL, {"ideal": ideal_name, "direction": "R/I UUSC => R UUSC"}
        # I lies in J, which is nilpotent, so idempotents lift modulo I (Lam §21).
        if c.is_UUSC and c.is_abelian and not qc.is_UUSC:
            return FAIL, {"ideal": ideal_name, "direction": "R UUSC abelian lifting => R/I UUSC"}
        if qc.is_CUSC and c.is_abelian and not c.is_CUSC:
            return FAIL, {"ideal": ideal_name, "direction": "R/I CUSC, R abelian => R CUSC"}
        if c.is_CUSC and c.is_abelian and not qc.is_CUSC:
            return FAIL, {"ideal": ideal_name, "direction": "R CUSC abelian lifting => R/I CUSC"}
    return PASS, {"ideals_checked": len(ideals)}


def _prop2_2(ctx: SuiteContext, entry: CatalogEntry) -> _Row:
    ring = entry.ring
    if _is_trivial(ring):
        return NA, "order 1"
    c = classify(ring)
    trivial_idem = _id_set_is_zero_one(ring)
    return _agree(
        c.is_CUSC and c.is_local,
        _radical_quotient_is_z2(ring),
        c.is_UC and c.is_local,
        c.is_UC and trivial_idem,
        c.is_USC and c.is_local,
        c.is_USC and trivial_idem,
        c.is_CUC and c.is_local,
    )


def _thm3_1(ctx: SuiteContext, entry: CatalogEntry) -> _Row:
    ring = entry.ring
    c = classify(ring)
    if not c.is_semi_potent:
        return FAIL, "finite ring reported non-semi-potent (bug)"
    cache = get_cache(ring)
    qc = classify(radical_quotient(ring))
    units = np.flatnonzero(cache.unit_mask)
    # The pair sweep with J for U: how many ways each unit is e + j.
    _, _, split, _ = _pair_sweep(ring, unit=cache.jacobson_mask)
    counts = np.bincount(split.ravel(), minlength=ring.order)[units]
    return _agree(
        qc.is_UUSC,
        qc.is_boolean,
        c.U_equals_one_plus_J,
        bool(cache.ucn0_mask[units].all()),
        bool((counts == 1).all()),
        bool((counts >= 1).all()),
    )


def _cor3_8(ctx: SuiteContext) -> Iterable[tuple]:
    yield from STATEMENTS["cor3.8"].rows(ctx)
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
    yield "T2(Z2) converse", *_verdict(
        c.is_USC and not c.R_equals_ucn0 and witness_ok,
        {"is_USC": c.is_USC, "R_equals_ucn0": c.R_equals_ucn0,
         "witness_valid": witness_ok},
        {"witness": "(1 1;0 0) = (1 0;0 0) + (0 1;0 0), first summand non-central"},
    )


def _thm3_10(ctx: SuiteContext, entry: CatalogEntry) -> _Row:
    ring = entry.ring
    c = classify(ring)
    if _is_trivial(ring) or not (c.is_CUSC or c.is_UUSC):
        return NA, "hypotheses unmet"
    problems = []
    if c.one_is_two_good:
        problems.append("identity is two-good")
    quot = radical_quotient(ring)
    qc = classify(quot)
    if qc.one_is_two_good:
        problems.append("identity is two-good modulo the radical")
    for scope_name, scope in (("R", ring), ("R/J", quot)):
        for e in _nonzero_idempotents(scope):
            k = _corner_subset(scope, e)
            pair = _two_good_pair(scope, _subring_units(scope, k, e), e)
            if pair is not None:
                problems.append({
                    "scope": scope_name,
                    "idempotent": scope.label_of(e),
                    "units": [scope.label_of(pair[0]), scope.label_of(pair[1])],
                })
            if _is_m2_f2_corner(scope, e, k):
                problems.append({
                    "scope": scope_name,
                    "idempotent": scope.label_of(e),
                    "matrix_corner": "M2(F2)",
                })
    return _verdict(not problems, problems)


def _thm3_11(ctx: SuiteContext) -> Iterable[tuple]:
    for entry in ctx.entries:
        c = classify(entry.ring)
        if not (c.is_commutative and c.is_semi_potent):
            yield entry.name, NA, "not a commutative semi-potent base"
        elif c.is_CUSC != c.is_CUC:
            yield entry.name, FAIL, {"is_CUSC": c.is_CUSC, "is_CUC": c.is_CUC}
        else:
            yield from _triangular_rows(ctx, entry, lambda tc: _verdict(
                tc.is_CUSC == c.is_CUSC,
                {"base_CUSC": c.is_CUSC, "triangular_CUSC": tc.is_CUSC}))


def _crosschecks(ctx: SuiteContext, entry: CatalogEntry) -> _Row:
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
            return SKIP, str(exc)
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
        if distinct_ids(eps, base.order).size != base.order:
            problems.append("augmentation is not surjective")
        if not np.array_equal(np.flatnonzero(eps == base.zero), ring.meta["aug_kernel"]):
            problems.append("augmentation kernel differs from the ideal <1-g>")
    return _verdict(not problems, problems)


def _explore(ctx: SuiteContext) -> Iterable[tuple]:
    """Report-only observations; never fails.

    Sweeps UUSC transfer to triangular rings, posed as an open question
    for the statement proved for CUSC: for each commutative entry, the
    UUSC flags of the T2 and T3 that :meth:`SuiteContext.triangulars`
    classifies, beside the base's.  A T_n past the budget is left out
    of the row, not reported as skipped.
    """
    rows = []
    for entry in ctx.entries:
        c = classify(entry.ring)
        if not c.is_commutative:
            continue
        observations = {f"T{n}_is_UUSC": tc.is_UUSC
                        for n, _, tc in ctx.triangulars(entry) if tc is not None}
        if observations:
            observations["base_is_UUSC"] = c.is_UUSC
            rows.append((entry.name, PASS, observations))
    return rows or [("(none)", PASS, None)]


#: Registry of checks in execution order: each id's title and check.
CHECKS: dict[str, tuple[str, Callable[[SuiteContext], TheoremReport]]] = {
    c.check_id: (c.title, c) for c in (
        Check("example1.4", "flagship examples: Z2[x] and T2(Z2)", _example1_4),
        Check("prop2.1", "abelian rings: two-good/idempotent triviality, UUSC, UUC, CUC, "
              "CUSC agree", _each_entry(_prop2_1)),
        Check("example2.3", "trivial idempotents: CUSC iff 1 not two-good; USC commutative "
              "bases give USC non-CUC triangulars", _example2_3),
        Check("prop2.4", "subrings (corners and generated subrings) inherit CUSC/UUSC",
              _each_entry(_prop2_4)),
        STATEMENTS["prop2.5"],
        Check("cor2.6", "subdirect products of CUSC/UUSC rings are CUSC/UUSC", _cor2_6),
        Check("cor2.7", "central idempotent e: R is CUSC/UUSC iff both Peirce corners are",
              _each_entry(_cor2_7)),
        Check("lemma2.8", "ideals inside the radical: UUSC/CUSC transfer between R and R/I",
              _each_entry(_lemma2_8)),
        Check("prop2.2", "local characterizations: CUSC+local, R/J = Z2, UC, USC, CUC "
              "variants agree", _each_entry(_prop2_2)),
        STATEMENTS["cor2.14"],
        STATEMENTS["morita"],
        STATEMENTS["tav"],
        STATEMENTS["prop2.18"],
        STATEMENTS["prop2.19"],
        Check("thm3.1", "semi-potent rings: six equivalent forms of 'units are radical "
              "translates of central idempotents'", _each_entry(_thm3_1)),
        STATEMENTS["quasiduo"],
        STATEMENTS["cor3.2"],
        STATEMENTS["prop3.3"],
        STATEMENTS["thm3.4"],
        STATEMENTS["cor3.5"],
        STATEMENTS["cor3.6"],
        Check("cor3.8", STATEMENTS["cor3.8"].title, _cor3_8),
        STATEMENTS["thm3.9"],
        Check("thm3.10", "CUSC/UUSC obstructions: no two-good identity, no corner-unit sums, "
              "no 2x2 matrix corners, in R and in R/J", _each_entry(_thm3_10)),
        Check("thm3.11", "commutative semi-potent bases: CUSC = CUC = CUSC of every "
              "triangular ring", _thm3_11),
        STATEMENTS["lemma4.1"],
        STATEMENTS["prop4.4"],
        STATEMENTS["thm4.3"],
        Check("crosschecks", "dual-route verification: radical vs maximal left ideals, "
              "quasi-duo vs maximal one-sided ideals, unit lifting, augmentation kernel, "
              "lattice semi-potence, axiom validation", _each_entry(_crosschecks)),
        Check("explore", "observational sweeps (UUSC triangulars)", _explore),
    )
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
