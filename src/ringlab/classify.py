"""Ring-level classification.

:func:`classify` evaluates the whole predicate vector for a ring:
cleanness and strong cleanness, the four uniqueness classes (every
element / every clean element / every unit, with plain or commuting
decompositions), and the auxiliary structural predicates the
verification suite quantifies over (boolean, reduced, abelian, local,
regular, semi-potent, potent, semi-boolean, quasi-duo, and the
radical-related equalities).

Every predicate is decided exactly, with no search bound.  Quasi-duo
comes from the radical quotient: a finite ring is left quasi-duo iff it
is right quasi-duo iff R/J is commutative (quasi-duo passes between R
and R/J, R/J is a product of rings M_n(F_q), and M_n(F) with n >= 2 is
not quasi-duo).  The suite's ``crosschecks`` compares this with the
maximal one-sided ideals of the lattice.

Local, R/J boolean and quasi-duo are properties of R/J, read on R and
the mask of J without building R/J: x + J is a unit iff x is one (Lam,
*A First Course in Noncommutative Rings*, section 4), idempotent iff
x^2 - x is in J, and central iff xg - gx is in J for the additive
generators g.  Each holds on whole cosets of J, so the least element of
R without it is the least element of its coset, and its witness is that
coset's label in R/J (:func:`construct.coset_label`).

Regular, semi-potent and potent are closed forms too, since a finite
ring is Artinian with a nilpotent J: it is semi-potent (Brauer's lemma),
potent (idempotents lift modulo a nil ideal), and regular iff J = 0 (a
regular Artinian ring is semisimple).  When J != 0 the regular witness,
the least a with no x such that axa = a, comes from a scan of the rows
up to the least nonzero element of J, which is never regular; it stops
at the first block of rows holding a witness.  Lifting over J, a
witness when J != 0, and strong cleanness of every element (finite
rings are strongly pi-regular; Nicholson 1999) are asserted as
kernel-bug guards.

The frozen classification is kept in the ring's own memo
(:meth:`InvariantCache.memo`), so a repeated call does no work.
:func:`radical_quotient` builds R/J into the same memo, for the suite
checks that need it as a ring; :func:`classify` never builds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .construct import _quotient_by_ideal, coset_label
from .core import FiniteRing
from .elements import (
    ElementProfile, _all_decompositions, _profile, _two_good_pair, clean_decompositions,
    decomposition_counts,
)
from .invariants import _SCAN_CELLS, _lift_mod_mask, _row_blocks, get_cache

@dataclass(frozen=True)
class Classification:
    """The full boolean predicate vector of one ring.

    ``witnesses`` maps predicate names to serializable payloads
    justifying a failure (or, for existence-flavored fields, a success).
    """

    is_clean: bool
    is_strongly_clean: bool
    is_UC: bool
    is_USC: bool
    is_CUC: bool
    is_CUSC: bool
    is_UUC: bool
    is_UUSC: bool
    is_boolean: bool
    is_reduced: bool
    is_abelian: bool
    is_commutative: bool
    is_local: bool
    is_regular: bool
    is_semi_potent: bool
    is_potent: bool
    is_semi_boolean: bool
    is_quasi_duo_left: bool
    is_quasi_duo_right: bool
    one_is_two_good: bool
    two_in_J: bool
    R_equals_ucn0: bool
    RmodJ_boolean: bool
    U_equals_one_plus_J: bool
    witnesses: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {name: getattr(self, name) for name in CLASSIFICATION_FIELDS}
        if self.witnesses:
            out["witnesses"] = self.witnesses
        return out


#: JSON field names of the classification vector, in canonical order.
CLASSIFICATION_FIELDS = tuple(f.name for f in fields(Classification) if f.name != "witnesses")


def _quantify(counts: np.ndarray, over: np.ndarray) -> tuple[bool, Optional[int]]:
    """All elements of ``over`` have exactly one decomposition.

    On failure, also the least element of ``over`` that does not.
    """
    bad = np.flatnonzero(over & (counts != 1))
    return (False, int(bad[0])) if bad.size else (True, None)


def _least_non_regular(ring: FiniteRing, stop: Optional[int] = None) -> Optional[int]:
    """The least a < ``stop`` with axa != a for every x, or None if there is
    none; with no ``stop``, None means the ring is regular.

    Reads blocks of rows of the multiplication table, the rows below
    ``stop`` only, and stops at the first block that holds such an a.
    """
    n, mul = ring.order, ring.mul_table
    # This module's _SCAN_CELLS, so that the block size can be set here alone.
    for rows in _row_blocks(n if stop is None else stop, n, _SCAN_CELLS):
        block = np.arange(rows.start, rows.stop)
        regular = (mul[mul[block], block[:, None]] == block[:, None]).any(axis=1)
        if not regular.all():
            return int(block[np.argmin(regular)])
    return None


def radical_quotient(ring: FiniteRing) -> FiniteRing:
    """R/J, built once per ring handle and kept in the ring's memo.

    Built straight from the cache's J, which is verified to be an ideal
    when computed, so J is not closed again.
    """
    cache = get_cache(ring)

    def compute():
        jac = np.flatnonzero(cache.jacobson_mask)
        return _quotient_by_ideal(ring, jac.tolist(), jac)

    return cache.memo("radical_quotient", compute)


def classify(ring: FiniteRing) -> Classification:
    """Compute the full classification vector of a ring, once per handle."""
    return get_cache(ring).memo("classification", lambda: _classify(ring))


def _classify(ring: FiniteRing) -> Classification:
    """The decomposition fields, then the structural ones."""
    cache = get_cache(ring)
    clean_counts, strong_counts = decomposition_counts(ring)
    # Finite rings are strongly pi-regular, hence strongly clean, and so
    # clean: CUC is UC and CUSC is USC.
    no_strong = np.flatnonzero(strong_counts == 0)
    if no_strong.size:
        raise AssertionError(
            f"{ring.name} has no strongly clean decomposition of "
            f"{ring.label_of(int(no_strong[0]))}")
    fields, witnesses = {"is_clean": True, "is_strongly_clean": True}, {}
    everything = np.ones(ring.order, dtype=bool)
    for name, counts, over in (
        ("is_UC", clean_counts, everything), ("is_USC", strong_counts, everything),
        ("is_CUC", clean_counts, everything), ("is_CUSC", strong_counts, everything),
        ("is_UUC", clean_counts, cache.unit_mask), ("is_UUSC", strong_counts, cache.unit_mask),
    ):
        fields[name], w = _quantify(counts, over)
        if w is not None:
            witnesses[name] = {"element": ring.label_of(w), "clean_decompositions": [
                d.to_json(ring) for d in clean_decompositions(ring, w)]}
    rest, rest_witnesses = _structure(ring)
    return Classification(**fields, **rest, witnesses={**witnesses, **rest_witnesses})


def _structure(ring: FiniteRing) -> tuple[dict, dict]:
    """The structural fields and their witnesses."""
    cache = get_cache(ring)
    n, mul = ring.order, ring.mul_table
    unit_mask = cache.unit_mask
    idem_mask = cache.idempotent_mask
    jac_mask = cache.jacobson_mask
    witnesses: dict = {}

    boolean_bad = np.flatnonzero(~idem_mask)
    is_boolean = boolean_bad.size == 0
    if not is_boolean:
        witnesses["is_boolean"] = {"element": ring.label_of(int(boolean_bad[0]))}

    nil_ids = np.flatnonzero(cache.nilpotent_mask)
    is_reduced = bool((nil_ids == ring.zero).all())
    if not is_reduced:
        bad = [i for i in nil_ids if i != ring.zero][0]
        witnesses["is_reduced"] = {"element": ring.label_of(int(bad))}

    center_mask = cache.center_mask
    noncentral_idem = np.flatnonzero(idem_mask & ~center_mask)
    is_abelian = noncentral_idem.size == 0
    if not is_abelian:
        e = int(noncentral_idem[0])
        r = int(np.flatnonzero(mul[e] != mul[:, e])[0])
        witnesses["is_abelian"] = {
            "idempotent": ring.label_of(e), "element": ring.label_of(r),
        }

    is_commutative = bool(center_mask.all())
    if not is_commutative:
        a = int(np.flatnonzero(~center_mask)[0])
        b = int(np.flatnonzero(mul[a] != mul[:, a])[0])
        witnesses["is_commutative"] = {"pair": [ring.label_of(a), ring.label_of(b)]}

    # R/J, read on R: each property below holds on whole cosets of J,
    # so the least element of R without it is the least of its coset,
    # which is the least id of R/J without it.
    # Local: x + J is a unit of R/J iff x is a unit of R.
    q_bad = np.flatnonzero(~unit_mask & ~jac_mask)
    is_local = q_bad.size == 0
    if not is_local:
        witnesses["is_local"] = {"quotient_element": coset_label(ring, int(q_bad[0]))}

    # R/J is boolean iff x^2 - x is in J for every x.
    idx = np.arange(n)
    q_bad = np.flatnonzero(~jac_mask[ring.add_table[mul[idx, idx], ring.neg_table]])
    RmodJ_boolean = q_bad.size == 0
    if not RmodJ_boolean:
        witnesses["RmodJ_boolean"] = {"quotient_element": coset_label(ring, int(q_bad[0]))}

    # Quasi-duo (both sides): R/J is commutative.  By biadditivity x is
    # central mod J iff xg - gx is in J for each additive generator g.
    gens = cache.additive_generators

    def commutator_in_j(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return jac_mask[ring.add_table[left, ring.neg_table[right]]]

    q_bad = np.flatnonzero(~commutator_in_j(mul[:, gens], mul[gens, :].T).all(axis=1))
    is_quasi_duo = q_bad.size == 0
    if not is_quasi_duo:
        a = int(q_bad[0])
        b = int(np.flatnonzero(~commutator_in_j(mul[a], mul[:, a]))[0])
        pair = {"quotient_pair": [coset_label(ring, a), coset_label(ring, b)]}
        witnesses["is_quasi_duo_left"] = witnesses["is_quasi_duo_right"] = pair

    # Regular Artinian rings are semisimple: regular iff J = {0}.  No
    # nonzero a in J is regular (a = axa gives a(1 - xa) = 0 with 1 - xa
    # a unit), so the scan ends at the least of them.
    is_regular = bool(jac_mask.sum() == 1)
    if not is_regular:
        radical = np.flatnonzero(jac_mask)
        least_j = int(radical[radical != ring.zero][0])
        bad = _least_non_regular(ring, least_j + 1)
        if bad is None:
            raise AssertionError(
                f"{ring.name} has J != 0 but every element up to "
                f"{ring.label_of(least_j)} is regular")
        witnesses["is_regular"] = {"element": ring.label_of(bad)}

    # J is asserted to be an ideal when the cache computes it.  It is
    # nil, so idempotents lift over it: the ring is potent, and
    # semi-potent by Brauer's lemma.
    lift = _lift_mod_mask(ring, jac_mask)
    if not lift.lifts:
        raise AssertionError(
            f"idempotents of {ring.name} fail to lift modulo J at "
            f"{ring.label_of(lift.failure)}")
    is_semi_potent = True
    is_potent = lift.lifts

    is_semi_boolean = is_potent and RmodJ_boolean

    # 1 = u + (1 - u) with both units; the witness takes the least u.
    pair = _two_good_pair(ring, unit_mask, ring.one)
    one_is_two_good = pair is not None
    if one_is_two_good:
        witnesses["one_is_two_good"] = {"units": [ring.label_of(v) for v in pair]}

    two = ring.add(ring.one, ring.one)
    two_in_J = bool(jac_mask[two])

    ucn0_mask = cache.ucn0_mask
    R_equals_ucn0 = bool(ucn0_mask.all())
    if not R_equals_ucn0:
        witnesses["R_equals_ucn0"] = {
            "element": ring.label_of(int(np.flatnonzero(~ucn0_mask)[0]))
        }

    one_plus_j = np.zeros(n, dtype=bool)
    one_plus_j[ring.add_table[ring.one, np.flatnonzero(jac_mask)]] = True
    U_equals_one_plus_J = bool((unit_mask == one_plus_j).all())
    if not U_equals_one_plus_J:
        bad = int(np.flatnonzero(unit_mask != one_plus_j)[0])
        witnesses["U_equals_one_plus_J"] = {"element": ring.label_of(bad)}

    return dict(
        is_boolean=is_boolean,
        is_reduced=is_reduced,
        is_abelian=is_abelian,
        is_commutative=is_commutative,
        is_local=is_local,
        is_regular=is_regular,
        is_semi_potent=is_semi_potent,
        is_potent=is_potent,
        is_semi_boolean=is_semi_boolean,
        is_quasi_duo_left=is_quasi_duo,
        is_quasi_duo_right=is_quasi_duo,
        one_is_two_good=one_is_two_good,
        two_in_J=two_in_J,
        R_equals_ucn0=R_equals_ucn0,
        RmodJ_boolean=RmodJ_boolean,
        U_equals_one_plus_J=U_equals_one_plus_J,
    ), witnesses


def classify_element_summary(ring: FiniteRing) -> list[ElementProfile]:
    """One profile per element, consistent with classify's quantifiers.

    Every element is read from one pair sweep, not queried element by
    element.
    """
    return [_profile(a, clean) for a, clean in enumerate(_all_decompositions(ring))]

