"""Clean and strongly clean decompositions of single elements.

An element a is clean when a = e + u with e idempotent and u a unit;
strongly clean when additionally e*u = u*e.  Uniqueness predicates
count decompositions: "uniquely X" means exactly one X decomposition.
"At most one" would read the same on every finite ring, since every
element of a finite ring is strongly clean.

The counts behind the ring-level classifier and the whole-ring element
summary read one pair sweep over Idem x U: each pair (e, u) is the
decomposition a = e + u, read from the addition table, and whether
e*u = u*e is tested on those pairs only.  So does a subring S of R,
with Idem(S) and U(S), unbuilt.  A query for one element a, and each
witness of the classifier, reads the row sweep of a instead: for each
idempotent e it gathers u = a - e and reads whether u is a unit.
Whether x = u + v with u, v units of R or of S is one search too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .core import FiniteRing
from .invariants import get_cache


@dataclass(frozen=True, slots=True)
class Decomposition:
    """One way of writing an element as idempotent + unit."""

    idempotent: int
    unit: int
    commuting: bool

    def to_json(self, ring: FiniteRing) -> dict:
        return {
            "idempotent": ring.label_of(self.idempotent),
            "unit": ring.label_of(self.unit),
            "commuting": self.commuting,
        }


@dataclass
class ElementProfile:
    """All decompositions of one element plus the derived predicates."""

    element: int
    clean_decomps: list[Decomposition]
    strongly_clean_decomps: list[Decomposition]
    is_clean: bool
    is_strongly_clean: bool
    is_uniquely_clean: bool
    is_usc: bool

    def to_json(self, ring: FiniteRing) -> dict:
        return {
            "element": ring.label_of(self.element),
            "clean_decompositions": [d.to_json(ring) for d in self.clean_decomps],
            "strongly_clean_decompositions": [
                d.to_json(ring) for d in self.strongly_clean_decomps
            ],
            "is_clean": self.is_clean,
            "is_strongly_clean": self.is_strongly_clean,
            "is_uniquely_clean": self.is_uniquely_clean,
            "is_uniquely_strongly_clean": self.is_usc,
        }


def _pair_sweep(ring: FiniteRing, idem: Optional[np.ndarray] = None,
                unit: Optional[np.ndarray] = None) -> tuple[np.ndarray, ...]:
    """Every decomposition a = e + u with e in ``idem`` and u in ``unit``, once.

    ``idem`` are idempotent ids, Idem(R) by default, and ``unit`` a mask
    over R, U(R) by default.  Returns the idempotent ids, the unit ids,
    ``a[i, j] = e_i + u_j`` and whether e_i*u_j = u_j*e_i: |Idem|*|U|
    cells, where the row sweep over every element reads order*|Idem|.
    """
    cache = get_cache(ring)
    if idem is None:
        idem = np.flatnonzero(cache.idempotent_mask)
    units = np.flatnonzero(cache.unit_mask if unit is None else unit)
    mul = ring.mul_table
    a = ring.add_table[np.ix_(idem, units)]
    commutes = mul[np.ix_(idem, units)] == mul[np.ix_(units, idem)].T
    return idem, units, a, commutes


def _all_decompositions(ring: FiniteRing) -> list[list[Decomposition]]:
    """:func:`clean_decompositions` of every element, from the pair sweep.

    A stable sort by element keeps each element's pairs in the sweep's
    order, which is by idempotent id.
    """
    idem, units, a, commutes = _pair_sweep(ring)
    by_element = np.argsort(a, axis=None, kind="stable")
    i, j = np.divmod(by_element, units.size)
    flat = map(Decomposition, idem[i].tolist(), units[j].tolist(),
               commutes.ravel()[by_element].tolist())
    counts = np.bincount(a.ravel(), minlength=ring.order)
    return [list(islice(flat, k)) for k in counts.tolist()]


def _profile(a: int, clean: list[Decomposition]) -> ElementProfile:
    strong = [d for d in clean if d.commuting]
    return ElementProfile(
        element=a,
        clean_decomps=clean,
        strongly_clean_decomps=strong,
        is_clean=bool(clean),
        is_strongly_clean=bool(strong),
        is_uniquely_clean=len(clean) == 1,
        is_usc=len(strong) == 1,
    )


def clean_decompositions(ring: FiniteRing, a: int) -> list[Decomposition]:
    """All pairs (e, u) with e idempotent, u = a - e a unit, by idempotent id.

    The row sweep of a: u = a - e for each idempotent e, read from row a
    of the addition table; e*u and u*e are compared on the units only.
    """
    cache = get_cache(ring)
    idem = np.flatnonzero(cache.idempotent_mask)
    u = ring.add_table[a, ring.neg_table[idem]]
    hit = cache.unit_mask[u]
    idem, u = idem[hit], u[hit]
    commutes = ring.mul_table[idem, u] == ring.mul_table[u, idem]
    return list(map(Decomposition, idem.tolist(), u.tolist(), commutes.tolist()))


def strongly_clean_decompositions(ring: FiniteRing, a: int) -> list[Decomposition]:
    """The commuting sublist of :func:`clean_decompositions`."""
    return [d for d in clean_decompositions(ring, a) if d.commuting]


def element_profile(ring: FiniteRing, a: int) -> ElementProfile:
    return _profile(a, clean_decompositions(ring, a))


def decomposition_counts(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """(clean, strongly clean) decomposition counts per element.

    Counted from the pair sweep: each pair is one decomposition.
    """
    _, _, a, commutes = _pair_sweep(ring)
    n = ring.order
    return np.bincount(a.ravel(), minlength=n), np.bincount(a[commutes], minlength=n)


def _subring_units(ring: FiniteRing, members: np.ndarray, one: int) -> np.ndarray:
    """U(S) as a mask over R, for the unital subring S on ``members`` with identity ``one``.

    x in S is a unit of S iff x + (1 - one) is a unit of R.  For one = 1
    this reads U(S) = U(R) & S: in a finite ring a unit's inverse is a
    power of it.  For a corner eRe, y + 1 - e inverts x + 1 - e when y
    inverts x in eRe, and eze inverts x in eRe when z inverts x + 1 - e.
    """
    mask = np.zeros(ring.order, dtype=bool)
    shifted = ring.add_table[members, ring.sub(ring.one, one)]
    mask[members[get_cache(ring).unit_mask[shifted]]] = True
    return mask


def _subring_is_cusc_uusc(ring: FiniteRing, members: np.ndarray, one: int) -> tuple[bool, bool]:
    """CUSC and UUSC of the unital subring S on ``members`` with identity ``one``.

    Builds no ring: the pair sweep over Idem(S) = Idem(R) & S and U(S)
    from :func:`_subring_units`, whose sums e + u all lie in S.
    """
    unit = _subring_units(ring, members, one)
    idem = members[get_cache(ring).idempotent_mask[members]]
    _, _, a, commutes = _pair_sweep(ring, idem, unit)
    unique = np.bincount(a[commutes], minlength=ring.order)[members] == 1
    return bool(unique.all()), bool(unique[unit[members]].all())


def _two_good_pair(ring: FiniteRing, unit_mask: np.ndarray, x: int) -> Optional[tuple[int, int]]:
    """The least u with u and x - u both in ``unit_mask``, with x - u; None if none.

    ``unit_mask`` is U(R), or U(S) from :func:`_subring_units` for x in a
    subring S, so x is two-good in that ring iff a pair is returned.
    """
    units = np.flatnonzero(unit_mask)
    rest = ring.add_table[x, ring.neg_table[units]]
    hits = np.flatnonzero(unit_mask[rest])
    if hits.size:
        return int(units[hits[0]]), int(rest[hits[0]])
    return None
