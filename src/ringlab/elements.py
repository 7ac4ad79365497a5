"""Clean and strongly clean decompositions of single elements.

An element a is clean when a = e + u with e idempotent and u a unit;
strongly clean when additionally e*u = u*e.  Uniqueness predicates
count decompositions: "uniquely X" means exactly one X decomposition.
"At most one" would read the same on every finite ring, since every
element of a finite ring is strongly clean.

One table sweep lists every decomposition: for each requested element a
and each idempotent e it gathers u = a - e from the addition table,
reads whether u is a unit, and compares e*u with u*e.  The counts behind
the ring-level classifier, the whole-ring element summary and single
element queries all read that sweep, over all rows or over one, and so
do subrings S of R, over the rows of S with Idem(S) and U(S), unbuilt.
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


def _sweep(ring: FiniteRing, rows, idem: Optional[np.ndarray] = None,
           unit: Optional[np.ndarray] = None) -> tuple[np.ndarray, ...]:
    """The decomposition sweep over the addition-table rows ``rows``.

    ``rows`` is ``slice(None)`` for every element or a list of ids;
    ``idem`` (the idempotent ids, Idem(R) by default) are the columns and
    ``unit`` (a mask over R, U(R) by default) is the set u is tested in.
    Returns the idempotent ids, ``u[r, i] = a_r - e_i``, whether that u
    is a unit, and whether e_i*u = u*e_i.
    """
    cache = get_cache(ring)
    if idem is None:
        idem = np.flatnonzero(cache.idempotent_mask)
    if unit is None:
        unit = cache.unit_mask
    mul = ring.mul_table
    u = ring.add_table[rows][:, ring.neg_table[idem]]
    is_unit = unit[u]
    commutes = mul[idem[None, :], u] == mul[u, idem[None, :]]
    return idem, u, is_unit, commutes


def _decompositions(ring: FiniteRing, rows) -> list[list[Decomposition]]:
    """Every clean decomposition of each element of ``rows``, by idempotent id."""
    idem, u, is_unit, commutes = _sweep(ring, rows)
    r, i = np.nonzero(is_unit)
    flat = map(Decomposition, idem[i].tolist(), u[r, i].tolist(), commutes[r, i].tolist())
    return [list(islice(flat, k)) for k in is_unit.sum(axis=1).tolist()]


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
    """All pairs (e, u) with e idempotent, u = a - e a unit, by idempotent id."""
    return _decompositions(ring, [a])[0]


def strongly_clean_decompositions(ring: FiniteRing, a: int) -> list[Decomposition]:
    """The commuting sublist of :func:`clean_decompositions`."""
    return [d for d in clean_decompositions(ring, a) if d.commuting]


def element_profile(ring: FiniteRing, a: int) -> ElementProfile:
    return _profile(a, clean_decompositions(ring, a))


def decomposition_counts(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """(clean, strongly clean) decomposition counts per element.

    Sums of the same sweep that lists the decompositions, over every row.
    """
    _, _, is_unit, commutes = _sweep(ring, slice(None))
    clean_counts = is_unit.sum(axis=1)
    strong_counts = (is_unit & commutes).sum(axis=1)
    return clean_counts.astype(np.int64), strong_counts.astype(np.int64)


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

    Builds no ring: the decomposition sweep over the rows of S, with
    Idem(S) = Idem(R) & S as columns and U(S) from :func:`_subring_units`.
    """
    unit = _subring_units(ring, members, one)
    idem = members[get_cache(ring).idempotent_mask[members]]
    _, _, is_unit, commutes = _sweep(ring, members, idem, unit)
    unique = (is_unit & commutes).sum(axis=1) == 1
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
