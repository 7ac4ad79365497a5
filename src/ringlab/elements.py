"""Clean and strongly clean decompositions of single elements.

An element a is clean when a = e + u with e idempotent and u a unit;
strongly clean when additionally e*u = u*e.  Uniqueness predicates
count decompositions: "uniquely X" means exactly one X decomposition.
"At most one" would read the same on every finite ring, since every
element of a finite ring is strongly clean.

Enumeration iterates the idempotent set and tests membership of a - e
in the precomputed unit set; a vectorized counting kernel backs the
ring-level classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteRing
from .invariants import get_cache


@dataclass(frozen=True)
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


def clean_decompositions(ring: FiniteRing, a: int) -> list[Decomposition]:
    """All pairs (e, u) with e idempotent, u = a - e a unit, by idempotent id."""
    cache = get_cache(ring)
    unit_mask = cache.unit_mask
    out = []
    neg = ring.neg_table
    for e in np.flatnonzero(cache.idempotent_mask):
        e = int(e)
        u = ring.add(a, int(neg[e]))
        if unit_mask[u]:
            commuting = ring.mul(e, u) == ring.mul(u, e)
            out.append(Decomposition(e, u, commuting))
    return out


def strongly_clean_decompositions(ring: FiniteRing, a: int) -> list[Decomposition]:
    """The commuting sublist of :func:`clean_decompositions`."""
    return [d for d in clean_decompositions(ring, a) if d.commuting]


def is_uniquely_clean_element(ring: FiniteRing, a: int) -> tuple[bool, list[Decomposition]]:
    """Exactly-one test on clean decompositions; returns the witnesses."""
    decomps = clean_decompositions(ring, a)
    return len(decomps) == 1, decomps


def is_usc_element(ring: FiniteRing, a: int) -> tuple[bool, list[Decomposition]]:
    """Exactly-one test on strongly clean decompositions; returns the witnesses.

    On a finite ring every element is strongly clean, so on failure the
    witness list holds two or more decompositions, never none.
    """
    decomps = strongly_clean_decompositions(ring, a)
    return len(decomps) == 1, decomps


def element_profile(ring: FiniteRing, a: int) -> ElementProfile:
    clean = clean_decompositions(ring, a)
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


def decomposition_counts(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (clean, strongly clean) decomposition counts per element.

    Same mathematics as :func:`clean_decompositions`, expressed as table
    sweeps so whole-ring classification stays fast on large rings.
    """
    cache = get_cache(ring)
    idem = np.flatnonzero(cache.idempotent_mask)
    if idem.size == 0:
        n = ring.order
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    add = ring.add_table
    mul = ring.mul_table
    neg = ring.neg_table
    units = cache.unit_mask
    u = add[:, neg[idem]]                 # u[a, i] = a - e_i
    is_unit = units[u]
    eu = mul[idem[None, :], u]
    ue = mul[u, idem[None, :]]
    commutes = eu == ue
    clean_counts = is_unit.sum(axis=1)
    strong_counts = (is_unit & commutes).sum(axis=1)
    return clean_counts.astype(np.int64), strong_counts.astype(np.int64)
