"""Canonical element sets of a finite ring, and the ring's one memo.

Idempotents, units, nilpotents, the Jacobson radical, the center, sums
of two units, central-idempotent-plus-radical elements, ideal closure,
idempotent lifting, and the one-sided ideal lattice.  Everything is
exact, computed from the ring's tables with no search bound.  Units
take one comparison of the table with 1 and no index sweep: each row's
first hit is its candidate inverse, and a guard that every hit is its
row's only one and is two-sided (true in every finite ring) follows.
Two sets avoid a sweep of the whole multiplication table:

* J is read by quasi-regularity (1 - r*a a unit for every r) on the
  nilpotent columns only: J of a finite ring is nilpotent, so J is
  inside Nil.
* The product is biadditive, so x is central iff it commutes with each
  of the ring's k <= log2(n) additive generators, and an additive
  subgroup is a two-sided ideal iff it is closed under multiplication
  by those generators on both sides: J's guard, ideal tests and ideal
  closure read k rows, not n.

:class:`InvariantCache` is the one per-ring memo: these masks, and what
:mod:`ringlab.classify` stores through :meth:`InvariantCache.memo`.  It
is write-once, lock-guarded, safe to share, and refers to its ring only
weakly, so a ring is freed as soon as its last outside reference goes.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .core import ElementSet, FiniteRing, additive_generators
from .errors import IdealError, LatticeLimitError, SizeOverflowError

DEFAULT_IDEAL_ORDER_LIMIT = 256
DEFAULT_IDEAL_COUNT_LIMIT = 100_000


class InvariantCache:
    """The ring's one memo: element sets and classify's results."""

    def __init__(self, ring: FiniteRing):
        # Weak: the ring owns its cache, and a strong reference back
        # would keep every ring alive until a full garbage collection.
        self._ring = weakref.ref(ring)
        # Reentrant: computing one invariant may nest into another
        # (the radical consults the unit set) on the same thread.
        self._lock = threading.RLock()
        self._memo: dict[str, object] = {}

    @property
    def ring(self) -> FiniteRing:
        return self._ring()

    def memo(self, key: str, compute):
        """``compute()`` once per ring; arrays are stored read-only."""
        value = self._memo.get(key)
        if value is None:
            with self._lock:
                value = self._memo.get(key)
                if value is None:
                    value = compute()
                    if isinstance(value, np.ndarray):
                        value.setflags(write=False)
                    self._memo[key] = value
        return value

    @property
    def idempotent_mask(self) -> np.ndarray:
        def compute():
            n = self.ring.order
            idx = np.arange(n)
            return self.ring.mul_table[idx, idx] == idx

        return self.memo("idempotent", compute)

    @property
    def unit_mask(self) -> np.ndarray:
        return self.memo("unit", self._compute_units)

    def _compute_units(self):
        ring = self.ring
        n, one = ring.order, ring.one
        mul = ring.mul_table
        hit = mul == one
        rows = np.arange(n)
        first = hit.argmax(axis=1)
        mask = hit[rows, first]
        units = rows[mask]
        # Finite rings: one-sided inverses are two-sided, hence unique,
        # so every hit is its row's first and pairs with a hit back.
        if not ((mul[first[units], units] == one).all()
                and np.count_nonzero(hit) == units.size):
            hit_rows, hit_cols = np.nonzero(hit)
            bad = np.flatnonzero(mul[hit_cols, hit_rows] != one)
            if not bad.size:
                a = hit_rows[np.flatnonzero(np.diff(hit_rows) == 0)[0]]
                raise AssertionError(f"two inverses of {a} in {ring.name}: no associative ring")
            a, b = hit_rows[bad[0]], hit_cols[bad[0]]
            raise AssertionError(
                f"one-sided inverse in {ring.name}: {a}*{b}=1 but {b}*{a}!=1"
            )
        return mask

    @property
    def nilpotent_mask(self) -> np.ndarray:
        def compute():
            # a^(2^t) = 0 for 2^t >= order catches every nilpotent:
            # the nilpotency index is at most the ring order.
            ring = self.ring
            n = ring.order
            mul = ring.mul_table
            v = np.arange(n)
            steps = max(1, int(n - 1).bit_length())
            for _ in range(steps):
                v = mul[v, v]
            return v == ring.zero

        return self.memo("nilpotent", compute)

    @property
    def additive_generators(self) -> np.ndarray:
        """A few ids whose sums reach every element (at most log2(n))."""
        return self.memo("additive_generators", lambda: additive_generators(
            self.ring.add_table, self.ring.zero))

    @property
    def jacobson_mask(self) -> np.ndarray:
        def compute():
            # Quasi-regularity: a in J iff 1 - r*a is a unit for every r,
            # tested only on the nilpotent a, since J is inside Nil.
            ring = self.ring
            cols = np.flatnonzero(self.nilpotent_mask)
            # one_minus_unit[v]: whether 1 - v is a unit.
            one_minus_unit = self.unit_mask[ring.add_table[ring.one, ring.neg_table]]
            mask = np.zeros(ring.order, dtype=bool)
            mask[cols[one_minus_unit[ring.mul_table[:, cols]].all(axis=0)]] = True
            self._assert_two_sided_ideal(mask)
            return mask

        return self.memo("jacobson", compute)

    def _assert_two_sided_ideal(self, mask: np.ndarray):
        if not _is_ideal_mask(self.ring, mask):
            raise AssertionError(f"J({self.ring.name}) closure violated: kernel bug")

    @property
    def center_mask(self) -> np.ndarray:
        def compute():
            # Biadditivity: x commutes with every r iff with each generator.
            gens = self.additive_generators
            mul = self.ring.mul_table
            return (mul[:, gens] == mul[gens, :].T).all(axis=1)

        return self.memo("center", compute)

    @property
    def two_good_mask(self) -> np.ndarray:
        def compute():
            ring = self.ring
            units = np.flatnonzero(self.unit_mask)
            mask = np.zeros(ring.order, dtype=bool)
            if units.size:
                mask[ring.add_table[np.ix_(units, units)]] = True
            return mask

        return self.memo("two_good", compute)

    @property
    def ucn0_mask(self) -> np.ndarray:
        def compute():
            ring = self.ring
            central_idem = np.flatnonzero(self.idempotent_mask & self.center_mask)
            radical = np.flatnonzero(self.jacobson_mask)
            mask = np.zeros(ring.order, dtype=bool)
            mask[ring.add_table[np.ix_(central_idem, radical)]] = True
            return mask

        return self.memo("ucn0", compute)


def get_cache(ring: FiniteRing) -> InvariantCache:
    cache = ring._invariant_cache
    if cache is None:
        cache = InvariantCache(ring)
        ring._invariant_cache = cache
    return cache


def idempotents(ring: FiniteRing) -> ElementSet:
    """{e : e*e = e}."""
    return ElementSet.from_mask(ring, get_cache(ring).idempotent_mask)


def units(ring: FiniteRing) -> ElementSet:
    """{u : u*v = v*u = 1 for some v}."""
    return ElementSet.from_mask(ring, get_cache(ring).unit_mask)


def nilpotents(ring: FiniteRing) -> ElementSet:
    """{a : a^k = 0 for some k <= order}."""
    return ElementSet.from_mask(ring, get_cache(ring).nilpotent_mask)


def jacobson_radical(ring: FiniteRing) -> ElementSet:
    """{a : 1 - r*a is a unit for all r}; verified to be a two-sided ideal."""
    return ElementSet.from_mask(ring, get_cache(ring).jacobson_mask)


def center(ring: FiniteRing) -> ElementSet:
    """{a : a*r = r*a for all r}."""
    return ElementSet.from_mask(ring, get_cache(ring).center_mask)


def ucn0(ring: FiniteRing) -> ElementSet:
    """{e + j : e a central idempotent, j in the radical}."""
    return ElementSet.from_mask(ring, get_cache(ring).ucn0_mask)


def ideal_generated(ring: FiniteRing, generators: Iterable[int]) -> ElementSet:
    """Least two-sided ideal containing ``generators`` (mask closure).

    Adds the products of the members with the ring's additive generators
    on both sides, negatives and pairwise sums of the members until the
    mask stops growing.  The fixed point is closed under + and under
    multiplication by every element, since r*x is a sum of the g*x over
    additive generators g.  Empty generators give {0}; a unit generator
    gives the whole ring.
    """
    add, mul = ring.add_table, ring.mul_table
    gens = get_cache(ring).additive_generators
    mask = np.zeros(ring.order, dtype=bool)
    mask[ring.zero] = True
    mask[np.fromiter(generators, dtype=np.int64)] = True
    size = 0
    while True:
        ids = np.flatnonzero(mask)
        if ids.size == size:
            return ElementSet.from_mask(ring, mask)
        size = ids.size
        mask[mul[np.ix_(gens, ids)]] = True
        mask[mul[np.ix_(ids, gens)]] = True
        mask[ring.neg_table[ids]] = True
        mask[add[np.ix_(ids, ids)]] = True


def is_two_sided_ideal(ring: FiniteRing, subset: ElementSet | Iterable[int]) -> bool:
    """Whether ``subset`` is a two-sided ideal.

    Closure under + and negation is checked on every pair of members;
    closure under multiplication only by the ring's additive generators,
    on both sides, which decides it for every element by biadditivity.
    """
    ids = np.asarray(sorted(subset.members if isinstance(subset, ElementSet) else set(subset)),
                     dtype=np.int64)
    mask = np.zeros(ring.order, dtype=bool)
    mask[ids] = True
    return bool(ids.size) and _is_ideal_mask(ring, mask)


def _is_ideal_mask(ring: FiniteRing, mask: np.ndarray) -> bool:
    # A finite subset closed under + is a subgroup.  By biadditivity,
    # r*j for any r is a sum of the g*j over additive generators g.
    ids = np.flatnonzero(mask)
    gens = get_cache(ring).additive_generators
    add, mul = ring.add_table, ring.mul_table
    return bool(
        mask[ring.zero]
        and mask[add[np.ix_(ids, ids)]].all()
        and mask[ring.neg_table[ids]].all()
        and mask[mul[np.ix_(gens, ids)]].all()
        and mask[mul[np.ix_(ids, gens)]].all()
    )


@dataclass(frozen=True)
class LiftReport:
    """Outcome of idempotent lifting modulo an ideal."""

    lifts: bool
    witnesses: dict[int, int]
    failure: Optional[int] = None


def idempotents_lift_mod(ring: FiniteRing, ideal: ElementSet | Iterable[int]) -> LiftReport:
    """Whether every x with x^2 - x in I lifts to an idempotent e, e - x in I.

    ``witnesses[x]`` is the least such e: the least idempotent of the
    coset x + I.  On failure ``failure`` is the least x without a lift
    and ``witnesses`` holds the x below it.
    """
    ids = sorted(ideal.members if isinstance(ideal, ElementSet) else set(ideal))
    if not is_two_sided_ideal(ring, ids):
        raise IdealError(f"subset {ids} is not a two-sided ideal of {ring.name}")
    imask = np.zeros(ring.order, dtype=bool)
    imask[ids] = True
    return _lift_mod_mask(ring, imask)


def _lift_mod_mask(ring: FiniteRing, imask: np.ndarray) -> LiftReport:
    """:func:`idempotents_lift_mod` for an ideal the caller has verified."""
    n = ring.order
    ids = np.flatnonzero(imask)
    add = ring.add_table
    idx = np.arange(n)
    need = np.flatnonzero(imask[add[ring.mul_table[idx, idx], ring.neg_table]])
    # x and y share a coset of I iff they share its least element.
    rep = np.full(n, -1, dtype=np.int64)
    rep[need] = add[np.ix_(need, ids)].min(axis=1)
    # Every idempotent is in ``need`` (e^2 - e = 0), so has a rep.
    idem = np.flatnonzero(get_cache(ring).idempotent_mask)
    lift_of = np.full(n, -1, dtype=np.int64)
    reps, first = np.unique(rep[idem], return_index=True)
    lift_of[reps] = idem[first]
    lift = lift_of[rep[need]]
    missing = np.flatnonzero(lift < 0)
    stop = int(missing[0]) if missing.size else need.size
    witnesses = dict(zip(need[:stop].tolist(), lift[:stop].tolist()))
    if missing.size:
        return LiftReport(False, witnesses, failure=int(need[stop]))
    return LiftReport(True, witnesses)


def one_sided_ideals(
    ring: FiniteRing,
    side: str = "left",
    count_limit: int = DEFAULT_IDEAL_COUNT_LIMIT,
    order_limit: int = DEFAULT_IDEAL_ORDER_LIMIT,
) -> list[frozenset[int]]:
    """All left (or right) ideals via join closure of cyclic ones.

    Raises :class:`SizeOverflowError` above ``order_limit`` and
    :class:`LatticeLimitError` when the lattice would exceed
    ``count_limit``; bounds are reported, never silently truncated.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    n = ring.order
    if n > order_limit:
        raise SizeOverflowError(n, order_limit)
    add = ring.add_table
    # Row a of this table is Ra (left) or aR (right).
    mul = ring.mul_table.T if side == "left" else ring.mul_table
    cyclic = sorted(
        {frozenset(np.unique(mul[a]).tolist()) for a in range(n)},
        key=lambda s: (len(s), sorted(s)),
    )
    if len(cyclic) > count_limit:
        raise LatticeLimitError(count_limit)
    known: set[frozenset[int]] = set(cyclic)
    queue = list(cyclic)
    while queue:
        current = queue.pop()
        cur_ids = sorted(current)
        for gen in cyclic:
            if gen <= current:
                continue  # the join is current itself
            joined = frozenset(
                int(v) for v in np.unique(add[np.ix_(cur_ids, sorted(gen))])
            )
            if joined not in known:
                known.add(joined)
                if len(known) > count_limit:
                    raise LatticeLimitError(count_limit)
                queue.append(joined)
    return sorted(known, key=lambda s: (len(s), sorted(s)))


def maximal_members(lattice: list[frozenset[int]], order: int) -> list[frozenset[int]]:
    """The proper members of a complete ideal lattice inside no other.

    Every one-sided ideal of a finite ring is a finite sum of cyclic
    ones, so :func:`one_sided_ideals` holds them all, and a proper
    member inside no other proper member is maximal: M + Ra = R for
    every a outside M.
    """
    proper = [m for m in lattice if len(m) < order]
    return [m for m in proper if not any(m < p for p in proper)]
