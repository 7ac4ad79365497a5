"""Canonical element sets of a finite ring, and the ring's one memo.

Idempotents, units, nilpotents, the Jacobson radical, the center,
central-idempotent-plus-radical elements, ideal closure, idempotent
lifting, and the one-sided ideal lattice.  Everything is
exact, computed from the ring's tables with no search bound.  Sets are
kept as boolean masks and returned as sorted int64 id arrays.  Units
are read in blocks of rows of the multiplication table, each compared
with 1, with no order^2 temporary: each row's first hit is its
candidate inverse, and a guard over the whole table that every hit is
its row's only one and is two-sided (true in every finite ring)
follows.  Three kernels avoid a sweep of the whole multiplication table:

* J is read by right quasi-regularity (1 - a*r a unit for every r) on
  the rows of the nilpotents only: J of a finite ring is nilpotent, so
  J is inside Nil.
* Idempotents lift modulo an ideal I as read off Idem + I, the
  |Idem|*|I| sums e + i: the least idempotent of x + I is the least e
  with x in e + I.
* The product is biadditive, so x is central iff it commutes with each
  of the ring's k <= log2(n) additive generators, and the ideal that a
  set generates is its :func:`ringlab.core.closure` under +, negation
  and multiplication by those generators on both sides.  A set is a
  two-sided ideal iff it holds 0 and each of these steps maps it into
  itself: J's guard, ideal tests and ideal closure read k rows, not n.

:class:`InvariantCache` is the one per-ring memo: these masks, and what
:mod:`ringlab.classify` stores through :meth:`InvariantCache.memo`.  It
is write-once and refers to its ring only weakly, so a ring is freed as
soon as its last outside reference goes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .core import FiniteRing, additive_generators, closure, element_ids
from .errors import IdealError, LatticeLimitError, SizeOverflowError

DEFAULT_IDEAL_ORDER_LIMIT = 256
DEFAULT_IDEAL_COUNT_LIMIT = 100_000

#: Table cells one block of a row scan reads.
_SCAN_CELLS = 1 << 20


def _row_blocks(rows: int, width: int, cells: int = _SCAN_CELLS):
    """Consecutive slices of ``range(rows)``, each of about ``cells`` cells of
    rows ``width`` long (at least one row)."""
    step = max(1, cells // width)
    return (slice(start, min(start + step, rows)) for start in range(0, rows, step))


class InvariantCache:
    """The ring's one memo: element sets, classify's results and the axiom
    reports of :func:`ringlab.core.validate_axioms`, one per ring and mode."""

    def __init__(self, ring: FiniteRing):
        # Weak: the ring owns its cache, and a strong reference back
        # would keep every ring alive until a full garbage collection.
        self._ring = weakref.ref(ring)
        self._memo: dict[str, object] = {}

    @property
    def ring(self) -> FiniteRing:
        return self._ring()

    def memo(self, key: str, compute):
        """``compute()`` once per ring; arrays are stored read-only."""
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
        first = np.empty(n, dtype=np.intp)
        mask = np.empty(n, dtype=bool)
        hits = 0
        for rows in _row_blocks(n, n):
            hit = mul[rows] == one
            first[rows] = hit.argmax(axis=1)
            mask[rows] = hit.any(axis=1)
            hits += np.count_nonzero(hit)
        units = np.flatnonzero(mask)
        # Finite rings: one-sided inverses are two-sided, hence unique,
        # so every hit is its row's first and pairs with a hit back.
        if not ((mul[first[units], units] == one).all() and hits == units.size):
            hit_rows, hit_cols = np.nonzero(mul == one)
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
            # Right quasi-regularity: a in J iff 1 - a*r is a unit for
            # every r, tested on the rows of the nilpotent a only, since
            # J is inside Nil.
            ring = self.ring
            n = ring.order
            nil = np.flatnonzero(self.nilpotent_mask)
            # one_minus_unit[v]: whether 1 - v is a unit.
            one_minus_unit = self.unit_mask[ring.add_table[ring.one, ring.neg_table]]
            mask = np.zeros(n, dtype=bool)
            for rows in _row_blocks(nil.size, n):
                block = nil[rows]
                mask[block[one_minus_unit[ring.mul_table[block]].all(axis=1)]] = True
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


def idempotents(ring: FiniteRing) -> np.ndarray:
    """{e : e*e = e}, as sorted ids."""
    return np.flatnonzero(get_cache(ring).idempotent_mask)


def units(ring: FiniteRing) -> np.ndarray:
    """{u : u*v = v*u = 1 for some v}, as sorted ids."""
    return np.flatnonzero(get_cache(ring).unit_mask)


def nilpotents(ring: FiniteRing) -> np.ndarray:
    """{a : a^k = 0 for some k <= order}, as sorted ids."""
    return np.flatnonzero(get_cache(ring).nilpotent_mask)


def jacobson_radical(ring: FiniteRing) -> np.ndarray:
    """{a : 1 - r*a is a unit for all r}, as sorted ids; verified to be a two-sided ideal."""
    return np.flatnonzero(get_cache(ring).jacobson_mask)


def center(ring: FiniteRing) -> np.ndarray:
    """{a : a*r = r*a for all r}, as sorted ids."""
    return np.flatnonzero(get_cache(ring).center_mask)


def ucn0(ring: FiniteRing) -> np.ndarray:
    """{e + j : e a central idempotent, j in the radical}, as sorted ids."""
    return np.flatnonzero(get_cache(ring).ucn0_mask)


def _ideal_steps(ring: FiniteRing) -> tuple:
    """The :func:`ringlab.core.closure` steps of a two-sided ideal: +,
    negation and products with the ring's additive generators on both
    sides.  A set they map into itself is closed under multiplication
    by every element, since r*x is a sum of the g*x over additive
    generators g."""
    add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
    gens = get_cache(ring).additive_generators
    return (lambda new, ids: add[new[:, None], ids],
            lambda new, _: neg[new],
            lambda new, _: mul[gens[:, None], new],
            lambda new, _: mul[new[:, None], gens])


def ideal_generated(ring: FiniteRing, generators: Iterable[int]) -> np.ndarray:
    """Sorted ids of the least two-sided ideal containing ``generators``:
    the closure of 0 and the generators under :func:`_ideal_steps`.
    Empty generators give {0}; a unit generator gives the whole ring."""
    seed = np.append(element_ids(generators, ring.order), ring.zero)
    return closure(ring.order, seed, *_ideal_steps(ring))


def is_two_sided_ideal(ring: FiniteRing, subset: Iterable[int]) -> bool:
    """Whether the ids ``subset`` form a two-sided ideal."""
    mask = np.zeros(ring.order, dtype=bool)
    mask[element_ids(subset, ring.order)] = True
    return _is_ideal_mask(ring, mask)


def _is_ideal_mask(ring: FiniteRing, mask: np.ndarray) -> bool:
    """S holds 0 and each of :func:`_ideal_steps` maps S x S into S.  The
    steps are additive in each argument, so one application decides
    what the closure would: a set that passes is its own closure."""
    ids = np.flatnonzero(mask)
    return bool(mask[ring.zero]) and all(mask[step(ids, ids)].all() for step in _ideal_steps(ring))


@dataclass(frozen=True)
class LiftReport:
    """Outcome of idempotent lifting modulo an ideal."""

    lifts: bool
    witnesses: dict[int, int]
    failure: Optional[int] = None


def idempotents_lift_mod(ring: FiniteRing, ideal: Iterable[int]) -> LiftReport:
    """Whether every x with x^2 - x in I lifts to an idempotent e, e - x in I.

    ``witnesses[x]`` is the least such e: the least idempotent of the
    coset x + I.  On failure ``failure`` is the least x without a lift
    and ``witnesses`` holds the x below it.
    """
    ids = element_ids(ideal, ring.order)
    if not is_two_sided_ideal(ring, ids):
        raise IdealError(
            f"subset {np.unique(ids).tolist()} is not a two-sided ideal of {ring.name}")
    imask = np.zeros(ring.order, dtype=bool)
    imask[ids] = True
    return _lift_mod_mask(ring, imask)


def _lift_mod_mask(ring: FiniteRing, imask: np.ndarray) -> LiftReport:
    """:func:`idempotents_lift_mod` for an ideal the caller has verified."""
    n = ring.order
    add = ring.add_table
    idx = np.arange(n)
    need = np.flatnonzero(imask[add[ring.mul_table[idx, idx], ring.neg_table]])
    # lift_of[x]: the least idempotent e with x in e + I, marked on
    # Idem + I; n where there is none.  minimum.at, since a plain
    # assignment leaves unspecified which write wins on repeated ids.
    idem = np.flatnonzero(get_cache(ring).idempotent_mask)
    lift_of = np.full(n, n, dtype=np.int64)
    np.minimum.at(lift_of, add[np.ix_(idem, np.flatnonzero(imask))], idem[:, None])
    lift = lift_of[need]
    missing = np.flatnonzero(lift == n)
    stop = int(missing[0]) if missing.size else need.size
    witnesses = dict(zip(need[:stop].tolist(), lift[:stop].tolist()))
    if missing.size:
        return LiftReport(False, witnesses, failure=int(need[stop]))
    return LiftReport(True, witnesses)


def one_sided_ideals(ring: FiniteRing, side: str = "left") -> list[frozenset[int]]:
    """All left (or right) ideals via join closure of cyclic ones.

    Raises :class:`SizeOverflowError` above order
    ``DEFAULT_IDEAL_ORDER_LIMIT`` and :class:`LatticeLimitError` when
    the lattice would exceed ``DEFAULT_IDEAL_COUNT_LIMIT`` members;
    bounds are reported, never silently truncated.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    n = ring.order
    if n > DEFAULT_IDEAL_ORDER_LIMIT:
        raise SizeOverflowError(n, DEFAULT_IDEAL_ORDER_LIMIT)
    add = ring.add_table
    # Row a of this table is Ra (left) or aR (right).
    mul = ring.mul_table.T if side == "left" else ring.mul_table
    cyclic = sorted(
        {frozenset(np.unique(mul[a]).tolist()) for a in range(n)},
        key=lambda s: (len(s), sorted(s)),
    )
    count_limit = DEFAULT_IDEAL_COUNT_LIMIT
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
