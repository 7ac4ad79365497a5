"""Finite unital rings on dense element ids 0..order-1.

Every ring in this package is a :class:`FiniteRing`, the one ring
class: an immutable value whose elements are the integers
``0..order-1`` and whose arithmetic is answered from its full numpy
Cayley tables.  Deciding the paper's classes reads every row of the
multiplication table once, for the units, so every command that reads
elements reads the whole table anyway.  Constructors
therefore build dense tables up to ``threshold`` elements and refuse
larger rings before allocating them (:func:`check_order`).

All higher modules speak element ids only, never structural
representations, so subsets can be plain masks and kernels can be
vectorized over the raw tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import RingConstructionError, SizeOverflowError

#: Constructors build rings of at most this many elements.
DEFAULT_THRESHOLD = 16384

#: Orders up to which :func:`validate_axioms` checks the cubic laws in full,
#: for outside input (``table`` specs, ``ringlab build``, ``crosschecks``) and
#: for constructor output.  At 512 for builds, the five order-512 T2 rings of
#: ``verify`` would take 15-37 ms each instead of 0.4 ms sampled; at 256 for
#: input, tables of order 257-512 from outside the program would be sampled.
DEFAULT_AXIOM_LIMIT = 512
_BUILD_VALIDATE_LIMIT = 256

#: Triples that the sampled mode of :func:`validate_axioms` checks.
_SAMPLE_TRIPLES = 512
_SEED = 0x51AB

#: Side of the square tiles that additive commutativity is checked on.
_TILE = 128

#: Cells of one slice of a law's grid in :func:`check_law`.
_LAW_CELLS = 1 << 22


def dtype_for(order: int) -> np.dtype:
    """Smallest unsigned dtype that holds ids below ``order``."""
    if order <= 256:
        return np.dtype(np.uint8)
    if order <= 65536:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


#: Orders read from specs are exact below 2^64; :func:`order_power` and
#: :func:`order_product` give this value for any order from 2^64 up, and
#: :func:`check_order` refuses it whatever the threshold.
ORDER_CAP = 1 << 64


def order_power(base: int, e: int) -> int:
    """``base ** e``, or ``ORDER_CAP`` from 2^64 up, decided from ``e`` first."""
    if base < 2:
        return base
    if e * (base.bit_length() - 1) >= 64:
        return ORDER_CAP
    return min(base ** e, ORDER_CAP)


def order_product(orders: Iterable[int]) -> int:
    """The product of ``orders``, or ``ORDER_CAP`` from 2^64 up."""
    out = 1
    for order in orders:
        out = min(out * order, ORDER_CAP)
    return out


def check_order(order: int, threshold: int) -> None:
    """Refuse an order above ``threshold`` before its tables exist.

    The error names the order and the bytes its add and mul tables
    would take, 2 * order^2 * itemsize.
    """
    if order > threshold or order >= ORDER_CAP:
        table_bytes = 2 * order * order * dtype_for(order).itemsize
        raise SizeOverflowError(order, threshold, table_bytes)


class FiniteRing:
    """A finite associative unital ring on its dense Cayley tables.

    Elements are the ids ``0..order-1``.  ``add_table``, ``mul_table``
    and ``neg_table`` are read-only arrays in ``dtype_for(order)``;
    ``neg`` is derived from the add table by an order^2 scan unless the
    caller already knows it (constructors encode it per coordinate), and
    :func:`validate_axioms` checks it either way.  Instances are
    immutable after construction.
    ``spec`` records the construction tree that produced the ring; a ring
    given none, such as a raw table ring, records a ``table`` spec of its
    own tables and labels on first read.  ``name`` defaults to ``ring<order>``,
    and ``meta`` carries construction byproducts: maps such as a
    projection or an embedding, and flags.  No ring holds another ring.
    :func:`ringlab.construct.build` gives equal specs one live ring, its
    memo included; a spec with a table argument is never shared, and code
    that patches a kernel must start from an empty registry.
    """

    def __init__(
        self,
        add_table: np.ndarray,
        mul_table: np.ndarray,
        zero: int,
        one: int,
        labels: Optional[Sequence[str]] = None,
        spec: Optional[dict] = None,
        name: Optional[str] = None,
        neg: Optional[np.ndarray] = None,
    ):
        order = len(add_table)
        if order < 1:
            raise RingConstructionError(f"order must be positive, got {order}")
        if order > 1 and zero == one:
            raise RingConstructionError("zero = one requires order 1")
        self.order = order
        self.zero = int(zero)
        self.one = int(one)
        self._spec = spec
        self.name = name or f"ring{order}"
        self._labels = list(labels) if labels is not None else None
        self._label_index: Optional[dict] = None
        self.meta: dict = {}
        self._invariant_cache = None
        dt = dtype_for(order)
        self.add_table = _read_only(add_table, dt)
        self.mul_table = _read_only(mul_table, dt)
        self.neg_table = _read_only(
            _derive_neg(self.add_table, zero) if neg is None else neg, dt)

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def elements(self) -> range:
        return range(self.order)

    @property
    def spec(self) -> dict:
        if self._spec is None:
            self._spec = {"table": {"add": self.add_table.tolist(),
                                    "mul": self.mul_table.tolist(), "labels": list(self.labels)}}
        return self._spec

    # -- labels ----------------------------------------------------------

    @property
    def labels(self) -> list[str]:
        if self._labels is None:
            self._labels = [str(i) for i in range(self.order)]
        return self._labels

    def label_of(self, a: int) -> str:
        return self.labels[a]

    def id_of(self, label: str) -> Optional[int]:
        """Resolve a display label back to an element id, or None."""
        if self._label_index is None:
            self._label_index = {lbl: i for i, lbl in enumerate(self.labels)}
        return self._label_index.get(label)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} order={self.order}>"


#: The class's former name.  The benchmark tracer in ``perfbench/``
#: still tests ``isinstance`` against it.
TableRing = FiniteRing


def _read_only(table, dtype: np.dtype) -> np.ndarray:
    out = np.ascontiguousarray(table, dtype=dtype)
    out.setflags(write=False)
    return out


# -- input checks ------------------------------------------------------
#
# Tables, actions, maps and element ids handed in by specs or callers
# are checked here before any kernel indexes with them.


def as_table(table, shape: tuple, bound: int, error: Exception,
             dtype: np.dtype = np.dtype(np.int64)) -> np.ndarray:
    """``table`` as a new ``dtype`` array of ``shape`` with entries in ``0..bound-1``.

    An integer array is range-checked in its own dtype and copied once,
    into ``dtype``; any other input is read as int64 first.  Raises
    ``error`` when ``table`` is malformed: ragged, of another shape,
    holding an entry outside that range, or a Python int too large for
    int64.
    """
    try:
        out = np.asarray(table)
        if out.dtype.kind not in "iu":
            out = np.asarray(table, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        raise error from None
    if out.shape != shape or (out.size and (out.min() < 0 or out.max() >= bound)):
        raise error
    return out.astype(dtype)


def element_ids(ids: Iterable[int], order: int) -> np.ndarray:
    """``ids`` as an int64 array; an id outside ``0..order-1`` is refused.

    Negative ids are refused too, never read from the end.
    """
    out = np.fromiter(ids, dtype=np.int64)
    bad = out[(out < 0) | (out >= order)]
    if bad.size:
        raise RingConstructionError(
            f"element ids must lie in 0..{order - 1}, got {bad.tolist()}")
    return out


def identity_row(table: np.ndarray, two_sided: bool = False) -> Optional[int]:
    """The least e whose row of ``table`` is the identity map, or None.

    With ``two_sided`` e's column must be the identity map too, and
    such an e is unique.
    """
    idx = np.arange(len(table))
    hit = (table == idx).all(axis=1)
    if two_sided:
        hit &= (table == idx[:, None]).all(axis=0)
    at = np.flatnonzero(hit)
    return int(at[0]) if at.size else None


def repeated_row(table: np.ndarray) -> Optional[int]:
    """The first row of a square table of ids that repeats an entry, or None.

    One boolean scatter marks each row's entries; a row is a
    permutation iff it marks every column.
    """
    n = len(table)
    seen = np.zeros((n, n), dtype=bool)
    seen[np.arange(n)[:, None], table] = True
    bad = np.flatnonzero(~seen.all(axis=1))
    return int(bad[0]) if bad.size else None


def _derive_neg(table: np.ndarray, identity: int, what: str = "element") -> np.ndarray:
    """The b with ``table[a, b] == identity`` for each a, in ``dtype_for(n)``."""
    n = len(table)
    neg = np.full(n, -1, dtype=np.int64)
    rows, cols = np.nonzero(table == identity)
    neg[rows] = cols
    if (neg < 0).any():
        a = int(np.flatnonzero(neg < 0)[0])
        raise RingConstructionError(f"{what} {a} has no inverse")
    return neg.astype(dtype_for(n))


def check_law(error: Callable[[tuple], Exception], sizes: Sequence[int], lhs, rhs) -> None:
    """Raise ``error(witness)`` at the first violation of ``lhs == rhs``.

    ``lhs`` and ``rhs`` take one ``np.ix_`` index array per axis, in the
    law's own order ((a, b, c) for (ab)c = a(bc)), and both sides are
    evaluated on that grid.  The grid goes in slices of its first axis
    of at most ``_LAW_CELLS`` cells, so the witness is the first
    violation in row-major order and memory stays bounded.
    """
    first, rest = sizes[0], [np.arange(s) for s in sizes[1:]]
    step = max(1, _LAW_CELLS // math.prod(sizes[1:]))
    for lo in range(0, first, step):
        grid = np.ix_(np.arange(lo, min(lo + step, first)), *rest)
        at = _first_mismatch(lhs(*grid), rhs(*grid))
        if at is not None:
            raise error((at[0] + lo,) + at[1:])


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_axioms`.

    ``ok`` is the verdict; on failure ``axiom`` names the first violated
    law and ``witness`` carries the offending element tuple, in the
    order the law is written: ``(a, b, c)`` for ``(a+b)+c``,
    ``(ab)c``, ``a(b+c) = ab+ac`` and ``(a+b)c = ac+bc``.  ``mode``
    records whether the cubic laws were checked in full or on sampled
    triples.
    """

    ok: bool
    mode: str
    triples_checked: int
    axiom: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def _is_symmetric(table: np.ndarray) -> bool:
    """Whether ``table == table.T``, compared tile by tile.

    A whole-table ``table.T`` reads memory with an order-sized stride;
    square tiles of the upper triangle against their mirror images stay
    in cache.
    """
    n = len(table)
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            if not np.array_equal(table[i:i + _TILE, j:j + _TILE],
                                  table[j:j + _TILE, i:i + _TILE].T):
                return False
    return True


def _first_mismatch(lhs: np.ndarray, rhs: np.ndarray) -> Optional[tuple]:
    """Index of the first entry where ``lhs`` and ``rhs`` differ, or None."""
    bad = lhs != rhs
    if not bad.any():
        return None
    return tuple(int(v) for v in np.argwhere(bad)[0])


def closure(order: int, seed, *steps) -> np.ndarray:
    """Sorted ids of the least set that holds ``seed`` and that each step maps into itself.

    A step ``step(new, members)`` returns ids that must join the set,
    given this round's new ids and every member so far, ``new``
    included.  Every seed id starts out new, and each round passes on
    only what it added, so no product of two members from earlier
    rounds is formed again.
    """
    mask = np.zeros(order, dtype=bool)
    mask[seed] = True
    members = new = np.flatnonzero(mask)
    while new.size:
        hit = np.zeros(order, dtype=bool)
        for step in steps:
            hit[step(new, members)] = True
        hit[members] = False
        new = np.flatnonzero(hit)
        mask[new] = True
        members = np.flatnonzero(mask)
    return members


def additive_generators(add: np.ndarray, zero: int) -> np.ndarray:
    """Greedy additive generators: every id is reached from ``zero``.

    Takes the least unreached id as the next generator, then closes the
    reached set under adding each generator.  Each generator at least
    doubles the reached subgroup of a group, so a group of order n
    needs at most log2(n) of them.
    """
    n, gens = len(add), []
    reached = np.asarray([zero])
    while reached.size < n:
        unreached = np.ones(n, dtype=bool)
        unreached[reached] = False
        gens.append(int(np.argmax(unreached)))
        gen_ids = np.asarray(gens)
        reached = closure(n, np.append(reached, gens[-1]),
                          lambda new, _: add[new[:, None], gen_ids])
    return np.asarray(gens, dtype=np.int64)


def additive_associativity_witness(add: np.ndarray, gens: np.ndarray) -> Optional[tuple]:
    """A triple (a, b, c) with (a+b)+c != a+(b+c), or None if there is none.

    Light's test: the b with (a+b)+c = a+(b+c) for all a, c are closed
    under + and contain a two-sided zero, so checking b on ``gens``
    (from :func:`additive_generators`) decides all n^3 triples in
    k n^2 steps.  Callers check first that ``zero``'s row is the
    identity and that the table is commutative.
    """
    for g in gens:
        at = _first_mismatch(add[add[:, g], :], add[:, add[g, :]])
        if at is not None:
            return (at[0], int(g), at[1])
    return None


def validate_axioms(ring: FiniteRing, limit: int = DEFAULT_AXIOM_LIMIT) -> ValidationReport:
    """Check the ring axioms exactly, or by seeded sampling when big.

    Quadratic laws (closure, additive commutativity/inverses, the two
    identities) are always checked in full.  The cubic laws (both
    associativities, both distributivities) are decided for all
    ``order^3`` triples when ``order <= limit`` ("full" mode), from k
    additive generators (k <= log2(order)) in O(k * order^2) steps:
    Light's test for additive associativity, each distributive law on
    generators (a map additive on generators is additive everywhere),
    and multiplicative associativity on generator triples (both sides
    are trilinear).  A failure carries a real violating triple.  Above
    the limit a fixed-seed sample of ``_SAMPLE_TRIPLES`` triples is
    checked instead ("sampled" mode).  Rings are immutable and the seed
    is fixed per order, so the ring's memo keeps one report per mode.
    """
    from .invariants import get_cache

    cache, mode = get_cache(ring), "full" if ring.order <= limit else "sampled"
    return cache.memo(f"axioms:{mode}", lambda: _axiom_report(ring, mode, cache))


def check_axioms(ring: FiniteRing, limit: int = _BUILD_VALIDATE_LIMIT) -> None:
    """Raise :class:`RingConstructionError`, naming the ring, unless its axioms hold."""
    report = validate_axioms(ring, limit)
    if not report.ok:
        raise RingConstructionError(f"{ring.name} fails axiom {report.axiom} at {report.witness}")


def _axiom_report(ring: FiniteRing, mode: str, cache) -> ValidationReport:
    n = ring.order
    add = ring.add_table
    mul = ring.mul_table
    neg = ring.neg_table
    zero, one = ring.zero, ring.one

    def fail(axiom, witness, checked=0):
        return ValidationReport(False, mode, checked, axiom, tuple(int(x) for x in witness))

    # Closure and shape.
    for tab, what in ((add, "add"), (mul, "mul")):
        if tab.shape != (n, n):
            return fail(f"{what}-shape", (n,))
        if int(tab.max(initial=0)) >= n:
            r, c = np.argwhere(tab >= n)[0]
            return fail(f"{what}-closure", (r, c))

    # Abelian-group laws for addition (quadratic parts).
    if not _is_symmetric(add):
        r, c = np.argwhere(add != add.T)[0]
        return fail("add-commutativity", (r, c))
    idx = np.arange(n)
    if not (add[zero] == idx).all():
        b = int(np.flatnonzero(add[zero] != idx)[0])
        return fail("add-zero", (zero, b))
    if not (add[idx, neg] == zero).all():
        a = int(np.flatnonzero(add[idx, neg] != zero)[0])
        return fail("add-inverse", (a,))

    # Multiplicative identity, both sides.
    if not (mul[one] == idx).all():
        b = int(np.flatnonzero(mul[one] != idx)[0])
        return fail("mul-left-identity", (one, b))
    if not (mul[:, one] == idx).all():
        a = int(np.flatnonzero(mul[:, one] != idx)[0])
        return fail("mul-right-identity", (a, one))

    if mode == "full":
        # Every law is checked on additive generators only; each check
        # still decides all n^3 triples.
        checked = n * n * n
        # The ring's memo: its later invariants read the same generators.
        gens = cache.additive_generators
        witness = additive_associativity_witness(add, gens)
        if witness is not None:
            return fail("add-associativity", witness, checked)
        # In the group (A, +), the g with a(x+g) = ax+ag for all a, x are
        # closed under + and so contain 0; likewise for (x+g)c = xc+gc.
        for g in gens:
            at = _first_mismatch(mul[:, add[:, g]], add[mul, mul[:, g][:, None]])
            if at is not None:
                return fail("left-distributivity", (at[0], at[1], g), checked)
            at = _first_mismatch(mul[add[:, g], :], add[mul, mul[g][None, :]])
            if at is not None:
                return fail("right-distributivity", (at[0], g, at[1]), checked)
        # Both sides of (ab)c = a(bc) are trilinear: generator triples suffice.
        ab = mul[np.ix_(gens, gens)]
        at = _first_mismatch(
            mul[ab[:, :, None], gens[None, None, :]],
            mul[gens[:, None, None], ab[None, :, :]],
        )
        if at is not None:
            return fail("mul-associativity", gens[list(at)], checked)
        return ValidationReport(True, mode, checked)

    # Sampled cubic laws with a fixed seed: deterministic across runs.
    rng = np.random.default_rng(_SEED + n)
    count = min(_SAMPLE_TRIPLES, n * n * n)
    a = rng.integers(0, n, size=count)
    b = rng.integers(0, n, size=count)
    c = rng.integers(0, n, size=count)
    checks = (
        ("add-associativity", add[add[a, b], c], add[a, add[b, c]]),
        ("mul-associativity", mul[mul[a, b], c], mul[a, mul[b, c]]),
        ("left-distributivity", mul[a, add[b, c]], add[mul[a, b], mul[a, c]]),
        ("right-distributivity", mul[add[a, b], c], add[mul[a, c], mul[b, c]]),
    )
    for axiom, lhs, rhs in checks:
        bad = np.flatnonzero(lhs != rhs)
        if bad.size:
            i = int(bad[0])
            return fail(axiom, (a[i], b[i], c[i]), count)
    return ValidationReport(True, mode, count)


def table_ring(
    add_table,
    mul_table,
    labels: Optional[Sequence[str]] = None,
    *,
    name: Optional[str] = None,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """Build a validated ring from raw square add/mul tables.

    The additive zero and the two-sided multiplicative identity are
    located automatically; ``neg`` is derived from the add table.
    Raises :class:`RingConstructionError` on dimension mismatch, a label
    count other than the order, non-group addition, a missing identity,
    or any axiom failure, as :func:`validate_axioms` decides it at its
    default limit.
    """
    n = len(add_table)
    if n == 0:
        raise RingConstructionError("empty tables")
    dt = dtype_for(n)
    add = as_table(add_table, (n, n), n, RingConstructionError(
        f"add table must be {n} rows of {n} ids below {n}"), dt)
    mul = as_table(mul_table, (n, n), n, RingConstructionError(
        f"table dimension mismatch: mul must be {n} rows of {n} ids below {n}, as add is"), dt)
    if labels is not None and len(labels) != n:
        raise RingConstructionError(f"table has {n} elements but {len(labels)} labels")
    zero = identity_row(add)
    if zero is None:
        raise RingConstructionError("addition has no zero row (not a group)")
    # Each add row must be a permutation for inverses to exist.
    row = repeated_row(add)
    if row is not None:
        raise RingConstructionError(f"addition is not a group: row {row} repeats")
    one = identity_row(mul, two_sided=True)
    if one is None:
        raise RingConstructionError("missing multiplicative identity")

    ring = FiniteRing(add, mul, zero, one, labels=labels, spec=spec, name=name)
    check_axioms(ring, DEFAULT_AXIOM_LIMIT)
    return ring
