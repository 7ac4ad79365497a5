"""Finite unital rings on dense element ids 0..order-1.

Every ring in this package is a :class:`FiniteRing`, the one ring
class: an immutable value whose elements are the integers
``0..order-1`` and whose arithmetic is answered from its full numpy
Cayley tables.  Deciding the paper's classes sweeps every element's
decompositions over every idempotent, so every command that reads
elements reads the whole multiplication table anyway.  Constructors
therefore build dense tables up to ``threshold`` elements and refuse
larger rings before allocating them (:func:`check_order`).

All higher modules speak element ids only, never structural
representations, so subsets can be plain masks and kernels can be
vectorized over the raw tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import RingConstructionError, SizeOverflowError

#: Constructors build rings of at most this many elements.
DEFAULT_THRESHOLD = 16384

#: Full cubic axiom validation runs up to this order; above it, sampling.
DEFAULT_AXIOM_LIMIT = 512

_SAMPLE_TRIPLES = 512
_SEED = 0x51AB

#: Side of the square tiles that additive commutativity is checked on.
_TILE = 128


def dtype_for(order: int) -> np.dtype:
    """Smallest unsigned dtype that holds ids below ``order``."""
    if order <= 256:
        return np.dtype(np.uint8)
    if order <= 65536:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


def check_order(order: int, threshold: int) -> None:
    """Refuse an order above ``threshold`` before its tables exist.

    The error names the order and the bytes its add and mul tables
    would take, 2 * order^2 * itemsize.
    """
    if order > threshold:
        table_bytes = 2 * order * order * dtype_for(order).itemsize
        raise SizeOverflowError(order, threshold, table_bytes)


class FiniteRing:
    """A finite associative unital ring on its dense Cayley tables.

    Elements are the ids ``0..order-1``.  ``add_table``, ``mul_table``
    and ``neg_table`` are read-only arrays in ``dtype_for(order)``;
    ``neg`` is derived from the add table by an order^2 scan unless the
    caller already knows it (constructors encode it per coordinate), and
    :func:`validate_axioms` checks it either way.  Instances are
    immutable after construction and safe to share across threads.
    ``spec`` records the construction tree that produced the ring
    (``None`` for raw table rings), ``name`` defaults to ``ring<order>``,
    and ``meta`` carries construction byproducts such as projection or
    embedding maps.
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
        self.spec = spec
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


@dataclass(frozen=True)
class ElementSet:
    """A subset of a ring's elements with bitset semantics."""

    ring: FiniteRing
    members: frozenset[int]

    def __post_init__(self):
        bad = [m for m in self.members if not 0 <= m < self.ring.order]
        if bad:
            raise ValueError(f"element ids out of range: {bad}")

    @classmethod
    def from_mask(cls, ring: FiniteRing, mask: np.ndarray) -> "ElementSet":
        return cls(ring, frozenset(int(i) for i in np.flatnonzero(mask)))

    def mask(self) -> np.ndarray:
        out = np.zeros(self.ring.order, dtype=bool)
        out[self.sorted_ids()] = True
        return out

    def sorted_ids(self) -> list[int]:
        return sorted(self.members)

    def labels(self) -> list[str]:
        return [self.ring.label_of(i) for i in self.sorted_ids()]

    def __contains__(self, a: int) -> bool:
        return a in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sorted_ids())


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


def _derive_neg(add_table: np.ndarray, zero: int) -> np.ndarray:
    n = len(add_table)
    neg = np.full(n, -1, dtype=np.int64)
    rows, cols = np.nonzero(add_table == zero)
    neg[rows] = cols
    if (neg < 0).any():
        a = int(np.flatnonzero(neg < 0)[0])
        raise RingConstructionError(f"element {a} has no additive inverse")
    return neg.astype(dtype_for(n))


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


def additive_generators(add: np.ndarray, zero: int) -> np.ndarray:
    """Greedy additive generators: every id is reached from ``zero``.

    Takes the least unreached id as the next generator, then closes the
    reached set under ``add[reached, gens]`` until it covers every
    element.  Each generator at least doubles the reached subgroup of a
    group, so a group of order n needs at most log2(n) of them.
    """
    n = len(add)
    reached = np.zeros(n, dtype=bool)
    reached[zero] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        reached[gens[-1]] = True
        frontier = np.flatnonzero(reached)
        while frontier.size:
            hit = np.zeros(n, dtype=bool)
            hit[add[frontier[:, None], gens]] = True
            hit &= ~reached
            reached |= hit
            frontier = np.flatnonzero(hit)
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


def validate_axioms(
    ring: FiniteRing,
    limit: int = DEFAULT_AXIOM_LIMIT,
    *,
    samples: int = _SAMPLE_TRIPLES,
) -> ValidationReport:
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
    the limit a fixed-seed sample of ``samples`` triples is checked
    instead ("sampled" mode).
    """
    n = ring.order
    mode = "full" if n <= limit else "sampled"

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
        from .invariants import get_cache

        gens = get_cache(ring).additive_generators
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
    count = min(samples, n * n * n)
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
    validate: bool = True,
    limit: int = DEFAULT_AXIOM_LIMIT,
) -> FiniteRing:
    """Build a validated ring from raw square add/mul tables.

    The additive zero and the two-sided multiplicative identity are
    located automatically; ``neg`` is derived from the add table.
    Raises :class:`RingConstructionError` on dimension mismatch,
    non-group addition, a missing identity, or any axiom failure.
    """
    add = np.asarray(add_table, dtype=np.int64)
    mul = np.asarray(mul_table, dtype=np.int64)
    if add.ndim != 2 or add.shape[0] != add.shape[1]:
        raise RingConstructionError(f"add table is not square: shape {add.shape}")
    if mul.shape != add.shape:
        raise RingConstructionError(
            f"table dimension mismatch: add {add.shape} vs mul {mul.shape}"
        )
    n = add.shape[0]
    if n == 0:
        raise RingConstructionError("empty tables")
    if add.min() < 0 or add.max() >= n or mul.min() < 0 or mul.max() >= n:
        raise RingConstructionError("table entries out of range")

    idx = np.arange(n)
    zeros = [a for a in range(n) if (add[a] == idx).all()]
    if not zeros:
        raise RingConstructionError("addition has no zero row (not a group)")
    zero = zeros[0]
    # Each add row must be a permutation for inverses to exist.
    for a in range(n):
        if len(np.unique(add[a])) != n:
            raise RingConstructionError(f"addition is not a group: row {a} repeats")
    ones = [e for e in range(n) if (mul[e] == idx).all() and (mul[:, e] == idx).all()]
    if not ones:
        raise RingConstructionError("missing multiplicative identity")
    one = ones[0]

    ring = FiniteRing(add, mul, zero, one, labels=labels, spec=spec, name=name)
    if validate:
        report = validate_axioms(ring, limit=limit)
        if not report.ok:
            raise RingConstructionError(
                f"axiom {report.axiom} fails at {report.witness}"
            )
    return ring

