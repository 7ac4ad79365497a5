"""Constructors for every ring family the catalog uses.

Base rings (Z_n, GF(p^k)), direct products, full and upper-triangular
matrix rings, two-sided quotients, corner rings eRe, group rings with
their augmentation map, trivial and ideal extensions, formal triangular
rings, trivial Morita contexts, (skew) truncated polynomial rings, and
opposite rings.

Composite rings, and GF(p^k) as k coordinates over Z_p, are assembled
from mixed-radix element coordinates: the additive structure is always
componentwise, so only the multiplication formula varies per family.
Every family but the direct product (componentwise) and gf (Horner's
rule over the modulus) gives its product as data: a list of terms
``(h, k, t, table)``, each adding ``table[a_h, b_k]`` into digit t of
ab, which :func:`_bilinear` turns into the digit formula.  Each family
composes its one label list in bulk, as tuples "(x,y)", sums "c+c*s" or
matrix rows.  ``_assemble_ring`` evaluates the digit formula on an open
digit grid in the style of ``np.ix_``, one dimension per axis of
size > 1 and side, so a gather touches only the digits it depends on
(4^6 cells for entry (0,2) of T3(Z4), not 4096^2); axes of size 1 take
no dimension.  A table that one axis reads at its own digits (every add
table and neg, and each factor's mul table in a direct product) enters
the grid as a reshaped view, with no gather.  The mixed-radix encode
writes each order^2 table once, in ``dtype_for(order)``: the weighted
digits of the leading and of the trailing half of the axes are summed
on each half's own span and the two half-sums are added into the
table, so numpy's inner loop runs over whole trailing blocks; a half
whose digits already span the whole grid (a gf or group-ring product)
is added into the table in place.  Constructors build
dense tables of at most ``threshold`` elements (default 16384; quotients,
corners and opposite rings never outgrow their base) and refuse a larger
ring with :class:`SizeOverflowError`, naming the order and the bytes of
its tables, before allocating any of them (:func:`ringlab.core.check_order`).
:func:`build` reads the order of every node from the spec tree first,
so an oversized spec is refused before any of its factors is built.
``zn`` and each assembled ring go through :func:`ringlab.core.check_axioms`
at build time.  A quotient, corner, subring or opposite ring checks its base
instead, whose axioms imply its own (a memo read for a built base).  Module
add tables go through the same generator test for associativity.

The trivial extension, the ideal extension and the trivial Morita
context, T(A x B, M + N), are all base + M with (r,m)(s,n) =
(rs, rn + ms + mn) and share ``_module_extension``'s terms; each
bimodule is validated once by ``_validate_bimodule``.

Each spec kind is one row of ``_FAMILIES``: the shape of its arguments,
its order from the child orders, its display name from the child names,
and its constructor call.  One walk, ``_walk``, checks every node's shape
and, for :func:`build`, refuses its order above the threshold as soon as
it is read; :func:`validate_spec` runs it without orders.  So a new
family is one row there (``ringspec.schema.json`` documents the
grammar, and a test keeps it in step).  A group ring reads its group spec
through the kind table of :mod:`ringlab.groups`, shapes included.

After the walk, :func:`build` gives equal specs one live ring.  Each
node, the root and every child, is looked up by its canonical JSON
(:func:`spec_key`) before it is built, and registered by weak reference
after: a factor or base that some caller still holds is not built again,
and a ring that no caller holds is freed as before.  A node with a
``"table"`` argument below it (a ``table`` spec, the modules and actions
of the bimodule families, a group given by its table) is neither looked
up nor registered.  Constructors called directly never register.  A
ring's tables, labels, name and ``meta`` are a function of its spec, and
its memo a function of its tables, so a shared ring cannot be told from a
rebuilt one, unless a kernel is patched: code that patches one must
start from an empty registry (``_LIVE.clear()``).
"""

from __future__ import annotations

import itertools
import json
import math
import weakref
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_THRESHOLD,
    FiniteRing,
    _derive_neg,
    additive_associativity_witness,
    additive_generators,
    as_table,
    check_axioms,
    check_law,
    check_order,
    closure,
    distinct_ids,
    dtype_for,
    element_ids,
    identity_row,
    order_power,
    order_product,
    table_ring,
)
from .errors import (
    BimoduleError,
    EndomorphismError,
    RingConstructionError,
    SpecError,
)
from .groups import _KINDS as _GROUP_KINDS, Group, group_from_spec, group_name, group_order
from .invariants import get_cache, ideal_generated


# ---------------------------------------------------------------------------
# coordinate assembly


class _Axis:
    """One coordinate of a composite element: an additive group.

    ``mul`` is the coordinate's own product when it is a ring whose
    product acts componentwise (a factor of a direct product), else None.
    """

    def __init__(self, size: int, add: np.ndarray, neg: np.ndarray, zero: int,
                 mul: Optional[np.ndarray] = None):
        self.size = size
        self.add = add
        self.neg = neg
        self.zero = zero
        self.mul = mul

    @classmethod
    def of_ring(cls, ring: FiniteRing) -> "_Axis":
        return cls(ring.order, ring.add_table, ring.neg_table, ring.zero, ring.mul_table)


def _axis_of_module(add_table) -> tuple["_Axis", int]:
    """Validate a module's additive table as an abelian group."""
    n = len(add_table)
    add = as_table(add_table, (n, n), n, RingConstructionError("module add table malformed"))
    zero = identity_row(add)
    if zero is None:
        raise RingConstructionError("module addition has no zero")
    if not (add == add.T).all():
        raise RingConstructionError("module addition is not commutative")
    if additive_associativity_witness(add, additive_generators(add, zero)) is not None:
        raise RingConstructionError("module addition is not associative")
    # int64, as the add table: trivial_morita encodes pairs of both.
    neg = _derive_neg(add, zero, "module element").astype(np.int64)
    return _Axis(n, add, neg, zero), zero


def _module_labels(m_tables: dict, n: int, module: str = "M") -> list:
    """A module's labels, or its element ids as strings when it gives none."""
    labels = m_tables.get("labels")
    if labels is None:
        return [str(i) for i in range(n)]
    if len(labels) != n:
        raise RingConstructionError(
            f"module {module} has {n} elements but {len(labels)} labels")
    return list(labels)


class _Assembly:
    """Mixed-radix coordinates over the axes' additive groups.

    Axis 0 is the most significant digit.  Axes of size 1 carry only
    the digit 0; they take no dimension of the digit grid and add
    nothing to an encoded id.  An order above ``threshold`` is refused
    here, before any label or table is composed.
    """

    def __init__(self, axes: Sequence[_Axis], threshold: int):
        self.axes = list(axes)
        self.sizes = [ax.size for ax in self.axes]
        order = 1
        for s in self.sizes:
            order *= s
        check_order(order, threshold)
        self.order = order
        weights = []
        w = order
        for s in self.sizes:
            w //= s
            weights.append(w)
        self.weights = weights
        self.open_axes = [p for p, s in enumerate(self.sizes) if s > 1]
        #: Shape of one side of the grid: the sizes of the open axes.
        self.shape = tuple(self.sizes[p] for p in self.open_axes)

    def grid(self, offset: int, ndim: int) -> list:
        """Digits of every element on an open grid, as ``np.ix_`` gives.

        Open axis q varies along dimension ``offset + q`` of an
        ``ndim``-dimensional grid; an axis of size 1 is the 0-d digit 0.
        """
        digits: list = [0] * len(self.sizes)
        for q, p in enumerate(self.open_axes):
            shape = [1] * ndim
            shape[offset + q] = self.sizes[p]
            digits[p] = np.arange(self.sizes[p]).reshape(shape)
        return digits

    def views(self, tables: Sequence[np.ndarray], sides: int) -> list:
        """Each axis's table at its own digits on ``sides`` sides of the grid.

        For the digits of :meth:`grid` this is ``table[x, y]`` (or
        ``table[x]`` for one side), but as a reshaped view with no
        gather: the table of open axis q spans dimension ``side * k + q``
        of each side.  A size-1 axis gives its 0-d entry at digit 0.
        """
        k = len(self.open_axes)
        out = [t[(0,) * sides] for t in tables]
        for q, p in enumerate(self.open_axes):
            shape = [1] * (sides * k)
            shape[q::k] = [self.sizes[p]] * sides
            out[p] = tables[p].reshape(shape)
        return out

    def encode(self, digits: Sequence, shape: tuple, dtype: np.dtype) -> np.ndarray:
        """Ids of ``shape`` from per-axis digits that broadcast to it.

        The open axes split into a leading and a trailing half.  A half
        whose digits span less than the whole grid is summed, weighted, on
        its own span; the table is then written once as the sum of the
        two half-sums, so numpy's inner loop runs over a whole trailing
        block.  A half that spans the whole grid (each digit of a gf or
        group-ring product does) is added into the table in place, one
        weighted digit at a time.  The spans are read from the digits'
        shapes before anything is computed.
        """
        out = np.empty(shape, dtype=dtype)
        mid = len(self.open_axes) // 2
        sums, in_place = [], []
        for half in (self.open_axes[:mid], self.open_axes[mid:]):
            if not half:
                continue
            span = np.broadcast_shapes(*(np.shape(digits[p]) for p in half))
            if math.prod(span) < out.size:
                total = None
                for p in half:
                    term = self._term(digits[p], p, dtype)
                    total = term if total is None else np.add(
                        total, term, dtype=dtype, casting="unsafe")
                sums.append(total)
            else:
                in_place += half
        if len(sums) == 2:
            np.add(*sums, out=out, dtype=dtype, casting="unsafe")
        elif sums:
            np.copyto(out, sums[0], casting="unsafe")
        else:
            out.fill(0)
        for p in in_place:
            np.add(out, self._term(digits[p], p, dtype), out=out, dtype=dtype, casting="unsafe")
        return out

    def _term(self, digit, p: int, dtype: np.dtype):
        """Digit ``p`` times its weight in ``dtype``; weight 1 leaves the digit as it is."""
        weight = self.weights[p]
        if weight == 1:
            return digit
        return np.multiply(digit, dtype.type(weight), dtype=dtype, casting="unsafe")

    def encode_one(self, digits: Sequence[int]) -> int:
        return sum(w * int(d) for w, d in zip(self.weights, digits))


def _bilinear(terms: Sequence[tuple], adds: Sequence[np.ndarray]) -> Callable[[list, list], list]:
    """The ``mul_digits`` of a product that is a sum of table lookups.

    Digit t of ab is the sum, under ``adds[t]``, of ``table[a_h, b_k]``
    over the terms ``(h, k, t, table)``, in the listed order.
    """
    def mul_digits(da, db):
        out = [None] * len(adds)
        for h, k, t, table in terms:
            term = table[da[h], db[k]]
            out[t] = term if out[t] is None else adds[t][out[t], term]
        return out

    return mul_digits


def _tuple_labels(parts: Sequence[Sequence[str]]) -> list:
    """Labels "(x,y,...)" in mixed-radix order, from each axis's labels."""
    return ["(" + ",".join(cells) + ")" for cells in itertools.product(*parts)]


def _sum_labels(base: FiniteRing, symbols: Sequence[Optional[str]]) -> list:
    """Labels "c+c*s+..." in mixed-radix order, one axis over ``base`` per symbol.

    The terms follow the axes; the symbol None marks the constant term.
    Zero terms are skipped, a unit coefficient shows only its symbol,
    and an element with no term is labelled as the base's zero.
    """
    labels, zero, one = base.labels, base.zero, base.one
    terms = [[None if c == zero else labels[c] if sym is None else sym if c == one
              else f"{labels[c]}*{sym}" for c in range(base.order)] for sym in symbols]
    out = []
    for combo in itertools.product(*terms):
        shown = [t for t in combo if t is not None]
        out.append("+".join(shown) if shown else labels[zero])
    return out


def _powers(var: str, n: int) -> list:
    """The symbols of 1, var, ..., var^(n-1) for :func:`_sum_labels`."""
    return [None if deg == 0 else var if deg == 1 else f"{var}^{deg}" for deg in range(n)]


def _assemble_ring(
    assembly: _Assembly,
    mul_digits: Optional[Callable[[list, list], list]],
    one_digits: Sequence[int],
    labels: list,
    spec: Optional[dict],
) -> FiniteRing:
    """Build a ring from coordinates and a product formula, named from ``spec``.

    ``mul_digits(da, db)`` maps the digits of a and b, one entry per
    axis, to the digits of ab; None means the componentwise product of
    the axes' own ``mul`` tables.  The per-axis add tables give a + b.
    Both are evaluated on an open digit grid: with k open axes (size
    > 1), row axis q varies along dimension q and column axis q along
    dimension k + q, so each gather in ``mul_digits`` touches only the
    digits its entry depends on, and a per-axis table (every add table,
    a componentwise mul table, each neg) enters as a reshaped view with
    no gather at all (:meth:`_Assembly.views`).  Size-1 axes enter as the
    0-d digit 0, so degenerate rings such as M6(Z1) need no dimensions.
    Each table is written once, in ``dtype_for(order)``, by
    :meth:`_Assembly.encode`.  ``labels`` follow mixed-radix order.
    """
    n = assembly.order
    dt = dtype_for(n)
    zero = assembly.encode_one([ax.zero for ax in assembly.axes])
    one = assembly.encode_one(one_digits)
    k = len(assembly.open_axes)
    shape = assembly.shape * 2
    add_tab = assembly.encode(
        assembly.views([ax.add for ax in assembly.axes], 2), shape, dt).reshape(n, n)
    mul_tab = assembly.encode(
        assembly.views([ax.mul for ax in assembly.axes], 2) if mul_digits is None
        else mul_digits(assembly.grid(0, 2 * k), assembly.grid(k, 2 * k)),
        shape, dt).reshape(n, n)
    neg = assembly.encode(
        assembly.views([ax.neg for ax in assembly.axes], 1), assembly.shape, dt).reshape(n)
    ring = FiniteRing(add_tab, mul_tab, zero, one, labels=labels, spec=spec,
                      name=spec_name(spec), neg=neg)
    check_axioms(ring)
    ring.meta["axis_sizes"] = tuple(assembly.sizes)
    ring.meta["axis_weights"] = tuple(assembly.weights)
    return ring


def _restrict_to_subset(
    base: FiniteRing,
    ids: Sequence[int],
    one_id: int,
    labels: Optional[Sequence[str]] = None,
    spec: Optional[dict] = None,
    name: Optional[str] = None,
) -> FiniteRing:
    """Ring on a multiplicatively and additively closed subset; its axioms are the base's."""
    check_axioms(base)
    ids = sorted(int(i) for i in ids)
    lookup = np.full(base.order, -1, dtype=np.int64)
    lookup[ids] = np.arange(len(ids))
    sub_add = lookup[base.add_table[np.ix_(ids, ids)]]
    sub_mul = lookup[base.mul_table[np.ix_(ids, ids)]]
    if (sub_add < 0).any() or (sub_mul < 0).any():
        raise RingConstructionError("subset is not closed under ring operations")
    zero = int(lookup[base.zero])
    if zero < 0:
        raise RingConstructionError("subset does not contain zero")
    one = int(lookup[one_id])
    if labels is None:
        labels = [base.label_of(i) for i in ids]
    return FiniteRing(sub_add, sub_mul, zero, one, labels=labels, spec=spec, name=name,
                      neg=lookup[base.neg_table[ids]])


# ---------------------------------------------------------------------------
# base rings


#: Cells of one block of rows of ``zn``'s int64 products.
_ZN_BLOCK_CELLS = 1 << 16


def zn(n: int, *, threshold: int = DEFAULT_THRESHOLD, spec: Optional[dict] = None) -> FiniteRing:
    """The ring of integers modulo n.

    The add table is built in ``dtype_for(2n)``, which holds every a + b,
    and the mul table a block of rows at a time in ``dtype_for(n)``, so no
    order^2 table is held in int64.
    """
    if n < 1:
        raise SpecError(f"zn parameter must be positive, got {n}")
    check_order(n, threshold)
    spec = spec or {"zn": n}
    idx = np.arange(n, dtype=dtype_for(2 * n))
    add = idx[:, None] + idx[None, :]
    np.remainder(add, n, out=add)
    wide = np.arange(n, dtype=np.int64)
    mul = np.empty((n, n), dtype=dtype_for(n))
    step = max(1, _ZN_BLOCK_CELLS // n)
    for start in range(0, n, step):
        mul[start:start + step] = wide[start:start + step, None] * wide % n
    ring = FiniteRing(add, mul, 0, 1 % n, labels=[str(i) for i in range(n)],
                      spec=spec, name=spec_name(spec), neg=(-wide) % n)
    check_axioms(ring)
    return ring


def _poly_divisible(dividend: list[int], divisor: list[int], p: int) -> bool:
    """Whether divisor (monic) divides dividend over Z_p."""
    rem = list(dividend)
    d = len(divisor) - 1
    while len(rem) - 1 >= d and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        lead = rem[-1]
        shift = len(rem) - 1 - d
        for i, c in enumerate(divisor):
            rem[shift + i] = (rem[shift + i] - lead * c) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return not any(rem)


def _find_irreducible(p: int, k: int) -> list[int]:
    """First monic irreducible of degree k over Z_p in coefficient order.

    A monic polynomial of degree k >= 2 is irreducible iff no monic
    polynomial of degree 1..k//2 divides it.
    """
    divisors = []
    for deg in range(1, k // 2 + 1):
        for c in range(p ** deg):
            divisors.append([(c // p ** i) % p for i in range(deg)] + [1])
    for c in range(p ** k):
        cand = [(c // p ** i) % p for i in range(k)] + [1]
        if all(not _poly_divisible(cand, d, p) for d in divisors):
            return cand
    raise RingConstructionError(f"no irreducible polynomial of degree {k} over Z_{p}")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def gf(p: int, k: int, *, threshold: int = DEFAULT_THRESHOLD, spec: Optional[dict] = None) -> FiniteRing:
    """The finite field with p^k elements (canonical modulus, generator w)."""
    if k < 1:
        raise SpecError(f"gf degree must be positive, got {k}")
    check_order(order_power(p, k), threshold)  # before p's trial division
    if not _is_prime(p):
        raise SpecError(f"gf characteristic must be prime, got {p}")
    spec = spec or {"gf": {"p": p, "k": k}}
    if k == 1:
        base = zn(p, threshold=threshold, spec=spec)
        return base
    modulus = _find_irreducible(p, k)
    zp = zn(p, threshold=threshold)
    assembly = _Assembly([_Axis.of_ring(zp)] * k, threshold)
    # Digit q is the coefficient of w^(k-1-q), so ids are sum c_j p^j.
    # Horner's rule over a's digits: acc <- acc*w + a_q*b, with
    # w^k = -(c_0 + ... + c_{k-1} w^(k-1)) written as +(p - c_j) to keep
    # every partial sum non-negative and below 2p^2.
    carry = [(p - c) % p for c in reversed(modulus[:k])]
    dt = dtype_for(2 * p * p)

    def mul_digits(da, db):
        db = [d.astype(dt) for d in db]
        acc = [dt.type(0)] * k
        for a in da:
            a = a.astype(dt)
            top = acc[0]
            acc = [(shifted + top * c + a * b) % p
                   for shifted, c, b in zip(acc[1:] + [0], carry, db)]
        return acc

    # Labels list the constant first: compose them with digit q as the
    # coefficient of w^q, then reverse the digits of every id.
    by_degree = np.array(_sum_labels(zp, _powers("w", k)), dtype=object)
    labels = by_degree.reshape((p,) * k).T.ravel().tolist()
    return _assemble_ring(assembly, mul_digits, [0] * (k - 1) + [1], labels, spec)


# ---------------------------------------------------------------------------
# products, matrices, triangular rings


def product_ring(
    factors: Sequence[FiniteRing],
    *,
    threshold: int = DEFAULT_THRESHOLD,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """Direct product with componentwise operations.

    Each factor is one axis that carries its own mul table.
    """
    if not factors:
        raise SpecError("product requires at least one factor")
    spec = spec or {"product": [f.spec for f in factors]}
    assembly = _Assembly([_Axis.of_ring(f) for f in factors], threshold)
    return _assemble_ring(assembly, None, [f.one for f in factors],
                          _tuple_labels([f.labels for f in factors]), spec)


def matrix_ring(
    n: int,
    base: FiniteRing,
    *,
    threshold: int = DEFAULT_THRESHOLD,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """Full n x n matrix ring over the base."""
    return _matrix_ring("matrix", n, base, lambda i, j: True, threshold, spec)


def triangular_ring(
    n: int,
    base: FiniteRing,
    *,
    threshold: int = DEFAULT_THRESHOLD,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """Upper triangular n x n matrices over the base."""
    return _matrix_ring("triangular", n, base, lambda i, j: i <= j, threshold, spec)


def _matrix_ring(
    kind: str,
    n: int,
    base: FiniteRing,
    present: Callable[[int, int], bool],
    threshold: int,
    spec: Optional[dict],
) -> FiniteRing:
    """n x n matrices over the base, zero in each cell (i, j) without ``present(i, j)``.

    Entry (i, j) of a product sums a[i, k] * b[k, j], in increasing k,
    over the k with both (i, k) and (k, j) present.
    """
    if n < 1:
        raise SpecError(f"{kind} dimension must be positive, got {n}")
    spec = spec or {kind: {"n": n, "base": base.spec}}
    entries = [(i, j) for i in range(n) for j in range(n) if present(i, j)]
    pos = {e: c for c, e in enumerate(entries)}
    assembly = _Assembly([_Axis.of_ring(base)] * len(entries), threshold)
    terms = [(pos[i, k], pos[k, j], pos[i, j], base.mul_table)
             for i, j in entries for k in range(n) if (i, k) in pos and (k, j) in pos]
    one_digits = [base.one if i == j else base.zero for i, j in entries]
    base_labels = base.labels
    zero_label = base_labels[base.zero]
    # Labels "(row;row;...)": each row's strings in the mixed-radix order
    # of its own entries, joined over every choice of rows.
    row_strings = [
        [" ".join(cells) for cells in itertools.product(
            *(base_labels if (i, j) in pos else [zero_label] for j in range(n)))]
        for i in range(n)]
    labels = ["(" + ";".join(rows) + ")" for rows in itertools.product(*row_strings)]
    return _assemble_ring(assembly, _bilinear(terms, [base.add_table] * len(entries)),
                          one_digits, labels, spec)


# ---------------------------------------------------------------------------
# quotients, corners, subrings


def quotient_ring(
    base: FiniteRing,
    generators: Iterable[int],
    *,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """Quotient by the two-sided ideal generated by ``generators``.

    Cosets are canonicalized by least element id; the projection map is
    available as ``ring.meta['projection']`` (an array over base ids).
    """
    gens = distinct_ids(element_ids(generators, base.order), base.order).tolist()
    return _quotient_by_ideal(base, gens, ideal_generated(base, gens), spec)


def _quotient_by_ideal(
    base: FiniteRing,
    gens: list[int],
    ideal_ids: np.ndarray,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """:func:`quotient_ring` by ``ideal_ids``, an ideal the caller has verified.

    ``gens`` are the sorted generators the default spec names.
    """
    check_axioms(base)
    spec = spec or {"quotient": {"base": base.spec, "generators": gens}}
    # reps[x] = min(x + I), read down the rows of I rather than across
    # strided columns: add is commutative (check_axioms above).
    reps = base.add_table[ideal_ids].min(axis=0)
    rep_ids = distinct_ids(reps, base.order)
    m = len(rep_ids)
    lookup = np.zeros(base.order, dtype=dtype_for(m))
    lookup[rep_ids] = np.arange(m)
    proj = lookup[reps]
    # One gather per table through proj, in the quotient's own dtype.
    block = np.ix_(rep_ids, rep_ids)
    labels = [coset_label(base, int(r)) for r in rep_ids]
    ring = FiniteRing(
        proj[base.add_table[block]], proj[base.mul_table[block]],
        int(proj[base.zero]), int(proj[base.one]),
        labels=labels, spec=spec, name=spec_name(spec), neg=proj[base.neg_table[rep_ids]],
    )
    ring.meta["projection"] = proj
    return ring


def coset_label(base: FiniteRing, rep: int) -> str:
    """The label of the coset whose least element is ``rep``."""
    return "[" + base.label_of(rep) + "]"


def corner_ring(
    base: FiniteRing,
    e: int,
    *,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """The unital ring e*R*e with identity e.

    The embedding back into the base is ``ring.meta['embedding']``; the
    corner keeps no reference to the base.
    """
    e = int(element_ids([e], base.order)[0])
    if base.mul(e, e) != e:
        raise RingConstructionError(f"element {e} is not idempotent in {base.name}")
    spec = spec or {"corner": {"base": base.spec, "idempotent": e}}
    ids = _corner_subset(base, e)
    ring = _restrict_to_subset(base, ids, e, spec=spec, name=spec_name(spec))
    ring.meta["embedding"] = ids
    return ring


def _corner_subset(ring: FiniteRing, e: int) -> np.ndarray:
    """The sorted ids of e*R*e, memoized on the ring per e."""
    mul = ring.mul_table
    return get_cache(ring).memo(f"corner:{int(e)}", lambda: distinct_ids(
        mul[mul[e], e], ring.order))


def subring_generated(base: FiniteRing, generators: Iterable[int]) -> FiniteRing:
    """Smallest unital subring containing the generators.

    The embedding into the base is ``ring.meta['embedding']``; the
    subring keeps no reference to the base.
    """
    ids = _subring_closure(base, generators)
    ring = _restrict_to_subset(base, ids, base.one, name=f"sub({base.name})")
    ring.meta["embedding"] = ids
    return ring


def _subring_closure(base: FiniteRing, generators: Iterable[int]) -> np.ndarray:
    """Sorted ids of the smallest unital subring containing the generators:
    the :func:`ringlab.core.closure` of 0, 1 and the generators under +,
    negation and new x member products.  Member x new products would add
    nothing: every element of the subring is a sum of monomials in the
    generators, and the product is associative, so each monomial is
    formed left to right as a new factor times a member."""
    add, mul, neg = base.add_table, base.mul_table, base.neg_table
    seed = np.append(element_ids(generators, base.order), [base.zero, base.one])
    return closure(base.order, seed,
                   lambda new, ids: add[new[:, None], ids],
                   lambda new, _: neg[new],
                   lambda new, ids: mul[new[:, None], ids])


# ---------------------------------------------------------------------------
# group rings


def group_ring(
    base: FiniteRing,
    group: Group,
    *,
    threshold: int = DEFAULT_THRESHOLD,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """Group ring R[G] with convolution product.

    meta carries the augmentation map (``'augmentation'``: RG id ->
    base id), its kernel (``'aug_kernel'``, the sorted int64 ids of the
    ideal generated by the elements 1 - g), the base embedding
    r -> r*1_G (``'base_embedding'``) and the group (``'group'``).  The
    base ring itself is not kept: a caller that needs it builds it from
    ``spec``.  The default spec holds ``group.spec``, so building it
    gives the same ring, labels included.
    """
    g = group.order
    order = base.order ** g
    assembly = _Assembly([_Axis.of_ring(base)] * g, threshold)
    aadd = base.add_table
    terms = [(h, k, int(group.table[h, k]), base.mul_table) for h in range(g) for k in range(g)]
    one_digits = [base.zero] * g
    one_digits[group.identity] = base.one
    symbols = [None if h == group.identity else label for h, label in enumerate(group.labels)]
    spec = spec or {"group_ring": {"base": base.spec, "group": group.spec}}
    ring = _assemble_ring(assembly, _bilinear(terms, [aadd] * g), one_digits,
                          _sum_labels(base, symbols), spec)

    eps = None
    for digits in assembly.grid(0, len(assembly.open_axes)):
        eps = digits if eps is None else aadd[eps, digits]
    ring.meta["augmentation"] = np.broadcast_to(eps, assembly.shape).reshape(order)
    # The element with digit d on axis h alone is 0 + w_h * (d - 0_R).
    weights = np.asarray(assembly.weights, dtype=np.int64)
    ring.meta["base_embedding"] = (
        ring.zero + weights[group.identity] * (np.arange(base.order) - base.zero))
    group_ids = ring.zero + weights * (base.one - base.zero)
    ring.meta["aug_kernel"] = ideal_generated(
        ring, ring.add_table[ring.one, ring.neg_table[group_ids]])
    ring.meta["group"] = group
    return ring


# ---------------------------------------------------------------------------
# extensions


def _module_extension(base: FiniteRing, axis: _Axis, lam: np.ndarray, rho: np.ndarray,
                      m_mul: Optional[np.ndarray], m_labels: Sequence[str], spec: dict,
                      threshold: int) -> FiniteRing:
    """base + M with (r,m)(s,n) = (rs, rn + ms + mn); ``m_mul=None`` is the zero product.

    The caller validates the actions ``lam`` and ``rho``.  Element
    (r, m) has id r*|M| + m and label "(r,m)".
    """
    assembly = _Assembly([_Axis.of_ring(base), axis], threshold)
    terms = [(0, 0, 0, base.mul_table), (0, 1, 1, lam), (1, 0, 1, rho)]
    if m_mul is not None:
        terms.append((1, 1, 1, m_mul))
    return _assemble_ring(assembly, _bilinear(terms, [base.add_table, axis.add]),
                          [base.one, axis.zero], _tuple_labels([base.labels, m_labels]), spec)


def trivial_extension(
    base: FiniteRing,
    *,
    threshold: int = DEFAULT_THRESHOLD,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """Pairs (a, x) with product (a, x)(b, y) = (ab, ay + xb), V = base."""
    spec = spec or {"trivial_extension": base.spec}
    return _module_extension(base, _Axis.of_ring(base), base.mul_table, base.mul_table,
                             None, base.labels, spec, threshold)


def _check(law: str, sizes: Sequence[int], lhs, rhs):
    """Raise :class:`BimoduleError` ``law`` at the first violation (:func:`check_law`)."""
    check_law(lambda witness: BimoduleError(law, witness), sizes, lhs, rhs)


def _validate_left_action(ring: FiniteRing, axis: _Axis, lam, law_prefix: str) -> np.ndarray:
    radd, rmul = ring.add_table, ring.mul_table
    madd = axis.add
    nr, nm = ring.order, axis.size
    lam = as_table(lam, (nr, nm), nm, BimoduleError(f"{law_prefix}-shape", (nr, nm)))
    _check(f"{law_prefix}-unital", (nm,), lambda m: lam[ring.one, m], lambda m: m)
    _check(f"{law_prefix}-additive-in-ring", (nr, nr, nm),
           lambda r, s, m: lam[radd[r, s], m], lambda r, s, m: madd[lam[r, m], lam[s, m]])
    _check(f"{law_prefix}-additive-in-module", (nr, nm, nm),
           lambda r, m, n: lam[r, madd[m, n]], lambda r, m, n: madd[lam[r, m], lam[r, n]])
    _check(f"{law_prefix}-associative", (nr, nr, nm),
           lambda r, s, m: lam[rmul[r, s], m], lambda r, s, m: lam[r, lam[s, m]])
    return lam


def _validate_right_action(ring: FiniteRing, axis: _Axis, rho, law_prefix: str) -> np.ndarray:
    radd, rmul = ring.add_table, ring.mul_table
    madd = axis.add
    nr, nm = ring.order, axis.size
    rho = as_table(rho, (nm, nr), nm, BimoduleError(f"{law_prefix}-shape", (nm, nr)))
    _check(f"{law_prefix}-unital", (nm,), lambda m: rho[m, ring.one], lambda m: m)
    _check(f"{law_prefix}-additive-in-ring", (nm, nr, nr),
           lambda m, r, s: rho[m, radd[r, s]], lambda m, r, s: madd[rho[m, r], rho[m, s]])
    _check(f"{law_prefix}-additive-in-module", (nm, nm, nr),
           lambda m, n, r: rho[madd[m, n], r], lambda m, n, r: madd[rho[m, r], rho[n, r]])
    _check(f"{law_prefix}-associative", (nm, nr, nr),
           lambda m, r, s: rho[m, rmul[r, s]], lambda m, r, s: rho[rho[m, r], s])
    return rho


def _validate_bimodule(left: FiniteRing, right: FiniteRing, axis: _Axis, lam, rho,
                       prefix: str = "") -> tuple[np.ndarray, np.ndarray]:
    """M is a unital (left, right)-bimodule: each action's laws, then (rm)s = r(ms).

    Laws are named ``prefix`` + ``left-*``, ``right-*`` and
    ``bimodule-compat``; the compat witness is (r, m, s).  Returns the
    two actions as int64 arrays.
    """
    lam = _validate_left_action(left, axis, lam, f"{prefix}left")
    rho = _validate_right_action(right, axis, rho, f"{prefix}right")
    _check(f"{prefix}bimodule-compat", (left.order, axis.size, right.order),
           lambda r, m, s: rho[lam[r, m], s], lambda r, m, s: lam[r, rho[m, s]])
    return lam, rho


def ideal_extension(
    base: FiniteRing,
    m_tables: dict,
    left_action,
    right_action,
    *,
    threshold: int = DEFAULT_THRESHOLD,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """Ring on base + M with product (r,m)(s,n) = (rs, rn + ms + mn).

    M is a (possibly non-unital) ring given by explicit add/mul tables;
    the actions must make it a unital bimodule compatible with the M
    multiplication.  All laws are validated exhaustively and violations
    raise :class:`BimoduleError` with a witness (``m-*`` for the ring M,
    then :func:`_validate_bimodule`'s, then ``compat-*`` for the two).

    ``ring.meta['hypotheses']`` records whether idempotents of the base
    act centrally on M and whether every m in M is quasi-regular
    (m + n + mn = 0 for some n); downstream checks gate on these flags.
    """
    axis, m_zero = _axis_of_module(m_tables["add"])
    m_add, nm = axis.add, axis.size
    # The action laws below gather order(base)^2 * |M| cells: refuse first.
    check_order(base.order * nm, threshold)
    m_mul = m_tables.get("mul")
    m_mul = as_table(np.full((nm, nm), m_zero) if m_mul is None else m_mul, (nm, nm), nm,
                     RingConstructionError("module mul table malformed"))

    # M is an associative rng distributing over its own addition.
    _check("m-associative", (nm,) * 3,
           lambda m, n, p: m_mul[m_mul[m, n], p], lambda m, n, p: m_mul[m, m_mul[n, p]])
    _check("m-left-distributive", (nm,) * 3,
           lambda m, n, p: m_mul[m, m_add[n, p]], lambda m, n, p: m_add[m_mul[m, n], m_mul[m, p]])
    _check("m-right-distributive", (nm,) * 3,
           lambda m, n, p: m_mul[m_add[m, n], p], lambda m, n, p: m_add[m_mul[m, p], m_mul[n, p]])

    lam, rho = _validate_bimodule(base, base, axis, left_action, right_action)

    # Compatibility of the actions with the M multiplication:
    # (mn)r = m(nr), (mr)n = m(rn), (rm)n = r(mn).
    nr = base.order
    _check("compat-(mn)r=m(nr)", (nm, nm, nr),
           lambda m, n, r: rho[m_mul[m, n], r], lambda m, n, r: m_mul[m, rho[n, r]])
    _check("compat-(mr)n=m(rn)", (nm, nr, nm),
           lambda m, r, n: m_mul[rho[m, r], n], lambda m, r, n: m_mul[m, lam[r, n]])
    _check("compat-(rm)n=r(mn)", (nr, nm, nm),
           lambda r, m, n: m_mul[lam[r, m], n], lambda r, m, n: lam[r, m_mul[m, n]])

    m_labels = _module_labels(m_tables, nm)
    spec = spec or {
        "ideal_extension": {
            "base": base.spec,
            "m": {"add": m_add.tolist(), "mul": m_mul.tolist(), "labels": m_labels},
            "left_action": lam.tolist(),
            "right_action": rho.tolist(),
        }
    }
    ring = _module_extension(base, axis, lam, rho, m_mul, m_labels, spec, threshold)

    idem = np.flatnonzero(get_cache(base).idempotent_mask)
    central = bool((lam[idem] == rho[:, idem].T).all())
    # m is quasi-regular iff m + n + mn = 0 for some n: one row per m.
    quasi = bool((m_add[m_add, m_mul] == m_zero).any(axis=1).all())
    ring.meta["hypotheses"] = {"idempotents_central_on_m": central, "m_quasi_regular": quasi}
    return ring


def formal_triangular(
    a: FiniteRing,
    b: FiniteRing,
    m_tables: dict,
    left_action,
    right_action,
    *,
    threshold: int = DEFAULT_THRESHOLD,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """Triples (a, m, b) with product (aa', am' + mb', bb').

    M must be a validated (A,B)-bimodule given by tables; the left
    action is A x M -> M and the right action M x B -> M.
    """
    axis, m_zero = _axis_of_module(m_tables["add"])
    check_order(a.order * axis.size * b.order, threshold)
    lam, rho = _validate_bimodule(a, b, axis, left_action, right_action)

    assembly = _Assembly([_Axis.of_ring(a), axis, _Axis.of_ring(b)], threshold)
    terms = [(0, 0, 0, a.mul_table), (0, 1, 1, lam), (1, 2, 1, rho), (2, 2, 2, b.mul_table)]
    m_labels = _module_labels(m_tables, axis.size)
    spec = spec or {
        "formal_triangular": {
            "a": a.spec,
            "b": b.spec,
            "m": {"add": axis.add.tolist(), "labels": m_labels},
            "left_action": lam.tolist(),
            "right_action": rho.tolist(),
        }
    }
    return _assemble_ring(assembly, _bilinear(terms, [a.add_table, axis.add, b.add_table]),
                          [a.one, m_zero, b.one],
                          _tuple_labels([a.labels, m_labels, b.labels]), spec)


def trivial_morita(
    a: FiniteRing,
    b: FiniteRing,
    m: dict,
    m_left,
    m_right,
    n: dict,
    n_left,
    n_right,
    *,
    threshold: int = DEFAULT_THRESHOLD,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """Trivial Morita context, built as T(A x B, M + N).

    M is an (A,B)-bimodule and N a (B,A)-bimodule; both context
    products are zero, which is exactly the stated isomorphism with the
    trivial extension of the product ring by M + N.  Each bimodule is
    validated once, as ``m-*`` and ``n-*`` laws; the componentwise action
    of A x B on M + N needs no second check.  M + N has ids m*|N| + n.
    The context keeps no reference to A or B.
    """
    m_axis, _ = _axis_of_module(m["add"])
    n_axis, _ = _axis_of_module(n["add"])
    check_order(a.order * b.order * m_axis.size * n_axis.size, threshold)
    lam_m, rho_m = _validate_bimodule(a, b, m_axis, m_left, m_right, "m-")
    lam_n, rho_n = _validate_bimodule(b, a, n_axis, n_left, n_right, "n-")

    p = product_ring([a, b], threshold=threshold)
    nn = n_axis.size
    # Digits of every id of V = M + N (m*|N| + n) and of P = A x B (a*|B| + b).
    vm, vn = np.divmod(np.arange(m_axis.size * nn), nn)
    pa, pb = np.divmod(np.arange(p.order), b.order)
    v_axis = _Axis(vm.size, m_axis.add[vm[:, None], vm] * nn + n_axis.add[vn[:, None], vn],
                   m_axis.neg[vm] * nn + n_axis.neg[vn], m_axis.zero * nn + n_axis.zero)
    lam = lam_m[pa[:, None], vm] * nn + lam_n[pb[:, None], vn]
    rho = rho_m[vm[:, None], pb] * nn + rho_n[vn[:, None], pa]

    m_labels = _module_labels(m, m_axis.size)
    n_labels = _module_labels(n, nn, "N")
    v_labels = _tuple_labels([m_labels, n_labels])
    spec = spec or {
        "trivial_morita": {
            "a": a.spec,
            "b": b.spec,
            "m": {"add": m_axis.add.tolist(), "labels": m_labels},
            "m_left": lam_m.tolist(),
            "m_right": rho_m.tolist(),
            "n": {"add": n_axis.add.tolist(), "labels": n_labels},
            "n_left": lam_n.tolist(),
            "n_right": rho_n.tolist(),
        }
    }
    return _module_extension(p, v_axis, lam, rho, None, v_labels, spec, threshold)


# ---------------------------------------------------------------------------
# polynomial quotients


def resolve_endomorphism(base: FiniteRing, descriptor) -> np.ndarray:
    """Resolve and validate a unital ring endomorphism descriptor."""
    n = base.order
    if descriptor == "identity" or descriptor is None:
        alpha = np.arange(n, dtype=np.int64)
    elif isinstance(descriptor, dict) and "frobenius" in descriptor:
        # a^p for every a at once, by square-and-multiply on the table.
        p = int(descriptor["frobenius"])
        alpha = np.full(n, base.one, dtype=np.int64)
        power = np.arange(n, dtype=np.int64)
        while p > 0:
            if p & 1:
                alpha = base.mul_table[alpha, power].astype(np.int64)
            power = base.mul_table[power, power]
            p >>= 1
    elif isinstance(descriptor, dict) and "map" in descriptor:
        alpha = as_table(descriptor["map"], (n,), n, EndomorphismError("shape", (n,)))
    else:
        raise SpecError(f"unrecognized endomorphism descriptor {descriptor!r}")

    if alpha[base.one] != base.one:
        raise EndomorphismError("unital", (base.one,))
    for law, table in (("additive", base.add_table), ("multiplicative", base.mul_table)):
        check_law(lambda witness: EndomorphismError(law, witness), (n, n),
                  lambda a, b: alpha[table[a, b]], lambda a, b: table[alpha[a], alpha[b]])
    return alpha


def skew_trunc_poly(
    base: FiniteRing,
    alpha,
    n: int,
    *,
    threshold: int = DEFAULT_THRESHOLD,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """Skew truncated polynomials: x*r = alpha(r)*x, truncated at x^n."""
    if n < 1:
        raise SpecError(f"truncation degree must be positive, got {n}")
    alpha_vec = resolve_endomorphism(base, alpha)
    assembly = _Assembly([_Axis.of_ring(base)] * n, threshold)
    # The coefficient of x^(i+j) sums a_i * alpha^i(b_j): a product
    # table whose columns are permuted by alpha^i.
    twisted = [base.mul_table]
    for _ in range(1, n):
        twisted.append(twisted[-1][:, alpha_vec])
    terms = [(i, j, i + j, twisted[i]) for i in range(n) for j in range(n - i)]
    one_digits = [base.one] + [base.zero] * (n - 1)
    if spec is None:
        alpha_spec = alpha if isinstance(alpha, (str, dict)) else {"map": alpha_vec.tolist()}
        spec = {"skew_trunc_poly": {"base": base.spec, "alpha": alpha_spec, "n": n}}
    return _assemble_ring(assembly, _bilinear(terms, [base.add_table] * n), one_digits,
                          _sum_labels(base, _powers("x", n)), spec)


def trunc_poly(
    base: FiniteRing,
    n: int,
    *,
    threshold: int = DEFAULT_THRESHOLD,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """Truncated polynomial ring base[x]/(x^n)."""
    spec = spec or {"trunc_poly": {"base": base.spec, "n": n}}
    return skew_trunc_poly(base, "identity", n, threshold=threshold, spec=spec)


def opposite_ring(base: FiniteRing, *, spec: Optional[dict] = None) -> FiniteRing:
    """Same elements and addition, reversed multiplication."""
    check_axioms(base)
    spec = spec or {"opposite": base.spec}
    return FiniteRing(
        base.add_table, base.mul_table.T.copy(), base.zero, base.one,
        labels=list(base.labels), spec=spec, name=spec_name(spec), neg=base.neg_table,
    )


# ---------------------------------------------------------------------------
# spec codec


def read_json(path, what: str):
    """The JSON document in the file at ``path``, ``what`` naming it in errors.

    A missing, unreadable, non-UTF-8 or non-JSON file, or one nested
    past the decoder's recursion limit, raises :class:`SpecError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {what} {path}: {exc.strerror}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"{what} {path} is not UTF-8 JSON: {exc}")
    except RecursionError:
        raise SpecError(f"{what} {path} nests too deeply to decode") from None


def build(spec: dict, *, threshold: int = DEFAULT_THRESHOLD) -> FiniteRing:
    """Build a ring from its construction tree, checked by :func:`_walk` first.

    A node whose equal spec has a live ring is not built again: that ring
    is returned as it is (:func:`_build`).
    """
    _walk(spec, threshold)
    return _build(spec, threshold)


# ---------------------------------------------------------------------------
# the family table: one row per spec kind


class _Family(NamedTuple):
    """One spec kind, as :func:`_walk`, :func:`_build` and :func:`spec_name` read it.

    ``args`` is the shape of the kind's arguments (:func:`_check_shape`),
    whose top-level ``"spec"`` slots hold the child specs, built first in
    that order.  ``order(args, *child_orders)`` gives the order, through
    :func:`order_power` and :func:`order_product` where it can pass 2^64;
    the field is None where the order depends on a built ring.
    ``name(args, *child_names)`` gives the display name and
    ``make(args, spec, threshold, *child_rings)`` the ring.
    """

    args: object
    order: Optional[Callable[..., int]]
    name: Callable[..., str]
    make: Callable[..., FiniteRing]


class _Kinds(dict):
    """A union shape: ``{kind: args}`` with args of shape ``self[kind]``, or a bare kind name."""


_N_BASE = {"n": "pos", "base": "spec"}
_MODULE = {"add": "table", "mul?": "table", "labels?": ["str"]}
_GROUP = _Kinds({kind: row.args for kind, row in _GROUP_KINDS.items()})

#: Every spec kind, with the fields of :class:`_Family` in order.  A new
#: family is one row here.
_FAMILIES: dict[str, _Family] = {
    "zn": _Family(
        "pos", lambda a: a, lambda a: f"Z{a}",
        lambda a, spec, t: zn(a, threshold=t, spec=spec)),
    "gf": _Family(
        {"p": "pos", "k": "pos"}, lambda a: order_power(a["p"], a["k"]),
        lambda a: f"F{a['p'] ** a['k']}",
        lambda a, spec, t: gf(a["p"], a["k"], threshold=t, spec=spec)),
    "product": _Family(
        ["spec"], lambda a, *orders: order_product(orders), lambda a, *names: "x".join(names),
        lambda a, spec, t, *factors: product_ring(factors, threshold=t, spec=spec)),
    "matrix": _Family(
        _N_BASE, lambda a, base: order_power(base, a["n"] ** 2),
        lambda a, base: f"M{a['n']}({base})",
        lambda a, spec, t, base: matrix_ring(a["n"], base, threshold=t, spec=spec)),
    "triangular": _Family(
        _N_BASE, lambda a, base: order_power(base, a["n"] * (a["n"] + 1) // 2),
        lambda a, base: f"T{a['n']}({base})",
        lambda a, spec, t, base: triangular_ring(a["n"], base, threshold=t, spec=spec)),
    "quotient": _Family(
        {"base": "spec", "generators": ["id"]}, None, lambda a, base: f"{base}/I",
        lambda a, spec, t, base: quotient_ring(base, a["generators"], spec=spec)),
    "corner": _Family(
        {"base": "spec", "idempotent": "id"}, None, lambda a, base: f"corner({base})",
        lambda a, spec, t, base: corner_ring(base, a["idempotent"], spec=spec)),
    "group_ring": _Family(
        {"base": "spec", "group": _GROUP},
        lambda a, base: order_power(base, group_order(a["group"])),
        lambda a, base: f"{base}[{group_name(a['group'])}]",
        lambda a, spec, t, base: group_ring(
            base, group_from_spec(a["group"]), threshold=t, spec=spec)),
    "trivial_extension": _Family(
        "spec", lambda a, base: base * base, lambda a, base: f"TE({base})",
        lambda a, spec, t, base: trivial_extension(base, threshold=t, spec=spec)),
    "ideal_extension": _Family(
        {"base": "spec", "m": _MODULE, "left_action": "table", "right_action": "table"},
        lambda a, base: base * len(a["m"]["add"]), lambda a, base: f"IE({base})",
        lambda a, spec, t, base: ideal_extension(
            base, a["m"], a["left_action"], a["right_action"], threshold=t, spec=spec)),
    "formal_triangular": _Family(
        {"a": "spec", "b": "spec", "m": _MODULE, "left_action": "table", "right_action": "table"},
        lambda a, ra, rb: ra * len(a["m"]["add"]) * rb,
        lambda a, ra, rb: f"FT({ra},{rb})",
        lambda a, spec, t, ra, rb: formal_triangular(
            ra, rb, a["m"], a["left_action"], a["right_action"], threshold=t, spec=spec)),
    "trivial_morita": _Family(
        {"a": "spec", "b": "spec", "m": _MODULE, "m_left": "table", "m_right": "table",
         "n": _MODULE, "n_left": "table", "n_right": "table"},
        lambda a, ra, rb: ra * rb * len(a["m"]["add"]) * len(a["n"]["add"]),
        lambda a, ra, rb: f"MC({ra},{rb})",
        lambda a, spec, t, ra, rb: trivial_morita(
            ra, rb, a["m"], a["m_left"], a["m_right"], a["n"], a["n_left"], a["n_right"],
            threshold=t, spec=spec)),
    "trunc_poly": _Family(
        _N_BASE, lambda a, base: order_power(base, a["n"]),
        lambda a, base: f"{base}[x]/x^{a['n']}",
        lambda a, spec, t, base: trunc_poly(base, a["n"], threshold=t, spec=spec)),
    "skew_trunc_poly": _Family(
        {"base": "spec", "alpha": _Kinds(identity=None, frobenius="pos", map=["id"]), "n": "pos"},
        lambda a, base: order_power(base, a["n"]), lambda a, base: f"{base}[x;a]/x^{a['n']}",
        lambda a, spec, t, base: skew_trunc_poly(
            base, a["alpha"], a["n"], threshold=t, spec=spec)),
    "opposite": _Family(
        "spec", lambda a, base: base, lambda a, base: f"op({base})",
        lambda a, spec, t, base: opposite_ring(base, spec=spec)),
    "table": _Family(
        {"add": "table", "mul": "table", "labels?": ["str"]}, lambda a: len(a["add"]),
        lambda a: "table",
        lambda a, spec, t: table_ring(
            a["add"], a["mul"], a.get("labels"), spec=spec, name=spec_name(spec))),
}
_SPEC = _Kinds({kind: row.args for kind, row in _FAMILIES.items()})


def _expect(value, kind: type, path: str) -> None:
    """Refuse ``value`` unless it is a ``kind``; a boolean is never an integer."""
    if not isinstance(value, kind) or isinstance(value, bool):
        name = {dict: "object", list: "array", str: "string", int: "integer"}[kind]
        raise SpecError(f"{value!r} is not of type {name!r}", path)


def _check_shape(value, shape, path: str) -> None:
    """Refuse ``value``, at JSON path ``path``, unless it has ``shape``.

    Shapes: ``"spec"``, a child spec, left to :func:`_walk`; ``"pos"`` and ``"id"``,
    an integer (never a boolean or a float) >= 1 or >= 0; ``"str"``; ``"table"``, a
    list of lists of ids; ``[s]``, a list of ``s``, not empty for ``["spec"]``; a
    :class:`_Kinds` union; ``{key: s}``, an object with these keys, ``key?`` optional.
    """
    if isinstance(shape, _Kinds):
        if isinstance(value, str) and shape.get(value, "") is None:
            return
        if not (isinstance(value, dict) and len(value) == 1 and shape.get(next(iter(value)))):
            raise SpecError(f"{value!r} is not valid under any of the given schemas", path)
        (kind, args), = value.items()
        _check_shape(args, shape[kind], f"{path}.{kind}")
    elif isinstance(shape, dict):
        _expect(value, dict, path)
        keys = {key.rstrip("?"): item for key, item in shape.items()}
        for key in value:
            if key not in keys:
                raise SpecError(f"Additional properties are not allowed ({key!r} was unexpected)", path)
        for key, item in keys.items():
            if key in value:
                _check_shape(value[key], item, f"{path}.{key}")
            elif key + "?" not in shape:
                raise SpecError(f"{key!r} is a required property", path)
    elif isinstance(shape, list):
        _expect(value, list, path)
        if not value and shape == ["spec"]:
            raise SpecError("[] should be non-empty", path)
        for i, item in enumerate(value):
            _check_shape(item, shape[0], f"{path}[{i}]")
    elif shape == "table":
        _expect(value, list, path)
        for i, row in enumerate(value):
            # Cells are typed and bounded in C; np.asarray would read True as 1.
            _expect(row, list, f"{path}[{i}]")
            if not {*map(type, row)} <= {int} or min(row, default=0) < 0:
                _check_shape(row, ["id"], f"{path}[{i}]")  # names the bad cell
    elif shape != "spec":
        _expect(value, str if shape == "str" else int, path)
        if shape != "str" and value < (least := int(shape == "pos")):
            raise SpecError(f"{value!r} is less than the minimum of {least}", path)


def validate_spec(spec) -> None:
    """Check ``spec`` against the family table; a :class:`SpecError` names the first offence."""
    _walk(spec, None)


#: Spec nodes nest at most this deep, the root at depth 1; the deepest
#: catalog spec has 3 levels, and the build recurses once per level.
_MAX_SPEC_DEPTH = 100


def _walk(spec, threshold: Optional[int], path: str = "$", depth: int = 1) -> Optional[int]:
    """Check the nodes of ``spec``, at JSON path ``path``, in build order.

    A node deeper than ``_MAX_SPEC_DEPTH`` is refused.  Given a
    threshold, each order read from a node's arguments and child orders
    goes to :func:`check_order` at once, before any order above it or
    after it is read.  Returns the order: None without a threshold, or
    where it needs a built ring (a quotient or a corner) or a node above.
    """
    if depth > _MAX_SPEC_DEPTH:
        raise SpecError(f"spec nodes nest more than {_MAX_SPEC_DEPTH} levels deep", path)
    _check_shape(spec, _SPEC, path)
    family, args, children = _node(spec)
    orders = [_walk(child, threshold, path + at, depth + 1) for at, child in children]
    if threshold is None or family.order is None or None in orders:
        return None
    order = family.order(args, *orders)
    check_order(order, threshold)
    return order


def _node(spec: dict) -> tuple[_Family, object, list[tuple[str, dict]]]:
    """The row and arguments of a well-formed spec node, and its child specs with
    their JSON paths below it: the ``"spec"`` slots, all at the top of the row's ``args``."""
    (kind, args), = spec.items()
    family, at = _FAMILIES[kind], f".{kind}"
    if family.args == "spec":
        return family, args, [(at, args)]
    if family.args == ["spec"]:
        return family, args, [(f"{at}[{i}]", child) for i, child in enumerate(args)]
    slots = family.args.items() if isinstance(family.args, dict) else ()
    return family, args, [(f"{at}.{key}", args[key]) for key, s in slots if s == "spec"]


#: The live rings :func:`build` made, by :func:`spec_key`.  The references
#: are weak: an entry lasts as long as some caller holds its ring.
_LIVE: weakref.WeakValueDictionary[str, FiniteRing] = weakref.WeakValueDictionary()


def spec_key(spec: dict) -> str:
    """The canonical JSON of a spec node: equal specs give one key."""
    return json.dumps(spec, sort_keys=True)


def _bears_table(value, shape=_SPEC) -> bool:
    """Whether ``value``, of ``shape``, or a child spec below it, has a ``"table"`` argument.

    Only shapes are read: the walk stops at the first table, before its cells.
    """
    if shape == "spec":
        shape = _SPEC
    if isinstance(shape, _Kinds):
        if isinstance(value, str):
            return False
        (kind, args), = value.items()
        return _bears_table(args, shape[kind])
    if isinstance(shape, dict):
        return any(_bears_table(value[key.rstrip("?")], item)
                   for key, item in shape.items() if key.rstrip("?") in value)
    if isinstance(shape, list):
        return any(_bears_table(item, shape[0]) for item in value)
    return shape == "table"


def _build(spec: dict, threshold: int) -> FiniteRing:
    """The ring of a walked spec: the live ring of an equal spec, if there is one.

    A node with a table below it is neither looked up nor registered,
    so no table cell is serialized for a key.
    """
    key = None if _bears_table(spec) else spec_key(spec)
    ring = None if key is None else _LIVE.get(key)
    if ring is None:
        family, args, children = _node(spec)
        ring = family.make(args, spec, threshold, *(_build(child, threshold) for _, child in children))
        if key is not None:
            _LIVE[key] = ring
    return ring


def spec_name(spec: Optional[dict]) -> str:
    """Short display name of a construction tree; "ring" for None or a node of no known kind."""
    if not (isinstance(spec, dict) and len(spec) == 1 and next(iter(spec)) in _FAMILIES):
        return "ring"
    family, args, children = _node(spec)
    return family.name(args, *(spec_name(child) for _, child in children))
