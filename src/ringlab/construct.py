"""Constructors for every ring family the catalog uses.

Base rings (Z_n, GF(p^k)), direct products, full and upper-triangular
matrix rings, two-sided quotients, corner rings eRe, group rings with
their augmentation map, trivial and ideal extensions, formal triangular
rings, trivial Morita contexts, (skew) truncated polynomial rings, and
opposite rings.

Composite rings, and GF(p^k) as k coordinates over Z_p, are assembled
from mixed-radix element coordinates: the additive structure is always
componentwise, so only the multiplication formula varies per family.  ``_assemble_ring`` evaluates each family's
digit formula on an open digit grid in the style of ``np.ix_``, one
dimension per axis of size > 1 and side, so a gather touches only the
digits it depends on (4^6 cells for entry (0,2) of T3(Z4), not 4096^2);
axes of size 1 take no dimension.  Only the final mixed-radix encode,
in ``dtype_for(order)``, writes all order^2 cells.  Constructors build
dense tables of at most ``threshold`` elements (default 16384; quotients,
corners and opposite rings never outgrow their base) and refuse a larger
ring with :class:`SizeOverflowError`, naming the order and the bytes of
its tables, before allocating any of them (:func:`ringlab.core.check_order`).
:func:`build` reads the order of every node from the spec tree first,
so an oversized spec is refused before any of its factors is built.
Constructor outputs are validated at build time: up to order 256 the
cubic laws are decided for all n^3 triples from the additive generators
(Light's test for associativity of +, bilinearity for the distributive
laws and for associativity of the product); above it, by fixed-seed
sampling.  Module add tables go through the same generator test for
associativity.

The trivial extension, the ideal extension and the trivial Morita
context, T(A x B, M + N), are all base + M with (r,m)(s,n) =
(rs, rn + ms + mn) and share ``_module_extension``; each bimodule is
validated once by ``_validate_bimodule``.

Each spec kind is one row of ``_FAMILIES``: its child specs, its order
from the child orders, its display name from the child names, and its
constructor call.  :func:`build`, the oversize pre-check and
:func:`spec_name` are walks over that table, so a new family is one row
there plus its entry in ``ringspec.schema.json``.
"""

from __future__ import annotations

import itertools
import json
import math
from importlib import resources
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_THRESHOLD,
    FiniteRing,
    additive_associativity_witness,
    additive_generators,
    check_order,
    dtype_for,
    table_ring,
    validate_axioms,
)
from .errors import (
    BimoduleError,
    EndomorphismError,
    RingConstructionError,
    SpecError,
)
from .groups import Group, group_from_spec
from .invariants import get_cache, ideal_generated

_BUILD_VALIDATE_LIMIT = 256


# ---------------------------------------------------------------------------
# coordinate assembly


class _Axis:
    """One coordinate of a composite element: an additive group."""

    def __init__(self, size: int, add: np.ndarray, neg: np.ndarray, zero: int):
        self.size = size
        self.add = add
        self.neg = neg
        self.zero = zero

    @classmethod
    def of_ring(cls, ring: FiniteRing) -> "_Axis":
        return cls(ring.order, ring.add_table, ring.neg_table, ring.zero)


def _axis_of_module(add_table: np.ndarray) -> tuple["_Axis", int]:
    """Validate a module's additive table as an abelian group."""
    add = np.asarray(add_table, dtype=np.int64)
    n = len(add)
    if add.shape != (n, n) or (n and (add.min() < 0 or add.max() >= n)):
        raise RingConstructionError("module add table malformed")
    idx = np.arange(n)
    zeros = [a for a in range(n) if (add[a] == idx).all()]
    if not zeros:
        raise RingConstructionError("module addition has no zero")
    zero = zeros[0]
    if not (add == add.T).all():
        raise RingConstructionError("module addition is not commutative")
    if additive_associativity_witness(add, additive_generators(add, zero)) is not None:
        raise RingConstructionError("module addition is not associative")
    neg = np.full(n, -1, dtype=np.int64)
    rows, cols = np.nonzero(add == zero)
    neg[rows] = cols
    if (neg < 0).any():
        raise RingConstructionError("module addition lacks inverses")
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
    nothing to an encoded id.
    """

    def __init__(self, axes: Sequence[_Axis]):
        self.axes = list(axes)
        self.sizes = [ax.size for ax in self.axes]
        order = 1
        for s in self.sizes:
            order *= s
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

    def encode(self, digits: Sequence, shape: tuple, dtype: np.dtype) -> np.ndarray:
        """Ids of ``shape`` from per-axis digits that broadcast to it.

        Weighted digits are summed on the grid dimensions they span for
        as long as that stays below the full size; only then is the
        partial sum added into the result in place.
        """
        acc = np.zeros(shape, dtype=dtype)
        part = None
        for p in self.open_axes:
            digit = np.asarray(digits[p])
            if part is not None and np.broadcast(part, digit).size == acc.size:
                acc += part
                part = None
            weight = dtype.type(self.weights[p])
            if part is None:
                part = digit.astype(dtype)
                part *= weight
            else:
                part = part + digit.astype(dtype) * weight
        if part is not None:
            acc += part
        return acc

    def encode_one(self, digits: Sequence[int]) -> int:
        return sum(w * int(d) for w, d in zip(self.weights, digits))


def _assemble_ring(
    assembly: _Assembly,
    mul_digits: Callable[[list, list], list],
    one_digits: Sequence[int],
    label_fn: Callable[[Sequence[int]], str],
    spec: Optional[dict],
    name: Optional[str],
    threshold: int,
) -> FiniteRing:
    """Build a ring from coordinates and a product formula.

    ``mul_digits(da, db)`` maps the digits of a and b, one entry per
    axis, to the digits of ab; the per-axis add tables give a + b.  Both
    are evaluated on an open digit grid: with k open axes (size > 1),
    row axis q varies along dimension q and column axis q along
    dimension k + q, so each gather touches only the digits its entry
    depends on.  Size-1 axes enter as the 0-d digit 0, so degenerate
    rings such as M6(Z1) need no dimensions at all.  Only the
    mixed-radix encode writes all cells, as broadcast in-place adds in
    ``dtype_for(order)``; neg is encoded from the per-axis negs on one
    side of the grid.  ``label_fn`` gets the digits as a sequence of
    ints; labels follow mixed-radix order.  Orders above ``threshold``
    are refused before any table is allocated.
    """
    n = assembly.order
    check_order(n, threshold)
    dt = dtype_for(n)
    zero = assembly.encode_one([ax.zero for ax in assembly.axes])
    one = assembly.encode_one(one_digits)
    k = len(assembly.open_axes)
    rows, cols = assembly.grid(0, 2 * k), assembly.grid(k, 2 * k)
    shape = assembly.shape * 2
    add_tab = assembly.encode(
        [ax.add[x, y] for ax, x, y in zip(assembly.axes, rows, cols)], shape, dt
    ).reshape(n, n)
    mul_tab = assembly.encode(mul_digits(rows, cols), shape, dt).reshape(n, n)
    neg = assembly.encode(
        [ax.neg[x] for ax, x in zip(assembly.axes, assembly.grid(0, k))], assembly.shape, dt
    ).reshape(n)
    labels = [label_fn(d) for d in itertools.product(*map(range, assembly.sizes))]
    ring = FiniteRing(add_tab, mul_tab, zero, one, labels=labels, spec=spec, name=name, neg=neg)
    _validate_built(ring)
    ring.meta["axis_sizes"] = tuple(assembly.sizes)
    ring.meta["axis_weights"] = tuple(assembly.weights)
    return ring


def _validate_built(ring: FiniteRing):
    report = validate_axioms(ring, limit=_BUILD_VALIDATE_LIMIT)
    if not report.ok:
        raise RingConstructionError(
            f"constructed ring {ring.name} fails {report.axiom} at {report.witness}"
        )


def _restrict_to_subset(
    base: FiniteRing,
    ids: Sequence[int],
    one_id: int,
    labels: Optional[Sequence[str]] = None,
    spec: Optional[dict] = None,
    name: Optional[str] = None,
) -> FiniteRing:
    """Ring on a multiplicatively and additively closed subset."""
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
    ring = FiniteRing(sub_add, sub_mul, zero, one, labels=labels, spec=spec, name=name,
                      neg=lookup[base.neg_table[ids]])
    _validate_built(ring)
    return ring


# ---------------------------------------------------------------------------
# base rings


def zn(n: int, *, threshold: int = DEFAULT_THRESHOLD, spec: Optional[dict] = None) -> FiniteRing:
    """The ring of integers modulo n."""
    if n < 1:
        raise SpecError(f"zn parameter must be positive, got {n}")
    check_order(n, threshold)
    spec = spec or {"zn": n}
    idx = np.arange(n, dtype=np.int64)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    ring = FiniteRing(add, mul, 0, 1 % n, labels=[str(i) for i in range(n)],
                      spec=spec, name=spec_name(spec), neg=(-idx) % n)
    _validate_built(ring)
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
    if not _is_prime(p):
        raise SpecError(f"gf characteristic must be prime, got {p}")
    if k < 1:
        raise SpecError(f"gf degree must be positive, got {k}")
    spec = spec or {"gf": {"p": p, "k": k}}
    order = p ** k
    check_order(order, threshold)
    if k == 1:
        base = zn(p, threshold=threshold, spec=spec)
        return base
    modulus = _find_irreducible(p, k)
    zp = zn(p, threshold=threshold)
    assembly = _Assembly([_Axis.of_ring(zp)] * k)
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

    return _assemble_ring(assembly, mul_digits, [0] * (k - 1) + [1],
                          lambda digits: _poly_label(digits[::-1], "w", zp),
                          spec, spec_name(spec), threshold)


def _poly_label(coeffs: Sequence[int], var: str, base: FiniteRing) -> str:
    """``c0+c1*var+...`` in ``base``'s labels, coefficients from degree 0."""
    labels = base.labels
    terms = []
    for deg, c in enumerate(coeffs):
        if c == base.zero:
            continue
        power = "" if deg == 0 else (var if deg == 1 else f"{var}^{deg}")
        if deg == 0:
            terms.append(labels[c])
        elif c == base.one:
            terms.append(power)
        else:
            terms.append(f"{labels[c]}*{power}")
    return "+".join(terms) if terms else labels[base.zero]


# ---------------------------------------------------------------------------
# products, matrices, triangular rings


def product_ring(
    factors: Sequence[FiniteRing],
    *,
    threshold: int = DEFAULT_THRESHOLD,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """Direct product with componentwise operations."""
    if not factors:
        raise SpecError("product requires at least one factor")
    spec = spec or {"product": [f.spec for f in factors]}
    assembly = _Assembly([_Axis.of_ring(f) for f in factors])
    muls = [f.mul_table for f in factors]

    def mul_digits(da, db):
        return [m[d1, d2] for m, d1, d2 in zip(muls, da, db)]

    labels = [f.labels for f in factors]

    def label_fn(digits):
        return "(" + ",".join(lbl[d] for lbl, d in zip(labels, digits)) + ")"

    return _assemble_ring(
        assembly, mul_digits, [f.one for f in factors], label_fn,
        spec, spec_name(spec), threshold,
    )


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
    assembly = _Assembly([_Axis.of_ring(base)] * len(entries))
    amul, aadd = base.mul_table, base.add_table

    def mul_digits(da, db):
        out = []
        for i, j in entries:
            acc = None
            for k in range(n):
                if (i, k) in pos and (k, j) in pos:
                    term = amul[da[pos[(i, k)]], db[pos[(k, j)]]]
                    acc = term if acc is None else aadd[acc, term]
            out.append(acc)
        return out

    one_digits = [base.one if i == j else base.zero for i, j in entries]
    base_labels = base.labels
    zero_label = base_labels[base.zero]

    def label_fn(digits):
        rows = []
        for i in range(n):
            cells = []
            for j in range(n):
                cells.append(base_labels[digits[pos[(i, j)]]] if (i, j) in pos else zero_label)
            rows.append(" ".join(cells))
        return "(" + ";".join(rows) + ")"

    return _assemble_ring(assembly, mul_digits, one_digits, label_fn,
                          spec, spec_name(spec), threshold)


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
    gens = sorted({int(g) for g in generators})
    ideal_ids = np.asarray(ideal_generated(base, gens).sorted_ids())
    return _quotient_by_ideal(base, gens, ideal_ids, spec)


def _quotient_by_ideal(
    base: FiniteRing,
    gens: list[int],
    ideal_ids: np.ndarray,
    spec: Optional[dict] = None,
) -> FiniteRing:
    """:func:`quotient_ring` by ``ideal_ids``, an ideal the caller has verified.

    ``gens`` are the sorted generators the default spec names.
    """
    spec = spec or {"quotient": {"base": base.spec, "generators": gens}}
    reps = base.add_table[:, ideal_ids].min(axis=1)
    rep_ids = np.unique(reps)
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
    _validate_built(ring)
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

    The embedding back into the base is ``ring.meta['embedding']``.
    """
    if base.mul(e, e) != e:
        raise RingConstructionError(f"element {e} is not idempotent in {base.name}")
    spec = spec or {"corner": {"base": base.spec, "idempotent": int(e)}}
    ids = np.unique(base.mul_table[base.mul_table[e], e])
    ring = _restrict_to_subset(base, ids, e, spec=spec, name=spec_name(spec))
    ring.meta["embedding"] = np.asarray(sorted(int(i) for i in ids))
    ring.meta["base_ring"] = base
    ring.meta["idempotent"] = int(e)
    return ring


def subring_generated(base: FiniteRing, generators: Iterable[int]) -> FiniteRing:
    """Smallest unital subring containing the generators.

    The embedding into the base is ``ring.meta['embedding']``.
    """
    ids = _subring_closure(base, generators)
    ring = _restrict_to_subset(base, ids, base.one, name=f"sub({base.name})")
    ring.meta["embedding"] = ids
    ring.meta["base_ring"] = base
    return ring


def _subring_closure(base: FiniteRing, generators: Iterable[int]) -> np.ndarray:
    """Sorted ids of the smallest unital subring containing the generators."""
    mask = np.zeros(base.order, dtype=bool)
    mask[[base.zero, base.one]] = True
    mask[np.fromiter(generators, dtype=np.int64)] = True
    size = 0
    while True:
        ids = np.flatnonzero(mask)
        if ids.size == size:
            return ids
        size = ids.size
        block = np.ix_(ids, ids)
        mask[base.add_table[block]] = True
        mask[base.mul_table[block]] = True
        mask[base.neg_table[ids]] = True


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
    base id), its kernel (``'aug_kernel'``, the frozenset of ids of the
    ideal generated by the elements 1 - g), and the base embedding
    r -> r*1_G.
    """
    g = group.order
    order = base.order ** g
    assembly = _Assembly([_Axis.of_ring(base)] * g)
    amul, aadd = base.mul_table, base.add_table
    gtab = group.table

    def mul_digits(da, db):
        out = [None] * g
        for h in range(g):
            for k in range(g):
                target = int(gtab[h, k])
                term = amul[da[h], db[k]]
                out[target] = term if out[target] is None else aadd[out[target], term]
        return out

    one_digits = [base.zero] * g
    one_digits[group.identity] = base.one
    base_labels = base.labels
    glabels = group.labels

    def label_fn(digits):
        terms = []
        for pos, c in enumerate(digits):
            if c == base.zero:
                continue
            coeff = base_labels[c]
            sym = glabels[pos]
            if pos == group.identity:
                terms.append(coeff)
            elif c == base.one:
                terms.append(sym)
            else:
                terms.append(f"{coeff}*{sym}")
        return "+".join(terms) if terms else base_labels[base.zero]

    spec = spec or {"group_ring": {"base": base.spec, "group": _group_spec_of(group)}}
    ring = _assemble_ring(assembly, mul_digits, one_digits, label_fn,
                          spec, spec_name(spec), threshold)

    eps = None
    for digits in assembly.grid(0, len(assembly.open_axes)):
        eps = digits if eps is None else aadd[eps, digits]
    ring.meta["augmentation"] = np.broadcast_to(eps, assembly.shape).reshape(order)
    embed = np.zeros(base.order, dtype=np.int64)
    for r in range(base.order):
        digits = [base.zero] * g
        digits[group.identity] = r
        embed[r] = assembly.encode_one(digits)
    ring.meta["base_embedding"] = embed
    gens = []
    for h in range(group.order):
        digits = [base.zero] * g
        digits[group.identity] = base.one
        gid = assembly.encode_one(digits)
        digits2 = [base.zero] * g
        digits2[h] = base.one
        hid = assembly.encode_one(digits2)
        gens.append(ring.sub(gid, hid))
    ring.meta["aug_kernel"] = ideal_generated(ring, gens).members
    ring.meta["group"] = group
    ring.meta["base_ring"] = base
    return ring


def _group_spec_of(group: Group):
    name = group.name
    if name.startswith("C") and name[1:].isdigit():
        return {"cyclic": int(name[1:])}
    if name == "V4":
        return "klein_four"
    if name == "S3":
        return "symmetric3"
    if name == "Q8":
        return "quaternion8"
    if name.startswith("D") and name[1:].isdigit():
        return {"dihedral": int(name[1:])}
    return {
        "table": {
            "mul": group.table.tolist(),
            "identity": group.identity,
            "labels": group.labels,
            "name": group.name,
        }
    }


# ---------------------------------------------------------------------------
# extensions


def _module_extension(base: FiniteRing, axis: _Axis, lam: np.ndarray, rho: np.ndarray,
                      m_mul: Optional[np.ndarray], m_labels: Sequence[str], spec: dict,
                      threshold: int) -> FiniteRing:
    """base + M with (r,m)(s,n) = (rs, rn + ms + mn); ``m_mul=None`` is the zero product.

    The caller validates the actions ``lam`` and ``rho``.  Element
    (r, m) has id r*|M| + m and label "(r,m)".
    """
    assembly = _Assembly([_Axis.of_ring(base), axis])
    amul, madd = base.mul_table, axis.add

    def mul_digits(da, db):
        second = madd[lam[da[0], db[1]], rho[da[1], db[0]]]
        if m_mul is not None:
            second = madd[second, m_mul[da[1], db[1]]]
        return [amul[da[0], db[0]], second]

    base_labels = base.labels

    def label_fn(digits):
        return f"({base_labels[digits[0]]},{m_labels[digits[1]]})"

    return _assemble_ring(assembly, mul_digits, [base.one, axis.zero], label_fn,
                          spec, spec_name(spec), threshold)


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


def _check(law: str, ok: np.ndarray):
    """Raise ``law`` at the first index where ``ok`` is False."""
    if not ok.all():
        raise BimoduleError(law, tuple(int(x) for x in np.argwhere(~ok)[0]))


def _validate_left_action(ring: FiniteRing, axis: _Axis, lam: np.ndarray, law_prefix: str):
    radd, rmul = ring.add_table, ring.mul_table
    madd = axis.add
    nr, nm = ring.order, axis.size
    if lam.shape != (nr, nm) or (lam.size and (lam.min() < 0 or lam.max() >= nm)):
        raise BimoduleError(f"{law_prefix}-shape", (nr, nm))
    _check(f"{law_prefix}-unital", lam[ring.one] == np.arange(nm))
    r = np.arange(nr)
    s = np.arange(nr)
    m = np.arange(nm)
    # (r+s)m = rm + sm
    lhs = lam[radd[r[:, None, None], s[None, :, None]], m[None, None, :]]
    rhs = madd[lam[r[:, None, None], m[None, None, :]], lam[s[None, :, None], m[None, None, :]]]
    _check(f"{law_prefix}-additive-in-ring", lhs == rhs)
    # r(m+n) = rm + rn
    n_ = np.arange(nm)
    lhs = lam[r[:, None, None], madd[m[None, :, None], n_[None, None, :]]]
    rhs = madd[lam[r[:, None, None], m[None, :, None]], lam[r[:, None, None], n_[None, None, :]]]
    _check(f"{law_prefix}-additive-in-module", lhs == rhs)
    # (rs)m = r(sm)
    lhs = lam[rmul[r[:, None, None], s[None, :, None]], m[None, None, :]]
    rhs = lam[r[:, None, None], lam[s[None, :, None], m[None, None, :]]]
    _check(f"{law_prefix}-associative", lhs == rhs)


def _validate_right_action(ring: FiniteRing, axis: _Axis, rho: np.ndarray, law_prefix: str):
    radd, rmul = ring.add_table, ring.mul_table
    madd = axis.add
    nr, nm = ring.order, axis.size
    if rho.shape != (nm, nr) or (rho.size and (rho.min() < 0 or rho.max() >= nm)):
        raise BimoduleError(f"{law_prefix}-shape", (nm, nr))
    _check(f"{law_prefix}-unital", rho[:, ring.one] == np.arange(nm))
    r = np.arange(nr)
    s = np.arange(nr)
    m = np.arange(nm)
    lhs = rho[m[:, None, None], radd[r[None, :, None], s[None, None, :]]]
    rhs = madd[rho[m[:, None, None], r[None, :, None]], rho[m[:, None, None], s[None, None, :]]]
    _check(f"{law_prefix}-additive-in-ring", lhs == rhs)
    n_ = np.arange(nm)
    lhs = rho[madd[m[:, None, None], n_[None, :, None]], r[None, None, :]]
    rhs = madd[rho[m[:, None, None], r[None, None, :]], rho[n_[None, :, None], r[None, None, :]]]
    _check(f"{law_prefix}-additive-in-module", lhs == rhs)
    lhs = rho[m[:, None, None], rmul[r[None, :, None], s[None, None, :]]]
    rhs = rho[rho[m[:, None, None], r[None, :, None]], s[None, None, :]]
    _check(f"{law_prefix}-associative", lhs == rhs)


def _validate_bimodule(left: FiniteRing, right: FiniteRing, axis: _Axis, lam: np.ndarray,
                       rho: np.ndarray, prefix: str = ""):
    """M is a unital (left, right)-bimodule: each action's laws, then (rm)s = r(ms).

    Laws are named ``prefix`` + ``left-*``, ``right-*`` and
    ``bimodule-compat``; the compat witness is (r, m, s).
    """
    _validate_left_action(left, axis, lam, f"{prefix}left")
    _validate_right_action(right, axis, rho, f"{prefix}right")
    r, m, s = np.arange(left.order), np.arange(axis.size), np.arange(right.order)
    lhs = rho[lam[r[:, None, None], m[None, :, None]], s[None, None, :]]
    rhs = lam[r[:, None, None], rho[m[None, :, None], s[None, None, :]]]
    _check(f"{prefix}bimodule-compat", lhs == rhs)


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
    m_add = np.asarray(m_tables["add"], dtype=np.int64)
    axis, m_zero = _axis_of_module(m_add)
    nm = axis.size
    # The action laws below gather order(base)^2 * |M| cells: refuse first.
    check_order(base.order * nm, threshold)
    m_mul = m_tables.get("mul")
    m_mul = np.asarray(np.full((nm, nm), m_zero) if m_mul is None else m_mul, dtype=np.int64)
    if m_mul.shape != (nm, nm) or (m_mul.size and (m_mul.min() < 0 or m_mul.max() >= nm)):
        raise RingConstructionError("module mul table malformed")
    lam = np.asarray(left_action, dtype=np.int64)
    rho = np.asarray(right_action, dtype=np.int64)

    # M is an associative rng distributing over its own addition.
    mi = np.arange(nm)
    lhs = m_mul[m_mul[mi[:, None, None], mi[None, :, None]], mi[None, None, :]]
    rhs = m_mul[mi[:, None, None], m_mul[mi[None, :, None], mi[None, None, :]]]
    _check("m-associative", lhs == rhs)
    lhs = m_mul[mi[:, None, None], m_add[mi[None, :, None], mi[None, None, :]]]
    rhs = m_add[m_mul[mi[:, None, None], mi[None, :, None]], m_mul[mi[:, None, None], mi[None, None, :]]]
    _check("m-left-distributive", lhs == rhs)
    lhs = m_mul[m_add[mi[:, None, None], mi[None, :, None]], mi[None, None, :]]
    rhs = m_add[m_mul[mi[:, None, None], mi[None, None, :]], m_mul[mi[None, :, None], mi[None, None, :]]]
    _check("m-right-distributive", lhs == rhs)

    _validate_bimodule(base, base, axis, lam, rho)

    # Compatibility of the actions with the M multiplication:
    # (mn)r = m(nr), (mr)n = m(rn), (rm)n = r(mn).
    r = np.arange(base.order)
    lhs = rho[m_mul[mi[:, None, None], mi[None, :, None]], r[None, None, :]]
    rhs = m_mul[mi[:, None, None], rho[mi[None, :, None], r[None, None, :]]]
    _check("compat-(mn)r=m(nr)", lhs == rhs)
    lhs = m_mul[rho[mi[:, None, None], r[None, :, None]], mi[None, None, :]]
    rhs = m_mul[mi[:, None, None], lam[r[None, :, None], mi[None, None, :]]]
    _check("compat-(mr)n=m(rn)", lhs == rhs)
    lhs = m_mul[lam[r[:, None, None], mi[None, :, None]], mi[None, None, :]]
    rhs = lam[r[:, None, None], m_mul[mi[None, :, None], mi[None, None, :]]]
    _check("compat-(rm)n=r(mn)", lhs == rhs)

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
    central = bool((lam[np.ix_(idem, mi)] == rho[np.ix_(mi, idem)].T).all())
    # m is quasi-regular iff m + n + mn = 0 for some n: one row per m.
    quasi = bool((m_add[m_add, m_mul] == m_zero).any(axis=1).all())
    ring.meta["hypotheses"] = {"idempotents_central_on_m": central, "m_quasi_regular": quasi}
    ring.meta["base_ring"] = base
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
    m_add = np.asarray(m_tables["add"], dtype=np.int64)
    axis, m_zero = _axis_of_module(m_add)
    check_order(a.order * axis.size * b.order, threshold)
    lam = np.asarray(left_action, dtype=np.int64)
    rho = np.asarray(right_action, dtype=np.int64)
    _validate_bimodule(a, b, axis, lam, rho)

    assembly = _Assembly([_Axis.of_ring(a), axis, _Axis.of_ring(b)])
    amul, bmul = a.mul_table, b.mul_table
    madd = axis.add

    def mul_digits(da, db):
        return [
            amul[da[0], db[0]],
            madd[lam[da[0], db[1]], rho[da[1], db[2]]],
            bmul[da[2], db[2]],
        ]

    m_labels = _module_labels(m_tables, axis.size)
    a_labels, b_labels = a.labels, b.labels

    def label_fn(digits):
        return f"({a_labels[digits[0]]},{m_labels[digits[1]]},{b_labels[digits[2]]})"

    spec = spec or {
        "formal_triangular": {
            "a": a.spec,
            "b": b.spec,
            "m": {"add": m_add.tolist(), "labels": m_labels},
            "left_action": lam.tolist(),
            "right_action": rho.tolist(),
        }
    }
    return _assemble_ring(assembly, mul_digits, [a.one, m_zero, b.one], label_fn,
                          spec, spec_name(spec), threshold)


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
    """
    m_axis, _ = _axis_of_module(np.asarray(m["add"], dtype=np.int64))
    n_axis, _ = _axis_of_module(np.asarray(n["add"], dtype=np.int64))
    check_order(a.order * b.order * m_axis.size * n_axis.size, threshold)
    lam_m = np.asarray(m_left, dtype=np.int64)
    rho_m = np.asarray(m_right, dtype=np.int64)
    lam_n = np.asarray(n_left, dtype=np.int64)
    rho_n = np.asarray(n_right, dtype=np.int64)
    _validate_bimodule(a, b, m_axis, lam_m, rho_m, "m-")
    _validate_bimodule(b, a, n_axis, lam_n, rho_n, "n-")

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
    v_labels = [f"({m_labels[i]},{n_labels[j]})" for i, j in zip(vm, vn)]
    spec = spec or {
        "trivial_morita": {
            "a": a.spec,
            "b": b.spec,
            "m": {"add": np.asarray(m["add"]).tolist(), "labels": m_labels},
            "m_left": lam_m.tolist(),
            "m_right": rho_m.tolist(),
            "n": {"add": np.asarray(n["add"]).tolist(), "labels": n_labels},
            "n_left": lam_n.tolist(),
            "n_right": rho_n.tolist(),
        }
    }
    ring = _module_extension(p, v_axis, lam, rho, None, v_labels, spec, threshold)
    ring.meta["factors"] = (a, b)
    return ring


# ---------------------------------------------------------------------------
# polynomial quotients


def resolve_endomorphism(base: FiniteRing, descriptor) -> np.ndarray:
    """Resolve and validate a unital ring endomorphism descriptor."""
    n = base.order
    if descriptor == "identity" or descriptor is None:
        alpha = np.arange(n, dtype=np.int64)
    elif isinstance(descriptor, dict) and "frobenius" in descriptor:
        p = int(descriptor["frobenius"])
        alpha = np.zeros(n, dtype=np.int64)
        for a in range(n):
            x = base.one
            for _ in range(p):
                x = base.mul(x, a)
            alpha[a] = x
    elif isinstance(descriptor, dict) and "map" in descriptor:
        alpha = np.asarray(descriptor["map"], dtype=np.int64)
        if alpha.shape != (n,) or alpha.min() < 0 or alpha.max() >= n:
            raise EndomorphismError("shape", (n,))
    else:
        raise SpecError(f"unrecognized endomorphism descriptor {descriptor!r}")

    if alpha[base.one] != base.one:
        raise EndomorphismError("unital", (base.one,))
    add, mul = base.add_table, base.mul_table
    lhs = alpha[add]
    rhs = add[alpha[:, None], alpha[None, :]]
    if not (lhs == rhs).all():
        a, b = (int(x) for x in np.argwhere(lhs != rhs)[0])
        raise EndomorphismError("additive", (a, b))
    lhs = alpha[mul]
    rhs = mul[alpha[:, None], alpha[None, :]]
    if not (lhs == rhs).all():
        a, b = (int(x) for x in np.argwhere(lhs != rhs)[0])
        raise EndomorphismError("multiplicative", (a, b))
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
    alpha_pows = [np.arange(base.order, dtype=np.int64)]
    for _ in range(1, n):
        alpha_pows.append(alpha_vec[alpha_pows[-1]])
    assembly = _Assembly([_Axis.of_ring(base)] * n)
    amul, aadd = base.mul_table, base.add_table

    def mul_digits(da, db):
        out = [None] * n
        for i in range(n):
            for j in range(n - i):
                # coefficient of x^(i+j): a_i * alpha^i(b_j)
                term = amul[da[i], alpha_pows[i][db[j]]]
                k = i + j
                out[k] = term if out[k] is None else aadd[out[k], term]
        return out

    one_digits = [base.one] + [base.zero] * (n - 1)
    if spec is None:
        alpha_spec = alpha if isinstance(alpha, (str, dict)) else {"map": alpha_vec.tolist()}
        spec = {"skew_trunc_poly": {"base": base.spec, "alpha": alpha_spec, "n": n}}
    return _assemble_ring(assembly, mul_digits, one_digits,
                          lambda digits: _poly_label(digits, "x", base),
                          spec, spec_name(spec), threshold)


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
    spec = spec or {"opposite": base.spec}
    ring = FiniteRing(
        base.add_table, base.mul_table.T.copy(), base.zero, base.one,
        labels=list(base.labels), spec=spec, name=spec_name(spec), neg=base.neg_table,
    )
    _validate_built(ring)
    return ring


# ---------------------------------------------------------------------------
# spec codec


def load_schema() -> dict:
    text = resources.files("ringlab.data").joinpath("ringspec.schema.json").read_text()
    return json.loads(text)


def validate_spec(spec) -> None:
    """Validate a spec document against the shipped JSON schema.

    Raises :class:`SpecError` carrying the JSON path of the offence.
    """
    import jsonschema

    validator = jsonschema.Draft202012Validator(load_schema())
    errors = sorted(validator.iter_errors(spec), key=lambda e: len(e.absolute_path))
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        raise SpecError(best.message, best.json_path)


def build(
    spec: dict,
    *,
    threshold: int = DEFAULT_THRESHOLD,
    validate: bool = True,
) -> FiniteRing:
    """Build a ring from its declarative construction tree."""
    if validate:
        validate_spec(spec)
    _refuse_oversized(spec, threshold)
    return _build(spec, threshold)


# ---------------------------------------------------------------------------
# the family table: one row per spec kind


class _Family(NamedTuple):
    """One spec kind, as :func:`_build`, :func:`_refuse_oversized` and :func:`spec_name` read it.

    ``children(args)`` gives the child specs, built in that order before
    the node.  ``order(args, *child_orders)`` gives the node's order, or
    None for arguments its constructor refuses anyway; the field itself
    is None where the order depends on a built ring.
    ``name(args, *child_names)`` gives the display name and
    ``make(args, spec, threshold, *child_rings)`` builds the node.
    """

    children: Callable[..., list]
    order: Optional[Callable[..., Optional[int]]]
    name: Callable[..., str]
    make: Callable[..., FiniteRing]


def _gf_order(args) -> Optional[int]:
    p, k = int(args["p"]), int(args["k"])
    return p ** k if _is_prime(p) and k >= 1 else None


def _power_order(cells: Callable[[int], int]) -> Callable[..., Optional[int]]:
    """Order base^cells(n) of a family with cells(n) base coordinates."""
    def order(args, base: int) -> Optional[int]:
        n = int(args["n"])
        return base ** cells(n) if n >= 1 else None
    return order


def _group_name(gspec) -> str:
    if isinstance(gspec, str):
        return {"klein_four": "V4", "symmetric3": "S3", "quaternion8": "Q8"}.get(
            gspec, gspec
        )
    if isinstance(gspec, dict):
        if "cyclic" in gspec:
            return f"C{gspec['cyclic']}"
        if "dihedral" in gspec:
            return f"D{gspec['dihedral']}"
        if "table" in gspec:
            return "G"
    return "G"


#: Every spec kind of ``ringspec.schema.json``, with the fields of
#: :class:`_Family` in order.  A new family is one row here plus its
#: schema entry.
_FAMILIES: dict[str, _Family] = {
    "zn": _Family(
        lambda a: [], int, lambda a: f"Z{a}",
        lambda a, spec, t: zn(int(a), threshold=t, spec=spec)),
    "gf": _Family(
        lambda a: [], _gf_order, lambda a: f"F{a['p'] ** a['k']}",
        lambda a, spec, t: gf(int(a["p"]), int(a["k"]), threshold=t, spec=spec)),
    "product": _Family(
        list, lambda a, *orders: math.prod(orders), lambda a, *names: "x".join(names),
        lambda a, spec, t, *factors: product_ring(factors, threshold=t, spec=spec)),
    "matrix": _Family(
        lambda a: [a["base"]], _power_order(lambda n: n * n), lambda a, base: f"M{a['n']}({base})",
        lambda a, spec, t, base: matrix_ring(int(a["n"]), base, threshold=t, spec=spec)),
    "triangular": _Family(
        lambda a: [a["base"]], _power_order(lambda n: n * (n + 1) // 2),
        lambda a, base: f"T{a['n']}({base})",
        lambda a, spec, t, base: triangular_ring(int(a["n"]), base, threshold=t, spec=spec)),
    "quotient": _Family(
        lambda a: [a["base"]], None, lambda a, base: f"{base}/I",
        lambda a, spec, t, base: quotient_ring(base, a["generators"], spec=spec)),
    "corner": _Family(
        lambda a: [a["base"]], None, lambda a, base: f"corner({base})",
        lambda a, spec, t, base: corner_ring(base, int(a["idempotent"]), spec=spec)),
    "group_ring": _Family(
        lambda a: [a["base"]], lambda a, base: base ** group_from_spec(a["group"]).order,
        lambda a, base: f"{base}[{_group_name(a['group'])}]",
        lambda a, spec, t, base: group_ring(
            base, group_from_spec(a["group"]), threshold=t, spec=spec)),
    "trivial_extension": _Family(
        lambda a: [a], lambda a, base: base * base, lambda a, base: f"TE({base})",
        lambda a, spec, t, base: trivial_extension(base, threshold=t, spec=spec)),
    "ideal_extension": _Family(
        lambda a: [a["base"]], lambda a, base: base * len(a["m"]["add"]),
        lambda a, base: f"IE({base})",
        lambda a, spec, t, base: ideal_extension(
            base, a["m"], a["left_action"], a["right_action"], threshold=t, spec=spec)),
    "formal_triangular": _Family(
        lambda a: [a["a"], a["b"]], lambda a, ra, rb: ra * len(a["m"]["add"]) * rb,
        lambda a, ra, rb: f"FT({ra},{rb})",
        lambda a, spec, t, ra, rb: formal_triangular(
            ra, rb, a["m"], a["left_action"], a["right_action"], threshold=t, spec=spec)),
    "trivial_morita": _Family(
        lambda a: [a["a"], a["b"]],
        lambda a, ra, rb: ra * rb * len(a["m"]["add"]) * len(a["n"]["add"]),
        lambda a, ra, rb: f"MC({ra},{rb})",
        lambda a, spec, t, ra, rb: trivial_morita(
            ra, rb, a["m"], a["m_left"], a["m_right"], a["n"], a["n_left"], a["n_right"],
            threshold=t, spec=spec)),
    "trunc_poly": _Family(
        lambda a: [a["base"]], _power_order(lambda n: n), lambda a, base: f"{base}[x]/x^{a['n']}",
        lambda a, spec, t, base: trunc_poly(base, int(a["n"]), threshold=t, spec=spec)),
    "skew_trunc_poly": _Family(
        lambda a: [a["base"]], _power_order(lambda n: n),
        lambda a, base: f"{base}[x;a]/x^{a['n']}",
        lambda a, spec, t, base: skew_trunc_poly(
            base, a["alpha"], int(a["n"]), threshold=t, spec=spec)),
    "opposite": _Family(
        lambda a: [a], lambda a, base: base, lambda a, base: f"op({base})",
        lambda a, spec, t, base: opposite_ring(base, spec=spec)),
    "table": _Family(
        lambda a: [], lambda a: len(a["add"]), lambda a: "table",
        lambda a, spec, t: table_ring(
            a["add"], a["mul"], a.get("labels"), spec=spec, name=spec_name(spec))),
}


def _family_of(spec) -> tuple[_Family, object]:
    """The table row of a spec node, and the node's arguments."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise SpecError(f"spec node must be a single-key object, got {spec!r}")
    (kind, args), = spec.items()
    if kind not in _FAMILIES:
        raise SpecError(f"unknown construction kind {kind!r}")
    return _FAMILIES[kind], args


def _build(spec: dict, threshold: int) -> FiniteRing:
    family, args = _family_of(spec)
    children = [_build(child, threshold) for child in family.children(args)]
    return family.make(args, spec, threshold, *children)


def _refuse_oversized(spec, threshold: int) -> Optional[int]:
    """The order ``spec`` builds, refused above ``threshold`` before any build.

    Walks the tree in :func:`_build`'s order and calls :func:`check_order`
    at every node whose order follows from its arguments, so the error is
    the one that node's constructor would raise.  Nodes without such an
    order, nodes above them and malformed nodes give None and are left
    to their constructors.
    """
    try:
        family, args = _family_of(spec)
        orders = [_refuse_oversized(child, threshold) for child in family.children(args)]
        order = None if family.order is None or None in orders else family.order(args, *orders)
    except (SpecError, KeyError, TypeError, ValueError):
        return None
    if order is not None:
        check_order(order, threshold)
    return order


def spec_name(spec: Optional[dict]) -> str:
    """Short display name derived from a construction tree; "ring" without one."""
    try:
        family, args = _family_of(spec)
    except SpecError:
        return "ring"
    return family.name(args, *map(spec_name, family.children(args)))
