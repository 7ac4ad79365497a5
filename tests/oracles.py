"""Independent naive reference implementations.

Everything here is written as plain double/triple loops over the ring's
scalar arithmetic, deliberately sharing no code with the vectorized
kernels it cross-checks.  Expected values frozen into tests were
computed with these functions.  ``scalar_ideal_generated`` and
``scalar_idempotents_lift_mod`` are the scalar worklist and double loop
that ``ideal_generated`` and ``idempotents_lift_mod`` replaced, kept as
their reference routes; ``reference_assembly`` is the per-element
assembly that the open digit grid of ``construct._assemble_ring``
replaced, ``reference_quotient`` the row loop that
``construct.quotient_ring``'s gathers replaced, and ``reference_gf``
the per-cell double loop that building GF(p^k) on the digit grid
replaced.  ``full_center`` and
``full_jacobson`` are the whole-table sweeps that the generator center
and the nilpotent-column radical replaced, and ``full_units`` the
``np.nonzero(mul == one)`` sweep that the unit kernel's first-hit pass
replaced; ``naive_regular`` and ``naive_semi_potent`` are the searches
that ``classify`` replaced by theorems (regular iff J = 0; every finite
ring is semi-potent), and ``reference_maximal_one_sided_ideals`` the
M + Ra = R search that reading maximal ideals off the lattice by
inclusion replaced.  ``quotient_fields`` reads the R/J fields of
``classify`` on a built R/J, the route that reading them modulo J
replaced.  ``reference_corner_two_good_witness`` is the search over the
product and sum tables of eRe that reading corner units off U(R)
replaced, ``reference_is_two_sided_ideal`` the ideal test against every
element that the additive-generator test replaced, and
``reference_one_sided_ideals`` the join loop without its skip of cyclic
ideals already inside the current one.  ``reference_trivial_extension``,
``reference_ideal_extension`` and ``reference_trivial_morita`` are the
per-family assemblies that the one R + M assembly of ``construct``
replaced; the last keeps its Python loops over V = M + N and its second
validation of V as one bimodule over A x B, and
``scalar_m_quasi_regular`` is the pair loop behind the ideal
extension's ``m_quasi_regular`` flag.  ``reference_check_isomorphic``
is the backtracking isomorphism search that the closed forms of
``thm3.10`` (eRe = M2(F2)) and ``prop2.2`` (R/J = Z2) replaced; the
construct and classify tests also use it as a tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ringlab import ElementSet
from ringlab.construct import (
    _Assembly,
    _assemble_ring,
    _Axis,
    _axis_of_module,
    _find_irreducible,
    _module_labels,
    _validate_left_action,
    _validate_right_action,
    product_ring,
    spec_name,
)
from ringlab.core import DEFAULT_THRESHOLD, FiniteRing, dtype_for
from ringlab.errors import BimoduleError, SizeOverflowError
from ringlab.elements import Decomposition
from ringlab.invariants import LiftReport, get_cache, one_sided_ideals


def naive_idempotents(ring) -> set[int]:
    return {a for a in ring.elements() if ring.mul(a, a) == a}


def naive_units(ring) -> dict[int, int]:
    """u -> inverse, by exhaustive pairing (both sides)."""
    out = {}
    for a in ring.elements():
        for b in ring.elements():
            if ring.mul(a, b) == ring.one and ring.mul(b, a) == ring.one:
                out.setdefault(a, b)
    return out


def naive_nilpotents(ring) -> set[int]:
    out = set()
    for a in ring.elements():
        seen = set()
        x = a
        while x not in seen:
            if x == ring.zero:
                out.add(a)
                break
            seen.add(x)
            x = ring.mul(x, a)
    return out


def naive_jacobson(ring) -> set[int]:
    """Quasi-regularity from first principles: 1 - r*a always a unit."""
    invertible = set(naive_units(ring))
    out = set()
    for a in ring.elements():
        if all(ring.sub(ring.one, ring.mul(r, a)) in invertible for r in ring.elements()):
            out.add(a)
    return out


def naive_center(ring) -> set[int]:
    return {
        a for a in ring.elements()
        if all(ring.mul(a, r) == ring.mul(r, a) for r in ring.elements())
    }


def full_center(ring) -> np.ndarray:
    """x with x*r = r*x on every column of the multiplication table."""
    mul = ring.mul_table
    return (mul == mul.T).all(axis=1)


def full_jacobson(ring, unit_mask) -> np.ndarray:
    """Quasi-regularity on every column: 1 - r*a a unit for all r."""
    one_minus = ring.add_table[ring.one][ring.neg_table[ring.mul_table]]
    return unit_mask[one_minus].all(axis=0)


def full_units(ring) -> tuple[np.ndarray, np.ndarray]:
    """Unit mask and inverse map (-1 off the units) from every 1 in the table."""
    mul = ring.mul_table
    rows, cols = np.nonzero(mul == ring.one)
    two_sided = mul[cols, rows] == ring.one
    mask = np.zeros(ring.order, dtype=bool)
    inv = np.full(ring.order, -1, dtype=np.int64)
    mask[rows[two_sided]] = True
    inv[rows[two_sided]] = cols[two_sided]
    return mask, inv


def quotient_fields(ring) -> tuple[dict, dict]:
    """is_local, RmodJ_boolean and quasi-duo, with witnesses, from a built R/J."""
    from ringlab import quotient_ring

    quotient = quotient_ring(ring, np.flatnonzero(get_cache(ring).jacobson_mask).tolist())
    fields, witnesses = {}, {}
    q_units, _ = full_units(quotient)
    q_bad = [int(i) for i in np.flatnonzero(~q_units) if i != quotient.zero]
    fields["is_local"] = not q_bad
    if q_bad:
        witnesses["is_local"] = {"quotient_element": quotient.label_of(q_bad[0])}
    q_idx = np.arange(quotient.order)
    squares = quotient.mul_table[q_idx, q_idx]
    fields["RmodJ_boolean"] = bool((squares == q_idx).all())
    if not fields["RmodJ_boolean"]:
        bad = int(np.flatnonzero(squares != q_idx)[0])
        witnesses["RmodJ_boolean"] = {"quotient_element": quotient.label_of(bad)}
    q_center = full_center(quotient)
    fields["is_quasi_duo_left"] = fields["is_quasi_duo_right"] = bool(q_center.all())
    if not q_center.all():
        a = int(np.flatnonzero(~q_center)[0])
        b = int(np.flatnonzero(quotient.mul_table[a] != quotient.mul_table[:, a])[0])
        pair = {"quotient_pair": [quotient.label_of(a), quotient.label_of(b)]}
        witnesses["is_quasi_duo_left"] = witnesses["is_quasi_duo_right"] = pair
    return fields, witnesses


def naive_regular(ring) -> np.ndarray:
    """a with axa = a for some x, one row of the table at a time."""
    mul = ring.mul_table
    out = np.zeros(ring.order, dtype=bool)
    for a in range(ring.order):
        axa = mul[mul[a], a]
        out[a] = bool((axa == a).any())
    return out


def naive_semi_potent(ring, jac_mask, idem_mask) -> tuple[bool, int | None]:
    """Every principal one-sided ideal outside J holds a nonzero idempotent.

    Principal ideals suffice: a one-sided ideal not inside J contains
    some a outside J, and Ra (resp. aR) sits inside it.  On failure,
    also the least a outside J where Ra or aR has none.
    """
    nz_idem = idem_mask.copy()
    nz_idem[ring.zero] = False
    mul = ring.mul_table
    ra_ok = nz_idem[mul].any(axis=0)
    ar_ok = nz_idem[mul].any(axis=1)
    ok = jac_mask | (ra_ok & ar_ok)
    if ok.all():
        return True, None
    return False, int(np.flatnonzero(~ok)[0])


def naive_two_good(ring) -> set[int]:
    inv = set(naive_units(ring))
    return {ring.add(u, v) for u in inv for v in inv}


def naive_decompositions(ring, a) -> list[tuple[int, int, bool]]:
    """The Id x U double loop: all (e, u, commuting) with e + u = a."""
    inv = sorted(naive_units(ring))
    out = []
    for e in sorted(naive_idempotents(ring)):
        for u in inv:
            if ring.add(e, u) == a:
                out.append((e, u, ring.mul(e, u) == ring.mul(u, e)))
    return out


def reference_clean_decompositions(ring, a) -> list[Decomposition]:
    """All pairs (e, u) with e idempotent and u = a - e a unit, by idempotent id.

    One scalar ``ring.add`` per idempotent, then ``ring.mul`` both ways
    on the hits.
    """
    cache = get_cache(ring)
    out = []
    for e in np.flatnonzero(cache.idempotent_mask):
        e = int(e)
        u = ring.add(a, int(ring.neg_table[e]))
        if cache.unit_mask[u]:
            out.append(Decomposition(e, u, ring.mul(e, u) == ring.mul(u, e)))
    return out


def naive_ucn0(ring) -> set[int]:
    zc = naive_center(ring)
    jac = naive_jacobson(ring)
    return {
        ring.add(e, j)
        for e in naive_idempotents(ring)
        if e in zc
        for j in jac
    }


def naive_axioms(ring) -> bool:
    """Every ring law on every pair and triple, by plain loops.

    The tables are read once through ``ring.add``/``ring.mul`` into
    nested lists; the laws are then checked triple by triple against
    ``ring.zero`` and ``ring.one``.
    """
    n = ring.order
    els = list(ring.elements())
    add = [[ring.add(a, b) for b in els] for a in els]
    mul = [[ring.mul(a, b) for b in els] for a in els]
    if any(not 0 <= v < n for row in add + mul for v in row):
        return False
    zero, one = ring.zero, ring.one
    for a in els:
        if add[zero][a] != a or mul[one][a] != a or mul[a][one] != a:
            return False
        if zero not in add[a]:
            return False
        for b in els:
            if add[a][b] != add[b][a]:
                return False
            s, p = add[a][b], mul[a][b]
            for c in els:
                if add[s][c] != add[a][add[b][c]]:
                    return False
                if mul[p][c] != mul[a][mul[b][c]]:
                    return False
                if mul[a][add[b][c]] != add[p][mul[a][c]]:
                    return False
                if mul[s][c] != add[mul[a][c]][mul[b][c]]:
                    return False
    return True


def scalar_ideal_generated(ring, generators) -> ElementSet:
    """The worklist closure: least two-sided ideal containing ``generators``."""
    n = ring.order
    mask = np.zeros(n, dtype=bool)
    mask[ring.zero] = True
    members: list[int] = [ring.zero]
    queue = sorted({int(g) for g in generators} - {ring.zero})
    while queue:
        x = queue.pop()
        if mask[x]:
            continue
        mask[x] = True
        candidates = set()
        candidates.add(ring.neg(x))
        for r in ring.elements():
            candidates.add(ring.mul(x, r))
            candidates.add(ring.mul(r, x))
        candidates.update(ring.add(x, m) for m in members)
        members.append(x)
        for c in candidates:
            if not mask[c]:
                queue.append(c)
    return ElementSet.from_mask(ring, mask)


def scalar_idempotents_lift_mod(ring, ideal) -> LiftReport:
    """The double loop: each x with x^2 - x in I against each idempotent.

    ``ideal`` must already be a two-sided ideal; nothing checks it here.
    """
    imask = np.zeros(ring.order, dtype=bool)
    imask[sorted(ideal)] = True
    idem = sorted(naive_idempotents(ring))
    witnesses: dict[int, int] = {}
    for x in ring.elements():
        defect = ring.add(ring.mul(x, x), ring.neg(x))
        if not imask[defect]:
            continue
        lifted = None
        negx = ring.neg(x)
        for e in idem:
            if imask[ring.add(e, negx)]:
                lifted = e
                break
        if lifted is None:
            return LiftReport(False, witnesses, failure=x)
        witnesses[x] = lifted
    return LiftReport(True, witnesses)


def is_left_ideal(ring, subset: set[int]) -> bool:
    if ring.zero not in subset:
        return False
    for x in subset:
        if ring.neg(x) not in subset:
            return False
        for y in subset:
            if ring.add(x, y) not in subset:
                return False
        for r in ring.elements():
            if ring.mul(r, x) not in subset:
                return False
    return True


def reference_is_two_sided_ideal(ring, subset) -> bool:
    """Closure under +, negation and multiplication by every element."""
    ids = np.asarray(sorted(set(subset)), dtype=np.int64)
    if ids.size == 0 or ring.zero not in ids:
        return False
    mask = np.zeros(ring.order, dtype=bool)
    mask[ids] = True
    add, mul = ring.add_table, ring.mul_table
    return bool(
        mask[add[np.ix_(ids, ids)]].all()
        and mask[ring.neg_table[ids]].all()
        and mask[mul[:, ids]].all()
        and mask[mul[ids, :]].all()
    )


def reference_one_sided_ideals(ring, side="left") -> list[frozenset[int]]:
    """Every left (or right) ideal: joins of each member with every cyclic ideal."""
    add = ring.add_table
    mul = ring.mul_table.T if side == "left" else ring.mul_table
    cyclic = {frozenset(np.unique(mul[a]).tolist()) for a in range(ring.order)}
    known = set(cyclic)
    queue = list(cyclic)
    while queue:
        cur_ids = sorted(queue.pop())
        for gen in cyclic:
            joined = frozenset(np.unique(add[np.ix_(cur_ids, sorted(gen))]).tolist())
            if joined not in known:
                known.add(joined)
                queue.append(joined)
    return sorted(known, key=lambda s: (len(s), sorted(s)))


def reference_corner_two_good_witness(ring, e):
    """The first (u, v) in row-major order with u, v units of eRe and u + v = e.

    Units of eRe are read from its product table (a left and a right
    inverse inside eRe), pairs from its sum table.
    """
    k = np.unique(ring.mul_table[ring.mul_table[e], e])
    sub = ring.mul_table[np.ix_(k, k)]
    units = k[(sub == e).any(axis=1) & (sub == e).any(axis=0)]
    hits = np.argwhere(ring.add_table[np.ix_(units, units)] == e)
    if hits.size:
        i, j = hits[0]
        return int(units[i]), int(units[j])
    return None


def reference_maximal_one_sided_ideals(ring, side="left") -> list[frozenset[int]]:
    """Proper one-sided ideals M with M + Ra = R (or M + aR = R) for every a outside M."""
    add, mul = ring.add_table, ring.mul_table
    out = []
    for m in one_sided_ideals(ring, side):
        if len(m) == ring.order:
            continue
        m_ids = sorted(m)
        maximal = True
        for a in range(ring.order):
            if a in m:
                continue
            cyclic = np.unique(mul[:, a] if side == "left" else mul[a, :])
            if len(np.unique(add[np.ix_(m_ids, cyclic)])) != ring.order:
                maximal = False
                break
        if maximal:
            out.append(m)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def diagram_implications(c) -> list[tuple[str, bool]]:
    """The uniqueness-implication diagram, as (name, holds) pairs."""
    implies = lambda p, q: (not p) or q
    return [
        ("UC=>USC", implies(c.is_UC, c.is_USC)),
        ("UC=>CUC", implies(c.is_UC, c.is_CUC)),
        ("USC=>CUSC", implies(c.is_USC, c.is_CUSC)),
        ("CUC=>CUSC", implies(c.is_CUC, c.is_CUSC)),
        ("CUC=>UUC", implies(c.is_CUC, c.is_UUC)),
        ("UUC=>UUSC", implies(c.is_UUC, c.is_UUSC)),
        ("CUSC=>UUSC", implies(c.is_CUSC, c.is_UUSC)),
        ("USC=>strongly_clean", implies(c.is_USC, c.is_strongly_clean)),
        ("strongly_clean=>clean", implies(c.is_strongly_clean, c.is_clean)),
        ("boolean=>UC", implies(c.is_boolean, c.is_UC)),
    ]


def reference_assembly(assembly, mul_digits, one_digits, label_fn):
    """The per-element route for ``construct._assemble_ring``'s arguments.

    Every element's digits are decoded into full-length vectors X;
    tables are evaluated on (n, 1) x (1, n) grids of them, labels read
    back through numpy scalars, and neg derived from the add table.
    The ring is returned unvalidated, with ``meta['axis_sizes']``.
    """
    n = assembly.order
    dt = dtype_for(n)
    axes, sizes, weights = assembly.axes, assembly.sizes, assembly.weights

    def encode(digits):
        shape = np.broadcast(*digits).shape if len(digits) > 1 else np.shape(digits[0])
        acc = np.zeros(shape, dtype=dt)
        for w, d in zip(weights, digits):
            acc += np.asarray(d, dtype=dt) * dt.type(w)
        return acc

    zero = sum(w * int(ax.zero) for w, ax in zip(weights, axes))
    one = sum(w * int(d) for w, d in zip(weights, one_digits))
    all_ids = np.arange(n)
    X = [np.asarray((all_ids // w) % s) for w, s in zip(weights, sizes)]

    def labels_for(i):
        return label_fn([int(x[i]) for x in X])

    da = [x[:, None] for x in X]
    db = [x[None, :] for x in X]
    add_tab = encode([ax.add[d1, d2] for ax, d1, d2 in zip(axes, da, db)])
    mul_tab = encode(mul_digits(da, db))
    ring = FiniteRing(add_tab, mul_tab, zero, one, labels=[labels_for(i) for i in range(n)])
    ring.meta["axis_sizes"] = tuple(sizes)
    return ring


def reference_quotient(base, generators):
    """R/I by a loop over coset representatives, one row at a time.

    Cosets of the ideal I generated by ``generators`` are named by their
    least element; returns the quotient's add and mul tables and the
    projection from base ids, all as int64 arrays.
    """
    ideal_ids = np.asarray(scalar_ideal_generated(base, generators).sorted_ids())
    reps = np.array([int(base.add_table[x, ideal_ids].min()) for x in range(base.order)])
    rep_ids = np.unique(reps)
    lookup = np.full(base.order, -1, dtype=np.int64)
    lookup[rep_ids] = np.arange(len(rep_ids))
    proj = lookup[reps]
    m = len(rep_ids)
    q_add = np.zeros((m, m), dtype=np.int64)
    q_mul = np.zeros((m, m), dtype=np.int64)
    for qi, r in enumerate(rep_ids):
        q_add[qi] = proj[base.add_table[int(r), rep_ids]]
        q_mul[qi] = proj[base.mul_table[int(r), rep_ids]]
    return q_add, q_mul, proj


def reference_gf(p, k):
    """GF(p^k), k >= 2, by a double loop over polynomial pairs.

    Element i is the polynomial with coefficients (i // p^j) % p at
    w^j, reduced by the same monic modulus as :func:`ringlab.gf`.
    """
    modulus = _find_irreducible(p, k)
    order = p ** k
    polys = [[(i // p ** j) % p for j in range(k)] for i in range(order)]

    def encode(coeffs):
        return sum(c * p ** j for j, c in enumerate(coeffs))

    def reduce_poly(coeffs):
        for deg in range(len(coeffs) - 1, k - 1, -1):
            lead = coeffs[deg]
            if lead:
                for i in range(k + 1):
                    coeffs[deg - k + i] = (coeffs[deg - k + i] - lead * modulus[i]) % p
        return coeffs[:k]

    def label(coeffs):
        terms = []
        for deg, c in enumerate(coeffs):
            if c:
                power = "" if deg == 0 else ("w" if deg == 1 else f"w^{deg}")
                terms.append(str(c) if deg == 0 else power if c == 1 else f"{c}*{power}")
        return "+".join(terms) if terms else "0"

    add = np.zeros((order, order), dtype=np.int64)
    mul = np.zeros((order, order), dtype=np.int64)
    for i, a in enumerate(polys):
        for j, b in enumerate(polys):
            add[i, j] = encode([(x + y) % p for x, y in zip(a, b)])
            prod = [0] * (2 * k - 1)
            for da, ca in enumerate(a):
                if ca:
                    for db, cb in enumerate(b):
                        prod[da + db] = (prod[da + db] + ca * cb) % p
            mul[i, j] = encode(reduce_poly(prod))
    spec = {"gf": {"p": p, "k": k}}
    return FiniteRing(add, mul, 0, 1, labels=[label(c) for c in polys], spec=spec,
                      name=spec_name(spec))


def reference_trivial_extension(base):
    """TE(base) through its own (ab, ay + xb) formula, the route before the shared assembly."""
    spec = {"trivial_extension": base.spec}
    assembly = _Assembly([_Axis.of_ring(base), _Axis.of_ring(base)])
    amul, aadd = base.mul_table, base.add_table

    def mul_digits(da, db):
        return [amul[da[0], db[0]], aadd[amul[da[0], db[1]], amul[da[1], db[0]]]]

    labels = base.labels
    return _assemble_ring(assembly, mul_digits, [base.one, base.zero],
                          lambda d: f"({labels[d[0]]},{labels[d[1]]})",
                          spec, spec_name(spec), DEFAULT_THRESHOLD)


def _reference_bimodule_compat(lam, rho, nr, nm):
    """(rm)s = r(ms) on one ring, raising ``bimodule-compat`` at the first (r, m, s)."""
    r, m = np.arange(nr), np.arange(nm)
    bad = (rho[lam[r[:, None, None], m[None, :, None]], r[None, None, :]]
           != lam[r[:, None, None], rho[m[None, :, None], r[None, None, :]]])
    if bad.any():
        raise BimoduleError("bimodule-compat", tuple(int(x) for x in np.argwhere(bad)[0]))


def reference_trivial_morita(a, b, m, m_left, m_right, n, n_left, n_right):
    """MC(A, B) as T(A x B, M + N) with V built by loops and validated again as a whole.

    Each action is validated, then V = M + N over A x B: its additive
    group, its two actions and their compat law, as before each
    bimodule was validated once on its own.
    """
    m_axis, _ = _axis_of_module(np.asarray(m["add"], dtype=np.int64))
    n_axis, _ = _axis_of_module(np.asarray(n["add"], dtype=np.int64))
    lam_m, rho_m, lam_n, rho_n = (np.asarray(t, dtype=np.int64)
                                  for t in (m_left, m_right, n_left, n_right))
    _validate_left_action(a, m_axis, lam_m, "m-left")
    _validate_right_action(b, m_axis, rho_m, "m-right")
    _validate_left_action(b, n_axis, lam_n, "n-left")
    _validate_right_action(a, n_axis, rho_n, "n-right")
    p = product_ring([a, b])
    nm, nn = m_axis.size, n_axis.size
    v_order = nm * nn
    v_add = np.zeros((v_order, v_order), dtype=np.int64)
    for i in range(v_order):
        for j in range(v_order):
            v_add[i, j] = m_axis.add[i // nn, j // nn] * nn + n_axis.add[i % nn, j % nn]
    v_axis, _ = _axis_of_module(v_add)
    lam = np.zeros((p.order, v_order), dtype=np.int64)
    rho = np.zeros((v_order, p.order), dtype=np.int64)
    for pid in range(p.order):
        ai, bi = divmod(pid, b.order)
        for v in range(v_order):
            mv, nv = divmod(v, nn)
            lam[pid, v] = lam_m[ai, mv] * nn + lam_n[bi, nv]
            rho[v, pid] = rho_m[mv, bi] * nn + rho_n[nv, ai]
    _validate_left_action(p, v_axis, lam, "left")
    _validate_right_action(p, v_axis, rho, "right")
    _reference_bimodule_compat(lam, rho, p.order, v_order)
    m_labels, n_labels = _module_labels(m, nm), _module_labels(n, nn, "N")
    v_labels = [f"({m_labels[v // nn]},{n_labels[v % nn]})" for v in range(v_order)]
    spec = {"trivial_morita": {
        "a": a.spec, "b": b.spec,
        "m": {"add": np.asarray(m["add"]).tolist(), "labels": m_labels},
        "m_left": lam_m.tolist(), "m_right": rho_m.tolist(),
        "n": {"add": np.asarray(n["add"]).tolist(), "labels": n_labels},
        "n_left": lam_n.tolist(), "n_right": rho_n.tolist(),
    }}
    assembly = _Assembly([_Axis.of_ring(p), v_axis])
    amul, vadd = p.mul_table, v_axis.add

    def mul_digits(da, db):
        return [amul[da[0], db[0]], vadd[lam[da[0], db[1]], rho[da[1], db[0]]]]

    p_labels = p.labels
    ring = _assemble_ring(assembly, mul_digits, [p.one, v_axis.zero],
                          lambda d: f"({p_labels[d[0]]},{v_labels[d[1]]})",
                          spec, spec_name(spec), DEFAULT_THRESHOLD)
    ring.meta["factors"] = (a, b)
    return ring


def scalar_m_quasi_regular(m_add, m_mul, m_zero) -> bool:
    """Whether every m has an n with m + n + mn = 0, one pair at a time."""
    nm = len(m_add)
    return all(
        any(m_add[m_add[m, n], m_mul[m, n]] == m_zero for n in range(nm)) for m in range(nm)
    )


def reference_ideal_extension(base, m_tables, left_action, right_action):
    """IE(base, M) through its own assembly and scalar hypothesis loops, unvalidated.

    The route before the shared assembly: (r,m)(s,n) = (rs, (rn + ms) + mn)
    with ``meta['hypotheses']`` from a double loop each.
    """
    m_add = np.asarray(m_tables["add"], dtype=np.int64)
    axis, m_zero = _axis_of_module(m_add)
    nm = axis.size
    m_mul = m_tables.get("mul")
    m_mul = np.asarray(np.full((nm, nm), m_zero) if m_mul is None else m_mul, dtype=np.int64)
    lam = np.asarray(left_action, dtype=np.int64)
    rho = np.asarray(right_action, dtype=np.int64)
    m_labels = _module_labels(m_tables, nm)
    spec = {"ideal_extension": {
        "base": base.spec,
        "m": {"add": m_add.tolist(), "mul": m_mul.tolist(), "labels": m_labels},
        "left_action": lam.tolist(), "right_action": rho.tolist(),
    }}
    assembly = _Assembly([_Axis.of_ring(base), axis])
    amul = base.mul_table

    def mul_digits(da, db):
        second = m_add[m_add[lam[da[0], db[1]], rho[da[1], db[0]]], m_mul[da[1], db[1]]]
        return [amul[da[0], db[0]], second]

    b_labels = base.labels
    ring = _assemble_ring(assembly, mul_digits, [base.one, m_zero],
                          lambda d: f"({b_labels[d[0]]},{m_labels[d[1]]})",
                          spec, spec_name(spec), DEFAULT_THRESHOLD)
    idem = [e for e in range(base.order) if base.mul(e, e) == e]
    central = all(lam[e, m] == rho[m, e] for e in idem for m in range(nm))
    ring.meta["hypotheses"] = {
        "idempotents_central_on_m": central,
        "m_quasi_regular": scalar_m_quasi_regular(m_add, m_mul, m_zero),
    }
    ring.meta["base_ring"] = base
    return ring


@dataclass(frozen=True)
class IsoResult:
    found: bool
    mapping: Optional[tuple[int, ...]]
    reason: str = ""

    def __bool__(self):
        return self.found


def _additive_orders(ring: FiniteRing) -> np.ndarray:
    n = ring.order
    orders = np.zeros(n, dtype=np.int64)
    v = np.arange(n)
    idx = np.arange(n)
    remaining = n
    for k in range(1, n + 1):
        hit = (orders == 0) & (v == ring.zero)
        orders[hit] = k
        remaining -= int(hit.sum())
        if remaining == 0:
            break
        v = ring.add_table[v, idx]
    return orders


def _fingerprints(ring: FiniteRing) -> list[tuple]:
    cache = get_cache(ring)
    orders = _additive_orders(ring)
    mul = ring.mul_table
    left_ann = (mul == ring.zero).sum(axis=0)
    right_ann = (mul == ring.zero).sum(axis=1)
    out = []
    for a in range(ring.order):
        out.append((
            int(orders[a]),
            bool(cache.unit_mask[a]),
            bool(cache.idempotent_mask[a]),
            bool(cache.nilpotent_mask[a]),
            bool(cache.center_mask[a]),
            int(left_ann[a]),
            int(right_ann[a]),
        ))
    return out


def reference_check_isomorphic(
    ring1: FiniteRing,
    ring2: FiniteRing,
    *,
    order_limit: int = 256,
) -> IsoResult:
    """Search for a ring isomorphism, guided by invariant fingerprints.

    The backtracking search the suite's ``thm3.10`` and ``prop2.2`` ran
    before they answered their isomorphism questions by closed forms.

    Returns a witness bijection (as a tuple ``phi`` with
    ``phi[a1] = a2``) or a negative verdict with the discriminating
    invariant.  Bounded by ``order_limit``.
    """
    if ring1.order != ring2.order:
        return IsoResult(False, None, "orders differ")
    n = ring1.order
    if n > order_limit:
        raise SizeOverflowError(n, order_limit)
    fp1 = _fingerprints(ring1)
    fp2 = _fingerprints(ring2)
    if sorted(fp1) != sorted(fp2):
        return IsoResult(False, None, "element fingerprint multisets differ")

    candidates_by_fp: dict[tuple, list[int]] = {}
    for a, f in enumerate(fp2):
        candidates_by_fp.setdefault(f, []).append(a)

    add1, add2 = ring1.add_table, ring2.add_table
    mul1, mul2 = ring1.mul_table, ring2.mul_table

    phi = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    phi[ring1.zero] = ring2.zero
    used[ring2.zero] = True
    span = [ring1.zero]
    span_mask = np.zeros(n, dtype=bool)
    span_mask[ring1.zero] = True

    def pick_generator():
        best, best_count = None, None
        for a in range(n):
            if span_mask[a]:
                continue
            count = sum(
                1 for c in candidates_by_fp.get(fp1[a], []) if not used[c]
            )
            if best_count is None or count < best_count:
                best, best_count = a, count
        return best

    def retract(new_elems):
        for ns in new_elems:
            used[phi[ns]] = False
            phi[ns] = -1
            span_mask[ns] = False
        if new_elems:
            del span[-len(new_elems):]

    def extend(g, h):
        """Try phi[g] = h; extend phi over the enlarged additive span.

        With k minimal such that k*g lies in the span, the cosets
        span + t*g (t < k) partition the new span, so the additive
        extension phi(s + t*g) = phi(s) + t*h is well-defined once
        phi(k*g) = k*h holds.  Returns the added elements, or None.
        """
        k, x = 1, g
        while not span_mask[x]:
            x = int(add1[x, g])
            k += 1
        y = h
        for _ in range(k - 1):
            y = int(add2[y, h])
        if phi[x] != y:
            return None
        new_elems = []
        cur_g, cur_h = g, h
        for _ in range(1, k):
            for s in list(span):
                ns = int(add1[s, cur_g])
                nh = int(add2[phi[s], cur_h])
                if used[nh] or span_mask[ns]:
                    span.extend(new_elems)
                    retract(new_elems)
                    return None
                phi[ns] = nh
                used[nh] = True
                span_mask[ns] = True
                new_elems.append(ns)
            cur_g = int(add1[cur_g, g])
            cur_h = int(add2[cur_h, h])
        span.extend(new_elems)
        return new_elems

    def dfs():
        if len(span) == n:
            if phi[ring1.one] != ring2.one:
                return False
            p = phi
            if not (p[mul1] == mul2[p[:, None], p[None, :]]).all():
                return False
            if not (p[add1] == add2[p[:, None], p[None, :]]).all():
                return False
            return True
        g = pick_generator()
        for h in candidates_by_fp.get(fp1[g], []):
            if used[h]:
                continue
            added = extend(g, h)
            if added is None:
                continue
            if dfs():
                return True
            retract(added)
        return False

    if dfs():
        return IsoResult(True, tuple(int(x) for x in phi))
    return IsoResult(False, None, "no isomorphism found by exhaustive search")
