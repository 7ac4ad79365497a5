import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringlab import (
    FiniteRing,
    IdealError,
    LatticeLimitError,
    SizeOverflowError,
    build,
    center,
    cyclic,
    gf,
    group_ring,
    ideal_generated,
    idempotents,
    idempotents_lift_mod,
    jacobson_radical,
    matrix_ring,
    nilpotents,
    triangular_ring,
    ucn0,
    units,
    zn,
)
from ringlab import invariants
from ringlab.elements import _two_good_pair
from ringlab.invariants import (
    get_cache,
    is_two_sided_ideal,
    maximal_members,
    one_sided_ideals,
)
from oracles import (
    full_center,
    full_jacobson,
    full_units,
    is_left_ideal,
    naive_center,
    naive_idempotents,
    naive_jacobson,
    naive_nilpotents,
    naive_two_good,
    naive_ucn0,
    naive_units,
    reference_is_two_sided_ideal,
    reference_lift_mod_mask,
    reference_maximal_one_sided_ideals,
    reference_one_sided_ideals,
    scalar_ideal_generated,
    scalar_idempotents_lift_mod,
)


def test_idempotent_examples(z6, f4):
    assert idempotents(zn(2)).tolist() == [0, 1]
    assert idempotents(z6).tolist() == [0, 1, 3, 4]
    assert idempotents(f4).tolist() == [0, 1]


def test_unit_examples(z4, f4, t2z2):
    assert units(z4).tolist() == [1, 3]
    assert [f4.label_of(u) for u in units(f4)] == ["1", "w", "1+w"]
    inverses = {u: v for u in units(z4) for v in z4.elements() if z4.mul(u, v) == z4.one}
    assert inverses == {1: 1, 3: 3}
    # Exhaustive pairing gives exactly the two unipotent matrices.
    assert {t2z2.label_of(u) for u in units(t2z2)} == {"(1 0;0 1)", "(1 1;0 1)"}
    assert units(t2z2).tolist() == sorted(naive_units(t2z2))


def test_unit_guard_rejects_a_one_sided_inverse(z4):
    # Finite rings have two-sided inverses only; a table with 2*3 = 1
    # but 3*2 = 2 is no ring, and the unit kernel must say so.
    mul = np.array(z4.mul_table)
    mul[2, 3] = 1
    broken = FiniteRing(z4.add_table, mul, 0, 1)
    with pytest.raises(AssertionError, match=r"2\*3=1 but 3\*2!=1"):
        get_cache(broken).unit_mask


def test_unit_guard_rejects_a_one_sided_hit_after_a_two_sided_one():
    # In Z5, 2*3 = 3*2 = 1; a later 2*4 = 1 with 4*2 = 3 is one-sided,
    # and the first hit of row 2 must not hide it.
    z5 = zn(5)
    mul = np.array(z5.mul_table)
    mul[2, 4] = 1
    broken = FiniteRing(z5.add_table, mul, 0, 1)
    with pytest.raises(AssertionError, match=r"2\*4=1 but 4\*2!=1"):
        get_cache(broken).unit_mask


def test_unit_guard_rejects_two_two_sided_inverses():
    # Only a non-associative table lets 2 have both 3 and 4 as inverses.
    z5 = zn(5)
    mul = np.array(z5.mul_table)
    mul[2, 4] = mul[4, 2] = 1
    broken = FiniteRing(z5.add_table, mul, 0, 1)
    with pytest.raises(AssertionError, match="two inverses of 2"):
        get_cache(broken).unit_mask


def test_nilpotent_examples(z4, z6, m2z2):
    assert nilpotents(z4).tolist() == [0, 2]
    assert nilpotents(z6).tolist() == [0]
    assert m2z2.id_of("(0 1;0 0)") in set(nilpotents(m2z2).tolist())


def test_jacobson_examples(z4, m2z2, t2z2):
    assert jacobson_radical(z4).tolist() == [0, 2]
    assert jacobson_radical(m2z2).tolist() == [0]
    assert {t2z2.label_of(a) for a in jacobson_radical(t2z2)} == {"(0 0;0 0)", "(0 1;0 0)"}


def test_center_examples(z6, t2z2, m2z2):
    assert center(z6).tolist() == list(range(6))
    assert {t2z2.label_of(a) for a in center(t2z2)} == {"(0 0;0 0)", "(1 0;0 1)"}
    assert {m2z2.label_of(a) for a in center(m2z2)} == {"(0 0;0 0)", "(1 0;0 1)"}


def _two_good(ring) -> set[int]:
    unit_mask = get_cache(ring).unit_mask
    return {x for x in range(ring.order) if _two_good_pair(ring, unit_mask, x) is not None}


def test_two_good_examples(z3, m2z2):
    assert 1 in _two_good(z3)
    assert 1 not in _two_good(zn(2))
    assert m2z2.one in _two_good(m2z2)


def test_ucn0_examples(z4, t2z2):
    assert ucn0(z4).tolist() == [0, 1, 2, 3]
    bad = t2z2.id_of("(1 1;0 0)")
    assert bad not in set(ucn0(t2z2).tolist())
    boolean = build({"product": [{"zn": 2}, {"zn": 2}]})
    assert len(ucn0(boolean)) == boolean.order


def test_ideal_generated(z2):
    whole = ideal_generated(zn(4), [1])
    assert len(whole) == 4
    assert ideal_generated(zn(4), []).tolist() == [0]
    rg = group_ring(z2, cyclic(3))
    one = rg.one
    g = rg.id_of("g")
    delta = ideal_generated(rg, [rg.sub(one, g)])
    eps = rg.meta["augmentation"]
    assert np.array_equal(delta, np.flatnonzero(eps == 0))


def _broken_t3z4() -> tuple[FiniteRing, np.ndarray]:
    """T3(Z4) and a writable copy of its multiplication table."""
    ring = build(ORDER_4096_SPECS["T3(Z4)"])
    # The rows edited below, from 257 on, lie past the unit scan's first block.
    assert invariants._SCAN_CELLS // ring.order < 257
    return ring, np.array(ring.mul_table)


def test_unit_guard_rejects_a_one_sided_inverse_past_the_first_block():
    ring, mul = _broken_t3z4()
    unit_mask = get_cache(ring).unit_mask
    a = int(np.flatnonzero(~unit_mask[257:])[0]) + 257
    b = int(np.flatnonzero(mul[:, a] != ring.one)[0])
    mul[a, b] = ring.one
    broken = FiniteRing(ring.add_table, mul, ring.zero, ring.one, neg=ring.neg_table)
    with pytest.raises(AssertionError, match=rf"one-sided inverse in ring4096: {a}\*{b}=1 but"):
        get_cache(broken).unit_mask


def test_unit_guard_rejects_two_inverses_past_the_first_block():
    ring, mul = _broken_t3z4()
    unit_mask = get_cache(ring).unit_mask
    a = int(np.flatnonzero(unit_mask[257:])[0]) + 257
    b = int(np.flatnonzero(~unit_mask[a + 1:])[0]) + a + 1
    mul[a, b] = mul[b, a] = ring.one
    broken = FiniteRing(ring.add_table, mul, ring.zero, ring.one, neg=ring.neg_table)
    with pytest.raises(AssertionError, match=f"two inverses of {a} in ring4096"):
        get_cache(broken).unit_mask


def test_lifting(z4):
    report = idempotents_lift_mod(z4, [0, 2])
    assert report.lifts
    assert report.witnesses[3] == 1  # 3^2 - 3 = 2 in J, lifts to 1
    assert idempotents_lift_mod(z4, [0]).lifts
    with pytest.raises(IdealError):
        idempotents_lift_mod(z4, [0, 1])  # not an ideal (absorbs to everything)


def _principal_ideals(ring) -> list[list[int]]:
    """Every ideal generated by one element, each once, checked on the way."""
    out = {}
    for x in ring.elements():
        ideal = ideal_generated(ring, [x])
        assert np.array_equal(ideal, scalar_ideal_generated(ring, [x])), (ring.name, x)
        out.setdefault(frozenset(ideal.tolist()), ideal.tolist())
    return list(out.values())


def _assert_kernels_match_scalar_routes(ring):
    ideals = [jacobson_radical(ring).tolist()] + _principal_ideals(ring)
    for ideal in ideals:
        report = idempotents_lift_mod(ring, ideal)
        assert report == scalar_idempotents_lift_mod(ring, ideal), (ring.name, ideal)
        assert report == reference_lift_mod_mask(ring, _mask(ring, ideal)), (ring.name, ideal)
        assert report.lifts  # finite rings are exchange rings


def _mask(ring, ids) -> np.ndarray:
    mask = np.zeros(ring.order, dtype=bool)
    mask[ids] = True
    return mask


def test_ideal_and_lifting_kernels_match_scalar_routes(small_catalog):
    for entry in small_catalog:
        _assert_kernels_match_scalar_routes(entry.ring)


def test_lifting_failure_branch(monkeypatch):
    # No ideal of a finite ring blocks lifting, so hide the idempotent 3
    # of Z6 from the kernel: x = 3 (3^2 - 3 = 0) then has no lift.
    from ringlab.invariants import InvariantCache, LiftReport

    ring = zn(6)
    hidden = np.array([True, True, False, False, True, False])
    monkeypatch.setattr(InvariantCache, "idempotent_mask", property(lambda self: hidden))
    report = idempotents_lift_mod(ring, [0])
    assert report == LiftReport(False, {0: 0, 1: 1}, failure=3)
    assert report == reference_lift_mod_mask(ring, _mask(ring, [0]))


def _maximal(ring, side="left") -> list[frozenset[int]]:
    return maximal_members(one_sided_ideals(ring, side), ring.order)


def test_left_ideal_examples(z4, f4, t2z2):
    lattice = one_sided_ideals(z4, "left")
    assert sorted(sorted(i) for i in lattice) == [[0], [0, 1, 2, 3], [0, 2]]
    assert [sorted(m) for m in _maximal(z4)] == [[0, 2]]
    assert [sorted(m) for m in _maximal(f4)] == [[0]]
    jac = set(jacobson_radical(t2z2).tolist())
    for m in _maximal(t2z2):
        assert jac <= m
        assert is_left_ideal(t2z2, set(m))


def _rings_up_to_256(suite_ctx):
    rings = [e.ring for e in suite_ctx.entries if e.ring.order <= 256]
    return rings + [build(spec) for spec in _SMALL_SPEC_LIST]


def test_maximal_ideals_by_inclusion_match_the_search(suite_ctx):
    for ring in _rings_up_to_256(suite_ctx):
        for side in ("left", "right"):
            assert (_maximal(ring, side)
                    == reference_maximal_one_sided_ideals(ring, side)), (ring.name, side)


def _additive_subgroup(ring, ids):
    mask = np.zeros(ring.order, dtype=bool)
    mask[ring.zero] = True
    mask[ids] = True
    size = 0
    while np.count_nonzero(mask) != size:
        size = np.count_nonzero(mask)
        members = np.flatnonzero(mask)
        mask[ring.add_table[np.ix_(members, members)]] = True
    return np.flatnonzero(mask).tolist()


def test_ideal_kernels_match_full_table_routes(suite_ctx):
    rng = np.random.default_rng(20240131)
    answers = []
    for ring in _rings_up_to_256(suite_ctx):
        n = ring.order
        principal = {}
        for x in ring.elements():
            principal.setdefault(frozenset(ideal_generated(ring, [x]).tolist()), x)
        # Every x below order 64 is compared in the scalar-route tests.
        for members, x in principal.items():
            assert members == set(scalar_ideal_generated(ring, [x]).tolist()), (ring.name, x)
        candidates = [jacobson_radical(ring).tolist()] + [sorted(m) for m in principal]
        for side in ("left", "right"):
            candidates += [sorted(m) for m in one_sided_ideals(ring, side)]
        for _ in range(8):
            candidates.append(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
            candidates.append(_additive_subgroup(ring, rng.choice(n, 2).tolist()))
        for subset in candidates:
            got = is_two_sided_ideal(ring, subset)
            assert got == reference_is_two_sided_ideal(ring, subset), (ring.name, subset)
            if sorted(set(subset)) == _additive_subgroup(ring, subset):
                answers.append(got)
    # Left-only lattice members and random subgroups pass additive
    # closure and reach the False branch through the generator products.
    assert True in answers and False in answers


def test_lattice_matches_the_unpruned_join_loop(suite_ctx):
    for ring in _rings_up_to_256(suite_ctx):
        for side in ("left", "right"):
            assert (one_sided_ideals(ring, side)
                    == reference_one_sided_ideals(ring, side)), (ring.name, side)


def test_left_ideal_bounds(monkeypatch):
    with pytest.raises(SizeOverflowError):
        one_sided_ideals(triangular_ring(3, zn(4)), "left")
    monkeypatch.setattr(invariants, "DEFAULT_IDEAL_COUNT_LIMIT", 5)
    with pytest.raises(LatticeLimitError, match="ideal lattice exceeds 5 members"):
        one_sided_ideals(build({"product": [{"zn": 2}] * 4}), "left")


def test_right_ideals_of_triangular_differ_from_left(t2z2):
    lefts = set(one_sided_ideals(t2z2, "left"))
    rights = set(_maximal(t2z2, "right"))
    assert rights  # sanity: the mirror enumeration runs
    assert any(r not in lefts for r in rights) or lefts != rights


@pytest.mark.parametrize("ring_builder", [
    lambda: zn(2), lambda: zn(3), lambda: zn(4), lambda: zn(6), lambda: zn(8),
    lambda: gf(2, 2), lambda: gf(2, 3),
    lambda: triangular_ring(2, zn(2)), lambda: matrix_ring(2, zn(2)),
    lambda: group_ring(zn(2), cyclic(3)),
])
def test_invariants_match_oracles(ring_builder):
    ring = ring_builder()
    assert set(idempotents(ring).tolist()) == naive_idempotents(ring)
    assert set(units(ring).tolist()) == set(naive_units(ring))
    assert set(nilpotents(ring).tolist()) == naive_nilpotents(ring)
    assert set(jacobson_radical(ring).tolist()) == naive_jacobson(ring)
    assert set(center(ring).tolist()) == naive_center(ring)
    assert _two_good(ring) == naive_two_good(ring)
    assert set(ucn0(ring).tolist()) == naive_ucn0(ring)


def test_structural_invariants(small_catalog):
    for entry in small_catalog:
        ring = entry.ring
        idem = set(idempotents(ring).tolist())
        inv = set(units(ring).tolist())
        nil = set(nilpotents(ring).tolist())
        jac = set(jacobson_radical(ring).tolist())
        assert idem & inv == {ring.one}, entry.name
        assert nil & inv == set(), entry.name
        assert nil & idem == {ring.zero}, entry.name
        assert jac & idem == {ring.zero}, entry.name
        one_plus_j = {ring.add(ring.one, j) for j in jac}
        assert one_plus_j <= inv, entry.name


def test_radical_of_radical_quotient_vanishes(small_catalog):
    from ringlab import quotient_ring

    for entry in small_catalog:
        ring = entry.ring
        quotient = quotient_ring(ring, jacobson_radical(ring).tolist())
        assert jacobson_radical(quotient).tolist() == [quotient.zero], entry.name


_SMALL_SPEC_LIST = [
    {"zn": 2}, {"zn": 3}, {"zn": 4}, {"zn": 5}, {"zn": 6}, {"zn": 8},
    {"zn": 9}, {"zn": 12}, {"gf": {"p": 2, "k": 2}}, {"gf": {"p": 3, "k": 1}},
    {"product": [{"zn": 2}, {"zn": 2}]},
    {"product": [{"zn": 3}, {"zn": 4}]},
    {"triangular": {"n": 2, "base": {"zn": 2}}},
    {"triangular": {"n": 2, "base": {"zn": 3}}},
    {"matrix": {"n": 2, "base": {"zn": 2}}},
    {"trunc_poly": {"base": {"zn": 2}, "n": 3}},
    {"trunc_poly": {"base": {"zn": 4}, "n": 2}},
    {"trivial_extension": {"zn": 4}},
    {"group_ring": {"base": {"zn": 2}, "group": {"cyclic": 4}}},
    {"group_ring": {"base": {"zn": 3}, "group": {"cyclic": 2}}},
    {"opposite": {"triangular": {"n": 2, "base": {"zn": 2}}}},
]
_SMALL_SPECS = st.sampled_from(_SMALL_SPEC_LIST)


@settings(max_examples=20, deadline=None)
@given(spec=_SMALL_SPECS)
def test_property_invariant_coherence(spec):
    ring = build(spec)
    jac = set(jacobson_radical(ring).tolist())
    idem = set(idempotents(ring).tolist())
    inv = set(units(ring).tolist())
    assert naive_jacobson(ring) == jac
    assert idem & jac == {ring.zero}
    assert {ring.add(ring.one, j) for j in jac} <= inv


@pytest.mark.parametrize("spec", _SMALL_SPEC_LIST)
def test_kernels_match_scalar_routes_on_small_specs(spec):
    _assert_kernels_match_scalar_routes(build(spec))


#: The order-4096 rings the full-table routes are compared on.
ORDER_4096_SPECS = {
    "T3(Z4)": {"triangular": {"n": 3, "base": {"zn": 4}}},
    "M2(F8)": {"matrix": {"n": 2, "base": {"gf": {"p": 2, "k": 3}}}},
    "T2(TE(Z4))": {"triangular": {"n": 2, "base": {"trivial_extension": {"zn": 4}}}},
}


#: Z2 x T3(Z4), the order-8192 rung of the classify ladder.
ORDER_8192_SPEC = {"product": [{"zn": 2}, ORDER_4096_SPECS["T3(Z4)"]]}
LARGE_SPECS = {**ORDER_4096_SPECS, "Z2xT3(Z4)": ORDER_8192_SPEC}


@pytest.mark.parametrize("spec", LARGE_SPECS.values(), ids=LARGE_SPECS.keys())
def test_lifting_matches_coset_minima_at_large_orders(spec):
    # J, {0} and R: failure-free, but with witnesses at every x in need.
    ring = build(spec)
    jac = get_cache(ring).jacobson_mask
    for imask in (jac, _mask(ring, [ring.zero]), np.ones(ring.order, dtype=bool)):
        report = invariants._lift_mod_mask(ring, imask)
        assert report == reference_lift_mod_mask(ring, imask), (ring.name, imask.sum())
        assert report.lifts and len(report.witnesses) == np.count_nonzero(
            imask[ring.add_table[ring.mul_table.diagonal(), ring.neg_table]])


def _assert_masks_match_full_routes(ring):
    cache = get_cache(ring)
    unit_mask, _ = full_units(ring)
    assert (cache.unit_mask == unit_mask).all(), ring.name
    assert (cache.center_mask == full_center(ring)).all(), ring.name
    assert (cache.jacobson_mask == full_jacobson(ring, cache.unit_mask)).all(), ring.name


@pytest.mark.parametrize("spec", _SMALL_SPEC_LIST)
def test_masks_match_full_and_naive_routes_on_small_specs(spec):
    ring = build(spec)
    _assert_masks_match_full_routes(ring)
    assert _two_good(ring) == naive_two_good(ring)
    assert set(ucn0(ring).tolist()) == naive_ucn0(ring)


def test_masks_match_full_routes_on_catalog(suite_ctx):
    for entry in suite_ctx.entries:
        _assert_masks_match_full_routes(entry.ring)


@pytest.mark.parametrize("spec", ORDER_4096_SPECS.values(), ids=ORDER_4096_SPECS.keys())
def test_masks_match_full_routes_at_order_4096(spec):
    _assert_masks_match_full_routes(build(spec))


def test_ideal_guard_rejects_non_ideals(m2z2):
    cache = get_cache(m2z2)
    with pytest.raises(AssertionError, match="closure violated"):
        cache._assert_two_sided_ideal(cache.idempotent_mask)
    # Closed under +, but E21 * E12 = E22 leaves it: only the
    # multiplication by additive generators can catch this one.
    subgroup = np.zeros(m2z2.order, dtype=bool)
    subgroup[[m2z2.zero, m2z2.id_of("(0 1;0 0)")]] = True
    with pytest.raises(AssertionError, match="closure violated"):
        cache._assert_two_sided_ideal(subgroup)


def test_radical_allocates_well_under_one_table():
    import tracemalloc

    ring = build(ORDER_4096_SPECS["T3(Z4)"])
    cache = get_cache(ring)
    cache.unit_mask, cache.nilpotent_mask  # J reads both; not measured here
    table_bytes = ring.order ** 2 * ring.mul_table.itemsize
    tracemalloc.start()
    try:
        cache.jacobson_mask
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes // 4, (peak, table_bytes)
