import json
import random

import numpy as np
import pytest

from ringlab import (
    ElementProfile,
    build,
    classify_element_summary,
    clean_decompositions,
    decomposition_counts,
    element_profile,
    strongly_clean_decompositions,
)
from oracles import (
    naive_decompositions, reference_clean_decompositions, reference_decomposition_counts,
)
from test_invariants import _SMALL_SPEC_LIST, LARGE_SPECS, ORDER_4096_SPECS


def as_tuples(decomps):
    return [(d.idempotent, d.unit, d.commuting) for d in decomps]


def test_z2_zero_decomposition(z2):
    assert as_tuples(clean_decompositions(z2, 0)) == [(1, 1, True)]


def test_z3_element_two(z3):
    decomps = as_tuples(clean_decompositions(z3, 2))
    assert decomps == [(0, 2, True), (1, 1, True)]
    profile = element_profile(z3, 2)
    assert not profile.is_usc and len(profile.strongly_clean_decomps) == 2
    assert not profile.is_uniquely_clean


def test_z4_element_three(z4):
    assert as_tuples(clean_decompositions(z4, 3)) == [(0, 3, True)]
    profile = element_profile(z4, 3)
    assert profile.is_usc
    assert profile.strongly_clean_decomps == [clean_decompositions(z4, 3)[0]]


def test_commutative_strongly_equals_clean(z6):
    for a in z6.elements():
        assert clean_decompositions(z6, a) == strongly_clean_decompositions(z6, a)


def test_t2z2_every_element_usc(t2z2):
    for a in t2z2.elements():
        assert len(strongly_clean_decompositions(t2z2, a)) == 1, t2z2.label_of(a)


def test_t2z2_zero_uniquely_clean(t2z2):
    decomps = clean_decompositions(t2z2, t2z2.zero)
    assert len(decomps) == 1
    assert decomps[0].idempotent == t2z2.one


def test_m2z2_identity_unique_but_other_unit_not(m2z2):
    # The identity has exactly (0, I); the displayed unit (1 1;1 0)
    # decomposes twice, witnessing the failure of UUSC.
    ident = as_tuples(strongly_clean_decompositions(m2z2, m2z2.one))
    assert ident == [(m2z2.zero, m2z2.one, True)]
    u = m2z2.id_of("(1 1;1 0)")
    wit = strongly_clean_decompositions(m2z2, u)
    assert len(wit) >= 2
    assert {d.idempotent for d in wit} >= {m2z2.zero, m2z2.one}


def test_f4_units(f4):
    assert element_profile(f4, f4.id_of("1")).is_usc
    profile = element_profile(f4, f4.id_of("w"))
    assert not profile.is_usc
    assert {f4.label_of(d.idempotent) for d in profile.strongly_clean_decomps} == {"0", "1"}


def test_unit_always_has_zero_decomposition(small_catalog):
    from ringlab import units

    for entry in small_catalog:
        ring = entry.ring
        for u in units(ring).tolist():
            decomps = strongly_clean_decompositions(ring, u)
            assert any(
                d.idempotent == ring.zero and d.unit == u for d in decomps
            ), (entry.name, u)


def test_profile_consistency(small_catalog):
    for entry in small_catalog:
        ring = entry.ring
        clean_counts, strong_counts = decomposition_counts(ring)
        for a in ring.elements():
            profile = element_profile(ring, a)
            assert len(profile.clean_decomps) == clean_counts[a], entry.name
            assert len(profile.strongly_clean_decomps) == strong_counts[a]
            assert profile.is_clean == bool(profile.clean_decomps)
            for d in profile.strongly_clean_decomps:
                assert d in profile.clean_decomps
            if profile.is_uniquely_clean and profile.is_strongly_clean:
                assert profile.is_usc


def _reference_profile(ring, a) -> ElementProfile:
    clean = reference_clean_decompositions(ring, a)
    strong = [d for d in clean if d.commuting]
    return ElementProfile(a, clean, strong, bool(clean), bool(strong),
                          len(clean) == 1, len(strong) == 1)


def _assert_profiles_match_reference(ring, elements):
    """The summary rows and single queries of ``elements`` render exactly
    as the scalar loop's, with Python ints and bools throughout."""
    summary = classify_element_summary(ring)
    assert [p.element for p in summary] == list(range(ring.order)), ring.name
    for a in elements:
        expected = json.dumps(_reference_profile(ring, a).to_json(ring), sort_keys=True)
        for profile in (summary[a], element_profile(ring, a)):
            assert json.dumps(profile.to_json(ring), sort_keys=True) == expected, (ring.name, a)
            assert type(profile.element) is int
            for d in profile.clean_decomps:
                assert (type(d.idempotent), type(d.unit), type(d.commuting)) == (int, int, bool)


def test_profiles_match_reference_on_catalog(suite_ctx):
    for entry in suite_ctx.entries:
        if entry.ring.order <= 256:
            _assert_profiles_match_reference(entry.ring, entry.ring.elements())


@pytest.mark.parametrize("spec", _SMALL_SPEC_LIST)
def test_profiles_match_reference_on_small_specs(spec):
    ring = build(spec)
    _assert_profiles_match_reference(ring, ring.elements())


@pytest.mark.parametrize("spec", ORDER_4096_SPECS.values(), ids=ORDER_4096_SPECS.keys())
def test_profiles_match_reference_at_order_4096(spec):
    ring = build(spec)
    rng = random.Random(4096)
    _assert_profiles_match_reference(ring, [rng.randrange(ring.order) for _ in range(64)])


def _assert_counts_match_the_row_sweep(ring):
    for got, expected in zip(decomposition_counts(ring), reference_decomposition_counts(ring)):
        assert got.dtype == np.int64 and np.array_equal(got, expected), ring.name


def test_counts_match_the_row_sweep_on_catalog(suite_ctx):
    for entry in suite_ctx.entries:
        _assert_counts_match_the_row_sweep(entry.ring)


@pytest.mark.parametrize("spec", _SMALL_SPEC_LIST)
def test_counts_match_the_row_sweep_on_small_specs(spec):
    _assert_counts_match_the_row_sweep(build(spec))


@pytest.mark.parametrize("spec", LARGE_SPECS.values(), ids=LARGE_SPECS.keys())
def test_counts_match_the_row_sweep_at_large_orders(spec):
    _assert_counts_match_the_row_sweep(build(spec))


def test_enumeration_matches_naive_oracle(small_catalog):
    for entry in small_catalog:
        ring = entry.ring
        if ring.order > 32:
            continue
        for a in ring.elements():
            assert as_tuples(clean_decompositions(ring, a)) == naive_decompositions(ring, a), (
                entry.name, a,
            )


from hypothesis import given, settings, strategies as st


@settings(max_examples=15, deadline=None)
@given(spec=st.sampled_from([
    {"zn": 5}, {"zn": 7}, {"zn": 9}, {"zn": 10}, {"zn": 12},
    {"gf": {"p": 3, "k": 2}},
    {"product": [{"zn": 2}, {"zn": 5}]},
    {"triangular": {"n": 2, "base": {"zn": 3}}},
    {"trunc_poly": {"base": {"zn": 3}, "n": 2}},
    {"group_ring": {"base": {"zn": 3}, "group": {"cyclic": 2}}},
    {"opposite": {"matrix": {"n": 2, "base": {"zn": 2}}}},
]))
def test_property_counts_match_naive(spec):
    ring = build(spec)
    clean_counts, strong_counts = decomposition_counts(ring)
    for a in ring.elements():
        naive = naive_decompositions(ring, a)
        assert clean_counts[a] == len(naive)
        assert strong_counts[a] == sum(1 for _, _, c in naive if c)
        profile = element_profile(ring, a)
        assert as_tuples(profile.clean_decomps) == naive
        assert as_tuples(profile.strongly_clean_decomps) == [d for d in naive if d[2]]
