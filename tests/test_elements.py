from ringlab import (
    clean_decompositions,
    decomposition_counts,
    element_profile,
    is_uniquely_clean_element,
    is_usc_element,
    strongly_clean_decompositions,
)
from oracles import naive_decompositions


def as_tuples(decomps):
    return [(d.idempotent, d.unit, d.commuting) for d in decomps]


def test_z2_zero_decomposition(z2):
    assert as_tuples(clean_decompositions(z2, 0)) == [(1, 1, True)]


def test_z3_element_two(z3):
    decomps = as_tuples(clean_decompositions(z3, 2))
    assert decomps == [(0, 2, True), (1, 1, True)]
    ok, wit = is_usc_element(z3, 2)
    assert not ok and len(wit) == 2
    ok, wit = is_uniquely_clean_element(z3, 2)
    assert not ok


def test_z4_element_three(z4):
    assert as_tuples(clean_decompositions(z4, 3)) == [(0, 3, True)]
    assert is_usc_element(z4, 3) == (True, [clean_decompositions(z4, 3)[0]])


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
    ok, wit = is_usc_element(f4, f4.id_of("1"))
    assert ok
    ok, wit = is_usc_element(f4, f4.id_of("w"))
    assert not ok
    assert {f4.label_of(d.idempotent) for d in wit} == {"0", "1"}


def test_unit_always_has_zero_decomposition(small_catalog):
    from ringlab import units

    for entry in small_catalog:
        ring = entry.ring
        for u in units(ring).sorted_ids():
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
    from ringlab import build

    ring = build(spec)
    clean_counts, strong_counts = decomposition_counts(ring)
    for a in ring.elements():
        naive = naive_decompositions(ring, a)
        assert clean_counts[a] == len(naive)
        assert strong_counts[a] == sum(1 for _, _, c in naive if c)
