import importlib

import pytest

from ringlab import (
    RingConstructionError,
    gf,
    poly_is_clean,
    poly_is_cusc,
    poly_view,
    triangular_ring,
    zn,
)


def _clean_constants(view):
    return tuple(sorted({c for consts in view.admissible_constants.values() for c in consts}))


def test_z2_clean_set_is_constants(z2):
    view = poly_view(z2)
    assert _clean_constants(view) == (0, 1)
    assert view.nilpotent_tail == (0,)
    assert view.admissible_constants == {0: (1,), 1: (0,)}


def test_z2_flagship(z2):
    view = poly_view(z2)
    ok, witness = poly_is_cusc(view)
    assert ok and witness is None
    assert not poly_is_clean(view)


def test_z3_fails_on_constant_two(z3):
    view = poly_view(z3)
    ok, witness = poly_is_cusc(view)
    assert not ok
    assert witness == {"constant": "2", "idempotents": ["0", "1"]}


def test_z4_view(z4):
    view = poly_view(z4)
    assert view.nilpotent_tail == (0, 2)
    # All four constants are clean (Z4 is a clean ring) ...
    assert _clean_constants(view) == (0, 1, 2, 3)
    # ... and each admits exactly one idempotent.
    assert poly_is_cusc(view)[0]
    assert not poly_is_clean(view)


def test_f4_field_base(f4):
    view = poly_view(f4)
    assert _clean_constants(view) == (0, 1, 2, 3)
    assert not poly_is_cusc(view)[0]
    assert not poly_is_clean(view)


def test_zero_ring_polynomials_clean():
    view = poly_view(zn(1))
    assert poly_is_clean(view)
    assert poly_is_cusc(view)[0]


def test_noncommutative_base_rejected():
    with pytest.raises(RingConstructionError, match="commutative"):
        poly_view(triangular_ring(2, zn(2)))


@pytest.mark.parametrize("base_builder", [
    lambda: zn(2), lambda: zn(3), lambda: zn(4), lambda: zn(6),
    lambda: gf(2, 2),
])
def test_bounded_degree_validation_passes(base_builder):
    # poly_view raises AssertionError if the classical unit/idempotent
    # characterizations disagree with brute force in base[x]/(x^4).
    view = poly_view(base_builder())
    assert view.validated_degree == 3


@pytest.mark.parametrize("base_builder", [
    lambda: zn(2), lambda: zn(3), lambda: zn(4), lambda: zn(8),
    lambda: gf(2, 2), lambda: gf(2, 3), lambda: gf(3, 2),
])
def test_trivial_idempotent_bases_reduce_to_two_good(base_builder):
    # For bases whose only idempotents are 0 and 1, the polynomial ring
    # is CUSC exactly when 1 is not a sum of two units of the base.
    from ringlab import classify, idempotents

    base = base_builder()
    assert idempotents(base).sorted_ids() == [base.zero, base.one]
    view = poly_view(base)
    assert poly_is_cusc(view)[0] == (not classify(base).one_is_two_good)


def test_constant_mismatch_names_the_first_constant(monkeypatch):
    # One count per constant, base against truncation; the first
    # constant that differs is reported.
    polyring = importlib.import_module("ringlab.polyring")
    counts = polyring.decomposition_counts

    def one_more_in_the_truncation(ring):
        clean, strong = counts(ring)
        return (clean + 1 if ring.order > 2 else clean), strong

    monkeypatch.setattr(polyring, "decomposition_counts", one_more_in_the_truncation)
    with pytest.raises(AssertionError, match=r"^constant 0 has 1 decompositions in Z2 but 2 in "):
        poly_view(zn(2))
