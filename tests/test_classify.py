import gc
import hashlib
import importlib
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from ringlab import (
    CLASSIFICATION_FIELDS,
    build,
    classify,
    classify_element_summary,
    cyclic,
    group_ring,
    jacobson_radical,
    opposite_ring,
    product_ring,
    quotient_ring,
    trivial_extension,
    trunc_poly,
    zn,
)
from ringlab.invariants import (
    LiftReport,
    get_cache,
    idempotents_lift_mod,
    is_two_sided_ideal,
    maximal_members,
    one_sided_ideals,
)
from oracles import (
    diagram_implications,
    naive_regular,
    naive_semi_potent,
    quotient_fields,
    reference_check_isomorphic,
)
from test_invariants import _SMALL_SPEC_LIST, ORDER_4096_SPECS

# The package re-exports the function ``classify`` under the module's name.
classify_module = importlib.import_module("ringlab.classify")


def test_z2_everything_true(z2):
    c = classify(z2)
    for name in ("is_clean", "is_strongly_clean", "is_UC", "is_USC", "is_CUC",
                 "is_CUSC", "is_UUC", "is_UUSC", "is_boolean", "is_reduced",
                 "is_abelian", "is_commutative", "is_local", "is_regular",
                 "is_semi_potent", "is_potent", "is_semi_boolean"):
        assert getattr(c, name) is True, name


def test_t2z2_vector(t2z2):
    c = classify(t2z2)
    assert c.is_USC and c.is_CUSC and c.is_UUC
    assert not c.is_CUC and not c.is_UC and not c.is_abelian
    assert c.witnesses["is_CUC"]["element"]


def test_z3_not_cusc(z3):
    c = classify(z3)
    assert not c.is_CUSC
    assert c.one_is_two_good
    assert c.witnesses["is_CUSC"]["element"] == "2"


def test_z4_uc_via_local(z4):
    c = classify(z4)
    assert c.is_UC and c.is_local and c.RmodJ_boolean and c.U_equals_one_plus_J


def test_m2z2_clean_not_uusc(m2z2):
    c = classify(m2z2)
    assert c.is_clean and not c.is_UUSC
    assert c.is_regular and not c.is_local
    assert c.one_is_two_good
    assert c.is_quasi_duo_left is False


def test_element_summary(z6):
    summary = classify_element_summary(z6)
    assert len(summary) == 6
    assert all(p.is_clean for p in summary)
    rg = group_ring(zn(2), cyclic(3))
    profiles = classify_element_summary(rg)
    from ringlab import units

    unit_ids = set(units(rg).tolist())
    assert any(
        p.element in unit_ids and len(p.strongly_clean_decomps) >= 2
        for p in profiles
    )


def test_zero_ring_by_the_letter():
    one = build({"zn": 1})
    c = classify(one)
    assert c.is_boolean and c.is_UC and c.is_USC and c.is_CUSC and c.is_UUSC
    assert c.is_local and c.is_potent
    assert c.one_is_two_good  # 1 = 0 = 0 + 0 with 0 a unit


def _quasi_duo_by_lattice(ring, side):
    maximal = maximal_members(one_sided_ideals(ring, side), ring.order)
    return all(is_two_sided_ideal(ring, m) for m in maximal)


def test_quasi_duo_closed_form_matches_lattice(small_catalog):
    rings = [e.ring for e in small_catalog] + [
        build({"product": [{"matrix": {"n": 2, "base": {"zn": 2}}}, {"zn": 2}]}),
        build({"matrix": {"n": 2, "base": {"zn": 4}}}),
        build({"opposite": {"triangular": {"n": 2, "base": {"zn": 4}}}}),
    ]
    for ring in rings:
        c = classify(ring)
        assert c.is_quasi_duo_left == _quasi_duo_by_lattice(ring, "left"), ring.name
        assert c.is_quasi_duo_right == _quasi_duo_by_lattice(ring, "right"), ring.name
        # Metamorphic: left ideals of R are the right ideals of op(R).
        assert classify(opposite_ring(ring)).is_quasi_duo_right == c.is_quasi_duo_left, ring.name
        if not c.is_quasi_duo_left:
            # The witness is a non-commuting pair of R/J.
            quotient = quotient_ring(ring, jacobson_radical(ring).tolist())
            a, b = (quotient.id_of(x) for x in c.witnesses["is_quasi_duo_left"]["quotient_pair"])
            assert quotient.mul(a, b) != quotient.mul(b, a), ring.name


def test_json_stable_fields(z4):
    doc = classify(z4).to_json()
    for name in CLASSIFICATION_FIELDS:
        assert name in doc


def test_diagram_implications_on_catalog(suite_ctx):
    for entry in suite_ctx.entries:
        c = classify(entry.ring)
        for name, holds in diagram_implications(c):
            assert holds, (entry.name, name)


def test_isomorphic_pairs(z6):
    assert reference_check_isomorphic(z6, product_ring([zn(2), zn(3)])).found
    result = reference_check_isomorphic(trivial_extension(zn(2)), trunc_poly(zn(2), 2))
    assert result.found
    phi = result.mapping
    a_ring = trivial_extension(zn(2))
    b_ring = trunc_poly(zn(2), 2)
    for x in a_ring.elements():
        for y in a_ring.elements():
            assert phi[a_ring.mul(x, y)] == b_ring.mul(phi[x], phi[y])
            assert phi[a_ring.add(x, y)] == b_ring.add(phi[x], phi[y])


def test_non_isomorphic_pairs(z4):
    assert not reference_check_isomorphic(z4, product_ring([zn(2), zn(2)])).found
    assert not reference_check_isomorphic(z4, zn(3)).found
    # Same additive group, different multiplication.
    assert not reference_check_isomorphic(build({"zn": 9}), build({"trunc_poly": {"base": {"zn": 3}, "n": 2}})).found


def test_isomorphism_respects_size_limit(z4):
    from ringlab import SizeOverflowError

    with pytest.raises(SizeOverflowError):
        reference_check_isomorphic(zn(300), zn(300), order_limit=64)


def test_classify_lifts_over_j_without_rechecking_it(monkeypatch):
    # The invariant cache asserts J is an ideal; lifting must not redo it.
    import ringlab.invariants as invariants

    def recheck(ring, subset):
        raise AssertionError(f"J of {ring.name} re-checked")

    monkeypatch.setattr(invariants, "is_two_sided_ideal", recheck)
    c = classify(trunc_poly(zn(2), 3))
    assert c.is_potent and c.is_local


@pytest.mark.parametrize("spec", [
    {"triangular": {"n": 2, "base": {"zn": 4}}},
    {"group_ring": {"base": {"zn": 2}, "group": "quaternion8"}},
])
def test_classified_ring_is_freed_without_a_collection(spec):
    # The memo refers to its ring weakly, and no construction byproduct
    # in meta holds the ring, so dropping the last reference frees it at
    # once, with the cyclic collector switched off.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ring = build(spec)
        classify(ring)
        ref = weakref.ref(ring)
        del ring
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_classify_memo_serves_a_repeated_call(monkeypatch):
    spec = {"matrix": {"n": 2, "base": {"zn": 2}}}
    fresh = classify(build(spec)).to_json()
    # Not UUSC: the witnesses of the uniqueness fields are exercised.
    assert not fresh["is_UUSC"] and "is_UUSC" in fresh["witnesses"]

    def recompute(*args, **kwargs):
        raise AssertionError("classify went past the memo")

    ring = build(spec)
    got = classify(ring).to_json()
    with monkeypatch.context() as patched:
        for name in ("decomposition_counts", "_quotient_by_ideal", "_lift_mod_mask"):
            patched.setattr(classify_module, name, recompute)
        assert classify(ring).to_json() == got
    assert got == fresh
    # One entry for the classification; nothing kept per reading.
    keys = set(get_cache(ring)._memo)
    assert "classification" in keys
    assert not {"structure", "decomposition_counts"} & keys
    assert not [k for k in keys if k.startswith("classification:")]


@pytest.mark.parametrize("spec", [
    {"zn": 4},
    {"matrix": {"n": 2, "base": {"zn": 2}}},
    {"triangular": {"n": 2, "base": {"zn": 4}}},
])
def test_classify_builds_no_ring(monkeypatch, spec):
    # Local, R/J boolean and quasi-duo are read modulo J.
    def refuse(*args, **kwargs):
        raise AssertionError("classify built R/J")

    monkeypatch.setattr(classify_module, "_quotient_by_ideal", refuse)
    ring = build(spec)
    classify(ring)
    assert "radical_quotient" not in get_cache(ring)._memo


#: sha256 over one ``json.dumps(classify(ring).to_json(), sort_keys=True)``
#: line per ring, witnesses included, for the catalog, ``_SMALL_SPEC_LIST``
#: and ``ORDER_4096_SPECS`` in that order.
CLASSIFY_SHA256 = "f8b897972798cc49d6416c2dbecec8e93d9ca1a84ba7cb5bac1bdbc329ee64fe"


def test_classifications_are_pinned(suite_ctx):
    def rings():
        yield from (entry.ring for entry in suite_ctx.entries)
        yield from (build(spec) for spec in _SMALL_SPEC_LIST)
        yield from (build(spec) for spec in ORDER_4096_SPECS.values())

    digest = hashlib.sha256()
    for ring in rings():
        digest.update((json.dumps(classify(ring).to_json(), sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == CLASSIFY_SHA256


#: The order-256 and order-4096 rings ``classify --elements`` is pinned on,
#: after the catalog.
ELEMENT_SPECS = {
    "M2(Z4)": {"matrix": {"n": 2, "base": {"zn": 4}}},
    "Z2[Q8]": {"group_ring": {"base": {"zn": 2}, "group": "quaternion8"}},
    "T3(Z4)": ORDER_4096_SPECS["T3(Z4)"],
}

#: sha256 over the ``classify --elements --json`` payload of each catalog
#: ring of order <= 256, then of each ``ELEMENT_SPECS`` ring, one
#: ``json.dumps(payload, indent=2, sort_keys=True)`` line per ring.
ELEMENTS_SHA256 = "e895b0972e040e2b2f53067210106a0d5587779be5cf1483177b9577630a0a03"


def _elements_payload(ring) -> str:
    """The stdout of ``ringlab classify --elements --json``, as ``cli.cmd_classify`` builds it."""
    payload = {
        "name": ring.name,
        "order": ring.order,
        "classification": classify(ring).to_json(),
        "elements": [p.to_json(ring) for p in classify_element_summary(ring)],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def test_element_summaries_are_pinned(suite_ctx):
    rings = [entry.ring for entry in suite_ctx.entries if entry.ring.order <= 256]
    rings += [build(spec) for spec in ELEMENT_SPECS.values()]
    digest = hashlib.sha256()
    for ring in rings:
        digest.update((_elements_payload(ring) + "\n").encode())
    assert digest.hexdigest() == ELEMENTS_SHA256


def test_element_summary_reads_one_sweep(monkeypatch):
    # The summary lists every element from one table sweep, never from
    # a per-element query.
    import ringlab.elements as elements

    def per_element(*args, **kwargs):
        raise AssertionError("summary went through a per-element query")

    monkeypatch.setattr(elements, "element_profile", per_element)
    monkeypatch.setattr(elements, "clean_decompositions", per_element)
    ring = build({"triangular": {"n": 3, "base": {"zn": 2}}})
    assert len(classify_element_summary(ring)) == ring.order


def _assert_fields_match_search_routes(ring):
    """regular, semi-potent and potent against the searches they replaced,
    and the fields read modulo J against a built R/J."""
    c = classify(ring)
    fields, witnesses = quotient_fields(ring)
    for name, value in fields.items():
        assert getattr(c, name) == value, (ring.name, name)
        assert c.witnesses.get(name) == witnesses.get(name), (ring.name, name)
    cache = get_cache(ring)
    regular = naive_regular(ring)
    assert c.is_regular == regular.all(), ring.name
    if c.is_regular:
        assert "is_regular" not in c.witnesses, ring.name
    else:
        least = ring.label_of(int(np.flatnonzero(~regular)[0]))
        assert c.witnesses["is_regular"] == {"element": least}, ring.name
    semi_potent, _ = naive_semi_potent(ring, cache.jacobson_mask, cache.idempotent_mask)
    lifts = idempotents_lift_mod(ring, np.flatnonzero(cache.jacobson_mask).tolist()).lifts
    assert c.is_semi_potent == semi_potent, ring.name
    assert c.is_potent == (semi_potent and lifts), ring.name
    assert "is_semi_potent" not in c.witnesses and "is_potent" not in c.witnesses, ring.name


@pytest.mark.parametrize("spec", _SMALL_SPEC_LIST)
def test_fields_match_search_routes_on_small_specs(spec):
    _assert_fields_match_search_routes(build(spec))


def test_fields_match_search_routes_on_catalog(suite_ctx):
    for entry in suite_ctx.entries:
        _assert_fields_match_search_routes(entry.ring)


@pytest.mark.parametrize("spec", ORDER_4096_SPECS.values(), ids=ORDER_4096_SPECS.keys())
def test_fields_match_search_routes_at_order_4096(spec):
    _assert_fields_match_search_routes(build(spec))


@pytest.mark.parametrize("spec", [
    {"trivial_extension": {"matrix": {"n": 2, "base": {"zn": 2}}}},
    {"trunc_poly": {"base": {"matrix": {"n": 2, "base": {"zn": 2}}}, "n": 2}},
])
def test_quasi_duo_witness_is_a_non_commuting_pair_of_r_mod_j(spec):
    # Here the least y with xy != yx in R commutes with x modulo J.
    _assert_fields_match_search_routes(build(spec))


@pytest.mark.parametrize("spec", ORDER_4096_SPECS.values(), ids=ORDER_4096_SPECS.keys())
def test_classify_allocates_under_an_eighth_of_the_tables(spec):
    # Every kernel reads the tables in row blocks or over pairs of small
    # sets; none makes an order^2 temporary.
    ring = build(spec)
    table_bytes = ring.add_table.nbytes + ring.mul_table.nbytes
    tracemalloc.start()
    try:
        classify(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table_bytes / 8, (peak, table_bytes)


def test_guard_lifting_over_j(monkeypatch):
    monkeypatch.setattr(classify_module, "_lift_mod_mask",
                        lambda ring, mask: LiftReport(False, {}, failure=ring.one))
    with pytest.raises(AssertionError, match=r"Z4.*fail to lift"):
        classify(build({"zn": 4}))


def test_guard_every_element_strongly_clean(monkeypatch):
    counts = classify_module.decomposition_counts

    def without_strong_two_and_three(ring):
        clean, strong = counts(ring)
        strong = strong.copy()
        strong[[2, 3]] = 0
        return clean, strong

    def structure(ring):
        raise AssertionError("the structural fields were computed first")

    # The guard runs before anything else: the classifier then reads
    # every element as clean and strongly clean.
    monkeypatch.setattr(classify_module, "decomposition_counts", without_strong_two_and_three)
    monkeypatch.setattr(classify_module, "_structure", structure)
    with pytest.raises(AssertionError, match=r"^Z4 has no strongly clean decomposition of 2$"):
        classify(build({"zn": 4}))


def test_guard_non_regular_witness_when_j_is_nonzero(monkeypatch):
    monkeypatch.setattr(classify_module, "_least_non_regular", lambda ring, stop=None: None)
    with pytest.raises(AssertionError, match=r"Z4.*J != 0"):
        classify(build({"zn": 4}))


def test_regular_witness_below_the_least_radical_element(suite_ctx):
    # classify's scan ends at min(J \ 0), which is 63 in Z2[S3], but the
    # least non-regular element there is 3: the rows before the bound
    # must still be read.
    ring = next(e.ring for e in suite_ctx.entries if e.name == "Z2S3")
    radical = jacobson_radical(ring)
    assert int(radical[radical != ring.zero][0]) == 63
    assert int(np.flatnonzero(~naive_regular(ring))[0]) == 3
    assert classify(ring).witnesses["is_regular"] == {"element": ring.label_of(3)}


@pytest.mark.parametrize("cells", [1, 48, 1 << 20])
def test_regular_scan_finds_the_least_witness_across_blocks(monkeypatch, cells):
    monkeypatch.setattr(classify_module, "_SCAN_CELLS", cells)
    for spec in _SMALL_SPEC_LIST:
        ring = build(spec)
        regular = naive_regular(ring)
        least = None if regular.all() else int(np.flatnonzero(~regular)[0])
        assert classify_module._least_non_regular(ring) == least, ring.name
        if least is not None:
            # classify's bound: the rows up to the least nonzero element of J.
            radical = jacobson_radical(ring)
            stop = int(radical[radical != ring.zero][0]) + 1
            assert classify_module._least_non_regular(ring, stop) == least, ring.name
