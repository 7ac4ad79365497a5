import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ringlab.catalog import DEFAULT_SPECS, default_catalog
from ringlab import core
from ringlab.core import FiniteRing, _derive_neg, dtype_for
from ringlab import (
    BimoduleError,
    EndomorphismError,
    RingConstructionError,
    SizeOverflowError,
    SpecError,
    build,
    construct,
    corner_ring,
    cyclic,
    formal_triangular,
    gf,
    group_ring,
    ideal_extension,
    idempotents,
    ideal_generated,
    jacobson_radical,
    matrix_ring,
    opposite_ring,
    product_ring,
    quotient_ring,
    skew_trunc_poly,
    subring_generated,
    table_ring,
    triangular_ring,
    trivial_extension,
    trivial_morita,
    trunc_poly,
    units,
    validate_axioms,
    validate_spec,
    zn,
)
from oracles import (
    naive_units,
    reference_assembly,
    reference_check_isomorphic,
    reference_gf,
    reference_ideal_extension,
    reference_quotient,
    reference_trivial_extension,
    reference_trivial_morita,
    scalar_m_quasi_regular,
)
from test_invariants import _SMALL_SPEC_LIST


Z2 = {"zn": 2}
Z4 = {"zn": 4}


def test_build_dispatch_orders():
    assert build({"zn": 4}).order == 4
    assert build({"triangular": {"n": 2, "base": Z2}}).order == 8
    assert build({"product": [Z2, {"zn": 3}]}).order == 6


@pytest.mark.parametrize("n,base_order,expected", [
    (2, 2, 8), (3, 2, 64), (2, 4, 64),
])
def test_triangular_orders(n, base_order, expected):
    assert triangular_ring(n, zn(base_order)).order == expected


def test_matrix_ring_identity_and_order(m2z2):
    assert m2z2.order == 16
    assert m2z2.label_of(m2z2.one) == "(1 0;0 1)"
    # The two displayed matrices summing to the identity are units.
    a = m2z2.id_of("(1 1;1 0)")
    b = m2z2.id_of("(0 1;1 1)")
    inv = naive_units(m2z2)
    assert a in inv and b in inv
    assert m2z2.add(a, b) == m2z2.one


def test_quotient_examples(z4, z6, t2z2):
    q = quotient_ring(z4, [2])
    assert q.order == 2
    assert reference_check_isomorphic(q, zn(2)).found
    assert quotient_ring(z6, [3]).order == 3
    jac = jacobson_radical(t2z2).sorted_ids()
    qt = quotient_ring(t2z2, jac)
    assert qt.order == 4
    assert reference_check_isomorphic(qt, product_ring([zn(2), zn(2)])).found
    # Projection maps onto quotient ids and respects multiplication.
    proj = qt.meta["projection"]
    for a in t2z2.elements():
        for b in t2z2.elements():
            assert proj[t2z2.mul(a, b)] == qt.mul(int(proj[a]), int(proj[b]))


def test_quotient_degenerate_cases(z4):
    assert quotient_ring(z4, []).order == 4
    assert quotient_ring(z4, [1]).order == 1


def test_corner_rings(m2z2, z4):
    assert corner_ring(z4, 1).order == 4
    assert corner_ring(z4, 0).order == 1
    e = m2z2.id_of("(1 0;0 0)")
    corner = corner_ring(m2z2, e)
    assert corner.order == 2
    assert reference_check_isomorphic(corner, zn(2)).found
    embed = corner.meta["embedding"]
    for x in corner.elements():
        for y in corner.elements():
            assert int(embed[corner.mul(x, y)]) == m2z2.mul(int(embed[x]), int(embed[y]))
    assert int(embed[corner.one]) == e
    with pytest.raises(RingConstructionError):
        corner_ring(m2z2, m2z2.id_of("(0 1;0 0)"))


def test_group_ring_augmentation(z2, z4):
    rg = group_ring(z2, cyclic(3))
    assert rg.order == 8
    one_plus_g = rg.id_of("1+g")
    eps = rg.meta["augmentation"]
    assert int(eps[one_plus_g]) == 0  # 1 + 1 = 0 in Z2
    kernel = rg.meta["aug_kernel"]
    assert isinstance(kernel, frozenset) and len(kernel) == 4
    assert kernel == {int(i) for i in np.flatnonzero(eps == z2.zero)}
    assert group_ring(z2, cyclic(2)).order == 4
    assert group_ring(z4, cyclic(2)).order == 16


def test_trivial_extension(z2):
    te = trivial_extension(z2)
    assert te.order == 4
    v = te.id_of("(0,1)")
    assert te.mul(v, v) == te.zero
    assert te.label_of(te.one) == "(1,0)"
    assert reference_check_isomorphic(te, trunc_poly(z2, 2)).found


def test_ideal_extension_zero_mul_matches_trivial_extension(z2):
    ie = ideal_extension(
        z2,
        {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 0]]},
        [[0, 0], [0, 1]],
        [[0, 0], [0, 1]],
    )
    te = trivial_extension(z2)
    assert (ie.add_table == te.add_table).all()
    assert (ie.mul_table == te.mul_table).all()
    assert ie.meta["hypotheses"] == {
        "idempotents_central_on_m": True, "m_quasi_regular": True,
    }


def test_ideal_extension_2z4_table_comparison(z2):
    # Spec'd as isomorphic to Z4, but the additive group is Z2 + Z2:
    # the table comparison lands on Z2[x]/(x^2) instead (see ledger).
    ie = ideal_extension(
        z2,
        {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 0]], "labels": ["0", "2"]},
        [[0, 0], [0, 1]],
        [[0, 0], [0, 1]],
    )
    assert ie.order == 4
    assert reference_check_isomorphic(ie, trunc_poly(zn(2), 2)).found
    assert not reference_check_isomorphic(ie, zn(4)).found


def test_ideal_extension_identity(z2):
    ie = ideal_extension(
        z2,
        {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 0]]},
        [[0, 0], [0, 1]],
        [[0, 0], [0, 1]],
    )
    assert ie.label_of(ie.one) == "(1,0)"


def test_ideal_extension_rejects_bad_action(z2):
    with pytest.raises(BimoduleError):
        ideal_extension(
            z2,
            {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 0]]},
            [[0, 1], [0, 1]],  # 0 * m = m violates additivity in the ring
            [[0, 0], [0, 1]],
        )


def test_formal_triangular(z2, z4):
    ft = formal_triangular(
        z2, z2, {"add": [[0, 1], [1, 0]]}, [[0, 0], [0, 1]], [[0, 0], [0, 1]]
    )
    assert ft.order == 8
    assert reference_check_isomorphic(ft, triangular_ring(2, zn(2))).found
    # A = Z2, B = Z4, M = Z2 with the doubled action collapsing to 0.
    right = [[0, 0, 0, 0], [0, 1, 0, 1]]
    ft2 = formal_triangular(z2, z4, {"add": [[0, 1], [1, 0]]}, [[0, 0], [0, 1]], right)
    assert ft2.order == 16
    # Zero bimodule gives the product ring.
    ftz = formal_triangular(z2, z2, {"add": [[0]]}, [[0], [0]], [[0, 0]])
    assert reference_check_isomorphic(ftz, product_ring([zn(2), zn(2)])).found


def test_trivial_morita(z2):
    m = {"add": [[0, 1], [1, 0]]}
    act = [[0, 0], [0, 1]]
    mc = trivial_morita(z2, z2, m, act, act, m, act, act)
    assert mc.order == 16
    zero_mod = {"add": [[0]]}
    zl = [[0], [0]]
    zr = [[0, 0]]
    mc0 = trivial_morita(z2, z2, zero_mod, zl, zr, zero_mod, zl, zr)
    assert reference_check_isomorphic(mc0, product_ring([zn(2), zn(2)])).found
    half = trivial_morita(z2, z2, m, act, act, zero_mod, zl, zr)
    assert half.order == 8
    assert reference_check_isomorphic(half, triangular_ring(2, zn(2))).found


def test_trunc_poly(z2):
    r = trunc_poly(z2, 2)
    assert r.order == 4
    x = r.id_of("x")
    assert r.mul(x, x) == r.zero
    base_again = trunc_poly(z2, 1)
    assert base_again.order == 2
    assert trunc_poly(zn(4), 2).order == 16


def test_skew_trunc_poly_frobenius(f4):
    sk = skew_trunc_poly(f4, {"frobenius": 2}, 2)
    assert sk.order == 16
    x = sk.id_of("x")
    w = sk.id_of("w")
    w2 = sk.id_of("1+w")  # w^2 = w + 1 in F4
    # x * w = w^2 * x
    assert sk.mul(x, w) == sk.mul(w2, x)
    assert validate_axioms(sk).ok


def test_skew_rejects_non_endomorphism(z4, z6):
    with pytest.raises(EndomorphismError):
        skew_trunc_poly(z4, {"map": [1, 2, 3, 0]}, 2)
    with pytest.raises(EndomorphismError):
        # Squaring is not additive mod 6.
        skew_trunc_poly(z6, {"frobenius": 2}, 2)


def test_opposite(t2z2):
    op = opposite_ring(t2z2)
    assert (op.mul_table == t2z2.mul_table.T).all()
    opop = opposite_ring(op)
    assert (opop.mul_table == t2z2.mul_table).all()
    for a in t2z2.elements():
        for b in t2z2.elements():
            assert op.mul(a, b) == t2z2.mul(b, a)


def test_gf_construction():
    f8 = gf(2, 3)
    assert f8.order == 8
    assert len(naive_units(f8)) == 7
    f9 = gf(3, 2)
    assert f9.order == 9
    assert len(naive_units(f9)) == 8
    with pytest.raises(SpecError):
        gf(4, 1)


#: The 16 fields GF(p^k) with k >= 2 and at most 256 elements.
_GF_PRIME_POWERS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(2, 9) if p ** k <= 256]


@pytest.mark.parametrize("p, k", _GF_PRIME_POWERS)
def test_gf_equals_reference_loop(p, k):
    ring, ref = gf(p, k), reference_gf(p, k)
    for table in ("add_table", "mul_table", "neg_table"):
        ours, theirs = getattr(ring, table), getattr(ref, table)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), table
    assert (ring.labels, ring.name, ring.zero, ring.one) == (ref.labels, ref.name, ref.zero, ref.one)


def test_product_orders_multiply():
    r = product_ring([zn(2), zn(3), zn(4)])
    assert r.order == 24
    assert r.label_of(r.one) == "(1,1,1)"


def test_subring_generated(z6):
    sub = subring_generated(z6, [])
    assert sub.order == 6  # 1 generates Z6 additively
    m2 = matrix_ring(2, zn(2))
    e = m2.id_of("(1 0;0 0)")
    sub2 = subring_generated(m2, [e])
    assert sub2.order == 4


def test_size_overflow():
    with pytest.raises(SizeOverflowError):
        matrix_ring(3, zn(8))  # 8^9 far beyond the cap
    with pytest.raises(SizeOverflowError):
        group_ring(zn(4), cyclic(11))


def test_oversized_build_is_refused_before_allocating(monkeypatch):
    # Order 32768 would need two 2 GiB tables; the order is read from
    # the spec tree, so not even the factors are built.
    def refuse(*args, **kwargs):
        raise AssertionError("a factor was built")

    for name in ("zn", "triangular_ring"):
        monkeypatch.setattr(construct, name, refuse)
    spec = {"product": [{"zn": 8}, {"triangular": {"n": 3, "base": Z4}}]}
    tracemalloc.start()
    try:
        with pytest.raises(SizeOverflowError) as info:
            build(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (info.value.required_order, info.value.table_bytes) == (32768, 2 * 32768 ** 2 * 2)
    assert str(info.value) == (
        "construction requires order 32768, above the cap 16384; "
        "its add and mul tables would take 4294967296 bytes")
    assert peak < 160 * 2 ** 20, peak


def test_orders_read_from_specs_are_the_built_orders(suite_ctx):
    specs = [e.spec for e in suite_ctx.entries] + _SMALL_SPEC_LIST + list(_FAMILY_SPECS.values())
    for spec in specs:
        order = construct._refuse_oversized(spec, 16384)
        assert order is None or order == build(spec).order, spec
    # Orders that depend on a built ring are left to its constructor,
    # and so are the nodes above them; the nodes below are still read.
    quotient = {"quotient": {"base": Z4, "generators": [2]}}
    assert construct._refuse_oversized({"product": [quotient, quotient]}, 4) is None
    with pytest.raises(SizeOverflowError, match="order 4,"):
        construct._refuse_oversized({"corner": {"base": Z4, "idempotent": 1}}, 3)


def test_threshold_is_the_largest_order_built():
    spec = {"triangular": {"n": 2, "base": Z4}}
    assert build(spec, threshold=64).order == 64
    with pytest.raises(SizeOverflowError, match="order 64, above the cap 63"):
        build(spec, threshold=63)
    with pytest.raises(SizeOverflowError, match="order 5, above the cap 4"):
        zn(5, threshold=4)
    with pytest.raises(SizeOverflowError, match="order 8, above the cap 7"):
        gf(2, 3, threshold=7)
    table = {"table": {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}}
    assert build(table, threshold=2).order == 2
    with pytest.raises(SizeOverflowError, match="order 2, above the cap 1"):
        build(table, threshold=1)


def test_bimodule_families_refuse_before_checking_their_actions(z2):
    # The action laws gather order(base)^2 * |M| cells, so an oversized
    # ring is refused first; these empty actions would fail those laws.
    m, bad = {"add": [[0, 1], [1, 0]]}, [[]]
    with pytest.raises(SizeOverflowError, match="order 4, above the cap 3"):
        ideal_extension(z2, m, bad, bad, threshold=3)
    with pytest.raises(SizeOverflowError, match="order 8, above the cap 3"):
        formal_triangular(z2, z2, m, bad, bad, threshold=3)
    with pytest.raises(SizeOverflowError, match="order 16, above the cap 3"):
        trivial_morita(z2, z2, m, bad, bad, m, bad, bad, threshold=3)
    with pytest.raises(BimoduleError):
        ideal_extension(z2, m, bad, bad)


def test_spec_validation_errors():
    with pytest.raises(SpecError):
        validate_spec({"nope": 1})
    with pytest.raises(SpecError):
        validate_spec({"zn": 0})
    with pytest.raises(SpecError):
        validate_spec({"triangular": {"n": 2}})
    validate_spec({"skew_trunc_poly": {"base": Z2, "alpha": "identity", "n": 2}})
    # The error carries the JSON path of the offence.
    try:
        validate_spec({"triangular": {"n": 2, "base": {"zn": "x"}}})
    except SpecError as exc:
        assert "$" in str(exc)
    else:
        pytest.fail("expected SpecError")


def test_provenance_spec_attached():
    spec = {"triangular": {"n": 2, "base": Z2}}
    ring = build(spec)
    assert ring.spec == spec
    assert ring.name == "T2(Z2)"


def test_schema_table_and_docs_list_the_same_kinds():
    defs = construct.load_schema()["$defs"]
    schema_kinds = []
    for ref in defs["ringspec"]["oneOf"]:
        (kind,) = defs[ref["$ref"].rsplit("/", 1)[1]]["required"]
        schema_kinds.append(kind)
    doc = (Path(__file__).parents[1] / "docs" / "ringspec_schema.md").read_text()
    documented = re.findall(r'^\| `\{"(\w+)":', doc, re.MULTILINE)
    assert len(schema_kinds) == 16
    assert sorted(schema_kinds) == sorted(construct._FAMILIES) == sorted(documented)
    assert sorted(_PINNED_NAMES) == sorted(schema_kinds)


#: One spec for each kind ``_FAMILY_SPECS`` lacks.
_MORE_KIND_SPECS = {
    "zn": {"zn": 6},
    "gf": {"gf": {"p": 2, "k": 3}},
    "quotient": {"quotient": {"base": Z4, "generators": [2]}},
    "corner": {"corner": {"base": {"matrix": {"n": 2, "base": Z2}}, "idempotent": 1}},
    "trunc_poly": {"trunc_poly": {"base": Z2, "n": 3}},
    "opposite": {"opposite": {"triangular": {"n": 2, "base": Z2}}},
    "table": {"table": {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}},
}

#: ``build(spec).name`` of each kind's spec, as literal strings.
_PINNED_NAMES = {
    "zn": "Z6",
    "gf": "F8",
    "product": "Z2xZ3xZ4",
    "matrix": "M2(Z3)",
    "triangular": "T3(Z2)",
    "quotient": "Z4/I",
    "corner": "corner(M2(Z2))",
    "group_ring": "Z2[S3]",
    "trivial_extension": "TE(Z4)",
    "ideal_extension": "IE(Z4)",
    "formal_triangular": "FT(Z2,Z4)",
    "trivial_morita": "MC(Z2,Z2)",
    "trunc_poly": "Z2[x]/x^3",
    "skew_trunc_poly": "F4[x;a]/x^2",
    "opposite": "op(T2(Z2))",
    "table": "table",
}


@pytest.mark.parametrize("kind", sorted(_PINNED_NAMES))
def test_build_names_are_pinned(kind):
    spec = {**_FAMILY_SPECS, **_MORE_KIND_SPECS}[kind]
    assert build(spec).name == _PINNED_NAMES[kind]


def test_every_family_builds_one_ring_class(suite_ctx):
    rings = [e.ring for e in suite_ctx.entries]
    rings += [build(spec) for spec in {**_FAMILY_SPECS, **_MORE_KIND_SPECS}.values()]
    rings.append(table_ring([[0, 1], [1, 0]], [[0, 0], [0, 1]]))
    for ring in rings:
        assert type(ring) is FiniteRing, ring.name
        for table in (ring.add_table, ring.mul_table, ring.neg_table):
            assert table.dtype == dtype_for(ring.order), ring.name
            assert not table.flags.writeable, ring.name
    assert core.TableRing is FiniteRing
    assert not hasattr(FiniteRing, "add_row") and not hasattr(FiniteRing, "mul_row")


def test_group_rings_name_their_group():
    table_c2 = {"table": {"mul": [[0, 1], [1, 0]], "identity": 0, "labels": ["e", "g"]}}
    names = [build({"group_ring": {"base": Z2, "group": group}}).name
             for group in ("klein_four", "quaternion8", {"dihedral": 3}, table_c2)]
    assert names == ["Z2[V4]", "Z2[Q8]", "Z2[D3]", "Z2[G]"]


def test_every_constructor_output_validates(small_catalog):
    for entry in small_catalog:
        assert validate_axioms(entry.ring).ok, entry.name


# A commutative loop of order 6: a Latin square with zero 0 and inverses,
# yet (2+2)+4 = 3 while 2+(2+4) = 2.
_LOOP6 = [
    [0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
    [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3],
]


@pytest.mark.parametrize("m_add", [_LOOP6, [[0, 1, 2], [1, 2, 0], [2, 0, 0]]])
def test_non_associative_module_addition_rejected(z2, m_add):
    n = len(m_add)
    act = [list(range(n)) for _ in range(2)]
    with pytest.raises(RingConstructionError, match="^module addition is not associative$"):
        formal_triangular(z2, z2, {"add": m_add}, act, [list(r) for r in zip(*act)])
    with pytest.raises(RingConstructionError, match="^module addition is not associative$"):
        ideal_extension(z2, {"add": m_add}, act, [list(r) for r in zip(*act)])


def _as_arrays(value):
    """``value`` with every list, in dicts too, turned into a numpy array."""
    if isinstance(value, dict):
        return {key: _as_arrays(item) for key, item in value.items()}
    return np.asarray(value) if isinstance(value, list) else value


def test_numpy_module_tables_build_the_list_spec_ring(z2):
    # An array has no truth value: optional tables are tested for None.
    spec = dict(DEFAULT_SPECS)["IE(Z2,2Z4)"]
    args = _as_arrays(spec["ideal_extension"])
    ring = ideal_extension(z2, args["m"], args["left_action"], args["right_action"])
    ref = build(spec)
    _assert_same_ring(ring, ref)
    assert json.dumps(ring.spec) == json.dumps(ref.spec)


def test_numpy_module_labels_build_the_list_ring(z2):
    m, act = {"add": [[0, 1], [1, 0]], "labels": ["0", "m"]}, [[0, 0], [0, 1]]
    for make in (
        lambda m: formal_triangular(z2, z2, m, act, act),
        lambda m: trivial_morita(z2, z2, m, act, act, m, act, act),
    ):
        ring, ref = make(_as_arrays(m)), make(m)
        _assert_same_ring(ring, ref)
        assert json.dumps(ring.spec) == json.dumps(ref.spec)


_SHORT_LABELS = {"add": [[0, 1], [1, 0]], "labels": ["0"]}
_ACT = [[0, 0], [0, 1]]


@pytest.mark.parametrize("make, module", [
    (lambda z2, m: ideal_extension(z2, m, _ACT, _ACT), "M"),
    (lambda z2, m: formal_triangular(z2, z2, m, _ACT, _ACT), "M"),
    (lambda z2, m: trivial_morita(z2, z2, {"add": m["add"]}, _ACT, _ACT, m, _ACT, _ACT), "N"),
    (lambda z2, m: build({"ideal_extension": {
        "base": {"zn": 2}, "m": m, "left_action": _ACT, "right_action": _ACT}}), "M"),
], ids=["ideal_extension", "formal_triangular", "trivial_morita", "build"])
def test_module_labels_of_the_wrong_length_are_rejected(z2, make, module):
    with pytest.raises(RingConstructionError,
                       match=f"^module {module} has 2 elements but 1 labels$"):
        make(z2, _SHORT_LABELS)


# ---------------------------------------------------------------------------
# the open digit grid against the per-element reference route

_FT_Z2_Z4 = {
    "a": Z2, "b": Z4, "m": {"add": [[0, 1], [1, 0]]},
    "left_action": [[0, 0], [0, 1]], "right_action": [[0, 0, 0, 0], [0, 1, 0, 1]],
}

#: One spec per family that goes through ``_assemble_ring``.
_FAMILY_SPECS = {
    "product": {"product": [Z2, {"zn": 3}, Z4]},
    "matrix": {"matrix": {"n": 2, "base": {"zn": 3}}},
    "triangular": {"triangular": {"n": 3, "base": Z2}},
    "group_ring": {"group_ring": {"base": Z2, "group": "symmetric3"}},
    "trivial_extension": {"trivial_extension": Z4},
    "ideal_extension": dict(DEFAULT_SPECS)["IE(Z4,2Z8)"],
    "formal_triangular": {"formal_triangular": _FT_Z2_Z4},
    "trivial_morita": dict(DEFAULT_SPECS)["MC(Z2,Z2;Z2,Z2)"],
    "skew_trunc_poly": dict(DEFAULT_SPECS)["F4[x;frob]/x^2"],
}


def _assert_same_ring(ring, ref):
    assert type(ring) is type(ref), ring.name
    assert (ring.order, ring.zero, ring.one) == (ref.order, ref.zero, ref.one), ring.name
    for got, want in (
        (ring.add_table, ref.add_table),
        (ring.mul_table, ref.mul_table),
        (ring.neg_table, ref.neg_table),
    ):
        assert got.dtype == want.dtype, ring.name
        assert np.array_equal(got, want), ring.name
    assert ring.labels == ref.labels, ring.name
    assert ring.meta["axis_sizes"] == ref.meta["axis_sizes"], ring.name


@pytest.fixture()
def reference_checked(monkeypatch):
    """Compare every ``_assemble_ring`` call with the reference route.

    Returns the list of the names of the rings compared so far, inner
    builds included.
    """
    checked = []
    grid_route = construct._assemble_ring

    def both_routes(assembly, mul_digits, one_digits, label_fn, spec, name, threshold):
        ring = grid_route(assembly, mul_digits, one_digits, label_fn, spec, name, threshold)
        ref = reference_assembly(assembly, mul_digits, one_digits, label_fn)
        _assert_same_ring(ring, ref)
        checked.append(ring.name)
        return ring

    monkeypatch.setattr(construct, "_assemble_ring", both_routes)
    return checked


def test_grid_assembly_matches_reference_on_catalog(reference_checked):
    assembled = {e.ring.name for e in default_catalog() if "axis_sizes" in e.ring.meta}
    # F4 and F8 are assembled too: GF(p^k) is k axes of Z_p.
    assert len(assembled) == 26 and {"T3(Z4)", "F4", "F8"} <= assembled
    assert assembled <= set(reference_checked)


@pytest.mark.parametrize("spec", _SMALL_SPEC_LIST, ids=str)
def test_grid_assembly_matches_reference_on_small_specs(reference_checked, spec):
    build(spec)


# 4096 lies above the order of every family spec, 1 below all of them.
@pytest.mark.parametrize("threshold", [4096, 1])
@pytest.mark.parametrize("family", sorted(_FAMILY_SPECS))
def test_grid_assembly_matches_reference_per_family(reference_checked, family, threshold):
    if threshold == 1:
        # Refused at the first leaf: no table is ever assembled.
        with pytest.raises(SizeOverflowError):
            build(_FAMILY_SPECS[family], threshold=threshold)
        assert reference_checked == []
        return
    ring = build(_FAMILY_SPECS[family], threshold=threshold)
    assert reference_checked[-1] == ring.name


def test_encoded_neg_equals_derived_neg(suite_ctx):
    # Constructors hand FiniteRing the neg they encode; the order^2 scan
    # they skip must agree with it on every ring.
    rings = [(e.name, e.ring) for e in suite_ctx.entries]
    rings += [(str(spec), build(spec)) for spec in _SMALL_SPEC_LIST]
    for name, ring in rings:
        derived = _derive_neg(ring.add_table, ring.zero)
        assert ring.neg_table.dtype == derived.dtype, name
        assert np.array_equal(ring.neg_table, derived), name


def _principal_ideal_generators(ring):
    """One generator per distinct principal two-sided ideal."""
    seen, gens = set(), []
    for x in ring.elements():
        members = ideal_generated(ring, [x]).members
        if members not in seen:
            seen.add(members)
            gens.append([x])
    return gens


@pytest.mark.parametrize("spec", _SMALL_SPEC_LIST, ids=str)
def test_quotient_matches_the_row_loop(spec):
    ring = build(spec)
    for gens in [jacobson_radical(ring).sorted_ids()] + _principal_ideal_generators(ring):
        q = quotient_ring(ring, gens)
        q_add, q_mul, proj = reference_quotient(ring, gens)
        assert np.array_equal(q.add_table, q_add), (spec, gens)
        assert np.array_equal(q.mul_table, q_mul), (spec, gens)
        assert np.array_equal(q.meta["projection"], proj), (spec, gens)
        assert q.add_table.dtype == q.meta["projection"].dtype == dtype_for(q.order)


def test_quotient_allocates_one_table_beyond_its_own():
    # R/J of M2(F8) is the ring itself (J = 0): 4096^2 cells per table.
    ring = matrix_ring(2, gf(2, 3))
    tracemalloc.start()
    try:
        q = quotient_ring(ring, jacobson_radical(ring).sorted_ids())
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = q.order
    assert n == 4096
    assert peak - kept <= n * n * dtype_for(n).itemsize + 2 ** 20, (peak, kept)


@pytest.mark.parametrize("threshold", [4096, 0])
def test_size_one_axes_take_no_grid_dimension(threshold):
    # 36 and 40 axes: a dimension per axis and side would pass numpy's cap.
    if threshold == 0:
        # A cap of 0 refuses even order 1, by its order, not by numpy's cap.
        with pytest.raises(SizeOverflowError, match="order 1,"):
            matrix_ring(6, zn(1), threshold=threshold)
        with pytest.raises(SizeOverflowError, match="order 1,"):
            group_ring(zn(1), cyclic(40), threshold=threshold)
        return
    m6 = matrix_ring(6, zn(1), threshold=threshold)
    assert (m6.order, m6.meta["axis_sizes"]) == (1, (1,) * 36)
    assert m6.labels == ["(" + ";".join([" ".join(["0"] * 6)] * 6) + ")"]
    z1c40 = group_ring(zn(1), cyclic(40), threshold=threshold)
    assert (z1c40.order, z1c40.meta["axis_sizes"]) == (1, (1,) * 40)
    assert z1c40.labels == ["0"]
    assert z1c40.meta["augmentation"].tolist() == [0]
    for ring in (m6, z1c40):
        assert ring.zero == ring.one == 0
        assert ring.add_table[0].tolist() == ring.mul_table[0].tolist() == [0]


def test_t3z4_build_allocates_at_most_two_tables_beyond_its_own():
    tracemalloc.start()
    try:
        ring = triangular_ring(3, zn(4))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = ring.order
    assert peak - kept <= 2 * n * n * dtype_for(n).itemsize, (peak, kept)


# ---------------------------------------------------------------------------
# the R + M families against their routes before the shared assembly


def _assert_same_extension(ring, ref):
    _assert_same_ring(ring, ref)
    assert (ring.name, json.dumps(ring.spec)) == (ref.name, json.dumps(ref.spec))
    assert sorted(ring.meta) == sorted(ref.meta), ring.name


def test_trivial_extension_matches_its_own_formula(small_catalog):
    for entry in small_catalog:
        _assert_same_extension(trivial_extension(entry.ring),
                               reference_trivial_extension(entry.ring))


def _morita_cases():
    z2, z4 = zn(2), zn(4)
    z2_mod, act = {"add": [[0, 1], [1, 0]], "labels": ["0", "m"]}, [[0, 0], [0, 1]]
    zero_mod = {"add": [[0]]}
    z4_mod = {"add": z4.add_table, "labels": ["0", "x", "2x", "3x"]}
    return {
        "M=N=Z2": (z2, z2, z2_mod, act, act, z2_mod, act, act),
        "M=N=0": (z2, z2, zero_mod, [[0], [0]], [[0, 0]], zero_mod, [[0], [0]], [[0, 0]]),
        "N=0": (z2, z2, z2_mod, act, act, zero_mod, [[0], [0]], [[0, 0]]),
        "M=0": (z2, z2, zero_mod, [[0], [0]], [[0, 0]], z2_mod, act, act),
        # Z4 acts on Z2 through Z4 -> Z2.
        "A=Z2,B=Z4": (z2, z4, z2_mod, act, [[0, 0, 0, 0], [0, 1, 0, 1]],
                      z2_mod, [[0, 0], [0, 1], [0, 0], [0, 1]], act),
        "A=B=M=N=Z4": (z4, z4, z4_mod, z4.mul_table, z4.mul_table,
                       z4_mod, z4.mul_table, z4.mul_table),
    }


@pytest.mark.parametrize("case", sorted(_morita_cases()))
def test_trivial_morita_matches_the_loops(case):
    args = _morita_cases()[case]
    _assert_same_extension(trivial_morita(*args), reference_trivial_morita(*args))


def test_catalog_morita_context_matches_the_loops():
    spec = dict(DEFAULT_SPECS)["MC(Z2,Z2;Z2,Z2)"]
    args = spec["trivial_morita"]
    args = (build(args["a"]), build(args["b"]), args["m"], args["m_left"], args["m_right"],
            args["n"], args["n_left"], args["n_right"])
    ref = reference_trivial_morita(*args)
    _assert_same_ring(build(spec), ref)
    _assert_same_extension(trivial_morita(*args), ref)


def test_catalog_ideal_extensions_match_their_own_assembly():
    specs = [spec for _, spec in DEFAULT_SPECS if "ideal_extension" in spec]
    assert len(specs) == 2
    for spec in specs:
        args = spec["ideal_extension"]
        args = build(args["base"]), args["m"], args["left_action"], args["right_action"]
        ring, ref = build(spec), reference_ideal_extension(*args)
        _assert_same_ring(ring, ref)
        _assert_same_extension(ideal_extension(*args), ref)
        assert ring.meta["hypotheses"] == ref.meta["hypotheses"], ring.name


def _ideal_tables(ring, ids):
    """M = the ideal on ``ids`` with its own ids, and ring acting on it by multiplication."""
    lookup = np.full(ring.order, -1)
    lookup[ids] = np.arange(len(ids))
    block = np.ix_(ids, ids)
    m = {"add": lookup[ring.add_table[block]], "mul": lookup[ring.mul_table[block]]}
    return m, lookup[ring.mul_table[:, ids]], lookup[ring.mul_table[ids, :]]


def test_ideal_extension_hypotheses_match_the_scalar_loops():
    # R + I for ideals I of small commutative rings R, R acting by its
    # product: (r,m)(s,n) = (rs, rn + ms + mn) is the ring R x R read
    # through (r, m) -> (r, r + m), and m is quasi-regular iff I lies in J.
    rng = np.random.default_rng(20261018)
    flags = set()
    for spec in _SMALL_SPEC_LIST:
        ring = build(spec)
        if ring.order > 16 or not (ring.mul_table == ring.mul_table.T).all():
            continue
        radical = set(jacobson_radical(ring).sorted_ids())
        for _ in range(3):
            gens = rng.choice(ring.order, size=rng.integers(1, 3)).tolist()
            ids = ideal_generated(ring, gens).sorted_ids()
            m, lam, rho = _ideal_tables(ring, ids)
            ie, ref = ideal_extension(ring, m, lam, rho), reference_ideal_extension(ring, m, lam, rho)
            _assert_same_extension(ie, ref)
            quasi = ie.meta["hypotheses"]["m_quasi_regular"]
            assert ie.meta["hypotheses"] == ref.meta["hypotheses"], (spec, gens)
            assert quasi == scalar_m_quasi_regular(m["add"], m["mul"], 0) == (set(ids) <= radical)
            flags.add(quasi)
    assert flags == {True, False}


# Bimodule laws: one failing action table per law.  F4 (ids 0, 1, w,
# w+1) acts on M = Z2 x Z2 (addition is XOR) through its product.
_V4 = [[a ^ b for b in range(4)] for a in range(4)]
_F4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
_LEFT_LAWS = {
    "shape": ([[0]], (4, 4)),
    "unital": ([[0] * 4] * 4, (1,)),
    "additive-in-ring": ([[0, 1, 2, 3]] + _F4_MUL[1:], (0, 0, 1)),
    # w.m = 1 for every m: not additive in m.
    "additive-in-module": ([[0, 0, 0, 0], [0, 1, 2, 3], [1, 1, 1, 1], [1, 0, 3, 2]], (2, 0, 0)),
    # w.m = 0 but (w*w).m = (w+1).m = m.
    "associative": ([[0, 0, 0, 0], [0, 1, 2, 3], [0, 0, 0, 0], [0, 1, 2, 3]], (2, 2, 1)),
}
_RIGHT_WITNESSES = {"shape": (4, 4), "unital": (1,), "additive-in-ring": (1, 0, 0),
                    "additive-in-module": (0, 0, 2), "associative": (1, 2, 2)}


def _transpose(table):
    return [list(row) for row in zip(*table)]


def _bimodule_family(family, base, m_add, lam, rho):
    """Build ``family`` with M = (m_add, lam, rho) over ``base`` on both sides."""
    m, zero = {"add": m_add}, ({"add": [[0]]}, [[0]] * base.order, [[0] * base.order])
    if family == "ideal_extension":
        return ideal_extension(base, m, lam, rho)
    if family == "formal_triangular":
        return formal_triangular(base, base, m, lam, rho)
    if family == "trivial_morita-m":
        return trivial_morita(base, base, m, lam, rho, *zero)
    return trivial_morita(base, base, *zero, m, lam, rho)


_BIMODULE_FAMILIES = {"ideal_extension": "", "formal_triangular": "",
                      "trivial_morita-m": "m-", "trivial_morita-n": "n-"}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("law", sorted(_LEFT_LAWS))
@pytest.mark.parametrize("family", sorted(_BIMODULE_FAMILIES))
def test_each_action_law_keeps_its_name_and_witness(f4, family, law, side):
    bad, witness = _LEFT_LAWS[law]
    lam, rho = (bad, _F4_MUL) if side == "left" else (_F4_MUL, _transpose(bad))
    if side == "right":
        witness = _RIGHT_WITNESSES[law]
    with pytest.raises(BimoduleError) as err:
        _bimodule_family(family, f4, _V4, lam, rho)
    assert err.value.law == f"{_BIMODULE_FAMILIES[family]}{side}-{law}"
    assert err.value.witness == witness


def _m2_transpose_actions(m2z2):
    """x.m = xm and m.y = y^T m: two actions of M2(Z2) on itself that do not commute."""
    transpose = [m2z2.id_of(f"({l[1]} {l[5]};{l[3]} {l[7]})") for l in m2z2.labels]
    rho = np.array([[m2z2.mul(transpose[y], m) for y in range(m2z2.order)]
                    for m in range(m2z2.order)])
    return m2z2.mul_table, rho


@pytest.mark.parametrize("family", sorted(_BIMODULE_FAMILIES))
def test_bimodule_compat_is_checked_per_module(m2z2, family):
    lam, rho = _m2_transpose_actions(m2z2)
    with pytest.raises(BimoduleError) as err:
        _bimodule_family(family, m2z2, m2z2.add_table, lam, rho)
    assert err.value.law == f"{_BIMODULE_FAMILIES[family]}bimodule-compat"
    assert err.value.witness == (1, 1, 2)


@pytest.mark.parametrize("module, witness", [("m", (16, 1, 2)), ("n", (1, 1, 32))])
def test_morita_compat_was_found_on_the_combined_module(m2z2, module, witness):
    # The loops validate V = M + N over A x B once more, where the
    # failure surfaces as "bimodule-compat" at ids of V and A x B.
    lam, rho = _m2_transpose_actions(m2z2)
    m = ({"add": m2z2.add_table}, lam, rho)
    zero = ({"add": [[0]]}, [[0]] * 16, [[0] * 16])
    args = (m + zero) if module == "m" else (zero + m)
    with pytest.raises(BimoduleError) as err:
        reference_trivial_morita(m2z2, m2z2, *args)
    assert (err.value.law, err.value.witness) == ("bimodule-compat", witness)


# Z2 x Z2 (ids 2a + b) acting on Z2 x Z2: by its product on the left,
# through its first coordinate on the right.
_PRODUCT_ACTIONS = (
    [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]],
    [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 2, 2], [0, 0, 3, 3]],
)


#: law -> (base, M tables, left action, right action, witness).
_IDEAL_EXTENSION_LAWS = {
    "m-associative": ("f4", {"add": _V4, "mul": [[0] * 4, [0] * 4, [0, 1, 0, 1], [0, 1, 0, 1]]},
                      _F4_MUL, _F4_MUL, (2, 2, 1)),
    "m-left-distributive": ("z2", {"add": [[0, 1], [1, 0]], "mul": [[1, 1], [1, 1]]},
                            _ACT, _ACT, (0, 0, 0)),
    "m-right-distributive": ("z2", {"add": [[0, 1], [1, 0]], "mul": [[0, 1], [0, 1]]},
                             _ACT, _ACT, (0, 0, 1)),
    "compat-(mn)r=m(nr)": ("f4", {"add": _V4, "mul": [[0] * 4, [0] * 4, [0, 0, 1, 1], [0, 0, 1, 1]]},
                           _F4_MUL, _F4_MUL, (2, 1, 2)),
    "compat-(mr)n=m(rn)": ("f4", {"add": _V4, "mul": [[0] * 4, [0] * 4, [0, 1, 2, 3], [0, 1, 2, 3]]},
                           _F4_MUL, _F4_MUL, (1, 2, 1)),
    "compat-(rm)n=r(mn)": ("z2xz2", {"add": _V4, "mul": [[0] * 4, [0] * 4, [0, 0, 1, 1], [0, 0, 1, 1]]},
                           *_PRODUCT_ACTIONS, (1, 2, 2)),
}


@pytest.mark.parametrize("law", sorted(_IDEAL_EXTENSION_LAWS))
def test_ideal_extension_ring_laws_keep_their_names(request, law):
    base, m, lam, rho, witness = _IDEAL_EXTENSION_LAWS[law]
    ring = product_ring([zn(2), zn(2)]) if base == "z2xz2" else request.getfixturevalue(base)
    with pytest.raises(BimoduleError) as err:
        ideal_extension(ring, m, lam, rho)
    assert (err.value.law, err.value.witness) == (law, witness)


def test_ideal_extension_refuses_a_non_associative_ring():
    # F4 acts on M = F4 by r.m = frob(r)m and m.r = mr, with the field
    # product on M: every action law holds, but (mr)n != m(rn).
    frob = [0, 1, 3, 2]
    lam = [[_F4_MUL[frob[r]][m] for m in range(4)] for r in range(4)]
    with pytest.raises(BimoduleError) as err:
        ideal_extension(gf(2, 2), {"add": _V4, "mul": _F4_MUL}, lam, _F4_MUL)
    assert (err.value.law, err.value.witness) == ("compat-(mr)n=m(rn)", (1, 2, 1))


def test_ideal_extension_by_a_non_commutative_ideal_builds(t2z2):
    # T2(Z2) + T2(Z2), both actions the product of T2(Z2): a ring.
    m = {"add": t2z2.add_table.tolist(), "mul": t2z2.mul_table.tolist()}
    ie = ideal_extension(t2z2, m, t2z2.mul_table, t2z2.mul_table)
    assert ie.order == 64
    report = validate_axioms(ie)
    assert report.ok and report.mode == "full", report
