import types

import numpy as np
import pytest

import ringlab
from ringlab import (
    RingConstructionError,
    table_ring,
    validate_axioms,
    zn,
)
from ringlab.core import FiniteRing, additive_generators
from oracles import naive_axioms, naive_units


def zn_tables(n):
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return add, mul


def test_z4_tables_validate():
    add, mul = zn_tables(4)
    ring = table_ring(add, mul)
    report = validate_axioms(ring)
    assert report.ok
    assert report.mode == "full"


def test_corrupted_z4_rejected():
    add, mul = zn_tables(4)
    mul[2][2] = 1
    with pytest.raises(RingConstructionError):
        table_ring(add, mul)
    # Validate directly on an unvalidated handle carrying the bad table.
    broken = FiniteRing(np.array(add), np.array(mul), 0, 1)
    report = validate_axioms(broken)
    assert not report.ok
    assert report.axiom in (
        "mul-associativity", "left-distributivity", "right-distributivity"
    )
    assert report.witness is not None


def test_order_one_ring_admitted():
    ring = table_ring([[0]], [[0]])
    assert ring.order == 1
    assert ring.zero == ring.one == 0
    assert validate_axioms(ring).ok


def test_z2_tables():
    ring = table_ring(*zn_tables(2))
    assert ring.order == 2
    assert ring.one == 1
    # Names come from the caller; a ring given none is ring<order>.
    assert ring.name == table_ring(*zn_tables(2), spec={"zn": 2}).name == "ring2"


def test_klein_four_zero_products_lacks_identity():
    add = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    mul = [[0] * 4 for _ in range(4)]
    with pytest.raises(RingConstructionError, match="identity"):
        table_ring(add, mul)


def test_dimension_mismatch():
    add, mul = zn_tables(3)
    with pytest.raises(RingConstructionError, match="mismatch"):
        table_ring(add, [row[:2] for row in mul[:2]])


def test_f4_from_raw_tables_every_nonzero_invertible():
    # Tables of GF(4) built from x^2 + x + 1, elements 0,1,w,w+1.
    # Computed by hand: w^2 = w + 1.
    add = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    ring = table_ring(add, mul)
    inv = naive_units(ring)
    assert set(inv) == {1, 2, 3}


def test_accessor_examples():
    z4 = zn(4)
    assert z4.add(3, 3) == 2
    assert z4.mul(2, 2) == 0
    z6 = zn(6)
    assert z6.mul(3, 4) == 0
    assert z6.sub(1, 3) == 4
    assert z6.neg(2) == 4


def test_one_sided_inverses_are_two_sided(small_catalog):
    for entry in small_catalog:
        ring = entry.ring
        for a in ring.elements():
            for b in ring.elements():
                if ring.mul(a, b) == ring.one:
                    assert ring.mul(b, a) == ring.one, (entry.name, a, b)


def test_validate_samples_above_limit():
    report = validate_axioms(zn(20), limit=10)
    assert (report.mode, report.ok) == ("sampled", True)


def test_labels_roundtrip(t2z2):
    for a in t2z2.elements():
        assert t2z2.id_of(t2z2.label_of(a)) == a


def test_elementset_mask_roundtrip(z4):
    from ringlab import ElementSet

    s = ElementSet(z4, frozenset({1, 3}))
    assert s.mask().tolist() == [False, True, False, True]
    assert ElementSet.from_mask(z4, s.mask()) == s
    assert len(s) == 2 and list(s) == [1, 3]
    with pytest.raises(ValueError):
        ElementSet(z4, frozenset({9}))


class _Tables:
    """Bare add/mul tables with a zero and a one, for the naive oracle."""

    def __init__(self, add, mul, zero, one):
        self.order = len(add)
        self._add, self._mul = add.tolist(), mul.tolist()
        self.zero, self.one = zero, one

    def elements(self):
        return range(self.order)

    def add(self, a, b):
        return self._add[a][b]

    def mul(self, a, b):
        return self._mul[a][b]


def _violates(t: _Tables, axiom: str, w: tuple) -> bool:
    """Whether witness ``w`` really breaks ``axiom`` in tables ``t``."""
    add, mul = t.add, t.mul
    if axiom == "add-commutativity":
        return add(*w) != add(w[1], w[0])
    if axiom == "add-zero":
        return w[0] == t.zero and add(*w) != w[1]
    if axiom == "add-inverse":
        return all(add(w[0], b) != t.zero for b in t.elements())
    if axiom == "mul-left-identity":
        return w[0] == t.one and mul(*w) != w[1]
    if axiom == "mul-right-identity":
        return w[1] == t.one and mul(*w) != w[0]
    a, b, c = w
    if axiom == "add-associativity":
        return add(add(a, b), c) != add(a, add(b, c))
    if axiom == "mul-associativity":
        return mul(mul(a, b), c) != mul(a, mul(b, c))
    if axiom == "left-distributivity":
        return mul(a, add(b, c)) != add(mul(a, b), mul(a, c))
    if axiom == "right-distributivity":
        return mul(add(a, b), c) != add(mul(a, c), mul(b, c))
    raise AssertionError(f"unknown axiom {axiom}")


def _check_against_oracle(add, mul, zero, one) -> str:
    """validate_axioms and naive_axioms agree; returns the failed law."""
    tables = _Tables(add, mul, zero, one)
    expected = naive_axioms(tables)
    try:
        ring = FiniteRing(add, mul, zero, one)
    except RingConstructionError:
        # A row of + without zero: no additive inverse.
        assert not expected
        return "no-inverse"
    report = validate_axioms(ring)
    assert report.ok == expected
    assert report.mode == "full"
    if report.ok:
        return "ok"
    assert _violates(tables, report.axiom, report.witness), report
    return report.axiom


def test_full_validation_matches_naive_oracle(small_catalog):
    for entry in small_catalog:
        ring = entry.ring
        assert naive_axioms(ring), entry.name
        report = validate_axioms(ring)
        assert report.ok and report.triples_checked == ring.order ** 3, entry.name


def test_additive_generators_are_few(small_catalog):
    for entry in small_catalog:
        ring = entry.ring
        gens = additive_generators(ring.add_table, ring.zero)
        assert len(gens) <= max(1, (ring.order - 1).bit_length()), entry.name
    assert additive_generators(zn(8).add_table, 0).tolist() == [1]


def test_seeded_corruptions_match_naive_oracle(small_catalog):
    rng = np.random.default_rng(2024)
    seen = set()
    for entry in small_catalog:
        ring = entry.ring
        n, zero, one = ring.order, ring.zero, ring.one
        add0 = ring.add_table.astype(np.int64)
        mul0 = ring.mul_table.astype(np.int64)
        for _ in range(12):
            # One product cell changed.
            a, b = (int(v) for v in rng.integers(0, n, size=2))
            mul = mul0.copy()
            mul[a, b] = (mul[a, b] + int(rng.integers(1, n))) % n
            seen.add(_check_against_oracle(add0, mul, zero, one))
            # One sum changed in both cells, so + stays commutative and
            # the check has to reach associativity.
            a, b = (int(v) for v in rng.integers(0, n, size=2))
            add = add0.copy()
            add[a, b] = add[b, a] = (add[a, b] + int(rng.integers(1, n))) % n
            seen.add(_check_against_oracle(add, mul0, zero, one))
    assert {"add-associativity", "left-distributivity"} <= seen


def test_distributive_but_not_associative_product_rejected():
    # F2-algebra on 1, x, y with xx = y, xy = yy = 0, yx = x: bilinear
    # and unital, but (xx)x = x while x(xx) = 0.  Ids are bit vectors.
    basis = [[1, 2, 4], [2, 4, 0], [4, 2, 0]]
    ids = range(8)
    add = np.array([[a ^ b for b in ids] for a in ids])
    mul = np.zeros((8, 8), dtype=np.int64)
    for a in ids:
        for b in ids:
            for i in range(3):
                for j in range(3):
                    if a >> i & 1 and b >> j & 1:
                        mul[a, b] ^= basis[i][j]
    assert _check_against_oracle(add, mul, 0, 1) == "mul-associativity"


def test_left_but_not_right_distributive_product_rejected():
    # On F2^2 every row a -> ab is additive, but (2+1)*2 = 0 != 2*2 + 1*2.
    add = np.array([[a ^ b for b in range(4)] for a in range(4)])
    mul = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 0, 3]])
    assert _check_against_oracle(add, mul, 0, 1) == "right-distributivity"


def test_sampled_rows_report_the_bad_mul_column():
    base = zn(30)
    mul = base.mul_table.copy()
    mul[5, 7] = 99
    ring = FiniteRing(base.add_table, mul, 0, 1)
    report = validate_axioms(ring, limit=8)
    assert report.mode == "sampled"
    assert (report.ok, report.axiom, report.witness) == (False, "mul-closure", (5, 7))


def _tile_edge_cells(n):
    edges = sorted({0, 1, 126, 127, 128, 129, 255, 256, n - 1} & set(range(n)))
    return [(r, c) for r in edges for c in edges if r != c]


@pytest.mark.parametrize("n", [256, 300])
def test_tiled_commutativity_witness_is_the_first_asymmetric_cell(n):
    # One corrupted cell per table; the witness must be the first cell of
    # add != add.T in row-major order, wherever the cell sits among the tiles.
    base = zn(n)
    rng = np.random.default_rng(n)
    cells = _tile_edge_cells(n) + [tuple(rc) for rc in rng.integers(0, n, size=(40, 2))]
    for r, c in cells:
        if r == c:
            continue
        add = base.add_table.copy()
        add[r, c] = (int(add[r, c]) + 1 + int(rng.integers(0, n - 1))) % n
        # neg is passed in: a corrupted row may have lost its zero.
        ring = FiniteRing(add, base.mul_table, 0, 1, neg=base.neg_table)
        report = validate_axioms(ring)
        expected = tuple(int(v) for v in np.argwhere(add != add.T)[0])
        assert (report.axiom, report.witness) == ("add-commutativity", expected), (r, c)


def test_additive_generators_are_computed_once_per_ring(monkeypatch):
    from ringlab import build, classify, construct, core, invariants

    seen = []
    real = core.additive_generators

    def counted(add, zero):
        seen.append(add)
        return real(add, zero)

    for module in (core, construct, invariants):
        monkeypatch.setattr(module, "additive_generators", counted)
    # Built and validated in full: Z2, T2(Z2) and TE(T2(Z2)), all <= 256.
    ring = build({"trivial_extension": {"triangular": {"n": 2, "base": {"zn": 2}}}})
    classify(ring)
    assert len({id(add) for add in seen}) == len(seen) == 3
    assert any(add is ring.add_table for add in seen)


#: Every public name of the package, sorted: an API change shows here.
_PUBLIC_NAMES = [
    "BimoduleError",
    "CHECKS",
    "CLASSIFICATION_FIELDS",
    "CatalogEntry",
    "Classification",
    "DEFAULT_THRESHOLD",
    "Decomposition",
    "ElementProfile",
    "ElementSet",
    "EndomorphismError",
    "FiniteRing",
    "Group",
    "IdealError",
    "LatticeLimitError",
    "PolyRingView",
    "RingConstructionError",
    "RinglabError",
    "SizeOverflowError",
    "SpecError",
    "SuiteContext",
    "TheoremReport",
    "UnknownElementError",
    "ValidationReport",
    "build",
    "catalog_from_manifest",
    "center",
    "classify",
    "classify_element_summary",
    "clean_decompositions",
    "corner_ring",
    "cyclic",
    "decomposition_counts",
    "default_catalog",
    "dihedral",
    "element_profile",
    "formal_triangular",
    "gf",
    "group_from_spec",
    "group_ring",
    "ideal_extension",
    "ideal_generated",
    "idempotents",
    "idempotents_lift_mod",
    "jacobson_radical",
    "klein_four",
    "load_catalog_file",
    "matrix_ring",
    "nilpotents",
    "opposite_ring",
    "poly_is_clean",
    "poly_is_cusc",
    "poly_view",
    "product_ring",
    "quaternion8",
    "quotient_ring",
    "resolve_endomorphism",
    "run_suite",
    "skew_trunc_poly",
    "strongly_clean_decompositions",
    "subring_generated",
    "suite_to_json",
    "symmetric3",
    "table_ring",
    "triangular_ring",
    "trivial_extension",
    "trivial_morita",
    "trunc_poly",
    "ucn0",
    "units",
    "validate_axioms",
    "validate_spec",
    "zn",
]


def test_public_names_are_pinned():
    public = sorted(name for name, value in vars(ringlab).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == _PUBLIC_NAMES
