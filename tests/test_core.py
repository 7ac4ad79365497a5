import tracemalloc
import types

import numpy as np
import pytest

import ringlab
from ringlab import (
    RingConstructionError,
    corner_ring,
    ideal_generated,
    idempotents_lift_mod,
    opposite_ring,
    quotient_ring,
    subring_generated,
    table_ring,
    triangular_ring,
    validate_axioms,
    zn,
)
from ringlab.invariants import is_two_sided_ideal
from ringlab.core import FiniteRing, additive_generators, join_cyclic
from oracles import naive_axioms, naive_units, reference_additive_generators
from test_invariants import _SMALL_SPEC_LIST


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


@pytest.mark.parametrize("derive", [
    lambda b: quotient_ring(b, []), opposite_ring,
    lambda b: corner_ring(b, b.one), lambda b: subring_generated(b, []),
], ids=["quotient", "opposite", "corner", "subring"])
def test_a_derived_ring_checks_its_base(derive):
    # A quotient, opposite or subring has its base's axioms, so the base
    # is what is checked, and the error names it.
    add, mul = zn_tables(4)
    mul[2][2] = 1
    broken = FiniteRing(np.array(add), np.array(mul), 0, 1, name="Z4'")
    with pytest.raises(RingConstructionError,
                       match=r"^Z4' fails axiom left-distributivity at \(2, 1, 1\)$"):
        derive(broken)


def test_one_axiom_report_per_ring_and_mode(monkeypatch):
    computed = []
    compute = ringlab.core._axiom_report
    base = zn(8)
    monkeypatch.setattr(ringlab.core, "_axiom_report",
                        lambda ring, mode, cache: computed.append(mode) or compute(ring, mode, cache))
    # Order 512: sampled at the build limit, in full at the default one.
    t2 = triangular_ring(2, base)
    assert computed == ["sampled"]
    full = validate_axioms(t2)
    assert (full.ok, full.mode, full.triples_checked) == (True, "full", 512 ** 3)
    assert validate_axioms(t2, limit=1000) is full
    assert validate_axioms(t2, limit=256) is validate_axioms(t2, limit=511)
    assert computed == ["sampled", "full"]


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


def test_table_ring_from_narrow_arrays_copies_each_table_once():
    # Both tables are range-checked in their own uint16 and copied once;
    # int64 copies of the two would peak near 5x the tables kept.
    n = 1024
    idx = np.arange(n)
    add = ((idx[:, None] + idx) % n).astype(np.uint16)
    mul = ((idx[:, None] * idx) % n).astype(np.uint16)
    tracemalloc.start()
    try:
        ring = table_ring(add, mul)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ring.add_table.dtype == np.uint16
    assert np.array_equal(ring.mul_table, mul) and add.flags.writeable
    ratio = peak / (ring.add_table.nbytes + ring.mul_table.nbytes)
    assert ratio <= 1.4, ratio


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


@pytest.mark.parametrize("call", [
    ideal_generated, subring_generated, is_two_sided_ideal, idempotents_lift_mod,
    quotient_ring, lambda ring, ids: corner_ring(ring, ids[0]),
], ids=["ideal_generated", "subring_generated", "is_two_sided_ideal", "idempotents_lift_mod",
        "quotient_ring", "corner_ring"])
@pytest.mark.parametrize("bad", [-1, 4])
def test_out_of_range_ids_are_refused(z4, call, bad):
    # -1 is not read as element 3, nor 4 as an index error.
    message = rf"^element ids must lie in 0\.\.3, got \[{bad}\]$"
    with pytest.raises(RingConstructionError, match=message):
        call(z4, [bad])


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


def test_additive_generators_match_the_greedy_reference(suite_ctx):
    # The axiom witnesses name generators: their ids and order both count.
    rings = [e.ring for e in suite_ctx.entries] + [ringlab.build(s) for s in _SMALL_SPEC_LIST]
    for ring in rings:
        got = additive_generators(ring.add_table, ring.zero).tolist()
        assert got == reference_additive_generators(ring), ring.name


class _ReadBudget(np.ndarray):
    """A table whose reads count down a budget: a walk that never ends fails."""

    def __getitem__(self, key):
        self.budget -= 1
        assert self.budget >= 0, "the walk did not stop"
        return np.asarray(self)[key]


def test_multiples_walk_stops_on_a_table_that_is_no_group():
    # Commutative, 0 an identity row and a 0 in every row, but
    # (1+1)+2 = 0 while 1+(1+2) = 2.  The multiples of 1 run 1, 2, 3,
    # 2, ...: the walk never comes back to 0 or to 1.
    add = np.array([[0, 1, 2, 3, 4],
                    [1, 2, 3, 2, 0],
                    [2, 3, 0, 4, 1],
                    [3, 2, 4, 0, 1],
                    [4, 0, 1, 1, 2]])
    assert (add == add.T).all() and (add == 0).any(axis=1).all()
    n = len(add)
    table = add.view(_ReadBudget)
    # At most n steps per walk, two reads per step.
    table.budget = 2 * n
    zero = np.zeros(n, dtype=bool)
    zero[0] = True
    assert np.flatnonzero(join_cyclic(table, zero, 1)).tolist() == [0, 1, 2, 3]
    table.budget = 2 * n * n
    assert additive_generators(table, 0).tolist() == [1, 4]


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
