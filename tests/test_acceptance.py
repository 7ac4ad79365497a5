"""Acceptance gate: one test per criterion, each printing a verdict line.

Criteria:
  1. exact reproduction of the flagship examples
  2. full verification suite green via the CLI within the time budget
  3. oracle equivalence (decompositions, radical) on rings of order <= 64
  4. implication-diagram sweep plus 1000 mutation negative tests
  5. known-value invariant spot checks
  6. byte-identical verify output across runs and worker counts
"""

import hashlib
import io
import json
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from ringlab import (
    classify,
    clean_decompositions,
    gf,
    idempotents,
    jacobson_radical,
    poly_is_clean,
    poly_is_cusc,
    poly_view,
    table_ring,
    triangular_ring,
    ucn0,
    units,
    zn,
)
from ringlab.cli import main
from ringlab.errors import RingConstructionError
from ringlab.invariants import maximal_members, one_sided_ideals
from oracles import diagram_implications, naive_decompositions

REQUIRED_CHECK_IDS = (
    "prop2.1", "prop2.2", "prop2.4", "prop2.5", "cor2.6", "cor2.7", "lemma2.8",
    "cor2.14", "prop2.18", "prop2.19", "thm3.1", "cor3.2", "prop3.3", "thm3.4",
    "cor3.5", "cor3.6", "cor3.8", "thm3.9", "thm3.10", "thm3.11", "lemma4.1",
    "prop4.4", "thm4.3",
)


def _announce(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def verify_runs():
    """Two full CLI verify runs with different worker counts."""
    outputs = {}
    for jobs in (2, 1):
        buf = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(buf):
            code = main(["verify", "--json", "--jobs", str(jobs)])
        outputs[jobs] = (code, buf.getvalue(), time.perf_counter() - start)
    return outputs


def test_criterion_1_example_reproduction(t2z2):
    start = time.perf_counter()
    c = classify(t2z2)
    ok = (
        c.is_USC is True and c.is_CUSC is True and c.is_UUC is True
        and c.is_CUC is False and c.is_UC is False and c.is_abelian is False
    )
    classify_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    view = poly_view(zn(2))
    ok = ok and poly_is_cusc(view)[0] is True
    ok = ok and poly_is_clean(view) is False
    poly_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    witness = t2z2.id_of("(1 1;0 0)")
    ok = ok and witness is not None
    ok = ok and witness not in set(ucn0(t2z2).tolist())
    ok = ok and classify(t2z2).is_USC
    ucn_elapsed = time.perf_counter() - start

    ok = ok and classify_elapsed < 1.0 and poly_elapsed < 1.0 and ucn_elapsed < 1.0
    _announce(1, "example reproduction", ok)


def test_criterion_2_suite_green(verify_runs):
    code, out, elapsed = verify_runs[2]
    doc = json.loads(out)
    ok = code == 0 and doc["all_pass"] is True
    ids = {c["id"] for c in doc["checks"]}
    ok = ok and all(required in ids for required in REQUIRED_CHECK_IDS)
    ok = ok and all(c["aggregate"] == "pass" for c in doc["checks"])
    orders = [r["order"] for r in doc["catalog"]]
    ok = ok and len(orders) >= 25 and min(orders) >= 2 and max(orders) <= 4096
    ok = ok and elapsed < 300.0
    _announce(2, "verification suite green", ok)


def test_criterion_3_oracle_equivalence(suite_ctx):
    ok = True
    for entry in suite_ctx.entries:
        ring = entry.ring
        if ring.order > 64:
            continue
        for a in ring.elements():
            primary = [
                (d.idempotent, d.unit, d.commuting)
                for d in clean_decompositions(ring, a)
            ]
            if primary != naive_decompositions(ring, a):
                ok = False
        meet = set(range(ring.order))
        for m in maximal_members(one_sided_ideals(ring, "left"), ring.order):
            meet &= m
        if meet != set(jacobson_radical(ring).tolist()):
            ok = False
    _announce(3, "oracle equivalence", ok)


def test_criterion_4_diagram_and_mutations(suite_ctx):
    ok = True
    for entry in suite_ctx.entries:
        c = classify(entry.ring)
        for name, holds in diagram_implications(c):
            if not holds:
                ok = False
    rng = np.random.default_rng(0x51AB)
    bases = [zn(n) for n in (2, 3, 4, 5, 6, 8)] + [gf(2, 2), triangular_ring(2, zn(2))]
    tables = [
        (np.asarray(r.add_table, dtype=np.int64), np.asarray(r.mul_table, dtype=np.int64))
        for r in bases
    ]
    rejected = 0
    for _ in range(1000):
        add, mul = tables[int(rng.integers(len(tables)))]
        add, mul = add.copy(), mul.copy()
        target = add if rng.integers(2) == 0 else mul
        n = len(add)
        i, j = int(rng.integers(n)), int(rng.integers(n))
        old = target[i, j]
        new = int(rng.integers(n - 1))
        if new >= old:
            new += 1
        target[i, j] = new
        try:
            table_ring(add, mul)
        except RingConstructionError:
            rejected += 1
    ok = ok and rejected == 1000
    _announce(4, "implication diagram and mutation rejection", ok)


def test_criterion_5_spot_checks(z4, z6, t2z2, m2z2):
    ok = idempotents(z6).tolist() == [0, 1, 3, 4]
    ok = ok and units(z4).tolist() == [1, 3]
    strictly_upper = {"(0 0;0 0)", "(0 1;0 0)"}
    ok = ok and {t2z2.label_of(i) for i in jacobson_radical(t2z2)} == strictly_upper
    a = m2z2.id_of("(1 1;1 0)")
    b = m2z2.id_of("(0 1;1 1)")
    unit_set = set(units(m2z2).tolist())
    ok = ok and a in unit_set and b in unit_set
    ok = ok and m2z2.add(a, b) == m2z2.one
    _announce(5, "known-value spot checks", ok)


#: sha256 of ``verify --json`` with default settings, pinned so that a
#: refactor of the caches or kernels cannot change the report unnoticed.
#: The report lists ``threshold`` among its settings, so a new default
#: order limit changes it too.
VERIFY_JSON_SHA256 = "de53fba80d5bedf51af899b101db1dba5f8c1447ceda8e9374da19224dc08b44"


def test_criterion_6_determinism(verify_runs):
    code2, out2, _ = verify_runs[2]
    code1, out1, _ = verify_runs[1]
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 1000
    ok = ok and hashlib.sha256(out1.encode()).hexdigest() == VERIFY_JSON_SHA256
    _announce(6, "byte-identical verify output", ok)
