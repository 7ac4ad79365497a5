import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from ringlab import Group, RingConstructionError, SpecError, cyclic, dihedral, group_from_spec, klein_four, quaternion8, symmetric3
from ringlab import groups
from oracles import element_order, reference_is_two_group
from test_construct import _SCHEMA


@pytest.mark.parametrize("group,order,two_group", [
    (cyclic(1), 1, True),
    (cyclic(2), 2, True),
    (cyclic(3), 3, False),
    (cyclic(4), 4, True),
    (cyclic(6), 6, False),
    (klein_four(), 4, True),
    (dihedral(3), 6, False),
    (dihedral(4), 8, True),
    (symmetric3(), 6, False),
    (quaternion8(), 8, True),
])
def test_families_validate(group, order, two_group):
    assert group.order == order
    assert group.is_two_group == two_group
    for a in range(group.order):
        assert group.mul(a, group.identity) == a
        assert group.mul(group.inverse[a], a) == group.identity


def test_quaternion_relations():
    q8 = quaternion8()
    i, j, k = q8.labels.index("i"), q8.labels.index("j"), q8.labels.index("k")
    minus_one = q8.labels.index("-1")
    assert q8.mul(i, i) == minus_one
    assert q8.mul(j, j) == minus_one
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == q8.labels.index("-k")


def test_symmetric3_nonabelian():
    s3 = symmetric3()
    assert any(
        s3.mul(a, b) != s3.mul(b, a)
        for a in range(6) for b in range(6)
    )


def test_invalid_table_rejected():
    with pytest.raises(RingConstructionError):
        Group([[0, 1], [1, 1]], 0)  # row 1 repeats: not a permutation
    with pytest.raises(RingConstructionError):
        Group([[1, 0], [0, 1]], 0)  # 0 is not an identity


@pytest.mark.parametrize("n", range(1, 7))
def test_dihedral_table_follows_its_product_rule(n):
    d = dihedral(n)
    for k1, i1, k2, i2 in itertools.product((0, 1), range(n), (0, 1), range(n)):
        assert d.mul(k1 * n + i1, k2 * n + i2) == (k1 ^ k2) * n + ((-1) ** k2 * i1 + i2) % n


def test_label_count_must_match_order():
    assert Group([[0, 1], [1, 0]], 0, labels=np.array(["e", "g"])).labels == ["e", "g"]
    with pytest.raises(RingConstructionError, match="2 elements but 1 labels"):
        Group([[0, 1], [1, 0]], 0, labels=["e"])


def test_schema_codec_and_docs_list_the_same_group_kinds():
    alternatives = json.loads(_SCHEMA.read_text())["$defs"]["groupspec"]["oneOf"]
    bare = sorted(kind for alt in alternatives for kind in alt.get("enum", []))
    keyed = sorted(kind for alt in alternatives for kind in alt.get("required", []))
    doc = (Path(__file__).parents[1] / "docs" / "ringspec_schema.md").read_text()
    section = doc.split("## Group specs", 1)[1].split("\n## ", 1)[0]
    assert sorted(re.findall(r'`"(\w+)"`', section)) == bare
    assert sorted(re.findall(r'`\{"(\w+)":', section)) == keyed
    assert sorted(k for k, row in groups._KINDS.items() if row.args is None) == bare
    assert sorted(k for k, row in groups._KINDS.items() if row.args is not None) == keyed
    assert len(bare) + len(keyed) == 6


def test_group_from_spec_roundtrip():
    assert group_from_spec({"cyclic": 5}).order == 5
    assert group_from_spec("klein_four").name == "V4"
    assert group_from_spec({"dihedral": 4}).order == 8
    table = cyclic(3).table.tolist()
    g = group_from_spec({"table": {"mul": table, "identity": 0}})
    assert g.order == 3


def test_group_order_refuses_a_non_positive_parameter():
    assert groups.group_order({"dihedral": 3}) == 6
    for gspec in ({"cyclic": 0}, {"dihedral": -1}):
        with pytest.raises(SpecError, match="must be positive"):
            groups.group_order(gspec)


def test_element_orders_power_of_two_definition():
    d4 = dihedral(4)
    orders = {element_order(d4, a) for a in range(8)}
    assert orders == {1, 2, 4}


_NAMED_GROUPS = ([cyclic(n) for n in range(1, 13)] + [dihedral(n) for n in range(1, 7)]
                 + [klein_four(), symmetric3(), quaternion8()])


@pytest.mark.parametrize("group", _NAMED_GROUPS, ids=lambda g: g.name)
def test_two_group_closed_form_matches_element_orders(group):
    # Cauchy and Lagrange: every element order is a power of two iff |G| is.
    assert group.is_two_group == reference_is_two_group(group)
