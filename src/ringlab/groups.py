"""Finite groups as validated multiplication tables, and the group-spec codec.

Groups feed the group-ring constructor.  Named families cover the
catalog's needs; arbitrary groups can be supplied as raw tables and are
validated exhaustively either way.

Each group-spec kind is one row of ``_KINDS``: its argument shape, and
its order, name and group.  ``Group.spec`` rebuilds a group: a named
family records its own spec, any other group its table.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import _derive_neg, as_table, check_law, element_ids, identity_row, repeated_row
from .errors import RingConstructionError, SpecError


class Group:
    """Finite group on ids 0..order-1 with a full multiplication table."""

    def __init__(
        self,
        table,
        identity: int,
        labels: Optional[Sequence[str]] = None,
        name: str = "G",
    ):
        n = len(table)
        self.table = as_table(table, (n, n), n, RingConstructionError("group table malformed"))
        self.order = n
        self.identity = int(element_ids([identity], n)[0])
        if labels is not None and len(labels) != n:
            raise RingConstructionError(f"group has {n} elements but {len(labels)} labels")
        self.labels = [str(i) for i in range(n)] if labels is None else list(labels)
        self.name = name
        self._validate()
        self.inverse = _derive_neg(self.table, self.identity, "group element")
        self.spec = {"table": {"mul": self.table.tolist(), "identity": self.identity,
                               "labels": self.labels, "name": name}}

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def _validate(self):
        t = self.table
        if identity_row(t, two_sided=True) != self.identity:
            raise RingConstructionError("group identity is not an identity")
        # Latin rows and columns: with the identity, every element has an inverse.
        bad = [a for a in (repeated_row(t), repeated_row(t.T)) if a is not None]
        if bad:
            raise RingConstructionError(f"group row/column {min(bad)} is not a permutation")
        check_law(
            lambda w: RingConstructionError(
                "group multiplication not associative at ({},{},{})".format(*w)),
            (self.order,) * 3,
            lambda a, b, c: t[t[a, b], c], lambda a, b, c: t[a, t[b, c]])

    @property
    def is_two_group(self) -> bool:
        """Whether |G| is a power of two.

        By Lagrange every element's order divides |G|, and by Cauchy an
        odd prime dividing |G| is the order of some element, so this is
        exactly when every element's order is a power of two.
        """
        return self.order & (self.order - 1) == 0

    def __repr__(self):
        return f"<Group {self.name} order={self.order}>"


def _positive(n, what: str) -> int:
    n = int(n)
    if n < 1:
        raise SpecError(f"{what} must be positive, got {n}")
    return n


def _named(spec, table, identity: int, labels: Sequence[str]) -> Group:
    """A named family's group: named by the kind table, recording ``spec``."""
    group = Group(table, identity, labels, name=group_name(spec))
    group.spec = spec
    return group


def cyclic(n: int) -> Group:
    n = _positive(n, "cyclic group order")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    labels = ["1"] + ["g" if i == 1 else f"g^{i}" for i in range(1, n)]
    return _named({"cyclic": n}, table, 0, labels)


def klein_four() -> Group:
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return _named("klein_four", table, 0, ["1", "a", "b", "ab"])


def dihedral(n: int) -> Group:
    """Symmetries of the regular n-gon, order 2n; ids (flip, rotation)."""
    n = _positive(n, "dihedral parameter")
    # (k1, i1)(k2, i2) = (k1 ^ k2, (-1)^k2 * i1 + i2) on ids k * n + i.
    k, i = np.divmod(np.arange(2 * n), n)
    table = (k[:, None] ^ k) * n + (i[:, None] * (1 - 2 * k) + i) % n
    labels = []
    for k in (0, 1):
        for i in range(n):
            rot = "1" if i == 0 else ("r" if i == 1 else f"r^{i}")
            labels.append(rot if k == 0 else ("s" if i == 0 else f"s{rot}"))
    return _named({"dihedral": n}, table, 0, labels)


def symmetric3() -> Group:
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    table = np.zeros((order, order), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[k]] for k in range(3))
            table[i, j] = index[comp]
    labels = [_cycle_label(p) for p in perms]
    return _named("symmetric3", table, index[(0, 1, 2)], labels)


def _cycle_label(perm: tuple) -> str:
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x + 1)
            x = perm[x]
        cycles.append("(" + "".join(str(v) for v in cyc) + ")")
    return "".join(cycles) if cycles else "e"


def quaternion8() -> Group:
    """The quaternion group {±1, ±i, ±j, ±k}."""
    # Basis products as (sign, axis) with axes 1,i,j,k = 0..3.
    basis = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def enc(sign, axis):  # ids: +1,-1,+i,-i,+j,-j,+k,-k
        return axis * 2 + (0 if sign > 0 else 1)

    table = np.zeros((8, 8), dtype=np.int64)
    for a in range(8):
        for b in range(8):
            s1, x1 = (1 if a % 2 == 0 else -1), a // 2
            s2, x2 = (1 if b % 2 == 0 else -1), b // 2
            s, x = basis[(x1, x2)]
            table[a, b] = enc(s1 * s2 * s, x)
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return _named("quaternion8", table, 0, labels)


# ---------------------------------------------------------------------------
# the group-spec codec: one row per kind


class _Kind(NamedTuple):
    """A group-spec kind: its argument shape (None for a bare name), order, name and group."""

    args: object
    order: Callable[[object], int]
    name: Callable[[object], str]
    make: Callable[[object], Group]


#: Every group-spec kind; :func:`ringlab.construct.validate_spec` checks its ``args`` shape.
_KINDS: dict[str, _Kind] = {
    "cyclic": _Kind("pos", lambda n: _positive(n, "cyclic group order"), lambda n: f"C{n}", cyclic),
    "dihedral": _Kind("pos", lambda n: 2 * _positive(n, "dihedral parameter"),
                      lambda n: f"D{n}", dihedral),
    "klein_four": _Kind(None, lambda _: 4, lambda _: "V4", lambda _: klein_four()),
    "symmetric3": _Kind(None, lambda _: 6, lambda _: "S3", lambda _: symmetric3()),
    "quaternion8": _Kind(None, lambda _: 8, lambda _: "Q8", lambda _: quaternion8()),
    "table": _Kind({"mul": "table", "identity?": "id", "labels?": ["str"], "name?": "str"},
                   lambda a: len(a["mul"]), lambda a: a.get("name", "G"),
                   lambda a: Group(a["mul"], a.get("identity", 0), a.get("labels"),
                                   name=a.get("name", "G"))),
}


def _kind_of(gspec) -> tuple[_Kind, object]:
    """The table row of a group spec, and the spec's arguments."""
    node = {gspec: None} if isinstance(gspec, str) else gspec
    if isinstance(node, dict) and len(node) == 1:
        (kind, args), = node.items()
        row = _KINDS.get(kind)
        if row is not None and (row.args is None) == isinstance(gspec, str) == (args is None):
            return row, args
    raise SpecError(f"unrecognized group spec {gspec!r}")


def group_from_spec(gspec) -> Group:
    """Build a group from its JSON spec node."""
    row, args = _kind_of(gspec)
    return row.make(args)


def group_order(gspec) -> int:
    """The order of the group ``gspec`` builds, read without building it."""
    row, args = _kind_of(gspec)
    return row.order(args)


def group_name(gspec) -> str:
    """The display name of the group ``gspec`` builds, read without building it."""
    row, args = _kind_of(gspec)
    return row.name(args)
