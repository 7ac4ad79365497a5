"""Finite groups as validated multiplication tables.

Groups feed the group-ring constructor.  Named families cover the
catalog's needs; arbitrary groups can be supplied as raw tables and are
validated exhaustively either way.
"""

from __future__ import annotations

from itertools import permutations
from typing import Optional, Sequence

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
        self.labels = list(labels) if labels else [str(i) for i in range(self.order)]
        self.name = name
        self._validate()
        self.inverse = _derive_neg(self.table, self.identity, "group element")

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


def cyclic(n: int) -> Group:
    if n < 1:
        raise SpecError(f"cyclic group order must be positive, got {n}")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    labels = ["1"] + ["g" if i == 1 else f"g^{i}" for i in range(1, n)]
    return Group(table, 0, labels, name=f"C{n}")


def klein_four() -> Group:
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return Group(table, 0, ["1", "a", "b", "ab"], name="V4")


def dihedral(n: int) -> Group:
    """Symmetries of the regular n-gon, order 2n; ids (flip, rotation)."""
    if n < 1:
        raise SpecError(f"dihedral parameter must be positive, got {n}")
    order = 2 * n

    def enc(k, i):
        return k * n + i

    table = np.zeros((order, order), dtype=np.int64)
    for k1 in (0, 1):
        for i1 in range(n):
            for k2 in (0, 1):
                for i2 in range(n):
                    i = (i1 * (-1 if k2 else 1) + i2) % n
                    table[enc(k1, i1), enc(k2, i2)] = enc(k1 ^ k2, i)
    labels = []
    for k in (0, 1):
        for i in range(n):
            rot = "1" if i == 0 else ("r" if i == 1 else f"r^{i}")
            labels.append(rot if k == 0 else ("s" if i == 0 else f"s{rot}"))
    return Group(table, 0, labels, name=f"D{n}")


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
    return Group(table, index[(0, 1, 2)], labels, name="S3")


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
    return Group(table, 0, labels, name="Q8")


def group_from_spec(gspec) -> Group:
    """Build a group from its JSON spec node."""
    if isinstance(gspec, str):
        named = {
            "klein_four": klein_four,
            "symmetric3": symmetric3,
            "quaternion8": quaternion8,
        }
        if gspec not in named:
            raise SpecError(f"unknown group family {gspec!r}")
        return named[gspec]()
    if isinstance(gspec, dict) and len(gspec) == 1:
        kind, args = next(iter(gspec.items()))
        if kind == "cyclic":
            return cyclic(int(args))
        if kind == "dihedral":
            return dihedral(int(args))
        if kind == "table":
            return Group(
                args["mul"],
                args.get("identity", 0),
                args.get("labels"),
                name=args.get("name", "G"),
            )
    raise SpecError(f"unrecognized group spec {gspec!r}")
