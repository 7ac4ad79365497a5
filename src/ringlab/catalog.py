"""The default roster of rings the verification suite sweeps.

Orders run from 2 to 4096.  Entries cover the construction families:
modular integers, small fields, products, triangular and full matrix
rings, truncated (skew) polynomial rings, trivial and ideal extensions,
group rings over 2-groups and non-2-groups (abelian and not), a formal
triangular ring, a trivial Morita context, an opposite ring, and
radical quotients of a few members: each ``X/J`` is X's own R/J, the
:func:`radical_quotient` of X's ring, so it is built and classified once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import radical_quotient
from .construct import build, read_json
from .core import DEFAULT_THRESHOLD, FiniteRing
from .errors import SpecError


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    spec: dict
    ring: FiniteRing


_Z2 = {"zn": 2}
_Z3 = {"zn": 3}
_Z4 = {"zn": 4}

#: (name, spec) pairs; the ``X/J`` entries are appended at build time.
DEFAULT_SPECS: tuple[tuple[str, dict], ...] = (
    ("Z2", _Z2),
    ("Z3", _Z3),
    ("Z4", _Z4),
    ("Z6", {"zn": 6}),
    ("Z8", {"zn": 8}),
    ("F4", {"gf": {"p": 2, "k": 2}}),
    ("F8", {"gf": {"p": 2, "k": 3}}),
    ("Z2xZ2", {"product": [_Z2, _Z2]}),
    ("Z2xZ4", {"product": [_Z2, _Z4]}),
    ("T2(Z2)", {"triangular": {"n": 2, "base": _Z2}}),
    ("T3(Z2)", {"triangular": {"n": 3, "base": _Z2}}),
    ("T2(Z4)", {"triangular": {"n": 2, "base": _Z4}}),
    ("T3(Z4)", {"triangular": {"n": 3, "base": _Z4}}),
    ("M2(Z2)", {"matrix": {"n": 2, "base": _Z2}}),
    ("Z2[x]/x^2", {"trunc_poly": {"base": _Z2, "n": 2}}),
    ("Z2[x]/x^3", {"trunc_poly": {"base": _Z2, "n": 3}}),
    ("Z4[x]/x^2", {"trunc_poly": {"base": _Z4, "n": 2}}),
    ("TE(Z2)", {"trivial_extension": _Z2}),
    ("TE(Z4)", {"trivial_extension": _Z4}),
    (
        "F4[x;frob]/x^2",
        {"skew_trunc_poly": {"base": {"gf": {"p": 2, "k": 2}}, "alpha": {"frobenius": 2}, "n": 2}},
    ),
    ("Z2C2", {"group_ring": {"base": _Z2, "group": {"cyclic": 2}}}),
    ("Z2C3", {"group_ring": {"base": _Z2, "group": {"cyclic": 3}}}),
    ("Z2C4", {"group_ring": {"base": _Z2, "group": {"cyclic": 4}}}),
    ("Z2V4", {"group_ring": {"base": _Z2, "group": "klein_four"}}),
    ("Z4C2", {"group_ring": {"base": _Z4, "group": {"cyclic": 2}}}),
    ("Z2S3", {"group_ring": {"base": _Z2, "group": "symmetric3"}}),
    ("Z2Q8", {"group_ring": {"base": _Z2, "group": "quaternion8"}}),
    (
        "FT(Z2,Z2;Z2)",
        {
            "formal_triangular": {
                "a": _Z2,
                "b": _Z2,
                "m": {"add": [[0, 1], [1, 0]]},
                "left_action": [[0, 0], [0, 1]],
                "right_action": [[0, 0], [0, 1]],
            }
        },
    ),
    (
        "MC(Z2,Z2;Z2,Z2)",
        {
            "trivial_morita": {
                "a": _Z2,
                "b": _Z2,
                "m": {"add": [[0, 1], [1, 0]]},
                "m_left": [[0, 0], [0, 1]],
                "m_right": [[0, 0], [0, 1]],
                "n": {"add": [[0, 1], [1, 0]]},
                "n_left": [[0, 0], [0, 1]],
                "n_right": [[0, 0], [0, 1]],
            }
        },
    ),
    (
        # M = 2*Z4 inside Z4: zero multiplication, natural Z2-actions.
        "IE(Z2,2Z4)",
        {
            "ideal_extension": {
                "base": _Z2,
                "m": {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 0]], "labels": ["0", "2"]},
                "left_action": [[0, 0], [0, 1]],
                "right_action": [[0, 0], [0, 1]],
            }
        },
    ),
    (
        # M = 2*Z8 inside Z8: nonzero multiplication (2*2 = 4), Z4-actions.
        "IE(Z4,2Z8)",
        {
            "ideal_extension": {
                "base": _Z4,
                "m": {
                    "add": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
                    "mul": [[0, 0, 0, 0], [0, 2, 0, 2], [0, 0, 0, 0], [0, 2, 0, 2]],
                    "labels": ["0", "2", "4", "6"],
                },
                "left_action": [
                    [0, 0, 0, 0],
                    [0, 1, 2, 3],
                    [0, 2, 0, 2],
                    [0, 3, 2, 1],
                ],
                "right_action": [
                    [0, 0, 0, 0],
                    [0, 1, 2, 3],
                    [0, 2, 0, 2],
                    [0, 3, 2, 1],
                ],
            }
        },
    ),
    ("op(T2(Z2))", {"opposite": {"triangular": {"n": 2, "base": _Z2}}}),
)

#: Entries that additionally contribute their quotient by the radical.
RADICAL_QUOTIENT_OF: tuple[str, ...] = (
    "Z4",
    "Z8",
    "T2(Z2)",
    "T2(Z4)",
    "Z2C4",
)


def default_catalog(threshold: int = DEFAULT_THRESHOLD) -> list[CatalogEntry]:
    """Build and validate the default catalog, in declaration order."""
    entries: list[CatalogEntry] = []
    by_name: dict[str, CatalogEntry] = {}
    for name, spec in DEFAULT_SPECS:
        ring = build(spec, threshold=threshold)
        entry = CatalogEntry(name, spec, ring)
        entries.append(entry)
        by_name[name] = entry
    for base_name in RADICAL_QUOTIENT_OF:
        ring = radical_quotient(by_name[base_name].ring)
        entries.append(CatalogEntry(f"{base_name}/J", ring.spec, ring))
    return entries


def catalog_from_manifest(doc, threshold: int = DEFAULT_THRESHOLD) -> list[CatalogEntry]:
    """Catalog from a manifest: a JSON array of {"name", "spec"} objects."""
    if not isinstance(doc, list):
        raise SpecError("catalog manifest must be a JSON array")
    if not doc:
        raise SpecError("catalog manifest is empty")
    entries = []
    seen = set()
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or "name" not in item or "spec" not in item:
            raise SpecError("manifest entries need 'name' and 'spec'", f"$[{i}]")
        name = str(item["name"])
        if name in seen:
            raise SpecError(f"duplicate catalog name {name!r}", f"$[{i}].name")
        seen.add(name)
        try:
            ring = build(item["spec"], threshold=threshold)
        except SpecError as exc:
            raise SpecError(exc.args[0], f"$[{i}].spec{(exc.path or '$')[1:]}") from exc
        entries.append(CatalogEntry(name, item["spec"], ring))
    return entries


def load_catalog_file(path, threshold: int = DEFAULT_THRESHOLD) -> list[CatalogEntry]:
    return catalog_from_manifest(read_json(path, "catalog manifest"), threshold=threshold)
