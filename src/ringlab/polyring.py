"""Clean-decomposition analysis of R[x] for a finite commutative base R.

The polynomial ring itself is infinite, but over a commutative base its
units and idempotents have exact finite descriptions: a polynomial is a
unit iff its constant term is a unit and every higher coefficient is
nilpotent, and the idempotents are exactly the constant idempotents of
the base.  Both classical facts are runtime-validated at bounded degree
against brute-force computations in the truncation base[x]/(x^4) before
any conclusion is drawn, so the analyzer never leans on an unchecked
identity.

Everything downstream reduces to finite data: a polynomial f is clean
iff all higher coefficients of f are nilpotent and the constant term is
clean in the base, and its (automatically commuting) decompositions
biject with the base decompositions of the constant term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import trunc_poly
from .core import FiniteRing
from .errors import RingConstructionError
from .invariants import get_cache
from .elements import decomposition_counts

_VALIDATION_DEGREE = 4


@dataclass(frozen=True)
class PolyRingView:
    """Finite description of base[x] for a commutative finite base.

    ``admissible_constants[e]`` lists the constant terms c with c - e a
    unit of the base; ``nilpotent_tail`` is the coefficient set allowed
    above degree zero in units (and hence in clean differences).
    """

    base: FiniteRing
    admissible_constants: dict[int, tuple[int, ...]]
    nilpotent_tail: tuple[int, ...]
    validated_degree: int


def poly_view(base: FiniteRing) -> PolyRingView:
    """Build and validate the finite description of base[x]."""
    cache = get_cache(base)
    if not cache.center_mask.all():
        raise RingConstructionError(
            f"polynomial analysis requires a commutative base, got {base.name}"
        )
    _validate_characterizations(base)
    unit_mask = cache.unit_mask
    neg = base.neg_table
    admissible = {}
    for e in np.flatnonzero(cache.idempotent_mask):
        e = int(e)
        shifted = base.add_table[:, int(neg[e])]
        admissible[e] = tuple(int(c) for c in np.flatnonzero(unit_mask[shifted]))
    tail = tuple(int(t) for t in np.flatnonzero(cache.nilpotent_mask))
    return PolyRingView(base, admissible, tail, _VALIDATION_DEGREE - 1)


def _validate_characterizations(base: FiniteRing):
    """Check the unit/idempotent descriptions against a truncation.

    In base[x]/(x^4) the variable is nilpotent, so the truncation has
    more units than the polynomial ring; the comparison is therefore
    restricted to the sub-claims that survive truncation: idempotents
    are exactly the constant idempotents, and a polynomial whose higher
    coefficients are all nilpotent is a unit iff its constant term is.
    """
    trunc = trunc_poly(base, _VALIDATION_DEGREE)
    tcache = get_cache(trunc)
    bcache = get_cache(base)
    n = base.order
    deg = _VALIDATION_DEGREE

    ids = np.arange(trunc.order)
    weights = trunc.meta["axis_weights"]
    coeffs = [(ids // weights[i]) % n for i in range(deg)]

    # Idempotents of the truncation = embedded idempotents of the base.
    expected = bcache.idempotent_mask[coeffs[0]].copy()
    for c in coeffs[1:]:
        expected &= c == base.zero
    if not (tcache.idempotent_mask == expected).all():
        bad = int(np.flatnonzero(tcache.idempotent_mask != expected)[0])
        raise AssertionError(
            f"idempotent characterization fails in {trunc.name} at {trunc.label_of(bad)}"
        )

    # Units among nilpotent-tail polynomials = unit constant term.
    tail_ok = np.ones(trunc.order, dtype=bool)
    for c in coeffs[1:]:
        tail_ok &= bcache.nilpotent_mask[c]
    predicted = bcache.unit_mask[coeffs[0]]
    actual = tcache.unit_mask
    scope = np.flatnonzero(tail_ok)
    if not (actual[scope] == predicted[scope]).all():
        bad = int(scope[np.flatnonzero(actual[scope] != predicted[scope])[0]])
        raise AssertionError(
            f"unit characterization fails in {trunc.name} at {trunc.label_of(bad)}"
        )

    # Constants decompose in the truncation exactly as in the base.
    base_counts = decomposition_counts(base)[0]
    trunc_counts = decomposition_counts(trunc)[0][np.arange(n) * int(weights[0])]
    bad = np.flatnonzero(base_counts != trunc_counts)
    if bad.size:
        c = int(bad[0])
        raise AssertionError(
            f"constant {base.label_of(c)} has {base_counts[c]} decompositions "
            f"in {base.name} but {trunc_counts[c]} in {trunc.name}"
        )


def poly_is_clean(view: PolyRingView) -> bool:
    """Whether every element of base[x] is clean.

    Requires every possible higher coefficient to be nilpotent and
    every constant term to be clean; over a nonzero base the constant
    one is never nilpotent, so the polynomial x itself fails.
    """
    clean_constants = {c for consts in view.admissible_constants.values() for c in consts}
    n = view.base.order
    return len(view.nilpotent_tail) == n and len(clean_constants) == n


def poly_is_cusc(view: PolyRingView) -> tuple[bool, dict | None]:
    """Whether every clean element of base[x] is uniquely strongly clean.

    Decompositions of a clean polynomial f biject with the base
    decompositions of its constant term (idempotents are constants and
    commutativity is automatic), so the answer reduces to: every clean
    constant admits exactly one idempotent.
    """
    counts: dict[int, list[int]] = {}
    for e, consts in view.admissible_constants.items():
        for c in consts:
            counts.setdefault(c, []).append(e)
    for c in sorted(counts):
        if len(counts[c]) > 1:
            base = view.base
            return False, {
                "constant": base.label_of(c),
                "idempotents": [base.label_of(e) for e in sorted(counts[c])],
            }
    return True, None
