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
from .elements import clean_decompositions, decomposition_counts

_VALIDATION_DEGREE = 4


@dataclass(frozen=True, eq=False)
class PolyRingView:
    """Finite description of base[x] for a commutative finite base.

    ``clean_counts[c]`` counts the idempotents e of the base with c - e
    a unit: the clean decompositions of the constant c, checked against
    base[x]/(x^4) by :func:`poly_view`.  ``nilpotent_mask`` marks the
    coefficients allowed above degree zero in units (and hence in clean
    differences).
    """

    base: FiniteRing
    clean_counts: np.ndarray
    nilpotent_mask: np.ndarray


def poly_view(base: FiniteRing) -> PolyRingView:
    """Build and validate the finite description of base[x]."""
    cache = get_cache(base)
    if not cache.center_mask.all():
        raise RingConstructionError(
            f"polynomial analysis requires a commutative base, got {base.name}"
        )
    return PolyRingView(base, _validate_characterizations(base), cache.nilpotent_mask)


def _validate_characterizations(base: FiniteRing) -> np.ndarray:
    """Check the unit/idempotent descriptions against a truncation.

    In base[x]/(x^4) the variable is nilpotent, so the truncation has
    more units than the polynomial ring; the comparison is therefore
    restricted to the sub-claims that survive truncation: idempotents
    are exactly the constant idempotents, and a polynomial whose higher
    coefficients are all nilpotent is a unit iff its constant term is.
    Returns the base's clean decomposition counts, which the truncation
    has been checked to share.
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
    constants = trunc.zero + int(weights[0]) * (np.arange(n) - base.zero)
    trunc_counts = decomposition_counts(trunc)[0][constants]
    bad = np.flatnonzero(base_counts != trunc_counts)
    if bad.size:
        c = int(bad[0])
        raise AssertionError(
            f"constant {base.label_of(c)} has {base_counts[c]} decompositions "
            f"in {base.name} but {trunc_counts[c]} in {trunc.name}"
        )
    return base_counts


def poly_is_clean(view: PolyRingView) -> bool:
    """Whether every element of base[x] is clean.

    Requires every possible higher coefficient to be nilpotent and
    every constant term to be clean; over a nonzero base the constant
    one is never nilpotent, so the polynomial x itself fails.
    """
    return bool(view.nilpotent_mask.all() and (view.clean_counts > 0).all())


def poly_is_cusc(view: PolyRingView) -> tuple[bool, dict | None]:
    """Whether every clean element of base[x] is uniquely strongly clean.

    Decompositions of a clean polynomial f biject with the base
    decompositions of its constant term (idempotents are constants and
    commutativity is automatic), so the answer reduces to: every clean
    constant admits exactly one idempotent.
    """
    multiple = np.flatnonzero(view.clean_counts > 1)
    if not multiple.size:
        return True, None
    base, c = view.base, int(multiple[0])
    return False, {
        "constant": base.label_of(c),
        "idempotents": [base.label_of(d.idempotent) for d in clean_decompositions(base, c)],
    }
