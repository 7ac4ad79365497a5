"""ringlab: exact computation on finite unital rings.

Construction of rings from declarative specs, canonical element sets
(idempotents, units, nilpotents, radical, center), clean-decomposition
analysis, classification into the uniqueness taxonomy, and an
executable verification suite over a catalog of small rings.
"""

from .core import (
    DEFAULT_THRESHOLD,
    ElementSet,
    FiniteRing,
    ValidationReport,
    table_ring,
    validate_axioms,
)
from .errors import (
    BimoduleError,
    EndomorphismError,
    IdealError,
    LatticeLimitError,
    RingConstructionError,
    RinglabError,
    SizeOverflowError,
    SpecError,
    UnknownElementError,
)
from .groups import Group, cyclic, dihedral, group_from_spec, klein_four, quaternion8, symmetric3
from .construct import (
    build,
    corner_ring,
    formal_triangular,
    gf,
    group_ring,
    ideal_extension,
    matrix_ring,
    opposite_ring,
    product_ring,
    quotient_ring,
    resolve_endomorphism,
    skew_trunc_poly,
    subring_generated,
    triangular_ring,
    trivial_extension,
    trivial_morita,
    trunc_poly,
    validate_spec,
    zn,
)
from .invariants import (
    center,
    ideal_generated,
    idempotents,
    idempotents_lift_mod,
    jacobson_radical,
    nilpotents,
    ucn0,
    units,
)
from .elements import (
    Decomposition,
    ElementProfile,
    clean_decompositions,
    decomposition_counts,
    element_profile,
    strongly_clean_decompositions,
)
from .classify import (
    Classification,
    CLASSIFICATION_FIELDS,
    classify,
    classify_element_summary,
)
from .polyring import (
    PolyRingView,
    poly_is_clean,
    poly_is_cusc,
    poly_view,
)
from .catalog import CatalogEntry, catalog_from_manifest, default_catalog, load_catalog_file
from .theorems import (
    CHECKS,
    SuiteContext,
    TheoremReport,
    run_suite,
    suite_to_json,
)

__version__ = "0.1.0"
