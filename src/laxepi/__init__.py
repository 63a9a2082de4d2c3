"""laxepi: exact-arithmetic deciders for epimorphism-type properties of
finite linear categories (rings with several objects), their module
categories, and torsion-theoretic localizations."""

from .category import (
    LinearCategory,
    Morphism,
    compose,
    from_algebra,
    from_quiver,
    opposite,
    validate_category,
)
from .decide import (
    DecisionReport,
    fully_faithful_restriction,
    is_abelian_localization,
    is_conditioned_epi,
    is_epi,
    is_flat,
    is_flat_epi,
    is_flat_quotient,
    is_generalized_closed_functor,
    is_generalized_lax_epi,
    is_lax_epi,
)
from .errors import (
    IdealNotIdempotent,
    InternalInvariantError,
    LaxepiError,
    NotSurjectiveOnObjects,
    ParseError,
    PreconditionError,
    RepresentableNotClosed,
)
from .functors import (
    Factorization,
    LinearFunctor,
    adjunction_check,
    canonical_factorization,
    canonical_factorization_localized,
    coinduce,
    counits,
    identity_functor,
    induction_counit,
    induction_unit,
    regular_bimodule,
    restrict,
    tensor_bimodule,
    validate_functor,
)
from .linalg import (
    QQ,
    RationalMatrix,
    Subspace,
    image_basis,
    is_iso,
    kernel_basis,
    rref,
    solve,
)
from .modules import (
    Bimodule,
    Module,
    ModuleMap,
    Submodule,
    cokernel,
    direct_sum,
    ext1,
    free_cover,
    hom_modules,
    image,
    is_projective,
    kernel,
    quotient_by,
    sub_to_module,
    tops,
    tor1,
    trace_span,
    yoneda,
)
from .torsion import (
    ClosedModule,
    TorsionData,
    ideal_closure,
    is_closed,
    is_torsion,
    is_torsion_free,
    localize,
    q_iso,
    quotient_hom,
    torsion_submodule,
    whole_ideal,
    zero_ideal,
)

__version__ = "0.1.0"
