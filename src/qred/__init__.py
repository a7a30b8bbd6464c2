"""qred: reduction toolkit for homological finiteness of bound quiver algebras."""

from .linalg import FieldSpec, Matrix
from .algebra import (
    AlgebraHandle,
    DimensionNotResolved,
    InvalidPresentation,
    Path,
    Presentation,
    Quiver,
    complete,
    corner_basis,
    opposite_presentation,
    tensor_with_opposite,
    validate,
)
from .modules import (
    BoundedDim,
    Rep,
    RepMap,
    dual,
    hom_basis,
    is_isomorphic,
    minimal_resolution,
    pd_bounded,
    projective_cover,
    regular_bimodule,
    regular_rep,
    split_projective_summands,
    standard_module,
    tensor_over,
)
from .homology import (
    IdealSpec,
    bimodule_pd_bounded,
    bongartz,
    gldim_bounded,
    gorenstein_bounded,
    homological_ideal_check,
    quotient_algebra,
    serial_check,
    tor_bounded,
)
from .reduction import (
    PROPERTIES,
    corner_conditions,
    corner_presentation,
    derived_tensor_bounded,
    eligible_vertices,
    property_verdict,
    quotient_conditions,
    reduce_fixpoint,
    remove_vertex,
    triangular_split,
)
from .witness import (
    WitnessPair,
    bimodule_syzygy,
    idempotent_candidate,
    search_level,
    tensor_bimodules,
    verify_level,
)
from .parser import algebra_to_text, parse_algebra, parse_module, rep_to_text

__version__ = "0.1.0"
