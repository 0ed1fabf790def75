"""Resolvent norm growth analysis and certified pseudospectrum paths.

The package studies how the resolvent norm f(z) = ||(A - z I)^{-1}||
behaves near a base point: it extracts the norm-determining singular
vector, computes the first- and second-order growth coefficients along
with the steepest-growth direction, verifies lower growth bounds on
sampled segments, probes candidate local minima, and constructs
polygonal paths that stay inside a sublevel region of sigma_min until
they terminate at an eigenvalue, together with a checkable certificate.
"""

from .analysis import (
    GrowthCase,
    ResolventPoint,
    analyze_point,
    classify_and_direction,
    resolvent_norm,
)
from .config import DEFAULT_CONFIG, RunConfig, config_from_dict, load_config
from .errors import (
    DecompositionError,
    DomainError,
    NearSingularError,
    ResgrowError,
    SearchError,
)
from .growth import (
    BoundCheck,
    LocalMinProbe,
    SegmentReport,
    TaylorCheck,
    default_taylor_steps,
    local_min_probe,
    sample_segment,
    sample_segment_auto,
    taylor_remainder_check,
    verify_growth_bound,
)
from .linalg import (
    Operator,
    ShiftedSolver,
    eigenvalues,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    save_matrix,
    shifted_solve,
    sigma_min_batch,
    spectral_distance,
)
from .pseudo import (
    ComponentLabeling,
    PathCertificate,
    PolyPath,
    PseudoGrid,
    certify_path,
    components,
    connectivity_order,
    find_path,
    grid_metadata,
    grid_sigma_min,
)
from .zoo import (
    RANDOM_DENSE_RNG_ID,
    circulant_weighted_shift_inverse,
    diagonal_normal,
    grcar,
    jordan_block,
    operator_from_inverse,
    random_dense,
    weighted_shift,
    zigzag_diagonal,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "ComponentLabeling",
    "DEFAULT_CONFIG",
    "DecompositionError",
    "DomainError",
    "GrowthCase",
    "LocalMinProbe",
    "NearSingularError",
    "Operator",
    "PathCertificate",
    "PolyPath",
    "PseudoGrid",
    "RANDOM_DENSE_RNG_ID",
    "ResgrowError",
    "ResolventPoint",
    "RunConfig",
    "SearchError",
    "SegmentReport",
    "ShiftedSolver",
    "TaylorCheck",
    "analyze_point",
    "certify_path",
    "circulant_weighted_shift_inverse",
    "classify_and_direction",
    "components",
    "config_from_dict",
    "connectivity_order",
    "default_taylor_steps",
    "diagonal_normal",
    "eigenvalues",
    "find_path",
    "grcar",
    "grid_metadata",
    "grid_sigma_min",
    "jordan_block",
    "load_config",
    "load_matrix",
    "local_min_probe",
    "matrix_from_dict",
    "matrix_to_dict",
    "operator_from_inverse",
    "random_dense",
    "resolvent_norm",
    "sample_segment",
    "sample_segment_auto",
    "save_matrix",
    "shifted_solve",
    "sigma_min_batch",
    "spectral_distance",
    "taylor_remainder_check",
    "verify_growth_bound",
    "weighted_shift",
    "zigzag_diagonal",
]
