"""Numerical toolkit for dyadic and dyadic-parabolic frequency analysis
on periodic grids: Littlewood-Paley families, directional frames,
function-space norms, rough pseudodifferential operators, symbol
smoothing, paraproducts, and an operator-boundedness probing harness.
"""

__version__ = "0.1.0"

from .dyadic import (
    LittlewoodPaleyFamily,
    build_lp_family,
    lp_project,
    square_function_norm,
)
from .errors import (
    ConstructionError,
    DegenerateInputError,
    DimensionError,
    InvalidInputError,
    ParameterError,
    ResolutionError,
    ToolkitError,
)
from .families import (
    FamilyMember,
    build_test_family,
    embed,
    focusing_member,
    packet_member,
    plane_wave_member,
    random_band_member,
)
from .grid import (
    FrequencyLattice,
    GridField,
    GridSpec,
    SpectralMultiplier,
    apply_multiplier,
    bessel_potential,
    forward_transform,
    inverse_transform,
    l2_inner,
    lattice,
    lp_norm,
    read_fiof,
    write_fiof,
)
from .norms import ExponentBudget, budget, classical_norm, hpfio_norm, sobolev_s, zygmund_norm
from .operators import (
    BoundednessReport,
    apply_dense,
    apply_dense_adjoint,
    apply_separable,
    apply_separable_adjoint,
    apply_symbol,
    certified_l2_bound,
    operator_norm_probe,
    power_iteration,
    verify_band_support,
)
from .parabolic import (
    DirectionSet,
    ParabolicFrame,
    anisotropic_bound_check,
    build_phi_omega,
    c_sigma,
    frame_analyze,
    frame_synthesize,
)
from .profiles import bump, falling, rising, smooth_step
from .symbols import (
    DenseSymbol,
    FourierModeDecomposition,
    SeparableSymbol,
    SmoothingSplit,
    coifman_meyer_decompose,
    estimate_seminorms,
    load_symbol,
    paraproduct_hh,
    paraproduct_hl,
    paraproduct_lh,
    preset_identity,
    preset_multiplication,
    preset_multiplier_bessel,
    preset_rough_chirp,
    smooth_split,
    to_separable,
)
