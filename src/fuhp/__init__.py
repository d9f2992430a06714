"""Finite upper half-plane graphs over F_q: spectra, zonal spherical
functions, combinatorial-Laplacian heat kernels, and finite theta sums,
with every closed form cross-checked against a matrix-exponential oracle.
"""

__version__ = "0.1.0"

from .field import (
    ExtElement,
    FieldCtx,
    ext_norm,
    ext_trace,
    field_context,
    find_generator,
    find_nonsquare,
    norm_one_subgroup,
    quadratic_character,
)
from .uhp import (
    Point,
    UhpGraph,
    base_point,
    build_graph,
    degenerate_radii,
    distance,
    laplacian,
    orbit_decomposition,
    orbit_sizes,
    sphere,
)
from .characters import beta, character_orthogonality_check, ext_char, nu, nu0
from .spherical import (
    SphericalTable,
    cuspidal_spherical,
    laplace_eigenvalue,
    match_formulas_to_oracle,
    principal_spherical,
    radial_eigenbasis,
    spherical_table,
)
from .heat import (
    GroupGraph,
    build_group_graph,
    fourier_coefficient_check,
    heat_kernel_oracle,
    heat_kernel_spectral,
    initial_condition_check,
    method_of_images_check,
)
from .theta import (
    ThetaIndexSets,
    classical_theta,
    finite_theta,
    index_sets,
    theta_consistency_report,
)
from .verify import run_battery

__all__ = [
    "ExtElement",
    "FieldCtx",
    "GroupGraph",
    "Point",
    "SphericalTable",
    "ThetaIndexSets",
    "UhpGraph",
    "base_point",
    "beta",
    "build_graph",
    "build_group_graph",
    "character_orthogonality_check",
    "classical_theta",
    "cuspidal_spherical",
    "degenerate_radii",
    "distance",
    "ext_char",
    "ext_norm",
    "ext_trace",
    "field_context",
    "find_generator",
    "find_nonsquare",
    "finite_theta",
    "fourier_coefficient_check",
    "heat_kernel_oracle",
    "heat_kernel_spectral",
    "index_sets",
    "initial_condition_check",
    "laplace_eigenvalue",
    "laplacian",
    "match_formulas_to_oracle",
    "method_of_images_check",
    "norm_one_subgroup",
    "nu",
    "nu0",
    "orbit_decomposition",
    "orbit_sizes",
    "principal_spherical",
    "quadratic_character",
    "radial_eigenbasis",
    "run_battery",
    "sphere",
    "spherical_table",
    "theta_consistency_report",
]
