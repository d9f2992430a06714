"""Finite upper half-plane graphs over F_q: spectra, zonal spherical
functions, combinatorial-Laplacian heat kernels, and finite theta sums,
with every closed form cross-checked against independent oracles: Fourier
inversion on the affine group, and a matrix exponential over the graph.
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
    spherical_table,
)
from .heat import (
    fourier_coefficient_check,
    heat_kernel_affine,
    heat_kernel_oracle,
    heat_kernel_spectral,
    initial_condition_check,
    method_of_images_check,
)
from .theta import (
    classical_theta,
    finite_theta,
    theta_consistency_report,
)
from .verify import run_battery

__all__ = [
    "ExtElement",
    "FieldCtx",
    "Point",
    "SphericalTable",
    "UhpGraph",
    "base_point",
    "beta",
    "build_graph",
    "character_orthogonality_check",
    "classical_theta",
    "cuspidal_spherical",
    "degenerate_radii",
    "ext_char",
    "ext_norm",
    "ext_trace",
    "field_context",
    "find_generator",
    "find_nonsquare",
    "finite_theta",
    "fourier_coefficient_check",
    "heat_kernel_affine",
    "heat_kernel_oracle",
    "heat_kernel_spectral",
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
    "run_battery",
    "sphere",
    "spherical_table",
    "theta_consistency_report",
]
