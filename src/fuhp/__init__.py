"""Finite upper half-plane graphs over F_q: spectra, zonal spherical
functions, combinatorial-Laplacian heat kernels, and finite theta sums,
with every closed form cross-checked against independent oracles: Fourier
inversion on the affine group, and a matrix exponential over the graph.
"""

__version__ = "0.1.0"

import os

# Every BLAS operand here is at most q x q, so an OpenBLAS worker thread is idle most of the time, and
# by default it spins for 2^28 cycles (about 0.1 s) after each call: about 0.1 s of CPU in every
# process and 0.8-1.0 s of `verify --q 101`'s 1.8-2.2 s at two threads. 2^4 cycles, OpenBLAS's
# minimum, lets it sleep at once; waking it then adds about 20 us to a threaded call. The thread
# count is untouched, so every result is unchanged; a value the user set wins, and other BLAS
# libraries ignore the variable. It must be set before numpy is first imported, just below. When the
# scheduler keeps both threads on one CPU, each threaded call waits out a time slice instead (8 ms
# for a 101 x 101 product at every timeout from 2^4 to 2^20, 16 ms at 2^24 and the default): no
# timeout avoids that, so the minimum stays.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .field import (
    ExtElement,
    FieldCtx,
    ext_norm,
    field_context,
    find_nonsquare,
)
from .uhp import UhpGraph, build_graph, degenerate_radii
from .characters import character_orthogonality_check
from .spherical import (
    SphericalTable,
    match_formulas_to_oracle,
    spherical_table,
)
from .heat import (
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
    "SphericalTable",
    "UhpGraph",
    "build_graph",
    "character_orthogonality_check",
    "classical_theta",
    "degenerate_radii",
    "ext_norm",
    "field_context",
    "find_nonsquare",
    "finite_theta",
    "heat_kernel_affine",
    "heat_kernel_oracle",
    "heat_kernel_spectral",
    "initial_condition_check",
    "match_formulas_to_oracle",
    "method_of_images_check",
    "run_battery",
    "spherical_table",
    "theta_consistency_report",
]
