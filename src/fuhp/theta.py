"""Finite theta sums for the heat kernel, and the classical theta for reference.

``finite_theta`` evaluates the kernel as a double exponential sum over the
index lattice (characters x norm-one indices) in two modes:

* ``reconciled``: regroups the spectral expansion. Decay rates are the true
  Laplacian eigenvalues (attached to character classes by the spectral
  match) and the angular parts are the character-sum forms of the spherical
  functions. This mode reproduces the spectral kernel identically.
* ``verbatim``: the stated closed-form double sum evaluated literally, with
  its radius-dependent exponents alpha_r(l), the combined (q+2) phase factor
  for base-field indices, and the characteristic-function phase term. Its
  gap from the reconciled kernel is a measured finding, never corrected.

``classical_theta`` is the lattice sum theta(z, it) = sum_n e^(-pi n^2 t + 2 pi i n z),
the circle-domain analogue the finite sums imitate.
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .characters import beta
from .field import ext_norm, ext_pow, ext_trace, quadratic_character
from .heat import heat_kernel_oracle
from .spherical import (
    match_formulas_to_oracle,
    principal_spherical,
    cuspidal_spherical,
    spherical_table,
)
from .uhp import build_graph, degenerate_radii, sphere

THETA_MODES = ("verbatim", "reconciled")


@dataclass(frozen=True)
class ThetaIndexSets:
    """Index sets of the double sum at radius r, over integers mod q^2-1.

    Representatives run 1..q^2-1. u_idx are the norm-one indices; v_r the
    y-values (as integers 1..q-1) for which the sphere equation is solvable;
    o_r the indices whose shifted trace is a nonzero square; n_idx everything.
    """

    q: int
    r: int
    u_idx: tuple
    v_r: tuple
    o_r: tuple
    n_idx: tuple


def index_sets(ctx, r):
    """Enumerate U, V(r), O(r) and the full index set; r=1 is excluded."""
    q = ctx.q
    r %= q
    if r == 1:
        raise ValueError("singular radius r=1: pole of (r+1)/(r-1)")
    n2 = q * q - 1
    reps = range(1, n2 + 1)

    u_idx = tuple(m for m in reps if ext_norm(ctx, ext_pow(ctx, ctx.zeta, m)) == 1)
    v_r = tuple(sorted({z.y for z in sphere(ctx, r)}))
    shift = (r + 1) * ctx.inv(r - 1) % q
    o_r = tuple(
        m
        for m in reps
        if quadratic_character(ctx, (ext_trace(ctx, ext_pow(ctx, ctx.zeta, m)) - shift) % q) == 1
    )
    return ThetaIndexSets(q=q, r=r, u_idx=u_idx, v_r=v_r, o_r=o_r, n_idx=tuple(reps))


def _chi_phase(m, o_r):
    """e^(2 pi i (chi_O(m) + chi_N(m))/2): +1 inside O(r), -1 outside.

    chi_N is identically 1, so the exponent is (chi_O(m)+1)/2 and the factor
    is a sign; its two-valuedness is asserted where it is used.
    """
    return 1.0 if m in o_r else -1.0


def _verbatim_alpha(ctx, sets, r, l, o_r_set):
    """alpha_r(l) exactly as stated: radius-dependent, built from the printed sums."""
    q = ctx.q
    n2 = q * q - 1
    omega_c = sum(
        _chi_phase(m, o_r_set) * cmath.exp(2j * cmath.pi * l * m / n2) for m in sets.u_idx
    ) / (q + 1)
    alpha = (q + 1) * omega_c
    if 1 <= l <= q - 1:
        omega_p = sum(
            cmath.exp(2j * cmath.pi * l * m / (q - 1)) for m in sets.v_r
        ) / (q + 1)
        alpha += (q + 1) * omega_p
    return alpha


def _finite_theta_verbatim(ctx, r, t):
    """The printed double sum, complex-valued; imaginary leakage is reported."""
    q = ctx.q
    n2 = q * q - 1
    sets = index_sets(ctx, r)
    o_r_set = set(sets.o_r)
    v_r_set = set(sets.v_r)

    total = 0.0 + 0.0j
    # base-field indices pair with V(r); the phase carries the (q+2) factor
    for l in range(1, q):
        alpha = _verbatim_alpha(ctx, sets, r, l, o_r_set)
        for m in sets.v_r:
            sign = _chi_phase(m, o_r_set)
            assert abs(abs(sign) - 1.0) < 1e-15
            phase = sign * cmath.exp(2j * cmath.pi * l * m * (q + 2) / n2)
            total += cmath.exp(-alpha * t) * phase
    # the remaining indices pair with U - V(r)
    for l in range(q, n2 + 1):
        alpha = _verbatim_alpha(ctx, sets, r, l, o_r_set)
        for m in sets.u_idx:
            if m in v_r_set:
                continue
            sign = _chi_phase(m, o_r_set)
            phase = sign * cmath.exp(2j * cmath.pi * l * m / n2)
            total += cmath.exp(-alpha * t) * phase
    return total / (q + 1)


def _reconciled_omega(ctx, table, kind, j, row, infinity_reading, r):
    """Character-sum value of one spherical row at radius r, table fallback at r=1."""
    q = ctx.q
    deg1 = degenerate_radii(ctx)[1]
    if r == 0:
        return 1.0
    if kind == "principal":
        if r == deg1:
            return beta(ctx, j, q - 1).real
        return principal_spherical(ctx, j, r).real
    if r == deg1:
        reading = "minus_nu" if infinity_reading.startswith("both") else infinity_reading
        return cuspidal_spherical(ctx, j, r, infinity_reading=reading).real
    if r == 1:
        # contractually excluded from the cuspidal sum; the spectral row is used
        return float(table.omega[row, table.radius_column(1)])
    return cuspidal_spherical(ctx, j, r).real


def _finite_theta_reconciled(ctx, table, match, r, t):
    total = 0.0
    for m in match.matches:
        lam = table.laplacian_eigenvalues[m.row]
        d = table.degrees[m.row]
        omega = _reconciled_omega(ctx, table, m.kind, m.index, m.row, m.infinity_reading, r)
        total += d * math.exp(-lam * t) * omega
    return total


def finite_theta(ctx, table, r, t, mode="reconciled", match=None):
    """Evaluate the finite theta sum at radius r and time t.

    Reconciled mode reproduces the spectral heat kernel; pass the table's
    ``match_formulas_to_oracle`` report as ``match`` to reuse it across calls.
    Verbatim mode returns the real part of the printed sum (use the
    consistency report for its imaginary leakage and deviation).
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if mode == "reconciled":
        if match is None:
            match = match_formulas_to_oracle(ctx, table.r_s, table=table)
        return _finite_theta_reconciled(ctx, table, match, r % ctx.q, t)
    if mode == "verbatim":
        return _finite_theta_verbatim(ctx, r, t).real
    raise ValueError(f"mode must be one of {THETA_MODES}, got {mode!r}")


class ClassicalTheta(NamedTuple):
    value: complex
    truncation_bound: float


def classical_theta(z, t, n_max=25):
    """theta(z, it) = sum_{|n| <= n_max} e^(-pi n^2 t + 2 pi i n z), with tail bound.

    The reported bound 2 e^(-pi t n_max^2) / (1 - e^(-pi t)) dominates the
    dropped |n| > n_max terms for real z.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    total = 1.0 + 0.0j
    for n in range(1, n_max + 1):
        decay = math.exp(-math.pi * n * n * t)
        total += decay * (cmath.exp(2j * cmath.pi * n * z) + cmath.exp(-2j * cmath.pi * n * z))
    bound = 2.0 * math.exp(-math.pi * t * n_max * n_max) / (1.0 - math.exp(-math.pi * t))
    return ClassicalTheta(value=total, truncation_bound=bound)


@dataclass
class ThetaReportRow:
    r: int
    t: float
    oracle: float
    reconciled: float
    verbatim: float
    verbatim_imag: float
    reconciled_deviation: float  # |reconciled - oracle|
    verbatim_deviation: float  # |verbatim sum - reconciled|


@dataclass
class ThetaReport:
    q: int
    delta: int
    r_s: int
    t_grid: list
    rows: list = field(default_factory=list)

    @property
    def max_reconciled_deviation(self):
        return max((row.reconciled_deviation for row in self.rows), default=0.0)

    @property
    def max_verbatim_deviation(self):
        return max((row.verbatim_deviation for row in self.rows), default=0.0)


def theta_consistency_report(ctx, r_s, t_grid, graph=None, table=None, match=None):
    """Audit the two theta modes against the matrix-exponential oracle.

    For every regular radius r != 1 and every t: the oracle kernel value,
    the reconciled value (required to agree), and the verbatim value with
    its deviation (a finding, expected nonzero). ``graph``, ``table`` and
    ``match`` are built for r_s when not given.
    """
    q = ctx.q
    if graph is None:
        graph = build_graph(ctx, r_s)
    if table is None:
        table = spherical_table(ctx, r_s)
    if match is None:
        match = match_formulas_to_oracle(ctx, table.r_s, table=table)
    oracle_by_t = {t: heat_kernel_oracle(graph, t).by_radius for t in t_grid}
    deg0, deg1 = degenerate_radii(ctx)
    radii = [r for r in table.radii if r not in (deg0, deg1, 1)]

    report = ThetaReport(q=q, delta=ctx.delta, r_s=table.r_s, t_grid=list(t_grid))
    for r in radii:
        for t in t_grid:
            oracle_val = oracle_by_t[t][r]
            rec = _finite_theta_reconciled(ctx, table, match, r, t)
            verb = _finite_theta_verbatim(ctx, r, t)
            report.rows.append(
                ThetaReportRow(
                    r=r,
                    t=float(t),
                    oracle=oracle_val,
                    reconciled=rec,
                    verbatim=verb.real,
                    verbatim_imag=abs(verb.imag),
                    reconciled_deviation=abs(rec - oracle_val),
                    verbatim_deviation=abs(verb - rec),
                )
            )
    return report
