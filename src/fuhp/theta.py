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

Both modes are array code: the reconciled sum reads the closed-form tables
of ``spherical.closed_forms``, and the verbatim sum multiplies phase tables
built once per (q, delta) by per-radius sign vectors, for all times at once.

``classical_theta`` is the lattice sum theta(z, it) = sum_n e^(-pi n^2 t + 2 pi i n z),
the circle-domain analogue the finite sums imitate.
"""

import cmath
import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .field import field_tables
from .heat import heat_kernel_oracle, heat_kernel_spectral
from .spherical import closed_forms, match_formulas_to_oracle, spherical_table
from .uhp import build_graph, degenerate_radii, orbit_labels

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


class _ThetaTables(NamedTuple):
    u_idx: np.ndarray  # the norm-one representatives (q-1)*(1..q+1)
    u_phase: np.ndarray  # [l-1, k] = e^(2 pi i l u_k/(q^2-1)), l = 1..q^2-1
    base_alpha: np.ndarray  # [l-1, y-1] = e^(2 pi i l y/(q-1)), l, y = 1..q-1
    base_phase: np.ndarray  # [l-1, y-1] = e^(2 pi i l y (q+2)/(q^2-1)), l, y = 1..q-1


@functools.lru_cache(maxsize=8)
def _theta_tables(ctx):
    """The radius-independent phases of the verbatim sum, built once per (q, delta).

    Each argument is multiplied and divided in the order the printed sum
    states it, as in ``character_tables``.
    """
    q, n2 = ctx.q, ctx.q * ctx.q - 1
    fields = field_tables(ctx)
    norm = (fields.power_a**2 - ctx.delta * fields.power_b**2) % q
    u_idx = np.arange(q - 1, n2 + 1, q - 1)
    # N(zeta^m) = N(zeta)^m and N(zeta) generates F_q^x, so N = 1 exactly on multiples of q-1
    if not np.array_equal(np.flatnonzero(norm[np.arange(1, n2 + 1) % n2] == 1) + 1, u_idx):
        raise AssertionError("the norm-one indices are not the multiples of q-1")
    ls = np.arange(1, n2 + 1)
    y = np.arange(1, q)
    return _ThetaTables(
        u_idx=u_idx,
        u_phase=np.exp(1j * (2 * np.pi * ls[:, None] * u_idx / n2)),
        base_alpha=np.exp(1j * (2 * np.pi * y[:, None] * y / (q - 1))),
        base_phase=np.exp(1j * (2 * np.pi * y[:, None] * y * (q + 2) / n2)),
    )


def _index_masks(ctx, r):
    """Masks over m = 0..q^2-1 (entry 0 unused): m in O(r), and m in V(r)."""
    q = ctx.q
    r %= q
    if r == 1:
        raise ValueError("singular radius r=1: pole of (r+1)/(r-1)")
    fields = field_tables(ctx)
    shift = (r + 1) * ctx.inv(r - 1) % q
    in_o = np.zeros(q * q, dtype=bool)
    # Tr(zeta^m) = 2a; the representative q^2-1 is zeta^0
    in_o[1:] = fields.chi[(2 * np.roll(fields.power_a, -1) - shift) % q] == 1
    in_v = np.zeros(q * q, dtype=bool)
    in_v[np.flatnonzero(orbit_labels(ctx) == r) // q + 1] = True  # vertex i has y = i//q + 1
    return in_o, in_v


def index_sets(ctx, r):
    """Enumerate U, V(r), O(r) and the full index set; r=1 is excluded."""
    in_o, in_v = _index_masks(ctx, r)
    q = ctx.q
    return ThetaIndexSets(
        q=q,
        r=r % q,
        u_idx=tuple(_theta_tables(ctx).u_idx.tolist()),
        v_r=tuple(np.flatnonzero(in_v).tolist()),
        o_r=tuple(np.flatnonzero(in_o).tolist()),
        n_idx=tuple(range(1, q * q)),
    )


def _finite_theta_verbatim(ctx, r, t_grid):
    """The printed double sum at radius r for every t in t_grid, complex-valued.

    With sign(m) = e^(2 pi i (chi_O(m) + chi_N(m))/2) = +1 on O(r) and -1 off it
    (chi_N is identically 1), the sum is
        1/(q+1) sum_l e^(-alpha_r(l) t) sum_m sign(m) e^(2 pi i l m ...),
    where m runs over V(r) with the (q+2) phase for the base-field indices
    l < q, and over U - V(r) with e^(2 pi i l m/(q^2-1)) for the rest, and
        alpha_r(l) = sum_(m in U) sign(m) e^(2 pi i l m/(q^2-1))
                     + [l < q] sum_(y in V(r)) e^(2 pi i l y/(q-1)).
    Each sum over m, for every l at once, is one product of a phase table
    with a vector, and the sum over l for every t is one more product.
    """
    q = ctx.q
    tables = _theta_tables(ctx)
    in_o, in_v = _index_masks(ctx, r)
    sign = np.where(in_o, 1.0, -1.0)
    u_sign = sign[tables.u_idx]
    alpha = tables.u_phase @ u_sign
    alpha[: q - 1] += tables.base_alpha @ in_v[1:q]
    inner = np.concatenate([
        tables.base_phase @ (sign[1:q] * in_v[1:q]),
        tables.u_phase[q - 1 :] @ (u_sign * ~in_v[tables.u_idx]),
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(-np.outer(t_grid, alpha)) @ inner / (q + 1)
    if not np.isfinite(values).all():
        raise OverflowError(f"verbatim theta overflows at r={r} for t up to {max(t_grid)}")
    return values


def reconciled_kernel(ctx, table, t_grid, match=None):
    """Reconciled theta sums sum_i d_i e^(-lambda_i t) omega_i(r) as an array [t, radius column].

    The spectral kernel of the table with each row replaced by the
    character-sum omega of its matched class: the true decay rates and
    degrees stay. The antipodal column takes the adjudicated reading; column
    r=1, excluded from the cuspidal sum, keeps the spectral row. Pass the
    table's ``match_formulas_to_oracle`` report as ``match`` to reuse it.
    """
    if match is None:
        match = match_formulas_to_oracle(ctx, table.r_s, table=table)
    forms = closed_forms(ctx)
    deg1_col, one_col = table.radius_column(degenerate_radii(ctx)[1]), table.radius_column(1)
    omega = table.omega.copy()
    for m in match.matches:
        if m.kind == "principal":
            omega[m.row] = forms.principal[table.radii, m.index].real
            continue
        omega[m.row] = forms.cuspidal["reconciled"][table.radii, m.index].real
        reading = "minus_nu" if m.infinity_reading.startswith("both") else m.infinity_reading
        omega[m.row, deg1_col] = forms.antipodal[reading][m.index].real
        omega[m.row, one_col] = table.omega[m.row, one_col]
    return heat_kernel_spectral(replace(table, omega=omega), t_grid)


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
        return float(reconciled_kernel(ctx, table, [t], match)[0, table.radius_column(r)])
    if mode == "verbatim":
        return float(_finite_theta_verbatim(ctx, r, [t])[0].real)
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
    oracle = heat_kernel_oracle(graph, t_grid).by_radius
    kernel = reconciled_kernel(ctx, table, t_grid, match)
    deg0, deg1 = degenerate_radii(ctx)
    radii = [r for r in table.radii if r not in (deg0, deg1, 1)]

    report = ThetaReport(q=q, delta=ctx.delta, r_s=table.r_s, t_grid=list(t_grid))
    for r in radii:
        verbatim = _finite_theta_verbatim(ctx, r, t_grid)
        col = table.radius_column(r)
        for t, oracle_val, rec, verb in zip(t_grid, oracle[:, col].tolist(), kernel[:, col].tolist(),
                                            verbatim.tolist()):
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
