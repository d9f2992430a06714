"""Finite theta sums for the heat kernel, and the classical theta for reference.

``finite_theta`` evaluates the kernel as a double exponential sum over the
index lattice (characters x norm-one indices) in two modes:

* ``reconciled``: regroups the spectral expansion. Decay rates are the true
  Laplacian eigenvalues and the angular parts are the character-sum forms of
  the spherical functions, which are the certified rows of
  ``spherical.spherical_rows``: this mode is ``heat_kernel_spectral`` of the
  spherical table.
* ``verbatim``: the stated closed-form double sum evaluated literally, with
  its radius-dependent exponents alpha_r(l), the combined (q+2) phase factor
  for base-field indices, and the characteristic-function phase term. Its
  gap from the reconciled kernel is a measured finding, never corrected.

The verbatim sum is array code: it multiplies phase tables built once per
(q, delta) by per-radius sign vectors, for all times at once.

``classical_theta`` is the lattice sum theta(z, it) = sum_n e^(-pi n^2 t + 2 pi i n z),
the circle-domain analogue the finite sums imitate.
"""

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from .field import ExtElement, ext_norm
from .heat import _time_grid, heat_kernel_affine, heat_kernel_spectral
from .spherical import spherical_table
from .uhp import degenerate_radii, scheme

THETA_MODES = ("verbatim", "reconciled")


class _ThetaTables(NamedTuple):
    u_idx: np.ndarray  # the norm-one representatives (q-1)*(1..q+1)
    u_phase: np.ndarray  # [l-1, k] = e^(2 pi i l u_k/(q^2-1)), l = 1..q^2-1
    base_alpha: np.ndarray  # [l-1, y-1] = e^(2 pi i l y/(q-1)), l, y = 1..q-1
    base_phase: np.ndarray  # [l-1, y-1] = e^(2 pi i l y (q+2)/(q^2-1)), l, y = 1..q-1


@functools.lru_cache(maxsize=1)
def _theta_tables(ctx):
    """The radius-independent phases of the verbatim sum, built once per (q, delta).

    Each argument is multiplied and divided in the order the printed sum
    states it, as in ``character_tables``. ``u_phase`` is filled q+1 rows
    at a time, so its (q^2-1) x (q+1) table is the only array of that size.
    """
    q, n2 = ctx.q, ctx.q * ctx.q - 1
    norm = ext_norm(ctx, ExtElement(ctx.power_a, ctx.power_b))
    u_idx = np.arange(q - 1, n2 + 1, q - 1)
    # N(zeta^m) = N(zeta)^m and N(zeta) generates F_q^x, so N = 1 exactly on multiples of q-1
    if not np.array_equal(np.flatnonzero(norm[np.arange(1, n2 + 1) % n2] == 1) + 1, u_idx):
        raise AssertionError("the norm-one indices are not the multiples of q-1")
    u_phase = np.empty((n2, q + 1), dtype=complex)
    for ls, out in zip(np.arange(1, n2 + 1).reshape(q - 1, q + 1), u_phase.reshape(q - 1, q + 1, q + 1)):
        np.exp(1j * (2 * np.pi * ls[:, None] * u_idx / n2), out=out)
    y = np.arange(1, q)
    return _ThetaTables(
        u_idx=u_idx,
        u_phase=u_phase,
        base_alpha=np.exp(1j * (2 * np.pi * y[:, None] * y / (q - 1))),
        base_phase=np.exp(1j * (2 * np.pi * y[:, None] * y * (q + 2) / n2)),
    )


def _index_masks(ctx, r):
    """Masks over m = 0..q^2-1 (entry 0 unused): m in O(r), and m in V(r)."""
    q = ctx.q
    r %= q
    if r == 1:
        raise ValueError("singular radius r=1: pole of (r+1)/(r-1)")
    shift = (r + 1) * ctx.inv(r - 1) % q
    in_o = np.zeros(q * q, dtype=bool)
    # Tr(zeta^m) = 2a; the representative q^2-1 is zeta^0
    in_o[1:] = ctx.chi[(2 * np.roll(ctx.power_a, -1) - shift) % q] == 1
    vertices = scheme(ctx)
    in_v = np.zeros(q * q, dtype=bool)
    in_v[vertices.y[vertices.labels == r]] = True
    return in_o, in_v


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


def finite_theta(ctx, table, r, t, mode="reconciled"):
    """Evaluate the finite theta sum at radius r and time t.

    Reconciled mode is the spectral heat kernel of ``table``. Verbatim mode
    returns the real part of the printed sum (use the consistency report for
    its imaginary leakage and deviation).
    """
    _time_grid([t])
    if mode == "reconciled":
        return float(heat_kernel_spectral(table, [t])[0, r % ctx.q])
    if mode == "verbatim":
        return float(_finite_theta_verbatim(ctx, r, [t])[0].real)
    raise ValueError(f"mode must be one of {THETA_MODES}, got {mode!r}")


class ClassicalTheta(NamedTuple):
    value: complex
    truncation_bound: float


def classical_theta(z, t, n_max=25):
    """theta(z, it) = sum_{|n| <= n_max} e^(-pi n^2 t + 2 pi i n z), with tail bound.

    The reported bound 2 e^(-pi t n_max^2) / (1 - e^(-pi t)) dominates the
    dropped |n| > n_max terms for real z; a non-finite z raises ValueError.
    The sum stops at the first decay e^(-pi n^2 t) of 0.0: later terms add zero.
    """
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if not 0 < t < math.inf:
        raise ValueError(f"time must be positive and finite, got {t}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    z -= z.real - math.fmod(z.real, 1.0)  # period 1 in z; exact, and |Re z| < 1 is kept as is
    total = 1.0 + 0.0j
    for n in range(1, n_max + 1):
        decay = math.exp(-math.pi * n * n * t)
        if decay == 0.0:
            break
        total += decay * (cmath.exp(2j * cmath.pi * n * z) + cmath.exp(-2j * cmath.pi * n * z))
    # 1 - e^(-pi t) as expm1: it rounds to 0.0 below t of about 3.5e-17, and loses digits well above
    bound = 2.0 * math.exp(-math.pi * t * n_max * n_max) / -math.expm1(-math.pi * t)
    return ClassicalTheta(value=total, truncation_bound=bound)


class ThetaReport(NamedTuple):
    """The theta audit as arrays [t, r], column r for radius r.

    ``radii`` are the audited radii, every r outside {0, 4 delta, 1}.
    ``verbatim`` is the complex printed sum, NaN at the other radii, as in
    ``closed_forms``; the maximum deviations are taken over ``radii``.
    ``oracle`` is None in a report made without the affine oracle.
    """

    radii: list
    oracle: np.ndarray
    reconciled: np.ndarray
    verbatim: np.ndarray

    @property
    def reconciled_deviation(self):
        return np.abs(self.reconciled - self.oracle)

    @property
    def verbatim_deviation(self):
        # libm hypot, as Python's abs(complex); numpy's complex abs can differ in the last digit
        gap = self.verbatim - self.reconciled
        return np.hypot(gap.real, gap.imag)

    @property
    def max_reconciled_deviation(self):
        return float(self.reconciled_deviation[:, self.radii].max(initial=0.0))

    @property
    def max_verbatim_deviation(self):
        return float(self.verbatim_deviation[:, self.radii].max(initial=0.0))


def theta_consistency_report(ctx, r_s, t_grid, mode="both"):
    """Audit the two theta modes against the affine oracle, ``heat_kernel_affine``.

    For every time and every audited radius: the oracle kernel value, the
    reconciled value (required to agree), and the verbatim value with its
    deviation (a finding, expected nonzero). With ``mode="reconciled"`` no
    verbatim sum is evaluated and ``verbatim`` stays NaN; "verbatim" and
    "both" evaluate every array, as the verbatim deviation needs the
    reconciled kernel. The times and r_s are checked before any theta sum
    runs. No vertex graph is built.
    """
    if mode not in (*THETA_MODES, "both"):
        raise ValueError(f"mode must be one of {(*THETA_MODES, 'both')}, got {mode!r}")
    t_grid = _time_grid(t_grid)
    return _report(ctx, r_s, t_grid, mode, heat_kernel_affine(ctx, r_s, t_grid))


def _report(ctx, r_s, t_grid, mode, oracle):
    """The ThetaReport of ``theta_consistency_report`` with the given oracle array, or None for none."""
    deg0, deg1 = degenerate_radii(ctx)
    radii = [r for r in range(ctx.q) if r not in (deg0, deg1, 1)]
    verbatim = np.full((len(t_grid), ctx.q), np.nan, dtype=complex)
    if mode != "reconciled":
        for r in radii:
            verbatim[:, r] = _finite_theta_verbatim(ctx, r, t_grid)
    return ThetaReport(radii, oracle, heat_kernel_spectral(spherical_table(ctx, r_s), t_grid), verbatim)
