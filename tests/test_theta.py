"""Finite theta sums (both modes) and the classical theta function."""

import cmath
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuhp.field import ext_norm, ext_pow, ext_trace, field_context, quadratic_character
from fuhp.heat import heat_kernel_spectral
from fuhp.spherical import spherical_table
from fuhp.theta import (
    classical_theta,
    finite_theta,
    index_sets,
    theta_consistency_report,
)
from fuhp.uhp import degenerate_radii, sphere


def brute_index_sets(ctx, r):
    """U, V(r) and O(r) by enumerating zeta^m with ext_pow, m = 1..q^2-1."""
    q = ctx.q
    powers = [ext_pow(ctx, ctx.zeta, m) for m in range(1, q * q)]
    shift = (r + 1) * pow(r - 1, -1, q) % q
    u_idx = tuple(m for m, z in enumerate(powers, 1) if ext_norm(ctx, z) == 1)
    v_r = tuple(sorted({z.y for z in sphere(ctx, r)}))
    o_r = tuple(
        m for m, z in enumerate(powers, 1)
        if quadratic_character(ctx, (ext_trace(ctx, z) - shift) % q) == 1
    )
    return u_idx, v_r, o_r


def scalar_verbatim(ctx, r, t, sets):
    """The printed double sum term by term in cmath: the oracle of the array path."""
    q = ctx.q
    n2 = q * q - 1
    u_idx, v_r, o_r = sets
    sign = {m: 1.0 if m in o_r else -1.0 for m in range(1, n2 + 1)}

    def alpha(l):
        omega_c = sum(sign[m] * cmath.exp(2j * cmath.pi * l * m / n2) for m in u_idx) / (q + 1)
        out = (q + 1) * omega_c
        if 1 <= l <= q - 1:
            omega_p = sum(cmath.exp(2j * cmath.pi * l * m / (q - 1)) for m in v_r) / (q + 1)
            out += (q + 1) * omega_p
        return out

    total = 0.0 + 0.0j
    for l in range(1, q):
        decay = cmath.exp(-alpha(l) * t)
        for m in v_r:
            total += decay * sign[m] * cmath.exp(2j * cmath.pi * l * m * (q + 2) / n2)
    for l in range(q, n2 + 1):
        decay = cmath.exp(-alpha(l) * t)
        for m in u_idx:
            if m not in v_r:
                total += decay * sign[m] * cmath.exp(2j * cmath.pi * l * m / n2)
    return total / (q + 1)


def test_index_sets_q3_frozen():
    ctx = field_context(3, delta=2)
    sets = index_sets(ctx, 2)
    assert sets.v_r == (2,)  # sphere S_2 = {(0,2)}: single y value
    assert len(sets.u_idx) == 4
    assert sets.n_idx == tuple(range(1, 9))


def test_index_sets_q5():
    ctx = field_context(5)
    sets = index_sets(ctx, 2)
    assert len(sets.u_idx) == 6
    # oracle: y-values of the sphere
    assert set(sets.v_r) == {z.y for z in sphere(ctx, 2)}
    # oracle: enumerate traces against the nonzero squares {1, 4}
    shift = (2 + 1) * pow(2 - 1, -1, 5) % 5
    brute = {
        m
        for m in range(1, 25)
        if (ext_trace(ctx, ext_pow(ctx, ctx.zeta, m)) - shift) % 5 in {1, 4}
    }
    assert set(sets.o_r) == brute


def test_index_sets_u_is_norm_one():
    ctx = field_context(5)
    sets = index_sets(ctx, 0)
    for m in sets.u_idx:
        assert ext_norm(ctx, ext_pow(ctx, ctx.zeta, m)) == 1
    assert len(sets.u_idx) == 6


@pytest.mark.parametrize("q", [5, 13])
def test_index_sets_match_brute_force(q):
    ctx = field_context(q)
    for r in range(q):
        if r == 1:
            continue
        sets = index_sets(ctx, r)
        assert (sets.u_idx, sets.v_r, sets.o_r) == brute_index_sets(ctx, r)
        assert sets.n_idx == tuple(range(1, q * q))


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_verbatim_matches_scalar_oracle(q):
    ctx = field_context(q)
    n = q * (q - 1)
    t_grid = [0.0, 0.05, 1.0, 2.0]
    sets = {r: brute_index_sets(ctx, r) for r in range(q) if r != 1}
    oracle = {(r, t): scalar_verbatim(ctx, r, t, sets[r]) for r in sets for t in t_grid}
    # finite_theta covers the degenerate radii too; the report every r outside {0, 4 delta, 1}
    table = spherical_table(ctx, 1)
    for (r, t), v in oracle.items():
        got = finite_theta(ctx, table, r, t, mode="verbatim")
        assert abs(got - v.real) <= 1e-12 * max(abs(v), n)
    report = theta_consistency_report(ctx, 1, t_grid)
    assert len(report.rows) == (q - 3) * len(t_grid)
    for row in report.rows:
        v = oracle[row.r, row.t]
        scale = 1e-12 * max(abs(v), n)
        assert abs(row.verbatim - v.real) <= scale
        assert abs(row.verbatim_imag - abs(v.imag)) <= scale
        assert abs(row.verbatim_deviation - abs(v - row.reconciled)) <= scale


def test_index_sets_pole():
    ctx = field_context(5)
    with pytest.raises(ValueError, match="r=1"):
        index_sets(ctx, 1)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_reconciled_equals_spectral(q):
    ctx = field_context(q)
    table = spherical_table(ctx, 1)
    t_grid = (0.0, 0.01, 0.1, 1.0)
    for t, row in zip(t_grid, heat_kernel_spectral(table, t_grid)):
        for r, spec in zip(table.radii, row):
            assert finite_theta(ctx, table, r, t, mode="reconciled") == pytest.approx(spec, abs=1e-12)


def test_reconciled_frozen_values():
    ctx = field_context(3)
    table = spherical_table(ctx, 1)
    assert finite_theta(ctx, table, 0, 0.0) == pytest.approx(6.0, abs=1e-12)
    assert finite_theta(ctx, table, 1, 1.0) == pytest.approx(1 - math.exp(-6), abs=1e-12)


def test_finite_theta_errors():
    ctx = field_context(5)
    table = spherical_table(ctx, 1)
    with pytest.raises(ValueError):
        finite_theta(ctx, table, 2, -1.0)
    with pytest.raises(ValueError):
        finite_theta(ctx, table, 2, 1.0, mode="nonsense")
    with pytest.raises(ValueError, match="r=1"):
        finite_theta(ctx, table, 1, 1.0, mode="verbatim")


def test_verbatim_overflow_raises():
    # the printed sum grows like e^(-min Re alpha * t); past the float range it raises as cmath did
    ctx = field_context(7)
    table = spherical_table(ctx, 1)
    assert math.isfinite(finite_theta(ctx, table, 2, 100.0, mode="verbatim"))
    with pytest.raises(OverflowError):
        finite_theta(ctx, table, 2, 1000.0, mode="verbatim")


def test_verbatim_runs_and_deviates():
    ctx = field_context(5)
    table = spherical_table(ctx, 1)
    rec = finite_theta(ctx, table, 2, 0.1, mode="reconciled")
    verb = finite_theta(ctx, table, 2, 0.1, mode="verbatim")
    assert math.isfinite(verb)
    assert abs(verb - rec) > 1e-6  # the as-stated sum does not reproduce the kernel


@pytest.mark.parametrize("q", [5, 7])
def test_consistency_report(q):
    ctx = field_context(q)
    report = theta_consistency_report(ctx, 1, [0.0, 0.1, 1.0])
    deg0, deg1 = degenerate_radii(ctx)
    expected_radii = {r for r in range(q) if r not in (deg0, deg1, 1)}
    assert {row.r for row in report.rows} == expected_radii
    assert report.max_reconciled_deviation <= 1e-9
    for row in report.rows:
        if row.t == 0.0:
            assert row.reconciled == pytest.approx(0.0 if row.r != 0 else q * (q - 1), abs=1e-9)
        assert math.isfinite(row.verbatim)
        assert math.isfinite(row.verbatim_imag)


def test_classical_theta_value():
    got = classical_theta(0.0, 1.0, n_max=10)
    # independent oracle: Jacobi theta_3 at nome e^{-pi}
    oracle = float(mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi)))
    assert got.value.real == pytest.approx(oracle, abs=1e-13)
    assert got.value.real == pytest.approx(1.0864348112133080, abs=1e-12)
    assert abs(got.value.imag) <= 1e-15


def test_classical_theta_truncation_bound():
    full = classical_theta(0.0, 0.5, n_max=40).value
    for n_max in (3, 5, 8):
        trunc = classical_theta(0.0, 0.5, n_max=n_max)
        assert abs(trunc.value - full) <= trunc.truncation_bound
    assert classical_theta(0.0, 1.0, n_max=10).truncation_bound <= 1e-100


@settings(max_examples=50, deadline=None)
@given(st.floats(-3, 3), st.floats(0.2, 5))
def test_classical_theta_periodicity_property(z, t):
    a = classical_theta(z, t, n_max=30).value
    b = classical_theta(z + 1.0, t, n_max=30).value
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_classical_theta_periodicity_frozen():
    a = classical_theta(0.3, 1.0).value
    b = classical_theta(1.3, 1.0).value
    assert abs(a - b) <= 1e-12


def test_classical_theta_longtime():
    got = classical_theta(0.0, 20.0)
    assert abs(got.value - 1.0) <= 2 * math.exp(-20 * math.pi) + 1e-300


def test_classical_theta_errors():
    with pytest.raises(ValueError):
        classical_theta(0.0, 0.0)
    with pytest.raises(ValueError):
        classical_theta(0.0, -1.0)
    with pytest.raises(ValueError):
        classical_theta(0.0, 1.0, n_max=0)


def test_classical_theta_heat_identity():
    # dtheta/dt = (1/4pi) d^2theta/dz^2 via central differences
    z0, t0, h = 0.2, 1.0, 1e-4
    dt = (classical_theta(z0, t0 + h).value - classical_theta(z0, t0 - h).value) / (2 * h)
    dzz = (
        classical_theta(z0 + h, t0).value
        - 2 * classical_theta(z0, t0).value
        + classical_theta(z0 - h, t0).value
    ) / h**2
    assert abs(dt - dzz / (4 * math.pi)) / abs(dt) <= 1e-6


def test_verbatim_phase_factor_is_a_sign():
    # chi_N is identically one, so e^(2 pi i (chi_O + chi_N)/2) is +/-1
    ctx = field_context(5)
    sets = index_sets(ctx, 2)
    o_r = set(sets.o_r)
    for m in sets.u_idx:
        factor = cmath.exp(2j * cmath.pi * ((m in o_r) + 1) / 2)
        assert abs(factor - (1.0 if m in o_r else -1.0)) <= 1e-15
