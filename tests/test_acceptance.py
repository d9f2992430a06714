"""Acceptance criteria, one test per criterion at its stated tolerance.

The terminal summary (conftest) prints one PASS/FAIL line per criterion.
"""

import math
import time

import numpy as np
import pytest

from fuhp.field import field_context
from fuhp.heat import (
    heat_kernel_oracle,
    heat_kernel_spectral,
    initial_condition_check,
    method_of_images_check,
)
from fuhp.spherical import match_formulas_to_oracle, spherical_table
from fuhp.theta import classical_theta, finite_theta, theta_consistency_report
from fuhp.uhp import build_graph, degenerate_radii

SWEEP_Q = (3, 5, 7, 13)
SWEEP_T = (0.0, 0.01, 0.1, 1.0, 10.0)


@pytest.fixture(scope="module")
def sweep():
    """Graphs and tables for every q in SWEEP_Q and every regular radius."""
    out = {}
    for q in SWEEP_Q:
        ctx = field_context(q)
        deg = set(degenerate_radii(ctx))
        for r_s in range(q):
            if r_s in deg:
                continue
            graph = build_graph(ctx, r_s)
            out[(q, r_s)] = (ctx, graph, spherical_table(ctx, r_s))
    return out


def test_criterion_1_q3_closed_form():
    start = time.perf_counter()
    ctx = field_context(3, delta=2)
    table = spherical_table(ctx, 1)
    t_grid = (0.0, 0.5, 1.0, 5.0)
    for t, kern in zip(t_grid, heat_kernel_spectral(table, t_grid)):
        e4, e6 = math.exp(-4 * t), math.exp(-6 * t)
        assert abs(kern[0] - (1 + 3 * e4 + 2 * e6)) <= 1e-12
        assert abs(kern[1] - (1 - e6)) <= 1e-12
        assert abs(kern[2] - (1 - 3 * e4 + 2 * e6)) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_2_oracle_equivalence(sweep):
    start = time.perf_counter()
    worst = 0.0
    for (q, r_s), (ctx, graph, table) in sweep.items():
        spec = heat_kernel_spectral(table, SWEEP_T)
        orac = heat_kernel_oracle(graph, SWEEP_T)
        dev = float(np.abs(spec - orac.by_radius).max())
        worst = max(worst, dev)
    assert worst <= 1e-9
    assert time.perf_counter() - start < 30.0


def test_criterion_3_initial_condition():
    rng = np.random.default_rng(20260809)
    for q in (3, 5, 7):
        ctx = field_context(q)
        graph = build_graph(ctx, 1)
        for _ in range(20):
            f = rng.random(graph.n)
            residual = initial_condition_check(graph, f, [1e-6])[0]
            assert residual <= (q + 1) * 2e-6 * float(np.abs(f).max()) + 1e-10


def test_criterion_4_mass_conservation_and_positivity(sweep):
    for (q, r_s), (ctx, graph, table) in sweep.items():
        orac = heat_kernel_oracle(graph, SWEEP_T)
        assert np.all(np.abs(orac.by_vertex.mean(axis=1) - 1.0) <= 1e-10)
        spec = heat_kernel_spectral(table, SWEEP_T)
        assert spec.min() >= -1e-12


def test_criterion_5_spherical_table_invariants(sweep):
    for (q, r_s), (ctx, graph, table) in sweep.items():
        n = q * (q - 1)
        assert np.abs(table.omega[:, 0] - 1.0).max() <= 1e-10
        assert int(table.degrees.sum()) == n
        gram = (table.omega * table.orbit_sizes[None, :]) @ table.omega.T
        assert np.abs(gram - np.diag(n / table.degrees)).max() <= 1e-10
        recon = (table.degrees[:, None] * table.omega).sum(axis=0)
        target = np.where(np.arange(q) == 0, n, 0.0)
        assert np.abs(recon - target).max() <= 1e-9


@pytest.mark.parametrize("q", [5, 7])
def test_criterion_6_formula_reconciliation(q):
    ctx = field_context(q)
    report = match_formulas_to_oracle(ctx, 1)
    assert len(report.matches) == q
    assert len({m.row for m in report.matches}) == q  # unique row per class
    for m in report.principal:
        assert m.max_deviation <= 1e-9  # all radii
    for m in report.cuspidal:
        assert m.max_deviation <= 1e-9  # all radii except the excluded r=1
        assert m.excluded_radii == (1,)


def test_criterion_7_method_of_images():
    start = time.perf_counter()
    ctx = field_context(3, delta=2)
    report = method_of_images_check(ctx, 1, [0.1, 1.0, 5.0])
    assert report.group_order == 48
    assert report.max_deviation <= 1e-8
    assert time.perf_counter() - start < 5.0

    start = time.perf_counter()
    ctx5 = field_context(5)
    report5 = method_of_images_check(ctx5, 1, [0.1, 1.0, 5.0])
    assert report5.group_order == 480
    assert report5.max_deviation <= 1e-8
    assert time.perf_counter() - start < 60.0


def test_criterion_8_ramanujan_diagnostic(sweep):
    for (q, r_s), (ctx, graph, table) in sweep.items():
        if q == 3:
            continue
        bound = 2 * math.sqrt(q) + 1e-9
        w = np.linalg.eigvalsh(graph.adjacency.astype(float))
        nontrivial = w[np.abs(np.abs(w) - (q + 1)) > 1e-8]
        assert np.abs(nontrivial).max() <= bound


def test_criterion_9_theta_audit():
    for q in (3, 5, 7):
        ctx = field_context(q)
        r_s = 1
        table = spherical_table(ctx, r_s)
        t_grid = (0.0, 0.1, 1.0)
        for t, row in zip(t_grid, heat_kernel_spectral(table, t_grid)):
            for r, spec in enumerate(row):
                rec = finite_theta(ctx, table, r, t, mode="reconciled")
                assert abs(rec - spec) <= 1e-12

    for q in (5, 7):
        ctx = field_context(q)
        r_s = 1
        table = spherical_table(ctx, r_s)
        report = theta_consistency_report(ctx, r_s, [0.1, 1.0])
        deg0, deg1 = degenerate_radii(ctx)
        assert report.radii == [r for r in range(q) if r not in (deg0, deg1, 1)]
        assert np.isfinite(report.verbatim[:, report.radii]).all()

    got = classical_theta(0.0, 1.0, n_max=15)
    assert abs(got.value.real - 1.0864348112133080) <= 1e-12

    z0, t0, h = 0.2, 1.0, 1e-4
    dt = (classical_theta(z0, t0 + h).value - classical_theta(z0, t0 - h).value) / (2 * h)
    dzz = (
        classical_theta(z0 + h, t0).value
        - 2 * classical_theta(z0, t0).value
        + classical_theta(z0 - h, t0).value
    ) / h**2
    assert abs(dt - dzz / (4 * math.pi)) / abs(dt) <= 1e-6
