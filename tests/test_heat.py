"""Heat kernel: closed forms, oracle equivalence, conservation, and the lift."""

import math

import mpmath
import numpy as np
import pytest

from fuhp.cli import EXIT_OK, main
from fuhp.field import field_context
from fuhp.heat import (
    build_group_graph,
    fourier_coefficient_check,
    heat_kernel_oracle,
    heat_kernel_spectral,
    initial_condition_check,
    method_of_images_check,
    mobius_action,
    poisson_weights,
)
from fuhp.spherical import spherical_table
from fuhp.theta import theta_consistency_report
from fuhp.uhp import UhpGraph, act, base_point, build_graph, laplacian, point_index, radii_order
from fuhp.verify import heat_checks

U = np.finfo(float).eps / 2  # unit roundoff
ORACLE_TIMES = (0.0, 1e-6, 0.1, 1.0, 10.0, 50.0)


@pytest.fixture(scope="module")
def q3():
    ctx = field_context(3, delta=2)
    graph = build_graph(ctx, 1)
    return ctx, graph, spherical_table(ctx, 1)


def closed_form_q3(t):
    e4, e6 = math.exp(-4 * t), math.exp(-6 * t)
    return {0: 1 + 3 * e4 + 2 * e6, 1: 1 - e6, 2: 1 - 3 * e4 + 2 * e6}


def test_q3_closed_form(q3):
    ctx, graph, table = q3
    t_grid = (0.0, 0.5, 1.0, 5.0)
    for t, row in zip(t_grid, heat_kernel_spectral(table, t_grid)):
        kern = dict(zip(table.radii, row))
        expect = closed_form_q3(t)
        for r in (0, 1, 2):
            assert kern[r] == pytest.approx(expect[r], abs=1e-12)


def test_spectral_t0_is_delta(q3):
    _, _, table = q3
    kern = dict(zip(table.radii, heat_kernel_spectral(table, [0.0])[0]))
    assert kern[0] == pytest.approx(6, abs=1e-12)
    assert kern[1] == pytest.approx(0, abs=1e-12)
    assert kern[2] == pytest.approx(0, abs=1e-12)


def test_half_value_time(q3):
    _, _, table = q3
    t = math.log(2) / 6
    assert heat_kernel_spectral(table, [t])[0, table.radius_column(1)] == pytest.approx(0.5, abs=1e-12)


def test_negative_time_rejected(q3):
    ctx, graph, table = q3
    with pytest.raises(ValueError, match="nonnegative"):
        heat_kernel_spectral(table, [-0.1])
    with pytest.raises(ValueError, match="nonnegative"):
        heat_kernel_oracle(graph, [0.0, -1.0])
    with pytest.raises(ValueError, match="1-D"):
        heat_kernel_oracle(graph, 1.0)


def test_oracle_matches_spectral(q3):
    ctx, graph, table = q3
    spec = heat_kernel_spectral(table, (0.01, 1.0))
    orac = heat_kernel_oracle(graph, (0.01, 1.0))
    assert spec == pytest.approx(orac.by_radius, abs=1e-10)


def test_oracle_t0_and_longtime(q3):
    ctx, graph, _ = q3
    k0, k_inf = heat_kernel_oracle(graph, [0.0, 50.0]).by_vertex
    base_i = point_index(ctx, base_point())
    expect = np.zeros(graph.n)
    expect[base_i] = 6.0
    np.testing.assert_allclose(k0, expect, atol=1e-10)
    np.testing.assert_allclose(k_inf, 1.0, atol=1e-10)


def test_mass_conservation_and_positivity():
    for q, r_s in ((3, 1), (5, 2), (7, 1)):
        ctx = field_context(q)
        graph = build_graph(ctx, r_s)
        table = spherical_table(ctx, r_s)
        t_grid = (0.0, 0.1, 1.0, 10.0)
        kern = heat_kernel_oracle(graph, t_grid)
        assert kern.by_vertex.mean(axis=1) == pytest.approx(1.0, abs=1e-10)
        spec = heat_kernel_spectral(table, t_grid)
        assert spec.min() >= -1e-12


def _dense_kernel(graph, t):
    """n * exp(-tL) e_base contracted through the dense adjacency eigendecomposition."""
    w, v = graph.adjacency_eigh()
    b = point_index(graph.ctx, base_point())
    return graph.n * (v @ (v[b] * np.exp(-(graph.degree - w) * t)))


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_oracle_matches_dense_contraction(q):
    # eigh's eigenvectors are orthonormal to about c*n*u, so each entry of the dense
    # n * V e^(-tL) V^T e_base errs by about c*n^2*u (measured c <= 8, at q=5); the
    # oracle's own error, a tail <= u plus about K*u relative, is far below that
    ctx = field_context(q)
    n = q * (q - 1)
    for r_s in radii_order(ctx)[2:]:
        graph = build_graph(ctx, r_s)
        for t, row in zip(ORACLE_TIMES, heat_kernel_oracle(graph, ORACLE_TIMES).by_vertex):
            np.testing.assert_allclose(row, _dense_kernel(graph, t), rtol=0, atol=32 * n * n * U)


@pytest.mark.parametrize("rate", [0.0, 1e-5, 0.7, 14.0, 140.0, 1020.0])
def test_poisson_weights_and_tail_bound(rate):
    weights, tail = poisson_weights(rate)
    k_max = len(weights) - 1
    assert tail <= U
    with mpmath.workdps(50):
        lam = mpmath.mpf(rate)
        ref = [mpmath.exp(-lam)]
        for k in range(k_max):
            ref.append(ref[-1] * lam / (k + 1))
        true_tail = 1 - mpmath.fsum(ref)
        assert true_tail <= tail  # the stated bound holds
        for w_k, r_k in zip(weights, ref):
            # one rounding per ratio step from the mode, which is exact to ~2*mode*u
            assert abs(w_k - r_k) <= 4 * (k_max + 1) * U * r_k + 1e-300


@pytest.mark.parametrize("q, r_s", [(5, 2), (13, 1)])
def test_oracle_mass_is_kept_poisson_mass(q, r_s):
    # P is stochastic, so the walk keeps mass 1 and E sums to n * (1 - dropped tail)
    graph = build_graph(field_context(q), r_s)
    masses = heat_kernel_oracle(graph, ORACLE_TIMES).by_vertex.sum(axis=1)
    for t, mass in zip(ORACLE_TIMES, masses):
        weights, tail = poisson_weights((q + 1) * t)
        assert abs(mass - graph.n * (1 - tail)) <= len(weights) * graph.n * U


def _walk_for_one_time(graph, t):
    """The oracle's sum n * sum_k w_k P^k e_0 for one time, over that time's own weights only."""
    weights, _ = poisson_weights(graph.degree * t)
    walk = np.zeros(graph.n)
    walk[point_index(graph.ctx, base_point())] = 1.0
    acc = weights[0] * walk
    for w_k in weights[1:]:
        walk = walk[graph.neighbors].sum(axis=1) / graph.degree
        acc += w_k * walk
    return graph.n * acc


@pytest.mark.parametrize("q, r_s", [(5, 2), (13, 1), (17, 3)])
def test_grid_oracle_equals_per_time_walks(q, r_s):
    # one walk, zero-padded to the largest time, adds exactly what each time's own walk adds
    graph = build_graph(field_context(q), r_s)
    t_grid = [1.0, 0.0, 0.25, 1.0, 2.0, 0.01]
    grid = heat_kernel_oracle(graph, t_grid)
    for i, t in enumerate(t_grid):
        assert np.array_equal(grid.by_vertex[i], _walk_for_one_time(graph, t))
        single = heat_kernel_oracle(graph, [t])
        assert np.array_equal(grid.by_vertex[i], single.by_vertex[0])
        assert np.array_equal(grid.by_radius[i], single.by_radius[0])


def test_heat_path_uses_no_eigendecomposition(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("dense adjacency eigendecomposition on the heat path")

    monkeypatch.setattr(UhpGraph, "adjacency_eigh", refuse)
    assert main(["heat", "--q", "13", "--r-s", "1", "--t", "0,0.1,1",
                 "--out", str(tmp_path / "heat.json")]) == EXIT_OK
    ctx = field_context(13)
    report = theta_consistency_report(ctx, 1, [0.1, 1.0])
    assert report.max_reconciled_deviation <= 1e-9
    assert not any(r.fatal for r in heat_checks(build_graph(ctx, 1)))


def test_initial_condition_constant_function(q3):
    ctx, graph, _ = q3
    res = initial_condition_check(graph, np.ones(graph.n), [1.0, 0.1, 1e-6])
    assert max(res) <= 1e-12  # mass conservation makes the residual vanish


def test_initial_condition_indicator(q3):
    ctx, graph, _ = q3
    f = np.zeros(graph.n)
    f[point_index(ctx, base_point())] = 1.0
    t_grid = [1e-2, 1e-4, 1e-6]
    res = initial_condition_check(graph, f, t_grid)
    # closed form: residual = |(E(t;0) - 6)/6| = |3(e^{-4t}-1) + 2(e^{-6t}-1)|/6
    for t, got in zip(t_grid, res):
        expect = abs(3 * (math.exp(-4 * t) - 1) + 2 * (math.exp(-6 * t) - 1)) / 6
        assert got == pytest.approx(expect, abs=1e-12)
    assert res[2] <= 3e-5
    assert res[2] <= res[1] <= res[0]


def test_initial_condition_random_bounded():
    rng = np.random.default_rng(7)
    ctx = field_context(5)
    graph = build_graph(ctx, 1)
    for _ in range(5):
        f = rng.random(graph.n)
        res = initial_condition_check(graph, f, [1e-6])
        assert res[0] <= 2 * 6 * 1e-6 * f.max() + 1e-10


def test_fourier_coefficients_q3(q3):
    _, _, table = q3
    rep = fourier_coefficient_check(table, [0.0, 1.0])
    np.testing.assert_allclose(rep.coefficients[0], table.degrees, atol=1e-12)
    expect = sorted([1.0, 3 * math.exp(-4), 2 * math.exp(-6)], reverse=True)
    np.testing.assert_allclose(sorted(rep.coefficients[1], reverse=True), expect, atol=1e-12)
    assert rep.max_deviation <= 1e-9


def test_fourier_coefficients_q5():
    ctx = field_context(5)
    table = spherical_table(ctx, 1)
    assert fourier_coefficient_check(table, [0.5]).max_deviation <= 1e-9


def test_semigroup_property():
    for q in (3, 5):
        ctx = field_context(q)
        lap = laplacian(build_graph(ctx, 1))
        w, v = np.linalg.eigh(lap)
        expm = lambda s: v @ (np.exp(-w * s)[:, None] * v.T)
        np.testing.assert_allclose(expm(1.0), expm(0.3) @ expm(0.7), atol=1e-10)


def test_left_invariance_q3(q3):
    ctx, graph, _ = q3
    w, v = np.linalg.eigh(laplacian(graph))
    kernel = graph.n * (v @ (np.exp(-w * 1.0)[:, None] * v.T))
    for p in graph.points:  # the affine group acting on itself from the left
        perm = np.array([point_index(ctx, act(ctx, p, z)) for z in graph.points])
        np.testing.assert_allclose(kernel[np.ix_(perm, perm)], kernel, atol=1e-10)


# -- the lift to the full matrix group ---------------------------------------


def test_group_graph_counts_q3():
    ctx = field_context(3, delta=2)
    gg = build_group_graph(ctx, 1)
    assert gg.n == 48
    assert len(gg.k_members) == 8
    assert int(gg.adjacency[0].sum()) == 32  # (q+1) * (q^2-1)
    # every coset has exactly |K| members
    counts = np.bincount(gg.coset_of, minlength=6)
    assert np.all(counts == 8)


def test_mobius_action_stabilizer():
    ctx = field_context(5)
    base = base_point()
    for a in range(5):
        for b in range(5):
            if (a, b) == (0, 0):
                continue
            k = (a, ctx.delta * b % 5, b, a)
            assert mobius_action(ctx, k, base) == base


def test_mobius_action_preserves_distance():
    # the fractional-linear action is an isometry of the pseudo-distance,
    # which is what makes the lifted generating set inversion-closed
    from fuhp.uhp import distance, enumerate_points

    ctx = field_context(5)
    pts = enumerate_points(ctx)
    rng = np.random.default_rng(3)
    mats = []
    while len(mats) < 8:
        a, b, c, d = rng.integers(0, 5, size=4)
        if (a * d - b * c) % 5:
            mats.append((int(a), int(b), int(c), int(d)))
    for m in mats:
        for z in pts[::3]:
            for w in pts[::4]:
                assert distance(ctx, z, w) == distance(
                    ctx, mobius_action(ctx, m, z), mobius_action(ctx, m, w)
                )


def test_oracle_with_nondefault_base():
    # vertex-transitivity: the kernel around any base is the translate of
    # the kernel around sqrt(delta), radius profile included
    from fuhp.uhp import Point

    ctx = field_context(5)
    graph = build_graph(ctx, 1)
    default = heat_kernel_oracle(graph, [0.7])
    other = heat_kernel_oracle(graph, [0.7], base=Point(3, 2))
    assert other.by_radius == pytest.approx(default.by_radius, abs=1e-10)
    assert other.by_vertex.mean() == pytest.approx(1.0, abs=1e-12)


def test_method_of_images_q3():
    ctx = field_context(3, delta=2)
    report = method_of_images_check(ctx, 1, [0.0, 0.1, 1.0, 5.0])
    assert report.group_order == 48
    assert report.stabilizer_order == 8
    assert report.generating_set_size == 32
    assert report.intertwining_exact
    assert report.measured_scaling == pytest.approx(8.0)
    assert report.max_deviation <= 1e-8


def test_method_of_images_t0_is_delta_on_the_identity_coset():
    # at t=0 the K-average equals q(q-1) on the identity coset and 0 elsewhere,
    # which is exactly the quotient oracle at t=0; covered by max_deviation at 0.0
    ctx = field_context(3, delta=2)
    report = method_of_images_check(ctx, 1, [0.0])
    assert report.deviation_by_t[0.0] <= 1e-8
