"""Heat kernel: closed forms, oracle equivalence, conservation, and the lift."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import fuhp
import fuhp.heat
from fuhp.cli import EXIT_OK, main
from fuhp.field import field_context, is_odd_prime
from fuhp.heat import (
    AFFINE_AGREEMENT,
    _uniformization,
    affine_spectrum,
    heat_kernel_affine,
    heat_kernel_oracle,
    heat_kernel_spectral,
    initial_condition_check,
    method_of_images_check,
    _cut,
    _poisson_terms,
    mobius_index,
    stabiliser_orbits,
)
from fuhp.spherical import spherical_table
from fuhp.theta import theta_consistency_report
from fuhp.uhp import UhpGraph, build_graph, radii_order, scheme, vertex_index
from fuhp.verify import LIFT_AGREEMENT, heat_checks, lift_checks

from dense_graph import Point, act, distance, enumerate_points, laplacian
from dense_lift import build_group_graph, dense_images, mobius_action

U = np.finfo(float).eps / 2  # unit roundoff
ORACLE_TIMES = (0.0, 1e-6, 0.1, 1.0, 10.0, 50.0)
BASE = 0  # sqrt(delta) is vertex 0


def poisson_weights(rate):
    """Poisson(k; rate) for k = 0..K, and a bound on the dropped tail sum_{k>K}.

    The weights of ``_poisson_terms``, cut before the first index K+1 whose
    tail bound b_(K+1) is at most u, the unit roundoff; b_k is finite from
    the mode on only, so K >= mode and the whole list costs O(rate).
    """
    weights, tail = _cut(_poisson_terms(rate))
    return np.array(weights), tail


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
    for t, kern in zip(t_grid, heat_kernel_spectral(table, t_grid)):
        expect = closed_form_q3(t)
        for r in (0, 1, 2):
            assert kern[r] == pytest.approx(expect[r], abs=1e-12)


def test_spectral_t0_is_delta(q3):
    _, _, table = q3
    kern = heat_kernel_spectral(table, [0.0])[0]
    assert kern[0] == pytest.approx(6, abs=1e-12)
    assert kern[1] == pytest.approx(0, abs=1e-12)
    assert kern[2] == pytest.approx(0, abs=1e-12)


def test_half_value_time(q3):
    _, _, table = q3
    t = math.log(2) / 6
    assert heat_kernel_spectral(table, [t])[0, 1] == pytest.approx(0.5, abs=1e-12)


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
    expect = np.zeros(graph.n)
    expect[BASE] = 6.0
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
    return graph.n * (v @ (v[BASE] * np.exp(-(graph.ctx.q + 1 - w) * t)))


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
    """The oracle's sum n * sum_k w_k P^k e_0 for one time, over that time's own weights only, no stop."""
    degree = graph.ctx.q + 1
    weights, _ = poisson_weights(degree * t)
    walk = np.zeros(graph.n)
    walk[BASE] = 1.0
    acc = weights[0] * walk
    for w_k in weights[1:]:
        walk = walk[graph.neighbors].sum(axis=1) / degree
        acc += w_k * walk
    return graph.n * acc


def _mixing_step(graph):
    """k*: the first step of the walk from the base point within delta = 4(q+1)u/n of uniform."""
    degree = graph.ctx.q + 1
    walk = np.zeros(graph.n)
    walk[BASE] = 1.0
    k = 0
    while np.abs(walk - 1.0 / graph.n).max() > 4 * degree * U / graph.n:
        walk = walk[graph.neighbors].sum(axis=1) / degree
        k += 1
    return k


def _assert_stopped_walk_matches(graph, t, row, full, k_stop):
    """A time whose weights end by k* is the full walk bit for bit; a later one is within the stop's bound.

    The bound is the stated n * delta * T, T the Poisson mass past k*, plus the
    full walk's own rounding of about K*u relative per entry.
    """
    degree = graph.ctx.q + 1
    weights, _ = poisson_weights(degree * t)
    if len(weights) - 1 <= k_stop:
        assert np.array_equal(row, full)
    else:
        bound = 4 * degree * U * weights[k_stop + 1:].sum() + len(weights) * U * np.abs(full).max()
        assert np.abs(row - full).max() <= bound


@pytest.mark.parametrize("q, r_s", [(5, 2), (13, 1), (17, 3)])
def test_grid_oracle_equals_per_time_walks(q, r_s):
    # one walk, zero-padded to the largest time, adds exactly what each time's own walk adds,
    # up to the mixing stop, which both make at the same step
    graph = build_graph(field_context(q), r_s)
    t_grid = [1.0, 0.0, 0.25, 1.0, 2.0, 0.01]
    grid = heat_kernel_oracle(graph, t_grid)
    k_stop = _mixing_step(graph)
    for i, t in enumerate(t_grid):
        _assert_stopped_walk_matches(graph, t, grid.by_vertex[i], _walk_for_one_time(graph, t), k_stop)
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
    assert report.reconciled_deviation[:, report.radii].max() <= 1e-9
    assert not any(r.fatal for r in heat_checks(build_graph(ctx, 1)))


# -- the affine oracle: Fourier inversion on Aff(F_q) ---------------------------

AFFINE_TIMES = (0.0, 1e-6, 0.1, 1.0, 10.0, 1e8)


def _affine_at_every_vertex(ctx, r_s, t_grid):
    """The affine kernel's formula at every vertex g = (x, y), read straight off ``affine_spectrum``."""
    q = ctx.q
    spec = affine_spectrum(ctx, r_s)
    x, y = scheme(ctx).x, scheme(ctx).y
    characters = np.cos(2 * np.pi * np.outer(np.arange(q - 1), ctx.dlog[y]) / (q - 1))  # [j, g]
    moved = (y[:, None] * np.arange(q) + x[:, None]) % q  # g.v
    out = []
    for t in t_grid:
        heat = spec.basis @ np.diag(np.exp(-t * (q + 1 - spec.eigenvalues))) @ spec.basis.T
        trace = heat[np.arange(q), moved].sum(axis=1)
        out.append(np.exp(-t * (q + 1 - spec.characters)) @ characters + (q - 1) * trace)
    return np.array(out)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_walk_affine_and_spectral_kernels_agree(q):
    # the walk at every vertex, the affine formula at every vertex, and the spectral kernel by radius
    ctx = field_context(q)
    n = q * (q - 1)
    bound = AFFINE_AGREEMENT * U * n
    labels = scheme(ctx).labels
    for r_s in radii_order(ctx)[2:]:
        walk = heat_kernel_oracle(build_graph(ctx, r_s), AFFINE_TIMES).by_vertex
        every = _affine_at_every_vertex(ctx, r_s, AFFINE_TIMES)
        spectral = heat_kernel_spectral(spherical_table(ctx, r_s), AFFINE_TIMES)
        affine = heat_kernel_affine(ctx, r_s, AFFINE_TIMES)
        assert np.abs(every - walk).max() <= bound
        assert np.abs(every - affine[:, labels]).max() <= bound
        assert np.abs(affine - spectral).max() <= bound
        assert np.abs(spectral[:, labels] - walk).max() <= bound


def _affine_spectral_gap(q):
    """max |affine - spectral| / (u n) over every regular radius of q and AFFINE_TIMES."""
    ctx = field_context(q)
    gaps = [np.abs(heat_kernel_affine(ctx, r_s, AFFINE_TIMES)
                   - heat_kernel_spectral(spherical_table(ctx, r_s), AFFINE_TIMES)).max()
            for r_s in radii_order(ctx)[2:]]
    return max(gaps) / (U * q * (q - 1))


@pytest.mark.parametrize("q", [
    q if q <= 31 else pytest.param(q, marks=pytest.mark.slow) for q in range(17, 102, 2) if is_odd_prime(q)
])
def test_affine_kernel_within_the_stated_bound_of_the_spectral(q):
    # every prime q <= 101; below 17 the test above covers every radius against the walk too
    assert _affine_spectral_gap(q) <= AFFINE_AGREEMENT


def test_affine_kernel_leaves_a_wrong_class_structure_to_the_orbit_proof(monkeypatch):
    # the last vertex relabelled into another orbit of q+1 points, as that orbit's last member: the
    # kernel reads one vertex per class and raises nothing, and the per-q proof fails "orbit sizes"
    ctx = field_context(7)
    real = scheme(ctx)
    labels = real.labels.copy()
    assert real.sizes[labels[-1]] == 8
    labels[-1] = 3 if labels[-1] != 3 else 2
    patched = real._replace(labels=labels, sizes=np.bincount(labels, minlength=7))
    monkeypatch.setattr(fuhp.heat, "scheme", lambda c: patched)
    assert stabiliser_orbits(ctx) is False
    assert heat_kernel_affine(ctx, 1, [0.5]).shape == (1, 7)


def _refuse_graph_and_walk(monkeypatch):
    """Patch every binding of build_graph and heat_kernel_oracle in fuhp to raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("vertex graph or walk on the heat and theta path")

    for module in vars(fuhp).values():
        for name in ("build_graph", "heat_kernel_oracle"):
            if getattr(module, "__name__", "").startswith("fuhp.") and hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_heat_and_theta_build_no_graph_and_walk_none(monkeypatch, tmp_path):
    ctx = field_context(13)
    graph = build_graph(ctx, 1)
    _refuse_graph_and_walk(monkeypatch)
    out = tmp_path / "heat.json"
    assert main(["heat", "--q", "13", "--r-s", "all-regular", "--t", "0,0.1,1", "--out", str(out)]) == EXIT_OK
    report = theta_consistency_report(ctx, 1, [0.1, 1.0])
    assert report.reconciled_deviation[:, report.radii].max() <= AFFINE_AGREEMENT * U * 13 * 12
    theta = ["theta", "--q", "13", "--r-s", "2", "--t", "0.1", "--out", str(tmp_path / "theta.json")]
    assert main(theta) == EXIT_OK
    walk = heat_checks(graph)[0]  # the patch reaches verify's walk, which reports what it raised
    assert walk.name == "q=13 r_s=1 spectral = oracle" and walk.fatal
    assert walk.detail == "vertex graph or walk on the heat and theta path"


def test_initial_condition_constant_function(q3):
    ctx, graph, _ = q3
    res = initial_condition_check(graph, np.ones(graph.n), [1.0, 0.1, 1e-6])
    assert max(res) <= 1e-12  # mass conservation makes the residual vanish


def test_initial_condition_indicator(q3):
    ctx, graph, _ = q3
    f = np.zeros(graph.n)
    f[BASE] = 1.0
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
    points = enumerate_points(ctx)
    for p in points:  # the affine group acting on itself from the left
        perm = np.array([vertex_index(ctx.q, *act(ctx, p, z)) for z in points])
        np.testing.assert_allclose(kernel[np.ix_(perm, perm)], kernel, atol=1e-10)


# -- the lift to the full matrix group ---------------------------------------


def test_group_graph_counts_q3():
    # the dense builder of the cross-check
    ctx = field_context(3, delta=2)
    gg = build_group_graph(ctx, 1)
    assert gg.n == 48
    assert len(gg.k_members) == 8
    assert int(gg.adjacency[0].sum()) == 32  # (q+1) * (q^2-1)
    # every coset has exactly |K| members
    counts = np.bincount(gg.coset_of, minlength=6)
    assert np.all(counts == 8)


def _array_action(ctx, m, z):
    """m.z through the array action: z is the affine matrix [[y, x], [0, 1]] applied to sqrt(delta)."""
    a, b, c, d = m
    image = mobius_index(ctx, np.array([a * z.y, a * z.x + b, c * z.y, c * z.x + d]) % ctx.q)
    return Point(int(image) % ctx.q, int(image) // ctx.q + 1)


def test_mobius_action_stabilizer():
    ctx = field_context(5)
    base = Point(0, 1)
    for a in range(5):
        for b in range(5):
            if (a, b) == (0, 0):
                continue
            k = (a, ctx.delta * b % 5, b, a)
            assert _array_action(ctx, k, base) == base


def test_mobius_action_preserves_distance():
    # the fractional-linear action is an isometry of the pseudo-distance,
    # which is what makes the lifted generating set inversion-closed
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
                    ctx, _array_action(ctx, m, z), _array_action(ctx, m, w)
                )


def test_array_action_matches_scalar_action_q5():
    ctx = field_context(5)
    group = build_group_graph(ctx, 1).elements
    for z in enumerate_points(ctx)[::3]:
        assert [_array_action(ctx, m, z) for m in group] == [mobius_action(ctx, m, z) for m in group]


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


@pytest.mark.parametrize("q", [3, 5])
def test_matrix_free_lift_matches_dense_lift(q):
    # the dense lifted kernel errs by about c*|G|*u relative to its scale q(q-1), as eigh's
    # eigenvectors are orthonormal to about |G|*u; the matrix-free walk by about K*u
    ctx = field_context(q)
    t_grid = [0.0, 0.1, 1.0, 5.0]
    for r_s in radii_order(ctx)[2:]:
        graph = build_graph(ctx, r_s)
        report = method_of_images_check(ctx, r_s, t_grid, graph=graph)
        dense = dense_images(graph, t_grid)
        assert report.intertwining_exact and dense.intertwining_exact
        assert report.measured_scaling == dense.measured_scaling == q * q - 1
        bound = 16 * report.group_order * U * graph.n
        assert np.abs(report.averaged - dense.averaged).max() <= bound


def test_lift_intertwining_fails_on_a_wrong_coset_map(monkeypatch):
    # a generator column shifted to another coset breaks the integer identity
    import fuhp.heat

    ctx = field_context(5)
    real = fuhp.heat.mobius_index

    def skewed(ctx, mats):
        index = real(ctx, mats)
        return np.where(index == 7, 8, index) if mats.ndim == 3 else index

    monkeypatch.setattr(fuhp.heat, "mobius_index", skewed)
    assert not method_of_images_check(ctx, 1, [0.1]).intertwining_exact


def test_lift_uses_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigendecomposition on the lift")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    report = method_of_images_check(field_context(7), 1, [0.1, 1.0, 5.0])
    assert report.group_order == 2016 and report.intertwining_exact
    assert report.max_deviation <= LIFT_AGREEMENT * U * 7 * 6


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_lift_checks_cover_every_prime_to_13(q):
    ctx = field_context(q)
    results = lift_checks(build_graph(ctx, radii_order(ctx)[2]))
    assert len(results) == 2
    assert all(r.passed and not r.finding_only for r in results), [r.detail for r in results]


def test_the_lift_check_is_bounded_by_its_error_model(monkeypatch):
    # |K-average - quotient kernel| <= LIFT_AGREEMENT*u*n (verify.py), 1.1e-11 at q=3: a lifted walk scaled
    # by 1 + 1e-9 fails it, though it stays within the former bare 1e-8; the walk as it is passes
    graph = build_graph(field_context(3), 1)
    for scale, passes in ((1.0, True), (1 + 1e-9, False)):
        def scaled(step, start, rates, terms, scale=scale):  # the lifted walk starts on |G| > n entries
            return _uniformization(step, start, rates, terms) * (scale if start.size > graph.n else 1.0)

        monkeypatch.setattr(fuhp.heat, "_uniformization", scaled)
        (check,) = [r for r in lift_checks(graph) if r.name == "q=3 r_s=1 K-average = quotient kernel"]
        deviation = float(check.detail.split()[2])
        assert check.fatal is not passes
        assert (deviation <= LIFT_AGREEMENT * U * 6) == passes and deviation < 1e-8


def test_lift_checks_skip_above_13():
    ctx = field_context(17)
    (result,) = lift_checks(build_graph(ctx, 1))
    assert result.finding_only and "q <= 13" in result.detail


def _parent_grid_walk(graph, t_grid):
    """The oracle's zero-padded grid walk, with no mixing stop, as one loop over the neighbour array."""
    q = graph.ctx.q
    rows = [poisson_weights((q + 1) * t)[0] for t in np.asarray(t_grid, dtype=float)]
    weights = np.zeros((len(rows), max(map(len, rows))))
    for i, row in enumerate(rows):
        weights[i, : len(row)] = row
    walk = np.zeros(graph.n)
    walk[BASE] = 1.0
    acc = np.outer(weights[:, 0], walk)
    for w_k in weights.T[1:]:
        walk = walk[graph.neighbors].sum(axis=1) / (q + 1)
        acc += np.outer(w_k, walk)
    return graph.n * acc


@pytest.mark.parametrize("q, r_s", [(5, 2), (13, 1), (53, 1)])
def test_oracle_bits_unchanged_by_the_shared_walk(q, r_s):
    graph = build_graph(field_context(q), r_s)
    t_grid = [1.0, 0.0, 0.25, 10.0, 2.0, 0.01]
    k_stop = _mixing_step(graph)
    stopped = heat_kernel_oracle(graph, t_grid).by_vertex
    full = _parent_grid_walk(graph, t_grid)
    for t, row, full_row in zip(t_grid, stopped, full):
        _assert_stopped_walk_matches(graph, t, row, full_row, k_stop)
    ends = [len(poisson_weights((q + 1) * t)[0]) - 1 for t in t_grid]
    assert min(ends) <= k_stop < max(ends)  # both sides of the stop are covered


@pytest.mark.parametrize("q", [5, 13, 53])
def test_oracle_step_adds_the_generator_rows_in_the_order_of_the_axis_sum(q):
    # one take per generator row, added into one n-vector, is the axis-0 sum of the gathered rows
    graph = build_graph(field_context(q), 1)
    t_grid = np.array([0.0, 0.1, 1.0, 10.0])
    rows = graph.by_generator.astype(np.intp)
    start = np.zeros(graph.n)
    start[BASE] = 1.0
    step = lambda walk: walk[rows].sum(axis=0) / (q + 1)
    want = graph.n * _uniformization(step, start, (q + 1) * t_grid, q + 1)
    assert np.array_equal(heat_kernel_oracle(graph, t_grid).by_vertex, want)


def test_oracle_scratch_is_below_one_gathered_neighbour_array():
    # gathering all q+1 generator rows at once made a (q+1) x n float array per step
    q = 53
    graph = build_graph(field_context(q), 1)
    t_grid = [0.0, 0.1, 1.0, 10.0]
    heat_kernel_oracle(graph, t_grid)  # warm the per-(q, delta) tables it reads
    tracemalloc.start()
    try:
        heat_kernel_oracle(graph, t_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (q + 1) * graph.n * 8, f"traced peak {peak / 1e6:.2f} MB"
