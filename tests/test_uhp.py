"""Graph construction: spheres, distance, Laplacian, orbits."""

import math

import numpy as np
import pytest

from fuhp.field import field_context
from fuhp.uhp import (
    Point,
    _connected,
    base_point,
    build_graph,
    degenerate_radii,
    distance,
    enumerate_points,
    laplacian,
    orbit_decomposition,
    orbit_labels,
    orbit_sizes,
    point_index,
    point_inverse,
    radii_order,
    sphere,
)


def brute_sphere(ctx, r):
    """Enumeration oracle: all (x, y) with y != 0 satisfying the sphere equation."""
    q, d = ctx.q, ctx.delta
    return {
        Point(x, y)
        for y in range(1, q)
        for x in range(q)
        if (x * x - r * y - d * (y - 1) ** 2) % q == 0
    }


def test_sphere_q3_frozen():
    ctx = field_context(3, delta=2)
    assert set(sphere(ctx, 1)) == brute_sphere(ctx, 1) == {
        Point(1, 1), Point(2, 1), Point(1, 2), Point(2, 2)
    }
    assert sphere(ctx, 0) == [Point(0, 1)]  # sqrt(delta) itself
    assert sphere(ctx, 2) == [Point(0, 2)]  # -sqrt(delta); 2 = 4*delta mod 3


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_sphere_sizes(q):
    ctx = field_context(q)
    deg = degenerate_radii(ctx)
    for r in range(q):
        pts = sphere(ctx, r)
        assert set(pts) == brute_sphere(ctx, r)
        assert len(pts) == (1 if r in deg else q + 1)


def test_distance_frozen_values():
    ctx = field_context(3, delta=2)
    assert distance(ctx, Point(1, 1), Point(0, 1)) == 1
    assert distance(ctx, Point(0, 2), Point(0, 1)) == 2
    ctx5 = field_context(5)
    for z in enumerate_points(ctx5):
        assert distance(ctx5, z, z) == 0


@pytest.mark.parametrize("q", [3, 5, 7])
def test_distance_symmetric_and_sphere_consistent(q):
    ctx = field_context(q)
    base = base_point()
    for z in enumerate_points(ctx):
        assert distance(ctx, z, base) == distance(ctx, base, z)
    for r in range(q):
        assert {z for z in enumerate_points(ctx) if distance(ctx, z, base) == r} == set(
            sphere(ctx, r)
        )


def test_octahedron_structure():
    # independent oracle: 6 vertices, complete graph minus a perfect matching
    ctx = field_context(3, delta=2)
    g = build_graph(ctx, 1)
    assert g.n == 6
    assert np.all(g.adjacency.sum(axis=1) == 4)
    # each vertex has exactly one non-neighbor: its antipode
    comp = 1 - g.adjacency - np.eye(6, dtype=np.int8)
    assert np.all(comp.sum(axis=1) == 1)
    i = point_index(ctx, Point(0, 1))
    j = point_index(ctx, Point(0, 2))
    assert comp[i, j] == 1  # (0,1) is adjacent to everything except (0,2)


def test_build_graph_q5():
    ctx = field_context(5)
    g = build_graph(ctx, 1)
    assert g.n == 20
    assert np.all(g.adjacency.sum(axis=1) == 6)
    # BFS oracle for connectivity
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in np.nonzero(g.adjacency[i])[0]:
                if j not in seen:
                    seen.add(int(j))
                    nxt.append(int(j))
        frontier = nxt
    assert len(seen) == 20


@pytest.mark.parametrize("q", [3, 5, 7])
def test_degenerate_radius_rejected(q):
    ctx = field_context(q)
    deg0, deg1 = degenerate_radii(ctx)
    for r in (deg0, deg1):
        with pytest.raises(ValueError, match=str(deg1)):
            build_graph(ctx, r)


def test_generating_sphere_closed_under_inversion():
    ctx = field_context(7)
    for r in range(ctx.q):
        if r in degenerate_radii(ctx):
            continue
        pts = set(sphere(ctx, r))
        assert {point_inverse(ctx, s) for s in pts} == pts


def test_laplacian_octahedron_spectrum():
    ctx = field_context(3, delta=2)
    g = build_graph(ctx, 1)
    lap = laplacian(g)
    # independent oracle: K6 minus perfect matching, built by hand
    adj = np.ones((6, 6)) - np.eye(6)
    for a, b in ((0, 1), (2, 3), (4, 5)):
        adj[a, b] = adj[b, a] = 0
    oracle = np.sort(np.linalg.eigvalsh(4 * np.eye(6) - adj))
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(lap)), oracle, atol=1e-10)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(lap)), [0, 4, 4, 4, 6, 6], atol=1e-10)


@pytest.mark.parametrize("q,r_s", [(3, 1), (5, 1), (7, 2)])
def test_laplacian_rowsums_and_kernel(q, r_s):
    ctx = field_context(q)
    lap = laplacian(build_graph(ctx, r_s))
    np.testing.assert_allclose(lap @ np.ones(lap.shape[0]), 0, atol=1e-12)
    w = np.linalg.eigvalsh(lap)
    assert w[0] > -1e-10
    assert w[1] > 1e-8  # connected: simple zero eigenvalue


def test_orbit_decomposition_sizes():
    ctx = field_context(3)
    assert orbit_sizes(ctx) == {0: 1, 1: 4, 2: 1}
    ctx5 = field_context(5)
    assert orbit_sizes(ctx5) == {0: 1, 3: 1, 1: 6, 2: 6, 4: 6}


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_orbits_partition_and_match_spheres(q):
    ctx = field_context(q)
    orbits = orbit_decomposition(ctx)
    assert sum(len(v) for v in orbits.values()) == q * (q - 1)
    pts = enumerate_points(ctx)
    for r, ix in orbits.items():
        assert {pts[i] for i in ix} == set(sphere(ctx, r))
    base = base_point()
    assert orbit_labels(ctx).tolist() == [distance(ctx, z, base) for z in pts]


def test_orbit_labels_cached_read_only():
    ctx = field_context(7)
    labels = orbit_labels(ctx)
    assert orbit_labels(ctx) is labels
    with pytest.raises(ValueError):
        labels[0] = 1


@pytest.mark.parametrize("q", [3, 5, 7])
def test_adjacency_iff_distance(q):
    ctx = field_context(q)
    r_s = 2 if q == 7 else 1
    g = build_graph(ctx, r_s)
    pts = g.points
    for i in range(g.n):
        for j in range(g.n):
            assert bool(g.adjacency[i, j]) == (distance(ctx, pts[i], pts[j]) == r_s)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_lazy_adjacency_is_distance_sphere_at_every_radius(q):
    ctx = field_context(q)
    for r_s in radii_order(ctx)[2:]:
        g = build_graph(ctx, r_s)
        assert "adjacency" not in vars(g)  # built on first use only
        assert g.neighbors.shape == (g.n, q + 1)
        expect = [[distance(ctx, z, w) == r_s for w in g.points] for z in g.points]
        assert np.array_equal(g.adjacency, np.array(expect, dtype=np.int8))


def test_connectivity_search_over_neighbors():
    ring = np.array([[1, 2], [2, 0], [0, 1]])
    assert _connected(ring)
    two_rings = np.concatenate([ring, ring + 3])
    assert not _connected(two_rings)


@pytest.mark.parametrize("q", [5, 7, 13])
def test_ramanujan_bound_all_regular_radii(q):
    ctx = field_context(q)
    bound = 2 * math.sqrt(q) + 1e-9
    for r_s in range(q):
        if r_s in degenerate_radii(ctx):
            continue
        w = np.linalg.eigvalsh(build_graph(ctx, r_s).adjacency.astype(float))
        nontrivial = w[np.abs(np.abs(w) - (q + 1)) > 1e-8]
        assert np.abs(nontrivial).max() <= bound


def test_vertex_transitive_row_multisets():
    ctx = field_context(7)
    g = build_graph(ctx, 1)
    first = np.sort(g.adjacency[0])
    for row in g.adjacency:
        assert np.array_equal(np.sort(row), first)


def test_point_index_matches_enumeration_order():
    ctx = field_context(5)
    for i, z in enumerate(enumerate_points(ctx)):
        assert point_index(ctx, z) == i
    assert radii_order(ctx) == [0, 3, 1, 2, 4]
