"""Graph construction: spheres, distance, Laplacian, orbits."""

import math
import tracemalloc

import numpy as np
import pytest

import fuhp.uhp
from fuhp.field import field_context
from fuhp.uhp import (
    Point,
    _generates,
    affine_product,
    base_point,
    build_graph,
    cayley_certificate,
    degenerate_radii,
    laplacian,
    orbit_sizes,
    point_index,
    radii_order,
    scheme,
    sphere,
    translate,
    unsigned_dtype,
    vertex_index,
)

from dense_graph import act, connected, distance, enumerate_points


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
    assert connected(g.neighbors)  # the breadth-first reference


@pytest.mark.parametrize("q", [3, 5, 7])
def test_degenerate_radius_rejected(q):
    ctx = field_context(q)
    deg0, deg1 = degenerate_radii(ctx)
    for r in (deg0, deg1):
        with pytest.raises(ValueError, match=str(deg1)):
            build_graph(ctx, r)
        with pytest.raises(ValueError, match=str(deg1)):
            cayley_certificate(ctx, r)


def test_generating_sphere_closed_under_inversion():
    ctx = field_context(7)
    for r in range(ctx.q):
        if r in degenerate_radii(ctx):
            continue
        pts = set(sphere(ctx, r))
        inverses = {t for s in pts for t in enumerate_points(ctx) if act(ctx, s, t) == base_point()}
        assert inverses == pts


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
    # verify prints the sizes in the order of each radius's first vertex, as plain ints
    assert str(orbit_sizes(ctx5)) == "{0: 1, 1: 6, 4: 6, 2: 6, 3: 1}"


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_orbits_partition_and_match_spheres(q):
    ctx = field_context(q)
    labels = scheme(ctx).labels
    pts = enumerate_points(ctx)
    for r in range(q):
        assert {pts[i] for i in np.flatnonzero(labels == r)} == set(sphere(ctx, r))
    base = base_point()
    assert labels.tolist() == [distance(ctx, z, base) for z in pts]


def test_orbit_labels_cached_read_only():
    ctx = field_context(7)
    vertices = scheme(ctx)
    assert scheme(ctx) is vertices
    for array in vertices:
        with pytest.raises(ValueError):
            array[0] = 1


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_scheme_matches_points_and_orbits(q):
    ctx = field_context(q)
    vertices = scheme(ctx)
    pts = enumerate_points(ctx)
    assert vertices.x.tolist() == [z.x for z in pts]
    assert vertices.y.tolist() == [z.y for z in pts]
    orbits = [np.flatnonzero(vertices.labels == r) for r in range(q)]
    assert vertices.sizes.tolist() == [len(ix) for ix in orbits]
    assert vertices.reps.tolist() == [ix[0] for ix in orbits]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_translate_is_the_affine_product(q):
    ctx = field_context(q)
    pts = enumerate_points(ctx)
    rows = np.arange(len(pts))
    expect = [[point_index(ctx, act(ctx, z, w)) for w in pts] for z in pts]
    assert np.array_equal(translate(q, rows[:, None], rows), expect)
    assert translate(q, len(pts) - 1, 1) == expect[-1][1]  # scalar indices


def test_build_graph_rejects_a_generating_set_not_closed_under_inversion(monkeypatch):
    ctx = field_context(7)
    real = scheme(ctx)
    u, u_inv = Point(1, 2), Point(3, 4)
    assert act(ctx, u, u_inv) == base_point() and real.labels[point_index(ctx, u_inv)] != 1
    labels = real.labels.copy()
    labels[point_index(ctx, u)] = 1  # u joins S_1 without its inverse
    monkeypatch.setattr(fuhp.uhp, "scheme", lambda c: real._replace(labels=labels))
    with pytest.raises(AssertionError, match="not closed under inversion"):
        build_graph(ctx, 1)


@pytest.mark.parametrize("q", [5, 13, 53])
def test_neighbors_are_the_translates_by_every_generator(q):
    ctx = field_context(q)
    rows = np.arange(q * (q - 1))
    for r_s in radii_order(ctx)[2:]:
        gen = rows[scheme(ctx).labels == r_s]
        graph = build_graph(ctx, r_s)
        assert np.array_equal(graph.neighbors, translate(q, rows[:, None], gen))
        assert graph.by_generator.flags.c_contiguous and graph.neighbors.base is graph.by_generator
        assert graph.by_generator.dtype == np.uint16


@pytest.mark.parametrize("largest, floor, dtype", [
    (255, np.uint8, np.uint8), (256, np.uint8, np.uint16), (3, np.uint16, np.uint16),
    (65535, np.uint16, np.uint16), (65536, np.uint16, np.uint32),
])
def test_unsigned_dtype_widens_past_its_range(largest, floor, dtype):
    assert unsigned_dtype(largest, floor) == dtype


@pytest.mark.parametrize("q, index, count", [(251, np.uint16, np.uint8), (257, np.uint32, np.uint16)])
def test_compact_dtypes_at_the_primes_around_their_ranges(q, index, count):
    # vertex indices reach q(q-1) - 1 and the scheme counts q + 1; both widen first at q = 257
    assert unsigned_dtype(q * (q - 1) - 1, np.uint16) == index
    assert unsigned_dtype(q + 1) == count


def test_build_graph_scratch_is_one_neighbour_array():
    # the uint16 n(q+1) result and a few int64 n-vectors of scratch per generator: 0.39 MB traced at q=53
    q = 53
    n = q * (q - 1)
    ctx = field_context(q)
    build_graph(ctx, 1)  # warm the per-(q, delta) tables it reads
    tracemalloc.start()
    try:
        build_graph(ctx, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n * (q + 1) * 2 + 8 * n * 8, f"traced peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("q", [3, 5, 7])
def test_adjacency_iff_distance(q):
    ctx = field_context(q)
    r_s = 2 if q == 7 else 1
    g = build_graph(ctx, r_s)
    pts = enumerate_points(ctx)
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
        pts = enumerate_points(ctx)
        expect = [[distance(ctx, z, w) == r_s for w in pts] for z in pts]
        assert np.array_equal(g.adjacency, np.array(expect, dtype=np.int8))


def test_connectivity_search_over_neighbors():
    ring = np.array([[1, 2], [2, 0], [0, 1]])
    assert connected(ring)
    two_rings = np.concatenate([ring, ring + 3])
    assert not connected(two_rings)


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


# -- the Cayley certificate: the graph's facts from the generating set alone ----


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_cayley_certificate_accepts_what_build_graph_and_the_search_accept(q):
    ctx = field_context(q)
    x, y = scheme(ctx).x, scheme(ctx).y
    for r_s in radii_order(ctx)[2:]:
        graph = build_graph(ctx, r_s)
        gen = cayley_certificate(ctx, r_s)
        # the base point sqrt(delta) is vertex 0, the identity, so its neighbours z_0 . s_k are the s_k
        assert np.array_equal(gen, graph.by_generator[:, 0])
        assert _generates(ctx, x[gen], y[gen]) and connected(graph.neighbors)


def _cayley_neighbors(ctx, gen):
    """The [n, |S|] neighbour array z . s of the Cayley graph on the vertex indices ``gen``."""
    vertices = scheme(ctx)
    return affine_product(ctx.q, vertices.x[:, None], vertices.y[:, None], vertices.x[gen], vertices.y[gen])


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_generation_criterion_agrees_with_breadth_first_search(q):
    # small inverse-closed sets, so that many generate a proper subgroup: F_q, a point stabiliser,
    # a subgroup of index > 1 over F_q^x, or the identity alone
    ctx = field_context(q)
    vertices = scheme(ctx)
    x, y = vertices.x, vertices.y
    inverse = vertex_index(q, -x * ctx.inverse[y] % q, ctx.inverse[y])  # (x, y)^(-1) = (-x/y, 1/y)
    rng = np.random.default_rng(q)
    subgroup_picks = [
        np.flatnonzero(y == 1),  # translations
        np.flatnonzero(x == 3 * (1 - y) % q),  # the stabiliser of p = 3
        np.flatnonzero(ctx.dlog[y] % 2 == 0),  # F_q x| squares
    ]
    verdicts = set()
    for trial in range(150):
        pool = subgroup_picks[trial % 3] if trial % 2 else np.arange(len(x))
        picked = rng.choice(pool, size=rng.integers(1, 4))
        gen = np.union1d(picked, inverse[picked])
        verdict = _generates(ctx, x[gen], y[gen])
        assert verdict == connected(_cayley_neighbors(ctx, gen)), gen
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _with_generators(monkeypatch, ctx, r_s, gen):
    """Patch uhp's scheme so that the sphere of radius r_s != 1 is the vertex set ``gen``."""
    real = scheme(ctx)
    labels = np.where(real.labels == r_s, 1, real.labels)
    labels[gen] = r_s
    monkeypatch.setattr(fuhp.uhp, "scheme", lambda c: real._replace(labels=labels))


def _mutated_sets(ctx, r_s):
    """Sets of vertices that differ from S_{r_s} in one way each, and the message they draw."""
    q = ctx.q
    x, y, labels, *_ = scheme(ctx)
    gen = np.flatnonzero(labels == r_s)
    identity = 0
    outside = np.setdiff1d(np.arange(1, len(labels)), gen)
    involutions = gen[y[gen] == q - 1]  # (x, -1) is its own inverse
    stabiliser = np.flatnonzero((x == 2 * (1 - y) % q) & (y != 1))  # of the point 2, less the identity
    cases = [
        ("one point replaced", np.append(gen[1:], outside[0]), "not closed under inversion"),
        ("identity added", np.append(gen, identity), "self-loop"),
        ("translations only", np.flatnonzero((y == 1) & (x != 0)), "not connected"),
        ("stabiliser of a point", stabiliser, "not connected"),
    ]
    if involutions.size:
        cases.append(("identity for an involution", np.append(np.setdiff1d(gen, involutions[:1]), identity),
                      "self-loop"))
    return cases


@pytest.mark.parametrize("q", [5, 7, 13])
def test_cayley_certificate_refuses_mutated_sets_as_build_graph_does(monkeypatch, q):
    ctx = field_context(q)
    r_s = 2
    x, y = scheme(ctx).x, scheme(ctx).y
    for name, gen, message in _mutated_sets(ctx, r_s):
        if message == "not connected":
            assert not _generates(ctx, x[gen], y[gen]), name
        with monkeypatch.context() as patch:
            _with_generators(patch, ctx, r_s, gen)
            with pytest.raises(AssertionError, match=message):
                cayley_certificate(ctx, r_s)
            with pytest.raises(AssertionError, match=message):
                build_graph(ctx, r_s)


def test_cayley_certificate_requires_q_plus_1_generators(monkeypatch):
    # two spheres together: inverse-closed, loop-free and generating, but 2(q+1)-regular
    ctx = field_context(7)
    labels = scheme(ctx).labels
    _with_generators(monkeypatch, ctx, 2, np.flatnonzero((labels == 2) | (labels == 3)))
    with pytest.raises(AssertionError, match="not \\(q\\+1\\)-regular"):
        cayley_certificate(ctx, 2)
