"""The finite upper half-plane H_q, its spheres, and the Cayley graph on it.

H_q is the set of z = x + y*sqrt(delta) with y != 0, identified with the
affine matrix [[y, x], [0, 1]]. The sphere of radius r around sqrt(delta)
is cut out by x^2 = r*y + delta*(y-1)^2; using it as a Cayley generating
set gives a (q+1)-regular graph on the q(q-1) points, whose combinatorial
Laplacian is (q+1)*I - A.

Vertex order is fixed to lexicographic (y, x) so that all matrices are
bit-reproducible.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .field import ExtElement, ext_norm

ORBIT_CONSTANCY_TOL = 1e-10


@dataclass(frozen=True)
class Point:
    """x + y*sqrt(delta) with y != 0, alias the affine matrix [[y, x], [0, 1]]."""

    x: int
    y: int


def base_point():
    """sqrt(delta) itself, the identity of the affine group."""
    return Point(0, 1)


def enumerate_points(ctx):
    """All q(q-1) points of H_q in the canonical (y, x) order."""
    return [Point(x, y) for y in range(1, ctx.q) for x in range(ctx.q)]


def point_index(ctx, z):
    """Index of z in the canonical (y, x) order."""
    return (z.y - 1) * ctx.q + z.x


def act(ctx, z, s):
    """Right action of the affine group: (x,y).(x_s,y_s) = (y*x_s + x, y*y_s)."""
    return Point((z.y * s.x + z.x) % ctx.q, (z.y * s.y) % ctx.q)


def point_inverse(ctx, s):
    """Inverse of s in the affine group."""
    yinv = ctx.inv(s.y)
    return Point(-s.x * yinv % ctx.q, yinv)


def sphere(ctx, r):
    """All points at pseudo-distance r from sqrt(delta), sorted by (y, x).

    Solutions of x^2 = r*y + delta*(y-1)^2 with y != 0. Size is q+1 except
    at the two degenerate radii 0 and 4*delta, where the sphere is the
    single point sqrt(delta) resp. -sqrt(delta).
    """
    q = ctx.q
    return [Point(i % q, i // q + 1) for i in np.flatnonzero(orbit_labels(ctx) == r % q).tolist()]


def distance(ctx, z, w):
    """Pseudo-distance N(z - w) / (I(z) * I(w)) in F_q, with I(z) = y."""
    diff = ExtElement((z.x - w.x) % ctx.q, (z.y - w.y) % ctx.q)
    return ext_norm(ctx, diff) * ctx.inv(z.y * w.y) % ctx.q


def degenerate_radii(ctx):
    """The two radii at which the sphere collapses to a single point."""
    return (0, 4 * ctx.delta % ctx.q)


def regular_radius(ctx, r_s):
    """r_s mod q as a generating radius; the degenerate radii are rejected."""
    r_s %= ctx.q
    deg0, deg1 = degenerate_radii(ctx)
    if r_s in (deg0, deg1):
        raise ValueError(f"degenerate radius r_s={r_s}: radii {deg0} and {deg1} give singleton spheres")
    return r_s


class UhpGraph:
    """Cayley graph of H_q with generating sphere S_{r_s}; immutable once built.

    ``neighbors[i]`` lists the q+1 neighbours of vertex i, one column per
    generator in sphere order; the dense int8 ``adjacency`` is built from it
    on first use only.
    """

    def __init__(self, ctx, r_s, points, neighbors):
        self.ctx = ctx
        self.r_s = r_s
        self.points = points
        self.neighbors = neighbors
        self._eig = None

    @property
    def n(self):
        return len(self.points)

    @property
    def degree(self):
        return self.ctx.q + 1

    @functools.cached_property
    def adjacency(self):
        """Dense n x n int8 adjacency matrix."""
        adjacency = np.zeros((self.n, self.n), dtype=np.int8)
        adjacency[np.arange(self.n)[:, None], self.neighbors] = 1
        return adjacency

    def adjacency_eigh(self):
        """Cached symmetric eigendecomposition of the adjacency matrix.

        O(n^3) time and O(n^2) memory: the small-q cross-check of the tests and
        of ``radial_eigenbasis``; no CLI or ``verify`` path calls it.
        """
        if self._eig is None:
            w, v = np.linalg.eigh(self.adjacency.astype(float))
            self._eig = (w, v)
        return self._eig


def build_graph(ctx, r_s):
    """Construct the Cayley graph for a regular radius r_s.

    Rejects the degenerate radii. Verifies (rather than assumes) that the
    generating sphere is closed under group inversion, and that the result
    is (q+1)-regular, loop-free, symmetric, and connected. Every check runs
    on the n x (q+1) neighbour array; no n x n matrix is built.
    """
    q = ctx.q
    r_s = regular_radius(ctx, r_s)

    gen = sphere(ctx, r_s)
    gen_set = set(gen)
    for s in gen:
        if point_inverse(ctx, s) not in gen_set:
            raise AssertionError(f"generating sphere not closed under inversion at {s}")

    points = enumerate_points(ctx)
    n = len(points)
    xs = np.array([z.x for z in points])
    ys = np.array([z.y for z in points])
    # column k holds the right translates z . s_k, in canonical index order
    neighbors = np.stack([(ys * s.y % q - 1) * q + (ys * s.x + xs) % q for s in gen], axis=1)

    rows = np.arange(n)
    if np.any(neighbors == rows[:, None]):
        raise AssertionError("self-loop produced by a regular radius")
    if np.any(np.diff(np.sort(neighbors, axis=1), axis=1) == 0):
        raise AssertionError("graph is not (q+1)-regular")
    # the edge set {(i, j)} equals its transpose: compare the encoded lists i*n + j and j*n + i
    forward = np.sort(rows[:, None] * n + neighbors, axis=None)
    backward = np.sort(neighbors * n + rows[:, None], axis=None)
    if not np.array_equal(forward, backward):
        raise AssertionError("adjacency not symmetric")
    if not _connected(neighbors):
        raise AssertionError("graph is not connected")

    return UhpGraph(ctx, r_s, points, neighbors)


def _connected(neighbors):
    """Breadth-first search from vertex 0 over the neighbour array."""
    seen = np.zeros(neighbors.shape[0], dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        reached = np.zeros_like(seen)
        reached[neighbors[frontier]] = True
        frontier = np.flatnonzero(reached & ~seen)
        seen |= reached
    return bool(seen.all())


def laplacian(graph):
    """Combinatorial Laplacian (q+1)*I - A as a dense float matrix."""
    n = graph.n
    return (graph.ctx.q + 1) * np.eye(n) - graph.adjacency.astype(float)


def orbit_labels(ctx):
    """Distance (x^2 - delta*(y-1)^2) / y of every vertex to sqrt(delta), in (y, x) order."""
    q = ctx.q
    ys = np.repeat(np.arange(1, q), q)
    xs = np.tile(np.arange(q), q - 1)
    y_inv = np.array([0] + [ctx.inv(y) for y in range(1, q)])
    return (xs * xs - ctx.delta * (ys - 1) ** 2) * y_inv[ys] % q


def orbit_decomposition(ctx):
    """Partition of H_q by distance to sqrt(delta): radius -> sorted vertex indices."""
    labels = orbit_labels(ctx)
    return {r: np.flatnonzero(labels == r).tolist() for r in dict.fromkeys(labels.tolist())}


def radial_values(ctx, vecs, what):
    """Values by radius (radii_order) of the vertex function ``what``, asserted constant on orbits.

    ``vecs`` is one function (shape [n]) or one per row (shape [rows, n]); the
    result has the same leading shape, with one column per radius.
    """
    labels = orbit_labels(ctx)
    radii = radii_order(ctx)
    out = np.empty(vecs.shape[:-1] + (len(radii),))
    for k, r in enumerate(radii):
        # contiguous rows, so that each row mean adds in the order of a 1-D vector's mean
        vals = np.ascontiguousarray(vecs[..., labels == r])
        spread = vals.max(axis=-1) - vals.min(axis=-1)
        scale = np.maximum(1.0, np.abs(vals).max(axis=-1))
        assert np.all(spread <= ORBIT_CONSTANCY_TOL * scale), (
            f"{what} not constant on orbit r={r} (spread {np.max(spread):.3e})"
        )
        out[..., k] = vals.mean(axis=-1)
    return out


def orbit_sizes(ctx):
    return {r: len(ix) for r, ix in orbit_decomposition(ctx).items()}


def radii_order(ctx):
    """Canonical radius order: 0 first, then 4*delta, then regular radii sorted."""
    deg0, deg1 = degenerate_radii(ctx)
    regular = sorted(r for r in range(ctx.q) if r not in (deg0, deg1))
    return [deg0, deg1] + regular
