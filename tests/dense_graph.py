"""Dense references for the radial core, and the point-by-point vertex API.

``Point``, ``enumerate_points``, ``act`` and ``distance``: the points of H_q
as ``Point``s in the canonical (y, x) order, the affine product and the
pseudo-distance, one point at a time, for tests that check the library's
vectorised index arrays against them; ``translate`` is the affine product on
vertex indices, and ``sphere`` reads one distance class of ``scheme(ctx)``
back as ``Point``s.

``laplacian``: the dense combinatorial Laplacian (q+1)*I - A of a graph.

``connected``: breadth-first search, the reference for the certificate's generation criterion.

``radial_eigenbasis``: the spherical table for small q from adjacency
eigenprojections of the base-point indicator, one dense n x n
eigendecomposition, so O(n^3) time. Rows that share an adjacency eigenvalue
at r_s are merged, which makes this the only source of an incomplete table.

``broadcast_radial_rows``: the spherical rows as eigenvectors, the reference
for the certified character sums of ``spherical.spherical_rows``. The
quotient counts come from a broadcast over every vertex, one orbit
representative at a time, and one eigh of a golden-angle combination
sum_r c_r B~_r of the symmetrised blocks gives the common eigenvectors,
whose Rayleigh quotients are the rows.
"""

from typing import NamedTuple

import numpy as np

from fuhp.spherical import EIGENVALUE_CLUSTER_TOL, SphericalTable
from fuhp.uhp import affine_product, radial_values, radii_order, scheme

from scalar_reference import ExtElement, ext_norm

# weights cos(r * golden angle) keep the eigenvalues of sum_r c_r B~_r apart
# by >= 5.5e-5 of its norm at every prime q <= 101
GOLDEN_ANGLE = np.pi * (3 - np.sqrt(5))


class Point(NamedTuple):
    """x + y*sqrt(delta) with y != 0, alias the affine matrix [[y, x], [0, 1]]; Point(0, 1) is sqrt(delta)."""

    x: int
    y: int


def enumerate_points(ctx):
    """All q(q-1) points of H_q in the canonical (y, x) order."""
    return [Point(x, y) for y in range(1, ctx.q) for x in range(ctx.q)]


def act(ctx, z, s):
    """Right action of the affine group: (x,y).(x_s,y_s) = (y*x_s + x, y*y_s)."""
    return Point((z.y * s.x + z.x) % ctx.q, (z.y * s.y) % ctx.q)


def translate(q, i, j):
    """Index of z_i . z_j = (y_i*x_j + x_i, y_i*y_j) for vertex indices i, j (arrays broadcast)."""
    (yi, xi), (yj, xj) = np.divmod(i, q), np.divmod(j, q)
    return affine_product(q, xi, yi + 1, xj, yj + 1)


def sphere(ctx, r):
    """The points of the class ``scheme(ctx).labels == r`` in vertex order: x^2 = r*y + delta*(y-1)^2, y != 0."""
    vertices = scheme(ctx)
    ix = vertices.labels == r % ctx.q
    return [Point(x, y) for x, y in zip(vertices.x[ix].tolist(), vertices.y[ix].tolist())]


def distance(ctx, z, w):
    """Pseudo-distance N(z - w) / (I(z) * I(w)) in F_q, with I(z) = y."""
    diff = ExtElement((z.x - w.x) % ctx.q, (z.y - w.y) % ctx.q)
    return ext_norm(ctx, diff) * pow(z.y * w.y, ctx.q - 2, ctx.q) % ctx.q


def laplacian(graph):
    """Combinatorial Laplacian (q+1)*I - A as a dense float matrix."""
    return (graph.ctx.q + 1) * np.eye(graph.n) - graph.adjacency.astype(float)


def connected(neighbors):
    """Breadth-first search from vertex 0 over the [n, degree] neighbour array, one column at a time."""
    seen = np.zeros(neighbors.shape[0], dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        reached = np.zeros_like(seen)
        for nbrs in neighbors.T:
            reached[nbrs.take(frontier).astype(np.intp)] = True  # a scatter by uint16 is slower
        frontier = np.flatnonzero(reached & ~seen)
        seen |= reached
    return bool(seen.all())


def broadcast_radial_rows(ctx):
    """(omega, degrees) from one eigh, the quotient counts broadcast over the n translates of each representative.

    omega[i, r] is the Rayleigh quotient u_i' B~_r u_i / (|S_r| u_i' u_i), the row of
    value 1 nearest the constant is set to 1.0, and d_i = n / sum_r |S_r| omega_i(r)^2
    rounded; rows come in the eigh's order. The counts take q^3 int16s, and each block
    B~_r is formed when it is used, so no q^3 float array is made.
    """
    q = ctx.q
    n = q * (q - 1)
    radii = radii_order(ctx)
    vertices = scheme(ctx)
    labels = vertices.labels
    counts = np.empty((q, q, q), dtype=np.int16)  # [r, r1, r2]
    for r1, rep in enumerate(vertices.reps):
        moved = labels[translate(q, rep, np.arange(n))]
        counts[:, r1] = np.bincount(labels * q + moved, minlength=q * q).reshape(q, q)
    counts, sizes = counts[np.ix_(radii, radii, radii)], vertices.sizes[radii]
    root = np.sqrt(np.outer(sizes, sizes))
    combined = np.zeros((q, q))
    for c, block in zip(np.cos(GOLDEN_ANGLE * np.array(radii)), counts):
        combined += c * (sizes[:, None] * block / root)
    _, u = np.linalg.eigh(combined)
    omega = np.array([((sizes[:, None] * block / root) @ u * u).sum(axis=0) for block in counts])
    omega = omega.T / sizes / (u * u).sum(axis=0)[:, None]
    omega[np.abs(omega - 1.0).max(axis=1).argmin()] = 1.0
    return omega[:, np.argsort(radii)], np.rint(n / (omega**2 @ sizes)).astype(np.int64)


def radial_eigenbasis(graph):
    """Dense oracle: spherical rows from adjacency eigenprojections.

    For each distinct adjacency eigenvalue a_i with projector P_i, the vector
    P_i e_0 (e_0 = base-point indicator) is constant on distance orbits; its
    value normalized by the base-point entry is omega_i by radius. d_i is the
    eigenvalue multiplicity, and lambda_i = (q+1) - a_i.
    """
    ctx = graph.ctx
    q = ctx.q
    n = graph.n
    w, v = graph.adjacency_eigh()

    # cluster numerically-equal eigenvalues (ascending from eigh)
    clusters = []
    start = 0
    for i in range(1, n + 1):
        if i == n or w[i] - w[i - 1] > EIGENVALUE_CLUSTER_TOL:
            clusters.append((start, i))
            start = i
    sizes = scheme(ctx).sizes.copy()

    base = 0  # canonical (y, x) order puts sqrt(delta) first
    rows = []
    for lo, hi in clusters:
        cols = v[:, lo:hi]
        proj_e0 = cols @ cols[base]
        denom = proj_e0[base]
        # for a Gelfand pair the base-point mass is d_i/n > 0
        assert denom > 1e-12, "eigenprojection of the base indicator vanished at the base"
        values = radial_values(ctx, proj_e0 / denom, "eigenprojection")
        d = hi - lo
        a = float(w[lo:hi].mean())
        rows.append((values, d, a))

    order = np.argsort([q + 1 - a for _, _, a in rows], kind="stable")
    omega = np.vstack([rows[i][0] for i in order])
    degrees = np.array([rows[i][1] for i in order])
    adj_eigs = np.array([rows[i][2] for i in order])
    return SphericalTable(
        orbit_sizes=sizes,
        omega=omega,
        degrees=degrees,
        adjacency_eigenvalues=adj_eigs,
        laplacian_eigenvalues=(q + 1) - adj_eigs,
    )
