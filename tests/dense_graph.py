"""Dense references for the radial core, and the point-by-point vertex API.

``enumerate_points``, ``act`` and ``distance``: the points of H_q as
``Point``s in the canonical (y, x) order, the affine product and the
pseudo-distance, one point at a time, for tests that check the library's
vectorised index arrays against them.

``connected``: breadth-first search, the reference for the certificate's generation criterion.

``radial_eigenbasis``: the spherical table for small q from adjacency
eigenprojections of the base-point indicator, one dense n x n
eigendecomposition, so O(n^3) time. Rows that share an adjacency eigenvalue
at r_s are merged, which makes this the only source of an incomplete table.

``broadcast_radial_rows``: ``spherical._radial_rows`` as one broadcast over
every orbit representative and vertex, with q x n and q^3 temporaries; only
the combination sum_r c_r B~_r adds the radius blocks one at a time, and
like ``_radial_rows`` it solves in ``radii_order``.
"""

import numpy as np

from fuhp.field import ExtElement, ext_norm
from fuhp.spherical import EIGENVALUE_CLUSTER_TOL, GOLDEN_ANGLE, SphericalTable
from fuhp.uhp import Point, radial_values, radii_order, scheme, translate


def enumerate_points(ctx):
    """All q(q-1) points of H_q in the canonical (y, x) order."""
    return [Point(x, y) for y in range(1, ctx.q) for x in range(ctx.q)]


def act(ctx, z, s):
    """Right action of the affine group: (x,y).(x_s,y_s) = (y*x_s + x, y*y_s)."""
    return Point((z.y * s.x + z.x) % ctx.q, (z.y * s.y) % ctx.q)


def distance(ctx, z, w):
    """Pseudo-distance N(z - w) / (I(z) * I(w)) in F_q, with I(z) = y."""
    diff = ExtElement((z.x - w.x) % ctx.q, (z.y - w.y) % ctx.q)
    return ext_norm(ctx, diff) * ctx.inv(z.y * w.y) % ctx.q


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
    """(omega, degrees) of ``_radial_rows``, from the q x n translates of all representatives at once."""
    q = ctx.q
    n = q * (q - 1)
    radii = radii_order(ctx)
    vertices = scheme(ctx)
    labels = vertices.labels
    moved = labels[translate(q, vertices.reps[:, None], np.arange(n))]
    flat = (labels[None, :] * q + np.arange(q)[:, None]) * q + moved
    quotient = np.bincount(flat.ravel(), minlength=q**3).reshape(q, q, q)  # [r, r1, r2]
    quotient, sizes = quotient[np.ix_(radii, radii, radii)], vertices.sizes[radii]
    sym = sizes[None, :, None] * quotient / np.sqrt(np.outer(sizes, sizes))
    combined = np.zeros((q, q))
    for c, block in zip(np.cos(GOLDEN_ANGLE * np.array(radii)), sym):  # the production order
        combined += c * block
    _, u = np.linalg.eigh(combined)
    omega = ((sym @ u) * u).sum(axis=1).T / sizes / (u * u).sum(axis=0)[:, None]
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
        q=q,
        delta=ctx.delta,
        r_s=graph.r_s,
        orbit_sizes=sizes,
        omega=omega,
        degrees=degrees,
        adjacency_eigenvalues=adj_eigs,
        laplacian_eigenvalues=(q + 1) - adj_eigs,
    )
