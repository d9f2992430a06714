"""Heat kernels on the finite upper half-plane graph.

The fundamental solution E(t; r) with unit initial mass at sqrt(delta) is
computed two independent ways: the spectral expansion sum_i d_i e^(-lambda_i t)
omega_i(r) over the spherical table, and the matrix-exponential oracle
q(q-1) * exp(-t*Laplacian) applied to the base-point indicator.

The oracle uses no eigendecomposition. The Laplacian is (q+1)I - A with A
(q+1)-regular and non-negative, so with P = A/(q+1) and rate = (q+1)t

    exp(-tL) e_0 = sum_k Poisson(k; rate) * P^k e_0

(uniformization, the continuous-time random walk). P is applied through the
n x (q+1) neighbour array at cost n(q+1) per step, and the sum stops at the
first K whose dropped Poisson tail is at most the unit roundoff u, so the
whole oracle costs O(K * n(q+1)) with K ~ rate + O(sqrt(rate)). Every term is
non-negative, so nothing cancels: the result carries the truncated tail
(<= u) plus rounding of about K*u relative in each entry.

Both kernels take a grid of times and return arrays [t, radius column]; the
oracle walks once, to the largest t of the grid, and also returns [t, vertex].

The module also lifts the problem to the full group of invertible 2x2
matrices and verifies that averaging the lifted kernel over the point
stabilizer reproduces the quotient kernel (the method of images). The lifted
kernel comes from the same uniformization, applied through a |G| x (q+1)
array of cosets, so no |G| x |G| matrix is built there either.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .field import field_tables
from .uhp import base_point, build_graph, point_index, radial_values, scheme, translate, vertex_index


def _time_grid(t_grid):
    """The times as a 1-D float array; a scalar, a negative or a non-finite time raises ValueError."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1:
        raise ValueError(f"times must be a 1-D sequence, got shape {t_grid.shape}")
    if not ((t_grid >= 0) & (t_grid < np.inf)).all():
        raise ValueError(f"times must be finite and nonnegative, got {t_grid.tolist()}")
    return t_grid


def heat_kernel_spectral(table, t_grid):
    """Spectral expansion E(t; r) = sum_i d_i * exp(-lambda_i * t) * omega_i(r).

    One array [t, radius column] for the whole grid, columns in ``table.radii``.
    """
    weights = table.degrees * np.exp(-np.outer(_time_grid(t_grid), table.laplacian_eigenvalues))
    return weights @ table.omega


def poisson_weights(rate):
    """Poisson(k; rate) for k = 0..K, and a bound on the dropped tail sum_{k>K}.

    e^(-rate) underflows once rate > 745, so only the mode weight is formed,
    in log space as fsum(-rate, log(rate/j) for j <= mode); the others follow
    by the ratios w_(k+1)/w_k = rate/(k+1) outward from it, one rounding per
    step. For k >= K+1 >= rate the ratios are at most rho = rate/(K+2) < 1,
    so the tail is at most w_(K+1)/(1 - rho); K is the first index from the
    mode on where that bound is <= u, the unit roundoff.
    """
    if rate == 0:
        return np.ones(1), 0.0
    u = np.finfo(float).eps / 2
    mode = int(rate)
    weights = [math.exp(math.fsum([-rate] + [math.log(rate / j) for j in range(1, mode + 1)]))]
    for k in range(mode, 0, -1):
        weights.append(weights[-1] * k / rate)
    weights.reverse()
    while True:
        k = len(weights)  # index of the next weight, the first one dropped
        nxt = weights[-1] * rate / k
        if k + 1 > rate:
            tail = nxt * (k + 1) / (k + 1 - rate)
            if tail <= u:
                return np.array(weights), tail
        weights.append(nxt)


class OracleKernel(NamedTuple):
    """E(t; .) of the oracle for a grid of times: [t, radius column] and [t, vertex]."""

    by_radius: np.ndarray  # columns in radii_order
    by_vertex: np.ndarray  # columns in the graph's vertex order


def _uniformization(step, start, rates):
    """sum_{k<=K} w_k P^k start for each rate, with w = poisson_weights(rate) and P = step.

    One walk serves every rate: the weight rows are zero-padded to the
    largest K, and adding a zero term leaves a sum as it is, so each row
    equals the walk for its rate alone, bit for bit. Returns [rate, entry].
    """
    rows = [poisson_weights(rate)[0] for rate in rates]
    weights = np.zeros((len(rows), max(map(len, rows), default=1)))
    for i, row in enumerate(rows):
        weights[i, : len(row)] = row
    walk = start
    acc = np.outer(weights[:, 0], walk)
    for w_k in weights.T[1:]:
        walk = step(walk)
        acc += np.outer(w_k, walk)
    return acc


def heat_kernel_oracle(graph, t_grid, base=None):
    """Matrix-exponential oracle E(t; .) = q(q-1) * exp(-t*Laplacian) e_base for every t in t_grid.

    Uniformization, with no eigendecomposition: n * sum_{k<=K} w_k P^k e_base,
    where w = poisson_weights((q+1)t) and P = A/(q+1) is applied as a sum over
    the neighbour array; one walk serves the whole grid. Cost
    O(K * n(q+1)) with K ~ (q+1)t + O(sqrt((q+1)t)) for the largest t; error:
    the dropped Poisson tail (<= u) plus about K*u relative per entry, as
    every term is non-negative. Radius values are read off the orbits around
    the base point, asserting constancy on each orbit.
    """
    t_grid = _time_grid(t_grid)
    ctx = graph.ctx
    q = ctx.q
    n = graph.n
    base_ix = point_index(ctx, base_point() if base is None else base)
    start = np.zeros(n)
    start[base_ix] = 1.0
    step = lambda walk: walk[graph.neighbors].sum(axis=1) / (q + 1)
    by_vertex = n * _uniformization(step, start, (q + 1) * t_grid)
    # distance is invariant under left translation: d(base . z, base) = d(z, sqrt(delta))
    around_base = by_vertex[:, translate(q, base_ix, np.arange(n))]
    return OracleKernel(radial_values(ctx, around_base, "oracle kernel"), by_vertex)


def initial_condition_check(graph, f, t_grid):
    """Residuals |(1/n) sum_x E(t;x) f(x) - f(base)| for each t in t_grid.

    As t -> 0+ the weighted mean recovers point evaluation at the base; the
    residual is bounded by 2*(q+1)*t*max|f| (spectral bound on exp(-t*L) - I).
    """
    f = np.asarray(f, dtype=float)
    n = graph.n
    if f.shape != (n,):
        raise ValueError(f"test function must have one value per vertex ({n})")
    kernel = heat_kernel_oracle(graph, t_grid).by_vertex
    return np.abs(kernel @ f / n - f[point_index(graph.ctx, base_point())]).tolist()


@dataclass
class FourierCoefficientReport:
    t_grid: list
    coefficients: np.ndarray  # [t, row]
    expected: np.ndarray  # [t, row]
    max_deviation: float


def fourier_coefficient_check(table, t_grid):
    """Recover a_i(t) from E(t; .) by orthogonality and compare with d_i e^(-lambda_i t).

    a_i(t) = (d_i / (q(q-1))) * sum_r |S_r| E(t; r) conj(omega_i(r)), for every t in t_grid.
    """
    t_grid = _time_grid(t_grid)
    n = table.q * (table.q - 1)
    kernel = heat_kernel_spectral(table, t_grid)
    coeffs = table.degrees / n * (kernel @ (table.omega * table.orbit_sizes[None, :]).T)
    expected = table.degrees * np.exp(-np.outer(t_grid, table.laplacian_eigenvalues))
    return FourierCoefficientReport(
        t_grid=t_grid.tolist(),
        coefficients=coeffs,
        expected=expected,
        max_deviation=float(np.abs(coeffs - expected).max()),
    )


# -- method of images on the full matrix group ------------------------------


def mobius_index(ctx, mats):
    """Vertex index of g.sqrt(delta) for each invertible g = (a, b, c, d) in ``mats`` (shape (..., 4)).

    (a*sqrt(delta) + b) / (c*sqrt(delta) + d), times the conjugate over the
    norm d^2 - delta*c^2 (non-zero, as delta is a non-square), is
    x + y*sqrt(delta) with x = (bd - delta*ac)/N and y = (ad - bc)/N. As
    g.z = (g h).sqrt(delta) for the affine matrix h = [[y_z, x_z], [0, 1]]
    of z, this is the whole Mobius action.
    """
    q = ctx.q
    a, b, c, d = np.moveaxis(mats, -1, 0)
    inv_norm = field_tables(ctx).inv[(d * d - ctx.delta * c * c) % q]
    x = (b * d - ctx.delta * a * c) * inv_norm % q
    y = (a * d - b * c) * inv_norm % q
    assert np.all(y != 0), "the action must preserve the upper half-plane"
    return vertex_index(q, x, y)


@dataclass
class ImagesReport:
    """Outcome of the method-of-images verification."""

    q: int
    r_s: int
    group_order: int
    stabilizer_order: int
    generating_set_size: int
    intertwining_exact: bool
    measured_scaling: float
    deviation_by_t: dict
    averaged: np.ndarray = field(repr=False)  # [t, vertex]: K-average of the lifted kernel

    @property
    def max_deviation(self):
        return max(self.deviation_by_t.values())


def method_of_images_check(ctx, r_s, t_grid, graph=None):
    """Verify that the K-average of the lifted kernel equals the quotient kernel.

    G = GL_2(F_q) is an integer array [|G|, 4], and ``coset_of[g]`` is the
    vertex g.sqrt(delta). K, the stabilizer of sqrt(delta), is the matrices
    [[a, delta*b], [b, a]] with (a, b) != (0, 0), and every fibre of
    ``coset_of`` is a right coset gK. The lifted generating set is the union
    of the right cosets s_i K over one representative s_i of each point x_i
    of the sphere S_{r_s}, so A_lift f(g) = sum_i F(coset of g s_i), with
    F the sums of f over right K-cosets: ``cols[g, i]``, the coset of
    g s_i, replaces the |G| x |G| adjacency.

    The lifted Laplacian is normalized by |K|: L_lift = (q+1)*I - A_lift/|K|
    intertwines with the quotient Laplacian through the projection,
    A_lift L = |K| L A_H, exactly when every fibre has |K| members and each
    row ``cols[g]`` is, as a multiset, the neighbour row of g's coset. Both
    are checked in integers before comparing kernels; ``measured_scaling``
    counts, per quotient edge, the lifted generators that land on it.
    E_lift(t) = |G| exp(-t L_lift) e_identity comes from the uniformization
    of the quotient oracle at the same rate (q+1)t, one step of
    P_lift = A_lift/((q+1)|K|) being a ``bincount`` and a (q+1)-column
    gather; it is averaged over each coset and compared with the quotient
    oracle at each t. Cost O(K |G|(q+1)) time and O(|G|(q+1)) memory, with
    |G| = q(q-1)^2(q+1) (26,208 at q=13).
    """
    q = ctx.q
    if graph is None:
        graph = build_graph(ctx, r_s)
    n_h = graph.n
    k_order = q * q - 1

    mats = np.indices((q,) * 4).reshape(4, -1).T
    group = mats[(mats[:, 0] * mats[:, 3] - mats[:, 1] * mats[:, 2]) % q != 0]
    g_order = len(group)
    assert g_order == q * (q - 1) ** 2 * (q + 1)
    coset_of = mobius_index(ctx, group)

    a, b = np.divmod(np.arange(1, q * q), q)
    k_members = np.stack([a, ctx.delta * b % q, b, a], axis=1)
    base = point_index(ctx, base_point())
    assert np.all(mobius_index(ctx, k_members) == base), "K must stabilize sqrt(delta)"
    fibre = np.bincount(coset_of, minlength=n_h)

    vertices = scheme(ctx)
    gen_ix = np.flatnonzero(vertices.labels == graph.r_s)  # the sphere S_{r_s}, in sphere order
    lifted = np.isin(coset_of, gen_ix)
    assert lifted.sum() == (q + 1) * k_order, "lift of the sphere has |S_r| * |K| elements"
    a, b, c, d = group[lifted].T
    det_inv = field_tables(ctx).inv[(a * d - b * c) % q]
    inverses = np.stack([d, -b, -c, a], axis=1) * det_inv[:, None] % q
    if not np.isin(mobius_index(ctx, inverses), gen_ix).all():
        raise AssertionError("lifted generating set not closed under inversion")

    # g s_i for the representative s_i = [[y_i, x_i], [0, 1]] of each sphere point x_i + y_i sqrt(delta)
    xs, ys = vertices.x[gen_ix], vertices.y[gen_ix]
    a, b, c, d = group.T[:, :, None]
    cols = mobius_index(ctx, np.stack([a * ys, a * xs + b, c * ys, c * xs + d], axis=-1) % q)

    # exact intertwining: counting lifted neighbours per coset must give |K| * A_H
    quotient_rows = graph.neighbors[coset_of]
    intertwining_exact = bool(
        np.all(fibre == k_order)
        and np.array_equal(np.sort(cols, axis=1), np.sort(quotient_rows, axis=1))
    )
    # lifted generators s with g.s in the coset of each quotient neighbour: s_i K has fibre[x_i] members
    landed = sum((cols[:, [i]] == quotient_rows) * fibre[gen_ix[i]] for i in range(len(gen_ix)))
    measured_scaling = float(landed.mean())

    ident = int(np.flatnonzero((group == (1, 0, 0, 1)).all(axis=1))[0])
    start = np.zeros(g_order)
    start[ident] = 1.0

    def step(f):
        """P_lift f: sum f over each right coset, then gather the q+1 cosets g s_i K of each g."""
        return np.bincount(coset_of, weights=f, minlength=n_h)[cols].sum(axis=1) / ((q + 1) * k_order)

    t_grid = _time_grid(t_grid)
    walk = _uniformization(step, start, (q + 1) * t_grid)
    # every coset g*K has |K| members, so the mean of E_lift = |G| walk over it is
    # |G|/|K| = q(q-1) times the coset sum of the walk
    averaged = n_h * np.stack([np.bincount(coset_of, weights=row, minlength=n_h) for row in walk])
    quotient = heat_kernel_oracle(graph, t_grid).by_vertex
    deviation_by_t = dict(zip(t_grid.tolist(), np.abs(averaged - quotient).max(axis=1).tolist()))

    return ImagesReport(
        q=q,
        r_s=graph.r_s,
        group_order=g_order,
        stabilizer_order=k_order,
        generating_set_size=int(lifted.sum()),
        intertwining_exact=intertwining_exact,
        measured_scaling=measured_scaling,
        deviation_by_t=deviation_by_t,
        averaged=averaged,
    )
