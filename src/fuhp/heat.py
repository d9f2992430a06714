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
stabilizer reproduces the quotient kernel (the method of images).
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .field import ExtElement, ext_inv, ext_mul
from .uhp import (
    Point,
    act,
    base_point,
    build_graph,
    point_index,
    radial_values,
    sphere,
)


def _time_grid(t_grid):
    """The times as a 1-D float array; a scalar or a negative time raises ValueError."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1:
        raise ValueError(f"times must be a 1-D sequence, got shape {t_grid.shape}")
    if (t_grid < 0).any():
        raise ValueError(f"time must be nonnegative, got {t_grid.min()}")
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


def heat_kernel_oracle(graph, t_grid, base=None):
    """Matrix-exponential oracle E(t; .) = q(q-1) * exp(-t*Laplacian) e_base for every t in t_grid.

    Uniformization, with no eigendecomposition: n * sum_{k<=K} w_k P^k e_base,
    where w = poisson_weights((q+1)t) and P = A/(q+1) is applied as a sum over
    the neighbour array. One walk serves the whole grid: the weight rows are
    zero-padded to the largest K, and adding a zero term leaves a sum as it
    is, so each row equals the walk for its time alone, bit for bit. Cost
    O(K * n(q+1)) with K ~ (q+1)t + O(sqrt((q+1)t)) for the largest t; error:
    the dropped Poisson tail (<= u) plus about K*u relative per entry, as
    every term is non-negative. Radius values are read off the orbits around
    the base point, asserting constancy on each orbit.
    """
    t_grid = _time_grid(t_grid)
    ctx = graph.ctx
    q = ctx.q
    n = graph.n
    if base is None:
        base = base_point()
    rows = [poisson_weights((q + 1) * t)[0] for t in t_grid]
    weights = np.zeros((len(rows), max(map(len, rows), default=1)))
    for i, row in enumerate(rows):
        weights[i, : len(row)] = row
    walk = np.zeros(n)
    walk[point_index(ctx, base)] = 1.0
    acc = np.outer(weights[:, 0], walk)
    for w_k in weights.T[1:]:
        walk = walk[graph.neighbors].sum(axis=1) / (q + 1)
        acc += np.outer(w_k, walk)
    by_vertex = n * acc

    around_base = by_vertex
    if base != base_point():
        # distance is invariant under left translation: d(base . z, base) = d(z, sqrt(delta))
        around_base = by_vertex[:, [point_index(ctx, act(ctx, base, z)) for z in graph.points]]
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


def _mat_mul(m1, m2, q):
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (
        (a1 * a2 + b1 * c2) % q,
        (a1 * b2 + b1 * d2) % q,
        (c1 * a2 + d1 * c2) % q,
        (c1 * b2 + d1 * d2) % q,
    )


def _mat_inv(m, q):
    a, b, c, d = m
    det_inv = pow((a * d - b * c) % q, q - 2, q)
    return (d * det_inv % q, -b * det_inv % q, -c * det_inv % q, a * det_inv % q)


def mobius_action(ctx, m, z):
    """Fractional-linear action of an invertible matrix on z = x + y*sqrt(delta)."""
    a, b, c, d = m
    num = ExtElement((a * z.x + b) % ctx.q, a * z.y % ctx.q)
    den = ExtElement((c * z.x + d) % ctx.q, c * z.y % ctx.q)
    w = ext_mul(ctx, num, ext_inv(ctx, den))
    assert w.b != 0, "the action must preserve the upper half-plane"
    return Point(w.a, w.b)


@dataclass
class GroupGraph:
    """Cayley graph on all invertible 2x2 matrices over F_q.

    The generating set is the full preimage of the sphere S_{r_s} under the
    projection g -> g.sqrt(delta); K is the stabilizer of sqrt(delta), the
    matrices [[a, delta*b], [b, a]] with (a, b) != (0, 0), of order q^2 - 1.
    """

    ctx: object
    r_s: int
    elements: list
    index: dict = field(repr=False)
    k_members: list
    adjacency: np.ndarray = field(repr=False)
    coset_of: np.ndarray = field(repr=False)  # element index -> H_q vertex index

    @property
    def n(self):
        return len(self.elements)


def build_group_graph(ctx, r_s):
    """Enumerate the matrix group, its stabilizer K, and the lifted adjacency."""
    q = ctx.q
    elements = [
        (a, b, c, d)
        for a in range(q)
        for b in range(q)
        for c in range(q)
        for d in range(q)
        if (a * d - b * c) % q != 0
    ]
    expected_order = q * (q - 1) ** 2 * (q + 1)
    assert len(elements) == expected_order
    index = {m: i for i, m in enumerate(elements)}

    k_members = [
        (a, ctx.delta * b % q, b, a)
        for a in range(q)
        for b in range(q)
        if (a, b) != (0, 0)
    ]
    assert len(k_members) == q * q - 1
    sq = base_point()
    assert all(mobius_action(ctx, k, sq) == sq for k in k_members), (
        "K must stabilize sqrt(delta)"
    )

    coset_of = np.array([point_index(ctx, mobius_action(ctx, m, sq)) for m in elements])

    sphere_ix = {point_index(ctx, z) for z in sphere(ctx, r_s)}
    gen = [m for m, ci in zip(elements, coset_of) if ci in sphere_ix]
    assert len(gen) == (q + 1) * (q * q - 1), "lift of the sphere has |S_r| * |K| elements"
    gen_set = set(gen)
    for s in gen:
        if _mat_inv(s, q) not in gen_set:
            raise AssertionError("lifted generating set not closed under inversion")

    n = len(elements)
    adjacency = np.zeros((n, n), dtype=np.int8)
    for i, m in enumerate(elements):
        for s in gen:
            adjacency[i, index[_mat_mul(m, s, q)]] = 1
    assert np.array_equal(adjacency, adjacency.T)
    return GroupGraph(
        ctx=ctx,
        r_s=r_s,
        elements=elements,
        index=index,
        k_members=k_members,
        adjacency=adjacency,
        coset_of=coset_of,
    )


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

    @property
    def max_deviation(self):
        return max(self.deviation_by_t.values())


def method_of_images_check(ctx, r_s, t_grid, graph=None, group_graph=None):
    """Verify that the K-average of the lifted kernel equals the quotient kernel.

    The lifted Laplacian is normalized by |K|: every sphere coset is hit
    |K| times by the lifted generating set, so L_lift = (q+1)*I - A_lift/|K|
    intertwines exactly with the quotient Laplacian through the projection.
    That identity is checked in exact integer arithmetic before comparing
    kernels; E_lift(t) = |G| exp(-t L_lift) e_identity is then averaged over
    each coset g*K and compared with the quotient oracle at each t.

    The group has q(q-1)^2(q+1) elements (48 at q=3, 480 at q=5); the dense
    eigendecomposition stays cheap through q=5, which is the intended range.
    """
    q = ctx.q
    if graph is None:
        graph = build_graph(ctx, r_s)
    if group_graph is None:
        group_graph = build_group_graph(ctx, r_s)
    gg = group_graph
    n_h = graph.n
    k_order = q * q - 1

    # exact intertwining: counting neighbors per coset must give |K| * A_H
    lift = np.zeros((gg.n, n_h), dtype=np.int64)
    lift[np.arange(gg.n), gg.coset_of] = 1
    lhs = gg.adjacency.astype(np.int64) @ lift
    rhs = k_order * (lift @ graph.adjacency.astype(np.int64))
    intertwining_exact = bool(np.array_equal(lhs, rhs))
    nz = rhs != 0
    measured_scaling = float(np.mean(lhs[nz] / rhs[nz]) * k_order) if nz.any() else float("nan")

    ident = gg.index[(1, 0, 0, 1)]
    lap_lift = (q + 1) * np.eye(gg.n) - gg.adjacency.astype(float) / k_order
    w, v = np.linalg.eigh(lap_lift)

    t_grid = _time_grid(t_grid)
    e_lift = gg.n * ((v[ident] * np.exp(-np.outer(t_grid, w))) @ v.T)
    # every coset g*K has |K| members, so its mean is the coset sum over |K|
    averaged = e_lift @ lift / k_order
    quotient = heat_kernel_oracle(graph, t_grid).by_vertex
    deviation_by_t = dict(zip(t_grid.tolist(), np.abs(averaged - quotient).max(axis=1).tolist()))

    return ImagesReport(
        q=q,
        r_s=r_s,
        group_order=gg.n,
        stabilizer_order=k_order,
        generating_set_size=(q + 1) * k_order,
        intertwining_exact=intertwining_exact,
        measured_scaling=measured_scaling,
        deviation_by_t=deviation_by_t,
    )
