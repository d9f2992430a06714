"""Dense method of images for small q: the cross-check of the matrix-free lift.

The group is enumerated with scalar loops, the lifted adjacency is a dense
|G| x |G| int8 matrix filled through an index dict, and the lifted kernel
comes from a dense eigendecomposition. O(|G|^3) time, so q <= 5 only
(|G| = 480 at q=5).
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from fuhp.field import ExtElement, ext_mul, ext_pow
from fuhp.uhp import vertex_index

from dense_graph import Point, sphere


def mat_mul(m1, m2, q):
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (
        (a1 * a2 + b1 * c2) % q,
        (a1 * b2 + b1 * d2) % q,
        (c1 * a2 + d1 * c2) % q,
        (c1 * b2 + d1 * d2) % q,
    )


def mat_inv(m, q):
    a, b, c, d = m
    det_inv = pow((a * d - b * c) % q, q - 2, q)
    return (d * det_inv % q, -b * det_inv % q, -c * det_inv % q, a * det_inv % q)


def mobius_action(ctx, m, z):
    """Fractional-linear action of an invertible matrix on z = x + y*sqrt(delta)."""
    a, b, c, d = m
    num = ExtElement((a * z.x + b) % ctx.q, a * z.y % ctx.q)
    den = ExtElement((c * z.x + d) % ctx.q, c * z.y % ctx.q)
    w = ext_mul(ctx, num, ext_pow(ctx, den, ctx.q * ctx.q - 2))  # den^-1
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
    assert len(elements) == q * (q - 1) ** 2 * (q + 1)
    index = {m: i for i, m in enumerate(elements)}

    k_members = [(a, ctx.delta * b % q, b, a) for a in range(q) for b in range(q) if (a, b) != (0, 0)]
    assert len(k_members) == q * q - 1
    sq = Point(0, 1)
    assert all(mobius_action(ctx, k, sq) == sq for k in k_members), "K must stabilize sqrt(delta)"

    coset_of = np.array([vertex_index(q, *mobius_action(ctx, m, sq)) for m in elements])

    sphere_ix = {vertex_index(q, *z) for z in sphere(ctx, r_s)}
    gen = [m for m, ci in zip(elements, coset_of) if ci in sphere_ix]
    assert len(gen) == (q + 1) * (q * q - 1), "lift of the sphere has |S_r| * |K| elements"
    gen_set = set(gen)
    assert all(mat_inv(s, q) in gen_set for s in gen), "lifted generating set not closed under inversion"

    n = len(elements)
    adjacency = np.zeros((n, n), dtype=np.int8)
    for i, m in enumerate(elements):
        for s in gen:
            adjacency[i, index[mat_mul(m, s, q)]] = 1
    assert np.array_equal(adjacency, adjacency.T)
    return GroupGraph(ctx, r_s, elements, index, k_members, adjacency, coset_of)


class DenseImages(NamedTuple):
    intertwining_exact: bool
    measured_scaling: float
    averaged: np.ndarray  # [t, vertex]


def dense_images(graph, t_grid):
    """Intertwining, scaling and K-averaged kernel from the dense lifted Laplacian."""
    ctx, q = graph.ctx, graph.ctx.q
    gg = build_group_graph(ctx, graph.r_s)
    k_order = q * q - 1

    lift = np.zeros((gg.n, graph.n), dtype=np.int64)
    lift[np.arange(gg.n), gg.coset_of] = 1
    lhs = gg.adjacency.astype(np.int64) @ lift
    rhs = k_order * (lift @ graph.adjacency.astype(np.int64))
    nz = rhs != 0
    measured_scaling = float(np.mean(lhs[nz] / rhs[nz]) * k_order)

    ident = gg.index[(1, 0, 0, 1)]
    w, v = np.linalg.eigh((q + 1) * np.eye(gg.n) - gg.adjacency.astype(float) / k_order)
    e_lift = gg.n * ((v[ident] * np.exp(-np.outer(t_grid, w))) @ v.T)
    return DenseImages(bool(np.array_equal(lhs, rhs)), measured_scaling, e_lift @ lift / k_order)
