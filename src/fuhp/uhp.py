"""The finite upper half-plane H_q, its spheres, and the Cayley graph on it.

H_q is the set of z = x + y*sqrt(delta) with y != 0, identified with the
affine matrix [[y, x], [0, 1]]; the affine group acts on itself by the
product (x, y).(x', y') = (y*x' + x, y*y'). The sphere of radius r around
sqrt(delta) is cut out by x^2 = r*y + delta*(y-1)^2; using it as a Cayley
generating set gives a (q+1)-regular graph on the q(q-1) points, whose
combinatorial Laplacian is (q+1)*I - A.

The graph is Cay(Aff(F_q), S_{r_s}): ``cayley_certificate`` proves its facts
from the q+1 points of S_{r_s} alone, the only proof, and ``UhpGraph`` forms the
vertex graph on them, which only the walk, the lift and the graph export read.

Vertex encoding: vertex i is x + y*sqrt(delta) with x = i % q and
y = i // q + 1, the lexicographic (y, x) order: vertex 0 is sqrt(delta), the
labels in vertex order are a (q-1) x q table [y - 1, x], and every matrix is
bit-reproducible. Only this module builds indices: ``vertex_index`` encodes
coordinates, ``affine_product`` is the affine product on coordinates, and
``scheme`` holds, once per (q, delta), the coordinate arrays and the distance
classes (orbits) around sqrt(delta) that the other modules read.
"""

import functools
from typing import NamedTuple

import numpy as np

ORBIT_CONSTANCY_TOL = 1e-10


def vertex_index(q, x, y):
    """Index of x + y*sqrt(delta) in the canonical (y, x) order; x and y may be arrays."""
    return (y - 1) * q + x


def affine_product(q, x, y, x2, y2):
    """Index of (x, y).(x2, y2) = (y*x2 + x, y*y2) from coordinates (arrays broadcast)."""
    return vertex_index(q, (y * x2 + x) % q, y * y2 % q)


class Scheme(NamedTuple):
    """The vertex encoding of (q, delta) and its distance classes around sqrt(delta); read-only.

    x[i], y[i]: coordinates of vertex i; labels[i]: its distance to sqrt(delta);
    sizes[r]: the size of the orbit of radius r; reps[r]: its first vertex.
    """

    x: np.ndarray
    y: np.ndarray
    labels: np.ndarray
    sizes: np.ndarray
    reps: np.ndarray


@functools.lru_cache(maxsize=1)
def scheme(ctx):
    """The Scheme of ctx, built once per (q, delta) and shared, so its arrays are read-only."""
    q = ctx.q
    y, x = np.divmod(np.arange(q, q * q), q)  # vertex i is y*q + x - q
    labels = (x * x - ctx.delta * (y - 1) ** 2) * ctx.inverse[y] % q
    sizes = np.bincount(labels, minlength=q)
    reps = np.argsort(labels, kind="stable")[np.cumsum(sizes) - sizes]
    out = Scheme(x, y, labels, sizes, reps)
    for array in out:
        array.flags.writeable = False
    return out


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
    """Cayley graph of H_q on the generators s_k of S_{r_s} that ``cayley_certificate`` proves.

    ``by_generator[k, i]`` is the vertex z_i . s_k, formed here, not checked, one
    generator at a time (O(n) scratch): one C-contiguous row of n indices, uint16
    up to q = 256 (``unsigned_dtype``), per generator, so a walk step sums q+1
    contiguous ``take`` gathers; fancy indexing by a compact dtype is slower.
    ``neighbors`` is its [n, q+1] transposed view (no copy), the neighbour list
    of each vertex; ``adjacency`` is built on first use. Immutable once built.
    """

    def __init__(self, ctx, r_s, generators):
        x, y, *_ = scheme(ctx)
        self.ctx = ctx
        self.r_s = r_s
        self.by_generator = np.empty((len(generators), len(x)), dtype=unsigned_dtype(len(x) - 1))
        for k, s in enumerate(generators):
            self.by_generator[k] = affine_product(ctx.q, x, y, x[s], y[s])  # z . s_k for every vertex z
        self.neighbors = self.by_generator.T
        self._eig = None

    @property
    def n(self):
        return self.by_generator.shape[1]

    @functools.cached_property
    def adjacency(self):
        """Dense n x n int8 adjacency matrix."""
        adjacency = np.zeros((self.n, self.n), dtype=np.int8)
        adjacency[np.arange(self.n)[:, None], self.neighbors] = 1
        return adjacency

    def adjacency_eigh(self):
        """Cached symmetric eigendecomposition of the adjacency matrix.

        O(n^3) time and O(n^2) memory: the small-q cross-check of the tests;
        no CLI or ``verify`` path calls it. It stays a method under this name
        because the benchmark's tracer (``bench/tracer.py``) wraps it by name.
        """
        if self._eig is None:
            self._eig = np.linalg.eigh(self.adjacency.astype(float))
        return self._eig


def unsigned_dtype(largest):
    """The smallest unsigned integer dtype, and at least uint16, that holds 0..largest."""
    return np.promote_types(np.uint16, np.min_scalar_type(largest))


def build_graph(ctx, r_s):
    """The Cayley graph at a regular r_s, on the generators ``cayley_certificate`` proves.

    ValueError at a degenerate r_s; the certificate's AssertionError when S_{r_s} is unsound.
    """
    return UhpGraph(ctx, regular_radius(ctx, r_s), cayley_certificate(ctx, r_s))


def cayley_certificate(ctx, r_s):
    """The generators S_{r_s} (vertex indices, sphere order), once the Cayley graph on them is proven sound.

    The graph is Cay(Aff(F_q), S), so each fact it needs is a fact about the
    q+1 points of S, proven here alone (no vertex-level check repeats it),
    without the graph, in O(q); a failure raises AssertionError:

    - symmetric: S = S^(-1), with (x, y)^(-1) = (-x/y, 1/y);
    - loop-free: the identity sqrt(delta) is not in S;
    - connected: S generates Aff(F_q) (``_generates``);
    - (q+1)-regular: |S| = q+1, as distinct generators give distinct neighbours z.s.
    """
    q = ctx.q
    r_s = regular_radius(ctx, r_s)
    x, y, labels, *_ = scheme(ctx)
    in_s = labels == r_s
    gen = np.flatnonzero(in_s)
    xs, ys = x[gen], y[gen]
    inv_y = ctx.inverse[ys]
    missing = gen[~in_s[vertex_index(q, -xs * inv_y % q, inv_y)]]
    if missing.size:
        raise AssertionError(f"generating sphere not closed under inversion at vertex {missing[0]}")
    if in_s[vertex_index(q, 0, 1)]:
        raise AssertionError("self-loop produced by a regular radius")
    if not _generates(ctx, xs, ys):
        raise AssertionError("graph is not connected")
    if gen.size != q + 1:
        raise AssertionError("graph is not (q+1)-regular")
    return gen


def _generates(ctx, xs, ys):
    """True when the elements (x_s, y_s) generate Aff(F_q) = F_q x| F_q^x.

    The subgroup <S> maps onto F_q^x exactly when the dlogs of the y_s and
    q-1 have gcd 1. Such a subgroup either contains the normal translation
    subgroup, of prime order q, and is then everything, or meets it trivially
    and is a complement, which fixes a point p of F_q (Schur-Zassenhaus): then
    x_s = p(1 - y_s) for every s, so S holds no translation (x, 1), x != 0,
    and every s with y_s != 1 fixes the same p = x_s / (1 - y_s).
    """
    q = ctx.q
    if np.gcd.reduce(np.append(ctx.dlog[ys], q - 1)) != 1:
        return False
    moves = ys != 1
    fixed = xs[moves] * ctx.inverse[(1 - ys[moves]) % q] % q
    return bool(np.any(xs[~moves] != 0) or np.any(fixed != fixed[0]))


def radial_values(ctx, vecs, what):
    """Values by radius of the vertex function ``what``, asserted constant on orbits.

    ``vecs`` is one function (shape [n]) or one per row (shape [rows, n]); the
    result has the same leading shape, with column r for radius r.
    """
    labels = scheme(ctx).labels
    out = np.empty(vecs.shape[:-1] + (ctx.q,))
    for r in range(ctx.q):
        # contiguous rows, so that each row mean adds in the order of a 1-D vector's mean
        vals = np.ascontiguousarray(vecs[..., labels == r])
        spread = vals.max(axis=-1) - vals.min(axis=-1)
        scale = np.maximum(1.0, np.abs(vals).max(axis=-1))
        assert np.all(spread <= ORBIT_CONSTANCY_TOL * scale), (
            f"{what} not constant on orbit r={r} (spread {np.max(spread):.3e})"
        )
        out[..., r] = vals.mean(axis=-1)
    return out


def radii_order(ctx):
    """Canonical radius order: 0 first, then 4*delta, then regular radii sorted."""
    deg0, deg1 = degenerate_radii(ctx)
    regular = sorted(r for r in range(ctx.q) if r not in (deg0, deg1))
    return [deg0, deg1] + regular
