"""Heat kernels on the finite upper half-plane graph.

The fundamental solution E(t; r) with unit initial mass at sqrt(delta) is
computed three independent ways:

* ``heat_kernel_spectral``: the expansion sum_i d_i e^(-lambda_i t) omega_i(r)
  over the spherical table of the (q, delta) association scheme;
* ``heat_kernel_affine``: Fourier inversion on the affine group Aff(F_q),
  of which the graph is the Cayley graph with connection set S_{r_s}
  (``uhp``), from its q-1 characters and its one irreducible representation
  of dimension q-1; one (q-1) x (q-1) eigh per radius, no vertex array, one
  vertex per distance class, each an orbit of the stabiliser of sqrt(delta);
* ``heat_kernel_oracle``: the matrix exponential q(q-1) * exp(-t*Laplacian)
  applied to the base-point indicator, a walk over the vertex graph.

The walk uses no eigendecomposition. The Laplacian is (q+1)I - A with A
(q+1)-regular and non-negative, so with P = A/(q+1) and rate = (q+1)t

    exp(-tL) e_0 = sum_k Poisson(k; rate) * P^k e_0

(uniformization, the continuous-time random walk). P adds the [q+1, n]
generator rows' gathers into one n-vector: n(q+1) per step. The sum would
run to the first K whose dropped Poisson tail is at most the unit roundoff u,
K ~ rate + O(sqrt(rate)); but P is symmetric and doubly stochastic, so
||P^k e_0 - 1/n||_inf never increases with k, and once it is at most
delta = 4(q+1)u/n, at a step k* that is a property of the graph (at most
86 over the primes q <= 101, at q=5), the remaining terms are replaced by
the uniform vector times the remaining Poisson mass T. The walk costs
O(min(K, k*) * n(q+1)) time and O(n) memory per time of the grid, whatever
t. Every term is non-negative, so nothing cancels: each entry of P^k e_0
is at most 1/(q+1) for k >= 1, a step rounds it by at most u, and the
kernel's error model is ``ORACLE_AGREEMENT``.

Every kernel takes a grid of times and returns an array [t, r] (r the
radius); the walk goes once, to the largest t of the grid, and also returns
[t, vertex]. The CLI's ``heat`` and ``theta`` check the spectral kernel
against the affine one; ``verify`` and the tests compare all three.

The module also lifts the problem to the full group of invertible 2x2
matrices and verifies that averaging the lifted kernel over the point
stabilizer reproduces the quotient kernel (the method of images). The lifted
kernel comes from the same uniformization, applied through a |G| x (q+1)
array of cosets, so no |G| x |G| matrix is built there either.
"""

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .characters import character_tables
from .uhp import build_graph, cayley_certificate, radial_values, scheme, vertex_index

UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _time_grid(t_grid):
    """The times as a 1-D float array; a scalar, a negative or a non-finite time raises ValueError."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1:
        raise ValueError(f"times must be a 1-D sequence, got shape {t_grid.shape}")
    if not ((t_grid >= 0) & (t_grid < np.inf)).all():
        raise ValueError(f"times must be finite and nonnegative, got {t_grid.tolist()}")
    return t_grid


def _decay(t_grid, rates):
    # e^(-t*rate) as an array [t, rate], rates >= 0; a t*rate past the float range is inf, and e^(-inf) = 0
    with np.errstate(over="ignore"):
        return np.exp(-np.outer(t_grid, rates))


def heat_kernel_spectral(table, t_grid):
    """Spectral expansion E(t; r) = sum_i d_i * exp(-lambda_i * t) * omega_i(r).

    One array [t, r] for the whole grid, column r for radius r.
    """
    weights = table.degrees * _decay(_time_grid(t_grid), table.laplacian_eigenvalues)
    return weights @ table.omega


# c in |heat_kernel_affine - heat_kernel_spectral| <= c*u*n, n = q(q-1). Each kernel is a sum of
# unit-bounded terms whose weights add to n: sum_rho d_rho^2 = (q-1)*1^2 + (q-1)^2 over the
# representations of Aff(F_q), and sum_i d_i with |omega_i| <= 1 over the spherical rows. So an error
# of e*u in every term moves a value by at most e*u*n, and c is the sum of the two kernels' e. A term
# rounds an exponential and a cosine or omega value (1 each) and carries the error of its eigenvalue:
# for the affine kernel one symmetric eigh, backward stable to a few u of the matrix norm q+1, for the
# spectral one (q+1)*omega_i(r_s), omega_i(r_s) a character sum within 2.3u (see CERTIFICATE_AGREEMENT in
# spherical.py), which move e^(-t lambda) by at most 1/(e*lambda_min) times as much, and lambda_min >=
# (sqrt(q) - 1)^2 > (q+1)/8 (the graphs are Ramanujan); unit eigenvectors orthogonal to a few u.
# Measured over every regular radius of every prime q <= 101 at t in {0, 1e-6, 0.1, 1, 5, 10, 1e8}: the
# affine kernel is within 4.6u*n of the exact value at t=0, and the two kernels within 12.3u*n of each
# other (q=61, r_s=4; 8.4u*n at r_s = 1, q=83). c = 32 leaves a factor 2.6.
AFFINE_AGREEMENT = 32

# c in |G - m*I| <= c*u*(q+1) entrywise, G the Gram matrix of a character table of F_q^x (m = q-1) or of U
# (m = q+1), as characters.character_orthogonality_check forms it. An entry sums m products of two unit
# entries e^(2 pi i a/m): each entry rounds its angle 2*pi*a/m < 2*pi three times (up to 15u) and its
# cosine and sine once, so a product is within about 34u of exact, and m of them with independent signs
# move the sum by about 34u*sqrt(m) < 24u*(q+1). The partial sums reach m, so each of the m-1 additions
# rounds by up to m*u: m^2*u at worst and about sqrt(m)*u*m with independent signs, at most 16u*(q+1) for
# q < 256. c = 40 is the sum of the two. Measured at most 8.49u*(q+1) over every prime q <= 101 (q=97)
# and 10.06u*(q+1) below 300 (q=139), growing as sqrt(q+1) does: at most 0.94*sqrt(q+1)*u*(q+1).
ORTHOGONALITY_AGREEMENT = 40

# c in heat_kernel_spectral(table, t)[r] >= -c*u*n, n = q(q-1). The exact kernel is >= 0: exp(-tL) =
# e^(-(q+1)t) exp(tA), and A >= 0 entrywise. The computed sum_i w_i*omega_i(r) has weights
# w_i = d_i*e^(-lambda_i t) >= 0 that add to at most n and |omega_i| <= 1, so as above an error of
# e*u in every term moves it by at most e*u*n. A term carries its omega entry's error (one character sum,
# within 2.3u: see CERTIFICATE_AGREEMENT in spherical.py), its exponential's (1u, plus its eigenvalue's
# error: lambda_i = (q+1)(1 - omega_i(r_s)) is within 3.3u*(q+1), the entry's 2.3u and the product's
# rounding, which moves e^(-t lambda) by at most 8/(e*(q+1)) times as much, 9.7u) and two products':
# 15u, under 16u. The q-term sum adds (q-1)u*n at worst, and about sqrt(q)*u*n when its roundings have
# independent signs, at most 16u*n for q <= 256; c = 32 is the sum of the two.
# Measured: at most 0.54u*n at verify's radius and times over every prime q <= 211 (q=19), and 0.73u*n
# over every regular radius of every prime q <= 101 at t in {0, 1e-6, 0.1, 1, 5, 10, 1e8} (q=23).
POSITIVITY_MARGIN = 32

# c in |heat_kernel_spectral - heat_kernel_oracle(...).by_radius| <= c*u*n, n = q(q-1). The spectral kernel
# is within 32u*n of exact (the derivation of POSITIVITY_MARGIN). The walk E = n * sum_k w_k p_k, p_k =
# P^k e_0, carries per entry, at worst unless a long sum is named:
# - its dropped Poisson tail, at most u of unit mass and so u*n of E;
# - the rounding of its steps. For k >= 1, ||p_k||_inf <= 1/(q+1): p_1 is 1/(q+1) on S_{r_s}, and P, an
#   average of q+1 entries, never raises the largest. A step adds q+1 entries >= 0 left to right and divides
#   by q+1, so it rounds an entry p by at most (q+1)u*p <= u, and P (>= 0, unit row sums) carries earlier
#   errors without growth: p_k is within k*u, and E within k*u*n, with k* <= 86 (every regular radius of
#   every prime q <= 101, at q=5): 86u*n;
# - the Poisson-weighted sum acc += w_k p_k: k*+1 products within u of terms that add to at most 1, u*n;
#   and k* additions whose partial sums stay within 1, k*u*n at worst and about sqrt(k*+1)*u*n with
#   independent signs, at most 10u*n;
# - the stop's 4(q+1)u*T, with T <= 1 at most 3u*n for q >= 3, and the addition of its uniform term, u*n;
# - the scaling by n, u*n.
# c = 135 is the sum (210 with the running sum at worst). k* falls as q grows: the graphs are Ramanujan,
# so a step multiplies the walk's l2 distance from uniform by at most 2*sqrt(q)/(q+1); at verify's radius
# k* is at most 51 over every prime q <= 211 (q = 3 to 11). Measured at most 2.4u*n at verify's radius and
# times over every prime q <= 211 (q=5), and 6.2u*n over every regular radius of every prime q <= 101
# (q=61, r_s=4).
ORACLE_AGREEMENT = 135

# c in |mean_v heat_kernel_oracle(...).by_vertex - 1| <= c*u (mass conservation), n = q(q-1). P is doubly
# stochastic, so the exact walk keeps unit mass, and so does its stop, which trades terms of mass T for
# the uniform vector of mass T: the kept terms miss only the dropped tail, at most u. The mass is an l1 sum,
# so the walk's rounding (as for ORACLE_AGREEMENT) adds up over the n entries: a step moves each entry p by
# at most (q+1)u*p and so the mass by at most (q+1)u, and P keeps the mass of earlier errors: k*(q+1)u at
# worst, 2,346u over every regular radius of every prime q <= 101 (q=101, r_s=4) and 4,028u at verify's
# radius at q=211. That is a long sum of k*n roundings; with independent signs it is about
# (q+1)u*sqrt(sum_k sum_v p_k(v)^2) <= sqrt(k*(q+1))*u, as sum_v p_k(v)^2 <= max_v p_k(v) <= 1/(q+1): at
# most 49u there and 64u at verify's radius for every prime q <= 211 (q=211). The Poisson-weighted sum adds
# its products' u and its additions' k*u at worst, about sqrt(k*+1)*u <= 10u with independent signs; the
# stop's uniform term rounds twice, 2u. The scaling by n and the mean's division round once each, and
# numpy's pairwise sum of n values >= 0 nests at most 18 + log2(n/128) roundings: 27u for q <= 256.
# c = 107 is the sum. Measured at most 18u at verify's radius and times over every prime q <= 211 (q=89),
# and 20u over every regular radius of every prime q <= 101 (q=89, r_s=6).
MASS_AGREEMENT = 107

# c in |sum_r |S_r| omega_i(r) omega_k(r) - [i=k] n/d_i| <= c*u*n (weighted orthogonality) and in
# |sum_i d_i omega_i(r) - [r=0] n| <= c*u*n (delta reconstruction), n = q(q-1), over the rows of
# spherical.spherical_rows. Each is a sum of terms w*x, |x| <= 1, with weights w >= 0 that add to n
# (sum_r |S_r| = sum_i d_i = n), so an error of e*u in every term moves it by at most e*u*n. A row
# entry is one character sum within 2.3u of exact (see CERTIFICATE_AGREEMENT in spherical.py), so a Gram
# term |S_r| omega_i(r) omega_k(r) carries two of them and two roundings, 6.6u, and a reconstruction term
# d_i omega_i(r) one of them and one rounding, 3.3u. Either q-term sum rounds by (q-1)u*n at worst and
# about sqrt(q)*u*n with independent signs, at most 16u*n for q <= 256. c = 24 covers the larger total,
# 22.6u. Measured over the primes q <= 211: at most 1.41u*n (q=163) and 0.51u*n (q=19); the Gram entries
# of the cuspidal rows with the constant row at most 0.40u*n (q=5).
TABLE_SUM_AGREEMENT = 24


class AffineSpectrum(NamedTuple):
    """The connection set S_{r_s} on the irreducible representations of Aff(F_q).

    ``generators`` are the points of S_{r_s} (vertex indices, sphere order)
    that ``cayley_certificate`` proved a sound connection set.
    ``characters[j]`` = sum_s cos(2 pi j dlog(y_s)/(q-1)) is the eigenvalue of
    A on the character chi_j(x, y) = e^(2 pi i j dlog(y)/(q-1)). The
    representation pi of dimension q-1 is the permutation action v -> y*v + x
    of Aff(F_q) on F_q, restricted to the vectors that sum to zero; its
    transform H' B H, B = sum_s P(s), has the eigenvalues ``eigenvalues`` and
    the unit eigenvectors (as vectors on F_q) ``basis``, one per column.
    """

    generators: np.ndarray
    characters: np.ndarray
    eigenvalues: np.ndarray
    basis: np.ndarray


@functools.lru_cache(maxsize=1)
def affine_spectrum(ctx, r_s):
    """The AffineSpectrum of S_{r_s}, proven a sound connection set by ``cayley_certificate``; read-only.

    H is Helmert's q x (q-1) orthonormal basis of the sum-zero vectors, so the
    trivial part of B, which the eigh would otherwise carry and a subtraction
    cancel, never enters: the q x q integer B, two products and one float64
    (q-1) x (q-1) eigh. Shares only ``scheme`` with the spherical table and
    the walk, to pick S_{r_s}, and the beta_j of ``character_tables`` with
    the spherical table. Cached for the last radius: ``verify`` proves
    each S_{r_s} here once and reads the result for its graph, spectrum and
    kernel checks, and a sweep keeps one basis at a time.
    """
    q = ctx.q
    gen = cayley_certificate(ctx, r_s)
    vertices = scheme(ctx)
    xs, ys = vertices.x[gen], vertices.y[gen]
    # Re beta_j(y_s) as [j, s]; take's copy is C-ordered, which fixes the order of sums and products
    characters = character_tables(ctx).base.real.take(ctx.dlog[ys], axis=1).sum(axis=1)
    v = np.arange(q)
    moved = (ys[:, None] * v + xs[:, None]) % q  # s.v for every generator s and point v
    counts = np.bincount((moved * q + v).ravel(), minlength=q * q).reshape(q, q)  # B[s.v, v] += 1
    k = np.arange(1, q)
    helmert = np.where(v[:, None] < k, 1.0, np.where(v[:, None] == k, -k, 0.0)) / np.sqrt(k * (k + 1.0))
    eigenvalues, vectors = np.linalg.eigh(helmert.T @ counts @ helmert)
    basis = helmert @ vectors
    basis /= np.sqrt((basis * basis).sum(axis=0))
    out = AffineSpectrum(gen, characters, eigenvalues, basis)
    for array in out:
        array.flags.writeable = False
    return out


def heat_kernel_affine(ctx, r_s, t_grid):
    """E(t; r) by Fourier inversion on Aff(F_q), as an array [t, r]; no vertex array is built.

    With the representations of ``affine_spectrum``,

        E(t; g) = sum_j e^(-t(q+1-c_j)) cos(2 pi j dlog(y_g)/(q-1))
                  + (q-1) sum_v F_t[v, g.v],   F_t = V diag(e^(-t(q+1-w))) V',

    the characters' part and (q-1) Tr(pi(g^-1) e^(-t L(pi))), since the
    trace of pi is the trace of P on F_q less its trivial part. Each value
    costs O(q) for the q orbit representatives ``scheme.reps``, after one
    q x q product per time: E(t; .) is invariant under K, the stabiliser of
    sqrt(delta), whose orbits are the classes (``stabiliser_orbits``, once
    per q). Agrees with ``heat_kernel_spectral`` within AFFINE_AGREEMENT*u*n.
    """
    t_grid = _time_grid(t_grid)
    q = ctx.q
    spec = affine_spectrum(ctx, r_s)
    vertices = scheme(ctx)
    xs, ys = vertices.x[vertices.reps], vertices.y[vertices.reps]
    cosines = character_tables(ctx).base.real.take(ctx.dlog[ys], axis=1)  # as in affine_spectrum
    kernel = _decay(t_grid, q + 1 - spec.characters) @ cosines
    v = np.arange(q)
    moved = (ys[:, None] * v + xs[:, None]) % q  # g.v for every representative g and point v
    for row, decay in zip(kernel, _decay(t_grid, q + 1 - spec.eigenvalues)):
        heat = (spec.basis * decay) @ spec.basis.T
        row += (q - 1) * heat[v, moved].sum(axis=1)
    return kernel


def _poisson_terms(rate):
    """Yield (w_k, b_k) for k = 0, 1, ...: w_k = Poisson(k; rate) and b_k >= sum_{j>=k} w_j.

    Forward, so that w_0..w_k cost O(k) whatever the rate: w_0 = e^(-rate),
    then w_k = w_(k-1) * rate/k, one or two roundings per step. e^(-rate)
    underflows once rate > 708, so while the previous weight is below the
    smallest normal float w_k is formed in log space instead, as
    exp(-rate + sum_{j<=k} log(rate/j)) with the exponent summed under
    Neumaier's compensation. Once k+1 > rate the ratios w_(j+1)/w_j =
    rate/(j+1) are at most rho = rate/(k+1) < 1 for j >= k, so b_k =
    w_k/(1 - rho); before that, b_k = inf.
    """
    if rate == 0:
        yield 1.0, 1.0
        yield 0.0, 0.0
        return
    total, carry, k = -rate, 0.0, 0
    w = math.exp(total)
    while True:
        yield w, (w * (k + 1) / (k + 1 - rate) if k + 1 > rate else math.inf)
        k += 1
        term = math.log(rate / k)
        new = total + term
        carry += (total - new) + term if abs(total) >= abs(term) else (term - new) + total
        total = new
        w = w * rate / k if w >= sys.float_info.min else math.exp(total + carry)


def _cut(terms):
    """The weights of a ``_poisson_terms`` stream before its first tail bound <= u, and that bound."""
    weights = []
    for w, bound in terms:
        if bound <= UNIT_ROUNDOFF:
            return weights, bound
        weights.append(w)


class OracleKernel(NamedTuple):
    """E(t; .) of the oracle for a grid of times: [t, r] and [t, vertex]."""

    by_radius: np.ndarray  # column r for radius r
    by_vertex: np.ndarray  # columns in the graph's vertex order


def _uniformization(step, start, rates, terms):
    """sum_k w_k P^k start per rate (w from ``_poisson_terms(rate)``, P = step) until mixed; [rate, entry].

    P must be symmetric and doubly stochastic, so that dev_k = ||P^k start -
    1/m||_inf (m = start.size, start of unit mass) never increases with k.
    Each entry of a step sums ``terms`` values, so a step's rounding moves it
    by about terms*u/m and the walk settles within a few times that of
    uniform. The walk stops at the first k* with dev_k* <= tol = 4*terms*u/m,
    or once every rate has used up its weights.

    A rate still running at k* takes its remaining Poisson mass T = sum_{k>k*}
    w_k times the uniform vector 1/m in place of its terms k > k*, which
    moves each entry by at most tol*T. T is an upper tail: summed upward from
    w_(k*+1) where the weights fall (k*+1 > rate), else 1 - sum_{k<=k*} w_k,
    where k* lies below the median of Poisson(rate), so the sum is < 1/2 and
    nothing cancels. Weights are formed only up to the stop, so a call costs
    O(min(K, k*)) steps and Poisson weights, whatever the rate.

    One walk serves every rate: a rate whose weights end at or before k*
    adds zero terms after its last, which leaves a sum as it is, so its row
    equals the walk for that rate alone, bit for bit.
    """
    m = start.size
    tol = 4 * terms * UNIT_ROUNDOFF / m
    weights = [_poisson_terms(rate) for rate in rates]
    heads = [[] for _ in rates]
    live = list(range(len(rates)))
    acc = np.zeros((len(rates), m))
    walk, k = start, 0
    while True:
        w_k = np.zeros(len(rates))
        for i in list(live):
            w, bound = next(weights[i])
            if bound <= UNIT_ROUNDOFF:
                live.remove(i)
            else:
                w_k[i] = w
                heads[i].append(w)
        acc += np.outer(w_k, walk)
        if not live:
            return acc
        if np.abs(walk - 1.0 / m).max() <= tol:
            break
        walk, k = step(walk), k + 1
    rest = np.zeros(len(rates))
    for i in live:
        if k + 1 > rates[i]:
            rest[i] = math.fsum(_cut(weights[i])[0])
        else:
            rest[i] = 1.0 - math.fsum(heads[i])
    return acc + rest[:, None] / m


def heat_kernel_oracle(graph, t_grid):
    """Matrix-exponential oracle E(t; .) = q(q-1) * exp(-t*Laplacian) e_0 for every t in t_grid.

    Uniformization, with no eigendecomposition: n * sum_{k<=K} w_k P^k e_0,
    where w_k = Poisson(k; (q+1)t) from ``_poisson_terms``, cut before the
    first tail bound <= u, and P = A/(q+1) is applied as a sum over the
    generator rows; one walk serves the whole grid, and it stops at the
    first step k* where ||P^k* e_0 - 1/n||_inf <= delta = 4(q+1)u/n (see
    ``_uniformization``). Cost O(min(K, k*) * n(q+1)), with K ~ (q+1)t +
    O(sqrt((q+1)t)) for the largest t. Error per entry of E: the dropped
    Poisson tail (<= u*n), the rounding of the steps and of the Poisson sum
    (each at most k*u*n; see ``ORACLE_AGREEMENT``), and at most n*delta*T =
    4(q+1)u*T for the times still running at k*, T being their Poisson mass
    past k*. e_0 is the indicator of sqrt(delta); radius values are read off
    its orbits, asserting constancy on each orbit.
    """
    t_grid = _time_grid(t_grid)
    ctx = graph.ctx
    q = ctx.q
    n = graph.n
    start = np.zeros(n)
    start[vertex_index(q, 0, 1)] = 1.0

    def step(walk):  # one take per generator row, added in the order of walk[by_generator].sum(axis=0)
        out = walk.take(graph.by_generator[0])
        for row in graph.by_generator[1:]:
            out += walk.take(row)
        return out / (q + 1)

    by_vertex = n * _uniformization(step, start, (q + 1) * t_grid, q + 1)
    return OracleKernel(radial_values(ctx, by_vertex, "oracle kernel"), by_vertex)


def initial_condition_check(graph, f, t_grid):
    """Residuals |(1/n) sum_x E(t;x) f(x) - f(base)| for each t in t_grid.

    As t -> 0+ the weighted mean recovers point evaluation at the base; the
    residual is bounded by 2*(q+1)*t*max|f| (spectral bound on exp(-t*L) - I).
    ``f`` is one function [n] or one per row [m, n] (residuals [t, m]).
    """
    f = np.asarray(f, dtype=float)
    n = graph.n
    if f.ndim not in (1, 2) or f.shape[-1] != n:
        raise ValueError(f"test function must have one value per vertex ({n})")
    kernel = heat_kernel_oracle(graph, t_grid).by_vertex
    return np.abs(kernel @ f.T / n - f[..., vertex_index(graph.ctx.q, 0, 1)]).tolist()


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
    inv_norm = ctx.inverse[(d * d - ctx.delta * c * c) % q]
    x = (b * d - ctx.delta * a * c) * inv_norm % q
    y = (a * d - b * c) * inv_norm % q
    assert np.all(y != 0), "the action must preserve the upper half-plane"
    return vertex_index(q, x, y)


def stabiliser_orbits(ctx):
    """True when the distance classes are the orbits of K, the stabiliser of sqrt(delta); O(n).

    g.sqrt(delta) = sqrt(delta) forces g = [[a, delta*b], [b, a]]: K is the image
    of F_q(sqrt(delta))^x, generated by k, the image of zeta. In integers, with
    k.z = ``mobius_index`` of k h_z: k keeps every vertex's label, so K does, and
    k^0..k^q take ``scheme.reps`` to every vertex, so each class is one orbit.
    """
    x, y, labels, _, reps = scheme(ctx)
    a, b = ctx.zeta
    step = mobius_index(ctx, np.stack([a * y, a * x + ctx.delta * b, b * y, b * x + a], axis=-1) % ctx.q)  # k.z
    orbit = [reps]
    for _ in range(ctx.q):
        orbit.append(step[orbit[-1]])
    return bool(np.array_equal(labels[step], labels) and np.bincount(np.hstack(orbit), minlength=step.size).all())


class ImagesReport(NamedTuple):
    """Outcome of the method-of-images verification."""

    q: int
    r_s: int
    group_order: int
    stabilizer_order: int
    generating_set_size: int
    intertwining_exact: bool
    measured_scaling: float
    deviation_by_t: dict
    averaged: np.ndarray  # [t, vertex]: K-average of the lifted kernel

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
    oracle at each t. The walk stops once within 4q(q+1)u/|G| of uniform
    (a step sums q(q+1) terms per entry), which moves each coset average by
    at most 4q(q+1)u times the remaining Poisson mass. Cost
    O(min(K, k*) |G|(q+1)) time and O(|G|(q+1)) memory, with
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

    fibre = np.bincount(coset_of, minlength=n_h)

    vertices = scheme(ctx)
    gen_ix = np.flatnonzero(vertices.labels == graph.r_s)  # the sphere S_{r_s}, in sphere order
    lifted = np.isin(coset_of, gen_ix)
    assert lifted.sum() == (q + 1) * k_order, "lift of the sphere has |S_r| * |K| elements"
    # (s k)^-1 = k^-1 s^-1: the lift is inverse-closed, as S_{r_s} is (cayley_certificate) and K keeps it
    assert stabiliser_orbits(ctx), "lifted generating set not closed under inversion: K does not keep S_r"

    # g s_i for the representative s_i = [[y_i, x_i], [0, 1]] of each sphere point x_i + y_i sqrt(delta)
    xs, ys = vertices.x[gen_ix], vertices.y[gen_ix]
    a, b, c, d = group.T[:, :, None]
    cols = mobius_index(ctx, np.stack([a * ys, a * xs + b, c * ys, c * xs + d], axis=-1) % q)

    # exact intertwining: counting lifted neighbours per coset must give |K| * A_H
    quotient_rows = graph.neighbors.take(coset_of, axis=0)
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
    # a step sums |K| walk entries per coset, then q+1 cosets: q(q+1) terms
    walk = _uniformization(step, start, (q + 1) * t_grid, q * (q + 1))
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
