"""Zonal spherical functions of H_q and their closed forms, certified.

The distance classes form a commutative association scheme (Bannai and Ito,
*Algebraic Combinatorics I*, 1984), so the q spherical functions belong to
(q, delta), not to a generating radius, and they are character sums (Terras,
*Fourier Analysis on Finite Groups and Applications*, 1999): the principal
family, a character average over the sphere's y-coordinates, and the cuspidal
family, a sign-weighted character sum over the norm-one subgroup U.

``closed_forms`` evaluates both families once per (q, delta) as arrays, the
one reader of their values, and ``spherical_rows`` builds the q rows from
them and certifies each as a common eigenvector of the integer intersection
matrices B_r, so the closed forms are claims checked against the scheme, not
definitions taken on trust. r_s only selects the eigenvalues a_i =
(q+1)*omega_i(r_s) and the row order, and ``match_formulas_to_oracle``
reports each class with its row of that order and its certificate residual.
"""

import functools
from typing import NamedTuple

import numpy as np

from .characters import character_tables
from .heat import UNIT_ROUNDOFF
from .uhp import affine_product, degenerate_radii, regular_radius, scheme, unsigned_dtype

EIGENVALUE_CLUSTER_TOL = 1e-8
# c in |B_r omega_i - |S_r| omega_i(r) omega_i| <= c*u*(q+1) entrywise over the rows of spherical_rows, which
# is 0 for the exact rows. B_r >= 0 has row sums |S_r| <= q+1 and |omega| <= 1, so entry errors of at most
# e*u move the two sides by (q+1)*e*u and 2*(q+1)*e*u, and the product B_r omega_i, q-term sums whose
# partial sums stay within q+1, rounds by about sqrt(q)*u*(q+1) with independent signs. Every entry is one
# character sum of closed_forms, or exact (1 at r=0, +-1 at 4*delta): e = 2.3, measured against
# 64-bit-mantissa sums over every entry of every row at the primes q <= 211 (at most 1.3u at r=1). So
# c = 3*2.3 + sqrt(q) <= 24 for q <= 256. Measured over the primes q <= 211: at most 4.0u*(q+1) (q=163).
# A wrong value misses by far more: a value moved by 1e-12 by about 1e-12, the other antipodal reading by
# at least 8 in every cuspidal row at q = 1 mod 4, the as-stated cuspidal constant by 0.17(q+1) to (q+1).
CERTIFICATE_AGREEMENT = 24


class SphericalTable(NamedTuple):
    """Spherical functions as radius-indexed rows, ordered by Laplacian eigenvalue.

    omega[i, r] is the value of row i at radius r and orbit_sizes[r] = |S_r|;
    degrees[i] is the eigenvalue multiplicity d_i, adjacency_eigenvalues[i] =
    (q+1)*omega_i(r_s) and laplacian_eigenvalues[i] = (q+1) - adjacency_eigenvalues[i].
    """

    q: int
    delta: int
    r_s: int
    orbit_sizes: np.ndarray
    omega: np.ndarray
    degrees: np.ndarray
    adjacency_eigenvalues: np.ndarray
    laplacian_eigenvalues: np.ndarray

    def spectrum(self):
        """Descending [eigenvalue, multiplicity] pairs: one per cluster (``_cluster_heads``), at its first row."""
        out = {}
        for a, d, head in zip(self.adjacency_eigenvalues, self.degrees,
                              _cluster_heads(self.adjacency_eigenvalues, self.laplacian_eigenvalues)):
            out.setdefault(head, [float(a), 0])[1] += int(d)
        return list(out.values())


def _cluster_heads(adj, lam):
    """lambda of each row's cluster head, the one rule by which rows merge: walking by ascending lambda,
    a row heads a new cluster when it is more than EIGENVALUE_CLUSTER_TOL below the last head."""
    heads, head = np.empty_like(lam), None
    for i in np.argsort(lam, kind="stable"):
        head = i if head is None or adj[head] - adj[i] > EIGENVALUE_CLUSTER_TOL else head
        heads[i] = lam[head]
    return heads


@functools.lru_cache(maxsize=1)
def intersection_matrices(ctx):
    """B_r[r1, r2] = #{s in S_r : d(z_r1 . s, sqrt(delta)) = r2} as one read-only array [r, r1, r2].

    The counts are at most q+1, so uint8 up to q = 254. Filled one orbit
    representative z_r1 (a bincount over n vertices) at a time.
    """
    q = ctx.q
    x, y, labels, _, reps = scheme(ctx)
    counts = np.empty((q, q, q), dtype=unsigned_dtype(q + 1))
    for r1, rep in enumerate(reps):
        # the radius of z_r1 . w for every vertex w, counted by the radius of w
        moved = labels[affine_product(q, x[rep], y[rep], x, y)]
        counts[:, r1] = np.bincount(labels * q + moved, minlength=q * q).reshape(q, q)
    counts.flags.writeable = False
    return counts


class SphericalRows(NamedTuple):
    """Row i for the i-th of ``character_classes``: omega[i, r] at radius r, its multiplicity degrees[i]
    and its certificate residual residuals[i] = max_r |B_r omega_i - |S_r| omega_i(r) omega_i|."""

    omega: np.ndarray
    degrees: np.ndarray
    residuals: np.ndarray


def character_classes(q):
    """Class order: ("principal", j), a beta_j per conjugate pair, then ("cuspidal", j), a nu_j ~ nu_j^-1 on U."""
    return [("principal", j) for j in range((q + 1) // 2)] + [("cuspidal", j) for j in range(1, (q + 1) // 2)]


@functools.lru_cache(maxsize=1)
def spherical_rows(ctx):
    """The character sums of ``closed_forms`` as the q rows of (q, delta), certified; do not modify.

    Each entry is one closed-form value, none derived from the others: a
    cuspidal row takes its reconciled sum, r=1 included, and ``antipodal`` at
    4*delta. The degrees are the classes', exactly: 1 (j=0), q (j=(q-1)/2),
    q+1 (other principal), q-1 (cuspidal). A row that is no common
    eigenvector of the integer ``intersection_matrices``, B_r omega_i = |S_r|
    omega_i(r) omega_i at every r within CERTIFICATE_AGREEMENT*u*(q+1), raises
    AssertionError, as does a count that is no scheme's. O(q^4) time, O(q^2)
    scratch beyond B_r.
    """
    q = ctx.q
    half = (q - 1) // 2
    forms = closed_forms(ctx)
    sizes = scheme(ctx).sizes
    cusp = forms.cuspidal["reconciled"][:, 1 : half + 1].real.T.copy()
    cusp[:, degenerate_radii(ctx)[1]] = forms.antipodal[1 : half + 1].real
    omega = np.vstack([forms.principal[:, : half + 1].real.T, cusp])
    degrees = np.concatenate([[1], np.full(half - 1, q + 1), [q], np.full(half, q - 1)])
    counts = intersection_matrices(ctx)
    residuals = np.zeros(q)
    for r, block in enumerate(counts):
        pairs = block * sizes[:, None]
        if not np.array_equal(pairs, pairs.T):
            raise AssertionError("|S_r1| B_r[r1, r2] must be symmetric: distance classes are not a scheme")
        gap = block @ omega.T - omega.T * (sizes[r] * omega[:, r])
        residuals = np.maximum(residuals, np.abs(gap).max(axis=0))
    bound = CERTIFICATE_AGREEMENT * UNIT_ROUNDOFF * (q + 1)
    for (kind, j), residual in zip(character_classes(q), residuals):
        if residual > bound:
            raise AssertionError(f"{kind} row {j} at q={q} is no common eigenvector of the B_r: "
                                 f"residual {residual:.3e} above {bound:.3e}")
    out = SphericalRows(omega, degrees, residuals)
    for array in out:
        array.flags.writeable = False
    return out


def _row_order(ctx, r_s):
    """a_i = (q+1)*omega_i(r_s) for the rows of ``spherical_rows``, and their order by ascending lambda_i.

    Rows of one cluster (``_cluster_heads``), which ``SphericalTable.spectrum``
    merges, keep their class order: the gaps between them are rounding, which
    must not order anything.
    """
    q = ctx.q
    adj = (q + 1) * spherical_rows(ctx).omega[:, r_s]
    return adj, np.lexsort((np.arange(q), _cluster_heads(adj, (q + 1) - adj)))


def spherical_table(ctx, r_s):
    """All q rows (certified per (q, delta)) with a_i = (q+1)*omega_i(r_s), by ascending lambda_i."""
    r_s = regular_radius(ctx, r_s)
    rows = spherical_rows(ctx)
    adj, order = _row_order(ctx, r_s)
    return SphericalTable(
        q=ctx.q,
        delta=ctx.delta,
        r_s=r_s,
        orbit_sizes=scheme(ctx).sizes.copy(),
        omega=rows.omega[order],
        degrees=rows.degrees[order],
        adjacency_eigenvalues=adj[order],
        laplacian_eigenvalues=(ctx.q + 1) - adj[order],
    )


class ClosedForms(NamedTuple):
    """Both closed-form families at every radius, indexed [r, j] by radius value r.

    principal[r, j] for j < q-1; cuspidal[variant][r, j] for j <= q, NaN at
    4*delta, whose value is antipodal[j], and "verbatim" NaN at r=1 too.
    """

    principal: np.ndarray
    cuspidal: dict
    antipodal: np.ndarray


def _average(weights, phases, m):
    """weights @ phases.T / m for real weights and complex phases, by real products and divisions."""
    return weights @ phases.real.T / m + 1j * (weights @ phases.imag.T / m)


@functools.lru_cache(maxsize=1)
def closed_forms(ctx):
    """Evaluate both families for every character and radius of (q, delta) at once; do not modify.

    principal[r, j] is the sphere average of beta_j over the y-coordinates:
    the (q-1)-point character transform of the histogram of dlog(y) over
    each sphere, divided by |S_r|. So the one-point spheres give 1 at r=0
    (y = 1) and beta_j(-1) at 4*delta (y = -1), exactly. cuspidal[c][r, j]
    is the average over U of eps(Tr(u - c(r))) * nu0(u) * nu_j(u), eps the
    sign character of F_q: a (q x (q+1)) sign matrix eps(2 u.a - 2 c(r)) *
    nu0(u) times the nu_j phases on U, with c(r) = 1 - r/(2*delta) for
    "reconciled", the form the certificate of ``spherical_rows`` confirms,
    defined at r=1 too, and c(r) = (1+r)/(1-r) for "verbatim", the stated
    constant, kept so that its gap can be measured, with a pole at r=1. At
    4*delta the value is antipodal[j] = -nu_j(-1); the other reading,
    -nu0(-1)*nu_j(-1), differs by nu0(-1) = (-1)^((q+1)/2) and fails the
    certificate at q = 1 mod 4. Both families are real products, divided by
    |S_r| or q+1 as reals (``_average``): a complex division multiplies by
    the reciprocal, which leaves (q+1)/(q+1) at 1 - u, and a real-by-complex
    matmul took 5 to 16 ms a call at q=53 on two BLAS threads.
    """
    q, delta = ctx.q, ctx.delta
    chars = character_tables(ctx)
    deg0, deg1 = degenerate_radii(ctx)

    vertices = scheme(ctx)
    hist = np.bincount(vertices.labels * (q - 1) + ctx.dlog[vertices.y], minlength=q * (q - 1))
    principal = _average(hist.reshape(q, q - 1), chars.base, vertices.sizes[:, None])

    k = np.arange(q + 1)
    u_a = ctx.power_a[(q - 1) * k]  # a-coordinates of U = {zeta^((q-1)k)}, in cyclic order
    nu0 = np.where(k % 2, -1, 1)
    regular = np.array([r for r in range(q) if r not in (deg0, deg1)])
    two_c = {  # the verbatim constant reads 0 at its pole r=1, where inverse[0] = 0
        "reconciled": (2 - regular * ctx.inverse[delta]) % q,
        "verbatim": 2 * (1 + regular) * ctx.inverse[(1 - regular) % q] % q,
    }
    cuspidal = {}
    for variant, consts in two_c.items():
        signs = np.zeros((q, q + 1))
        signs[regular] = ctx.chi[(2 * u_a - consts[:, None]) % q] * nu0
        values = _average(signs, chars.norm_one, q + 1)
        values[deg0] = 1.0
        values[deg1] = np.nan
        cuspidal[variant] = values
    cuspidal["verbatim"][1] = np.nan  # the pole of (1+r)/(1-r)
    antipodal = -chars.norm_one[:, (q + 1) // 2]  # -nu_j(-1), -1 = zeta^((q-1)(q+1)/2)
    return ClosedForms(principal, cuspidal, antipodal)


class CharacterMatch(NamedTuple):
    """One character class, its spectral row and its certificate residual."""

    kind: str  # "principal" | "cuspidal"
    index: int
    row: int
    max_deviation: float  # the row's certificate residual
    excluded_radii: tuple = ()
    infinity_reading: str = ""
    verbatim_deviation: float = 0.0  # cuspidal only: gap of the as-stated constant


class MatchReport(NamedTuple):
    table: SphericalTable
    matches: list
    max_imag: float

    @property
    def principal(self):
        return [m for m in self.matches if m.kind == "principal"]

    @property
    def cuspidal(self):
        return [m for m in self.matches if m.kind == "cuspidal"]


def match_formulas_to_oracle(ctx, r_s):
    """Every character class, its row of ``spherical_table(ctx, r_s)`` and its deviations.

    Row i of ``spherical_rows`` is the i-th class, so r_s only renumbers the
    rows. The antipodal readings differ by nu0(-1) = (-1)^((q+1)/2), so they
    coincide exactly when q = 3 mod 4; otherwise the rows hold "minus_nu",
    -nu_j(-1). The verbatim deviation is the as-stated constant's gap from the
    row outside radii {1, 4*delta}; max_imag is over the closed-form values
    the rows take.
    """
    q = ctx.q
    table = spherical_table(ctx, r_s)
    rows = spherical_rows(ctx)
    forms = closed_forms(ctx)
    position = np.argsort(_row_order(ctx, table.r_s)[1])
    reading = "both (readings coincide)" if q % 4 == 3 else "minus_nu"
    matches = []
    for i, (kind, j) in enumerate(character_classes(q)):
        match = CharacterMatch(kind, j, int(position[i]), float(rows.residuals[i]))
        if kind == "cuspidal":
            verbatim = np.nanmax(np.abs(rows.omega[i] - forms.cuspidal["verbatim"][:, j]))  # NaN at 1, 4*delta
            match = match._replace(excluded_radii=(1,), infinity_reading=reading, verbatim_deviation=float(verbatim))
        matches.append(match)
    half = (q - 1) // 2
    values = (forms.principal[:, : half + 1], forms.cuspidal["reconciled"][:, 1 : half + 1])  # NaN + 0j at 4*delta
    return MatchReport(table, matches, max(float(np.abs(v.imag).max()) for v in values))
