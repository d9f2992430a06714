"""Zonal spherical functions of H_q and their closed forms.

The distance classes form a commutative association scheme, so the q
spherical functions belong to (q, delta), not to a generating radius:
``spherical_table`` computes them once from q x q quotient matrices, and r_s
only selects the eigenvalues a_i = (q+1)*omega_i(r_s) and the row order.

Two closed-form families are then matched against the rows: the principal
family, a character average over the sphere's y-coordinates, and the cuspidal
family, a sign-weighted character sum over the norm-one subgroup U. Both are
treated as claims to be checked, not as definitions: the matcher assigns each
character class its unique spectral row and records every deviation. The
assignment belongs to (q, delta) as well, so it is made once, against the
rows in their own order, and ``match_formulas_to_oracle`` only renumbers it.
"""

import functools
from typing import NamedTuple

import numpy as np

from .characters import character_tables, nu_equals_inverse
from .uhp import affine_product, degenerate_radii, radii_order, regular_radius, scheme, unsigned_dtype

EIGENVALUE_CLUSTER_TOL = 1e-8
# weights cos(r * golden angle) keep the eigenvalues of sum_r c_r B~_r apart
# by >= 5.5e-5 of its norm at every prime q <= 101
GOLDEN_ANGLE = np.pi * (3 - np.sqrt(5))
# an eigenvector error e ~ eps*|M|/gap enters the Rayleigh quotients squared,
# (q+1)*e^2 < 1e-14 for a relative gap >= 1e-8
MIN_RELATIVE_GAP = 1e-8
DEGREE_INTEGRALITY_TOL = 1e-6
# the largest deviation a matched row may have; at every prime q <= 101 they stay below 1.2e-15
MATCH_TOL = 1e-9


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

    @property
    def num_rows(self):
        return self.omega.shape[0]

    @property
    def is_complete(self):
        """True when no eigenvalue collision merged distinct orbits."""
        return self.num_rows == self.q

    def spectrum(self):
        """Descending [eigenvalue, multiplicity] pairs, merging rows within EIGENVALUE_CLUSTER_TOL."""
        out = []
        for a, d in zip(self.adjacency_eigenvalues, self.degrees):
            if out and out[-1][0] - a <= EIGENVALUE_CLUSTER_TOL:
                out[-1][1] += int(d)
            else:
                out.append([float(a), int(d)])
        return out


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


@functools.lru_cache(maxsize=1)
def _radial_rows(ctx):
    """Spherical rows omega[i, r] and degrees of (q, delta); do not modify.

    The symmetric B~_r = D^(1/2) B_r D^(-1/2) (B_r: ``intersection_matrices``,
    D: orbit sizes) share eigenvectors u_i, found by one eigh of sum_r c_r B~_r;
    B_r omega_i = |S_r| omega_i(r) omega_i, so omega_i(r) is the Rayleigh
    quotient u_i' B~_r u_i / (|S_r| u_i' u_i). Each q x q block B~_r is formed
    from the integers twice, for the scheme check and the sum and for the
    quotients, so beyond the q^3 bytes of B_r the scratch is O(q^2) and no q^3
    float array is made.
    """
    q = ctx.q
    n = q * (q - 1)
    # The solve runs in radii_order, each block gathered into it as it is formed, and omega
    # returns to radius order at the end: solving in radius order moves omega by up to 1.3e-15
    # (primes q <= 101), which changes the last digits of the spherical and heat output.
    radii = radii_order(ctx)
    sizes = scheme(ctx).sizes[radii]
    counts = intersection_matrices(ctx)
    square = np.ix_(radii, radii)
    root = np.sqrt(np.outer(sizes, sizes))
    combined = np.zeros((q, q))
    for r, c in zip(radii, np.cos(GOLDEN_ANGLE * np.array(radii))):
        pairs = counts[r][square] * sizes[:, None]
        if not np.array_equal(pairs, pairs.T):
            raise AssertionError("|S_r1| B_r[r1, r2] must be symmetric: distance classes are not a scheme")
        combined += c * (pairs / root)  # exactly symmetric B~_r
    w, u = np.linalg.eigh(combined)
    gap = np.diff(w).min()
    if gap < MIN_RELATIVE_GAP * np.abs(w).max():
        raise AssertionError(f"radial eigenbasis ill-separated at q={q}: gap {gap:.3e}")
    quotients = np.array([(counts[r][square] * sizes[:, None] / root @ u * u).sum(axis=0) for r in radii])
    omega = quotients.T / sizes / (u * u).sum(axis=0)[:, None]
    # each row of B_r sums to |S_r|, so the constant function is an exact row
    omega[np.abs(omega - 1.0).max(axis=1).argmin()] = 1.0
    raw = n / (omega**2 @ sizes)
    degrees = np.rint(raw).astype(np.int64)
    if np.abs(raw - degrees).max() > DEGREE_INTEGRALITY_TOL:
        raise AssertionError(f"multiplicities not integral at q={q}: {raw}")
    return omega[:, np.argsort(radii)], degrees


def _row_order(ctx, r_s):
    """a_i = (q+1)*omega_i(r_s) for the rows of ``_radial_rows``, and their order by ascending lambda_i."""
    omega, _ = _radial_rows(ctx)
    adj = (ctx.q + 1) * omega[:, r_s]
    return adj, np.argsort((ctx.q + 1) - adj, kind="stable")


def spherical_table(ctx, r_s):
    """All q rows (cached per (q, delta)) with a_i = (q+1)*omega_i(r_s), by ascending lambda_i."""
    q = ctx.q
    r_s = regular_radius(ctx, r_s)
    omega, degrees = _radial_rows(ctx)
    adj, order = _row_order(ctx, r_s)
    return SphericalTable(
        q=q,
        delta=ctx.delta,
        r_s=r_s,
        orbit_sizes=scheme(ctx).sizes.copy(),
        omega=omega[order],
        degrees=degrees[order],
        adjacency_eigenvalues=adj[order],
        laplacian_eigenvalues=(q + 1) - adj[order],
    )


class ClosedForms(NamedTuple):
    """Both closed-form families at every radius, indexed [r, j] by radius value r.

    principal[r, j] for j < q-1; cuspidal[variant][r, j] for j <= q, NaN at the
    excluded radius 1 and at 4*delta, whose values are antipodal[reading][j].
    """

    principal: np.ndarray
    cuspidal: dict
    antipodal: dict


CUSPIDAL_INFINITY_READINGS = ("minus_nu", "minus_nu0_nu")
CUSPIDAL_VARIANTS = ("reconciled", "verbatim")


@functools.lru_cache(maxsize=1)
def closed_forms(ctx):
    """Evaluate both families for every character and radius of (q, delta) at once; do not modify.

    The principal value is the (q-1)-point character transform of the histogram
    of dlog(y) over each sphere. The cuspidal value is a (q x (q+1)) sign matrix
    eps(2 u.a - 2 c(r)) * nu0(u) times the nu_j phases on U. See
    ``principal_spherical`` and ``cuspidal_spherical`` for the definitions.
    """
    q, delta = ctx.q, ctx.delta
    chars = character_tables(ctx)
    deg0, deg1 = degenerate_radii(ctx)

    vertices = scheme(ctx)
    hist = np.bincount(vertices.labels * (q - 1) + ctx.dlog[vertices.y], minlength=q * (q - 1))
    principal = hist.reshape(q, q - 1) @ chars.base.T / (q + 1)
    principal[deg0] = 1.0
    principal[deg1] = chars.base[:, (q - 1) // 2]  # beta_j(-1), dlog(-1) = (q-1)/2

    k = np.arange(q + 1)
    u_a = ctx.power_a[(q - 1) * k]  # a-coordinates of U in norm_one_subgroup order
    nu0 = np.where(k % 2, -1, 1)
    regular = [r for r in range(q) if r not in (deg0, deg1, 1)]
    two_c = {
        "reconciled": [(2 - r * ctx.inv(delta)) % q for r in regular],
        "verbatim": [2 * (1 + r) * ctx.inv(1 - r) % q for r in regular],
    }
    cuspidal = {}
    for variant, consts in two_c.items():
        signs = np.zeros((q, q + 1))
        signs[regular] = ctx.chi[(2 * u_a - np.array(consts, dtype=np.int64)[:, None]) % q] * nu0
        values = signs @ chars.norm_one.T / (q + 1)
        values[deg0] = 1.0
        values[[1, deg1]] = np.nan
        cuspidal[variant] = values
    minus_nu = -chars.norm_one[:, (q + 1) // 2]  # -1 = zeta^((q-1)(q+1)/2)
    antipodal = {"minus_nu": minus_nu, "minus_nu0_nu": nu0[(q + 1) // 2] * minus_nu}
    return ClosedForms(principal, cuspidal, antipodal)


def principal_spherical(ctx, j, r):
    """Principal-family value at radius r for the base-field character beta_j.

    1 at r=0, beta_j(-1) at the antipodal radius 4*delta, and otherwise the
    sphere average of beta_j over the y-coordinates. A lookup into
    ``closed_forms``.
    """
    return complex(closed_forms(ctx).principal[r % ctx.q, j % (ctx.q - 1)])


def cuspidal_spherical(ctx, j, r, infinity_reading="minus_nu", variant="reconciled"):
    """Cuspidal-family value at radius r for the extension character nu_j.

    The sum is the average over U of eps(Tr(u - c(r))) * nu0(u) * nu_j(u),
    with eps the base-field sign character; nu_j must not be self-inverse
    on U and r=1 is contractually excluded. Two forms of the subtracted
    constant are supported:

    * ``variant="reconciled"``: c(r) = 1 - r/(2*delta). Equivalently the
      sign argument is (r - 2*delta + delta*Tr(u)) / (4*delta), the
      classical quadratic-character sum; this is the form the spectral
      oracle confirms at every radius (exhaustively, for many (q, delta)).
    * ``variant="verbatim"``: c(r) = (1+r)/(1-r), the stated closed form,
      kept so its deviation from the oracle can be measured.

    At the antipodal radius the value is a constant with two candidate
    readings, -nu_j(-1) and -nu0(-1)*nu_j(-1); the spectral match
    adjudicates between them rather than hard-coding one. A lookup into
    ``closed_forms``.
    """
    q = ctx.q
    r %= q
    if nu_equals_inverse(ctx, j):
        raise ValueError(f"invalid character: nu_{j} is self-inverse on U")
    forms = closed_forms(ctx)
    deg0, deg1 = degenerate_radii(ctx)
    if r == deg0:
        return complex(1.0)
    if r == deg1:
        if infinity_reading not in CUSPIDAL_INFINITY_READINGS:
            raise ValueError(f"unknown infinity_reading {infinity_reading!r}")
        return complex(forms.antipodal[infinity_reading][j % (q + 1)])
    if r == 1:
        raise ValueError("singular radius r=1 is excluded from the cuspidal sum")
    if variant not in CUSPIDAL_VARIANTS:
        raise ValueError(f"variant must be one of {CUSPIDAL_VARIANTS}, got {variant!r}")
    return complex(forms.cuspidal[variant][r, j % (q + 1)])


def laplace_eigenvalue(table, i, r_s):
    """(q+1)*(1 - omega_i(r_s)); must reproduce the table's lambda_i."""
    if r_s % table.q != table.r_s:
        raise ValueError(f"table was built with r_s={table.r_s}, got {r_s}")
    return (table.q + 1) * (1.0 - table.omega[i, table.r_s])


def principal_class_indices(q):
    """Representatives j of the beta_j ~ conj pairs: 0..(q-1)/2."""
    return list(range((q - 1) // 2 + 1))


def cuspidal_class_indices(q):
    """Representatives j of the valid nu_j classes modulo inversion on U: 1..(q-1)/2."""
    return list(range(1, (q + 1) // 2))


class CharacterMatch(NamedTuple):
    """One character class matched to one spectral row."""

    kind: str  # "principal" | "cuspidal"
    index: int
    row: int
    max_deviation: float
    excluded_radii: tuple = ()
    by_elimination: bool = False
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


@functools.lru_cache(maxsize=1)
def _class_matches(ctx):
    """Every character class matched to its row of ``_radial_rows``, and the largest imaginary part.

    Principal classes are matched first (their values are defined at every
    radius), then cuspidal classes over the remaining rows, excluding the
    pole radius r=1. Each class takes its best untaken row, so the
    assignment is injective; a best row deviating by more than MATCH_TOL
    raises with the offending index. For the cuspidal value at the antipodal
    radius both candidate readings are evaluated and the better one is
    recorded per class. Returns (matches, max_imag); do not modify.
    """
    q = ctx.q
    omega, _ = _radial_rows(ctx)
    deg1 = degenerate_radii(ctx)[1]
    forms = closed_forms(ctx)
    taken = np.zeros(q, dtype=bool)
    matches, max_imag = [], 0.0

    def take(devs, label):
        row = int(np.argmin(np.where(taken, np.inf, devs)))
        if devs[row] > MATCH_TOL:
            raise ValueError(
                f"reconciliation failure: {label} deviates by {devs[row]:.3e} "
                f"from its best unassigned spectral row (tol {MATCH_TOL:.1e})"
            )
        taken[row] = True
        return row

    for j in principal_class_indices(q):
        values = forms.principal[:, j]
        max_imag = max(max_imag, float(np.abs(values.imag).max()))
        devs = np.abs(omega - values.real).max(axis=1)
        row = take(devs, f"principal class beta_{j}")
        matches.append(CharacterMatch("principal", j, row, float(devs[row])))

    defined = [r for r in range(q) if r != 1 and r != deg1]
    for j in cuspidal_class_indices(q):
        values = forms.cuspidal["reconciled"][defined, j]
        verbatim = forms.cuspidal["verbatim"][defined, j]
        inf_values = [forms.antipodal[reading][j] for reading in CUSPIDAL_INFINITY_READINGS]
        max_imag = max(max_imag, float(np.abs(values.imag).max()))
        inf_devs = np.array([np.abs(omega[:, deg1] - v) for v in inf_values])
        devs = np.maximum(np.abs(omega[:, defined] - values).max(axis=1), inf_devs.min(axis=0))
        # with only the normalization radius defined (q=3), the last row is the match
        by_elimination = len(defined) == 1 and taken.sum() == q - 1
        row = take(devs, f"cuspidal class nu_{j}")
        if abs(inf_values[0] - inf_values[1]) <= MATCH_TOL:
            reading = "both (readings coincide)"
        else:
            reading = CUSPIDAL_INFINITY_READINGS[int(inf_devs[:, row].argmin())]
        matches.append(
            CharacterMatch(
                "cuspidal",
                j,
                row,
                float(devs[row]),
                excluded_radii=(1,),
                by_elimination=by_elimination,
                infinity_reading=reading,
                verbatim_deviation=float(np.abs(omega[row, defined] - verbatim).max()),
            )
        )
    return tuple(matches), max_imag


def _table_matches(ctx, r_s):
    """The matches of ``_class_matches`` with each row renumbered into ``spherical_table(ctx, r_s)``."""
    matches, _ = _class_matches(ctx)
    position = np.argsort(_row_order(ctx, r_s)[1])
    return [m._replace(row=int(position[m.row])) for m in matches]


def match_formulas_to_oracle(ctx, r_s):
    """Every character class, its row of ``spherical_table(ctx, r_s)`` and its deviations.

    The classes belong to (q, delta), so the assignment is made once per
    (q, delta) (see ``_class_matches``); r_s only renumbers the rows.
    """
    table = spherical_table(ctx, r_s)
    _, max_imag = _class_matches(ctx)
    return MatchReport(table, _table_matches(ctx, table.r_s), max_imag)
