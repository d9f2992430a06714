"""Zonal spherical functions of H_q, computed two ways, and their closed forms.

The distance classes form a commutative association scheme, so the q
spherical functions belong to (q, delta), not to a generating radius:
``spherical_table`` computes them once from q x q quotient matrices, and r_s
only selects the eigenvalues a_i = (q+1)*omega_i(r_s). ``radial_eigenbasis``
is its dense oracle (adjacency eigenprojections of the base-point indicator),
which merges rows that share an eigenvalue at r_s.

Two closed-form families are then matched against the rows: the principal
family, a character average over the sphere's y-coordinates, and the cuspidal
family, a sign-weighted character sum over the norm-one subgroup U. Both are
treated as claims to be checked, not as definitions: the matcher assigns each
character class its unique spectral row and records every deviation.
"""

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .characters import character_tables, nu_equals_inverse
from .field import field_tables
from .uhp import degenerate_radii, radial_values, radii_order, regular_radius, scheme, translate

EIGENVALUE_CLUSTER_TOL = 1e-8
# weights cos(r * golden angle) keep the eigenvalues of sum_r c_r B~_r apart
# by >= 5.5e-5 of its norm at every prime q <= 101
GOLDEN_ANGLE = np.pi * (3 - np.sqrt(5))
# an eigenvector error e ~ eps*|M|/gap enters the Rayleigh quotients squared,
# (q+1)*e^2 < 1e-14 for a relative gap >= 1e-8
MIN_RELATIVE_GAP = 1e-8
DEGREE_INTEGRALITY_TOL = 1e-6


@dataclass
class SphericalTable:
    """Spherical functions as radius-indexed rows, ordered by Laplacian eigenvalue.

    omega[i, k] is the value of row i at radii[k]; degrees[i] is the eigenvalue
    multiplicity d_i, adjacency_eigenvalues[i] = (q+1)*omega_i(r_s) and
    laplacian_eigenvalues[i] = (q+1) - adjacency_eigenvalues[i].
    """

    q: int
    delta: int
    r_s: int
    radii: list
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

    def radius_column(self, r):
        return self.radii.index(r % self.q)

    def spectrum(self):
        """Descending [eigenvalue, multiplicity] pairs, merging rows within EIGENVALUE_CLUSTER_TOL."""
        out = []
        for a, d in zip(self.adjacency_eigenvalues, self.degrees):
            if out and out[-1][0] - a <= EIGENVALUE_CLUSTER_TOL:
                out[-1][1] += int(d)
            else:
                out.append([float(a), int(d)])
        return out


@functools.lru_cache(maxsize=8)
def _radial_rows(ctx):
    """Radii, orbit sizes D, spherical rows and degrees of (q, delta); do not modify.

    B_r[r1, r2] = #{s in S_r : d(z_r1 . s, sqrt(delta)) = r2}. The symmetric
    B~_r = D^(1/2) B_r D^(-1/2) share eigenvectors u_i, found by one eigh of
    sum_r c_r B~_r; B_r omega_i = |S_r| omega_i(r) omega_i, so omega_i(r) is
    the Rayleigh quotient u_i' B~_r u_i / (|S_r| u_i' u_i).
    """
    q = ctx.q
    n = q * (q - 1)
    radii = radii_order(ctx)
    vertices = scheme(ctx)
    cols, sizes = vertices.cols, vertices.sizes
    # column of z_k . w for the representative z_k of each orbit and every vertex w
    moved = cols[translate(q, vertices.reps[:, None], np.arange(n))]
    flat = (cols[None, :] * q + np.arange(q)[:, None]) * q + moved
    quotient = np.bincount(flat.ravel(), minlength=q**3).reshape(q, q, q)  # [r, r1, r2]
    pairs = sizes[None, :, None] * quotient
    if not np.array_equal(pairs, pairs.transpose(0, 2, 1)):
        raise AssertionError("|S_r1| B_r[r1, r2] must be symmetric: distance classes are not a scheme")
    sym = pairs / np.sqrt(np.outer(sizes, sizes))  # exactly symmetric B~_r
    w, u = np.linalg.eigh((np.cos(GOLDEN_ANGLE * np.array(radii)) @ sym.reshape(q, -1)).reshape(q, q))
    gap = np.diff(w).min()
    if gap < MIN_RELATIVE_GAP * np.abs(w).max():
        raise AssertionError(f"radial eigenbasis ill-separated at q={q}: gap {gap:.3e}")
    omega = ((sym @ u) * u).sum(axis=1).T / sizes / (u * u).sum(axis=0)[:, None]
    # each row of B_r sums to |S_r|, so the constant function is an exact row
    omega[np.abs(omega - 1.0).max(axis=1).argmin()] = 1.0
    raw = n / (omega**2 @ sizes)
    degrees = np.rint(raw).astype(np.int64)
    if np.abs(raw - degrees).max() > DEGREE_INTEGRALITY_TOL:
        raise AssertionError(f"multiplicities not integral at q={q}: {raw}")
    return tuple(radii), sizes, omega, degrees


def spherical_table(ctx, r_s):
    """All q rows (cached per (q, delta)) with a_i = (q+1)*omega_i(r_s), by ascending lambda_i."""
    q = ctx.q
    r_s = regular_radius(ctx, r_s)
    radii, sizes, omega, degrees = _radial_rows(ctx)
    adj = (q + 1) * omega[:, radii.index(r_s)]
    order = np.argsort((q + 1) - adj, kind="stable")
    return SphericalTable(
        q=q,
        delta=ctx.delta,
        r_s=r_s,
        radii=list(radii),
        orbit_sizes=sizes.copy(),
        omega=omega[order],
        degrees=degrees[order],
        adjacency_eigenvalues=adj[order],
        laplacian_eigenvalues=(q + 1) - adj[order],
    )


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
    radii = radii_order(ctx)
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
        radii=radii,
        orbit_sizes=sizes,
        omega=omega,
        degrees=degrees,
        adjacency_eigenvalues=adj_eigs,
        laplacian_eigenvalues=(q + 1) - adj_eigs,
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


@functools.lru_cache(maxsize=8)
def closed_forms(ctx):
    """Evaluate both families for every character and radius of (q, delta) at once; do not modify.

    The principal value is the (q-1)-point character transform of the histogram
    of dlog(y) over each sphere. The cuspidal value is a (q x (q+1)) sign matrix
    eps(2 u.a - 2 c(r)) * nu0(u) times the nu_j phases on U. See
    ``principal_spherical`` and ``cuspidal_spherical`` for the definitions.
    """
    q, delta = ctx.q, ctx.delta
    fields, chars = field_tables(ctx), character_tables(ctx)
    deg0, deg1 = degenerate_radii(ctx)

    vertices = scheme(ctx)
    hist = np.bincount(vertices.labels * (q - 1) + fields.dlog[vertices.y], minlength=q * (q - 1))
    principal = hist.reshape(q, q - 1) @ chars.base.T / (q + 1)
    principal[deg0] = 1.0
    principal[deg1] = chars.base[:, (q - 1) // 2]  # beta_j(-1), dlog(-1) = (q-1)/2

    k = np.arange(q + 1)
    u_a = fields.power_a[(q - 1) * k]  # a-coordinates of U in norm_one_subgroup order
    nu0 = np.where(k % 2, -1, 1)
    regular = [r for r in range(q) if r not in (deg0, deg1, 1)]
    two_c = {
        "reconciled": [(2 - r * ctx.inv(delta)) % q for r in regular],
        "verbatim": [2 * (1 + r) * ctx.inv(1 - r) % q for r in regular],
    }
    cuspidal = {}
    for variant, consts in two_c.items():
        signs = np.zeros((q, q + 1))
        signs[regular] = fields.chi[(2 * u_a - np.array(consts, dtype=np.int64)[:, None]) % q] * nu0
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
    col = table.radius_column(r_s)
    return (table.q + 1) * (1.0 - table.omega[i, col])


def principal_class_indices(q):
    """Representatives j of the beta_j ~ conj pairs: 0..(q-1)/2."""
    return list(range((q - 1) // 2 + 1))


def cuspidal_class_indices(q):
    """Representatives j of the valid nu_j classes modulo inversion on U: 1..(q-1)/2."""
    return list(range(1, (q + 1) // 2))


@dataclass
class CharacterMatch:
    """One character class matched to one spectral row."""

    kind: str  # "principal" | "cuspidal"
    index: int
    partner_index: int
    row: int
    max_deviation: float
    deviation_by_radius: dict
    excluded_radii: tuple = ()
    by_elimination: bool = False
    infinity_reading: str = ""
    verbatim_deviation: float = 0.0  # cuspidal only: gap of the as-stated constant


@dataclass
class MatchReport:
    table: SphericalTable
    matches: list = field(default_factory=list)
    max_imag: float = 0.0

    @property
    def principal(self):
        return [m for m in self.matches if m.kind == "principal"]

    @property
    def cuspidal(self):
        return [m for m in self.matches if m.kind == "cuspidal"]

    def row_for(self, kind, index):
        for m in self.matches:
            if m.kind == kind and m.index == index:
                return m.row
        raise KeyError((kind, index))


def match_formulas_to_oracle(ctx, r_s, table=None, tol=1e-9):
    """Assign every character class its spectral row and measure deviations.

    Principal classes are matched first (their values are defined at every
    radius), then cuspidal classes over the remaining rows, excluding the
    pole radius r=1. The assignment must be injective; a class whose best
    row deviates by more than tol raises with the offending index. For the
    cuspidal value at the antipodal radius both candidate readings are
    evaluated and the better one is recorded per class.
    """
    q = ctx.q
    if table is None:
        table = spherical_table(ctx, r_s)
    if table.r_s != r_s % q:
        raise ValueError(f"table was built with r_s={table.r_s}, got {r_s}")
    if not table.is_complete:
        raise ValueError(
            f"table has {table.num_rows} rows < q={q}: an eigenvalue collision merged "
            f"orbits at r_s={table.r_s}; match against spherical_table, which keeps all q rows"
        )

    radii = table.radii
    deg1 = degenerate_radii(ctx)[1]
    forms = closed_forms(ctx)
    report = MatchReport(table=table)
    taken = set()

    for j in principal_class_indices(q):
        values = forms.principal[radii, j]
        report.max_imag = max(report.max_imag, float(np.abs(values.imag).max()))
        devs = np.abs(table.omega - values.real[None, :]).max(axis=1)
        row = _best_row(devs, taken, tol, f"principal class beta_{j}")
        taken.add(row)
        report.matches.append(
            CharacterMatch(
                kind="principal",
                index=j,
                partner_index=(q - 1 - j) % (q - 1),
                row=row,
                max_deviation=float(devs[row]),
                deviation_by_radius=dict(zip(radii, np.abs(table.omega[row] - values).tolist())),
            )
        )

    defined = [r for r in radii if r != 1 and r != deg1]
    cols = [table.radius_column(r) for r in defined]
    inf_col = table.radius_column(deg1)
    # with only the normalization radii defined the match is by elimination
    informative = len(defined) > 1 or q > 3
    for j in cuspidal_class_indices(q):
        values = forms.cuspidal["reconciled"][defined, j]
        verbatim = forms.cuspidal["verbatim"][defined, j]
        inf_values = {reading: forms.antipodal[reading][j] for reading in CUSPIDAL_INFINITY_READINGS}
        report.max_imag = max(report.max_imag, float(np.abs(values.imag).max()))
        inf_devs = np.array([np.abs(table.omega[:, inf_col] - v) for v in inf_values.values()])
        devs = np.maximum(np.abs(table.omega[:, cols] - values).max(axis=1), inf_devs.min(axis=0))
        free = [i for i in range(table.num_rows) if i not in taken]
        row = _best_row(devs, taken, tol, f"cuspidal class nu_{j}")
        taken.add(row)
        inf_target = table.omega[row, inf_col]
        best_reading = min(
            CUSPIDAL_INFINITY_READINGS, key=lambda rd: abs(inf_target - inf_values[rd])
        )
        if abs(inf_values["minus_nu"] - inf_values["minus_nu0_nu"]) <= tol:
            best_reading = "both (readings coincide)"
        dev_by_r = dict(zip(defined, np.abs(table.omega[row, cols] - values).tolist()))
        dev_by_r[deg1] = float(inf_devs[:, row].min())
        report.matches.append(
            CharacterMatch(
                kind="cuspidal",
                index=j,
                partner_index=q + 1 - j,
                row=row,
                max_deviation=float(devs[row]),
                deviation_by_radius=dev_by_r,
                excluded_radii=(1,),
                by_elimination=not informative and len(free) == 1,
                infinity_reading=best_reading,
                verbatim_deviation=float(np.abs(table.omega[row, cols] - verbatim).max()),
            )
        )

    assert len(taken) == table.num_rows, "match must cover every spectral row"
    return report


def _best_row(devs, taken, tol, label):
    order = np.argsort(devs, kind="stable")
    for i in order:
        if int(i) not in taken:
            if devs[i] > tol:
                raise ValueError(
                    f"reconciliation failure: {label} deviates by {devs[i]:.3e} "
                    f"from its best unassigned spectral row (tol {tol:.1e})"
                )
            return int(i)
    raise ValueError(f"reconciliation failure: no spectral row left for {label}")
