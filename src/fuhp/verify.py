"""Invariant battery behind the `verify` command.

Each check returns a CheckResult; diagnostics that are reported rather than
enforced (the Ramanujan bound, eigenvalue collisions, the verbatim theta gap)
carry finding_only=True and never fail a run.
"""

import math
from typing import NamedTuple

import numpy as np

from . import characters as chars
from .field import (
    EXT_ZERO,
    ExtElement,
    _prime_factors,
    ext_norm,
    field_context,
    norm_one_subgroup,
    quadratic_character,
)
from .heat import (
    AFFINE_AGREEMENT,
    UNIT_ROUNDOFF,
    affine_spectrum,
    fourier_coefficient_check,
    heat_kernel_affine,
    heat_kernel_oracle,
    heat_kernel_spectral,
    initial_condition_check,
    method_of_images_check,
    stabiliser_orbits,
)
from .spherical import intersection_matrices, laplace_eigenvalue, match_formulas_to_oracle, spherical_table
from .theta import classical_theta, reconciled_kernel, theta_consistency_report
from .uhp import (
    UhpGraph,
    degenerate_radii,
    orbit_sizes,
    radii_order,
    scheme,
    translate,
)

HEAT_T_GRID = (0.0, 0.01, 0.1, 1.0, 10.0)
# Each adjacency eigenvalue of either side comes from one symmetric eigh, backward stable to a few u of
# the matrix norm q+1 (the spherical side through a Rayleigh quotient of the same size); measured
# at most 4.8u(q+1) apart over every regular radius of every prime q <= 101
SPECTRUM_AGREEMENT = 32
LIFT_MAX_Q = 13  # |G| = q(q-1)^2(q+1) = 26,208 group elements at q=13


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    finding_only: bool = False

    @property
    def fatal(self):
        return not self.passed and not self.finding_only


def _check(results, name, passed, detail, finding_only=False):
    results.append(CheckResult(name, bool(passed), detail, finding_only))


def field_checks(ctx):
    q = ctx.q
    out = []
    order_g = next(m for m in range(1, q) if pow(ctx.g, m, q) == 1)
    _check(out, f"q={q} generator order", order_g == q - 1, f"order(g)={order_g}")
    smaller = [c for c in range(2, ctx.g) if all(pow(c, (q - 1) // p, q) != 1 for p in _prime_factors(q - 1))]
    _check(out, f"q={q} generator minimal", not smaller, f"g={ctx.g}")
    # the base logs are a permutation of 0..q-2; dlog2 inverts the power table and is -1 only at 0,
    # so the q^2-1 powers of zeta are distinct and nonzero: the extension logs are a permutation too.
    # (A numpy sort would page in about 200 KB more sorting code per process.)
    n2 = q * q - 1
    total = (sorted(ctx.dlog[1:].tolist()) == list(range(q - 1)) and ctx.dlog2[0] == -1
             and np.array_equal(ctx.dlog2[ctx.power_a * q + ctx.power_b], np.arange(n2)))
    _check(out, f"q={q} dlog tables total", total,
           f"{np.count_nonzero(ctx.dlog[1:] >= 0)}/{q-1} base, {np.count_nonzero(ctx.dlog2[1:] >= 0)}/{n2} extension")
    parity_ok = all(quadratic_character(ctx, a) == (1 if ctx.dlog[a] % 2 == 0 else -1) for a in range(1, q))
    _check(out, f"q={q} sign character = dlog parity", parity_ok, "exhaustive")
    u = norm_one_subgroup(ctx)
    _check(out, f"q={q} |U| = q+1", len(u) == q + 1 and len(set(u)) == q + 1, f"|U|={len(u)}")
    nu0_ok = all(chars.nu0(ctx, w) == (-1) ** k for k, w in enumerate(u))
    _check(out, f"q={q} nu0 = parity of U index", nu0_ok, "exhaustive")

    # The dlog table is total, so every nonzero z is zeta^m for one m, and
    # zeta^m * zeta^k = zeta^(m+k). N(zw) = N(z)N(w) on all nonzero pairs thus
    # says that m -> N(zeta^m) is a homomorphism of the cyclic group, which holds
    # exactly when N(zeta^m) = N(zeta)^m for every m, that is when
    # dlog N(zeta^m) = m dlog N(zeta) mod q-1 (a zero norm has dlog -1 and fails);
    # pairs with a zero need N(0) = 0.
    norms = ext_norm(ctx, ExtElement(ctx.power_a, ctx.power_b))
    norm_ok = ext_norm(ctx, EXT_ZERO) == 0 and np.array_equal(
        ctx.dlog[norms], np.arange(n2) * ctx.dlog[norms[1]] % (q - 1))
    _check(out, f"q={q} norm multiplicative", norm_ok, f"N(zeta^m) = N(zeta)^m for all {n2} m, N(0) = 0")
    return out


def character_checks(ctx):
    q = ctx.q
    out = []
    rep = chars.character_orthogonality_check(ctx)
    _check(out, f"q={q} character orthogonality", rep.max_residual <= 1e-12,
           f"max residual {rep.max_residual:.2e}")
    # beta_j(ab) against beta_j(a) beta_j(b) for all j, a, b, one character row at a time:
    # the multiplication table of F_q^x, read through dlog, picks entries of the row
    units = np.arange(1, q)
    dlog_a, dlog_ab = ctx.dlog[units], ctx.dlog[units[:, None] * units % q]
    mult_ok = all(np.abs(row[dlog_ab] - np.outer(row[dlog_a], row[dlog_a])).max() < 1e-12
                  for row in chars.character_tables(ctx).base)
    _check(out, f"q={q} beta multiplicative", mult_ok, "exhaustive")
    mags = max(
        abs(abs(chars.ext_char(ctx, j, z)) - 1.0)
        for j in (0, 1, q, q * q - 2)
        for z in (ExtElement(1, 0), ctx.zeta, ExtElement(0, 1))
    )
    _check(out, f"q={q} character magnitudes", mags <= 1e-12, f"max |.|-1 = {mags:.1e}")
    # nu_j(a) = e^(2 pi i j dlog2(a)/(q^2-1)) on a in F_q^x is beta_(je)(a) for every j exactly
    # when dlog2(a) = (q+1) e dlog(a) mod q^2-1, with e = dlog2(g)/(q+1); checked in integers
    ext = ctx.dlog2[units * q]
    e = int(ctx.dlog2[ctx.g * q]) // (q + 1)
    restr_ok = np.all(ext % (q + 1) == 0) and np.array_equal(ext // (q + 1), e * ctx.dlog[units] % (q - 1))
    _check(out, f"q={q} extension characters restrict through dlog", restr_ok,
           f"dlog2(a) = (q+1)*{e}*dlog(a) on F_q^x: nu_j = beta_(j*{e})")
    return out


def table_checks(ctx, orbits):
    """Facts of (q, delta) alone, checked once per q: orbit sizes (with ``orbits``) and the spherical table."""
    q = ctx.q
    n = q * (q - 1)
    out = []
    sizes = orbit_sizes(ctx)
    deg0, deg1 = degenerate_radii(ctx)
    expected = {r: (1 if r in (deg0, deg1) else q + 1) for r in range(q)}
    _check(out, f"q={q} orbit sizes", sizes == expected and orbits, f"{sizes}")
    # the rows belong to (q, delta); a radius only orders them, so the first regular one is taken
    table = spherical_table(ctx, radii_order(ctx)[2])
    _check(out, f"q={q} omega(0) = 1",
           float(np.abs(table.omega[:, 0] - 1).max()) <= 1e-12,
           f"max dev {np.abs(table.omega[:, 0] - 1).max():.1e}")
    _check(out, f"q={q} sum d_i = q(q-1)", int(table.degrees.sum()) == n,
           f"{int(table.degrees.sum())}")
    gram = (table.omega * table.orbit_sizes[None, :]) @ table.omega.T
    orth_dev = float(np.abs(gram - np.diag(n / table.degrees)).max())
    _check(out, f"q={q} weighted orthogonality", orth_dev <= 1e-10, f"{orth_dev:.2e}")
    recon = (table.degrees[:, None] * table.omega).sum(axis=0)
    target = np.where(np.arange(q) == 0, n, 0.0)
    delta_dev = float(np.abs(recon - target).max())
    _check(out, f"q={q} delta reconstruction", delta_dev <= 1e-9, f"{delta_dev:.2e}")
    return out


def _sorted(values):
    """``values`` in ascending order, by the stable argsort the spherical table already pages in.

    np.sort's default float kernel would page in about 250 KB more per process.
    """
    return values[np.argsort(values, kind="stable")]


def radius_checks(ctx, r_s, orbits):
    """Checks on Cay(Aff(F_q), S_{r_s}) and the table at r_s, from one proof of S_{r_s}; no vertex graph.

    ``affine_spectrum`` proves S_{r_s} a sound connection set and carries its
    generators, so the graph checks, the Aff(F_q) decomposition and the affine
    kernel read one certificate. A refused S_{r_s} fails "graph built", with
    the certificate's message as the detail, and gets no other check.
    """
    q = ctx.q
    out = []
    try:  # S_{r_s} inverse-closed, without the identity, generating, of size q+1
        spec = affine_spectrum(ctx, r_s)
    except AssertionError as exc:
        return [CheckResult(f"q={q} r_s={r_s} graph built", False, str(exc))]
    # a Cayley graph is vertex-transitive: every 0/1 adjacency row has the multiset {1^(q+1), 0^(n-q-1)}
    _check(out, f"q={q} r_s={r_s} graph built", True,
           f"{q * (q - 1)} vertices, degree {q + 1}, connected, vertex-transitive")

    x, y, labels, _, reps = scheme(ctx)
    if q <= 7:
        # the pseudo-distance N(z - w) / (y_z y_w) of every pair, from coordinates, against the
        # neighbours z.s of every vertex z through the certified generators s
        dx, dy = x[:, None] - x, y[:, None] - y
        dist = (dx * dx - ctx.delta * dy * dy) * ctx.inverse[y[:, None] * y % q] % q
        adjacency = np.zeros(dist.shape, dtype=bool)
        np.put_along_axis(adjacency, translate(q, np.arange(len(x))[:, None], spec.generators), True, axis=1)
        consistent = np.array_equal(adjacency, dist == r_s)
        _check(out, f"q={q} r_s={r_s} adjacency = distance sphere", consistent, "all pairs")

    table = spherical_table(ctx, r_s)
    w = table.adjacency_eigenvalues
    nontrivial = w[np.abs(np.abs(w) - (q + 1)) > 1e-8]
    bound = 2 * math.sqrt(q) + 1e-9
    worst = float(np.abs(nontrivial).max()) if nontrivial.size else 0.0
    _check(out, f"q={q} r_s={r_s} Ramanujan bound", worst <= bound,
           f"max |eig| {worst:.6f} vs 2*sqrt(q) {2 * math.sqrt(q):.6f}", finding_only=True)
    distinct = len(table.spectrum())
    _check(out, f"q={q} r_s={r_s} adjacency eigenvalues distinct", distinct == table.num_rows,
           f"{distinct} distinct for {table.num_rows} rows (collisions are reported, not fatal)",
           finding_only=True)
    lam_dev = max(
        abs(laplace_eigenvalue(table, i, r_s) - table.laplacian_eigenvalues[i])
        for i in range(table.num_rows)
    )
    _check(out, f"q={q} r_s={r_s} eigenvalue relation", lam_dev <= 1e-10,
           f"(q+1)(1 - omega(r_s)) vs lambda: {lam_dev:.2e}")

    # lifted rows are adjacency eigenvectors: lift[z, i] = omega_i(d(z)), and (A lift)[z] = C[z] @ omega.T
    # with C[z, r] the number of neighbours z.s, s in S_{r_s}, at radius r. For k in K, the stabiliser of
    # sqrt(delta), k' = h_(k.z)^-1 k h_z fixes sqrt(delta), so k' is in K, and k.(z.s) = (k.z).(k'.s).
    # When the classes are the orbits of K (``orbits``, from ``stabiliser_orbits``), k' permutes S_{r_s}
    # and C is constant on each class: its q rows at the representatives are all of it (at sqrt(delta),
    # the identity, the row counts the generators' own radii). When C is B_{r_s} (integers), the n x q
    # identity is the q x q one B_{r_s} omega_i' = a_i omega_i. O(q^2)
    block = intersection_matrices(ctx)[r_s]
    moved = labels[translate(q, reps[:, None], spec.generators)] + q * np.arange(q)[:, None]  # q*r + label
    counts_ok = orbits and np.array_equal(np.bincount(moved.ravel(), minlength=q * q).reshape(q, q), block)
    eig_dev = float(np.abs(block @ table.omega.T - table.omega.T * table.adjacency_eigenvalues).max())
    eig_dev = eig_dev if counts_ok else math.inf
    _check(out, f"q={q} r_s={r_s} rows are eigenfunctions", eig_dev <= 1e-9, f"{eig_dev:.2e}")

    # The spectrum of the Cayley graph is the union over the irreducible representations rho of the
    # eigenvalues of sum_s rho(s), each d_rho times: the q-1 character sums c_j, and the q-1
    # eigenvalues w_i of pi, each q-1 times. It must equal the table's a_i, each d_i times, as multisets
    ours = _sorted(np.concatenate([spec.characters, np.repeat(spec.eigenvalues, q - 1)]))
    theirs = _sorted(np.repeat(table.adjacency_eigenvalues, table.degrees))
    gap = float(np.abs(ours - theirs).max()) if ours.size == theirs.size else math.inf
    _check(out, f"q={q} r_s={r_s} spectrum = Aff(F_q) decomposition",
           gap <= SPECTRUM_AGREEMENT * UNIT_ROUNDOFF * (q + 1),
           f"max gap {gap:.2e} over {ours.size} eigenvalues")
    # the two kernels' error model (heat.AFFINE_AGREEMENT); at most 5.5u*n on this grid at primes q <= 101
    affine = heat_kernel_affine(ctx, r_s, HEAT_T_GRID)
    dev = float(np.abs(affine - heat_kernel_spectral(table, HEAT_T_GRID)).max())
    _check(out, f"q={q} r_s={r_s} spectral = affine oracle",
           dev <= AFFINE_AGREEMENT * UNIT_ROUNDOFF * q * (q - 1), f"max dev {dev:.2e}")
    return out


def formula_match_checks(report):
    """Checks on a match_formulas_to_oracle report."""
    q, r_s = report.table.q, report.table.r_s
    out = []
    worst = max(m.max_deviation for m in report.matches)
    unique = len({m.row for m in report.matches}) == len(report.matches)
    _check(out, f"q={q} formulas match oracle (r_s={r_s})", worst <= 1e-9 and unique,
           f"max dev {worst:.2e}, rows unique: {unique}")
    _check(out, f"q={q} formula values real", report.max_imag <= 1e-10,
           f"max imag {report.max_imag:.1e}")
    readings = {m.infinity_reading for m in report.cuspidal}
    _check(out, f"q={q} antipodal reading adjudicated",
           all("minus_nu0_nu" != r for r in readings),
           f"winning readings: {sorted(readings)}")
    verb = max((m.verbatim_deviation for m in report.cuspidal), default=0.0)
    _check(out, f"q={q} as-stated cuspidal constant gap", verb <= 1e-9,
           f"max deviation {verb:.3f} (measured finding)", finding_only=True)
    return out


def heat_test_functions(n):
    """Five test functions on n vertices, the Weyl sequences frac(k * sqrt(p)) for k = 1..n.

    sqrt(p) is irrational for the primes p in (2, 3, 5, 7, 11), so no row is
    constant and no two are equal; numpy.random, which would add about 6 MB
    to every verify process, is not loaded.
    """
    primes = np.array([2, 3, 5, 7, 11])
    return np.arange(1, n + 1) * np.sqrt(primes)[:, None] % 1.0


def heat_checks(graph):
    ctx, r_s, q, n = graph.ctx, graph.r_s, graph.ctx.q, graph.n
    out = []
    table = spherical_table(ctx, r_s)

    spec = heat_kernel_spectral(table, HEAT_T_GRID)
    try:
        orac = heat_kernel_oracle(graph, HEAT_T_GRID)
    except AssertionError as exc:  # a walk not constant on an orbit: the orbits are not distance classes
        return [CheckResult(f"q={q} r_s={r_s} spectral = oracle", False, str(exc))]
    dev = float(np.abs(spec - orac.by_radius).max())
    mass_dev = float(np.abs(orac.by_vertex.mean(axis=1) - 1.0).max())
    min_val = float(spec.min())
    _check(out, f"q={q} r_s={r_s} spectral = oracle", dev <= 1e-9, f"max dev {dev:.2e}")
    _check(out, f"q={q} r_s={r_s} mass conservation", mass_dev <= 1e-10, f"{mass_dev:.2e}")
    _check(out, f"q={q} r_s={r_s} positivity", min_val >= -1e-12, f"min value {min_val:.2e}")

    lam_pos = table.laplacian_eigenvalues[table.laplacian_eigenvalues > 1e-8]
    t_long = 50.0 / lam_pos.min() if lam_pos.size else 50.0
    longtime = float(np.abs(heat_kernel_spectral(table, [t_long]) - 1.0).max())
    _check(out, f"q={q} r_s={r_s} long-time limit", longtime <= 1e-10, f"{longtime:.2e}")
    lam_min = float(lam_pos.min())
    decay_t = np.array([0.5, 1.0, 5.0])
    decay_ok = bool(np.all(
        np.abs(heat_kernel_spectral(table, decay_t) - 1.0).max(axis=1)
        <= n * np.exp(-lam_min * decay_t) + 1e-12
    ))
    _check(out, f"q={q} r_s={r_s} spectral-gap decay bound", decay_ok,
           f"|E - 1| <= q(q-1) exp(-{lam_min:.3f} t)")

    four = fourier_coefficient_check(table, [0.0, 0.5, 1.0]).max_deviation
    _check(out, f"q={q} r_s={r_s} Fourier coefficients", four <= 1e-9, f"{four:.2e}")

    # exp(-tL)[z, w] = E_t(d(z, w))/n, and for d(z) = r the w with d(z, w) = r1 and d(w) = r2 are the
    # B_r1[r, r2] vertices z.s, s in S_r1, at radius r2. So exp(-(s+t)L) = exp(-sL) exp(-tL) at
    # (z, sqrt(delta)) is E_{s+t}(r) = (1/n) sum_{r1, r2} E_s(r1) E_t(r2) B_r1[r, r2], on the q x q scheme
    e_s, e_t, e_st = heat_kernel_spectral(table, [0.3, 0.7, 1.0])
    conv = sum(e * (block @ e_t) for e, block in zip(e_s, intersection_matrices(ctx))) / n
    semi = float(np.abs(conv - e_st).max())
    _check(out, f"q={q} r_s={r_s} semigroup", semi <= 1e-10, f"{semi:.2e}")

    funcs = heat_test_functions(n)
    res = np.array(initial_condition_check(graph, funcs, [1e-2, 1e-4, 1e-6]))  # [t, function]
    ok_tail = np.all((res[-1] <= res[-2] + 1e-15) & (res[-2] <= res[-3] + 1e-15))
    bound = 2 * (q + 1) * 1e-6 * np.abs(funcs).max(axis=1) + 1e-10
    worst_margin = float((res[-1] - bound).max()) if ok_tail else math.inf
    _check(out, f"q={q} r_s={r_s} initial condition", worst_margin <= 0,
           f"worst residual-minus-bound {worst_margin:.2e}")

    if q == 3:
        # g.(z.s) = (g.z).s: every left translation maps each neighbour row onto the row of its image,
        # so it commutes with A and with exp(-tL)
        rows = np.arange(n)
        ok = np.array_equal(translate(q, rows[:, None, None], graph.neighbors),
                            graph.neighbors[translate(q, rows[:, None], rows)])
        _check(out, "q=3 left invariance", ok, "exhaustive over the affine group")
    return out


def lift_checks(graph):
    ctx, r_s, q = graph.ctx, graph.r_s, graph.ctx.q
    out = []
    if q > LIFT_MAX_Q:
        _check(out, f"q={q} method of images", True,
               f"skipped: lift verification covers q <= {LIFT_MAX_Q}", finding_only=True)
        return out
    rep = method_of_images_check(ctx, r_s, [0.1, 1.0, 5.0], graph=graph)
    _check(out, f"q={q} r_s={r_s} lifted Laplacian intertwines", rep.intertwining_exact,
           f"measured scaling {rep.measured_scaling:.1f} (expected {rep.stabilizer_order})")
    _check(out, f"q={q} r_s={r_s} K-average = quotient kernel", rep.max_deviation <= 1e-8,
           f"max dev {rep.max_deviation:.2e} over t in (0.1, 1, 5)")
    return out


def theta_checks(ctx, r_s):
    """Finite theta checks at the radius r_s."""
    q = ctx.q
    out = []
    table = spherical_table(ctx, r_s)
    t_grid = (0.0, 0.1, 1.0)
    reconciled = reconciled_kernel(ctx, table, t_grid)
    dev = float(np.abs(reconciled - heat_kernel_spectral(table, t_grid)).max())
    _check(out, f"q={q} reconciled theta = spectral kernel", dev <= 1e-12, f"{dev:.2e}")

    report = theta_consistency_report(ctx, r_s, [0.1, 1.0])
    _check(out, f"q={q} theta report reconciled column", report.max_reconciled_deviation <= 1e-9,
           f"{report.max_reconciled_deviation:.2e}")
    _check(out, f"q={q} verbatim theta gap", report.max_verbatim_deviation <= 1e-9,
           f"max |verbatim - reconciled| = {report.max_verbatim_deviation:.3e} (measured finding)",
           finding_only=True)
    return out


def classical_theta_checks():
    """Checks on the classical theta function, which depend on no q; run once per battery."""
    out = []
    value, bound = classical_theta(0.0, 1.0, n_max=12)
    _check(out, "classical theta at the origin",
           abs(value.real - 1.0864348112133080) <= 1e-12 and bound < 1e-12,
           f"{value.real!r}")
    per = abs(classical_theta(0.3 + 1.0, 1.0).value - classical_theta(0.3, 1.0).value)
    _check(out, "classical theta periodicity", per <= 1e-12, f"{per:.1e}")
    h = 1e-4
    z0, t0 = 0.2, 1.0
    dt = (classical_theta(z0, t0 + h).value - classical_theta(z0, t0 - h).value) / (2 * h)
    dzz = (
        classical_theta(z0 + h, t0).value
        - 2 * classical_theta(z0, t0).value
        + classical_theta(z0 - h, t0).value
    ) / (h * h)
    rel = abs(dt - dzz / (4 * math.pi)) / abs(dt)
    _check(out, "classical theta heat identity", rel <= 1e-6, f"relative error {rel:.1e}")
    return out


def run_battery(q_list, include_lift=False):
    """Run every applicable check for each q, then the q-free classical theta checks; the flat result list."""
    results = []
    for q in q_list:
        ctx = field_context(q)
        results += field_checks(ctx)
        results += character_checks(ctx)
        orbits = stabiliser_orbits(ctx)
        results += table_checks(ctx, orbits)
        # each radius is checked through its certified connection set. One vertex graph per q serves the
        # walk of the heat and lift checks: it is formed at the first radius that passes, while the affine
        # spectrum caches that proof, as are the theta checks there (printed after the heat checks)
        graph, theta = None, []
        for r_s in radii_order(ctx)[2:]:
            checks = radius_checks(ctx, r_s, orbits)
            results += checks
            if checks[0].passed and graph is None:
                graph, theta = UhpGraph(ctx, r_s, affine_spectrum(ctx, r_s).generators), theta_checks(ctx, r_s)
        if graph is None:
            continue
        results += formula_match_checks(match_formulas_to_oracle(ctx, graph.r_s))
        results += heat_checks(graph)
        results += theta
        if include_lift:
            results += lift_checks(graph)
    return results + classical_theta_checks()
