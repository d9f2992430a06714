"""Invariant battery behind the `verify` command.

Each check returns a CheckResult; diagnostics that are reported rather than
enforced (the Ramanujan bound, eigenvalue collisions, the verbatim theta gap)
carry finding_only=True and never fail a run.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import characters as chars
from .field import (
    EXT_ZERO,
    ExtElement,
    _prime_factors,
    ext_norm,
    field_context,
    field_tables,
    norm_one_subgroup,
    quadratic_character,
)
from .heat import (
    fourier_coefficient_check,
    heat_kernel_oracle,
    heat_kernel_spectral,
    initial_condition_check,
    method_of_images_check,
)
from .spherical import laplace_eigenvalue, match_formulas_to_oracle, spherical_table
from .theta import classical_theta, reconciled_kernel, theta_consistency_report
from .uhp import (
    act,
    build_graph,
    degenerate_radii,
    distance,
    laplacian,
    orbit_labels,
    orbit_sizes,
    point_index,
    radii_order,
    sphere,
)

HEAT_T_GRID = (0.0, 0.01, 0.1, 1.0, 10.0)


@dataclass
class CheckResult:
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
    _check(out, f"q={q} dlog tables total", len(ctx.dlog_q) == q - 1 and len(ctx.dlog_q2) == q * q - 1,
           f"{len(ctx.dlog_q)}/{q-1} base, {len(ctx.dlog_q2)}/{q*q-1} extension")
    parity_ok = all(
        quadratic_character(ctx, a) == (1 if ctx.dlog_q[a] % 2 == 0 else -1)
        for a in range(1, q)
    )
    _check(out, f"q={q} sign character = dlog parity", parity_ok, "exhaustive")
    u = norm_one_subgroup(ctx)
    _check(out, f"q={q} |U| = q+1", len(u) == q + 1 and len(set(u)) == q + 1, f"|U|={len(u)}")
    nu0_ok = all(chars.nu0(ctx, w) == (-1) ** k for k, w in enumerate(u))
    _check(out, f"q={q} nu0 = parity of U index", nu0_ok, "exhaustive")

    # The dlog table is total, so every nonzero z is zeta^m for one m, and
    # zeta^m * zeta^k = zeta^(m+k). N(zw) = N(z)N(w) on all nonzero pairs thus
    # says that m -> N(zeta^m) is a homomorphism of the cyclic group, which holds
    # exactly when N(zeta^m) = N(zeta)^m for every m; pairs with a zero need N(0) = 0.
    n_zeta = ext_norm(ctx, ctx.zeta)
    norm_ok = ext_norm(ctx, EXT_ZERO) == 0 and all(
        ext_norm(ctx, z) == pow(n_zeta, m, q) for z, m in ctx.dlog_q2.items()
    )
    _check(out, f"q={q} norm multiplicative", norm_ok,
           f"N(zeta^m) = N(zeta)^m for all {len(ctx.dlog_q2)} m, N(0) = 0")
    return out


def character_checks(ctx):
    q = ctx.q
    out = []
    rep = chars.character_orthogonality_check(ctx)
    _check(out, f"q={q} character orthogonality", rep.max_residual <= 1e-12,
           f"max residual {rep.max_residual:.2e}")
    # beta_j(ab) against beta_j(a) beta_j(b) for all j, a, b: the multiplication
    # table of F_q^x, read through dlog, picks columns of the character table
    dlog, base = field_tables(ctx).dlog, chars.character_tables(ctx).base
    units = np.arange(1, q)
    beta = base[:, dlog[units]]  # beta[j, a-1] = beta_j(a)
    beta_ab = base[:, dlog[units[:, None] * units % q]]
    mult_ok = bool(np.abs(beta_ab - beta[:, :, None] * beta[:, None, :]).max() < 1e-12)
    _check(out, f"q={q} beta multiplicative", mult_ok, "exhaustive")
    mags = max(
        abs(abs(chars.ext_char(ctx, j, z)) - 1.0)
        for j in (0, 1, q, q * q - 2)
        for z in (ExtElement(1, 0), ctx.zeta, ExtElement(0, 1))
    )
    _check(out, f"q={q} character magnitudes", mags <= 1e-12, f"max |.|-1 = {mags:.1e}")
    # restriction of nu_j to the base field depends only on the base dlog
    restr_ok = True
    for j in (1, 2, q + 1):
        vals = {}
        for a in range(1, q):
            key = ctx.dlog_q[a]
            v = chars.ext_char(ctx, j, ExtElement(a, 0))
            if key in vals and abs(vals[key] - v) > 1e-12:
                restr_ok = False
            vals[key] = v
    _check(out, f"q={q} extension characters restrict through dlog", restr_ok, "j in {1,2,q+1}")
    return out


def graph_checks(graph):
    """Checks on a built graph (build_graph asserts regularity, symmetry and connectivity)."""
    ctx, r_s, q = graph.ctx, graph.r_s, graph.ctx.q
    out = []
    _check(out, f"q={q} r_s={r_s} graph built", True,
           f"{graph.n} vertices, degree {q + 1}, connected")
    sizes = orbit_sizes(ctx)
    deg0, deg1 = degenerate_radii(ctx)
    expected = {r: (1 if r in (deg0, deg1) else q + 1) for r in range(q)}
    _check(out, f"q={q} orbit sizes", sizes == expected, f"{sizes}")
    sphere_ok = all(len(sphere(ctx, r)) == expected[r] for r in range(q))
    _check(out, f"q={q} sphere sizes", sphere_ok, "|S_r| = q+1 off the degenerate radii")

    if q <= 7:
        consistent = all(
            bool(graph.adjacency[i, j]) == (distance(ctx, z, w) == r_s)
            for i, z in enumerate(graph.points)
            for j, w in enumerate(graph.points)
        )
        _check(out, f"q={q} r_s={r_s} adjacency = distance sphere", consistent, "all pairs")

    # every 0/1 adjacency row has the multiset {1^(q+1), 0^(n-q-1)}: q+1 distinct neighbours
    distinct = 1 + (np.diff(np.sort(graph.neighbors, axis=1), axis=1) != 0).sum(axis=1)
    transitive = bool(np.all(distinct == q + 1))
    _check(out, f"q={q} r_s={r_s} row multisets equal", transitive, "vertex-transitivity")

    w = spherical_table(ctx, r_s).adjacency_eigenvalues
    nontrivial = w[np.abs(np.abs(w) - (q + 1)) > 1e-8]
    bound = 2 * math.sqrt(q) + 1e-9
    worst = float(np.abs(nontrivial).max()) if nontrivial.size else 0.0
    _check(out, f"q={q} r_s={r_s} Ramanujan bound", worst <= bound,
           f"max |eig| {worst:.6f} vs 2*sqrt(q) {2 * math.sqrt(q):.6f}", finding_only=True)
    return out


def spherical_checks(graph):
    ctx, r_s, q = graph.ctx, graph.r_s, graph.ctx.q
    n = graph.n
    out = []
    table = spherical_table(ctx, r_s)
    distinct = len(table.spectrum())
    _check(out, f"q={q} r_s={r_s} adjacency eigenvalues distinct", distinct == table.num_rows,
           f"{distinct} distinct for {table.num_rows} rows (collisions are reported, not fatal)",
           finding_only=True)
    _check(out, f"q={q} r_s={r_s} omega(0) = 1",
           float(np.abs(table.omega[:, 0] - 1).max()) <= 1e-12,
           f"max dev {np.abs(table.omega[:, 0] - 1).max():.1e}")
    _check(out, f"q={q} r_s={r_s} sum d_i = q(q-1)", int(table.degrees.sum()) == n,
           f"{int(table.degrees.sum())}")
    gram = (table.omega * table.orbit_sizes[None, :]) @ table.omega.T
    orth_dev = float(np.abs(gram - np.diag(n / table.degrees)).max())
    _check(out, f"q={q} r_s={r_s} weighted orthogonality", orth_dev <= 1e-10, f"{orth_dev:.2e}")
    recon = (table.degrees[:, None] * table.omega).sum(axis=0)
    target = np.array([n if r == 0 else 0.0 for r in table.radii])
    delta_dev = float(np.abs(recon - target).max())
    _check(out, f"q={q} r_s={r_s} delta reconstruction", delta_dev <= 1e-9, f"{delta_dev:.2e}")
    lam_dev = max(
        abs(laplace_eigenvalue(table, i, r_s) - table.laplacian_eigenvalues[i])
        for i in range(table.num_rows)
    )
    _check(out, f"q={q} r_s={r_s} eigenvalue relation", lam_dev <= 1e-10,
           f"(q+1)(1 - omega(r_s)) vs lambda: {lam_dev:.2e}")

    # lifted rows are adjacency eigenvectors: lift[x, i] = omega_i(d(x)), and (A lift)[x] = C[x] @ omega.T
    # with C[x, k] the number of neighbours of x in the orbit of column k (n x q counts)
    cols = np.argsort(table.radii)[orbit_labels(ctx)]
    flat = (np.arange(n)[:, None] * q + cols[graph.neighbors]).ravel()
    counts = np.bincount(flat, minlength=n * q).reshape(n, q)
    lift = table.omega[:, cols].T
    eig_dev = float(np.abs(counts @ table.omega.T - lift * table.adjacency_eigenvalues).max())
    _check(out, f"q={q} r_s={r_s} rows are eigenfunctions", eig_dev <= 1e-9, f"{eig_dev:.2e}")
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


def heat_checks(graph):
    ctx, r_s, q = graph.ctx, graph.r_s, graph.ctx.q
    n = graph.n
    out = []
    table = spherical_table(ctx, r_s)

    spec = heat_kernel_spectral(table, HEAT_T_GRID)
    orac = heat_kernel_oracle(graph, HEAT_T_GRID)
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

    if q <= 5:
        lap = laplacian(graph)
        w, v = np.linalg.eigh(lap)
        expm = lambda s: v @ (np.exp(-w * s)[:, None] * v.T)
        semi = float(np.abs(expm(1.0) - expm(0.3) @ expm(0.7)).max())
        _check(out, f"q={q} r_s={r_s} semigroup", semi <= 1e-10, f"{semi:.2e}")

    rng = np.random.default_rng(20260809)
    worst_margin = -math.inf
    for _ in range(5):
        f = rng.random(graph.n)
        res = initial_condition_check(graph, f, [1e-2, 1e-4, 1e-6])
        ok_tail = res[-1] <= res[-2] + 1e-15 and res[-2] <= res[-3] + 1e-15
        bound = 2 * (q + 1) * 1e-6 * float(np.abs(f).max()) + 1e-10
        worst_margin = max(worst_margin, res[-1] - bound)
        if not ok_tail:
            worst_margin = math.inf
    _check(out, f"q={q} r_s={r_s} initial condition", worst_margin <= 0,
           f"worst residual-minus-bound {worst_margin:.2e}")

    if q == 3:
        kernel = graph.n * expm(1.0)
        ok = True
        for p in graph.points:
            perm = np.array([point_index(ctx, act(ctx, p, z)) for z in graph.points])
            ok = ok and np.abs(kernel[np.ix_(perm, perm)] - kernel).max() <= 1e-10
        _check(out, "q=3 left invariance", ok, "exhaustive over the affine group")
    return out


def lift_checks(graph):
    ctx, r_s, q = graph.ctx, graph.r_s, graph.ctx.q
    out = []
    if q > 5:
        _check(out, f"q={q} method of images", True,
               "skipped: lift verification covers q in {3, 5}", finding_only=True)
        return out
    rep = method_of_images_check(ctx, r_s, [0.1, 1.0, 5.0], graph=graph)
    _check(out, f"q={q} r_s={r_s} lifted Laplacian intertwines", rep.intertwining_exact,
           f"measured scaling {rep.measured_scaling:.1f} (expected {rep.stabilizer_order})")
    _check(out, f"q={q} r_s={r_s} K-average = quotient kernel", rep.max_deviation <= 1e-8,
           f"max dev {rep.max_deviation:.2e} over t in (0.1, 1, 5)")
    return out


def theta_checks(graph, match):
    """Theta checks on graph's radius, reusing the table and match of ``match``."""
    ctx, q = graph.ctx, graph.ctx.q
    out = []
    table = match.table
    t_grid = (0.0, 0.1, 1.0)
    reconciled = reconciled_kernel(ctx, table, t_grid, match)
    dev = float(np.abs(reconciled - heat_kernel_spectral(table, t_grid)).max())
    _check(out, f"q={q} reconciled theta = spectral kernel", dev <= 1e-12, f"{dev:.2e}")

    report = theta_consistency_report(ctx, graph.r_s, [0.1, 1.0], graph=graph, table=table,
                                      match=match)
    _check(out, f"q={q} theta report reconciled column", report.max_reconciled_deviation <= 1e-9,
           f"{report.max_reconciled_deviation:.2e}")
    _check(out, f"q={q} verbatim theta gap", report.max_verbatim_deviation <= 1e-9,
           f"max |verbatim - reconciled| = {report.max_verbatim_deviation:.3e} (measured finding)",
           finding_only=True)

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
    """Run every applicable check for each q; returns the flat result list."""
    results = []
    for q in q_list:
        ctx = field_context(q)
        results += field_checks(ctx)
        results += character_checks(ctx)
        regular = radii_order(ctx)[2:]
        # one graph per (q, r_s); the first radius's graph and match serve the later groups
        first = build_graph(ctx, regular[0])
        for r_s in regular:
            graph = first if r_s == regular[0] else build_graph(ctx, r_s)
            results += graph_checks(graph)
            results += spherical_checks(graph)
        match = match_formulas_to_oracle(ctx, first.r_s)
        results += formula_match_checks(match)
        results += heat_checks(first)
        results += theta_checks(first, match)
        if include_lift:
            results += lift_checks(first)
    return results
