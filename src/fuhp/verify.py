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
    MASS_AGREEMENT,
    ORACLE_AGREEMENT,
    ORTHOGONALITY_AGREEMENT,
    POSITIVITY_MARGIN,
    TABLE_SUM_AGREEMENT,
    UNIT_ROUNDOFF,
    affine_spectrum,
    heat_kernel_affine,
    heat_kernel_oracle,
    heat_kernel_spectral,
    initial_condition_check,
    method_of_images_check,
    stabiliser_orbits,
)
from .spherical import match_formulas_to_oracle, spherical_rows, spherical_table
from .theta import _report, classical_theta
from .uhp import (
    UhpGraph,
    degenerate_radii,
    orbit_sizes,
    radii_order,
    scheme,
    translate,
)

HEAT_T_GRID = (0.0, 0.01, 0.1, 1.0, 10.0)
# An affine eigenvalue comes from one symmetric eigh, backward stable to a few u of the matrix norm q+1; a
# spherical one is (q+1)*omega_i(r_s), within (q+1) times its entry's error (spherical.CERTIFICATE_AGREEMENT):
# about 2u, but at r_s = 1 a cuspidal omega(1)'s, which grows as sqrt(q)*u. Measured at most 14.1u(q+1)
# apart over every regular radius of every prime q <= 211 (q=191, r_s=1), and at most 1.02*sqrt(q)*u(q+1)
# at r_s = 1, so c = 32 holds to q of about 900
SPECTRUM_AGREEMENT = 32
# c in |Im v| <= c*u over the closed-form values v that the rows take (``MatchReport.max_imag``), each a real
# character sum formed as ``spherical.closed_forms`` forms it: sum_k w_k Im(e^(i theta_k)) / (q+1), with real
# weights w_k (a sphere's dlog histogram, or the cuspidal signs) whose |w_k| add to at most q+1, so an error
# of e*u in every term moves it by at most e*u. A phase rounds its angle 2*pi*a/m < 2*pi three times (up to
# 19u) and its sine once, and the product w_k*sin rounds once: e = 21. The q-term sum, whose partial sums
# stay within q+1, rounds by (q-1)u(q+1) at worst and about sqrt(q)*u*(q+1) with independent signs, which
# the division leaves at sqrt(q)*u, at most 16u for q <= 256. c = 40 covers the sum of the two, 37u.
# Measured at most 5.1u over every prime q <= 211 (q=89), not growing with q
REAL_VALUE_AGREEMENT = 40
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
    # the character sums' error model (heat.ORTHOGONALITY_AGREEMENT); at most 8.49u*(q+1) at primes q <= 101
    _check(out, f"q={q} character orthogonality",
           rep.max_residual <= ORTHOGONALITY_AGREEMENT * UNIT_ROUNDOFF * (q + 1),
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
    """Facts of (q, delta) alone, checked once per q: orbit sizes (with ``orbits``) and the spherical table.

    The table is read only once ``spherical_rows`` has certified it: rows that
    are no common eigenvectors of the integer B_r fail "spherical rows
    certified", with the certificate's message as the detail, and end the list.
    """
    q = ctx.q
    n = q * (q - 1)
    out = []
    sizes = orbit_sizes(ctx)
    deg0, deg1 = degenerate_radii(ctx)
    expected = {r: (1 if r in (deg0, deg1) else q + 1) for r in range(q)}
    _check(out, f"q={q} orbit sizes", sizes == expected and orbits, f"{sizes}")
    try:
        rows = spherical_rows(ctx)
    except AssertionError as exc:
        return out + [CheckResult(f"q={q} spherical rows certified", False, str(exc))]
    _check(out, f"q={q} spherical rows certified", True, f"max residual {rows.residuals.max():.2e}")
    _check(out, f"q={q} omega(0) = 1", np.all(rows.omega[:, 0] == 1.0),
           f"max dev {np.abs(rows.omega[:, 0] - 1).max():.1e}")
    _check(out, f"q={q} sum d_i = q(q-1)", int(rows.degrees.sum()) == n, f"{int(rows.degrees.sum())}")
    # the rows' sums' error model (heat.TABLE_SUM_AGREEMENT); at most 1.41u*n and 0.58u*n at primes q <= 211
    bound = TABLE_SUM_AGREEMENT * UNIT_ROUNDOFF * n
    gram = (rows.omega * scheme(ctx).sizes) @ rows.omega.T
    orth_dev = float(np.abs(gram - np.diag(n / rows.degrees)).max())
    _check(out, f"q={q} weighted orthogonality", orth_dev <= bound, f"{orth_dev:.2e}")
    delta_dev = float(np.abs(rows.degrees @ rows.omega - np.where(np.arange(q) == 0, n, 0.0)).max())
    _check(out, f"q={q} delta reconstruction", delta_dev <= bound, f"{delta_dev:.2e}")
    return out


def _sorted(values):
    """``values`` in ascending order, by the stable argsort the spherical table already pages in.

    np.sort's default float kernel would page in about 250 KB more per process.
    """
    return values[np.argsort(values, kind="stable")]


def radius_checks(ctx, r_s):
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

    if q <= 7:
        # the pseudo-distance N(z - w) / (y_z y_w) of every pair, from coordinates, against the
        # neighbours z.s of every vertex z through the certified generators s
        x, y = scheme(ctx).x, scheme(ctx).y
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
    q = report.table.q
    out = []
    _check(out, f"q={q} formula values real", report.max_imag <= REAL_VALUE_AGREEMENT * UNIT_ROUNDOFF,
           f"max imag {report.max_imag:.1e}")
    # the stated 2(1+r)/(1-r) is 2 - r/delta in F_q exactly when r(r - 1 - 4 delta) = 0: at r = 4 delta + 1
    verb = max((m.verbatim_deviation for m in report.cuspidal), default=0.0)
    agree = (4 * report.table.delta + 1) % q
    _check(out, f"q={q} as-stated cuspidal constant gap", verb <= 1e-9, f"max deviation {verb:.3f} (measured "
           f"finding); the constants agree exactly at {f'r={agree}' if agree else 'no audited radius'}",
           finding_only=True)
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
    # the walk's error model with the spectral kernel's (heat.ORACLE_AGREEMENT, heat.MASS_AGREEMENT); at
    # most 2.8u*n and 18u here at primes q <= 211
    _check(out, f"q={q} r_s={r_s} spectral = oracle", dev <= ORACLE_AGREEMENT * UNIT_ROUNDOFF * n,
           f"max dev {dev:.2e}")
    _check(out, f"q={q} r_s={r_s} mass conservation", mass_dev <= MASS_AGREEMENT * UNIT_ROUNDOFF,
           f"{mass_dev:.2e}")
    # the spectral kernel's error model (heat.POSITIVITY_MARGIN); at most 0.54u*n here at primes q <= 211
    _check(out, f"q={q} r_s={r_s} positivity", min_val >= -POSITIVITY_MARGIN * UNIT_ROUNDOFF * n,
           f"min value {min_val:.2e}")

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
    if q > LIFT_MAX_Q:  # nothing ran: a finding, not a pass
        _check(out, f"q={q} method of images", False,
               f"skipped: lift verification covers q <= {LIFT_MAX_Q}", finding_only=True)
        return out
    try:
        rep = method_of_images_check(ctx, r_s, [0.1, 1.0, 5.0], graph=graph)
    except AssertionError as exc:  # the lift is not a Cayley graph of G over the lifted sphere
        return [CheckResult(f"q={q} r_s={r_s} lifted Laplacian intertwines", False, str(exc))]
    _check(out, f"q={q} r_s={r_s} lifted Laplacian intertwines", rep.intertwining_exact,
           f"measured scaling {rep.measured_scaling:.1f} (expected {rep.stabilizer_order})")
    _check(out, f"q={q} r_s={r_s} K-average = quotient kernel", rep.max_deviation <= 1e-8,
           f"max dev {rep.max_deviation:.2e} over t in (0.1, 1, 5)")
    return out


def theta_checks(ctx, r_s):
    """Finite theta checks at the radius r_s: the verbatim sum against the spectral kernel, no oracle."""
    q = ctx.q
    out = []
    report = _report(ctx, r_s, [0.1, 1.0], "both", None)
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
        table = table_checks(ctx, stabiliser_orbits(ctx))
        results += table
        if not table[1].passed:  # "spherical rows certified": every later check of q reads the rows
            continue
        # each radius is checked through its certified connection set. One vertex graph per q serves the
        # walk of the heat and lift checks, and the theta checks read its radius: it is formed at the
        # first radius that passes, while the affine spectrum caches that proof
        graph = None
        for r_s in radii_order(ctx)[2:]:
            checks = radius_checks(ctx, r_s)
            results += checks
            if checks[0].passed and graph is None:
                graph = UhpGraph(ctx, r_s, affine_spectrum(ctx, r_s).generators)
        if graph is None:
            continue
        results += formula_match_checks(match_formulas_to_oracle(ctx, graph.r_s))
        results += heat_checks(graph)
        results += theta_checks(ctx, graph.r_s)
        if include_lift:
            results += lift_checks(graph)
    return results + classical_theta_checks()
