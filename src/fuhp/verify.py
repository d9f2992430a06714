"""Invariant battery behind the `verify` command.

Each check returns a CheckResult; diagnostics that are reported rather than
enforced (the Ramanujan bound, eigenvalue collisions, the verbatim theta gap)
carry finding_only=True and never fail a run.
"""

import math
from typing import NamedTuple

import numpy as np

from .characters import character_orthogonality_check
from .field import field_context
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
from .spherical import closed_forms, spherical_rows, spherical_table
from .theta import _report, classical_theta
from .uhp import UhpGraph, degenerate_radii, radii_order, scheme

HEAT_T_GRID = (0.0, 0.01, 0.1, 1.0, 10.0)
# An affine eigenvalue comes from one symmetric eigh, backward stable to a few u of the matrix norm q+1; a
# spherical one is (q+1)*omega_i(r_s), within 3.3u(q+1): its entry's 2.3u (spherical.CERTIFICATE_AGREEMENT)
# times q+1 and the product's rounding. Measured at most 5.4u(q+1) apart over every regular radius of every
# prime q <= 211 (q=17, r_s=11; 4.1u(q+1) at r_s = 1), at one and at two BLAS threads, not growing with q,
# so c = 16 leaves a factor 3
SPECTRUM_AGREEMENT = 16
# c in |Im v| <= c*u over the closed-form values v that the rows take (``formula_match_checks``), each a real
# character sum formed as ``spherical.closed_forms`` forms it: sum_k w_k Im(e^(i theta_k)) / (q+1), with real
# weights w_k (a sphere's dlog histogram, or the cuspidal signs) whose |w_k| add to at most q+1, so an error
# of e*u in every term moves it by at most e*u. A phase rounds its angle 2*pi*a/m < 2*pi three times (up to
# 19u) and its sine once, and the product w_k*sin rounds once: e = 21. The q-term sum, whose partial sums
# stay within q+1, rounds by (q-1)u(q+1) at worst and about sqrt(q)*u*(q+1) with independent signs, which
# the division leaves at sqrt(q)*u, at most 16u for q <= 256. c = 40 covers the sum of the two, 37u.
# Measured at most 5.1u over every prime q <= 211 (q=89), not growing with q
REAL_VALUE_AGREEMENT = 40
LIFT_MAX_Q = 13  # |G| = q(q-1)^2(q+1) = 26,208 group elements at q=13
# c in |K-average of the lifted kernel - quotient kernel| <= c*u*n, n = q(q-1), for q <= LIFT_MAX_Q. Both
# estimate the same exact E <= n, and both walks take the same Poisson weights (same rates (q+1)t), whose
# rounding is common to the two. The quotient walk (heat_kernel_oracle) carries its share of
# heat.ORACLE_AGREEMENT: its dropped tail (1), steps (86), Poisson sum (11), stop (4) and scaling (1), 103u*n.
# The lifted walk carries, in its coset means n * (sum of |K| = q^2-1 entries): its dropped tail, 1u*n; its
# stop, 4q(q+1)u*T/|G| per entry and so 4q(q+1)u*T per mean (|K|*n = |G|), T <= 1, at most 8u*n for q >= 3;
# the rounding of its steps, each entry >= 0 formed from q(q+1) terms (|K| per coset sum, then q+1 coset sums)
# and one division, so at most q(q+1)u relative per step, which the later steps (>= 0, unit row sums) carry
# unchanged: k*q(q+1)u*n with k* <= 82 (every regular radius of every prime q <= 13, at q=5), at most
# 14,924u*n; the Poisson-weighted sum of its k*+1 terms, 83u*n; and the mean's q^2-2 additions and one
# scaling, at most 168u*n. c = 16,000 covers the total, 15,287u*n: 2.8e-10 at q=13, where the bare bound was
# 1e-8. Measured at most 29.9u*n over every regular radius of every prime q <= 13 at t in {0.1, 1, 5} (q=13,
# r_s=6; 25.6u*n at q=11, r_s=9), and 6.2u*n at r_s=1, the radius verify checks.
LIFT_AGREEMENT = 16_000
# the detail of a verbatim audit with no radius outside {0, 1, 4*delta}, which happens at q=3 only
NO_AUDITED_RADIUS = "skipped: no radius outside {0, 1, 4*delta} to audit at this q"


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
    # the multiplicative order of 1, ..., g by brute force: g must have order q-1, and no smaller one
    orders = [next(m for m in range(1, q) if pow(c, m, q) == 1) for c in range(1, ctx.g + 1)]
    _check(out, f"q={q} generator order", orders[-1] == q - 1, f"order(g)={orders[-1]}")
    _check(out, f"q={q} generator minimal", q - 1 not in orders[:-1], f"g={ctx.g}")
    # the base logs are a permutation of 0..q-2; dlog2 inverts the power table and is -1 only at 0,
    # so the q^2-1 powers of zeta are distinct and nonzero: the extension logs are a permutation too.
    # (A numpy sort would page in about 200 KB more sorting code per process.)
    n2 = q * q - 1
    total = (sorted(ctx.dlog[1:].tolist()) == list(range(q - 1)) and ctx.dlog2[0] == -1
             and np.array_equal(ctx.dlog2[ctx.power_a * q + ctx.power_b], np.arange(n2)))
    _check(out, f"q={q} dlog tables total", total,
           f"{np.count_nonzero(ctx.dlog[1:] >= 0)}/{q-1} base, {np.count_nonzero(ctx.dlog2[1:] >= 0)}/{n2} extension")
    # chi, the dlog parity that closed_forms and theta read, against Euler's criterion a^((q-1)/2)
    euler = [0] + [1 if pow(a, (q - 1) // 2, q) == 1 else -1 for a in range(1, q)]
    _check(out, f"q={q} sign character = dlog parity", ctx.chi.tolist() == euler, "exhaustive")
    # N(zeta^m) = 1 exactly at the multiples m of q-1, the indices closed_forms reads U at
    norms = (ctx.power_a * ctx.power_a - ctx.delta * ctx.power_b * ctx.power_b) % q
    u_idx = np.flatnonzero(norms == 1)
    _check(out, f"q={q} |U| = q+1", np.array_equal(u_idx, np.arange(0, n2, q - 1)), f"|U|={u_idx.size}")

    # The dlog table is total, so every nonzero z is zeta^m for one m, and
    # zeta^m * zeta^k = zeta^(m+k). N(zw) = N(z)N(w) on all nonzero pairs thus
    # says that m -> N(zeta^m) is a homomorphism of the cyclic group, which holds
    # exactly when N(zeta^m) = N(zeta)^m for every m, that is when
    # dlog N(zeta^m) = m dlog N(zeta) mod q-1 (a zero norm has dlog -1 and fails);
    # pairs with a zero need N(0) = 0, which the formula gives.
    norm_ok = np.array_equal(ctx.dlog[norms], np.arange(n2) * ctx.dlog[norms[1]] % (q - 1))
    _check(out, f"q={q} norm multiplicative", norm_ok, f"N(zeta^m) = N(zeta)^m for all {n2} m, N(0) = 0")
    return out


def character_checks(ctx):
    q = ctx.q
    out = []
    rep = character_orthogonality_check(ctx)
    # the character sums' error model (heat.ORTHOGONALITY_AGREEMENT); at most 8.49u*(q+1) at primes q <= 101
    _check(out, f"q={q} character orthogonality",
           rep.max_residual <= ORTHOGONALITY_AGREEMENT * UNIT_ROUNDOFF * (q + 1),
           f"max residual {rep.max_residual:.2e}")
    # beta_j(a) is base[j, dlog(a)] = e^(2 pi i (j dlog(a) mod q-1)/(q-1)), so beta_j(ab) =
    # beta_j(a) beta_j(b) for all j, a, b exactly when dlog(ab) = dlog(a) + dlog(b) mod q-1: in integers
    units = np.arange(1, q)
    dlog_a = ctx.dlog[units]
    mult_ok = np.array_equal(ctx.dlog[units[:, None] * units % q], (dlog_a[:, None] + dlog_a) % (q - 1))
    _check(out, f"q={q} beta multiplicative", mult_ok, "exhaustive")
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
    sizes = dict(enumerate(scheme(ctx).sizes.tolist()))
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
    # the rows' sums' error model (heat.TABLE_SUM_AGREEMENT); at most 1.41u*n and 0.51u*n at primes q <= 211
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

    ``affine_spectrum`` proves S_{r_s} a sound connection set, so "graph
    built", the Aff(F_q) decomposition and the affine kernel read one
    certificate. A refused S_{r_s} fails "graph built", with
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

    table = spherical_table(ctx, r_s)
    w = table.adjacency_eigenvalues
    # the constant row's (q+1)*omega_0(r_s) is (q+1)*1.0, exact: omega_0 sums q+1 ones and divides by q+1.
    # Every other a_i = (q+1)*omega_i(r_s) is within 3.3u(q+1) of exact (see SPECTRUM_AGREEMENT), and the
    # rounded 2*sqrt(q) and its sum with the slack within 2u(q+1): an eigenvalue at most 2*sqrt(q) in exact
    # arithmetic passes with the slack of the eigenvalue error model, 16u(q+1), a factor 3 to spare
    nontrivial = w[np.abs(w) != q + 1]
    bound = 2 * math.sqrt(q) + SPECTRUM_AGREEMENT * UNIT_ROUNDOFF * (q + 1)
    worst = float(np.abs(nontrivial).max()) if nontrivial.size else 0.0
    _check(out, f"q={q} r_s={r_s} Ramanujan bound", worst <= bound,
           f"max |eig| {worst:.6f} vs 2*sqrt(q) {2 * math.sqrt(q):.6f}", finding_only=True)
    distinct = len(table.spectrum())
    _check(out, f"q={q} r_s={r_s} adjacency eigenvalues distinct", distinct == q,
           f"{distinct} distinct for {q} rows (collisions are reported, not fatal)",
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


def formula_match_checks(ctx):
    """The closed forms behind the certified rows: real values, and the gap of the as-stated cuspidal constant."""
    q, half = ctx.q, (ctx.q - 1) // 2
    forms = closed_forms(ctx)
    out = []
    # the values of the classes of ``spherical.character_classes``, NaN + 0j at 4*delta
    imag = max(float(np.abs(v.imag).max()) for v in (forms.principal[:, : half + 1],
                                                     forms.cuspidal["reconciled"][:, 1 : half + 1]))
    _check(out, f"q={q} formula values real", imag <= REAL_VALUE_AGREEMENT * UNIT_ROUNDOFF, f"max imag {imag:.1e}")
    if q == 3:  # 0, 1 and 4*delta are all of F_3, and both constants give 1 at r=0: nothing ran
        _check(out, "q=3 as-stated cuspidal constant gap", False, NO_AUDITED_RADIUS, finding_only=True)
        return out
    # the as-stated constant against the cuspidal rows, NaN at its pole r=1 and at 4*delta
    verbatim = forms.cuspidal["verbatim"][:, 1 : half + 1].T
    verb = float(np.nanmax(np.abs(spherical_rows(ctx).omega[half + 1 :] - verbatim)))
    # the stated 2(1+r)/(1-r) is 2 - r/delta in F_q exactly when r(r - 1 - 4 delta) = 0: at r = 4 delta + 1
    agree = (4 * ctx.delta + 1) % q
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
    # most 2.4u*n and 18u here at primes q <= 211
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
    _check(out, f"q={q} r_s={r_s} K-average = quotient kernel",
           rep.max_deviation <= LIFT_AGREEMENT * UNIT_ROUNDOFF * q * (q - 1),
           f"max dev {rep.max_deviation:.2e} over t in (0.1, 1, 5)")
    return out


def theta_checks(ctx, r_s):
    """Finite theta checks at the radius r_s: the verbatim sum against the spectral kernel, no oracle."""
    q = ctx.q
    out = []
    report = _report(ctx, r_s, [0.1, 1.0], "both", None)
    if not report.radii:  # nothing ran: a finding, not a pass
        _check(out, f"q={q} verbatim theta gap", False, NO_AUDITED_RADIUS, finding_only=True)
        return out
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
    theta = classical_theta(z0, t0).value
    dt = (classical_theta(z0, t0 + h).value - classical_theta(z0, t0 - h).value) / (2 * h)
    dzz = (classical_theta(z0 + h, t0).value - 2 * theta + classical_theta(z0 - h, t0).value) / (h * h)
    rel = abs(dt - dzz / (4 * math.pi)) / abs(dt)
    # theta_t = theta_zz/(4 pi), and the two central differences miss it by their truncation, h^2/6 theta_ttt
    # and h^2/12 theta_zzzz/(4 pi) at points of the stencil. Each is bounded termwise, pairing n with -n, by
    # its series at the stencil's least t with |cos(2 pi n z)| <= |cos(2 pi n z0)| + 2 pi n h: 0.84 and 41.9,
    # 5.0e-8 relative. Each theta value errs by at most 5u relative: the exp and cos of its n = +-1 terms, up
    # to 19u at a weight 2e^(-pi) = 0.086, three additions that round (the later terms are below u), and the
    # rounding of z0 +- h, 0.1u. The stencil weights 1+1 and 1+2+1 carry that to dt and dzz/(4 pi):
    # 5u|theta| (1/h + 1/(pi h^2)) over |theta_t|, 2.2e-7 relative. Measured 4.8e-8, nearly all of it
    # truncation (h^2 pi^2/2 from the n = +-1 terms), and each theta value within 1.5u; the bare bound was 1e-6
    n = np.arange(1, 26)
    swing = np.minimum(1, np.abs(np.cos(2 * math.pi * n * z0)) + 2 * math.pi * n * h)
    terms = 2 * np.exp(-math.pi * n * n * (t0 - h)) * swing
    theta_ttt, theta_zzzz = np.sum((math.pi * n * n) ** 3 * terms), np.sum((2 * math.pi * n) ** 4 * terms)
    truncation = h * h * (theta_ttt / 6 + theta_zzzz / (48 * math.pi))
    rounding = 5 * UNIT_ROUNDOFF * abs(theta) * (1 / h + 1 / (math.pi * h * h))
    bound = (truncation + rounding) / abs(dt)
    _check(out, "classical theta heat identity", rel <= bound, f"relative error {rel:.1e}")
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
        results += formula_match_checks(ctx)
        if graph is None:
            continue
        results += heat_checks(graph)
        results += theta_checks(ctx, graph.r_s)
        if include_lift:
            results += lift_checks(graph)
    return results + classical_theta_checks()
