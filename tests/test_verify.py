"""The verify battery beyond the q the CLI tests cover."""

import re
from collections import Counter

import numpy as np
import pytest

import fuhp
import fuhp.characters
import fuhp.heat
import fuhp.spherical
import fuhp.theta
import fuhp.uhp
import fuhp.verify
from fuhp.cli import DEFAULT_MAX_Q, main
from fuhp.field import field_context
from fuhp.heat import (
    AFFINE_AGREEMENT,
    MASS_AGREEMENT,
    ORACLE_AGREEMENT,
    ORTHOGONALITY_AGREEMENT,
    POSITIVITY_MARGIN,
    TABLE_SUM_AGREEMENT,
    UNIT_ROUNDOFF,
    initial_condition_check,
    stabiliser_orbits,
)
from fuhp.spherical import match_formulas_to_oracle
from fuhp.theta import theta_consistency_report
from fuhp.uhp import build_graph, cayley_certificate, radii_order, scheme, vertex_index
from fuhp.verify import (
    LIFT_MAX_Q,
    REAL_VALUE_AGREEMENT,
    character_checks,
    field_checks,
    formula_match_checks,
    heat_checks,
    heat_test_functions,
    radius_checks,
    run_battery,
    table_checks,
    theta_checks,
)

PRIMES_TO_THE_CAP = [
    q for q in range(3, DEFAULT_MAX_Q + 1, 2) if all(q % p for p in range(3, int(q**0.5) + 1, 2))
]


def test_battery_q19_has_no_failures():
    # the dense spectral table missed the fixed 1e-12 positivity bound here
    fatal = [r for r in run_battery([19]) if r.fatal]
    assert not fatal, [f"{r.name}: {r.detail}" for r in fatal]


def test_battery_builds_one_graph_per_q_and_one_match(monkeypatch):
    calls = []

    def counted(module, name):
        func = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[1]))  # the radius
            return func(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(fuhp.verify, "UhpGraph")
    counted(fuhp.verify, "match_formulas_to_oracle")
    fuhp.spherical.spherical_rows.cache_clear()
    assert not any(r.fatal for r in run_battery([7]))
    # the walk's graph, at the first regular radius, on the generators the certificate proved there
    assert [r_s for name, r_s in calls if name == "UhpGraph"] == [1]
    assert not hasattr(fuhp.verify, "build_graph")
    assert not {"build_graph", "UhpGraph"} & set(vars(fuhp.theta))  # the theta report needs no graph
    assert [name for name, _ in calls].count("match_formulas_to_oracle") == 1
    # every table, the match and the theta report read the same certified rows: they are computed once
    assert fuhp.spherical.spherical_rows.cache_info().misses == 1


def test_the_theta_check_reads_the_report_gap_without_the_affine_oracle(monkeypatch):
    # the check reads only the verbatim sums against the spectral kernel: no affine oracle is built
    ctx = field_context(13)
    gap = theta_consistency_report(ctx, 2, [0.1, 1.0]).max_verbatim_deviation
    monkeypatch.setattr(fuhp.theta, "heat_kernel_affine", lambda *args: pytest.fail("affine oracle built"))
    (check,) = theta_checks(ctx, 2)
    assert (check.name, check.passed, check.finding_only) == ("q=13 verbatim theta gap", False, True)
    assert check.detail == f"max |verbatim - reconciled| = {gap:.3e} (measured finding)"


def test_battery_names_every_check_once():
    # the q-free classical theta checks run once, after the last q
    names = [r.name for r in run_battery([3, 5, 7], include_lift=True)]
    assert len(names) == len(set(names)), sorted({name for name in names if names.count(name) > 1})
    assert names[-3:] == ["classical theta at the origin", "classical theta periodicity",
                          "classical theta heat identity"]


def _kind(name):
    """A check name without its "q=… " and "r_s=… " prefix."""
    return re.sub(r"^q=\d+ (r_s=\d+ )?", "", name)


def test_battery_runs_the_same_check_kinds_at_every_q():
    # no check is added or dropped by q: the small-q all-pairs comparisons are tier-1 tests
    # (tests/test_uhp.py), and q=3's audits without a radius report "skipped" under their own names
    kinds = {q: {_kind(r.name) for r in run_battery([q])} for q in (3, 5, 7, 11, 13, 17)}
    for q, found in kinds.items():
        assert found == kinds[17], (q, sorted(found ^ kinds[17]))


def test_every_per_q_cache_holds_one_q_after_a_battery():
    caches = [fuhp.uhp.scheme, fuhp.characters.character_tables, fuhp.spherical.intersection_matrices,
              fuhp.spherical.spherical_rows, fuhp.spherical.closed_forms, fuhp.theta._theta_tables,
              fuhp.heat.affine_spectrum]
    assert not any(r.fatal for r in run_battery([5, 7]))
    assert {cache.__name__: cache.cache_info().currsize for cache in caches} == {
        cache.__name__: 1 for cache in caches}


TABLE_LABELS = ("orbit sizes", "spherical rows certified", "omega(0) = 1", "sum d_i = q(q-1)",
                "weighted orthogonality", "delta reconstruction")


def test_battery_runs_the_q_only_checks_once():
    names = [r.name for r in run_battery([7])]
    for label in TABLE_LABELS:
        assert names.count(f"q=7 {label}") == 1, label
        assert not [name for name in names if name.endswith(f" {label}") and " r_s=" in name], label
    # folded away: sphere sizes read the orbit sizes' labels, row multisets are the graph built detail
    assert not [name for name in names if name.endswith(("sphere sizes", "row multisets equal"))]
    assert names.index("q=7 delta reconstruction") < names.index("q=7 r_s=1 graph built")


def test_the_orbit_sizes_detail_lists_the_radii_in_radius_order():
    # at q=5 the first vertex of radius 4 comes before those of radii 2 and 3
    (sizes, *_) = table_checks(field_context(5), True)
    assert (sizes.name, sizes.passed, sizes.detail) == ("q=5 orbit sizes", True, "{0: 1, 1: 6, 2: 6, 3: 1, 4: 6}")


def _count_certificates(monkeypatch, calls):
    """Record the radius of every cayley_certificate call, through each module that binds the name."""
    real = fuhp.uhp.cayley_certificate
    for module in (fuhp.uhp, fuhp.heat, fuhp.spherical, fuhp.theta, fuhp.verify):
        if getattr(module, "cayley_certificate", None) is real:
            monkeypatch.setattr(module, "cayley_certificate",
                                lambda ctx, r_s: calls.append(r_s) or real(ctx, r_s))


def test_the_per_radius_phase_proves_each_connection_set_once(monkeypatch, affine_cache):
    ctx = field_context(7)
    calls = []
    _count_certificates(monkeypatch, calls)
    real_match = fuhp.verify.match_formulas_to_oracle
    # the first call after the radius loop marks the end of the per-radius phase
    monkeypatch.setattr(fuhp.verify, "match_formulas_to_oracle",
                        lambda *args: calls.append("end") or real_match(*args))
    assert not any(r.fatal for r in run_battery([7]))
    assert not hasattr(fuhp.verify, "cayley_certificate")
    assert calls[: calls.index("end")] == radii_order(ctx)[2:]


def test_a_run_proves_each_connection_set_once(monkeypatch, affine_cache):
    # the theta report's affine oracle at the first regular radius missed the one-entry cache after the
    # radius loop and proved that set again: 20 calls here
    calls = []
    _count_certificates(monkeypatch, calls)
    assert not any(r.fatal for r in run_battery([5, 17]))
    assert calls == radii_order(field_context(5))[2:] + radii_order(field_context(17))[2:]
    assert len(calls) == 18


def test_the_distance_classes_are_stabiliser_orbits_up_to_the_cap():
    assert all(stabiliser_orbits(field_context(q)) for q in PRIMES_TO_THE_CAP)


def test_two_swapped_labels_fail_the_orbit_proof(monkeypatch, affine_cache):
    # the last vertices of two regular classes trade labels: every class keeps its size and its first
    # vertex, but no longer is an orbit of K, and the two spheres that traded a point are no longer
    # closed under inversion
    ctx = field_context(7)
    real = scheme(ctx)
    labels = real.labels.copy()
    last = [np.flatnonzero(labels == r)[-1] for r in (2, 3)]
    labels[last] = labels[last[::-1]]
    swapped = real._replace(labels=labels)
    for module in (fuhp.uhp, fuhp.heat, fuhp.verify):
        monkeypatch.setattr(module, "scheme", lambda c: swapped)
    assert not stabiliser_orbits(ctx)
    results = {r.name: r for r in run_battery([7])}
    assert results["q=7 orbit sizes"].fatal
    assert results["q=7 orbit sizes"].detail == "{0: 1, 1: 8, 2: 8, 3: 8, 4: 8, 5: 1, 6: 8}"  # sizes kept
    assert {name for name, r in results.items() if r.fatal} == {
        "q=7 orbit sizes", "q=7 r_s=2 graph built", "q=7 r_s=3 graph built"}


def test_the_table_checks_catch_a_wrong_degree(monkeypatch, capsys):
    # one multiplicity one too large: only the per-q table checks read the degrees' sum directly
    real = fuhp.spherical.spherical_rows

    def bumped(ctx):
        rows = real(ctx)
        degrees = rows.degrees.copy()
        degrees[-1] += 1
        return rows._replace(degrees=degrees)

    for module in (fuhp.spherical, fuhp.verify):  # the tables and the table checks
        monkeypatch.setattr(module, "spherical_rows", bumped)
    failed = [r.name for r in run_battery([7]) if r.fatal]
    for label in ("sum d_i = q(q-1)", "weighted orthogonality", "delta reconstruction"):
        assert failed.count(f"q=7 {label}") == 1, label
    assert "q=7 omega(0) = 1" not in failed
    assert main(["verify", "--q", "7"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] q=7 sum d_i = q(q-1): 43\n" in out


def test_field_checks_and_beta_multiplicative_at_the_cap():
    # exhaustive at q=101: the pairwise norm loop alone took minutes here
    ctx = field_context(101)
    results = field_checks(ctx)
    assert all(r.passed for r in results), [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert "all 10200 m" in next(r.detail for r in results if r.name == "q=101 norm multiplicative")
    (mult,) = [r for r in character_checks(ctx) if r.name == "q=101 beta multiplicative"]
    assert mult.passed


def test_a_primitive_root_that_is_not_the_smallest_fails_generator_minimal():
    # 5 generates F_7^x, but 3 does too and is smaller; each order is found by brute force
    checks = {r.name: r for r in field_checks(field_context(7)._replace(g=5))}
    assert checks["q=7 generator order"].passed and checks["q=7 generator order"].detail == "order(g)=6"
    assert not checks["q=7 generator minimal"].passed and not checks["q=7 generator minimal"].finding_only
    checks = {r.name: r for r in field_checks(field_context(7)._replace(g=2))}  # order 3: not a generator
    assert not checks["q=7 generator order"].passed and checks["q=7 generator minimal"].passed


@pytest.mark.parametrize("name", ["sign character = dlog parity", "beta multiplicative", "|U| = q+1"])
def test_the_field_and_character_checks_read_the_arrays_the_computation_reads(name):
    # one corrupted array each: every check reads the array that closed_forms and theta read
    ctx = field_context(7)
    chi, dlog, power_a, power_b = ctx.chi.copy(), ctx.dlog.copy(), ctx.power_a.copy(), ctx.power_b.copy()
    chi[3] = -chi[3]
    dlog[[2, 3]] = dlog[[3, 2]]  # still a permutation of 0..q-2
    power_a[6], power_b[6] = 2 * power_a[6] % 7, 2 * power_b[6] % 7  # zeta^(q-1), which generates U: norm 4
    corrupted = {"sign character = dlog parity": ctx._replace(chi=chi),
                 "beta multiplicative": ctx._replace(dlog=dlog),
                 "|U| = q+1": ctx._replace(power_a=power_a, power_b=power_b)}[name]
    checks = {r.name: r.passed for r in field_checks(corrupted) + character_checks(corrupted)}
    assert checks[f"q=7 {name}"] is False
    assert checks["q=7 dlog tables total"] is (name != "|U| = q+1")


def test_at_q3_no_radius_is_audited_and_both_verbatim_lines_are_findings_that_say_so():
    # 0, 1 and 4*delta are all of F_3: neither audit has a radius, so neither line may pass
    ctx = field_context(3)
    checks = formula_match_checks(match_formulas_to_oracle(ctx, 1)) + theta_checks(ctx, 1)
    assert [(r.name, r.passed, r.finding_only, r.detail) for r in checks if "gap" in r.name] == [
        (f"q=3 {name}", False, True, "skipped: no radius outside {0, 1, 4*delta} to audit at this q")
        for name in ("as-stated cuspidal constant gap", "verbatim theta gap")]


def test_norm_check_catches_a_non_multiplicative_norm(monkeypatch):
    # a^2 + delta*b^2 agrees with the norm on F_q but is not multiplicative on the extension
    ctx = field_context(7)
    seen = []

    def wrong_norm(c, z):
        seen.append(np.shape(z.a))
        return (z.a * z.a + c.delta * z.b * z.b) % c.q

    (norm,) = [r for r in field_checks(ctx) if r.name == "q=7 norm multiplicative"]
    assert norm.passed
    monkeypatch.setattr(fuhp.verify, "ext_norm", wrong_norm)
    (norm,) = [r for r in field_checks(ctx) if r.name == "q=7 norm multiplicative"]
    assert not norm.passed
    assert (48,) in seen  # the check reads the norm of the whole power table


def test_dlog_total_check_catches_corrupted_tables():
    ctx = field_context(3)
    dlog, dlog2, power_a = ctx.dlog.copy(), ctx.dlog2.copy(), ctx.power_a.copy()
    dlog[1] = dlog[2]  # two base elements with one log
    dlog2[[3, 6]] = dlog2[[6, 3]]  # the logs of 1 and 2 swapped
    power_a[5] = power_a[6]  # a repeated power
    for corrupted in (ctx, ctx._replace(dlog=dlog), ctx._replace(dlog2=dlog2), ctx._replace(power_a=power_a)):
        (total,) = [r for r in field_checks(corrupted) if r.name == "q=3 dlog tables total"]
        assert total.passed is (corrupted is ctx)


@pytest.mark.parametrize("q", [3, 7, 13])
def test_restriction_check_catches_two_swapped_base_field_logs(q):
    ctx = field_context(q)
    name = f"q={q} extension characters restrict through dlog"
    (check,) = [r for r in character_checks(ctx) if r.name == name]
    assert check.passed, check.detail
    for a, b in [(1, q - 1), (ctx.g, q - 1), (2, ctx.g)]:
        if a == b:
            continue
        dlog2 = ctx.dlog2.copy()
        dlog2[[a * q, b * q]] = dlog2[[b * q, a * q]]
        (check,) = [r for r in character_checks(ctx._replace(dlog2=dlog2)) if r.name == name]
        assert not check.passed, (a, b)


def test_radius_checks_memory_at_the_cap(run_child):
    # the neighbour-value array of a former eigenfunction check alone was n(q+1)q floats (832 MB) at q=101
    script = (
        "from fuhp.field import field_context; from fuhp.verify import radius_checks; "
        "ctx = field_context(101); results = radius_checks(ctx, 1); "
        "assert not any(r.fatal for r in results), [r for r in results if r.fatal]"
    )
    child = run_child(["-c", script])
    assert child.exit_code == 0
    # the 64 MB ceiling: the neighbour labels and the n x q counts are formed in vertex blocks
    assert child.peak_mb <= 64, f"peak RSS {child.peak_mb:.1f} MB"


@pytest.mark.slow
def test_verify_at_the_cap_fits_the_memory_ceiling(run_child):
    # 90.7 MB when beta multiplicative formed three (q-1)^3 complex cubes and the eigenfunction check
    # an n x (q+1) index array at once
    child = run_child(["-m", "fuhp.cli", "verify", "--q", "101"], capture=True)
    assert child.exit_code == 0, child.stdout[-2000:]
    assert child.peak_mb <= 64, f"peak RSS {child.peak_mb:.1f} MB (wall {child.wall:.2f} s)"


@pytest.mark.slow
def test_a_multi_q_verify_keeps_one_theta_table(run_child):
    # the verbatim theta's (q^2-1) x (q+1) complex phase table (16.6 MB at q=101) was cached for eight
    # (q, delta): 127 MB here, against 56 MB for --q 101 alone
    child = run_child(["-m", "fuhp.cli", "verify", "--q", "67,71,73,79,83,89,97,101"], capture=True)
    assert child.exit_code == 0, child.stdout[-2000:]
    assert child.peak_mb <= 100, f"peak RSS {child.peak_mb:.1f} MB (wall {child.wall:.2f} s)"


@pytest.mark.slow
@pytest.mark.parametrize("q", PRIMES_TO_THE_CAP)
def test_battery_has_no_failures_up_to_the_cap(q):
    fatal = [r for r in run_battery([q], include_lift=q <= LIFT_MAX_Q) if r.fatal]
    assert not fatal, [f"{r.name}: {r.detail}" for r in fatal]


@pytest.mark.parametrize("n", [6, 20, 10100])
def test_heat_test_functions_are_distinct_and_not_constant(n):
    # sqrt(2 + j) would repeat: sqrt(4) = 2 makes frac(k * 2) the zero vector
    f = heat_test_functions(n)
    assert f.shape == (5, n)
    assert np.all((f >= 0) & (f < 1))
    assert np.all(f.max(axis=1) > f.min(axis=1))
    assert len({row.tobytes() for row in f}) == 5


@pytest.mark.parametrize("label", ["adjacency = distance sphere"])
def test_a_corrupted_neighbour_row_fails_the_graph_level_checks(monkeypatch, affine_cache, label):
    # the neighbours z . s of verify's walk come from the proven generators the affine spectrum carries:
    # one of them replaced by a point of another distance class moves one neighbour of every vertex. No
    # "adjacency = distance sphere" runs (tests/test_uhp.py makes its all-pairs comparison at q <= 7), and
    # the walk at verify's radius r_s = 1 is then no longer constant on the distance classes
    ctx = field_context(7)
    gen = cayley_certificate(ctx, 1).copy()
    labels = scheme(ctx).labels
    gen[0] = np.flatnonzero(labels != 1)[-1]
    real = fuhp.verify.affine_spectrum
    corrupted = lambda c, r_s: real(c, r_s)._replace(generators=gen)
    for passes in (True, False):
        results = {r.name: r for r in run_battery([7])}
        assert not [name for name in results if name.endswith(label)]
        check = results["q=7 r_s=1 spectral = oracle"]
        assert check.passed is passes, check.detail
        monkeypatch.setattr(fuhp.verify, "affine_spectrum", corrupted)


def test_the_affine_oracle_check_is_bounded_by_its_error_model(monkeypatch, affine_cache):
    # |affine - spectral| <= AFFINE_AGREEMENT*u*n (heat.py): a kernel off by ten times that fails
    ctx, real = field_context(7), fuhp.verify.heat_kernel_affine
    for offset, passes in ((0.0, True), (10 * AFFINE_AGREEMENT * UNIT_ROUNDOFF * 7 * 6, False)):
        monkeypatch.setattr(fuhp.verify, "heat_kernel_affine", lambda *args: real(*args) + offset)
        checks = {r.name: r for r in radius_checks(ctx, 2)}
        assert checks["q=7 r_s=2 spectral = affine oracle"].fatal is not passes


@pytest.mark.parametrize("q", [7, 13])
def test_the_table_sums_are_bounded_by_their_error_model(monkeypatch, q):
    # omega_i(1) of the last row moved by x moves the reconstruction at r=1 by d_i*x and the Gram entry
    # of that row with the constant one by (q+1)*x: ten times TABLE_SUM_AGREEMENT*u*n over d_i = q-1
    # fails both checks, half of it over q+1 passes them
    ctx, real = field_context(q), fuhp.spherical.spherical_rows
    n = q * (q - 1)
    bound = TABLE_SUM_AGREEMENT * UNIT_ROUNDOFF * n
    for move, passes in ((0.5 * bound / (q + 1), True), (10 * bound / (q - 1), False)):
        omega = real(ctx).omega.copy()
        omega[-1, 1] += move
        monkeypatch.setattr(fuhp.verify, "spherical_rows", lambda c, rows=real(ctx)._replace(omega=omega): rows)
        checks = {r.name: r for r in table_checks(ctx, True)}
        for label in ("weighted orthogonality", "delta reconstruction"):
            assert checks[f"q={q} {label}"].fatal is not passes, (label, checks[f"q={q} {label}"].detail)


@pytest.mark.parametrize("q", [5, 13, 101])
def test_the_cuspidal_constant_finding_names_the_radius_where_the_constants_agree(q):
    # the stated 2(1+r)/(1-r) equals 2 - r/delta in F_q exactly when r(r - 1 - 4 delta) = 0, so on the
    # audited radii the two closed forms agree at r = 4 delta + 1 alone
    ctx = field_context(q)
    (check,) = [r for r in formula_match_checks(match_formulas_to_oracle(ctx, 1))
                if r.name == f"q={q} as-stated cuspidal constant gap"]
    agree = (4 * ctx.delta + 1) % q
    assert check.finding_only and not check.passed
    assert check.detail.endswith(f"the constants agree exactly at r={agree}")
    forms = fuhp.spherical.closed_forms(ctx)
    classes = list(range(1, (q + 1) // 2))
    gap = np.abs(forms.cuspidal["reconciled"][:, classes] - forms.cuspidal["verbatim"][:, classes]).max(axis=1)
    audited = [r for r in range(q) if r not in (0, 1, fuhp.uhp.degenerate_radii(ctx)[1])]
    assert [r for r in audited if gap[r] <= 1e-12] == [agree]


def test_the_positivity_check_is_bounded_by_its_error_model(monkeypatch):
    # heat_kernel_spectral >= -POSITIVITY_MARGIN*u*n (heat.py): a kernel pushed ten times past that
    # fails, one pushed half of it (its least value is -0.21u*n at q=7) passes
    ctx, real = field_context(7), fuhp.verify.heat_kernel_spectral
    graph = build_graph(ctx, 1)
    margin = POSITIVITY_MARGIN * UNIT_ROUNDOFF * 7 * 6
    for offset, passes in ((0.5 * margin, True), (10 * margin, False)):
        monkeypatch.setattr(fuhp.verify, "heat_kernel_spectral", lambda *args: real(*args) - offset)
        checks = {r.name: r for r in heat_checks(graph)}
        assert checks["q=7 r_s=1 positivity"].fatal is not passes


def test_the_oracle_check_is_bounded_by_its_error_model(monkeypatch):
    # |spectral - oracle| <= ORACLE_AGREEMENT*u*n (heat.py): a kernel off by ten times that fails, one off by
    # half of it (the two read 1.5u*n apart at q=7) passes; the former bare 1e-9 was 1,590 times the bound
    ctx, real = field_context(7), fuhp.verify.heat_kernel_spectral
    graph = build_graph(ctx, 1)
    bound = ORACLE_AGREEMENT * UNIT_ROUNDOFF * 7 * 6
    for offset, passes in ((0.5 * bound, True), (10 * bound, False)):
        monkeypatch.setattr(fuhp.verify, "heat_kernel_spectral", lambda *args: real(*args) + offset)
        checks = {r.name: r for r in heat_checks(graph)}
        assert checks["q=7 r_s=1 spectral = oracle"].fatal is not passes


def test_the_mass_conservation_check_is_bounded_by_its_error_model(monkeypatch):
    # |mean E - 1| <= MASS_AGREEMENT*u (heat.py): a walk whose mass is ten times that too large fails, one
    # half of it too large (its mass is within 2u of 1 at q=7) passes
    ctx, real = field_context(7), fuhp.verify.heat_kernel_oracle
    graph = build_graph(ctx, 1)
    bound = MASS_AGREEMENT * UNIT_ROUNDOFF
    for excess, passes in ((0.5 * bound, True), (10 * bound, False)):
        def heavier(*args, excess=excess):
            kernel = real(*args)
            return kernel._replace(by_vertex=kernel.by_vertex * (1 + excess))

        monkeypatch.setattr(fuhp.verify, "heat_kernel_oracle", heavier)
        checks = {r.name: r for r in heat_checks(graph)}
        assert checks["q=7 r_s=1 mass conservation"].fatal is not passes


def _scale_the_spectral_kernel(monkeypatch):
    real = fuhp.verify.heat_kernel_spectral
    monkeypatch.setattr(fuhp.verify, "heat_kernel_spectral", lambda *args: real(*args) * (1 + 1e-9))


def _swap_two_degrees(monkeypatch):
    real = fuhp.spherical.spherical_rows

    def swapped(ctx):  # 1 and q-1: their sum stays n
        rows = real(ctx)
        degrees = rows.degrees.copy()
        degrees[[0, -1]] = degrees[[-1, 0]]
        return rows._replace(degrees=degrees)

    for module in (fuhp.spherical, fuhp.verify):
        monkeypatch.setattr(module, "spherical_rows", swapped)


def _add_one_intersection_count(monkeypatch):
    real = fuhp.spherical.intersection_matrices

    def bumped(ctx):  # a diagonal count, so |S_r1| B_r[r1, r2] stays symmetric
        counts = real(ctx).copy()
        counts[2, 3, 3] += 1
        return counts

    monkeypatch.setattr(fuhp.spherical, "intersection_matrices", bumped)
    fuhp.spherical.spherical_rows.cache_clear()  # the refused rows are not cached: no clear after the run


@pytest.mark.parametrize("defect, failing", [
    (_scale_the_spectral_kernel, {"r_s=1 spectral = oracle", "r_s=1 spectral = affine oracle"}),
    (_swap_two_degrees, {"weighted orthogonality", "delta reconstruction"}),
    (_add_one_intersection_count, {"spherical rows certified"}),
], ids=["scaled spectral kernel", "two degrees swapped", "one intersection count added"])
def test_a_defect_fails_a_kept_check(monkeypatch, defect, failing):
    # "semigroup", "Fourier coefficients", "long-time limit" and "spectral-gap decay bound" restated the per-q
    # certificate, the exact degrees and orthogonality: each defect they caught still fails a check that runs
    defect(monkeypatch)
    failed = {r.name.removeprefix("q=7 ") for r in run_battery([7]) if r.fatal}
    assert failing <= failed, failed


def test_the_character_orthogonality_check_is_bounded_by_its_error_model(monkeypatch):
    # |G - m*I| <= ORTHOGONALITY_AGREEMENT*u*(q+1) (heat.py): beta_0(1) moved by e moves row and column 0 of
    # the Gram matrix by about 2e, so a residual ten times the bound fails and one half of it passes
    ctx, real = field_context(7), fuhp.characters.character_tables
    bound = ORTHOGONALITY_AGREEMENT * UNIT_ROUNDOFF * 8
    for residual, passes in ((0.5 * bound, True), (10 * bound, False)):
        base = real(ctx).base.copy()
        base[0, 0] += residual / 2
        monkeypatch.setattr(fuhp.characters, "character_tables", lambda ctx, t=real(ctx)._replace(base=base): t)
        (check,) = [r for r in character_checks(ctx) if r.name == "q=7 character orthogonality"]
        assert check.passed is passes, check.detail


@pytest.mark.slow
def test_verify_past_the_cap_at_q211(run_child):
    # "q=211 r_s=1 positivity" read -1.62e-12 at two BLAS threads, past the former bare -1e-12
    child = run_child(["-m", "fuhp.cli", "verify", "--q", "211"], capture=True,
                      env={"FUHP_MAX_Q": "300", "OPENBLAS_NUM_THREADS": "2"})
    assert child.exit_code == 0, [line for line in child.stdout.splitlines() if line.startswith("[FAIL]")]
    assert "[PASS] q=211 r_s=1 positivity" in child.stdout


def test_heat_checks_walk_once_for_all_initial_condition_functions(monkeypatch):
    graph = build_graph(field_context(13), 1)
    funcs = heat_test_functions(graph.n)
    t_grid = [1e-2, 1e-4, 1e-6]
    one_by_one = np.array([initial_condition_check(graph, f, t_grid) for f in funcs]).T
    together = initial_condition_check(graph, funcs, t_grid)
    np.testing.assert_allclose(together, one_by_one, rtol=1e-12, atol=1e-15)
    walks = []
    real = fuhp.heat.heat_kernel_oracle
    monkeypatch.setattr(fuhp.heat, "heat_kernel_oracle", lambda *args: walks.append(args[1]) or real(*args))
    assert not any(r.fatal for r in heat_checks(graph))
    assert walks == [t_grid]


def _with_labels(monkeypatch, ctx, labels):
    """Patch uhp's scheme, which picks every S_r, to read ``labels`` as the distance classes."""
    real = scheme(ctx)
    monkeypatch.setattr(fuhp.uhp, "scheme", lambda c: real._replace(labels=labels))
    fuhp.heat.affine_spectrum.cache_clear()


def _sphere_with(monkeypatch, ctx, r_s, out, into):
    """Patch uhp's scheme so that S_{r_s} holds ``into`` in place of ``out``, which take their labels."""
    labels = scheme(ctx).labels.copy()
    labels[out], labels[into] = labels[into], r_s
    _with_labels(monkeypatch, ctx, labels)


@pytest.fixture
def affine_cache():
    """Clear the cached affine spectrum before and after a test that patches the spheres."""
    fuhp.heat.affine_spectrum.cache_clear()
    yield
    fuhp.heat.affine_spectrum.cache_clear()


def _inverse(ctx, i):
    x, y = scheme(ctx).x[i], scheme(ctx).y[i]
    return vertex_index(ctx.q, -x * ctx.inverse[y] % ctx.q, ctx.inverse[y])


@pytest.mark.parametrize("q", [7, 13])
def test_a_replaced_generator_is_refused_or_fails_the_decomposition(monkeypatch, affine_cache, q):
    ctx, r_s = field_context(q), 2
    labels = scheme(ctx).labels
    gen = np.flatnonzero(labels == r_s)
    decomposition = f"q={q} r_s={r_s} spectrum = Aff(F_q) decomposition"
    affine = f"q={q} r_s={r_s} spectral = affine oracle"
    names = {r.name: r.passed for r in radius_checks(ctx, r_s)}
    assert names[decomposition] and names[affine]
    # a generator s whose inverse is another generator, and a point t of radius 3 with its inverse
    s = next(i for i in gen if _inverse(ctx, i) != i)
    t = next(i for i in np.flatnonzero(labels == 3) if _inverse(ctx, i) != i)
    with monkeypatch.context() as patch:  # s alone replaced by t: S is no longer inverse-closed
        _sphere_with(patch, ctx, r_s, [s], [t])
        (refused,) = radius_checks(ctx, r_s)
        assert refused.name == f"q={q} r_s={r_s} graph built" and refused.fatal
        assert "not closed under inversion" in refused.detail
    with monkeypatch.context() as patch:  # s and s^-1 replaced by t and t^-1: a sound connection set
        _sphere_with(patch, ctx, r_s, [s, _inverse(ctx, s)], [t, _inverse(ctx, t)])
        assert cayley_certificate(ctx, r_s).size == q + 1
        results = {r.name: r for r in radius_checks(ctx, r_s)}
        assert results[f"q={q} r_s={r_s} graph built"].passed
        assert not results[decomposition].passed and not results[decomposition].finding_only


def _minus_sqrt_delta(ctx):
    """-sqrt(delta), alone at the degenerate radius 4*delta: a replacement that changes no other S_r."""
    return vertex_index(ctx.q, 0, ctx.q - 1)


def test_a_sphere_with_one_point_replaced_fails_graph_built_at_that_radius_only(monkeypatch, affine_cache):
    ctx = field_context(7)
    s = np.flatnonzero(scheme(ctx).labels == 2)[0]
    _sphere_with(monkeypatch, ctx, 2, [s], [_minus_sqrt_delta(ctx)])
    results = run_battery([7])
    built = {r.name: r for r in results if r.name.endswith("graph built")}
    assert [name for name, r in built.items() if not r.passed] == ["q=7 r_s=2 graph built"]
    assert "not closed under inversion" in built["q=7 r_s=2 graph built"].detail
    assert not [r for r in results if r.name.startswith("q=7 r_s=2 ") and not r.name.endswith("graph built")]
    assert "q=7 r_s=3 spectral = affine oracle" in {r.name for r in results}


def test_a_point_stabiliser_fails_graph_built_as_not_connected(monkeypatch, affine_cache):
    # S_3 := the stabiliser of the point 0 of F_q less the identity, {(0, y) : y != 0, 1}:
    # closed under inversion and loop-free, but its q-2 elements generate only the stabiliser
    ctx = field_context(7)
    labels = scheme(ctx).labels.copy()
    stabiliser = vertex_index(7, 0, np.arange(2, 7))
    labels[labels == 3] = 0  # S_3 leaves for the degenerate radius 0, which builds no graph
    labels[stabiliser] = 3
    _with_labels(monkeypatch, ctx, labels)
    results = {r.name: r for r in run_battery([7])}
    assert not results["q=7 r_s=3 graph built"].passed
    assert results["q=7 r_s=3 graph built"].detail == "graph is not connected"


def test_verify_reports_a_refused_connection_set_and_runs_on(monkeypatch, affine_cache, capsys):
    # a refused S_2 was once an AssertionError out of the battery: exit 2 and no check lines
    ctx = field_context(7)
    assert main(["verify", "--q", "7"]) == 0
    clean = capsys.readouterr().out.splitlines()
    s = np.flatnonzero(scheme(ctx).labels == 2)[0]
    _sphere_with(monkeypatch, ctx, 2, [s], [_minus_sqrt_delta(ctx)])
    assert main(["verify", "--q", "7"]) == 1
    lines = capsys.readouterr().out.splitlines()
    refused = f"generating sphere not closed under inversion at vertex {_inverse(ctx, s)}"
    assert [line for line in lines if " r_s=2 " in line] == [f"[FAIL] q=7 r_s=2 graph built: {refused}"]
    # every line of the other radii's checks, as in the unpatched run
    per_radius = clean[: next(i for i, line in enumerate(clean) if "formula values real" in line)]
    others = [line for line in per_radius if " r_s=" in line and " r_s=2 " not in line]
    assert len(others) == 4 * 5 and all(line in lines for line in others)


def test_an_uncertified_table_fails_one_line_and_the_battery_runs_on(monkeypatch, capsys):
    # the certificate's AssertionError once escaped the battery: exit 2 and no check line
    assert main(["verify", "--q", "11"]) == 0
    alone = capsys.readouterr().out.splitlines()
    ctx, real = field_context(7), fuhp.spherical.closed_forms
    moved = real(ctx)._replace(principal=real(ctx).principal.copy())
    moved.principal[2, 1] += 1e-9  # radius 2 is regular at q=7
    monkeypatch.setattr(fuhp.spherical, "closed_forms", lambda c: moved if c.q == 7 else real(c))
    with pytest.raises(AssertionError, match="principal row 1 at q=7 is no common eigenvector") as refused:
        fuhp.spherical.spherical_rows.__wrapped__(ctx)
    fuhp.spherical.spherical_rows.cache_clear()
    assert main(["verify", "--q", "7,11"]) == 1
    lines = capsys.readouterr().out.splitlines()
    fail = f"[FAIL] q=7 spherical rows certified: {refused.value}"
    assert [line for line in lines if line.startswith("[FAIL]")] == [fail]
    # q=7 stops at its certificate; q=11 prints every line of a run of its own
    q7 = [line for line in lines if " q=7 " in line]
    assert q7[-2].startswith("[PASS] q=7 orbit sizes: ") and q7[-1] == fail
    assert [line for line in lines if " q=11 " in line] == [line for line in alone if " q=11 " in line]
    assert lines[-1] == f"{len(lines) - 1} checks: {len(lines) - 1 - 9 - 1} passed, 9 findings, 1 failures"


def test_the_formula_values_real_check_is_bounded_by_its_error_model(monkeypatch):
    # |Im v| <= REAL_VALUE_AGREEMENT*u (verify.py): an imaginary part ten times that fails, half of it
    # passes; the former bare 1e-10 was 22,500 times the bound
    ctx, real = field_context(7), fuhp.spherical.closed_forms
    bound = REAL_VALUE_AGREEMENT * UNIT_ROUNDOFF
    for imag, passes in ((0.5 * bound, True), (10 * bound, False)):
        forms = real(ctx)._replace(principal=real(ctx).principal.copy())
        forms.principal[2, 1] = forms.principal[2, 1].real + 1j * imag
        monkeypatch.setattr(fuhp.spherical, "closed_forms", lambda c, forms=forms: forms)
        report = match_formulas_to_oracle(ctx, 1)
        assert report.max_imag == imag
        (check,) = [r for r in formula_match_checks(report) if r.name == "q=7 formula values real"]
        assert check.passed is passes, check.detail


@pytest.mark.slow
def test_the_findings_up_to_the_cap_are_reported_not_patched():
    # a check removed from the battery must take no finding with it
    results = run_battery(PRIMES_TO_THE_CAP)
    assert not [f"{r.name}: {r.detail}" for r in results if r.fatal]
    findings = Counter(re.sub(r"^q=\d+ (r_s=\d+ )?", "", r.name) for r in results if not r.passed)
    assert findings == {"adjacency eigenvalues distinct": 667, "verbatim theta gap": 25,
                        "as-stated cuspidal constant gap": 25}
