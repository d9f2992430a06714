"""Spherical tables (radial core and dense oracle), and the closed-form families."""

import tracemalloc

import mpmath
import numpy as np
import pytest

import fuhp.spherical
from fuhp.field import ExtElement, field_context, is_odd_prime
from fuhp.heat import TABLE_SUM_AGREEMENT, UNIT_ROUNDOFF, heat_kernel_spectral
from fuhp.spherical import (
    EIGENVALUE_CLUSTER_TOL,
    character_classes,
    closed_forms,
    intersection_matrices,
    match_formulas_to_oracle,
    spherical_rows,
    spherical_table,
)
from fuhp.theta import finite_theta, theta_consistency_report
from fuhp.uhp import build_graph, degenerate_radii, radii_order, scheme

from dense_graph import Point, broadcast_radial_rows, distance, enumerate_points, radial_eigenbasis, sphere
from scalar_reference import beta, norm_one_subgroup, nu, nu0, quadratic_character


def table_for(q, r_s=None, delta=None):
    """Dense-oracle table at an explicit r_s; the radial table at r_s=1 otherwise."""
    ctx = field_context(q, delta)
    if r_s is None:
        return ctx, build_graph(ctx, 1), spherical_table(ctx, 1)
    graph = build_graph(ctx, r_s)
    return ctx, graph, radial_eigenbasis(graph)


def test_q3_table_matches_quotient_matrix_oracle():
    # independent oracle: collapse the octahedron onto its three orbits;
    # neighbor counts per orbit give the quotient matrix below, whose
    # base-normalized eigenvectors are the spherical rows over radii (0,1,2)
    quotient = np.array([[0.0, 4.0, 0.0], [1.0, 2.0, 1.0], [0.0, 4.0, 0.0]])
    w, v = np.linalg.eig(quotient)
    oracle = {}
    for i in range(3):
        vec = v[:, i] / v[0, i]
        oracle[round(w[i].real, 9)] = vec.real

    ctx, graph, table = table_for(3, r_s=1)
    assert len(table.omega) == 3
    for i in range(3):
        a = round(table.adjacency_eigenvalues[i], 9)
        np.testing.assert_allclose(table.omega[i], oracle[a], atol=1e-10)

    # frozen: rows over radii (0,1,2) with (d, lambda)
    rows = {
        tuple(np.round(table.omega[i], 6)): (
            int(table.degrees[i]),
            round(float(table.laplacian_eigenvalues[i]), 6),
        )
        for i in range(3)
    }
    assert rows == {
        (1.0, 1.0, 1.0): (1, 0.0),
        (1.0, 0.0, -1.0): (3, 4.0),
        (1.0, -0.5, 1.0): (2, 6.0),
    }


def test_constant_row_always_first():
    for q in (3, 5, 7):
        _, _, table = table_for(q)
        np.testing.assert_allclose(table.omega[0], 1.0, atol=1e-10)
        assert table.degrees[0] == 1
        assert abs(table.laplacian_eigenvalues[0]) <= 1e-10


def test_q5_row_count_and_degree_sum():
    _, _, table = table_for(5, r_s=1)
    assert len(table.omega) == 5
    assert int(table.degrees.sum()) == 20


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_table_invariants_all_regular_radii(q):
    ctx = field_context(q)
    n = q * (q - 1)
    for r_s in range(q):
        if r_s in degenerate_radii(ctx):
            continue
        table = radial_eigenbasis(build_graph(ctx, r_s))
        np.testing.assert_allclose(table.omega[:, 0], 1.0, atol=1e-12)
        assert int(table.degrees.sum()) == n
        gram = (table.omega * table.orbit_sizes[None, :]) @ table.omega.T
        np.testing.assert_allclose(gram, np.diag(n / table.degrees), atol=1e-10)
        recon = (table.degrees[:, None] * table.omega).sum(axis=0)
        np.testing.assert_allclose(recon, np.where(np.arange(q) == 0, n, 0.0), atol=1e-9)


def test_eigenvalue_collisions_merge_rows_but_keep_invariants():
    # q=5, r_s=2: two spherical functions share an adjacency eigenvalue
    _, _, table = table_for(5, r_s=2)
    assert len(table.omega) == 4
    assert int(table.degrees.sum()) == 20


def test_principal_frozen_values():
    principal = closed_forms(field_context(3, delta=2)).principal
    assert principal[1, 1] == pytest.approx(0, abs=1e-12)
    assert principal[2, 1] == pytest.approx(-1)  # beta_1(-1)
    for q in (3, 5, 7):
        ctxq = field_context(q)
        for r in range(q):
            if r in degenerate_radii(ctxq):
                continue
            assert closed_forms(ctxq).principal[r, 0] == pytest.approx(1)


def test_principal_values_real():
    for q in (5, 7):
        principal = closed_forms(field_context(q)).principal
        assert np.abs(principal[:, : (q - 1) // 2 + 1].imag).max() <= 1e-10


def _other_reading(ctx, antipodal):
    """The other antipodal reading, -nu0(-1)*nu_j(-1): nu0(-1) times closed_forms' -nu_j(-1)."""
    return nu0(ctx, ExtElement(ctx.q - 1, 0)) * antipodal


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_closed_forms_match_their_definitions(q):
    # loops over the sphere and over U, in scalar characters, against the array tables
    ctx = field_context(q)
    deg0, deg1 = degenerate_radii(ctx)
    forms = closed_forms(ctx)
    assert forms.principal.shape == (q, q - 1)
    for j in range(q - 1):
        for r in range(q):
            if r == deg0:
                want = 1.0
            elif r == deg1:
                want = beta(ctx, j, q - 1)
            else:
                want = sum(beta(ctx, j, z.y) for z in sphere(ctx, r)) / (q + 1)
            assert abs(forms.principal[r, j] - want) <= 1e-12

    minus_one = ExtElement(q - 1, 0)
    constants = {
        "reconciled": lambda r: (2 - r * pow(ctx.delta, -1, q)) % q,
        "verbatim": lambda r: 2 * (1 + r) * pow(1 - r, -1, q) % q,
    }
    cusp = [j for kind, j in character_classes(q) if kind == "cuspidal"]
    for j in cusp + [q + 1 - j for j in cusp]:  # every nu_j that is not self-inverse on U
        assert abs(forms.antipodal[j] - -nu(ctx, j, minus_one)) <= 1e-12
        other = _other_reading(ctx, forms.antipodal)[j]
        assert abs(other - -nu0(ctx, minus_one) * nu(ctx, j, minus_one)) <= 1e-12
        assert np.isnan(forms.cuspidal["reconciled"][deg1, j])
        assert np.isnan(forms.cuspidal["verbatim"][[1, deg1], j]).all()  # 1 is the pole of (1+r)/(1-r)
        for variant in ("reconciled", "verbatim"):
            assert forms.cuspidal[variant][deg0, j] == 1
            for r in range(q):
                if r in (deg0, deg1) or (r, variant) == (1, "verbatim"):
                    continue
                two_c = constants[variant](r)
                want = sum(
                    quadratic_character(ctx, 2 * u.a - two_c) * nu0(ctx, u) * nu(ctx, j, u)
                    for u in norm_one_subgroup(ctx)
                ) / (q + 1)
                assert abs(forms.cuspidal[variant][r, j] - want) <= 1e-12


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 29])
def test_every_cuspidal_entry_is_its_character_sum_within_a_few_u(q):
    # a 50-digit reference from the scalar definitions, radius 1 included: the mean over u in U of
    # eps(2 u.a - 2c(r)) nu0(u) Re nu_j(u), c(r) = 1 - r/(2 delta), and -nu_j(-1) at 4*delta. Measured
    # at most 1.7u here (q=5), and 2.3u over every entry of every row at the primes q <= 211
    ctx = field_context(q)
    deg0, deg1 = degenerate_radii(ctx)
    rows = spherical_rows(ctx)
    n2 = q * q - 1
    units = [(u, int(ctx.dlog2[u.a * q + u.b])) for u in norm_one_subgroup(ctx)]
    minus_one = int(ctx.dlog2[(q - 1) * q])
    with mpmath.workdps(50):
        for i, (kind, j) in enumerate(character_classes(q)):
            if kind == "principal":
                continue
            for r in range(q):
                if r in (deg0, deg1):
                    want = 1 if r == deg0 else -mpmath.cospi(mpmath.mpf(2 * j * minus_one) / n2)
                else:
                    two_c = (2 - r * pow(ctx.delta, -1, q)) % q
                    want = mpmath.fsum(quadratic_character(ctx, 2 * u.a - two_c) * nu0(ctx, u)
                                       * mpmath.cospi(mpmath.mpf(2 * j * m) / n2) for u, m in units) / (q + 1)
                assert abs(rows.omega[i, r] - want) <= 3 * UNIT_ROUNDOFF, (j, r)


def test_cuspidal_matches_oracle_rows_q5():
    ctx = field_context(5)
    report = match_formulas_to_oracle(ctx, 1)
    table = report.table
    cusp = closed_forms(ctx).cuspidal["reconciled"]
    for m in report.cuspidal:
        assert m.max_deviation <= 1e-10
        for r in (0, 2, 4):  # radii where the sum form applies (3 = 4*delta)
            assert cusp[r, m.index].real == pytest.approx(table.omega[m.row, r], abs=1e-10)


def test_cuspidal_verbatim_variant_disagrees_somewhere():
    # the as-stated constant reproduces some classes but not all; the gap is
    # what the match report measures
    report = match_formulas_to_oracle(field_context(7), 1)
    gaps = [m.verbatim_deviation for m in report.cuspidal]
    assert max(gaps) > 0.1


def test_laplace_eigenvalue_relation():
    # lambda_i = (q+1)(1 - omega_i(r_s)), in the dense oracle's table and in the radial one
    ctx, graph, table = table_for(3, r_s=1)
    lam = 4 * (1 - table.omega[:, 1])
    np.testing.assert_allclose(lam, table.laplacian_eigenvalues, rtol=0, atol=1e-10)
    assert sorted(np.round(lam, 6).tolist()) == [0.0, 4.0, 6.0]
    for q in (3, 5, 7, 13):
        ctx, graph, table = table_for(q)
        lam = (q + 1) * (1 - table.omega[:, table.r_s])
        np.testing.assert_allclose(lam, table.laplacian_eigenvalues, rtol=0, atol=1e-10)


def test_match_q3_by_elimination():
    # the cuspidal row is the one left over, (1, -0.5, 1): its sum at r=1 and its antipodal value at
    # r=2=4*delta
    ctx = field_context(3)
    report = match_formulas_to_oracle(ctx, 1)
    assert {m.row for m in report.matches} == {0, 1, 2}
    principal_rows = {m.index: m.row for m in report.principal}
    # beta_0 -> constant row, beta_1 -> (1, 0, -1); the remaining row is cuspidal
    table = report.table
    assert table.degrees[principal_rows[0]] == 1
    assert table.degrees[principal_rows[1]] == 3
    (cusp,) = report.cuspidal
    assert cusp.row == ({0, 1, 2} - set(principal_rows.values())).pop()
    assert table.omega[cusp.row].tolist() == [1.0, -0.5, 1.0]
    assert table.degrees[cusp.row] == 2
    assert cusp.excluded_radii == (1,)


@pytest.mark.parametrize("q", [5, 7])
def test_match_unique_rows_and_tolerances(q):
    ctx = field_context(q)
    report = match_formulas_to_oracle(ctx, 1)
    assert len(report.matches) == q
    assert len({m.row for m in report.matches}) == q
    for m in report.principal:
        assert m.max_deviation <= 1e-9
    for m in report.cuspidal:
        assert m.max_deviation <= 1e-9
        assert m.excluded_radii == (1,)
    assert report.max_imag <= 1e-10


def test_antipodal_reading_is_minus_nu():
    # at q = 1 mod 4 the two candidate readings differ; the spectral match
    # picks -nu(-1) every time
    for q in (5, 13):
        report = match_formulas_to_oracle(field_context(q), 1)
        assert all(m.infinity_reading == "minus_nu" for m in report.cuspidal)
    report = match_formulas_to_oracle(field_context(7), 1)
    assert all(m.infinity_reading.startswith("both") for m in report.cuspidal)


def test_inverse_character_gives_equal_cuspidal_function():
    # nu and its inverse on U define the same spherical function; the table
    # deduplicates classes by the smaller index
    cusp = closed_forms(field_context(5)).cuspidal["reconciled"]
    for j, j_inv in ((1, 5), (2, 4)):
        np.testing.assert_allclose(cusp[[0, 2, 4], j], cusp[[0, 2, 4], j_inv], rtol=0, atol=1e-12)


def test_conjugate_character_gives_equal_principal_function():
    principal = closed_forms(field_context(7)).principal
    for j in (1, 2, 3):
        np.testing.assert_allclose(principal[:, j], principal[:, 6 - j].conj(), rtol=0, atol=1e-12)
        assert np.abs(principal[:, j].imag).max() <= 1e-12


@pytest.mark.parametrize("q,r_s", [(3, 1), (5, 1), (7, 2)])
def test_rows_lift_to_adjacency_eigenvectors(q, r_s):
    ctx, graph, table = table_for(q, r_s=r_s)
    base = Point(0, 1)
    adj = graph.adjacency.astype(float)
    for i in range(len(table.omega)):
        vec = np.array([table.omega[i, distance(ctx, z, base)] for z in enumerate_points(ctx)])
        np.testing.assert_allclose(
            adj @ vec, table.adjacency_eigenvalues[i] * vec, atol=1e-9
        )


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_radial_table_matches_dense_oracle(q):
    ctx = field_context(q)
    compared = 0
    for r_s in radii_order(ctx)[2:]:
        dense = radial_eigenbasis(build_graph(ctx, r_s))
        if len(dense.omega) < q:
            continue
        table = spherical_table(ctx, r_s)
        np.testing.assert_array_equal(table.orbit_sizes, dense.orbit_sizes)
        np.testing.assert_array_equal(table.degrees, dense.degrees)
        np.testing.assert_allclose(table.omega, dense.omega, rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            table.adjacency_eigenvalues, dense.adjacency_eigenvalues, rtol=0, atol=1e-10
        )
        compared += 1
    assert compared > 0


@pytest.mark.parametrize("q,r_s", [(5, 2), (13, 1)])
def test_merged_dense_rows_are_degree_weighted_means(q, r_s):
    ctx = field_context(q)
    dense = radial_eigenbasis(build_graph(ctx, r_s))
    table = spherical_table(ctx, r_s)
    assert len(table.omega) == q > len(dense.omega)
    for i in range(len(dense.omega)):
        share = np.abs(table.adjacency_eigenvalues - dense.adjacency_eigenvalues[i]) <= 1e-8
        d = table.degrees[share]
        assert d.sum() == dense.degrees[i]
        mean = d @ table.omega[share] / d.sum()
        np.testing.assert_allclose(dense.omega[i], mean, rtol=0, atol=1e-10)
    assert [m for _, m in table.spectrum()] == dense.degrees.tolist()


def test_radial_table_has_every_row_at_every_radius():
    # the rows belong to (q, delta): each generating radius permutes them
    for q in (5, 7, 11, 13, 17):
        ctx = field_context(q)
        first = None
        for r_s in radii_order(ctx)[2:]:
            table = spherical_table(ctx, r_s)
            assert len(table.omega) == q
            assert table.omega[0].tolist() == [1.0] * q
            assert table.laplacian_eigenvalues[0] == 0.0
            rows = sorted(map(tuple, np.round(table.omega, 9)))
            assert first is None or rows == first
            first = rows


def test_match_and_reconciled_theta_at_a_colliding_radius():
    # q=13, r_s=1 merges rows in the dense table, so both used to raise there
    ctx = field_context(13)
    table = spherical_table(ctx, 1)
    assert len(table.spectrum()) < len(table.omega)
    report = match_formulas_to_oracle(ctx, 1)
    assert len({m.row for m in report.matches}) == 13
    assert max(m.max_deviation for m in report.matches) <= 1e-9
    theta = theta_consistency_report(ctx, 1, [0.1, 1.0])
    assert theta.reconciled_deviation[:, theta.radii].max() <= 1e-9
    assert finite_theta(ctx, table, 0, 0.0) == pytest.approx(13 * 12, abs=1e-9)


def test_radial_table_builds_at_every_prime_up_to_the_default_cap():
    # the fixed combination must keep its eigenvalues apart and the degrees integral;
    # the t=0 kernel sum_i d_i omega_i(r) = n [r = 0] then holds to 4*eps*n, since
    # each term is accurate to a few eps relative to d_i and sum_i d_i = n
    for q in filter(is_odd_prime, range(3, 102)):
        table = spherical_table(field_context(q), 1)
        n = q * (q - 1)
        assert len(table.omega) == q
        assert int(table.degrees.sum()) == n
        delta = np.where(np.arange(q) == 0, n, 0.0)
        assert np.abs(table.degrees @ table.omega - delta).max() <= 4 * np.finfo(float).eps * n


def _assert_rows_match_the_eigh_reference(q):
    # each reference entry is a Rayleigh quotient u' B~_r u / (|S_r| u'u): its 2q-term sums round by
    # about q*u at worst, and the eigenvector error of the golden-angle eigh enters it squared; each
    # certified entry is a character sum within 2.3u of exact (CERTIFICATE_AGREEMENT). 2u(q+1)
    # covers the two
    ctx = field_context(q)
    rows = spherical_rows(ctx)
    reference, degrees = broadcast_radial_rows(ctx)
    gaps = np.array([np.abs(reference - row).max(axis=1) for row in rows.omega])  # [class, reference row]
    nearest = gaps.argmin(axis=1)
    assert sorted(nearest.tolist()) == list(range(q))
    assert gaps[np.arange(q), nearest].max() <= 2 * UNIT_ROUNDOFF * (q + 1)
    assert np.array_equal(rows.degrees, degrees[nearest])  # the class degrees are the float ones


@pytest.mark.parametrize("q", [3, 13, 29, 53])
def test_certified_rows_match_the_eigh_reference(q):
    _assert_rows_match_the_eigh_reference(q)


@pytest.mark.slow
@pytest.mark.parametrize("q", list(filter(is_odd_prime, range(3, 212))))
def test_certified_rows_match_the_eigh_reference_to_q211(q):
    _assert_rows_match_the_eigh_reference(q)


def test_certified_rows_scratch_is_one_byte_cube(monkeypatch):
    # the uint8 counts B_r are the only q^3 array; the rows, their products with one block B_r at a
    # time and the scheme check's |S_r1| B_r[r1, r2] are q x q
    monkeypatch.setattr(fuhp.spherical, "intersection_matrices", intersection_matrices.__wrapped__)
    for q in (53, 101):
        ctx = field_context(q)
        spherical_rows.__wrapped__(ctx)  # warm the per-(q, delta) tables it reads
        tracemalloc.start()
        try:
            spherical_rows.__wrapped__(ctx)  # counts included, as the cache is bypassed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= q**3 + 16 * q * q * 8, f"traced peak {peak / 1e6:.2f} MB at q={q}"


def test_intersection_matrices_are_the_neighbour_counts_of_each_representative():
    q = 13
    ctx = field_context(q)
    vertices = scheme(ctx)
    counts = intersection_matrices(ctx)
    assert counts.dtype == np.uint8 and counts.shape == (q, q, q) and not counts.flags.writeable
    for r_s in radii_order(ctx)[2:]:
        graph = build_graph(ctx, r_s)
        for r1, rep in enumerate(vertices.reps):
            around = np.bincount(vertices.labels[graph.neighbors[rep]], minlength=q)
            assert np.array_equal(counts[r_s, r1], around)


def test_an_asymmetric_count_fails_the_scheme_check(monkeypatch):
    ctx = field_context(13)
    counts = intersection_matrices(ctx).copy()
    counts[4, 2, 3] += 1  # |S_2| B_4[2, 3] = |S_3| B_4[3, 2] no longer holds
    monkeypatch.setattr(fuhp.spherical, "intersection_matrices", lambda c: counts)
    with pytest.raises(AssertionError, match="not a scheme"):
        spherical_rows.__wrapped__(ctx)


@pytest.mark.parametrize("q", [5, 7, 13, 29])
def test_match_is_the_same_at_every_generating_radius(q):
    # the classes and their rows belong to (q, delta): each report, read back in the
    # rows' own order, is one assignment with bit-equal deviations and readings
    ctx = field_context(q)
    forms = closed_forms(ctx)
    rows = spherical_rows(ctx)
    own_row = {row.tobytes(): i for i, row in enumerate(rows.omega)}
    seen = None
    for r_s in radii_order(ctx)[2:]:
        report = match_formulas_to_oracle(ctx, r_s)
        table = report.table
        assert table.r_s == r_s
        for m in report.principal:
            assert np.array_equal(table.omega[m.row], forms.principal[:, m.index].real)
        summary = {
            (m.kind, m.index): (own_row[table.omega[m.row].tobytes()], m.max_deviation,
                                m.verbatim_deviation, m.infinity_reading)
            for m in report.matches
        }
        assert len(summary) == q
        # row i of the certified rows is the i-th class, and its deviation is that row's residual
        assert [summary[c][:2] for c in character_classes(q)] == list(zip(range(q), rows.residuals.tolist()))
        assert seen is None or (summary, report.max_imag) == seen
        seen = summary, report.max_imag


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_the_reconciled_kernel_is_the_spectral_kernel_of_the_character_sums(q):
    # each row of the table is its class's character sum, with the "minus_nu" antipodal value, so the
    # reconciled theta sums are the spectral kernel of the table itself
    ctx = field_context(q)
    forms = closed_forms(ctx)
    deg1 = degenerate_radii(ctx)[1]
    sizes = scheme(ctx).sizes
    t_grid = [0.0, 0.1, 1.0, 5.0]
    for r_s in radii_order(ctx)[2:]:
        report = match_formulas_to_oracle(ctx, r_s)
        table = report.table
        for m in report.matches:
            row = table.omega[m.row]
            if m.kind == "principal":
                assert np.array_equal(row, forms.principal[:, m.index].real)
                continue
            defined = [r for r in range(q) if r != deg1]
            assert np.array_equal(row[defined], forms.cuspidal["reconciled"][defined, m.index].real)
            assert row[deg1] == forms.antipodal[m.index].real
            # orthogonal to the constant row as "weighted orthogonality" measures it, not by construction
            assert abs(row @ sizes) <= TABLE_SUM_AGREEMENT * UNIT_ROUNDOFF * q * (q - 1)
        theta = theta_consistency_report(ctx, r_s, t_grid, mode="reconciled")
        np.testing.assert_array_equal(theta.reconciled, heat_kernel_spectral(table, t_grid))
        for r in range(q):
            assert finite_theta(ctx, table, r, 0.1) == heat_kernel_spectral(table, [0.1])[0, r]


def _rows_with(monkeypatch, ctx, edit):
    """Build the rows from a copy of ``closed_forms`` that ``edit`` changed, bypassing the caches."""
    real = closed_forms(ctx)
    forms = real._replace(principal=real.principal.copy(),
                          cuspidal={k: v.copy() for k, v in real.cuspidal.items()},
                          antipodal=real.antipodal.copy())
    edit(forms)
    monkeypatch.setattr(fuhp.spherical, "closed_forms", lambda c: forms)
    return spherical_rows.__wrapped__(ctx)


@pytest.mark.parametrize("q", [5, 13])
@pytest.mark.parametrize("kind", ["principal", "cuspidal"])
def test_a_closed_form_value_moved_by_1e_12_fails_the_certificate(monkeypatch, q, kind):
    # radius 1 of a cuspidal row too: that entry is its own character sum, not solved from the others
    ctx = field_context(q)
    _rows_with(monkeypatch, ctx, lambda forms: None)  # an unchanged copy passes
    for r in (2, 1):  # both regular at q = 5 and 13, and j = 1 is a class of each family

        def move(forms):
            values = forms.principal if kind == "principal" else forms.cuspidal["reconciled"]
            values[r, 1] += 1e-12

        with pytest.raises(AssertionError, match=f"{kind} row 1 at q={q} is no common eigenvector"):
            _rows_with(monkeypatch, ctx, move)


@pytest.mark.parametrize("q,fails", [(5, True), (13, True), (7, False), (11, False)])
def test_the_other_antipodal_reading_fails_the_certificate_where_the_readings_differ(monkeypatch, q, fails):
    # -nu0(-1) nu_j(-1) differs from -nu_j(-1) by the sign nu0(-1) = (-1)^((q+1)/2): at q = 1 mod 4
    ctx = field_context(q)

    def swap(forms):
        forms.antipodal[:] = _other_reading(ctx, forms.antipodal)

    if fails:
        with pytest.raises(AssertionError, match="cuspidal row 1 .* no common eigenvector"):
            _rows_with(monkeypatch, ctx, swap)
    else:
        assert np.array_equal(_rows_with(monkeypatch, ctx, swap).omega, spherical_rows(ctx).omega)


@pytest.mark.parametrize("q", [5, 7, 13, 29])
def test_tied_rows_appear_in_class_order(q):
    # rows whose eigenvalues the spectrum merges differ by rounding only: they keep the class order,
    # principal j ascending, then cuspidal j ascending
    ctx = field_context(q)
    ties = 0
    for r_s in radii_order(ctx)[2:]:
        report = match_formulas_to_oracle(ctx, r_s)
        class_of = {m.row: i for i, m in enumerate(report.matches)}
        a = report.table.adjacency_eigenvalues
        head = 0
        for i in range(1, q):
            if a[head] - a[i] > EIGENVALUE_CLUSTER_TOL:
                head = i
                continue
            ties += 1
            assert class_of[i - 1] < class_of[i], (r_s, i)
    assert ties > 0
