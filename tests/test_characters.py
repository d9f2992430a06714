"""Characters of F_q^x, the norm-one subgroup, and the quadratic extension."""

import cmath

import pytest

from fuhp.characters import character_orthogonality_check, character_tables
from fuhp.field import EXT_ONE, ExtElement, ext_mul, ext_pow, field_context
from fuhp.spherical import character_classes
from scalar_reference import beta, ext_char, norm_one_subgroup, nu, nu0, u_index


def test_beta_frozen_values():
    ctx = field_context(3)
    assert beta(ctx, 1, 2) == pytest.approx(-1)  # dlog(2)=1, exp(
    ctx5 = field_context(5)
    assert beta(ctx5, 0, 3) == pytest.approx(1)
    assert beta(ctx5, 2, 4) == pytest.approx(1)  # dlog(4)=2, exp(2*pi*i*4/4)


def test_beta_rejects_zero():
    ctx = field_context(5)
    with pytest.raises(ValueError):
        beta(ctx, 1, 0)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_beta_multiplicative_exhaustive(q):
    ctx = field_context(q)
    for j in range(q - 1):
        for a in range(1, q):
            for b in range(1, q):
                assert beta(ctx, j, a * b % q) == pytest.approx(
                    beta(ctx, j, a) * beta(ctx, j, b), abs=1e-12
                )


@pytest.mark.parametrize("q", [3, 5, 7, 101])
def test_orthogonality_residual(q):
    # the phases reduce j*m mod N first: from the unreduced product the residual reached 1.95e-12 at q=101
    ctx = field_context(q)
    report = character_orthogonality_check(ctx)
    assert report.max_residual <= 1e-12


@pytest.mark.parametrize("q", [5, 13, 101])
def test_character_tables_equal_scalar_characters(q):
    # the array phases form each argument as the scalar ones do: equal to within one ulp
    ctx = field_context(q)
    tables = character_tables(ctx)
    for j in range(q - 1):
        for a in range(1, q):
            assert abs(tables.base[j, ctx.dlog[a]] - beta(ctx, j, a)) <= 2**-52
    for j in range(q + 1):
        for k, u in enumerate(norm_one_subgroup(ctx)):
            assert abs(tables.norm_one[j, k] - nu(ctx, j, u)) <= 2**-52


def test_nu_frozen_values():
    ctx = field_context(3, delta=2)
    u = norm_one_subgroup(ctx)
    for j in (0, 1, 5):
        assert nu(ctx, j, EXT_ONE) == pytest.approx(1)
    # U generator zeta^(q-1) = zeta^2 has dlog 2: exp(2*pi*i*2/8) = i
    assert nu(ctx, 1, ext_pow(ctx, ctx.zeta, 2)) == pytest.approx(1j)
    for w in u:
        assert nu(ctx, 8, w) == pytest.approx(1)  # index q^2-1 = 0


def test_nu_rejects_norm_not_one():
    ctx = field_context(5)
    with pytest.raises(ValueError):
        nu(ctx, 1, ExtElement(2, 0))  # norm 4 != 1


@pytest.mark.parametrize("q", [3, 5, 7])
def test_nu0_is_parity_of_cyclic_index(q):
    ctx = field_context(q)
    u = norm_one_subgroup(ctx)
    assert nu0(ctx, EXT_ONE) == 1
    assert nu0(ctx, u[1]) == -1
    assert nu0(ctx, ext_mul(ctx, u[1], u[1])) == 1
    for k, w in enumerate(u):
        assert u_index(ctx, w) == k
        assert nu0(ctx, w) == (-1) ** k
        assert nu0(ctx, w) ** 2 == 1


def test_nu0_rejects_outside_u():
    ctx = field_context(5)
    with pytest.raises(ValueError):
        nu0(ctx, ExtElement(2, 0))


@pytest.mark.parametrize("q", [3, 5])
def test_nu_restricted_to_base_field_is_a_beta(q):
    # g = zeta^m with (q+1) | m, as g^(q-1) = 1, so on a = g^k:
    # nu_j(a) = e^(2 pi i j m k/(q^2-1)) = beta_(j*e)(a) with e = m/(q+1)
    ctx = field_context(q)
    n2 = q * q - 1
    (m,) = [m for m in range(n2) if ext_pow(ctx, ctx.zeta, m) == ExtElement(ctx.g, 0)]
    assert m % (q + 1) == 0
    e = m // (q + 1)
    for j in range(n2):
        for a in range(1, q):
            assert abs(ext_char(ctx, j, ExtElement(a, 0)) - beta(ctx, j * e, a)) < 1e-12, (j, a)


def test_nu_equals_inverse_predicate():
    # nu_j = nu_j^-1 on U exactly when j mod q+1 is 0 or (q+1)/2; the cuspidal classes of
    # character_classes take one index of each other inverse pair {j, q+1-j}
    for q in (3, 5, 7, 13):
        ctx = field_context(q)
        u = norm_one_subgroup(ctx)
        self_inverse = {j for j in range(q * q - 1)
                        if all(abs(nu(ctx, j, w) - nu(ctx, j, w).conjugate()) < 1e-12 for w in u)}
        assert self_inverse == {j for j in range(q * q - 1) if j % (q + 1) in (0, (q + 1) // 2)}
        cusp = [j for kind, j in character_classes(q) if kind == "cuspidal"]
        assert sorted(cusp + [q + 1 - j for j in cusp]) == sorted(set(range(q + 1)) - self_inverse)
        if q == 3:  # the restriction to U has order dividing 4; self-inverse iff index in {0, 2} mod 4
            assert set(range(8)) - self_inverse == {1, 3, 5, 7}


@pytest.mark.parametrize("q", [3, 5, 7])
def test_character_values_are_roots_of_unity(q):
    ctx = field_context(q)
    n2 = q * q - 1
    for j in (1, 2, q, n2 - 1):
        for m in range(0, n2, max(1, n2 // 10)):
            z = ext_pow(ctx, ctx.zeta, m)
            v = ext_char(ctx, j, z)
            assert abs(abs(v) - 1) <= 1e-12
            assert abs(v ** n2 - 1) <= 1e-9


def test_ext_char_matches_dlog_exponential():
    ctx = field_context(5)
    n2 = 24
    for m in (0, 1, 7, 23):
        z = ext_pow(ctx, ctx.zeta, m)
        assert ext_char(ctx, 3, z) == pytest.approx(cmath.exp(2j * cmath.pi * 3 * m / n2))
