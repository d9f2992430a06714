"""Field and extension arithmetic, checked against exhaustive enumeration."""

import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuhp.field import (EXT_ONE, ExtElement, ext_mul, ext_norm, ext_pow, field_context, find_nonsquare,
                        is_odd_prime)
from fuhp.uhp import scheme
from scalar_reference import ext_trace, norm_one_subgroup, quadratic_character


def squares_mod(q):
    return {(x * x) % q for x in range(1, q)}


@pytest.mark.parametrize("q,frozen", [(3, 2), (5, 2), (7, 3)])
def test_find_nonsquare_matches_enumeration(q, frozen):
    oracle = next(a for a in range(2, q) if a not in squares_mod(q))
    assert find_nonsquare(q) == oracle == frozen


@pytest.mark.parametrize("q", [2, 4, 9, 15, 1])
def test_find_nonsquare_rejects_bad_q(q):
    with pytest.raises(ValueError):
        find_nonsquare(q)


def test_is_odd_prime():
    assert [n for n in range(30) if is_odd_prime(n)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_field_context_rejects_square_delta():
    with pytest.raises(ValueError):
        field_context(5, delta=4)
    with pytest.raises(ValueError):
        field_context(5, delta=0)


@pytest.mark.parametrize("q", [3, 5, 7, 13, 17])
def test_field_context_accepts_exactly_the_nonsquare_deltas(q):
    # delta defaults to the smallest non-square; an explicit one is reduced mod q and must be a non-square
    assert field_context(q).delta == find_nonsquare(q)
    for delta in range(-q, 2 * q):
        if delta % q in squares_mod(q) or delta % q == 0:
            with pytest.raises(ValueError, match="square"):
                field_context(q, delta)
        else:
            assert field_context(q, delta).delta == delta % q
    with pytest.raises(ValueError, match="odd prime"):
        field_context(q * q, delta=find_nonsquare(q))


def test_quadratic_character_frozen_values():
    ctx = field_context(5)
    assert quadratic_character(ctx, 4) == 1  # 2^2
    assert quadratic_character(ctx, 2) == -1
    assert quadratic_character(ctx, 0) == 0


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_quadratic_character_matches_square_set(q):
    ctx = field_context(q)
    sq = squares_mod(q)
    for a in range(q):
        expected = 0 if a == 0 else (1 if a in sq else -1)
        assert quadratic_character(ctx, a) == expected


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_quadratic_character_is_dlog_parity(q):
    ctx = field_context(q)
    for a in range(1, q):
        assert quadratic_character(ctx, a) == (1 if ctx.dlog[a] % 2 == 0 else -1)


def test_ext_norm_trace_frozen():
    ctx = field_context(5, delta=2)
    z = ExtElement(1, 1)  # 1 + sqrt(2)
    assert ext_norm(ctx, z) == (1 - 2) % 5 == 4
    assert ext_trace(ctx, z) == 2
    ctx3 = field_context(3, delta=2)
    assert ext_norm(ctx3, ExtElement(0, 1)) == (-2) % 3 == 1


@pytest.mark.parametrize("q", [3, 5, 7])
def test_norm_multiplicative_exhaustive(q):
    ctx = field_context(q)
    elements = [ExtElement(a, b) for a in range(q) for b in range(q)]
    for z, w in product(elements, repeat=2):
        assert ext_norm(ctx, ext_mul(ctx, z, w)) == ext_norm(ctx, z) * ext_norm(ctx, w) % q


@pytest.mark.parametrize("q", [3, 5])
def test_ext_mul_commutative_exhaustive(q):
    ctx = field_context(q)
    elements = [ExtElement(a, b) for a in range(q) for b in range(q)]
    for z, w in product(elements, repeat=2):
        assert ext_mul(ctx, z, w) == ext_mul(ctx, w, z)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_ext_mul_associative_sampled(a1, b1, a2, b2, a3, b3):
    ctx = field_context(7)
    z, w, v = ExtElement(a1, b1), ExtElement(a2, b2), ExtElement(a3, b3)
    assert ext_mul(ctx, ext_mul(ctx, z, w), v) == ext_mul(ctx, z, ext_mul(ctx, w, v))


def test_ext_conj_inv_pow():
    ctx = field_context(7)
    z = ExtElement(2, 5)
    inverse = ext_pow(ctx, z, 47)  # z^(q^2-2)
    assert ext_mul(ctx, z, inverse) == EXT_ONE
    conj_norm = ext_mul(ctx, z, ExtElement(2, -5 % 7))
    assert conj_norm == ExtElement(ext_norm(ctx, z), 0)
    assert ext_pow(ctx, z, 48) == EXT_ONE  # group order q^2 - 1


def test_ext_pow_refuses_a_negative_exponent():
    # without the refusal the squaring loop would never end: n >>= 1 keeps a negative n at -1
    ctx = field_context(7)
    with pytest.raises(ValueError, match="n >= 0"):
        ext_pow(ctx, ExtElement(2, 5), -1)


@pytest.mark.parametrize("q,frozen_g", [(3, 2), (5, 2)])
def test_base_generator_frozen(q, frozen_g):
    ctx = field_context(q)
    # oracle: set of powers must exhaust the group
    powers = {pow(frozen_g, m, q) for m in range(q - 1)}
    assert powers == set(range(1, q))
    assert ctx.g == frozen_g


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_generators_minimal_and_exact_order(q):
    ctx = field_context(q)

    def order_base(c):
        m = 1
        acc = c % q
        while acc != 1:
            acc = acc * c % q
            m += 1
        return m

    assert order_base(ctx.g) == q - 1
    assert all(order_base(c) < q - 1 for c in range(2, ctx.g))

    def order_ext(z):
        m = 1
        acc = z
        while acc != EXT_ONE:
            acc = ext_mul(ctx, acc, z)
            m += 1
        return m

    assert order_ext(ctx.zeta) == q * q - 1
    smaller = [
        ExtElement(a, b)
        for a in range(q)
        for b in range(q)
        if (a, b) != (0, 0) and (a, b) < (ctx.zeta.a, ctx.zeta.b)
    ]
    assert all(order_ext(z) < q * q - 1 for z in smaller)


def test_extension_generator_q3_brute_force():
    ctx = field_context(3, delta=2)
    # oracle: exhaust all 8 nonzero elements of F_9, find the order-8 ones
    def order(z):
        m = 1
        acc = z
        while acc != EXT_ONE:
            acc = ext_mul(ctx, acc, z)
            m += 1
        return m

    gens = [
        ExtElement(a, b)
        for a in range(3)
        for b in range(3)
        if (a, b) != (0, 0) and order(ExtElement(a, b)) == 8
    ]
    assert ctx.zeta == min(gens, key=lambda z: (z.a, z.b)) == ExtElement(1, 1)


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_norm_one_subgroup_size_and_membership(q):
    ctx = field_context(q)
    u = norm_one_subgroup(ctx)
    assert len(u) == q + 1
    # oracle: filter the whole group by norm
    brute = {
        ExtElement(a, b)
        for a in range(q)
        for b in range(q)
        if (a, b) != (0, 0) and ext_norm(ctx, ExtElement(a, b)) == 1
    }
    assert set(u) == brute
    assert EXT_ONE in u and ExtElement(q - 1, 0) in u


def test_norm_one_subgroup_cyclic_order():
    ctx = field_context(3, delta=2)
    u = norm_one_subgroup(ctx)
    gen = ext_pow(ctx, ctx.zeta, 2)
    acc = EXT_ONE
    for w in u:
        assert w == acc
        acc = ext_mul(ctx, acc, gen)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_dlog_tables_are_bijections(q):
    ctx = field_context(q)
    assert ctx.dlog[0] == ctx.dlog2[0] == -1
    assert sorted(ctx.dlog[1:]) == list(range(q - 1))
    assert sorted(ctx.dlog2[1:]) == list(range(q * q - 1))
    for a in range(1, q):
        assert pow(ctx.g, int(ctx.dlog[a]), q) == a
    for a, b in product(range(q), repeat=2):
        if (a, b) != (0, 0):
            assert ext_pow(ctx, ctx.zeta, int(ctx.dlog2[a * q + b])) == ExtElement(a, b)


@pytest.mark.parametrize("q", [q for q in range(3, 102, 2) if is_odd_prime(q)])
def test_power_table_is_the_scalar_walk(q):
    ctx = field_context(q)
    z = EXT_ONE
    for m in range(q * q - 1):
        assert (ctx.power_a[m], ctx.power_b[m]) == (z.a, z.b), m
        z = ext_mul(ctx, z, ctx.zeta)
    assert z == EXT_ONE
    assert ext_pow(ctx, ctx.zeta, q * q - 2) == ExtElement(int(ctx.power_a[-1]), int(ctx.power_b[-1]))


def test_small_tables_match_the_scalar_functions():
    ctx = field_context(13)
    assert ctx.chi.tolist() == [quadratic_character(ctx, a) for a in range(13)]
    assert ctx.inverse.tolist() == [0] + [pow(a, 11, 13) for a in range(1, 13)]


def test_tables_are_read_only():
    ctx = field_context(5)
    for table in (ctx.power_a, ctx.power_b, ctx.dlog, ctx.dlog2, ctx.chi, ctx.inverse):
        with pytest.raises(ValueError):
            table[1] = 0


def test_field_context_compares_and_hashes_on_its_parameters_only():
    # the tables follow from (q, delta, g, zeta), and every per-(q, delta) cache is keyed on the context
    ctx = field_context(7)
    corrupted = ctx._replace(dlog=ctx.dlog[::-1].copy(), power_a=None)
    assert corrupted == ctx and not corrupted != ctx
    assert hash(corrupted) == hash(ctx)
    other = field_context(7, 5)
    assert other != ctx and not other == ctx
    assert ctx != tuple(ctx)[:4]  # a tuple with the same parameters is not a context
    assert scheme(field_context(7)) is scheme(field_context(7))


def test_field_context_retains_only_the_integer_tables():
    # four q^2 int64 arrays at most: the ExtElement dict of the extension logs kept 1.5 MB at q=101
    q = 101
    tracemalloc.start()
    try:
        ctx = field_context(q)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.dlog2.size == q * q
    assert retained <= 4 * q * q * 8, f"{retained} B retained"
