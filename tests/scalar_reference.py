"""Scalar references for the arrays of fuhp, one value at a time.

``ExtElement`` is an element a + b*sqrt(delta) of F_q(sqrt(delta)), and
``ext_mul``, ``ext_norm`` and ``ext_pow`` are its arithmetic, one element at
a time; they read only ctx.q and ctx.delta, and take any (a, b) pair, such as
``ctx.zeta``. ``lexicographic_generators`` is the scalar search for the
smallest generators g and zeta, the reference for ``field_context``'s row
search. ``beta``, ``ext_char``, ``nu`` and the sign character ``nu0`` of the
norm-one subgroup U are cmath and integer expressions of one element, the
quadratic character is Euler's criterion, and ``norm_one_subgroup`` walks
U by ``ext_mul`` from zeta^(q-1): none reads the tables they check
(``character_tables``, ``ctx.chi``, ``ctx.power_a``). ``read_csv`` parses
the text of ``export.dumps_csv`` back into typed rows.
"""

import cmath
import json
from typing import NamedTuple


class ExtElement(NamedTuple):
    """a + b*sqrt(delta), both coordinates reduced mod q."""

    a: int
    b: int

    def is_zero(self):
        return self.a == 0 and self.b == 0


EXT_ONE = ExtElement(1, 0)


def ext_mul(ctx, z, w):
    (za, zb), (wa, wb) = z, w
    return ExtElement((za * wa + ctx.delta * zb * wb) % ctx.q, (za * wb + zb * wa) % ctx.q)


def ext_norm(ctx, z):
    """N(z) = z * conj(z) = a^2 - delta*b^2, an element of F_q."""
    a, b = z
    return (a * a - ctx.delta * b * b) % ctx.q


def ext_pow(ctx, z, n):
    """z^n for n >= 0, by squaring; the inverse of a nonzero z is z^(q^2-2)."""
    if n < 0:
        raise ValueError(f"ext_pow needs an exponent n >= 0, got {n}")
    out = EXT_ONE
    base = z
    while n:
        if n & 1:
            out = ext_mul(ctx, out, base)
        base = ext_mul(ctx, base, base)
        n >>= 1
    return out


def _prime_factors(n):
    out, d = [], 2
    while n > 1:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out


def lexicographic_generators(ctx):
    """(g, zeta) for ctx.q and ctx.delta: the first c in 2, 3, ... and the first (a, b) != (0, 0)
    in lexicographic order whose power (group order)/p is not 1 for every prime p of the order."""
    q = ctx.q
    g = next(c for c in range(2, q) if all(pow(c, (q - 1) // p, q) != 1 for p in _prime_factors(q - 1)))
    n2 = q * q - 1
    factors = _prime_factors(n2)
    zeta = next(z for z in (ExtElement(a, b) for a in range(q) for b in range(q))
                if not z.is_zero() and all(ext_pow(ctx, z, n2 // p) != EXT_ONE for p in factors))
    return g, zeta


def quadratic_character(ctx, a):
    """+1 on the nonzero squares of F_q, -1 on the non-squares, 0 at 0."""
    a %= ctx.q
    return 0 if a == 0 else 1 if pow(a, (ctx.q - 1) // 2, ctx.q) == 1 else -1


def ext_trace(ctx, z):
    """Tr(z) = z + conj(z) = 2a, an element of F_q."""
    return 2 * z.a % ctx.q


def norm_one_subgroup(ctx):
    """All z with N(z) = 1, as the q+1 powers of zeta^(q-1) in their cyclic order from 1."""
    gen, out = ext_pow(ctx, ctx.zeta, ctx.q - 1), [EXT_ONE]
    while len(out) <= ctx.q:
        out.append(ext_mul(ctx, out[-1], gen))
    assert ext_mul(ctx, out[-1], gen) == EXT_ONE, "norm-one subgroup must close after q+1 steps"
    return out


def beta(ctx, j, a):
    """Character of F_q^x with index j mod (q-1), evaluated at nonzero a."""
    a %= ctx.q
    if a == 0:
        raise ValueError("beta is only defined on F_q^x (a = 0 given)")
    return cmath.exp(2j * cmath.pi * (j * int(ctx.dlog[a]) % (ctx.q - 1)) / (ctx.q - 1))


def ext_char(ctx, j, z):
    """Character of F_q(sqrt(delta))^x with index j mod (q^2-1), at nonzero z."""
    if z.is_zero():
        raise ValueError("character undefined at zero")
    n2 = ctx.q * ctx.q - 1
    return cmath.exp(2j * cmath.pi * (j * int(ctx.dlog2[z.a * ctx.q + z.b]) % n2) / n2)


def nu(ctx, j, u):
    """ext_char restricted to U; rejects N(u) != 1."""
    if ext_norm(ctx, u) != 1:
        raise ValueError(f"nu is only defined on the norm-one subgroup, N({u}) != 1")
    return ext_char(ctx, j, u)


def u_index(ctx, u):
    """Position of u in the cyclic order of U generated by zeta^(q-1)."""
    if ext_norm(ctx, u) != 1:
        raise ValueError(f"element {u} is not in the norm-one subgroup")
    m = int(ctx.dlog2[u.a * ctx.q + u.b])
    assert m % (ctx.q - 1) == 0  # N(zeta^m) = zeta^(m(q+1)) = 1 forces (q-1) | m
    return m // (ctx.q - 1)


def nu0(ctx, u):
    """Sign character of U: +1 on squares in U, i.e. on even cyclic indices."""
    return -1 if u_index(ctx, u) % 2 else 1


def _parse_cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_csv(path):
    """The (preamble dict, header, typed rows) of a file holding the text of dumps_csv."""
    preamble, header, rows = {}, None, []
    with open(path, encoding="utf-8") as fh:
        for line in filter(None, fh.read().split("\n")):
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                preamble[key] = json.loads(value)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([_parse_cell(c) for c in line.split(",")])
    return preamble, header, rows
