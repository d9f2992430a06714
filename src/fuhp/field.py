"""Exact arithmetic in F_q (q an odd prime) and its quadratic extension F_q(sqrt(delta)).

A ``FieldCtx`` bundles the modulus q, a fixed non-square delta, deterministic
generators of both multiplicative groups, and complete power and
discrete-log tables as read-only integer arrays. Generators are always the
smallest candidates (lexicographic (a, b) order in the extension), so every
index derived from them -- character labels, theta phases -- is reproducible
across runs and machines.

Elements of F_q are plain ints reduced mod q; elements of F_q(sqrt(delta))
are ``ExtElement`` pairs (a, b) standing for a + b*sqrt(delta), the
single-element API. The arithmetic functions read only the coordinates, so
they also act elementwise on an ``ExtElement`` of integer arrays.
"""

from typing import NamedTuple

import numpy as np


def is_odd_prime(n):
    """Trial-division primality test, restricted to odd n >= 3."""
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def find_nonsquare(q):
    """Smallest positive residue that is not a quadratic residue mod q."""
    if not is_odd_prime(q):
        raise ValueError(f"q must be an odd prime >= 3, got {q}")
    return next(a for a in range(2, q) if pow(a, (q - 1) // 2, q) != 1)  # Euler's criterion


class ExtElement(NamedTuple):
    """a + b*sqrt(delta), both coordinates reduced mod q."""

    a: int
    b: int

    def is_zero(self):
        return self.a == 0 and self.b == 0


EXT_ONE = ExtElement(1, 0)
EXT_ZERO = ExtElement(0, 0)


class FieldCtx(NamedTuple):
    """Arithmetic context for F_q and F_q(sqrt(delta)).

    g generates F_q^x (order q-1), zeta generates F_q(sqrt(delta))^x
    (order q^2-1). The tables are read-only int64 arrays:

    power_a[m], power_b[m]: coordinates of zeta^m for m = 0..q^2-2;
    dlog[a]: discrete log of a to base g, with dlog[0] = -1;
    dlog2[a*q + b]: discrete log of a + b*sqrt(delta) to base zeta, with dlog2[0] = -1;
    chi[x]: the quadratic character of x, with chi[0] = 0;
    inverse[a]: the inverse of a in F_q^x, with inverse[0] = 0.

    Equality and hash read (q, delta, g, zeta) only: the tables follow from
    them. Every per-(q, delta) cache is keyed on the context and holds one
    (maxsize=1): the CLI and ``verify`` never return to an earlier (q, delta).
    """

    q: int
    delta: int
    g: int
    zeta: ExtElement
    power_a: np.ndarray = None
    power_b: np.ndarray = None
    dlog: np.ndarray = None
    dlog2: np.ndarray = None
    chi: np.ndarray = None
    inverse: np.ndarray = None

    def __eq__(self, other):
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return self[:4] == other[:4]

    def __ne__(self, other):  # tuple's own __ne__ would compare the tables
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self[:4])


def ext_mul(ctx, z, w):
    q, d = ctx.q, ctx.delta
    return ExtElement((z.a * w.a + d * z.b * w.b) % q, (z.a * w.b + z.b * w.a) % q)


def ext_norm(ctx, z):
    """N(z) = z * conj(z) = a^2 - delta*b^2, an element of F_q."""
    return (z.a * z.a - ctx.delta * z.b * z.b) % ctx.q


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


def field_context(q, delta=None):
    """Build the full arithmetic context for F_q and F_q(sqrt(delta)).

    delta defaults to the smallest non-square mod q; an explicit delta is
    validated. Raises ValueError for non-prime or even q, or a delta that
    is 0 or a square mod q.
    """
    nonsquare = find_nonsquare(q)  # validates q
    if delta is None:
        delta = nonsquare
    elif delta % q == 0:
        raise ValueError(f"delta={delta} is 0 mod {q}; need a non-square")
    else:
        delta %= q
        if pow(delta, (q - 1) // 2, q) == 1:
            raise ValueError(f"delta={delta} is a square mod {q}; need a non-square")

    # smallest generator of F_q^x
    base_factors = _prime_factors(q - 1)
    g = None
    for c in range(2, q):
        if all(pow(c, (q - 1) // p, q) != 1 for p in base_factors):
            g = c
            break
    assert g is not None, "cyclic group F_q^x must have a generator"

    # smallest generator of F_q(sqrt(delta))^x in lexicographic (a, b) order
    n2 = q * q - 1
    ext_factors = _prime_factors(n2)
    ctx0 = FieldCtx(q=q, delta=delta, g=g, zeta=EXT_ONE)
    zeta = None
    for a in range(q):
        for b in range(q):
            cand = ExtElement(a, b)
            if cand.is_zero():
                continue
            if all(ext_pow(ctx0, cand, n2 // p) != EXT_ONE for p in ext_factors):
                zeta = cand
                break
        if zeta is not None:
            break
    assert zeta is not None, "cyclic group F_{q^2}^x must have a generator"

    powers = np.array([pow(g, m, q) for m in range(q - 1)], dtype=np.int64)
    dlog = np.full(q, -1, dtype=np.int64)
    dlog[powers] = np.arange(q - 1)
    inverse = np.zeros(q, dtype=np.int64)
    inverse[powers] = powers[-np.arange(q - 1) % (q - 1)]
    chi = 1 - 2 * (dlog % 2)
    chi[0] = 0
    # zeta^m for m in [k, 2k) is zeta^(m-k) * zeta^k: one vectorised product per doubling of k
    power_a, power_b = np.ones(n2, dtype=np.int64), np.zeros(n2, dtype=np.int64)
    k, step = 1, zeta
    while k < n2:
        block = ext_mul(ctx0, ExtElement(power_a[:k], power_b[:k]), step)
        power_a[k : 2 * k], power_b[k : 2 * k] = block.a[: n2 - k], block.b[: n2 - k]
        k, step = 2 * k, ext_mul(ctx0, step, step)
    dlog2 = np.full(q * q, -1, dtype=np.int64)
    dlog2[power_a * q + power_b] = np.arange(n2)
    assert np.all(dlog2[1:] >= 0), "powers of zeta must exhaust the group"
    for table in (power_a, power_b, dlog, dlog2, chi, inverse):
        table.flags.writeable = False
    return ctx0._replace(zeta=zeta, power_a=power_a, power_b=power_b, dlog=dlog, dlog2=dlog2, chi=chi,
                        inverse=inverse)

