"""Exact arithmetic in F_q (q an odd prime) and its quadratic extension F_q(sqrt(delta)).

A ``FieldCtx`` bundles the modulus q, a fixed non-square delta, deterministic
generators of both multiplicative groups, and complete power and
discrete-log tables as read-only integer arrays. Generators are always the
smallest candidates (lexicographic (a, b) order in the extension), so every
index derived from them -- character labels, theta phases -- is reproducible
across runs and machines.

Elements of F_q are ints reduced mod q; an element of F_q(sqrt(delta)) is
a coordinate pair (a, b) standing for a + b*sqrt(delta), whose entries may
be ints or integer arrays, so the arithmetic acts on a whole array at once.
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


class FieldCtx(NamedTuple):
    """Arithmetic context for F_q and F_q(sqrt(delta)).

    g generates F_q^x (order q-1), zeta = (a, b), a pair of ints, generates
    F_q(sqrt(delta))^x (order q^2-1). The tables are read-only int64 arrays:

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
    zeta: tuple
    power_a: np.ndarray
    power_b: np.ndarray
    dlog: np.ndarray
    dlog2: np.ndarray
    chi: np.ndarray
    inverse: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return self[:4] == other[:4]

    def __ne__(self, other):  # tuple's own __ne__ would compare the tables
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self[:4])


def _mul(q, delta, z, w):
    """The product of coordinate pairs z and w, whose entries may be ints or integer arrays."""
    (a, b), (c, d) = z, w
    return (a * c + delta * b * d) % q, (a * d + b * c) % q


def _pow(q, delta, z, n):
    """z^n of a coordinate pair z for n >= 1, by squaring."""
    out = (1, 0)
    while n:
        if n & 1:
            out = _mul(q, delta, out, z)
        z = _mul(q, delta, z, z)
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

    # smallest generator of F_q(sqrt(delta))^x in lexicographic (a, b) order, one row (a, 0..q-1) at a time
    n2 = q * q - 1
    ext_factors = _prime_factors(n2)
    b = np.arange(q)
    zeta = None
    for a in range(q):
        passing = (a != 0) | (b != 0)  # 0 is not in the group
        for p in ext_factors:
            pa, pb = _pow(q, delta, (a, b), n2 // p)
            passing &= (pa != 1) | (pb != 0)
        hits = np.flatnonzero(passing)
        if hits.size:
            zeta = (a, int(hits[0]))
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
        block_a, block_b = _mul(q, delta, (power_a[:k], power_b[:k]), step)
        power_a[k : 2 * k], power_b[k : 2 * k] = block_a[: n2 - k], block_b[: n2 - k]
        k, step = 2 * k, _mul(q, delta, step, step)
    dlog2 = np.full(q * q, -1, dtype=np.int64)
    dlog2[power_a * q + power_b] = np.arange(n2)
    assert np.all(dlog2[1:] >= 0), "powers of zeta must exhaust the group"
    for table in (power_a, power_b, dlog, dlog2, chi, inverse):
        table.flags.writeable = False
    return FieldCtx(q, delta, g, zeta, power_a, power_b, dlog, dlog2, chi, inverse)
