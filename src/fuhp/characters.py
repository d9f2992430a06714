"""Multiplicative characters of F_q^x, of the norm-one subgroup U, and of
F_q(sqrt(delta))^x, all pinned to the deterministic generators of the context.

Characters are indexed by integers: beta_j(g^m) = exp(2*pi*i*j*m/(q-1)) on the
base field and nu_j(zeta^m) = exp(2*pi*i*j*m/(q^2-1)) on the extension. All
values are roots of unity of order at most q^2-1, carried in double precision.

``character_tables`` holds the same values as arrays. Every phase there is
np.exp(1j * (2*pi*(j*m mod modulus)/modulus)) with the argument multiplied and
divided in that order, as the scalar cmath expression forms it, so each entry
equals the scalar value wherever numpy's exp rounds like the C library's sin
and cos. Reducing j*m first keeps the argument in [0, 2*pi), where its
rounding does not grow with |j*m|.
"""

import cmath
import functools
from typing import NamedTuple

import numpy as np

from .field import ext_norm


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
    """ext_char restricted to the norm-one subgroup U; rejects N(u) != 1."""
    if ext_norm(ctx, u) != 1:
        raise ValueError(f"nu is only defined on the norm-one subgroup, N({u}) != 1")
    return ext_char(ctx, j, u)


def u_index(ctx, u):
    """Position of u in the cyclic order of U generated by zeta^(q-1)."""
    if ext_norm(ctx, u) != 1:
        raise ValueError(f"element {u} is not in the norm-one subgroup")
    m = int(ctx.dlog2[u.a * ctx.q + u.b])
    # N(zeta^m) = zeta^(m(q+1)) = 1 forces (q-1) | m
    assert m % (ctx.q - 1) == 0
    return m // (ctx.q - 1)


def nu0(ctx, u):
    """Sign character of U: +1 on squares in U, i.e. on even cyclic indices."""
    return -1 if u_index(ctx, u) % 2 else 1


class CharacterTables(NamedTuple):
    """base[j, k] = beta_j(g^k) for j, k < q-1; norm_one[j, k] = nu_j(zeta^((q-1)k)) for j, k <= q.

    Column k of norm_one is the k-th element of ``norm_one_subgroup``.
    """

    base: np.ndarray
    norm_one: np.ndarray


@functools.lru_cache(maxsize=1)
def character_tables(ctx):
    """The characters of F_q^x and of U as arrays, built once per (q, delta); do not modify."""
    q = ctx.q
    j = np.arange(q - 1)
    base = np.exp(1j * (2 * np.pi * (j[:, None] * j % (q - 1)) / (q - 1)))
    k = np.arange(q + 1)
    norm_one = np.exp(1j * (2 * np.pi * (k[:, None] * ((q - 1) * k) % (q * q - 1)) / (q * q - 1)))
    return CharacterTables(base, norm_one)


class OrthogonalityReport(NamedTuple):
    """Maximum residuals of the character orthogonality sums."""

    base_residual: float
    u_residual: float

    @property
    def max_residual(self):
        return max(self.base_residual, self.u_residual)


def character_orthogonality_check(ctx):
    """Verify sum_a beta_j(a) conj(beta_k(a)) = (q-1)[j=k] and the analogue on U.

    Both sums are Gram matrices of the character tables. Returns the report
    with the largest residual over all index pairs; callers compare it with
    their own tolerance.
    """
    q = ctx.q
    tables = character_tables(ctx)
    base = tables.base @ tables.base.conj().T
    u = tables.norm_one @ tables.norm_one.conj().T
    return OrthogonalityReport(
        base_residual=float(np.abs(base - (q - 1) * np.eye(q - 1)).max()),
        u_residual=float(np.abs(u - (q + 1) * np.eye(q + 1)).max()),
    )
