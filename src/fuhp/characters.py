"""Multiplicative characters of F_q^x and of the norm-one subgroup U of
F_q(sqrt(delta))^x, as arrays pinned to the deterministic generators of the context.

Characters are indexed by integers: beta_j(g^m) = exp(2*pi*i*j*m/(q-1)) on the
base field and nu_j(zeta^m) = exp(2*pi*i*j*m/(q^2-1)) on the extension, whose
subgroup U is the q+1 powers of zeta^(q-1). All values are roots of unity of
order at most q^2-1, carried in double precision.

``character_tables`` holds them once per (q, delta), the one source of
character values. Every phase there is np.exp(1j * (2*pi*(j*m mod
modulus)/modulus)) with the argument multiplied and divided in that order.
Reducing j*m first keeps the argument in [0, 2*pi), where its rounding does
not grow with |j*m|.
"""

import functools
from typing import NamedTuple

import numpy as np


class CharacterTables(NamedTuple):
    """base[j, k] = beta_j(g^k) for j, k < q-1; norm_one[j, k] = nu_j(zeta^((q-1)k)) for j, k <= q.

    Column k of norm_one is the k-th element zeta^((q-1)k) of U in its cyclic order.
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
