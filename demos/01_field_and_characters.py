"""Arithmetic groundwork: F_q, its quadratic extension, and their characters.

Everything downstream (graphs, spherical functions, theta sums) is built on
one deterministic context object: smallest non-square delta, smallest
generators, and full discrete-log tables. Run this first to see the raw
material the other demos consume.
"""

from fuhp import character_orthogonality_check, field_context

q = 5
ctx = field_context(q)
print(f"F_{q} with delta = {ctx.delta} (smallest non-square)")
print(f"generator of F_{q}^x: {ctx.g}")
zeta_a, zeta_b = ctx.zeta
print(f"generator zeta of F_{q}(sqrt({ctx.delta}))^x: {zeta_a} + {zeta_b}*sqrt({ctx.delta})")

print(f"\nsign character on F_{q}, the dlog parity table ctx.chi:", dict(enumerate(ctx.chi.tolist())))

print("\nnorm-one subgroup U, the powers u_k = zeta^((q-1)k) (cyclic order, one full lap):")
for k in range(q + 1):
    a, b = int(ctx.power_a[(q - 1) * k]), int(ctx.power_b[(q - 1) * k])
    print(f"  u_{k} = {a} + {b}*sqrt({ctx.delta})   N = {(a * a - ctx.delta * b * b) % q}   "
          f"Tr = {2 * a % q}   nu0 = {(-1) ** k:+d}")

report = character_orthogonality_check(ctx)
print(f"\ncharacter orthogonality residuals: base field {report.base_residual:.2e}, "
      f"norm-one subgroup {report.u_residual:.2e}")
assert report.max_residual < 1e-12
print("both families are orthonormal to machine precision.")
