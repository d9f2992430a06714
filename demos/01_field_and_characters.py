"""Arithmetic groundwork: F_q, its quadratic extension, and their characters.

Everything downstream (graphs, spherical functions, theta sums) is built on
one deterministic context object: smallest non-square delta, smallest
generators, and full discrete-log tables. Run this first to see the raw
material the other demos consume.
"""

from fuhp import ExtElement, character_orthogonality_check, ext_norm, field_context

q = 5
ctx = field_context(q)
print(f"F_{q} with delta = {ctx.delta} (smallest non-square)")
print(f"generator of F_{q}^x: {ctx.g}")
print(f"generator zeta of F_{q}(sqrt({ctx.delta}))^x: {ctx.zeta.a} + {ctx.zeta.b}*sqrt({ctx.delta})")

print(f"\nsign character on F_{q}, the dlog parity table ctx.chi:", dict(enumerate(ctx.chi.tolist())))

print("\nnorm-one subgroup U, the powers u_k = zeta^((q-1)k) (cyclic order, one full lap):")
for k in range(q + 1):
    u = ExtElement(int(ctx.power_a[(q - 1) * k]), int(ctx.power_b[(q - 1) * k]))
    print(f"  u_{k} = {u.a} + {u.b}*sqrt({ctx.delta})   N = {ext_norm(ctx, u)}   "
          f"Tr = {2 * u.a % q}   nu0 = {(-1) ** k:+d}")

report = character_orthogonality_check(ctx)
print(f"\ncharacter orthogonality residuals: base field {report.base_residual:.2e}, "
      f"norm-one subgroup {report.u_residual:.2e}")
assert report.max_residual < 1e-12
print("both families are orthonormal to machine precision.")
