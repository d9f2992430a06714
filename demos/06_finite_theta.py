"""Finite theta sums: the kernel as a double exponential sum, both readings.

The reconciled mode regroups the spectral kernel over the character
lattice: its spherical functions are the certified character sums, so it
is the spectral kernel, and the audit compares it with the independent
Fourier inversion on the affine group. The verbatim mode
evaluates the stated closed-form double sum literally, radius-dependent
exponents and all; its gap from the kernel is printed, not patched.
The classical theta series is evaluated for comparison.
"""


from fuhp import (
    classical_theta,
    field_context,
    finite_theta,
    spherical_table,
    theta_consistency_report,
)
from fuhp.heat import heat_kernel_affine

q = 5
r_s = 1
ctx = field_context(q)
table = spherical_table(ctx, r_s)
print(f"q={q}, generating radius r_s={r_s}\n")

print("reconciled mode against the affine-group kernel:")
t_grid = (0.0, 0.1, 1.0)
affine = heat_kernel_affine(ctx, r_s, t_grid)
for t, row in zip(t_grid, affine):
    worst = max(abs(finite_theta(ctx, table, r, t) - row[r]) for r in range(q))
    print(f"  t={t:4.1f}: max |reconciled - affine| = {worst:.2e}")

print("\nverbatim mode (the as-printed double sum), radius 2:")
for t in (0.1, 1.0):
    rec = finite_theta(ctx, table, 2, t, mode="reconciled")
    verb = finite_theta(ctx, table, 2, t, mode="verbatim")
    print(f"  t={t:4.1f}: reconciled {rec:12.6f}   verbatim {verb:12.6f}   gap {abs(verb - rec):.3e}")

report = theta_consistency_report(ctx, r_s, [0.1, 1.0])
reconciled_gap = report.reconciled_deviation[:, report.radii].max()
print(f"\nfull audit: reconciled column max deviation {reconciled_gap:.2e}, "
      f"verbatim max deviation {report.max_verbatim_deviation:.3e} (a finding, not an error)")

print("\nclassical theta on the circle, theta(0, it):")
for t in (0.5, 1.0, 5.0):
    value, bound = classical_theta(0.0, t, n_max=20)
    print(f"  t={t:4.1f}: {value.real:.15f}  (truncation bound {bound:.1e})")
print("the n=0 term dominates as t grows, so the values approach 1;")
print("at t=1 the value 1.086434811213308 is the benchmark constant.")
