"""Zonal spherical functions from their character sums, certified.

The two closed-form families (principal: a character average over sphere
y-coordinates; cuspidal: a sign-weighted character sum over the norm-one
subgroup) give the q spherical rows of (q, delta) directly. Each row is then
certified against the integer q x q intersection matrices B_r of the
distance classes: it must be a common eigenvector, B_r omega = |S_r|
omega(r) omega at every radius r. The match report gives each class its row
and its certificate residual.
"""

import numpy as np

from fuhp import field_context, match_formulas_to_oracle, spherical_table

r_s = 1
for q in (5, 7):
    ctx = field_context(q)
    table = spherical_table(ctx, r_s)
    print(f"=== q={q}: eigenvalues read at generating radius r_s={r_s}")
    print(f"omega[i, r], row i at radius r = 0..{q - 1}:")
    with np.printoptions(precision=6, suppress=True):
        print(table.omega)
    print("multiplicities d_i:", table.degrees.tolist(),
          " (sum =", int(table.degrees.sum()), "= q(q-1))")
    print("Laplacian eigenvalues:", np.round(table.laplacian_eigenvalues, 6).tolist())

    report = match_formulas_to_oracle(ctx, r_s)
    print("certified closed forms:")
    for m in report.matches:
        line = (f"  {m.kind:9s} class {m.index} -> row {m.row}  "
                f"certificate residual {m.max_deviation:.2e}")
        if m.kind == "cuspidal":
            line += f"  antipodal reading: {m.infinity_reading}"
            line += f"  as-stated-constant gap: {m.verbatim_deviation:.3f}"
        print(line)
    print()

print("note the nonzero as-stated gaps: the working cuspidal sum subtracts")
print("1 - r/(2*delta) inside the trace; the Mobius constant (1+r)/(1-r)")
print("agrees with it in F_q only at r = 4*delta + 1, and the report quantifies the gap.")
