"""Zonal spherical functions three ways, and their reconciliation.

The spectral route needs no formulas: the q x q quotient matrices of the
distance classes share their eigenvectors, and one symmetric eigensolve
gives every spherical row of (q, delta) at once. The two closed-form families (principal: a character average over sphere
y-coordinates; cuspidal: a sign-weighted character sum over the norm-one
subgroup) are then matched row by row against that oracle.
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
    print("closed-form match:")
    for m in report.matches:
        line = (f"  {m.kind:9s} class {m.index} -> row {m.row}  "
                f"max deviation {m.max_deviation:.2e}")
        if m.kind == "cuspidal":
            line += f"  antipodal reading: {m.infinity_reading}"
            line += f"  as-stated-constant gap: {m.verbatim_deviation:.3f}"
        print(line)
    print()

print("note the nonzero as-stated gaps: the working cuspidal sum subtracts")
print("1 - r/(2*delta) inside the trace; the Mobius constant (1+r)/(1-r)")
print("reproduces only isolated classes, and the match quantifies that.")
