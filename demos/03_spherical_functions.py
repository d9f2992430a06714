"""Zonal spherical functions from their character sums, certified.

The two closed-form families (principal: a character average over sphere
y-coordinates; cuspidal: a sign-weighted character sum over the norm-one
subgroup) give the q spherical rows of (q, delta) directly. Each row is then
certified against the integer q x q intersection matrices B_r of the
distance classes: it must be a common eigenvector, B_r omega = |S_r|
omega(r) omega at every radius r. Row i of the certified rows is the i-th
character class; the table at a generating radius only reorders them.
"""

import numpy as np

from fuhp import field_context, spherical_table
from fuhp.spherical import _row_order, character_classes, closed_forms, spherical_rows

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

    rows = spherical_rows(ctx)
    row = np.argsort(_row_order(ctx, r_s)[1])  # class i -> its row of the table
    verbatim = closed_forms(ctx).cuspidal["verbatim"]  # the as-stated constant, NaN at its pole r=1
    print("certified closed forms:")
    for i, (kind, j) in enumerate(character_classes(q)):
        line = f"  {kind:9s} class {j} -> row {row[i]}  certificate residual {rows.residuals[i]:.2e}"
        if kind == "cuspidal":
            line += f"  as-stated-constant gap: {np.nanmax(np.abs(rows.omega[i] - verbatim[:, j])):.3f}"
        print(line)
    print()

print("note the nonzero as-stated gaps: the working cuspidal sum subtracts")
print("1 - r/(2*delta) inside the trace; the Mobius constant (1+r)/(1-r)")
print("agrees with it in F_q only at r = 4*delta + 1, and the rows quantify the gap.")
