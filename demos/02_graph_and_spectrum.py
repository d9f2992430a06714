"""The Cayley graphs on the finite upper half-plane and their spectra.

The q(q-1) points x + y*sqrt(delta), y != 0, are joined when their
pseudo-distance equals the chosen generating radius. At q=3 the graph is
the octahedron; for larger q these are the classical (q+1)-regular
Ramanujan graphs, which the script checks numerically.
"""

import math

import numpy as np

from fuhp import build_graph, degenerate_radii, field_context
from fuhp.uhp import scheme

# -- q = 3: the octahedron ---------------------------------------------------
ctx = field_context(3)
g = build_graph(ctx, 1)
print(f"q=3, r_s=1: {g.n} vertices, degree {ctx.q + 1}")
print("adjacency:")
print(g.adjacency)
laplacian = (ctx.q + 1) * np.eye(g.n) - g.adjacency  # combinatorial Laplacian (q+1)*I - A
print("Laplacian spectrum:", np.round(np.linalg.eigvalsh(laplacian), 10))
print("orbit sizes around sqrt(delta), by radius:", scheme(ctx).sizes.tolist())

# -- larger q: every regular radius gives a Ramanujan graph -------------------
for q in (5, 13):
    ctx = field_context(q)
    bound = 2 * math.sqrt(q)
    print(f"\nq={q} (delta={ctx.delta}), Ramanujan bound 2*sqrt(q) = {bound:.4f}")
    for r_s in range(q):
        if r_s in degenerate_radii(ctx):
            continue
        graph = build_graph(ctx, r_s)
        w = np.linalg.eigvalsh(graph.adjacency.astype(float))
        nontrivial = w[np.abs(np.abs(w) - (q + 1)) > 1e-8]
        worst = np.abs(nontrivial).max()
        print(f"  r_s={r_s:2d}: max nontrivial |eigenvalue| = {worst:.6f}  "
              f"({'inside' if worst <= bound else 'OUTSIDE'} the bound)")
