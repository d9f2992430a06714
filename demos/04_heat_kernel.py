"""The heat kernel E(t; r): spectral expansion vs matrix exponential.

At q=3 the expansion collapses to three exponentials that can be written
by hand; the demo prints them next to the oracle. It then shows unit mass,
positivity, the approach to equilibrium, and the recovery of the initial
condition as t -> 0+.
"""

import math

import numpy as np

from fuhp import (
    build_graph,
    field_context,
    heat_kernel_oracle,
    heat_kernel_spectral,
    initial_condition_check,
    spherical_table,
)

ctx = field_context(3)
graph = build_graph(ctx, 1)
table = spherical_table(ctx, 1)

print("q=3 closed form: E(t;0) = 1 + 3e^(-4t) + 2e^(-6t)")
print("                 E(t;1) = 1 - e^(-6t)")
print("                 E(t;2) = 1 - 3e^(-4t) + 2e^(-6t)\n")
print(f"{'t':>6} {'E(t;0)':>12} {'E(t;1)':>12} {'E(t;2)':>12} {'closed-form dev':>16} {'oracle dev':>12}")
t_grid = (0.0, 0.1, 0.5, 1.0, 5.0)
spec = heat_kernel_spectral(table, t_grid)  # [t, r], column r for radius r
orac = heat_kernel_oracle(graph, t_grid).by_radius  # one walk for the whole grid
for t, kern, orac_row in zip(t_grid, spec, orac):
    e4, e6 = math.exp(-4 * t), math.exp(-6 * t)
    closed = {0: 1 + 3 * e4 + 2 * e6, 1: 1 - e6, 2: 1 - 3 * e4 + 2 * e6}
    dev_c = max(abs(kern[r] - closed[r]) for r in closed)
    print(f"{t:6.2f} {kern[0]:12.8f} {kern[1]:12.8f} {kern[2]:12.8f} "
          f"{dev_c:16.2e} {np.abs(kern - orac_row).max():12.2e}")

print("\nmass and positivity at q=7, r_s=1:")
ctx7 = field_context(7)
graph7 = build_graph(ctx7, 1)
t_grid7 = (0.0, 0.1, 1.0, 10.0)
for t, kern in zip(t_grid7, heat_kernel_oracle(graph7, t_grid7).by_vertex):
    print(f"  t={t:5.2f}: mean = {kern.mean():.12f}, min = {kern.min():+.3e}")

print("\ninitial condition: residual of the weighted mean against f(base), q=5")
rng = np.random.default_rng(1)
graph5 = build_graph(field_context(5), 1)
f = rng.random(graph5.n)
for t, res in zip((1e-2, 1e-4, 1e-6), initial_condition_check(graph5, f, [1e-2, 1e-4, 1e-6])):
    print(f"  t={t:8.0e}: residual {res:.3e}  (bound 2(q+1)t*max|f| = {12 * t * f.max():.3e})")
