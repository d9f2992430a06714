"""The method of images: quotient heat kernel as a stabilizer average.

The half-plane is the quotient of the full 2x2 matrix group by the
stabilizer K of sqrt(delta) (order q^2-1). Lifting the sphere to the group
multiplies every adjacency count by |K|, so the lifted Laplacian must be
normalized by |K| before its kernel, averaged over each coset g*K,
reproduces the quotient kernel. Both the exact intertwining identity and
the kernel equality are checked here. The lifted kernel is a random walk on
the group applied through a |G| x (q+1) array of cosets, so no |G| x |G|
matrix is built (|G| = 2,016 at q=7).
"""

import time

from fuhp import field_context, method_of_images_check

for q in (3, 5, 7):
    ctx = field_context(q)
    start = time.perf_counter()
    report = method_of_images_check(ctx, 1, [0.0, 0.1, 1.0, 5.0])
    elapsed = time.perf_counter() - start
    print(f"=== q={q}")
    print(f"group order {report.group_order}, stabilizer order {report.stabilizer_order}, "
          f"lifted generating set {report.generating_set_size}")
    print(f"exact intertwining A_lift P = |K| P A: {report.intertwining_exact} "
          f"(measured scaling {report.measured_scaling:.1f})")
    for t, dev in report.deviation_by_t.items():
        print(f"  t={t:4.1f}: max |K-average - quotient kernel| = {dev:.3e}")
    print(f"elapsed {elapsed:.2f}s\n")
