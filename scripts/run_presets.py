#!/usr/bin/env python3
"""Run every landmark preset and print the full reports.

Covers the circle cover, the affine torus models for 0 <= k <= n <= 3,
and the projective line with its spectral pages, including the checks
that tie the routes together (trivial-cover hypercohomology against the
form complex, E_infinity sums against the total cohomology).
"""

import sys
import time

from cohom.cech import cech_cohomology
from cohom.forms import derham_cohomology, pole_filtration_dims
from cohom.presets import build_circle, build_torus, p1_report, torus_report


def main():
    t0 = time.time()
    nerve, sheaf = build_circle()
    print("circle cover:", cech_cohomology(nerve, sheaf).dims)

    for n in range(0, 4):
        for k in range(0, n + 1):
            spec = build_torus(k, n)
            rep = derham_cohomology(spec)
            line = f"torus k={k} n={n}: dims {rep.dims}"
            if (k, n) in [(1, 1), (2, 2), (3, 3), (1, 2)]:
                tr = torus_report(k, n)
                line += f", trivial-cover hyper {tr.hyper_dims}"
            pf = pole_filtration_dims(spec, 2)
            line += f", pole filtration {pf.levels} (stabilizes at {pf.stabilization})"
            print(line)

    rep = p1_report(4)
    print(f"p1 (window {rep.window}): dims {rep.dims}")
    print("  E_1 second filtration:", {pq: d for pq, d in rep.e1_second.items() if d})
    print("  H^2 generator:", rep.h2_representative)
    cert = rep.hyper.certificate
    print("  degeneration pages:", cert.first_degeneration, cert.second_degeneration)
    print(f"done in {time.time() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
