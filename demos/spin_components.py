"""Build every qubit cloning component for N=1 -> M=3 and measure it.

Every covariant, permutation-symmetric component carries a label (m, mu)
of the domain that omega max searches: m a partition of M into two
rows, mu the N input boxes.  Each label gives a concrete channel;
measuring omega on the constructed channel reproduces the exact Casimir
formula, and the maximizing label reproduces the optimal cloner.
"""
import numpy as np

from cloneopt import (
    ClonerSpec,
    choi,
    enumerate_W1,
    maximize_brute,
    omega_measure,
    omega_of_point,
    optimal_cloner,
    su2_component_cloner,
)

N, M = 1, 3
print(f"qubit components for N={N} -> M={M}:\n")

for point in enumerate_W1(2, N, M):
    measured = omega_measure(su2_component_cloner(point))
    exact = omega_of_point(point, 2, N, M)
    print(f"  m={point.m}, mu={point.mu}:  omega measured {measured:.10f}"
          f"  exact {exact}")

best = maximize_brute(2, N, M).maximizers[0]
component = su2_component_cloner(best)
reference = optimal_cloner(ClonerSpec(2, N, M))
dist = np.max(np.abs(np.linalg.eigvalsh(choi(component) - choi(reference))))
print(f"\nmaximizing label m={best.m}, mu={best.mu} vs optimal cloner:")
print("Choi distance =", float(dist))
