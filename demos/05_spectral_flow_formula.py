"""Spectral flow of a ramped operator family against the boundary Maslov
index: spfl = -mu(boundary condition path, monodromy graph path).

The family -u'' - 100 s u on (0,1) with Dirichlet ends loses three
eigenvalues through zero as s runs over [0,1]; the monodromy graph crosses
the Dirichlet product plane three times, each positively.
"""

import numpy as np

from symind.spectral import EigenTrace, discretized_family, verify_sf_formula
from symind.sturm import SLProblem

problem = SLProblem(1, (0.0, 1.0), 1.0, 0.0, 0.0,
                    c=lambda s, t: np.array([[-100.0 * s]]))

out = verify_sf_formula(problem, "dirichlet", (0.0, 1.0), N=256)
print("spectral flow:", out["sf"])
print("maslov index: ", out["maslov"])
print("spfl = -mu:   ", out["agree"])
print("graph crossings (s, multiplicity, inertia):")
for t, m, inertia in out["crossings"]:
    print(f"  s = {t:.6f}  mult {m}  inertia {inertia}   [(k pi)^2/100 = "
          f"{[round((k * np.pi) ** 2 / 100, 6) for k in (1, 2, 3)]}]")

fam = discretized_family(problem, "dirichlet", 256)
trace = EigenTrace.collect(fam, np.linspace(0, 1, 9), m=4)
print("\nlowest eigenvalues along the family:")
for s, row in zip(trace.s_grid, trace.eigenvalues):
    print(f"  s = {s:.3f}: " + "  ".join(f"{v:9.3f}" for v in row))
