"""Conjugate points and Morse indices: regular problems and the Bessel family.

The Morse index of the Dirichlet/Friedrichs realization equals the number of
interior instants where the flowed Dirichlet plane meets the Dirichlet plane
again, counted with multiplicity; toward a singular endpoint the count is
taken over a shrinking-truncation schedule and either stabilizes (finite
index) or grows forever (infinite index).
"""

import math

from symind.catalog import make_problem
from symind.sturm import conjugate_points, morse_index_dirichlet

# regular: -u'' - 100 u on (0,1): conjugate points at k pi / 10
prob = make_problem("harmonic", omega=10.0)
pts = conjugate_points(prob, (0.0, 1.0), anchor=0.0)
print("harmonic omega=10 conjugate points:",
      [f"{t:.6f}" for t, _ in pts], " (k pi/10)")
print("Morse index:", morse_index_dirichlet(prob).verdict)

# limit-circle Bessel, repulsive side: index 0, stable over the schedule
rep = morse_index_dirichlet(make_problem("bessel", q=0.5))
print("\nbessel q=0.5 truncation trace:", rep.diagnostics["delta_trace"],
      "-> verdict", rep.verdict)

# oscillatory side: zeros accumulate geometrically, the count grows forever
q = -0.25 - math.pi ** 2
rep = morse_index_dirichlet(make_problem("bessel", q=q))
print(f"\nbessel q=-1/4-pi^2 truncation trace:", rep.diagnostics["delta_trace"])
print("verdict:", rep.verdict)
shallow = [t for t, _ in rep.conjugate_points if t > math.exp(-4) * (1 + 1e-9)]
print("points above e^-4:", [f"{t:.6f}" for t in sorted(shallow)],
      " (e^-1, e^-2, e^-3)")
