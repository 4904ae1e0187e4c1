"""Crossing forms and the CLM Maslov index on the rotating-line example.

The line span{(cos t, sin t)} crosses the p-axis at multiples of pi; each
counterclockwise crossing carries a positive crossing form, and the index
rule is n_+ at the left endpoint, the signature in the interior, -n_- at the
right endpoint.
"""

import numpy as np

from symind.core import LagrangianFrame, SymplecticSpace, line_frame
from symind.maslov import LagrangianPath, crossing_form, maslov_clm

space = SymplecticSpace.standard(1)
ref = line_frame(space, [1.0, 0.0])


def ccw(a, b):
    # one frame per instant; LagrangianPath(space, frames, a, b) takes a
    # sampler that maps an array of instants to a stack of frames instead
    return LagrangianPath.pointwise(
        space, lambda t: LagrangianFrame(space, np.array([[np.cos(t)], [np.sin(t)]])), a, b)


print("crossing form of the counterclockwise line at t=0:",
      crossing_form(ccw(-0.5, 0.5), ref, 0.0))

for (a, b) in ((-np.pi / 4, np.pi / 4), (0.0, np.pi), (0.3, 2 * np.pi + 0.3)):
    mu, recs = maslov_clm(LagrangianPath.constant(ref, a, b), ccw(a, b))
    where = ", ".join(f"t={r.t:.4f} inertia={tuple(r.inertia.__dict__.values())}"
                      for r in recs)
    print(f"mu over [{a:+.3f}, {b:+.3f}] = {mu}   crossings: {where}")

# a transversal constant pair never contributes
mov = LagrangianPath.constant(line_frame(space, [0.0, 1.0]), 0.0, 1.0)
mu, _ = maslov_clm(LagrangianPath.constant(ref, 0.0, 1.0), mov)
print("constant transversal pair:", mu)
