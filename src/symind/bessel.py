"""Closed-form machinery for Bessel-type operators -d^2/dt^2 + q/t^2.

The coupling q is reparametrized by q(r) = -1/4 + r^2 for r >= 0 and
-1/4 - r^2 for r < 0, a bijection (-inf, 1) -> (-inf, 3/4).  The solution
pair near t = 0 is

    r in (0,1):  y1 = (t^(1/2-r) + t^(1/2+r))/2,   y2 = (t^(1/2+r) - t^(1/2-r))/(2r)
    r = 0:       y1 = t^(1/2),                      y2 = t^(1/2) ln t
    r < 0:       y1 = t^(1/2) cos(r ln t),          y2 = t^(1/2) sin(r ln t)/r

with constant boundary bracket [y1, y2] = -1 for every r.  These formulas are
the analytic oracle for the numeric Sturm-Liouville machinery.

A matrix end -x'' + D x / t^2 splits along D = V diag(lam) V^T into one
scalar end per eigenvalue: limit circle below 3/4 (``limit_circle``),
oscillatory below -1/4 (``direction_classes``).
"""

from __future__ import annotations

import math
import numpy as np

from .core import LagrangianFrame, SymplecticSpace, line_frame
from .errors import LimitPointNoCondition, OutOfRange

THRESHOLD_Q = -0.25
LIMIT_POINT_Q = 0.75
THRESHOLD_TOL = 1e-12

FINITE_MORSE = "Finite"
INFINITE_MORSE = "Infinite"
THRESHOLD = "Threshold"


def q_of_r(r: float) -> float:
    """q(r) = -1/4 + r^2 (r >= 0), -1/4 - r^2 (r < 0); documented for r < 1."""
    if r >= 1.0:
        raise OutOfRange("the reparametrization is documented on r < 1")
    return -0.25 + r * r if r >= 0 else -0.25 - r * r


def r_of_q(q: float) -> float:
    """Inverse of q_of_r on q < 3/4."""
    if not limit_circle(q):
        raise OutOfRange("inverse defined for q < 3/4")
    if q >= THRESHOLD_Q:
        return math.sqrt(q + 0.25)
    return -math.sqrt(-0.25 - q)


def singular_solutions(r: float, t):
    """(y1, y2, y1', y2') of -y'' + q(r) y / t^2 = 0 at t > 0, branch-correct.

    The r -> 0 limits of the r > 0 formulas match the r = 0 formulas to O(r).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("solutions are defined for t > 0")
    half = np.sqrt(t)
    if r > 0:
        tp = t ** (0.5 + r)
        tm = t ** (0.5 - r)
        y1 = 0.5 * (tm + tp)
        y2 = (tp - tm) / (2.0 * r)
        dy1 = 0.5 * ((0.5 - r) * tm + (0.5 + r) * tp) / t
        dy2 = ((0.5 + r) * tp - (0.5 - r) * tm) / (2.0 * r * t)
    elif r == 0:
        log = np.log(t)
        y1 = half
        y2 = half * log
        dy1 = 0.5 / half
        dy2 = (0.5 * log + 1.0) / half
    else:
        phase = r * np.log(t)
        y1 = half * np.cos(phase)
        y2 = half * np.sin(phase) / r
        dy1 = (0.5 * np.cos(phase) - r * np.sin(phase)) / half
        dy2 = (0.5 * np.sin(phase) / r + np.cos(phase)) / half
    return y1, y2, dy1, dy2


def solution_data(r: float):
    """The two kernel functions as callables t -> (value, quasi-derivative)."""
    def y1(t):
        v1, _, d1, _ = singular_solutions(r, t)
        return v1, d1

    def y2(t):
        _, v2, _, d2 = singular_solutions(r, t)
        return v2, d2

    return [y1, y2]


def zero_sequence(q: float, window, anchor: float | None = None):
    """Zeros in (eps, c] of the oscillatory solution vanishing at the anchor.

    For q < -1/4 and nu = sqrt(-1/4 - q) the solution proportional to
    t^(1/2) sin(nu ln(t / c0)) vanishes at t_k = c0 exp(-k pi / nu); the
    anchor zero itself (k = 0) is not part of the returned interior list.
    """
    if q >= THRESHOLD_Q:
        raise OutOfRange("zero sequences exist for q < -1/4 only")
    eps, c = window
    c0 = c if anchor is None else anchor
    nu = math.sqrt(-0.25 - q)
    zeros = []
    k = 1
    while True:
        t = c0 * math.exp(-k * math.pi / nu)
        if t <= eps:
            break
        if t <= c:
            zeros.append(t)
        k += 1
    return zeros


# -- the limit matrix of a Bessel-type end ----------------------------------------


def limit_circle(q):
    """Whether -y'' + q y / t^2 is limit circle at 0, elementwise for an
    array: both solutions t^(1/2 -+ r) are square-integrable near 0 exactly
    when q < 3/4 (Zettl, Sturm-Liouville Theory, AMS 2005, ch. 7)."""
    return np.asarray(q) < LIMIT_POINT_Q


def expected_growth_per_decade(eigs) -> float:
    """Growth of the conjugate-point count per decade of t toward 0: the sum
    of nu ln 10 / pi over the oscillatory eigenvalues lam < -1/4, with
    nu = sqrt(-1/4 - lam); 0 when none oscillates."""
    return sum(math.sqrt(THRESHOLD_Q - lam) * math.log(10.0) / math.pi
               for lam in eigs if lam < THRESHOLD_Q)


def direction_classes(eigs):
    """Per-direction Morse verdicts of a limiting spectrum against the -1/4
    threshold, and the overall verdict.

    Above -1/4 a direction has finite Morse index, below it infinite;
    contact within THRESHOLD_TOL is Threshold and never silently binned.
    Overall: Infinite if any direction is, else Threshold if any is, else
    Finite.
    """
    per = [THRESHOLD if abs(lam - THRESHOLD_Q) <= THRESHOLD_TOL
           else FINITE_MORSE if lam > THRESHOLD_Q else INFINITE_MORSE for lam in eigs]
    overall = next((v for v in (INFINITE_MORSE, THRESHOLD) if v in per), FINITE_MORSE)
    return per, overall


# -- Friedrichs data at a limit-circle end -------------------------------------


def principal_coefficients(r: float) -> np.ndarray:
    """Coefficients of the principal solution t^(1/2+r) in the (y1, y2) basis."""
    return np.array([1.0, r])


def singular_end_space() -> SymplecticSpace:
    """The 2-dimensional boundary-data block at the singular end, carrying -Omega."""
    return SymplecticSpace.minus_plus(1, 0)


def friedrichs_trace_frame(r: float) -> LagrangianFrame:
    """Trace-space line of the Friedrichs condition for -1/4 <= q < 3/4: that
    of the principal solution t^(1/2+r) = y1 + r y2 (at r = 0, t^(1/2)
    against t^(1/2) ln t).  In the coordinates (-[f, y1], [f, y2]) of
    ``sturm.boundary_chart``, f = a1 y1 + a2 y2 has the trace -(a2, a1):
    the line through (r, 1).
    """
    if not (0.0 <= r < 1.0):
        raise LimitPointNoCondition(
            "Friedrichs selection requires the limit-circle regime r in [0, 1)")
    a = principal_coefficients(r)
    return line_frame(singular_end_space(), [-a[1], -a[0]])

