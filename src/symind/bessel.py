"""Closed-form machinery for Bessel-type operators -d^2/dt^2 + q/t^2.

The coupling q is reparametrized by q(r) = -1/4 + r^2 for r >= 0 and
-1/4 - r^2 for r < 0, a bijection (-inf, 1) -> (-inf, 3/4).  The solution
pair near t = 0 is

    r in (0,1):  y1 = (t^(1/2-r) + t^(1/2+r))/2,   y2 = (t^(1/2+r) - t^(1/2-r))/(2r)
    r = 0:       y1 = t^(1/2),                      y2 = t^(1/2) ln t
    r < 0:       y1 = t^(1/2) cos(r ln t),          y2 = t^(1/2) sin(r ln t)/r

with constant boundary bracket [y1, y2] = -1 for every r.  These formulas are
the analytic oracle for the numeric Sturm-Liouville machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LagrangianFrame, SymplecticSpace, line_frame
from .errors import LimitPointNoCondition, OutOfRange, TailModelMissing

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
    if q >= LIMIT_POINT_Q:
        raise OutOfRange("inverse defined for q < 3/4")
    if q >= THRESHOLD_Q:
        return math.sqrt(q + 0.25)
    return -math.sqrt(-0.25 - q)


@dataclass(frozen=True)
class BesselParam:
    """Consistent (q, r) pair."""

    q: float
    r: float

    @staticmethod
    def from_q(q: float) -> "BesselParam":
        return BesselParam(q, r_of_q(q))


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


# -- classification of Bessel-type matrix problems -----------------------------


@dataclass
class TailModel:
    """Declared behavior of R(t) at the singular end: constant, or a power
    approach R(t) = limit + C * t^p (p > 0) toward 0, resp. + C * t^(-p)
    toward infinity."""

    kind: str                 # "constant" | "power"
    limit: object
    rate: float | None = None

    def limit_matrix(self, n: int) -> np.ndarray:
        M = np.atleast_2d(np.asarray(self.limit, dtype=float))
        if M.shape == (1, 1) and n > 1:
            M = M[0, 0] * np.eye(n)
        return 0.5 * (M + M.T)


ZERO_END = "zero"
INFINITY_END = "infinity"


@dataclass
class BesselMatrixProblem:
    """-d^2/dt^2 + R(t)/t^2 on (0, 1] (zero end) or [1, inf) (infinity end)."""

    dim: int
    r_func: object
    end: str = ZERO_END
    tail: TailModel | None = None
    label: str = ""


@dataclass
class BesselClassification:
    eigenvalues: np.ndarray
    per_direction: list
    overall: str
    fredholm: object          # True / False / None (not established)


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


def classify(problem: BesselMatrixProblem) -> BesselClassification:
    """``direction_classes`` of the limiting matrix's spectrum, and the
    Fredholm flag: True for a zero end whenever the declared tail keeps
    (R(t) - R(0))/t^2 bounded or the spectrum stays above -1/4; an infinity
    end with R/t^2 -> 0 is never Fredholm.
    """
    if problem.tail is None:
        raise TailModelMissing("declare a tail model before classification")
    eigs = np.linalg.eigvalsh(problem.tail.limit_matrix(problem.dim))
    per, overall = direction_classes(eigs)

    if problem.end == INFINITY_END:
        fredholm = False
    elif problem.tail.kind == "constant" or float(eigs.min()) > THRESHOLD_Q:
        fredholm = True
    elif problem.tail.kind == "power" and (problem.tail.rate or 0.0) >= 2.0:
        fredholm = True
    else:
        fredholm = None
    return BesselClassification(eigs, per, overall, fredholm)


# -- Friedrichs data at a limit-circle end -------------------------------------


def principal_coefficients(r: float) -> np.ndarray:
    """Coefficients of the principal solution t^(1/2+r) in the (y1, y2) basis."""
    return np.array([1.0, r])


def singular_end_space() -> SymplecticSpace:
    """The 2-dimensional boundary-data block at the singular end, carrying -Omega."""
    return SymplecticSpace.minus_plus(1, 0)


def friedrichs_trace_frame(r: float) -> LagrangianFrame:
    """Trace-space line of the Friedrichs condition in the limit-circle regime
    -1/4 < q < 3/4: it forces the coefficient of t^(1/2-r) to vanish, so it
    is the line of the principal solution t^(1/2+r) = y1 + r y2.  In the
    coordinates (-[f, y1], [f, y2]) of ``sturm.singular_boundary_chart``,
    f = a1 y1 + a2 y2 has the trace -(a2, a1): the line through (r, 1).
    """
    if not (0.0 < r < 1.0):
        raise LimitPointNoCondition(
            "Friedrichs selection requires the limit-circle regime r in (0, 1)")
    a = principal_coefficients(r)
    return line_frame(singular_end_space(), [-a[1], -a[0]])


def bessel_boundary_chart(problem):
    """Boundary chart of a catalog Bessel problem from the analytic kernel pair."""
    from .sturm import singular_boundary_chart

    q = problem.params["q"]
    if q >= LIMIT_POINT_Q:
        raise LimitPointNoCondition("limit-point end: no boundary data at 0")
    r = r_of_q(q)
    friedrichs = friedrichs_trace_frame(r) if 0.0 < r < 1.0 else None
    return singular_boundary_chart(problem, solution_data(r), friedrichs)
