"""Built-in problem catalog and grid-coefficient ingestion."""

from __future__ import annotations

import math

import numpy as np

from .bessel import q_of_r
from .errors import ConfigInvalid, UnknownCatalogEntry
from .sturm import REGULAR, SLProblem, bessel_problem

_DESCRIPTIONS = {
    "free": (
        "free particle: P = 1, Q = 0, R = 0 on (0, 1); gamma(t) = [[1, 0], [t, 1]] "
        "in (quasi-derivative, position) ordering; no conjugate points."),
    "harmonic": (
        "harmonic oscillator: P = 1, Q = 0, R = -omega^2 on (a, b); solutions "
        "cos(omega t), sin(omega t)/omega; Dirichlet Morse index on (0, 1) equals "
        "#{k >= 1 : (k pi)^2 < omega^2}."),
    "bessel": (
        "Bessel-type: P = 1, Q = 0, R = q / t^2 on (0, 1]; with q = -1/4 + r^2 "
        "(r >= 0) or -1/4 - r^2 (r < 0) the solutions near 0 are "
        "y1 = (t^(1/2-r) + t^(1/2+r))/2 and y2 = (t^(1/2+r) - t^(1/2-r))/(2r) "
        "for r in (0,1); t^(1/2), t^(1/2) ln t at r = 0; t^(1/2) cos(r ln t), "
        "t^(1/2) sin(r ln t)/r for r < 0; bracket [y1, y2] = -1.  Limit circle "
        "at 0 for q < 3/4, limit point for q >= 3/4; for q < -1/4 the zeros "
        "accumulate geometrically at 0 with ratio exp(-pi/nu), nu = sqrt(-1/4 - q)."),
    "bessel_r": "alias of bessel with the coupling given through r (q = q_of_r(r)).",
    "mathieu": (
        "Mathieu-type regular test coefficient: P = 1, Q = 0, "
        "R(t) = a - 2 q cos(2 t) on (0, pi)."),
    "nbody-asymptotic": (
        "limiting Bessel-type system of an asymptotic N-body motion: "
        "-d^2/dt^2 + Bbar(a)/t^2 on (0, 1] for total collision / parabolic "
        "infinity, whose end at 0 is declared by the limit matrix D = Bbar(a): "
        "each eigendirection of D is limit circle below 3/4 and limit point "
        "from 3/4 up, and the boundary chart is their direct sum; or "
        "-d^2/dt^2 + Bbar(a)/t^3 on [1, 60], regular at both ends, for "
        "hyperbolic infinity; Bbar(a) = (2/9) M^{-1} D^2 U(a) / U(a) at the "
        "central configuration a."),
}


def catalog_list():
    return sorted(_DESCRIPTIONS)


def catalog_describe(name: str) -> str:
    try:
        return _DESCRIPTIONS[name]
    except KeyError:
        raise UnknownCatalogEntry(f"no catalog entry named {name!r}") from None


def _required(params: dict, key: str, name: str) -> float:
    if key not in params:
        raise ConfigInvalid(f"catalog problem {name!r} needs the parameter {key!r}")
    return float(params.pop(key))


def make_problem(name: str, **params) -> SLProblem:
    """Instantiate a catalog problem; unknown names raise UnknownCatalogEntry,
    and a missing required parameter ConfigInvalid."""
    if name == "free":
        interval = tuple(params.pop("interval", (0.0, 1.0)))
        return SLProblem(1, interval, 1.0, 0.0, 0.0, params=params)

    if name == "harmonic":
        omega = float(params.pop("omega", 1.0))
        interval = tuple(params.pop("interval", (0.0, 1.0)))
        return SLProblem(1, interval, 1.0, 0.0, -omega * omega,
                         params={"omega": omega, **params})

    if name in ("bessel", "bessel_r"):
        if name == "bessel_r":
            q = q_of_r(_required(params, "r", name))
        else:
            q = _required(params, "q", name)
        interval = params.pop("interval", (0.0, 1.0))
        return bessel_problem(q, interval, {"q": q, **params})

    if name == "mathieu":
        a = float(params.pop("a", 1.0))
        qm = float(params.pop("q", 0.5))
        interval = tuple(params.pop("interval", (0.0, math.pi)))
        return SLProblem(
            1, interval, 1.0, 0.0,
            lambda t, _a=a, _q=qm: _a - 2.0 * _q * np.cos(2.0 * t),
            params={"a": a, "q": qm, **params})

    if name == "nbody-asymptotic":
        from .nbody import asymptotic_problem
        return asymptotic_problem(**params)

    raise UnknownCatalogEntry(f"no catalog entry named {name!r}")


def load_problem_csv(path: str, dim: int, interval=None,
                     endpoints=(REGULAR, REGULAR)) -> SLProblem:
    """Grid-sampled coefficients from CSV with columns
    t, P_11..P_nn, Q_11..Q_nn, R_11..R_nn, interpolated cubically by one
    spline per block over the (len(t), n, n) table."""
    from scipy.interpolate import CubicSpline

    data = np.genfromtxt(path, delimiter=",", names=True)
    t = np.asarray(data["t"], dtype=float)
    order = np.argsort(t)
    t = t[order]

    def block(prefix):
        cols = np.array([[data[f"{prefix}_{i + 1}{j + 1}"] for j in range(dim)]
                         for i in range(dim)], dtype=float)
        spline = CubicSpline(t, np.moveaxis(cols, -1, 0)[order])
        return lambda x: spline(x[:, 0, 0])

    interval = (float(t[0]), float(t[-1])) if interval is None else tuple(interval)
    return SLProblem(dim, interval, block("P"), block("Q"), block("R"),
                     endpoints=endpoints, params={"source": str(path)})
