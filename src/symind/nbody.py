"""Newtonian N-body potential, Hessian, central configurations, the
normalized matrix Bbar(a) = (2/9) M^{-1} D^2 U(a) / U(a), and the Morse
classification of total-collision, parabolic, and hyperbolic asymptotic
motions.

The potential is U(q) = sum_{i<j} m_i m_j / |q_i - q_j| on the zero
center-of-mass space off the collision set; a normalized central
configuration solves grad U(s) + U(s) M s = 0 with <Ms, s> = 1.  The
spectrum of Bbar against the threshold -1/4 decides finiteness of the Morse
index of the motion; the limiting radial model in each eigendirection is the
Bessel-type operator -d^2/dt^2 + beta / t^2 (total collision and parabolic
infinity) or -d^2/dt^2 + beta / t^3 (hyperbolic infinity).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bessel import THRESHOLD_Q
from .errors import (
    CollisionConfiguration,
    ConvergedToCollision,
    NotNormalized,
    SolverDiverged,
)
from .report import INFINITE, UNDETERMINED, IndexReport
from .sturm import LIMIT_CIRCLE, LIMIT_POINT, REGULAR, SLProblem, morse_index_dirichlet

COLLISION_TOL = 1e-9
THRESHOLD_CONTACT_TOL = 1e-12

TOTAL_COLLISION = "TotalCollision"
PARABOLIC = "ParabolicInfinity"
HYPERBOLIC = "HyperbolicInfinity"
_MOTIONS = {
    "totalcollision": TOTAL_COLLISION, "total-collision": TOTAL_COLLISION,
    "collision": TOTAL_COLLISION,
    "parabolic": PARABOLIC, "parabolicinfinity": PARABOLIC,
    "hyperbolic": HYPERBOLIC, "hyperbolicinfinity": HYPERBOLIC,
}


@dataclass(frozen=True)
class MassSystem:
    """Point masses in ambient dimension d with mass matrix diag(m_i I_d)."""

    masses: tuple
    d: int = 3

    def __post_init__(self):
        if any(m <= 0 for m in self.masses):
            raise ValueError("all masses must be positive")
        if self.d not in (2, 3):
            raise ValueError("ambient dimension must be 2 or 3")

    @property
    def n_bodies(self) -> int:
        return len(self.masses)

    @property
    def dof(self) -> int:
        return self.d * self.n_bodies

    def mass_matrix(self) -> np.ndarray:
        return np.diag(np.repeat(np.asarray(self.masses, float), self.d))


@dataclass
class Configuration:
    """Positions q = (q_i) with zero center of mass, off the collision set."""

    system: MassSystem
    positions: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.positions, dtype=float).reshape(self.system.n_bodies, self.system.d)
        self.positions = q

    @property
    def flat(self) -> np.ndarray:
        return self.positions.reshape(-1)

    def center_of_mass(self) -> np.ndarray:
        m = np.asarray(self.system.masses)
        return (m[:, None] * self.positions).sum(axis=0) / m.sum()

    def moment_of_inertia(self) -> float:
        m = np.asarray(self.system.masses)
        return float((m[:, None] * self.positions ** 2).sum())

    def min_separation(self) -> float:
        q = self.positions
        n = self.system.n_bodies
        return min(np.linalg.norm(q[i] - q[j]) for i in range(n) for j in range(i + 1, n))


def _check_collision_free(config: Configuration):
    if config.min_separation() < COLLISION_TOL:
        raise CollisionConfiguration("two bodies coincide")


def potential(config: Configuration) -> float:
    """U(q) = sum_{i<j} m_i m_j / |q_i - q_j|."""
    _check_collision_free(config)
    m = config.system.masses
    q = config.positions
    n = config.system.n_bodies
    return float(sum(m[i] * m[j] / np.linalg.norm(q[i] - q[j])
                     for i in range(n) for j in range(i + 1, n)))


def gradient(config: Configuration) -> np.ndarray:
    """grad U as a flat d*n vector."""
    _check_collision_free(config)
    m = config.system.masses
    q = config.positions
    n, d = config.system.n_bodies, config.system.d
    g = np.zeros((n, d))
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            diff = q[i] - q[j]
            g[i] -= m[i] * m[j] * diff / np.linalg.norm(diff) ** 3
    return g.reshape(-1)


def hessian(config: Configuration) -> np.ndarray:
    """D^2 U(q): off-diagonal blocks (m_i m_j / r^3)(I - 3 u u^T), diagonal
    blocks the negative row sums; uniform translations span part of the
    kernel."""
    _check_collision_free(config)
    m = config.system.masses
    q = config.positions
    n, d = config.system.n_bodies, config.system.d
    H = np.zeros((n * d, n * d))
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            diff = q[i] - q[j]
            r = np.linalg.norm(diff)
            u = diff / r
            block = (m[i] * m[j] / r ** 3) * (np.eye(d) - 3.0 * np.outer(u, u))
            H[i * d:(i + 1) * d, j * d:(j + 1) * d] = block
            H[i * d:(i + 1) * d, i * d:(i + 1) * d] -= block
    return 0.5 * (H + H.T)


@dataclass
class CentralConfig:
    """A converged normalized central configuration and its residual."""

    config: Configuration
    residual: float
    normalized: bool = True

    @property
    def system(self) -> MassSystem:
        return self.config.system


def _project_constraints(config: Configuration) -> Configuration:
    """Re-center the center of mass and normalize the moment of inertia."""
    q = config.positions - config.center_of_mass()
    cfg = Configuration(config.system, q)
    return Configuration(config.system, q / math.sqrt(cfg.moment_of_inertia()))


def central_config_residual(config: Configuration) -> float:
    U = potential(config)
    M = config.system.mass_matrix()
    return float(np.linalg.norm(gradient(config) + U * (M @ config.flat)))


def central_configuration(system: MassSystem, initial: Configuration,
                          tol: float = 1e-12, max_iter: int = 100) -> CentralConfig:
    """Projected Newton iteration for grad U(s) + U(s) M s = 0 on the
    ellipsoid I(q) = 1 inside the zero center-of-mass subspace, with
    backtracking.  The Newton system is solved in least squares because the
    rotational orbit directions of a central configuration are neutral."""
    cfg = _project_constraints(initial)
    _check_collision_free(cfg)
    M = system.mass_matrix()
    n, d = system.n_bodies, system.d

    com_rows = np.zeros((d, n * d))
    for k in range(d):
        for i in range(n):
            com_rows[k, i * d + k] = system.masses[i]

    res = central_config_residual(cfg)
    for _ in range(max_iter):
        if res <= tol:
            return CentralConfig(cfg, res)
        q = cfg.flat
        U = potential(cfg)
        G = gradient(cfg) + U * (M @ q)
        DG = hessian(cfg) + np.outer(M @ q, gradient(cfg)) + U * M
        constraints = np.vstack([com_rows, (M @ q)[None, :]])
        # tangent basis of {com = 0, I = 1} at q
        _, sv, vt = np.linalg.svd(constraints)
        K = vt[np.sum(sv > 1e-12):].T
        step_t, *_ = np.linalg.lstsq(K.T @ DG @ K, -(K.T @ G), rcond=None)
        step = K @ step_t
        scale = 1.0
        for _ in range(40):
            trial = _project_constraints(Configuration(system, (q + scale * step).reshape(n, d)))
            if trial.min_separation() < 10 * COLLISION_TOL:
                scale *= 0.5
                continue
            new_res = central_config_residual(trial)
            if new_res < res or new_res <= tol:
                cfg, res = trial, new_res
                break
            scale *= 0.5
        else:
            raise SolverDiverged(f"no descent step found at residual {res:.2e}")
        if cfg.min_separation() < 100 * COLLISION_TOL:
            raise ConvergedToCollision("iteration approached the collision set")
    raise SolverDiverged(f"residual {res:.2e} after {max_iter} iterations")


# -- the normalized matrix Bbar(a) ---------------------------------------------


def _require_normalized(cc: CentralConfig, tol: float = 1e-8):
    if abs(cc.config.moment_of_inertia() - 1.0) > tol:
        raise NotNormalized("central configuration must satisfy I(q) = 1")


def bbar_matrix(cc: CentralConfig) -> np.ndarray:
    """(2/9) M^{-1} D^2 U(a) / U(a); invariant under rescaling a."""
    _require_normalized(cc)
    M = cc.system.mass_matrix()
    U = potential(cc.config)
    return (2.0 / 9.0) * np.linalg.solve(M, hessian(cc.config)) / U


def bbar_spectrum(cc: CentralConfig) -> np.ndarray:
    """Spectrum of Bbar(a), via the M^{1/2} similarity that keeps symmetry.

    Always contains 4/9 along the radial direction a (Euler homogeneity) and
    0 with multiplicity d (uniform translations)."""
    _require_normalized(cc)
    M = cc.system.mass_matrix()
    U = potential(cc.config)
    root = np.sqrt(np.diag(M))
    S = hessian(cc.config) / np.outer(root, root)
    return np.linalg.eigvalsh((2.0 / 9.0) * S / U)


# -- Morse classification of asymptotic motions ---------------------------------


def _motion_name(motion: str) -> str:
    key = str(motion).replace("_", "").replace(" ", "").lower()
    if key not in _MOTIONS:
        raise ValueError(f"unknown motion kind {motion!r}")
    return _MOTIONS[key]


def _scalar_model_problem(beta: float, hyperbolic: bool) -> SLProblem:
    if hyperbolic:
        return SLProblem(1, (1.0, 60.0), 1.0, 0.0,
                         lambda t, _b=beta: _b / t ** 3,
                         endpoints=(REGULAR, REGULAR), catalog=None,
                         params={"beta": beta, "branch": "t^-3"})
    kind = LIMIT_CIRCLE if beta < 0.75 else LIMIT_POINT
    return SLProblem(1, (0.0, 1.0), 1.0, 0.0,
                     lambda t, _b=beta: _b / t ** 2,
                     endpoints=(kind, REGULAR), catalog="bessel",
                     params={"q": beta})


def asymptotic_morse_from_spectrum(eigs, motion, command: str = "nbody") -> IndexReport:
    """Classification and (when finite) the conjugate-point index of the
    limiting diagonalized Bessel-type system with the given Bbar spectrum."""
    eigs = np.sort(np.asarray(eigs, dtype=float))
    motion = _motion_name(motion)
    per_direction = []
    for lam in eigs:
        if abs(lam - THRESHOLD_Q) <= THRESHOLD_CONTACT_TOL:
            per_direction.append("Threshold")
        elif lam > THRESHOLD_Q:
            per_direction.append("Finite")
        else:
            per_direction.append("Infinite")

    diagnostics = {"bbar_spectrum": eigs.tolist(),
                   "per_direction": per_direction,
                   "motion": motion}
    assumptions = {"limiting_model": "diagonalized Bessel-type system",
                   "H3_bounded_below": "assumed, not verified"}

    if motion == HYPERBOLIC:
        # t^-3 decay is subcritical at infinity in every direction: the index
        # is always finite; the truncated count below is a diagnostic only
        total = 0
        for lam in eigs:
            rep = morse_index_dirichlet(_scalar_model_problem(lam, True),
                                        delta_schedule=(1.0, 2.0, 4.0, 8.0))
            total += rep.verdict if isinstance(rep.verdict, int) else 0
        diagnostics["truncated_count"] = total
        return IndexReport(command=command, verdict=int(total),
                           assumptions=assumptions, diagnostics=diagnostics)

    if "Infinite" in per_direction:
        return IndexReport(command=command, verdict=INFINITE,
                           assumptions=assumptions, diagnostics=diagnostics)
    if "Threshold" in per_direction:
        return IndexReport(command=command, verdict=UNDETERMINED,
                           reason="an eigendirection touches the -1/4 threshold exactly",
                           assumptions=assumptions, diagnostics=diagnostics)

    total = 0
    points = []
    for lam in eigs:
        rep = morse_index_dirichlet(_scalar_model_problem(lam, False))
        total += rep.verdict if isinstance(rep.verdict, int) else 0
        points.extend(rep.conjugate_points)
    return IndexReport(command=command, verdict=int(total),
                       conjugate_points=points,
                       assumptions=assumptions, diagnostics=diagnostics)


def asymptotic_morse(cc: CentralConfig, motion) -> IndexReport:
    """Morse classification of the asymptotic motion at the given central
    configuration: per-eigendirection comparison of Bbar(a) with -1/4 and,
    when every direction is finite, the conjugate-point sum of the limiting
    system; eigenvalues below the threshold make the index infinite, and a
    hyperbolic motion is finite unconditionally."""
    if cc.residual > 1e-8:
        raise SolverDiverged("central configuration residual too large")
    return asymptotic_morse_from_spectrum(bbar_spectrum(cc), motion)


# -- built-in seeds and ingestion ------------------------------------------------


def two_body(masses=(1.0, 1.0), d: int = 3) -> CentralConfig:
    """Antipodal pair on the I = 1 ellipsoid (closed form)."""
    m1, m2 = masses
    system = MassSystem((float(m1), float(m2)), d)
    # com zero: m1 x1 + m2 x2 = 0; I = m1 x1^2 + m2 x2^2 = 1
    x1 = math.sqrt(m2 / (m1 * (m1 + m2)))
    x2 = -m1 * x1 / m2
    q = np.zeros((2, d))
    q[0, 0], q[1, 0] = x1, x2
    return central_configuration(system, Configuration(system, q))


def lagrange3(d: int = 2) -> CentralConfig:
    """Equal-mass equilateral triangle."""
    system = MassSystem((1.0, 1.0, 1.0), d)
    q = np.zeros((3, d))
    angles = [math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3]
    for i, ang in enumerate(angles):
        q[i, 0], q[i, 1] = math.cos(ang), math.sin(ang)
    return central_configuration(system, Configuration(system, q))


def euler3(d: int = 2) -> CentralConfig:
    """Equal-mass collinear configuration with symmetric spacing."""
    system = MassSystem((1.0, 1.0, 1.0), d)
    q = np.zeros((3, d))
    q[0, 0], q[2, 0] = -1.0, 1.0
    return central_configuration(system, Configuration(system, q))


_SEEDS = {"two-body": two_body, "lagrange3": lagrange3, "euler3": euler3}


def seed_central_config(config_id: str, **kwargs) -> CentralConfig:
    try:
        return _SEEDS[config_id](**kwargs)
    except KeyError:
        raise ValueError(f"unknown central-configuration seed {config_id!r}") from None


def load_configuration(source) -> Configuration:
    """Mass/position input as JSON: {"masses": [...], "positions": [[...]],
    "dimension": d}; accepts a mapping, a JSON string, or a file path."""
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if text.strip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text) as fh:
                data = json.load(fh)
    d = int(data.get("dimension", 3))
    system = MassSystem(tuple(float(m) for m in data["masses"]), d)
    return Configuration(system, np.asarray(data["positions"], dtype=float))


def asymptotic_problem(config_id: str = "two-body", motion=TOTAL_COLLISION,
                       **kwargs) -> SLProblem:
    """Catalog hook: the diagonalized limiting Bessel-type system of an
    asymptotic motion as a matrix Sturm-Liouville problem."""
    cc = seed_central_config(config_id, **kwargs)
    eigs = bbar_spectrum(cc)
    motion = _motion_name(motion)
    D = np.diag(eigs)
    if motion == HYPERBOLIC:
        return SLProblem(len(eigs), (1.0, 60.0), 1.0, 0.0,
                         lambda t, _D=D: _D / t ** 3,
                         endpoints=(REGULAR, REGULAR),
                         catalog="nbody-asymptotic",
                         params={"config": config_id, "motion": motion,
                                 "bbar_eigs": eigs.tolist()})
    kind = LIMIT_CIRCLE if float(eigs.max()) < 0.75 else LIMIT_POINT
    return SLProblem(len(eigs), (0.0, 1.0), 1.0, 0.0,
                     lambda t, _D=D: _D / t ** 2,
                     endpoints=(kind, REGULAR),
                     catalog="nbody-asymptotic",
                     params={"config": config_id, "motion": motion,
                             "bbar_eigs": eigs.tolist()})
