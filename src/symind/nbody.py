"""Newtonian N-body potential, Hessian, central configurations, the
normalized matrix Bbar(a) = (2/9) M^{-1} D^2 U(a) / U(a), and the Morse
classification of total-collision, parabolic, and hyperbolic asymptotic
motions.

The potential is U(q) = sum_{i<j} m_i m_j / |q_i - q_j| on the zero
center-of-mass space off the collision set; U, grad U and D^2 U are array
expressions over the pair differences q_i - q_j.  A normalized central
configuration solves grad U(s) + U(s) M s = 0 with <Ms, s> = 1, found by one
damped Gauss-Newton (Levenberg-Marquardt) loop on that equation stacked with
the center-of-mass and normalization constraints.  The spectrum of Bbar
against the threshold -1/4 decides finiteness of the Morse index of the
motion; the limiting radial model in each eigendirection is the catalog's
Bessel-type operator -d^2/dt^2 + beta / t^2 (total collision and parabolic
infinity) or -d^2/dt^2 + beta / t^3 (hyperbolic infinity).
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass

import numpy as np

from .bessel import FINITE_MORSE, INFINITE_MORSE, THRESHOLD, direction_classes
from .errors import (
    CollisionConfiguration,
    ConfigInvalid,
    ConvergedToCollision,
    NotNormalized,
    SolverDiverged,
)
from .report import INFINITE, UNDETERMINED, IndexReport
from .sturm import SLProblem, bessel_problem, morse_index_dirichlet

COLLISION_TOL = 1e-9
CC_TOL = 1e-12          # residual |grad U + U M q| that ends the central-configuration solve
CC_MAX_TRIALS = 100     # damped steps tried, accepted or not, before SolverDiverged

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
            raise ConfigInvalid("all masses must be positive")
        if self.d not in (2, 3):
            raise ConfigInvalid("ambient dimension must be 2 or 3")

    @property
    def n_bodies(self) -> int:
        return len(self.masses)

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

    def pairs(self):
        """The pair differences q_i - q_j (n, n, d), the distances
        |q_i - q_j| (n, n) with inf on the diagonal, and the mass products
        m_i m_j (n, n)."""
        q = self.positions
        m = np.asarray(self.system.masses, dtype=float)
        diff = q[:, None, :] - q[None, :, :]
        r = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(r, np.inf)
        return diff, r, np.outer(m, m)

    def min_separation(self) -> float:
        return float(self.pairs()[1].min())


def _pairs(config: Configuration):
    """``Configuration.pairs``, or CollisionConfiguration when two bodies coincide."""
    diff, r, mm = config.pairs()
    if r.min() < COLLISION_TOL:
        raise CollisionConfiguration("two bodies coincide")
    return diff, r, mm


def potential(config: Configuration) -> float:
    """U(q) = sum_{i<j} m_i m_j / |q_i - q_j|."""
    _, r, mm = _pairs(config)
    return float(0.5 * (mm / r).sum())


def gradient(config: Configuration) -> np.ndarray:
    """grad U as a flat d*n vector."""
    diff, r, mm = _pairs(config)
    return -((mm / r ** 3)[:, :, None] * diff).sum(axis=1).reshape(-1)


def hessian(config: Configuration) -> np.ndarray:
    """D^2 U(q): off-diagonal blocks (m_i m_j / r^3)(I - 3 u u^T), diagonal
    blocks the negative row sums; uniform translations span part of the
    kernel."""
    diff, r, mm = _pairs(config)
    n, d = config.system.n_bodies, config.system.d
    u = diff / r[:, :, None]
    blocks = (mm / r ** 3)[:, :, None, None] * (np.eye(d) - 3.0 * u[..., :, None] * u[..., None, :])
    blocks[np.arange(n), np.arange(n)] = -blocks.sum(axis=1)
    return blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)


@dataclass
class CentralConfig:
    """A converged normalized central configuration and its residual."""

    config: Configuration
    residual: float

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


def central_configuration(system: MassSystem, initial: Configuration) -> CentralConfig:
    """Normalized central configuration near ``initial`` by one damped
    Gauss-Newton (Levenberg-Marquardt) loop.

    The residual is r(q) = [grad U + U M q; sum_i m_i q_i; q^T M q - 1] and
    its Jacobian stacks D^2 U + (Mq)(grad U)^T + U M, the center-of-mass rows
    and 2 (Mq)^T.  Each step solves [J; sqrt(mu) I] x = [-r; 0] in least
    squares, which keeps it bounded along the rotations a central
    configuration is neutral to.  A step that lowers |r| is taken and mu
    divided by 3; otherwise, or when the trial meets the collision set, mu is
    multiplied by 4.  The loop ends at the projected configuration once its
    residual |grad U + U M q| is at most CC_TOL; ConvergedToCollision when an
    accepted iterate nears the collision set, SolverDiverged after
    CC_MAX_TRIALS steps."""
    M = system.mass_matrix()
    com_rows = np.kron(np.asarray(system.masses, dtype=float), np.eye(system.d))

    def residual(q):
        cfg = Configuration(system, q)
        Mq = M @ q
        return np.concatenate([gradient(cfg) + potential(cfg) * Mq, com_rows @ q,
                               [q @ Mq - 1.0]]), cfg

    _pairs(initial)             # coincident bodies, before the projection divides by I(q)
    q = _project_constraints(initial).flat
    r, cfg = residual(q)
    mu = 1e-3
    for _ in range(CC_MAX_TRIALS):
        projected = _project_constraints(cfg)
        res = central_config_residual(projected)
        if res <= CC_TOL:
            return CentralConfig(projected, res)
        Mq = M @ q
        J = np.vstack([hessian(cfg) + np.outer(Mq, gradient(cfg)) + potential(cfg) * M,
                       com_rows, 2.0 * Mq[None, :]])
        step, *_ = np.linalg.lstsq(np.vstack([J, math.sqrt(mu) * np.eye(len(q))]),
                                   np.concatenate([-r, np.zeros(len(q))]), rcond=None)
        try:
            trial = residual(q + step)
        except CollisionConfiguration:
            mu *= 4.0
            continue
        if np.linalg.norm(trial[0]) < np.linalg.norm(r):
            q = q + step
            r, cfg = trial
            mu /= 3.0
            if cfg.min_separation() < 100 * COLLISION_TOL:
                raise ConvergedToCollision("iteration approached the collision set")
        else:
            mu *= 4.0
    raise SolverDiverged(f"residual {res:.2e} after {CC_MAX_TRIALS} damped steps")


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
        raise ConfigInvalid(f"unknown motion kind {motion!r}")
    return _MOTIONS[key]


def _limiting_problem(eigs, motion: str, **params) -> SLProblem:
    """-d^2/dt^2 + diag(eigs)/t^3 on [1, 60], regular at both ends, for a
    hyperbolic motion, and the Bessel-type problem of the limit matrix
    diag(eigs) on (0, 1] otherwise."""
    eigs = [float(lam) for lam in eigs]
    D = np.diag(eigs)
    params = {**params, "motion": motion, "bbar_eigs": eigs}
    if motion == HYPERBOLIC:
        return SLProblem(len(eigs), (1.0, 60.0), 1.0, 0.0, lambda t: D / t ** 3,
                         params=params)
    return bessel_problem(D, params=params)


def asymptotic_morse_from_spectrum(eigs, motion) -> IndexReport:
    """Classification of each Bbar eigendirection by ``direction_classes``
    and, when every direction is finite, the sum of the directions'
    conjugate-point indices, each the ``morse_index_dirichlet`` verdict of
    its scalar limiting problem.  The -1/4 rule belongs to the t^-2
    limiting problem: the t^-3 problem of a hyperbolic motion is regular,
    so every direction is Finite; its sum is reported as
    ``truncated_count`` and lists no points.  A direction whose index is
    not an integer makes the verdict Undetermined, with that direction's
    reason."""
    eigs = np.sort(np.asarray(eigs, dtype=float))
    motion = _motion_name(motion)
    if motion == HYPERBOLIC:
        per_direction, overall = [FINITE_MORSE] * len(eigs), FINITE_MORSE
    else:
        per_direction, overall = direction_classes(eigs)
    diagnostics = {"bbar_spectrum": eigs.tolist(),
                   "per_direction": per_direction,
                   "motion": motion}
    assumptions = {"limiting_model": "diagonalized Bessel-type system",
                   "H3_bounded_below": "assumed, not verified"}

    if overall == INFINITE_MORSE:
        return IndexReport(command="nbody", verdict=INFINITE,
                           assumptions=assumptions, diagnostics=diagnostics)
    if overall == THRESHOLD:
        return IndexReport(command="nbody", verdict=UNDETERMINED,
                           reason="an eigendirection touches the -1/4 threshold exactly",
                           assumptions=assumptions, diagnostics=diagnostics)

    total, points = 0, []
    for lam in eigs:
        rep = morse_index_dirichlet(_limiting_problem([lam], motion))
        if not isinstance(rep.verdict, int):
            return IndexReport(
                command="nbody", verdict=UNDETERMINED,
                reason=f"the direction of Bbar eigenvalue {lam:.6g} has no finite "
                       f"index: {rep.reason or rep.verdict}",
                assumptions=assumptions, diagnostics=diagnostics)
        total += rep.verdict
        points.extend(rep.conjugate_points)
    if motion == HYPERBOLIC:
        diagnostics["truncated_count"] = total
        points = []
    return IndexReport(command="nbody", verdict=total, conjugate_points=points,
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
    """The seed ``config_id`` built with ``kwargs``; an unknown seed or a
    parameter the seed does not take raises ConfigInvalid."""
    if config_id not in _SEEDS:
        raise ConfigInvalid(f"unknown central-configuration seed {config_id!r}")
    seed = _SEEDS[config_id]
    unused = sorted(set(kwargs) - set(inspect.signature(seed).parameters))
    if unused:
        raise ConfigInvalid(f"central-configuration seed {config_id!r} does not use the "
                            "parameter(s) " + ", ".join(map(repr, unused)))
    return seed(**kwargs)


def load_configuration(source) -> Configuration:
    """Mass/position input as JSON: {"masses": [...], "positions": [[...]],
    "dimension": d}; accepts a mapping, a JSON string, or a file path.
    ConfigInvalid unless the positions are a (len(masses), d) array and
    every mass and coordinate is finite."""
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
    try:
        masses = np.asarray(data["masses"], dtype=float)
        positions = np.asarray(data["positions"], dtype=float)
    except ValueError as exc:          # ragged rows
        raise ConfigInvalid(f"masses and positions must be numeric arrays: {exc}") from exc
    if masses.ndim != 1 or positions.shape != (masses.size, d):
        raise ConfigInvalid(f"{masses.size} masses in dimension {d} need positions of "
                            f"shape ({masses.size}, {d}), got {positions.shape}")
    if not (np.isfinite(masses).all() and np.isfinite(positions).all()):
        raise ConfigInvalid("masses and positions must be finite")
    return Configuration(MassSystem(tuple(masses.tolist()), d), positions)


def asymptotic_problem(config_id: str = "two-body", motion=TOTAL_COLLISION,
                       **kwargs) -> SLProblem:
    """Catalog hook: the diagonalized limiting Bessel-type system of an
    asymptotic motion as a matrix Sturm-Liouville problem."""
    cc = seed_central_config(config_id, **kwargs)
    return _limiting_problem(bbar_spectrum(cc), _motion_name(motion), config=config_id)
