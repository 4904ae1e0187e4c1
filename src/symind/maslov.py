"""Crossing forms, the CLM Maslov index of Lagrangian path pairs, triple index,
and the Hormander index.

Conventions.  For a pair (l1, l2) of paths the index is

    mu(l1, l2; [a,b]) = n_plus(G(a)) + sum_interior sgn(G(t)) - n_minus(G(b)),

where G(t) is the relative crossing form Q(l2, l2') - Q(l1, l1') restricted to
l1(t) cap l2(t), and Q(L, L')[v] = d/dt omega(v, w(t)) with v + w(t) in l(t)
for a complement W transversal to l(t0).  A counterclockwise rotation of a
line through a fixed reference in (R^2, Omega) therefore scores +1 at an
interior crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .core import (
    InertiaTriple,
    LagrangianFrame,
    SymplecticSpace,
    gap_distance,
    inertia_of,
    intersection_basis,
    principal_sines,
    random_lagrangian,
    rotation_matrix,
    stacked_principal_sines,
)
from .errors import (
    ChartBreakdown,
    ContinuityBudgetExceeded,
    NotACrossing,
    SpaceMismatch,
    UnresolvedDegeneracy,
)

# Crossing machinery knobs; see the module tests for how they were pinned.
CONTINUITY_BUDGET = 0.08          # max subspace movement (sine of angle) per grid step
MAX_REFINE_DEPTH = 26             # dyadic subdivisions of one initial interval
CROSSING_SINE_TOL = 1e-5          # principal sine under which an instant counts as a crossing
LOCATE_REL_TOL = 1e-12            # parameter tolerance of the one-dimensional search
MERGE_REL_TOL = 1e-8              # crossings closer than this (relative) merge
INERTIA_FLOOR = 1e-7              # magnitude floor for calling a form eigenvalue zero
PERTURBATION_DELTAS = (1e-6, 1e-5, 1e-4)


@dataclass(frozen=True)
class CrossingRecord:
    """A crossing instant with its intersection vectors and form inertia."""

    t: float
    intersection_basis: np.ndarray
    inertia: InertiaTriple

    @property
    def multiplicity(self) -> int:
        return self.intersection_basis.shape[1]


class LagrangianPath:
    """A sampled path t -> LagrangianFrame on [a, b].

    The sampler must be re-entrant; evaluations are cached per parameter so
    that ODE-backed samplers are not re-integrated during crossing scans.
    ``many``, when given, samples an array of parameters in one batch and
    returns their frame matrices stacked as (k, dim, half_dim); ``frames``
    uses it for every parameter not yet cached.
    """

    def __init__(self, space: SymplecticSpace, fun, a: float, b: float,
                 samples: int = 256, grid=None, many=None):
        if not b > a:
            raise ValueError("need b > a")
        self.space = space
        self.a = float(a)
        self.b = float(b)
        self.samples = int(samples)
        self.grid = None if grid is None else np.asarray(grid, dtype=float)
        self._fun = fun
        self._many = many
        self._cache: dict[float, LagrangianFrame] = {}

    def initial_grid(self, a: float, b: float) -> np.ndarray:
        """Initial sample parameters in [a, b]; samplers with non-uniform
        natural scales (e.g. flows toward a coordinate singularity) supply
        their own grid to avoid aliasing fast rotations."""
        if self.grid is not None:
            inside = self.grid[(self.grid >= a) & (self.grid <= b)]
            return np.unique(np.concatenate([[a], inside, [b]]))
        return np.linspace(a, b, max(self.samples, 16))

    def __call__(self, t: float) -> LagrangianFrame:
        t = float(t)
        hit = self._cache.get(t)
        if hit is None:
            hit = self._fun(t)
            if hit.space != self.space:
                raise SpaceMismatch("sampler returned a frame in the wrong space")
            self._cache[t] = hit
        return hit

    def frames(self, ts) -> np.ndarray:
        """Frame matrices at every t in ts, stacked as (len(ts), dim, half_dim).

        Cached parameters are reused; the others go to the batched sampler in
        one call when the path has one, and through ``__call__`` otherwise.
        """
        ts = [float(t) for t in ts]
        missing = [t for t in dict.fromkeys(ts) if t not in self._cache]
        if self._many is None:
            for t in missing:
                self(t)
        elif missing:
            for t, F in zip(missing, self._many(np.array(missing))):
                self._cache[t] = LagrangianFrame(self.space, F)
        return np.array([self._cache[t].frame for t in ts])

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, frame: LagrangianFrame, a: float, b: float) -> "LagrangianPath":
        return cls(frame.space, lambda t: frame, a, b, samples=2)

    @classmethod
    def rotation(cls, base: LagrangianFrame, angle_fun, a: float, b: float) -> "LagrangianPath":
        """Frame exp(angle(t) J) . base; counterclockwise for increasing angle
        means the (p, q)-plane rotation taking the p-axis toward the q-axis
        is angle -pi/2, i.e. exp(theta J)(1,0) = (cos theta, -sin theta)."""
        space = base.space

        def fun(t):
            return LagrangianFrame(space, rotation_matrix(space, angle_fun(t)) @ base.frame)

        return cls(space, fun, a, b)

    @classmethod
    def connecting(cls, start: LagrangianFrame, end: LagrangianFrame) -> "LagrangianPath":
        """A smooth path on [0, 1] from start to end in a standard space.

        Uses the unitary parametrization U = X - iY of an orthonormal
        Lagrangian frame [X; Y] and interpolates along exp(t log(U0* U1)).
        """
        space = start.space
        if space.kind != "standard":
            raise SpaceMismatch("connecting paths are implemented for standard spaces")
        if end.space != space:
            raise SpaceMismatch("endpoints in different spaces")
        n = space.half_dim
        U0 = start.frame[:n] - 1j * start.frame[n:]
        U1 = end.frame[:n] - 1j * end.frame[n:]
        L = sla.logm(U0.conj().T @ U1)
        L = 0.5 * (L - L.conj().T)

        def fun(t):
            U = U0 @ sla.expm(t * L)
            return LagrangianFrame(space, np.vstack([U.real, -U.imag]))

        return cls(space, fun, 0.0, 1.0)

    def rotated(self, delta: float, a: float, b: float) -> "LagrangianPath":
        """Endpoint-preserving J-rotation perturbation by a quadratic bump.

        The perturbed path keeps this path's grid and samples in batches:
        the bump rotations are stacked and applied to ``self.frames``.
        """
        span = b - a
        J = self.space.form
        eye = np.eye(self.space.dim)

        def many(ts):
            rho = 4.0 * (ts - a) * (b - ts) / span ** 2
            ang = (delta * rho)[:, None, None]
            return (np.cos(ang) * eye + np.sin(ang) * J) @ self.frames(ts)

        def fun(t):
            return LagrangianFrame(self.space, many(np.array([float(t)]))[0])

        return LagrangianPath(self.space, fun, self.a, self.b, self.samples,
                              grid=self.grid, many=many)


# -- crossing forms ----------------------------------------------------------


def _transversal_complement(frame: LagrangianFrame, rng=None):
    """A Lagrangian complement of span(frame): J.frame by default, random otherwise."""
    space = frame.space
    if rng is None:
        return LagrangianFrame(space, space.form @ frame.frame)
    for _ in range(8):
        W = random_lagrangian(space, rng)
        if principal_sines(frame, W)[0] > 0.2:
            return W
    raise ChartBreakdown("no transversal complement found in 8 random draws")


def _q_matrix_single(path: LagrangianPath, t0: float, vectors: np.ndarray,
                     h: float, W: LagrangianFrame) -> np.ndarray:
    """Matrix of Q(path(t0), path'(t0)) on the given vectors (columns in path(t0)).

    The chart decomposition v + w(t) in l(t), w(t) in W is solved as a linear
    system; the derivative uses second-order differences with one Richardson
    step, falling back to one-sided stencils at the domain ends.
    """
    space = path.space
    J = space.form
    G = W.frame
    V = vectors

    def phi(t):
        Ft = path(t).frame
        A = np.hstack([Ft, -G])
        X = np.linalg.solve(A, V)
        w = G @ X[space.half_dim:]
        return V.T @ J @ w

    lo, hi = path.a, path.b

    def derivative(step):
        if t0 - step >= lo and t0 + step <= hi:
            return (phi(t0 + step) - phi(t0 - step)) / (2.0 * step)
        if t0 + 2 * step <= hi:
            return (-3.0 * phi(t0) + 4.0 * phi(t0 + step) - phi(t0 + 2 * step)) / (2.0 * step)
        if t0 - 2 * step >= lo:
            return (3.0 * phi(t0) - 4.0 * phi(t0 - step) + phi(t0 - 2 * step)) / (2.0 * step)
        raise ValueError("step too large for the path domain")

    D = (4.0 * derivative(h / 2) - derivative(h)) / 3.0
    return 0.5 * (D + D.T)


def _q_matrix(path: LagrangianPath, t0: float, vectors: np.ndarray, h: float,
              check_rng=None) -> np.ndarray:
    """Q-form matrix with an independence check against a second transversal W."""
    Q1 = _q_matrix_single(path, t0, vectors, h, _transversal_complement(path(t0)))
    if check_rng is not None:
        W2 = _transversal_complement(path(t0), check_rng)
        Q2 = _q_matrix_single(path, t0, vectors, h, W2)
        scale = max(1.0, float(np.max(np.abs(Q1))))
        if np.max(np.abs(Q1 - Q2)) > 1e-3 * scale:
            raise ChartBreakdown("crossing form depends on the chart complement")
    return Q1


def _is_constant(path: LagrangianPath) -> bool:
    # probe at incommensurate fractions: a path rotating by multiples of pi
    # aliases any single probe, but not all of these simultaneously
    base = path(path.a)
    span = path.b - path.a
    return all(gap_distance(base, path(path.a + c * span)) < 1e-14
               for c in (1.0, 0.6180339887498949, 0.12345678901234568))


def relative_crossing_matrix(path1: LagrangianPath, path2: LagrangianPath,
                             t0: float, basis: np.ndarray, h: float,
                             check_rng=None) -> np.ndarray:
    """Matrix of Q(path2) - Q(path1) on the intersection basis at t0."""
    Q = np.zeros((basis.shape[1], basis.shape[1]))
    if not _is_constant(path2):
        Q = Q + _q_matrix(path2, t0, basis, h, check_rng)
    if not _is_constant(path1):
        Q = Q - _q_matrix(path1, t0, basis, h, check_rng)
    return Q


def crossing_form(path: LagrangianPath, reference: LagrangianFrame, t0: float,
                  h: float | None = None, tol: float = 1e-8,
                  check_rng=None) -> InertiaTriple:
    """Inertia of the crossing form of ``path`` against a fixed reference at t0."""
    if reference.space != path.space:
        raise SpaceMismatch("reference frame in the wrong space")
    basis = intersection_basis(path(t0), reference, tol=max(tol, 1e-6))
    if basis.shape[1] == 0:
        raise NotACrossing(f"t0={t0} is not a crossing instant")
    h = 1e-5 * (path.b - path.a) if h is None else h
    Q = _q_matrix(path, t0, basis, h, check_rng)
    return inertia_of(Q, floor=INERTIA_FLOOR * max(1.0, float(np.max(np.abs(Q)))))


# -- crossing localization ---------------------------------------------------


def _refined_grid(path1, path2, a, b, budget=CONTINUITY_BUDGET):
    """Sample parameters so consecutive frames of both paths move < budget.

    An interval passes only when its endpoints AND its midpoint are all
    within budget of each other: the endpoint gap alone aliases when a line
    rotates by a multiple of pi across one step.  Refinement runs in waves:
    the midpoints of every open interval are sampled in one batch per path
    and all their gaps come from one stacked SVD, then each interval is
    accepted or split in two for the next wave.
    """
    grids = [p.initial_grid(a, b) for p in (path1, path2)]
    ts = np.unique(np.concatenate(grids))
    out = [ts[-1:]]
    # on a positive span the floor is also relative to the parameter, so a
    # path rotating in log-time near a small endpoint can still be resolved
    finest = 2.0 ** (-MAX_REFINE_DEPTH)
    min_step = (b - a) * finest
    lo, hi = ts[:-1], ts[1:]
    guard = 0
    while lo.size:
        guard += lo.size
        if guard > 400000:
            raise ContinuityBudgetExceeded("refinement exploded; path too wild")
        mid = 0.5 * (lo + hi)
        # F[path, (lo, mid, hi)]: the gaps lo-mid and mid-hi of both paths
        F = np.array([np.split(p.frames(np.concatenate([lo, mid, hi])), 3) for p in (path1, path2)])
        shape = (-1,) + F.shape[-2:]
        gaps = stacked_principal_sines(path1.space, F[:, :2].reshape(shape), F[:, 1:].reshape(shape))
        move = gaps[:, -1].reshape(4, -1).max(axis=0)
        ok = move <= budget
        out += [lo[ok], mid[ok]]
        floor = np.minimum(min_step, lo * finest) if a > 0 else min_step
        stuck = np.flatnonzero(~ok & (hi - lo <= floor))
        if stuck.size:
            i = stuck[0]
            raise ContinuityBudgetExceeded(
                f"movement {move[i]:.3f} over step {hi[i] - lo[i]:.3e}")
        lo, hi = np.concatenate([lo[~ok], mid[~ok]]), np.concatenate([mid[~ok], hi[~ok]])
    return np.sort(np.concatenate(out))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_minimize(f, lo, hi, xatol, maxiter=300):
    """Golden-section search terminating on interval width alone.

    Crossing gaps are V-shaped (|t - t0| kinks), where parabolic minimizers
    stall at a sqrt(eps)*|t| floor; pure width-based golden section reaches
    the requested parameter tolerance.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(maxiter):
        if b - a <= xatol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def _sine_min(path1, path2, t):
    return float(principal_sines(path1(t), path2(t))[0])


def _count_small_sines(path1, path2, t, tol):
    s = principal_sines(path1(t), path2(t))
    return int(np.sum(s < tol))


def _smallest_sines(path1, path2, ts):
    return stacked_principal_sines(path1.space, path1.frames(ts), path2.frames(ts))[:, 0]


def _locate_crossings(path1, path2, a, b, budget=CONTINUITY_BUDGET,
                      sine_tol=CROSSING_SINE_TOL):
    """Crossing instants in [a, b] as (t, multiplicity, local_scale) triples,
    endpoints included.  ``local_scale`` is the width of the sample bracket
    the crossing was found in; since refinement tracks the path speed it is
    the right yardstick for finite-difference steps at that crossing."""
    ts = _refined_grid(path1, path2, a, b, budget)
    vals = _smallest_sines(path1, path2, ts)
    span = b - a
    xatol = max(LOCATE_REL_TOL * span, 1e-15)
    found = []

    last = len(ts) - 1
    crossing_ends = set()
    for i, t_end, nb_width in ((0, a, ts[1] - ts[0]), (last, b, ts[-1] - ts[-2])):
        m = _count_small_sines(path1, path2, t_end, tol=min(sine_tol, 1e-7))
        if m > 0:
            crossing_ends.add(i)
            found.append((t_end, m, float(nb_width)))

    # local minima of the sampled sine, each bracketed by its neighbours; a
    # minimum at an end sample that is not itself a crossing brackets the
    # one sample interval next to it.  A crossing can lie next to a sample
    # only when the sine there is at most what both paths move over the
    # interval: 2 budgets inside, the measured moves next to an end sample.
    trigger = np.full(len(ts), min(2.0 * budget, 0.5))
    for i, j in ((0, 1), (last, last - 1)):
        trigger[i] = min(trigger[i], sum(gap_distance(p(ts[i]), p(ts[j])) for p in (path1, path2)))
    for i in range(len(ts)):
        if vals[i] > trigger[i] or i in crossing_ends:
            continue
        left, right = max(i - 1, 0), min(i + 1, last)
        if vals[i] <= vals[left] and vals[i] <= vals[right]:
            t_star, _ = _golden_minimize(
                lambda t: _sine_min(path1, path2, t),
                ts[left], ts[right],
                max(xatol, 8.0 * np.finfo(float).eps * max(abs(ts[left]), abs(ts[right]))))
            if min(t_star - a, b - t_star) < 10 * xatol:
                continue  # at an endpoint: a crossing there is counted above
            m = _count_small_sines(path1, path2, t_star, tol=sine_tol)
            if m > 0:
                found.append((t_star, m, float(ts[right] - ts[left])))

    found.sort(key=lambda rec: rec[0])
    merged = []
    for t, m, w in found:
        if merged and abs(t - merged[-1][0]) < MERGE_REL_TOL * span:
            tm, mm, wm = merged[-1]
            merged[-1] = (tm, mm + m, min(wm, w))
        else:
            merged.append((t, m, w))
    return merged


def _persistent_intersection(path1, path2, a, b, sine_tol=CROSSING_SINE_TOL):
    hits = int(np.sum(_smallest_sines(path1, path2, np.linspace(a, b, 17)) < sine_tol))
    return hits >= 9


# -- the CLM index -----------------------------------------------------------


def _mu_from_records(records, a, b):
    mu = 0
    for rec in records:
        if rec.t == a:
            mu += rec.inertia.n_plus
        elif rec.t == b:
            mu -= rec.inertia.n_minus
        else:
            mu += rec.inertia.signature
    return mu


def _scan_once(path1, path2, a, b, h, check_rng, sine_tol=CROSSING_SINE_TOL):
    crossings = _locate_crossings(path1, path2, a, b, sine_tol=sine_tol)
    records = []
    for t0, _m, width in crossings:
        basis = intersection_basis(path1(t0), path2(t0), tol=sine_tol)
        if basis.shape[1] == 0:
            continue
        h_loc = min(h, 0.02 * width)
        Q = relative_crossing_matrix(path1, path2, t0, basis, h_loc, check_rng)
        floor = INERTIA_FLOOR * max(1.0, float(np.max(np.abs(Q))) if Q.size else 1.0)
        records.append(CrossingRecord(t0, basis, inertia_of(Q, floor)))
    return records


def maslov_clm(path1: LagrangianPath, path2: LagrangianPath,
               interval: tuple | None = None, *, h: float | None = None,
               check_rng=None, _sine_tol: float = CROSSING_SINE_TOL,
               _allow_perturbation: bool = True):
    """CLM Maslov index of the pair (path1, path2) plus its crossing records.

    Degenerate crossings trigger an endpoint-preserving J-rotation of path2
    with delta from PERTURBATION_DELTAS; the index must agree across two
    consecutive delta values or UnresolvedDegeneracy is raised.  Perturbed
    re-scans shrink the crossing-detection tolerance below delta so the
    rotated pair does not look coincident.
    """
    if path1.space != path2.space:
        raise SpaceMismatch("paths in different spaces")
    a, b = interval if interval is not None else (max(path1.a, path2.a), min(path1.b, path2.b))
    if not b > a:
        raise ValueError("empty parameter interval")
    h = 1e-5 * (b - a) if h is None else h

    persistent = _persistent_intersection(path1, path2, a, b, _sine_tol)
    records = [] if persistent else _scan_once(path1, path2, a, b, h, check_rng, _sine_tol)
    degenerate = persistent or any(r.inertia.n_zero > 0 for r in records)

    if not degenerate:
        return _mu_from_records(records, a, b), records

    if not _allow_perturbation:
        raise UnresolvedDegeneracy("degenerate crossings under perturbation")

    mus = []
    for delta in PERTURBATION_DELTAS:
        try:
            pert = path2.rotated(delta, a, b)
            mu_d, recs_d = maslov_clm(path1, pert, (a, b), h=min(h, 0.02 * delta * (b - a)),
                                      check_rng=check_rng,
                                      _sine_tol=min(CROSSING_SINE_TOL, delta / 20.0),
                                      _allow_perturbation=False)
        except (UnresolvedDegeneracy, ContinuityBudgetExceeded):
            mus.append(None)
            continue
        mus.append(mu_d)
        if len(mus) >= 2 and mus[-1] is not None and mus[-1] == mus[-2]:
            if persistent:
                records = recs_d
            return mus[-1], records
    raise UnresolvedDegeneracy(f"index not delta-stable: {mus}")


# -- triple and Hormander indices --------------------------------------------


def _span_intersection(U: np.ndarray, V: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of span(U) cap span(V) for orthonormal-column inputs."""
    if U.shape[1] == 0 or V.shape[1] == 0:
        return np.zeros((U.shape[0], 0))
    ns = sla.null_space(np.hstack([U, -V]), rcond=tol)
    if ns.shape[1] == 0:
        return np.zeros((U.shape[0], 0))
    vecs = U @ ns[: U.shape[1]]
    q, r = np.linalg.qr(vecs)
    rank = int(np.sum(np.abs(np.diag(r)) > tol))
    return q[:, :rank]


def _orth(cols: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    if cols.shape[1] == 0:
        return cols
    q, r = np.linalg.qr(cols)
    rank = int(np.sum(np.abs(np.diag(r)) > tol * max(1.0, np.max(np.abs(cols)))))
    return q[:, :rank]


def chart_coindex(alpha: LagrangianFrame, beta: LagrangianFrame,
                  gamma: LagrangianFrame, floor: float = 1e-9) -> int:
    """Coindex of the chart form Q(alpha, beta; gamma) on alpha cap (beta + gamma).

    For u in the domain, gamma contains u + Cu with Cu in beta and
    Q(u) = omega(Cu, u); the decomposition is solved by least squares on the
    stacked frames and its beta cap gamma ambiguity does not change Q.
    """
    if alpha.space != beta.space or alpha.space != gamma.space:
        raise SpaceMismatch("chart form needs one common space")
    J = alpha.space.form
    bg = _orth(np.hstack([beta.frame, gamma.frame]))
    dom = _span_intersection(alpha.frame, bg)
    if dom.shape[1] == 0:
        return 0
    stacked = np.hstack([beta.frame, gamma.frame])
    Z, *_ = np.linalg.lstsq(stacked, dom, rcond=None)
    Cu = -beta.frame @ Z[: beta.frame.shape[1]]
    B = Cu.T @ J @ dom
    B = 0.5 * (B + B.T)
    return inertia_of(B, floor=floor * max(1.0, float(np.max(np.abs(B))))).n_plus


def triple_index(alpha: LagrangianFrame, beta: LagrangianFrame,
                 gamma: LagrangianFrame, floor: float = 1e-9) -> int:
    """Triple index iota(alpha, beta, gamma) of three Lagrangian subspaces:
    the chart-form coindex plus dim(alpha cap gamma) - dim(alpha cap beta cap gamma)."""
    if alpha.space != beta.space or alpha.space != gamma.space:
        raise SpaceMismatch("triple index needs one common space")
    d_ag = _span_intersection(alpha.frame, gamma.frame).shape[1]
    ab = _span_intersection(alpha.frame, beta.frame)
    d_abg = _span_intersection(ab, gamma.frame).shape[1] if ab.shape[1] else 0
    return int(chart_coindex(alpha, beta, gamma, floor) + d_ag - d_abg)


def hormander_index(l1: LagrangianFrame, l2: LagrangianFrame,
                    m1: LagrangianFrame, m2: LagrangianFrame) -> int:
    """s(l1, l2; m1, m2) as the triple-index difference iota(l1,l2,m2) - iota(l1,l2,m1)."""
    return triple_index(l1, l2, m2) - triple_index(l1, l2, m1)


def hormander_via_maslov(l1: LagrangianFrame, l2: LagrangianFrame,
                         m1: LagrangianFrame, m2: LagrangianFrame,
                         path: LagrangianPath | None = None) -> int:
    """Cross-check route: Maslov-index difference along any path from l1 to l2.

    With the crossing-form convention of ``maslov_clm`` the path-independent
    combination matching the triple-index difference is
    mu(lam(t), m2) - mu(lam(t), m1); pinned by the rotating-line oracles in
    the test suite, including endpoint crossings.
    """
    lam = path if path is not None else LagrangianPath.connecting(l1, l2)
    mu2, _ = maslov_clm(lam, LagrangianPath.constant(m2, lam.a, lam.b))
    mu1, _ = maslov_clm(lam, LagrangianPath.constant(m1, lam.a, lam.b))
    return mu2 - mu1
