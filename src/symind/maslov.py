"""Lagrangian paths, the CLM Maslov index of path pairs, crossing forms, the
triple index and the Hormander index.

Conventions.  For a pair (l1, l2) of paths the index is

    mu(l1, l2; [a,b]) = n_plus(G(a)) + sum_interior sgn(G(t)) - n_minus(G(b)),

where G(t) is the relative crossing form Q(l2, l2') - Q(l1, l1') restricted to
l1(t) cap l2(t), and Q(L, L')[v] = d/dt omega(v, w(t)) with v + w(t) in l(t)
for a complement W transversal to l(t0).  A counterclockwise rotation of a
line through a fixed reference in (R^2, Omega) therefore scores +1 at an
interior crossing.

Counting rule.  An orthonormal frame [X; Y] of a Lagrangian L in (p, q)
coordinates gives the unitary U = X + iY, and S(L) = U U^T depends on L
alone.  W(t) = S(l2(t)) S(l1(t))^* has the eigenvalue 1 with multiplicity
dim(l1(t) cap l2(t)), and an eigenphase of W passes 1 counterclockwise where
the crossing form is positive on its direction (Howard, Latushkin &
Sukhtayev, J. Dyn. Diff. Eq. 2017; Booss-Bavnbek & Furutani 1998).  So mu is
the signed number of eigenphases passing the cut at angle 0 over a sample
grid on which both paths move little, which needs no regular-crossing
assumption.  Eigenphases are paired between samples by eigenvector overlap.
At t = a and t = b only, a phase within ENDPOINT_PHASE_TOL of 0 is an
endpoint crossing and sits on the 2 pi side of the cut; this gives n_plus at
a and -n_minus at b.  An endpoint phase that moves less than
ENDPOINT_PHASE_TOL over the adjacent sample step stays at the cut, as on
two constant paths that meet, and counts in n_zero.  A product space (-Omega) (+) Omega is first mapped to
the standard one by negating the left p-block.

``crossing_form`` and ``relative_crossing_matrix`` compute crossing forms
directly, by finite differences in a chart; the count does not use them, and
they serve as its independent check.
"""

from __future__ import annotations

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
    SymindError,
)

# Crossing machinery knobs; see the module tests for how they were pinned.
CONTINUITY_BUDGET = 0.08          # max subspace movement (sine of angle) per grid step
MAX_REFINE_DEPTH = 26             # dyadic subdivisions of one initial interval
ENDPOINT_PHASE_TOL = 1e-7         # eigenphase (rad) under which t = a or b is a crossing
LOCATE_REL_TOL = 1e-12            # relative parameter tolerance of the crossing root finder
INERTIA_FLOOR = 1e-7              # magnitude floor for calling a form eigenvalue zero

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class CrossingRecord:
    """A crossing instant; the inertia counts the eigenphases of W that pass
    1 counterclockwise (n_plus), clockwise (n_minus) or not at all (n_zero)."""

    t: float
    inertia: InertiaTriple

    @property
    def multiplicity(self) -> int:
        return self.inertia.total


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
        The skew-Hermitian logarithm is diagonalized once, L = V diag(i theta) V*,
        so U(t) = U0 V diag(exp(i t theta)) V* samples any number of
        parameters in one batch.
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
        theta, V = np.linalg.eigh(-0.5j * (L - L.conj().T))
        U0V, Vh = U0 @ V, V.conj().T

        def many(ts):
            U = (U0V * np.exp(1j * np.multiply.outer(ts, theta))[:, None, :]) @ Vh
            return np.concatenate([U.real, -U.imag], axis=1)

        def fun(t):
            return LagrangianFrame(space, many(np.array([float(t)]))[0])

        return cls(space, fun, 0.0, 1.0, many=many)


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


# -- the eigenphase count ----------------------------------------------------


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


def _souriau(space: SymplecticSpace, frames: np.ndarray) -> np.ndarray:
    """S(L) = U U^T, U = X + iY, for frames stacked as (k, dim, half_dim).

    A product space (-Omega) (+) Omega with coordinates (p_l, q_l, p_r, q_r)
    goes to the standard space through (p, q) = ((-p_l, p_r), (q_l, q_r)).
    """
    if space.kind == "product":
        nl, nr = space.blocks
        if space != SymplecticSpace.minus_plus(nl, nr):
            raise SpaceMismatch("product space without the (-Omega) (+) Omega form")
        X = np.concatenate([-frames[:, :nl], frames[:, 2 * nl:2 * nl + nr]], axis=1)
        Y = np.concatenate([frames[:, nl:2 * nl], frames[:, 2 * nl + nr:]], axis=1)
    else:
        n = space.half_dim
        if space != SymplecticSpace.standard(n):
            raise SpaceMismatch("space without the standard form")
        X, Y = frames[:, :n], frames[:, n:]
    U = X + 1j * Y
    return U @ np.swapaxes(U, 1, 2)


def _eig_w(path1, path2, ts):
    """Eigenvalues (k, n) and eigenvectors (k, n, n) of W at every t in ts."""
    space = path1.space
    W = _souriau(space, path2.frames(ts)) @ _souriau(space, path1.frames(ts)).conj()
    return np.linalg.eig(W)


def _pair_branches(lam, vecs):
    """Reorder eigenpairs so that column j follows one branch along the samples:
    consecutive samples are matched by largest eigenvector overlap, greedily
    where two eigenvectors prefer the same partner."""
    n = lam.shape[1]
    overlap = np.abs(np.swapaxes(vecs[:-1].conj(), 1, 2) @ vecs[1:])
    nxt = np.argmax(overlap, axis=2)
    for k in np.flatnonzero(np.any(np.sort(nxt, axis=1) != np.arange(n), axis=1)):
        o = overlap[k].copy()
        for _ in range(n):
            i, j = np.unravel_index(np.argmax(o), o.shape)
            nxt[k, i], o[i], o[:, j] = j, -1.0, -1.0
    order = np.empty(lam.shape, int)
    order[0] = np.arange(n)
    for k in range(len(nxt)):
        order[k + 1] = nxt[k][order[k]]
    return np.take_along_axis(lam, order, axis=1), np.take_along_axis(vecs, order[:, None, :], axis=2)


def _tracked_phases(path1, path2, ts, refs):
    """At each ts[i], the phase and eigenvector of W whose eigenvector
    overlaps refs[i] most."""
    lam, vecs = _eig_w(path1, path2, ts)
    j = np.argmax(np.abs(np.einsum("kn,knm->km", refs.conj(), vecs)), axis=1)
    k = np.arange(len(ts))
    return np.angle(lam[k, j]), vecs[k, :, j]


def _locate(path1, path2, lo, hi, g_lo, g_hi, sign, refs):
    """Roots of the tracked phases through 0, one per bracket [lo, hi].

    ``sign`` is +1 for a rising phase, -1 for a falling one, so that
    g = sign * phase has g_lo < 0 <= g_hi or g_lo <= 0 < g_hi.  All open
    brackets step together: one Illinois (modified regula falsi) point each,
    sampled in one batch per path with one stacked eig; a bracket that did
    not halve in one wave bisects in the next.  A bracket is done at width
    LOCATE_REL_TOL times its position or initial width.
    """
    xtol = LOCATE_REL_TOL * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), hi - lo)
    root = np.where(g_lo == 0, lo, np.where(g_hi == 0, hi, np.nan))
    width, moved = hi - lo, np.zeros(lo.shape, int)
    bisect = np.zeros(lo.shape, bool)
    while True:
        i = np.flatnonzero(np.isnan(root) & (hi - lo > xtol))
        if not i.size:
            break
        t = lo[i] - g_lo[i] * (hi[i] - lo[i]) / (g_hi[i] - g_lo[i])
        t = np.where(bisect[i] | ~((lo[i] < t) & (t < hi[i])), 0.5 * (lo[i] + hi[i]), t)
        phase, refs[i] = _tracked_phases(path1, path2, t, refs[i])
        g = sign[i] * phase
        root[i[g == 0]] = t[g == 0]
        left, right = i[g < 0], i[g > 0]
        # Illinois: halve the stale end's value when the same end moves twice
        g_hi[left[moved[left] == -1]] *= 0.5
        g_lo[right[moved[right] == 1]] *= 0.5
        lo[left], g_lo[left], moved[left] = t[g < 0], g[g < 0], -1
        hi[right], g_hi[right], moved[right] = t[g > 0], g[g > 0], 1
        bisect[i] = hi[i] - lo[i] > 0.5 * width[i]
        width[i] = hi[i] - lo[i]
    done = np.isnan(root)
    root[done] = lo[done] - g_lo[done] * (hi[done] - lo[done]) / (g_hi[done] - g_lo[done])
    return root, xtol


def _confirm_half_turns(path1, path2, lo, hi, refs):
    """Raise unless each tracked phase whose shorter arc passes the cut
    clockwise over [lo, hi] went the long way round: the brackets bisect
    together on the sign of the phase (positive before a half turn of the
    line, negative after) until a sample shows it beyond pi/2, and one that
    shrinks to the root tolerance first holds a clockwise crossing."""
    xtol = LOCATE_REL_TOL * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), hi - lo)
    i = np.arange(lo.size)
    while i.size:
        shut = i[hi[i] - lo[i] <= xtol[i]]
        if shut.size:
            raise SymindError(f"crossing at t={lo[shut[0]]} is not positive: "
                              "a phase passes the cut clockwise")
        t = 0.5 * (lo[i] + hi[i])
        phase, refs[i] = _tracked_phases(path1, path2, t, refs[i])
        near = np.abs(phase) <= 0.5 * np.pi
        lo[i[near & (phase > 0)]] = t[near & (phase > 0)]
        hi[i[near & (phase <= 0)]] = t[near & (phase <= 0)]
        i = i[near]


def _endpoint_inertia(phase, step) -> InertiaTriple:
    """Directions of the phases at the cut at an end sample, from the
    adjacent sample step; a phase that moves less than ENDPOINT_PHASE_TOL
    over the step stays at the cut and counts as zero."""
    d = step[np.abs(phase) < ENDPOINT_PHASE_TOL]
    return InertiaTriple(int(np.sum(d >= ENDPOINT_PHASE_TOL)),
                         int(np.sum(np.abs(d) < ENDPOINT_PHASE_TOL)),
                         int(np.sum(d <= -ENDPOINT_PHASE_TOL)))


def _crossings(path1, path2, a, b, counterclockwise):
    """The index and the crossing records of the pair on [a, b]."""
    ts = _refined_grid(path1, path2, a, b)
    lam, vecs = _pair_branches(*_eig_w(path1, path2, ts))
    phase = np.angle(lam)
    step = np.angle(lam[1:] * lam[:-1].conj())
    passes = np.floor((phase[:-1] + step) / _TWO_PI) - np.floor(phase[:-1] / _TWO_PI)
    # a phase at the cut at t = a or t = b is an endpoint crossing
    passes[0, np.abs(phase[0]) < ENDPOINT_PHASE_TOL] = 0
    passes[-1, np.abs(phase[-1]) < ENDPOINT_PHASE_TOL] = 0
    if counterclockwise:
        # every crossing is positive here, so a clockwise pass must be a half
        # turn of the line inside the step, which passes no cut
        k, j = np.nonzero(passes < 0)
        _confirm_half_turns(path1, path2, ts[k], ts[k + 1], vecs[k, :, j])
        passes[k, j] = 0
    at_a, at_b = _endpoint_inertia(phase[0], step[0]), _endpoint_inertia(phase[-1], step[-1])
    mu = int(passes.sum()) + at_a.n_plus - at_b.n_minus

    k, j = np.nonzero(passes)
    sign = passes[k, j]
    roots, xtol = _locate(path1, path2, ts[k], ts[k + 1], sign * phase[k, j],
                          sign * phase[k + 1, j], sign, vecs[k, :, j])
    # interior instants stay strictly inside (a, b), apart from endpoint records
    roots = np.clip(roots, np.nextafter(a, b), np.nextafter(b, a))
    # roots that agree to the root finder's tolerance are one instant
    order = np.argsort(roots, kind="stable")
    groups = np.split(order, 1 + np.flatnonzero(np.diff(roots[order]) > np.maximum(
        xtol[order[:-1]], xtol[order[1:]])))
    records = [CrossingRecord(float(roots[g[0]]), InertiaTriple(
        int(np.sum(sign[g] > 0)), 0, int(np.sum(sign[g] < 0)))) for g in groups if g.size]
    return mu, ([CrossingRecord(a, at_a)] if at_a.total else []) + records \
        + ([CrossingRecord(b, at_b)] if at_b.total else [])


def maslov_clm(path1: LagrangianPath, path2: LagrangianPath,
               interval: tuple | None = None, *, _counterclockwise: bool = False):
    """CLM Maslov index of the pair (path1, path2) plus its crossing records.

    ``_counterclockwise`` is for callers that know every crossing of the pair
    is positive (a flow with positive definite P against Dirichlet data): a
    step whose shorter arc passes the cut clockwise must then hold a half
    turn of the line, which passes no cut, or SymindError is raised.
    """
    if path1.space != path2.space:
        raise SpaceMismatch("paths in different spaces")
    a, b = interval if interval is not None else (max(path1.a, path2.a), min(path1.b, path2.b))
    if not b > a:
        raise ValueError("empty parameter interval")
    return _crossings(path1, path2, a, b, _counterclockwise)


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
