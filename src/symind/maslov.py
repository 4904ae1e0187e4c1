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
    INTERSECTION_TOL,
    InertiaTriple,
    LagrangianFrame,
    SymplecticSpace,
    inertia_of,
    intersection_basis,
    intersection_dim,
    principal_sines,
    random_lagrangian,
    stacked_principal_sines,
)
from .errors import (
    ChartBreakdown,
    ContinuityBudgetExceeded,
    Inconclusive,
    NotACrossing,
    SpaceMismatch,
)

# Crossing machinery knobs; see the module tests for how they were pinned.
CONTINUITY_BUDGET = 0.08          # max subspace movement (sine of angle) per grid step
MAX_REFINE_DEPTH = 26             # dyadic subdivisions of one initial interval
ENDPOINT_PHASE_TOL = 1e-7         # eigenphase (rad) under which t = a or b is a crossing
LOCATE_REL_TOL = 1e-12            # relative parameter tolerance of the crossing root finder
INERTIA_FLOOR = 1e-7              # magnitude floor for calling a form eigenvalue zero
CROSSING_FORM_TOL = 1e-6          # crossing_form's intersection sines; looser than INTERSECTION_TOL

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
    """A sampled path of Lagrangian subspaces on [a, b].

    ``frames(ts)`` maps a 1-d array of parameters to their frame matrices,
    stacked as (len(ts), dim, half_dim), in one call.  Nothing is cached: the
    crossing scan samples each parameter once and carries the frames it
    needs.  ``pointwise`` adapts a sampler that returns one LagrangianFrame
    per instant.
    """

    def __init__(self, space: SymplecticSpace, frames, a: float, b: float,
                 samples: int = 256, grid=None):
        if not b > a:
            raise ValueError("need b > a")
        self.space = space
        self.a = float(a)
        self.b = float(b)
        self.samples = int(samples)
        self.grid = None if grid is None else np.asarray(grid, dtype=float)
        self._frames = frames

    def initial_grid(self, a: float, b: float) -> np.ndarray:
        """Initial sample parameters in [a, b]; samplers with non-uniform
        natural scales (e.g. flows toward a coordinate singularity) supply
        their own grid to avoid aliasing fast rotations."""
        if self.grid is not None:
            inside = self.grid[(self.grid >= a) & (self.grid <= b)]
            return np.unique(np.concatenate([[a], inside, [b]]))
        return np.linspace(a, b, max(self.samples, 16))

    def __call__(self, t: float) -> LagrangianFrame:
        return LagrangianFrame(self.space, self.frames([t])[0])

    def frames(self, ts) -> np.ndarray:
        """Frame matrices at every t in ts, stacked as (len(ts), dim, half_dim);
        a sampler that returns another shape raises SpaceMismatch."""
        ts = np.asarray(ts, dtype=float)
        F = self._frames(ts)
        shape = (len(ts), self.space.dim, self.space.half_dim)
        if np.shape(F) != shape:
            raise SpaceMismatch(f"sampler returned frames of shape {np.shape(F)}, expected {shape}")
        return F

    # -- constructors ---------------------------------------------------

    @classmethod
    def pointwise(cls, space: SymplecticSpace, fun, a: float, b: float,
                  samples: int = 256) -> "LagrangianPath":
        """A path from a sampler t -> LagrangianFrame, called once per instant."""
        def frames(ts):
            out = [fun(float(t)) for t in ts]
            if not all(isinstance(f, LagrangianFrame) and f.space == space for f in out):
                raise SpaceMismatch("sampler returned no frame in the path's space")
            return np.array([f.frame for f in out]).reshape(len(ts), space.dim, space.half_dim)

        return cls(space, frames, a, b, samples=samples)

    @classmethod
    def constant(cls, frame: LagrangianFrame, a: float, b: float) -> "LagrangianPath":
        F = frame.frame
        return cls(frame.space, lambda ts: np.broadcast_to(F, (len(ts),) + F.shape), a, b,
                   samples=16)

    @classmethod
    def rotation(cls, base: LagrangianFrame, angle_fun, a: float, b: float) -> "LagrangianPath":
        """Frame exp(angle(t) J) . base = cos(angle) base + sin(angle) J base,
        ``angle_fun`` taking an array of parameters; counterclockwise for
        increasing angle means the (p, q)-plane rotation taking the p-axis
        toward the q-axis is angle -pi/2, i.e. exp(theta J)(1,0) = (cos theta, -sin theta)."""
        F, JF = base.frame, base.space.form @ base.frame

        def frames(ts):
            angle = np.asarray(angle_fun(ts))[..., None, None]
            return np.cos(angle) * F + np.sin(angle) * JF

        return cls(base.space, frames, a, b)

    @classmethod
    def connecting(cls, start: LagrangianFrame, end: LagrangianFrame) -> "LagrangianPath":
        """A smooth path on [0, 1] from start to end in a standard space.

        Uses the unitary parametrization U = X - iY of an orthonormal
        Lagrangian frame [X; Y] and interpolates along exp(t log(U0* U1)).
        U0* U1 is unitary, hence normal, so its complex Schur form
        Z T Z* has T diagonal to roundoff and theta = angle(diag T) are the
        eigenphases; U(t) = U0 Z diag(exp(i t theta)) Z* samples any number
        of parameters in one batch.
        """
        space = start.space
        if space.kind != "standard":
            raise SpaceMismatch("connecting paths are implemented for standard spaces")
        if end.space != space:
            raise SpaceMismatch("endpoints in different spaces")
        n = space.half_dim
        U0 = start.frame[:n] - 1j * start.frame[n:]
        U1 = end.frame[:n] - 1j * end.frame[n:]
        T, Z = sla.schur(U0.conj().T @ U1, output="complex")
        theta = np.angle(np.diag(T))
        U0Z, Zh = U0 @ Z, Z.conj().T

        def frames(ts):
            U = (U0Z * np.exp(1j * np.multiply.outer(ts, theta))[:, None, :]) @ Zh
            return np.concatenate([U.real, -U.imag], axis=1)

        return cls(space, frames, 0.0, 1.0)


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
    F = path.frames(path.a + (path.b - path.a) * np.array(
        [0.0, 1.0, 0.6180339887498949, 0.12345678901234568]))
    return bool(np.all(stacked_principal_sines(path.space, F[:1], F[1:])[:, -1] < 1e-14))


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
                  h: float | None = None, check_rng=None) -> InertiaTriple:
    """Inertia of the crossing form of ``path`` against a fixed reference at t0."""
    if reference.space != path.space:
        raise SpaceMismatch("reference frame in the wrong space")
    basis = intersection_basis(path(t0), reference, tol=CROSSING_FORM_TOL)
    if basis.shape[1] == 0:
        raise NotACrossing(f"t0={t0} is not a crossing instant")
    h = 1e-5 * (path.b - path.a) if h is None else h
    Q = _q_matrix(path, t0, basis, h, check_rng)
    return inertia_of(Q, floor=INERTIA_FLOOR * max(1.0, float(np.max(np.abs(Q)))))


# -- the eigenphase count ----------------------------------------------------


def _refined_grid(path1, path2, a, b, budget=CONTINUITY_BUDGET):
    """Sample parameters ts so consecutive frames of both paths move < budget,
    and the frames F of both paths there, (2, len(ts), dim, half_dim).

    An interval passes only when its endpoints AND its midpoint are all
    within budget of each other: the endpoint gap alone aliases when a line
    rotates by a multiple of pi across one step.  Refinement runs in waves:
    the midpoints of every open interval (with the initial grid, in the
    first wave) are sampled in one batch per path and all their gaps come
    from one stacked SVD, then each interval is accepted or split in two for
    the next wave.  Intervals index the samples taken so far, so every
    parameter is sampled once and every sample is a grid point.
    """
    ts = np.unique(np.concatenate([p.initial_grid(a, b) for p in (path1, path2)]))
    F = np.zeros((2, 0, path1.space.dim, path1.space.half_dim))
    # on a positive span the floor is also relative to the parameter, so a
    # path rotating in log-time near a small endpoint can still be resolved
    finest = 2.0 ** (-MAX_REFINE_DEPTH)
    min_step = (b - a) * finest
    lo, hi = np.arange(ts.size - 1), np.arange(1, ts.size)
    guard = 0
    while lo.size:
        guard += lo.size
        if guard > 400000:
            raise ContinuityBudgetExceeded("refinement exploded; path too wild")
        mid = np.arange(ts.size, ts.size + lo.size)
        ts = np.concatenate([ts, 0.5 * (ts[lo] + ts[hi])])
        new = ts[F.shape[1]:]
        F = np.concatenate([F, [path1.frames(new), path2.frames(new)]], axis=1)
        # the gaps lo-mid and mid-hi of both paths
        shape = (-1,) + F.shape[-2:]
        gaps = stacked_principal_sines(path1.space, F[:, np.concatenate([lo, mid])].reshape(shape),
                                       F[:, np.concatenate([mid, hi])].reshape(shape))
        move = gaps[:, -1].reshape(4, -1).max(axis=0)
        ok = move <= budget
        floor = np.minimum(min_step, ts[lo] * finest) if a > 0 else min_step
        stuck = np.flatnonzero(~ok & (ts[hi] - ts[lo] <= floor))
        if stuck.size:
            i = stuck[0]
            raise ContinuityBudgetExceeded(
                f"movement {move[i]:.3f} over step {ts[hi[i]] - ts[lo[i]]:.3e}")
        lo, hi = np.concatenate([lo[~ok], mid[~ok]]), np.concatenate([mid[~ok], hi[~ok]])
    order = np.argsort(ts)
    return ts[order], F[:, order]


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


def _eig_w(space, F):
    """Eigenvalues (k, n) and eigenvectors (k, n, n) of W from the frames
    F of both paths, (2, k, dim, half_dim).  For n = 1 the unitary W is its
    own eigenvalue and its eigenvector is 1, without the batched eig."""
    W = _souriau(space, F[1]) @ _souriau(space, F[0]).conj()
    if W.shape[-1] == 1:
        return W[:, 0], np.ones_like(W)
    return np.linalg.eig(W)


def _pair_branches(lam, vecs):
    """Reorder eigenpairs so that column j follows one branch along the samples:
    consecutive samples are matched by largest eigenvector overlap, greedily
    where two eigenvectors prefer the same partner.  The matchings compose
    into each sample's order by the doubling of ``sturm._chain``, here on
    index maps.  With n = 1 there is nothing to pair."""
    n = lam.shape[1]
    if n == 1:
        return lam, vecs
    overlap = np.abs(np.swapaxes(vecs[:-1].conj(), 1, 2) @ vecs[1:])
    nxt = np.argmax(overlap, axis=2)
    for k in np.flatnonzero(np.any(np.sort(nxt, axis=1) != np.arange(n), axis=1)):
        o = overlap[k].copy()
        for _ in range(n):
            i, j = np.unravel_index(np.argmax(o), o.shape)
            nxt[k, i], o[i], o[:, j] = j, -1.0, -1.0
    # order[k + 1] = nxt[k][order[k]]: after the pass of stride s each map
    # composes its last 2s matchings
    s = 1
    while s < len(nxt):
        nxt[s:] = np.take_along_axis(nxt[s:], nxt[:-s], axis=1)
        s *= 2
    order = np.concatenate([np.arange(n)[None], nxt])
    return np.take_along_axis(lam, order, axis=1), np.take_along_axis(vecs, order[:, None, :], axis=2)


def _tracked_phases(path1, path2, ts, refs):
    """At each ts[i], the phase and eigenvector of W whose eigenvector
    overlaps refs[i] most."""
    lam, vecs = _eig_w(path1.space, np.array([path1.frames(ts), path2.frames(ts)]))
    j = np.argmax(np.abs(np.einsum("kn,knm->km", refs.conj(), vecs)), axis=1)
    k = np.arange(len(ts))
    return np.angle(lam[k, j]), vecs[k, :, j]


def _locate(path1, path2, lo, hi, g_lo, g_hi, sign, refs):
    """Roots of the tracked phases through 0, one per bracket [lo, hi].

    ``sign`` is +1 for a rising phase, -1 for a falling one, so that
    g = sign * phase has g_lo < 0 <= g_hi or g_lo <= 0 < g_hi.  All open
    brackets step together, sampled in one batch per path with one stacked
    eig per wave, by Chandrupatla's method (Adv. Eng. Softw. 28, 1997): the
    first point is the false-position point of the bracket, later ones the
    inverse quadratic interpolant through the bracket ends and the point last
    dropped, or the midpoint where the three values fail its validity test.
    Each point is kept at least xtol / 2 inside the bracket, so a good
    estimate closes it in one more wave.  A bracket is done at width xtol,
    LOCATE_REL_TOL times its position or initial width; its root is the
    false-position point of the final bracket.
    """
    xtol = LOCATE_REL_TOL * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), hi - lo)
    root = np.where(g_lo == 0, lo, np.where(g_hi == 0, hi, np.nan))
    # x1 is the newest point, x2 the bracket's other end, x3 the point dropped
    x1, f1, x2, f2 = hi.copy(), g_hi.copy(), lo.copy(), g_lo.copy()
    x3, f3 = x1.copy(), f1.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = f1 / (f1 - f2)
    while True:
        i = np.flatnonzero(np.isnan(root) & (np.abs(x1 - x2) > xtol))
        if not i.size:
            break
        lim = 0.5 * xtol[i] / np.abs(x1[i] - x2[i])
        t = x1[i] + np.clip(frac[i], lim, 1.0 - lim) * (x2[i] - x1[i])
        phase, refs[i] = _tracked_phases(path1, path2, t, refs[i])
        g = sign[i] * phase
        root[i[g == 0]] = t[g == 0]
        # the end on g's side of the root is dropped to x3; when g's sign
        # differs from f1's, x1 becomes the bracket's other end
        flip = i[np.sign(g) != np.sign(f1[i])]
        x3[i], f3[i] = x1[i], f1[i]
        x3[flip], f3[flip], x2[flip], f2[flip] = x2[flip], f2[flip], x1[flip], f1[flip]
        x1[i], f1[i] = t, g
        a, b, c, fa, fb, fc = x1[i], x2[i], x3[i], f1[i], f2[i], f3[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
            iqi = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        frac[i] = np.where((phi ** 2 < xi) & ((1.0 - phi) ** 2 < 1.0 - xi), iqi, 0.5)
    done = np.isnan(root)
    root[done] = x2[done] - f2[done] * (x1[done] - x2[done]) / (f1[done] - f2[done])
    return root, xtol


def _endpoint_inertia(phase, step) -> InertiaTriple:
    """Directions of the phases at the cut at an end sample, from the
    adjacent sample step; a phase that moves less than ENDPOINT_PHASE_TOL
    over the step stays at the cut and counts as zero."""
    d = step[np.abs(phase) < ENDPOINT_PHASE_TOL]
    return InertiaTriple(int(np.sum(d >= ENDPOINT_PHASE_TOL)),
                         int(np.sum(np.abs(d) < ENDPOINT_PHASE_TOL)),
                         int(np.sum(d <= -ENDPOINT_PHASE_TOL)))


def _crossings(path1, path2, a, b):
    """The index and the crossing records of the pair on [a, b]."""
    ts, F = _refined_grid(path1, path2, a, b)
    lam, vecs = _pair_branches(*_eig_w(path1.space, F))
    phase = np.angle(lam)
    step = np.angle(lam[1:] * lam[:-1].conj())
    passes = np.floor((phase[:-1] + step) / _TWO_PI) - np.floor(phase[:-1] / _TWO_PI)
    # a phase at the cut at t = a or t = b is an endpoint crossing
    passes[0, np.abs(phase[0]) < ENDPOINT_PHASE_TOL] = 0
    passes[-1, np.abs(phase[-1]) < ENDPOINT_PHASE_TOL] = 0
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
               interval: tuple | None = None):
    """CLM Maslov index of the pair (path1, path2) plus its crossing records."""
    if path1.space != path2.space:
        raise SpaceMismatch("paths in different spaces")
    a, b = interval if interval is not None else (max(path1.a, path2.a), min(path1.b, path2.b))
    if not b > a:
        raise ValueError("empty parameter interval")
    return _crossings(path1, path2, a, b)


# -- triple and Hormander indices --------------------------------------------


def triple_index(alpha: LagrangianFrame, beta: LagrangianFrame,
                 gamma: LagrangianFrame) -> int:
    """Triple index iota(alpha, beta, gamma): the coindex of the chart form
    Q(alpha, beta; gamma) on alpha cap (beta + gamma) plus dim(alpha cap gamma)
    - dim(alpha cap beta cap gamma), in closed form (Lion & Vergne, The Weil
    representation, Maslov index and theta series, 1980; Cappell, Lee &
    Miller, CPAM 47, 1994)

        2 iota = tau + n - dim(alpha cap beta) - dim(beta cap gamma) + dim(alpha cap gamma)

    by sgn Q = tau, the signature of the Kashiwara form omega(a, b) +
    omega(b, c) + omega(c, a) on alpha (+) beta (+) gamma, ker Q = alpha cap
    beta + alpha cap gamma and dim alpha cap (beta + gamma) = n - dim(beta cap
    gamma) + dim(alpha cap beta cap gamma).  Both read the form matrices
    M_ab = A^T J B, M_bc, M_ca: a dimension counts the singular values of one,
    its principal sines, at or below INTERSECTION_TOL, and tau the eigenvalues
    of their block matrix beyond half of it.  An odd right-hand side means the
    counts disagree at a sine near the tolerance and raises Inconclusive.
    """
    if alpha.space != beta.space or alpha.space != gamma.space:
        raise SpaceMismatch("triple index needs one common space")
    space = alpha.space
    F = np.array([alpha.frame, beta.frame, gamma.frame])
    sines = stacked_principal_sines(space, F, F[[1, 2, 0]])
    d_ab, d_bc, d_ca = np.sum(sines <= INTERSECTION_TOL, axis=1).tolist()
    M_ab, M_bc, M_ca = np.swapaxes(F, 1, 2) @ space.form @ F[[1, 2, 0]]
    Z = np.zeros_like(M_ab)
    tau = inertia_of(np.block([[Z, M_ab, M_ca.T], [M_ab.T, Z, M_bc], [M_ca, M_bc.T, Z]]),
                     floor=0.5 * INTERSECTION_TOL).signature
    twice = tau + space.half_dim - d_ab - d_bc + d_ca
    if twice % 2:
        raise Inconclusive(f"Kashiwara signature {tau} and intersection dimensions "
                           f"{d_ab}, {d_bc}, {d_ca} disagree at a principal sine near the tolerance")
    return twice // 2


def chart_coindex(alpha: LagrangianFrame, beta: LagrangianFrame,
                  gamma: LagrangianFrame) -> int:
    """Coindex of the chart form Q(alpha, beta; gamma) on alpha cap (beta + gamma),
    Q(u) = omega(Cu, u) where gamma contains u + Cu with Cu in beta: iota minus
    dim(alpha cap gamma) plus dim(alpha cap beta cap gamma), the principal
    sines of the ``intersection_basis`` of alpha cap beta against gamma."""
    iota = triple_index(alpha, beta, gamma)
    ab = intersection_basis(alpha, beta)
    d_abg = int(np.sum(stacked_principal_sines(alpha.space, ab[None], gamma.frame[None])
                       <= INTERSECTION_TOL))
    return iota - intersection_dim(alpha, gamma) + d_abg


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
