"""Lagrangian paths, the CLM Maslov index of path pairs, crossing forms, the
triple index and the Hormander index.

Conventions.  For a pair (l1, l2) of paths the index is

    mu(l1, l2; [a,b]) = n_plus(G(a)) + sum_interior sgn(G(t)) - n_minus(G(b)),

where G(t) is the relative crossing form Q(l2, l2') - Q(l1, l1') restricted to
l1(t) cap l2(t), and Q(L, L')[v] = omega(v, P'(t0) v) for the orthogonal
projector P(t) onto l(t); this is d/dt omega(v, w(t)) with v + w(t) in l(t)
for any complement W transversal to l(t0) (Robbin & Salamon, Topology 32,
1993).  A counterclockwise rotation of a line through a fixed reference in
(R^2, Omega) therefore scores +1 at an interior crossing.

Counting rule.  An orthonormal frame [X; Y] of a Lagrangian L in (p, q)
coordinates gives the unitary U = X + iY, and S(L) = U U^T depends on L
alone.  W(t) = S(l2(t)) S(l1(t))^* has the eigenvalue 1 with multiplicity
dim(l1(t) cap l2(t)), and an eigenphase of W passes 1 counterclockwise where
the crossing form is positive on its direction (Howard, Latushkin &
Sukhtayev, J. Dyn. Diff. Eq. 2017; Booss-Bavnbek & Furutani 1998).  So mu is
the signed number of eigenphases passing angle 0 over a sample grid on
which both paths move little, which needs no regular-crossing assumption.
The count reads eigenvalues only: each grid step sorts both of its spectra
counterclockwise from a cut in the middle of the widest gap of the first.
The spectra of two unitaries match within the norm of their difference
(Bhatia & Davis, Linear Multilinear Algebra 15, 1984), so no phase reaches
that cut within the step and the i-th phase from it is one phase at both
ends.  At t = a and t = b only, a phase within ENDPOINT_PHASE_TOL of 0 is an
endpoint crossing and sits on the 2 pi side of angle 0; this gives n_plus
at a and -n_minus at b.  An endpoint phase that moves less than
ENDPOINT_PHASE_TOL over the adjacent sample step stays at 0, as on two
constant paths that meet, and counts in n_zero.  A product space
(-Omega) (+) Omega is first mapped to the standard one by negating the left
p-block.

``crossing_form`` and ``relative_crossing_matrix`` compute crossing forms
directly, from finite differences of the projector; the count does not use
them, and they serve as its independent check.
"""

from __future__ import annotations

import math
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
    stacked_principal_sines,
)
from .errors import (
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

    Each path states where the crossing scan must sample it first: ``grid``
    when given, else 256 evenly spaced parameters.  A constant path
    gives its two ends, a connecting path a uniform grid fine enough for its
    speed bound, and a flow its own natural scale; refinement then splits
    every interval that still moves more than the continuity budget.
    """

    def __init__(self, space: SymplecticSpace, frames, a: float, b: float, grid=None):
        if not b > a:
            raise ValueError("need b > a")
        self.space = space
        self.a = float(a)
        self.b = float(b)
        self.grid = None if grid is None else np.asarray(grid, dtype=float)
        self._frames = frames

    def initial_grid(self, a: float, b: float) -> np.ndarray:
        """Initial sample parameters in [a, b]; samplers with non-uniform
        natural scales (e.g. flows toward a coordinate singularity) supply
        their own grid to avoid aliasing fast rotations."""
        if self.grid is not None:
            inside = self.grid[(self.grid >= a) & (self.grid <= b)]
            return np.unique(np.concatenate([[a], inside, [b]]))
        return np.linspace(a, b, 256)

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
                  grid=None) -> "LagrangianPath":
        """A path from a sampler t -> LagrangianFrame, called once per instant."""
        def frames(ts):
            out = [fun(float(t)) for t in ts]
            if not all(isinstance(f, LagrangianFrame) and f.space == space for f in out):
                raise SpaceMismatch("sampler returned no frame in the path's space")
            return np.array([f.frame for f in out]).reshape(len(ts), space.dim, space.half_dim)

        return cls(space, frames, a, b, grid=grid)

    @classmethod
    def constant(cls, frame: LagrangianFrame, a: float, b: float) -> "LagrangianPath":
        """The path that stays at ``frame``; it does not move, so its grid is
        its two ends and it adds no interior sample to a scan."""
        F = frame.frame
        return cls(frame.space, lambda ts: np.broadcast_to(F, (len(ts),) + F.shape), a, b,
                   grid=[a, b])

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

        The path moves at a proven speed: ||U(t + h) - U(t)||_2 =
        max|exp(i h theta) - 1| <= max|theta| h, and the sine of the largest
        principal angle between L(t) and L(t + h) is at most that norm
        (the eigenphase picture of Howard, Latushkin & Sukhtayev, J. Dyn.
        Diff. Eq. 2017).  So the grid has ceil(max|theta| / (2 budget))
        uniform steps, at most 20 since |theta| <= pi, and the midpoints of
        the first refinement wave already lie within CONTINUITY_BUDGET of
        both ends of their step.
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

        steps = max(1, math.ceil(np.max(np.abs(theta)) / (2.0 * CONTINUITY_BUDGET)))
        return cls(space, frames, 0.0, 1.0, grid=np.linspace(0.0, 1.0, steps + 1))


# -- crossing forms ----------------------------------------------------------


def _projector_rate(path: LagrangianPath, t0: float, h: float) -> np.ndarray:
    """P'(t0) of the orthogonal projector P(t) = F F^T onto path(t), F its
    orthonormal frame, from one batched ``frames`` call.

    Second-order differences with steps h/2 and h and one Richardson step;
    both steps take the central stencil when h fits inside the path's domain
    and the same one-sided one otherwise.  A stencil sums differences from
    its first node, so a constant path has P' = 0 exactly.
    """
    # nodes in units of the step, and the weights of their differences from the first
    if t0 - h >= path.a and t0 + h <= path.b:
        x, w = np.array([-1.0, 1.0]), [1.0]
    elif t0 + 2 * h <= path.b:
        x, w = np.array([0.0, 1.0, 2.0]), [4.0, -1.0]
    elif t0 - 2 * h >= path.a:
        x, w = np.array([0.0, -1.0, -2.0]), [-4.0, 1.0]
    else:
        raise ValueError("step too large for the path domain")
    F = path.frames(t0 + np.concatenate([0.5 * h * x, h * x]))
    P = (F @ np.swapaxes(F, 1, 2)).reshape(2, len(x), path.space.dim, path.space.dim)
    D = np.tensordot(w, P[:, 1:] - P[:, :1], (0, 1)) / np.array([h, 2.0 * h])[:, None, None]
    return (4.0 * D[0] - D[1]) / 3.0


def relative_crossing_matrix(path1: LagrangianPath, path2: LagrangianPath,
                             t0: float, basis: np.ndarray, h: float) -> np.ndarray:
    """Matrix of Q(path2) - Q(path1) on the intersection basis at t0, with
    Q(v) = omega(v, P'(t0) v) for the projector P of ``_projector_rate``.

    For v = F a in l(t0) this is the chart definition d/dt omega(v, w(t)):
    omega(v, P'v) = omega(v, F'a) + omega(v, F F'^T v), and the last term
    vanishes because l(t0) is Lagrangian.  P depends on l(t) alone, so no
    chart, complement or frame is chosen.
    """
    rate = _projector_rate(path2, t0, h) - _projector_rate(path1, t0, h)
    Q = basis.T @ path1.space.form @ rate @ basis
    return 0.5 * (Q + Q.T)


def crossing_form(path: LagrangianPath, reference: LagrangianFrame, t0: float,
                  h: float | None = None) -> InertiaTriple:
    """Inertia of the crossing form of ``path`` against a fixed reference at
    t0: the relative crossing matrix against the constant path at
    ``reference``, on a basis of their intersection."""
    if reference.space != path.space:
        raise SpaceMismatch("reference frame in the wrong space")
    basis = intersection_basis(path(t0), reference, tol=CROSSING_FORM_TOL)
    if basis.shape[1] == 0:
        raise NotACrossing(f"t0={t0} is not a crossing instant")
    h = 1e-5 * (path.b - path.a) if h is None else h
    Q = relative_crossing_matrix(LagrangianPath.constant(reference, path.a, path.b),
                                 path, t0, basis, h)
    return inertia_of(Q, floor=INERTIA_FLOOR * max(1.0, float(np.max(np.abs(Q)))))


# -- the eigenphase count ----------------------------------------------------


def _refined_grid(path1, path2, a, b, budget=CONTINUITY_BUDGET):
    """Sample parameters ts so consecutive frames of both paths move <= budget,
    and the frames F of both paths there, (2, len(ts), dim, half_dim).

    An interval passes when both of its halves, lo-mid and mid-hi, move
    within budget; the lo-hi gap itself is not checked.  The lo-hi gap alone
    would alias when a line rotates by a multiple of pi across one step.  A
    path whose speed is bounded by v passes in the first wave when its
    initial steps are at most 2 budget / v, as those of ``connecting`` are.
    Refinement runs in waves: the midpoints of every open interval (with the
    initial grid, in the first wave) are sampled in one batch per path and
    all their gaps come from one stacked SVD, then each interval is accepted
    or split in two for the next wave.  Intervals index the samples taken so
    far, so every parameter is sampled once and every sample is a grid point.
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


def _eig_w(W):
    """Eigenvalues (k, n) of the stacked unitaries W; W itself when n = 1."""
    return W[:, :, 0] if W.shape[-1] == 1 else np.linalg.eigvals(W)


def _cuts(lam):
    """The middle of the widest gap of each spectrum in lam (k, n), and half that gap."""
    p = np.sort(np.angle(lam), axis=1)
    gaps = np.diff(p, axis=1, append=p[:, :1] + _TWO_PI)
    half = 0.5 * gaps.max(axis=1)
    return p[np.arange(len(p)), np.argmax(gaps, axis=1)] + half, half


def _from_cut(lam, cut):
    """Each row of lam (k, n) sorted counterclockwise from the angle cut[k]."""
    if lam.shape[1] == 1:
        return lam
    order = np.argsort(np.mod(np.angle(lam) - cut[:, None], _TWO_PI), axis=1)
    return np.take_along_axis(lam, order, axis=1)


def _ordered_phases(path1, path2, ts, cut, j):
    """At each ts[i], the phase of the j[i]-th eigenvalue of W counted
    counterclockwise from the angle cut[i]."""
    W = _souriau(path1.space, path2.frames(ts)) @ _souriau(path1.space, path1.frames(ts)).conj()
    return np.angle(_from_cut(_eig_w(W), cut)[np.arange(len(ts)), j])


def _locate(path1, path2, lo, hi, g_lo, g_hi, sign, cut, j):
    """Roots through 0 of the j-th phase from the cut, one per bracket [lo, hi].

    ``sign`` is +1 for a rising phase, -1 for a falling one, so that
    g = sign * phase has g_lo < 0 <= g_hi or g_lo <= 0 < g_hi.  All open
    brackets step together, sampled in one batch per path with one stacked
    eigvals per wave, by Chandrupatla's method (Adv. Eng. Softw. 28, 1997):
    the first point is the false-position point of the bracket, later ones
    the inverse quadratic interpolant through the bracket ends and the point
    last dropped, or the midpoint where the three values fail its validity
    test.  Each point is kept at least xtol / 2 inside the bracket, so a good
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
        g = sign[i] * _ordered_phases(path1, path2, t, cut[i], j[i])
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
    """Directions of the phases at 0 at an end sample, from the
    adjacent sample step; a phase that moves less than ENDPOINT_PHASE_TOL
    over the step stays at 0 and counts as zero."""
    d = step[np.abs(phase) < ENDPOINT_PHASE_TOL]
    return InertiaTriple(int(np.sum(d >= ENDPOINT_PHASE_TOL)),
                         int(np.sum(np.abs(d) < ENDPOINT_PHASE_TOL)),
                         int(np.sum(d <= -ENDPOINT_PHASE_TOL)))


def _crossings(path1, path2, a, b):
    """The index and the crossing records of the pair on [a, b].

    A step where the bound 2 asin(||dW||_F / 2) on the phases' movement
    reaches half the widest gap raises ContinuityBudgetExceeded.  Eigenvalues
    cannot tell a crossing from an avoided one, so a cancelling pair of
    passes inside one step leaves no record; the index is the same.
    """
    ts, F = _refined_grid(path1, path2, a, b)
    W = _souriau(path1.space, F[1]) @ _souriau(path1.space, F[0]).conj()
    lam = _eig_w(W)
    cut, half = _cuts(lam)
    move = 2.0 * np.arcsin(np.minimum(1.0, 0.5 * np.linalg.norm(np.diff(W, axis=0), axis=(1, 2))))
    if np.any(move >= half[:-1]):
        i = np.argmax(move >= half[:-1])
        raise ContinuityBudgetExceeded(f"eigenphases may move {move[i]:.3f} over [{ts[i]:.6g}, "
                                       f"{ts[i + 1]:.6g}], half their widest gap {half[i]:.3f}")
    lam0, lam1 = _from_cut(lam[:-1], cut[:-1]), _from_cut(lam[1:], cut[:-1])
    phase, end, step = np.angle(lam0), np.angle(lam1), np.angle(lam1 * lam0.conj())
    passes = np.floor((phase + step) / _TWO_PI) - np.floor(phase / _TWO_PI)
    # a phase at 0 at t = a or t = b is an endpoint crossing
    passes[0, np.abs(phase[0]) < ENDPOINT_PHASE_TOL] = 0
    passes[-1, np.abs(end[-1]) < ENDPOINT_PHASE_TOL] = 0
    at_a, at_b = _endpoint_inertia(phase[0], step[0]), _endpoint_inertia(end[-1], step[-1])
    mu = int(passes.sum()) + at_a.n_plus - at_b.n_minus

    k, j = np.nonzero(passes)
    sign = passes[k, j]
    roots, xtol = _locate(path1, path2, ts[k], ts[k + 1], sign * phase[k, j],
                          sign * end[k, j], sign, cut[k], j)
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
    n = space.half_dim
    a, b, c = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    K = np.zeros((3 * n, 3 * n))
    K[a, b], K[b, c], K[c, a] = M_ab, M_bc, M_ca
    K[b, a], K[c, b], K[a, c] = M_ab.T, M_bc.T, M_ca.T
    tau = inertia_of(K, floor=0.5 * INTERSECTION_TOL).signature
    twice = tau + n - d_ab - d_bc + d_ca
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
