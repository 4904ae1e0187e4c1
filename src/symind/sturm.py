"""Sturm-Liouville problems: Hamiltonian reduction, fundamental solutions,
boundary brackets and trace data, conjugate points, and Morse indices.

The differential expression is

    l x = -(P x' + Q x)' + Q^T x' + R x,        t in (a, b),

with P symmetric invertible, R symmetric, Q arbitrary.  With the
quasi-derivative u = x^[1] = P x' + Q x and z = (u, x), the equation l x = 0
is equivalent to z' = J H(t) z for the symmetric block matrix

    H = [[-P^{-1},      P^{-1} Q         ],
         [Q^T P^{-1},   R - Q^T P^{-1} Q ]],

where J is the form matrix of Omega((p,q),(p',q')) = <p,q'> - <q,p'>.  A
one-sided singular endpoint is never evaluated directly; every singular
quantity is a limit along truncations toward it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .bessel import (
    expected_growth_per_decade,
    friedrichs_trace_frame,
    limit_circle,
    r_of_q,
    solution_data,
)
from .core import (
    LagrangianFrame,
    SymplecticMatrix,
    SymplecticSpace,
    dirichlet_frame,
    direct_sum_frame,
    graph_lagrangian,
    intersection_dim,
    lagrangian_from_columns,
    stacked_lagrangian_frames,
)
from .errors import (
    BracketLimitDiverges,
    CoefficientShapeInvalid,
    CoefficientSingular,
    ContinuityBudgetExceeded,
    DriftBudgetExceeded,
    KernelBasisUnavailable,
    ScheduleTooShort,
    SelectionFailed,
    SpaceMismatch,
    StepSizeUnderflow,
    UnknownBoundaryCondition,
)
from .maslov import LagrangianPath, maslov_clm, triple_index
from .report import INFINITE, UNDETERMINED, IndexReport

REGULAR = "Regular"
LIMIT_POINT = "SingularLimitPoint"
LIMIT_CIRCLE = "SingularLimitCircle"

DELTA_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
DRIFT_BUDGET = 1e-8
MAGNUS_TOL = 1e-10


def _sample(coeff, t: np.ndarray, n: int) -> np.ndarray:
    """One coefficient at the instants t (k, 1, 1) as a (k, n, n) array, by
    the contract in the SLProblem docstring."""
    if callable(coeff):
        value = np.asarray(coeff(t), dtype=float)
    else:
        value = np.asarray(coeff, dtype=float)
        if value.ndim == 0:
            value = value * np.eye(n)
    if value.shape == (n, n):
        return np.broadcast_to(value, (len(t), n, n))
    if value.shape == (len(t), n, n):
        return value
    raise CoefficientShapeInvalid(
        f"coefficient has shape {value.shape}; expected ({len(t)}, {n}, {n}) or ({n}, {n})")


@dataclass
class SLProblem:
    """Coefficients of one Sturm-Liouville problem on an open interval.

    ``p``, ``q``, ``r`` are constants or callables t -> array, and ``c`` is
    a callable (s, t) -> array.  A scalar constant means scalar * I, and an
    (n, n) constant is used as is.  A callable is called once per array of
    instants, with t of shape (k, 1, 1), so that formulas written as for one
    instant, such as ``q / t**2``, broadcast.  It returns (k, n, n), or
    (n, n) when it does not depend on t; any other shape raises
    CoefficientShapeInvalid.

    ``c`` has two call forms: ``coefficients(ts, s)`` passes a float s and
    takes the shapes above, and ``hamiltonians`` passes a batch of K values
    as s of shape (K, 1, 1, 1) and takes (K, k, n, n), or (K, 1, n, n) when
    c does not depend on t.  ``-R * s * np.eye(n)`` and ``s * C`` for an
    (n, n) array C serve both; ``np.array([[-R * s]])`` nests the batch.

    ``limit_matrix`` declares a Bessel-type left end: R = D / t^2, P = I and
    Q = 0, with the singular end at t = 0 (``bessel_problem`` sets r and
    the end label from it).  Every fact about that end is read from
    ``directions``, the decomposition D = V diag(lam) V^T.
    """

    dim: int
    interval: tuple
    p: object
    q: object
    r: object
    c: object = None                      # perturbation c(s, t) with c(0, .) = 0
    endpoints: tuple = (REGULAR, REGULAR)
    limit_matrix: np.ndarray | None = None
    params: dict = field(default_factory=dict)

    @property
    def a(self):
        return self.interval[0]

    @property
    def b(self):
        return self.interval[1]

    @property
    def space(self) -> SymplecticSpace:
        return SymplecticSpace.standard(self.dim)

    def coefficients(self, ts, s: float | None = None):
        """(P, Q, R) at every t in ts, each of shape (len(ts), n, n), with
        c(s, .) added to R when a float s is given; CoefficientShapeInvalid
        when a coefficient returns any other shape."""
        t = np.asarray(ts, dtype=float).reshape(-1, 1, 1)
        P, Q, R = (_sample(f, t, self.dim) for f in (self.p, self.q, self.r))
        if s is not None and self.c is not None:
            R = R + _sample(lambda u: self.c(s, u), t, self.dim)
        return P, Q, R

    def singular_end(self):
        """0 for a singular left endpoint, 1 for right, None when none declared."""
        for side in (0, 1):
            if self.endpoints[side] in (LIMIT_POINT, LIMIT_CIRCLE):
                return side
        return None

    @cached_property
    def directions(self):
        """(lam, V) with D = V diag(lam) V^T for the declared limit matrix D,
        eigenvalues ascending, computed once per problem."""
        return np.linalg.eigh(self.limit_matrix)


def bessel_problem(D, interval=(0.0, 1.0), params=None) -> SLProblem:
    """-x'' + D x / t^2 on ``interval`` with the declared Bessel-type end at
    t = 0, for a symmetric D (a float when n = 1).  The end is labelled limit
    circle when some direction of D is, and limit point otherwise."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    problem = SLProblem(len(D), tuple(interval), 1.0, 0.0, lambda t: D / t ** 2,
                        limit_matrix=D, params=params or {})
    kind = LIMIT_CIRCLE if limit_circle(problem.directions[0]).any() else LIMIT_POINT
    problem.endpoints = (kind, REGULAR)
    return problem


def hamiltonians(problem: SLProblem, ts, s: np.ndarray | None = None) -> np.ndarray:
    """H(t) for every t in ts, stacked as a (len(ts), 2n, 2n) array, so that
    l x = 0 is z' = J H(t) z.  For a 1-d array s of parameter values the
    result is (len(s), len(ts), 2n, 2n), one stack per value.

    P, Q and R are sampled in one call and P is inverted in one batch, for
    every s at once.  c is called once for the whole batch, with s of shape
    (K, 1, 1, 1) and t of shape (k, 1, 1), and must return (K, k, n, n) or
    (K, 1, n, n); any other shape raises CoefficientShapeInvalid.  A nonzero
    scalar P takes plain division: np.linalg.inv costs a LAPACK call per
    1 x 1 matrix.  CoefficientSingular when P is not invertible at some node.
    """
    n = problem.dim
    P, Q, R = problem.coefficients(ts)
    if s is not None and problem.c is not None:
        K, k = len(s), len(P)
        C = np.asarray(problem.c(np.reshape(s, (K, 1, 1, 1)),
                                 np.asarray(ts, dtype=float).reshape(k, 1, 1)), dtype=float)
        if C.shape not in ((K, k, n, n), (K, 1, n, n)):
            raise CoefficientShapeInvalid(
                f"c(s, t) has shape {C.shape} for {K} values of s; "
                f"expected ({K}, {k}, {n}, {n}) or ({K}, 1, {n}, {n})")
        R = R + C
    if n == 1 and np.all(P != 0.0):
        Pinv = 1.0 / P
    else:
        try:
            Pinv = np.linalg.inv(P)
        except np.linalg.LinAlgError as exc:
            raise CoefficientSingular(
                f"P(t) is singular for some t in [{min(ts)}, {max(ts)}]") from exc
    QT = np.swapaxes(Q, 1, 2)
    PinvQ = Pinv @ Q
    H = np.empty((() if s is None else np.shape(s)) + (len(P), 2 * n, 2 * n))
    H[..., :n, :n] = -Pinv
    H[..., :n, n:] = PinvQ
    H[..., n:, :n] = QT @ Pinv
    H[..., n:, n:] = R - QT @ PinvQ
    return 0.5 * (H + np.swapaxes(H, -1, -2))


# Gauss-Legendre nodes of one sixth-order Magnus step, as fractions of the step
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_SQRT15_3 = math.sqrt(15.0) / 3.0
_EPS = float(np.finfo(float).eps)


def _bracket(X, Y):
    return X @ Y - Y @ X


def _magnus_exponents(A: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Sixth-order Magnus exponents of steps of signed lengths h (k,) from the
    generators A (k, 3, m, m) at each step's three Gauss nodes (Blanes, Casas,
    Oteo & Ros, Phys. Rep. 470 (2009), section 5).  Brackets of Hamiltonian
    matrices are Hamiltonian, so every exponential is symplectic."""
    h = h[:, None, None]
    A1, A2, A3 = A[:, 0], A[:, 1], A[:, 2]
    a1 = h * A2
    a2 = _SQRT15_3 * h * (A3 - A1)
    a3 = (10.0 / 3.0) * h * (A3 - 2.0 * A2 + A1)
    C1 = _bracket(a1, a2)
    C2 = _bracket(a1, 2.0 * a3 + C1) / -60.0
    return a1 + a3 / 12.0 + _bracket(-20.0 * a1 - a3 + C1, a2 + C2) / 240.0


def _expm(X: np.ndarray) -> np.ndarray:
    """exp of a stack of Hamiltonian matrices.

    A 2x2 Hamiltonian matrix is trace-free, so X^2 = d I with d = -det X and
    exp X = cosh(r) I + (sinh(r) / r) X at r = sqrt(d), imaginary for d < 0.
    """
    if X.shape[-1] != 2:
        return sla.expm(X)
    a = 0.5 * (X[:, 0, 0] - X[:, 1, 1])
    r = np.sqrt((a * a + X[:, 0, 1] * X[:, 1, 0]).astype(complex))
    E = np.sinc(r / (1j * math.pi)).real[:, None, None] * X       # sinh(r) / r
    c = np.cosh(r).real
    E[:, 0, 0] += c
    E[:, 1, 1] += c
    return E


def _log_time(problem: SLProblem, t0: float, far: float) -> bool:
    """Whether the steps t0 -> far are taken in sigma = ln t: on a span that
    stays off a declared singular left end, where t^2 R tends to a limit
    matrix D and the log-time generator tends to a constant."""
    return min(t0, far) > 0 and problem.singular_end() == 0


def _step_matrices(problem: SLProblem, s, t_from: np.ndarray, t_to: np.ndarray,
                   log: bool) -> np.ndarray:
    """exp(Omega) of the Magnus step t_from[k] -> t_to[k] for every k and
    every parameter value: (len(s), k, m, m) for a 1-d array s, and
    (1, k, m, m) when s is None.

    With ``log`` the step is taken in sigma = ln t, on w = S(t) z with
    S(t) = diag(t^(1/2) I, t^(-1/2) I).  S is symplectic, so w' = J H~ w in
    sigma with H~ = t S^-1 H S^-1 + K, K = [[0, I/2], [I/2, 0]]; in blocks
    H~ = [[H11, t H12 + I/2], [t H21 + I/2, t^2 H22]].  For R = D / t^2 and
    P = I, Q = 0 this H~ is constant, so each step is exact.  The step is
    returned in (u, x) as S(t_to)^-1 exp(Omega) S(t_from).
    """
    n, m = problem.dim, 2 * problem.dim
    warp = np.log if log else np.asarray
    start = warp(t_from)
    h = warp(t_to) - start
    ts = (start[:, None] + h[:, None] * _GAUSS).ravel()
    if log:
        ts = np.exp(ts)
    H = hamiltonians(problem, ts, s)
    if log:
        t = ts[:, None, None]
        half = 0.5 * np.eye(n)
        H[..., :n, n:] = t * H[..., :n, n:] + half
        H[..., n:, :n] = t * H[..., n:, :n] + half
        H[..., n:, n:] *= t * t
    A = (problem.space.form @ H).reshape(-1, 3, m, m)
    K = len(A) // len(h)
    E = _expm(_magnus_exponents(A, np.concatenate([h] * K))).reshape(K, len(h), m, m)
    if log:
        root = np.repeat([0.5, -0.5], n)
        E = E * (t_to[:, None] ** -root)[:, :, None] * (t_from[:, None] ** root)[:, None, :]
    return E


def _chain(E: np.ndarray) -> np.ndarray:
    """The products I, E[:, 0], E[:, 1] E[:, 0], ... of consecutive steps,
    for every member of the leading axis.

    An inclusive prefix product by recursive doubling (Hillis & Steele,
    CACM 29, 1986): after the pass of stride s each product holds its last
    2s steps, so k steps take ceil(log2 k) batched matmuls instead of k.
    The products are grouped differently from the left-to-right loop and
    agree with it to roundoff.
    """
    K, k = E.shape[:2]
    M = np.empty((K, k + 1) + E.shape[2:])
    M[:, 0] = np.eye(E.shape[-1])
    M[:, 1:] = E
    P = M[:, 1:]
    s = 1
    while s < k:
        P[:, s:] = P[:, s:] @ P[:, :-s]
        s *= 2
    return M


class FundamentalSolution:
    """gamma(t) with gamma(t0) = I by a sixth-order Magnus integrator.

    Each direction away from t0 is stepped in one coordinate sigma, recorded
    in ``coordinates``: "log-time" (sigma = ln t, see ``_step_matrices``) on
    a span that stays off a declared singular left end, "t" (sigma = t)
    otherwise.  Toward a Bessel-type end t^2 R -> D the log-time generator
    tends to a constant, and for R = D / t^2 it is one, so every step is
    exact; constant-coefficient problems are exact in t instead.  Each
    direction starts from INITIAL_STEPS steps uniform in sigma.  Every step
    is compared with its two halves, and the halves are kept.  Refinement
    stops once the Richardson estimate of the kept matrices' error, relative
    to max(1, max|M|), is at most ``tol`` at every node; until then the steps
    whose own estimate exceeds ``tol`` times their share of the span in
    sigma, and machine epsilon, are split, so only the stretches that need
    it get shorter steps.  A step that would have to shrink below
    2^-MAX_DEPTH of the span raises StepSizeUnderflow.  Every step is the
    exponential of a Hamiltonian matrix, so the flow is symplectic to
    roundoff; the symplectic residual is logged at every node and checked
    against the drift budget.  Evaluation between nodes is one partial
    Magnus step, in the branch's coordinate, from the node on the base-point
    side, batched over all requested instants by ``matrices``.

    The refinement loop (``_integrate``) carries a leading axis of parameter
    values s: ``monodromies`` runs it once for a whole batch of s on one
    shared step grid, and a FundamentalSolution is its one-member case.

    Drift bookkeeping is scale-free: the logged residual is
    max|M^T J M - J| / (1 + max|M|^2), which coincides with the absolute
    residual for unit-scale flows but stays meaningful where the fundamental
    matrix grows past the float64 floor eps * |M|^2 near a singular endpoint.
    """

    INITIAL_STEPS = 8
    MAX_DEPTH = 40

    def __init__(self, problem: SLProblem, t0: float, span: tuple, s: float | None = None,
                 tol: float = MAGNUS_TOL, drift_budget: float = DRIFT_BUDGET):
        c, d = float(span[0]), float(span[1])
        if not c < d:
            raise ValueError("span must be nontrivial")
        if not (c <= t0 <= d):
            raise ValueError("base point must lie in the span")
        self.problem = problem
        self.t0 = float(t0)
        self.span = (c, d)
        self.tol = tol
        self.drift_budget = drift_budget
        self.drift_log: list = []
        self.steps: dict = {}            # accepted Magnus steps per direction
        self._s = None if s is None else np.array([s], dtype=float)
        self.coordinates: dict = {}      # "log-time" or "t" per direction
        self._branches = {}              # direction -> (direction * nodes, matrices, log)
        for direction, far, name in ((1, d, "forward"), (-1, c, "backward")):
            if far != self.t0:
                nodes, M, res = self._integrate(problem, self.t0, far, self._s, tol, drift_budget)
                self.drift_log.extend(zip(nodes[1:].tolist(), res[0, 1:].tolist()))
                log = _log_time(problem, self.t0, far)
                self._branches[direction] = (direction * nodes, M[0], log)
                self.steps[name] = len(nodes) - 1
                self.coordinates[name] = "log-time" if log else "t"

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")      # coarse steps may overflow
    def _integrate(cls, problem: SLProblem, t0: float, far: float, s, tol: float,
                   drift_budget: float):
        """The refinement from t0 to far for every value of the 1-d array s
        (one member when s is None) on one shared step grid, uniform in
        ln t when ``_log_time`` holds for the span and in t otherwise; the
        grid, its bisection and each step's share of the span are all taken
        in that coordinate.

        Returns the nodes (k + 1,), the flow at them (K, k + 1, m, m) and the
        scale-free drift residuals (K, k + 1).  The Richardson estimate is
        checked per member, and a step is split when its own estimate fails
        for any member whose check failed.  The step-size and drift checks
        name the first member that fails them.
        """
        lo, hi = sorted((t0, far))
        log = _log_time(problem, t0, far)
        warp = np.log if log else np.asarray     # steps are uniform in warp(t)
        width = abs(float(warp(far) - warp(t0)))
        m = 2 * problem.dim

        def member(k):
            return "" if s is None else f" for s={float(s[k])!r}"

        def bisect(seg):
            """(start, mid, end) of the steps seg[k, 0] -> seg[k, 1]."""
            mid = np.sqrt(seg[:, 0] * seg[:, 1]) if log else seg.mean(axis=1)
            return np.column_stack([seg[:, 0], mid, seg[:, 1]])

        def exponentials(seg, pairs):
            """exp(Omega) of the steps seg[:, i] -> seg[:, j] for every (i, j)
            in pairs, in one batch, stacked as (K, len(seg), len(pairs), m, m)."""
            i, j = np.array(pairs).T
            E = _step_matrices(problem, s, seg[:, i].T.ravel(), seg[:, j].T.ravel(), log)
            return np.stack(np.split(E, len(pairs), axis=1), axis=2)

        grid = (np.geomspace if log else np.linspace)(t0, far, cls.INITIAL_STEPS + 1)
        seg = bisect(np.column_stack([grid[:-1], grid[1:]]))
        E = exponentials(seg, [(0, 2), (0, 1), (1, 2)])      # whole steps and their halves
        K = E.shape[0]
        while True:
            M = _chain(E[:, :, 1:].reshape(K, -1, m, m))
            size = np.maximum(1.0, np.max(np.abs(M[:, ::2]), axis=(2, 3)))
            # Richardson estimate of the error of the halved steps, sixth order
            err = np.max(np.abs(M[:, ::2] - _chain(E[:, :, 0])), axis=(2, 3)) / (63.0 * size)
            if np.max(err) <= tol:
                break
            fine = E[:, :, 2] @ E[:, :, 1]
            local = np.max(np.abs(fine - E[:, :, 0]), axis=(2, 3)) / (
                63.0 * np.maximum(1.0, np.max(np.abs(fine), axis=(2, 3))))
            share = np.abs(warp(seg[:, 2]) - warp(seg[:, 0])) / width
            # a NaN estimate (overflow) splits; below eps the estimate is
            # roundoff; members that passed their Richardson check do not vote
            failed = ~(local <= np.maximum(tol * share, _EPS))
            failed &= ~(np.max(err, axis=1) <= tol)[:, None]
            split = failed.any(axis=0)
            if not split.any():
                break
            tiny = failed[:, split & (share <= 2.0 ** -cls.MAX_DEPTH)]
            if tiny.any():
                raise StepSizeUnderflow(
                    f"Magnus step below 2^-{cls.MAX_DEPTH} of [{lo:.3e}, {hi:.3e}] "
                    f"needed for tol {tol:.1e}{member(np.flatnonzero(tiny.any(axis=1))[0])}")
            new_seg = bisect(np.concatenate([seg[split, :2], seg[split, 1:]]))
            whole = np.concatenate([E[:, split, 1], E[:, split, 2]], axis=1)
            new_E = np.concatenate([whole[:, :, None], exponentials(new_seg, [(0, 1), (1, 2)])],
                                   axis=2)
            seg = np.concatenate([seg[~split], new_seg])
            E = np.concatenate([E[:, ~split], new_E], axis=1)
            order = np.argsort(np.abs(seg[:, 0] - t0))    # outward from the base point
            seg, E = seg[order], E[:, order]
        nodes = np.append(seg[:, :2].ravel(), far)

        J = problem.space.form
        scale = 1.0 + np.max(np.abs(M), axis=(2, 3)) ** 2
        res = np.max(np.abs(np.swapaxes(M, 2, 3) @ J @ M - J), axis=(2, 3)) / scale
        if not np.max(res) <= drift_budget:
            k = np.flatnonzero(~(np.max(res, axis=1) <= drift_budget))[0]
            worst = np.argmax(res[k])
            raise DriftBudgetExceeded(
                f"normalized drift {res[k, worst]:.2e} at t={nodes[worst]:.3e}{member(k)}")
        return nodes, M, res

    def matrices(self, ts) -> np.ndarray:
        """gamma(t) for every t in ts, stacked as (len(ts), 2n, 2n).

        Each t's base node is the last node of its branch at or before t,
        seen from t0; the partial Magnus steps from the base nodes to every
        t off a node are taken in one batch.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        c, d = self.span
        outside = ~((c - 1e-12 <= ts) & (ts <= d + 1e-12))
        if outside.any():
            raise ValueError(f"t={ts[outside][0]} outside the integrated span {self.span}")
        ts = np.clip(ts, c, d)
        m = 2 * self.problem.dim
        out = np.empty((len(ts), m, m))
        out[ts == self.t0] = np.eye(m)
        for direction, (keys, mats, log) in self._branches.items():
            sel = np.flatnonzero(direction * (ts - self.t0) > 0)
            k = np.searchsorted(keys, direction * ts[sel], side="right") - 1
            base, M = direction * keys[k], mats[k]
            off = base != ts[sel]
            if off.any():
                M[off] = _step_matrices(self.problem, self._s, base[off], ts[sel][off],
                                        log)[0] @ M[off]
            out[sel] = M
        return out

    def matrix(self, t: float) -> np.ndarray:
        return self.matrices([t])[0]

    def symplectic(self, t: float) -> SymplecticMatrix:
        return SymplecticMatrix(self.problem.space, self.matrix(t))

    def max_drift(self) -> float:
        return max((r for _, r in self.drift_log), default=0.0)


def fundamental_solution(problem: SLProblem, t0: float, span: tuple,
                         **kwargs) -> FundamentalSolution:
    return FundamentalSolution(problem, t0, span, **kwargs)


def monodromies(problem: SLProblem, span: tuple, s, tol: float = MAGNUS_TOL,
                drift_budget: float = DRIFT_BUDGET) -> np.ndarray:
    """gamma_s(d) with gamma_s(c) = I on span = (c, d), for every value of
    the 1-d array s, stacked as (len(s), 2n, 2n).

    One Magnus run covers the batch: P, Q and R are sampled once per array
    of instants, and a step of the shared grid is split where the estimate
    of any member fails.  Each member passes the checks of
    ``FundamentalSolution(problem, c, span, s=s_k)`` and raises its errors.
    """
    c, d = float(span[0]), float(span[1])
    if not c < d:
        raise ValueError("span must be nontrivial")
    s = np.asarray(s, dtype=float).reshape(-1)
    return FundamentalSolution._integrate(problem, c, d, s, tol, drift_budget)[1][:, -1]


def _bracket_terms(f_data, g_data):
    """The terms <f^[1], g> and <f, g^[1]> of [f, g] from (value,
    quasi-derivative) pairs."""
    fv, fq = (np.atleast_1d(np.asarray(v, float)) for v in f_data)
    gv, gq = (np.atleast_1d(np.asarray(v, float)) for v in g_data)
    return float(fq @ gv), float(fv @ gq)


def boundary_bracket(f_data, g_data) -> float:
    """[f, g](t) = <f^[1], g> - <f, g^[1]> from (value, quasi-derivative) pairs."""
    first, second = _bracket_terms(f_data, g_data)
    return first - second


# -- conjugate points ---------------------------------------------------------


def conjugate_points(problem: SLProblem, span: tuple, anchor: float | None = None,
                     fs: FundamentalSolution | None = None):
    """Interior instants where gamma(t) . Lambda_D meets the Dirichlet plane
    Lambda_D, with multiplicity, on span = (c, d).

    ``anchor`` is where gamma equals the identity (defaults to the span
    start).  On a span that hugs the coordinate singularity at 0 (c > 0 and
    d / c > 50) the path is sampled on a geometric grid in the scaled
    coordinates (t^(1/2) u, t^(-1/2) x).  There a Bessel-type flow turns
    evenly in log-time, where in (u, x) it dwells near the Dirichlet plane
    and swings through a half turn in a burst that the sample grid aliases.
    The map diag(t^(1/2) I, t^(-1/2) I) is symplectic and fixes Lambda_D, so
    the crossings keep their instants, multiplicities and signs (Cappell,
    Lee & Miller, CPAM 47, 1994).  With P positive definite every crossing
    is positive, and a negative interior one raises ContinuityBudgetExceeded.
    """
    c, d = span
    anchor = c if anchor is None else anchor
    if fs is None:
        fs = fundamental_solution(problem, anchor, span)
    space, n = problem.space, problem.dim
    LD = dirichlet_frame(space)
    scaled = c > 0 and d / c > 50.0
    grid = np.geomspace(c, d, max(256, int(48 * math.log10(d / c)))) if scaled else None

    def frames(ts):
        F = fs.matrices(ts) @ LD.frame
        if scaled:
            root = np.sqrt(ts)[:, None, None]
            F = np.concatenate([root * F[:, :n], F[:, n:] / root], axis=1)
        return stacked_lagrangian_frames(space, F)

    _, records = maslov_clm(LagrangianPath.constant(LD, c, d),
                            LagrangianPath(space, frames, c, d, grid=grid), (c, d))
    records = [rec for rec in records if c < rec.t < d]
    negative = [rec.t for rec in records if rec.inertia.n_minus]
    if negative:
        P_mid = problem.coefficients([0.5 * (c + d)])[0][0]
        if np.all(np.linalg.eigvalsh(0.5 * (P_mid + P_mid.T)) > 0):
            raise ContinuityBudgetExceeded(
                f"negative crossing at t={negative[0]} with P positive definite")
    return [(rec.t, rec.multiplicity) for rec in records]


# -- Morse index under Dirichlet/Friedrichs conditions ------------------------


def _schedule_verdict(counts):
    """Finite / Infinite / Undetermined from truncation counts, coarsest first."""
    if all(counts[i + 1] >= counts[i] + 1 for i in range(len(counts) - 1)):
        return INFINITE, None
    if counts[-1] == counts[-2] == counts[-3]:
        return int(counts[-1]), None
    return UNDETERMINED, "truncation counts neither stabilized nor grew monotonically"


def truncated_span(problem: SLProblem, delta: float):
    """The regular end of a problem and the interval cut delta short of its
    singular end; a problem regular at both ends keeps (a, b), anchored at a."""
    a, b = problem.interval
    side = problem.singular_end()
    if side == 0:
        return b, (a + delta, b)
    return a, (a, b - delta if side == 1 else b)


def morse_index_dirichlet(problem: SLProblem, delta_schedule=DELTA_SCHEDULE,
                          fs: FundamentalSolution | None = None) -> IndexReport:
    """Morse index with Dirichlet data at a regular end and the Friedrichs
    condition at a limit-circle singular end: the stabilized conjugate-point
    count over the ``truncated_span`` windows of the schedule.  On a problem
    regular at both ends every window is (a, b), so the counts agree and the
    verdict is that count.  ``fs`` is the fundamental solution from the
    regular end on the finest window, built here when None."""
    schedule = tuple(sorted({float(d) for d in delta_schedule}, reverse=True))
    if len(schedule) < 4:
        raise ScheduleTooShort("need at least four truncation offsets")

    windows = [truncated_span(problem, d)[1] for d in schedule]
    anchor, finest = truncated_span(problem, schedule[-1])
    if fs is None:
        fs = fundamental_solution(problem, anchor, finest)
    pts = conjugate_points(problem, finest, anchor=anchor, fs=fs)
    counts = [sum(m for t, m in pts if lo < t < hi) for lo, hi in windows]
    verdict, reason = _schedule_verdict(counts)

    diagnostics = {"delta_trace": [[d, c] for d, c in zip(schedule, counts)],
                   "max_drift": fs.max_drift(),
                   "integrator_steps": dict(fs.steps),
                   "integrator_coordinates": dict(fs.coordinates)}
    if problem.singular_end() is None:
        diagnostics["truncation"] = "none (regular problem)"
    elif problem.limit_matrix is not None:
        growth = expected_growth_per_decade(problem.directions[0])
        if growth:
            diagnostics["expected_growth_per_decade"] = growth

    return IndexReport(
        command="morse", verdict=verdict, reason=reason,
        conjugate_points=list(pts),
        assumptions={"H3_bounded_below": "assumed, not verified",
                     "H4_fredholm_minimal": "assumed, not verified"},
        diagnostics=diagnostics)


# -- boundary data: charts, conditions and the trace map ------------------------


@dataclass
class BoundaryCondition:
    """kind in {dirichlet, neumann, general, friedrichs}; ``frame`` carries the
    boundary-data Lagrangian for the general kind."""

    kind: str
    frame: LagrangianFrame | None = None


@dataclass
class BoundaryChart:
    """Coordinates on the boundary-data space of a problem of dimension n,
    R^(2m) (+) R^(2n) with the product form -Omega (+) Omega.

    A function f of the maximal domain has the right coordinates
    (f^[1](b), f(b)).  At a regular left end m = n and the left coordinates
    are (f^[1](a), f(a)).  At a declared Bessel-type end m is the number of
    limit-circle directions v_j of the limit matrix, and the left
    coordinates are (-[f, y1_j v_j](a+))_j followed by ([f, y2_j v_j](a+))_j
    for kernel pairs normalized to [y1_j, y2_j](a+) = -1.  At either end
    [f, g] is Omega of the coordinates, so the Green form
    [f, g](b) - [f, g](a+) is the product form.

    ``kernel_trace`` is the trace image of the solution space of l x = 0 in
    the maximal domain, ``friedrichs`` the Lagrangian of the Friedrichs
    extension's domain (None when the chart has none) and ``kernel_data``
    the 2m kernel functions y1_j v_j, then y2_j v_j, at a Bessel-type end.
    The kernel trace must be Lagrangian, which pins every sign convention
    of the coordinates.
    """

    problem: SLProblem
    kernel_trace: LagrangianFrame
    friedrichs: LagrangianFrame | None
    kernel_data: object = None      # callables t -> (value, quasi-derivative)

    def __post_init__(self):
        res = self.kernel_trace.isotropy_residual()
        if res > 1e-6:
            raise SelectionFailed(f"kernel trace is not Lagrangian (residual {res:.2e})")

    @property
    def space(self) -> SymplecticSpace:
        return self.kernel_trace.space


def resolve_boundary_condition(problem: SLProblem, bc,
                               chart: BoundaryChart | None = None) -> LagrangianFrame:
    """The frame of a boundary condition in the boundary-data space, the one
    resolver of every route that takes one: ``chart.space`` when a chart is
    given, and R^(2n) (+) R^(2n) otherwise.

    ``bc`` is a name, a BoundaryCondition or a frame of that space.  The
    names dirichlet and neumann put those data in every coordinate pair of
    both blocks; friedrichs resolves only in a chart that has a Friedrichs
    frame, and raises KernelBasisUnavailable otherwise.  SpaceMismatch for a
    frame of another space, UnknownBoundaryCondition for any other ``bc``.
    """
    space = SymplecticSpace.minus_plus(problem.dim, problem.dim) if chart is None else chart.space
    if isinstance(bc, BoundaryCondition):
        bc = bc.frame if bc.kind == "general" else bc.kind
    if isinstance(bc, LagrangianFrame):
        if bc.space != space:
            raise SpaceMismatch("boundary frame must live in the product boundary space")
        return bc
    name = bc if isinstance(bc, str) else None
    if name in ("dirichlet", "neumann"):
        # (I; 0) frees the quasi-derivatives, (0; I) the positions
        return direct_sum_frame(*(np.eye(2 * m)[:, :m] if name == "dirichlet"
                                  else np.eye(2 * m)[:, m:] for m in space.blocks))
    if name == "friedrichs":
        if chart is None or chart.friedrichs is None:
            raise KernelBasisUnavailable("the Friedrichs condition needs a chart with its frame")
        return chart.friedrichs
    raise UnknownBoundaryCondition(f"cannot resolve boundary condition {bc!r}")


def regular_boundary_chart(problem: SLProblem,
                           fs: FundamentalSolution | None = None) -> BoundaryChart:
    """Chart of a problem regular at both ends: the kernel trace is the graph
    of the fundamental solution ``fs`` from a on (a, b) (built here when
    None) at b, and the Friedrichs condition is Dirichlet data at both ends."""
    a, b = problem.interval
    if fs is None:
        fs = fundamental_solution(problem, a, (a, b))
    V = graph_lagrangian(fs.symplectic(b))
    return BoundaryChart(problem, V, resolve_boundary_condition(problem, "dirichlet"))


def boundary_chart(problem: SLProblem,
                   fs: FundamentalSolution | None = None) -> BoundaryChart:
    """The chart of a problem regular at both ends (``regular_boundary_chart``,
    from ``fs`` when given) or with a declared Bessel-type end;
    KernelBasisUnavailable for any other singular end.

    A declared end is a direct sum over the directions v_j of its limit
    matrix D = V diag(lam) V^T.  A limit-circle direction contributes the
    kernel pair y1_j v_j, y2_j v_j from ``solution_data(r_of_q(lam_j))`` and
    its two left coordinates; kernel functions of different directions have
    zero brackets, so these take the left coordinates -e_(k+j) and -e_j, as
    in one scalar direction.  A limit-point direction contributes only the
    column of its principal solution t^(1/2+nu_j) v_j at b,
    nu_j = sqrt(lam_j + 1/4), the one solution square-integrable at 0.  With
    k limit-circle directions the space is minus_plus(k, n).  The Friedrichs
    frame is the sum of the lines ``friedrichs_trace_frame(r_j)`` and
    Dirichlet data at b; it exists when every limit-circle r_j is in (0, 1).
    """
    if problem.limit_matrix is None:
        if problem.singular_end() is None:
            return regular_boundary_chart(problem, fs)
        raise KernelBasisUnavailable("no kernel basis for a singular end without a limit matrix")
    lam, V = problem.directions
    n, b = problem.dim, problem.b
    circle = limit_circle(lam)
    k = int(circle.sum())
    r = [r_of_q(q) for q in lam[circle]]
    kernel = [lambda t, y=pair[i], v=v: tuple(w * v for w in y(t))      # y1_j v_j, then y2_j v_j
              for i in (0, 1) for pair, v in zip(map(solution_data, r), V.T[circle])]
    # the columns' right coordinates (quasi-derivative, value) at b
    right = [np.concatenate(f(b)[::-1]) for f in kernel] + [
        np.concatenate([(0.5 + nu) * b ** (nu - 0.5) * v, b ** (0.5 + nu) * v])
        for nu, v in zip(np.sqrt(lam[~circle] + 0.25), V.T[~circle])]
    left = np.hstack([-np.roll(np.eye(2 * k), k, axis=0), np.zeros((2 * k, n - k))])
    K = lagrangian_from_columns(SymplecticSpace.minus_plus(k, n),
                                np.vstack([left, np.column_stack(right)]))
    F = None
    if all(0.0 < rj < 1.0 for rj in r):
        lines = np.reshape([friedrichs_trace_frame(rj).frame[:, 0] for rj in r], (k, 2))
        F = direct_sum_frame(np.vstack([np.diag(lines[:, 0]), np.diag(lines[:, 1])]),
                             dirichlet_frame(problem.space))
    return BoundaryChart(problem, K, F, kernel)


def trace_map(problem: SLProblem, f_data, chart: BoundaryChart | None = None) -> np.ndarray:
    """Boundary-data vector of a maximal-domain function, in the coordinates
    of ``BoundaryChart``.

    ``f_data``: callable t -> (value, quasi-derivative).  For a regular
    problem this is (x^[1](a), x(a), x^[1](b), x(b)).  At a singular end
    the left block (-[f, y1_j v_j](a+))_j, ([f, y2_j v_j](a+))_j is read
    against the chart's kernel functions (``boundary_chart`` when None)
    along t_k = a + base 4^-k, k = 0..7; at a limit-point end it is empty.
    Consecutive readings pass the Cauchy test when they agree to 1e-6
    relative beyond the roundoff 8 eps (|<f^[1], y>| + |<f, y^[1]>|) of the
    bracket's two terms, which cancel and, for a kernel function, grow like
    t^(-2r).  The limit is the first reading from which every later pair
    passes; BracketLimitDiverges when the last pair fails.
    """
    a, b = problem.interval

    def b_block():
        val, quasi = f_data(b)
        return np.concatenate([np.atleast_1d(quasi), np.atleast_1d(val)])

    if problem.singular_end() is None:
        val_a, quasi_a = f_data(a)
        return np.concatenate([np.atleast_1d(quasi_a), np.atleast_1d(val_a), b_block()])

    if chart is None:
        chart = boundary_chart(problem)
    if chart.kernel_data is None:
        raise KernelBasisUnavailable("no kernel basis for the singular-end block")

    base = min(1e-3, 0.1 * (b - a))
    seq = [a + base * 4.0 ** (-k) for k in range(8)]
    left = []
    signs = np.repeat([-1.0, 1.0], len(chart.kernel_data) // 2)
    for sign, y in zip(signs, chart.kernel_data):
        terms = np.array([_bracket_terms(f_data(t), y(t)) for t in seq])
        vals = sign * (terms[:, 0] - terms[:, 1])
        noise = 8.0 * _EPS * np.sum(np.abs(terms), axis=1)
        passed = np.abs(np.diff(vals)) <= (1e-6 * np.maximum(1.0, np.abs(vals[1:]))
                                           + noise[:-1] + noise[1:])
        if not passed[-1]:
            raise BracketLimitDiverges(
                f"bracket limit fails the Cauchy test (last values {vals[-2:].tolist()})")
        left.append(vals[0 if passed.all() else np.flatnonzero(~passed)[-1] + 1])
    return np.concatenate([left, b_block()])


# -- Morse index with general boundary conditions ------------------------------


def morse_index_general(problem: SLProblem, bc,
                        delta_schedule=DELTA_SCHEDULE,
                        chart: BoundaryChart | None = None) -> IndexReport:
    """Morse index under a general self-adjoint boundary condition Lambda,
    by the paper's Morse Index Theorem in the chart's boundary-data space.

    The triple index iota(K, Lambda_F, Lambda) of the kernel trace K, the
    Friedrichs frame and Lambda, with iota as in ``maslov.triple_index``
    (Cappell, Lee & Miller, CPAM 47, 1994), is the change of Morse index
    plus nullity from the Friedrichs extension (the Dirichlet one for a
    regular problem) to L_Lambda; the nullity of L_Lambda is dim(K cap
    Lambda).  So the Morse index is the Friedrichs index plus the
    correction iota(K, Lambda_F, Lambda) + dim(K cap Lambda_F) - dim(K cap
    Lambda).  The order of the last two arguments matters:
    iota(K, Lambda, Lambda_F) counts the line mirrored across Lambda_F.
    ``bc`` is anything ``resolve_boundary_condition`` takes.  A problem
    regular at both ends integrates its fundamental solution once, for the
    chart and the Friedrichs index alike.
    An ``Infinite`` or ``Undetermined`` Friedrichs verdict holds for every
    Lambda, in a chart without a Friedrichs frame too: the self-adjoint
    extensions of one minimal operator differ by finite-rank resolvent
    perturbations.  A finite one needs the Friedrichs frame.
    """
    fs = None
    if problem.singular_end() is None:
        a, b = problem.interval
        fs = fundamental_solution(problem, a, (a, b))
    if chart is None:
        chart = boundary_chart(problem, fs)
    Lam = resolve_boundary_condition(problem, bc, chart)
    base = morse_index_dirichlet(problem, delta_schedule, fs)
    diagnostics = dict(base.diagnostics)
    diagnostics["friedrichs_index"] = base.verdict
    if chart.friedrichs is not None:
        K, F = chart.kernel_trace, chart.friedrichs
        diagnostics["triple_index_correction"] = (
            triple_index(K, F, Lam) + intersection_dim(K, F) - intersection_dim(K, Lam))
    verdict = base.verdict
    if verdict not in (INFINITE, UNDETERMINED):
        if chart.friedrichs is None:
            raise KernelBasisUnavailable("no Friedrichs frame available in this chart")
        verdict = int(verdict + diagnostics["triple_index_correction"])
    return IndexReport(
        command="morse", verdict=verdict, reason=base.reason,
        conjugate_points=base.conjugate_points,
        assumptions=base.assumptions, diagnostics=diagnostics)

