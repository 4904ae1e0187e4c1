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

import numpy as np
import scipy.linalg as sla

from .core import (
    LagrangianFrame,
    SymplecticMatrix,
    SymplecticSpace,
    dirichlet_frame,
    direct_sum_frame,
    graph_lagrangian,
    lagrangian_from_columns,
    neumann_frame,
    stacked_lagrangian_frames,
)
from .errors import (
    BracketLimitDiverges,
    CoefficientShapeInvalid,
    CoefficientSingular,
    DriftBudgetExceeded,
    Inconclusive,
    KernelBasisUnavailable,
    ScheduleTooShort,
    SelectionFailed,
    SpaceMismatch,
    StepSizeUnderflow,
    SymindError,
)
from .maslov import LagrangianPath, maslov_clm, triple_index
from .report import INFINITE, UNDETERMINED, IndexReport

REGULAR = "Regular"
LIMIT_POINT = "SingularLimitPoint"
LIMIT_CIRCLE = "SingularLimitCircle"
UNKNOWN = "Unknown"

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
    a callable (s, t) -> array; ``coefficients`` is the only sampler.  A
    scalar constant means scalar * I, and an (n, n) constant is used as is.
    A callable is called once per array of instants, with t of shape
    (k, 1, 1), so that formulas written as for one instant, such as
    ``q / t**2``, broadcast.  It returns (k, n, n), or (n, n) when it does
    not depend on t; any other shape raises CoefficientShapeInvalid.
    """

    dim: int
    interval: tuple
    p: object
    q: object
    r: object
    c: object = None                      # perturbation c(s, t) with c(0, .) = 0
    endpoints: tuple = (REGULAR, REGULAR)
    catalog: str | None = None
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
        c(s, .) added to R when s is given; CoefficientShapeInvalid when a
        coefficient returns any other shape."""
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


def hamiltonians(problem: SLProblem, ts, s: np.ndarray | None = None) -> np.ndarray:
    """H(t) for every t in ts, stacked as a (len(ts), 2n, 2n) array, so that
    l x = 0 is z' = J H(t) z.  For a 1-d array s of parameter values the
    result is (len(s), len(ts), 2n, 2n), one stack per value.

    P, Q and R are sampled in one call and P is inverted in one batch, for
    every s at once; only c(s, .) is sampled per value.
    CoefficientSingular when P is not invertible at some node.
    """
    n = problem.dim
    P, Q, R = problem.coefficients(ts)
    if s is not None and problem.c is not None:
        t = np.asarray(ts, dtype=float).reshape(-1, 1, 1)
        R = R + np.stack([_sample(lambda u: problem.c(sk, u), t, n) for sk in s.tolist()])
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


def _step_matrices(problem: SLProblem, s, t_from: np.ndarray, t_to: np.ndarray) -> np.ndarray:
    """exp(Omega) of the Magnus step t_from[k] -> t_to[k] for every k and
    every parameter value: (len(s), k, m, m) for a 1-d array s, and
    (1, k, m, m) when s is None."""
    h = t_to - t_from
    m = 2 * problem.dim
    ts = (t_from[:, None] + h[:, None] * _GAUSS).ravel()
    A = (problem.space.form @ hamiltonians(problem, ts, s)).reshape(-1, 3, m, m)
    K = len(A) // len(h)
    return _expm(_magnus_exponents(A, np.concatenate([h] * K))).reshape(K, len(h), m, m)


def _chain(E: np.ndarray) -> np.ndarray:
    """The products I, E[:, 0], E[:, 1] E[:, 0], ... of consecutive steps,
    for every member of the leading axis."""
    M = np.empty((E.shape[1] + 1,) + E.shape[:1] + E.shape[2:])
    M[0] = np.eye(E.shape[-1])
    out = list(M)                      # one product per step, written in place
    for k, step in enumerate(np.swapaxes(E, 0, 1)):
        np.matmul(step, out[k], out=out[k + 1])
    return np.swapaxes(M, 0, 1)


class FundamentalSolution:
    """gamma(t) with gamma(t0) = I by a sixth-order Magnus integrator.

    Each direction away from t0 starts from one grid of INITIAL_STEPS steps,
    geometric when the span hugs a coordinate singularity at 0 and linear
    otherwise.  Every step is compared with its two halves, and the halves
    are kept.  Refinement stops once the Richardson estimate of the kept
    matrices' error, relative to max(1, max|M|), is at most ``tol`` at every
    node; until then the steps whose own estimate exceeds ``tol`` times their
    share of the span (in log-time on a geometric grid), and machine epsilon,
    are split, so only the stretches that need it get shorter steps.  A step
    that would have to shrink below 2^-MAX_DEPTH of the span raises
    StepSizeUnderflow.  Every step is the exponential of a Hamiltonian
    matrix, so the flow is symplectic to roundoff; the symplectic residual is
    logged at every node and checked against the drift budget.  Evaluation
    between nodes is one partial Magnus step from the node on the base-point
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
        self._branches = {}              # direction -> (direction * nodes, matrices)
        for direction, far, name in ((1, d, "forward"), (-1, c, "backward")):
            if far != self.t0:
                nodes, M, res = self._integrate(problem, self.t0, far, self._s, tol, drift_budget)
                self.drift_log.extend(zip(nodes[1:].tolist(), res[0, 1:].tolist()))
                self._branches[direction] = (direction * nodes, M[0])
                self.steps[name] = len(nodes) - 1

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")      # coarse steps may overflow
    def _integrate(cls, problem: SLProblem, t0: float, far: float, s, tol: float,
                   drift_budget: float):
        """The refinement from t0 to far for every value of the 1-d array s
        (one member when s is None) on one shared step grid.

        Returns the nodes (k + 1,), the flow at them (K, k + 1, m, m) and the
        scale-free drift residuals (K, k + 1).  The Richardson estimate is
        checked per member, and a step is split when its own estimate fails
        for any member whose check failed.  The step-size and drift checks
        name the first member that fails them.
        """
        lo, hi = sorted((t0, far))
        geometric = lo > 0 and hi / lo > 50.0
        warp = np.log if geometric else np.asarray     # steps are uniform in warp(t)
        width = abs(float(warp(far) - warp(t0)))
        m = 2 * problem.dim

        def member(k):
            return "" if s is None else f" for s={float(s[k])!r}"

        def bisect_steps(seg, whole):
            """(start, mid, end) and (whole, first half, second half) of the
            steps seg[k, 0] -> seg[k, 1] whose exponentials are ``whole``."""
            mid = np.sqrt(seg[:, 0] * seg[:, 1]) if geometric else seg.mean(axis=1)
            halves = _step_matrices(problem, s, np.concatenate([seg[:, 0], mid]),
                                    np.concatenate([mid, seg[:, 1]]))
            return (np.column_stack([seg[:, 0], mid, seg[:, 1]]),
                    np.stack([whole, *np.split(halves, 2, axis=1)], axis=2))

        grid = (np.geomspace if geometric else np.linspace)(t0, far, cls.INITIAL_STEPS + 1)
        seg, E = bisect_steps(np.column_stack([grid[:-1], grid[1:]]),
                              _step_matrices(problem, s, grid[:-1], grid[1:]))
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
            new_seg, new_E = bisect_steps(
                np.concatenate([seg[split, :2], seg[split, 1:]]),
                np.concatenate([E[:, split, 1], E[:, split, 2]], axis=1))
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
        for direction, (keys, mats) in self._branches.items():
            sel = np.flatnonzero(direction * (ts - self.t0) > 0)
            k = np.searchsorted(keys, direction * ts[sel], side="right") - 1
            base, M = direction * keys[k], mats[k]
            off = base != ts[sel]
            if off.any():
                M[off] = _step_matrices(self.problem, self._s, base[off], ts[sel][off])[0] @ M[off]
            out[sel] = M
        return out

    def matrix(self, t: float) -> np.ndarray:
        return self.matrices([t])[0]

    def symplectic(self, t: float) -> SymplecticMatrix:
        return SymplecticMatrix(self.problem.space, self.matrix(t))

    def max_drift(self) -> float:
        return max((r for _, r in self.drift_log), default=0.0)

    def flow_path(self, frame: LagrangianFrame, lo: float | None = None,
                  hi: float | None = None, samples: int = 256) -> LagrangianPath:
        """The Lagrangian path t -> gamma(t) . frame over [lo, hi].

        When the span hugs the coordinate singularity at 0 the initial sample
        grid is geometric, matching the natural log-time scale of the flow.
        """
        if frame.space != self.problem.space:
            raise SpaceMismatch("frame not in the problem's phase space")
        lo = self.span[0] if lo is None else lo
        hi = self.span[1] if hi is None else hi
        space = self.problem.space
        grid = None
        if lo > 0 and hi / max(lo, 1e-300) > 50.0:
            decades = math.log10(hi / lo)
            grid = np.geomspace(lo, hi, max(samples, int(48 * decades)))

        def fun(t):
            return lagrangian_from_columns(space, self.matrix(t) @ frame.frame)

        def many(ts):
            return stacked_lagrangian_frames(space, self.matrices(ts) @ frame.frame)

        return LagrangianPath(space, fun, lo, hi, samples=samples, grid=grid, many=many)


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


def boundary_bracket(f_data, g_data) -> float:
    """[f, g](t) = <f^[1], g> - <f, g^[1]> from (value, quasi-derivative) pairs."""
    fv, fq = (np.atleast_1d(np.asarray(v, float)) for v in f_data)
    gv, gq = (np.atleast_1d(np.asarray(v, float)) for v in g_data)
    return float(fq @ gv - fv @ gq)


# -- conjugate points ---------------------------------------------------------


def conjugate_points(problem: SLProblem, bc_at_start: LagrangianFrame,
                     reference: LagrangianFrame, span: tuple,
                     anchor: float | None = None, fs: FundamentalSolution | None = None):
    """Interior instants where gamma(t).bc meets the reference, with multiplicity.

    ``anchor`` is where gamma equals the identity (defaults to the span
    start).  When the reference is the Dirichlet frame and P is positive
    definite, every crossing is positive.  Near a singular end the flow can
    then swing through a half turn inside one sample interval, which the
    shorter arc would read as a negative crossing, so the count reads a step
    that passes the cut clockwise as that half turn once a sample inside the
    step shows it, and raises SymindError otherwise.
    """
    c, d = span
    anchor = c if anchor is None else anchor
    if fs is None:
        fs = fundamental_solution(problem, anchor, span)
    path = fs.flow_path(bc_at_start, c, d)
    ref_path = LagrangianPath.constant(reference, c, d)

    dirichlet_like = np.allclose(reference.frame, dirichlet_frame(problem.space).frame)
    P_mid = problem.coefficients([0.5 * (c + d)])[0][0]
    positive_p = bool(np.all(np.linalg.eigvalsh(0.5 * (P_mid + P_mid.T)) > 0))
    _, records = maslov_clm(ref_path, path, (c, d),
                            _counterclockwise=dirichlet_like and positive_p)
    return [(rec.t, rec.multiplicity) for rec in records if c < rec.t < d]


# -- Morse index under Dirichlet/Friedrichs conditions ------------------------


def _schedule_verdict(counts):
    """Finite / Infinite / Undetermined from truncation counts, coarsest first."""
    if all(counts[i + 1] >= counts[i] + 1 for i in range(len(counts) - 1)):
        return INFINITE, None
    if counts[-1] == counts[-2] == counts[-3]:
        return int(counts[-1]), None
    return UNDETERMINED, "truncation counts neither stabilized nor grew monotonically"


def morse_index_dirichlet(problem: SLProblem,
                          delta_schedule=DELTA_SCHEDULE) -> IndexReport:
    """Morse index with Dirichlet data at the regular end and the Friedrichs
    condition at a limit-circle singular end: the stabilized conjugate-point
    count over interval truncations toward the singular endpoint."""
    schedule = tuple(sorted({float(d) for d in delta_schedule}, reverse=True))
    if len(schedule) < 4:
        raise ScheduleTooShort("need at least four truncation offsets")

    LD = dirichlet_frame(problem.space)
    a, b = problem.interval
    side = problem.singular_end()
    assumptions = {"H3_bounded_below": "assumed, not verified",
                   "H4_fredholm_minimal": "assumed, not verified"}

    if side is None:
        fs = fundamental_solution(problem, a, (a, b))
        pts = conjugate_points(problem, LD, LD, (a, b), anchor=a, fs=fs)
        count = sum(m for _, m in pts)
        return IndexReport(
            command="morse", verdict=int(count),
            conjugate_points=list(pts), assumptions=assumptions,
            diagnostics={"delta_trace": [[d, count] for d in schedule],
                         "max_drift": fs.max_drift(),
                         "integrator_steps": dict(fs.steps),
                         "truncation": "none (regular problem)"})

    if side == 0:
        anchor, finest = b, (a + schedule[-1], b)
        windows = [(a + d, b) for d in schedule]
    else:
        anchor, finest = a, (a, b - schedule[-1])
        windows = [(a, b - d) for d in schedule]

    fs = fundamental_solution(problem, anchor, finest)
    pts = conjugate_points(problem, LD, LD, finest, anchor=anchor, fs=fs)
    counts = [sum(m for t, m in pts if lo < t < hi) for lo, hi in windows]
    verdict, reason = _schedule_verdict(counts)

    diagnostics = {"delta_trace": [[d, c] for d, c in zip(schedule, counts)],
                   "max_drift": fs.max_drift(),
                   "integrator_steps": dict(fs.steps)}
    qval = problem.params.get("q")
    if problem.catalog in ("bessel", "bessel_r") and qval is not None and qval < -0.25:
        nu = math.sqrt(-0.25 - qval)
        diagnostics["expected_growth_per_decade"] = nu * math.log(10.0) / math.pi

    return IndexReport(
        command="morse", verdict=verdict, reason=reason,
        conjugate_points=list(pts), assumptions=assumptions,
        diagnostics=diagnostics)


# -- boundary charts and the trace map ----------------------------------------


def darboux_basis(K: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Columns T with T^T K T equal to the standard form matrix, for a
    nonsingular skew K.  Symplectic Gram-Schmidt with full pivoting."""
    m = K.shape[0]
    if m % 2:
        raise SelectionFailed("odd-dimensional skew form cannot be normalized")
    scale = max(1.0, float(np.max(np.abs(K))))
    avail = [np.eye(m)[:, i] for i in range(m)]
    ps, qs = [], []

    def pair(u, v):
        return float(u @ K @ v)

    while 2 * len(ps) < m:
        best, bi, bj = 0.0, -1, -1
        for i in range(len(avail)):
            for j in range(i + 1, len(avail)):
                val = abs(pair(avail[i], avail[j]))
                if val > best:
                    best, bi, bj = val, i, j
        if best <= tol * scale:
            raise SelectionFailed("skew form is degenerate on the working space")
        u = avail[bi]
        v = avail[bj] / pair(u, avail[bj])
        ps.append(u)
        qs.append(v)
        rest = []
        for k, w in enumerate(avail):
            if k in (bi, bj):
                continue
            w2 = w - pair(w, v) * u + pair(w, u) * v
            if np.linalg.norm(w2) > 1e-12:
                rest.append(w2)
        avail = rest
    T = np.column_stack(ps + qs)
    half = m // 2
    target = np.zeros((m, m))
    target[:half, half:] = np.eye(half)
    target[half:, :half] = -np.eye(half)
    if np.max(np.abs(T.T @ K @ T - target)) > 1e-8 * scale:
        raise SelectionFailed("symplectic normalization did not converge")
    return T


@dataclass
class BoundaryChart:
    """Coordinates on the boundary-data space R^(2k-2n) (+) R^(2n) carrying
    the product form -Omega (+) Omega.

    ``kernel_trace`` is the trace image of the solution space of l x = 0,
    ``friedrichs`` the Lagrangian of the Friedrichs extension's domain, and
    ``a_transform`` the normalization applied to raw bracket coordinates at
    the singular/left end so that the left block carries exactly -Omega.
    """

    problem: SLProblem
    space: SymplecticSpace
    kernel_trace: LagrangianFrame
    friedrichs: LagrangianFrame
    a_block: int
    b_block: int
    a_transform: np.ndarray
    kernel_data: object = None      # list of t -> (value, quasi-derivative)

    def dirichlet(self) -> LagrangianFrame:
        n = self.b_block
        return direct_sum_frame(
            dirichlet_frame(SymplecticSpace.standard(self.a_block)),
            dirichlet_frame(SymplecticSpace.standard(n)))

    def neumann(self) -> LagrangianFrame:
        return direct_sum_frame(
            neumann_frame(SymplecticSpace.standard(self.a_block)),
            neumann_frame(SymplecticSpace.standard(self.b_block)))

    def mixed(self, left: LagrangianFrame | np.ndarray, right: LagrangianFrame | np.ndarray) -> LagrangianFrame:
        return direct_sum_frame(left, right)

    def resolve(self, bc) -> LagrangianFrame:
        if isinstance(bc, LagrangianFrame):
            if bc.space != self.space:
                raise SpaceMismatch("boundary frame not in the chart's space")
            return bc
        kind = bc.kind if hasattr(bc, "kind") else str(bc)
        if kind == "dirichlet":
            return self.dirichlet()
        if kind == "neumann":
            return self.neumann()
        if kind in ("friedrichs", "friedrichs_singular"):
            if self.friedrichs is None:
                raise KernelBasisUnavailable("chart has no Friedrichs frame")
            return self.friedrichs
        if kind == "general":
            return self.resolve(bc.frame)
        raise SymindError(f"cannot resolve boundary condition {bc!r}")


@dataclass
class BoundaryCondition:
    """kind in {dirichlet, neumann, general, friedrichs}; ``frame`` carries the
    boundary-data Lagrangian for the general kind."""

    kind: str
    frame: LagrangianFrame | None = None


def regular_boundary_chart(problem: SLProblem,
                           fs: FundamentalSolution | None = None) -> BoundaryChart:
    """Chart for a problem regular at both ends: boundary data are the raw
    endpoint evaluations (x^[1](a), x(a), x^[1](b), x(b))."""
    n = problem.dim
    a, b = problem.interval
    if fs is None:
        fs = fundamental_solution(problem, a, (a, b))
    M = fs.symplectic(b)
    V = graph_lagrangian(M)
    F = direct_sum_frame(dirichlet_frame(problem.space), dirichlet_frame(problem.space))
    chart = BoundaryChart(problem, V.space, V, F, n, n, np.eye(2 * n))
    _assert_chart_consistency(chart)
    return chart


def _assert_chart_consistency(chart: BoundaryChart):
    # the kernel trace must be Lagrangian for the product form; this pins all
    # sign conventions of the trace coordinates
    res = chart.kernel_trace.isotropy_residual()
    if res > 1e-6:
        raise SelectionFailed(f"kernel trace is not Lagrangian (residual {res:.2e})")


def singular_boundary_chart(problem: SLProblem, kernel_data,
                            bracket_matrix: np.ndarray,
                            friedrichs_left=None,
                            regular_end: float | None = None) -> BoundaryChart:
    """Chart for a problem with a limit-circle left end from an explicit
    kernel basis.

    ``kernel_data``: list of callables t -> (value, quasi-derivative), one per
    kernel function y_i; ``bracket_matrix``: B_ij = [y_i, y_j](a+).  Raw left
    coordinates c_i(f) = -[f, y_i](a+) satisfy [f, g](a+) = -c^T B^{-1} d, so
    the left block carries -Omega exactly in the normalized coordinates
    S c with S = T^{-1}, T^T (-B^{-1}) T = J_std.

    ``friedrichs_left``: kernel-coefficient columns (coefficients in the
    y-basis) spanning the Friedrichs condition at the singular end; when
    omitted the chart has no Friedrichs frame and index corrections that need
    it are unavailable.
    """
    n = problem.dim
    b = problem.interval[1] if regular_end is None else regular_end
    B = np.asarray(bracket_matrix, dtype=float)
    m = B.shape[0]
    if np.linalg.matrix_rank(B) < m:
        raise SelectionFailed("bracket Gram matrix of the kernel basis is singular")
    T = darboux_basis(-np.linalg.inv(B))
    S = np.linalg.inv(T)

    cols = []
    for i, data in enumerate(kernel_data):
        c_raw = B @ np.eye(m)[:, i]          # coordinates of y_i itself
        val, quasi = data(b)
        cols.append(np.concatenate([S @ c_raw, np.atleast_1d(quasi), np.atleast_1d(val)]))
    prod = SymplecticSpace.minus_plus(m // 2, n)
    V = lagrangian_from_columns(prod, np.column_stack(cols))

    F = None
    if friedrichs_left is not None:
        alpha = np.atleast_2d(np.asarray(friedrichs_left, dtype=float))
        if alpha.shape[0] != m:
            alpha = alpha.T
        left_cols = S @ (B @ alpha)
        F = direct_sum_frame(
            lagrangian_from_columns(SymplecticSpace.standard(m // 2), left_cols),
            dirichlet_frame(SymplecticSpace.standard(n)))

    chart = BoundaryChart(problem, prod, V, F, m // 2, n, S, kernel_data)
    _assert_chart_consistency(chart)
    return chart


def boundary_chart(problem: SLProblem) -> BoundaryChart:
    """Dispatch: analytic chart for catalog problems with a kernel basis,
    endpoint-evaluation chart for regular problems; KernelBasisUnavailable
    for any other singular end."""
    if problem.catalog in ("bessel", "bessel_r"):
        from .bessel import bessel_boundary_chart
        return bessel_boundary_chart(problem)
    if problem.singular_end() is None:
        return regular_boundary_chart(problem)
    raise KernelBasisUnavailable(
        "no kernel basis for a singular end outside the Bessel catalog entries")


def trace_map(problem: SLProblem, f_data, kernel_basis=None,
              regular_end_probes=None, chart: BoundaryChart | None = None,
              limit_sequence=None) -> np.ndarray:
    """Boundary-data vector of a maximal-domain function.

    ``f_data``: callable t -> (value, quasi-derivative).  For a regular
    problem this reduces to (x^[1](a), x(a), x^[1](b), x(b)).  At a
    limit-circle end the left block is the normalized bracket vector
    -[f, y_i](a+), limits taken along a geometric sequence with a Cauchy
    test.  At a limit-point end only the regular-end block is produced.

    ``regular_end_probes``: optional list of (value, quasi-derivative) pairs
    at b; when given, the right block is the brackets [f, z_j](b) against
    them instead of the raw endpoint data.
    """
    a, b = problem.interval
    side = problem.singular_end()

    def b_block():
        val, quasi = f_data(b)
        if regular_end_probes is not None:
            return np.array([boundary_bracket((val, quasi), probe)
                             for probe in regular_end_probes])
        return np.concatenate([np.atleast_1d(quasi), np.atleast_1d(val)])

    if side is None:
        val_a, quasi_a = f_data(a)
        return np.concatenate([np.atleast_1d(quasi_a), np.atleast_1d(val_a), b_block()])

    if problem.endpoints[0] == LIMIT_POINT or problem.endpoints[1] == LIMIT_POINT:
        return b_block()

    if chart is None:
        chart = boundary_chart(problem)
    kernel = kernel_basis if kernel_basis is not None else chart.kernel_data
    if kernel is None:
        raise KernelBasisUnavailable("no kernel basis for the singular-end block")

    seq = limit_sequence
    if seq is None:
        base = min(1e-3, 0.1 * (b - a))
        seq = [a + base * 4.0 ** (-k) for k in range(8)]
    raw = []
    for y in kernel:
        vals = [-boundary_bracket(f_data(t), y(t)) for t in seq]
        if abs(vals[-1] - vals[-2]) > 1e-6 * max(1.0, abs(vals[-1])):
            raise BracketLimitDiverges(
                f"bracket limit fails the Cauchy test (last values {vals[-2:]})")
        raw.append(vals[-1])
    left = chart.a_transform @ np.array(raw)
    return np.concatenate([left, b_block()])


# -- Morse index with general boundary conditions ------------------------------


def morse_index_general(problem: SLProblem, bc,
                        delta_schedule=DELTA_SCHEDULE,
                        chart: BoundaryChart | None = None) -> IndexReport:
    """Morse index for a general self-adjoint boundary condition: the
    Friedrichs/Dirichlet index plus the triple-index correction
    iota(kernel trace, condition, Friedrichs) in the boundary-data space."""
    if chart is None:
        chart = boundary_chart(problem)
    if chart.friedrichs is None:
        raise KernelBasisUnavailable("no Friedrichs frame available in this chart")
    Lam = chart.resolve(bc)
    base = morse_index_dirichlet(problem, delta_schedule)
    correction = triple_index(chart.kernel_trace, Lam, chart.friedrichs)

    if base.verdict == INFINITE:
        verdict, reason = INFINITE, None
    elif base.verdict == UNDETERMINED:
        verdict, reason = UNDETERMINED, base.reason
    else:
        verdict, reason = int(base.verdict + correction), None

    diagnostics = dict(base.diagnostics)
    diagnostics["friedrichs_index"] = base.verdict
    diagnostics["triple_index_correction"] = correction
    return IndexReport(
        command="morse", verdict=verdict, reason=reason,
        conjugate_points=base.conjugate_points,
        assumptions=base.assumptions, diagnostics=diagnostics)


# -- endpoint classification ---------------------------------------------------


def endpoint_classify(problem: SLProblem, endpoint) -> str:
    """Weyl-type classification of one endpoint: Regular, limit circle, or
    limit point.

    Catalog Bessel problems use the analytic thresholds (q < 3/4 means two
    square-integrable solutions near 0, reported as limit circle following
    the family convention even at coefficients that extend continuously).
    Otherwise: regular when the coefficients extend continuously with P^{-1}
    bounded; else integrate the full solution space toward the endpoint and
    count square-integrable directions by tail-sum extrapolation of the Gram
    spectrum.
    """
    side = 0 if endpoint in (0, "a", "left") else 1
    a, b = problem.interval

    if problem.catalog in ("bessel", "bessel_r") and side == 0:
        # analytic override: both solutions t^(1/2 +- r) are square-integrable
        # near 0 exactly when q < 3/4; the family convention reports limit
        # circle even where the coefficient extends continuously (q = 0)
        return LIMIT_CIRCLE if problem.params["q"] < 0.75 else LIMIT_POINT

    t_end = a if side == 0 else b
    if not np.isfinite(t_end):
        return _classify_by_integration(problem, side)
    h0 = 1e-3 * (b - a)
    probes = t_end + (1 if side == 0 else -1) * h0 * 4.0 ** -np.arange(6)
    try:
        P, Q, R = problem.coefficients(probes)
        vals = np.concatenate([np.linalg.inv(P), Q, R], axis=1).reshape(len(probes), -1)
        sup = np.max(np.abs(vals))
        if np.max(np.abs(vals[-1] - vals[-2])) < 1e-6 * max(1.0, sup) and sup < 1e8:
            return REGULAR
    except (CoefficientSingular, np.linalg.LinAlgError, FloatingPointError):
        pass
    return _classify_by_integration(problem, side)


def _classify_by_integration(problem: SLProblem, side: int) -> str:
    n = problem.dim
    a, b = problem.interval
    if side == 0:
        if not np.isfinite(a):
            raise Inconclusive("infinite left endpoint not supported by the tail oracle")
        ref = a + min(0.5 * (b - a), 0.5)
        cutoffs = [a + (ref - a) * 4.0 ** (-k) for k in range(1, 9)]
        anchor, lo, hi = ref, cutoffs[-1], ref
    else:
        if not np.isfinite(b):
            ref = a + 1.0 if np.isfinite(a) else 0.0
            cutoffs = [ref + 4.0 ** k for k in range(1, 9)]
            anchor, lo, hi = ref, ref, cutoffs[-1]
        else:
            ref = b - min(0.5 * (b - a), 0.5)
            cutoffs = [b - (b - ref) * 4.0 ** (-k) for k in range(1, 9)]
            anchor, lo, hi = ref, ref, cutoffs[-1]

    fs = fundamental_solution(problem, anchor, (min(lo, hi), max(lo, hi)),
                              tol=1e-8, drift_budget=1e30)

    # Gram matrices of the position rows of all solutions from the anchor to
    # each cutoff, by the midpoint rule on 32 cells between consecutive cutoffs
    nodes = np.array([(np.geomspace if min(t0, t1) > 0 else np.linspace)(
        min(t0, t1), max(t0, t1), 33) for t0, t1 in zip([anchor] + cutoffs[:-1], cutoffs)])
    X = fs.matrices(0.5 * (nodes[:, :-1] + nodes[:, 1:]))[:, n:, :]
    cells = np.einsum("k,kji,kjl->kil", np.diff(nodes, axis=1).ravel(), X, X)
    grams = np.cumsum(cells.reshape(len(cutoffs), -1, 2 * n, 2 * n).sum(axis=1), axis=0)

    # growth ratio of each Gram eigenvalue per 4x cutoff refinement: a
    # square-integrable direction settles to ratio 1, a divergent one keeps a
    # fixed ratio > 1 (4^power); log-divergence lands in between -> Inconclusive
    w = [np.linalg.eigvalsh(G) for G in grams[-3:]]
    bounded = divergent = 0
    for k in range(2 * n):
        r1 = w[1][k] / max(w[0][k], 1e-300)
        r2 = w[2][k] / max(w[1][k], 1e-300)
        if r1 < 1.2 and r2 < 1.2:
            bounded += 1
        elif r1 > 2.0 and r2 > 2.0:
            divergent += 1
    if bounded == 2 * n:
        return LIMIT_CIRCLE
    if bounded == n and divergent == n:
        return LIMIT_POINT
    raise Inconclusive(
        f"{bounded} of {2 * n} tail directions look square-integrable, "
        f"{divergent} divergent")
