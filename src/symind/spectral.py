"""Finite-difference discretization of Sturm-Liouville boundary value
problems, inertia-based eigenvalue counting, spectral flow of operator
families, the boundary Maslov-index identity, and ghost-eigenvalue scans.

Eigenvalue counts below a shift use the inertia of (A - tau M) via a
symmetric-indefinite LDL^T factorization; full spectra are computed only for
eigenvalue traces.  Discrete Morse counting treats eigenvalues inside a kernel
band around zero as zero; the default band scales like 1/N, covering the
first-order consistency error of the boundary-condition elimination without
touching the O(1) spectral gaps of the catalog problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .core import (
    LagrangianFrame,
    SymplecticSpace,
    dirichlet_frame,
    direct_sum_frame,
    intersection_dim,
    neumann_frame,
)
from .errors import (
    BCEliminationSingular,
    GridTooCoarse,
    NoSpectralGap,
    SpaceMismatch,
    TransversalityViolated,
)
from .maslov import LagrangianPath, maslov_clm
from .sturm import SLProblem, fundamental_solution

MAX_CELL_DEPTH = 12     # bisections of one spectral-flow cell whose margin count moves


def _inertia_from_ldl(S: np.ndarray):
    """(n_minus, n_zero, n_plus) of a symmetric matrix via LDL^T."""
    _, D, _ = sla.ldl(S)
    n_minus = n_zero = n_plus = 0
    i, m = 0, D.shape[0]
    while i < m:
        if i + 1 < m and abs(D[i, i + 1]) > 1e-14 * max(1.0, abs(D[i, i]), abs(D[i + 1, i + 1])):
            block = D[i:i + 2, i:i + 2]
            w = np.linalg.eigvalsh(0.5 * (block + block.T))
            for lam in w:
                if lam > 0:
                    n_plus += 1
                elif lam < 0:
                    n_minus += 1
                else:
                    n_zero += 1
            i += 2
        else:
            d = D[i, i]
            if d > 0:
                n_plus += 1
            elif d < 0:
                n_minus += 1
            else:
                n_zero += 1
            i += 1
    return n_minus, n_zero, n_plus


def _count_below_tridiagonal(diag, off, tau, mdiag):
    """Negative-pivot count of the Sturm-sequence LDL^T for a tridiagonal
    pencil: O(N), the workhorse for scalar problems."""
    d = diag - tau * mdiag
    tiny = 1e-300
    count = 0
    pivot = d[0]
    if pivot == 0.0:
        pivot = tiny
    if pivot < 0:
        count += 1
    for i in range(1, len(d)):
        pivot = d[i] - off[i - 1] ** 2 / pivot
        if pivot == 0.0:
            pivot = tiny
        if pivot < 0:
            count += 1
    return count


@dataclass
class DiscreteOperator:
    """Symmetric finite-dimensional surrogate of a boundary value problem.

    ``matrix`` is the quadratic-form matrix, ``mass`` the (lumped) L^2 mass;
    eigenvalue statements are about the pencil (matrix, mass).
    """

    problem: SLProblem
    bc: object
    grid_size: int
    span: tuple
    matrix: np.ndarray
    mass: np.ndarray
    _count_cache: dict = field(default_factory=dict, repr=False)
    _tridiag: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        A, M = self.matrix, self.mass
        if A.shape[0] > 2 and np.allclose(M, np.diag(np.diag(M)), atol=0.0):
            band = np.triu(A, 2)
            if not np.any(band):
                self._tridiag = (np.diag(A).copy(), np.diag(A, 1).copy(),
                                 np.diag(M).copy())

    @property
    def h(self) -> float:
        c, d = self.span
        return (d - c) / (self.grid_size + 1)

    def default_zero_band(self) -> float:
        c, d = self.span
        return 30.0 * (d - c) / self.grid_size

    def count_below(self, tau: float) -> int:
        """#{eigenvalues < tau} of the pencil, by inertia of (A - tau M)."""
        key = float(tau)
        if key not in self._count_cache:
            if self._tridiag is not None:
                diag, off, mdiag = self._tridiag
                self._count_cache[key] = _count_below_tridiagonal(diag, off, key, mdiag)
            else:
                n_minus, _, _ = _inertia_from_ldl(self.matrix - tau * self.mass)
                self._count_cache[key] = n_minus
        return self._count_cache[key]

    def count_in(self, lo: float, hi: float) -> int:
        return self.count_below(hi) - self.count_below(lo)

    def morse_count(self, zero_band: float | None = None) -> int:
        band = self.default_zero_band() if zero_band is None else zero_band
        return self.count_below(-band)

    def eigenvalues(self, k: int | None = None) -> np.ndarray:
        if k is None:
            return sla.eigh(self.matrix, self.mass, eigvals_only=True)
        k = min(k, self.matrix.shape[0])
        return sla.eigh(self.matrix, self.mass, eigvals_only=True,
                        subset_by_index=[0, k - 1])


def _resolve_discrete_bc(problem, bc):
    if isinstance(bc, str):
        space = SymplecticSpace.standard(problem.dim)
        named = {"dirichlet": dirichlet_frame, "neumann": neumann_frame}
        if bc not in named:
            raise ValueError(f"unknown named boundary condition {bc!r}")
        f = named[bc](space)
        return direct_sum_frame(f, f)
    if isinstance(bc, LagrangianFrame):
        expected = SymplecticSpace.minus_plus(problem.dim, problem.dim)
        if bc.space != expected:
            raise SpaceMismatch("boundary frame must live in the product boundary space")
        return bc
    if hasattr(bc, "kind"):
        return _resolve_discrete_bc(problem, bc.kind if bc.frame is None else bc.frame)
    raise ValueError(f"cannot interpret boundary condition {bc!r}")


def discretize(problem: SLProblem, bc, N: int, s: float | None = None,
               span: tuple | None = None) -> DiscreteOperator:
    """Second-order central differences with midpoint P sampling; boundary
    conditions are eliminated against the Lagrangian frame's kernel
    description.  Requires the span to be regular (truncate singular problems
    first)."""
    if N < 16:
        raise GridTooCoarse("need at least 16 interior grid points")
    n = problem.dim
    c, d = problem.interval if span is None else span
    h = (d - c) / (N + 1)
    nodes = c + h * np.arange(N + 2)

    Pm = [problem.coefficients(c + h * (i + 0.5), s)[0] for i in range(N + 1)]
    QR = [problem.coefficients(t, s)[1:] for t in nodes]
    total = n * (N + 2)

    F = np.zeros((total, total))
    for i in range(N + 1):
        Pi = Pm[i] / h
        sl_i = slice(n * i, n * (i + 1))
        sl_j = slice(n * (i + 1), n * (i + 2))
        F[sl_i, sl_i] += Pi
        F[sl_j, sl_j] += Pi
        F[sl_i, sl_j] -= Pi
        F[sl_j, sl_i] -= Pi
        # cross term int <x, (Q + Q^T) x'>, telescoping midpoint treatment
        Qm = problem.coefficients(c + h * (i + 0.5), s)[1]
        Smid = Qm + Qm.T
        F[sl_j, sl_j] += 0.5 * Smid
        F[sl_i, sl_i] -= 0.5 * Smid

    Mass = np.zeros((total, total))
    for i in range(N + 2):
        w = 0.5 if i in (0, N + 1) else 1.0
        sl = slice(n * i, n * (i + 1))
        R_i = QR[i][1]
        F[sl, sl] += w * h * R_i
        Mass[sl, sl] = w * h * np.eye(n)

    frame = _resolve_discrete_bc(problem, bc)
    keep = slice(n, n * (N + 1))

    if isinstance(bc, str) and bc == "dirichlet":
        A = F[keep, keep]
        M = Mass[keep, keep]
        return DiscreteOperator(problem, bc, N, (c, d), 0.5 * (A + A.T), M)

    # boundary data beta(y) = (p_a, x_0, p_b, x_{N+1}) with one-sided
    # quasi-derivatives; membership in the frame is F^T Jprod beta = 0
    Pa, Qa, _ = problem.coefficients(nodes[0], s)
    Pb, Qb, _ = problem.coefficients(nodes[-1], s)
    Cmat = frame.frame.T @ frame.space.form   # (2n) x (4n), annihilates the frame

    # the operator's quadratic form carries the boundary term
    # <p_a, q_a> - <p_b, q_b>; it is symmetric on the constraint set exactly
    # because the frame is Lagrangian, and vanishes for Dirichlet/Neumann data
    sl0, sl1 = slice(0, n), slice(n, 2 * n)
    slN, slE = slice(n * N, n * (N + 1)), slice(n * (N + 1), n * (N + 2))
    F[sl0, sl0] += -Pa / h + 0.5 * (Qa + Qa.T)
    F[sl0, sl1] += 0.5 * Pa / h
    F[sl1, sl0] += 0.5 * Pa / h
    F[slE, slE] += -Pb / h - 0.5 * (Qb + Qb.T)
    F[slE, slN] += 0.5 * Pb / h
    F[slN, slE] += 0.5 * Pb / h

    # beta = B_bnd (x_0; x_{N+1}) + B_int (x_1; x_N)
    Z = np.zeros((n, n))
    B_bnd = np.block([
        [-Pa / h + Qa, Z],
        [np.eye(n), Z],
        [Z, Pb / h + Qb],
        [Z, np.eye(n)],
    ])
    B_int = np.block([
        [Pa / h, Z],
        [Z, Z],
        [Z, -Pb / h],
        [Z, Z],
    ])
    C_bnd = Cmat @ B_bnd
    C_int = Cmat @ B_int
    if np.linalg.cond(C_bnd) > 1e10:
        raise BCEliminationSingular("cannot solve for the boundary unknowns")
    G = -np.linalg.solve(C_bnd, C_int)   # (x_0; x_{N+1}) = G (x_1; x_N)

    # eliminate the boundary blocks: since F couples x_0/x_{N+1} only to
    # x_1/x_N, substituting them back is a local correction at those blocks
    A = F[keep, keep].copy()
    M = Mass[keep, keep].copy()
    bidx = np.r_[np.arange(n), np.arange(n * (N + 1), n * (N + 2))]
    iidx = np.r_[np.arange(n, 2 * n), np.arange(n * N, n * (N + 1))]
    F_bb = F[np.ix_(bidx, bidx)]
    F_bi = F[np.ix_(bidx, iidx)]
    M_bb = Mass[np.ix_(bidx, bidx)]
    local = G.T @ F_bi + F_bi.T @ G + G.T @ F_bb @ G
    mass_local = G.T @ M_bb @ G
    loc = np.r_[np.arange(n), np.arange(n * (N - 1), n * N)]
    A[np.ix_(loc, loc)] += local
    M[np.ix_(loc, loc)] += mass_local
    return DiscreteOperator(problem, bc, N, (c, d), 0.5 * (A + A.T), 0.5 * (M + M.T))


def discretize_neumann_ghost(problem: SLProblem, N: int, span: tuple | None = None) -> DiscreteOperator:
    """Reference Neumann scheme via reflected ghost points, for cross-checking
    the frame-eliminated Neumann discretization."""
    if N < 16:
        raise GridTooCoarse("need at least 16 interior grid points")
    if problem.dim != 1:
        raise ValueError("ghost-point comparison implemented for scalar problems")
    c, d = problem.interval if span is None else span
    h = (d - c) / (N + 1)
    nodes = c + h * np.arange(N + 2)
    total = N + 2
    A = np.zeros((total, total))
    M = np.zeros((total, total))
    for i in range(total):
        P = problem.coefficients(nodes[i])[0][0, 0]
        R = problem.coefficients(nodes[i])[2][0, 0]
        w = 0.5 if i in (0, total - 1) else 1.0
        if i > 0:
            A[i, i - 1] -= P / h
        if i < total - 1:
            A[i, i + 1] -= P / h
        A[i, i] += (2.0 if 0 < i < total - 1 else 1.0) * P / h
        A[i, i] += w * h * R
        M[i, i] = w * h
    return DiscreteOperator(problem, "neumann-ghost", N, (c, d), 0.5 * (A + A.T), M)


# -- spectral flow -------------------------------------------------------------


class _FamilyCache:
    def __init__(self, factory):
        self._factory = factory
        self._cache = {}

    def __call__(self, s: float) -> DiscreteOperator:
        key = float(s)
        if key not in self._cache:
            self._cache[key] = self._factory(key)
        return self._cache[key]


def _find_margin(ops, window_gap, kernel_band):
    """Largest margin a <= window_gap with an eigenvalue-free zone of +-5%
    around it for every operator in ``ops``."""
    a = window_gap
    for _ in range(40):
        if all(op.count_below(1.05 * a) == op.count_below(0.95 * a) for op in ops) \
                and a > 2.0 * kernel_band:
            return a
        a *= 0.8
    raise NoSpectralGap("no margin free of spectrum near zero at this grid size")


def spectral_flow(family, s_interval, window_gap: float = 1.0,
                  kernel_band: float | None = None, max_cells: int = 256) -> int:
    """Net eigenvalue count crossing zero along the family, by partitioned
    counting: sum over cells of #[0, a_i] at the right end minus the left end.

    A cell counts only when as many eigenvalues lie below its margin a_i at
    both ends; otherwise eigenvalues crossed the margin inside it, and it is
    bisected, at most MAX_CELL_DEPTH times.  The partition is refined until
    two consecutive refinements agree, which realizes partition
    independence; counts use (-band, a_i] so that eigenvalues inside the
    kernel band count as zero.
    """
    fam = family if isinstance(family, _FamilyCache) else _FamilyCache(family)
    s0, s1 = s_interval
    band = fam(s0).default_zero_band() if kernel_band is None else kernel_band

    def flow_with(cells):
        ss = np.linspace(s0, s1, cells + 1)
        stack = [(ss[i], ss[i + 1], 0) for i in range(cells)]
        total = 0
        while stack:
            lo, hi, depth = stack.pop()
            left, right = fam(lo), fam(hi)
            a = _find_margin((left, right), window_gap, band)
            if left.count_below(a) == right.count_below(a):
                total += right.count_in(-band, a) - left.count_in(-band, a)
            elif depth == MAX_CELL_DEPTH:
                raise NoSpectralGap(
                    f"eigenvalues still cross the margin {a:.3g} inside [{lo:.6g}, {hi:.6g}]")
            else:
                mid = 0.5 * (lo + hi)
                stack += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
        return total

    cells = 8
    prev = flow_with(cells)
    while cells <= max_cells:
        cells *= 2
        cur = flow_with(cells)
        if cur == prev:
            return cur
        prev = cur
    raise NoSpectralGap(f"flow did not stabilize below {max_cells} cells")


def discretized_family(problem: SLProblem, bc, N: int, span: tuple | None = None):
    """s -> DiscreteOperator for a problem with parameter-dependent zero-order
    term and/or parameter-dependent boundary condition."""
    bc_fun = bc if callable(bc) and not isinstance(bc, LagrangianFrame) else (lambda s: bc)

    def factory(s):
        return discretize(problem, bc_fun(s), N, s=s if problem.c is not None else None,
                          span=span)

    return _FamilyCache(factory)


# -- the spectral flow formula -------------------------------------------------


def monodromy_graph_path(problem: SLProblem, s_interval, span: tuple | None = None,
                         samples: int = 64) -> LagrangianPath:
    """s -> Graph(M_s) in the product boundary space, M_s the fundamental
    solution of the s-frozen problem across the span."""
    from .core import SymplecticMatrix, graph_lagrangian

    c, d = problem.interval if span is None else span
    s0, s1 = s_interval
    cache = {}

    def fun(s):
        key = float(s)
        if key not in cache:
            fs = fundamental_solution(problem, c, (c, d), s=key if problem.c is not None else None)
            M = SymplecticMatrix(problem.space, fs.matrix(d))
            cache[key] = graph_lagrangian(M, tol=1e-6)
        return cache[key]

    return LagrangianPath(SymplecticSpace.minus_plus(problem.dim, problem.dim),
                          fun, s0, s1, samples=samples)


def verify_sf_formula(problem: SLProblem, bc, s_interval, N: int = 512,
                      window_gap: float = 50.0, span: tuple | None = None) -> dict:
    """Check spfl(L_{s, Lambda_s}) = -mu(Lambda_s, Graph(M_s)) on a regular
    problem: the left side by partitioned eigenvalue counting of the
    discretized family, the right side by the crossing machinery on the
    boundary-data paths."""
    s0, s1 = s_interval
    fam = discretized_family(problem, bc, N, span=span)
    sf = spectral_flow(fam, s_interval, window_gap=window_gap)

    bc_fun = bc if callable(bc) and not isinstance(bc, LagrangianFrame) else (lambda s: bc)
    prod = SymplecticSpace.minus_plus(problem.dim, problem.dim)
    lam_path = LagrangianPath(prod, lambda s: _resolve_discrete_bc(problem, bc_fun(s)),
                              s0, s1, samples=64)
    graph_path = monodromy_graph_path(problem, s_interval, span=span)
    mu, records = maslov_clm(lam_path, graph_path, (s0, s1))
    return {
        "sf": sf,
        "maslov": mu,
        "agree": bool(sf == -mu),
        "crossings": [(r.t, r.multiplicity, (r.inertia.n_plus, r.inertia.n_zero, r.inertia.n_minus))
                      for r in records],
        "N": N,
    }


# -- Rellich ghost eigenvalues --------------------------------------------------


def left_line_to_product(problem: SLProblem, left) -> LagrangianFrame:
    """Embed a singular-end boundary line as (line at a) (+) (Dirichlet at b)."""
    cols = left.frame if isinstance(left, LagrangianFrame) else np.asarray(left, float)
    return direct_sum_frame(cols.reshape(2 * problem.dim, -1),
                            dirichlet_frame(problem.space))


def rellich_ghosts(problem: SLProblem, bc_path, friedrichs_left,
                   M_values=(1e2, 1e3), N: int = 1024,
                   u_values=(0.4, 0.2, 0.1, 0.05, 0.025), span: tuple | None = None,
                   jobs: int = 1) -> dict:
    """Ghost-eigenvalue scan: eigenvalues diving below -M as the boundary
    condition at the truncation point rotates off the Friedrichs line.

    ``bc_path``: u -> boundary line at the left end (frame in the 2n-dim left
    block), with bc_path(0) the Friedrichs line and bc_path(u) transversal to
    it for u != 0; ``friedrichs_left``: the Friedrichs line itself.  Counts
    below each -M are compared with the Maslov index of (Friedrichs, path) in
    the left block, and the bottom eigenvalue is tracked to exhibit the dive.
    """
    n = problem.dim
    left_space = SymplecticSpace.minus_plus(n, 0)

    def left_frame(u):
        f = bc_path(u)
        cols = f.frame if isinstance(f, LagrangianFrame) else np.asarray(f, float)
        return LagrangianFrame(left_space, cols.reshape(2 * n, n))

    fr = friedrichs_left if isinstance(friedrichs_left, LagrangianFrame) \
        else LagrangianFrame(left_space, np.asarray(friedrichs_left, float).reshape(2 * n, n))

    for u in u_values:
        if u != 0 and intersection_dim(left_frame(u), fr) > 0:
            raise TransversalityViolated(f"boundary line at u={u} meets the Friedrichs line")

    u_max = max(u_values)
    path = LagrangianPath(left_space, left_frame, 0.0, u_max, samples=64)
    fr_path = LagrangianPath.constant(fr, 0.0, u_max)
    mu, _ = maslov_clm(fr_path, path, (0.0, u_max))

    def scan(u):
        op = discretize(problem, left_line_to_product(problem, left_frame(u)), N, span=span)
        return ([op.count_below(-float(M)) for M in M_values],
                float(op.eigenvalues(k=1)[0]))

    ordered = sorted(u_values, reverse=True)
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(scan, ordered))
    else:
        results = [scan(u) for u in ordered]

    counts = {float(M): [row[0][k] for row in results]
              for k, M in enumerate(M_values)}
    bottoms = [row[1] for row in results]

    return {
        "u_values": ordered,
        "counts_below_minus_M": counts,
        "maslov_prediction": mu,
        "lambda_min_trace": bottoms,
        "N": N,
    }


# -- Morse jump identity ---------------------------------------------------------


def morse_jump_check(problem: SLProblem, bc0, bc1, bc_path, N: int = 512,
                     window_gap: float = 50.0, zero_band: float | None = None,
                     span: tuple | None = None) -> dict:
    """Evaluate iMor(L_1) - iMor(L_0) + spfl - mu(Lambda_F, Lambda_s) = 0
    with all four terms computed independently on the discretized problem."""
    op0 = discretize(problem, bc0, N, span=span)
    op1 = discretize(problem, bc1, N, span=span)
    i0 = op0.morse_count(zero_band)
    i1 = op1.morse_count(zero_band)

    fam = discretized_family(problem, bc_path, N, span=span)
    band = op0.default_zero_band() if zero_band is None else zero_band
    sf = spectral_flow(fam, (0.0, 1.0), window_gap=window_gap, kernel_band=band)

    prod = SymplecticSpace.minus_plus(problem.dim, problem.dim)
    LD = dirichlet_frame(problem.space)
    lam_F = direct_sum_frame(LD, LD)
    lam_path = LagrangianPath(prod, lambda s: _resolve_discrete_bc(problem, bc_path(s)),
                              0.0, 1.0, samples=64)
    mu, _ = maslov_clm(LagrangianPath.constant(lam_F, 0.0, 1.0), lam_path, (0.0, 1.0))

    residual = i1 - i0 + sf - mu
    return {"imor0": i0, "imor1": i1, "sf": sf, "maslov": mu,
            "residual": residual, "N": N}


# -- eigenvalue traces -----------------------------------------------------------


@dataclass
class EigenTrace:
    """Lowest-m spectra along a parameter grid with index pairings.

    Spectra are sorted, so the pairing between consecutive parameters is the
    identity on tracked indices; the tracked window is widened until it
    contains every eigenvalue in [-gap, gap] at each parameter.
    """

    s_grid: np.ndarray
    eigenvalues: np.ndarray          # (len(s_grid), m)
    pairings: np.ndarray             # (len(s_grid) - 1, m) index maps

    @staticmethod
    def collect(family, s_values, m: int = 6, gap: float | None = None) -> "EigenTrace":
        fam = family if isinstance(family, _FamilyCache) else _FamilyCache(family)
        rows = []
        for s in s_values:
            op = fam(s)
            k = m
            w = op.eigenvalues(k=k)
            if gap is not None:
                while w[-1] < gap and k < op.matrix.shape[0]:
                    k = min(2 * k, op.matrix.shape[0])
                    w = op.eigenvalues(k=k)
            rows.append(w[:m])
        eig = np.array(rows)
        pair = np.tile(np.arange(eig.shape[1]), (len(s_values) - 1, 1))
        return EigenTrace(np.asarray(s_values, float), eig, pair)

    def to_csv(self, path):
        m = self.eigenvalues.shape[1]
        header = "s," + ",".join(f"lambda_{i + 1}" for i in range(m))
        data = np.column_stack([self.s_grid, self.eigenvalues])
        np.savetxt(path, data, delimiter=",", header=header, comments="")
