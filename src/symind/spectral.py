"""Finite-difference discretization of Sturm-Liouville boundary value
problems, inertia-based eigenvalue counting, spectral flow of operator
families, the boundary Maslov-index identity, and ghost-eigenvalue scans.

A discretized operator is the pencil (A, M) on the N interior nodes, stored
as cyclic block-tridiagonal bands of n x n blocks: the stiffness A is block
tridiagonal, the lumped mass M block diagonal.  Eliminating the boundary
unknowns adds a 2n x 2n corner on the first and last interior blocks; for
separated boundary conditions it is block diagonal, and only coupled ones
(a periodic frame) join the first block to the last, which closes the bands
into a cycle.  Eigenvalue counts below a shift tau are the negative pivots of
one block Sturm-sequence LDL^T of A - tau M, in O(N); a cycle-closing block
enters through Haynsworth inertia additivity.  Eigenvalues come from the
banded symmetric eigensolver on the mass-scaled bands, or, when the corner
couples the ends, from bisection on the same count.  Discrete Morse counting
treats eigenvalues inside a kernel band around zero as zero; the default band
scales like 1/N, covering the first-order consistency error of the
boundary-condition elimination without touching the O(1) spectral gaps of the
catalog problems.
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
_TINY = 1e-300          # stands in for an exactly zero Sturm pivot


def _sym(X: np.ndarray) -> np.ndarray:
    return 0.5 * (X + np.swapaxes(X, -1, -2))


def _negative_pivots(D: np.ndarray, E: np.ndarray) -> int:
    """Number of negative eigenvalues of the symmetric cyclic block-tridiagonal
    matrix S with diagonal blocks D[i] = S[i, i] and blocks E[i] = S[i+1, i]
    below them, E[N-1] = S[0, N-1] the block that closes the cycle.

    Blocks 0..N-2 are eliminated in order by the Sturm-sequence LDL^T; their
    pivots are the inertia of the block-tridiagonal leading part X.  Block
    column N-1 is carried along (W), so that Z ends as the Schur complement
    S[N-1, N-1] - Y^T X^-1 Y, and In(S) = In(X) + In(Z) (Haynsworth).  With
    E[N-1] = 0 this is the plain block Sturm sequence.  A zero pivot is
    replaced by a tiny positive one.
    """
    if D.shape[-1] == 1:
        return _negative_pivots_scalar(D[:, 0, 0].tolist(), E[:, 0, 0].tolist())
    count = 0
    P, W, Z = D[0], E[-1], D[-1]
    for i in range(1, len(D) - 1):
        Pinv, negative = _pivot_inverse(P)
        count += negative
        L = E[i - 1] @ Pinv
        Z = Z - W.T @ Pinv @ W
        W = -L @ W
        P = D[i] - L @ E[i - 1].T
    W = W + E[-2].T
    Pinv, negative = _pivot_inverse(P)
    return count + negative + _pivot_inverse(Z - W.T @ Pinv @ W)[1]


def _pivot_inverse(P: np.ndarray):
    """Inverse of a symmetric pivot block and its number of negative
    eigenvalues; zero eigenvalues are taken as tiny positive ones."""
    vals, vecs = np.linalg.eigh(P)
    vals[vals == 0.0] = _TINY
    return (vecs / vals) @ vecs.T, int(np.sum(vals < 0.0))


def _negative_pivots_scalar(d: list, e: list) -> int:
    """``_negative_pivots`` for 1 x 1 blocks, on lists of floats."""
    count = 0
    p, w, z = d[0], e[-1], d[-1]
    for i in range(1, len(d) - 1):
        if p == 0.0:
            p = _TINY
        if p < 0.0:
            count += 1
        l = e[i - 1] / p
        if w:
            z -= w * w / p
            w = -l * w
        p = d[i] - l * e[i - 1]
    w += e[-2]
    if p == 0.0:
        p = _TINY
    if p < 0.0:
        count += 1
    z -= w * w / p
    return count + (z < 0.0)


def _bands(D: np.ndarray, E: np.ndarray, corner: np.ndarray | None = None) -> np.ndarray:
    """Cyclic bands (2, N, n, n) from N diagonal blocks and the N - 1 blocks
    below them; ``corner`` is the block (0, N-1), zero when omitted."""
    last = np.zeros_like(D[:1]) if corner is None else corner[None]
    return np.stack([D, np.concatenate([E, last])])


@dataclass
class DiscreteOperator:
    """Symmetric finite-dimensional surrogate of a boundary value problem.

    ``matrix`` holds the quadratic-form matrix and ``mass`` the L^2 mass as
    cyclic bands of shape (2, N, n, n): ``[0, i]`` is the diagonal block i,
    ``[1, i]`` the block (i + 1, i) below it, and ``[1, N-1]`` the block
    (0, N-1), nonzero only when the boundary condition couples the ends.
    The mass has no blocks off the diagonal but that one.  Eigenvalue
    statements are about the pencil (matrix, mass).
    """

    problem: SLProblem
    bc: object
    grid_size: int
    span: tuple
    matrix: np.ndarray
    mass: np.ndarray
    _count_cache: dict = field(default_factory=dict, repr=False)

    @property
    def h(self) -> float:
        c, d = self.span
        return (d - c) / (self.grid_size + 1)

    @property
    def size(self) -> int:
        """Number of unknowns, n N."""
        return self.matrix.shape[1] * self.matrix.shape[2]

    @property
    def coupled(self) -> bool:
        """Whether the bands close into a cycle (first block joined to the last)."""
        return bool(np.any(self.matrix[1, -1]) or np.any(self.mass[1, -1]))

    def default_zero_band(self) -> float:
        c, d = self.span
        return 30.0 * (d - c) / self.grid_size

    def count_below(self, tau: float) -> int:
        """#{eigenvalues < tau} of the pencil, by inertia of (A - tau M)."""
        key = float(tau)
        if key not in self._count_cache:
            S = self.matrix - key * self.mass
            self._count_cache[key] = _negative_pivots(S[0], S[1])
        return self._count_cache[key]

    def count_in(self, lo: float, hi: float) -> int:
        return self.count_below(hi) - self.count_below(lo)

    def morse_count(self, zero_band: float | None = None) -> int:
        band = self.default_zero_band() if zero_band is None else zero_band
        return self.count_below(-band)

    def eigenvalues(self, k: int | None = None) -> np.ndarray:
        """The lowest k eigenvalues of the pencil (all when k is None), ascending."""
        k = self.size if k is None else min(k, self.size)
        if self.coupled:
            return self._bisect(k)
        # LAPACK's whole-spectrum driver is about 20x faster than selecting all
        return sla.eigvals_banded(self._scaled_band(), lower=True,
                                  select="a" if k == self.size else "i",
                                  select_range=(0, k - 1))

    def _scaled_band(self) -> np.ndarray:
        """L^-1 A L^-T in LAPACK lower band form (2n rows), L L^T = M the
        block-diagonal mass."""
        Linv = np.linalg.inv(np.linalg.cholesky(self.mass[0]))
        LinvT = np.swapaxes(Linv, 1, 2)
        D = Linv @ self.matrix[0] @ LinvT
        E = Linv[1:] @ self.matrix[1, :-1] @ LinvT[:-1]
        N, n = D.shape[:2]
        ab = np.zeros((2 * n, N * n))
        for a in range(n):
            for b in range(n):
                if a >= b:
                    ab[a - b, b::n] = D[:, a, b]
                ab[n + a - b, b:n * (N - 1):n] = E[:, a, b]
        return ab

    def _bisect(self, k: int) -> np.ndarray:
        """The lowest k eigenvalues by bisection on ``count_below``, to a few
        ulps of the bracketing scale; every count taken narrows later
        brackets through the count cache."""
        lo, hi = -1.0, 1.0
        while self.count_below(lo) > 0:
            lo *= 2.0
        while self.count_below(hi) < k:
            hi *= 2.0
        tol = 4.0 * np.finfo(float).eps * max(-lo, hi)
        out = []
        for j in range(k):
            a = max(t for t, c in self._count_cache.items() if c <= j)
            b = min(t for t, c in self._count_cache.items() if c > j)
            while b - a > tol:
                mid = 0.5 * (a + b)
                if self.count_below(mid) <= j:
                    a = mid
                else:
                    b = mid
            out.append(0.5 * (a + b))
        return np.array(out)


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
    """Second-order central differences with midpoint P and Q sampling;
    boundary conditions are eliminated against the Lagrangian frame's kernel
    description.  Requires the span to be regular (truncate singular problems
    first)."""
    if N < 16:
        raise GridTooCoarse("need at least 16 interior grid points")
    n = problem.dim
    c, d = problem.interval if span is None else span
    h = (d - c) / (N + 1)
    nodes = c + h * np.arange(N + 2)
    P, Q, R = problem.coefficients(
        np.concatenate([nodes, c + h * (np.arange(N + 1) + 0.5)]), s)
    Pm = P[N + 2:] / h                                   # P / h at the midpoints
    Sm = Q[N + 2:] + np.swapaxes(Q[N + 2:], 1, 2)        # Q + Q^T at the midpoints
    w = np.ones(N + 2)
    w[[0, -1]] = 0.5

    # stiffness over all N + 2 nodes: diagonal blocks F and F[i+1, i] = -P/h;
    # the cross term int <x, (Q + Q^T) x'> takes the telescoping midpoint form
    F = np.zeros((N + 2, n, n))
    F[1:] += Pm
    F[1:] += 0.5 * Sm
    F[:-1] += Pm
    F[:-1] -= 0.5 * Sm
    F += w[:, None, None] * h * R[:N + 2]

    # boundary data beta(y) = (p_a, x_0, p_b, x_{N+1}) with one-sided
    # quasi-derivatives; membership in the frame is F^T Jprod beta = 0
    frame = _resolve_discrete_bc(problem, bc)
    Pa, Qa, Pb, Qb = P[0] / h, Q[0], P[N + 1] / h, Q[N + 1]
    Cmat = frame.frame.T @ frame.space.form   # (2n) x (4n), annihilates the frame

    # the operator's quadratic form carries the boundary term
    # <p_a, q_a> - <p_b, q_b>; it is symmetric on the constraint set exactly
    # because the frame is Lagrangian, and vanishes for Dirichlet/Neumann data
    Z, I = np.zeros((n, n)), np.eye(n)
    F_bb = sla.block_diag(F[0] - Pa + 0.5 * (Qa + Qa.T), F[-1] - Pb - 0.5 * (Qb + Qb.T))
    F_bi = sla.block_diag(-Pm[0] + 0.5 * Pa, -Pm[-1] + 0.5 * Pb)

    # beta = B_bnd (x_0; x_{N+1}) + B_int (x_1; x_N)
    B_bnd = np.block([[-Pa + Qa, Z], [I, Z], [Z, Pb + Qb], [Z, I]])
    B_int = np.block([[Pa, Z], [Z, Z], [Z, -Pb], [Z, Z]])
    C_bnd = Cmat @ B_bnd
    C_int = Cmat @ B_int
    if np.linalg.cond(C_bnd) > 1e10:
        raise BCEliminationSingular("cannot solve for the boundary unknowns")
    G = -np.linalg.solve(C_bnd, C_int)   # (x_0; x_{N+1}) = G (x_1; x_N)

    # F couples x_0 / x_{N+1} only to x_1 / x_N, so substituting them is a
    # 2n x 2n corner on the first and last interior blocks
    corner = _sym(G.T @ F_bi + F_bi.T @ G + G.T @ F_bb @ G)
    mass_corner = _sym(0.5 * h * G.T @ G)
    D, M = F[1:-1], np.repeat(h * I[None], N, axis=0)
    D[0] += corner[:n, :n]
    D[-1] += corner[n:, n:]
    M[0] += mass_corner[:n, :n]
    M[-1] += mass_corner[n:, n:]
    return DiscreteOperator(problem, bc, N, (c, d),
                            _bands(_sym(D), -_sym(Pm[1:-1]), corner[:n, n:]),
                            _bands(M, np.zeros((N - 1, n, n)), mass_corner[:n, n:]))


def discretize_neumann_ghost(problem: SLProblem, N: int, span: tuple | None = None) -> DiscreteOperator:
    """Reference Neumann scheme via reflected ghost points, for cross-checking
    the frame-eliminated Neumann discretization."""
    if N < 16:
        raise GridTooCoarse("need at least 16 interior grid points")
    if problem.dim != 1:
        raise ValueError("ghost-point comparison implemented for scalar problems")
    c, d = problem.interval if span is None else span
    h = (d - c) / (N + 1)
    P, _, R = problem.coefficients(c + h * np.arange(N + 2))
    w = np.ones((N + 2, 1, 1))
    w[[0, -1]] = 0.5
    A = 2.0 * w * P / h + w * h * R
    return DiscreteOperator(problem, "neumann-ghost", N, (c, d),
                            _bands(A, -0.5 * (P[1:] / h + P[:-1] / h)),
                            _bands(w * h, np.zeros((N + 1, 1, 1))))


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
        return discretize(problem, bc_fun(s), N, s=s, span=span)

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
            fs = fundamental_solution(problem, c, (c, d), s=key)
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
                   u_values=(0.4, 0.2, 0.1, 0.05, 0.025), span: tuple | None = None) -> dict:
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
    """Lowest-m spectra along a parameter grid, sorted at each parameter.

    The tracked window is widened until it contains every eigenvalue in
    [-gap, gap] at each parameter.
    """

    s_grid: np.ndarray
    eigenvalues: np.ndarray          # (len(s_grid), m)

    @staticmethod
    def collect(family, s_values, m: int = 6, gap: float | None = None) -> "EigenTrace":
        fam = family if isinstance(family, _FamilyCache) else _FamilyCache(family)
        rows = []
        for s in s_values:
            op = fam(s)
            k = m
            w = op.eigenvalues(k=k)
            if gap is not None:
                while w[-1] < gap and k < op.size:
                    k = min(2 * k, op.size)
                    w = op.eigenvalues(k=k)
            rows.append(w[:m])
        return EigenTrace(np.asarray(s_values, float), np.array(rows))

    def to_csv(self, path):
        m = self.eigenvalues.shape[1]
        header = "s," + ",".join(f"lambda_{i + 1}" for i in range(m))
        data = np.column_stack([self.s_grid, self.eigenvalues])
        np.savetxt(path, data, delimiter=",", header=header, comments="")
