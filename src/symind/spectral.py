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
couples the ends, from bisection on the same count.

The scheme, boundary elimination included, is second order: the lowest
Mathieu eigenvalues (a = -1.5, q = 0.4 on (0, pi)) move by about 1.4 h^2
under Dirichlet conditions and 0.5 h^2 under a rotated Robin condition.  An
eigenvalue lambda whose mode u oscillates fast is off by more: the second
difference misses h^2 u'''' / 12 of u'', so the scheme puts lambda lower by
about <u, h^2 (V - lambda) P^-1 (V - lambda) u> / 12 with V = R - Q^T P^-1 Q,
weighted by where u lives.  Discrete Morse counting adds that term back for
lambda = 0, as the diagonal blocks ``potential_error``; by first-order
perturbation each eigenvalue then moves up by its own mode's share, so a zero
mode that the scheme puts well below zero counts as zero, while a large
potential where no mode near zero lives (a truncated singular end) changes
nothing.  What is left is counted as zero inside a kernel band of 30 h^2,
h = (d - c) / N.
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
    stacked_graph_frames,
)
from .errors import (
    BCEliminationSingular,
    GridTooCoarse,
    SpaceMismatch,
    TransversalityViolated,
)
from .maslov import LagrangianPath, maslov_clm
from .sturm import SLProblem, monodromies

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


def _potential_error(P: np.ndarray, Q: np.ndarray, R: np.ndarray, weight: np.ndarray,
                     h: float) -> np.ndarray:
    """The blocks h^3 w V P^-1 V / 12, V = R - Q^T P^-1 Q, at every node: the
    scheme's leading error near zero, ``weight`` w the nodes' mass weights.
    1 x 1 blocks take plain division: np.linalg.inv and the stacked matrix
    products cost about 0.15 ms on 4096 of them, and 0.03 ms this way."""
    if P.shape[-1] == 1:
        V = R - Q * Q / P
        W = V * V / P
    else:
        Pinv = np.linalg.inv(P)
        V = R - np.swapaxes(Q, 1, 2) @ Pinv @ Q
        W = _sym(V @ Pinv @ V)
    return W * (weight * h ** 3 / 12.0)[:, None, None]


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
    potential_error: np.ndarray | float = 0.0   # (N, n, n) diagonal blocks (module docstring)
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
        """30 h^2, h = (d - c) / N: the second-order error of an eigenvalue
        near zero that ``potential_error`` leaves, with room to spare."""
        c, d = self.span
        return 30.0 * ((d - c) / self.grid_size) ** 2

    def count_below(self, tau: float) -> int:
        """#{eigenvalues < tau} of the pencil, by inertia of (A - tau M)."""
        key = float(tau)
        if key not in self._count_cache:
            S = self.matrix - key * self.mass
            self._count_cache[key] = _negative_pivots(S[0], S[1])
        return self._count_cache[key]

    def morse_count(self, zero_band: float | None = None) -> int:
        """Number of negative eigenvalues, those inside the kernel band
        (default ``default_zero_band``) taken as zero, once the scheme's
        leading error ``potential_error`` is added back: the inertia of
        A + potential_error + zero_band M."""
        band = self.default_zero_band() if zero_band is None else zero_band
        S = self.matrix + band * self.mass
        S[0] += self.potential_error
        return _negative_pivots(S[0], S[1])

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
                            _bands(M, np.zeros((N - 1, n, n)), mass_corner[:n, n:]),
                            _potential_error(P[1:N + 1], Q[1:N + 1], R[1:N + 1], np.ones(N), h))


def discretize_neumann_ghost(problem: SLProblem, N: int, span: tuple | None = None) -> DiscreteOperator:
    """Reference Neumann scheme via reflected ghost points, for cross-checking
    the frame-eliminated Neumann discretization."""
    if N < 16:
        raise GridTooCoarse("need at least 16 interior grid points")
    if problem.dim != 1:
        raise ValueError("ghost-point comparison implemented for scalar problems")
    c, d = problem.interval if span is None else span
    h = (d - c) / (N + 1)
    P, Q, R = problem.coefficients(c + h * np.arange(N + 2))
    w = np.ones(N + 2)
    w[[0, -1]] = 0.5
    A = 2.0 * w[:, None, None] * P / h + w[:, None, None] * h * R
    return DiscreteOperator(problem, "neumann-ghost", N, (c, d),
                            _bands(A, -0.5 * (P[1:] / h + P[:-1] / h)),
                            _bands(w[:, None, None] * h, np.zeros((N + 1, 1, 1))),
                            _potential_error(P, Q, R, w, h))


# -- spectral flow -------------------------------------------------------------


def spectral_flow(family, s_interval, window_gap=None,
                  kernel_band: float | None = None) -> int:
    """Net number of eigenvalues crossing zero upward along the family: the
    Morse count (``morse_count``) at the start minus the one at the end.

    The operators of a discretized family have one fixed size, so along a
    continuous path the spectral flow through a level is the change of the
    number of eigenvalues below it between the two ends (Robbin & Salamon
    1995, Phillips 1996); only the two ends are discretized.  Eigenvalues
    inside the kernel band (default: each end's ``default_zero_band``)
    count as zero.  ``window_gap`` is accepted and ignored: the
    ``ramp_flow`` operation of ``perfbench`` still passes it.
    """
    s0, s1 = s_interval
    return family(s0).morse_count(kernel_band) - family(s1).morse_count(kernel_band)


def discretized_family(problem: SLProblem, bc, N: int, span: tuple | None = None):
    """s -> DiscreteOperator for a problem with parameter-dependent zero-order
    term and/or parameter-dependent boundary condition."""
    bc_fun = bc if callable(bc) and not isinstance(bc, LagrangianFrame) else (lambda s: bc)

    def family(s):
        return discretize(problem, bc_fun(s), N, s=s, span=span)

    return family


# -- the spectral flow formula -------------------------------------------------


def monodromy_graph_path(problem: SLProblem, s_interval, span: tuple | None = None,
                         samples: int = 64) -> LagrangianPath:
    """s -> Graph(M_s) in the product boundary space, M_s the fundamental
    solution of the s-frozen problem across the span.

    The path's ``many`` sampler takes every s a refinement wave of the
    crossing scan asks for in one batch: one stacked Magnus run for their
    monodromies (``sturm.monodromies``) and one stacked call for their graph
    frames, with ``graph_lagrangian``'s symplectic-residual check per member.
    """
    c, d = problem.interval if span is None else span
    prod = SymplecticSpace.minus_plus(problem.dim, problem.dim)

    def many(ss):
        return stacked_graph_frames(problem.space, monodromies(problem, (c, d), ss), tol=1e-6)

    def fun(s):
        return LagrangianFrame(prod, many(np.array([float(s)]))[0])

    return LagrangianPath(prod, fun, *s_interval, samples=samples, many=many)


def _boundary_path(problem: SLProblem, bc, s_interval) -> LagrangianPath:
    """s -> the product-space frame of bc(s), 64 initial samples; a ``bc``
    that is not a callable is resolved once and gives a constant path."""
    prod = SymplecticSpace.minus_plus(problem.dim, problem.dim)
    if callable(bc) and not isinstance(bc, LagrangianFrame):
        def fun(s):
            return _resolve_discrete_bc(problem, bc(s))
    else:
        frame = _resolve_discrete_bc(problem, bc)

        def fun(s):
            return frame
    return LagrangianPath(prod, fun, *s_interval, samples=64)


def verify_sf_formula(problem: SLProblem, bc, s_interval, N: int = 512,
                      span: tuple | None = None) -> dict:
    """Check spfl(L_{s, Lambda_s}) = -mu(Lambda_s, Graph(M_s)) on a regular
    problem: the left side by eigenvalue counts of the discretized family at
    the two ends, the right side by the crossing machinery on the
    boundary-data paths."""
    s0, s1 = s_interval
    fam = discretized_family(problem, bc, N, span=span)
    sf = spectral_flow(fam, s_interval)
    mu, records = maslov_clm(_boundary_path(problem, bc, s_interval),
                             monodromy_graph_path(problem, s_interval, span=span), (s0, s1))
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
                     zero_band: float | None = None, span: tuple | None = None) -> dict:
    """Check iMor(L_1) - iMor(L_0) = mu(Lambda_s, Graph(M_s)) by two
    independent routes, for a boundary path bc_path on [0, 1] from bc0 to
    bc1 (L_s carries bc_path(s) and c(s, .)).

    The Morse indices are eigenvalue counts of the discretized problems at
    s = 0 and s = 1; the Maslov index comes from the ODE, through the
    monodromy graph path.  Along the path the spectral flow is
    iMor(L_0) - iMor(L_1), and the spectral flow formula makes it -mu, so
    the residual iMor(L_1) - iMor(L_0) - mu is zero when both routes hold.
    """
    i0 = discretize(problem, bc0, N, s=0.0, span=span).morse_count(zero_band)
    i1 = discretize(problem, bc1, N, s=1.0, span=span).morse_count(zero_band)
    mu, _ = maslov_clm(_boundary_path(problem, bc_path, (0.0, 1.0)),
                       monodromy_graph_path(problem, (0.0, 1.0), span=span), (0.0, 1.0))
    return {"imor0": i0, "imor1": i1, "maslov": mu, "residual": i1 - i0 - mu, "N": N}


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
        rows = []
        for s in s_values:
            op = family(s)
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
