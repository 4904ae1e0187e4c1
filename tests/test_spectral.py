"""Discretization, inertia counting, spectral flow, the boundary Maslov
identity, batched monodromies, ghost eigenvalues, and the Morse jump
identity.

Oracles: closed-form spectra of -d^2/dt^2 + const on intervals with
Dirichlet/Neumann/mixed conditions; synthetic diagonal families; one
fundamental solution per parameter against the batched Magnus run.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from symind.catalog import make_problem
from symind.core import (
    LagrangianFrame,
    SymplecticMatrix,
    SymplecticSpace,
    dirichlet_frame,
    direct_sum_frame,
    graph_lagrangian,
    line_frame,
    rotation_matrix,
)
from symind.errors import (
    DriftBudgetExceeded,
    GridTooCoarse,
    StepSizeUnderflow,
    TransversalityViolated,
)
from symind.spectral import (
    DiscreteOperator,
    EigenTrace,
    _resolve_discrete_bc,
    discretize,
    discretize_neumann_ghost,
    discretized_family,
    monodromy_graph_path,
    morse_jump_check,
    rellich_ghosts,
    spectral_flow,
    verify_sf_formula,
)
from symind.sturm import FundamentalSolution, SLProblem, fundamental_solution, monodromies

S1 = SymplecticSpace.standard(1)


def synthetic_op(diagonal, span=(0.0, 1.0)):
    d = np.asarray(diagonal, dtype=float).reshape(-1, 1, 1)
    off = np.zeros_like(d)
    return DiscreteOperator(None, "synthetic", len(d), span,
                            np.stack([d, off]), np.stack([np.ones_like(d), off]))


def dense_from_bands(bands):
    """The dense matrix of cyclic block-tridiagonal bands (2, N, n, n)."""
    _, N, n, _ = bands.shape
    S = np.zeros((N * n, N * n))
    for i in range(N):
        j = (i + 1) % N
        S[n * i:n * (i + 1), n * i:n * (i + 1)] += bands[0, i]
        S[n * j:n * (j + 1), n * i:n * (i + 1)] += bands[1, i]
        S[n * i:n * (i + 1), n * j:n * (j + 1)] += bands[1, i].T
    return S


def dense_reference(problem, bc, N, s=None):
    """The dense assembly the bands replace: stiffness and mass over all
    N + 2 nodes, then the boundary unknowns eliminated against the frame.
    Returns the n N-square stiffness and mass matrices."""
    n = problem.dim
    c, d = problem.interval
    h = (d - c) / (N + 1)
    nodes = c + h * np.arange(N + 2)
    total = n * (N + 2)
    F = np.zeros((total, total))
    Mass = np.zeros((total, total))
    for i in range(N + 1):
        Pm, Qm, _ = (X[0] for X in problem.coefficients([c + h * (i + 0.5)], s))
        Pi, Smid = Pm / h, Qm + Qm.T
        sl_i, sl_j = slice(n * i, n * (i + 1)), slice(n * (i + 1), n * (i + 2))
        F[sl_i, sl_i] += Pi - 0.5 * Smid
        F[sl_j, sl_j] += Pi + 0.5 * Smid
        F[sl_i, sl_j] -= Pi
        F[sl_j, sl_i] -= Pi
    for i in range(N + 2):
        w = 0.5 if i in (0, N + 1) else 1.0
        sl = slice(n * i, n * (i + 1))
        F[sl, sl] += w * h * problem.coefficients([nodes[i]], s)[2][0]
        Mass[sl, sl] = w * h * np.eye(n)

    frame = _resolve_discrete_bc(problem, bc)
    Pa, Qa, _ = (X[0] for X in problem.coefficients([nodes[0]], s))
    Pb, Qb, _ = (X[0] for X in problem.coefficients([nodes[-1]], s))
    sl0, sl1 = slice(0, n), slice(n, 2 * n)
    slN, slE = slice(n * N, n * (N + 1)), slice(n * (N + 1), n * (N + 2))
    F[sl0, sl0] += -Pa / h + 0.5 * (Qa + Qa.T)
    F[sl0, sl1] += 0.5 * Pa / h
    F[sl1, sl0] += 0.5 * Pa / h
    F[slE, slE] += -Pb / h - 0.5 * (Qb + Qb.T)
    F[slE, slN] += 0.5 * Pb / h
    F[slN, slE] += 0.5 * Pb / h
    Z, I = np.zeros((n, n)), np.eye(n)
    B_bnd = np.block([[-Pa / h + Qa, Z], [I, Z], [Z, Pb / h + Qb], [Z, I]])
    B_int = np.block([[Pa / h, Z], [Z, Z], [Z, -Pb / h], [Z, Z]])
    Cmat = frame.frame.T @ frame.space.form
    G = -np.linalg.solve(Cmat @ B_bnd, Cmat @ B_int)

    keep = slice(n, n * (N + 1))
    bidx = np.r_[np.arange(n), np.arange(n * (N + 1), n * (N + 2))]
    iidx = np.r_[np.arange(n, 2 * n), np.arange(n * N, n * (N + 1))]
    loc = np.r_[np.arange(n), np.arange(n * (N - 1), n * N)]
    A, M = F[keep, keep].copy(), Mass[keep, keep].copy()
    F_bi = F[np.ix_(bidx, iidx)]
    A[np.ix_(loc, loc)] += G.T @ F_bi + F_bi.T @ G + G.T @ F[np.ix_(bidx, bidx)] @ G
    M[np.ix_(loc, loc)] += G.T @ Mass[np.ix_(bidx, bidx)] @ G
    return 0.5 * (A + A.T), 0.5 * (M + M.T)


def periodic_frame(n):
    """(p, x) at a equal to (p, x) at b: couples the two ends."""
    return LagrangianFrame(SymplecticSpace.minus_plus(n, n),
                           np.vstack([np.eye(2 * n), np.eye(2 * n)]) / np.sqrt(2.0))


def rotated_separated_frame(n):
    left = rotation_matrix(SymplecticSpace.standard(n), 0.4) @ dirichlet_frame(
        SymplecticSpace.standard(n)).frame
    right = rotation_matrix(SymplecticSpace.standard(n), -1.1) @ dirichlet_frame(
        SymplecticSpace.standard(n)).frame
    return direct_sum_frame(left, right)


def coupled_dim2_problem():
    """dim 2 with t-dependent P, nonzero non-symmetric Q and a coupling R."""
    return SLProblem(
        2, (0.0, 1.0),
        lambda t: np.block([[1.5 + t, 0.3 + 0 * t], [0.3 + 0 * t, 1.0 + t * t]]),
        lambda t: np.block([[0.4 * t, 0.7 + 0 * t], [-0.2 + 0 * t, 0.1 + 0 * t]]),
        lambda t: np.block([[-30.0 + 0 * t, 4.0 * t], [4.0 * t, -12.0 + 5.0 * t]]))


class TestDiscretize:
    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            discretize(make_problem("free"), "dirichlet", 8)

    def test_free_dirichlet_second_difference_spectrum(self):
        # eigenvalues (2/h^2)(1 - cos(k pi h)) -> (k pi)^2 with O(N^-2) error
        op64 = discretize(make_problem("free"), "dirichlet", 64)
        op128 = discretize(make_problem("free"), "dirichlet", 128)
        exact = np.array([(k * np.pi) ** 2 for k in (1, 2, 3)])
        e64 = np.abs(op64.eigenvalues(k=3) - exact)
        e128 = np.abs(op128.eigenvalues(k=3) - exact)
        assert np.all(e64 < 0.2)   # O(k^4 h^2): about 0.16 for k = 3 at N = 64
        # Richardson: error ratio close to 4
        assert np.all(e64 / e128 > 2.5)

    def test_harmonic_negative_count(self):
        op = discretize(make_problem("harmonic", omega=10.0), "dirichlet", 512)
        assert op.morse_count() == 3

    @pytest.mark.parametrize("N", [256, 512])
    def test_kernel_band_keeps_a_small_negative_eigenvalue(self, N):
        # the lowest Dirichlet eigenvalue is -0.121; a band of 30 (d - c) / N
        # (0.368 at N = 256, 0.184 at 512) swallowed it
        op = discretize(make_problem("mathieu", a=-1.5, q=0.4), "dirichlet", N)
        assert op.eigenvalues(k=1)[0] == pytest.approx(-0.121, abs=1e-3)
        assert op.morse_count() == 1

    @pytest.mark.parametrize("N", [256, 512, 4096])
    @pytest.mark.parametrize("omega", range(2, 11))
    def test_kernel_band_covers_a_fast_zero_mode(self, omega, N):
        # -u'' - omega^2 u on (0, pi) has the eigenvalue 0 at mode omega; the
        # scheme puts it near -omega^4 h^2 / 12, which is beyond 30 h^2 for
        # omega >= 5, and potential_error adds it back
        prob = make_problem("harmonic", omega=float(omega), interval=(0.0, np.pi))
        assert discretize(prob, "dirichlet", N).morse_count() == omega - 1

    @pytest.mark.parametrize("q, R, lowest", [(0.5, 60.0, [-46.66, -13.35]),
                                              (-0.2, 90.0, [-81.66, -52.97, -3.88])])
    def test_truncated_singular_end_keeps_negative_eigenvalues(self, q, R, lowest):
        # q / t^2 - R on (0.01, 1): |q| / t^2 reaches 5000 or 2000 at t = 0.01,
        # where no mode near zero lives, so a bound by the largest
        # |V P^-1 V| over the grid (about 23 or 4 at N = 512) would take
        # -13.35 or -3.88 for zero
        prob = replace(make_problem("bessel", q=q, interval=(0.01, 1.0)),
                       c=lambda s, t: np.array([[-R * s]]))
        op = discretize(prob, "dirichlet", 512, s=1.0)
        assert op.eigenvalues(k=len(lowest)) == pytest.approx(lowest, abs=0.01)
        assert op.morse_count() == len(lowest)
        out = verify_sf_formula(prob, "dirichlet", (0.0, 1.0), N=512)
        assert (out["sf"], out["maslov"], out["agree"]) == (-len(lowest), len(lowest), True)

    def test_count_below_matches_eigenvalues(self):
        op = discretize(make_problem("harmonic", omega=10.0), "dirichlet", 128)
        w = op.eigenvalues()
        for tau in (-150.0, -50.0, 0.0, 25.0, 200.0):
            assert op.count_below(tau) == int(np.sum(w < tau))

    def test_neumann_frame_vs_ghost_scheme(self):
        # first-order-consistent elimination: lowest eigenvalue agrees to O(1/N)
        prob = make_problem("harmonic", omega=2.0, interval=(0.0, np.pi))
        for N in (64, 128):
            a = discretize(prob, "neumann", N).eigenvalues(k=1)[0]
            b = discretize_neumann_ghost(prob, N).eigenvalues(k=1)[0]
            assert abs(a - b) < 20.0 / N

    def test_general_frame_reproduces_dirichlet(self):
        prob = make_problem("harmonic", omega=10.0)
        LD = dirichlet_frame(S1)
        op_named = discretize(prob, "dirichlet", 128)
        op_frame = discretize(prob, direct_sum_frame(LD, LD), 128)
        wa = op_named.eigenvalues(k=5)
        wb = op_frame.eigenvalues(k=5)
        assert np.allclose(wa, wb, atol=1e-8)

    def test_matrix_symmetric(self):
        prob = make_problem("mathieu", a=1.0, q=0.3)
        op = discretize(prob, "neumann", 64)
        assert op.matrix.shape == op.mass.shape == (2, 64, 1, 1)
        A = dense_from_bands(op.matrix)
        assert np.max(np.abs(A - A.T)) < 1e-12


CASES = [
    (lambda: make_problem("harmonic", omega=7.0), "dirichlet"),
    (lambda: make_problem("mathieu", a=-2.0, q=0.6), "neumann"),
    (lambda: make_problem("mathieu", a=-2.0, q=0.6), rotated_separated_frame(1)),
    (lambda: make_problem("harmonic", omega=9.0), periodic_frame(1)),
    (coupled_dim2_problem, "dirichlet"),
    (coupled_dim2_problem, "neumann"),
    (coupled_dim2_problem, rotated_separated_frame(2)),
    (coupled_dim2_problem, periodic_frame(2)),
]
CASE_IDS = ["dirichlet", "neumann", "rotated", "periodic",
            "dim2-dirichlet", "dim2-neumann", "dim2-rotated", "dim2-periodic"]


class TestBands:
    """The bands against the dense assembly they replace."""

    @pytest.mark.parametrize("make, bc", CASES, ids=CASE_IDS)
    def test_bands_reproduce_the_dense_assembly(self, make, bc):
        prob = make()
        op = discretize(prob, bc, 40)
        A, M = dense_reference(prob, bc, 40)
        for bands, dense in ((op.matrix, A), (op.mass, M)):
            assert bands.shape == (2, 40, prob.dim, prob.dim)
            assert np.max(np.abs(dense_from_bands(bands) - dense)) <= 1e-12 * np.max(np.abs(dense))
        assert op.coupled == (bc is CASES[3][1] or bc is CASES[7][1])

    @pytest.mark.parametrize("make, bc", CASES, ids=CASE_IDS)
    def test_count_below_matches_the_dense_spectrum(self, make, bc):
        prob = make()
        op = discretize(prob, bc, 48)
        w = sla.eigh(*dense_reference(prob, bc, 48), eigvals_only=True)
        # shifts between the eigenvalues, at most 1e-3 relative from none
        taus = [w[0] - 1.0, 0.0, 0.5 * (w[2] + w[3]), 0.5 * (w[7] + w[8]), w[-1] + 1.0]
        taus += list(w[[1, 5, 20]] + 1e-3 * np.maximum(1.0, np.abs(w[[1, 5, 20]])))
        for tau in taus:
            assert op.count_below(tau) == int(np.sum(w < tau)), tau
        assert np.allclose(op.eigenvalues(k=6), w[:6], rtol=1e-9, atol=1e-9)
        if not op.coupled:   # bisection over the whole spectrum takes seconds
            assert np.allclose(op.eigenvalues(), w, rtol=1e-9, atol=1e-9 * np.max(np.abs(w)))

    def test_zero_pivot_counts_as_positive(self):
        # diag(0, 1, -1): the exactly zero first pivot is taken as +tiny
        op = synthetic_op([0.0, 1.0, -1.0])
        assert op.count_below(0.0) == 1

    def test_dirichlet_morse_count_at_100k_nodes(self):
        # the dense pencil would need about 80 GB; (k pi)^2 < 100 for k = 1, 2, 3
        op = discretize(make_problem("harmonic", omega=10.0), "dirichlet", 100_000)
        assert op.matrix.nbytes + op.mass.nbytes == 4 * 100_000 * 8
        assert op.morse_count() == 3
        assert op.count_below(-100.0 + 6.25 * np.pi ** 2) == 2   # between k = 2 and 3


class TestSpectralFlow:
    def test_single_upward_crossing(self):
        # A + sI with one eigenvalue -1/2 in (-1, 0), none in [0, 1)
        fam = lambda s: synthetic_op([-0.5 + s, -3.0 + s * 0.0, 2.5, 7.0])
        assert spectral_flow(fam, (0.0, 1.0), kernel_band=1e-9) == 1

    def test_constant_family_zero(self):
        fam = lambda s: synthetic_op([-1.0, 2.0, 5.0])
        assert spectral_flow(fam, (0.0, 1.0), kernel_band=1e-9) == 0

    def test_harmonic_family_three_down(self):
        # R_s = -100 s on (0,1), Dirichlet: eigenvalues (k pi)^2 - 100 s
        prob = SLProblem(1, (0.0, 1.0), 1.0, 0.0, 0.0,
                         c=lambda s, t: np.array([[-100.0 * s]]))
        fam = discretized_family(prob, "dirichlet", 256)
        assert spectral_flow(fam, (0.0, 1.0)) == -3

    @pytest.mark.parametrize("R", [67.855, 68.0])
    def test_eigenvalue_crossing_the_margin_inside_a_cell(self, R):
        # -u'' - R s u with pi^2 < 4 pi^2 < R: two eigenvalues fall through
        # zero, the second one late in the path (4 pi^2 / R = 0.58)
        prob = SLProblem(1, (0.0, 1.0), 1.0, 0.0, 0.0,
                         c=lambda s, t: np.array([[-R * s]]))
        fam = discretized_family(prob, "dirichlet", 512)
        assert spectral_flow(fam, (0.0, 1.0)) == -2

    def test_jump_that_stays_above_zero_counts_nothing(self):
        # an eigenvalue jumps from 0.3 to 2.0 at s = 1/3; none is ever
        # below zero, so nothing flows
        fam = lambda s: synthetic_op([0.3 if s < 1.0 / 3.0 else 2.0, 5.0])
        assert spectral_flow(fam, (0.0, 1.0), kernel_band=1e-9) == 0

    def test_partition_independence(self):
        fam = lambda s: synthetic_op([-2.0 + 3.0 * s, 1.5 - 3.0 * s, 6.0])
        # two crossings: one up (+1), one down (-1)
        assert spectral_flow(fam, (0.0, 1.0), kernel_band=1e-9) == 0

    def test_path_additivity(self):
        fam = lambda s: synthetic_op([-0.5 + s, 4.0])
        full = spectral_flow(fam, (0.0, 1.0), kernel_band=1e-9)
        left = spectral_flow(fam, (0.0, 0.3), kernel_band=1e-9)
        right = spectral_flow(fam, (0.3, 1.0), kernel_band=1e-9)
        assert full == left + right == 1

    @settings(max_examples=60, deadline=None)
    @given(curves=st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=7),
                           min_size=1, max_size=4),
           split=st.floats(0.01, 0.99))
    def test_piecewise_linear_curves(self, curves, split):
        # eigenvalue curves piecewise linear through integer knots at equally
        # spaced s, beside two constant eigenvalues far above; the level -1/4
        # is never a knot value, so the passes through it are read off the knots
        band = 0.25

        def fam(s):
            return synthetic_op([np.interp(s, np.linspace(0.0, 1.0, len(v)), v)
                                 for v in curves] + [10.0, 20.0])

        passes = sum(int(a < -band <= b) - int(b < -band <= a)
                     for v in curves for a, b in zip(v, v[1:]))
        full = spectral_flow(fam, (0.0, 1.0), kernel_band=band)
        assert full == passes
        assert full == (spectral_flow(fam, (0.0, split), kernel_band=band)
                        + spectral_flow(fam, (split, 1.0), kernel_band=band))


class TestVerifySfFormula:
    def test_harmonic_family(self):
        prob = SLProblem(1, (0.0, 1.0), 1.0, 0.0, 0.0,
                         c=lambda s, t: np.array([[-100.0 * s]]))
        out = verify_sf_formula(prob, "dirichlet", (0.0, 1.0), N=256)
        assert out["sf"] == -3
        assert out["maslov"] == 3
        assert out["agree"] is True

    def test_trivial_constant_family(self):
        prob = make_problem("harmonic", omega=0.5)   # no negative eigenvalues, no crossings
        out = verify_sf_formula(prob, "dirichlet", (0.0, 1.0), N=128)
        assert out["sf"] == 0 and out["maslov"] == 0 and out["agree"]

    def test_rotating_boundary_condition(self):
        # free particle, left condition rotating away from Dirichlet on the
        # softening side: exactly one eigenvalue crosses zero downward
        prob = make_problem("free")
        LD = dirichlet_frame(S1)

        def bc(s):
            theta = s * 2.4   # passes the zero-eigenvalue station at 3 pi/4
            col = rotation_matrix(S1, -theta) @ LD.frame
            return direct_sum_frame(col, LD.frame)

        out = verify_sf_formula(prob, bc, (0.0, 1.0), N=256)
        assert out["agree"] is True
        assert abs(out["sf"]) == 1


def ramp_problem(R):
    """-u'' - R s u on (0, 1); the coefficients do not depend on t."""
    return SLProblem(1, (0.0, 1.0), 1.0, 0.0, 0.0, c=lambda s, t: np.array([[-R * s]]))


class TestBatchedMonodromies:
    """One stacked Magnus run over many s against one FundamentalSolution per s."""

    @staticmethod
    def one_by_one(problem, s_values):
        c, d = problem.interval
        return np.array([fundamental_solution(problem, c, (c, d), s=s).matrix(d) for s in s_values])

    @staticmethod
    def relative_gap(A, B):
        return np.max(np.abs(A - B), axis=(1, 2)) / np.maximum(1.0, np.max(np.abs(B), axis=(1, 2)))

    @pytest.mark.parametrize("make", [
        lambda: ramp_problem(25.0),
        lambda: replace(coupled_dim2_problem(), c=lambda s, t: -10.0 * s * np.eye(2)),
    ], ids=["ramp", "dim2"])
    def test_batch_equals_one_solution_per_s(self, make):
        # every member needs the same step grid on its own here, so the
        # shared grid is each member's own
        problem = make()
        s = np.linspace(0.0, 1.0, 33)
        batched = monodromies(problem, problem.interval, s)
        assert batched.shape == (33, 2 * problem.dim, 2 * problem.dim)
        assert np.all(self.relative_gap(batched, self.one_by_one(problem, s)) <= 1e-12)

    def test_members_on_a_finer_shared_grid_stay_within_tol(self):
        # with c = -40 s I only s = 1 needs more than 64 steps; the members
        # that ride on its finer grid move toward a tol = 1e-14 reference
        problem = replace(coupled_dim2_problem(), c=lambda s, t: -40.0 * s * np.eye(2))
        s = np.linspace(0.0, 1.0, 9)
        batched = monodromies(problem, problem.interval, s)
        single = self.one_by_one(problem, s)
        reference = monodromies(problem, problem.interval, s, tol=1e-14)
        assert np.all(self.relative_gap(batched, single) <= 1e-10)
        assert np.all(self.relative_gap(batched, reference) <= self.relative_gap(single, reference))

    def test_underflowing_member_raises_as_its_single_build(self, monkeypatch):
        problem = SLProblem(1, (0.0, 1.0), 1.0, 0.0, 0.0, c=lambda s, t: -1e4 * s * (1.0 + t))
        monkeypatch.setattr(FundamentalSolution, "MAX_DEPTH", 3)    # no step may split
        fundamental_solution(problem, 0.0, (0.0, 1.0), s=0.0)      # the free flow is exact
        with pytest.raises(StepSizeUnderflow, match="for s=1.0"):
            fundamental_solution(problem, 0.0, (0.0, 1.0), s=1.0)
        with pytest.raises(StepSizeUnderflow, match="for s=1.0"):
            monodromies(problem, (0.0, 1.0), [0.0, 1.0])

    def test_drifting_member_raises_as_its_single_build(self):
        problem = ramp_problem(1e4)
        fundamental_solution(problem, 0.0, (0.0, 1.0), s=0.0, drift_budget=0.0)
        with pytest.raises(DriftBudgetExceeded, match="for s=1.0"):
            fundamental_solution(problem, 0.0, (0.0, 1.0), s=1.0, drift_budget=0.0)
        with pytest.raises(DriftBudgetExceeded, match="for s=1.0"):
            monodromies(problem, (0.0, 1.0), [0.0, 1.0], drift_budget=0.0)

    @pytest.mark.parametrize("make", [lambda: ramp_problem(25.0), coupled_dim2_problem],
                             ids=["ramp", "dim2"])
    def test_graph_path_batch_equals_one_graph_per_s(self, make):
        problem = make()
        s = np.linspace(0.0, 1.0, 7)
        frames = monodromy_graph_path(problem, (0.0, 1.0)).frames(s)
        for F, M in zip(frames, self.one_by_one(problem, s)):
            expected = graph_lagrangian(SymplecticMatrix(problem.space, M), tol=1e-6).frame
            assert np.max(np.abs(F - expected)) <= 1e-12


class TestRellichGhosts:
    def make_setup(self):
        delta = 1e-3
        prob = make_problem("bessel", q=0.0, interval=(delta, 1.0))
        # principal solution of -u'' on (0, 1] is u = t: data (u', u) = (1, delta)
        left_space = SymplecticSpace.minus_plus(1, 0)
        fr = line_frame(left_space, [1.0, delta])

        def bc_path(u):
            # negative angle is the softening side: u(delta)/u'(delta) drops
            # below the principal ratio and one eigenvalue dives to -infinity
            return rotation_matrix(left_space, -u) @ fr.frame

        return prob, fr, bc_path, delta

    def test_ghost_count_and_dive(self):
        prob, fr, bc_path, delta = self.make_setup()
        out = rellich_ghosts(prob, bc_path, fr, M_values=(1e2, 1e3), N=1024,
                             u_values=(0.4, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005))
        assert out["maslov_prediction"] == 1
        for M, counts in out["counts_below_minus_M"].items():
            # small u: exactly mu eigenvalues below -M
            assert counts[-1] == 1
            assert counts[-2] == 1
        lam = out["lambda_min_trace"]
        assert all(b < a for a, b in zip(lam, lam[1:]))   # monotone dive
        assert lam[-1] < -1e4

    def test_constant_path_all_zero(self):
        prob, fr, _, delta = self.make_setup()
        left_space = SymplecticSpace.minus_plus(1, 0)
        off = line_frame(left_space, [1.0, delta + 0.5])   # fixed, transversal to fr

        def bc_const(u):
            return off if u > 0 else off

        out = rellich_ghosts(prob, bc_const, fr, M_values=(1e2,), N=512,
                             u_values=(0.3, 0.2, 0.1))
        assert out["maslov_prediction"] == 0
        assert all(c == 0 for c in out["counts_below_minus_M"][1e2])

    def test_transversality_guard(self):
        prob, fr, _, _ = self.make_setup()

        def bad_path(u):
            return fr     # never leaves the Friedrichs line

        with pytest.raises(TransversalityViolated):
            rellich_ghosts(prob, bad_path, fr, N=512, u_values=(0.2, 0.1))


class TestMorseJump:
    def test_constant_dirichlet_path(self):
        prob = make_problem("harmonic", omega=2.0, interval=(0.0, np.pi))
        out = morse_jump_check(prob, "dirichlet", "dirichlet",
                               lambda s: "dirichlet", N=256)
        assert out["residual"] == 0
        assert out["imor1"] == out["imor0"] == 1

    def test_dirichlet_to_neumann_rotation(self):
        # rotate the left condition from Dirichlet to Neumann along the
        # elimination-regular branch; mixed spectrum (k+1/2)^2 - 4 gives
        # iMor difference 2 - 1 = 1
        prob = make_problem("harmonic", omega=2.0, interval=(0.0, np.pi))
        LD = dirichlet_frame(S1)

        def bc_path(s):
            col = rotation_matrix(S1, -s * np.pi / 2) @ LD.frame
            return direct_sum_frame(col, LD.frame)

        out = morse_jump_check(prob, bc_path(0.0), bc_path(1.0), bc_path,
                               N=256)
        assert out["imor1"] - out["imor0"] == 1
        assert out["maslov"] == 1
        assert out["residual"] == 0

    def test_wrong_count_shows_in_the_residual(self, monkeypatch):
        # the Maslov index comes from the ODE, not from eigenvalue counts, so
        # a counting error at L_1 leaves a residual of one (a spectral flow
        # counted by the same faulty inertia would cancel it)
        import symind.spectral as spectral

        prob = make_problem("harmonic", omega=2.0, interval=(0.0, np.pi))
        LD = dirichlet_frame(S1)

        def bc_path(s):
            return direct_sum_frame(rotation_matrix(S1, -s * np.pi / 2) @ LD.frame, LD.frame)

        end = bc_path(1.0).frame
        count = spectral.DiscreteOperator.morse_count
        monkeypatch.setattr(spectral.DiscreteOperator, "morse_count", lambda self, band=None: (
            count(self, band) + np.array_equal(getattr(self.bc, "frame", None), end)))
        out = morse_jump_check(prob, bc_path(0.0), bc_path(1.0), bc_path, N=256)
        assert out["imor1"] - out["imor0"] == 2
        assert out["residual"] == 1

    def test_mathieu_random_rotation(self):
        prob = make_problem("mathieu", a=-1.5, q=0.4)
        LD = dirichlet_frame(S1)

        def bc_path(s):
            col = rotation_matrix(S1, -0.5 * s) @ LD.frame
            return direct_sum_frame(col, LD.frame)

        out = morse_jump_check(prob, bc_path(0.0), bc_path(1.0), bc_path,
                               N=256)
        assert out["residual"] == 0


class TestEigenTrace:
    def test_collect_and_csv(self, tmp_path):
        prob = SLProblem(1, (0.0, 1.0), 1.0, 0.0, 0.0,
                         c=lambda s, t: np.array([[-100.0 * s]]))
        fam = discretized_family(prob, "dirichlet", 64)
        tr = EigenTrace.collect(fam, np.linspace(0, 1, 5), m=4)
        assert tr.eigenvalues.shape == (5, 4)
        # lowest eigenvalue decreases with s
        assert tr.eigenvalues[-1, 0] < tr.eigenvalues[0, 0]
        out = tmp_path / "trace.csv"
        tr.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "s,lambda_1,lambda_2,lambda_3,lambda_4"
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (5, 5)
