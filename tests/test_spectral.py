"""Discretization, inertia counting, spectral flow, the boundary Maslov
identity, ghost eigenvalues, and the Morse jump identity.

Oracles: closed-form spectra of -d^2/dt^2 + const on intervals with
Dirichlet/Neumann/mixed conditions; synthetic diagonal families.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from symind.catalog import make_problem
from symind.core import (
    LagrangianFrame,
    SymplecticSpace,
    dirichlet_frame,
    direct_sum_frame,
    line_frame,
    rotation_matrix,
)
from symind.errors import GridTooCoarse, NoSpectralGap, TransversalityViolated
from symind.spectral import (
    DiscreteOperator,
    EigenTrace,
    _resolve_discrete_bc,
    discretize,
    discretize_neumann_ghost,
    discretized_family,
    morse_jump_check,
    rellich_ghosts,
    spectral_flow,
    verify_sf_formula,
)
from symind.sturm import SLProblem

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
        assert spectral_flow(fam, (0.0, 1.0), window_gap=0.75, kernel_band=1e-9) == 1

    def test_constant_family_zero(self):
        fam = lambda s: synthetic_op([-1.0, 2.0, 5.0])
        assert spectral_flow(fam, (0.0, 1.0), window_gap=0.5, kernel_band=1e-9) == 0

    def test_harmonic_family_three_down(self):
        # R_s = -100 s on (0,1), Dirichlet: eigenvalues (k pi)^2 - 100 s
        prob = SLProblem(1, (0.0, 1.0), 1.0, 0.0, 0.0,
                         c=lambda s, t: np.array([[-100.0 * s]]))
        fam = discretized_family(prob, "dirichlet", 256)
        assert spectral_flow(fam, (0.0, 1.0), window_gap=40.0) == -3

    @pytest.mark.parametrize("R", [67.855, 68.0])
    def test_eigenvalue_crossing_the_margin_inside_a_cell(self, R):
        # -u'' - R s u with pi^2 < 4 pi^2 < R: over the 8 and 16 initial
        # cells an eigenvalue passes the margin inside a cell, which the
        # counts at the cell ends alone miss (they gave -1)
        prob = SLProblem(1, (0.0, 1.0), 1.0, 0.0, 0.0,
                         c=lambda s, t: np.array([[-R * s]]))
        fam = discretized_family(prob, "dirichlet", 512)
        assert spectral_flow(fam, (0.0, 1.0), window_gap=40.0) == -2

    def test_margin_crossings_that_never_settle_raise(self):
        # an eigenvalue jumps across every margin at s = 1/3, which no dyadic
        # cell boundary reaches
        fam = lambda s: synthetic_op([0.3 if s < 1.0 / 3.0 else 2.0, 5.0])
        with pytest.raises(NoSpectralGap):
            spectral_flow(fam, (0.0, 1.0), window_gap=0.75, kernel_band=1e-9)

    def test_partition_independence(self):
        fam = lambda s: synthetic_op([-2.0 + 3.0 * s, 1.5 - 3.0 * s, 6.0])
        f1 = spectral_flow(fam, (0.0, 1.0), window_gap=0.9, kernel_band=1e-9)
        # two crossings: one up (+1), one down (-1)
        assert f1 == 0

    def test_path_additivity(self):
        fam = lambda s: synthetic_op([-0.5 + s, 4.0])
        gap = 0.75
        full = spectral_flow(fam, (0.0, 1.0), window_gap=gap, kernel_band=1e-9)
        left = spectral_flow(fam, (0.0, 0.3), window_gap=gap, kernel_band=1e-9)
        right = spectral_flow(fam, (0.3, 1.0), window_gap=gap, kernel_band=1e-9)
        assert full == left + right == 1


class TestVerifySfFormula:
    def test_harmonic_family(self):
        prob = SLProblem(1, (0.0, 1.0), 1.0, 0.0, 0.0,
                         c=lambda s, t: np.array([[-100.0 * s]]))
        out = verify_sf_formula(prob, "dirichlet", (0.0, 1.0), N=256, window_gap=40.0)
        assert out["sf"] == -3
        assert out["maslov"] == 3
        assert out["agree"] is True

    def test_trivial_constant_family(self):
        prob = make_problem("harmonic", omega=0.5)   # no negative eigenvalues, no crossings
        out = verify_sf_formula(prob, "dirichlet", (0.0, 1.0), N=128, window_gap=5.0)
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

        out = verify_sf_formula(prob, bc, (0.0, 1.0), N=256, window_gap=6.0)
        assert out["agree"] is True
        assert abs(out["sf"]) == 1


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
                               lambda s: "dirichlet", N=256, window_gap=2.0)
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
                               N=256, window_gap=1.2)
        assert out["imor1"] - out["imor0"] == 1
        assert out["residual"] == 0

    def test_mathieu_random_rotation(self):
        prob = make_problem("mathieu", a=-1.5, q=0.4)
        LD = dirichlet_frame(S1)

        def bc_path(s):
            col = rotation_matrix(S1, -0.5 * s) @ LD.frame
            return direct_sum_frame(col, LD.frame)

        out = morse_jump_check(prob, bc_path(0.0), bc_path(1.0), bc_path,
                               N=256, window_gap=1.0)
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
