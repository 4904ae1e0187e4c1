"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single PASS line on success (run with -s to see them all)
and asserts every stated tolerance and runtime budget.  Expected values are
closed-form oracles: zero counts of sin(omega t), logarithmically spaced
Bessel zeros, explicit Dirichlet/Neumann spectra, two-body block spectra.
"""

import math
import time

import numpy as np
import pytest

from symind.catalog import make_problem
from symind.core import (
    SymplecticMatrix,
    SymplecticSpace,
    graph_lagrangian,
    intersection_dim,
    line_frame,
    random_lagrangian,
    random_symplectic,
    rotation_matrix,
)
from symind.maslov import (
    LagrangianPath,
    hormander_index,
    hormander_via_maslov,
    maslov_clm,
    triple_index,
)
from symind.report import INFINITE
from symind.spectral import discretize, discretized_family, rellich_ghosts, spectral_flow, verify_sf_formula
from symind.sturm import (
    BoundaryCondition,
    SLProblem,
    fundamental_solution,
    morse_index_dirichlet,
    morse_index_general,
)

S1 = SymplecticSpace.standard(1)


def _report(label, detail=""):
    print(f"\nACCEPTANCE {label}: PASS {detail}")


class TestCriterion1RegularMorse:
    @pytest.mark.parametrize("omega", [2.0, 5.0, 10.0])
    def test_regular_morse_index_theorem(self, omega):
        start = time.perf_counter()
        expected = sum(1 for k in range(1, 100) if (k * math.pi) ** 2 < omega ** 2)
        rep = morse_index_dirichlet(make_problem("harmonic", omega=omega))
        assert rep.verdict == expected
        op = discretize(make_problem("harmonic", omega=omega), "dirichlet", 1024)
        assert op.morse_count() == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        _report("1", f"(omega={omega}: index {expected} from flow and from the "
                     f"N=1024 discretization, {elapsed:.2f}s)")


class TestCriterion2BesselOscillation:
    def test_oscillatory_conjugate_points_and_verdict(self):
        start = time.perf_counter()
        q = -0.25 - math.pi ** 2
        rep = morse_index_dirichlet(make_problem("bessel", q=q))
        assert rep.verdict == INFINITE
        window_lo = math.exp(-4.0) * (1.0 + 1e-9)
        pts = sorted(t for t, _ in rep.conjugate_points if t > window_lo)
        expected = [math.exp(-3), math.exp(-2), math.exp(-1)]
        assert len(pts) == 3
        for t, e in zip(pts, expected):
            assert abs(t - e) / e < 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        _report("2", f"(points {[f'{t:.6f}' for t in pts]} to 1e-6 relative, "
                     f"verdict Infinite, {elapsed:.2f}s)")


class TestCriterion3BesselFiniteness:
    @pytest.mark.parametrize("q", [0.0, 0.5])
    def test_friedrichs_index_zero(self, q):
        start = time.perf_counter()
        rep = morse_index_dirichlet(make_problem("bessel", q=q))
        assert rep.verdict == 0
        counts = [c for _, c in rep.diagnostics["delta_trace"]]
        assert counts == [0] * len(counts)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        _report("3", f"(q={q}: Finite 0, stable over the full schedule, {elapsed:.2f}s)")


class TestCriterion4SpectralFlowFormula:
    def test_formula_and_grid_stability(self):
        start = time.perf_counter()
        problem = SLProblem(1, (0.0, 1.0), 1.0, 0.0, 0.0,
                            c=lambda s, t: np.array([[-100.0 * s]]))
        out = verify_sf_formula(problem, "dirichlet", (0.0, 1.0), N=512)
        assert out["sf"] == -3 and out["maslov"] == 3
        assert out["sf"] == -out["maslov"]
        fam = discretized_family(problem, "dirichlet", 1024)
        assert spectral_flow(fam, (0.0, 1.0)) == out["sf"]
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        _report("4", f"(sf=-3 at N=512 and N=1024, maslov=+3, sf=-mu, {elapsed:.2f}s)")


class TestCriterion5TripleHormanderSuite:
    def test_identity_suite(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        dims = [1, 2, 3]
        checked = 0
        while checked < 500:
            n = dims[checked % 3]
            space = SymplecticSpace.standard(n)
            a, b, c = (random_lagrangian(space, rng) for _ in range(3))
            lhs = triple_index(a, b, c) - triple_index(b, c, a)
            rhs = intersection_dim(a, c) - intersection_dim(b, a)
            assert lhs == rhs
            l1, l2, m1, m2 = (random_lagrangian(space, rng) for _ in range(4))
            assert hormander_index(l1, l2, m1, m1) == 0
            assert hormander_index(l1, l2, m1, m2) == -hormander_index(l1, l2, m2, m1)
            checked += 1

        mu_checked = 0
        while mu_checked < 100:
            n = dims[mu_checked % 3]
            space = SymplecticSpace.standard(n)
            l1, l2, m1, m2 = (random_lagrangian(space, rng) for _ in range(4))
            assert hormander_index(l1, l2, m1, m2) == hormander_via_maslov(l1, l2, m1, m2)
            mu_checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        _report("5", f"(500 exact identity checks, 100 path-route agreements, "
                     f"{elapsed:.2f}s)")


class TestCriterion6BoundaryConditionDifference:
    def test_neumann_minus_dirichlet(self):
        prob = make_problem("harmonic", omega=2.0, interval=(0.0, math.pi))
        rep_d = morse_index_general(prob, BoundaryCondition("dirichlet"))
        rep_n = morse_index_general(prob, BoundaryCondition("neumann"))
        assert rep_n.verdict - rep_d.verdict == 1
        assert rep_n.diagnostics["triple_index_correction"] == 1
        # discretized spectra: -d^2 - 4 on (0, pi): Dirichlet negatives {-3},
        # Neumann negatives {-4, -3}
        for bc, expected in (("dirichlet", 1), ("neumann", 2)):
            op = discretize(prob, bc, 1024)
            assert op.morse_count() == expected
        _report("6", "(iMor(Neumann) - iMor(Dirichlet) = 1 = triple-index "
                     "correction, discrete counts 2 and 1)")


class TestCriterion7RellichGhosts:
    def test_ghost_count_and_divergence(self):
        start = time.perf_counter()
        delta = 1e-3
        prob = make_problem("bessel", q=0.0, interval=(delta, 1.0))
        left_space = SymplecticSpace.minus_plus(1, 0)
        fr = line_frame(left_space, [1.0, delta])   # data of the principal solution t

        def bc_path(u):
            return rotation_matrix(left_space, -u) @ fr.frame

        out = rellich_ghosts(prob, bc_path, fr, M_values=(1e2, 1e3), N=1024,
                             u_values=(0.4, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005))
        assert out["maslov_prediction"] == 1
        for M in (1e2, 1e3):
            counts = out["counts_below_minus_M"][M]
            assert counts[-1] == 1 and counts[-2] == 1
        lam = out["lambda_min_trace"]
        assert all(b < a for a, b in zip(lam, lam[1:]))
        assert lam[-1] < -1e4
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        _report("7", f"(count below -M is 1 = maslov prediction, bottom "
                     f"eigenvalue dives to {lam[-1]:.3g}, {elapsed:.2f}s)")


class TestCriterion8NBody:
    def test_classification(self):
        start = time.perf_counter()
        from symind.nbody import (Configuration, asymptotic_morse,
                                  asymptotic_morse_from_spectrum, bbar_spectrum,
                                  gradient, hessian, lagrange3, two_body)

        for cc in (two_body(), lagrange3()):
            w = bbar_spectrum(cc)
            d = cc.system.d
            assert np.min(np.abs(w - 4.0 / 9.0)) < 1e-10
            assert np.sum(np.abs(w) < 1e-10) >= d

            H = hessian(cc.config)
            x0 = cc.config.flat
            h = 1e-5
            rng = np.random.default_rng(8)
            for _ in range(4):
                v = rng.standard_normal(len(x0))
                v /= np.linalg.norm(v)
                gp = gradient(Configuration(cc.system, (x0 + h * v).reshape(cc.config.positions.shape)))
                gm = gradient(Configuration(cc.system, (x0 - h * v).reshape(cc.config.positions.shape)))
                fd = (gp - gm) / (2 * h)
                assert np.linalg.norm(H @ v - fd) / max(1.0, np.linalg.norm(H @ v)) < 1e-6

            rep = asymptotic_morse(cc, "total-collision")
            if np.min(w) > -0.25:
                assert isinstance(rep.verdict, int)
            else:
                assert rep.verdict == INFINITE

        synthetic = asymptotic_morse_from_spectrum([0.0, -0.5, 4.0 / 9.0],
                                                   "total-collision")
        assert synthetic.verdict == INFINITE
        hyper = asymptotic_morse_from_spectrum([0.0, -0.5, -3.0], "hyperbolic")
        assert isinstance(hyper.verdict, int)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        _report("8", f"(radial 4/9 and translational 0 eigenvalues, FD Hessian "
                     f"agreement, verdicts as classified, {elapsed:.2f}s)")


class TestCriterion9PropertySuites:
    def test_symplectic_drift(self):
        worst = 0.0
        for name, params, span, anchor in (
                ("harmonic", {"omega": 10.0}, (0.0, 1.0), 0.0),
                ("mathieu", {"a": 1.0, "q": 0.7}, (0.0, math.pi), 0.0),
                ("bessel", {"q": -0.25 - math.pi ** 2}, (1e-7, 1.0), 1.0),
                ("bessel", {"q": 0.5}, (1e-7, 1.0), 1.0)):
            fs = fundamental_solution(make_problem(name, **params), anchor, span)
            worst = max(worst, fs.max_drift())
        assert worst < 1e-8
        _report("9a", f"(worst scale-normalized drift {worst:.2e} < 1e-8)")

    def test_wronskian_constancy(self):
        prob = make_problem("mathieu", a=-1.0, q=0.9)
        fs = fundamental_solution(prob, 0.0, (0.0, math.pi))
        z1, z2 = np.array([1.0, 0.2]), np.array([-0.4, 1.0])
        w0 = z1 @ S1.form @ z2
        worst = max(abs((fs.matrix(t) @ z1) @ S1.form @ (fs.matrix(t) @ z2) - w0)
                    for t in np.linspace(0.05, math.pi, 11))
        assert worst < 1e-9
        _report("9b", f"(Wronskian drift {worst:.2e} < 1e-9)")

    def test_maslov_path_additivity_and_invariance(self):
        rng = np.random.default_rng(99)
        space = SymplecticSpace.standard(2)
        done = 0
        while done < 6:
            L0, L1 = random_lagrangian(space, rng), random_lagrangian(space, rng)
            ref = random_lagrangian(space, rng)
            path = LagrangianPath.connecting(L0, L1)
            c = 0.57
            from symind.core import gap_distance
            if gap_distance(ref, path(c)) < 1e-3:
                continue
            refp = LagrangianPath.constant(ref, 0.0, 1.0)
            total, _ = maslov_clm(refp, path)
            left, _ = maslov_clm(refp, path, (0.0, c))
            right, _ = maslov_clm(refp, path, (c, 1.0))
            assert total == left + right
            M = random_symplectic(space, rng, scale=0.5)
            from symind.core import apply_symplectic
            moved = LagrangianPath(space, lambda t: apply_symplectic(M, path(t)), 0.0, 1.0)
            mu_m, _ = maslov_clm(LagrangianPath.constant(apply_symplectic(M, ref), 0, 1),
                                 moved)
            assert mu_m == total
            done += 1
        _report("9c", "(path additivity and symplectic invariance on random paths)")

    def test_graph_fixed_space_identity(self):
        rng = np.random.default_rng(123)
        space = SymplecticSpace.standard(2)
        GI = graph_lagrangian(SymplecticMatrix(space, np.eye(4)))
        done = 0
        while done < 8:
            M = random_symplectic(space, rng, scale=0.5)
            sv = np.linalg.svd(M.entries - np.eye(4), compute_uv=False)
            if sv[-1] < 1e-3:
                continue
            fixed = 4 - np.linalg.matrix_rank(M.entries - np.eye(4))
            assert intersection_dim(graph_lagrangian(M), GI) == fixed
            done += 1
        _report("9d", "(graph-intersection fixed-space identity on random "
                      "symplectic matrices)")
