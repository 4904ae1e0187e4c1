"""The Magnus fundamental solution against high-precision oracles, and its
symplectic invariant as a property, and batched dense output against the
one-instant lookup.

Oracles: a Mathieu monodromy integrated by mpmath's Taylor-series ODE solver
(Mathieu has no closed form); the Airy functions Ai(-t), Bi(-t) over a span of
about 1200 oscillations; sqrt(t) J_nu(kappa t), sqrt(t) Y_nu(kappa t) toward a
Bessel-type end, where the steps are taken in log-time.  Property:
M^T J M = J to roundoff for random smooth Hamiltonians in dimensions 1 to 3,
on and between grid nodes.
"""

import dataclasses
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import airy, jv, jvp, yv, yvp

from symind.catalog import make_problem
from symind.core import SymplecticSpace
from symind.sturm import (
    LIMIT_CIRCLE,
    LIMIT_POINT,
    REGULAR,
    FundamentalSolution,
    SLProblem,
    fundamental_solution,
    morse_index_dirichlet,
)


def _scaled_residual(M, J):
    return float(np.max(np.abs(M.T @ J @ M - J))) / (1.0 + float(np.max(np.abs(M))) ** 2)


class TestMathieuOracle:
    def test_monodromy_against_taylor_solver(self):
        a, qm = 1.0, 0.7
        fs = fundamental_solution(make_problem("mathieu", a=a, q=qm), 0.0, (0.0, math.pi))
        with mpmath.workdps(25):
            def rhs(t, y):
                R = a - 2 * qm * mpmath.cos(2 * t)
                # two columns of (u, x): u' = R x, x' = u
                return [R * y[1], y[0], R * y[3], y[2]]

            sol = mpmath.odefun(rhs, 0, [1, 0, 0, 1])
            for t in (1.0, math.pi):
                y = sol(mpmath.mpf(t))
                expected = np.array([[float(y[0]), float(y[2])], [float(y[1]), float(y[3])]])
                assert np.max(np.abs(fs.matrix(t) - expected)) < 1e-9


class TestLongSpan:
    def test_airy_over_many_oscillations(self):
        # x'' = -t x on (0, 500): the frequency rises to sqrt(500), so the
        # steps shrink along the span; about 65000 of them are needed
        L = 500.0
        prob = SLProblem(1, (0.0, L), 1.0, 0.0, lambda t: -t)
        fs = fundamental_solution(prob, 0.0, (0.0, L))

        def Z(t):
            ai, aip, bi, bip = airy(-t)
            return np.array([[-aip, -bip], [ai, bi]])      # rows x', x

        Z0inv = np.linalg.inv(Z(0.0))
        for t in (L / 3, L / 2 + 0.123, L - 0.77, L):
            expected = Z(t) @ Z0inv
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(fs.matrix(t) - expected)) < 1e-8 * scale, t


class TestLogTime:
    @pytest.mark.parametrize("problem", [
        make_problem("bessel", q=0.3),
        make_problem("bessel", q=-2.0),
        make_problem("nbody-asymptotic", config_id="two-body"),
    ], ids=["bessel-0.3", "bessel-2", "two-body"])
    def test_bessel_window_takes_one_pass(self, problem):
        # toward t^2 R = D the log-time generator is constant, so the first
        # pass (the initial steps, each halved) passes the Richardson check
        diag = morse_index_dirichlet(problem).diagnostics
        assert diag["integrator_steps"] == {"backward": 2 * FundamentalSolution.INITIAL_STEPS}
        assert diag["integrator_coordinates"] == {"backward": "log-time"}

    @pytest.mark.parametrize("q,kappa2", [(0.3, 5.0), (0.3, 400.0), (2.0, 50.0)])
    def test_non_constant_generator(self, q, kappa2):
        # -x'' + (q / t^2 - kappa^2) x = 0 has the solutions sqrt(t) Z_nu(kappa t),
        # nu^2 = q + 1/4; in log-time kappa^2 t^2 varies along the span
        nu, kappa = math.sqrt(q + 0.25), math.sqrt(kappa2)
        end = LIMIT_CIRCLE if q < 0.75 else LIMIT_POINT
        prob = SLProblem(1, (0.0, 1.0), 1.0, 0.0, lambda t: q / t ** 2 - kappa2,
                         endpoints=(end, REGULAR))
        fs = fundamental_solution(prob, 1.0, (1e-7, 1.0))
        assert fs.coordinates == {"backward": "log-time"}

        def Z(t):
            root, z = math.sqrt(t), kappa * t
            return np.array([[f(nu, z) / (2.0 * root) + root * kappa * fp(nu, z)
                              for f, fp in ((jv, jvp), (yv, yvp))],
                             [root * f(nu, z) for f in (jv, yv)]])

        Z1inv = np.linalg.inv(Z(1.0))
        nodes = [t for t, _ in fs.drift_log]
        for t in nodes[::7] + list(np.geomspace(1.3e-7, 0.97, 17)):
            expected = Z(t) @ Z1inv
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(fs.matrix(t) - expected)) < 1e-9 * scale, t

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_general_coefficients_agree_with_t(self, dim):
        # P, Q and R all enter the log-time generator; declaring the left
        # end singular changes the coordinate, not the flow
        problem = _random_problem(dim, np.random.default_rng(dim))
        declared = dataclasses.replace(problem, endpoints=(LIMIT_CIRCLE, REGULAR))
        in_t = fundamental_solution(problem, 1.0, (0.05, 1.0))
        in_log = fundamental_solution(declared, 1.0, (0.05, 1.0))
        assert (in_t.coordinates, in_log.coordinates) == ({"backward": "t"},
                                                          {"backward": "log-time"})
        ts = np.linspace(0.05, 1.0, 23)
        assert np.max(np.abs(in_log.matrices(ts) - in_t.matrices(ts))) < 1e-9

    def test_regular_problem_steps_in_t(self):
        # a constant-coefficient problem is exact in t, not in log-time, so
        # a span far from 0 in ratio keeps its few steps in t
        prob = make_problem("harmonic", omega=20.0, interval=(1e-3, 1.0))
        diag = morse_index_dirichlet(prob).diagnostics
        assert diag["integrator_steps"] == {"forward": 16}
        assert diag["integrator_coordinates"] == {"forward": "t"}


def _random_problem(dim, rng):
    """Smooth coefficients on (0, 1): P = I + 0.4 sin(3t) S with |S| <= 1 stays
    positive definite; Q arbitrary and linear in t; R symmetric and oscillating."""
    def sym(scale):
        X = rng.standard_normal((dim, dim))
        return scale * (X + X.T) / 2.0

    S = sym(1.0)
    S /= max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(S)))))
    Q0, Q1 = rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim))
    R0, R1 = sym(3.0), sym(3.0)
    return SLProblem(dim, (0.0, 1.0),
                     lambda t: np.eye(dim) + 0.4 * np.sin(3.0 * t) * S,
                     lambda t: Q0 + t * Q1,
                     lambda t: R0 + np.cos(5.0 * t) * R1)


class TestSymplecticProperty:
    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
           t0=st.sampled_from([0.0, 0.37, 1.0]))
    def test_flow_is_symplectic_to_roundoff(self, dim, seed, t0):
        rng = np.random.default_rng(seed)
        problem = _random_problem(dim, rng)
        fs = fundamental_solution(problem, t0, (0.0, 1.0))
        J = SymplecticSpace.standard(dim).form
        for t in np.concatenate([np.linspace(0.0, 1.0, 9), rng.uniform(0.0, 1.0, 8)]):
            assert _scaled_residual(fs.matrix(t), J) <= 1e-12
        assert fs.max_drift() <= 1e-12


@functools.cache
def _two_sided_solution(dim):
    """A fundamental solution based inside its span, so both branches exist."""
    return fundamental_solution(_random_problem(dim, np.random.default_rng(dim)), 0.37, (0.0, 1.0))


class TestBatchedDenseOutput:
    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 2), data=st.data())
    def test_matrices_equal_stacked_matrix(self, dim, data):
        fs = _two_sided_solution(dim)
        nodes = [t for t, _ in fs.drift_log]
        pick = st.one_of(st.floats(0.0, 1.0), st.sampled_from(nodes + [fs.t0, 0.0, 1.0]))
        ts = data.draw(st.lists(pick, min_size=1, max_size=24))
        ts = data.draw(st.permutations(ts + ts[: len(ts) // 3]))     # duplicates, shuffled
        batched = fs.matrices(ts)
        assert batched.shape == (len(ts), 2 * dim, 2 * dim)
        assert np.array_equal(batched, np.array([fs.matrix(t) for t in ts]))
