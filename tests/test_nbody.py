"""Potential, Hessian, central configurations, Bbar spectra, and the Morse
classification of asymptotic motions.

Oracles: closed-form two-body blocks, finite-difference gradients/Hessians,
homogeneity identities, the pairwise loops the array kernels replaced,
explicit equilateral/collinear configurations, the closed-form euler3 Bbar
spectrum, and Euler's collinear quintic solved in mpmath at 50 digits.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symind.nbody as nbody
from symind.catalog import make_problem
from symind.errors import CollisionConfiguration, NotNormalized, SymindError
from symind.nbody import (
    CentralConfig,
    Configuration,
    MassSystem,
    asymptotic_morse,
    asymptotic_morse_from_spectrum,
    asymptotic_problem,
    bbar_matrix,
    bbar_spectrum,
    central_config_residual,
    central_configuration,
    euler3,
    gradient,
    hessian,
    lagrange3,
    load_configuration,
    potential,
    seed_central_config,
    two_body,
)
from symind.report import INFINITE, UNDETERMINED, IndexReport
from symind.sturm import morse_index_dirichlet, morse_index_general


def random_config(rng, n=3, d=3):
    sys_ = MassSystem(tuple(rng.uniform(0.5, 2.0, n)), d)
    while True:
        q = rng.standard_normal((n, d))
        cfg = Configuration(sys_, q)
        if cfg.min_separation() > 0.3:
            return cfg


class TestPotential:
    def test_two_unit_masses_distance_one(self):
        sys_ = MassSystem((1.0, 1.0), 3)
        cfg = Configuration(sys_, [[0, 0, 0], [1, 0, 0]])
        assert potential(cfg) == pytest.approx(1.0)

    def test_equilateral_three(self):
        sys_ = MassSystem((1.0, 1.0, 1.0), 2)
        q = [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]
        assert potential(Configuration(sys_, q)) == pytest.approx(3.0)

    def test_scaling_degree_minus_one(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            cfg = random_config(rng)
            mu = rng.uniform(0.5, 3.0)
            scaled = Configuration(cfg.system, mu * cfg.positions)
            assert potential(scaled) == pytest.approx(potential(cfg) / mu, rel=1e-12)

    def test_collision_raises(self):
        sys_ = MassSystem((1.0, 1.0), 3)
        with pytest.raises(CollisionConfiguration):
            potential(Configuration(sys_, [[0, 0, 0], [0, 0, 0]]))


class TestHessian:
    def test_translation_kernel(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            cfg = random_config(rng)
            H = hessian(cfg)
            d, n = cfg.system.d, cfg.system.n_bodies
            for k in range(d):
                e = np.zeros((n, d))
                e[:, k] = 1.0
                assert np.linalg.norm(H @ e.reshape(-1)) < 1e-10

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        cfg = random_config(rng)
        H = hessian(cfg)
        x0 = cfg.flat
        h = 1e-5
        for k in range(len(x0)):
            e = np.zeros_like(x0)
            e[k] = h
            gp = gradient(Configuration(cfg.system, (x0 + e).reshape(cfg.positions.shape)))
            gm = gradient(Configuration(cfg.system, (x0 - e).reshape(cfg.positions.shape)))
            col = (gp - gm) / (2 * h)
            denom = max(1.0, np.linalg.norm(H[:, k]))
            assert np.linalg.norm(col - H[:, k]) / denom < 1e-6

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        cfg = random_config(rng)
        g = gradient(cfg)
        x0 = cfg.flat
        h = 1e-6
        for k in range(len(x0)):
            e = np.zeros_like(x0)
            e[k] = h
            up = potential(Configuration(cfg.system, (x0 + e).reshape(cfg.positions.shape)))
            dn = potential(Configuration(cfg.system, (x0 - e).reshape(cfg.positions.shape)))
            assert (up - dn) / (2 * h) == pytest.approx(g[k], rel=1e-5, abs=1e-8)

    def test_euler_identity(self):
        # homogeneity degree -1: D^2U(q) q = -2 grad U(q)
        rng = np.random.default_rng(3)
        cfg = random_config(rng)
        lhs = hessian(cfg) @ cfg.flat
        rhs = -2.0 * gradient(cfg)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_two_body_block_spectrum(self):
        sys_ = MassSystem((1.0, 1.0), 3)
        cfg = Configuration(sys_, [[0, 0, 0], [1, 0, 0]])
        H = hessian(cfg)
        block = H[:3, 3:]
        w = np.sort(np.linalg.eigvalsh(block))
        assert np.allclose(w, [-2.0, 1.0, 1.0])

    def test_homogeneity_degree_minus_three(self):
        rng = np.random.default_rng(4)
        cfg = random_config(rng)
        mu = 1.7
        scaled = Configuration(cfg.system, mu * cfg.positions)
        assert np.allclose(hessian(scaled), hessian(cfg) / mu ** 3, rtol=1e-12)


def loop_kernels(cfg):
    """U, grad U and D^2 U by the loop over ordered pairs that the array
    kernels replaced."""
    m, q = cfg.system.masses, cfg.positions
    n, d = cfg.system.n_bodies, cfg.system.d
    U, g, H = 0.0, np.zeros((n, d)), np.zeros((n * d, n * d))
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            diff = q[i] - q[j]
            r = np.linalg.norm(diff)
            u = diff / r
            U += 0.5 * m[i] * m[j] / r
            g[i] -= m[i] * m[j] * diff / r ** 3
            block = (m[i] * m[j] / r ** 3) * (np.eye(d) - 3.0 * np.outer(u, u))
            H[i * d:(i + 1) * d, j * d:(j + 1) * d] = block
            H[i * d:(i + 1) * d, i * d:(i + 1) * d] -= block
    return U, g.reshape(-1), H


@st.composite
def separated_configurations(draw):
    """n = 2..5 bodies in d = 2 or 3 with masses in [0.1, 10] and every pair
    at least 0.3 apart."""
    n = draw(st.integers(2, 5))
    d = draw(st.sampled_from((2, 3)))
    masses = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    coords = draw(st.lists(st.floats(-2.0, 2.0), min_size=n * d, max_size=n * d))
    cfg = Configuration(MassSystem(tuple(masses), d), np.reshape(coords, (n, d)))
    assume(cfg.min_separation() >= 0.3)
    return cfg


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(cfg=separated_configurations())
    def test_matches_the_pair_loop(self, cfg):
        U, g, H = loop_kernels(cfg)
        assert potential(cfg) == pytest.approx(U, rel=1e-13)
        assert np.linalg.norm(gradient(cfg) - g) <= 1e-13 * np.linalg.norm(g)
        assert np.linalg.norm(hessian(cfg) - H) <= 1e-13 * np.linalg.norm(H)

    @settings(max_examples=60, deadline=None)
    @given(cfg=separated_configurations())
    def test_translation_and_homogeneity_identities(self, cfg):
        n, d = cfg.system.n_bodies, cfg.system.d
        g = gradient(cfg)
        U = potential(cfg)
        # no net force: sum_i grad_i U = 0
        assert np.linalg.norm(g.reshape(n, d).sum(axis=0)) <= 1e-12 * np.linalg.norm(g)
        # Euler's identity for degree -1: q . grad U = -U
        assert cfg.flat @ g == pytest.approx(-U, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(cfg=separated_configurations(), seed=st.integers(0, 2 ** 32 - 1))
    def test_hessian_symmetric_with_translation_kernel(self, cfg, seed):
        n, d = cfg.system.n_bodies, cfg.system.d
        H = hessian(cfg)
        scale = np.linalg.norm(H)
        assert np.linalg.norm(H - H.T) <= 1e-14 * scale
        translations = np.tile(np.eye(d), (n, 1))            # (n d, d)
        assert np.linalg.norm(H @ translations) <= 1e-12 * scale
        # H v against a central difference of the gradient
        v = np.random.default_rng(seed).standard_normal(n * d)
        v /= np.linalg.norm(v)
        h = 1e-5
        shape = cfg.positions.shape
        fd = (gradient(Configuration(cfg.system, (cfg.flat + h * v).reshape(shape)))
              - gradient(Configuration(cfg.system, (cfg.flat - h * v).reshape(shape)))) / (2 * h)
        Hv = H @ v
        assert np.linalg.norm(Hv - fd) / max(1.0, np.linalg.norm(Hv)) < 1e-6


class TestCentralConfiguration:
    def test_two_body_closed_form(self):
        cc = two_body()
        assert cc.residual <= 1e-12
        assert cc.config.moment_of_inertia() == pytest.approx(1.0)
        # antipodal on the axis
        q = cc.config.positions
        assert np.allclose(q[0], -q[1])

    def test_unequal_masses(self):
        cc = two_body((2.0, 1.0))
        assert cc.residual <= 1e-12
        assert np.allclose(cc.config.center_of_mass(), 0.0, atol=1e-14)

    def test_lagrange_equilateral(self):
        cc = lagrange3()
        assert cc.residual <= 1e-12
        q = cc.config.positions
        dists = [np.linalg.norm(q[i] - q[j]) for i, j in ((0, 1), (1, 2), (0, 2))]
        assert np.allclose(dists, dists[0])

    def test_euler_collinear_distinct_from_lagrange(self):
        cc = euler3()
        assert cc.residual <= 1e-12
        q = cc.config.positions
        assert np.allclose(q[:, 1], 0.0, atol=1e-10)   # stays on the axis
        # symmetric spacing: outer bodies antipodal, middle at origin
        assert np.allclose(q[0], -q[2], atol=1e-10)
        assert np.allclose(q[1], 0.0, atol=1e-10)

    def test_converges_from_perturbed_seed(self):
        rng = np.random.default_rng(5)
        sys_ = MassSystem((1.0, 1.0, 1.0), 2)
        q = np.array([[0.0, 1.0], [-0.9, -0.5], [0.9, -0.5]]) + 0.05 * rng.standard_normal((3, 2))
        cc = central_configuration(sys_, Configuration(sys_, q))
        assert cc.residual <= 1e-12
        # near-equilateral seeds land on the Lagrange solution
        d01 = np.linalg.norm(cc.config.positions[0] - cc.config.positions[1])
        d12 = np.linalg.norm(cc.config.positions[1] - cc.config.positions[2])
        assert d01 == pytest.approx(d12, abs=1e-9)


# the equal-mass collinear configuration at d = 2 (closed form)
EULER3_BBAR = np.sort([-8.0 / 15.0, -2.0 / 9.0, 0.0, 0.0, 4.0 / 9.0, 16.0 / 15.0])


def test_coincident_bodies_raise_collision():
    # all bodies at one point: I(q) = 0, so normalizing would give NaN positions
    system = MassSystem((1.0, 1.0), 2)
    with pytest.raises(CollisionConfiguration):
        central_configuration(system, Configuration(system, [[0.3, 0.0], [0.3, 0.0]]))


class TestOffLineEuler3:
    """euler3 moved off its line: the undamped Newton iteration this solver
    replaced raised SolverDiverged on 10 of these 20 draws at 1e-4 and 19 of
    20 at 1e-2."""

    @pytest.mark.parametrize("scale", [1e-4, 1e-2])
    def test_converges_to_the_collinear_configuration(self, scale):
        start = euler3()
        for seed in range(20):
            q = start.config.positions + scale * np.random.default_rng(seed).standard_normal((3, 2))
            cc = central_configuration(start.system, Configuration(start.system, q))
            assert cc.residual <= 1e-12
            assert np.allclose(np.sort(bbar_spectrum(cc)), EULER3_BBAR, rtol=0, atol=1e-9)
            assert asymptotic_morse(cc, "total-collision").verdict == INFINITE


class TestEulerQuintic:
    """Collinear central configuration of masses m1, m2, m3 in that order on
    the line: rho = (x3 - x2) / (x2 - x1) is the positive root of
    (m1+m2) rho^5 + (3m1+2m2) rho^4 + (3m1+m2) rho^3 - (m2+3m3) rho^2
    - (2m2+3m3) rho - (m2+m3) (Moulton, Ann. Math. 12, 1910)."""

    @pytest.mark.parametrize("masses", [(1.0, 2.0, 3.0), (3.0, 1.0, 0.5)])
    def test_spacing_ratio_matches_the_quintic(self, masses):
        with mpmath.workdps(50):
            m1, m2, m3 = (mpmath.mpf(m) for m in masses)
            coeffs = [m1 + m2, 3 * m1 + 2 * m2, 3 * m1 + m2,
                      -(m2 + 3 * m3), -(2 * m2 + 3 * m3), -(m2 + m3)]
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
            positive = [r.real for r in roots if abs(r.imag) < 1e-40 and r.real > 0]
            assert len(positive) == 1                 # Descartes: one sign change
            rho = float(positive[0])
        system = MassSystem(masses, 2)
        start = Configuration(system, [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        cc = central_configuration(system, start)
        assert cc.residual <= 1e-12
        x = cc.config.positions[:, 0]
        assert np.allclose(cc.config.positions[:, 1], 0.0, rtol=0, atol=1e-12)
        assert (x[2] - x[1]) / (x[1] - x[0]) == pytest.approx(rho, rel=0, abs=1e-10)


class TestBbar:
    def test_radial_and_translation_eigenvalues(self):
        for cc in (two_body(), lagrange3()):
            w = bbar_spectrum(cc)
            d = cc.system.d
            assert np.min(np.abs(w - 4.0 / 9.0)) < 1e-10
            assert np.sum(np.abs(w) < 1e-10) >= d

    def test_two_body_full_spectrum(self):
        # closed form: translations 0 (x d), radial 4/9, relative transverse
        # -2/9 (x (d-1))
        cc = two_body(d=3)
        w = np.sort(bbar_spectrum(cc))
        expected = np.sort([0.0, 0.0, 0.0, 4.0 / 9.0, -2.0 / 9.0, -2.0 / 9.0])
        assert np.allclose(w, expected, atol=1e-10)

    def test_rescaling_invariance(self):
        cc = lagrange3()
        w1 = bbar_spectrum(cc)
        # rescale and renormalize: spectrum unchanged
        scaled = Configuration(cc.system, 3.1 * cc.config.positions)
        from symind.nbody import _project_constraints
        back = _project_constraints(scaled)
        cc2 = CentralConfig(back, central_config_residual(back))
        w2 = bbar_spectrum(cc2)
        assert np.allclose(np.sort(w1), np.sort(w2), atol=1e-10)

    def test_requires_normalization(self):
        cc = two_body()
        bad = CentralConfig(Configuration(cc.system, 2.0 * cc.config.positions), 0.0)
        with pytest.raises(NotNormalized):
            bbar_spectrum(bad)

    def test_matrix_matches_spectrum(self):
        cc = lagrange3()
        w1 = np.sort(np.linalg.eigvals(bbar_matrix(cc)).real)
        w2 = np.sort(bbar_spectrum(cc))
        assert np.allclose(w1, w2, atol=1e-9)


class TestAsymptoticMorse:
    def test_two_body_collision_finite(self):
        cc = two_body()
        rep = asymptotic_morse(cc, "total-collision")
        assert isinstance(rep.verdict, int)
        assert rep.diagnostics["per_direction"].count("Infinite") == 0

    def test_lagrange_parabolic(self):
        cc = lagrange3()
        rep = asymptotic_morse(cc, "parabolic")
        w = np.array(rep.diagnostics["bbar_spectrum"])
        if np.min(w) > -0.25:
            assert isinstance(rep.verdict, int)
        else:
            assert rep.verdict == INFINITE

    def test_synthetic_infinite(self):
        rep = asymptotic_morse_from_spectrum([0.0, -0.5, 4.0 / 9.0], "total-collision")
        assert rep.verdict == INFINITE

    def test_threshold_is_undetermined(self):
        rep = asymptotic_morse_from_spectrum([0.0, -0.25, 4.0 / 9.0], "parabolic")
        assert rep.verdict == UNDETERMINED
        assert rep.reason

    def test_hyperbolic_always_finite(self):
        for spectrum in ([0.0, -0.5, -3.0], [0.0, 4.0 / 9.0]):
            rep = asymptotic_morse_from_spectrum(spectrum, "hyperbolic")
            assert isinstance(rep.verdict, int)

    @pytest.mark.parametrize("motion", ["total-collision", "hyperbolic"])
    def test_undetermined_direction_is_not_counted(self, monkeypatch, motion):
        # a direction without an integer index must not count as 0
        monkeypatch.setattr(nbody, "morse_index_dirichlet", lambda problem: IndexReport(
            command="morse", verdict=UNDETERMINED, reason="stub reason"))
        rep = asymptotic_morse_from_spectrum([0.0, 4.0 / 9.0], motion)
        assert rep.verdict == UNDETERMINED
        assert "stub reason" in rep.reason

    @pytest.mark.parametrize("config, d", [("two-body", 2), ("two-body", 3), ("lagrange3", 2)])
    def test_neumann_matches_the_direction_sum(self, config, d):
        # the chart of the coupled limiting system is the direct sum of the
        # Bessel charts of the directions of Bbar, so the Neumann index is
        # the sum of the scalar Neumann indices, each 0
        problem = asymptotic_problem(config, d=d)
        scalar = [morse_index_general(make_problem("bessel", q=lam), "neumann").verdict
                  for lam in problem.directions[0]]
        assert scalar == [0] * problem.dim
        assert morse_index_general(problem, "neumann").verdict == sum(scalar)

    def test_hyperbolic_directions_are_all_finite(self):
        # the t^-3 limiting problem is regular, so the -1/4 rule of the t^-2
        # one labels none of its directions
        rep = asymptotic_morse(euler3(d=3), "hyperbolic")
        assert rep.verdict == 0 and rep.diagnostics["truncated_count"] == 0
        assert set(rep.diagnostics["per_direction"]) == {"Finite"}
        assert min(rep.diagnostics["bbar_spectrum"]) < -0.25

    @pytest.mark.parametrize("config", ["two-body", "lagrange3"])
    def test_coupled_system_matches_the_direction_sum(self, config):
        # second route: the coupled limiting system in one Dirichlet scan
        coupled = morse_index_dirichlet(asymptotic_problem(config, d=2))
        split = asymptotic_morse(seed_central_config(config, d=2), "total-collision")
        assert isinstance(split.verdict, int)
        assert coupled.verdict == split.verdict
        assert sorted(coupled.conjugate_points) == sorted(split.conjugate_points)


class TestCatalogHook:
    def test_asymptotic_problem_collision_branch(self):
        prob = make_problem("nbody-asymptotic", config_id="two-body",
                            motion="total-collision", d=2)
        assert prob.dim == 4                      # d * n_bodies
        assert prob.interval == (0.0, 1.0)
        R = prob.coefficients([0.5])[2][0]
        eigs = np.sort(np.linalg.eigvalsh(R * 0.25))   # R(t) = diag(beta)/t^2
        assert np.min(np.abs(eigs - 4.0 / 9.0)) < 1e-9
        assert "bbar_eigs" in prob.params

    def test_unknown_seed_is_config_invalid(self):
        with pytest.raises(SymindError, match="bogus"):
            make_problem("nbody-asymptotic", config_id="bogus")

    def test_asymptotic_problem_hyperbolic_branch(self):
        prob = make_problem("nbody-asymptotic", config_id="two-body",
                            motion="hyperbolic", d=2)
        assert prob.interval[0] == 1.0
        # R(t) = diag(beta)/t^3
        R = prob.coefficients([1.0, 2.0])[2]
        assert np.allclose(R[1] * 8.0, R[0], atol=1e-12)


class TestIngestion:
    def test_load_json_mapping(self):
        cfg = load_configuration({"masses": [1, 1], "positions": [[0, 0], [1, 0]],
                                  "dimension": 2})
        assert cfg.system.d == 2
        assert potential(cfg) == pytest.approx(1.0)

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"masses": [1, 1, 1], "positions": '
                        '[[0, 0], [1, 0], [0.5, 0.866025403784]], "dimension": 2}')
        cfg = load_configuration(str(path))
        assert cfg.system.n_bodies == 3
