"""Potential, Hessian, central configurations, Bbar spectra, and the Morse
classification of asymptotic motions.

Oracles: closed-form two-body blocks, finite-difference gradients/Hessians,
homogeneity identities, explicit equilateral/collinear configurations.
"""

import math

import numpy as np
import pytest

from symind.errors import CollisionConfiguration, NotNormalized
from symind.nbody import (
    CentralConfig,
    Configuration,
    MassSystem,
    asymptotic_morse,
    asymptotic_morse_from_spectrum,
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
    two_body,
)
from symind.report import INFINITE, UNDETERMINED


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


class TestCatalogHook:
    def test_asymptotic_problem_collision_branch(self):
        from symind.catalog import make_problem
        prob = make_problem("nbody-asymptotic", config_id="two-body",
                            motion="total-collision", d=2)
        assert prob.dim == 4                      # d * n_bodies
        assert prob.interval == (0.0, 1.0)
        R = prob.coefficients([0.5])[2][0]
        eigs = np.sort(np.linalg.eigvalsh(R * 0.25))   # R(t) = diag(beta)/t^2
        assert np.min(np.abs(eigs - 4.0 / 9.0)) < 1e-9
        assert "bbar_eigs" in prob.params

    def test_asymptotic_problem_hyperbolic_branch(self):
        from symind.catalog import make_problem
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
