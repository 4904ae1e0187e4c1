"""Fundamental solutions, conjugate points, Morse indices, trace data.

Oracles: closed-form harmonic/free/Bessel solutions; zeros of sin(omega t);
explicit Neumann/Dirichlet spectra of -d^2/dt^2 - omega^2; the Bessel
secular function in mpmath at 30 digits.
"""

import math

import mpmath
import numpy as np
import pytest

from symind.bessel import singular_solutions, solution_data
from symind.catalog import load_problem_csv, make_problem
from symind.core import (
    InertiaTriple,
    SymplecticSpace,
    dirichlet_frame,
    direct_sum_frame,
    line_frame,
    neumann_frame,
)
from symind.errors import (
    BracketLimitDiverges,
    CoefficientShapeInvalid,
    CoefficientSingular,
    ContinuityBudgetExceeded,
    KernelBasisUnavailable,
    ScheduleTooShort,
    SpaceMismatch,
    UnknownBoundaryCondition,
)
from symind.maslov import CrossingRecord
from symind.report import INFINITE, UNDETERMINED
from symind.spectral import discretize
import symind.sturm as sturm
from symind.sturm import (
    LIMIT_CIRCLE,
    LIMIT_POINT,
    REGULAR,
    BoundaryCondition,
    SLProblem,
    bessel_problem,
    boundary_bracket,
    boundary_chart,
    conjugate_points,
    fundamental_solution,
    hamiltonians,
    morse_index_dirichlet,
    morse_index_general,
    resolve_boundary_condition,
    trace_map,
    truncated_span,
)

S1 = SymplecticSpace.standard(1)


class TestHamiltonianReduction:
    def test_block_structure_scalar(self):
        prob = make_problem("harmonic", omega=3.0)
        H = hamiltonians(prob, [0.3])[0]
        # (quasi-derivative, position) ordering; sign fixed so that
        # z' = J H z reproduces x'' = -(omega^2) x ... here R = -omega^2
        assert np.allclose(H, np.array([[-1.0, 0.0], [0.0, -9.0]]))
        assert np.allclose(H, H.T)

    def test_field_reproduces_equation(self):
        prob = make_problem("harmonic", omega=2.0)
        # z = (u, x) with u = x'; l x = 0 means x'' = -4x, so u' = -4x... with
        # R = -omega^2 the equation is -x'' - 4x = 0, i.e. x'' = -4x
        z = np.array([0.7, -0.2])
        dz = S1.form @ hamiltonians(prob, [0.1])[0] @ z
        assert dz[1] == pytest.approx(0.7)      # x' = u
        assert dz[0] == pytest.approx(-4.0 * -0.2)  # u' = R x

    def test_singular_p_raises(self):
        prob = SLProblem(1, (0.0, 1.0), lambda t: t, 0.0, 0.0)
        with pytest.raises(CoefficientSingular):
            hamiltonians(prob, [0.0])


class TestCoefficientContract:
    def test_one_by_one_array_of_t_raises(self):
        # np.array([[t]]) nests the (k, 1, 1) instants instead of returning them
        prob = SLProblem(1, (0.0, 1.0), 1.0, 0.0, lambda t: np.array([[t]]))
        with pytest.raises(CoefficientShapeInvalid, match=r"\(3, 1, 1\) or \(1, 1\)"):
            prob.coefficients([0.1, 0.2, 0.3])

    def test_scalar_formula_in_dim_two_raises(self):
        prob = SLProblem(2, (0.0, 1.0), 1.0, 0.0, lambda t: 2.0 / t ** 2)
        with pytest.raises(CoefficientShapeInvalid):
            prob.coefficients([0.1, 0.2, 0.3])

    def test_scalar_constant_is_multiple_of_identity(self):
        P, Q, R = SLProblem(3, (0.0, 1.0), 2.0, 0.0, -1.5).coefficients([0.1, 0.5])
        assert P.shape == Q.shape == R.shape == (2, 3, 3)
        assert np.array_equal(P, np.broadcast_to(2.0 * np.eye(3), (2, 3, 3)))
        assert np.array_equal(Q, np.zeros((2, 3, 3)))
        assert np.array_equal(R, np.broadcast_to(-1.5 * np.eye(3), (2, 3, 3)))

    def test_t_independent_perturbation_broadcasts(self):
        D, C = np.diag([1.0, -2.0]), np.array([[0.0, 1.0], [1.0, 3.0]])
        prob = SLProblem(2, (0.0, 1.0), 1.0, 0.0, lambda t: D / (1.0 + t),
                         c=lambda s, t: s * C)
        ts = np.array([0.1, 0.5, 0.9])
        _, _, R = prob.coefficients(ts, s=0.5)
        assert np.allclose(R, D / (1.0 + ts[:, None, None]) + 0.5 * C, rtol=0, atol=1e-15)
        assert np.allclose(prob.coefficients(ts)[2], D / (1.0 + ts[:, None, None]))

    def test_csv_table_reproduced_at_its_nodes(self, tmp_path):
        t = np.array([0.0, 0.3, 0.1, 0.55, 0.7, 0.2, 1.0])     # unsorted on purpose
        blocks = {"P": np.stack([[1.0 + t * t, 0.2 * t], [0.2 * t, 2.0 + np.sin(t)]]),
                  "Q": np.stack([[t, -t], [0.5 + 0 * t, t ** 3]]),
                  "R": np.stack([[np.cos(t), 4.0 * t], [4.0 * t, -3.0 + 0 * t]])}
        columns = {"t": t} | {f"{X}_{i + 1}{j + 1}": M[i, j]
                              for X, M in blocks.items() for i in range(2) for j in range(2)}
        table = tmp_path / "coefficients.csv"
        np.savetxt(table, np.column_stack(list(columns.values())), delimiter=",",
                   header=",".join(columns), comments="")
        sampled = load_problem_csv(str(table), 2).coefficients(t)
        for X, got in zip("PQR", sampled):
            assert np.max(np.abs(got - np.moveaxis(blocks[X], -1, 0))) < 1e-12


class TestFundamentalSolution:
    def test_free_particle(self):
        prob = make_problem("free")
        fs = fundamental_solution(prob, 0.0, (0.0, 1.0))
        for t in (0.25, 0.5, 1.0):
            assert np.allclose(fs.matrix(t), [[1.0, 0.0], [t, 1.0]], atol=1e-10)

    def test_harmonic_quarter_period(self):
        prob = make_problem("harmonic", omega=1.0, interval=(0.0, np.pi / 2))
        fs = fundamental_solution(prob, 0.0, (0.0, np.pi / 2))
        out = fs.matrix(np.pi / 2) @ np.array([1.0, 0.0])
        assert np.allclose(out, [0.0, 1.0], atol=1e-9)

    def test_harmonic_closed_form(self):
        omega = 2.0
        prob = make_problem("harmonic", omega=omega, interval=(0.0, 2.0))
        fs = fundamental_solution(prob, 0.0, (0.0, 2.0))
        for t in (0.3, 1.1, 1.9):
            expected = np.array([
                [np.cos(omega * t), -omega * np.sin(omega * t)],
                [np.sin(omega * t) / omega, np.cos(omega * t)],
            ])
            assert np.allclose(fs.matrix(t), expected, atol=1e-9)

    def test_bessel_q0_matches_analytic_basis(self):
        prob = make_problem("bessel", q=0.0)
        fs = fundamental_solution(prob, 0.5, (0.5, 1.0))
        # analytic fundamental matrix from solutions {t, 1}: data (u', u)
        def Z(t):
            return np.array([[1.0, 0.0], [t, 1.0]])
        Z0inv = np.linalg.inv(Z(0.5))
        for t in (0.6, 0.8, 1.0):
            assert np.allclose(fs.matrix(t), Z(t) @ Z0inv, atol=1e-8)

    def test_bessel_general_matches_analytic(self):
        # numeric vs analytic on [delta, 1] down to delta = 1e-7, on the grid
        # nodes and between them: every log-time step of R = q / t^2 is
        # exact, so the error is roundoff
        from symind.bessel import r_of_q
        for q in (0.5, 0.3, -2.0, -0.25 - np.pi ** 2):
            r = r_of_q(q)
            fs = fundamental_solution(make_problem("bessel", q=q), 1.0, (1e-7, 1.0))
            def Z(t):
                y1, y2, d1, d2 = singular_solutions(r, t)
                return np.array([[d1, d2], [y1, y2]])
            Z1inv = np.linalg.inv(Z(1.0))
            nodes = [t for t, _ in fs.drift_log]
            for t in nodes + [1.234e-7, 3.3e-5, 1e-4, 1e-3, 0.0271, 0.3, 0.777, 0.9]:
                expected = Z(t) @ Z1inv
                scale = np.max(np.abs(expected))
                assert np.max(np.abs(fs.matrix(t) - expected)) < 1e-13 * max(1.0, scale), (q, t)

    def test_symplectic_drift_budget(self):
        prob = make_problem("bessel", q=-0.25 - np.pi ** 2)
        fs = fundamental_solution(prob, 1.0, (1e-7, 1.0))
        assert fs.max_drift() < 1e-8

    def test_wronskian_constancy_along_integration(self):
        prob = make_problem("mathieu", a=1.0, q=0.7)
        fs = fundamental_solution(prob, 0.0, (0.0, np.pi))
        z1_0 = np.array([1.0, 0.3])
        z2_0 = np.array([-0.2, 1.1])
        w0 = z1_0 @ S1.form @ z2_0
        for t in np.linspace(0.1, np.pi, 7):
            z1, z2 = fs.matrix(t) @ z1_0, fs.matrix(t) @ z2_0
            assert z1 @ S1.form @ z2 == pytest.approx(w0, abs=1e-9)


class TestBoundaryBracket:
    def test_antisymmetry_zero(self):
        assert boundary_bracket((1.2, -0.3), (1.2, -0.3)) == 0.0

    def test_harmonic_cos_sin(self):
        # [f,g] = f' g - f g' for P = 1; with f = cos, g = sin the value is
        # -(sin^2 + cos^2) = -1, constant in t
        for t in (0.0, 0.7, 2.0):
            f = (np.cos(t), -np.sin(t))
            g = (np.sin(t), np.cos(t))
            assert boundary_bracket(f, g) == pytest.approx(-1.0)

    def test_bessel_pair(self):
        y1, y2 = solution_data(0.5)
        assert boundary_bracket(y1(1e-9), y2(1e-9)) == pytest.approx(-1.0, abs=1e-9)


class TestConjugatePoints:
    def test_harmonic_omega2_on_zero_pi(self):
        prob = make_problem("harmonic", omega=2.0, interval=(0.0, np.pi))
        pts = conjugate_points(prob, (0.0, np.pi), anchor=0.0)
        assert len(pts) == 1
        t, m = pts[0]
        assert t == pytest.approx(np.pi / 2, abs=1e-9) and m == 1

    def test_harmonic_omega10_on_unit(self):
        prob = make_problem("harmonic", omega=10.0)
        pts = conjugate_points(prob, (0.0, 1.0), anchor=0.0)
        assert [m for _, m in pts] == [1, 1, 1]
        assert np.allclose([t for t, _ in pts], [np.pi / 10, 2 * np.pi / 10, 3 * np.pi / 10],
                           atol=1e-9)

    def test_free_particle_none(self):
        prob = make_problem("free")
        assert conjugate_points(prob, (0.0, 1.0)) == []

    def test_monotonicity_in_interval(self):
        prob = make_problem("harmonic", omega=10.0, interval=(0.0, 2.0))
        counts = []
        for d in (0.5, 1.0, 1.5, 2.0):
            pts = conjugate_points(prob, (0.0, d), anchor=0.0)
            counts.append(sum(m for _, m in pts))
        assert counts == sorted(counts)

    @pytest.mark.parametrize("angle", [0.0, 0.7])
    def test_two_bessel_frequencies_give_simple_points(self, angle):
        # R = O diag(-1/4 - pi^2, -1/4 - 2.939^2) O^T / t^2: the zeros of both
        # decoupled Bessel directions, each a simple conjugate point, although
        # one direction dwells near the Dirichlet line while the other crosses
        c, s = math.cos(angle), math.sin(angle)
        O = np.array([[c, -s], [s, c]])
        R = O @ np.diag([-0.25 - math.pi ** 2, -0.25 - 2.939 ** 2]) @ O.T
        prob = SLProblem(2, (0.0, 1.0), 1.0, 0.0, lambda t: R / t ** 2,
                         endpoints=(LIMIT_CIRCLE, REGULAR))
        pts = conjugate_points(prob, (1e-7, 1.0), anchor=1.0)
        zeros = sorted(math.exp(-k * math.pi / nu) for nu in (math.pi, 2.939)
                       for k in range(1, 64) if math.exp(-k * math.pi / nu) > 1e-7)
        assert len(zeros) == 31
        assert [m for _, m in pts] == [1] * 31
        for (t, _), z in zip(sorted(pts), zeros):
            assert abs(t - z) / z < 1e-8

    def test_negative_crossing_raises(self, monkeypatch):
        # with P positive definite every crossing of the Dirichlet plane is
        # positive, so a negative interior record means the scan aliased
        monkeypatch.setattr(sturm, "maslov_clm", lambda *args: (
            -1, [CrossingRecord(0.5, InertiaTriple(0, 0, 1))]))
        with pytest.raises(ContinuityBudgetExceeded, match="negative crossing"):
            conjugate_points(make_problem("harmonic", omega=10.0), (0.0, 1.0))


class TestMorseIndexDirichlet:
    def test_harmonic_regular(self):
        rep = morse_index_dirichlet(make_problem("harmonic", omega=10.0))
        assert rep.verdict == 3

    def test_schedule_too_short(self):
        with pytest.raises(ScheduleTooShort):
            morse_index_dirichlet(make_problem("free"), delta_schedule=(1e-2, 1e-3))

    def test_bessel_q0_friedrichs_index_zero(self):
        rep = morse_index_dirichlet(make_problem("bessel", q=0.0))
        assert rep.verdict == 0
        counts = [c for _, c in rep.diagnostics["delta_trace"]]
        assert all(c == 0 for c in counts)

    def test_bessel_oscillatory_is_infinite(self):
        q = -0.25 - np.pi ** 2
        rep = morse_index_dirichlet(make_problem("bessel", q=q))
        assert rep.verdict == INFINITE
        # conjugate points located on (e^-4, 1) match e^-1, e^-2, e^-3 to 1e-6;
        # the open window excludes the zero sitting at e^-4 itself
        pts = [t for t, _ in rep.conjugate_points if t > math.exp(-4.0) * (1 + 1e-9)]
        expected = [math.exp(-3), math.exp(-2), math.exp(-1)]
        assert len(pts) == 3
        for t, e in zip(sorted(pts), expected):
            assert abs(t - e) / e < 1e-6

    @pytest.mark.parametrize("nu", [1.79, 2.09, 2.3394, 2.939, 3.1899, 3.3176, 3.5092, 3.517])
    def test_bessel_fast_rotation_near_truncation(self, nu):
        # near t = 1e-7 the path turns by nu * dt / t; a refinement floor fixed
        # at (1 - 1e-7) 2^-26 cannot resolve that, a relative one can.  For
        # nu = 2.3394, 2.939, 3.3176, 3.5092 and 3.517 the smallest zero lies
        # within ten percent of the truncation point; in (u, x) the flow
        # swings through a half turn there between samples, and the scan in
        # scaled coordinates must still find that zero
        rep = morse_index_dirichlet(make_problem("bessel", q=-0.25 - nu * nu))
        assert rep.verdict == INFINITE
        assert all(m == 1 for _, m in rep.conjugate_points)
        pts = sorted(t for t, _ in rep.conjugate_points)
        zeros = [math.exp(-k * math.pi / nu) for k in range(1, 64)
                 if math.exp(-k * math.pi / nu) > 1e-7]
        assert len(pts) == len(zeros)
        for t, z in zip(pts, sorted(zeros)):
            assert abs(t - z) / z < 1e-9

    @pytest.mark.parametrize("d, trace", [(2, [0, 1, 1, 1, 2, 2]), (3, [0, 2, 2, 2, 4, 4])])
    def test_euler3_coupled_system(self, d, trace):
        # the only oscillatory direction of the collinear total collision has
        # Bessel coupling -8/15, with multiplicity d - 1; its flow columns
        # differ in size by many orders near t = 0, which the scaled frames
        # balance.  Two zeros lie above 1e-7, too few for either verdict
        rep = morse_index_dirichlet(make_problem("nbody-asymptotic", config_id="euler3", d=d))
        assert rep.verdict == UNDETERMINED
        assert [c for _, c in rep.diagnostics["delta_trace"]] == trace
        scalar = morse_index_dirichlet(make_problem("bessel", q=-8.0 / 15.0))
        assert [c for _, c in scalar.diagnostics["delta_trace"]] == [0, 1, 1, 1, 2, 2]
        nu = math.sqrt(8.0 / 15.0 - 0.25)
        zeros = [math.exp(-k * math.pi / nu) for k in (2, 1)]
        for report, m in ((rep, d - 1), (scalar, 1)):
            assert [mult for _, mult in sorted(report.conjugate_points)] == [m, m]
            for (t, _), z in zip(sorted(report.conjugate_points), zeros):
                assert abs(t - z) / z < 1e-9

    @pytest.mark.parametrize("q", [0.6, 0.7, 0.74, 0.749])
    def test_bessel_limit_circle_up_to_three_quarters(self, q):
        # the flow columns grow to about 1e10 toward t = 0, so a rank
        # threshold growing with their square loses every column
        rep = morse_index_dirichlet(make_problem("bessel", q=q))
        assert rep.verdict == 0
        assert all(c == 0 for _, c in rep.diagnostics["delta_trace"])

    def test_regular_problem_keeps_the_whole_interval(self):
        # every window of the schedule is (a, b), so the counts agree
        assert truncated_span(make_problem("harmonic"), 1e-3) == (0.0, (0.0, 1.0))
        rep = morse_index_dirichlet(make_problem("harmonic", omega=10.0))
        assert [c for _, c in rep.diagnostics["delta_trace"]] == [3] * 6
        assert rep.diagnostics["truncation"] == "none (regular problem)"

    def test_passed_fundamental_solution_is_used(self, monkeypatch):
        problem = make_problem("bessel", q=0.2)
        anchor, finest = truncated_span(problem, sturm.DELTA_SCHEDULE[-1])
        fs = fundamental_solution(problem, anchor, finest)
        built = morse_index_dirichlet(problem)
        calls = []
        monkeypatch.setattr(sturm, "fundamental_solution",
                            lambda *args, **kw: calls.append(args) or fs)
        rep = morse_index_dirichlet(problem, fs=fs)
        assert calls == []
        assert rep.to_json() == built.to_json()

    def test_integrator_steps_reported(self):
        rep = morse_index_dirichlet(make_problem("bessel", q=-0.25 - np.pi ** 2))
        steps = rep.diagnostics["integrator_steps"]
        assert list(steps) == ["backward"] and steps["backward"] >= 8
        rep = morse_index_dirichlet(make_problem("harmonic", omega=10.0))
        assert list(rep.diagnostics["integrator_steps"]) == ["forward"]


class TestEndpointClassify:
    """End labels: a declared end is labelled from its limit matrix D,
    limit circle when some eigendirection of D lies below 3/4."""

    def test_harmonic_regular_both(self):
        prob = make_problem("harmonic", omega=1.0)
        assert prob.endpoints == (REGULAR, REGULAR) and prob.singular_end() is None
        assert prob.limit_matrix is None

    def test_bessel_catalog_overrides(self):
        assert make_problem("bessel", q=0.0).endpoints == (LIMIT_CIRCLE, REGULAR)
        assert make_problem("bessel", q=2.0).endpoints == (LIMIT_POINT, REGULAR)
        assert make_problem("bessel_r", r=0.5).endpoints == (LIMIT_CIRCLE, REGULAR)
        # euler3 at d = 2: five of six directions lie below 3/4 (the largest
        # eigenvalue is 16/15), so the end is limit circle with deficiency 5
        euler = make_problem("nbody-asymptotic", config_id="euler3", d=2)
        assert euler.endpoints == (LIMIT_CIRCLE, REGULAR)
        assert int(np.sum(euler.directions[0] < 0.75)) == 5


class TestTraceMap:
    def test_regular_reduction(self):
        prob = make_problem("harmonic", omega=1.0, interval=(0.0, 1.5))

        def f_data(t):
            return np.sin(t), np.cos(t)     # (value, quasi-derivative)

        vec = trace_map(prob, f_data)
        expected = [np.cos(0.0), np.sin(0.0), np.cos(1.5), np.sin(1.5)]
        assert np.allclose(vec, expected, atol=1e-12)

    def test_bessel_kernel_traces_span_kernel_frame(self):
        prob = make_problem("bessel", q=0.0)
        chart = boundary_chart(prob)
        y1, y2 = solution_data(0.5)
        for y in (y1, y2):
            vec = trace_map(prob, y, chart=chart)
            # the trace of a kernel function lies in the kernel-trace frame
            F = chart.kernel_trace.frame
            res = vec - F @ (F.T @ vec)
            assert np.linalg.norm(res) < 1e-8 * max(1.0, np.linalg.norm(vec))

    def test_limit_point_produces_only_regular_block(self):
        prob = make_problem("bessel", q=2.0)

        def f_data(t):
            return t ** 2, 2.0 * t

        vec = trace_map(prob, f_data)
        assert vec.shape == (2,)
        assert np.allclose(vec, [2.0, 1.0])

    @pytest.mark.parametrize("q", [0.2, 0.4, 0.5, 0.7])
    def test_exact_kernel_functions(self, q):
        # f = alpha t^(1/2-r) + beta t^(1/2+r) has constant brackets, and
        # its trace is (r (alpha - beta), -(alpha + beta), f'(1), f(1)); the
        # bracket's two terms grow like t^(-2r) and cancel to roundoff
        r = math.sqrt(q + 0.25)
        prob = make_problem("bessel", q=q)
        chart = boundary_chart(prob)
        for alpha, beta in np.random.default_rng(4).standard_normal((20, 2)):
            def f_data(t):
                return (alpha * t ** (0.5 - r) + beta * t ** (0.5 + r),
                        alpha * (0.5 - r) * t ** (-0.5 - r) + beta * (0.5 + r) * t ** (r - 0.5))

            expected = [r * (alpha - beta), -(alpha + beta),
                        alpha * (0.5 - r) + beta * (0.5 + r), alpha + beta]
            assert np.allclose(trace_map(prob, f_data, chart=chart), expected,
                               rtol=1e-9, atol=1e-9)

    def test_divergent_bracket_detected(self):
        prob = make_problem("bessel", q=0.0)
        chart = boundary_chart(prob)

        def f_bad(t):         # data of t^{-1}, far outside the maximal domain
            return 1.0 / t, -1.0 / t ** 2

        with pytest.raises(BracketLimitDiverges):
            trace_map(prob, f_bad, chart=chart)


class TestMorseIndexGeneral:
    def test_singular_end_outside_catalog_has_no_chart(self):
        # Bessel q = 0.3 coefficients without a declared limit matrix: no
        # kernel basis
        prob = SLProblem(1, (0.0, 1.0), 1.0, 0.0, lambda t: 0.3 / t ** 2,
                         endpoints=(LIMIT_CIRCLE, REGULAR))
        with pytest.raises(KernelBasisUnavailable):
            boundary_chart(prob)

    def test_dirichlet_matches_dirichlet_route(self):
        prob = make_problem("harmonic", omega=2.0, interval=(0.0, np.pi))
        rep = morse_index_general(prob, BoundaryCondition("dirichlet"))
        assert rep.verdict == 1
        assert rep.diagnostics["triple_index_correction"] == 0

    def test_neumann_correction(self):
        # Neumann spectrum of -d^2 - 4 on (0, pi): k^2 - 4, k >= 0: two
        # negative eigenvalues (-4, -3); Dirichlet index is 1
        prob = make_problem("harmonic", omega=2.0, interval=(0.0, np.pi))
        rep = morse_index_general(prob, BoundaryCondition("neumann"))
        assert rep.verdict == 2
        assert rep.diagnostics["triple_index_correction"] == 1

    def test_regular_problem_integrates_once(self, monkeypatch):
        # Neumann spectrum of -d^2 - 7.3^2 on (0, pi): k^2 - 53.29, k = 0..7
        prob = make_problem("harmonic", omega=7.3, interval=(0.0, np.pi))
        two_builds = morse_index_general(prob, "neumann",
                                         chart=sturm.regular_boundary_chart(prob))
        calls = []
        integrate = sturm.FundamentalSolution._integrate

        def counting(*args):
            calls.append(args[1:3])
            return integrate(*args)

        monkeypatch.setattr(sturm.FundamentalSolution, "_integrate", staticmethod(counting))
        rep = morse_index_general(prob, "neumann")
        assert calls == [(0.0, np.pi)]
        assert rep.verdict == 8
        assert rep.to_json() == two_builds.to_json()

    def test_mixed_neumann_dirichlet(self):
        # u'(0) = 0, u(pi) = 0: eigenvalues (k+1/2)^2 - 4: two negative
        prob = make_problem("harmonic", omega=2.0, interval=(0.0, np.pi))
        chart = boundary_chart(prob)
        lam = direct_sum_frame(neumann_frame(S1), dirichlet_frame(S1))
        rep = morse_index_general(prob, lam, chart=chart)
        assert rep.verdict == 2

    def test_bessel_friedrichs_is_dirichlet_route(self):
        prob = make_problem("bessel", q=0.0)
        rep = morse_index_general(prob, BoundaryCondition("friedrichs"))
        assert rep.verdict == 0
        assert rep.diagnostics["triple_index_correction"] == 0

    def test_bessel_rotating_condition_corrections(self):
        # rotating the singular-end line off the Friedrichs line: clockwise
        # in the chart's (-[f, y1], [f, y2]) plane gains the negative
        # eigenvalue, counterclockwise does not.  Oracle:
        # the line through (r (alpha - beta), -(alpha + beta)) holds the data
        # of the lambda = 0 solution alpha t^(1/2-r) + beta t^(1/2+r), which
        # has a zero in (0, 1), hence one negative eigenvalue, exactly when
        # 0 < -alpha/beta < 1
        from symind.core import rotation_matrix
        r = 0.5
        prob = make_problem("bessel", q=r * r - 0.25)
        chart = boundary_chart(prob)
        F_left = chart.friedrichs.frame[:2, :1]
        left_space = SymplecticSpace.minus_plus(1, 0)
        for theta, expected in ((-0.3, 1), (0.3, 0)):
            col = rotation_matrix(left_space, theta) @ F_left
            alpha = 0.5 * (col[0, 0] / r - col[1, 0])
            beta = -0.5 * (col[0, 0] / r + col[1, 0])
            assert int(0.0 < -alpha / beta < 1.0) == expected
            lam = direct_sum_frame(col, dirichlet_frame(S1).frame)
            assert morse_index_general(prob, lam, chart=chart).verdict == expected

    @pytest.mark.parametrize("q", [-0.2, 0.0, 0.2, 0.5, 0.7])
    def test_bessel_lines_match_zero_count(self, q):
        # the oracle of the test above on random lines (r(alpha - beta),
        # -(alpha + beta)), Dirichlet data at 1; draws whose lambda = 0
        # solution nearly vanishes at 1 (a zero eigenvalue) are redrawn
        r = math.sqrt(q + 0.25)
        prob = make_problem("bessel", q=q)
        chart = boundary_chart(prob)
        rng = np.random.default_rng(int(1000 * (q + 1)))
        checked = 0
        while checked < 12:
            alpha, beta = rng.standard_normal(2)
            if abs(alpha + beta) < 0.1 * (abs(alpha) + abs(beta)):
                continue
            left = line_frame(SymplecticSpace.minus_plus(1, 0),
                              [r * (alpha - beta), -(alpha + beta)])
            rep = morse_index_general(prob, direct_sum_frame(left, dirichlet_frame(S1)),
                                      chart=chart)
            assert rep.verdict == int(0.0 < -alpha / beta < 1.0), (alpha, beta)
            checked += 1

    @staticmethod
    def secular_sign_changes(r, alpha, beta):
        # F(kappa) = alpha G(1-r) (kappa/2)^r I_-r(kappa) + beta G(1+r)
        # (kappa/2)^-r I_r(kappa) is the value at t = 1 of the lambda =
        # -kappa^2 solution sqrt(t) (...) that starts as alpha t^(1/2-r) +
        # beta t^(1/2+r); each sign change on kappa in (1e-6, 1e4), twelve
        # samples a decade, is a negative eigenvalue
        with mpmath.workdps(30):
            r, alpha, beta = (mpmath.mpf(x) for x in (r, alpha, beta))
            ga, gb = mpmath.gamma(1 - r), mpmath.gamma(1 + r)
            signs = [mpmath.sign(alpha * ga * (k / 2) ** r * mpmath.besseli(-r, k)
                                 + beta * gb * (k / 2) ** -r * mpmath.besseli(r, k))
                     for k in (mpmath.mpf(10) ** (mpmath.mpf(j) / 12) for j in range(-72, 49))]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    @pytest.mark.parametrize("q", [-0.2, 0.1, 0.45, 0.7])
    def test_bessel_lines_match_secular_function(self, q):
        # the left line is the trace of alpha t^(1/2-r) + beta t^(1/2+r),
        # with Dirichlet data at 1.  Draws with a small alpha + beta (an
        # eigenvalue near 0) or a small alpha (an eigenvalue beyond the
        # kappa window) are redrawn
        r = math.sqrt(q + 0.25)
        prob = make_problem("bessel", q=q)
        chart = boundary_chart(prob)
        rng = np.random.default_rng(int(1000 * (q + 1)) + 7)
        checked = 0
        while checked < 8:
            alpha, beta = rng.standard_normal(2)
            if abs(alpha + beta) < 0.1 * (abs(alpha) + abs(beta)) or abs(alpha) < 0.1 * abs(beta):
                continue

            def f_data(t):
                tm, tp = t ** (0.5 - r), t ** (0.5 + r)
                return alpha * tm + beta * tp, ((0.5 - r) * alpha * tm + (0.5 + r) * beta * tp) / t

            left = line_frame(SymplecticSpace.minus_plus(1, 0), trace_map(prob, f_data, chart)[:2])
            rep = morse_index_general(prob, direct_sum_frame(left, dirichlet_frame(S1)),
                                      chart=chart)
            assert rep.verdict == self.secular_sign_changes(r, alpha, beta), (alpha, beta)
            checked += 1

    def test_declared_end_lines_match_the_direction_sum(self):
        # D = V diag(lam) V^T with a seeded rotation V: two limit-circle
        # directions and one limit-point one (lam = 1).  The left line of
        # direction j, at the angle theta_j in its coordinate pair, is the
        # trace of (alpha t^(1/2-r) + beta t^(1/2+r)) v_j, with Dirichlet data
        # at 1; the problem decouples along V, so the index is the sum of the
        # scalar secular counts, and the limit-point direction adds that of
        # its principal solution t^(1/2+nu) alone
        lam = np.array([-0.2, 0.45, 1.0])
        rng = np.random.default_rng(22)
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        prob = bessel_problem(V @ np.diag(lam) @ V.T)
        chart = boundary_chart(prob)
        assert chart.space.blocks == (2, 3)
        r = np.sqrt(lam[:2] + 0.25)
        nu = math.sqrt(lam[2] + 0.25)
        dirichlet_b = dirichlet_frame(SymplecticSpace.standard(3))
        verdicts = []
        while len(verdicts) < 6:
            theta = rng.uniform(0.0, math.pi, 2)
            alpha = 0.5 * (np.cos(theta) / r - np.sin(theta))
            beta = -0.5 * (np.cos(theta) / r + np.sin(theta))
            if np.any((np.abs(alpha + beta) < 0.1 * (np.abs(alpha) + np.abs(beta)))
                      | (np.abs(alpha) < 0.1 * np.abs(beta))):
                continue
            lines = []
            for j in range(2):
                def f_data(t, a=alpha[j], b=beta[j], rj=r[j], v=prob.directions[1][:, j]):
                    tm, tp = t ** (0.5 - rj), t ** (0.5 + rj)
                    return (a * tm + b * tp) * v, ((0.5 - rj) * a * tm + (0.5 + rj) * b * tp) / t * v

                left = trace_map(prob, f_data, chart)[:4].reshape(2, 2)
                assert np.allclose(np.delete(left, j, axis=1), 0.0, atol=1e-9)
                assert np.allclose(left[:, j], [np.cos(theta[j]), np.sin(theta[j])], atol=1e-9)
                lines.append(left[:, j])
            lines = np.array(lines)
            lam_frame = direct_sum_frame(np.vstack([np.diag(lines[:, 0]), np.diag(lines[:, 1])]),
                                         dirichlet_b)
            expected = sum(self.secular_sign_changes(rj, a, b)
                           for rj, a, b in zip(r, alpha, beta))
            expected += self.secular_sign_changes(nu, 0.0, 1.0)
            rep = morse_index_general(prob, lam_frame, chart=chart)
            assert rep.verdict == expected, theta
            verdicts.append(expected)
        assert len(set(verdicts)) == 3          # the draws reach 0, 1 and 2

    def test_euler3_chart_keeps_the_friedrichs_verdict(self):
        # euler3 at d = 2: five limit-circle directions give a left block of
        # dimension 10; the oscillatory one (-8/15) leaves no Friedrichs
        # frame, and the Dirichlet route's Undetermined holds for Neumann data
        prob = make_problem("nbody-asymptotic", config_id="euler3", d=2)
        chart = boundary_chart(prob)
        assert chart.space.blocks == (5, 6) and chart.friedrichs is None
        assert chart.kernel_trace.isotropy_residual() < 1e-12
        rep = morse_index_general(prob, "neumann", chart=chart)
        assert rep.verdict == UNDETERMINED
        assert rep.reason == morse_index_dirichlet(prob).reason

    def test_finite_index_needs_a_friedrichs_frame(self):
        prob = make_problem("harmonic", omega=2.0, interval=(0.0, np.pi))
        chart = sturm.BoundaryChart(prob, boundary_chart(prob).kernel_trace, None)
        with pytest.raises(KernelBasisUnavailable):
            morse_index_general(prob, "neumann", chart=chart)

    @pytest.mark.parametrize("q", [-0.2, 0.0, 0.3, 0.5])
    def test_bessel_neumann_line(self, q):
        # "neumann" puts f proportional to y1 at 0 and f'(1) = 0.  With
        # f = y1 g and y1 > 0 the form is int y1^2 g'^2 + y1 y1'(1) g(1)^2,
        # and y1(1) y1'(1) = 1/2, so the Morse index is 0
        rep = morse_index_general(make_problem("bessel", q=q), BoundaryCondition("neumann"))
        assert rep.verdict == 0

    @pytest.mark.parametrize("theta,expected", [(0.3, 1), (-0.3, 2), (1.0, 1), (-1.0, 2)])
    def test_robin_line_counts(self, theta, expected):
        # harmonic omega = 1.5 on (0, pi), left line (cos theta, sin theta) in
        # (x^[1](0), x(0)), Dirichlet data at pi; oracles: the zeros in
        # (0, pi) of the lambda = 0 solution with x(0) = sin theta,
        # x'(0) = cos theta, and the discretized count
        omega = 1.5
        prob = make_problem("harmonic", omega=omega, interval=(0.0, math.pi))
        lam = direct_sum_frame(line_frame(S1, [math.cos(theta), math.sin(theta)]),
                               dirichlet_frame(S1))
        t = np.linspace(0.0, math.pi, 20001)[1:-1]
        x = math.sin(theta) * np.cos(omega * t) + math.cos(theta) * np.sin(omega * t) / omega
        assert int(np.sum(np.sign(x[1:]) != np.sign(x[:-1]))) == expected
        assert discretize(prob, lam, 2048).morse_count() == expected
        assert morse_index_general(prob, lam).verdict == expected

    def test_random_robin_lines_match_discretize(self):
        # two-end Robin lines on harmonic problems, against the discretized
        # count.  Draws with an eigenvalue within 0.05 of zero are redrawn, and
        # so are lines within 0.1 of Dirichlet data, where an eigenvalue dives
        # below what N = 2048 resolves
        rng = np.random.default_rng(16)
        checked = 0
        while checked < 60:
            omega = rng.uniform(0.5, 3.5)
            ta, tb = rng.uniform(0.0, math.pi, 2)
            if min(abs(math.sin(ta)), abs(math.sin(tb))) < 0.1:
                continue
            prob = make_problem("harmonic", omega=omega, interval=(0.0, math.pi))
            lam = direct_sum_frame(line_frame(S1, [math.cos(ta), math.sin(ta)]),
                                   line_frame(S1, [math.cos(tb), math.sin(tb)]))
            op = discretize(prob, lam, 2048)
            if np.min(np.abs(op.eigenvalues(k=6))) < 0.05:
                continue
            rep = morse_index_general(prob, lam)
            assert rep.verdict == op.morse_count(), (omega, ta, tb)
            checked += 1

    @pytest.mark.parametrize("omega,left,right,expected", [
        (1.5, "neumann", "dirichlet", 1),   # (k + 1/2)^2 - 2.25: -2, 0
        (0.5, "neumann", "dirichlet", 0),   # (k + 1/2)^2 - 0.25: 0, 2
        (1.0, "neumann", "neumann", 1),     # k^2 - 1: -1, 0
        (2.0, "neumann", "neumann", 2),     # k^2 - 4: -4, -3, 0
        (2.0, "robin", "dirichlet", 2),     # the Dirichlet zero mode sin 2t goes negative
    ])
    def test_zero_modes(self, omega, left, right, expected):
        # L_Lambda or the Dirichlet operator has a kernel: iota counts the
        # change of Morse index plus nullity, so the nullities dim(K cap
        # Lambda_F) and dim(K cap Lambda) enter the correction
        frames = {"neumann": neumann_frame(S1), "dirichlet": dirichlet_frame(S1),
                  "robin": line_frame(S1, [math.cos(0.3), math.sin(0.3)])}
        prob = make_problem("harmonic", omega=omega, interval=(0.0, math.pi))
        lam = direct_sum_frame(frames[left], frames[right])
        assert discretize(prob, lam, 2048).morse_count() == expected
        assert morse_index_general(prob, lam).verdict == expected


class TestResolveBoundaryCondition:
    PROB = make_problem("harmonic", omega=2.0, interval=(0.0, np.pi))

    @pytest.mark.parametrize("bc", [
        "dirichlet", "neumann", BoundaryCondition("dirichlet"), BoundaryCondition("neumann"),
        BoundaryCondition("general", direct_sum_frame(neumann_frame(S1), dirichlet_frame(S1)))])
    def test_same_frame_for_chart_and_discretize(self, bc):
        chart = boundary_chart(self.PROB)
        frame = resolve_boundary_condition(self.PROB, bc, chart)
        assert frame.space == chart.space
        assert np.array_equal(frame.frame, resolve_boundary_condition(self.PROB, bc).frame)
        by_name, by_frame = discretize(self.PROB, bc, 64), discretize(self.PROB, frame, 64)
        assert np.array_equal(by_name.matrix, by_frame.matrix)
        assert np.array_equal(by_name.mass, by_frame.mass)

    def test_friedrichs_needs_a_chart(self):
        chart = boundary_chart(self.PROB)
        assert resolve_boundary_condition(self.PROB, "friedrichs", chart) is chart.friedrichs
        with pytest.raises(KernelBasisUnavailable):
            discretize(self.PROB, "friedrichs", 64)

    @pytest.mark.parametrize("bc", ["robin", BoundaryCondition("robin"), BoundaryCondition("general")])
    def test_unknown_condition_raises_on_every_route(self, bc):
        with pytest.raises(UnknownBoundaryCondition):
            morse_index_general(self.PROB, bc)
        with pytest.raises(UnknownBoundaryCondition):
            discretize(self.PROB, bc, 64)

    def test_declared_end_resolves_in_the_chart_space(self):
        # q = 2 is limit point at 0, so its chart has no left coordinates:
        # names resolve in minus_plus(0, 1), and a two-end frame does not fit
        prob = make_problem("bessel", q=2.0)
        chart = boundary_chart(prob)
        assert chart.space.blocks == (0, 1)
        frame = resolve_boundary_condition(prob, "neumann", chart)
        assert frame.space == chart.space and np.array_equal(frame.frame, [[0.0], [1.0]])
        with pytest.raises(SpaceMismatch):
            resolve_boundary_condition(prob, resolve_boundary_condition(prob, "neumann"), chart)

    def test_frame_of_another_space(self):
        with pytest.raises(SpaceMismatch):
            discretize(self.PROB, direct_sum_frame(dirichlet_frame(SymplecticSpace.standard(2)),
                                                   dirichlet_frame(S1)), 64)
