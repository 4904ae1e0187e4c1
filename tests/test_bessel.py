"""Closed-form Bessel machinery against hand-evaluated values."""

import math

import numpy as np
import pytest

from symind.bessel import (
    FINITE_MORSE,
    INFINITE_MORSE,
    THRESHOLD,
    direction_classes,
    expected_growth_per_decade,
    friedrichs_trace_frame,
    limit_circle,
    principal_coefficients,
    q_of_r,
    r_of_q,
    singular_solutions,
    solution_data,
    zero_sequence,
)
from symind.errors import LimitPointNoCondition, OutOfRange
from symind.sturm import LIMIT_CIRCLE, LIMIT_POINT, bessel_problem, boundary_bracket


class TestReparametrization:
    def test_values(self):
        assert q_of_r(0.5) == pytest.approx(0.0)
        assert q_of_r(0.0) == pytest.approx(-0.25)
        assert q_of_r(-1.0) == pytest.approx(-1.25)

    def test_round_trip(self):
        for q in (-5.0, -1.25, -0.25, 0.0, 0.5, 0.74):
            assert q_of_r(r_of_q(q)) == pytest.approx(q, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            q_of_r(1.0)
        with pytest.raises(OutOfRange):
            r_of_q(0.75)


class TestSingularSolutions:
    def test_values_at_one(self):
        y1, y2, _, _ = singular_solutions(0.5, 1.0)
        assert y1 == pytest.approx(1.0)
        assert y2 == pytest.approx(0.0)

    @pytest.mark.parametrize("r", [0.5, 0.25, 0.0, -0.7, -math.pi])
    def test_bracket_is_minus_one_for_all_t(self, r):
        y1d, y2d = solution_data(r)
        for t in (1e-6, 1e-3, 0.1, 0.7, 1.0):
            w = boundary_bracket(y1d(t), y2d(t))
            assert w == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("r", [0.5, 0.3, -0.4, -2.0])
    def test_solves_the_equation(self, r):
        # finite-difference second derivative against q y / t^2; h large enough
        # that the eps/h^2 cancellation noise stays below the tolerance
        q = q_of_r(r)
        h = 1e-4
        for t in (0.2, 0.5, 0.9):
            y1m, y2m, _, _ = singular_solutions(r, t - h)
            y1, y2, _, _ = singular_solutions(r, t)
            y1p, y2p, _, _ = singular_solutions(r, t + h)
            for ym, y, yp in ((y1m, y1, y1p), (y2m, y2, y2p)):
                ypp = (yp - 2 * y + ym) / h ** 2
                assert ypp == pytest.approx(q * y / t ** 2, rel=1e-4, abs=1e-5)

    def test_r_to_zero_continuity(self):
        r = 1e-6
        for t in (0.3, 0.8):
            y1r, y2r, d1r, d2r = singular_solutions(r, t)
            y10, y20, d10, d20 = singular_solutions(0.0, t)
            assert y1r == pytest.approx(y10, abs=1e-5)
            assert y2r == pytest.approx(y20, abs=1e-5)
            assert d1r == pytest.approx(d10, abs=1e-4)
            assert d2r == pytest.approx(d20, abs=1e-4)

    def test_negative_r_zeros(self):
        # r = -pi (q = -1/4 - pi^2): y2 vanishes at t = e^{-k}
        _, y2, _, _ = singular_solutions(-math.pi, math.exp(-2.0))
        assert y2 == pytest.approx(0.0, abs=1e-12)


class TestZeroSequence:
    def test_pi_frequency(self):
        q = -0.25 - math.pi ** 2
        zeros = zero_sequence(q, (math.exp(-4.0), 1.0))
        assert np.allclose(zeros, [math.exp(-1), math.exp(-2), math.exp(-3)], rtol=1e-12)

    def test_doubled_frequency(self):
        # nu = 2 pi: zeros at e^{-k/2}, k >= 1, inside (e^-4, 1]: k = 1..7
        q = -0.25 - (2 * math.pi) ** 2
        zeros = zero_sequence(q, (math.exp(-4.0), 1.0))
        expected = [math.exp(-k / 2) for k in range(1, 8)]
        assert np.allclose(zeros, expected, rtol=1e-12)
        assert len(zeros) == 7

    def test_slow_frequency_empty(self):
        zeros = zero_sequence(-0.26, (0.9, 1.0))
        assert zeros == []

    def test_requires_oscillatory_coupling(self):
        with pytest.raises(OutOfRange):
            zero_sequence(0.0, (0.1, 1.0))


class TestClassify:
    """Direction classes of a declared end, read from the decomposition of
    its limit matrix."""

    def test_constant_minus_half_is_infinite(self):
        lam, _ = bessel_problem(-0.5).directions
        assert direction_classes(lam) == ([INFINITE_MORSE], INFINITE_MORSE)
        assert expected_growth_per_decade(lam) == pytest.approx(0.5 * math.log(10) / math.pi)

    def test_diagonal_mixed_directions(self):
        # ascending eigenvalues; the 1.0 direction is limit point, the -1.0
        # one limit circle, so the end is labelled limit circle
        prob = bessel_problem(np.diag([1.0, -1.0]))
        lam, V = prob.directions
        assert direction_classes(lam) == ([INFINITE_MORSE, FINITE_MORSE], INFINITE_MORSE)
        assert limit_circle(lam).tolist() == [True, False]
        assert np.allclose(V @ np.diag(lam) @ V.T, prob.limit_matrix)
        assert prob.endpoints[0] == LIMIT_CIRCLE
        assert bessel_problem(np.diag([1.0, 0.75])).endpoints[0] == LIMIT_POINT

    def test_threshold_contact_is_reported(self):
        lam, _ = bessel_problem(-0.25).directions
        assert direction_classes(lam)[1] == THRESHOLD

    @pytest.mark.parametrize("lam, verdict", [(-0.25 + 2e-12, FINITE_MORSE),
                                              (-0.25 - 2e-12, INFINITE_MORSE),
                                              (-0.25, THRESHOLD),
                                              (-0.25 + 5e-13, THRESHOLD)])
    def test_threshold_band(self, lam, verdict):
        assert direction_classes([lam]) == ([verdict], verdict)

    @pytest.mark.parametrize("eigs, overall", [([0.0, 1.0], FINITE_MORSE),
                                               ([-0.25, 1.0], THRESHOLD),
                                               ([-1.0, -0.25, 1.0], INFINITE_MORSE),
                                               ([1.0, -1.0], INFINITE_MORSE)])
    def test_precedence(self, eigs, overall):
        per, got = direction_classes(eigs)
        assert len(per) == len(eigs) and got == overall


class TestClassifyMatchesMorseVerdict:
    @pytest.mark.parametrize("q", [0.0, 0.5, -0.25 - math.pi ** 2])
    def test_scalar_catalog_agreement(self, q):
        from symind.catalog import make_problem
        from symind.report import INFINITE
        from symind.sturm import morse_index_dirichlet

        prob = make_problem("bessel", q=q)
        verdict = direction_classes(prob.directions[0])[1]
        rep = morse_index_dirichlet(prob)
        if verdict == FINITE_MORSE:
            assert isinstance(rep.verdict, int)
        else:
            assert verdict == INFINITE_MORSE and rep.verdict == INFINITE


class TestFriedrichsFrame:
    def test_principal_solution_is_selected(self):
        # the trace of t^(1/2+r) = y1 + r y2 lies on the line, and the trace
        # of t^(1/2-r) = y1 - r y2 does not
        from symind.catalog import make_problem
        from symind.sturm import boundary_chart, trace_map

        def power(e):
            return lambda t: (t ** e, e * t ** (e - 1.0))

        for r in (0.2, 0.5, 0.9):
            prob = make_problem("bessel", q=r * r - 0.25)
            chart = boundary_chart(prob)
            F = friedrichs_trace_frame(r)
            assert np.array_equal(chart.friedrichs.frame[:2, :1], F.frame)
            passing = trace_map(prob, power(0.5 + r), chart=chart)[:2]
            failing = trace_map(prob, power(0.5 - r), chart=chart)[:2]
            proj = F.frame @ (F.frame.T @ passing)
            assert np.linalg.norm(proj - passing) < 1e-9 * np.linalg.norm(passing)
            proj_bad = F.frame @ (F.frame.T @ failing)
            assert np.linalg.norm(proj_bad - failing) > 1e-3 * np.linalg.norm(failing)

    def test_limit_point_has_no_condition(self):
        with pytest.raises(LimitPointNoCondition):
            friedrichs_trace_frame(1.0)

    def test_threshold_line_is_the_principal_solution(self):
        # at r = 0 the principal solution is t^(1/2) = y1, whose trace
        # (-[y1, y1], [y1, y2]) = (0, -1) spans the line (0, 1)
        F = friedrichs_trace_frame(0.0)
        assert np.allclose(np.abs(F.frame[:, 0]), [0.0, 1.0], atol=0.0)

    def test_frame_is_lagrangian_line(self):
        F = friedrichs_trace_frame(0.5)
        assert F.isotropy_residual() < 1e-14
        assert F.frame.shape == (2, 1)

    def test_principal_coefficients(self):
        # t^(1/2+r) = y1 + r y2 identically
        r = 0.37
        a = principal_coefficients(r)
        for t in (0.2, 0.6, 1.0):
            y1, y2, _, _ = singular_solutions(r, t)
            assert a[0] * y1 + a[1] * y2 == pytest.approx(t ** (0.5 + r), rel=1e-12)
