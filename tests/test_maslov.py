"""Crossing forms, CLM index, triple and Hormander indices.

Hand-derived oracles used below (standard Omega on R^2, ordering (p, q)):

* l(t) = span{(cos t, sin t)} against span{(1,0)} at t0=0: take W = q-axis,
  then (1, w(t)) lies on l(t) iff w = tan t, omega(v, w(t)) = tan t, so the
  crossing form derivative is +1 -> inertia (1, 0, 0).
* The clockwise line span{(cos t, -sin t)} flips the sign -> (0, 0, 1).
* iota(x-axis, y-axis, span{(1,1)}): C(1,0) = (0,1), Q = omega((0,1),(1,0)) = -1,
  all intersections trivial -> 0; with gamma = span{(1,-1)}: Q = +1 -> 1.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from symind.core import (
    InertiaTriple,
    LagrangianFrame,
    SymplecticSpace,
    apply_symplectic,
    dirichlet_frame,
    rotation_matrix,
    gap_distance,
    intersection_basis,
    line_frame,
    neumann_frame,
    random_lagrangian,
    random_symplectic,
)
from symind.errors import NotACrossing, SymindError
import symind.maslov as maslov
from symind.maslov import (
    CONTINUITY_BUDGET,
    LagrangianPath,
    _refined_grid,
    chart_coindex,
    crossing_form,
    hormander_index,
    hormander_via_maslov,
    maslov_clm,
    relative_crossing_matrix,
    triple_index,
)

S1 = SymplecticSpace.standard(1)


def ccw_line_path(a, b):
    """span{(cos t, sin t)}: counterclockwise rotation of the p-axis."""
    def fun(t):
        return LagrangianFrame(S1, np.array([[np.cos(t)], [np.sin(t)]]))
    return LagrangianPath(S1, fun, a, b)


def cw_line_path(a, b):
    def fun(t):
        return LagrangianFrame(S1, np.array([[np.cos(t)], [-np.sin(t)]]))
    return LagrangianPath(S1, fun, a, b)


class TestCrossingForm:
    def test_ccw_rotation_positive(self):
        path = ccw_line_path(-0.5, 0.5)
        ref = line_frame(S1, [1.0, 0.0])
        assert crossing_form(path, ref, 0.0) == InertiaTriple(1, 0, 0)

    def test_cw_rotation_negative(self):
        path = cw_line_path(-0.5, 0.5)
        ref = line_frame(S1, [1.0, 0.0])
        assert crossing_form(path, ref, 0.0) == InertiaTriple(0, 0, 1)

    def test_constant_path_fully_degenerate(self):
        ref = dirichlet_frame(S1)
        path = LagrangianPath.constant(ref, 0.0, 1.0)
        assert crossing_form(path, ref, 0.5) == InertiaTriple(0, 1, 0)

    def test_not_a_crossing(self):
        path = ccw_line_path(-0.5, 0.5)
        with pytest.raises(NotACrossing):
            crossing_form(path, neumann_frame(S1), 0.0)

    def test_chart_independence_check_runs(self):
        path = ccw_line_path(-0.5, 0.5)
        ref = line_frame(S1, [1.0, 0.0])
        rng = np.random.default_rng(0)
        assert crossing_form(path, ref, 0.0, check_rng=rng) == InertiaTriple(1, 0, 0)


class TestMaslovClm:
    def test_interior_crossing_plus_one(self):
        ref = LagrangianPath.constant(line_frame(S1, [1.0, 0.0]), -np.pi / 4, np.pi / 4)
        mu, recs = maslov_clm(ref, ccw_line_path(-np.pi / 4, np.pi / 4))
        assert mu == 1
        assert len(recs) == 1 and abs(recs[0].t) < 1e-9
        assert recs[0].multiplicity == 1

    def test_endpoint_rule_zero_to_pi(self):
        ref = LagrangianPath.constant(line_frame(S1, [1.0, 0.0]), 0.0, np.pi)
        mu, recs = maslov_clm(ref, ccw_line_path(0.0, np.pi))
        # crossing at a=0 contributes n_plus = 1; at b=pi the derivative is
        # again positive so n_minus = 0 contributes nothing
        assert mu == 1
        assert {round(r.t, 9) for r in recs} == {0.0, round(np.pi, 9)}

    def test_transversal_constant_pair(self):
        ref = LagrangianPath.constant(dirichlet_frame(S1), 0.0, 1.0)
        mov = LagrangianPath.constant(neumann_frame(S1), 0.0, 1.0)
        mu, recs = maslov_clm(ref, mov)
        assert mu == 0 and recs == []

    def test_coincident_constant_pair_is_zero(self):
        ref = LagrangianPath.constant(dirichlet_frame(S1), 0.0, 1.0)
        mov = LagrangianPath.constant(dirichlet_frame(S1), 0.0, 1.0)
        mu, _ = maslov_clm(ref, mov)
        assert mu == 0

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_constant_self_pair_is_zero(self, n, seed):
        # the phases of W = I sit at the cut and move only by roundoff
        # (about 1e-33 per step), so both endpoints count them as zero
        L = random_lagrangian(SymplecticSpace.standard(n), np.random.default_rng(seed))
        mu, recs = maslov_clm(LagrangianPath.constant(L, 0.0, 1.0),
                              LagrangianPath.constant(L, 0.0, 1.0))
        assert mu == 0
        assert [(r.t, r.inertia) for r in recs] == [(0.0, InertiaTriple(0, n, 0)),
                                                    (1.0, InertiaTriple(0, n, 0))]

    def test_full_turn_is_two(self):
        # one full half-turn of a line meets the reference twice; over [eps,
        # pi+eps] both crossings are interior and each scores +1
        eps = 0.3
        ref = LagrangianPath.constant(line_frame(S1, [1.0, 0.0]), eps, np.pi + eps)
        mu, recs = maslov_clm(ref, ccw_line_path(eps, np.pi + eps))
        assert mu == 1 and len(recs) == 1  # only t = pi is a crossing in there
        ref2 = LagrangianPath.constant(line_frame(S1, [1.0, 0.0]), eps, 2 * np.pi + eps)
        mu2, recs2 = maslov_clm(ref2, ccw_line_path(eps, 2 * np.pi + eps))
        assert mu2 == 2 and len(recs2) == 2
        # a full-turn path must not be mistaken for a constant one: crossing
        # forms stay regular and positive
        assert all(r.inertia == InertiaTriple(1, 0, 0) for r in recs2)

    @pytest.mark.parametrize("ahead", [5e-4, 1.0 - 5e-4])
    def test_crossing_inside_an_edge_sample_interval(self, ahead):
        # the reference lies 5e-4 rad past the start (or before the end) of
        # a unit rotation, inside the first (last) of the 256 sample
        # intervals, where the sampled sine is smallest at the end sample
        base = line_frame(S1, [1.0, 0.0])
        ref = LagrangianFrame(S1, rotation_matrix(S1, ahead) @ base.frame)
        path = LagrangianPath.rotation(base, lambda t: t, 0.0, 1.0)
        mu, recs = maslov_clm(path, LagrangianPath.constant(ref, 0.0, 1.0))
        assert mu == 1
        assert len(recs) == 1 and abs(recs[0].t - ahead) < 1e-9

    def test_interior_instant_stays_inside_the_interval(self, monkeypatch):
        # a root that lands on t = b is still an interior instant, apart from
        # the endpoint records that callers drop
        monkeypatch.setattr(maslov, "_locate", lambda p1, p2, lo, hi, *rest: (hi.copy(), 1e-12 * hi))
        base = line_frame(S1, [1.0, 0.0])
        ref = LagrangianFrame(S1, rotation_matrix(S1, 1.0 - 5e-4) @ base.frame)
        path = LagrangianPath.rotation(base, lambda t: t, 0.0, 1.0)
        mu, recs = maslov_clm(path, LagrangianPath.constant(ref, 0.0, 1.0))
        assert mu == 1
        assert len(recs) == 1 and 1.0 - 1e-15 < recs[0].t < 1.0

    def test_half_turn_inside_one_sample_interval(self):
        # the line turns from 0.02 to pi - 0.02 rad within about 1e-11 around
        # t = 0.3001, between grid samples, and never meets the reference; the
        # shorter arc reads a clockwise pass, which a caller that knows every
        # crossing is positive has confirmed as the half turn
        def fun(t):
            angle = 0.02 + (np.pi - 0.04) * (0.5 + np.arctan((t - 0.3001) / 1e-11) / np.pi)
            return LagrangianFrame(S1, np.array([[np.cos(angle)], [np.sin(angle)]]))
        ref = LagrangianPath.constant(line_frame(S1, [1.0, 0.0]), 0.0, 1.0)
        path = LagrangianPath(S1, fun, 0.0, 1.0)
        assert maslov_clm(ref, path)[0] == -1
        assert maslov_clm(ref, path, _counterclockwise=True) == (0, [])

    def test_forced_clockwise_pass_raises(self):
        # a genuine clockwise crossing is an error for such a caller, not a
        # pass to drop
        ref = LagrangianPath.constant(line_frame(S1, [1.0, 0.0]), -0.5, 0.5)
        path = cw_line_path(-0.5, 0.5)
        assert maslov_clm(ref, path)[0] == -1
        with pytest.raises(SymindError, match="not positive"):
            maslov_clm(ref, path, _counterclockwise=True)

    def test_path_additivity(self):
        rng = np.random.default_rng(21)
        S2 = SymplecticSpace.standard(2)
        for _ in range(5):
            L0, L1 = random_lagrangian(S2, rng), random_lagrangian(S2, rng)
            ref = random_lagrangian(S2, rng)
            path = LagrangianPath.connecting(L0, L1)
            c = 0.61803398875
            if gap_distance(ref, path(c)) < 1e-3:
                continue
            refp = LagrangianPath.constant(ref, 0.0, 1.0)
            mu_full, _ = maslov_clm(refp, path)
            mu_left, _ = maslov_clm(refp, path, (0.0, c))
            mu_right, _ = maslov_clm(refp, path, (c, 1.0))
            assert mu_full == mu_left + mu_right

    @pytest.mark.parametrize("n,seed", [(1, 40), (2, 41), (3, 42)])
    def test_directions_match_crossing_forms(self, n, seed):
        # at a regular interior crossing the eigenphase directions give the
        # inertia of the relative crossing form, computed independently
        space = SymplecticSpace.standard(n)
        rng = np.random.default_rng(seed)
        checked = 0
        while checked < 4:
            path = LagrangianPath.connecting(*(random_lagrangian(space, rng) for _ in range(2)))
            ref = LagrangianPath.constant(random_lagrangian(space, rng), 0.0, 1.0)
            _, recs = maslov_clm(ref, path)
            for r in recs:
                if not 1e-3 < r.t < 1 - 1e-3:
                    continue
                basis = intersection_basis(ref(r.t), path(r.t), tol=1e-6)
                Q = relative_crossing_matrix(ref, path, r.t, basis, 1e-6)
                w = np.linalg.eigvalsh(Q)
                if np.min(np.abs(w)) < 1e-3 * max(1.0, np.max(np.abs(w))):
                    continue
                assert basis.shape[1] == r.multiplicity
                assert r.inertia == InertiaTriple(int(np.sum(w > 0)), 0, int(np.sum(w < 0)))
                checked += 1

    def test_symplectic_invariance(self):
        rng = np.random.default_rng(5)
        S2 = SymplecticSpace.standard(2)
        for _ in range(3):
            L0, L1 = random_lagrangian(S2, rng), random_lagrangian(S2, rng)
            ref = random_lagrangian(S2, rng)
            path = LagrangianPath.connecting(L0, L1)
            M = random_symplectic(S2, rng, scale=0.6)
            moved = LagrangianPath(S2, lambda t: apply_symplectic(M, path(t)), 0.0, 1.0)
            ref_moved = apply_symplectic(M, ref)
            mu, _ = maslov_clm(LagrangianPath.constant(ref, 0, 1), path)
            mu_m, _ = maslov_clm(LagrangianPath.constant(ref_moved, 0, 1), moved)
            assert mu == mu_m


class TestTripleIndex:
    def setup_method(self):
        self.x = line_frame(S1, [1.0, 0.0])
        self.y = line_frame(S1, [0.0, 1.0])

    def test_repeated_argument(self):
        # iota(a, b, a) = n - dim(a cap b)
        assert triple_index(self.x, self.y, self.x) == 1
        assert triple_index(self.x, self.x, self.x) == 0

    def test_diagonal_examples(self):
        assert triple_index(self.x, self.y, line_frame(S1, [1.0, 1.0])) == 0
        assert triple_index(self.x, self.y, line_frame(S1, [1.0, -1.0])) == 1

    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (3, 2)])
    def test_circular_permutation_identity(self, n, seed):
        space = SymplecticSpace.standard(n)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            a, b, c = (random_lagrangian(space, rng) for _ in range(3))
            lhs = triple_index(a, b, c) - triple_index(b, c, a)
            from symind.core import intersection_dim
            rhs = intersection_dim(a, c) - intersection_dim(b, a)
            assert lhs == rhs

    @pytest.mark.parametrize("n,seed", [(1, 3), (2, 4), (3, 5)])
    def test_chart_coindex_cyclic_invariance(self, n, seed):
        space = SymplecticSpace.standard(n)
        rng = np.random.default_rng(seed)
        for _ in range(25):
            a, b, c = (random_lagrangian(space, rng) for _ in range(3))
            k1 = chart_coindex(a, b, c)
            assert k1 == chart_coindex(b, c, a) == chart_coindex(c, a, b)

    @pytest.mark.parametrize("n,seed", [(2, 6), (3, 7)])
    def test_upper_bound(self, n, seed):
        from symind.core import intersection_dim
        space = SymplecticSpace.standard(n)
        rng = np.random.default_rng(seed)
        for _ in range(30):
            a, b, c = (random_lagrangian(space, rng) for _ in range(3))
            iota = triple_index(a, b, c)
            bound = n - intersection_dim(a, b) - intersection_dim(b, c)
            # the full bound carries + dim(a cap b cap c) which is 0 generically
            assert 0 <= iota <= bound + n  # loose sanity
            assert iota <= n


class TestHormander:
    def test_identical_pair_zero(self):
        rng = np.random.default_rng(9)
        S2 = SymplecticSpace.standard(2)
        l1, l2, m = (random_lagrangian(S2, rng) for _ in range(3))
        assert hormander_index(l1, l2, m, m) == 0

    def test_antisymmetry_in_second_pair(self):
        rng = np.random.default_rng(10)
        S2 = SymplecticSpace.standard(2)
        for _ in range(20):
            l1, l2, m1, m2 = (random_lagrangian(S2, rng) for _ in range(4))
            assert hormander_index(l1, l2, m1, m2) == -hormander_index(l1, l2, m2, m1)

    def test_reversal_under_transversality(self):
        rng = np.random.default_rng(12)
        from symind.core import intersection_dim
        S2 = SymplecticSpace.standard(2)
        done = 0
        while done < 15:
            l1, l2, m1, m2 = (random_lagrangian(S2, rng) for _ in range(4))
            if any(intersection_dim(a, b) for a in (l1, l2) for b in (m1, m2)):
                continue
            assert hormander_index(l1, l2, m1, m2) == -hormander_index(m1, m2, l1, l2)
            done += 1

    def test_explicit_line_quadruple(self):
        l1 = line_frame(S1, [1.0, 0.0])
        l2 = line_frame(S1, [1.0, 1.0])
        m1 = line_frame(S1, [0.0, 1.0])
        m2 = line_frame(S1, [1.0, -1.0])
        # brute force both triple indices: iota(l1,l2,m2) = 1, iota(l1,l2,m1) = 1
        assert triple_index(l1, l2, m2) == 1
        assert triple_index(l1, l2, m1) == 1
        assert hormander_index(l1, l2, m1, m2) == 0

    @pytest.mark.parametrize("n,seed", [(1, 20), (2, 21), (3, 22)])
    def test_agrees_with_maslov_route(self, n, seed):
        space = SymplecticSpace.standard(n)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            l1, l2, m1, m2 = (random_lagrangian(space, rng) for _ in range(4))
            s_triple = hormander_index(l1, l2, m1, m2)
            s_mu = hormander_via_maslov(l1, l2, m1, m2)
            assert s_triple == s_mu


def _near(U, rng, sines, shared):
    """U V diag(exp(i theta)) V^T: the Lagrangian of U moved by principal
    angles theta, with all but one of them zero when ``shared``."""
    n = U.shape[0]
    theta = np.arcsin(sines) * rng.choice([-1.0, 1.0], n)
    if shared:
        theta[:-1] = 0.0
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return U @ V @ np.diag(np.exp(1j * theta)) @ V.T


class TestNearDegenerateQuadruples:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
           log_sine=st.floats(-6.0, -3.0), shared=st.booleans(), move_l2=st.booleans())
    def test_maslov_route_equals_triple_route(self, n, seed, log_sine, shared, move_l2):
        # l1 or l2 within principal sines 1e-6..1e-3 of m1: the connecting
        # path meets m1 at or next to an endpoint, in several directions at once
        space = SymplecticSpace.standard(n)
        rng = np.random.default_rng(seed)
        Us = [np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
              for _ in range(4)]
        sines = 10.0 ** (log_sine + rng.uniform(0.0, 0.5, n))
        Us[1 if move_l2 else 0] = _near(Us[2], rng, sines, shared)
        l1, l2, m1, m2 = (LagrangianFrame(space, np.vstack([U.real, U.imag])) for U in Us)
        assert hormander_via_maslov(l1, l2, m1, m2) == hormander_index(l1, l2, m1, m2)


class TestConnectingPath:
    @pytest.mark.parametrize("n,seed", [(1, 50), (2, 51), (3, 52)])
    def test_batched_samples_equal_the_expm_route(self, n, seed):
        space = SymplecticSpace.standard(n)
        rng = np.random.default_rng(seed)
        start, end = random_lagrangian(space, rng), random_lagrangian(space, rng)
        path = LagrangianPath.connecting(start, end)
        U0 = start.frame[:n] - 1j * start.frame[n:]
        L = sla.logm(U0.conj().T @ (end.frame[:n] - 1j * end.frame[n:]))
        L = 0.5 * (L - L.conj().T)
        ts = rng.permutation(np.linspace(0.0, 1.0, 41))
        for t, F in zip(ts, path.frames(ts)):
            U = U0 @ sla.expm(t * L)
            assert np.max(np.abs(F - np.vstack([U.real, -U.imag]))) < 1e-13
        assert gap_distance(path(0.0), start) < 1e-13 and gap_distance(path(1.0), end) < 1e-12


class TestRefinedGrid:
    @pytest.mark.parametrize("n,seed", [(1, 30), (2, 31), (3, 32)])
    def test_consecutive_samples_within_budget(self, n, seed):
        space = SymplecticSpace.standard(n)
        rng = np.random.default_rng(seed)
        L0, L1, L2, L3 = (random_lagrangian(space, rng) for _ in range(4))
        paths = (LagrangianPath.connecting(L0, L1), LagrangianPath.connecting(L2, L3))
        ts = _refined_grid(*paths, 0.0, 1.0)
        assert ts[0] == 0.0 and ts[-1] == 1.0 and np.all(np.diff(ts) > 0)
        for path in paths:
            assert max(gap_distance(path(s), path(t))
                       for s, t in zip(ts[:-1], ts[1:])) <= CONTINUITY_BUDGET

    def test_fast_flow_is_refined_within_budget(self):
        from symind.catalog import make_problem
        from symind.sturm import fundamental_solution

        # omega = 60 turns the flow line about 19 times across (0, 1), faster
        # than the 256 initial samples resolve within budget
        fs = fundamental_solution(make_problem("harmonic", omega=60.0), 0.0, (0.0, 1.0))
        flow = fs.flow_path(dirichlet_frame(S1))
        const = LagrangianPath.constant(neumann_frame(S1), 0.0, 1.0)
        ts = _refined_grid(flow, const, 0.0, 1.0)
        assert len(ts) > 256
        assert max(gap_distance(flow(s), flow(t))
                   for s, t in zip(ts[:-1], ts[1:])) <= CONTINUITY_BUDGET

