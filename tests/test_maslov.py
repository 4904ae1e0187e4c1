"""Crossing forms, CLM index, triple and Hormander indices.

Hand-derived oracles used below (standard Omega on R^2, ordering (p, q)):

* l(t) = span{(cos t, sin t)} against span{(1,0)} at t0=0: take W = q-axis,
  then (1, w(t)) lies on l(t) iff w = tan t, omega(v, w(t)) = tan t, so the
  crossing form derivative is +1 -> inertia (1, 0, 0).
* The clockwise line span{(cos t, -sin t)} flips the sign -> (0, 0, 1).
* iota(x-axis, y-axis, span{(1,1)}): C(1,0) = (0,1), Q = omega((0,1),(1,0)) = -1,
  all intersections trivial -> 0; with gamma = span{(1,-1)}: Q = +1 -> 1.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symind.core import (
    INTERSECTION_TOL,
    InertiaTriple,
    LagrangianFrame,
    SymplecticSpace,
    apply_symplectic,
    dirichlet_frame,
    rotation_matrix,
    direct_sum_frame,
    gap_distance,
    intersection_basis,
    intersection_dim,
    line_frame,
    neumann_frame,
    principal_sines,
    random_lagrangian,
    random_symplectic,
    stacked_lagrangian_frames,
    stacked_principal_sines,
)
from symind.errors import ContinuityBudgetExceeded, Inconclusive, NotACrossing, SpaceMismatch
import symind.maslov as maslov
from symind.cli import main
from symind.maslov import (
    CONTINUITY_BUDGET,
    LOCATE_REL_TOL,
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
    return LagrangianPath.pointwise(S1, fun, a, b)


def cw_line_path(a, b):
    def fun(t):
        return LagrangianFrame(S1, np.array([[np.cos(t)], [-np.sin(t)]]))
    return LagrangianPath.pointwise(S1, fun, a, b)


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


class TestRelativeCrossingMatrix:
    @pytest.mark.parametrize("t0", [0.37, 0.0, 1.0, 0.75e-4, 1.0 - 0.75e-4])
    def test_rotation_rate_in_closed_form(self, t0):
        # the Dirichlet line turned clockwise by angle(t) has the crossing
        # form -angle'(t0) at angle(t0) = 0; t0 = a and b take the one-sided
        # stencils, and so do the last two, whose step h does not fit centrally
        def angle(t):
            s = np.asarray(t) - t0
            return 2.5 * s + 4.0 * s ** 2 - 3.0 * s ** 3
        path = LagrangianPath.rotation(dirichlet_frame(S1), angle, 0.0, 1.0)
        ref = LagrangianPath.constant(dirichlet_frame(S1), 0.0, 1.0)
        Q = relative_crossing_matrix(ref, path, t0, dirichlet_frame(S1).frame, 1e-4)
        assert abs(Q[0, 0] + 2.5) < 1e-8

    @pytest.mark.parametrize("n,seed", [(2, 56), (3, 55)])
    def test_frame_independence(self, n, seed):
        # turning the frames by a t-dependent orthogonal matrix keeps every
        # subspace, so the matrix is unchanged
        space = SymplecticSpace.standard(n)
        rng = np.random.default_rng(seed)
        K = rng.standard_normal((n, n))
        K = 3.0 * (K - K.T)
        path = LagrangianPath.connecting(*(random_lagrangian(space, rng) for _ in range(2)))
        turned = LagrangianPath(space, lambda ts: path.frames(ts) @ np.array(
            [sla.expm(t * K) for t in ts]), 0.0, 1.0)
        ref = LagrangianPath.constant(random_lagrangian(space, rng), 0.0, 1.0)
        _, recs = maslov_clm(ref, path)
        assert recs
        for r in recs:
            basis = intersection_basis(ref(r.t), path(r.t), tol=1e-6)
            Q = relative_crossing_matrix(ref, path, r.t, basis, 1e-4)
            assert np.allclose(relative_crossing_matrix(ref, turned, r.t, basis, 1e-4), Q,
                               rtol=0.0, atol=1e-10)


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
        # general scan reads the shorter arc, a clockwise pass
        def fun(t):
            angle = 0.02 + (np.pi - 0.04) * (0.5 + np.arctan((t - 0.3001) / 1e-11) / np.pi)
            return LagrangianFrame(S1, np.array([[np.cos(angle)], [np.sin(angle)]]))
        ref = LagrangianPath.constant(line_frame(S1, [1.0, 0.0]), 0.0, 1.0)
        path = LagrangianPath.pointwise(S1, fun, 0.0, 1.0)
        assert maslov_clm(ref, path)[0] == -1

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
            moved = LagrangianPath.pointwise(S2, lambda t: apply_symplectic(M, path(t)), 0.0, 1.0)
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
        space = SymplecticSpace.standard(n)
        rng = np.random.default_rng(seed)
        for _ in range(30):
            a, b, c = (random_lagrangian(space, rng) for _ in range(3))
            iota = triple_index(a, b, c)
            bound = n - intersection_dim(a, b) - intersection_dim(b, c)
            # the full bound carries + dim(a cap b cap c) which is 0 generically
            assert 0 <= iota <= bound + n  # loose sanity
            assert iota <= n


def _meet(U, V):
    """Orthonormal basis of span U cap span V for orthonormal columns U, V:
    the directions of U with no component off span V, by SVD."""
    _, s, vt = np.linalg.svd(U - V @ (V.T @ U))
    s = np.concatenate([s, np.zeros(U.shape[1] - s.size)])
    return U @ vt[s <= INTERSECTION_TOL].T


def _triple_reference(a, b, c):
    """Pivot-safe evaluation of the definitions, every rank by SVD: the chart
    coindex m_plus(Q) on a cap (b + c), where c contains u + Cu with Cu in b
    and Q(u) = omega(Cu, u), and iota = m_plus(Q) + dim(a cap c) - dim(a cap b cap c)."""
    A, B, C = a.frame, b.frame, c.frame
    BC = np.hstack([B, C])
    U, s, _ = np.linalg.svd(BC, full_matrices=False)
    dom = _meet(A, U[:, s > INTERSECTION_TOL])
    # u = By + Cz, so Cu = -By; y is fixed up to b cap c, which Q does not see
    Cu = -B @ (np.linalg.pinv(BC, rcond=INTERSECTION_TOL) @ dom)[:B.shape[1]]
    Q = Cu.T @ a.space.form @ dom
    coindex = int(np.sum(np.linalg.eigvalsh(0.5 * (Q + Q.T)) > INTERSECTION_TOL)) if Q.size else 0
    return coindex + _meet(A, C).shape[1] - _meet(_meet(A, B), C).shape[1], coindex


_LINE_ANGLES = (0.0, np.pi / 2, np.pi / 4, -np.pi / 4)


def _shared_line_triple(n, picks, seed):
    """Three Lagrangians of R^2n, each the direct sum of one line per (p_i, q_i)
    plane at an angle picked from _LINE_ANGLES and one random angle, so
    that they share lines, all turned by one random unitary rotation."""
    space = SymplecticSpace.standard(n)
    rng = np.random.default_rng(seed)
    angles = np.append(_LINE_ANGLES, rng.uniform(-np.pi / 2, np.pi / 2))[np.reshape(picks, (3, n))]
    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return [LagrangianFrame(space, np.vstack([W.real, W.imag]))
            for W in U * np.exp(1j * angles)[:, None, :]]


_shared_lines = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 4), min_size=3 * n, max_size=3 * n),
    st.integers(0, 2 ** 32 - 1)))


class TestTripleIndexOnSharedLines:
    @settings(max_examples=100, deadline=None)
    @given(case=_shared_lines)
    def test_matches_the_definition(self, case):
        a, b, c = _shared_line_triple(*case)
        iota, coindex = _triple_reference(a, b, c)
        assert triple_index(a, b, c) == iota
        assert chart_coindex(a, b, c) == coindex

    @settings(max_examples=60, deadline=None)
    @given(case=_shared_lines)
    def test_chart_coindex_cyclic_invariance(self, case):
        a, b, c = _shared_line_triple(*case)
        assert chart_coindex(a, b, c) == chart_coindex(b, c, a) == chart_coindex(c, a, b)

    @pytest.mark.parametrize("left", ["x", "y"])
    def test_additivity_over_direct_sums(self, left):
        # iota(l (+) x, x (+) y, x (+) g) = iota(l, x, x) + iota(x, y, g) = 0 + 1
        # for l = x or y, whose triple shares a line; iota(l, x, x) is 0 under
        # Omega and under the left factor's -Omega alike
        x, y, g = (line_frame(S1, v) for v in ([1.0, 0.0], [0.0, 1.0], [1.0, -1.0]))
        first = {"x": x, "y": y}[left]
        assert triple_index(first, x, x) == 0 and triple_index(x, y, g) == 1
        assert triple_index(direct_sum_frame(first, x), direct_sum_frame(x, y),
                            direct_sum_frame(x, g)) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cyclic_identity_next_to_an_intersection(self, n):
        # c at principal sine 1e-6 from a (other angles zero): both sides read
        # that sine as transversal
        space = SymplecticSpace.standard(n)
        rng = np.random.default_rng(60 + n)
        U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        a, c = (LagrangianFrame(space, np.vstack([V.real, V.imag]))
                for V in (U, _near(U, rng, np.full(n, 1e-6), shared=True)))
        b = random_lagrangian(space, rng)
        assert intersection_dim(a, c) == n - 1
        lhs = triple_index(a, b, c) - triple_index(b, c, a)
        assert lhs == intersection_dim(a, c) - intersection_dim(b, a)


class TestParityGuard:
    """A principal sine within a factor two below INTERSECTION_TOL counts as
    an intersection but leaves a Kashiwara eigenvalue beyond half the
    tolerance; the odd count raises instead of returning an integer."""

    x = line_frame(S1, [1.0, 0.0])
    y = line_frame(S1, [0.0, 1.0])

    def test_sine_at_the_tolerance_is_inconclusive(self):
        near = line_frame(S1, [1.0, INTERSECTION_TOL])
        assert principal_sines(self.x, near)[0] == INTERSECTION_TOL
        with pytest.raises(Inconclusive):
            triple_index(self.x, near, self.y)

    @pytest.mark.parametrize("factor,iota", [(0.25, 0), (4.0, 1)])
    def test_sines_off_the_tolerance(self, factor, iota):
        # a quarter of it is the intersection iota(x, x, y) = 0, four times it
        # the transversal line of iota(x, (1, 1e-6), y) = 1
        near = line_frame(S1, [1.0, factor * INTERSECTION_TOL])
        assert triple_index(self.x, near, self.y) == iota


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


def _haar_quadruple(rng, n):
    """Four Lagrangians [Re U; Im U], U the Q factor of a complex Gaussian."""
    Us = [np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
          for _ in range(4)]
    return Us, [LagrangianFrame(SymplecticSpace.standard(n), np.vstack([U.real, U.imag]))
                for U in Us]


class TestEigenvalueCount:
    def test_avoided_crossing_inside_one_step_leaves_no_record(self):
        # two phases near 0 pass an avoided crossing inside the 0.125 step,
        # (-0.031, 0.055) -> (0.092, -0.029), and the paths never come within
        # a principal sine 4.2e-3 of each other, so there is nothing to record
        _, (l1, l2, m1, m2) = _haar_quadruple(np.random.default_rng(2324), 2)
        path = LagrangianPath.connecting(l1, l2)
        assert maslov_clm(path, LagrangianPath.constant(m1, 0.0, 1.0)) == (0, [])

    # the index of connecting(l1, l2) against m1 for seeds 0..29
    MU = [-1, 0, -1, 0, 2, 0, 0, -1, -1, 0, 2, 0, 0, 1, -1, 0, 0, 1, 1, -1, 0, -1, 0, -1, 0, 0, 0, 0, 1, 1]

    @pytest.mark.parametrize("seed", range(30))
    def test_interior_records_sit_where_the_paths_meet(self, seed):
        # l2 within principal sines 1e-6..1e-3 of m1: eigenphases of W cluster
        # near 0 at the end of the path, and every interior instant is a root
        # of a phase, where multiplicity-many principal sines vanish
        n = 1 + seed % 3
        rng = np.random.default_rng(seed)
        Us, (l1, _, m1, m2) = _haar_quadruple(rng, n)
        U2 = _near(Us[2], rng, 10.0 ** rng.uniform(-6.0, -3.0, n), shared=False)
        l2 = LagrangianFrame(m1.space, np.vstack([U2.real, U2.imag]))
        path = LagrangianPath.connecting(l1, l2)
        mu, recs = maslov_clm(path, LagrangianPath.constant(m1, 0.0, 1.0))
        assert mu == self.MU[seed]
        assert hormander_via_maslov(l1, l2, m1, m2) == hormander_index(l1, l2, m1, m2)
        for r in recs:
            if 0.0 < r.t < 1.0:
                sines = stacked_principal_sines(m1.space, path.frames([r.t]), m1.frame[None])[0]
                assert sines[r.multiplicity - 1] <= 1e-7

    def test_coarse_step_is_continuity_budget_exceeded(self, monkeypatch):
        # a Lagrangian plane turning by 1 rad in one step: W is a multiple
        # of I, whose phase moves by 2 rad, and ||dW||_F = 2 sqrt(2) sin 1 > 2,
        # so the bound 2 asin(||dW||_F / 2) reaches pi, half the widest gap
        def coarse(path1, path2, a, b):
            ts = np.array([a, b])
            return ts, np.array([path1.frames(ts), path2.frames(ts)])

        monkeypatch.setattr(maslov, "_refined_grid", coarse)
        base = dirichlet_frame(SymplecticSpace.standard(2))
        path = LagrangianPath.rotation(base, lambda t: t, 0.0, 1.0)
        with pytest.raises(ContinuityBudgetExceeded, match="widest gap"):
            maslov_clm(path, LagrangianPath.constant(base, 0.0, 1.0))


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


class TestConnectingGrid:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           end=st.sampled_from(["haar", "equal", "near"]))
    def test_grid_follows_the_speed_bound(self, n, seed, end):
        # U(t) = U0 Z diag(exp(i t theta)) Z* moves at most max|theta| h over
        # a step h, which bounds the largest principal sine across it
        space = SymplecticSpace.standard(n)
        rng = np.random.default_rng(seed)
        Us = [np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
              for _ in range(4)]
        if end == "equal":
            Us[1] = Us[0]
        elif end == "near":
            Us[1] = _near(Us[0], rng, 1e-6 * rng.uniform(0.1, 1.0, n), shared=False)
        l1, l2, m1, m2 = (LagrangianFrame(space, np.vstack([U.real, U.imag])) for U in Us)
        path = LagrangianPath.connecting(l1, l2)
        U0, U1 = (l.frame[:n] - 1j * l.frame[n:] for l in (l1, l2))
        speed = np.max(np.abs(np.angle(np.linalg.eigvals(U0.conj().T @ U1))))
        grid = path.initial_grid(0.0, 1.0)
        assert grid.size == 1 + max(1, math.ceil(speed / (2.0 * CONTINUITY_BUDGET))) <= 21
        halves = np.sort(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])]))
        sines = stacked_principal_sines(space, path.frames(halves[:-1]), path.frames(halves[1:]))
        # 1e-14 covers the roundoff of the sines between equal frames
        assert np.all(sines[:, -1] <= speed * np.diff(halves) * (1.0 + 1e-12) + 1e-14)
        # the first refinement wave passes, with no sample beyond the midpoints
        ts, F = _refined_grid(path, LagrangianPath.constant(m1, 0.0, 1.0), 0.0, 1.0)
        assert np.array_equal(ts, halves)
        assert largest_step_gap(space, F[0]) <= CONTINUITY_BUDGET
        assert hormander_via_maslov(l1, l2, m1, m2) == hormander_index(l1, l2, m1, m2)

    def test_dirichlet_scan_starts_from_the_flow_grid(self, monkeypatch):
        # the constant Dirichlet path adds no sample to the flow's 256 on (0, pi)
        from symind.catalog import make_problem
        from symind.sturm import conjugate_points

        grids, initial_grid = [], LagrangianPath.initial_grid

        def recorded(path, a, b):
            grids.append(initial_grid(path, a, b))
            return grids[-1]

        monkeypatch.setattr(LagrangianPath, "initial_grid", recorded)
        points = conjugate_points(make_problem("harmonic", omega=2.0, interval=(0.0, np.pi)),
                                  (0.0, np.pi))
        assert np.allclose([t for t, _ in points], [np.pi / 2], rtol=1e-9)
        assert np.unique(np.concatenate(grids)).size == 256


class TestPathSamplers:
    @pytest.mark.parametrize("n,seed", [(1, 53), (2, 54), (3, 55)])
    def test_rotation_samples_equal_the_matrix_route(self, n, seed):
        space = SymplecticSpace.standard(n)
        rng = np.random.default_rng(seed)
        base = random_lagrangian(space, rng)

        def angle(t):
            return 7.0 * t ** 2 - 1.0

        path = LagrangianPath.rotation(base, angle, 0.0, 1.0)
        ts = rng.permutation(np.linspace(0.0, 1.0, 41))
        for t, F in zip(ts, path.frames(ts)):
            assert np.max(np.abs(F - rotation_matrix(space, angle(t)) @ base.frame)) <= 1e-15

    @pytest.mark.parametrize("path", [
        LagrangianPath(S1, lambda ts: np.array([[1.0], [0.0]]), 0.0, 1.0),
        LagrangianPath(S1, lambda ts: np.zeros((len(ts), 2, 2)), 0.0, 1.0),
        LagrangianPath.pointwise(S1, lambda t: np.array([[1.0], [0.0]]), 0.0, 1.0),
    ], ids=["one_frame", "wrong_half_dim", "pointwise_array"])
    def test_bad_sampler_is_space_mismatch(self, path):
        ref = LagrangianPath.constant(line_frame(S1, [1.0, 0.0]), 0.0, 1.0)
        with pytest.raises(SpaceMismatch):
            maslov_clm(ref, path)


def counting_waves(monkeypatch):
    """Patch the module so the returned list holds, per ``_locate`` call, the
    number of its ``_ordered_phases`` waves."""
    waves, locate, ordered = [], maslov._locate, maslov._ordered_phases

    def counted_locate(*args):
        waves.append(0)
        return locate(*args)

    def counted_ordered(*args):
        waves[-1] += 1
        return ordered(*args)

    monkeypatch.setattr(maslov, "_locate", counted_locate)
    monkeypatch.setattr(maslov, "_ordered_phases", counted_ordered)
    return waves


def spectral_flow_report(R, capsys):
    """Report of ``spectral-flow --problem free --ramp -R --N 512``."""
    assert main(["spectral-flow", "--problem", "free", "--ramp", repr(-R), "--N", "512"]) == 0
    return json.loads(capsys.readouterr().out)


class TestCrossingInstants:
    @settings(max_examples=40, deadline=None)
    @given(theta0=st.floats(0.05, np.pi - 0.05), turns=st.floats(0.2, 4.0),
           power=st.sampled_from([1.0, 2.0, 3.0]))
    def test_monotone_polynomial_angle(self, theta0, turns, power):
        # the angle theta0 + kappa t^p meets the p-axis where it is k pi, at
        # t_k = ((k pi - theta0) / kappa)^(1/p)
        kappa = turns * np.pi
        end = (theta0 + kappa) / np.pi
        assume(abs(end - round(end)) > 1e-3)
        base = line_frame(S1, [1.0, 0.0])
        path = LagrangianPath.rotation(base, lambda t: theta0 + kappa * t ** power, 0.0, 1.0)
        mu, recs = maslov_clm(path, LagrangianPath.constant(base, 0.0, 1.0))
        k = np.arange(1, math.floor(end) + 1)
        assert mu == k.size
        assert np.allclose([r.t for r in recs], ((k * np.pi - theta0) / kappa) ** (1.0 / power),
                           rtol=0.0, atol=LOCATE_REL_TOL)

    def test_flat_phase_converges(self, monkeypatch):
        # the phase is cubic in t - t0, so inverse quadratic interpolation
        # fails its validity test near the root and bisection takes over
        t0 = 1.0 / np.pi
        base = line_frame(S1, [1.0, 0.0])
        path = LagrangianPath.rotation(base, lambda t: 2.0 * (t - t0) ** 3, 0.0, 1.0)
        waves = counting_waves(monkeypatch)
        mu, recs = maslov_clm(path, LagrangianPath.constant(base, 0.0, 1.0))
        assert mu == 1
        assert len(recs) == 1 and abs(recs[0].t - t0) <= LOCATE_REL_TOL
        assert waves[0] < 64

    @pytest.mark.parametrize("R", [100.0, 300.0])
    def test_ramp_instants_closed_form(self, capsys, R):
        # -u'' - R s u, Dirichlet on (0, 1): the k-th eigenvalue (k pi)^2 - R s
        # crosses zero at s_k = (k pi)^2 / R
        rep = spectral_flow_report(R, capsys)
        k = np.arange(1, math.floor(math.sqrt(R) / math.pi) + 1)
        assert rep["diagnostics"]["maslov"] == k.size
        assert [c["inertia"] for c in rep["crossings"]] == [[1, 0, 0]] * k.size
        assert np.allclose([c["s"] for c in rep["crossings"]], (k * np.pi) ** 2 / R,
                           rtol=1e-12, atol=0.0)

    def test_ramp_instant_takes_few_waves(self, capsys, monkeypatch):
        # one crossing at s = pi^2 / 25.3: the false-position point, about two
        # interpolation steps and one step past the root close the bracket
        waves = counting_waves(monkeypatch)
        assert spectral_flow_report(25.3, capsys)["verdict"] == -1
        assert len(waves) == 1 and waves[0] <= 6


def largest_step_gap(space, frames):
    """The largest gap between consecutive frames of a stack."""
    return float(stacked_principal_sines(space, frames[:-1], frames[1:])[:, -1].max())


class TestRefinedGrid:
    @pytest.mark.parametrize("n,seed", [(1, 30), (2, 31), (3, 32)])
    def test_consecutive_samples_within_budget(self, n, seed):
        space = SymplecticSpace.standard(n)
        rng = np.random.default_rng(seed)
        L0, L1, L2, L3 = (random_lagrangian(space, rng) for _ in range(4))
        paths = (LagrangianPath.connecting(L0, L1), LagrangianPath.connecting(L2, L3))
        ts, F = _refined_grid(*paths, 0.0, 1.0)
        assert ts[0] == 0.0 and ts[-1] == 1.0 and np.all(np.diff(ts) > 0)
        for path, frames in zip(paths, F):
            assert np.array_equal(frames, path.frames(ts))
            assert largest_step_gap(space, frames) <= CONTINUITY_BUDGET
            assert max(gap_distance(path(s), path(t))
                       for s, t in zip(ts[:-1], ts[1:])) <= CONTINUITY_BUDGET

    def test_each_parameter_is_sampled_once(self):
        # the waves carry the frames at the interval ends, so each path's
        # sampler sees every returned parameter exactly once
        rng = np.random.default_rng(33)
        space = SymplecticSpace.standard(2)
        seen = ([], [])

        def counted(calls):
            path = LagrangianPath.connecting(*(random_lagrangian(space, rng) for _ in range(2)))

            def frames(ts):
                calls.append(ts)
                # back and forth along the path 50 times: several waves deep
                return path.frames(0.5 - 0.5 * np.cos(100.0 * np.pi * ts))

            return LagrangianPath(space, frames, 0.0, 1.0)

        ts, _ = _refined_grid(*map(counted, seen), 0.0, 1.0)
        for calls in seen:
            assert len(calls) >= 3
            assert np.array_equal(np.sort(np.concatenate(calls)), ts)

    def test_fast_flow_is_refined_within_budget(self):
        from symind.catalog import make_problem
        from symind.sturm import fundamental_solution

        # omega = 60 turns the flow line about 19 times across (0, 1), faster
        # than the 256 initial samples resolve within budget
        fs = fundamental_solution(make_problem("harmonic", omega=60.0), 0.0, (0.0, 1.0))
        D = dirichlet_frame(S1).frame
        flow = LagrangianPath(S1, lambda ts: stacked_lagrangian_frames(S1, fs.matrices(ts) @ D),
                              0.0, 1.0)
        const = LagrangianPath.constant(neumann_frame(S1), 0.0, 1.0)
        ts, F = _refined_grid(flow, const, 0.0, 1.0)
        assert len(ts) > 256
        assert largest_step_gap(S1, F[0]) <= CONTINUITY_BUDGET
        assert max(gap_distance(flow(s), flow(t))
                   for s, t in zip(ts[:-1], ts[1:])) <= CONTINUITY_BUDGET

