"""The log-depth scans, the angular order of eigenphases and the
half-dimension-1 closed forms of the crossing scan against the routes they
replace.

References kept here: the step-by-step chain loop (the doubling scan must
agree with it), the lifted count of passes through 0 (the count from each
step's cut must agree with it), and the LAPACK routes (QR, SVD, eigvals,
inv) that the n = 1 closed forms skip.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symind.core import (
    SymplecticSpace,
    random_lagrangian,
    stacked_lagrangian_frames,
    stacked_principal_sines,
)
from symind.errors import CoefficientSingular, RankDeficient
from symind.maslov import _cuts, _eig_w, _from_cut, _souriau
from symind.sturm import SLProblem, _chain, hamiltonians


def _chain_loop(E):
    """The products I, E[:, 0], E[:, 1] E[:, 0], ... one step at a time."""
    M = np.empty((E.shape[1] + 1,) + E.shape[:1] + E.shape[2:])
    M[0] = np.eye(E.shape[-1])
    for k in range(E.shape[1]):
        M[k + 1] = E[:, k] @ M[k]
    return np.swapaxes(M, 0, 1)


def _symplectic_steps(rng, K, k, n, growth):
    """(K, k, 2n, 2n) symplectic steps: a hyperbolic scaling whose k-fold
    power grows by ``growth``, after a lower and an upper random shear."""
    def sym():
        S = rng.standard_normal((K, k, n, n)) / np.sqrt(k)
        return S + np.swapaxes(S, -1, -2)

    low = np.broadcast_to(np.eye(2 * n), (K, k, 2 * n, 2 * n)).copy()
    up = low.copy()
    low[..., n:, :n] = sym()
    up[..., :n, n:] = sym()
    lam = np.log(growth) / k
    scaling = np.diag(np.exp(np.repeat([lam, -lam], n)))
    return scaling @ low @ up


class TestChainScan:
    @settings(max_examples=40, deadline=None)
    @given(K=st.sampled_from([1, 3, 127]), k=st.sampled_from([1, 2, 3, 17, 512]),
           n=st.sampled_from([1, 2]), log_growth=st.floats(0.0, 8.0),
           seed=st.integers(0, 2 ** 16))
    def test_scan_equals_the_loop(self, K, k, n, log_growth, seed):
        E = _symplectic_steps(np.random.default_rng(seed), K, k, n, 10.0 ** log_growth)
        J = SymplecticSpace.standard(n).form
        assert np.allclose(np.swapaxes(E, -1, -2) @ J @ E, J, atol=1e-10)
        reference = _chain_loop(E)
        scanned = _chain(E)
        assert scanned.shape == reference.shape == (K, k + 1, 2 * n, 2 * n)
        size = np.maximum(1.0, np.max(np.abs(reference), axis=(2, 3)))
        assert np.all(np.max(np.abs(scanned - reference), axis=(2, 3)) <= 1e-12 * size)


def _unit_columns(rng, k, dim):
    v = rng.standard_normal((k, dim, 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestScalarClosedForms:
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 64), seed=st.integers(0, 2 ** 16))
    def test_principal_sines_equal_the_svd(self, k, seed):
        rng = np.random.default_rng(seed)
        space = SymplecticSpace.standard(1)
        A, B = _unit_columns(rng, k, 2), _unit_columns(rng, k, 2)
        # B sometimes equal to A: a sine at zero
        B[::3] = A[::3]
        svd = np.linalg.svd(np.swapaxes(A, 1, 2) @ space.form @ B, compute_uv=False)
        sines = stacked_principal_sines(space, A, B)
        assert sines.shape == (k, 1)
        assert np.max(np.abs(sines - np.clip(svd, 0.0, 1.0))) <= 1e-15

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 64), log_scale=st.floats(-4.0, 10.0), seed=st.integers(0, 2 ** 16))
    def test_frames_equal_the_qr_up_to_sign(self, k, log_scale, seed):
        # norms within two decades of 10^log_scale, all above the rank threshold
        rng = np.random.default_rng(seed)
        cols = _unit_columns(rng, k, 2) * 10.0 ** rng.uniform(log_scale - 2.0, log_scale + 2.0,
                                                              (k, 1, 1))
        frames = stacked_lagrangian_frames(SymplecticSpace.standard(1), cols)
        q = np.linalg.qr(cols)[0]
        sign = np.sign(np.sum(frames * q, axis=(1, 2)))
        assert np.all(np.abs(sign) == 1.0)
        assert np.max(np.abs(frames - sign[:, None, None] * q)) <= 1e-15

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 32), seed=st.integers(0, 2 ** 16))
    def test_eigenphases_of_w_equal_eig(self, k, seed):
        rng = np.random.default_rng(seed)
        space = SymplecticSpace.standard(1)
        F = np.array([[random_lagrangian(space, rng).frame for _ in range(k)] for _ in range(2)])
        W = _souriau(space, F[1]) @ _souriau(space, F[0]).conj()
        lam = _eig_w(W)
        lam_ref = np.linalg.eigvals(W)
        assert lam.shape == lam_ref.shape
        assert np.max(np.abs(lam - lam_ref)) <= 1e-15
        assert np.array_equal(np.angle(lam), np.angle(lam_ref))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 16))
    def test_scalar_p_is_inverted_as_inv_inverts_it(self, seed):
        # the scalar problem against its embedding as the first coordinate
        # of a diagonal dim-2 problem, whose P goes through np.linalg.inv
        a, b, c = np.random.default_rng(seed).uniform(0.2, 3.0, 3)

        def p(t):
            return a + np.sin(b * t) ** 2

        def q(t):
            return c * np.cos(t)

        def r(t):
            return -b * t

        def diag2(f, second):
            return lambda t: np.concatenate(
                [np.concatenate([f(t), 0 * t], axis=2),
                 np.concatenate([0 * t, second + 0 * t], axis=2)], axis=1)

        ts = np.linspace(0.0, 5.0, 17)
        H1 = hamiltonians(SLProblem(1, (0.0, 5.0), p, q, r), ts)
        H2 = hamiltonians(SLProblem(2, (0.0, 5.0), diag2(p, 1.0), diag2(q, 0.0),
                                    diag2(r, 0.0)), ts)
        assert np.array_equal(H1, H2[:, [0, 2]][:, :, [0, 2]])

    def test_one_zero_p_inside_a_stack_is_singular(self):
        problem = SLProblem(1, (0.0, 1.0), lambda t: t - 0.5, 0.0, 0.0)
        hamiltonians(problem, np.array([0.1, 0.4, 0.9]))
        with pytest.raises(CoefficientSingular):
            hamiltonians(problem, np.array([0.1, 0.4, 0.5, 0.9]))

    def test_zero_column_inside_a_stack_is_rank_deficient(self):
        cols = np.array([[[1.0], [2.0]], [[0.0], [0.0]], [[0.0], [3.0]]])
        with pytest.raises(RankDeficient):
            stacked_lagrangian_frames(SymplecticSpace.standard(1), cols)

    def test_single_column_in_dimension_four_is_rank_deficient(self):
        cols = np.array([[[1.0], [0.0], [2.0], [0.0]]])
        with pytest.raises(RankDeficient, match="rank 1 < 2"):
            stacked_lagrangian_frames(SymplecticSpace.standard(2), cols)


class TestAngularOrder:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 5), squeeze=st.sampled_from([0.0, 0.9, 0.999]),
           reach=st.floats(0.0, 0.99), seed=st.integers(0, 2 ** 16))
    def test_pass_count_equals_the_lifted_count(self, n, squeeze, reach, seed):
        # phases over the circle, or squeezed toward 0, each moved by less
        # than half the widest gap; the spectra come in random order, as
        # eigvals returns them
        rng = np.random.default_rng(seed)
        theta = (1.0 - squeeze) * rng.uniform(-np.pi, np.pi, n)
        cut, half = _cuts(np.exp(1j * theta)[None])
        moved = theta + reach * half[0] * rng.uniform(-1.0, 1.0, n)
        # no phase within roundoff of 0, where the two floors may disagree
        assume(np.min(np.abs(np.angle(np.exp(1j * np.concatenate([theta, moved]))))) > 1e-9)
        lifted = np.sum(np.floor(moved / (2 * np.pi)) - np.floor(theta / (2 * np.pi)))
        lam0 = _from_cut(np.exp(1j * rng.permutation(theta))[None], cut)
        lam1 = _from_cut(np.exp(1j * rng.permutation(moved))[None], cut)
        phase, step = np.angle(lam0), np.angle(lam1 * lam0.conj())
        passes = np.floor((phase + step) / (2 * np.pi)) - np.floor(phase / (2 * np.pi))
        assert passes.sum() == lifted
        # the i-th phase from the cut is one phase at both ends
        assert np.all(np.abs(step) < half[0])
