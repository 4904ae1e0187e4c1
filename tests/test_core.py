"""Symplectic core: frames, intersections, graphs, residuals."""

import numpy as np
import pytest

from symind.core import (
    InertiaTriple,
    LagrangianFrame,
    SymplecticMatrix,
    SymplecticSpace,
    apply_symplectic,
    dirichlet_frame,
    gap_distance,
    graph_lagrangian,
    inertia_of,
    intersection_basis,
    intersection_dim,
    lagrangian_from_columns,
    neumann_frame,
    principal_sines,
    random_lagrangian,
    random_symplectic,
    rotation_matrix,
    stacked_graph_frames,
    stacked_lagrangian_frames,
    stacked_principal_sines,
    symplectic_residual,
)
from symind.errors import NotIsotropic, NotSymplectic, RankDeficient, SpaceMismatch

S1 = SymplecticSpace.standard(1)
S2 = SymplecticSpace.standard(2)


def test_form_matrix_convention():
    # Omega((p,q),(p',q')) = <p,q'> - <q,p'> in (p, q) ordering
    assert S1.omega([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert S1.omega([0.0, 1.0], [1.0, 0.0]) == -1.0
    J = S2.form
    assert np.allclose(J.T, -J)
    assert np.allclose(J @ J, -np.eye(4))


def test_product_space_form():
    P = SymplecticSpace.minus_plus(1, 1)
    # left block carries -Omega, right block +Omega
    assert P.omega([1, 0, 0, 0], [0, 1, 0, 0]) == -1.0
    assert P.omega([0, 0, 1, 0], [0, 0, 0, 1]) == 1.0


def test_space_equality_is_by_form():
    from symind.core import standard_form_matrix

    assert SymplecticSpace.standard(2) is S2
    assert SymplecticSpace.minus_plus(1, 1) is SymplecticSpace.minus_plus(1, 1)
    fresh = SymplecticSpace(4, standard_form_matrix(2))
    assert fresh is not S2 and fresh == S2 and S2 == fresh
    assert SymplecticSpace.minus_plus(1, 1) != S2
    assert SymplecticSpace.minus_plus(2, 0) != SymplecticSpace.minus_plus(0, 2)
    assert S1 != S2 and S2 != "S2"


def test_lagrangian_from_columns_axis_and_diagonal():
    L = lagrangian_from_columns(S1, [[1.0], [0.0]])
    assert np.allclose(np.abs(L.frame), [[1.0], [0.0]])
    D = lagrangian_from_columns(S1, [[1.0], [1.0]])
    assert L.isotropy_residual() < 1e-12 and D.isotropy_residual() < 1e-12
    assert D.orthonormality_residual() < 1e-12


def test_lagrangian_from_columns_isotropy_gate():
    # Hand evaluation in (p1,p2,q1,q2) ordering: Omega((1,0,1,0),(0,1,0,0))
    # = <(1,0),(0,0)> - <(1,0),(0,1)> = 0, so this span is isotropic and passes.
    ok = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    assert ok[:, 0] @ S2.form @ ok[:, 1] == 0.0
    lagrangian_from_columns(S2, ok)
    # Omega((1,0,0,0),(0,0,1,0)) = <(1,0),(1,0)> - 0 = 1 != 0: must be rejected.
    bad = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert bad[:, 0] @ S2.form @ bad[:, 1] == 1.0
    with pytest.raises(NotIsotropic):
        lagrangian_from_columns(S2, bad)


def test_lagrangian_from_columns_rank_deficient():
    with pytest.raises(RankDeficient):
        lagrangian_from_columns(S2, np.array([[1.0], [0.0], [0.0], [0.0]]))
    with pytest.raises(RankDeficient):
        cols = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        lagrangian_from_columns(S2, cols)


def test_intersection_dim_examples():
    LD, LN = dirichlet_frame(S1), neumann_frame(S1)
    assert intersection_dim(LD, LN) == 0
    assert intersection_dim(LD, LD) == 1
    # n=2: Dirichlet vs span{(1,0,0,0),(0,0,0,1)}; brute-force oracle below
    A = dirichlet_frame(S2)
    B = lagrangian_from_columns(S2, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    stacked = np.hstack([A.frame, -B.frame])
    null_dim = 4 - np.linalg.matrix_rank(stacked)
    assert null_dim == 1
    assert intersection_dim(A, B) == 1


def test_intersection_dim_symmetric_and_basis_independent():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = random_lagrangian(S2, rng)
        B = random_lagrangian(S2, rng)
        assert intersection_dim(A, B) == intersection_dim(B, A)
        Q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        A2 = LagrangianFrame(S2, A.frame @ Q)
        assert intersection_dim(A2, B) == intersection_dim(A, B)


def test_graph_lagrangian_identity_and_rotation():
    I = SymplecticMatrix(S1, np.eye(2))
    G = graph_lagrangian(I)
    diag = lagrangian_from_columns(G.space, np.array([[1.0, 0], [0, 1], [1, 0], [0, 1]]))
    assert intersection_dim(G, diag) == 2
    R = SymplecticMatrix(S1, rotation_matrix(S1, np.pi / 2))
    GR = graph_lagrangian(R)
    assert GR.isotropy_residual() < 1e-12


def test_graph_lagrangian_rejects_nonsymplectic():
    M = SymplecticMatrix(S1, np.eye(2) + 1e-3)
    with pytest.raises(NotSymplectic):
        graph_lagrangian(M, tol=1e-8)


def test_symplectic_residual_examples():
    assert symplectic_residual(SymplecticMatrix(S1, np.eye(2))) == 0.0
    assert symplectic_residual(SymplecticMatrix(S1, np.diag([2.0, 0.5]))) < 1e-15
    # diag(2,2): M^T J M - J = [[0,3],[-3,0]] entrywise
    assert symplectic_residual(SymplecticMatrix(S1, np.diag([2.0, 2.0]))) == pytest.approx(3.0)


def test_symplectic_invariance_of_lagrangian_images():
    rng = np.random.default_rng(11)
    for _ in range(10):
        M = random_symplectic(S2, rng, scale=0.5)
        L = random_lagrangian(S2, rng)
        img = apply_symplectic(M, L)
        assert img.isotropy_residual() < 1e-9
        assert img.orthonormality_residual() < 1e-12


def test_graph_intersection_fixed_space_identity():
    rng = np.random.default_rng(13)
    GI = graph_lagrangian(SymplecticMatrix(S2, np.eye(4)))
    done = 0
    while done < 10:
        M = random_symplectic(S2, rng, scale=0.4)
        sv = np.linalg.svd(M.entries - np.eye(4), compute_uv=False)
        if sv[-1] < 1e-3:  # nearly fixed direction: kernel dimension ill-posed
            continue
        GM = graph_lagrangian(M)
        fixed = 4 - np.linalg.matrix_rank(M.entries - np.eye(4))
        assert intersection_dim(GM, GI) == fixed == 0
        done += 1
    # structured case with a genuine two-dimensional fixed space
    blk = random_symplectic(S1, rng, scale=0.7).entries
    Ment = np.eye(4)
    Ment[np.ix_([0, 2], [0, 2])] = blk  # acts on the (p1, q1) plane only
    M = SymplecticMatrix.checked(S2, Ment)
    expected = 4 - np.linalg.matrix_rank(Ment - np.eye(4))
    assert intersection_dim(graph_lagrangian(M), GI) == expected == 2


def test_principal_sines_detect_intersections():
    LD = dirichlet_frame(S2)
    s = principal_sines(LD, LD)
    assert np.allclose(s, 0.0, atol=1e-12)
    LN = neumann_frame(S2)
    assert np.allclose(principal_sines(LD, LN), 1.0)
    assert gap_distance(LD, LN) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_helpers_equal_the_scalar_ones(n):
    space = SymplecticSpace.standard(n)
    rng = np.random.default_rng(40 + n)
    frames = [random_lagrangian(space, rng) for _ in range(7)]
    # spanning columns of assorted scales: frames under random symplectic maps
    cols = np.array([random_symplectic(space, rng, scale=0.5).entries @ F.frame
                     for F in frames])
    stacked = stacked_lagrangian_frames(space, cols)
    for k in range(len(cols)):
        assert np.array_equal(stacked[k], lagrangian_from_columns(space, cols[k]).frame)
    A, B = stacked[:-1], stacked[1:]
    sines = stacked_principal_sines(space, A, B)
    for k in range(len(A)):
        expected = principal_sines(LagrangianFrame(space, A[k]), LagrangianFrame(space, B[k]))
        assert np.array_equal(sines[k], expected)
    maps = [random_symplectic(space, rng, scale=0.5) for _ in range(5)]
    graphs = stacked_graph_frames(space, np.array([M.entries for M in maps]))
    for G, M in zip(graphs, maps):
        assert np.array_equal(G, graph_lagrangian(M).frame)


def test_stacked_frames_raise_for_any_bad_member():
    good = dirichlet_frame(S2).frame
    tilted = good.copy()
    tilted[2, 1] = 0.5            # (p1, p2 + q1/2) pairs nonzero under Omega
    with pytest.raises(NotIsotropic):
        stacked_lagrangian_frames(S2, np.array([good, tilted, good]))
    flat = np.column_stack([good[:, 0], good[:, 0]])
    with pytest.raises(RankDeficient):
        stacked_lagrangian_frames(S2, np.array([good, good, flat]))
    with pytest.raises(NotSymplectic):
        stacked_graph_frames(S1, np.array([np.eye(2), np.eye(2) + 1e-3, np.eye(2)]))


def test_intersection_basis_lies_in_both():
    rng = np.random.default_rng(3)
    A = dirichlet_frame(S2)
    M = random_symplectic(S2, rng, 0.3)
    B = apply_symplectic(M, A)
    basis = intersection_basis(A, B, tol=1e-8)
    for k in range(basis.shape[1]):
        v = basis[:, k]
        # residual of v against each frame's projector
        for F in (A.frame, B.frame):
            assert np.linalg.norm(v - F @ (F.T @ v)) < 1e-7


def test_inertia_of():
    tri = inertia_of(np.diag([2.0, -1.0, 0.0]))
    assert tri == InertiaTriple(1, 1, 1)
    assert tri.signature == 0 and tri.total == 3


def test_space_mismatch_raises():
    with pytest.raises(SpaceMismatch):
        intersection_dim(dirichlet_frame(S1), dirichlet_frame(S2))
