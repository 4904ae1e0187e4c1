"""Symplectic linear algebra over (R^2n, Omega) and the product (-Omega) (+) Omega.

Coordinates are ordered (p, q) = (quasi-derivative block, position block), and
the standard form is Omega((p,q),(p',q')) = <p,q'> - <q,p'>, i.e. the matrix
J = [[0, I], [-I, 0]].  Lagrangian subspaces are stored as orthonormal 2n x n
frames, which makes intersection dimensions a principal-angle computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.linalg as sla

from .errors import NotIsotropic, NotSymplectic, RankDeficient, SpaceMismatch

DEFAULT_TOL = 1e-9
INTERSECTION_TOL = 1e-9           # principal sines at or below it span an intersection


def standard_form_matrix(n: int) -> np.ndarray:
    """J of Omega on R^2n in (p, q) ordering."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


@dataclass(frozen=True, eq=False)
class SymplecticSpace:
    """A real symplectic vector space with an explicit form matrix.

    ``kind`` is "standard" for (R^2n, Omega) or "product" for the boundary-data
    space (R^2nl (+) R^2nr, -Omega (+) Omega); ``blocks`` carries (nl, nr) in
    the product case.  ``standard`` and ``minus_plus`` return one shared
    instance per size, which is safe because the form is read-only, so most
    equality tests end at the identity check.
    """

    dim: int
    form: np.ndarray
    kind: str = "standard"
    blocks: tuple = ()

    def __post_init__(self):
        J = np.asarray(self.form, dtype=float)
        if self.dim % 2 or J.shape != (self.dim, self.dim):
            raise ValueError("form matrix must be 2n x 2n")
        if not np.allclose(J.T, -J, atol=1e-12) or not np.allclose(J @ J, -np.eye(self.dim), atol=1e-12):
            raise ValueError("form must satisfy J^T = -J and J^2 = -I")
        object.__setattr__(self, "form", J)
        self.form.setflags(write=False)

    @property
    def half_dim(self) -> int:
        return self.dim // 2

    @staticmethod
    @cache
    def standard(n: int) -> "SymplecticSpace":
        if n < 1:
            raise ValueError("half dimension must be positive")
        return SymplecticSpace(2 * n, standard_form_matrix(n), "standard")

    @staticmethod
    @cache
    def minus_plus(n_left: int, n_right: int) -> "SymplecticSpace":
        """The product space carrying -Omega on the left block, +Omega on the right."""
        Jl = standard_form_matrix(n_left)
        Jr = standard_form_matrix(n_right)
        J = sla.block_diag(-Jl, Jr)
        return SymplecticSpace(2 * (n_left + n_right), J, "product", (n_left, n_right))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, SymplecticSpace)
            and self.dim == other.dim
            and np.array_equal(self.form, other.form)
        )

    def omega(self, u, v) -> float:
        return float(np.asarray(u) @ self.form @ np.asarray(v))


def _check_same_space(a, b):
    if a.space != b.space:
        raise SpaceMismatch("operands live in different symplectic spaces")


@dataclass(frozen=True, eq=False)
class LagrangianFrame:
    """A Lagrangian subspace stored as an orthonormal dim x half_dim frame."""

    space: SymplecticSpace
    frame: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.frame, dtype=float)
        n = self.space.half_dim
        if F.shape != (self.space.dim, n):
            raise ValueError("frame must be dim x half_dim")
        object.__setattr__(self, "frame", F)
        self.frame.setflags(write=False)

    def isotropy_residual(self) -> float:
        return float(np.max(np.abs(self.frame.T @ self.space.form @ self.frame)))

    def orthonormality_residual(self) -> float:
        n = self.space.half_dim
        return float(np.max(np.abs(self.frame.T @ self.frame - np.eye(n))))


@dataclass(frozen=True)
class InertiaTriple:
    """Counts (n_plus, n_zero, n_minus) of a symmetric form's spectrum."""

    n_plus: int
    n_zero: int
    n_minus: int

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus

    @property
    def total(self) -> int:
        return self.n_plus + self.n_zero + self.n_minus


def inertia_of(mat: np.ndarray, floor: float = 1e-7) -> InertiaTriple:
    """Inertia of a symmetric matrix; eigenvalues within ``floor`` count as zero."""
    m = np.atleast_2d(np.asarray(mat, dtype=float))
    if m.size == 0:
        return InertiaTriple(0, 0, 0)
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    n_plus = int(np.sum(w > floor))
    n_minus = int(np.sum(w < -floor))
    return InertiaTriple(n_plus, m.shape[0] - n_plus - n_minus, n_minus)


def lagrangian_from_columns(space: SymplecticSpace, columns, tol: float | None = None) -> LagrangianFrame:
    """Canonicalize spanning columns into an orthonormal Lagrangian frame.

    Raises RankDeficient when the span has dimension below half_dim and
    NotIsotropic when the form does not vanish on the span.
    """
    cols = np.atleast_2d(np.asarray(columns, dtype=float))
    return LagrangianFrame(space, stacked_lagrangian_frames(space, cols[None], tol)[0])


def stacked_lagrangian_frames(space: SymplecticSpace, columns, tol: float | None = None) -> np.ndarray:
    """``lagrangian_from_columns`` over a stack: spanning columns (k, dim, m)
    in, orthonormal frames (k, dim, half_dim) out.  The isotropy residual,
    the QR factorization and the rank check each run once over the stack;
    the first offending member raises.  A single column (m = 1) skips the
    QR: its norm is R's one diagonal entry and the frame is the column over
    its norm, which may differ from the QR's by sign."""
    cols = np.asarray(columns, dtype=float)
    if cols.ndim != 3 or cols.shape[1] != space.dim:
        raise ValueError(f"columns must have {space.dim} rows")
    scale = np.maximum(1.0, np.max(np.abs(cols), axis=(1, 2), initial=0.0))
    tol = DEFAULT_TOL * (1.0 + scale) if tol is None else tol

    iso = np.max(np.abs(np.swapaxes(cols, 1, 2) @ space.form @ cols), axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(iso > tol * scale)
    if bad.size:
        raise NotIsotropic(f"column span is not isotropic (residual {iso[bad[0]]:.3e})")

    single = cols.shape[2] == 1
    if single:
        diag = np.sqrt(np.sum(cols * cols, axis=1))
    else:
        q, r = np.linalg.qr(cols)
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    # R's diagonal scales like the columns, the isotropy residual like their square
    rank = np.sum(diag > np.reshape(tol, (-1, 1)), axis=1)
    if rank.min() < space.half_dim:
        raise RankDeficient(f"span has rank {rank.min()} < {space.half_dim}")
    if rank.max() > space.half_dim:
        raise ValueError("frame must be dim x half_dim")
    return cols / diag[:, None] if single else q[:, :, :space.half_dim]


def intersection_dim(A: LagrangianFrame, B: LagrangianFrame) -> int:
    """dim(span A  intersect  span B): the principal sines at or below INTERSECTION_TOL."""
    return int(np.sum(principal_sines(A, B) <= INTERSECTION_TOL))


def principal_sines(A: LagrangianFrame, B: LagrangianFrame) -> np.ndarray:
    """Sines of the principal angles between two Lagrangian frames, ascending.

    For Lagrangian L, J*L is the orthogonal complement of L, so the singular
    values of A^T J B are exactly sin(theta_i); zeros flag intersections and
    the largest value is the gap distance between the subspaces.
    """
    _check_same_space(A, B)
    return stacked_principal_sines(A.space, A.frame[None], B.frame[None])[0]


def stacked_principal_sines(space: SymplecticSpace, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``principal_sines`` of frame stacks A[k], B[k] (k, dim, half_dim) of one
    space, as a (k, half_dim) array ascending along each row: one SVD call
    over the stack of A^T J B (A may hold fewer orthonormal columns).  A
    1 x 1 A^T J B = c has the one singular value |c|, without the SVD."""
    C = np.swapaxes(A, 1, 2) @ space.form @ B
    if C.shape[1:] == (1, 1):
        return np.minimum(np.abs(C[:, 0]), 1.0)
    s = np.linalg.svd(C, compute_uv=False)
    return np.sort(np.clip(s, 0.0, 1.0), axis=-1)


def gap_distance(A: LagrangianFrame, B: LagrangianFrame) -> float:
    return float(principal_sines(A, B)[-1])


def intersection_basis(A: LagrangianFrame, B: LagrangianFrame,
                       tol: float = INTERSECTION_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of span A intersect span B.

    Vectors are taken from span B along the near-kernel of A^T J B; the basis
    is empty when the frames are transversal.
    """
    _check_same_space(A, B)
    M = A.frame.T @ A.space.form @ B.frame
    _, s, vt = np.linalg.svd(M)
    small = s <= tol
    if not np.any(small):
        return np.zeros((A.space.dim, 0))
    basis = B.frame @ vt[small].T
    q, _ = np.linalg.qr(basis)
    return q[:, : int(np.sum(small))]


@dataclass(frozen=True, eq=False)
class SymplecticMatrix:
    """A matrix M with M^T J M = J within tolerance."""

    space: SymplecticSpace
    entries: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.entries, dtype=float)
        if M.shape != (self.space.dim, self.space.dim):
            raise ValueError("entries must be dim x dim")
        object.__setattr__(self, "entries", M)
        self.entries.setflags(write=False)

    @staticmethod
    def checked(space: SymplecticSpace, entries, tol: float = 1e-8) -> "SymplecticMatrix":
        M = SymplecticMatrix(space, entries)
        res = symplectic_residual(M)
        if res > tol:
            raise NotSymplectic(f"M^T J M - J has max entry {res:.3e} > {tol:.1e}")
        return M


def symplectic_residual(M: SymplecticMatrix) -> float:
    """Max-entry norm of M^T J M - J; zero iff exactly symplectic."""
    A = M.entries
    J = M.space.form
    return float(np.max(np.abs(A.T @ J @ A - J)))


def graph_lagrangian(M: SymplecticMatrix, tol: float = 1e-8) -> LagrangianFrame:
    """Frame of {(v, Mv)} in the product space (-Omega) (+) Omega.  The
    residual is checked against tol (1 + max|M|^2), the scale of M^T J M."""
    n = M.space.half_dim
    return LagrangianFrame(SymplecticSpace.minus_plus(n, n),
                           stacked_graph_frames(M.space, M.entries[None], tol)[0])


def stacked_graph_frames(space: SymplecticSpace, M, tol: float = 1e-8) -> np.ndarray:
    """``graph_lagrangian`` over a stack: matrices (k, dim, dim) of ``space``
    in, graph frames (k, 2 dim, dim) of the product space out.  Each
    member's symplectic residual is checked against tol (1 + max|M|^2); the
    first offending member raises NotSymplectic."""
    M = np.asarray(M, dtype=float)
    J = space.form
    res = np.max(np.abs(np.swapaxes(M, 1, 2) @ J @ M - J), axis=(1, 2))
    bad = np.flatnonzero(res > tol * (1.0 + np.max(np.abs(M), axis=(1, 2)) ** 2))
    if bad.size:
        raise NotSymplectic(f"graph of a non-symplectic matrix is not Lagrangian "
                            f"(residual {res[bad[0]]:.3e})")
    n = space.half_dim
    cols = np.concatenate([np.broadcast_to(np.eye(2 * n), M.shape), M], axis=1)
    return stacked_lagrangian_frames(SymplecticSpace.minus_plus(n, n), cols)


def apply_symplectic(M: SymplecticMatrix, L: LagrangianFrame, tol: float = 1e-8) -> LagrangianFrame:
    """Image frame of M . L, re-orthonormalized."""
    _check_same_space(M, L)
    if symplectic_residual(M) > tol:
        raise NotSymplectic("image of a Lagrangian under a non-symplectic map")
    return lagrangian_from_columns(L.space, M.entries @ L.frame)


# -- distinguished frames and random generators ------------------------------

def dirichlet_frame(space: SymplecticSpace) -> LagrangianFrame:
    """R^n x (0): quasi-derivative free, position zero."""
    n = space.half_dim
    cols = np.vstack([np.eye(n), np.zeros((n, n))])
    return LagrangianFrame(space, cols)


def neumann_frame(space: SymplecticSpace) -> LagrangianFrame:
    """(0) x R^n: position free, quasi-derivative zero."""
    n = space.half_dim
    cols = np.vstack([np.zeros((n, n)), np.eye(n)])
    return LagrangianFrame(space, cols)


def line_frame(space: SymplecticSpace, vector) -> LagrangianFrame:
    """Frame of a one-dimensional span in a 2-dimensional space."""
    v = np.asarray(vector, dtype=float).reshape(-1, 1)
    return lagrangian_from_columns(space, v)


def direct_sum_frame(left, right) -> LagrangianFrame:
    """Lagrangian Lambda_left (+) Lambda_right of the product space.

    Isotropy does not depend on the sign of the block forms, so any Lagrangian
    of the standard left/right factors embeds block-diagonally.
    """
    Fl = left.frame if isinstance(left, LagrangianFrame) else np.asarray(left, float)
    Fr = right.frame if isinstance(right, LagrangianFrame) else np.asarray(right, float)
    nl, nr = Fl.shape[1], Fr.shape[1]
    prod = SymplecticSpace.minus_plus(nl, nr)
    cols = sla.block_diag(Fl, Fr)
    return LagrangianFrame(prod, cols)


def _commuting_skew(space: SymplecticSpace, rng) -> np.ndarray:
    """Random skew-symmetric matrix commuting with the form (infinitesimal U(n))."""
    d = space.dim
    K = rng.standard_normal((d, d))
    K = 0.5 * (K - K.T)
    J = space.form
    return 0.5 * (K - J @ K @ J)


def random_lagrangian(space: SymplecticSpace, rng) -> LagrangianFrame:
    """Haar-like random Lagrangian: orthogonal-symplectic rotation of a fixed frame."""
    A = _commuting_skew(space, rng)
    M = sla.expm(A)
    base = dirichlet_frame(space)
    return LagrangianFrame(space, M @ base.frame)


def random_symplectic(space: SymplecticSpace, rng, scale: float = 1.0) -> SymplecticMatrix:
    """exp(J S) for random symmetric S: a generic symplectic matrix."""
    d = space.dim
    S = rng.standard_normal((d, d))
    S = 0.5 * (S + S.T) * scale
    return SymplecticMatrix(space, sla.expm(space.form @ S))


def rotation_matrix(space: SymplecticSpace, angle: float) -> np.ndarray:
    """exp(angle * J): orthogonal and symplectic in any of our spaces."""
    J = space.form
    return np.cos(angle) * np.eye(space.dim) + np.sin(angle) * J
