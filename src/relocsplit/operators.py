"""Maximally monotone building blocks on R^d and their resolvents.

Two concrete operator kinds are provided: affine maps ``x -> M x + b`` whose
symmetric part is positive semidefinite, and normal cones of boxes (whose
resolvent is the componentwise clamp, independent of the stepsize). An affine
operator holds one factorization of ``M``, made at construction: the spectrum
and orthonormal eigenbasis it was built from (``AffineOperator.from_spectrum``),
or else an eigendecomposition of a symmetric ``M`` and a complex Schur form of
any other. Every resolvent and inverse solve goes through that one
factorization, whatever the stepsize. Every map
takes one point ``(dim,)`` or a block of points ``(k, dim)`` (``as_points``),
so a block costs matrix-matrix products. Everything downstream touches
operators only through ``resolvent``; set-valued operators are never
materialized as graphs.
"""

from __future__ import annotations

import copy
import math

import numpy as np
from scipy.linalg import schur, solve_triangular
from scipy.linalg import lu_factor  # noqa: F401 - unused; the benchmark's factorization counter wraps this name

from .errors import (
    DomainError,
    NonMonotoneOperator,
    NonPositiveStepsize,
    SingularSystem,
    UnsupportedOperator,
)

MONOTONE_EIG_TOL = 1e-10
#: largest entry of ``V^T V - I`` that ``AffineOperator.from_spectrum`` accepts in its eigenvectors
ORTHOGONAL_TOL = 1e-10
#: condition-number ceiling for direct inversion
MAX_INVERSE_COND = 1e12
#: distance from a box bound within which ``face_point`` moves a coordinate onto the bound
FACE_TOL = 1e-7


def as_points(x, dim: int) -> np.ndarray:
    """Coerce ``x`` to finite floats: one point of shape ``(dim,)`` or a block ``(k, dim)``.

    A scalar counts as a point of length 1. Every map that takes a point
    also takes a block of points, row by row, through the same code.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim > 2:
        raise DomainError(f"expected a point or a block of points, got shape {v.shape}")
    if v.shape[-1] != dim:
        raise DomainError(f"expected dimension {dim}, got {v.shape[-1]}")
    if not np.isfinite(v).all():
        raise DomainError("point has non-finite coordinates")
    return v


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d float array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DomainError(f"expected a vector, got shape {v.shape}")
    return as_points(v, v.shape[0] if dim is None else dim)


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise NonPositiveStepsize(f"stepsize must be positive, got {gamma}")
    return gamma


class AffineOperator:
    """The maximally monotone operator ``A(x) = M x + b``.

    Monotonicity (positive semidefiniteness of ``(M + M^T)/2``) is verified at
    construction; the strong-monotonicity modulus ``mu`` and the Lipschitz
    constant ``lip`` are computed here once rather than trusted from callers,
    since contraction factors and error-bound constants depend on them. An
    operator made by ``from_spectrum`` takes them from the spectrum that M is
    built from, so they are M's own up to rounding.
    """

    single_valued = True

    def __init__(self, M, b=None):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DomainError(f"M must be square, got shape {M.shape}")
        if not np.all(np.isfinite(M)):
            raise DomainError("M has non-finite entries")
        # one factorization M = Z T Z^H serves every stepsize: an eigendecomposition
        # (T the eigenvalue vector) for exactly symmetric M, a complex Schur form otherwise
        if np.array_equal(M, M.T):
            self._eig = np.linalg.eigh(M)
            self._setup(M, b, self._eig[0])
        else:
            T, Z = schur(M, output="complex")
            self._eig = None
            # the last two are a buffer for shift*I + scale*T, which every solve fills before it
            # reads it (copies of the operator share it), and a view of the buffer's diagonal
            system = np.empty_like(T)
            self._schur = (T, Z, Z.conj().T, system, np.einsum("ii->i", system))
            self._setup(M, b, np.linalg.eigvalsh(0.5 * (M + M.T)), np.linalg.norm(M, 2))

    @classmethod
    def from_spectrum(cls, eigs, vecs, b=None) -> "AffineOperator":
        """The symmetric operator ``x -> V diag(eigs) V^T x + b``, factored by ``(eigs, V)``.

        ``vecs`` (V) must be orthogonal, to within ``ORTHOGONAL_TOL`` per entry of ``V^T V - I``.
        M is formed from the factors, and symmetrized, by one expression, so the factors cannot
        disagree with M beyond rounding, and no eigendecomposition runs.
        """
        eigs = as_vector(eigs)
        d = eigs.shape[0]
        vecs = np.asarray(vecs, dtype=float)
        if vecs.shape != (d, d) or not np.all(np.isfinite(vecs)):
            raise DomainError(f"need finite eigenvectors of shape {(d, d)}, got {vecs.shape}")
        # V^T V - I, made in the one array V^T V
        gram = vecs.T @ vecs
        np.einsum("ii->i", gram)[:] -= 1.0
        if np.abs(gram, out=gram).max() > ORTHOGONAL_TOL:
            raise DomainError("eigenvectors are not orthonormal")
        del gram  # gone before M is made
        M = (vecs * eigs) @ vecs.T
        # (M + M^T) * 0.5 in place: numpy buffers the overlapping transpose
        np.add(M, M.T, out=M)
        M *= 0.5
        op = cls.__new__(cls)
        op._eig = (eigs, vecs)
        op._setup(M, b, eigs)
        return op

    def _setup(self, M, b, sym_eigs: np.ndarray, lip: float | None = None) -> None:
        """Store M and b, check monotonicity and derive the constants from ``sym_eigs``.

        ``sym_eigs`` are the eigenvalues of the symmetric part of M. ``lip`` is the norm of M;
        left out for a symmetric M, whose norm is its largest |eigenvalue|.
        """
        self.M = M
        self.b = np.zeros(M.shape[0]) if b is None else as_vector(b, M.shape[0])
        lo, hi = float(sym_eigs.min()), float(sym_eigs.max())
        if lo < -MONOTONE_EIG_TOL:
            raise NonMonotoneOperator(
                f"symmetric part has eigenvalue {lo:.3e} < -{MONOTONE_EIG_TOL}"
            )
        self.sym_eig_min = lo
        self.sym_eig_max = hi
        self.mu = lo if lo > MONOTONE_EIG_TOL else 0.0
        self.lip = float(max(-lo, hi) if lip is None else lip)
        self._cond: float | None = None
        #: ``(shift, scale, shift + scale * eigs)`` of the last eigenvalue solve
        self._divisor: tuple[float, float, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def __call__(self, x) -> np.ndarray:
        return as_points(x, self.dim) @ self.M.T + self.b

    def __repr__(self):
        return f"AffineOperator(dim={self.dim}, mu={self.mu:.4g}, lip={self.lip:.4g})"

    def _solve(self, shift: float, scale: float, r: np.ndarray) -> np.ndarray:
        """Solve ``(shift*I + scale*M) x = r`` with the construction-time factorization.

        ``r`` is one right-hand side ``(d,)`` or a block of them ``(k, d)``,
        solved row by row; a block costs matrix-matrix products instead of k
        matrix-vector ones.
        """
        if self._eig is not None:
            return self._solve_in_basis(shift, scale, r @ self._eig[1])
        return self._solve_in_basis(shift, scale, self._schur[2] @ r.T)

    def _solve_in_basis(self, shift: float, scale: float, u: np.ndarray) -> np.ndarray:
        """``_solve`` from its right-hand sides in the factor's basis: the rows ``r V`` through
        the eigenvectors, the columns ``Z^H r^T`` through the Schur form.

        The divisor of the eigenvalue solve is kept for the last ``(shift, scale)``: a run asks
        for one stepsize many times in a row. The Schur solve writes ``shift*I + scale*T`` into
        a buffer the operator keeps, so no call allocates a d x d array.
        """
        if self._eig is not None:
            eigs, vecs = self._eig
            held = self._divisor
            if held is None or held[0] != shift or held[1] != scale:
                held = self._divisor = (shift, scale, shift + scale * eigs)
            return (u / held[2]) @ vecs.T
        T, Z, _, system, diagonal = self._schur
        np.multiply(T, scale, out=system)
        diagonal += shift
        # M, and with it T, is finite by construction; right-hand sides come through as_points
        return (Z @ solve_triangular(system, u, check_finite=False)).real.T

    def linear_resolvent_rows(self, gamma: float, a: int, k: int) -> np.ndarray:
        """The resolvent of ``x -> M x`` at k rows of the identity from row a, rows past its last
        row being 0, as ``linear_part().resolvent`` returns them: bit for bit, but for the sign
        of a Schur solve's zeros in the rows past. The rows' products with the factor are rows of
        V, or columns of Z^H, so they are read off, not multiplied; the k rows still go through
        one solve, as the solve's rounding depends on k."""
        gamma = _check_gamma(gamma)
        n = max(0, min(k, self.dim - a))
        if self._eig is not None:
            basis = np.zeros((k, self.dim))
            basis[:n] = self._eig[1][a:a + n]
        else:
            basis = np.zeros((self.dim, k), dtype=complex)
            basis[:, :n] = self._schur[2][:, a:a + n]
        return self._solve_in_basis(1.0, gamma, basis)

    def resolvent(self, gamma: float, x) -> np.ndarray:
        """Evaluate ``(I + gamma*A)^{-1} x`` at a point or at each row of a block.

        With ``M = Z T Z^H`` factored once, ``Z (I + gamma*T)^{-1} Z^H (x - gamma*b)``
        costs O(d^2) per point for any stepsize: two matrix products through the
        eigenvectors of a symmetric M, plus one triangular solve with the Schur
        form otherwise. No stepsize makes the system singular: every eigenvalue
        lam of M has ``Re(lam) >= sym_eig_min >= -MONOTONE_EIG_TOL``, so the
        diagonal ``1 + gamma*lam`` stays off zero.
        """
        gamma = _check_gamma(gamma)
        x = as_points(x, self.dim)
        return self._solve(1.0, gamma, x - gamma * self.b)

    def _require_invertible(self) -> None:
        if self._cond is None:
            if self._eig is not None:
                # the singular values of a symmetric M are the |eigenvalues| from construction
                mags = np.abs(self._eig[0])
                self._cond = float(mags.max() / mags.min()) if mags.min() > 0.0 else np.inf
            else:
                self._cond = float(np.linalg.cond(self.M))
        if not np.isfinite(self._cond) or self._cond > MAX_INVERSE_COND:
            raise SingularSystem(
                f"M is not invertible within tolerance (cond={self._cond:.3e})"
            )

    def inverse_apply(self, y) -> np.ndarray:
        """Solve ``M x + b = y`` for x, row by row for a block y. Requires M invertible (cond <= 1e12)."""
        y = as_points(y, self.dim)
        self._require_invertible()
        return self._solve(0.0, 1.0, y - self.b)

    def linear_part(self) -> "AffineOperator":
        """Return ``x -> M x``: this operator with offset 0, sharing M and its factorization."""
        op = copy.copy(self)
        op.b = np.zeros_like(self.b)
        return op

    @property
    def is_symmetric(self) -> bool:
        # an eigendecomposition is made only for an exactly symmetric M
        if self._eig is not None:
            return True
        scale = max(1.0, float(np.abs(self.M).max()))
        return bool(np.abs(self.M - self.M.T).max() <= 1e-12 * scale)


class BoxNormalCone:
    """Normal cone of the box ``[lower, upper]`` (entries may be +-inf).

    Its resolvent is the projection onto the box, for every stepsize.
    """

    single_valued = False
    mu = 0.0
    lip = np.inf

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.ndim == 0:
            lower = lower.reshape(1)
        if upper.ndim == 0:
            upper = upper.reshape(1)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DomainError("lower and upper must be 1-d with matching shapes")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise DomainError("box bounds must not be NaN")
        if np.any(lower > upper):
            raise DomainError("box is empty: lower > upper somewhere")
        self.lower = lower
        self.upper = upper

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def __repr__(self):
        return f"BoxNormalCone(dim={self.dim})"

    def project(self, x) -> np.ndarray:
        # np.clip's result for a point, without its argument handling; x before the bound, so a
        # tie between signed zeros gives the bound, as np.clip does
        return np.minimum(np.maximum(as_points(x, self.dim), self.lower), self.upper)

    def resolvent(self, gamma: float, x) -> np.ndarray:
        _check_gamma(gamma)
        return self.project(x)

    def face_point(self, z) -> np.ndarray:
        """z clipped into the box, with every coordinate within ``FACE_TOL`` of a bound moved onto it."""
        p = self.project(z)
        p = np.where(p <= self.lower + FACE_TOL, self.lower, p)
        return np.where(p >= self.upper - FACE_TOL, self.upper, p)

    def project_normal_cone(self, z, v) -> np.ndarray:
        """Project ``v`` onto the normal cone N_C(p) at p = ``face_point(z)``. Componentwise the
        cone allows v_k >= 0 where p_k is the upper bound, v_k <= 0 where it is the lower, any
        v_k where it is both, and 0 inside."""
        p, v = self.face_point(as_vector(z, self.dim)), as_vector(v, self.dim)
        up = np.where(p == self.upper, np.maximum(v, 0.0), 0.0)
        return up + np.where(p == self.lower, np.minimum(v, 0.0), 0.0)


def inclusion_gaps(operators, z) -> tuple[float, float]:
    """How far z is from solving 0 in A1 z + ... + AN z: ``(||z - p||, ||s + w||)``.

    s is the sum of the single-valued A_i z. With one box C among the operators, p is its
    ``face_point(z)`` and w the projection of -s onto the normal cone N_C(p), so p lies in C
    and w in N_C(p) exactly; with no box, p = z and w = 0. More than one box, or another
    set-valued operator, raises UnsupportedOperator.
    """
    cones = [op for op in operators if isinstance(op, BoxNormalCone)]
    pointwise = [op for op in operators if not isinstance(op, BoxNormalCone)]
    if len(cones) > 1:
        raise UnsupportedOperator("inclusion residual supports at most one normal cone")
    if not all(callable(op) for op in pointwise):
        raise UnsupportedOperator("inclusion residual needs single-valued operators")
    s = sum((op(z) for op in pointwise), np.zeros_like(z))
    if not cones:
        return 0.0, float(np.linalg.norm(s))
    cone = cones[0]
    p, w = cone.face_point(z), cone.project_normal_cone(z, -s)
    return float(np.linalg.norm(z - p)), float(np.linalg.norm(s + w))

