"""Maximally monotone building blocks on R^d and their resolvents.

Two concrete operator kinds are provided: affine maps ``x -> M x + b`` whose
symmetric part is positive semidefinite, and normal cones of boxes (whose
resolvent is the componentwise clamp, independent of the stepsize). An affine
operator factors ``M`` once, at construction (an eigendecomposition when ``M``
is symmetric, a complex Schur form otherwise), and every resolvent and inverse
solve goes through that one factorization, whatever the stepsize. Every map
takes one point ``(dim,)`` or a block of points ``(k, dim)`` (``as_points``),
so a block costs matrix-matrix products. Everything downstream touches
operators only through ``resolvent``; set-valued operators are never
materialized as graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur, solve_triangular
from scipy.linalg import lu_factor  # noqa: F401 - unused; the benchmark's factorization counter wraps this name

from .errors import (
    DomainError,
    NonMonotoneOperator,
    NonPositiveStepsize,
    SingularSystem,
    UnsupportedOperator,
    UnsupportedSet,
)

MONOTONE_EIG_TOL = 1e-10
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
    if not np.all(np.isfinite(v)):
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
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise NonPositiveStepsize(f"stepsize must be positive, got {gamma}")
    return gamma


class AffineOperator:
    """The maximally monotone operator ``A(x) = M x + b``.

    Monotonicity (positive semidefiniteness of ``(M + M^T)/2``) is verified at
    construction; the strong-monotonicity modulus ``mu`` and the Lipschitz
    constant ``lip`` are computed here once rather than trusted from callers,
    since contraction factors and error-bound constants depend on them.
    """

    single_valued = True

    def __init__(self, M, b=None):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DomainError(f"M must be square, got shape {M.shape}")
        if not np.all(np.isfinite(M)):
            raise DomainError("M has non-finite entries")
        self.M = M
        d = M.shape[0]
        self.b = np.zeros(d) if b is None else as_vector(b, d)

        # one factorization M = Z T Z^H serves every stepsize: an eigendecomposition
        # (T the eigenvalue vector) for exactly symmetric M, a complex Schur form otherwise
        self._eig: tuple[np.ndarray, np.ndarray] | None = None
        if np.array_equal(M, M.T):
            eigs, vecs = np.linalg.eigh(M)
            self._eig = (eigs, vecs)
            lip = max(-eigs[0], eigs[-1])
        else:
            T, Z = schur(M, output="complex")
            self._schur = (T, Z, Z.conj().T)
            eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
            lip = np.linalg.norm(M, 2)
        if eigs[0] < -MONOTONE_EIG_TOL:
            raise NonMonotoneOperator(
                f"symmetric part has eigenvalue {eigs[0]:.3e} < -{MONOTONE_EIG_TOL}"
            )
        self.sym_eig_min = float(eigs[0])
        self.sym_eig_max = float(eigs[-1])
        self.mu = float(eigs[0]) if eigs[0] > MONOTONE_EIG_TOL else 0.0
        self.lip = float(lip)
        self._cond: float | None = None

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
            eigs, vecs = self._eig
            return ((r @ vecs) / (shift + scale * eigs)) @ vecs.T
        T, Z, Zh = self._schur
        A = scale * T
        A[np.diag_indices_from(A)] += shift
        # M, and with it T, is finite by construction; r comes through as_points
        return (Z @ solve_triangular(A, Zh @ r.T, check_finite=False)).real.T

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

    def reflected_resolvent(self, gamma: float, x) -> np.ndarray:
        """Evaluate ``2 (I + gamma*A)^{-1} x - x``."""
        x = as_points(x, self.dim)
        return 2.0 * self.resolvent(gamma, x) - x

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

    def inverse_operator(self) -> "AffineOperator":
        """Return A^{-1} as an affine operator (monotone whenever A is)."""
        self._require_invertible()
        Minv = np.linalg.inv(self.M)
        return AffineOperator(Minv, -Minv @ self.b)

    def scaled(self, t: float) -> "AffineOperator":
        """Return ``t*A`` for t > 0."""
        if t <= 0:
            raise DomainError("scaling factor must be positive")
        return AffineOperator(t * self.M, t * self.b)

    @property
    def is_symmetric(self) -> bool:
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
        return np.clip(as_points(x, self.dim), self.lower, self.upper)

    def resolvent(self, gamma: float, x) -> np.ndarray:
        _check_gamma(gamma)
        return self.project(x)

    def reflected_resolvent(self, gamma: float, x) -> np.ndarray:
        x = as_points(x, self.dim)
        return 2.0 * self.resolvent(gamma, x) - x

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = as_vector(x, self.dim)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

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


class SingletonSet:
    """The set {point}; projection is constant."""

    def __init__(self, point):
        self.point = as_vector(point)

    def project(self, y) -> np.ndarray:
        as_vector(y, self.point.shape[0])
        return self.point.copy()

    def scaled(self, t: float) -> "SingletonSet":
        if t <= 0:
            raise DomainError("scaling factor must be positive")
        return SingletonSet(t * self.point)


@dataclass(frozen=True)
class RelativeMonotonicityReport:
    samples: int
    violations: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def check_relative_strong_monotonicity(
    op,
    region,
    mu_claim: float,
    sample_count: int,
    seed: int,
    sample_scale: float = 3.0,
    tol: float = 1e-9,
) -> RelativeMonotonicityReport:
    """Sample-test strong monotonicity of ``op`` relative to ``region``.

    Draws ``sample_count`` Gaussian points y, puts p = P_X(y), and checks

        <A(y) - A(p), y - p>  >=  mu_claim * ||y - p||^2 - tol.

    Only single-valued operators are supported; the region must expose a
    ``project`` method.
    """
    if not callable(op):
        raise UnsupportedOperator("operator must be single-valued (callable)")
    project = getattr(region, "project", None)
    if project is None:
        raise UnsupportedSet("region must provide a project(y) method")
    if sample_count < 1:
        raise DomainError("sample_count must be >= 1")

    dim = op.dim
    rng = np.random.default_rng(seed)
    violations = 0
    worst = np.inf
    for _ in range(sample_count):
        y = sample_scale * rng.standard_normal(dim)
        p = project(y)
        gap = y - p
        margin = float((op(y) - op(p)) @ gap - mu_claim * (gap @ gap))
        worst = min(worst, margin)
        if margin < -tol:
            violations += 1
    return RelativeMonotonicityReport(sample_count, violations, worst)
