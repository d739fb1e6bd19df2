"""Seeded synthetic monotone inclusions for experiments and tests.

All generators are deterministic functions of the seed. Symmetric positive
(semi)definite matrices are built by conjugating a fixed spectrum with a
random orthogonal matrix, so the extreme eigenvalues hit their targets by
construction, and the operator is factored by that spectrum and basis rather
than by an eigendecomposition of the matrix they build. Matrices loaded from a
file are eigendecomposed (or Schur-factored) once each.
"""

from __future__ import annotations

import math
import zipfile

import numpy as np

from .errors import ConfigError
from .operators import AffineOperator, BoxNormalCone

_GENERATED = ("dim", "n_operators", "mu_target", "L_target")
#: the parameters of ``generate_problem`` each kind reads, besides ``kind`` and ``seed``
PROBLEM_KEYS = {
    "affine_strongly_monotone": _GENERATED,
    "affine_skew_plus_strong": _GENERATED,
    "affine_plus_box": (*_GENERATED, "box_half_width"),
    "custom_matrices": ("matrices_path",),
}
PROBLEM_KINDS = tuple(PROBLEM_KEYS)


def symmetric_operator(dim: int, lam_min: float, lam_max: float, rng) -> AffineOperator:
    """Symmetric operator with spectrum linspace(lam_min, lam_max) and random offset.

    The eigenbasis is a random orthogonal Q from a QR factorization, or the identity,
    drawing nothing, when the targets are equal. The operator keeps that spectrum and
    basis as its factorization (``AffineOperator.from_spectrum``): no eigendecomposition
    of the M they build is run.
    """
    if lam_min == lam_max:
        Q = np.eye(dim)
    else:
        Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return AffineOperator.from_spectrum(np.linspace(lam_min, lam_max, dim), Q, rng.standard_normal(dim))


def skew_operator(dim: int, lip: float, rng) -> AffineOperator:
    """Skew-symmetric operator scaled to ||M|| = lip (monotone, not strongly)."""
    if dim < 2:
        raise ConfigError("skew operators need dim >= 2")
    G = rng.standard_normal((dim, dim))
    K = 0.5 * (G - G.T)
    K *= lip / np.linalg.norm(K, 2)
    return AffineOperator(K, rng.standard_normal(dim))


def generate_problem(
    kind: str,
    dim: int,
    seed: int,
    mu_target: float,
    L_target: float,
    n_operators: int = 2,
    box_half_width: float = 1.0,
    matrices_path: str | None = None,
) -> list:
    """Build the operator list for one synthetic inclusion.

    affine_strongly_monotone: n-1 symmetric operators with spectrum
        [mu_target, L_target], plus one merely-monotone symmetric tail
        (spectrum [0, L_target]) when n_operators > 2; for pairs both are
        strongly monotone.
    affine_skew_plus_strong: n-1 skew operators with norm L_target plus one
        strongly monotone symmetric tail.
    affine_plus_box: n-1 strongly monotone symmetric operators plus the
        normal cone of [-box_half_width, box_half_width]^dim.
    custom_matrices: arrays M1, b1, M2, b2, ... loaded from an .npz file,
        optionally followed by box_lower/box_upper bounds (both or neither). A file
        np.load cannot read, or one bound alone, raises ConfigError.
    """
    if kind not in PROBLEM_KINDS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    if kind != "custom_matrices":
        if dim < 1:
            raise ConfigError("dim must be >= 1")
        if n_operators < 2:
            raise ConfigError("need at least two operators")
        for key, value in (("mu_target", mu_target), ("L_target", L_target)):
            if not math.isfinite(value):
                raise ConfigError(f"problem.{key} must be finite, got {value!r}")
        if not (0.0 < mu_target <= L_target):
            raise ConfigError("need 0 < mu_target <= L_target")
        # an infinite half-width is an unbounded box; a negative or NaN one is no box
        if kind == "affine_plus_box" and not box_half_width >= 0.0:
            raise ConfigError(f"problem.box_half_width must be >= 0, got {box_half_width!r}")

    rng = np.random.default_rng(seed)
    if kind == "affine_strongly_monotone":
        ops = [symmetric_operator(dim, mu_target, L_target, rng) for _ in range(n_operators - 1)]
        if n_operators == 2:
            ops.append(symmetric_operator(dim, mu_target, L_target, rng))
        else:
            ops.append(symmetric_operator(dim, 0.0, L_target, rng))
        return ops
    if kind == "affine_skew_plus_strong":
        ops = [skew_operator(dim, L_target, rng) for _ in range(n_operators - 1)]
        ops.append(symmetric_operator(dim, mu_target, L_target, rng))
        return ops
    if kind == "affine_plus_box":
        ops = [symmetric_operator(dim, mu_target, L_target, rng) for _ in range(n_operators - 1)]
        ops.append(BoxNormalCone(-box_half_width * np.ones(dim), box_half_width * np.ones(dim)))
        return ops

    # custom_matrices
    if matrices_path is None:
        raise ConfigError("custom_matrices needs problem.matrices_path")
    try:
        # a file that is no .npz archive (one .npy array, say) names no arrays
        with open(matrices_path, "rb") as fh:
            loaded = np.load(fh)
            data = {key: loaded[key] for key in getattr(loaded, "files", ())}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read matrices file {matrices_path}: {exc}") from exc
    ops = []
    i = 1
    while f"M{i}" in data:
        ops.append(AffineOperator(data[f"M{i}"], data.get(f"b{i}")))
        i += 1
    bounds = [key for key in ("box_lower", "box_upper") if key in data]
    if len(bounds) == 1:
        raise ConfigError(f"matrices file {matrices_path} defines {bounds[0]} without the other bound")
    if bounds:
        ops.append(BoxNormalCone(data["box_lower"], data["box_upper"]))
    if len(ops) < 2:
        raise ConfigError("custom_matrices file must define at least M1, M2")
    return ops
