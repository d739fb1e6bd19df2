"""Multioperator resolvent splitting with variable stepsizes.

For N >= 2 maximally monotone operators the algorithmic map acts on block
vectors x = (x^1, ..., x^{N-1}) via a chain of N resolvent evaluations

    z^1 = J_{gamma A1} x^1
    z^i = J_{gamma Ai}(z^{i-1} + x^i - x^{i-1})       i = 2..N-1
    z^N = J_{gamma AN}(z^1 + z^{N-1} - x^{N-1})
    T_gamma x = x + theta * (z^2 - z^1, ..., z^N - z^{N-1})

with relaxation theta in (0, 1). Fixed points of T_gamma correspond exactly to
zeros of A1 + ... + AN through the common resolvent value z. The relocator
replaces every block i by (delta/gamma) x^i + (1 - delta/gamma) J_{gamma A1} x^1.
At N = 2 and theta = 1 the chain is Douglas-Rachford, T_gamma x = x + (y - z) with
y = J_{gamma A2}(2z - x): ``dr.DRFamily`` is this family there.

Block vectors are stored flat with stride ``space_dim``; the block count is
part of the family, so the generic driver stays oblivious to N.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import fixed_point_line
from .errors import (
    BadBlockCount,
    CertificationFailed,
    ChainMismatch,
    DomainError,
)
from .family import OperatorFamily, Regularity, StepsizeSchedule, block_sizes, relocated_iterate
from .operators import AffineOperator, inclusion_gaps

#: margin keeping the relaxation parameter strictly inside (0, 1)
_THETA_MARGIN = 1e-6
#: largest resolvent-chain residual ``mt_fixed_point_to_zero`` accepts at a fixed point
CHAIN_TOL = 1e-7
#: the structural hypotheses of each case of ``mt_contraction_certificate``
_CASES = {"last_strong": "Lipschitz single-valued heads and a strongly monotone tail",
          "first_strong": "strongly monotone Lipschitz heads"}


@dataclass(frozen=True)
class MTLipschitzConstants:
    """Two Lipschitz constants for the block relocator.

    ``L_check`` is the loose, analysis-friendly constant

        sqrt(d/g) + sqrt(|g-d|/g) * max{sqrt(N-1), sqrt(2N) sqrt(d/g)}

    and ``L_hat`` the tighter one

        max{sqrt(d/g + (N-1)|g-d|/g), sqrt(d/g + 2N (d/g) |g-d|/g)}.

    Always L_hat <= L_check, both equal 1 at d == g, and both are bounded
    below by min{1, sqrt(d/g)}.
    """

    L_check: float | np.ndarray
    L_hat: float | np.ndarray


def mt_relocator_lipschitz(delta, gamma, n_operators: int) -> MTLipschitzConstants:
    """Both constants for stepsizes ``delta``, ``gamma``; arrays give them elementwise."""
    delta, gamma = np.asarray(delta, dtype=float), np.asarray(gamma, dtype=float)
    if not (np.all(delta > 0) and np.all(gamma > 0)):
        raise DomainError("stepsizes must be positive")
    if n_operators < 2:
        raise DomainError("need at least two operators")
    N = n_operators
    s = delta / gamma
    q = np.abs(gamma - delta) / gamma
    l_check = np.sqrt(s) + np.sqrt(q) * np.maximum(math.sqrt(N - 1), math.sqrt(2 * N) * np.sqrt(s))
    l_hat = np.maximum(np.sqrt(s + (N - 1) * q), np.sqrt(s + 2 * N * s * q))
    return MTLipschitzConstants(l_check[()], l_hat[()])


class MTFamily(OperatorFamily):
    """Resolvent-splitting family on H^{N-1} for operators A1..AN.

    The driver-facing dimension is ``(N-1) * space_dim``. When the structural hypotheses of
    a case of ``mt_contraction_certificate`` hold, the regularity record carries its sampled
    factor beta and the averagedness (beta + 1)/2 of a beta-contraction. ``dr.DRFamily`` is this
    family at N = 2 and theta = 1, with its own regularity record and relocator constant.
    """

    def __init__(self, operators, theta: float = 0.5, gamma_interval: tuple[float, float] = (0.5, 2.0)):
        if not (_THETA_MARGIN < theta < 1.0 - _THETA_MARGIN):
            raise DomainError("theta must lie strictly inside (0, 1)")
        self._setup(operators, theta, gamma_interval)

    def _setup(self, operators, theta: float, gamma_interval) -> None:
        """Set the family up for any theta; ``__init__`` admits only theta in (0, 1)."""
        operators = list(operators)
        if len(operators) < 2:
            raise DomainError("need at least two operators")
        dims = {op.dim for op in operators}
        if len(dims) != 1:
            raise DomainError(f"operator dimensions differ: {sorted(dims)}")
        self._set_interval(gamma_interval)
        self.operators = operators
        self.theta = float(theta)
        self.space_dim = operators[0].dim
        self.n_operators = len(operators)
        self.n_blocks = self.n_operators - 1
        self.dim = self.n_blocks * self.space_dim

    def split_blocks(self, x) -> np.ndarray:
        """View a point ``(dim,)`` as ``(n_blocks, space_dim)``, a block of points
        ``(k, dim)`` as ``(k, n_blocks, space_dim)``."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise BadBlockCount(
                f"expected {self.n_blocks} blocks of size {self.space_dim} "
                f"({self.dim} entries) per point, got shape {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise DomainError("block vector has non-finite coordinates")
        return x.reshape(x.shape[:-1] + (self.n_blocks, self.space_dim))

    def apply(self, gamma, x, shadow=None):
        """T_gamma x from the N chain values z^1..z^N.

        A relocated x passes its shadow as z^1: J_{gamma A1}(Q_{gamma<-g} w)^1 = J_{g A1} w^1.
        For a block of points every chain value is one resolvent call on k rows. At the
        stepsize of the held affine part (``affine_part``), x P^T + q instead.
        """
        gamma = self.check_gamma(gamma)
        xb = self.split_blocks(x)
        held = self._affine_at(gamma)
        if held is not None:
            return xb.reshape(xb.shape[:-2] + (self.dim,)) @ held[0] + held[1]
        ops = self.operators
        K = self.n_blocks
        lead = xb.shape[:-2]
        z = np.empty(lead + (self.n_operators, self.space_dim))
        z[..., 0, :] = ops[0].resolvent(gamma, xb[..., 0, :]) if shadow is None else shadow
        for i in range(1, K):
            z[..., i, :] = ops[i].resolvent(
                gamma, z[..., i - 1, :] + xb[..., i, :] - xb[..., i - 1, :]
            )
        z[..., K, :] = ops[K].resolvent(gamma, z[..., 0, :] + z[..., K - 1, :] - xb[..., K - 1, :])
        t = xb + self.theta * (z[..., 1:, :] - z[..., :-1, :])
        return t.reshape(lead + (self.dim,))

    def relocate_from(self, delta, gamma, x):
        """Q_{delta<-gamma} x, with the anchor J_{gamma A1} x^1 as the shadow; at delta == gamma
        the relocator is the identity, and x comes back with no shadow."""
        delta = self.check_gamma(delta)
        gamma = self.check_gamma(gamma)
        xb = self.split_blocks(x)
        if delta == gamma:
            return xb.reshape(xb.shape[:-2] + (self.dim,)), None
        s = delta / gamma
        anchor = self.operators[0].resolvent(gamma, xb[..., 0, :])
        moved = s * xb + (1.0 - s) * anchor[..., None, :]
        return moved.reshape(xb.shape[:-2] + (self.dim,)), anchor

    def relocate(self, delta, gamma, x):
        return self.relocate_from(delta, gamma, x)[0]

    def _fixed_point_line(self):
        return fixed_point_line(self, self.operators)

    def _linear_family(self):
        # a copy keeps the class and theta; it holds no affine part or line of its own
        if not all(isinstance(op, AffineOperator) for op in self.operators):
            return None
        linear = copy.copy(self)
        linear.operators = [op.linear_part() for op in self.operators]
        linear._affine = linear._line = None
        return linear

    def _chain_cost(self):
        # N resolvents, each two products in the space; the map's (N-1)^2 space_dim^2 is
        # cheaper only for N <= 3
        return 2 * self.n_operators * self.space_dim**2

    def relocator_lipschitz(self, delta, gamma):
        # the summability hypothesis is checked with the analysis constant
        delta, gamma = self.check_gamma(delta), self.check_gamma(gamma)
        return mt_relocator_lipschitz(delta, gamma, self.n_operators).L_check

    def summability_bound(self, schedule):
        return mt_summability_bound(schedule, self.n_operators)

    def missing_hypothesis(self):
        holds = any(_case_holds(self.operators, case) for case in _CASES)
        return "" if holds else "no contraction certificate without " + ", or ".join(_CASES.values())

    def _build_regularity(self):
        case = next(case for case in _CASES if _case_holds(self.operators, case))
        beta = mt_contraction_certificate(self, case).beta
        return Regularity(beta, "sampled", (beta + 1.0) / 2.0)


#: Algorithm 2, the per-step form of the splitting (the z-chain from the
#: carried z^1, then z_{n+1}^1 = J_{gamma_n A1} w_n^1 anchoring the
#: relocation), is ``relocated_iterate`` on an ``MTFamily``; w_n = T_{gamma_n} x_n
#: is its ``t_of_x``, and z^{i+1} - z^i is block i of (w_n - x_n)/theta.
algorithm2_run = relocated_iterate


@dataclass(frozen=True)
class MTZeroCertificate:
    z: np.ndarray
    inclusion_residual: float
    chain_residuals: np.ndarray


def mt_fixed_point_to_zero(fam: MTFamily, gamma: float, x) -> MTZeroCertificate:
    """Recover the zero of A1 + ... + AN encoded by a fixed point of T_gamma.

    Certifies the whole chain z = J_{gamma A1} x^1 = J_{gamma Ai}(x^i - x^{i-1} + z)
    = J_{gamma AN}(2z - x^{N-1}); a residual above ``CHAIN_TOL`` raises
    ChainMismatch since the correspondence is an equivalence. The inclusion
    residual is the sum of the two gaps ``operators.inclusion_gaps`` measures:
    ||sum_i A_i(z)|| for single-valued operators, and for one box normal cone
    its feasibility gap plus its cone gap.
    """
    gamma = fam.check_gamma(gamma)
    x = fam.assert_fixed_point(gamma, x)
    xb = fam.split_blocks(x)
    ops = fam.operators
    K = fam.n_blocks

    z = ops[0].resolvent(gamma, xb[0])
    chain = []
    for i in range(1, K):
        chain.append(float(np.linalg.norm(z - ops[i].resolvent(gamma, xb[i] - xb[i - 1] + z))))
    chain.append(float(np.linalg.norm(z - ops[K].resolvent(gamma, 2.0 * z - xb[K - 1]))))
    chain = np.array(chain)
    if np.any(chain > CHAIN_TOL):
        raise ChainMismatch(
            f"resolvent chain residuals {chain} exceed {CHAIN_TOL:.1e} at a certified fixed point"
        )

    return MTZeroCertificate(z, sum(inclusion_gaps(ops, z)), chain)


@dataclass(frozen=True)
class ContractionCertificate:
    valid: bool
    beta: float | None
    case: str
    reason: str


def _case_holds(operators, which_case: str) -> bool:
    """Whether the structural hypotheses of a case of ``mt_contraction_certificate`` hold."""
    *head, last = operators
    strong = head if which_case == "first_strong" else [last]
    return (all(getattr(op, "single_valued", False) and np.isfinite(getattr(op, "lip", np.inf)) for op in head)
            and all(getattr(op, "mu", 0.0) > 0.0 for op in strong))


def mt_contraction_certificate(
    fam: MTFamily,
    which_case: str,
    n_pairs: int = 400,
    n_gammas: int = 5,
    seed: int = 2024,
    sample_scale: float = 3.0,
) -> ContractionCertificate:
    """Check the structural contraction hypotheses and certify a factor by sampling.

    Cases:
      "last_strong"   A1..A_{N-1} single-valued monotone Lipschitz, AN strongly monotone
      "first_strong"  A1..A_{N-1} strongly monotone Lipschitz, AN merely monotone

    When the hypotheses hold, beta is the largest sampled ratio
    ||T_gamma u - T_gamma v|| / ||u - v|| over a stepsize grid, the pairs
    evaluated a block at a time (``relocsplit.family.BLOCK_FLOATS`` floats); a ratio at or
    above 1 - 1e-6 raises CertificationFailed (theory forbids it). When they
    fail, the certificate comes back with valid=False and no factor.
    """
    if n_pairs < 1 or n_gammas < 1:
        raise DomainError("n_pairs and n_gammas must be >= 1: no samples would certify beta = 0")
    if which_case not in _CASES:
        raise DomainError(f"unknown case {which_case!r}")
    if not _case_holds(fam.operators, which_case):
        return ContractionCertificate(False, None, which_case, f"need {_CASES[which_case]}")

    rng = np.random.default_rng(seed)
    lo, hi = fam.gamma_interval
    dim = fam.dim
    beta = 0.0
    for gamma in np.linspace(lo, hi, n_gammas):
        for k in block_sizes(n_pairs, 2 * dim):
            pairs = sample_scale * rng.standard_normal((k, 2, dim))
            t = fam.apply(gamma, pairs.reshape(2 * k, dim)).reshape(k, 2, dim)
            denom = np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=1)
            keep = denom >= 1e-12
            ratios = np.linalg.norm(t[:, 0] - t[:, 1], axis=1)[keep] / denom[keep]
            beta = max(beta, float(ratios.max(initial=0.0)))
    if beta >= 1.0 - 1e-6:
        raise CertificationFailed(
            f"sampled Lipschitz ratio {beta:.8f} is not a contraction despite the hypotheses"
        )
    return ContractionCertificate(True, beta, which_case, "")


def mt_summability_bound(schedule: StepsizeSchedule, n_operators: int) -> float:
    """Upper bound on sum_n (L_check(gamma_{n+1} <- gamma_n) - 1) for geometric schedules.

    With |gamma_n - gamma*| <= C r^n the per-term bound is M sqrt(r)^n where

        M = C(1+r)/(2 gamma_low) + sqrt(C(1+r)/gamma_low) * max{sqrt(N-1),
            sqrt(2N) sqrt(gamma_high/gamma_low)}

    giving the geometric-series total M / (1 - sqrt(r)).
    """
    if schedule.kind == "constant":
        return 0.0
    if schedule.kind != "geometric":
        raise DomainError("summability bound requires an R-linearly convergent schedule")
    if n_operators < 2:
        raise DomainError("need at least two operators")
    N = n_operators
    C, r = schedule.C, schedule.r
    lo, hi = schedule.gamma_low, schedule.gamma_high
    factor = max(math.sqrt(N - 1), math.sqrt(2 * N) * math.sqrt(hi / lo))
    M = C * (1.0 + r) / (2.0 * lo) + math.sqrt(C * (1.0 + r) / lo) * factor
    return M / (1.0 - math.sqrt(r))
