"""Douglas-Rachford splitting with variable stepsizes.

The family is T_gamma = Id - J_{gamma A1} + J_{gamma A2} (2 J_{gamma A1} - Id),
whose fixed points encode primal solutions of 0 in (A1+A2)x through the shadow
z = J_{gamma A1} x and dual solutions through g = (x - z)/gamma. The relocator

    Q_{delta<-gamma} x = (delta/gamma) x + (1 - delta/gamma) J_{gamma A1} x

carries Fix T_gamma onto Fix T_delta with Lipschitz constant max{1, delta/gamma}.

This is the multioperator chain of ``mt.MTFamily`` at N = 2 and theta = 1, which evaluates
T_gamma x as x + (y - z) with y = J_{gamma A2}(2z - x). ``DRFamily`` takes the chain, the
relocator, the held affine part and the fixed-point line from it, and owns only what the
two-operator theory adds: averagedness 1/2, the closed-form contraction factor and the
relocator constant max{1, delta/gamma}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RelocSplitError, UnsupportedOperator
from .family import IterateTrace, Regularity, StepsizeSchedule, relocated_iterate
from .mt import MTFamily, _case_holds
from .operators import as_vector

#: grid resolution for maximizing the contraction factor over the interval
_BETA_GRID = 1000
_BETA_MARGIN = 1e-6


def dr_contraction_factor(gamma: float, mu: float, L: float) -> float:
    """Contraction factor of T_gamma when A1 is monotone L-Lipschitz and A2 is
    mu-strongly monotone.

    Evaluates

        beta = (sqrt(2 g^2 mu^2 + 2 g mu + 1
                     + 2 (1 - 1/(1+gL)^2 - 1/(1+g^2 L^2)) g mu (1+g mu)) + 1)
               / (2 (1 + g mu))

    which lies in (0, 1) for positive arguments.
    """
    if gamma <= 0 or mu <= 0 or L <= 0:
        raise DomainError("gamma, mu, L must all be positive")
    g = float(gamma)
    radicand = (
        2.0 * g * g * mu * mu
        + 2.0 * g * mu
        + 1.0
        + 2.0
        * (1.0 - 1.0 / (1.0 + g * L) ** 2 - 1.0 / (1.0 + g * g * L * L))
        * g
        * mu
        * (1.0 + g * mu)
    )
    beta = (math.sqrt(radicand) + 1.0) / (2.0 * (1.0 + g * mu))
    if not (0.0 < beta < 1.0):  # pragma: no cover - formula guarantees this
        raise RelocSplitError(f"contraction factor {beta} outside (0, 1)")
    return beta


def dr_regularity_constant(gamma: float, mu: float, rho: float) -> float:
    """Error-bound constant kappa = 4 (1 + max{1/(gamma mu), gamma/rho}).

    Valid when one of the operators is mu-strongly monotone relative to the
    primal solution set and one of the inverses is rho-strongly monotone
    relative to the dual solution set.
    """
    if gamma <= 0 or mu <= 0 or rho <= 0:
        raise DomainError("gamma, mu, rho must all be positive")
    return 4.0 * (1.0 + max(1.0 / (gamma * mu), gamma / rho))


class DRFamily(MTFamily):
    """The two-operator splitting family for a pair (A1, A2): ``MTFamily([A1, A2])`` at theta = 1.

    Operators need only expose ``resolvent``. With A1 single-valued Lipschitz and A2 strongly
    monotone, its regularity record carries the closed-form ``contraction_beta``, the
    averagedness 1/2 of firmly nonexpansive resolvents and, when an operator is symmetric and
    strongly monotone, ``dr_regularity_constant`` as kappa.
    """

    # the chain's own apply, named in this class too: the benchmark wraps DRFamily.apply
    apply = MTFamily.apply

    def __init__(self, a1, a2, gamma_interval: tuple[float, float]):
        self._setup([a1, a2], 1.0, gamma_interval)

    @property
    def a1(self):
        return self.operators[0]

    @property
    def a2(self):
        return self.operators[1]

    def missing_hypothesis(self):
        if _case_holds(self.operators, "last_strong"):
            return ""
        return "no contraction certificate without a single-valued Lipschitz A1 and a strongly monotone A2"

    @property
    def contraction_beta(self) -> float:
        """The closed-form factor for a pair whose hypotheses hold, read once by ``regularity``:
        the largest ``dr_contraction_factor`` on a 1000-point grid of the interval, plus 1e-6."""
        lip1, mu2 = float(self.a1.lip), float(self.a2.mu)
        if lip1 == 0.0:
            # A1 == 0: T_gamma reduces to J_{gamma A2}, a (1/(1+gamma mu))-contraction
            return 1.0 / (1.0 + self.gamma_interval[0] * mu2)
        worst = max(dr_contraction_factor(g, mu2, lip1) for g in np.linspace(*self.gamma_interval, _BETA_GRID))
        return min(worst + _BETA_MARGIN, 1.0 - 1e-12)

    def _build_regularity(self):
        for op in (self.a1, self.a2):
            if getattr(op, "single_valued", False) and getattr(op, "is_symmetric", False) and op.mu > 0:
                # the extreme eigenvalues give mu and rho
                mu, rho = op.sym_eig_min, 1.0 / op.sym_eig_max
                return Regularity(self.contraction_beta, "closed-form", 0.5, "dr-regularity",
                                  lambda gamma: dr_regularity_constant(gamma, mu, rho))
        return Regularity(self.contraction_beta, "closed-form", 0.5)

    def relocator_lipschitz(self, delta, gamma):
        return np.maximum(1.0, self.check_gamma(delta) / self.check_gamma(gamma))

    def summability_bound(self, schedule):
        return dr_summability_bound(schedule)



#: Algorithm 1, the resolvent-per-step form of the splitting:
#:     y_n = J_{gamma_n A2}(2 z_n - x_n),  w_n = x_n - z_n + y_n,
#:     z_{n+1} = J_{gamma_n A1} w_n,
#:     x_{n+1} = (gamma_{n+1}/gamma_n) w_n + (1 - gamma_{n+1}/gamma_n) z_{n+1},
#: is ``relocated_iterate`` on a ``DRFamily``; w_n is its ``t_of_x``, and
#: ``primal_dual_extract`` recomputes z_n and y_n from its rows.
algorithm1_run = relocated_iterate


@dataclass(frozen=True)
class PrimalDualSequences:
    z_seq: np.ndarray
    y_seq: np.ndarray
    g_seq: np.ndarray
    h_seq: np.ndarray


def primal_dual_extract(fam: DRFamily, trace: IterateTrace) -> PrimalDualSequences:
    """Primal iterates z_n, y_n and dual iterates g_n = (x_n - z_n)/gamma_n,
    h_n = (w_n - y_n)/gamma_n of an ``algorithm1_run`` trace of ``fam``.

    z_n = J_{gamma_n A1} x_n and y_n = J_{gamma_n A2}(2 z_n - x_n) are recomputed row by
    row, and w_n = T_{gamma_n} x_n is read from the trace. Since w_n - y_n = x_n - z_n up to
    rounding, ||h_n - g|| = ||g_n - g|| for any reference point g.
    """
    z = np.array([fam.a1.resolvent(g, x) for g, x in zip(trace.gammas, trace.xs)])
    y = np.array([fam.a2.resolvent(g, 2.0 * zn - x) for g, x, zn in zip(trace.gammas, trace.xs, z)])
    g = (trace.xs - z) / trace.gammas[:, None]
    h = (trace.t_of_x - y) / trace.gammas[:, None]
    return PrimalDualSequences(z, y, g, h)


@dataclass(frozen=True)
class FixDecomposition:
    z: np.ndarray
    g: np.ndarray
    primal_residual: float
    dual_residual: float
    reconstruction_error: float
    dual_checked: bool


def fix_decomposition_check(fam: DRFamily, gamma: float, x_fixed) -> FixDecomposition:
    """Split a fixed point of T_gamma as x = z + gamma*g and certify both parts.

    z = J_{gamma A1} x must solve the primal inclusion (residual ||A1 z + A2 z||
    for affine operators) and g = (x - z)/gamma the dual one (residual
    ||A1^{-1} g - A2^{-1}(-g)|| when both operators are invertible affine;
    otherwise the dual check is skipped and flagged). x is not re-tested: z = J_{gamma A1} x
    gives x = z + gamma A1 z, so the primal residual is 0 exactly when x is fixed.
    """
    gamma = fam.check_gamma(gamma)
    x = as_vector(x_fixed, fam.dim)
    if not (callable(fam.a1) and callable(fam.a2)):
        raise UnsupportedOperator("decomposition check needs single-valued affine operators")

    z = fam.a1.resolvent(gamma, x)
    g = (x - z) / gamma
    primal_residual = float(np.linalg.norm(fam.a1(z) + fam.a2(z)))

    dual_checked = True
    try:
        dual_residual = float(
            np.linalg.norm(fam.a1.inverse_apply(g) - fam.a2.inverse_apply(-g))
        )
    except (RelocSplitError, AttributeError):
        dual_residual = float("nan")
        dual_checked = False

    reconstruction_error = float(np.linalg.norm(z + gamma * g - x))
    return FixDecomposition(z, g, primal_residual, dual_residual, reconstruction_error, dual_checked)


def dr_summability_bound(schedule: StepsizeSchedule) -> float:
    """Upper bound on sum_n (max{1, gamma_{n+1}/gamma_n} - 1), each term at most
    (gamma_{n+1} - gamma_n)^+ / gamma_low.

    A constant schedule contributes 0. A polynomial one is nonincreasing, so the positive
    increments add up to at most sum_n |gamma_{n+1} - gamma_n| <= C: the bound is C / gamma_low
    for every p > 0. On a geometric one they telescope against |gamma_n - gamma*| <= C r^n,
    giving C (1+r) / ((1-r) * gamma_low).
    """
    if schedule.kind == "constant":
        return 0.0
    if schedule.kind == "polynomial":
        return schedule.C / schedule.gamma_low
    return schedule.C * (1.0 + schedule.r) / ((1.0 - schedule.r) * schedule.gamma_low)
