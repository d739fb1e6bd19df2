"""Stepsize-parameterized operator families and the relocated iteration driver.

A family bundles the map ``T_gamma``, its fixed-point relocator
``Q_{delta<-gamma}`` and the relocator's Lipschitz constant. The driver runs

    x_{n+1} = Q_{gamma_{n+1} <- gamma_n} T_{gamma_n} x_n

and records per step the stepsize, the iterate, T_gamma of it and the residual,
nothing else. A point is a fixed point when its measured
residual ``||x - T_gamma x|| <= tol * (1 + ||x||)``; a family with singleton
fixed-point sets serves them from one line, certified once by a proven bound.
A family may hold T_gamma as one affine map for one stepsize (``hold_affine_part``), which
serves a run's constant-stepsize tail; ``mt.MTFamily`` does for all-affine chains with N <= 3.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceDetected,
    DomainError,
    NonPositiveStepsize,
    NonSingletonFix,
    NotAFixedPoint,
)
from .operators import as_points, as_vector

#: scale-adjusted residual tolerance certifying fixed-point membership
FIXED_POINT_TOL = 1e-8
#: iterate-norm guard; crossing it means the run is not contractive
DIVERGENCE_LIMIT = 1e12
#: scale-adjusted residual tolerance for each row of ``relocator_only_sequence``
ROW_TOL = 1e-7
#: widest stepsize interval used when a family has no natural restriction
GAMMA_WIDE = (1e-8, 1e8)
#: floats per block of sample points that a sampling check evaluates in one call
#: (128 KiB): large enough for matrix-matrix resolvents, small enough not to
#: raise peak memory
BLOCK_FLOATS = 16_384


def vector_norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` for a 1-d float array, computed as numpy computes it (the
    ravel, one dot product and a correctly rounded square root) without its dispatch."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether two arrays hold the same bytes. Where T_gamma x is x in this sense, applying
    T_gamma again gives x again; equal values are not enough, since -0.0 == 0.0 yet the two
    print differently."""
    return x.tobytes() == y.tobytes()


def block_sizes(count: int, floats_each: int):
    """Split ``count`` samples of ``floats_each`` floats into blocks of at most
    ``BLOCK_FLOATS`` floats (at least one sample per block); yields the sizes."""
    per_block = max(1, BLOCK_FLOATS // floats_each)
    for start in range(0, count, per_block):
        yield min(per_block, count - start)


def many_targets(delta, point_ndim: int) -> bool:
    """Whether checked target stepsizes ``delta`` are an array, which relocates one point
    (``point_ndim`` 1) to each of them, one row per target; a scalar gives False. An array that
    is not 1-d, or one given with a block of points, raises DomainError."""
    if isinstance(delta, float):
        return False
    if delta.ndim != 1 or point_ndim != 1:
        raise DomainError("an array of target stepsizes must be 1-d and relocates one point")
    return True


@dataclass(frozen=True)
class StepsizeSchedule:
    """A stepsize sequence gamma_n clamped into [gamma_low, gamma_high].

    Kinds:
      constant     gamma_n = gamma_star
      geometric    gamma_n = clamp(gamma_star + C * r**n), converges R-linearly
      polynomial   gamma_n = clamp(gamma_star + C / (n+1)**p), converges but
                   not R-linearly (counterexample studies)
    """

    kind: str
    gamma_star: float
    gamma_low: float
    gamma_high: float
    C: float = 0.0
    r: float | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "geometric", "polynomial"):
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        params = (self.gamma_star, self.gamma_low, self.gamma_high, self.C, self.r, self.p)
        if not all(math.isfinite(v) for v in params if v is not None):
            raise DomainError("schedule parameters must be finite")
        if not (0.0 < self.gamma_low <= self.gamma_high):
            raise DomainError("need 0 < gamma_low <= gamma_high")
        if not (self.gamma_low <= self.gamma_star <= self.gamma_high):
            raise DomainError("gamma_star must lie in [gamma_low, gamma_high]")
        if self.C < 0.0:
            raise DomainError("C must be >= 0")
        if self.kind == "geometric":
            if self.r is None or not (0.0 < self.r < 1.0):
                raise DomainError("geometric schedule needs r in (0, 1)")
        if self.kind == "polynomial":
            if self.p is None or self.p <= 0.0:
                raise DomainError("polynomial schedule needs p > 0")

    @classmethod
    def constant(cls, gamma_star: float, interval: tuple[float, float] | None = None):
        lo, hi = interval if interval is not None else (gamma_star, gamma_star)
        return cls("constant", gamma_star, lo, hi)

    @classmethod
    def geometric(cls, gamma_star: float, C: float, r: float, interval: tuple[float, float]):
        return cls("geometric", gamma_star, interval[0], interval[1], C=C, r=r)

    @classmethod
    def polynomial(cls, gamma_star: float, C: float, p: float, interval: tuple[float, float]):
        return cls("polynomial", gamma_star, interval[0], interval[1], C=C, p=p)

    def gamma(self, n: int) -> float:
        if n < 0:
            raise DomainError("schedule index must be >= 0")
        return float(self._at([n])[0])

    def gammas(self, count: int) -> np.ndarray:
        """gamma_0, ..., gamma_{count-1}."""
        return self._at(range(count))

    def _at(self, indices) -> np.ndarray:
        # Python's ** per term (numpy's power rounds some terms differently),
        # then shift and clamp as array operations
        if self.kind == "constant":
            return np.full(len(indices), self.gamma_star)
        # ascending indices: each kind's terms fall, so from a term below ulp(gamma_star)/4 on,
        # every term lies below half an ulp, gamma_star + term rounds to gamma_star, and the terms
        # are left at 0.0
        tiny, terms = math.ulp(self.gamma_star) / 4, []
        try:
            for n in indices:
                terms.append(self.C * self.r**n if self.kind == "geometric" else self.C / (n + 1) ** self.p)
                if terms[-1] < tiny:
                    break
        except OverflowError as exc:
            raise DomainError(f"{self.kind} schedule term at n={n} overflows") from exc
        shift = np.pad(terms, (0, len(indices) - len(terms)))
        return np.clip(self.gamma_star + shift, self.gamma_low, self.gamma_high)


@dataclass(frozen=True)
class FixedPointLine:
    """Fix T_gamma = {offset + gamma * slope} for every gamma in a family's interval, with
    ``residual_bound`` a proven bound on ||x - T_gamma x|| at every point served."""

    offset: np.ndarray
    slope: np.ndarray
    residual_bound: float

    def point(self, gamma) -> np.ndarray:
        """The fixed point at ``gamma``; a column of stepsizes ``(k, 1)`` gives a block of them."""
        return self.offset + gamma * self.slope


@dataclass(frozen=True)
class Regularity:
    """What a family proves about its maps T_gamma over its stepsize interval, read by the checks.
    The contraction factor ``beta`` is ``closed-form`` (dr), ``sampled`` (mt: the largest sampled
    ratio, a lower estimate, not a proven bound) or ``stated`` (the scalar counterexample);
    ``alpha`` is an averagedness constant; ``kappa(gamma)`` gives dist(x, Fix T_gamma) <= kappa
    ||x - T_gamma x||: a beta-contraction's ``contraction_kappa``, 1/(1 - beta), unless the family
    gives ``kappa_at`` and its ``kappa_source``."""

    beta: float
    beta_source: str
    alpha: float
    kappa_source: str = "contraction"
    kappa_at: Callable[[float], float] | None = None

    @property
    def contraction_kappa(self) -> float:
        return 1.0 / (1.0 - self.beta)

    def kappa(self, gamma: float) -> float:
        return self.contraction_kappa if self.kappa_at is None else self.kappa_at(gamma)


class OperatorFamily(abc.ABC):
    """A family (T_gamma) with relocators, over a closed stepsize interval.

    Subclasses set ``dim`` (the driver-facing vector length) and ``gamma_interval``. A family with
    a contraction certificate (every Fix T_gamma a singleton) states its hypotheses in
    ``missing_hypothesis`` and builds its ``Regularity`` in ``_build_regularity`` (or sets it
    at construction).
    """

    dim: int
    gamma_interval: tuple[float, float]
    _line: FixedPointLine | None = None
    _regularity: Regularity | None = None

    def missing_hypothesis(self) -> str:
        """Why the family has no contraction certificate, or "" when its hypotheses hold: a
        read of the operators' structure, which evaluates no map."""
        return "" if self._regularity is not None else f"{type(self).__name__} states no contraction hypotheses"

    def regularity(self) -> Regularity:
        """The family's regularity record, built on the first call and kept; NonSingletonFix,
        with ``missing_hypothesis``, when the hypotheses fail."""
        if self._regularity is None:
            if missing := self.missing_hypothesis():
                raise NonSingletonFix(missing)
            self._regularity = self._build_regularity()
        return self._regularity

    def summability_bound(self, schedule: StepsizeSchedule) -> float:
        """A proven bound on sum_n (L_{gamma_{n+1} <- gamma_n} - 1) over the whole of
        ``schedule``, so on every partial sum (+inf where the family proves no finite one);
        DomainError when the family states none for it. Every schedule is nonincreasing
        (C >= 0, and clamping keeps the order), so its steps add up to
        sum_n |gamma_{n+1} - gamma_n| = gamma_0 - gamma_star <= C, to the rounding of
        gamma_star + C."""
        raise DomainError(f"{type(self).__name__} states no summability bound for {schedule.kind} stepsizes")

    @abc.abstractmethod
    def apply(self, gamma: float, x, shadow=None) -> np.ndarray:
        """Evaluate T_gamma at a point x ``(dim,)`` or at each row of a block ``(k, dim)``.

        ``shadow`` is the value ``relocate_from`` returned with x; a family whose
        relocator evaluates part of T_gamma x reuses it instead of solving again.
        """

    @abc.abstractmethod
    def relocate_from(self, delta, gamma: float, x) -> tuple[np.ndarray, object]:
        """Evaluate the relocator Q_{delta <- gamma} at a point or at each row of a block, and
        return it with its shadow for ``apply`` at delta (None when there is none).

        A 1-d array of targets ``delta`` relocates one point to each: one row per target, each
        the scalar call's bit for bit (``many_targets``), and the shadow of each row at its target.
        """

    def relocate(self, delta, gamma: float, x) -> np.ndarray:
        """Q_{delta <- gamma} x: the point of ``relocate_from``."""
        return self.relocate_from(delta, gamma, x)[0]

    @abc.abstractmethod
    def relocator_lipschitz(self, delta, gamma):
        """A Lipschitz constant (>= 1) of Q_{delta <- gamma}, equal to 1 at delta == gamma.

        Stepsize arrays give the constants elementwise.
        """

    def hold_affine_part(self, gamma: float) -> bool:
        """Whether T_gamma is held as one affine map at gamma: never here; ``MTFamily`` holds one
        for affine operators where a row through it costs less than one through the chain."""
        return False

    def fixed_point(self, gamma: float) -> np.ndarray:
        """The fixed point of T_gamma, served from ``fixed_point_line``."""
        return self.fixed_point_line().point(self.check_gamma(gamma))

    def fixed_point_line(self) -> FixedPointLine:
        """The line ``_fixed_point_line`` builds, certified on first use: its residual bound lies
        within FIXED_POINT_TOL, and its points at the interval ends pass ``assert_fixed_point``,
        which refuses a line not encoding T_gamma's fixed points (NotAFixedPoint otherwise)."""
        if self._line is None:
            line = self._fixed_point_line()
            if not line.residual_bound <= FIXED_POINT_TOL:
                raise NotAFixedPoint(
                    f"line residual bound {line.residual_bound:.3e} above {FIXED_POINT_TOL:.1e}"
                )
            for gamma in dict.fromkeys(self.gamma_interval):
                self.assert_fixed_point(gamma, line.point(gamma))
            self._line = line
        return self._line

    def _fixed_point_line(self) -> FixedPointLine:
        raise NonSingletonFix(f"{type(self).__name__} exposes no fixed-point line")

    def residual(self, gamma: float, x, shadow=None) -> float:
        """||x - T_gamma x|| at a point, with ``shadow`` handed to ``apply``."""
        x = as_vector(x, self.dim)
        return float(np.linalg.norm(x - self.apply(gamma, x, shadow)))

    def assert_fixed_point(self, gamma: float, x) -> np.ndarray:
        x = as_vector(x, self.dim)
        r = self.residual(gamma, x)
        if r > FIXED_POINT_TOL * (1.0 + float(np.linalg.norm(x))):
            raise NotAFixedPoint(
                f"residual {r:.3e} exceeds {FIXED_POINT_TOL:.1e}*(1+||x||) at gamma={gamma}"
            )
        return x

    def check_gamma(self, gamma):
        """Check a stepsize, or an array of them at once, against the family interval.

        Returns a float for a scalar, the float array otherwise.
        """
        lo, hi = self.gamma_interval
        # one stepsize; a float (np.float64 too) is checked with no array made
        if isinstance(gamma, float) or (g := np.asarray(gamma, dtype=float)).ndim == 0:
            g = low = high = float(gamma)
        else:
            # the interval ends as initial values let an empty array pass
            low, high = g.min(initial=lo), g.max(initial=hi)
        if low <= 0:
            raise NonPositiveStepsize(f"stepsize must be positive, got {low}")
        for value in (low, high):
            if not lo - 1e-12 <= value <= hi + 1e-12:
                raise DomainError(f"gamma={value} outside family interval [{lo}, {hi}]")
        return g

    def _set_interval(self, gamma_interval) -> None:
        lo, hi = float(gamma_interval[0]), float(gamma_interval[1])
        if not (0.0 < lo <= hi):
            raise DomainError("need 0 < gamma_low <= gamma_high")
        self.gamma_interval = (lo, hi)


@dataclass
class IterateTrace:
    """Per-iteration record: stepsize, iterate, T_gamma(iterate), residual.

    A splitting's resolvent values at row n are functions of ``gammas[n]`` and
    ``xs[n]`` (``dr.primal_dual_extract`` recomputes them), so none is kept. Rows past a
    float fixed point are copies of it (``relocated_iterate``); ``family.apply(gammas[n],
    xs[n])`` still gives ``t_of_x[n]`` bit for bit on every row.
    The per-row error columns start empty: ``diagnostics.compute_distances``
    fills ``dist_to_fix`` (||x_n - x*_{gamma_n}||) and ``diagnostics.limit_errors``
    fills ``err_to_limit`` (||x_n - x_inf||); the checks read them from here.
    """

    gammas: np.ndarray
    xs: np.ndarray
    t_of_x: np.ndarray
    residuals: np.ndarray
    dist_to_fix: np.ndarray | None = None
    err_to_limit: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.gammas.shape[0])


class ScalarShiftFamily(OperatorFamily):
    """The 1-d family T_gamma x = gamma + beta*(x - gamma) with Fix T_gamma = {gamma}.

    Its relocator is the constant map delta, so the iterate sequence started at
    gamma_0 reproduces the stepsize sequence exactly; it converges R-linearly
    precisely when the schedule does. Used as the sharpness counterexample.
    """

    def __init__(self, beta: float, gamma_interval: tuple[float, float] = GAMMA_WIDE):
        if not (0.0 <= beta < 1.0):
            raise DomainError("beta must lie in [0, 1)")
        self._set_interval(gamma_interval)
        self.beta = float(beta)
        self.dim = 1
        self._regularity = Regularity(self.beta, "stated", (1.0 + self.beta) / 2.0)

    def apply(self, gamma, x, shadow=None):
        gamma = self.check_gamma(gamma)
        x = as_points(x, 1)
        return gamma + self.beta * (x - gamma)

    def relocate_from(self, delta, gamma, x):
        delta = self.check_gamma(delta)
        self.check_gamma(gamma)
        x = as_points(x, 1)
        if many_targets(delta, x.ndim):
            return delta[:, None].copy(), None
        return np.full_like(x, delta), None

    def _fixed_point_line(self):
        # x = gamma is formed exactly, and T_gamma gamma = gamma + beta * 0 = gamma in floats
        return FixedPointLine(np.zeros(1), np.ones(1), 0.0)

    def relocator_lipschitz(self, delta, gamma):
        # the constant map is 0-Lipschitz; constants are declared in [1, inf)
        shape = np.broadcast(self.check_gamma(delta), self.check_gamma(gamma)).shape
        return np.ones(shape)[()]

    def summability_bound(self, schedule):
        # every relocator constant is 1, so every term is 0
        return 0.0


def relocated_iterate(family: OperatorFamily, schedule: StepsizeSchedule, x0, n_steps: int) -> IterateTrace:
    """Run x_{n+1} = Q_{gamma_{n+1} <- gamma_n} T_{gamma_n} x_n for n_steps steps.

    Returns a trace with rows n = 0..n_steps; every row carries T_gamma_n(x_n)
    and the residual ||x_n - T_gamma_n x_n||. Each step hands the shadow of
    ``relocate_from`` to the next ``apply``, so a family's per-step algorithm
    (N resolvents per step for ``MTFamily``, two for ``DRFamily``, its N = 2 case) is this loop.
    Rows at the stepsize of the family's held affine part (``hold_affine_part``, decided from
    the family alone) cost one matrix product each: a geometric schedule reaches gamma* in floats.

    A row whose ``apply`` took no shadow and returned x_n bit for bit, and whose relocation
    to the same stepsize returns T x_n bit for bit with no shadow, is a float fixed point:
    each later row at that stepsize has the same input and is copied from it, not recomputed.
    ``family.apply(gamma_n, x_n)`` reproduces every row, copied or not, bit for bit.
    """
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    x = as_vector(x0, family.dim)
    gams = family.check_gamma(schedule.gammas(n_steps + 1))
    rows = n_steps + 1
    xs = np.empty((rows, family.dim))
    ts = np.empty((rows, family.dim))
    res = np.empty(rows)
    shadow = None
    n = 0
    while True:
        size = vector_norm(x)
        if not math.isfinite(size) or size > DIVERGENCE_LIMIT:
            raise DivergenceDetected(f"||x_{n}|| exceeded {DIVERGENCE_LIMIT:.0e}")
        t = family.apply(gams[n], x, shadow)
        xs[n] = x
        ts[n] = t
        res[n] = vector_norm(x - t)
        stop = n + 1
        if stop == rows:
            break
        fixed = shadow is None and same_bits(x, t)
        x, shadow = family.relocate_from(gams[stop], gams[n], t)
        if fixed and gams[stop] == gams[n] and shadow is None and same_bits(t, x):
            # row n + 1 takes row n's input (gamma_n, x_n, no shadow), and so does every row
            # up to the next change of stepsize: those rows are copies of row n
            moved = np.flatnonzero(gams[stop:] != gams[n])
            stop = stop + int(moved[0]) if moved.size else rows
            xs[n + 1:stop] = x
            ts[n + 1:stop] = t
            res[n + 1:stop] = res[n]
            if stop == rows:
                break
            x, shadow = family.relocate_from(gams[stop], gams[n], t)
        n = stop
    return IterateTrace(gams, xs, ts, res)


def relocator_only_sequence(
    family: OperatorFamily, schedule: StepsizeSchedule, c0, n_steps: int
) -> IterateTrace:
    """Run c_{n+1} = Q_{gamma_{n+1} <- gamma_n} c_n from a fixed point c0 of T_{gamma_0}.

    Each c_n must remain a fixed point of T_{gamma_n}; a row violating the
    residual certificate ``ROW_TOL * (1 + ||c_n||)`` raises NotAFixedPoint
    (it would signal a broken relocator).
    """
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    c = family.assert_fixed_point(schedule.gamma(0), c0)
    gams = family.check_gamma(schedule.gammas(n_steps + 1))

    cs, ts, res = [], [], []
    for n in range(n_steps + 1):
        t = family.apply(gams[n], c)
        r = float(np.linalg.norm(c - t))
        if r > ROW_TOL * (1.0 + float(np.linalg.norm(c))):
            raise NotAFixedPoint(
                f"relocated point left the fixed-point set at step {n} (residual {r:.3e})"
            )
        cs.append(c)
        ts.append(t)
        res.append(r)
        if n < n_steps:
            c = family.relocate(gams[n + 1], gams[n], c)
    return IterateTrace(gams, np.vstack(cs), np.vstack(ts), np.array(res))


def summability_report(family: OperatorFamily, gammas: np.ndarray) -> np.ndarray:
    """The partial sums of (L_{gamma_{n+1} <- gamma_n} - 1) along the stepsizes ``gammas``, from
    one ``relocator_lipschitz`` call."""
    return np.cumsum(family.relocator_lipschitz(gammas[1:], gammas[:-1]) - 1.0)


@dataclass(frozen=True)
class GammaLipschitzProbe:
    """For each probed pair: the move ||Q_{delta<-gamma} x - x||, the stepsize gap
    |delta - gamma| and the scale 1 + ||x||."""

    moves: np.ndarray
    gaps: np.ndarray
    scales: np.ndarray

    def excess(self, L: float) -> float:
        """Largest | ||Q x - x|| - L |delta - gamma| | / (1 + ||x||): how far the moves are
        from a relocator moving every probed fixed point by exactly L |delta - gamma|."""
        return float(np.max(np.abs(self.moves - L * self.gaps) / self.scales))


def gamma_lipschitz_probe(family: OperatorFamily, gammas, deltas) -> GammaLipschitzProbe:
    """Probe ||Q_{delta<-gamma} x - x|| against |delta - gamma| at the fixed points
    x = ``family.fixed_point(gamma)``, which its certified line serves.

    delta == gamma pairs are skipped. The moves witness the Lipschitz-in-stepsize
    behaviour of the relocator along the fixed-point sets.
    """
    deltas = family.check_gamma(np.asarray(deltas, dtype=float))
    rows = []
    for gamma in gammas:
        x = family.fixed_point(gamma)
        scale = 1.0 + float(np.linalg.norm(x))
        targets = deltas[deltas != gamma]
        rows += [(float(np.linalg.norm(y - x)), abs(delta - gamma), scale)
                 for y, delta in zip(family.relocate(targets, gamma, x), targets)]
    if not rows:
        raise DomainError("no (gamma, delta) pair with delta != gamma")
    return GammaLipschitzProbe(*(np.array(column) for column in zip(*rows)))
