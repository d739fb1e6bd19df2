"""Configuration-driven experiment runner.

Config files are flat ``key = value`` text (``#`` starts a comment); every key
can be overridden on the command line with ``--set key=value``. One experiment
builds a seeded problem, runs the requested algorithm, writes the trace as CSV
and evaluates the requested checks, one PASS/FAIL record per check.

Exit codes: 0 all checks pass, 1 some check failed, 2 configuration error,
3 I/O error, 4 numerical error (a run that diverged or did not converge, or a
failed certificate).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .diagnostics import RateEstimate, default_burn_in
# algorithm1_run, algorithm2_run and relocated_iterate stay importable from
# here: perfbench/layers.py wraps them in this namespace.
from .dr import DRFamily, algorithm1_run, fix_decomposition_check  # noqa: F401
from .errors import ConfigError, DomainError, NumericalError, RelocSplitError
from .family import (
    IterateTrace,
    ScalarShiftFamily,
    StepsizeSchedule,
    gamma_lipschitz_probe,
    relocated_iterate,
    same_bits,
    summability_report,
)
from .mt import MTFamily, algorithm2_run  # noqa: F401
from .problems import PROBLEM_KINDS, generate_problem

ALGORITHMS = ("dr", "mt", "scalar_counterexample")

#: %.17g round-trips IEEE-754 doubles exactly
FLOAT_FMT = "%.17g"

SEED_ENV_VAR = "RELOCSPLIT_SEED"

#: burn-in of the rate_theorem fits: a long one can launder sublinear tails into linear verdicts
RATE_THEOREM_BURN_IN = 5
#: points at which error_bound evaluates T_gamma*
ERROR_BOUND_SAMPLES = 1000

#: the ``#`` line after the header of every trace: the burn-in with which rate_theorem fits
#: err_to_limit and dist_to_fix, and the floors of the columns the trace carries, so that their
#: readbacks fit them alike; keyed by the column that names the line, whose floor is ``floor``
#: (another column's is ``<column>_floor``)
FIT_LINES = {
    "dist_to_fix": f"# dist_to_fix floor={FLOAT_FMT} burn_in=%d err_to_limit_floor={FLOAT_FMT}\n",
    "err_to_limit": f"# err_to_limit floor={FLOAT_FMT} burn_in=%d\n",
}


@dataclass
class ExperimentConfig:
    """One experiment's settings; ``build_config`` is the only constructor and sets every field."""

    algorithm: str
    schedule: StepsizeSchedule
    n_steps: int
    #: the named checks, or None for ``all``: every check the built family supports
    checks: list[str] | None
    problem_kind: str | None
    dim: int
    n_operators: int
    seed: int
    mu_target: float
    L_target: float
    beta: float
    theta: float
    box_half_width: float
    matrices_path: str | None
    trace_path: str | None
    report_path: str | None


def _read_pairs(origin: str, entries) -> dict[str, str]:
    """``key = value`` entries as a dict, the one reader of config files and ``--set``.

    ``entries`` yields ``(number, text)``; ``origin`` and the number name an entry in
    messages (``--set`` arguments count as the lines of a file named ``--set``). Text
    without ``=``, or a key set twice, raises ConfigError; the repeat names both lines.
    """
    mapping: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, text in entries:
        if "=" not in text:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key in first_line:
            raise ConfigError(f"{origin}:{lineno}: key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        mapping[key] = value
    return mapping


def parse_config_file(path: str) -> dict[str, str]:
    """The file's ``key = value`` pairs; ``#`` starts a comment and blank lines are skipped.

    A malformed line or a repeated key raises ConfigError, as a malformed or repeated
    ``--set`` does: both go through one reader.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(lineno, raw.split("#", 1)[0].strip()) for lineno, raw in enumerate(fh, 1)]
    return _read_pairs(path, [(lineno, line) for lineno, line in lines if line])


_DR_MT = ("dr", "mt")
#: every config key, the type of its value, and the algorithms that read it (any other
#: algorithm rejects the key); build_config reads keys only through ``_get``
_KNOWN_KEYS = {
    "algorithm": (str, ALGORITHMS),
    "problem.kind": (str, _DR_MT),
    "problem.dim": (int, _DR_MT),
    "problem.n_operators": (int, ("mt",)),
    "problem.seed": (int, ALGORITHMS),
    "problem.mu_target": (float, _DR_MT),
    "problem.L_target": (float, _DR_MT),
    "problem.beta": (float, ("scalar_counterexample",)),
    "problem.box_half_width": (float, _DR_MT),
    "problem.matrices_path": (str, _DR_MT),
    "schedule.kind": (str, ALGORITHMS),
    "schedule.gamma_star": (float, ALGORITHMS),
    "schedule.C": (float, ALGORITHMS),
    "schedule.r": (float, ALGORITHMS),
    "schedule.p": (float, ALGORITHMS),
    "schedule.gamma_low": (float, ALGORITHMS),
    "schedule.gamma_high": (float, ALGORITHMS),
    "theta": (float, ("mt",)),
    "n_steps": (int, ALGORITHMS),
    "checks": (str, ALGORITHMS),
    "output.trace_path": (str, ALGORITHMS),
    "output.report_path": (str, ALGORITHMS),
}


def _get(mapping, key, default=None, required=False):
    conv = _KNOWN_KEYS[key][0]
    if key not in mapping:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return conv(mapping[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {mapping[key]!r}") from exc

#: checks that read exact distances or served fixed points
_CONTRACTION_CHECKS = {
    "error_bound",
    "one_step",
    "rate_theorem",
    "relocator_bijection",
    "gamma_lipschitz",
}


def build_config(mapping: dict[str, str], overrides: dict[str, str] | None = None) -> ExperimentConfig:
    merged = dict(mapping)
    if overrides:
        merged.update(overrides)
    unknown = merged.keys() - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    algorithm = _get(merged, "algorithm", required=True)
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    inapplicable = sorted(key for key in merged if algorithm not in _KNOWN_KEYS[key][1])
    if inapplicable:
        raise ConfigError(f"keys {inapplicable} do not apply to algorithm={algorithm}")

    kind = _get(merged, "schedule.kind", required=True)
    gamma_star = _get(merged, "schedule.gamma_star", required=True)
    # only a constant schedule may leave out its clamp interval: it never leaves gamma_star
    moving = kind != "constant"
    try:
        schedule = StepsizeSchedule(
            kind, gamma_star,
            _get(merged, "schedule.gamma_low", default=gamma_star, required=moving),
            _get(merged, "schedule.gamma_high", default=gamma_star, required=moving),
            C=_get(merged, "schedule.C", default=1.0),
            r=_get(merged, "schedule.r"),
            p=_get(merged, "schedule.p"),
        )
    except DomainError as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc

    seed = _get(merged, "problem.seed", default=0)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"bad {SEED_ENV_VAR}={env_seed!r}") from exc
    if seed < 0:
        # numpy's generators take no negative seed
        source = SEED_ENV_VAR if env_seed is not None else "problem.seed"
        raise ConfigError(f"{source} must be >= 0, got {seed}")

    problem_kind = _get(merged, "problem.kind")
    if algorithm != "scalar_counterexample":
        if problem_kind is None:
            raise ConfigError("problem.kind is required for dr and mt")
        if problem_kind not in PROBLEM_KINDS:
            raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}")

    n_operators = _get(merged, "problem.n_operators", default=3 if algorithm == "mt" else 2)
    if n_operators < 2:
        raise ConfigError("mt needs problem.n_operators >= 2")

    checks_raw = _get(merged, "checks", default="")
    checks = None
    if checks_raw.strip() != "all":
        checks = [c.strip() for c in checks_raw.split(",") if c.strip()]
        for c in checks:
            if c not in CHECK_NAMES:
                raise ConfigError(f"unknown check {c!r}")
            if checks.count(c) > 1:
                raise ConfigError(f"check {c!r} is named more than once in checks")

    n_steps = _get(merged, "n_steps", default=300)
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")

    return ExperimentConfig(
        algorithm=algorithm,
        schedule=schedule,
        n_steps=n_steps,
        checks=checks,
        problem_kind=problem_kind,
        dim=_get(merged, "problem.dim", default=1 if algorithm == "scalar_counterexample" else 10),
        n_operators=n_operators,
        seed=seed,
        mu_target=_get(merged, "problem.mu_target", default=0.5),
        L_target=_get(merged, "problem.L_target", default=2.0),
        beta=_get(merged, "problem.beta", default=0.5),
        theta=_get(merged, "theta", default=0.5),
        box_half_width=_get(merged, "problem.box_half_width", default=1.0),
        matrices_path=_get(merged, "problem.matrices_path"),
        trace_path=_get(merged, "output.trace_path"),
        report_path=_get(merged, "output.report_path"),
    )


def build_family(config: ExperimentConfig):
    """Instantiate the operator family (and its operator list) for a config."""
    interval = (config.schedule.gamma_low, config.schedule.gamma_high)
    if config.algorithm == "scalar_counterexample":
        try:
            return ScalarShiftFamily(config.beta, interval), []
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
    ops = generate_problem(
        config.problem_kind,
        config.dim,
        config.seed,
        config.mu_target,
        config.L_target,
        n_operators=config.n_operators,
        box_half_width=config.box_half_width,
        matrices_path=config.matrices_path,
    )
    if config.algorithm == "dr" and len(ops) != 2:
        raise ConfigError(f"dr needs exactly 2 operators, the problem defines {len(ops)}")
    try:
        if config.algorithm == "dr":
            return DRFamily(ops[0], ops[1], interval), ops
        return MTFamily(ops, theta=config.theta, gamma_interval=interval), ops
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _initial_point(config: ExperimentConfig, family) -> np.ndarray:
    if config.algorithm == "scalar_counterexample":
        return np.array([config.schedule.gamma(0)])
    rng = np.random.default_rng([config.seed, 7])
    return rng.standard_normal(family.dim)


@dataclass
class CheckRecord:
    name: str
    passed: bool
    certified_constant: float = math.nan
    worst_ratio: float = math.nan
    fitted_C: float = math.nan
    fitted_r: float = math.nan
    fit_quality: float = math.nan
    #: rate_theorem's dist_to_fix fit, printed as three more fields on its line only
    dist_fit: RateEstimate | None = None

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"name={self.name}", f"status={status}"]
        for key in ("certified_constant", "worst_ratio", "fitted_C", "fitted_r", "fit_quality"):
            parts.append(f"{key}={FLOAT_FMT % getattr(self, key)}")
        if self.dist_fit is not None:
            fit = self.dist_fit
            for key, value in (("dist_C", fit.C), ("dist_r", fit.r), ("dist_fit_quality", fit.fit_quality)):
                parts.append(f"{key}={FLOAT_FMT % value}")
        return " ".join(parts)


def _record_from_rate(name: str, est: RateEstimate, passed: bool) -> CheckRecord:
    return CheckRecord(
        name,
        passed,
        fitted_C=est.C,
        fitted_r=est.r,
        fit_quality=est.fit_quality,
    )


def _check_error_bound(config: ExperimentConfig, family, trace: IterateTrace) -> CheckRecord:
    gamma = config.schedule.gamma_star
    kappa = family.regularity().kappa(gamma)
    rep = diagnostics.verify_error_bound(family, gamma, kappa, (-3.0, 3.0),
                                         samples=ERROR_BOUND_SAMPLES, seed=config.seed + 101)
    return CheckRecord("error_bound", rep.passed, certified_constant=kappa, worst_ratio=rep.worst_ratio)


def _check_one_step(config: ExperimentConfig, family, trace: IterateTrace) -> CheckRecord:
    kappa = family.regularity().contraction_kappa
    rep = diagnostics.verify_one_step_contraction(family, trace, kappa)
    return CheckRecord("one_step", rep.passed, certified_constant=kappa, worst_ratio=rep.worst_ratio)


def _check_rate_theorem(config: ExperimentConfig, family, trace: IterateTrace) -> CheckRecord:
    result = diagnostics.verify_rate_theorem(family, trace, burn_in=RATE_THEOREM_BURN_IN)
    record = _record_from_rate("rate_theorem", result.iterate_rate, result.passed)
    record.dist_fit = result.dist_rate
    return record


def _check_relocator_bijection(config: ExperimentConfig, family, trace: IterateTrace) -> CheckRecord:
    lo, hi = family.gamma_interval
    rng = np.random.default_rng([config.seed, 11])
    worst = 0.0
    ok = True
    for _ in range(10):
        gamma, delta, eps = rng.uniform(lo, hi, size=3)
        x = family.fixed_point(gamma)
        y = family.relocate(delta, gamma, x)
        scale_y = 1.0 + float(np.linalg.norm(y))
        resid = family.residual(delta, y)
        worst = max(worst, resid / (1e-8 * scale_y))
        ok &= resid <= 1e-8 * scale_y
        back = float(np.linalg.norm(family.relocate(gamma, delta, y) - x))
        comp = float(
            np.linalg.norm(family.relocate(eps, delta, y) - family.relocate(eps, gamma, x))
        )
        scale_x = 1.0 + float(np.linalg.norm(x))
        worst = max(worst, back / (1e-9 * scale_x), comp / (1e-9 * scale_x))
        ok &= back <= 1e-9 * scale_x and comp <= 1e-9 * scale_x
    return CheckRecord("relocator_bijection", ok, worst_ratio=worst)


def _check_fix_decomposition(config: ExperimentConfig, family, trace: IterateTrace) -> CheckRecord:
    lo, hi = family.gamma_interval
    gamma_a = config.schedule.gamma_star
    gamma_b = hi if abs(hi - gamma_a) > abs(lo - gamma_a) else lo
    if gamma_a == gamma_b:
        gamma_b = 0.5 * (lo + hi)
    ok = True
    worst = 0.0
    for gamma in (gamma_a, gamma_b):
        x = family.fixed_point(gamma)
        fd = fix_decomposition_check(family, gamma, x)
        scale = 1.0 + float(np.linalg.norm(x))
        worst = max(worst, fd.primal_residual / 1e-8, fd.reconstruction_error / (1e-12 * scale))
        ok &= fd.primal_residual <= 1e-8 and fd.reconstruction_error <= 1e-12 * scale
        if fd.dual_checked:
            worst = max(worst, fd.dual_residual / 1e-6)
            ok &= fd.dual_residual <= 1e-6
    if gamma_a != gamma_b:
        x_a, x_b = family.fixed_point(gamma_a), family.fixed_point(gamma_b)
        gap = float(np.linalg.norm(family.relocate(gamma_b, gamma_a, x_a) - x_b))
        scale = 1.0 + float(np.linalg.norm(x_b))
        worst = max(worst, gap / (1e-8 * scale))
        ok &= gap <= 1e-8 * scale
    return CheckRecord("fix_decomposition", ok, worst_ratio=worst)


def _check_summability(config: ExperimentConfig, family, trace: IterateTrace) -> CheckRecord:
    schedule = config.schedule
    n_terms = 100_000 if schedule.kind == "polynomial" else 10_000
    rep = summability_report(family, schedule, n_terms)
    try:
        bound = family.summability_bound(schedule)
    except DomainError:
        bound = math.nan
    total = float(rep.partial_sums[-1])
    passed = rep.converged
    worst = math.nan
    if math.isfinite(bound):
        passed = passed and total <= bound + 1e-9
        worst = total / bound if bound > 0 else (0.0 if total <= 1e-15 else math.inf)
    return CheckRecord("summability", passed, certified_constant=bound, worst_ratio=worst)


def _check_gamma_lipschitz(config: ExperimentConfig, family, trace: IterateTrace) -> CheckRecord:
    lo, hi = family.gamma_interval
    gammas = sorted({lo, 0.5 * (lo + hi), config.schedule.gamma_star, hi})
    probe = gamma_lipschitz_probe(family, gammas, list(np.linspace(lo, hi, 7)))
    # Q_{delta<-gamma} carries x*(gamma) = offset + gamma slope to x*(delta): every fixed point
    # moves by exactly |delta - gamma| ||slope||, up to the relocator laws' 1e-9 (1 + ||x||)
    slope = float(np.linalg.norm(family.fixed_point_line().slope))
    worst = probe.excess(slope) / 1e-9
    return CheckRecord("gamma_lipschitz", worst <= 1.0, certified_constant=slope, worst_ratio=worst)


def _consensus_gaps(family, trace: IterateTrace) -> np.ndarray:
    """Per row, the largest gap between two of the step's resolvent values, read from the
    residual vector x_n - T x_n: it is z - y for dr, and for mt block k of (T x_n - x_n)/theta
    is z^{k+1} - z^k, so z^j - z^i is a running sum of blocks i..j-1."""
    if isinstance(family, DRFamily):
        return trace.residuals
    steps = trace.t_of_x - trace.xs
    steps /= family.theta
    steps = steps.reshape(len(trace), family.n_blocks, family.space_dim)
    gaps = np.zeros(len(trace))
    run = np.empty((len(trace), family.space_dim))
    for i in range(family.n_blocks):
        run.fill(0.0)
        for j in range(i, family.n_blocks):
            run += steps[:, j]
            gaps = np.maximum(gaps, np.linalg.norm(run, axis=1))
    return gaps


def _check_consensus(config: ExperimentConfig, family, trace: IterateTrace) -> CheckRecord:
    gaps = _consensus_gaps(family, trace)
    est = diagnostics.fit_linear_rate(gaps, burn_in=5, floor=diagnostics.rounding_floor(trace.xs))
    return _record_from_rate("consensus", est, est.linear)


#: each check reads the config, the family and the run, which carries its ``err_to_limit``
#: column and, when a check needs it, ``dist_to_fix``
_CHECK_RUNNERS = {
    "error_bound": _check_error_bound,
    "one_step": _check_one_step,
    "rate_theorem": _check_rate_theorem,
    "relocator_bijection": _check_relocator_bijection,
    "fix_decomposition": _check_fix_decomposition,
    "summability": _check_summability,
    "gamma_lipschitz": _check_gamma_lipschitz,
    "consensus": _check_consensus,
}
CHECK_NAMES = tuple(_CHECK_RUNNERS)


def _applicable_checks(family, problem_kind: str | None) -> dict[str, str]:
    """Why the built family does not support each check, in ``CHECK_NAMES`` order, or "" when
    it does: all but ``summability`` need the contraction hypotheses (``missing_hypothesis``,
    which samples nothing), ``consensus`` a resolvent chain and ``fix_decomposition`` a DR pair."""
    missing = family.missing_hypothesis()
    chain = "" if isinstance(family, MTFamily) else "needs a resolvent chain"
    split = chain or ("" if isinstance(family, DRFamily) else "needs the two-operator splitting")
    if not split and problem_kind == "affine_skew_plus_strong":
        # it PASSes there too; perfbench/workloads.py pins dr-skew-poly-d100 at 7 checks
        split = "withheld on affine_skew_plus_strong, where the benchmark pins 7 checks"
    gaps = {"consensus": chain, "fix_decomposition": split}
    return {c: "" if c == "summability" else missing or gaps.get(c, "") for c in CHECK_NAMES}


def write_trace_csv(path: str, trace: IterateTrace, family) -> None:
    """The trace as CSV: ``n, gamma, residual, dist_to_fix, err_to_limit`` and the iterates ``x``.

    An error column the trace lacks is written as NaN. ``T_gamma x_n`` is not written:
    ``family.apply(gamma_n, x_n)`` recomputes it. A ``#`` line after the
    header (FIT_LINES) gives the burn-in with which rate_theorem fits the error columns,
    ``err_to_limit``'s floor (``diagnostics.rounding_floor``) and, when the trace carries
    ``dist_to_fix``, that column's floor (``diagnostics.distance_floor``).
    """
    rows, dim = trace.xs.shape
    names = ["n", "gamma", "residual", "dist_to_fix", "err_to_limit", *(f"x_{j}" for j in range(dim))]
    errors = [np.full(rows, math.nan) if col is None else col
              for col in (trace.dist_to_fix, trace.err_to_limit)]
    lead = np.column_stack([np.arange(rows, dtype=float), trace.gammas, trace.residuals, *errors])
    lead_fmt = ",".join([FLOAT_FMT] * lead.shape[1])
    x_fmt = ("," + FLOAT_FMT) * dim + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        limit_floor = diagnostics.rounding_floor(trace.xs)
        if trace.dist_to_fix is not None:
            floor = diagnostics.distance_floor(family)
            fh.write(FIT_LINES["dist_to_fix"] % (floor, RATE_THEOREM_BURN_IN, limit_floor))
        else:
            fh.write(FIT_LINES["err_to_limit"] % (limit_floor, RATE_THEOREM_BURN_IN))
        # one formatted write per row; a copy of the whole table would add to peak memory. The
        # rows past a float fixed point repeat one iterate, whose text is formatted once
        last, x_text = None, ""
        for head, x in zip(lead.tolist(), trace.xs):
            if last is None or not same_bits(x, last):
                last, x_text = x, x_fmt % tuple(x.tolist())
            fh.write(lead_fmt % tuple(head) + x_text)


def read_fit_line(path: str, column: str) -> tuple[float, int] | None:
    """The floor and burn-in with which rate_theorem fits ``column``, from the trace's FIT_LINES
    line; None for a column rate_theorem does not fit, or a trace without the line.

    A malformed line, or a floor that is not a positive finite number, raises ConfigError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        line = fh.readline()
    words = line[2:].split() if line.startswith("# ") else []
    if column not in FIT_LINES or not words or words[0] not in FIT_LINES:
        return None
    try:
        fields = dict(word.split("=", 1) for word in words[1:])
        burn_in = int(fields["burn_in"])
        floor = float(fields["floor" if column == words[0] else f"{column}_floor"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}:2: bad fit line {line.strip()!r}") from exc
    if not 0.0 < floor < math.inf:
        raise ConfigError(f"{path}:2: fit floor {floor!r} is not a positive finite number")
    return floor, burn_in


def read_trace_csv(path: str, column: str) -> np.ndarray:
    """The named column of a trace CSV; only that column is parsed.

    Empty lines and ``#`` comments are skipped, as np.loadtxt skips them. A
    missing column, a row whose field count differs from the header's, or a
    non-numeric or non-finite value in the column raises ConfigError; the
    message names the file, the line of the first bad row and the column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if column not in header:
            raise ConfigError(f"no column {column!r} in {path}")
        idx = header.index(column)
        values = []
        for lineno, line in enumerate(fh, 2):
            data = line.split("#", 1)[0].rstrip("\r\n")
            if not data:
                continue
            if data.count(",") != len(header) - 1:
                raise ConfigError(
                    f"{path}:{lineno}: {data.count(',') + 1} fields, header has {len(header)}"
                )
            # split no further than the column: a d=400 row has 405 fields
            field = data.split(",", idx + 1)[idx]
            try:
                value = float(field)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: column {column!r}: {exc}") from exc
            if not math.isfinite(value):
                # a column no requested check filled is written as NaN
                raise ConfigError(f"{path}:{lineno}: column {column!r} holds {field!r}, not a finite number")
            values.append(value)
    return np.array(values)


def format_report(records: list[CheckRecord]) -> str:
    lines = [rec.format() for rec in records]
    failed = sum(1 for rec in records if not rec.passed)
    overall = "PASS" if failed == 0 else "FAIL"
    lines.append(f"overall={overall} checks={len(records)} failed={failed}")
    return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig) -> tuple[int, list[CheckRecord]]:
    """Run one experiment: trace, checks, report. Returns (exit_status, records).

    The trace CSV is written only when ``config.trace_path`` is set and not empty;
    ``verify`` clears it and is otherwise this same run.
    """
    family, _ops = build_family(config)
    gaps = _applicable_checks(family, config.problem_kind)
    checks = [c for c, gap in gaps.items() if not gap] if config.checks is None else config.checks
    for c in checks:
        if gaps[c]:
            raise ConfigError(f"check {c!r} is not applicable: {gaps[c]}")
    # T_gamma* serves the rows where the schedule reaches gamma* in floats (a geometric one does)
    # and error_bound's samples, counted whatever the checks: an affine family holds its map there
    # when that pays, and the checks named cannot move the iterates
    gamma_star = config.schedule.gamma_star
    tail = int(np.count_nonzero(config.schedule.gammas(config.n_steps + 1) == gamma_star))
    family.hold_affine_part(gamma_star, tail + ERROR_BOUND_SAMPLES)
    trace = relocated_iterate(family, config.schedule, _initial_point(config, family), config.n_steps)
    diagnostics.limit_errors(family, gamma_star, trace)

    if _CONTRACTION_CHECKS & set(checks):
        diagnostics.compute_distances(family, trace)

    if config.trace_path:
        write_trace_csv(config.trace_path, trace, family)

    records = [_CHECK_RUNNERS[name](config, family, trace) for name in checks]
    report = format_report(records)
    sys.stdout.write(report)
    if config.report_path:
        with open(config.report_path, "w", encoding="utf-8") as fh:
            fh.write(report)

    status = 0 if all(rec.passed for rec in records) else 1
    return status, records


def _failure_status(exc: Exception, where: str | None = None) -> int:
    """Print why a command failed and return its exit status: 3 for I/O, 4 for a numerical
    error, 2 for any other package error.

    A package error other than ConfigError means the configuration produced a run the
    checks cannot even evaluate, so its type is named.
    """
    origin = f" ({where})" if where else ""
    if isinstance(exc, OSError):
        print(f"i/o error{origin}: {exc}", file=sys.stderr)
        return 3
    if isinstance(exc, NumericalError):
        print(f"numerical error{origin}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    detail = exc if isinstance(exc, ConfigError) else f"{type(exc).__name__}: {exc}"
    print(f"config error{origin}: {detail}", file=sys.stderr)
    return 2


def _run_one(path: str, overrides: dict[str, str]) -> int:
    try:
        config = build_config(parse_config_file(path), overrides)
        if config.checks == [] and not config.trace_path:
            # verify always clears the trace path; its overall=PASS would then check nothing
            raise ConfigError("checks is empty and no trace is written: the run would show nothing")
        return run_experiment(config)[0]
    except (RelocSplitError, OSError) as exc:
        return _failure_status(exc, path)


def _job_count(text: str) -> int:
    """``--jobs``: an integer of at least 1 (argparse exits 2 otherwise)."""
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="relocsplit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments: trace + checks + report")
    p_run.add_argument("configs", nargs="+", help="config file(s)")
    p_run.add_argument("--set", dest="overrides", action="append", default=[], metavar="K=V")
    p_run.add_argument("--jobs", type=_job_count, default=1, help="run configs concurrently")

    p_verify = sub.add_parser("verify", help="run checks only, no trace file")
    p_verify.add_argument("config")
    p_verify.add_argument("--set", dest="overrides", action="append", default=[], metavar="K=V")

    p_rate = sub.add_parser("rate", help="fit an R-linear rate to a trace column")
    p_rate.add_argument("trace")
    p_rate.add_argument("--column", default="err_to_limit")
    p_rate.add_argument("--burn-in", type=int, default=None)

    args = parser.parse_args(argv)

    if args.command == "rate":
        try:
            values = read_trace_csv(args.trace, args.column)
            fit = read_fit_line(args.trace, args.column)
            floor, burn = fit or (diagnostics.FLOAT_FLOOR, default_burn_in(len(values)))
            if args.burn_in is not None:
                burn = args.burn_in
            est = diagnostics.fit_linear_rate(values, burn, floor)
        except (RelocSplitError, OSError) as exc:
            return _failure_status(exc, args.trace)
        verdict = "linear" if est.linear else "not-R-linear"
        print(
            f"column={args.column} verdict={verdict} C={FLOAT_FMT % est.C} "
            f"r={FLOAT_FMT % est.r} fit_quality={FLOAT_FMT % est.fit_quality} "
            f"burn_in={est.burn_in} n_used={est.n_used}"
        )
        return 0

    try:
        overrides = _read_pairs("--set", enumerate(args.overrides, 1))
    except ConfigError as exc:
        return _failure_status(exc)
    if args.command == "verify":
        # an empty trace path writes no trace
        return _run_one(args.config, {**overrides, "output.trace_path": ""})
    if args.jobs > 1 and len(args.configs) > 1:
        # imported here, off the import path of every other command
        import concurrent.futures

        # the pool starts all its workers up front, however few configs there are
        workers = min(args.jobs, len(args.configs))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            statuses = list(pool.map(_run_one, args.configs, [overrides] * len(args.configs)))
    else:
        statuses = [_run_one(path, overrides) for path in args.configs]
    return max(statuses)


if __name__ == "__main__":
    sys.exit(main())
