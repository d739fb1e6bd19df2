"""Configuration-driven experiment runner.

Config files are flat ``key = value`` text (``#`` starts a comment); every key
can be overridden on the command line with ``--set key=value``. One experiment
builds a seeded problem, runs the requested algorithm, writes the trace as CSV
and evaluates the requested checks, one PASS/FAIL record per check.

Exit codes: 0 all checks pass, 1 some check failed, 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .diagnostics import FixedPointCache, RateEstimate, default_burn_in
# algorithm1_run, algorithm2_run and relocated_iterate stay importable from
# here: perfbench/layers.py wraps them in this namespace.
from .dr import (
    DRFamily,
    algorithm1_run,  # noqa: F401
    dr_regularity_constant,
    dr_summability_bound,
    fix_decomposition_check,
)
from .errors import ConfigError, DomainError, RelocSplitError
from .family import (
    IterateTrace,
    ScalarShiftFamily,
    StepsizeSchedule,
    gamma_lipschitz_probe,
    relocated_iterate,
    summability_report,
)
from .mt import MTFamily, algorithm2_run, mt_summability_bound  # noqa: F401
from .problems import PROBLEM_KINDS, generate_problem

ALGORITHMS = ("dr", "mt", "scalar_counterexample")

#: %.17g round-trips IEEE-754 doubles exactly
FLOAT_FMT = "%.17g"

SEED_ENV_VAR = "RELOCSPLIT_SEED"


@dataclass
class ExperimentConfig:
    algorithm: str
    schedule: StepsizeSchedule
    n_steps: int
    checks: list[str]
    problem_kind: str | None = None
    dim: int = 1
    n_operators: int = 2
    seed: int = 0
    mu_target: float = 0.5
    L_target: float = 2.0
    beta: float = 0.5
    theta: float = 0.5
    box_half_width: float = 1.0
    matrices_path: str | None = None
    trace_path: str | None = None
    report_path: str | None = None


def parse_config_file(path: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def _get(mapping, key, conv, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return conv(mapping[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {mapping[key]!r}") from exc


_KNOWN_KEYS = {
    "algorithm",
    "problem.kind",
    "problem.dim",
    "problem.n_operators",
    "problem.seed",
    "problem.mu_target",
    "problem.L_target",
    "problem.beta",
    "problem.box_half_width",
    "problem.matrices_path",
    "schedule.kind",
    "schedule.gamma_star",
    "schedule.C",
    "schedule.r",
    "schedule.p",
    "schedule.gamma_low",
    "schedule.gamma_high",
    "theta",
    "n_steps",
    "checks",
    "output.trace_path",
    "output.report_path",
}

#: checks that need exact distances / served fixed points (contraction marker)
_CONTRACTION_CHECKS = {
    "error_bound",
    "one_step",
    "rate_theorem",
    "relocator_bijection",
    "gamma_lipschitz",
    "consensus",
}


def _applicable_checks(algorithm: str, problem_kind: str | None) -> list[str]:
    if algorithm == "scalar_counterexample":
        return [c for c in CHECK_NAMES if c not in ("fix_decomposition", "consensus")]
    if algorithm == "mt":
        return [c for c in CHECK_NAMES if c != "fix_decomposition"]
    # dr
    if problem_kind == "affine_plus_box":
        return ["summability"]
    if problem_kind == "affine_skew_plus_strong":
        return [c for c in CHECK_NAMES if c != "fix_decomposition"]
    return list(CHECK_NAMES)


def build_config(mapping: dict[str, str], overrides: dict[str, str] | None = None) -> ExperimentConfig:
    merged = dict(mapping)
    if overrides:
        merged.update(overrides)
    unknown = set(merged) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    algorithm = _get(merged, "algorithm", str, required=True)
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")

    kind = _get(merged, "schedule.kind", str, required=True)
    gamma_star = _get(merged, "schedule.gamma_star", float, required=True)
    if kind == "constant":
        lo = _get(merged, "schedule.gamma_low", float, default=gamma_star)
        hi = _get(merged, "schedule.gamma_high", float, default=gamma_star)
    else:
        lo = _get(merged, "schedule.gamma_low", float, required=True)
        hi = _get(merged, "schedule.gamma_high", float, required=True)
    try:
        if kind == "constant":
            schedule = StepsizeSchedule("constant", gamma_star, lo, hi)
        elif kind == "geometric":
            schedule = StepsizeSchedule(
                "geometric", gamma_star, lo, hi,
                C=_get(merged, "schedule.C", float, default=1.0),
                r=_get(merged, "schedule.r", float, required=True),
            )
        elif kind == "polynomial":
            schedule = StepsizeSchedule(
                "polynomial", gamma_star, lo, hi,
                C=_get(merged, "schedule.C", float, default=1.0),
                p=_get(merged, "schedule.p", float, required=True),
            )
        else:
            raise ConfigError(f"unknown schedule kind {kind!r}")
    except DomainError as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc

    seed = _get(merged, "problem.seed", int, default=0)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"bad {SEED_ENV_VAR}={env_seed!r}") from exc

    problem_kind = _get(merged, "problem.kind", str)
    if algorithm != "scalar_counterexample":
        if problem_kind is None:
            raise ConfigError("problem.kind is required for dr and mt")
        if problem_kind not in PROBLEM_KINDS:
            raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}")

    n_operators = _get(merged, "problem.n_operators", int, default=3 if algorithm == "mt" else 2)
    if algorithm == "dr":
        n_operators = 2
    if algorithm == "mt" and n_operators < 2:
        raise ConfigError("mt needs problem.n_operators >= 2")

    checks_raw = _get(merged, "checks", str, default="")
    applicable = _applicable_checks(algorithm, problem_kind)
    if checks_raw.strip() == "all":
        checks = list(applicable)
    else:
        checks = [c.strip() for c in checks_raw.split(",") if c.strip()]
        for c in checks:
            if c not in CHECK_NAMES:
                raise ConfigError(f"unknown check {c!r}")
            if c not in applicable:
                raise ConfigError(
                    f"check {c!r} is not applicable to algorithm={algorithm} "
                    f"problem.kind={problem_kind}"
                )

    n_steps = _get(merged, "n_steps", int, default=300)
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")

    return ExperimentConfig(
        algorithm=algorithm,
        schedule=schedule,
        n_steps=n_steps,
        checks=checks,
        problem_kind=problem_kind,
        dim=_get(merged, "problem.dim", int, default=1 if algorithm == "scalar_counterexample" else 10),
        n_operators=n_operators,
        seed=seed,
        mu_target=_get(merged, "problem.mu_target", float, default=0.5),
        L_target=_get(merged, "problem.L_target", float, default=2.0),
        beta=_get(merged, "problem.beta", float, default=0.5),
        theta=_get(merged, "theta", float, default=0.5),
        box_half_width=_get(merged, "problem.box_half_width", float, default=1.0),
        matrices_path=_get(merged, "problem.matrices_path", str),
        trace_path=_get(merged, "output.trace_path", str),
        report_path=_get(merged, "output.report_path", str),
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

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"name={self.name}", f"status={status}"]
        for key in ("certified_constant", "worst_ratio", "fitted_C", "fitted_r", "fit_quality"):
            parts.append(f"{key}={FLOAT_FMT % getattr(self, key)}")
        return " ".join(parts)


def _record_from_rate(name: str, est: RateEstimate, passed: bool) -> CheckRecord:
    return CheckRecord(
        name,
        passed,
        fitted_C=est.C,
        fitted_r=est.r,
        fit_quality=est.fit_quality,
    )


def _symmetric_strong_op(family: DRFamily):
    for op in (family.a1, family.a2):
        if getattr(op, "single_valued", False) and getattr(op, "is_symmetric", False) and op.mu > 0:
            return op
    return None


def _kappa_for(family, schedule) -> float:
    """Certified error-bound constant at the limiting stepsize."""
    if isinstance(family, DRFamily):
        op = _symmetric_strong_op(family)
        if op is not None:
            return dr_regularity_constant(schedule.gamma_star, op.sym_eig_min, 1.0 / op.sym_eig_max)
    beta = family.contraction_beta
    if beta is None:
        raise ConfigError("no error-bound constant available without a contraction certificate")
    return 1.0 / (1.0 - beta)


class _ExperimentState:
    """Shared artifacts the individual checks draw on."""

    def __init__(self, config, family, schedule, x0, trace, limit):
        self.config = config
        self.family = family
        self.schedule = schedule
        self.x0 = x0
        self.trace = trace
        #: the limit of the trace's iterates, from ``diagnostics.limit_errors``
        self.limit = limit
        self.cache = FixedPointCache(family)


def _check_error_bound(state: _ExperimentState) -> CheckRecord:
    kappa = _kappa_for(state.family, state.schedule)
    rep = diagnostics.verify_error_bound(
        state.family,
        state.schedule.gamma_star,
        kappa,
        (-3.0, 3.0),
        samples=1000,
        seed=state.config.seed + 101,
        cache=state.cache,
    )
    return CheckRecord("error_bound", rep.passed, certified_constant=kappa, worst_ratio=rep.worst_ratio)


def _check_one_step(state: _ExperimentState) -> CheckRecord:
    beta = state.family.contraction_beta
    if beta is None:
        raise ConfigError("one_step needs a contraction certificate (exact distances)")
    kappa = 1.0 / (1.0 - beta)
    rep = diagnostics.verify_one_step_contraction(state.family, state.trace, kappa)
    return CheckRecord("one_step", rep.passed, certified_constant=kappa, worst_ratio=rep.worst_ratio)


def _check_rate_theorem(state: _ExperimentState) -> CheckRecord:
    # small burn-in: a long one can launder sublinear tails into linear verdicts
    result = diagnostics.verify_rate_theorem(
        state.family, state.schedule, state.x0, state.config.n_steps, burn_in=5,
        run=state.trace, limit=state.limit, cache=state.cache,
    )
    return _record_from_rate("rate_theorem", result.iterate_rate, result.passed)


def _check_relocator_bijection(state: _ExperimentState) -> CheckRecord:
    family = state.family
    lo, hi = family.gamma_interval
    rng = np.random.default_rng([state.config.seed, 11])
    worst = 0.0
    ok = True
    for _ in range(10):
        gamma, delta, eps = rng.uniform(lo, hi, size=3)
        x = state.cache.point(gamma)
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


def _check_fix_decomposition(state: _ExperimentState) -> CheckRecord:
    family = state.family
    lo, hi = family.gamma_interval
    gamma_a = state.schedule.gamma_star
    gamma_b = hi if abs(hi - gamma_a) > abs(lo - gamma_a) else lo
    if gamma_a == gamma_b:
        gamma_b = 0.5 * (lo + hi)
    ok = True
    worst = 0.0
    for gamma in (gamma_a, gamma_b):
        x = state.cache.point(gamma)
        fd = fix_decomposition_check(family, gamma, x)
        scale = 1.0 + float(np.linalg.norm(x))
        worst = max(worst, fd.primal_residual / 1e-8, fd.reconstruction_error / (1e-12 * scale))
        ok &= fd.primal_residual <= 1e-8 and fd.reconstruction_error <= 1e-12 * scale
        if fd.dual_checked:
            worst = max(worst, fd.dual_residual / 1e-6)
            ok &= fd.dual_residual <= 1e-6
    if gamma_a != gamma_b:
        x_a, x_b = state.cache.point(gamma_a), state.cache.point(gamma_b)
        gap = float(np.linalg.norm(family.relocate(gamma_b, gamma_a, x_a) - x_b))
        scale = 1.0 + float(np.linalg.norm(x_b))
        worst = max(worst, gap / (1e-8 * scale))
        ok &= gap <= 1e-8 * scale
    return CheckRecord("fix_decomposition", ok, worst_ratio=worst)


def _check_summability(state: _ExperimentState) -> CheckRecord:
    schedule = state.schedule
    n_terms = 100_000 if schedule.kind == "polynomial" else 10_000
    rep = summability_report(state.family, schedule, n_terms)
    try:
        if isinstance(state.family, MTFamily):
            bound = mt_summability_bound(schedule, state.family.n_operators)
        elif isinstance(state.family, DRFamily):
            bound = dr_summability_bound(schedule)
        else:
            bound = 0.0 if schedule.kind != "polynomial" else math.nan
    except DomainError:
        bound = math.nan
    total = float(rep.partial_sums[-1])
    passed = rep.converged
    worst = math.nan
    if math.isfinite(bound):
        passed = passed and total <= bound + 1e-9
        worst = total / bound if bound > 0 else (0.0 if total <= 1e-15 else math.inf)
    return CheckRecord("summability", passed, certified_constant=bound, worst_ratio=worst)


def _check_gamma_lipschitz(state: _ExperimentState) -> CheckRecord:
    family = state.family
    lo, hi = family.gamma_interval
    gammas = sorted({lo, 0.5 * (lo + hi), state.schedule.gamma_star, hi})
    fixed_points = [(state.cache.point(g), g) for g in gammas]
    deltas = list(np.linspace(lo, hi, 7))
    probe = gamma_lipschitz_probe(family, fixed_points, deltas)
    return CheckRecord(
        "gamma_lipschitz", math.isfinite(probe.L_estimate), certified_constant=probe.L_estimate
    )


def _consensus_gaps(state: _ExperimentState) -> np.ndarray:
    trace = state.trace
    if state.config.algorithm == "dr":
        return np.linalg.norm(trace.block("z") - trace.block("y"), axis=1)
    family = state.family
    z = trace.block("z").reshape(len(trace), family.n_operators, family.space_dim)
    gaps = np.zeros(len(trace))
    for i in range(family.n_operators):
        for j in range(i + 1, family.n_operators):
            gaps = np.maximum(gaps, np.linalg.norm(z[:, i] - z[:, j], axis=1))
    return gaps


def _check_consensus(state: _ExperimentState) -> CheckRecord:
    gaps = _consensus_gaps(state)
    est = diagnostics._fit_allow_zero(gaps, burn_in=5)
    return _record_from_rate("consensus", est, est.linear)


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


def write_trace_csv(path: str, trace: IterateTrace, err_to_limit: np.ndarray) -> None:
    rows = len(trace)
    dist = trace.dist_to_fix if trace.dist_to_fix is not None else np.full(rows, math.nan)
    names = ["n", "gamma", "residual", "dist_to_fix", "err_to_limit"]
    pieces = [np.column_stack([np.arange(rows, dtype=float), trace.gammas, trace.residuals, dist, err_to_limit])]

    def add(prefix: str, arr: np.ndarray):
        names.extend(f"{prefix}_{j}" for j in range(arr.shape[1]))
        pieces.append(arr)

    add("x", trace.xs)
    if trace.blocks:
        for name in ("z", "y", "w"):
            if name in trace.blocks:
                add(name, trace.blocks[name])
    else:
        add("t", trace.t_of_x)

    # one formatted write per row; a copy of the whole table would add to peak memory
    row_fmt = ",".join([FLOAT_FMT] * len(names)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(rows):
            fh.write(row_fmt % tuple(np.concatenate([piece[i] for piece in pieces]).tolist()))


def read_trace_csv(path: str, column: str) -> np.ndarray:
    """The named column of a trace CSV; only that column is parsed.

    Empty lines and ``#`` comments are skipped, as np.loadtxt skips them. A
    missing column, a row whose field count differs from the header's, or a
    non-numeric value in the column raises ConfigError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if column not in header:
            raise ConfigError(f"no column {column!r} in {path}")
        idx = header.index(column)
        fields = []
        for lineno, line in enumerate(fh, 2):
            data = line.split("#", 1)[0].rstrip("\r\n")
            if not data:
                continue
            if data.count(",") != len(header) - 1:
                raise ConfigError(
                    f"{path}:{lineno}: {data.count(',') + 1} fields, header has {len(header)}"
                )
            # split no further than the column: a d=400 row has 1,605 fields
            fields.append(data.split(",", idx + 1)[idx])
    try:
        return np.array([float(field) for field in fields])
    except ValueError as exc:
        raise ConfigError(f"{path}: column {column!r}: {exc}") from exc


def format_report(records: list[CheckRecord]) -> str:
    lines = [rec.format() for rec in records]
    failed = sum(1 for rec in records if not rec.passed)
    overall = "PASS" if failed == 0 else "FAIL"
    lines.append(f"overall={overall} checks={len(records)} failed={failed}")
    return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig, write_trace: bool = True) -> tuple[int, list[CheckRecord]]:
    """Run one experiment: trace, checks, report. Returns (exit_status, records)."""
    family, _ops = build_family(config)
    schedule = config.schedule
    x0 = _initial_point(config, family)

    trace = relocated_iterate(family, schedule, x0, config.n_steps)
    limit, err_to_limit = diagnostics.limit_errors(family, schedule.gamma_star, trace)

    state = _ExperimentState(config, family, schedule, x0, trace, limit)
    needs_dist = bool(_CONTRACTION_CHECKS & set(config.checks))
    if needs_dist and family.contraction_beta is not None:
        diagnostics.compute_distances(family, trace, state.cache)

    if write_trace and config.trace_path:
        write_trace_csv(config.trace_path, trace, err_to_limit)

    records = [_CHECK_RUNNERS[name](state) for name in config.checks]
    report = format_report(records)
    sys.stdout.write(report)
    if config.report_path:
        with open(config.report_path, "w", encoding="utf-8") as fh:
            fh.write(report)

    status = 0 if all(rec.passed for rec in records) else 1
    return status, records


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _run_one(path: str, overrides: dict[str, str], write_trace: bool) -> int:
    try:
        config = build_config(parse_config_file(path), overrides)
        status, _ = run_experiment(config, write_trace=write_trace)
        return status
    except ConfigError as exc:
        print(f"config error ({path}): {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error ({path}): {exc}", file=sys.stderr)
        return 3
    except RelocSplitError as exc:
        # the configuration produced a run the checks cannot even evaluate
        print(f"config error ({path}): {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="relocsplit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments: trace + checks + report")
    p_run.add_argument("configs", nargs="+", help="config file(s)")
    p_run.add_argument("--set", dest="overrides", action="append", default=[], metavar="K=V")
    p_run.add_argument("--jobs", type=int, default=1, help="run configs concurrently")

    p_verify = sub.add_parser("verify", help="run checks only, no trace file")
    p_verify.add_argument("config")
    p_verify.add_argument("--set", dest="overrides", action="append", default=[], metavar="K=V")

    p_rate = sub.add_parser("rate", help="fit an R-linear rate to a trace column")
    p_rate.add_argument("trace")
    p_rate.add_argument("--column", default="err_to_limit")
    p_rate.add_argument("--burn-in", type=int, default=None)

    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            overrides = _parse_overrides(args.overrides)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if args.jobs > 1 and len(args.configs) > 1:
            # the pool starts all its workers up front, however few configs there are
            workers = min(args.jobs, len(args.configs))
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                statuses = list(
                    pool.map(_run_one, args.configs, [overrides] * len(args.configs),
                             [True] * len(args.configs))
                )
        else:
            statuses = [_run_one(path, overrides, True) for path in args.configs]
        return max(statuses)

    if args.command == "verify":
        try:
            overrides = _parse_overrides(args.overrides)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return _run_one(args.config, overrides, False)

    # rate
    try:
        values = read_trace_csv(args.trace, args.column)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    burn = args.burn_in if args.burn_in is not None else default_burn_in(len(values))
    try:
        est = diagnostics.fit_linear_rate(values, burn)
    except RelocSplitError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    verdict = "linear" if est.linear else "not-R-linear"
    print(
        f"column={args.column} verdict={verdict} C={FLOAT_FMT % est.C} "
        f"r={FLOAT_FMT % est.r} fit_quality={FLOAT_FMT % est.fit_quality} "
        f"burn_in={est.burn_in} n_used={est.n_used}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
