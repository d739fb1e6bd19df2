"""Spans around the public entry points of each relocsplit module.

``instrument`` swaps module and class attributes for wrapped versions and
returns a function that puts the originals back. Nothing inside the package
changes: a function imported by name into another module is wrapped in every
namespace that calls it. ``layer_metrics`` turns one traced experiment into
per-layer metrics; ``BENCHMARK.json`` lists their names and units.
"""

from __future__ import annotations

import weakref

import relocsplit.cli as cli
import relocsplit.diagnostics as diagnostics
import relocsplit.dr as dr
import relocsplit.family as family
import relocsplit.mt as mt
import relocsplit.operators as operators

from tracing import Tracer

MODULES = ("operators", "family", "dr", "mt", "diagnostics", "problems", "cli")

#: root span of one experiment; its self time is ``cli.self_s``
ROOT = "cli.experiment"
ORACLE = "diagnostics.fixed_point_oracle"
LOOKUP = "diagnostics.fixed_point_lookup"
APPLIES = ("dr.apply", "mt.apply")


def _steps(trace) -> int:
    return len(trace) - 1


def _targets():
    """(span name, tally, [(owner, attribute), ...]) for every wrapped call."""
    return [
        ("operators.resolvent", None, [(operators.AffineOperator, "resolvent")]),
        ("operators.factorization", None, [(operators, "lu_factor")]),
        ("operators.box_resolvent", None, [(operators.BoxNormalCone, "resolvent")]),
        ("family.relocated_iterate", _steps,
         [(family, "relocated_iterate"), (cli, "relocated_iterate"),
          (diagnostics, "relocated_iterate")]),
        ("family.summability_report", None,
         [(family, "summability_report"), (cli, "summability_report")]),
        ("family.gamma_lipschitz_probe", None,
         [(family, "gamma_lipschitz_probe"), (cli, "gamma_lipschitz_probe")]),
        ("dr.algorithm1_run", _steps, [(dr, "algorithm1_run"), (cli, "algorithm1_run")]),
        ("dr.apply", None, [(dr.DRFamily, "apply")]),
        ("dr.fix_decomposition_check", None,
         [(dr, "fix_decomposition_check"), (cli, "fix_decomposition_check")]),
        ("mt.algorithm2_run", _steps, [(mt, "algorithm2_run"), (cli, "algorithm2_run")]),
        ("mt.apply", None, [(mt.MTFamily, "apply")]),
        ("mt.certificate", None, [(mt, "mt_contraction_certificate")]),
        (ORACLE, None, [(diagnostics, "fixed_point_oracle")]),
        (LOOKUP, None, [(diagnostics.FixedPointCache, "point")]),
        ("diagnostics.rate_theorem", None, [(diagnostics, "verify_rate_theorem")]),
        ("diagnostics.distances", None, [(diagnostics, "compute_distances")]),
        ("diagnostics.error_bound", None, [(diagnostics, "verify_error_bound")]),
        ("diagnostics.one_step", None, [(diagnostics, "verify_one_step_contraction")]),
        ("problems.generate_problem", None, [(cli, "generate_problem")]),
        ("cli.write_trace_csv", None, [(cli, "write_trace_csv")]),
        ("cli.read_trace_csv", None, [(cli, "read_trace_csv")]),
    ]


def _original(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def instrument(tracer: Tracer):
    """Wrap the entry points in spans; returns a function undoing it."""
    saved = []

    def swap(owner, attr, value):
        saved.append((owner, attr, _original(owner, attr)))
        setattr(owner, attr, value)

    for name, tally, places in _targets():
        wrapped = tracer.wrap(name, getattr(*places[0]), tally)
        for owner, attr in places:
            swap(owner, attr, wrapped)

    # DRFamily.contraction_beta is computed on its first read and cached
    beta_prop = dr.DRFamily.__dict__["contraction_beta"]
    timed = tracer.wrap("dr.contraction_beta", beta_prop.fget)
    seen = weakref.WeakSet()

    def first_read_timed(self):
        if self in seen:
            return beta_prop.fget(self)
        seen.add(self)
        return timed(self)

    swap(dr.DRFamily, "contraction_beta", property(first_read_timed))

    runners = cli._CHECK_RUNNERS
    saved_runners = dict(runners)
    for check, fn in saved_runners.items():
        runners[check] = tracer.wrap(f"cli.check.{check}", fn)

    def restore():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
        runners.update(saved_runners)

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced experiment whose root span is ROOT."""
    stats = tracer.by_name()

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def rate(name):
        return tracer.tallies[name] / total(name) if total(name) > 0 else 0.0

    names, parents = tracer.names, tracer.parents
    oracle_iterations = sum(
        1 for name, p in zip(names, parents) if name in APPLIES and p >= 0 and names[p] == ORACLE
    )
    lookups_running_oracle = {p for name, p in zip(names, parents) if name == ORACLE and p >= 0
                              and names[p] == LOOKUP}
    lookups = calls(LOOKUP)

    out = {
        "operators.resolvent_calls": calls("operators.resolvent"),
        "operators.resolvent_s": total("operators.resolvent"),
        "operators.factorizations": calls("operators.factorization"),
        "operators.factorization_s": total("operators.factorization"),
        "operators.box_resolvent_calls": calls("operators.box_resolvent"),
        "operators.box_resolvent_s": total("operators.box_resolvent"),
        "family.relocated_iterate_calls": calls("family.relocated_iterate"),
        "family.relocated_steps": int(tracer.tallies["family.relocated_iterate"]),
        "family.relocated_iterate_s": total("family.relocated_iterate"),
        "family.summability_s": total("family.summability_report"),
        "dr.algorithm1_s": total("dr.algorithm1_run"),
        "dr.steps_per_s": rate("dr.algorithm1_run"),
        "dr.apply_calls": calls("dr.apply"),
        "dr.contraction_beta_s": total("dr.contraction_beta"),
        "mt.algorithm2_s": total("mt.algorithm2_run"),
        "mt.steps_per_s": rate("mt.algorithm2_run"),
        "mt.apply_calls": calls("mt.apply"),
        "mt.certificate_s": total("mt.certificate"),
        "diagnostics.oracle_calls": calls(ORACLE),
        "diagnostics.oracle_iterations": oracle_iterations,
        "diagnostics.oracle_s": total(ORACLE),
        "diagnostics.fixed_point_lookups": lookups,
        "diagnostics.fixed_point_hit_ratio":
            (lookups - len(lookups_running_oracle)) / lookups if lookups else 0.0,
        "diagnostics.rate_theorem_s": total("diagnostics.rate_theorem"),
        "diagnostics.distances_s": total("diagnostics.distances"),
        "diagnostics.error_bound_s": total("diagnostics.error_bound"),
        "cli.write_trace_s": total("cli.write_trace_csv"),
        "cli.read_trace_s": total("cli.read_trace_csv"),
        "trace.spans": len(tracer),
    }
    for check in cli.CHECK_NAMES:
        out[f"cli.check_s.{check}"] = total(f"cli.check.{check}")
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            (own for name, (_, _, own) in stats.items() if name.split(".", 1)[0] == module), 0.0
        )
    return out
