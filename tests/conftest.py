import sys

import numpy as np
import pytest

import relocsplit as rs
import relocsplit.diagnostics as diagnostics

INTERVAL = (0.5, 2.0)


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    sys.stderr.write(f"ACCEPTANCE {name}: {status}\n")


@pytest.fixture(scope="session")
def pd_pair_family():
    """Symmetric positive-definite pair, dim 5; contraction-certified."""
    ops = rs.generate_problem("affine_strongly_monotone", 5, 7, 0.5, 2.0)
    return rs.DRFamily(ops[0], ops[1], INTERVAL)


@pytest.fixture(scope="session")
def skew_strong_family():
    """Matched (mu, L) = (1, 1): skew head, identity tail."""
    a1 = rs.skew_operator(4, 1.0, np.random.default_rng(3))
    a2 = rs.AffineOperator(np.eye(4))
    return rs.DRFamily(a1, a2, INTERVAL)


@pytest.fixture(scope="session")
def mt3_family():
    """Three-operator family: two strongly monotone heads, monotone tail."""
    ops = rs.generate_problem("affine_strongly_monotone", 3, 5, 0.5, 2.0, n_operators=3)
    return rs.MTFamily(ops, theta=0.5, gamma_interval=INTERVAL)


@pytest.fixture(scope="session")
def geometric_schedule():
    return rs.StepsizeSchedule.geometric(1.0, 1.0, 0.5, INTERVAL)


@pytest.fixture(scope="session")
def run_with_columns():
    """A relocated run as an experiment holds it for ``verify_rate_theorem``: its
    ``dist_to_fix`` and ``err_to_limit`` filled in."""

    def run(family, schedule, x0, n_steps):
        trace = rs.compute_distances(family, rs.relocated_iterate(family, schedule, x0, n_steps))
        diagnostics.limit_errors(family, schedule.gamma_star, trace)
        return trace

    return run
