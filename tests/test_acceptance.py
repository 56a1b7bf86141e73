"""Full-scale verification battery.

Each test exercises one headline claim at its stated tolerance and
instance count and prints a single PASS/FAIL line (visible with
``pytest -s``).  The same battery backs ``eqkf check --full``.
"""

import json
import subprocess
import sys

from eqkf.harness import bundled_scenario_text
from eqkf.harness.checks import (
    check_block_inverse,
    check_equivalence,
    check_feasibility,
    check_fusion_identity,
    check_identities,
    check_lagrange,
    check_monte_carlo,
    check_nonlinear_tracking,
    check_posterior_chains,
    check_shrinkage,
    check_soft_limits,
    check_stability,
)


def _report(result):
    print(result.line())
    assert result.passed, result.line()


def test_constrained_methods_agree_four_ways():
    """Augmentation, fusion, and inverse-posterior projection produce one
    posterior; the restricted gain reproduces the identity-weight
    projection."""
    result = check_equivalence(instances=1000, mean_tol=1e-7, cov_tol=1e-6,
                               pair_tol=1e-8)
    _report(result)
    assert result.elapsed <= 60.0, f"equivalence sweep took {result.elapsed:.1f}s"


def test_hard_constraints_are_satisfied():
    _report(check_feasibility(instances=1000, mean_tol=1e-9, null_tol=1e-8))


def test_constraining_shrinks_the_covariance():
    _report(check_shrinkage(instances=1000, tol=1e-9))


def test_matrix_identity_suites():
    """Kronecker/vec/trace identities on ``np.kron`` and a column-stacking
    reshape, both posterior identity chains, the stacked residual
    covariance's block inverse against a dense inverse, and the closed-form
    gain correction against a dense solve."""
    _report(check_identities(instances=1000, tol=1e-9))
    _report(check_posterior_chains(instances=1000, tol=1e-9))
    _report(check_block_inverse(instances=1000, tol=1e-9))
    _report(check_lagrange(instances=1000, tol=1e-9))


def test_long_run_covariance_stability():
    """Ten thousand steps from a condition-1e6 start stay symmetric and
    PSD with the shipped forms; the naive recursion is reported alongside
    as the negative control."""
    _report(check_stability(steps=10_000, asym_tol=1e-12, eig_tol=1e-9))


def test_soft_constraint_limits_and_monotonicity():
    _report(check_soft_limits(instances=400, zero_tol=1e-8, big_tol=1e-3))


def test_nonlinear_circle_tracking():
    _report(check_nonlinear_tracking(min_fraction=0.95))


def test_fusion_update_matches_joseph_update():
    _report(check_fusion_identity(instances=1000, tol=1e-8))


def test_monte_carlo_covariance_consistency():
    result = check_monte_carlo(trials=100_000, dev_tol=0.05, row_tol=1e-2)
    _report(result)
    assert result.elapsed <= 300.0, f"Monte-Carlo sweep took {result.elapsed:.1f}s"


def test_cli_reports_are_deterministic(tmp_path):
    """Two CLI runs of the same scenario and seed write byte-identical
    reports."""
    scenario = tmp_path / "line_2d.json"
    scenario.write_text(bundled_scenario_text("line_2d"), encoding="utf-8")
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "eqkf", "run", str(scenario), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    line = (
        f"{'PASS' if identical else 'FAIL'} cli_determinism: "
        f"two runs, {len(outputs[0])} bytes each, "
        f"{'identical' if identical else 'different'}"
    )
    print(line)
    assert identical, line
    # sanity: the report actually contains every method's rows
    rows = outputs[0].decode("utf-8").splitlines()
    config = json.loads(bundled_scenario_text("line_2d"))
    assert len(rows) == 1 + config["steps"] * len(config["methods"])
