"""Seed small faults into a copy of this checkout and report which the gates catch.

Each entry of ``FAULTS`` is ``(file, old, new, why)``: ``old`` occurs exactly
once in ``src/eqkf/<file>``, and the fault replaces it with ``new``.  For each
fault in turn, ``src/``, ``tests/``, ``perfbench/`` and ``pyproject.toml`` are
copied into a temporary directory, removed afterwards, and the fault is
applied there alone.  On the copy the script runs tier-1 with ``-x`` and the
fast verification battery (``eqkf check``), and prints one line per fault:
``caught`` with the first failing test and the failing checks, or
``survived``.  The unfaulted copy runs first and must pass both.

A fault that no result can show (an equivalent mutant) is listed in
``EXPECTED_SURVIVORS`` with the reason.  The exit code is 1 when any other
fault survives or an expected survivor is caught, and 2 when a fault's
``old`` text is not found exactly once or the unfaulted copy fails.  A
surviving fault costs a full tier-1 run (about 30 s), so the whole list
takes several minutes.  BLAS runs on one thread::

    python3 tools/seeded_faults.py
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
           OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

FAULTS = [
    # The twelve measured when the gates were first counted, less those
    # folded into the per-guard faults below.
    ("kalman.py", "    return s, gain, 0.5 * (p + p.T)\n", "    return s, gain, p\n",
     "_joseph returns the Joseph covariance unsymmetrized"),
    ("kalman.py", "    p = f @ cov @ f.T + model.process_noise\n    return 0.5 * (p + p.T)\n",
     "    p = f @ cov @ f.T + model.process_noise\n    return p\n",
     "_predict_covariance returns F P F' + Q unsymmetrized"),
    ("constrained.py", "DEGENERATE_RESIDUAL_TOL = 1e-12\n", "DEGENERATE_RESIDUAL_TOL = 0.0\n",
     "a positive v' S^-1 v below 1e-12 no longer takes the degenerate path"),
    ("kalman.py", "    fused += solve(columns[:, n:] - saddle @ fused)\n", "",
     "_fusion_solve drops its step of iterative refinement"),
    ("constrained.py", '        e = self.matrix @ as_vector(x, "x") - self.rhs\n',
     '        e = self.matrix @ as_vector(x, "x")\n',
     "EqualityConstraint.residual_norm ignores b"),
    ("constrained.py", "    p = pi @ cov @ pi.T\n", "    p = pi @ cov\n",
     "_project_stage takes the one-sided (I - U A) P for the congruence"),
    ("kalman.py", "        if not np.isfinite(mean).all():\n", "        if False:\n",
     "_estimate lets a non-finite mean through"),
    ("constrained.py", "    return correction, -2.0 * (gram_inv @ target) / quad\n",
     "    return correction, 2.0 * (gram_inv @ target) / quad\n",
     "_gain_correction flips the sign of the Lagrange multipliers"),
    ("harness/run.py", "        if last and last[0] is state.covariance:\n", "        if last:\n",
     "advance_method reuses the latest stage for any input covariance"),
    # One per kernel stage.
    ("kalman.py", "    s = h @ cov @ h.T + r\n", "    s = h @ cov @ h.T + 0.5 * r\n",
     "_gain halves R in S = H P H' + R"),
    ("kalman.py", "    residual = z - mean @ h.T\n", "    residual = mean @ h.T - z\n",
     "_correct flips the sign of the innovation"),
    ("kalman.py", "    saddle[n:nm, n:nm] = model.measurement_noise\n",
     "    saddle[n:nm, n:nm] = 0.5 * model.measurement_noise\n",
     "_fusion_stage halves R in the saddle matrix"),
    ("constrained.py", "    return mean - (mean @ a.T - b) @ ups.T\n",
     "    return mean - (mean @ a.T + b) @ ups.T\n",
     "_along moves by A x + b, not A x - b"),
    ("constrained.py", "    stacked_noise[m:, m:] = 0.5 * (noise + noise.T)\n",
     "    stacked_noise[m:, m:] = 2.0 * noise\n",
     "_soft_stage doubles the constraint noise"),
    ("constrained.py",
     "    mean = mean + residual @ (gain - ups @ (a @ gain)).T + (b - mean @ a.T) @ ups.T\n",
     "    mean = mean + residual @ gain.T + (b - mean @ a.T) @ ups.T\n",
     "_augmented_mean drops the -U (A K) block of the stacked gain"),
    ("constrained.py", "    defect = b - plain @ a.T\n",
     "    defect = plain @ a.T - b\n",
     "_restricted_gain_mean flips the sign of the feasibility defect"),
    ("constrained.py", '    gain = gain + correction.reshape(gain.shape, order="F")\n',
     "    gain = gain + correction.reshape(gain.shape)\n",
     "restricted_gain_update unstacks the gain correction row by row"),
    # One or more per guard.
    ("kalman.py", "_EIG_RTOL = 1e-9\n", "_EIG_RTOL = 1e-3\n",
     "_check_covariance's eigenvalue allowance is 1e6 times looser"),
    ("kalman.py", "        if asym > _SYM_RTOL * scale + _ABS_FLOOR * max(1.0, scale):\n",
     "        if asym > 1e-3 * scale + _ABS_FLOOR * max(1.0, scale):\n",
     "_check_covariance's symmetry allowance is 1e6 times looser"),
    ("kalman.py", "    low = _min_eig(0.5 * (c + c.T) if asym else c)\n",
     "    low = _min_eig(0.5 * (c + c.T))\n",
     "_check_covariance symmetrizes an exactly symmetric c too"),
    ("matops.py", "    if rcond < 1.0 / CONDITION_LIMIT:\n", "    if rcond < 0.0:\n",
     "_saddle_solver drops its ?sycon condition guard"),
    ("constrained.py", "    if diag and (\n", "    if False and (\n",
     "_gram_factorization drops its condition guard"),
    ("constrained.py", "        if not np.isfinite(cond) or cond > matops.CONDITION_LIMIT:\n",
     "        if not np.isfinite(cond):\n",
     "ProjectionSpec drops its weight condition test"),
    ("constrained.py", '            value = as_vector(self.func(x), "constraint value")\n',
     "            value = np.asarray(self.func(x), dtype=float).reshape(-1)\n",
     "NonlinearConstraint._rows lets a non-finite constraint value through"),
    ("harness/run.py", "    if method.needs_constraint and config.constraint is None:\n",
     "    if False:\n",
     "_step drops its ValidationError for a constrained row without a constraint"),
    # One per branch of the report writer.
    ("harness/run.py", "            floats = math.isfinite(sum(value))\n",
     "            floats = True\n",
     "_json_text joins a float list with a non-finite entry as finite floats"),
    ("harness/run.py", "            for k, v in sorted(value.items())\n",
     "            for k, v in value.items()\n",
     "_json_text leaves a dict's keys unsorted"),
    ("harness/run.py",
     "    truth, truth_cells = None, []\n"
     "    for rec in sorted(report.records, key=lambda r: (r.step, r.method)):\n"
     "        if rec.truth is not truth:\n"
     "            truth, truth_cells = rec.truth, list(map(repr, rec.truth.tolist()))\n",
     "    by_method = {}\n"
     "    for rec in sorted(report.records, key=lambda r: (r.step, r.method)):\n"
     "        truth_cells = by_method.setdefault(rec.method, list(map(repr, rec.truth.tolist())))\n",
     "_record_cells keys the truth cells by method, not by step"),
]

# why -> the reason no result can show the fault.
EXPECTED_SURVIVORS = {
    "_check_covariance symmetrizes an exactly symmetric c too":
        "for an exactly symmetric c, 0.5 * (c + c') is c bit for bit (c + c' doubles "
        "each entry exactly, short of overflow past 8.9e307), so only the cost changes",
}


def _first_failure(output: str) -> str | None:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return None


def _gates(root: Path) -> tuple[str | None, str | None]:
    """The first failing tier-1 test and the failing checks on the tree at
    ``root``, each None when its gate passes."""
    env = dict(ENV, PYTHONPATH=str(root / "src"))
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", "tests"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    test = None
    if tests.returncode:
        test = _first_failure(tests.stdout) or f"pytest exit {tests.returncode}"
    check = subprocess.run(
        [sys.executable, "-m", "eqkf", "check"], cwd=root, env=env, capture_output=True, text=True
    )
    failed = None
    if check.returncode:
        names = [line.split()[1] for line in check.stdout.splitlines() if line.startswith("FAIL ")]
        failed = ", ".join(names) or f"exit {check.returncode}"
    return test, failed


def _copy(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, dest / name)


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    for file, old, _, why in FAULTS:
        count = (ROOT / "src" / "eqkf" / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            print(f"error: the text of '{why}' occurs {count} times in {file}", file=sys.stderr)
            return 2
    unexpected = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        test, check = _gates(clean)
        if test or check:
            print(f"error: the unfaulted copy fails: {test or ''} {check or ''}", file=sys.stderr)
            return 2
        for i, (file, old, new, why) in enumerate(FAULTS):
            root = Path(tmp) / f"fault{i}"
            _copy(root)
            path = root / "src" / "eqkf" / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            test, check = _gates(root)
            shutil.rmtree(root)
            expected = EXPECTED_SURVIVORS.get(why)
            if test or check:
                unexpected += expected is not None
                print(f"caught    {file}: {why}\n"
                      f"          tier-1: {test or 'passed'}; check: {check or 'passed'}"
                      + ("  (expected to survive)" if expected else ""), flush=True)
            else:
                unexpected += expected is None
                print(f"survived  {file}: {why}"
                      + (f"\n          expected: {expected}" if expected else ""), flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main())
