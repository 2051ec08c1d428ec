#!/usr/bin/env python3
"""Mutation check: every mutant below must fail at least one test.

Each mutant is a (file, old, new, test) tuple: one exact text
replacement in a file under src/kamtorus, which must occur there exactly
once, and the test known to kill it.  For each one, src, tests and
pyproject.toml are copied to a temporary directory and the mutant is
applied there; the checkout is never written to.  The named test runs
first; only if it passes do all of TESTS run on the copy.  A mutant that
every test passes survives.

Known survivors, left out until a test can see them: dropping the
counter-term shift S from A and halving B in averaging_step (both are
second order, below what any value check resolves; see ROADMAP item 1).

Usage: python3 scripts/mutants.py   (exit 1 names each survivor)
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TESTS = ["tests/test_averaging.py", "tests/test_scheduler.py",
         "tests/test_diophantine.py", "tests/test_embedding.py",
         "tests/test_field.py", "tests/test_cli.py"]

DIO = "tests/test_diophantine.py::"
AVG = "tests/test_averaging.py::"
SCH = "tests/test_scheduler.py::"
FLD = "tests/test_field.py::"
EMB = "tests/test_embedding.py::"

MUTANTS = [
    # the certified bounds the solver enforces
    ("averaging.py", "if enforce and pp_norm > eps / consts.b:",
     "if False and pp_norm > eps / consts.b:",
     AVG + "test_step_raises_when_p_plus_exceeds_eps_over_b"),
    ("scheduler.py", "if enforce and np.abs(beta).max() >",
     "if False and np.abs(beta).max() >",
     SCH + "test_run_raises_when_beta_exceeds_d_eps"),
    ("scheduler.py", "if not settled and passes == _BETA_PASS_LIMIT:",
     "if False:", SCH + "test_run_raises_when_beta_does_not_settle"),
    # the pass after the defect settles is the certified one
    ("scheduler.py", "opts.max_steps, enforce=enforce)",
     "opts.max_steps, enforce=False)",
     SCH + "test_run_raises_when_beta_exceeds_d_eps"),
    # a box keeps only points of key norm <= c (|k|_inf, and psi's |k_0|)
    ("diophantine.py", "if p[0][0] <= c and (best is None or p < best):",
     "if best is None or p < best:",
     DIO + "test_constants_and_psi_match_brute_force"),
    # kamtorus approx and psi run without numpy
    ("diophantine.py", "from fractions import Fraction\n",
     "from fractions import Fraction\nimport numpy as np\n",
     "tests/test_cli.py::test_approx_and_package_import_load_no_numpy"),
    # a warm search rescales the stored U X to its own (delta, c), and
    # stores U X with that cap divided out
    ("diophantine.py",
     "[[lead * y for y in row[:r]] + [s * y for y in row[r:]]",
     "[list(row)", DIO + "test_warm_start_matches_a_cold_search"),
    ("diophantine.py",
     "[y // lead for y in row[:r]] + [y // s for y in row[r:]]",
     "[y // lead for y in row[:r]] + row[r:]",
     DIO + "test_warm_start_matches_a_cold_search"),
    # the linear form's lattice takes a as a column, and psi's norm
    # counts k_0
    ("diophantine.py", "A = [a] if r == 1 else [[y] for y in a]", "A = [a]",
     DIO + "test_constants_and_psi_match_brute_force"),
    ("diophantine.py",
     "return max(abs(_dot(k, a) - t[0]) // D, *map(abs, k)), abs(t[0])",
     "return max(map(abs, k)), abs(t[0])",
     DIO + "test_constants_and_psi_match_brute_force"),
    # the step and the displacement
    ("averaging.py", "head = _rows(P, (d == 0) & live)",
     "head = fld.scale(_rows(P, (d == 0) & live), -1.0)",
     AVG + "test_step_equivalence_with_direct_pullback"),
    # A's mode 0 carries X_varpi = X_alpha - X_omega
    ("averaging.py", "const = 0.0 + np.asarray(approx.varpi) + (",
     "const = 0.0 + 0.0 * np.asarray(approx.varpi) + (",
     AVG + "test_step_equivalence_with_direct_pullback"),
    ("field.py", "term = stack[:, 0] + stack[:, 1] * (1.0 / (m + 1))",
     "term = stack[:, 0] + stack[:, 1] * (1.0 / (m + 2))",
     EMB + "test_spectral_phi_matches_composed_flows"),
    # the series prunes each member by its own rows, not by a shared mask
    ("field.py", "contrib = (np.abs(coef).max(axis=2)",
     "contrib = (np.abs(coef).max(axis=(1, 2))[:, None]",
     AVG + "test_pullback_two_norm_bound"),
    ("embedding.py", "u, V, s, s - w,", "fld.zero_field(n, s), V, s, s - w,",
     EMB + "test_spectral_phi_matches_composed_flows"),
    # every Lie series prunes its sum, and ends at a term of SERIES_TOL_REL
    # times ref: its remainder bound is tested against that times rho/(1-rho)
    ("field.py", "out, lost = prune(_field(n, w, modes, coef), w, floor)",
     "out, lost = _field(n, w, modes, coef), 0.0",
     SCH + "test_run_pinned_answers[W1]"),
    ("field.py", "tol = SERIES_TOL_REL * ref * rho / (1.0 - rho)",
     "tol = SERIES_TOL_REL * ref",
     FLD + "test_stacked_lie_series_matches_the_per_field_loop"),
    ("scheduler.py", "S = fld.constant_field((x_m - p_avg) - a,",
     "S = fld.constant_field((x_m + p_avg) - a,",
     AVG + "test_counter_term_translation"),
]


def _pytest(work: Path, name: str, *args: str) -> bool:
    """True when pytest fails a test on the mutated copy in work."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *args], cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):   # not a test verdict: show why
        sys.exit(f"{name}: pytest exited {proc.returncode}\n{proc.stdout}"
                 f"{proc.stderr}")
    return proc.returncode == 1


def killed(work: Path, name: str, old: str, new: str, test: str) -> bool:
    """Apply one mutant to a fresh copy in work and run its test, then, if
    that passes, all of TESTS."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", work)
    path = work / "src" / "kamtorus" / name
    text = path.read_text()
    if text.count(old) != 1:
        sys.exit(f"{name}: {old!r} occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new))
    return _pytest(work, name, test) or _pytest(work, name, *TESTS)


def main():
    survivors = []
    for name, old, new, test in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            dead = killed(Path(tmp), name, old, new, test)
        print(f"{'killed' if dead else 'SURVIVED'}: {name}: {new!r}",
              flush=True)
        if not dead:
            survivors.append(f"{name}: {new!r}")
    if survivors:
        sys.exit("no test kills:\n  " + "\n  ".join(survivors))
    print(f"all {len(MUTANTS)} mutants killed")


if __name__ == "__main__":
    main()
