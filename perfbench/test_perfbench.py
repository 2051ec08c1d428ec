"""Self-tests of the benchmark: its checks reject wrong answers, and the
traced run sees every layer on the workload meant to load it.

    python3 -m pytest perfbench

The traced-run test starts each workload once (about a minute in all).
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = [Fraction((math.sqrt(5.0) - 1.0) / 2.0)]


def test_residual_with_nan_is_rejected():
    text = '{"sup_residual": NaN, "orbit_deviation": 1e-12, "grid": 32}'
    assert checks.check_residual(text)
    with pytest.raises(checks.CheckError):
        checks.strict_json('{"x": Infinity}')


def test_residual_above_threshold_is_rejected():
    ok = '{"sup_residual": 1.5e-12, "orbit_deviation": 8e-12}'
    assert checks.check_residual(ok) == []
    assert checks.check_residual(
        '{"sup_residual": 2e-10, "orbit_deviation": 8e-12}')
    assert checks.check_residual(
        '{"sup_residual": 1.5e-12, "orbit_deviation": 2e-7}')
    assert checks.check_residual('{"sup_residual": 1.5e-12}')


def test_certificate_with_q_off_by_one_is_rejected():
    # smallest Dirichlet denominator of the golden mean at Q = 512
    assert checks.check_certificate(GOLDEN, 233, [144], 512.0) == []
    assert checks.check_certificate(GOLDEN, 234, [144], 512.0)
    assert checks.check_certificate(GOLDEN, 232, [143], 512.0)
    assert checks.check_certificate(GOLDEN, 233, [144.0], 512.0)
    # q above Q^(n-1) is refused even when the bound holds
    assert checks.check_certificate(GOLDEN, 987, [610], 512.0)


def test_reference_and_linearity_checks():
    ref = {"q": [233, 987], "steps": 2, "passes": 3, "beta": [1e-7, 2e-7]}
    assert checks.check_reference([233, 987], 2, 3, [1e-7, 2e-7], ref) == []
    assert checks.check_reference([233, 988], 2, 3, [1e-7, 2e-7], ref)
    assert checks.check_reference([233, 987], 2, 3, [1e-7, 2.01e-7], ref)
    linear = [(1e-8, [1e-10, 2e-10]), (1e-6, [1e-8, 2e-8])]
    assert checks.check_beta_linear(linear) == []
    assert checks.check_beta_linear(linear + [(1e-7, [2e-9, 2e-9])])


def test_tracer_wraps_every_binding():
    code = (
        "import tracer\n"
        "tracer.Tracer().install()\n"
        "import kamtorus, kamtorus.averaging as a, kamtorus.cli as c\n"
        "import kamtorus.scheduler as s, kamtorus.diophantine as d\n"
        "fns = [d.dirichlet_approx, a.dirichlet_approx, c.dirichlet_approx,\n"
        "       kamtorus.dirichlet_approx, s.fit_displacement,\n"
        "       a.lie_pullback, c.main]\n"
        "assert all(hasattr(f, '__wrapped__') for f in fns)\n")
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{BENCH}")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# per-layer metrics that must be nonzero on the workload loading them
LOADED_ON = {
    "sweep-approx": ["diophantine.dirichlet_approx.calls",
                     "diophantine.dirichlet_approx.self_s",
                     "diophantine.dirichlet_approx.max_q",
                     "diophantine.dirichlet_approx.distinct_ratio",
                     "field.lie_bracket.calls", "field.lie_bracket.self_s",
                     "field.lie_bracket.pairs",
                     "averaging.averaging_step.calls",
                     "averaging.averaging_step.self_s",
                     "averaging.averaging_step.brackets",
                     "averaging.solve_homological.calls",
                     "averaging.solve_homological.self_s",
                     "scheduler.run.wall_s", "scheduler.run.steps",
                     "scheduler.run.passes"],
    "plastic-n3": ["scheduler.materialize.wall_s",
                   "embedding.flow_points.materialize.calls",
                   "embedding.flow_points.materialize.points",
                   "embedding.flow_points.materialize.self_s",
                   "embedding.flow_points.conjugacy_report.calls",
                   "embedding.flow_points.conjugacy_report.points",
                   "embedding.flow_points.conjugacy_report.self_s",
                   "field.eval_many.calls", "field.eval_many.self_s",
                   "field.eval_many.point_modes", "field.eval_many.phase_mb",
                   "oracles.conjugacy_report.wall_s",
                   "oracles.conjugacy_report.self_s",
                   "oracles.orbit_shadowing_check.wall_s",
                   "oracles.orbit_shadowing_check.self_s",
                   "field.serialize.self_s", "field.deserialize.self_s",
                   "cli.output_bytes"],
}


@pytest.mark.parametrize("workload", sorted(LOADED_ON))
def test_traced_run_sees_each_layer(workload):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stderr
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    zero = [name for name in LOADED_ON[workload] if not metrics[name] > 0]
    assert zero == []
    assert all(metrics[f"{layer}.failed"] == 0 for layer in
               ("diophantine", "field", "averaging", "scheduler",
                "embedding", "oracles", "cli"))
