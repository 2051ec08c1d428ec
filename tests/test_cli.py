import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kamtorus import averaging as avg
from kamtorus import field as fld
from kamtorus import oracles as orc
from kamtorus import scheduler as sch
from kamtorus.cli import (MAX_GRID_POINTS, MAX_ORBIT_SAMPLES, MAX_RESIDUAL,
                          _RUN_KEYS, _oracle_samples, main)
from kamtorus.errors import KamError
from kamtorus.diophantine import (deserialize_frequency,
                                  serialize_frequency)
from kamtorus.generate import random_field

import reference as ref
from conftest import WORKLOADS


@pytest.fixture(scope="module")
def golden_file(tmp_path_factory, golden_freq):
    path = tmp_path_factory.mktemp("freq") / "golden.freq"
    path.write_text(serialize_frequency(golden_freq))
    return str(path)


@pytest.fixture(scope="module")
def pert_file(tmp_path_factory, golden_file):
    path = tmp_path_factory.mktemp("pert") / "p.field"
    assert main(["gen", "--n", "2", "--s", "1.0", "--eps", "1e-6",
                 "--modes", "5", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


def test_gen_deterministic(tmp_path):
    args = ["gen", "--n", "2", "--s", "1.0", "--eps", "1e-7",
            "--modes", "4", "--seed", "11"]
    a, b = tmp_path / "a.field", tmp_path / "b.field"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    F = fld.deserialize(a.read_text())
    assert F.n == 2
    assert fld.norm(F, 1.0) == pytest.approx(1e-7, rel=1e-9)


@pytest.mark.parametrize("args,msg", [
    (["--modes", "9", "--kmax", "1"], "modes must be in [1, 8]"),
    (["--modes", "2", "--kmax", "0"], "k_max >= 1"),
    (["--modes", "2", "--kmax", "-2"], "k_max >= 1"),
    (["--modes", "2", "--n", "0"], "n >= 1"),
    (["--modes", "2", "--eps", "inf"], "eps must be finite and > 0"),
    (["--modes", "2", "--s", "0"], "s must be finite and > 0"),
    (["--modes", "2", "--s", "inf"], "s must be finite and > 0"),
    (["--modes", "2", "--s", "nan"], "s must be finite and > 0"),
    (["--modes", "2", "--seed", "-1"], "seed must be >= 0"),
], ids=["modes-9-kmax-1", "kmax-0", "kmax-neg", "n-0", "eps-inf", "s-0",
        "s-inf", "s-nan", "seed-neg"])
def test_gen_bad_arguments_exit_2(monkeypatch, capsys, args, msg):
    # checked before drawing: with more modes than the box holds, or an
    # empty box, the draw never ends
    def no_draw(seed):
        raise AssertionError("drew a field before checking the arguments")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    base = {"--n": "2", "--s": "1", "--eps": "1e-6", "--seed": "0"}
    base.update(zip(args[::2], args[1::2]))
    assert main(["gen"] + [x for kv in base.items() for x in kv]) == 2
    out = capsys.readouterr()
    assert msg in out.err and not out.out


@pytest.mark.parametrize("s", ["30", "50", "1e300"])
def test_gen_vanishing_mode_exits_2(capsys, s):
    # a drawn mode whose damping exp(-2 pi s |k|_1) underflows is refused,
    # not silently dropped from the field
    assert main(["gen", "--n", "2", "--s", s, "--eps", "1e-6", "--seed", "0",
                 "--modes", "3"]) == 2
    out = capsys.readouterr()
    assert "vanished" in out.err and not out.out


@pytest.mark.parametrize("eps", ["5e-324", "1e-312", "1e-315"])
def test_gen_underflowing_eps_exits_2(capsys, eps):
    # scaled to a subnormal eps the field loses modes or misses eps: the
    # error names eps, not the width
    assert main(["gen", "--n", "2", "--s", "1", "--eps", eps, "--seed", "0",
                 "--modes", "3"]) == 2
    out = capsys.readouterr()
    assert f"eps={float(eps)} underflows" in out.err and not out.out
    assert "width" not in out.err and len(out.err) < 300


@pytest.mark.parametrize("s", ["0", "-1", "inf", "nan"])
def test_constants_bad_width_exits_2(capsys, s):
    assert main(["constants", "--n", "2", "--tau", "0.0", "--gamma", "0.382",
                 "--gammabar", "0.382", "--s", s]) == 2
    out = capsys.readouterr()
    assert "s must be finite and > 0" in out.err and not out.out


@pytest.mark.parametrize("args,msg", [
    (["--n", "2", "--tau", "1e3"], "b = 4^(n*a) overflows"),
    (["--n", "40", "--tau", "0"], "binding condition: threshold (lhs=inf)"),
    (["--n", "2", "--tau", "0", "--gammabar", "inf"],
     "gamma_bar must be finite and > 0"),
], ids=["tau-1e3", "n-40", "gammabar-inf"])
def test_constants_bad_parameters_exit_2(capsys, args, msg):
    base = {"--gamma": "0.38", "--gammabar": "0.38"}
    base.update(zip(args[::2], args[1::2]))
    t0 = time.perf_counter()
    assert main(["constants"] + [x for kv in base.items() for x in kv]) == 2
    assert time.perf_counter() - t0 < 5.0
    out = capsys.readouterr()
    assert msg in out.err and not out.out


@pytest.mark.parametrize("Q", ["0", "0.5", "nan", "inf"])
def test_step_bad_Q_exits_2(tmp_path, golden_file, pert_file, monkeypatch,
                            capsys, Q):
    def unreachable(*args):
        raise AssertionError("step conditions evaluated at a bad Q")

    monkeypatch.setattr(avg, "step_conditions", unreachable)
    out = tmp_path / "step"
    assert main(["step", "--freq", golden_file, "--pert", pert_file,
                 "--Q", Q, "--out", str(out)]) == 2
    assert "Q must be finite and >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_step_overflowing_Q_exits_2(tmp_path, golden_file, pert_file,
                                    capsys):
    # Q^n overflows the float range: condition 1 fails, no traceback
    out = tmp_path / "step"
    assert main(["step", "--freq", golden_file, "--pert", pert_file,
                 "--Q", "1e200", "--out", str(out)]) == 2
    assert "step conditions failed: threshold=inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["run", "step", "verify"])
def test_dimension_mismatch_exits_2(tmp_path, golden_file, pert_file, capsys,
                                    cmd):
    # a field on T^3 against the n=2 golden frequency
    p3 = tmp_path / "p3.field"
    p3.write_text(fld.serialize(random_field(3, 1.0, 1e-12, 4, 7, k_max=2)))
    beta = tmp_path / "beta.txt"
    beta.write_text("0\n0\n")
    out = tmp_path / "out"
    args = {"run": ["--pert", str(p3), "--s", "1"],
            "step": ["--pert", str(p3)],
            "verify": ["--pert", pert_file, "--phi", str(p3),
                       "--beta", str(beta)]}[cmd]
    assert main([cmd, "--freq", golden_file, "--out", str(out)] + args) == 2
    msg = "P" if cmd != "verify" else "u"
    assert f"{msg} is on T^3, alpha on T^2" in capsys.readouterr().err
    assert not out.exists()


def test_approx_golden(golden_file, capsys):
    assert main(["approx", "--freq", golden_file, "--Q", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["q"] == 5
    assert out["p"] == [3]
    assert out["upper_ok"] and out["lower_ok"]


def test_approx_overflowing_denominator_bound_exits_2(tmp_path, plastic_freq,
                                                      capsys):
    # (gamma_bar*Q)^((n-1)/a) overflows at n=3: the bound counts as infinite
    freq = tmp_path / "plastic.freq"
    freq.write_text(serialize_frequency(plastic_freq))
    t0 = time.perf_counter()
    assert main(["approx", "--freq", str(freq), "--Q", "1e300"]) == 2
    assert time.perf_counter() - t0 < 5.0
    out = capsys.readouterr()
    assert "below the denominator bound inf" in out.err and not out.out
    assert len(out.err) < 300


# Frequency files and the exact stdout of `kamtorus approx` on them: the
# W4 certificates (plastic at the two Q the plastic-n3 run asks for), golden
# read as its exact dyadic (q = 2^49), the cube-root pair and a rational
# input that takes the ascent from cap 1.  Floats are written as their
# repr, so the comparison is on bytes.
_PLASTIC = ("freq v1 n=3 tau=0.10000000000000001 gamma=0.1850373752486395 "
            "gammabar=0.43015970900194678\n0.75487766624669272\n"
            "0.56984029099805322\n")
_GOLDEN = ("freq v1 n=2 tau=0 gamma=0.3819660112501051 "
           "gammabar=0.3819660112501051\n0.6180339887498949\n")
_CUBE = ("freq v1 n=3 tau=0.10000000000000001 gamma=0.1150814258900788 "
         "gammabar=0.41259894803180064\n0.25992104989487319\n"
         "0.58740105196819936\n")
_RATIONAL = "freq v1 n=3 tau=0.1 gamma=0.5 gammabar=1e-06\n0.375\n-0.5\n"
PINNED_APPROX = [
    (_PLASTIC, "8192.0", {
        "q": 35676949, "p": [26931732, 20330163],
        "qQ_err": 0.6775105625811193, "err": 8.270392609632804e-05,
        "Q": 8192.0, "denominator_lower_bound": 816017.467948978}),
    (_PLASTIC, "43237.6352202062", {
        "q": 593775046, "p": [448227521, 338356945],
        "qQ_err": 0.9701759247916731, "err": 2.243822817438179e-05,
        "Q": 43237.6352202062,
        "denominator_lower_bound": 13056279.48718365}),
    (_GOLDEN, "1e15", {
        "q": 562949953421312, "p": [347922205179541], "qQ_err": 0.0,
        "err": 0.0, "Q": 1e15,
        "denominator_lower_bound": 381966011250105.1}),
    (_CUBE, "1e7", {
        "q": 7054562917496, "p": [1833629400065, 4143857678913],
        "qQ_err": 0.48127041907264356, "err": 4.8127041907264356e-08,
        "Q": 1e7, "denominator_lower_bound": 106140271434.74077}),
    (_RATIONAL, "1e5", {
        "q": 8, "p": [3, -4], "qQ_err": 0.0, "err": 0.0, "Q": 1e5,
        "denominator_lower_bound": 0.02154434690031883}),
]


@pytest.mark.parametrize("freq,Q,expected", PINNED_APPROX)
def test_approx_prints_the_pinned_bytes(tmp_path, capsys, freq, Q, expected):
    path = tmp_path / "alpha.freq"
    path.write_text(freq)
    assert main(["approx", "--freq", str(path), "--Q", Q]) == 0
    pinned = {**expected, "upper_ok": True, "lower_ok": True}
    assert capsys.readouterr().out == json.dumps(pinned, indent=2) + "\n"


_NUMPY_LOADED = ("[m for m in sys.modules if m.partition('.')[0] == "
                 "'numpy']")


def test_approx_and_package_import_load_no_numpy(tmp_path):
    # the exact lattice searches run without numpy; run still loads it
    freqs = []
    for name, text in (("plastic", _PLASTIC), ("golden", _GOLDEN)):
        freqs.append(tmp_path / f"{name}.freq")
        freqs[-1].write_text(text)
    code = f"""if True:
        import sys
        import kamtorus
        assert not {_NUMPY_LOADED}, "import kamtorus loaded numpy"
        from kamtorus import cli
        for freq in sys.argv[1:3]:
            assert cli.main(["approx", "--freq", freq, "--Q", "1e6"]) == 0
        assert not {_NUMPY_LOADED}, "kamtorus approx loaded numpy"
        for freq, Q in zip(sys.argv[1:3], ["60", "1e5"]):
            assert cli.main(["psi", "--freq", freq, "--Q", Q]) == 0
        assert not {_NUMPY_LOADED}, "kamtorus psi loaded numpy"
        out = sys.argv[3]
        assert cli.main(["gen", "--n", "2", "--s", "1.0", "--eps", "1e-6",
                         "--modes", "6", "--seed", "0", "--kmax", "4",
                         "--out", out + "/p.field"]) == 0
        assert cli.main(["run", "--freq", sys.argv[2], "--pert",
                         out + "/p.field", "--s", "1.0", "--out", out,
                         "--grid", "8", "--orbit-T", "20"]) == 0
        assert "numpy" in sys.modules
    """
    # a new interpreter, with this checkout's src on its path
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, freqs), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "phi.field").read_text().startswith("torusfield v1")


# what the package re-exports, by defining module
PACKAGE_EXPORTS = {
    "diophantine": ["FrequencyVector", "RationalApprox", "dirichlet_approx",
                    "estimate_constants", "lower_denominator_bound",
                    "psi_argmax"],
    "errors": ["KamError"],
    "field": ["FourierVectorField", "add", "bracket_norm_const",
              "constant_field", "deserialize", "eval_many", "lie_bracket",
              "lie_derivative", "lie_series", "make_field", "norm", "prune",
              "scale", "serialize", "sub", "zero_field"],
    "averaging": ["StepResult", "averaging_step", "solve_homological"],
    "generate": ["random_field"],
    "oracles": ["conjugacy_report", "orbit_shadowing_check"],
    "scheduler": ["KamConstants", "RunOptions", "RunResult", "Schedule",
                  "constants", "run", "select_Q"],
}


def test_package_exports_resolve_to_their_modules():
    import kamtorus
    names = {name: module for module, names in PACKAGE_EXPORTS.items()
             for name in names}
    assert sorted(kamtorus.__all__) == sorted(names)
    assert set(names) <= set(dir(kamtorus))
    star = {}
    exec("from kamtorus import *", star)
    for name, module in names.items():
        obj = getattr(importlib.import_module(f"kamtorus.{module}"), name)
        assert getattr(kamtorus, name) is obj
        assert star[name] is obj
    with pytest.raises(AttributeError, match="no_such_name"):
        kamtorus.no_such_name
    assert kamtorus.__version__ == "0.1.0"


def test_psi_golden(golden_file, capsys):
    assert main(["psi", "--freq", golden_file, "--Q", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["psi"] > 0
    assert len(out["argmax_k"]) == 2


def test_constants_output(capsys):
    assert main(["constants", "--n", "2", "--tau", "0.0",
                 "--gamma", "0.382", "--gammabar", "0.382"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["b"] == 16.0
    assert out["c"] == pytest.approx(1.0 / 15.0)
    assert out["d"] == pytest.approx(16.0 / 15.0)
    assert out["Q0"] > 0 and out["eps_star"] == pytest.approx(
        out["Q0"] ** -2.0)


def test_step_writes_artifacts(tmp_path, golden_file, pert_file,
                               golden_freq):
    assert main(["step", "--freq", golden_file, "--pert", pert_file,
                 "--out", str(tmp_path)]) == 0
    budget = json.loads((tmp_path / "budget.json").read_text())
    assert all(budget["conditions"]["ok"])
    pp = fld.deserialize((tmp_path / "p_plus.field").read_text())
    P = fld.deserialize(open(pert_file).read())
    assert fld.norm(pp, pp.width_s) <= fld.norm(P, 1.0) / 16.0
    # phi1.field is the displacement of the time-1 flow of the step's V
    consts = sch.constants(2, 0.0, golden_freq.gamma, golden_freq.gamma_bar)
    V = avg.averaging_step(golden_freq, fld.zero_field(2, 1.0), P,
                           budget["Q"], budget["sigma"], consts).V
    assert budget["norm_V"] == fld.norm(V, 1.0)
    u = fld.deserialize((tmp_path / "phi1.field").read_text())
    assert u.width_s == 1.0 - budget["sigma"]
    pts = np.random.default_rng(5).uniform(0.0, 1.0, size=(32, 2))
    np.testing.assert_allclose(pts + fld.eval_many(u, pts),
                               ref.ode_flow(V, pts, 1.0), rtol=0, atol=1e-13)


def test_step_constant_perturbation_writes_identity(tmp_path, golden_file):
    pert = tmp_path / "const.field"
    pert.write_text(fld.serialize(fld.constant_field([1e-7, -2e-7], 1.0)))
    assert main(["step", "--freq", golden_file, "--pert", str(pert),
                 "--out", str(tmp_path)]) == 0
    text = (tmp_path / "phi1.field").read_text()
    assert text.splitlines()[0] == "torusfield v1 n=2 s=1 kmax=0"
    u = fld.deserialize(text)
    assert u.coeffs == {} and u.width_s == 1.0


def test_run_and_verify_roundtrip(tmp_path, golden_file, pert_file):
    out = tmp_path / "run"
    assert main(["run", "--freq", golden_file, "--pert", pert_file,
                 "--s", "1.0", "--out", str(out),
                 "--grid", "16", "--orbit-T", "20"]) == 0
    for name in ("trace.json", "phi.field", "beta.txt", "residual.json"):
        assert (out / name).exists(), name
    res = json.loads((out / "residual.json").read_text())
    assert res["sup_residual"] <= 1e-10
    assert res["orbit_deviation"] <= 1e-7
    assert res["grid"] == 16
    beta = np.loadtxt(out / "beta.txt")
    assert beta.shape == (2,)
    trace = json.loads((out / "trace.json").read_text())
    assert trace["steps"][0]["m"] == 0

    vout = tmp_path / "verify"
    assert main(["verify", "--freq", golden_file, "--pert", pert_file,
                 "--phi", str(out / "phi.field"),
                 "--beta", str(out / "beta.txt"),
                 "--grid", "16", "--orbit-T", "20",
                 "--out", str(vout)]) == 0
    vres = json.loads((vout / "residual.json").read_text())
    assert vres["sup_residual"] <= 1e-9


@pytest.mark.parametrize("name", ["W1", "W4", "W6"])
def test_run_and_verify_write_the_same_residual(tmp_path, name, golden_freq,
                                                plastic_freq):
    # run and verify share one verification of the stored u, so verify
    # reproduces run's residual.json byte for byte
    n, s, eps, modes, seed, k_max = WORKLOADS[name]
    freq, pert = tmp_path / "alpha.freq", tmp_path / "p.field"
    freq.write_text(serialize_frequency(golden_freq if n == 2
                                        else plastic_freq))
    pert.write_text(fld.serialize(
        random_field(n, s, eps, modes, seed, k_max=k_max)))
    common = ["--freq", str(freq), "--pert", str(pert),
              "--grid", "32" if n == 2 else "8", "--orbit-T", "100"]
    run, vout = tmp_path / "run", tmp_path / "verify"
    assert main(["run", "--s", str(s), "--out", str(run)] + common) == 0
    assert main(["verify", "--phi", str(run / "phi.field"), "--beta",
                 str(run / "beta.txt"), "--out", str(vout)] + common) == 0
    assert ((vout / "residual.json").read_bytes()
            == (run / "residual.json").read_bytes())


def test_run_and_verify_defaults_write_the_same_residual(tmp_path,
                                                         golden_freq):
    # verify's default oracle flags are run's, orbit check included
    n, s, eps, modes, seed, k_max = WORKLOADS["W1"]
    freq, pert = tmp_path / "alpha.freq", tmp_path / "p.field"
    freq.write_text(serialize_frequency(golden_freq))
    pert.write_text(fld.serialize(
        random_field(n, s, eps, modes, seed, k_max=k_max)))
    common = ["--freq", str(freq), "--pert", str(pert)]
    run, vout = tmp_path / "run", tmp_path / "verify"
    assert main(["run", "--s", str(s), "--out", str(run)] + common) == 0
    assert main(["verify", "--phi", str(run / "phi.field"), "--beta",
                 str(run / "beta.txt"), "--out", str(vout)] + common) == 0
    res = json.loads((run / "residual.json").read_text())
    assert res["grid"] == 32 and res["orbit_deviation"] is not None
    assert ((vout / "residual.json").read_bytes()
            == (run / "residual.json").read_bytes())


def test_run_config_file_and_override(tmp_path, golden_file, pert_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"freq = {golden_file}\n"
        f"pert = {pert_file}\n"
        "s = 0.5\n"
        "grid = 8\n"
        "# a comment line\n"
        "orbit-T = 5\n")
    out = tmp_path / "out"
    # CLI flag overrides the config value for s
    assert main(["run", "--config", str(cfg), "--s", "1.0",
                 "--out", str(out)]) == 0
    res = json.loads((out / "residual.json").read_text())
    assert res["grid"] == 8
    assert res["sup_residual"] <= 1e-10


def test_run_config_file_and_flags_agree(tmp_path, golden_file, pert_file):
    # every run setting, once from a config file and once as flags
    settings = {"freq": golden_file, "pert": pert_file, "s": "0.5",
                "tol": "1e-22", "max-steps": "40", "force": "true",
                "grid": "8", "orbit-T": "5"}
    assert set(settings) | {"out"} == set(_RUN_KEYS)
    cfg, by_cfg, by_flags = (tmp_path / "run.cfg", tmp_path / "cfg",
                             tmp_path / "flags")
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in
                           {**settings, "out": by_cfg}.items()))
    assert main(["run", "--config", str(cfg)]) == 0
    flags = [arg for k, v in settings.items()
             for arg in ((f"--{k}",) if k == "force" else (f"--{k}", v))]
    assert main(["run", *flags, "--out", str(by_flags)]) == 0
    for name in ("trace.json", "beta.txt", "residual.json"):
        assert (by_cfg / name).read_bytes() == (by_flags / name).read_bytes()
    trace = json.loads((by_cfg / "trace.json").read_text())
    assert trace["s"] == 0.5
    assert json.loads((by_cfg / "residual.json").read_text())["grid"] == 8


def test_missing_file_exits_2(golden_file, capsys):
    assert main(["approx", "--freq", "/nonexistent.freq", "--Q", "10"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_field_file_exits_2(tmp_path, golden_file, capsys):
    bad = tmp_path / "bad.field"
    bad.write_text("not a field\n")
    assert main(["run", "--freq", golden_file, "--pert", str(bad),
                 "--s", "1.0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("drop", ["--freq", "--pert", "--s"])
def test_run_without_freq_pert_or_s_exits_2(golden_file, pert_file, capsys,
                                            drop):
    flags = {"--freq": golden_file, "--pert": pert_file, "--s": "1.0"}
    del flags[drop]
    assert main(["run", *(x for kv in flags.items() for x in kv)]) == 2
    assert "error: run requires --freq, --pert and --s" in \
        capsys.readouterr().err


def test_run_force_warns_in_one_line(tmp_path, golden_file, capsys):
    # W5: uncertified, so run proceeds only with --force and says so; the
    # line names no source file, and a second run in the process repeats it
    n, s, eps, modes, seed, k_max = WORKLOADS["W5"]
    pert = tmp_path / "w5.field"
    pert.write_text(fld.serialize(random_field(n, s, eps, modes, seed,
                                               k_max=k_max)))
    for _ in range(2):
        assert main(["run", "--freq", golden_file, "--pert", str(pert),
                     "--s", "1", "--out", str(tmp_path), "--force",
                     "--grid", "16", "--orbit-T", "0"]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "warning: norm(P, s) = 0.01 exceeds the certified threshold "
            "eps_star = 3.8147e-06 (Q0 = 512); proceeding without "
            "certification"]
        assert ".py:" not in err


def test_threshold_failure_exit_code(tmp_path, golden_file, capsys):
    big = tmp_path / "big.field"
    assert main(["gen", "--n", "2", "--s", "1.0", "--eps", "1e-2",
                 "--modes", "4", "--seed", "1", "--out", str(big)]) == 0
    assert main(["run", "--freq", golden_file, "--pert", str(big),
                 "--s", "1.0", "--out", str(tmp_path / "o")]) == 2


def test_non_finite_field_exits_2(tmp_path, golden_file, capsys):
    bad = tmp_path / "nan.field"
    bad.write_text("torusfield v1 n=2 s=1 kmax=1\n1 0 nan 0 0 0\n")
    assert main(["run", "--freq", golden_file, "--pert", str(bad),
                 "--s", "1.0", "--out", str(tmp_path / "o"),
                 "--orbit-T", "10"]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_finite_frequency_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.freq"
    bad.write_text("freq v1 n=2 tau=0 gamma=0.5 gammabar=0.5\nnan\n")
    assert main(["approx", "--freq", str(bad), "--Q", "10"]) == 2
    assert main(["constants", "--n", "2", "--tau", "nan",
                 "--gamma", "0.5", "--gammabar", "0.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_frequency_entry_exits_2_with_line(tmp_path, capsys):
    # blank lines count: the bad entry is the file's fourth line
    bad = tmp_path / "bad.freq"
    bad.write_text("freq v1 n=3 tau=0.1 gamma=0.5 gammabar=0.5\n\n0.25\nabc\n")
    assert main(["approx", "--freq", str(bad), "--Q", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: line 4: ")


def test_verify_residual_breach_exits_1(tmp_path, golden_file, capsys):
    # Phi = Id and beta = 0 leave a constant perturbation unconjugated
    pert, phi, beta = (tmp_path / name for name in
                       ("c.field", "phi.field", "beta.txt"))
    pert.write_text(fld.serialize(fld.constant_field([1e-4, 0.0], 1.0)))
    phi.write_text(fld.serialize(fld.zero_field(2, 1.0)))
    beta.write_text("0\n0\n")
    assert main(["verify", "--freq", golden_file, "--pert", str(pert),
                 "--phi", str(phi), "--beta", str(beta), "--grid", "4",
                 "--out", str(tmp_path)]) == 1
    res = json.loads((tmp_path / "residual.json").read_text())
    assert res["sup_residual"] == pytest.approx(1e-4)
    assert "sup_residual" in capsys.readouterr().err


def test_bad_config_value_exits_2_with_line(tmp_path, golden_file, pert_file,
                                            capsys):
    cfg = tmp_path / "run.cfg"
    # a misspelt boolean is refused, not read as false
    for bad in ("grid = abc", "force = flase"):
        cfg.write_text(f"freq = {golden_file}\npert = {pert_file}\n"
                       f"s = 1.0\n{bad}\n")
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 2
        assert "line 4" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value", [("s", "nan"), ("s", "inf"),
                                       ("tol", "nan"), ("orbit-T", "nan"),
                                       ("orbit-T", "inf")])
def test_non_finite_run_options_exit_2(tmp_path, golden_file, pert_file,
                                       capsys, key, value):
    base = {"freq": golden_file, "pert": pert_file, "s": "1.0",
            "grid": "4", "orbit-T": "0"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n"
                           for k, v in {**base, key: value}.items()))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    flags = [arg for k, v in {**base, key: value}.items()
             for arg in (f"--{k}", v)]
    assert main(["run", *flags, "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value,msg", [("tol", "-1", "tol must be >= 0"),
                                           ("max-steps", "0",
                                            "max_steps must be >= 1"),
                                           ("max-steps", "-3",
                                            "max_steps must be >= 1"),
                                           ("orbit-T", "-1",
                                            "orbit-T must be >= 0")])
def test_negative_tol_or_no_steps_exits_2(tmp_path, golden_file, pert_file,
                                          capsys, key, value, msg):
    base = {"freq": golden_file, "pert": pert_file, "s": "1.0",
            "grid": "4", "orbit-T": "0", key: value}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    flags = [arg for k, v in base.items() for arg in (f"--{k}", v)]
    assert main(["run", *flags, "--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


def test_verify_non_finite_orbit_time_exits_2(tmp_path, golden_file,
                                              pert_file, capsys):
    assert main(["verify", "--freq", golden_file, "--pert", pert_file,
                 "--phi", pert_file, "--beta", pert_file,
                 "--orbit-T", "nan"]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("how,grid", [("verify", "0"), ("verify", "-3"),
                                      ("run-flag", "0"), ("run-config", "0")])
def test_grid_below_one_exits_2(tmp_path, golden_file, pert_file, capsys,
                                how, grid):
    out = tmp_path / "o"
    if how == "verify":
        beta = tmp_path / "beta.txt"
        beta.write_text("0\n0\n")
        argv = ["verify", "--freq", golden_file, "--pert", pert_file,
                "--phi", pert_file, "--beta", str(beta), "--grid", grid]
    elif how == "run-flag":
        argv = ["run", "--freq", golden_file, "--pert", pert_file,
                "--s", "1.0", "--grid", grid]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"freq = {golden_file}\npert = {pert_file}\n"
                       f"s = 1.0\ngrid = {grid}\n")
        argv = ["run", "--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 2
    assert "grid must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,line", [("0\nx\n", 2), ("inf\n0\n", 1),
                                       ("0\n", 1), ("0\n0\n0\n", 3)])
def test_bad_beta_file_exits_2(tmp_path, golden_file, pert_file, capsys,
                               text, line):
    beta = tmp_path / "beta.txt"
    beta.write_text(text)
    assert main(["verify", "--freq", golden_file, "--pert", pert_file,
                 "--phi", pert_file, "--beta", str(beta),
                 "--out", str(tmp_path)]) == 2
    assert f"line {line}:" in capsys.readouterr().err
    assert not (tmp_path / "residual.json").exists()


def test_psi_golden_at_1e5_prints_a_fibonacci_pair(golden_file, capsys):
    # beyond the (2Q + 1)^2 = 4e10 points a box scan would enumerate
    assert main(["psi", "--freq", golden_file, "--Q", "1e5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["argmax_k"] == [-46368, 75025]


@pytest.mark.parametrize("Q", ["1e300", "1e308"])
def test_psi_exits_2_at_the_dyadic_resonance(golden_file, capsys, Q):
    # the float golden is 347922205179541 / 2^49 exactly
    assert main(["psi", "--freq", golden_file, "--Q", Q]) == 2
    out = capsys.readouterr()
    assert "k=(-347922205179541, 562949953421312)" in out.err
    assert not out.out and len(out.err) < 300


def test_psi_overflow_exits_2(tmp_path, capsys):
    # 1/|k.alpha| at k = (0, 1) is 1/5e-324, beyond the float range: no
    # "psi": Infinity in the JSON
    freq = tmp_path / "tiny.freq"
    freq.write_text("freq v1 n=2 tau=0 gamma=0.5 gammabar=0.5\n5e-324\n")
    assert main(["psi", "--freq", str(freq), "--Q", "1"]) == 2
    out = capsys.readouterr()
    assert "overflows the float range" in out.err and not out.out


_CONFIG_LINES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=30),
    st.builds("{} = {}".format,
              st.sampled_from(["s", "tol", "grid", "max-steps", "force",
                               "orbit-T", "freq", "bogus"]),
              st.sampled_from(["1", "1.5", "-2", "nan", "abc", "", "1e999",
                               "true", "9" * 5000])))


@settings(deadline=None, max_examples=200)
@given(st.lists(_CONFIG_LINES, max_size=6))
def test_read_config_fuzz_raises_only_kam_errors(tmp_path_factory, lines):
    from kamtorus.cli import _read_config
    cfg = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    cfg.write_text("\n".join(lines), encoding="utf-8")
    try:
        _read_config(str(cfg))
    except KamError:
        pass


def test_oracle_budgets_at_the_boundary():
    assert MAX_GRID_POINTS == 1024 ** 2 and MAX_ORBIT_SAMPLES == 2 ** 16
    assert _oracle_samples(1024, 65536.9, 2) == 65536
    assert _oracle_samples(101, 0.0, 3) == 16
    with pytest.raises(KamError, match="budget"):
        _oracle_samples(1025, 0.0, 2)
    with pytest.raises(KamError, match="budget"):
        _oracle_samples(8, 65537.0, 2)


@pytest.mark.parametrize("how", ["verify", "run"])
@pytest.mark.parametrize("grid,orbit_t,msg", [
    pytest.param("200000", "0", "budget", id="200000-0"),
    pytest.param("8", "1e13", "budget", id="8-1e13"),
    # a negative time is refused, not read as "skip the orbit check"
    pytest.param("8", "-1", "orbit-T must be >= 0", id="8--1"),
    pytest.param("8", "-5", "orbit-T must be >= 0", id="8--5")])
def test_oracle_work_above_budget_exits_2(tmp_path, golden_file, pert_file,
                                          capsys, monkeypatch, how, grid,
                                          orbit_t, msg):
    def no_solve(*args):
        raise AssertionError("solved before checking the oracle budgets")

    monkeypatch.setattr(sch, "run", no_solve)
    out = tmp_path / "o"
    if how == "verify":
        beta = tmp_path / "beta.txt"
        beta.write_text("0\n0\n")
        argv = ["verify", "--phi", pert_file, "--beta", str(beta)]
    else:
        argv = ["run", "--s", "1.0"]
    assert main(argv + ["--freq", golden_file, "--pert", pert_file,
                        "--grid", grid, "--orbit-T", orbit_t,
                        "--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def w6_run(tmp_path_factory, golden_file):
    """ROADMAP W6, the oracle-visible control, run at s = 0.1."""
    out = tmp_path_factory.mktemp("w6")
    pert = out / "p.field"
    assert main(["gen", "--n", "2", "--s", "0.1", "--eps", "2.98e-8",
                 "--modes", "6", "--seed", "0", "--kmax", "4",
                 "--out", str(pert)]) == 0
    assert main(["run", "--freq", golden_file, "--pert", str(pert),
                 "--s", "0.1", "--grid", "32", "--orbit-T", "20",
                 "--out", str(out / "run")]) == 0
    return pert, out / "run"


def _verify_w6(golden_file, pert, phi, beta, out):
    code = main(["verify", "--freq", golden_file, "--pert", str(pert),
                 "--phi", str(phi), "--beta", str(beta), "--grid", "32",
                 "--out", str(out)])
    return code, json.loads((out / "residual.json").read_text())


def test_verify_sees_w6_phi_through_the_view(tmp_path, golden_file, w6_run,
                                             monkeypatch):
    pert, run = w6_run
    u = fld.deserialize((run / "phi.field").read_text())
    # run prunes u at its own width, so the view keeps all of W6's phi; a
    # phi.field from elsewhere may hold modes below the roundoff of u on
    # the real torus, as W6's displacement does with no sum pruned
    assert len(orc.real_torus_view(u).modes) == len(u.modes)
    res = sch.run(deserialize_frequency(Path(golden_file).read_text()),
                  fld.deserialize(pert.read_text()), 0.1)
    assert fld.serialize(res.u) == (run / "phi.field").read_text()
    dusty = ref.displacement(2, res.flows, prune_result=False)
    assert len(orc.real_torus_view(dusty).modes) < len(dusty.modes)
    (tmp_path / "dusty.field").write_text(fld.serialize(dusty))
    phis = (run / "phi.field", tmp_path / "dusty.field")
    seen = [_verify_w6(golden_file, pert, phi, run / "beta.txt",
                       tmp_path / f"view{i}") for i, phi in enumerate(phis)]
    assert all(code == 0 for code, _ in seen)
    # the same verifications with Phi = Id + u over all of u's modes
    monkeypatch.setattr(orc, "real_torus_view", lambda field: field)
    assert [_verify_w6(golden_file, pert, phi, run / "beta.txt",
                       tmp_path / f"full{i}")
            for i, phi in enumerate(phis)] == seen


def test_verify_rejects_identity_phi_on_w6(tmp_path, golden_file, w6_run,
                                           capsys):
    pert, run = w6_run
    ident = tmp_path / "id.field"
    ident.write_text("torusfield v1 n=2 s=1 kmax=0\n")
    code, res = _verify_w6(golden_file, pert, ident, run / "beta.txt",
                           tmp_path)
    assert code == 1
    assert res["sup_residual"] == pytest.approx(1.36e-9, rel=0.01)
    assert "sup_residual" in capsys.readouterr().err


def test_run_reports_the_null_control_on_w6(w6_run):
    _, run = w6_run
    res = json.loads((run / "residual.json").read_text())
    assert set(res) == {"sup_residual", "grid", "jacobian_min_det",
                        "orbit_deviation", "null_residual", "null_orbit"}
    assert res["null_residual"] > MAX_RESIDUAL
    assert res["null_residual"] > 100 * res["sup_residual"]
    assert res["null_orbit"] > 1e4 * res["orbit_deviation"]


def test_verify_prints_null_ratios(tmp_path, golden_file, w6_run, capsys):
    pert, run = w6_run
    assert main(["verify", "--freq", golden_file, "--pert", str(pert),
                 "--phi", str(run / "phi.field"), "--beta",
                 str(run / "beta.txt"), "--grid", "32", "--orbit-T", "0",
                 "--out", str(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    res = json.loads((tmp_path / "residual.json").read_text())
    assert res["null_orbit"] is None and out["null_orbit_ratio"] is None
    assert out["null_residual_ratio"] == pytest.approx(
        res["null_residual"] / res["sup_residual"])
    assert out["null_residual_ratio"] > 100


def test_verify_large_field_exits_2_within_seconds(tmp_path, golden_file,
                                                    capsys):
    # an O(1) coefficient exhausts the orbit check's Picard sweep budget
    pert, phi, beta = (tmp_path / name for name in
                       ("big.field", "phi.field", "beta.txt"))
    pert.write_text(fld.serialize(fld.make_field(2, 1.0,
                                                 {(1, 0): [1.0, 0.5]})))
    phi.write_text(fld.serialize(fld.zero_field(2, 1.0)))
    beta.write_text("0\n0\n")
    t0 = time.perf_counter()
    assert main(["verify", "--freq", golden_file, "--pert", str(pert),
                 "--phi", str(phi), "--beta", str(beta), "--grid", "8",
                 "--orbit-T", "100", "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - t0 < 30.0
    assert "sup|DP|" in capsys.readouterr().err
