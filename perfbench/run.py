#!/usr/bin/env python3
"""kamtorus benchmark: verified runs of the checked-out source, measured
from outside, one sample at a time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout that holds `src/kamtorus`.  Each sample
is a fresh interpreter with that `src` first on `PYTHONPATH`, so nothing
installed elsewhere is measured and `diophantine`'s in-process cache
starts cold every time.  Every answer is checked (see checks.py) before
its time counts.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced sample with `--trace 1`.
Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
MIN_SAMPLES = 2
DEADLINE_S = 170.0         # every process is killed past this point
WORKLOADS = ("plastic-n3", "sweep-approx")

START = time.perf_counter()


class Failure(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


def _env() -> dict:
    # One BLAS thread: on a 2-CPU machine the second thread bought no speed
    # on any workload and doubled the run-to-run spread.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run argv to completion with stdout in log; returns exit code, wall
    seconds and the peak RSS in MB of that process alone (os.wait4)."""
    if time.perf_counter() - START > DEADLINE_S:
        raise Failure(f"no time left to start {argv[2:4]}")
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=out,
                                stderr=err)
        timer = threading.Timer(max(1.0, DEADLINE_S - (t0 - START)),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Op:
    """One operation the benchmark attempted, with what its checks found."""

    def __init__(self, name: str, problems: list[str]):
        self.name, self.problems = name, problems


class Sample:
    def __init__(self, wall: float, rss_mb: float):
        self.wall, self.rss_mb = wall, rss_mb
        self.ops: list[Op] = []
        self.solve_s: list[float] = []   # one entry per solve
        self.approx_s = 0.0
        self.k = 0                       # order in the run
        self.out: Path | None = None
        self.spans: Path | None = None


class Workload:
    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.inputs = work / "inputs"
        self.manifest: dict = {}
        self.first_inputs: dict = {}
        # the perturbations of every seed are translates of one set of
        # fields, so their reference holds on every seed; the ladder's Q
        # values move with the seed
        self.reference = json.loads(REFERENCE.read_text())[name]
        if seed != DEFAULT_SEED:
            self.reference.pop("ladder", None)

    # -- set-up ---------------------------------------------------------

    def warm(self) -> None:
        """An untimed set-up that fills the bytecode caches."""
        spawn([sys.executable, str(CHILD), "setup", self.name,
               str(self.seed), str(self.work / "warm")],
              self.work / "warm.log")

    def setup(self, k: int) -> tuple[float, Op]:
        """Wall time of one fresh set-up process.  The first writes the
        inputs the samples read; every repeat must write identical files."""
        d = self.inputs if k == 0 else self.work / f"setup{k}"
        rc, wall, _ = spawn([sys.executable, str(CHILD), "setup", self.name,
                             str(self.seed), str(d)],
                            self.work / f"setup{k}.log")
        if rc != 0:
            err = (self.work / f"setup{k}.err").read_text()
            raise Failure(f"set-up exited {rc}: {err[-2000:]}")
        files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        if k == 0:
            self.first_inputs = files
            self.manifest = json.loads(files["manifest.json"])
            kam = Path(self.manifest["env"]["kamtorus_file"]).resolve()
            if ROOT / "src" not in kam.parents:
                raise Failure(f"kamtorus imported from {kam}, "
                              f"not {ROOT / 'src'}")
        return wall, Op("setup", [] if files == self.first_inputs else
                        ["set-up inputs differ between repeats"])

    def alpha_tilde(self, freq: str):
        return checks.read_alpha_tilde((self.inputs / freq).read_text())

    # -- samples --------------------------------------------------------

    def sample(self, k: int, traced: bool) -> Sample:
        d = self.work / f"sample{k}"
        d.mkdir()
        spans = d / "spans.json"
        prefix = [sys.executable, str(CHILD)] + (
            ["--trace-out", str(spans)] if traced else [])
        if self.name == "plastic-n3":
            s = self._cli_sample(d, prefix, traced)
        else:
            s = self._library_sample(d, prefix)
        s.spans = spans if traced else None
        s.k = k
        return s

    def _cli_sample(self, d: Path, prefix: list[str], traced: bool) -> Sample:
        m = self.manifest
        out = d / "out"
        args = ["run", "--freq", str(self.inputs / m["freq"]),
                "--pert", str(self.inputs / m["pert"]["file"]),
                "--s", "1.0", "--out", str(out),
                "--grid", str(m["cli"]["grid"]),
                "--orbit-T", str(m["cli"]["orbit_T"])]
        argv = (prefix + ["cli"] + args if traced
                else [sys.executable, "-m", "kamtorus.cli"] + args)
        rc, wall, rss = spawn(argv, d / "run.log")
        s = Sample(wall, rss)
        s.out = out
        s.solve_s.append(wall)
        problems = [] if rc == 0 else [f"kamtorus run exited {rc}"]
        certs = []
        try:
            problems += checks.check_residual(
                (out / "residual.json").read_text())
            trace = checks.strict_json((out / "trace.json").read_text())
            certs = [{"q": st["q"], "p": st["p"], "Q": st["Q_m"]}
                     for st in trace["steps"]]
            problems += self._check_certs(m["freq"], certs)
            beta = [float(v) for v in (out / "beta.txt").read_text().split()]
            if beta != trace["beta"] or not all(map(math.isfinite, beta)):
                problems.append("beta.txt disagrees with trace.json")
            if not (out / "phi.field").read_text().startswith("torusfield"):
                problems.append("phi.field is not a torusfield file")
            problems += checks.check_reference(
                [c["q"] for c in certs], len(trace["steps"]),
                trace["passes"], beta, self.reference)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        s.ops.append(Op("kamtorus run", problems))
        self._rederive(s, d, m["freq"], certs)
        return s

    def _library_sample(self, d: Path, prefix: list[str]) -> Sample:
        rc, wall, rss = spawn(prefix + ["library", str(self.inputs), str(d)],
                              d / "library.log")
        s = Sample(wall, rss)
        self._check_sweep(s, d / "sweep.json", rc)
        self._check_ladder(s, d / "ladder.json", rc)
        return s

    def _check_sweep(self, s: Sample, path: Path, rc: int) -> None:
        solves = self.manifest["solves"]
        try:
            results = _results(path, rc, len(solves))
        except (OSError, checks.CheckError) as exc:
            s.ops += [Op("run", [f"sweep failed: {exc}"]) for _ in solves]
            return
        shapes: dict[int, list] = {}
        for item, res in zip(solves, results):
            shapes.setdefault(item["field_seed"], []).append(
                (item["eps"], res.get("beta")))
        nonlinear = {fs: _guarded(checks.check_beta_linear, v)
                     for fs, v in shapes.items()}
        for item, res, ref in zip(solves, results, self.reference["sweep"]):
            problems = nonlinear[item["field_seed"]] + _guarded(
                self._check_solve, res, ref)
            s.ops.append(Op("run", problems))
            s.solve_s.append(res["seconds"])

    def _check_solve(self, res: dict, ref) -> list[str]:
        problems = self._check_certs(self.manifest["freq"], res["certs"])
        tol = 1e-14 * res["run_eps"]
        if not res["final_norm"] <= tol:
            problems.append(f"final norm {res['final_norm']:.3g} above "
                            f"the stopping tolerance {tol:.3g}")
        problems += checks.check_reference(
            [c["q"] for c in res["certs"]], res["steps"], res["passes"],
            res["beta"], ref)
        return problems

    def _check_ladder(self, s: Sample, path: Path, rc: int) -> None:
        rungs = [(r["freq"], Q) for r in self.manifest["ladder"]
                 for Q in r["Q"]]
        try:
            results = _results(path, rc, len(rungs))
        except (OSError, checks.CheckError) as exc:
            s.ops += [Op("dirichlet_approx", [f"ladder failed: {exc}"])
                      for _ in rungs]
            return
        last_q = {}
        for i, ((freq, Q), res) in enumerate(zip(rungs, results)):
            problems = _guarded(self._check_rung, i, freq, Q, res, last_q)
            s.ops.append(Op("dirichlet_approx", problems))
            s.approx_s += res["seconds"]

    def _check_rung(self, i: int, freq: str, Q: float, res: dict,
                    last_q: dict) -> list[str]:
        problems = self._check_certs(freq, [res])
        if res["Q"] != Q:
            problems.append(f"answered Q={res['Q']!r}, asked {Q!r}")
        # the feasible set shrinks as Q grows, so the smallest q cannot
        if res["q"] < last_q.get(freq, 1):
            problems.append(f"q={res['q']} at Q={Q:.6g} is below the "
                            f"answer at a smaller Q")
        last_q[freq] = res["q"]
        ref = self.reference.get("ladder")
        if ref is not None and res["q"] != ref[i]:
            problems.append(f"default seed: q={res['q']} at {freq} "
                            f"Q={Q!r}, reference {ref[i]}")
        return problems

    def _check_certs(self, freq: str, certs: list[dict]) -> list[str]:
        at = self.alpha_tilde(freq)
        problems = []
        for c in certs:
            problems += checks.check_certificate(at, c["q"], c["p"], c["Q"])
        return problems

    def _rederive(self, s: Sample, d: Path, freq: str, certs: list[dict]):
        """Re-derive each distinct (alpha, Q) with `kamtorus approx`, one
        fresh process each: it must return the same certificate.  Their
        wall time is the sample's approx_s."""
        by_q = {}
        for c in certs:
            by_q.setdefault(c["Q"], c)
        for i, (Q, c) in enumerate(sorted(by_q.items())):
            log = d / f"approx{i}.log"
            rc, wall, _ = spawn([sys.executable, "-m", "kamtorus.cli",
                                 "approx", "--freq", str(self.inputs / freq),
                                 "--Q", repr(float(Q))], log)
            s.approx_s += wall
            try:
                got = checks.strict_json(log.read_text())
                problems = [] if rc == 0 and got["upper_ok"] and \
                    got["lower_ok"] else [f"kamtorus approx exited {rc}"]
                if (got["q"], got["p"]) != (c["q"], c["p"]):
                    problems.append(f"kamtorus approx at Q={Q!r} gives "
                                    f"q={got['q']}, the run used {c['q']}")
            except (OSError, KeyError, checks.CheckError) as exc:
                problems = [f"kamtorus approx output unreadable: {exc}"]
            s.ops.append(Op("kamtorus approx", problems))


def _results(path: Path, rc: int, count: int) -> list[dict]:
    """The per-call records a sweep or ladder process wrote."""
    results = checks.strict_json(path.read_text())
    if rc != 0 or not isinstance(results, list) or len(results) != count or \
            not all(isinstance(r, dict) and isinstance(r.get("seconds"), float)
                    and r["seconds"] > 0 for r in results):
        raise checks.CheckError(f"exited {rc} without {count} timed results")
    return results


def _guarded(check, *args) -> list[str]:
    """Problems a check finds; malformed output is a problem too."""
    try:
        return check(*args)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed output: {exc!r}"]


def _median(values: list):
    """Median that stays an int when the values are equal ints."""
    med = statistics.median(values)
    return values[0] if len(set(values)) == 1 else med


def _p95(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(setup_s: float, samples: list[Sample]) -> dict:
    solves = [t for s in samples for t in s.solve_s]
    return {
        "setup_s": (setup_s, "s"),
        "verified_s": (statistics.median(s.wall for s in samples), "s"),
        "solves_per_s": (len(solves) / sum(solves), "1/s"),
        "solve_p95_s": (_p95(solves), "s"),
        "approx_s": (statistics.median(s.approx_s for s in samples), "s"),
        "peak_rss_mb": (statistics.median(s.rss_mb for s in samples), "MB"),
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kamtorus" / "__init__.py").is_file():
        print(f"error: no kamtorus source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(args, Workload(args.workload, args.seed, work))
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass                 # another run is still using it


def _measure(args, wl: Workload) -> int:
    wl.warm()
    setups = [wl.setup(0)]
    t0 = time.perf_counter()
    samples: list[Sample] = []
    traced: list[Sample] = []
    rounds: list[float] = []
    while True:
        r0 = time.perf_counter()
        # with --trace 1, each untraced sample is paired with a traced one,
        # and the pairs alternate which of the two runs first
        kinds = [False, True] if args.trace else [False]
        if len(rounds) % 2:
            kinds.reverse()
        for is_traced in kinds:
            (traced if is_traced else samples).append(
                wl.sample(len(samples) + len(traced), is_traced))
        # set-ups are spread over the run, so their median spans its drift
        if len(setups) < SETUP_REPEATS:
            setups.append(wl.setup(len(setups)))
        rounds.append(time.perf_counter() - r0)
        # stop when another round would end more than half a round late
        enough = len(samples) >= (1 if args.trace else MIN_SAMPLES)
        if enough and time.perf_counter() - t0 + 0.5 * max(rounds) > \
                args.seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(wl.setup(len(setups)))
    setup_s = statistics.median(wall for wall, _ in setups)
    ops = [op for _, op in setups] + \
        [op for s in samples + traced for op in s.ops]
    failed = [op for op in ops if op.problems]
    for op in failed[:20]:
        print(f"FAILED {op.name}: {'; '.join(op.problems)}", file=sys.stderr)

    if args.trace:
        runs = [layers.per_layer(json.loads(s.spans.read_text()), s.out)
                for s in traced]
        metrics = {name: (_median([r[name][0] for r in runs]), unit)
                   for name, (_, unit) in runs[0].items()}
        metrics["tracing.overhead_s"] = (
            statistics.median(s.wall for s in traced)
            - statistics.median(s.wall for s in samples), "s")
    else:
        metrics = end_to_end(setup_s, samples)
    walls = " ".join(f"{s.wall:.3f}{'T' if s in traced else ''}"
                     for s in sorted(samples + traced, key=lambda s: s.k))
    print(f"workload {wl.name}, seed {wl.seed}: sample walls [s, T traced] "
          f"{walls}")
    print(f"workload {wl.name}, seed {wl.seed}: {len(samples)} untraced "
          f"and {len(traced)} traced sample(s), "
          f"{sum(len(s.solve_s) for s in samples)} solve(s) behind "
          f"solve_p95_s, {len(ops)} checked operation(s)")
    print("environment: " + json.dumps(
        {**wl.manifest["env"], "nproc": os.cpu_count(),
         "cpu": _cpu_model()}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
