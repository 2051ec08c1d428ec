"""One benchmark process: set up inputs, or run one sample.

    python3 perfbench/child.py [--trace-out FILE] setup WORKLOAD SEED DIR
    python3 perfbench/child.py [--trace-out FILE] library DIR OUT
    python3 perfbench/child.py --trace-out FILE cli ARGS...

`run.py` starts each of these in a fresh interpreter with the checkout's
`src` first on `PYTHONPATH`.  `setup` derives every input from the seed
and writes it to DIR; `library` reads only those files, runs the sweep
and then the Dirichlet ladder, and writes their answers and per-call
times to OUT.  Untraced CLI samples run `python -m kamtorus.cli`
directly; `cli` exists so that a traced sample runs the same `main` with
the tracer installed.  With `--trace-out`, the
tracer's spans are written to FILE when the command ends.
"""

from __future__ import annotations

import json
import math
import sys
import time
import warnings
from pathlib import Path

# Dirichlet ladder: Q = 10^(3 + i/2), i = 0..6, jittered by
# at most this factor either way so the work per rung stays comparable
LADDER_EXPONENTS = [3.0 + i / 2.0 for i in range(7)]
LADDER_JITTER = 0.02

# sweep: three W2-sized golden perturbation shapes (W2 is seed 3 at
# eps 3e-6), each scaled to every eps
SWEEP_EPS = (1e-8, 1e-7, 1e-6, 3e-6)
SWEEP_FIELD_SEEDS = (3, 4, 5)


def _golden():
    return (math.sqrt(5.0) - 1.0) / 2.0


def _plastic():
    # real root of x^3 = x + 1
    x = 1.3
    for _ in range(64):
        x = x - (x ** 3 - x - 1.0) / (3.0 * x ** 2 - 1.0)
    return x


def _frac(x):
    return x - math.floor(x)


def _frequency(name):
    """FrequencyVector of a named frequency, with the constants the
    tests use (finite-range estimates)."""
    import numpy as np
    import kamtorus

    if name == "golden":
        at, tau, k_range = [_golden()], 0.0, 4096
    elif name == "plastic":
        pl = _plastic()
        at, tau, k_range = [1.0 / pl, 1.0 / pl ** 2], 0.1, 200
    elif name == "cuberoot":
        at, tau, k_range = [_frac(2.0 ** (1 / 3)), _frac(4.0 ** (1 / 3))], 0.1, 200
    else:
        raise ValueError(f"unknown frequency {name!r}")
    at = np.array(at)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gamma, gamma_bar = kamtorus.estimate_constants(at, tau, k_range, 4096)
    return kamtorus.FrequencyVector(n=len(at) + 1, alpha_tilde=at, tau=tau,
                                    gamma=gamma, gamma_bar=gamma_bar)


def _environment():
    import platform
    import numpy as np
    import kamtorus

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "kamtorus_file": kamtorus.__file__,
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup(workload: str, seed: int, out: Path) -> None:
    """Write the workload's inputs for this seed, plus manifest.json."""
    import numpy as np
    from kamtorus import field as fld
    from kamtorus.diophantine import serialize_frequency
    from kamtorus.generate import random_field

    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "env": _environment()}

    def write_freq(name):
        (out / f"{name}.freq").write_text(
            serialize_frequency(_frequency(name)))
        return f"{name}.freq"

    def write_field(fname, n, eps, modes, fseed, k_max, shift):
        P = random_field(n, 1.0, eps, modes, fseed, k_max=k_max)
        P = fld.make_field(n, P.width_s, {
            k: c * np.exp(2j * np.pi * np.dot(k, shift))
            for k, c in P.coeffs.items()})
        (out / fname).write_text(fld.serialize(P))
        return {"file": fname, "eps": eps, "field_seed": fseed,
                "shift": [float(v) for v in shift]}

    def shifts(n, count):
        # The seed translates each field, c_k -> c_k exp(2 pi i k.shift):
        # modes, norms, steps and beta stay the same, so every seed does
        # the same work and must give the same beta.  Seed 0 is untranslated.
        rng = np.random.default_rng(seed)
        return np.zeros((count, n)) if seed == 0 else \
            rng.uniform(0.0, 1.0, (count, n))

    if workload == "plastic-n3":          # ROADMAP W4
        manifest["freq"] = write_freq("plastic")
        manifest["pert"] = write_field("p.field", 3, 1e-12, 20, 7, 4,
                                       shifts(3, 1)[0])
        manifest["cli"] = {"grid": 8, "orbit_T": 100}
    elif workload == "sweep-approx":
        # W2-size solves, then the n=3 Dirichlet ladder
        manifest["freq"] = write_freq("golden")
        cases = [(eps, fs) for eps in SWEEP_EPS for fs in SWEEP_FIELD_SEEDS]
        manifest["solves"] = [
            write_field(f"p{i:02d}.field", 2, eps, 30, fs, 8, shift)
            for i, ((eps, fs), shift) in enumerate(
                zip(cases, shifts(2, len(cases))))]
        jitter = np.random.default_rng(seed).uniform(
            -LADDER_JITTER, LADDER_JITTER, len(LADDER_EXPONENTS))
        qs = [10.0 ** e * (1.0 + j) for e, j in zip(LADDER_EXPONENTS, jitter)]
        manifest["ladder"] = [{"freq": write_freq(name), "Q": qs}
                              for name in ("plastic", "cuberoot")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


def _load_freq(path: Path):
    from kamtorus.diophantine import deserialize_frequency
    return deserialize_frequency(path.read_text())


def sweep(d: Path, out: Path) -> None:
    """Library run() on every perturbation of the manifest, no oracle."""
    from kamtorus import field as fld
    from kamtorus import scheduler as sch

    manifest = json.loads((d / "manifest.json").read_text())
    alpha = _load_freq(d / manifest["freq"])
    results = []
    for item in manifest["solves"]:
        P = fld.deserialize((d / item["file"]).read_text())
        t0 = time.perf_counter()
        res = sch.run(alpha, P, 1.0, sch.RunOptions())
        dt = time.perf_counter() - t0
        results.append({
            "file": item["file"], "eps": item["eps"], "seconds": dt,
            "beta": [float(v) for v in res.beta],
            "run_eps": res.eps, "final_norm": res.final_norm,
            "passes": res.passes, "steps": len(res.trace),
            "certs": [{"q": s["q"], "p": s["p"], "Q": s["Q_m"]}
                      for s in res.trace]})
    (out / "sweep.json").write_text(json.dumps(results) + "\n")


def ladder(d: Path, out: Path) -> None:
    """Certified Dirichlet search at every (frequency, Q) of the manifest."""
    from kamtorus import diophantine

    manifest = json.loads((d / "manifest.json").read_text())
    results = []
    for rung in manifest["ladder"]:
        alpha = _load_freq(d / rung["freq"])
        for Q in rung["Q"]:
            t0 = time.perf_counter()
            approx = diophantine.dirichlet_approx(alpha, Q)
            dt = time.perf_counter() - t0
            results.append({"freq": rung["freq"], "Q": Q, "seconds": dt,
                            "q": int(approx.q),
                            "p": [int(v) for v in approx.p]})
    (out / "ladder.json").write_text(json.dumps(results) + "\n")


def main(argv: list[str]) -> int:
    tracer = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cmd, rest = argv[0], argv[1:]
    try:
        if cmd == "setup":
            setup(rest[0], int(rest[1]), Path(rest[2]))
            return 0
        if cmd == "library":
            sweep(Path(rest[0]), Path(rest[1]))
            ladder(Path(rest[0]), Path(rest[1]))
            return 0
        if cmd == "cli":
            from kamtorus import cli
            return cli.main(rest)
        raise SystemExit(f"unknown command {cmd!r}")
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
