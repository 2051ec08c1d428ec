"""Command-line front end.

Subcommands: approx, psi, constants, step, run, verify, gen.  Human
summary on stdout, machine-readable JSON/field files on disk.  Exit code
0 only when every asserted bound in the invoked pipeline passed and, for
run and verify, the oracles measured a conjugacy residual of at most
MAX_RESIDUAL and an orbit deviation of at most MAX_ORBIT_DEVIATION; 1
when an oracle threshold or an approximation bound failed; 2 on any
error.  run and verify also report both oracles on Phi = Id with the same
beta (null_residual, null_orbit; the exit code ignores them).

Each command imports the layers it runs, so approx and psi load no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from .diophantine import (FrequencyVector, deserialize_frequency,
                          dirichlet_approx, lower_denominator_bound,
                          psi_argmax)
from .errors import KamError, ParameterError, ParseError

# Oracle thresholds of the acceptance gate for run and verify.
MAX_RESIDUAL = 1e-10
MAX_ORBIT_DEVIATION = 1e-7
# Oracle work caps: grid^n lattice points, max(16, int(orbit-T)) samples.
MAX_GRID_POINTS = 1 << 20
MAX_ORBIT_SAMPLES = 1 << 16
# Oracle defaults of run and verify: lattice points a side, orbit time.
DEFAULT_GRID = 32
DEFAULT_ORBIT_T = 100.0


def _load_freq(path: str) -> FrequencyVector:
    return deserialize_frequency(Path(path).read_text())


def _load_field(path: str) -> fld.FourierVectorField:
    from . import field as fld
    return fld.deserialize(Path(path).read_text())


def _dump_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _verify(alpha, P, u, beta, grid, orbit_t, samples, outdir: Path,
            summary: dict) -> int:
    """Both oracles on Phi = Id + u and, as the null control, on u = 0 with
    the same beta.  Writes residual.json to outdir, prints it after
    summary with the null-to-measured ratios, and returns the exit code:
    1 when an oracle measured a value above its threshold, else 0."""
    from . import field as fld, oracles as orc
    zero = fld.zero_field(alpha.n, 1.0)
    report = orc.conjugacy_report(alpha, P, u, beta, grid)
    null = orc.conjugacy_report(alpha, P, zero, beta, grid)
    orbit, null_orbit = (orc.orbit_shadowing_check(
        alpha, P, [u, zero], beta, orbit_t, samples)
        if orbit_t > 0 else (None, None))
    report.update(orbit_deviation=orbit, null_residual=null["sup_residual"],
                  null_orbit=null_orbit)
    _dump_json(outdir / "residual.json", report)
    pairs = (("null_residual", "sup_residual"),
             ("null_orbit", "orbit_deviation"))
    ratios = {f"{key}_ratio": report[key] / report[of] if report[of]
              else None for key, of in pairs}
    print(json.dumps({**summary, **report, **ratios}, indent=2))
    failed = [f"{key} = {report[key]:.3g} exceeds {bound:g}"
              for key, bound in (("sup_residual", MAX_RESIDUAL),
                                 ("orbit_deviation", MAX_ORBIT_DEVIATION))
              if report[key] is not None and not report[key] <= bound]
    for line in failed:
        print(f"error: {line}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_approx(args) -> int:
    alpha = _load_freq(args.freq)
    approx = dirichlet_approx(alpha, args.Q)
    err = max(map(abs, approx.varpi)) * approx.q
    bound = lower_denominator_bound(alpha, approx)
    out = {
        "q": approx.q,
        "p": [int(v) for v in approx.p],
        "qQ_err": err * args.Q,           # q*|alpha~ - p/q|*Q, must be <= 1
        "err": err,
        "Q": args.Q,
        "denominator_lower_bound": bound,
        "upper_ok": bool(err <= 1.0 / args.Q * (1 + 1e-12)),
        "lower_ok": bool(approx.q >= bound),
    }
    print(json.dumps(out, indent=2))
    return 0 if out["upper_ok"] and out["lower_ok"] else 1


def _cmd_psi(args) -> int:
    alpha = _load_freq(args.freq)
    value, k = psi_argmax(alpha, args.Q)
    print(json.dumps({"psi": value, "argmax_k": list(k), "Q": args.Q},
                     indent=2))
    return 0


def _cmd_constants(args) -> int:
    from . import scheduler as sch
    consts = sch.constants(args.n, args.tau, args.gamma, args.gammabar)
    q0, eps_star = sch.select_Q(consts, args.s)
    out = {"n": consts.n, "tau": consts.tau, "a": consts.a, "b": consts.b,
           "c": consts.c, "d": consts.d, "gamma_star": consts.gamma_star,
           "Q0": q0, "eps_star": eps_star, "s": args.s}
    print(json.dumps(out, indent=2))
    return 0


def _cmd_step(args) -> int:
    from . import averaging as avg, field as fld, scheduler as sch
    from .embedding import displacement
    alpha = _load_freq(args.freq)
    P = _load_field(args.pert)
    s = P.width_s
    consts = sch.constants(alpha.n, alpha.tau, alpha.gamma, alpha.gamma_bar)
    q0 = args.Q if args.Q is not None else sch.select_Q(consts, s)[0]
    sigma = args.sigma if args.sigma is not None else s / 4.0
    S = fld.zero_field(alpha.n, s)
    res = avg.averaging_step(alpha, S, P, q0, sigma, consts)
    phi1 = displacement(
        alpha.n, () if P.is_constant else ((res.V, res.P_plus.width_s),))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "p_plus.field").write_text(fld.serialize(res.P_plus))
    (outdir / "phi1.field").write_text(fld.serialize(phi1))
    budget = {"Q": q0, "sigma": sigma, **res.record}
    _dump_json(outdir / "budget.json", budget)
    print(json.dumps(budget, indent=2))
    return 0


# run's settings, each a flag --<key> and a config key; flags override the
# config file, which overrides _cmd_run's defaults (a missing one is None)
_RUN_KEYS = {"freq": str, "pert": str, "s": float, "tol": float,
             "max-steps": int, "out": str, "force": bool, "grid": int,
             "orbit-T": float}
_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def _read_config(path: str) -> dict:
    values = {}
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected key=value", line=ln)
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _RUN_KEYS:
            raise ParseError(f"unknown key {key!r}", line=ln)
        conv = _RUN_KEYS[key]
        try:
            values[key] = _BOOLS[val.lower()] if conv is bool else conv(val)
        except (KeyError, ValueError):
            raise ParseError(f"bad {conv.__name__} value {val!r} for "
                             f"{key}", line=ln) from None
    return values


def _finite(name: str, value):
    if value is not None and not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value}")
    return value


def _oracle_samples(grid: int, orbit_t: float, n: int) -> int:
    """The orbit check's sample count, once both oracles fit their caps."""
    if grid < 1:
        raise ParameterError(f"grid must be >= 1, got {grid}")
    if grid ** n > MAX_GRID_POINTS:
        raise ParameterError(f"grid^n = {grid}^{n} exceeds the "
                             f"{MAX_GRID_POINTS}-point budget")
    if orbit_t < 0:
        raise ParameterError(f"orbit-T must be >= 0 (0 skips the orbit "
                             f"check), got {orbit_t:g}")
    samples = max(16, int(orbit_t))
    if samples > MAX_ORBIT_SAMPLES:
        raise ParameterError(f"orbit-T {orbit_t:g} needs {samples} sample "
                             f"times, above the budget {MAX_ORBIT_SAMPLES}")
    return samples


def _load_beta(path: str, n: int) -> np.ndarray:
    """Exactly n finite floats, one a line (blank lines are skipped)."""
    import numpy as np
    lines = Path(path).read_text().splitlines()
    beta = []
    for ln, line in enumerate(lines, start=1):
        if line.strip():
            try:
                beta.append(float(line))
            except ValueError:
                beta.append(math.nan)
            if not math.isfinite(beta[-1]):
                raise ParseError(f"beta entry {line.strip()!r} is not a "
                                 "finite number", line=ln)
    if len(beta) != n:
        raise ParseError(f"expected {n} beta entries, got {len(beta)}",
                         line=max(len(lines), 1))
    return np.array(beta)


def _cmd_run(args) -> int:
    from . import field as fld, scheduler as sch
    defaults = {"max-steps": sch.RunOptions().max_steps,
                "force": sch.RunOptions().force, "out": ".",
                "grid": DEFAULT_GRID, "orbit-T": DEFAULT_ORBIT_T}
    flags = {key: getattr(args, key.replace("-", "_")) for key in _RUN_KEYS}
    opt = {**defaults,
           **(_read_config(args.config) if args.config else {}),
           **{key: v for key, v in flags.items() if v is not None}}
    s = _finite("s", opt.get("s"))
    if not opt.get("freq") or not opt.get("pert") or s is None:
        raise KamError("run requires --freq, --pert and --s "
                       "(flags or config)")
    grid, orbit_t = opt["grid"], _finite("orbit-T", opt["orbit-T"])
    alpha = _load_freq(opt["freq"])
    samples = _oracle_samples(grid, orbit_t, alpha.n)
    P = _load_field(opt["pert"])
    opts = sch.RunOptions(tol=_finite("tol", opt.get("tol")),
                          max_steps=opt["max-steps"], force=opt["force"])
    # run's UserWarning (--force) as one line, like the error: lines
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        result = sch.run(alpha, P, s, opts)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    outdir = Path(opt["out"])
    outdir.mkdir(parents=True, exist_ok=True)

    _dump_json(outdir / "trace.json", {
        "eps": result.eps, "eps_star": result.eps_star,
        "Q0": result.schedule.Q0, "s": result.schedule.s,
        "passes": result.passes, "final_norm": result.final_norm,
        "beta": [float(v) for v in result.beta],
        "ledger": result.ledger,
        "steps": result.trace,
    })
    (outdir / "phi.field").write_text(fld.serialize(result.u))
    (outdir / "beta.txt").write_text(
        "\n".join(format(float(v), ".17g") for v in result.beta) + "\n")

    summary = {"steps": len(result.trace),
               "beta": list(map(float, result.beta))}
    return _verify(alpha, P, result.u, result.beta, grid, orbit_t, samples,
                   outdir, summary)


def _cmd_verify(args) -> int:
    _finite("orbit-T", args.orbit_T)
    alpha = _load_freq(args.freq)
    samples = _oracle_samples(args.grid, args.orbit_T, alpha.n)
    P = _load_field(args.pert)
    u = _load_field(args.phi)
    beta = _load_beta(args.beta, alpha.n)
    return _verify(alpha, P, u, beta, args.grid, args.orbit_T, samples,
                   Path(args.out or "."), {})


def _cmd_gen(args) -> int:
    from . import field as fld
    from .generate import random_field
    out = random_field(args.n, args.s, args.eps, args.modes, args.seed,
                       k_max=args.kmax)
    text = fld.serialize(out)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} (norm {fld.norm(out, args.s):.17g})")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kamtorus",
        description="Spectral KAM conjugacy via rational averaging")
    subs = top.add_subparsers(dest="command", required=True)

    for name, func, text in (
            ("approx", _cmd_approx, "Dirichlet rational approximation"),
            ("psi", _cmd_psi, "inverse smallest divisor in a box")):
        p = subs.add_parser(name, help=text)
        p.add_argument("--freq", required=True)
        p.add_argument("--Q", type=float, required=True)
        p.set_defaults(func=func)

    p = subs.add_parser("constants", help="derived iteration constants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--gammabar", type=float, required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.set_defaults(func=_cmd_constants)

    p = subs.add_parser("step", help="single averaging step")
    p.add_argument("--freq", required=True)
    p.add_argument("--pert", required=True)
    p.add_argument("--Q", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_step)

    p = subs.add_parser("run", help="full conjugacy run")
    for key, conv in _RUN_KEYS.items():
        p.add_argument(f"--{key}", **({"action": "store_true", "default": None}
                                      if conv is bool else {"type": conv}))
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_run)

    p = subs.add_parser("verify", help="independent conjugacy verification")
    p.add_argument("--freq", required=True)
    p.add_argument("--pert", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--orbit-T", type=float, default=DEFAULT_ORBIT_T)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("gen", help="seeded random perturbation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KamError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
