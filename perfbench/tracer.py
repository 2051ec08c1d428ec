"""Out-of-process tracer: wraps kamtorus's public functions from outside.

`install()` replaces every public module-level function of the traced
layers with a timing wrapper, in every kamtorus namespace that binds it
by name (`averaging` and `cli` import `dirichlet_approx` directly and
`scheduler` imports `fit_displacement`, so patching the defining module
alone would miss those calls).

Calls into `field`, the leaf layer, are not spans of their own: each is
aggregated into a count and a time on the nearest enclosing span, since
`eval_many` alone runs tens of thousands of times per orbit check.  Every
other call is a span with an id, its parent's id, start and end.  All
records stay in memory and are written once by `dump()`.  Self time is a
call's duration minus the time its traced children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("diophantine", "field", "averaging", "scheduler", "embedding",
          "oracles", "cli")
LEAF_LAYER = "field"


def _dirichlet_attrs(args, kwargs, result):
    alpha, Q = args[0], (args[1] if len(args) > 1 else kwargs["Q"])
    return {"key": f"{alpha.alpha_tilde.tobytes().hex()}:{float(Q)!r}",
            "q": int(result.q)}


def _bracket_attrs(args, kwargs, result):
    return {"pairs": len(args[0].coeffs) * len(args[1].coeffs)}


def _eval_many_attrs(args, kwargs, result):
    pm = len(args[1]) * len(args[0].coeffs)
    # bytes of the complex128 (N, M) phase matrix eval_many computes
    return {"point_modes": pm, "phase_bytes": 16 * pm}


def _flow_points_attrs(args, kwargs, result):
    return {"points": len(args[1])}


def _run_attrs(args, kwargs, result):
    return {"steps": len(result.trace), "passes": int(result.passes)}


# counters derived from a call's arguments and result: stored on the span,
# or summed into the aggregate of a leaf call
ATTRS = {
    "diophantine.dirichlet_approx": _dirichlet_attrs,
    "field.lie_bracket": _bracket_attrs,
    "field.eval_many": _eval_many_attrs,
    "embedding.flow_points": _flow_points_attrs,
    "scheduler.run": _run_attrs,
}


class Tracer:
    def __init__(self):
        # span 0 stands for the traced process itself: it owns leaf calls
        # made outside any span
        self.spans = [{"id": 0, "name": "<root>", "parent": None,
                       "start": 0.0, "end": 0.0, "child_s": 0.0,
                       "leaves": {}}]
        self.open_spans = [self.spans[0]]
        self.child_s = [0.0]     # time covered by children of each open call
        self.failed = {}         # layer -> calls that raised

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        leaf = layer == LEAF_LAYER
        hook = ATTRS.get(name)
        spans, open_spans, child_s = self.spans, self.open_spans, self.child_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not leaf:
                span = {"id": len(spans), "name": name,
                        "parent": open_spans[-1]["id"], "leaves": {}}
                spans.append(span)
                open_spans.append(span)
            child_s.append(0.0)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                dur = end - start
                covered = child_s.pop()
                child_s[-1] += dur
                if not ok:
                    self.failed[layer] = self.failed.get(layer, 0) + 1
                extra = hook(args, kwargs, result) if ok and hook else None
                if leaf:
                    agg = open_spans[-1]["leaves"].get(name)
                    if agg is None:
                        agg = open_spans[-1]["leaves"][name] = {
                            "calls": 0, "total_s": 0.0, "self_s": 0.0}
                    agg["calls"] += 1
                    agg["total_s"] += dur
                    agg["self_s"] += dur - covered
                    if extra:
                        for key, val in extra.items():
                            agg[key] = agg.get(key, 0) + val
                else:
                    open_spans.pop()
                    span["start"], span["end"] = start, end
                    span["child_s"] = covered
                    if extra:
                        span.update(extra)

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced layers, in every
        kamtorus namespace that binds it."""
        modules = {layer: importlib.import_module(f"kamtorus.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "kamtorus"
                                   or modname.startswith("kamtorus.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "failed": self.failed}, fh)
