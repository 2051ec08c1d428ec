"""Per-layer metrics from the spans tracer.py wrote for one traced sample.

Names are `<layer>.<function>.<quantity>`; BENCHMARK.json lists them and
README.md says which end-to-end metric each should move, on which
workload.  Quantities a layer did not produce in this sample read 0.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from tracer import LAYERS

# flow_points work is split by the nearest of these enclosing calls
FLOW_PARENTS = ("scheduler.materialize", "oracles.conjugacy_report")


def per_layer(trace: dict, cli_out: Path | None) -> dict:
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}

    def ancestors(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            yield span

    calls = defaultdict(int)
    self_s = defaultdict(float)
    wall_s = defaultdict(float)
    sums = defaultdict(float)
    flow = {p: defaultdict(float) for p in FLOW_PARENTS}
    keys, max_q, brackets = set(), 0, 0
    for span in spans[1:]:
        name = span["name"]
        dur = span["end"] - span["start"]
        up = [a["name"] for a in ancestors(span)]
        calls[name] += 1
        self_s[name] += dur - span["child_s"]
        if name not in up:
            wall_s[name] += dur
        for key in ("steps", "passes"):
            sums[f"{name}.{key}"] += span.get(key, 0)
        if name == "diophantine.dirichlet_approx":
            keys.add(span["key"])
            max_q = max(max_q, span["q"])
        if name == "embedding.flow_points":
            parent = next((a for a in up if a in FLOW_PARENTS), None)
            if parent is not None:
                flow[parent]["calls"] += 1
                flow[parent]["points"] += span["points"]
                flow[parent]["self_s"] += dur - span["child_s"]
    for span in spans:
        in_step = span["name"] == "averaging.averaging_step" or any(
            a["name"] == "averaging.averaging_step" for a in ancestors(span))
        for name, agg in span["leaves"].items():
            calls[name] += agg["calls"]
            self_s[name] += agg["self_s"]
            for key, val in agg.items():
                if key not in ("calls", "total_s", "self_s"):
                    sums[f"{name}.{key}"] += val
            if in_step and name == "field.lie_bracket":
                brackets += agg["calls"]

    da = "diophantine.dirichlet_approx"
    m = {
        f"{da}.calls": (calls[da], "count"),
        f"{da}.self_s": (self_s[da], "s"),
        f"{da}.max_q": (max_q, "count"),
        f"{da}.distinct_ratio": (len(keys) / calls[da] if calls[da] else 0.0,
                                 "ratio"),
    }
    lb = "field.lie_bracket"
    m[f"{lb}.calls"] = (calls[lb], "count")
    m[f"{lb}.self_s"] = (self_s[lb], "s")
    m[f"{lb}.pairs"] = (int(sums[f"{lb}.pairs"]), "count")
    st = "averaging.averaging_step"
    m[f"{st}.calls"] = (calls[st], "count")
    m[f"{st}.self_s"] = (self_s[st], "s")
    m[f"{st}.brackets"] = (brackets, "count")
    sh = "averaging.solve_homological"
    m[f"{sh}.calls"] = (calls[sh], "count")
    m[f"{sh}.self_s"] = (self_s[sh], "s")
    run = "scheduler.run"
    m[f"{run}.wall_s"] = (wall_s[run], "s")
    m[f"{run}.steps"] = (int(sums[f"{run}.steps"]), "count")
    m[f"{run}.passes"] = (int(sums[f"{run}.passes"]), "count")
    m["scheduler.materialize.wall_s"] = (wall_s["scheduler.materialize"], "s")
    for parent in FLOW_PARENTS:
        f = flow[parent]
        base = f"embedding.flow_points.{parent.split('.')[1]}"
        m[f"{base}.calls"] = (int(f["calls"]), "count")
        m[f"{base}.points"] = (int(f["points"]), "count")
        m[f"{base}.self_s"] = (f["self_s"], "s")
    em = "field.eval_many"
    m[f"{em}.calls"] = (calls[em], "count")
    m[f"{em}.self_s"] = (self_s[em], "s")
    m[f"{em}.point_modes"] = (int(sums[f"{em}.point_modes"]), "count")
    m[f"{em}.phase_mb"] = (sums[f"{em}.phase_bytes"] / 1e6, "MB")
    for orc in ("oracles.conjugacy_report", "oracles.orbit_shadowing_check"):
        m[f"{orc}.wall_s"] = (wall_s[orc], "s")
        m[f"{orc}.self_s"] = (self_s[orc], "s")
    m["field.serialize.self_s"] = (self_s["field.serialize"], "s")
    m["field.deserialize.self_s"] = (self_s["field.deserialize"], "s")
    out_bytes = sum(p.stat().st_size for p in cli_out.iterdir()) \
        if cli_out is not None and cli_out.is_dir() else 0
    m["cli.output_bytes"] = (out_bytes, "B")
    for layer in LAYERS:
        m[f"{layer}.failed"] = (trace["failed"].get(layer, 0), "count")
    return m
