"""Compare benchmark results of a parent and a change, pair by pair.

    python3 tools/bench_compare.py PARENT_RESULTS CHANGE_RESULTS \
        [--claim WORKLOAD:METRIC] [--benchmark BENCHMARK.json] [--out BENCH_N.json]

Each results directory holds the ``<workload>-s<seed>-t0.json`` records that
``perfbench/run.py`` writes under ``perfbench/.work/results`` of its own
checkout. Records of one workload and seed on both sides make a pair. For every
workload and end-to-end metric of ``BENCHMARK.json`` the script reports each
side's median and quartiles (numpy percentiles 25 and 75), how many pairs the
change won (ties count for neither side), and one verdict:

- ``claim met``: the metric is the claimed one, at least ten pairs ran, the
  change won at least 9 in 10 of them, failed no more operations than the
  parent, and the medians differ in its favour by more than the parent's
  interquartile range;
- ``worse than bound``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: either side's interquartile range exceeds the bound times
  its median, and not every run of the change beats every run of the parent;
- ``within bound``: otherwise.

Traced records (``-t1.json``) are summarised when present, and for each
workload and seed traced on both sides ``traced_change`` pairs every per-layer
metric: the parent's value, the change's and their ratio. ``environment``
holds each side's versions, git revision and source digest, taken from its
first record; ``mixed_revisions`` is true where that side's records (traced
ones included) name more than one revision or digest. The result is written
as JSON to ``--out`` or printed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RECORD = re.compile(r"(?P<workload>.+)-s(?P<seed>\d+)-t(?P<trace>[01])\.json")
ENVIRONMENT = ("python", "numpy", "scipy", "blas", "blas_threads", "nproc", "git_revision",
               "src_sha256")


def read_records(results: Path, trace: int) -> dict:
    """{workload: {seed: record}} of one results directory."""
    found: dict = {}
    for path in sorted(results.glob("*.json")):
        m = RECORD.fullmatch(path.name)
        if m and int(m["trace"]) == trace:
            rec = json.loads(path.read_text(encoding="utf-8"))
            found.setdefault(m["workload"], {})[int(m["seed"])] = rec
    return found


def run_summary(rec: dict) -> dict:
    """Correctness, operation counts, the eval ``probs.bin`` hash and the
    metric values of one record, counted as ``perfbench/run.py`` counts them."""
    outcomes = [o["ok"] for o in rec["operations"] + rec["checks"]]
    error = 1 if rec["error"] else 0
    failed = outcomes.count(False) + error
    return {
        "correct": failed == 0,
        "attempted": len(outcomes) + error,
        "failed": failed,
        "probs_sha256": (rec.get("untraced") or {}).get("probs_sha256"),
        **{name: m["value"] for name, m in rec["metrics"].items()},
    }


def side_environment(envs: list) -> dict:
    """One side's environment, from its first record, and whether its records
    disagree on the revision or the source digest they ran."""
    out = {k: envs[0].get(k) for k in ENVIRONMENT}
    out["mixed_revisions"] = len({(e.get("git_revision"), e.get("src_sha256"))
                                  for e in envs}) > 1
    return out


def _quartiles(values: np.ndarray) -> dict:
    q25, median, q75 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 6), "q25": round(float(q25), 6),
            "q75": round(float(q75), 6)}


def compare_metric(parent: list, change: list, spec: dict, claimed: bool,
                   failures_ok: bool) -> dict:
    """Statistics and verdict of one metric over paired runs (``parent[i]``
    pairs with ``change[i]``)."""
    p, c = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    sign = 1.0 if spec["better"] == "higher" else -1.0
    gain = sign * (c - p)  # positive where the change did better
    wins = int(np.sum(gain > 0))
    p_med, c_med = float(np.median(p)), float(np.median(c))
    p_iqr = float(np.subtract(*np.percentile(p, [75, 25])))
    c_iqr = float(np.subtract(*np.percentile(c, [75, 25])))
    change_pct = 100.0 * (c_med / p_med - 1.0)
    worse_pct = -sign * change_pct
    bound_pct = 100.0 * spec["bound"]
    separated = (sign * c).min() > (sign * p).max()  # every change run beats every parent run
    if (claimed and failures_ok and len(p) >= 10 and wins >= 0.9 * len(p)
            and sign * (c_med - p_med) > p_iqr):
        verdict = "claim met"
    elif worse_pct > bound_pct:
        verdict = "worse than bound"
    elif max(p_iqr / abs(p_med), c_iqr / abs(c_med)) > spec["bound"] and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": _quartiles(p),
        "change": _quartiles(c),
        "change_vs_parent_pct": round(change_pct, 2),
        "worse_by_pct": round(worse_pct, 2),
        "bound_pct": bound_pct,
        "change_better_pairs": f"{wins}/{len(p)}",
        "parent_iqr": round(p_iqr, 6),
        "verdict": verdict,
    }


def traced_delta(parent, change) -> dict:
    """One per-layer metric on both sides; ``ratio`` is change / parent, or
    None where a side lacks the metric or the parent's value is 0."""
    ratio = None
    if parent is not None and change is not None and parent != 0:
        ratio = round(change / parent, 4)
    return {"parent": parent, "change": change, "ratio": ratio}


def compare(parent_dir: Path, change_dir: Path, benchmark: dict, claim=None) -> dict:
    parent, change = read_records(parent_dir, 0), read_records(change_dir, 0)
    out = {"claim": None, "probs_sha256_equal_per_seed": {}, "end_to_end": {},
           "failed_operations": {}, "runs": {}}
    for wl in benchmark["workloads"]:
        name = wl["name"]
        seeds = sorted(set(parent.get(name, {})) & set(change.get(name, {})))
        if not seeds:
            continue
        runs = {side: {str(s): run_summary(recs[name][s]) for s in seeds}
                for side, recs in (("parent", parent), ("change", change))}
        out["runs"][name] = runs
        out["probs_sha256_equal_per_seed"][name] = {
            str(s): runs["parent"][str(s)]["probs_sha256"] == runs["change"][str(s)]["probs_sha256"]
            for s in seeds}
        failed = {side: sum(r["failed"] for r in runs[side].values()) for side in runs}
        out["failed_operations"][name] = failed
        out["end_to_end"][name] = {
            m["name"]: compare_metric(
                [runs["parent"][str(s)][m["name"]] for s in seeds],
                [runs["change"][str(s)][m["name"]] for s in seeds],
                m, claim == (name, m["name"]), failed["change"] <= failed["parent"])
            for m in benchmark["end_to_end"]}
        if claim and claim[0] == name:
            stats = out["end_to_end"][name][claim[1]]
            out["claim"] = {"workload": name, "metric": claim[1],
                            "rule": "change wins >= 9/10 pairs and median difference "
                                    "> parent IQR",
                            "change_wins": stats["change_better_pairs"],
                            "parent_median": stats["parent"]["median"],
                            "change_median": stats["change"]["median"],
                            "median_difference": round(
                                stats["change"]["median"] - stats["parent"]["median"], 6),
                            "parent_iqr": stats["parent_iqr"],
                            "met": stats["verdict"] == "claim met"}
    traced = {}
    traced_recs = {"parent": read_records(parent_dir, 1), "change": read_records(change_dir, 1)}
    for side, recs in traced_recs.items():
        for name, by_seed in recs.items():
            for seed, rec in by_seed.items():
                summary = run_summary(rec)
                traced[f"{name}-s{seed}_{side}"] = {
                    "correct": summary["correct"], "failed": summary["failed"],
                    "per_layer_metrics": len(rec["metrics"]),
                    "metrics": {k: v["value"] for k, v in rec["metrics"].items()}}
    if traced:
        out["traced"] = dict(sorted(traced.items()))
    traced_change = {}
    for name in sorted(set(traced_recs["parent"]) & set(traced_recs["change"])):
        p_seeds, c_seeds = traced_recs["parent"][name], traced_recs["change"][name]
        for seed in sorted(set(p_seeds) & set(c_seeds)):
            p = {k: v["value"] for k, v in p_seeds[seed]["metrics"].items()}
            c = {k: v["value"] for k, v in c_seeds[seed]["metrics"].items()}
            traced_change[f"{name}-s{seed}"] = {
                k: traced_delta(p.get(k), c.get(k)) for k in sorted(set(p) | set(c))}
    if traced_change:
        out["traced_change"] = traced_change
    environment = {}
    for side, untraced in (("parent", parent), ("change", change)):
        envs = [r["environment"] for recs in (untraced, traced_recs[side])
                for by_seed in recs.values() for r in by_seed.values()]
        if envs:
            environment[side] = side_environment(envs)
    if environment:
        out["environment"] = environment
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="parent's perfbench/.work/results")
    ap.add_argument("change", type=Path, help="change's perfbench/.work/results")
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    args = ap.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text(encoding="utf-8"))
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    if claim and claim not in [(w["name"], m["name"]) for w in benchmark["workloads"]
                               for m in benchmark["end_to_end"]]:
        print(f"error: {args.claim!r} names no workload and end-to-end metric",
              file=sys.stderr)
        return 2
    result = compare(args.parent, args.change, benchmark, claim)
    if not result["runs"]:
        print(f"error: no paired records in {args.parent} and {args.change}", file=sys.stderr)
        return 1
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    for name, metrics in result["end_to_end"].items():
        for metric, stats in metrics.items():
            print(f"{name:<18} {metric:<20} {stats['parent']['median']:>12.6g} -> "
                  f"{stats['change']['median']:>12.6g} ({stats['change_vs_parent_pct']:+.1f} %, "
                  f"{stats['change_better_pairs']} better)  {stats['verdict']}",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
