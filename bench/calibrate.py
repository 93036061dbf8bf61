#!/usr/bin/env python3
"""Calibrate the benchmark: run every workload repeatedly, untraced and
traced, and write the runs, their spreads, suggested bounds and the
per-layer breakdown as one JSON file.

    python3 bench/calibrate.py --out bench/results/DATE.json

Two passes of RUNS untraced runs per workload use the same seeds, so
each seed's output digest must repeat. Between the passes, one traced
run gives the per-layer breakdown; an untraced run of the same seed
just before it gives the tracing overhead without the machine's drift
between passes. A run that fails a check is kept, with its violations,
and counted against the workload. Run it on an otherwise idle machine,
from the repository root.
"""
import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUNS = 10  # untraced runs per workload and pass
FIRST_SEED = 11
MAX_BOUND = 0.25  # the largest regression bound BENCHMARK.json may hold


def run(workload, seed, seconds, trace, scratch):
    out = os.path.join(scratch, f"{workload}-{seed}-t{trace}.json")
    if os.path.exists(out):
        os.remove(out)
    t0 = time.monotonic()
    p = subprocess.run(
        ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", out],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if not os.path.exists(out):
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}, no report\n{p.stderr}")
    with open(out) as f:
        rep = json.load(f)
    os.remove(out)
    rep["wall_s"] = wall
    print(f"{workload:9s} seed {seed} trace {trace}: correct={rep['correct']} "
          f"steal={rep['checks'].get('cpu_steal_share', 0):.3f} "
          + " ".join(f"{k}={v:.4g}" for k, v in sorted(rep["metrics"].items()) if v),
          file=sys.stderr, flush=True)
    return rep


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr_over_median": (q3 - q1) / med,
        "range_over_median": (max(values) - min(values)) / med,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = [m["name"] for m in bench["end_to_end"]]
    seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
    scratch = os.path.join(ROOT, ".bench_build", "calibrate")
    os.makedirs(scratch, exist_ok=True)

    result = {
        "date": datetime.date.today().isoformat(),
        "machine": {
            "nproc": os.cpu_count(), "kernel": platform.release(),
            "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip(),
        },
        "run_seconds": seconds, "seeds": seeds, "workloads": {},
        # Pairs whose spread needs a bound above MAX_BOUND: the gate
        # cannot resolve a change of MAX_BOUND there.
        "unresolved": [],
    }
    bounds = {}
    for wl in workloads:
        passes = [[run(wl, s, seconds, 0, scratch) for s in seeds]]
        untraced = run(wl, seeds[0], seconds, 0, scratch)
        traced = run(wl, seeds[0], seconds, 1, scratch)
        passes.append([run(wl, s, seconds, 0, scratch) for s in seeds])
        digests = [[r["checks"]["output_digest"] for r in p] for p in passes]
        w = {
            "runs": [[{"seed": r["seed"], "wall_s": r["wall_s"], "correct": r["correct"], "attempted": r["attempted"],
                       "failed": r["failed"], "violations": r.get("violations", []),
                       "metrics": r["metrics"], "checks": r["checks"]}
                      for r in p] for p in passes],
            "digests_repeat": digests[0] == digests[1],
            "steal_share_max": [max(r["checks"].get("cpu_steal_share", 0) for r in p) for p in passes],
            "incorrect_runs": sum(not r["correct"] or r["failed"] > 0 for p in passes for r in p),
            "metrics": {},
            "traced": {"seed": traced["seed"], "correct": traced["correct"],
                       "metrics": traced["metrics"], "checks": traced["checks"]},
            "tracing_overhead": {},
        }
        for m in e2e:
            stats = [spread([r["metrics"][m] for r in p]) for p in passes]
            # max(5%, 1.5 x the wider pass's range over its median), and
            # the contract's cap on it.
            wanted = max(0.05, 1.5 * max(s["range_over_median"] for s in stats))
            bound = min(MAX_BOUND, wanted)
            bounds[m] = max(bounds.get(m, 0), bound)
            widest_iqr = max(s["iqr_over_median"] for s in stats)
            # How far one seed's two runs lie apart, over the median: near
            # the quartile spread, the spread is the machine's drift between
            # runs, not the seeds, and longer runs would not narrow it.
            gaps = [abs(b["metrics"][m] - a["metrics"][m]) for a, b in zip(*passes)]
            w["metrics"][m] = {
                "pass1": stats[0], "pass2": stats[1],
                "median_shift": stats[1]["median"] / stats[0]["median"] - 1,
                "same_seed_gap_over_median": statistics.median(gaps) / stats[0]["median"],
                "wanted_bound": wanted, "suggested_bound": bound,
                "iqr_within_bound": widest_iqr < bound,
                "iqr_within_third_of_bound": widest_iqr < bound / 3,
            }
            if wanted > MAX_BOUND and m != "setup_s":
                result["unresolved"].append({"workload": wl, "metric": m, "wanted_bound": wanted})
        for m in ("latency_p50_ms", "throughput_per_s"):
            w["tracing_overhead"][m] = {
                "untraced": untraced["metrics"][m],
                "traced": traced["metrics"]["traced." + m],
                "change": traced["metrics"]["traced." + m] / untraced["metrics"][m] - 1,
            }
        result["workloads"][wl] = w
    bounds["setup_s"] = max(bounds.values())
    result["suggested_bounds"] = bounds
    # Checking the benchmark takes 4 + 22 x (workloads) runs, builds aside.
    walls = [statistics.median(r["wall_s"] for p in w["runs"] for r in p)
             for w in result["workloads"].values()]
    result["check_runs_estimate_s"] = 4 * max(walls) + 22 * sum(walls)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(json.dumps({"bounds": bounds, "unresolved": result["unresolved"],
                      "check_runs_estimate_s": result["check_runs_estimate_s"]}, indent=1))


if __name__ == "__main__":
    main()
