#!/usr/bin/env python3
"""Runs the end-to-end benchmark many times and summarises the runs.

Run from the repository root (the command in BENCHMARK.json builds the
benchmark on first use):

  python3 bench_e2e/record.py spread [--runs 10] [--workloads a,b]
      Runs every workload --runs times, each with another seed, and prints
      for each end-to-end metric the quartile spread (Q3 - Q1) / median next
      to its bound; a spread above a third of the bound is flagged.

  python3 bench_e2e/record.py ledger [--runs 5] [--seed 1] [--out PATH]
      Records two agreement sets of --runs untraced runs per workload plus
      one traced run per workload each, alternating workloads, all with the
      same seed. Writes the traced per-layer ledger and both sets' medians
      to bench_e2e/BENCH_e2e.json and reports whether the sets agree: every
      end-to-end median within its bound and every work count identical.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Per-layer counts that must repeat exactly between the two agreement sets.
EXACT_COUNTS = [
    "split.iterations",
    "split.squares",
    "split.cells_folded",
    "split.words_tested",
    "merge.iterations",
    "merge.merges",
    "tiles.seam_edges",
    "tiles.stitch_merges",
    "tiles.stitch_iterations",
    "pipeline.allocs_per_call",
]


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(spec, workload, seed, trace):
    """One benchmark invocation: (metrics, context lines, attempted, failed)."""
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    context = dict(l[2:].split(" ", 1) for l in lines if l.startswith("# "))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"  {workload} seed={seed} trace={int(trace)} calls={result['attempted']} "
          f"failed={result['failed']}", file=sys.stderr)
    return metrics, context, result["attempted"], result["failed"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def cmd_spread(spec, args):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        runs = [run(spec, w, seed, False)[0] for seed in range(1, args.runs + 1)]
        print(f"{w}:")
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            s, med = spread(values)
            flag = "" if s < m["bound"] / 3 else "  <-- above bound/3"
            if m["name"] != "setup_s" and s >= m["bound"] / 3:
                ok = False
            print(f"  {m['name']:20s} median {med:12.6g}  spread {s:7.2%}  bound {m['bound']:.0%}{flag}")
    return 0 if ok else 1


def cmd_ledger(spec, args):
    workloads = [w["name"] for w in spec["workloads"]]
    sets = []
    context = {}
    for set_index in range(2):
        untraced = {w: [] for w in workloads}
        traced = {}
        failed = 0
        for _ in range(args.runs):
            for w in workloads:
                metrics, context, _, f = run(spec, w, args.seed, False)
                untraced[w].append(metrics)
                failed += f
        for w in workloads:
            traced[w], _, _, f = run(spec, w, args.seed, True)
            failed += f
        medians = {
            w: {m["name"]: statistics.median(r[m["name"]] for r in untraced[w])
                for m in spec["end_to_end"]}
            for w in workloads
        }
        sets.append({"end_to_end_medians": medians, "per_layer": traced, "failed": failed})

    a, b = sets
    disagreements = []
    for w in workloads:
        for m in spec["end_to_end"]:
            x, y = a["end_to_end_medians"][w][m["name"]], b["end_to_end_medians"][w][m["name"]]
            if abs(y - x) > m["bound"] * x:
                disagreements.append(f"{w} {m['name']}: {x:.6g} vs {y:.6g}")
        for name in EXACT_COUNTS:
            x, y = a["per_layer"][w][name], b["per_layer"][w][name]
            if x != y:
                disagreements.append(f"{w} {name}: {x} vs {y} (count)")

    doc = {
        "schema": "bench-e2e-v1",
        "host": {
            "nproc": int(context.get("host.nproc", 0)),
            "jobs": int(context.get("host.jobs", 0)),
            "commit": context.get("host.commit", "unknown"),
        },
        "run_seconds": spec["run_seconds"],
        "seed": args.seed,
        "runs_per_set": args.runs,
        "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
        "ledger": a["per_layer"],
        "agreement_sets": sets,
        "agree": not disagreements,
        "disagreements": disagreements,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
    for d in disagreements:
        print("disagree:", d)
    print(f"wrote {args.out}; sets agree: {not disagreements}")
    return 0 if not disagreements else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--workloads", default="")
    l = sub.add_parser("ledger")
    l.add_argument("--runs", type=int, default=5)
    l.add_argument("--seed", type=int, default=1)
    l.add_argument("--out", default="bench_e2e/BENCH_e2e.json")
    args = p.parse_args()
    spec = load_spec()
    return cmd_spread(spec, args) if args.cmd == "spread" else cmd_ledger(spec, args)


if __name__ == "__main__":
    sys.exit(main())
