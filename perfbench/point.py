"""Record one point of the benchmark trajectory.

    python3 perfbench/point.py --label seed --seeds 1-10

Runs every workload of BENCHMARK.json once per seed untraced and once
traced (with the first seed), then writes ``perfbench/points/<label>.json``:
provenance (git SHA, nproc, Python, NumPy, BLAS and its thread setting),
each end-to-end and workload-named metric as median and quartiles over the
seeds, the per-layer metrics and seed-table rows of the traced run, and the
spread of each end-to-end metric (q3 - q1 over the median) next to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def quartile_entry(values, unit):
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "unit": unit,
            "spread": (q3 - q1) / median if median else None}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        return result, json.load(fh)


def git_sha():
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {"label": args.label, "git_sha": git_sha(), "seconds": bench["run_seconds"],
             "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        values, named = {}, {}
        for seed in args.seeds:
            result, report = run(workload, seed, bench["run_seconds"], 0)
            point["provenance"] = report["provenance"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, ([], metric["unit"]))[0].append(metric["value"])
            for name, entry in report["named"].items():
                named.setdefault(name, ([], entry["unit"]))[0].append(
                    statistics.median(entry["values"]))
            print(workload, seed, json.dumps({k: round(v["value"], 4)
                                              for k, v in result["metrics"].items()}),
                  flush=True)
        traced, trace_report = run(workload, args.seeds[0], bench["run_seconds"], 1)
        end_to_end = {k: quartile_entry(v, u) for k, (v, u) in values.items()}
        for name, entry in end_to_end.items():
            entry["bound"] = bounds[name]
            print(f"  {workload} {name}: median {entry['median']:.4f} "
                  f"spread {entry['spread']:.3f} (bound {bounds[name]})", flush=True)
        point["workloads"][workload] = {
            "seeds": args.seeds,
            "end_to_end": end_to_end,
            "named": {k: quartile_entry(v, u) for k, (v, u) in named.items()},
            "trace_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "seed_table_ms": trace_report["seed_table"],
        }
    out = HERE / "points" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
