"""Run the benchmark over several seeds and report each metric's median,
quartiles and spread (quartile distance over median).

    python3 bench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                            [--out FILE]

Runs are sequential, one at a time, with the command and run length from
BENCHMARK.json.  A spread above a third of the metric's bound is flagged.
With --out, the table, the raw values and the environment (Python
version, CPU count, platform, seeds, and the checked-out git commit if
there is one) are written as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def commit() -> str:
    """The short hash of the checked-out commit, or "" outside git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "commit": commit(),
            "seeds": args.seeds,
            "run_seconds": bench["run_seconds"],
            "trace": args.trace,
        },
        "workloads": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        failed = attempted = 0
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        table = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "  <-- over a third of the bound" if bound and spread > bound / 3 else ""
            print(f"  {name:40s} median {med:.6g} {units[name]}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.3f}  bound {bound}{flag}")
            table[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                           "spread": spread, "values": vals}
        print(f"  failed {failed} of {attempted} answers")
        summary["workloads"][workload] = {"failed": failed, "attempted": attempted,
                                          "metrics": table}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
