"""Small-size smoke run of the three workloads.

    python3 bench/smoke.py

Runs each workload at a reduced size (degree 12 instead of 32 and 24,
smaller growth batches, one child), plain and traced, and requires that
every answer passes the oracle and that the traced run reports every
per-layer metric.  Then it plants wrong answers into real outputs and
requires the oracle to reject each one.  Exits 0 when all checks hold.
"""
from __future__ import annotations

import copy
import json
import os
import sys

import oracle
import run

SMALL = {"ENUM_DEGREE": 12, "ANALYZE_DEGREE": 12, "PASSES_PER_CHILD": 1,
         "M_LEVELS": 4, "ALPHAS_PER_STRATUM": 1, "H_PER_TYPE": 2}


def check(label: str, ok: bool) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return ok


def workloads_pass() -> bool:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        per_layer = {m["name"] for m in json.load(f)["per_layer"]}
    ok = True
    for name, fn in run.WORKLOADS.items():
        for trace in (False, True):
            tally = fn(1, 0.0, trace)
            ok &= check(f"{name} trace={int(trace)}: {tally.attempted} answers, "
                        f"{tally.failed} failed {tally.faults}",
                        tally.failed == 0 and tally.attempted > 0)
            if trace:
                ok &= check(f"{name}: every per-layer metric reported",
                            set(run.per_layer(tally)) == per_layer)
    return ok


def enumeration_plants() -> bool:
    child = run.spawn([run.PYTHON, "-c", run.CLI_MAIN, "enumerate",
                       "--max-degree", str(run.ENUM_DEGREE), "--json"])
    payload = json.loads(child.out)
    expected = oracle.curve_characters(run.ENUM_DEGREE)
    ok = check("enumerate output passes", not oracle.enumeration_faults(payload, expected))

    wrong_genus = copy.deepcopy(payload)
    wrong_genus["pairs"][0]["g"] += 1
    dropped = copy.deepcopy(payload)
    dropped["pairs"][-1]["witnesses"].pop()
    moved = copy.deepcopy(payload)
    moved["pairs"].append(moved["beyond_paper"].pop())
    bent = copy.deepcopy(payload)
    bent["pairs"][0]["witnesses"][0][0]["values"][-1] += 1
    for label, bad in [("wrong genus", wrong_genus), ("missing witness", dropped),
                       ("(10,21) moved into pairs", moved),
                       ("non-character component", bent)]:
        ok &= check(f"enumerate plant caught: {label}",
                    bool(oracle.enumeration_faults(bad, expected)))
    return ok


def worker_answers(kind: str, queries: list) -> list:
    job = {"workload": kind, "trace": False, "queries": queries,
           "warmup": [0, 1], "passes": [[0, len(queries)]]}
    child = run.spawn([run.PYTHON, os.path.join(run.HERE, "worker.py")],
                      json.dumps(job).encode())
    return json.loads(child.out.splitlines()[1])["answers"]


def analysis_plants() -> bool:
    chars = sorted(oracle.curve_characters(run.ANALYZE_DEGREE))
    answers = worker_answers("analyze", [[o, list(v)] for o, v in chars])
    ok = check("analyze answers pass", not any(
        oracle.analysis_fault(g, json.loads(a)) for g, a in zip(chars, answers)))
    index = next(k for k, a in enumerate(answers) if json.loads(a)["r"] >= 1)
    good = json.loads(answers[index])
    swapped = dict(good, decomposition=good["decomposition"][::-1])
    shifted = copy.deepcopy(good)
    shifted["decomposition"][-1]["offset"] += 1
    off_s1 = dict(good, s1=good["s1"] + 1)
    off_cor37 = dict(good, s1_from_decomposition=good["s1_from_decomposition"] + 1)
    flipped = dict(good, integral_screen=not good["integral_screen"])
    for label, bad in [("components swapped", swapped),
                       ("component shifted", shifted), ("wrong s1", off_s1),
                       ("wrong s1 from the decomposition", off_cor37),
                       ("integral screen flipped", flipped)]:
        ok &= check(f"analyze plant caught: {label}",
                    oracle.analysis_fault(chars[index], bad) is not None)
    return ok


def growth_plants() -> bool:
    queries = run.GrowthQueries("7").batch()
    answers = worker_answers("growth", [q[:2] if q[0] == "macaulay" else q
                                        for q in queries])
    ok = check("growth answers pass", not any(
        oracle.growth_fault(q, a) for q, a in zip(queries, answers)))
    planted = 0
    for q, a in zip(queries, answers):
        if q[0] == "upper":
            bad = a + 1
        elif q[0] == "expand":
            bad = [[m + 1, k] for m, k in a]
        else:
            bad = not a
        planted += oracle.growth_fault(q, bad) is not None
    ok &= check(f"growth plants caught: {planted} of {len(queries)}",
                planted == len(queries))
    # a query whose inputs cannot be built is an error answer, not a crash
    [unbuildable] = worker_answers("growth", [["no-such-kind", 1, 1]])
    ok &= check(f"unbuildable query answered: {unbuildable}",
                isinstance(unbuildable, dict) and "error" in unbuildable)
    return ok


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "acmchar", "__init__.py")):
        print(f"error: no acmchar sources under {run.SRC}", file=sys.stderr)
        return 2
    for name, value in SMALL.items():
        setattr(run, name, value)
    results = [workloads_pass(), enumeration_plants(), analysis_plants(),
               growth_plants()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
