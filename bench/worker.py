"""One child process of the analyze-d24 or growth-bigint workload.

Reads a job from stdin as JSON:

    {"workload": "analyze" | "growth", "trace": bool, "queries": [...],
     "warmup": [lo, hi], "passes": [[lo, hi], ...]}

where each [lo, hi] is a slice of the query list.  An analyze query is a
character ``[offset, values]``; a growth query is ``["upper", alpha, i]``,
``["expand", alpha, i]`` or ``["macaulay", h]``.

It imports ``acmchar``, runs the warm-up slice untimed and prints the
number of warm-up answers as its first line (run.py times this first
output: start-up plus one cold pass).  Then it times every pass and every
query (CPU time), printing one JSON line per pass with its time, latencies and
answers, so that answers are not held past their pass.  With ``trace`` the
first half of the passes runs plain, the tracer is installed, the warm-up
runs once more traced and uncounted, and the second half runs traced.
The last line holds the trace report and the peak RSS.  A query that raises,
while its inputs are built or while it runs, gets the answer
``{"error": "..."}``.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter, thread_time

import acmchar as ac


def analyze(gamma) -> str:
    """The library calls and JSON payload of ``acmchar analyze-codim3 --json``."""
    chk = ac.check_necessary(gamma, 3)
    dec = ac.decompose_codim3(gamma)
    payload = {
        "s0": chk.s0,
        "s1": ac.s1_general(gamma, 3),
        "r": dec.r,
        "decomposition": [p.to_json() for p in dec.parts],
        "bounds_ok": bool(ac.check_prop36_bounds(gamma, dec)),
        "integral_screen": bool(ac.integral_screen(gamma)),
    }
    if dec.r >= 1:
        payload["s1_from_decomposition"] = ac.s1_via_cor37(dec, chk.s0)
    return json.dumps(payload, sort_keys=True)


def prepare(workload: str, query):
    """A zero-argument call answering the query; inputs are built here,
    outside the timed region.  If building them raises, the call gives
    that error as its answer."""
    try:
        return build(workload, query)
    except Exception as exc:
        error = error_answer(exc)
        return lambda: error


def build(workload: str, query):
    if workload == "analyze":
        gamma = ac.IntFun(query[0], tuple(query[1]))
        return lambda: analyze(gamma)
    kind = query[0]
    if kind == "upper":
        return lambda: ac.upper(query[1], query[2])
    if kind == "expand":
        return lambda: [list(t) for t in ac.macaulay_expand(query[1], query[2]).terms]
    if kind == "macaulay":
        h = ac.IntFun(0, tuple(query[1]))
        return lambda: ac.is_macaulay(h)
    raise ValueError(f"unknown query kind {kind!r}")


def error_answer(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def answer(call):
    try:
        return call()
    except Exception as exc:  # a raised answer is reported, not fatal
        return error_answer(exc)


def timed_pass(calls):
    """The pass's wall time, and each call's thread CPU time.  Per call,
    wall time on a shared host also counts the moments the hypervisor
    takes the CPU away (steal), which then sets the p99."""
    answers, latencies = [], []
    start = perf_counter()
    for call in calls:
        t0 = thread_time()
        answers.append(answer(call))
        latencies.append(thread_time() - t0)
    return perf_counter() - start, latencies, answers


def peak_rss_kb() -> int:
    """This process's peak RSS (VmHWM).  ru_maxrss would also count the
    parent's RSS at fork."""
    with open("/proc/self/status") as f:
        return int(next(l for l in f if l.startswith("VmHWM:")).split()[1])


def main() -> int:
    job = json.load(sys.stdin)
    calls = [prepare(job["workload"], q) for q in job["queries"]]
    warmup = calls[slice(*job["warmup"])]
    for call in warmup:
        answer(call)
    print(len(warmup), flush=True)

    tracer = None
    traced_from = len(job["passes"]) // 2 if job["trace"] else len(job["passes"])
    for index, (lo, hi) in enumerate(job["passes"]):
        if index == traced_from:
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
            for call in warmup:
                answer(call)
            tracer.reset()
        seconds, latencies, answers = timed_pass(calls[lo:hi])
        print(json.dumps({"pass_s": seconds, "traced": tracer is not None,
                          "latency_s": latencies, "answers": answers}), flush=True)
    if tracer is not None:
        tracer.uninstall()
    print(json.dumps({"trace": tracer and tracer.report(),
                      "peak_rss_kb": peak_rss_kb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
