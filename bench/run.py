"""The acmchar benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every load comes from this one process running one child
process at a time, closed loop: the next call starts when the previous
one has returned.

Workloads (see bench/README.md for why each was chosen):

* ``enumerate-d32``: ``acmchar enumerate --max-degree 32 --json`` in a
  fresh process per call.  The seed is unused.
* ``analyze-d24``: the library calls of ``acmchar analyze-codim3`` over
  every nondegenerate codim-3 character of degree <= 24, in seed-shuffled
  order, after one untimed pass that warms the caches.
* ``growth-bigint``: seeded ``upper``, ``macaulay_expand`` and
  ``is_macaulay`` queries with big-int arguments, drawn afresh for each
  worker child; no query repeats within a child.

Each child does a fixed amount of work, and children are started until
``--seconds`` have passed (at least two).  Every answer is checked against the
independent oracle in ``oracle.py``; a wrong or raised answer counts as
failed.  With ``--trace 0`` the end-to-end metrics are reported, with
``--trace 1`` the per-layer metrics of ``layertrace.py``.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Without the package sources the script exits 2 and prints no
result.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import oracle
from layertrace import LAYERS, REPEAT_COUNTERS, REPORT_PREFIX

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PYTHON = sys.executable

SETUP_SAMPLES = 15         # least number of set-up samples per run
CHILD_TIMEOUT_S = 60.0
ENUM_DEGREE = 32
ANALYZE_DEGREE = 24
PASSES_PER_CHILD = 4       # timed passes per worker child (twice that traced)
MAX_M = 4096               # growth-bigint: alpha lies in [C(m,i), C(m+1,i))
M_LEVELS = 25              # log-spaced strata of m per index i
ALPHAS_PER_STRATUM = 2
H_TYPES = range(3, 21)
H_PER_TYPE = 16
H_LENGTHS = range(3, 11)   # h(0..length) is nonzero

# Like the console script `acmchar ARGS...`, and at exit writes the
# process's peak RSS (VmHWM) to stderr.  getrusage and wait4 are no use
# here: on Linux a child's ru_maxrss starts from its parent's RSS at fork.
CLI_MAIN = """import atexit, sys
def peak():
    with open("/proc/self/status") as f:
        sys.stderr.write(next(l for l in f if l.startswith("VmHWM:")))
atexit.register(peak)
from acmchar.cli import main
main()
"""


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


@dataclass
class Child:
    code: int
    wall_s: float
    first_s: float
    cpu_s: float     # user plus system CPU time of the child
    out: bytes
    err: bytes


def spawn(argv: list[str], stdin: bytes = b"") -> Child:
    """Run one child to completion, timing its first stdout byte and its
    exit, and taking its CPU time from wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, bufsize=0,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        view = memoryview(stdin)  # a worker reads all of stdin before writing
        try:
            while view:
                view = view[os.write(proc.stdin.fileno(), view):]
        except BrokenPipeError:
            pass
        proc.stdin.close()
        out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
        chunks = {out_fd: [], err_fd: []}
        first = None
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                left = start + CHILD_TIMEOUT_S - time.perf_counter()
                if left <= 0:
                    raise BenchError(f"child {argv[1:3]} ran over {CHILD_TIMEOUT_S} s")
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if not data:
                        sel.unregister(key.fd)
                        continue
                    if first is None and key.fd == out_fd:
                        first = time.perf_counter() - start
                    chunks[key.fd].append(data)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    # a child that printed nothing has its first output at exit
    return Child(proc.returncode, wall, wall if first is None else first,
                 usage.ru_utime + usage.ru_stime,
                 b"".join(chunks[out_fd]), b"".join(chunks[err_fd]))


def setup_seconds() -> float:
    """Time for a fresh interpreter to import acmchar.cli."""
    child = spawn([PYTHON, "-c", "import acmchar.cli"])
    if child.code != 0:
        raise BenchError("cannot import acmchar.cli: "
                         + child.err.decode(errors="replace"))
    return child.wall_s


@dataclass
class Tally:
    """What one run measured."""
    setup_s: list = field(default_factory=list)
    pass_s: list = field(default_factory=list)       # untraced timed passes
    traced_pass_s: list = field(default_factory=list)
    first_s: list = field(default_factory=list)
    latency_s: list = field(default_factory=list)    # one list per group
    cli_cpu_s: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    reports: list = field(default_factory=list)      # trace reports
    traced_units: int = 0                            # passes the reports cover
    children: int = 0
    attempted: int = 0
    failed: int = 0
    faults: list = field(default_factory=list)

    def record(self, fault: str | None) -> None:
        self.attempted += 1
        if fault is not None:
            self.failed += 1
            if len(self.faults) < 5:
                self.faults.append(fault)


def checked(check) -> str | None:
    """Run an oracle check; an answer too malformed to check is a fault."""
    try:
        return check()
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"


def children(tally: Tally, seconds: float, trace: bool):
    """Yield child indices until the run's time is up, at least two (a
    percentile needs two samples; a traced CLI run alternates plain and
    traced calls).
    Untraced, a set-up sample precedes each child, so that the samples
    spread over the run, and at least SETUP_SAMPLES are taken."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index < 2 or time.perf_counter() < deadline:
        if not trace:
            tally.setup_s.append(setup_seconds())
        yield index
        index += 1
    while not trace and len(tally.setup_s) < SETUP_SAMPLES:
        tally.setup_s.append(setup_seconds())


# -- enumerate-d32 ----------------------------------------------------------


def run_enumerate(seed: int, seconds: float, trace: bool) -> Tally:
    expected = oracle.curve_characters(ENUM_DEGREE)
    verified = set()
    args = ["enumerate", "--max-degree", str(ENUM_DEGREE), "--json"]
    tally = Tally()
    for index in children(tally, seconds, trace):
        traced = trace and index % 2 == 1
        argv = ([PYTHON, os.path.join(HERE, "layertrace.py"), *args] if traced
                else [PYTHON, "-c", CLI_MAIN, *args])
        child = spawn(argv)
        tally.children += 1
        digest = hashlib.sha256(child.out).digest()
        if child.code != 0:
            fault = f"exit {child.code}: {child.err.decode(errors='replace')[-300:]}"
        elif digest in verified:
            fault = None
        else:
            fault = checked(lambda: "; ".join(
                oracle.enumeration_faults(json.loads(child.out), expected)[:3]) or None)
            if fault is None:
                verified.add(digest)
        tally.record(fault)
        if traced:
            tally.traced_pass_s.append(child.wall_s)
            tally.reports.append(trace_report(child.err))
            tally.traced_units += 1
        else:
            tally.pass_s.append(child.wall_s)
            tally.cli_cpu_s.append(child.cpu_s)
            tally.first_s.append(child.first_s)
            tally.rss_mb.append(reported_peak_kb(child.err) / 1024)
    tally.latency_s = [tally.cli_cpu_s]  # one operation per call: one group
    return tally


def reported_peak_kb(stderr: bytes) -> int:
    """The VmHWM line that CLI_MAIN writes at exit, in kB."""
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise BenchError("CLI child reported no peak RSS")


def trace_report(stderr: bytes) -> dict:
    lines = stderr.decode().splitlines()
    if not lines or not lines[-1].startswith(REPORT_PREFIX):
        raise BenchError("traced CLI gave no trace report")
    return json.loads(lines[-1][len(REPORT_PREFIX):])


# -- worker workloads ---------------------------------------------------------


def run_workers(kind: str, seconds: float, trace: bool, make_job,
                fault_of) -> Tally:
    """Start worker children until the time is up.  make_job() returns
    (queries, refs, slices): the queries sent to the worker, the reference
    for each query that fault_of(ref, answer) checks, and [lo, hi] slices
    of the queries, the first for the warm-up and one per timed pass."""
    tally = Tally()
    for _ in children(tally, seconds, trace):
        queries, refs, slices = make_job()
        job = {"workload": kind, "trace": trace, "queries": queries,
               "warmup": slices[0], "passes": slices[1:]}
        child = spawn([PYTHON, os.path.join(HERE, "worker.py")],
                      json.dumps(job).encode())
        if child.code != 0:
            raise BenchError("worker failed: " + child.err.decode(errors="replace"))
        tally.children += 1
        lines = child.out.splitlines()
        latencies = []
        for (lo, hi), line in zip(job["passes"], lines[1:-1]):
            result = json.loads(line)
            for ref, answer in zip(refs[lo:hi], result["answers"]):
                tally.record(f"raised {answer['error']}" if isinstance(answer, dict)
                             else checked(lambda: fault_of(ref, answer)))
            if result["traced"]:
                tally.traced_pass_s.append(result["pass_s"])
            else:
                tally.pass_s.append(result["pass_s"])
                latencies.extend(result["latency_s"])
        if trace:
            tally.reports.append(json.loads(lines[-1])["trace"])
            tally.traced_units += len(job["passes"]) // 2
        else:
            tally.first_s.append(child.first_s)
            tally.rss_mb.append(json.loads(lines[-1])["peak_rss_kb"] / 1024)
            tally.latency_s.append(latencies)
    return tally


def run_analyze(seed: int, seconds: float, trace: bool) -> Tally:
    chars = sorted(oracle.curve_characters(ANALYZE_DEGREE))
    random.Random(seed).shuffle(chars)
    queries = [[offset, list(values)] for offset, values in chars]
    count = PASSES_PER_CHILD * (2 if trace else 1)
    verified = {}

    def fault_of(gamma, answer):
        if verified.get(gamma) == answer:
            return None
        fault = oracle.analysis_fault(gamma, json.loads(answer))
        if fault is None:
            verified[gamma] = answer
        return fault and f"{gamma}: {fault}"

    slices = [[0, len(queries)]] * (count + 1)
    return run_workers("analyze", seconds, trace,
                       lambda: (queries, chars, slices), fault_of)


class GrowthQueries:
    """Seeded growth queries for one worker child, none repeated within it.

    Each batch holds, for every index i in 1..10 and each of M_LEVELS
    log-spaced strata of m up to MAX_M, ALPHAS_PER_STRATUM alphas in
    [C(m,i), C(m+1,i))
    asked as upper(alpha, i) and macaulay_expand(alpha, i); and for every
    type in H_TYPES, H_PER_TYPE near-maximal h-vectors of random length,
    half of them with a planted growth violation.  Stratifying keeps the
    cost of a batch steady while m stays log-uniform overall.  A stratum
    whose alphas are used up (small m with i = 1) gives way to the next.
    A child starts with empty caches, so queries need to be distinct only
    within its job; drawing them per child keeps every child's work the
    same however many children ran before it.
    """

    def __init__(self, seed: str):
        self.rng = random.Random(seed)
        self.used = set()

    def _alpha(self, i: int, level: int) -> int:
        rng = self.rng
        lo = math.log(i)
        width = (math.log(MAX_M) - lo) / M_LEVELS
        for attempt in range(10 * M_LEVELS):
            stratum = min(level + attempt // 4, M_LEVELS - 1)
            m = max(i, int(math.exp(lo + width * (stratum + rng.random()))))
            alpha = rng.randrange(math.comb(m, i), math.comb(m + 1, i))
            if ("a", alpha, i) not in self.used:
                self.used.add(("a", alpha, i))
                return alpha
        raise BenchError(f"no unused alpha left for i = {i}")

    def _h_vector(self, type_a: int, planted: bool) -> list[int]:
        rng = self.rng
        for _ in range(1000):
            length = rng.choice(H_LENGTHS)
            bad_at = rng.randint(1, length - 1) if planted else 0
            h = [1, type_a]
            for n in range(1, length):
                bound = oracle.upper(h[n], n)
                slack = rng.randrange(1 + bound // 8)
                h.append(bound + 1 + slack if n == bad_at else bound - slack)
            if ("h", tuple(h)) not in self.used:
                self.used.add(("h", tuple(h)))
                return h
        raise BenchError(f"no unused h-vector left for type {type_a}")

    def batch(self) -> list[list]:
        """Queries; a macaulay query carries its planted flag third."""
        rng = self.rng
        out = []
        for i in range(1, 11):
            for level in range(M_LEVELS):
                for _ in range(ALPHAS_PER_STRATUM):
                    alpha = self._alpha(i, level)
                    out += [["upper", alpha, i], ["expand", alpha, i]]
        for type_a in H_TYPES:
            for k in range(H_PER_TYPE):
                planted = k % 2 == 1
                out.append(["macaulay", self._h_vector(type_a, planted), planted])
        rng.shuffle(out)
        return out


def run_growth(seed: int, seconds: float, trace: bool) -> Tally:
    count = PASSES_PER_CHILD * (2 if trace else 1)
    jobs = itertools.count()

    def make_job():
        queries = GrowthQueries(f"{seed}/{next(jobs)}")
        batches = [queries.batch() for _ in range(count + 1)]
        refs = [q for batch in batches for q in batch]
        slices, lo = [], 0
        for batch in batches:
            slices.append([lo, lo + len(batch)])
            lo += len(batch)
        # the planted verdict stays in this process
        return [q[:2] if q[0] == "macaulay" else q for q in refs], refs, slices

    return run_workers("growth", seconds, trace, make_job, oracle.growth_fault)


WORKLOADS = {
    "enumerate-d32": run_enumerate,
    "analyze-d24": run_analyze,
    "growth-bigint": run_growth,
}


# -- metrics ------------------------------------------------------------------


def end_to_end(tally: Tally) -> dict:
    """Latencies are CPU times: of each call in a worker, or of each CLI
    process.  Percentiles are taken per group of operations (one worker
    child, or all CLI calls of the run), then the median over groups."""
    groups = tally.latency_s
    return {
        "setup_s": (statistics.median(tally.setup_s), "s"),
        "wall_s": (statistics.median(tally.pass_s), "s"),
        "first_output_s": (statistics.median(tally.first_s), "s"),
        "latency_p50_us": (statistics.median(
            statistics.median(g) for g in groups) * 1e6, "us"),
        "latency_p99_us": (statistics.median(
            statistics.quantiles(g, n=100)[98] for g in groups) * 1e6, "us"),
        "peak_rss_mb": (statistics.median(tally.rss_mb), "MB"),
    }


def per_layer(tally: Tally) -> dict:
    layers = {layer: [0, 0.0, 0] for layer in LAYERS}
    repeats = {counter: [0, 0] for counter in REPEAT_COUNTERS.values()}
    for report in tally.reports:
        for name, rec in report["functions"].items():
            agg = layers[name.split(".")[0]]
            for k in range(3):
                agg[k] += rec[k]
        for counter, (calls, repeated) in report["repeats"].items():
            repeats[counter][0] += calls
            repeats[counter][1] += repeated
    units = tally.traced_units
    out = {}
    for layer, (calls, self_s, errors) in layers.items():
        out[f"{layer}.calls"] = (calls / units, "count")
        out[f"{layer}.self_s"] = (self_s / units, "s")
        out[f"{layer}.errors"] = (errors, "count")
    for counter, (calls, repeated) in repeats.items():
        out[f"{counter}.repeat_ratio"] = (repeated / calls if calls else 0.0, "ratio")
    out["trace.overhead_ratio"] = (statistics.median(tally.traced_pass_s)
                                   / statistics.median(tally.pass_s), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "acmchar", "__init__.py")):
        print(f"error: no acmchar sources under {SRC}", file=sys.stderr)
        return 2
    try:
        tally = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(tally) if args.trace else end_to_end(tally)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.children} child processes, {len(tally.pass_s)} plain and "
          f"{len(tally.traced_pass_s)} traced timed passes; latency "
          f"percentiles over {[len(g) for g in tally.latency_s]} plain "
          f"operations per group")
    print(f"error_rate = {tally.failed / tally.attempted} "
          f"({tally.failed} of {tally.attempted} answers wrong or raised)")
    for fault in tally.faults:
        print(f"  fault: {fault}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
