"""Closed-loop benchmark of the lscompile public API.

    python3 perfbench/run.py --workload NAME [--seed N|heldout]
                             [--seconds S] [--trace 0|1]

One job in flight and no threads: the next job starts only after the
previous one has finished.  A run starts `WORKERS` fresh worker
processes one after the other.  Each sets up (import, inputs, warm-up)
and repeats the workload's job list in whole passes for its share of
`--seconds`.  After every job it times `reference()`, a fixed piece of
pure-Python work, and every time it reports is scaled by how fast the
machine ran that reference.  Every output is checked.  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the line before it holds the per-job fingerprints and
details.  `--trace 0` reports the end-to-end metrics; `--trace 1`
alternates untraced and traced passes in each worker and reports the
per-layer metrics and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run is several fresh worker processes in turn, so that set-up is
# timed several times and the outputs are compared across hash seeds.
WORKERS = 4
# The speed of a shared 2-core machine drifts by up to a factor of two,
# in phases of seconds to minutes that cover whole runs.  Each worker
# therefore times `reference()` after every job, and every time it
# reports is multiplied by REFERENCE_S over the median reference time of
# that worker: times are given for a machine on which the reference
# takes REFERENCE_S seconds (a 2-core 2.0 GHz Xeon VM takes 7 to 12 ms,
# depending on the phase).  A job's time is the median of its scaled
# samples.
REFERENCE_S = 0.010
RUN_LIMIT_S = 170          # all workers of a run end within this time
# numpy's BLAS would otherwise start a thread per core for the dense
# oracle's matrix products; on a shared 2-core machine those threads
# wait on each other and on other tenants, and a 6-qubit oracle job
# then takes two to three times as long, at random.  The workers run
# one job at a time on one thread.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("gates_loose", "pbc_spc_sweep", "small_auto_verify")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", default="0",
                    help="workload seed, or 'heldout' for the held-out seed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed != "heldout":
        try:
            int(args.seed)
        except ValueError:
            ap.error(f"--seed must be an integer or 'heldout', not {args.seed!r}")
    return args


def reference() -> float:
    """Seconds taken by a fixed loop of pure-Python dict and integer work.
    It shares no code with the program, so only the machine moves it.  Of
    the loops tried (this one, one of tuples, sets and a sort, and one of
    attribute lookups on small objects), its time followed the job times
    most closely through the machine's speed phases."""
    t0 = perf_counter()
    counts = {}
    for i in range(40000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    return perf_counter() - t0


def setup(workload: str, seed: int) -> list:
    """Import the program, generate the inputs and run the warm-up job."""
    import workloads
    jobs = workloads.WORKLOADS[workload](seed)
    warm = workloads.WARMUP[workload]()
    errors = workloads.check(warm, workloads.execute(warm))
    if errors:
        raise RuntimeError(f"warm-up job failed: {errors[0]}")
    return jobs


def run_pass(jobs: list, refs: list, tracer=None) -> list:
    """Run every job once, timing `reference()` into `refs` after each."""
    import workloads
    out = []
    for job in jobs:
        span = tracer.span if tracer else None
        if tracer:
            tracer.job = job.name
        t0 = perf_counter()
        with span("job") if span else nullcontext():
            done = workloads.execute(job, span)
        dt = perf_counter() - t0
        refs.append(reference())
        out.append({
            "name": job.name, "seconds": dt,
            "ops": len(done.result.corrected.ops) if done.error is None else 0,
            "fingerprint": workloads.fingerprint(job, done),
            "counts": workloads.counts(job, done),
            "errors": workloads.check(job, done)})
    return out


def worker(workload: str, seed: int, budget: float, trace: int) -> int:
    """Set up, run whole passes for about `budget` seconds and print
    everything measured as JSON.  A pass is started only if at least half
    of it, going by the last pass, fits into the budget, so that a worker
    takes about `budget` seconds on average.  The pass count may differ
    between runs; a median over the samples does not drift with it.  A
    traced run alternates untraced and traced passes, at least one of
    each."""
    t0 = perf_counter()
    jobs = setup(workload, seed)
    setup_s = perf_counter() - t0
    import spans
    out, refs = [], []
    start = perf_counter()
    while True:
        p0 = perf_counter()
        tracer = spans.Tracer() if trace and len(out) % 2 == 1 else None
        with spans.installed(tracer) if tracer else nullcontext():
            runs = run_pass(jobs, refs, tracer)
        out.append({"tracer": tracer.summary() if tracer else None,
                    "jobs": runs})
        now = perf_counter()
        if len(out) >= 1 + trace and now - start + (now - p0) / 2 > budget:
            break
    print(json.dumps({"setup_s": setup_s,
                      "reference_s": statistics.median(refs), "passes": out}))
    return 0


def run_worker(args, seed: int, budget: float, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--worker",
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(budget), "--trace", str(args.trace)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                         env=dict(os.environ, **SINGLE_THREADED),
                         timeout=max(1.0, deadline - perf_counter()))
    w = json.loads(out.stdout)
    w["scale"] = REFERENCE_S / w["reference_s"]
    return w


def tail(times: list) -> tuple:
    """The highest percentile with at least ten jobs beyond it (nearest
    rank), or the median below 20 jobs; returns (percentile, value)."""
    xs = sorted(times)
    n = len(xs)
    if n < 20:
        return 50, statistics.median(xs)
    p = 100 * (n - 10) // n
    return p, xs[math.ceil(p * n / 100) - 1]


def median_times(samples: list) -> list:
    """Per job, the median of its scaled times; `samples` holds
    (one pass's job records, that worker's scale) pairs."""
    return [statistics.median(runs[i]["seconds"] * k for runs, k in samples)
            for i in range(len(samples[0][0]))]


def untraced(workers: list) -> list:
    return [(p["jobs"], w["scale"]) for w in workers for p in w["passes"]
            if p["tracer"] is None]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def end_to_end(workers, failed, attempted) -> tuple:
    first = workers[0]["passes"][0]["jobs"]
    times = median_times(untraced(workers))
    p9 = [r["fingerprint"]["p_total"]["9"] for r in first
          if "p_total" in r["fingerprint"]]
    pct, tail_s = tail(times)
    metrics = {
        "ops_per_s": (sum(r["ops"] for r in first) / sum(times), "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(w["setup_s"] * w["scale"]
                                      for w in workers), "s"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        "logical_clocks": (sum(r["fingerprint"].get("total_clocks", 0)
                               for r in first), "clocks"),
        "ler_p_geomean": (
            math.exp(statistics.fmean(math.log(p) for p in p9)) if p9 else 0.0,
            "prob"),
        "board_tiles": (sum(r["counts"].get("board.tiles", 0)
                            for r in first), "tiles"),
        "ok_frac": (1 - failed / attempted, "ratio"),
    }
    return metrics, {"job_s_tail": {"percentile": pct, "samples": len(times)},
                     "job_s": {r["name"]: t for r, t in zip(first, times)}}


def per_layer(tracer: dict, runs: list, scale: float) -> dict:
    c = Counter()
    for r in runs:
        c.update(r["counts"])
    t, own = (Counter({k: v * scale for k, v in tracer[key].items()})
              for key in ("total", "self_time"))
    calls, fails = Counter(tracer["calls"]), Counter(tracer["fails"])
    ops = sum(r["ops"] for r in runs)
    bus_calls = calls["board.bus_patches"]
    bus_fail = fails["board.bus_patches"]
    s, n = "s", "count"
    return {
        "transpiler.s": (t["transpiler"], s),
        "transpiler.gates_in": (c["transpiler.gates_in"], n),
        "transpiler.ops_out": (c["transpiler.ops_out"], n),
        "pauli.conjugate_past_calls": (calls["pauli.conjugate_past"], n),
        "pdag.s": (t["pdag"], s),
        "pdag.nodes": (c["pdag.nodes"], n),
        "layout_search.s": (t["layout_search"], s),
        "layout_search.self_s": (own["layout_search"], s),
        "layout_search.boards": (calls["layout_search.boards"], n),
        "layout_search.scored": (calls["layout_search.scored"], n),
        "mapping.s": (t["mapping"], s),
        "ysynth.s": (t["ysynth"], s),
        "ysynth.ops_in": (c["ysynth.ops_in"], n),
        "ysynth.ops_out": (c["ysynth.ops_out"], n),
        "ysynth.y_blocked": (c["ysynth.y_blocked"], n),
        "pipeline.corrections_s": (t["pipeline.corrections"], s),
        "pipeline.corrections_added": (c["pipeline.corrections_added"], n),
        "scheduler.s": (t["scheduler"], s),
        "scheduler.self_s": (own["scheduler"], s),
        "scheduler.ops_per_s": (_ratio(ops, t["scheduler"]), "1/s"),
        "scheduler.instructions": (c["scheduler.instructions"], n),
        "scheduler.measures": (c["scheduler.measures"], n),
        "scheduler.moves": (c["scheduler.moves"], n),
        "scheduler.rotates": (c["scheduler.rotates"], n),
        "scheduler.measure_share": (
            _ratio(c["scheduler.measures"], c["scheduler.instructions"]),
            "ratio"),
        "scheduler.mean_bus_tiles": (
            _ratio(c["scheduler.bus_tiles"], c["scheduler.measures"]),
            "tiles"),
        "scheduler.validate_s": (t["scheduler.validate"], s),
        "board.a_component_calls": (calls["board.a_component"], n),
        "board.a_component_s": (t["board.a_component"], s),
        "board.bus_patches_calls": (bus_calls, n),
        "board.bus_patches_s": (t["board.bus_patches"], s),
        "board.bus_patches_fail": (bus_fail, n),
        "board.bus_success_ratio": (
            _ratio(bus_calls - bus_fail, bus_calls), "ratio"),
        "board.copy_calls": (calls["board.copy"], n),
        "board.mutations": (calls["board.mutations"], n),
        "ler.s": (t["ler"], s),
        "ler.slices": (c["ler.slices"], n),
        "ler.slices_per_s": (_ratio(c["ler.slices"], t["ler"]), "1/s"),
        "oracle.s": (t["oracle"], s),
        "oracle.checks": (c["oracle.checks"], n),
        "oracle.mismatches": (c["oracle.mismatches"], n),
    }


def traced_metrics(workers) -> dict:
    """Per-layer metrics per traced pass, median over all traced passes;
    the tracing overhead is taken within each worker, against its
    untraced passes, and its median over the workers reported."""
    per_pass = [per_layer(p["tracer"], p["jobs"], w["scale"])
                for w in workers for p in w["passes"]
                if p["tracer"] is not None]
    metrics = {k: (statistics.median(m[k][0] for m in per_pass), u)
               for k, (_, u) in per_pass[0].items()}

    def rate(w, traced):
        sel = [(p["jobs"], 1.0) for p in w["passes"]
               if (p["tracer"] is not None) == traced]
        return sum(r["ops"] for r in sel[0][0]) / sum(median_times(sel))
    metrics["trace.overhead_frac"] = (statistics.median(
        1 - rate(w, True) / rate(w, False) for w in workers), "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lscompile" / "__init__.py").is_file():
        print(f"perfbench: no lscompile sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.worker:
        return worker(args.workload, int(args.seed), args.seconds, args.trace)
    import workloads  # puts src/ on sys.path first
    seed = (workloads.HELDOUT_SEED if args.seed == "heldout"
            else int(args.seed))
    deadline = perf_counter() + RUN_LIMIT_S
    workers = [run_worker(args, seed, args.seconds / WORKERS, deadline)
               for _ in range(WORKERS)]

    first = [r["fingerprint"] for r in workers[0]["passes"][0]["jobs"]]
    attempted = failed = 0
    for w in workers:
        for p in w["passes"]:
            for r, fp in zip(p["jobs"], first):
                attempted += 1
                errors = list(r["errors"])
                if r["fingerprint"] != fp:
                    errors.append("fingerprint differs from the first worker's")
                if errors:
                    failed += 1
                    print(f"perfbench: {r['name']}: {'; '.join(errors)}",
                          file=sys.stderr)

    detail = {"workload": args.workload, "seed": seed,
              "passes": [len(w["passes"]) for w in workers],
              "reference_s": [w["reference_s"] for w in workers],
              "jobs_per_pass": len(first), "fingerprints": first}
    if args.trace:
        metrics = traced_metrics(workers)
    else:
        metrics, extra = end_to_end(workers, failed, attempted)
        detail.update(extra)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
