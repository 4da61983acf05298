"""Benchmark workloads: seeded inputs, one job per user request, and the
checks and fingerprints taken on each job's outputs.

A job is what one user of `lscompile` asks for: `compile_program`, then
`estimate_ler` at the workload's code distances, then, where the
workload has one, the dense-oracle check.  Everything here drives the
public API only; the program sees nothing but the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from lscompile import CompileOptions, bench, compile_program  # noqa: E402
from lscompile.ler import default_calibration, estimate_ler  # noqa: E402
from lscompile.oracle import (  # noqa: E402
    MAX_ORACLE_QUBITS,
    circuit_distribution,
    distributions_match,
    outcome_distribution,
)
from lscompile.scheduler import normalize_angles  # noqa: E402
from lscompile.transpiler import GateCircuit  # noqa: E402
from lscompile.ysynth import naive_y_decompose  # noqa: E402

# Seed 0, the default, was used while the benchmark was written; this one
# is kept back so that a claimed gain can be re-checked on unseen inputs.
HELDOUT_SEED = 7919

# Input sizes are fixed per workload and only the random contents follow
# the seed, so that every seed asks for about the same amount of work.
# Each workload's jobs take 3 to 4 seconds together on a 2-core x86
# machine, so that a run repeats every job several times.
# Gate-level circuits for the loose scheduler are structured families.
# The loose scheduler deadlocks on about one seeded random 12-qubit
# circuit in a hundred, and on a few adders in a few hundred once their
# qubits are renumbered (README.md), so the adders run as built and the
# seed renumbers the qubits of the other families only.  Job times cluster
# by family; six 10-qubit Ising jobs put the median job inside one
# cluster, with two shorter and three longer jobs around it.
GATES_FIXED = (
    ("adder_12", lambda: bench.adder_circuit(12)),
    ("adder_16", lambda: bench.adder_circuit(16)),
)
GATES_RELABELED = (
    ("qft_16", 1, lambda: bench.qft_fragment(16)),
    ("swap_test_13", 1, lambda: bench.swap_test_circuit(6)),
    ("ising_10x6", 3, lambda: bench.ising_circuit(10, 6)),
    ("star_ising_10x6", 3, lambda: bench.star_ising_circuit(10, 6)),
    ("ising_12x8", 1, lambda: bench.ising_circuit(12, 8)),
)
# Eight programs rather than four larger ones halve the spread of the
# summed clocks between seeds and put the median job between two jobs.
PBC_PROGRAMS = ((12, 120),) * 8
# Random circuits stay within the dense oracle's reach, so every one of
# them is verified; the suite supplies the 7- and 10-qubit jobs.  Wider
# random circuits can deadlock the loose scheduler (see README.md).  Job
# times cluster by width, so (width, count) puts the median job well
# inside the 5-qubit cluster rather than on the edge between two.
AUTO_RANDOM = ((3, 4), (4, 5), (5, 11), (6, 3))


@dataclass
class Job:
    name: str
    source: object                   # GateCircuit or PbcProgram
    options: CompileOptions
    distances: tuple
    oracle: bool = False


@dataclass
class Done:
    """Outputs of one job, or the error that stopped it."""
    result: object = None
    reports: dict = field(default_factory=dict)   # distance -> estimate
    oracle_match: bool | None = None
    error: str | None = None


def _seeds(seed: int, k: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(k)]


def relabel(circ: GateCircuit, seed: int) -> GateCircuit:
    """The same circuit with its qubits renumbered by a seeded permutation."""
    perm = list(range(circ.n))
    random.Random(seed).shuffle(perm)
    out = GateCircuit(circ.n)
    for g in circ.gates:
        out.add(g.name, *(perm[q] for q in g.qubits))
    return out


def gates_loose(seed: int) -> list:
    """Structured gate-level circuits on the standard board."""
    opts = CompileOptions(board="standard")
    jobs = [Job(name, make(), opts, (9,)) for name, make in GATES_FIXED]
    names = [(name, make) for name, count, make in GATES_RELABELED
             for _ in range(count)]
    for (name, make), s in zip(names, _seeds(seed, len(names))):
        jobs.append(Job(f"{name}_{s}", relabel(make(), s), opts, (9,)))
    return jobs


def pbc_spc_sweep(seed: int) -> list:
    """Y-heavy Pauli programs, serial scheduler, four code distances."""
    opts = CompileOptions(board="standard", scheduler="spc")
    return [Job(f"program_{n}x{k}_{s}", bench.random_program(n, k, s), opts,
                (3, 5, 7, 9))
            for (n, k), s in zip(PBC_PROGRAMS,
                                 _seeds(seed, len(PBC_PROGRAMS)))]


def small_auto_verify(seed: int) -> list:
    """Short jobs on designed boards, oracle-checked up to six qubits."""
    opts = CompileOptions(board="auto")
    circuits = list(bench.suite())
    widths = [n for n, count in AUTO_RANDOM for _ in range(count)]
    for n, s in zip(widths, _seeds(seed, len(widths))):
        circuits.append((f"random_{n}x{12 * n}_{s}",
                         bench.random_circuit(n, 12 * n, s)))
    return [Job(name, circ, opts, (9,), oracle=circ.n <= MAX_ORACLE_QUBITS)
            for name, circ in circuits]


WORKLOADS = {
    "gates_loose": gates_loose,
    "pbc_spc_sweep": pbc_spc_sweep,
    "small_auto_verify": small_auto_verify,
}

# One tiny job per workload with the same options, run before timing so
# that lazy set-up inside the program and numpy is paid off.
WARMUP = {
    "gates_loose": lambda: Job("warmup", bench.adder_circuit(6),
                               CompileOptions(board="standard"), (9,)),
    "pbc_spc_sweep": lambda: Job(
        "warmup", bench.random_program(8, 40, 1),
        CompileOptions(board="standard", scheduler="spc"), (3, 5, 7, 9)),
    "small_auto_verify": lambda: Job(
        "warmup", bench.adder_circuit(4), CompileOptions(board="auto"), (9,),
        oracle=True),
}


def execute(job: Job, span=None) -> Done:
    """Run one job; `span(name)` opens a trace span around ler and oracle."""
    span = span or (lambda name: nullcontext())
    done = Done()
    try:
        done.result = compile_program(job.source, job.options)
        with span("ler"):
            for d in job.distances:
                done.reports[d] = estimate_ler(done.result.schedule,
                                               default_calibration(d))
        if job.oracle:
            with span("oracle"):
                done.oracle_match = distributions_match(
                    circuit_distribution(job.source),
                    outcome_distribution(done.result.synthesized))
    except Exception as exc:   # a failed job is counted, not fatal
        done.error = f"{type(exc).__name__}: {exc}"
    return done


def check(job: Job, done: Done) -> list:
    """Output checks that do not rely on the compiler's own success path."""
    if done.error is not None:
        return [done.error]
    errors = []
    res = done.result
    sched = res.schedule
    # The scheduler measures the angle-normalized program, after the naive
    # Y rewrite for spc; every operator of it must be measured exactly once.
    measured = res.corrected
    if sched.scheduler == "spc":
        measured = naive_y_decompose(measured)
    expected = len(normalize_angles(measured).ops)
    seen = Counter(i.op_index for i in sched.instructions
                   if i.kind == "measure")
    if sorted(seen) != list(range(expected)) or set(seen.values()) - {1}:
        errors.append(f"op_index coverage: {len(seen)} distinct of "
                      f"{expected}, max repeat {max(seen.values(), default=0)}")
    rows, cols = res.board.rows, res.board.cols
    for ins in sched.instructions:
        tiles = set(ins.tiles) | set(ins.bus or ())
        if any(not (0 <= r < rows and 0 <= c < cols) for r, c in tiles):
            errors.append(f"instruction {ins.label!r} leaves the board")
            break
    for d, rep in done.reports.items():
        p = rep["p_total"]
        if not (math.isfinite(p) and p >= 0):
            errors.append(f"p_total {p!r} at d={d}")
    if done.oracle_match is False:
        errors.append("dense-oracle distributions differ")
    return errors


def fingerprint(job: Job, done: Done) -> dict:
    """Output identity of a job: any change in the compiler's results shows."""
    if done.error is not None:
        return {"job": job.name, "error": done.error}
    sched = done.result.schedule
    blob = json.dumps(sched.to_dict(), sort_keys=True).encode()
    return {
        "job": job.name,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "total_clocks": sched.total_clocks,
        "ops": len(done.result.corrected.ops),
        "mean_bus": sched.mean_bus_tiles(),
        "p_total": {str(d): r["p_total"] for d, r in done.reports.items()},
    }


def counts(job: Job, done: Done) -> Counter:
    """Per-layer sizes read off one job's outputs (exact, untimed)."""
    c = Counter()
    if done.error is not None:
        return c
    res = done.result
    sched = res.schedule
    if isinstance(job.source, GateCircuit):
        c["transpiler.gates_in"] = len(job.source.gates)
        c["transpiler.ops_out"] = len(res.program.ops)
    c["board.tiles"] = res.board.tile_count()
    c["pdag.nodes"] = len(res.program.ops)
    c["ysynth.ops_in"] = len(res.program.ops)
    c["ysynth.ops_out"] = len(res.synthesized.ops)
    c["ysynth.y_blocked"] = sum(
        1 for op in res.program.ops
        if any(op.word.letter(q) == "Y" and "Y" not in res.access.get(q, ())
               for q in op.word.support()))
    c["pipeline.corrections_added"] = (len(res.corrected.ops)
                                       - len(res.synthesized.ops))
    kinds = Counter(i.kind for i in sched.instructions)
    c["scheduler.instructions"] = len(sched.instructions)
    c["scheduler.measures"] = kinds["measure"]
    c["scheduler.moves"] = kinds["move"]
    c["scheduler.rotates"] = kinds["rotate"]
    c["scheduler.bus_tiles"] = sum(len(i.bus) for i in sched.instructions
                                   if i.kind == "measure")
    c["ler.slices"] = sum(r["total_clocks"] for r in done.reports.values())
    c["oracle.checks"] = int(done.oracle_match is not None)
    c["oracle.mismatches"] = int(done.oracle_match is False)
    return c
