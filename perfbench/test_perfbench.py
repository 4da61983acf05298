"""Tests of the benchmark itself: determinism, trace transparency, output
checks and the command-line contract.  Run with
`python3 -m pytest perfbench`."""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402
import workloads  # noqa: E402  (puts src/ on sys.path first)
import run  # noqa: E402
import spans  # noqa: E402
from lscompile import (  # noqa: E402
    CompileOptions, bench, compile_program, pipeline, scheduler, transpiler)
from lscompile.board import Board  # noqa: E402
from lscompile.scheduler import DeadlockError  # noqa: E402

# Small jobs covering every workload's options: the warm-up jobs plus a
# few oracle-checked random circuits on designed boards.
SMALL_JOBS = """
import json, sys
sys.path.insert(0, {here!r})
import workloads as w
jobs = [f() for f in w.WARMUP.values()] + w.small_auto_verify(0)[6:12]
print(json.dumps([w.fingerprint(j, w.execute(j)) for j in jobs]))
"""


def _small_jobs():
    return ([f() for f in workloads.WARMUP.values()]
            + workloads.small_auto_verify(0)[6:12])


def _fingerprints(hash_seed: str) -> list:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", SMALL_JOBS.format(here=str(HERE))],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout)


def test_fingerprints_do_not_depend_on_hash_seed():
    a, b = _fingerprints("1"), _fingerprints("2")
    assert all("sha256" in fp for fp in a)
    assert a == b


def test_traced_run_gives_the_untraced_outputs():
    jobs = _small_jobs()
    plain = [workloads.fingerprint(j, workloads.execute(j)) for j in jobs]
    originals = (Board.a_component, Board.copy, pipeline.make_board,
                 scheduler.bus_patches, transpiler.conjugate_past)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = []
        for j in jobs:
            tracer.job = j.name
            with tracer.span("job"):
                done = workloads.execute(j, tracer.span)
            traced.append(workloads.fingerprint(j, done))
    assert traced == plain
    assert originals == (Board.a_component, Board.copy, pipeline.make_board,
                         scheduler.bus_patches, transpiler.conjugate_past)
    assert pipeline.SCHEDULERS is scheduler.SCHEDULERS

    layers = {"transpiler", "pdag", "layout_search", "mapping", "ysynth",
              "pipeline.corrections", "scheduler", "scheduler.validate",
              "ler", "oracle"}
    assert layers <= {r["name"] for r in tracer.records}
    for name in ("board.a_component", "board.bus_patches", "board.copy",
                 "board.mutations", "pauli.conjugate_past",
                 "layout_search.boards", "layout_search.scored"):
        assert tracer.calls[name] > 0, name
    # every layer span sits directly under its job span, and self time
    # never exceeds the span's own duration
    roots = {r["id"]: r["job"] for r in tracer.records if r["name"] == "job"}
    assert len(roots) == len(jobs)
    for r in tracer.records:
        if r["name"] != "job":
            assert roots[r["parent"]] == r["job"]
        assert 0 <= r["self_s"] <= r["end"] - r["start"]


def test_checks_reject_broken_outputs():
    job = workloads.WARMUP["small_auto_verify"]()
    done = workloads.execute(job)
    assert workloads.check(job, done) == []

    dup = copy.deepcopy(done)
    sched = dup.result.schedule
    sched.instructions.append(next(i for i in sched.instructions
                                   if i.kind == "measure"))
    assert any("op_index" in e for e in workloads.check(job, dup))

    off = copy.deepcopy(done)
    ins = off.result.schedule.instructions[0]
    ins.tiles = ins.tiles | {(off.result.board.rows, 0)}
    assert any("leaves the board" in e for e in workloads.check(job, off))

    bad_p = copy.deepcopy(done)
    bad_p.reports[9]["p_total"] = math.nan
    assert any("p_total" in e for e in workloads.check(job, bad_p))

    wrong = copy.deepcopy(done)
    wrong.oracle_match = False
    assert any("oracle" in e for e in workloads.check(job, wrong))


def test_job_times_are_medians_of_scaled_untraced_samples():
    def jobs(*times):
        return [{"name": f"job{i}", "seconds": t} for i, t in enumerate(times)]
    workers = [
        {"scale": 0.5, "passes": [{"tracer": None, "jobs": jobs(2.0, 4.0)},
                                  {"tracer": {}, "jobs": jobs(9.0, 9.0)}]},
        {"scale": 1.0, "passes": [{"tracer": None, "jobs": jobs(1.2, 2.2)},
                                  {"tracer": None, "jobs": jobs(1.1, 2.1)}]},
    ]
    assert run.median_times(run.untraced(workers)) == pytest.approx([1.1, 2.1])


def test_tail_needs_ten_jobs_beyond_the_percentile():
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (99, 990.0)
    assert run.tail([3.0, 1.0, 2.0]) == (50, 2.0)


@pytest.mark.xfail(raises=DeadlockError, strict=True,
                   reason="the loose scheduler deadlocks on these inputs")
@pytest.mark.parametrize("make, board", [
    (lambda: bench.random_circuit(9, 108, 854223144), "auto"),
    (lambda: bench.random_circuit(12, 600, 5032), "standard"),
    (lambda: bench.random_circuit(12, 1000, 779), "standard"),
    (lambda: workloads.relabel(bench.adder_circuit(16), 2), "standard"),
    (lambda: workloads.relabel(bench.adder_circuit(20), 1582316135),
     "standard"),
], ids=["random_9", "random_12_600", "random_12_1000", "adder_16_relabeled",
        "adder_20_relabeled"])
def test_known_deadlock_stays_visible(make, board):
    # Why the workloads keep random gate-level circuits away from the loose
    # scheduler beyond 6 qubits and run the adders without renumbering
    # their qubits (README.md, "Known defect").  A pass here means the
    # defect is fixed and the workloads can be widened again.
    compile_program(make(), CompileOptions(board=board))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_command_line_prints_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "small_auto_verify", "--seed", "heldout", "--seconds", "0.1",
             "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
        result = _last_json(out.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gates_loose",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
