"""End-to-end checks of the full toolchain.

Each test exercises the public pipeline the way a user would: semantic
preservation against the dense oracle, exact golden schedules, scheduler
and layout quality bars, the error-rate model, and runtime scaling.
"""

import itertools
import random
import time

import numpy as np
import pytest

from lscompile import bench
from lscompile.board import Board, builtin_layout, irregular_demo
from lscompile.ler import Calibration, default_calibration, estimate_ler
from lscompile.oracle import (
    circuit_distribution,
    circuit_unitary,
    distributions_match,
    equivalent_up_to_phase,
    outcome_distribution,
    program_unitary,
)
from lscompile.pauli import PauliWord, measurement, rotation
from lscompile.pipeline import CompileOptions, compile_program
from lscompile.scheduler import Instruction, Schedule, schedule_loose
from lscompile.transpiler import (
    GateCircuit,
    PbcProgram,
    decompose_gate,
    parse_pbc,
    transpile,
)
from lscompile.ysynth import naive_y_decompose, y_synthesize
from brute_force_reference import brute_force_optimum


def test_transpile_and_y_synthesis_preserve_semantics_on_200_circuits():
    """Random Clifford+T circuits survive the whole front end.

    For every circuit the per-gate decomposition must reproduce the
    unitary up to global phase, and the transpiled program after Y
    synthesis under an X/Z-only access map must reproduce the outcome
    distribution, both to 1e-9.
    """
    start = time.perf_counter()
    for i in range(200):
        n = 2 + i % 3
        circ = bench.random_circuit(n, 5 + i % 16, seed=i)
        gates_only = GateCircuit(
            circ.n, tuple(g for g in circ.gates if g.name != "measure"))
        raw = []
        for gate in gates_only.gates:
            raw.extend(decompose_gate(gate, circ.n))
        assert equivalent_up_to_phase(
            program_unitary(PbcProgram(circ.n, tuple(raw))),
            circuit_unitary(gates_only), tol=1e-9), i
        synthesized = y_synthesize(
            transpile(circ), {q: {"X", "Z"} for q in range(circ.n)})
        assert distributions_match(
            outcome_distribution(synthesized),
            circuit_distribution(circ), tol=1e-9), i
    assert time.perf_counter() - start < 120.0


def test_exact_clock_counts_on_golden_boards():
    prog = parse_pbc("M ZZZZZI", 6)
    compact = schedule_loose(prog, builtin_layout("compact", 6))
    assert compact.total_clocks == 4
    assert len(compact.measure_instructions()[0].bus) == 6
    irregular = schedule_loose(prog, irregular_demo())
    assert len(irregular.measure_instructions()[0].bus) == 5
    assert irregular.total_clocks < 4


def test_loose_scheduler_beats_spc_across_suite():
    """Slack-aware slicing never loses to one-product-per-slice and wins
    by a clear margin on average."""
    start = time.perf_counter()
    reductions = {"compact": [], "standard": []}
    for name, circ in bench.suite():
        for style in ("compact", "standard"):
            loose = compile_program(
                circ, CompileOptions(scheduler="loose", board=style))
            spc = compile_program(
                circ, CompileOptions(scheduler="spc", board=style))
            lc = loose.schedule.total_clocks
            sc = spc.schedule.total_clocks
            assert lc <= sc, (name, style)
            reductions[style].append((sc - lc) / sc)
    assert sum(reductions["compact"]) / len(reductions["compact"]) >= 0.15
    assert sum(reductions["standard"]) / len(reductions["standard"]) >= 0.10
    assert time.perf_counter() - start < 300.0


def test_designed_boards_use_fewer_tiles_without_slowing_down():
    for name, circ in bench.suite():
        auto = compile_program(circ, CompileOptions(board="auto"))
        std = compile_program(circ, CompileOptions(board="standard"))
        std_tiles = builtin_layout("standard", circ.n).tile_count()
        assert auto.board.tile_count() <= 0.85 * std_tiles, name
        assert auto.board.a_component() is not None, name
        assert auto.schedule.total_clocks <= \
            1.1 * std.schedule.total_clocks, name


def test_board_growth_trades_clocks_against_bus_noise():
    """Widening the board shortens the schedule but lengthens buses, so
    the estimated error rate bottoms out at an interior size."""
    circ = bench.star_ising_circuit(8, 2)
    calib = default_calibration(9)
    clocks, buses, totals = [], [], []
    for width in range(5, 13):
        res = compile_program(circ, CompileOptions(
            board=bench.spread_layout(width), mapping="identity"))
        clocks.append(res.schedule.total_clocks)
        buses.append(res.schedule.mean_bus_tiles())
        totals.append(estimate_ler(res.schedule, calib)["p_total"])
    assert all(a >= b for a, b in zip(clocks, clocks[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(buses, buses[1:]))
    best = totals.index(min(totals))
    assert 0 < best < len(totals) - 1
    assert totals[best] < totals[0]
    assert totals[best] < totals[-1]


def all_y_family(n_qubits):
    """Two identical all-Y rotations, then a full single-qubit Z readout."""
    word = PauliWord.from_string("Y" * n_qubits)
    ops = [rotation(word, 1), rotation(word, 1)]
    ops += [measurement(PauliWord.from_letters(n_qubits, {q: "Z"}))
            for q in range(n_qubits)]
    return PbcProgram(n_qubits, tuple(ops))


@pytest.mark.parametrize("n_qubits", (2, 4, 6))
def test_shared_conjugation_shells_beat_per_operator_decomposition(n_qubits):
    fam = all_y_family(n_qubits)
    access = {q: {"X", "Z"} for q in range(n_qubits)}
    merged = y_synthesize(fam, access)
    naive = naive_y_decompose(fam)
    assert len(merged.ops) < len(naive.ops)
    base = outcome_distribution(fam)
    assert distributions_match(outcome_distribution(merged), base)
    assert distributions_match(outcome_distribution(naive), base)


def test_density_weight_is_insensitive_in_the_midrange():
    """Midrange density penalties land on near-identical schedules;
    pushing the weight to either extreme can only do worse."""
    circ = bench.adder_circuit(10)
    clocks = {}
    for alpha in (0.0, 0.1, 0.2, 0.3, 0.5):
        res = compile_program(
            circ, CompileOptions(board="auto", alpha_e=alpha))
        clocks[alpha] = res.schedule.total_clocks
    mids = [clocks[0.1], clocks[0.2], clocks[0.3]]
    for a, b in itertools.combinations(mids, 2):
        assert abs(a - b) <= 0.1 * max(a, b)
    assert max(clocks[0.0], clocks[0.5]) >= max(mids)


def test_loose_scheduler_is_near_optimal_on_tiny_instances():
    start = time.perf_counter()
    gaps = []
    for i in range(20):
        n = 2 + i % 2
        prog = bench.random_program(n, 3 + i % 2, seed=900 + i)
        res = compile_program(prog, CompileOptions(
            board="compact", mapping="identity", correction="never"))
        best = brute_force_optimum(res.corrected, res.board, res.qmap)
        got = res.schedule.total_clocks
        assert got >= best, i
        gaps.append((got - best) / best)
    assert sum(gaps) / len(gaps) <= 0.25
    assert time.perf_counter() - start < 600.0


def test_compile_runtime_scales_subcubically():
    sizes = (10, 20, 40)
    times = []
    for n in sizes:
        prog = bench.random_program(n, 10 * n, seed=700 + n)
        t0 = time.perf_counter()
        compile_program(prog, CompileOptions(board="standard", mapping="ea"))
        times.append(time.perf_counter() - t0)
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert slope < 3.5
    assert times[-1] < 60.0


class TestErrorModel:
    def compiled(self):
        prog = parse_pbc("pi/8 ZZZZZI\nM ZZZZZI", 6)
        return schedule_loose(prog, builtin_layout("compact", 6))

    def test_zero_rates_give_zero_total(self):
        zero = Calibration(9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert estimate_ler(self.compiled(), zero)["p_total"] == 0.0

    def test_single_slice_closed_form(self):
        # ppm 10*1e-4, one rotation deforming at 2e-3, one idle patch at
        # 5e-4: the layer must compose to exactly 1 - .999*.998*.9995
        board = Board(4, 12, ((1, 11), "h"), (0, 0),
                      {0: ((1, 0), "h"), 1: ((2, 0), "h"), 2: ((3, 0), "h")})
        bus = frozenset((0, c) for c in range(1, 11))
        measure = Instruction(kind="measure", start=1, duration=1,
                              tiles=bus | {(1, 0), (1, 11)},
                              patches=frozenset({0, -1}), label="M",
                              op_index=0, bus=bus)
        rotate = Instruction(kind="rotate", start=1, duration=3,
                             tiles=frozenset({(2, 0), (2, 1)}),
                             patches=frozenset({1}), label="rot",
                             op_index=None)
        sch = Schedule(n=3, scheduler="loose", initial_layout="",
                       instructions=[measure, rotate], total_clocks=1,
                       qmap={0: 0, 1: 1, 2: 2}, final_board=board, meta={})
        calib = Calibration(distance=9, ppm_per_bus_tile=1e-4,
                            rotate_deform_rate=2e-3, rotate_corner_rate=0.0,
                            rotate_move_rate=0.0, move_rate=0.0,
                            idle_rate=5e-4)
        report = estimate_ler(sch, calib)
        target = 1 - 0.999 * 0.998 * 0.9995
        assert abs(report["p_total"] - target) <= 1e-12

    def test_monotone_in_every_rate(self):
        sch = self.compiled()
        fields = ("ppm_per_bus_tile", "rotate_deform_rate",
                  "rotate_corner_rate", "rotate_move_rate", "move_rate",
                  "idle_rate")
        rng = random.Random(42)
        for _ in range(10):
            base = Calibration(9, *(rng.uniform(1e-6, 1e-3)
                                    for _ in fields))
            p0 = estimate_ler(sch, base)["p_total"]
            for f in fields:
                bumped = Calibration(
                    **{**base.__dict__, f: getattr(base, f) * 2})
                assert estimate_ler(sch, bumped)["p_total"] >= p0
