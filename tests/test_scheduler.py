"""Slice scheduling: angle normalization, timelines, golden examples."""

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings

from lscompile.board import Board, builtin_layout, irregular_demo, parse_layout
from lscompile.oracle import distributions_match, outcome_distribution
from lscompile.pauli import (
    MEASUREMENT, ROTATION, PauliWord, flip_past_pauli, measurement, rotation)
from lscompile.scheduler import (
    _EMIT,
    DeadlockError,
    OP_COSTS,
    Schedule,
    ScheduleError,
    normalize_angles,
    required_edges,
    schedule_loose,
    schedule_spc,
    validate_schedule,
)
from lscompile.transpiler import PbcProgram, parse_pbc
from lscompile import bench, scheduler
from test_transpiler import pbc_programs

import copy_flood_reference as ref

W = PauliWord.from_string


def triples(program):
    return [(op.kind[0], op.word.to_string(), op.angle_num, op.sign)
            for op in program.ops]


def test_op_costs_table():
    assert OP_COSTS == {"move": 1, "rotate": 3, "measure": 1}


def test_required_edges_y_needs_both_types():
    op = rotation(W("YZ"), 1)
    assert required_edges(op, {0: 0, 1: 1}) == [(0, "X"), (0, "Z"), (1, "Z")]


class TestNormalizeAngles:
    # every numerator folded onto one eighth plus one quarter turn,
    # with half turns pushed into the readout sign as a frame flip
    TABLE = {
        0: [("m", "X", 0, 1)],
        1: [("r", "Z", 1, 1), ("m", "X", 0, 1)],
        2: [("r", "Z", 2, 1), ("m", "X", 0, 1)],
        3: [("r", "Z", 1, 1), ("r", "Z", 2, 1), ("m", "X", 0, 1)],
        4: [("m", "X", 0, -1)],
        5: [("r", "Z", 15, 1), ("r", "Z", 14, 1), ("m", "X", 0, 1)],
        6: [("r", "Z", 14, 1), ("m", "X", 0, 1)],
        7: [("r", "Z", 15, 1), ("m", "X", 0, 1)],
        8: [("m", "X", 0, 1)],
        9: [("r", "Z", 1, 1), ("m", "X", 0, 1)],
        10: [("r", "Z", 2, 1), ("m", "X", 0, 1)],
        11: [("r", "Z", 1, 1), ("r", "Z", 2, 1), ("m", "X", 0, 1)],
        12: [("m", "X", 0, -1)],
        13: [("r", "Z", 15, 1), ("r", "Z", 14, 1), ("m", "X", 0, 1)],
        14: [("r", "Z", 14, 1), ("m", "X", 0, 1)],
        15: [("r", "Z", 15, 1), ("m", "X", 0, 1)],
    }

    @pytest.mark.parametrize("k", sorted(TABLE))
    def test_every_numerator(self, k):
        prog = PbcProgram(1, (rotation(W("Z"), k), measurement(W("X"))))
        assert triples(normalize_angles(prog)) == self.TABLE[k]

    @pytest.mark.parametrize("k", sorted(TABLE))
    def test_distribution_preserved(self, k):
        prog = PbcProgram(1, (rotation(W("Z"), k), measurement(W("X"))))
        assert distributions_match(
            outcome_distribution(normalize_angles(prog)),
            outcome_distribution(prog))

    def test_frame_flip_skips_commuting_readout(self):
        prog = PbcProgram(1, (rotation(W("Z"), 4), measurement(W("Z"))))
        assert triples(normalize_angles(prog)) == [("m", "Z", 0, 1)]

    def test_output_angles_restricted(self):
        prog = bench.random_program(3, 8, seed=5)
        hot = PbcProgram(3, tuple(
            rotation(op.word, (op.angle_num * 3) % 16) if op.kind == ROTATION
            else op for op in prog.ops))
        out = normalize_angles(hot)
        for op in out.ops:
            if op.kind == ROTATION:
                assert op.angle_num in (1, 2, 14, 15)


def normalize_rewriting_tail(program):
    """Reference normalization: every half-pi rotation flips the whole tail."""
    ops = list(program.ops)
    out = []
    i = 0
    while i < len(ops):
        op = ops[i]
        i += 1
        if op.kind == MEASUREMENT:
            out.append(op)
            continue
        if op.is_trivial():
            continue
        r = op.angle_num % 8
        if r == 4:
            ops[i:] = [flip_past_pauli(op.word, t) for t in ops[i:]]
            continue
        out.extend(rotation(op.word, k) for k in _EMIT[r])
    return PbcProgram(program.n, tuple(out))


@given(pbc_programs(max_qubits=8))
@settings(max_examples=80, deadline=None)
def test_normalize_matches_tail_rewriting_reference(prog):
    assert normalize_angles(prog) == normalize_rewriting_tail(prog)


class TestGoldenCompact:
    def test_four_clocks_six_tile_bus(self):
        """Measuring the first five qubits of the six-qubit compact board
        takes one setup slice of rotations plus the joint measurement."""
        prog = parse_pbc("M ZZZZZI", 6)
        sch = schedule_loose(prog, builtin_layout("compact", 6))
        assert sch.total_clocks == 4
        measures = [i for i in sch.instructions if i.kind == "measure"]
        assert len(measures) == 1
        assert measures[0].bus == frozenset(
            {(0, 2), (1, 1), (1, 2), (1, 3), (1, 4), (2, 1)})
        assert len(measures[0].bus) == 6
        rotates = [i for i in sch.instructions if i.kind == "rotate"]
        assert {r.duration for r in rotates} == {3}

    def test_validates(self):
        prog = parse_pbc("M ZZZZZI", 6)
        sch = schedule_loose(prog, builtin_layout("compact", 6))
        validate_schedule(sch)


class TestGoldenIrregular:
    def test_two_clocks_five_tile_bus(self):
        prog = parse_pbc("M ZZZZZI", 6)
        sch = schedule_loose(prog, irregular_demo())
        assert sch.total_clocks == 2
        measures = [i for i in sch.instructions if i.kind == "measure"]
        assert measures[0].bus == frozenset(
            {(1, 1), (1, 2), (1, 3), (1, 4), (2, 4)})
        assert sch.mean_bus_tiles() == 5.0


class TestLooseScheduler:
    def test_rejects_split_routing(self):
        b = Board(3, 3)
        b.place_ancilla((0, 1), "h")
        b.init_patch(0, (1, 0), "h")
        b.init_patch(1, (1, 1), "h")
        b.init_patch(2, (1, 2), "h")
        with pytest.raises(ScheduleError):
            schedule_loose(parse_pbc("M ZZZ", 3), b)

    def test_ancilla_sharing_serializes_products(self):
        # every product operator borrows the ancilla, so two otherwise
        # disjoint measurements can never share a slice
        prog = parse_pbc("M ZIIIII\nM IIIZII", 6)
        sch = schedule_loose(prog, builtin_layout("compact", 6))
        starts = sorted(i.start for i in sch.instructions
                        if i.kind == "measure")
        assert len(starts) == 2 and starts[0] != starts[1]

    def test_initial_layout_recorded(self):
        prog = parse_pbc("M ZZ", 2)
        board = builtin_layout("compact", 2)
        sch = schedule_loose(prog, board)
        again = parse_layout(sch.initial_layout)
        assert {q: p.tile for q, p in again.patches.items()} == \
               {q: p.tile for q, p in board.patches.items()}

    def test_board_left_untouched(self):
        board = builtin_layout("compact", 6)
        before = {q: board.patches[q].tile for q in board.patches}
        schedule_loose(parse_pbc("M ZZZZZI", 6), board)
        assert {q: board.patches[q].tile for q in board.patches} == before

    def test_qmap_permutation_respected(self):
        prog = parse_pbc("M ZZ", 2)
        board = builtin_layout("compact", 2)
        qmap = {0: 1, 1: 0}
        sch = schedule_loose(prog, board, qmap=qmap)
        validate_schedule(sch)
        assert sch.qmap == qmap

    def test_semantics_on_random_program(self):
        prog = bench.random_program(3, 5, seed=3)
        sch = schedule_loose(prog, builtin_layout("compact", 3))
        validate_schedule(sch)
        assert sch.total_clocks >= len(
            [op for op in prog.ops if op.is_measurement()])


class TestSpcScheduler:
    def test_golden_ten_clocks(self):
        prog = parse_pbc("M ZZZZZI", 6)
        sch = schedule_spc(prog, builtin_layout("compact", 6))
        assert sch.total_clocks == 10
        assert sch.scheduler == "spc"
        validate_schedule(sch)

    def test_never_faster_than_loose_on_goldens(self):
        prog = parse_pbc("M ZZZZZI", 6)
        loose = schedule_loose(prog, builtin_layout("compact", 6))
        spc = schedule_spc(prog, builtin_layout("compact", 6))
        assert loose.total_clocks <= spc.total_clocks


class TestValidation:
    def test_detects_tile_collision(self):
        prog = parse_pbc("M ZZZZZI", 6)
        sch = schedule_loose(prog, builtin_layout("compact", 6))
        measure = next(i for i in sch.instructions if i.kind == "measure")
        clash = dataclasses.replace(measure, start=1, op_index=99)
        bad = dataclasses.replace(
            sch, instructions=list(sch.instructions) + [clash])
        with pytest.raises(ScheduleError):
            validate_schedule(bad)

    def test_detects_overrun(self):
        prog = parse_pbc("M ZZ", 2)
        sch = schedule_loose(prog, builtin_layout("compact", 2))
        bad = dataclasses.replace(sch, total_clocks=0)
        with pytest.raises(ScheduleError):
            validate_schedule(bad)


class TestSerialization:
    def test_to_dict_shape(self):
        prog = parse_pbc("M ZZZZZI", 6)
        sch = schedule_loose(prog, builtin_layout("compact", 6))
        d = sch.to_dict()
        assert set(d) == {"header", "slices", "total_clocks"}
        assert d["total_clocks"] == 4
        assert d["header"]["scheduler"] == "loose"

    def test_measure_instructions_and_slices(self):
        prog = parse_pbc("M ZZZZZI", 6)
        sch = schedule_loose(prog, builtin_layout("compact", 6))
        assert len(sch.measure_instructions()) == 1
        by_slice = dict(sch.slices())
        assert set(by_slice) == {1, 4}
        assert [i.kind for i in by_slice[4]] == ["measure"]
        for t, group in by_slice.items():
            assert all(i.start == t for i in group)


def test_deadlock_names_the_operator_patches_and_board():
    from lscompile import pipeline
    from lscompile.pauli import format_op, parse_op
    from lscompile.scheduler import _pick_action, _try_bus

    program = pipeline.transpile(bench.random_circuit(9, 108, 854223144))
    board = pipeline.make_board("auto", program.n)
    qmap = pipeline.build_mapping("ea", board, pipeline.build_pdag(program))
    ops = pipeline.insert_corrections(pipeline.apply_y_strategy(
        program, "o3ls", pipeline.access_map(board, qmap)))
    with pytest.raises(DeadlockError) as exc_info:
        schedule_loose(ops, board, qmap)
    exc = exc_info.value
    assert exc.op in {format_op(op) for op in normalize_angles(ops).ops}
    op = parse_op(exc.op)
    assert exc.patches == tuple(sorted(qmap[q] for q in op.word.support()))
    stuck = parse_layout(exc.board)
    assert (stuck.rows, stuck.cols, stuck.port, stuck.ancilla) == (
        board.rows, board.cols, board.port, board.ancilla)
    assert set(stuck.patches) == set(board.patches)
    assert _try_bus(stuck, qmap, op) is None
    assert _pick_action(stuck, qmap, op) is None
    msg = str(exc)
    assert "\n" not in msg and exc.op in msg
    assert all(str(pid) in msg for pid in exc.patches)
    again = pickle.loads(pickle.dumps(exc))
    assert (str(again), again.patches, again.board) == (msg, exc.patches,
                                                        exc.board)


def _schedule_json(circuit, board):
    from lscompile.pipeline import CompileOptions, compile_program

    try:
        sch = compile_program(circuit, CompileOptions(board=board)).schedule
    except DeadlockError as e:
        return f"DeadlockError: {e}", None
    actions = sum(i.kind != "measure" for i in sch.instructions)
    return json.dumps(sch.to_dict(), sort_keys=True), actions


@pytest.mark.parametrize("name,circuit,board", [
    ("adder_20", bench.adder_circuit(20), "standard"),
    *((f"random_{n}_{s}", bench.random_circuit(n, 20 * n, 1000 * n + s),
       "compact") for n in range(8, 13) for s in (0, 2)),
])
def test_loose_schedule_matches_copy_and_flood_reference(name, circuit, board,
                                                        monkeypatch):
    ours, actions = _schedule_json(circuit, board)
    monkeypatch.setattr(scheduler, "_pick_action", ref.pick_action)
    assert (ours, actions) == _schedule_json(circuit, board)
    if board == "compact" and actions is not None:
        assert actions > 0   # the case drives moves or rotations
