"""Slice scheduling: angle normalization, timelines, golden examples."""

import dataclasses
import hashlib
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
    Instruction,
    OP_COSTS,
    Schedule,
    ScheduleError,
    normalize_angles,
    required_edges,
    schedule_loose,
    schedule_spc,
    scheduled_program,
    validate_schedule,
)
from lscompile.transpiler import PbcProgram, parse_pbc
from lscompile import CompileOptions, bench, compile_program, scheduler
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

    def test_a_normalized_program_comes_back_equal(self):
        prog = parse_pbc("pi/8 ZZ\n-pi/4 XI\nM ZZ")
        assert normalize_angles(prog) == prog

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
        b = Board(3, 3, ((0, 1), "h"), (2, 0), {
            0: ((1, 0), "h"), 1: ((1, 1), "h"), 2: ((1, 2), "h")})
        with pytest.raises(ScheduleError):
            schedule_loose(parse_pbc("M ZZZ", 3), b)

    def test_actions_without_a_measurement_stop_past_the_weight(
            self, monkeypatch):
        # a picker that rotates patch 0 for ever, on a bus that never
        # routes: each real action raises the enabled count, so more
        # actions than the operator's weight name a scoring fault
        calls = []
        monkeypatch.setattr(scheduler, "_try_bus", lambda *args: None)
        monkeypatch.setattr(
            scheduler, "_pick_action", lambda board, qmap, op: calls.append(
                op) or ("rotate", 0, board.rotation_helper(0)))
        prog = PbcProgram(2, (rotation(W("XZ"), 1),))
        with pytest.raises(ScheduleError, match="pi/8 XZ"):
            schedule_loose(prog, builtin_layout("standard", 2))
        assert len(calls) == 3

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


@pytest.mark.parametrize("circuit,board", [
    (bench.adder_circuit(12), "standard"),
    (bench.random_circuit(8, 160, 8000), "compact"),
], ids=["adder_12", "random_8"])
def test_a_blocked_operator_is_asked_once_per_board(circuit, board,
                                                    monkeypatch):
    """Between two actions schedule_loose asks each frontier node for a
    bus at most once: a measurement leaves the board as it is, so a
    failed route stays failed until a move or rotation."""
    dags, asked, repeats = [], set(), []
    build, try_bus, act = (scheduler.build_pdag, scheduler._try_bus,
                           scheduler._act)

    def ask(board, required, op):
        # by node, not by word: two frontier nodes may share a word
        nid = next(nid for nid, node in dags[-1].nodes.items()
                   if node.op is op)
        if nid in asked:
            repeats.append(nid)
        asked.add(nid)
        return try_bus(board, required, op)

    def acted(*args):
        asked.clear()
        return act(*args)

    monkeypatch.setattr(scheduler, "build_pdag",
                        lambda program: dags.append(build(program)) or dags[-1])
    monkeypatch.setattr(scheduler, "_try_bus", ask)
    monkeypatch.setattr(scheduler, "_act", acted)
    sch = compile_program(circuit, CompileOptions(board=board)).schedule
    assert any(i.kind != "measure" for i in sch.instructions)
    assert repeats == []


def test_required_edges_are_worked_out_once_per_operator(monkeypatch):
    calls = []
    real = scheduler.required_edges
    monkeypatch.setattr(scheduler, "required_edges",
                        lambda op, qmap: calls.append(op) or real(op, qmap))
    sch = compile_program(bench.adder_circuit(12),
                          CompileOptions(board="standard")).schedule
    assert any(i.kind != "measure" for i in sch.instructions)
    assert len(calls) == len(sch.measure_instructions())


def test_loose_schedule_skips_deltas_that_cannot_win(monkeypatch):
    """Scoring every candidate action of the adder_circuit(20) compile
    on standard takes 1,539 deltas; only actions whose bound can still
    win are scored."""
    calls = []
    real_delta = Board.delta
    monkeypatch.setattr(Board, "delta",
                        lambda b, *a: calls.append(a) or real_delta(b, *a))
    compile_program(bench.adder_circuit(20), CompileOptions(board="standard"))
    assert 0 < len(calls) <= 1539 // 2


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


class TestScheduledForm:
    """Each scheduler refuses what `scheduled_program` would rewrite, with
    a one-line ValueError naming the operator's index and text."""

    def refusal(self, name, text):
        prog = parse_pbc(f"M ZZ\n{text}")
        with pytest.raises(ValueError) as exc_info:
            scheduler.SCHEDULERS[name](prog, builtin_layout("standard", 2))
        assert not isinstance(exc_info.value, ScheduleError)
        assert str(exc_info.value) == (
            f"operator 1 ({text}) is not in scheduled form for {name}")
        # the rewrite it names is the one that makes the program acceptable
        validate_schedule(scheduler.SCHEDULERS[name](
            scheduled_program(prog, name), builtin_layout("standard", 2)))

    @pytest.mark.parametrize("name", ["loose", "spc"])
    @pytest.mark.parametrize("text", ["3pi/8 ZZ", "pi/2 XI", "0 ZZ",
                                      "pi/8 II"],
                             ids=["3pi/8", "pi/2", "zero", "identity"])
    def test_refuses_an_angle_normalization_would_rewrite(self, name, text):
        self.refusal(name, text)

    @pytest.mark.parametrize("text", ["pi/8 YY", "-M ZY"])
    def test_spc_refuses_a_y_word(self, text):
        self.refusal("spc", text)

    def test_loose_accepts_y_words_and_signed_measurements(self):
        prog = parse_pbc("pi/8 YY\n-pi/4 XZ\n-M ZY\nM ZZ")
        assert scheduled_program(prog, "loose").ops == tuple(prog.ops)
        sch = schedule_loose(prog, builtin_layout("standard", 2))
        assert [i.label for i in sch.measure_instructions()] == [
            "pi/8 YY", "-pi/4 XZ", "-M ZY", "M ZZ"]

    def test_spc_program_is_y_free_and_normalized(self):
        prog = parse_pbc("3pi/8 YZ\npi/2 XI\n-M ZY")
        out = scheduled_program(prog, "spc")
        assert all(not op.word.x & op.word.z for op in out.ops)
        assert out == normalize_angles(out)
        assert scheduled_program(prog, "loose") == normalize_angles(prog)
        assert out != normalize_angles(prog)


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

    @staticmethod
    def _schedule(*instructions):
        return Schedule(2, "loose", "", list(instructions),
                        max(i.end for i in instructions), {}, None)

    def test_names_the_least_tile_and_the_slice_of_a_clash(self):
        # the rotation holds (0, 0) and (1, 0) in slices 2, 3 and 4; the
        # measurement takes both, and (2, 2), in slice 3
        sch = self._schedule(
            Instruction("rotate", 2, 3, frozenset({(1, 0), (0, 0)}),
                        frozenset({0}), "rotate P0 at (1, 0)"),
            Instruction("measure", 3, 1, frozenset({(2, 2), (1, 0), (0, 0)}),
                        frozenset({0, -1}), "M Z"))
        with pytest.raises(ScheduleError,
                           match=r"^tile \(0, 0\) double-booked at slice 3$"):
            validate_schedule(sch)

    def test_one_tile_in_disjoint_slices_passes(self):
        validate_schedule(self._schedule(
            Instruction("move", 1, 1, frozenset({(1, 0), (1, 1)}),
                        frozenset({0}), "move P0 (1, 0)->(1, 1)"),
            Instruction("rotate", 2, 3, frozenset({(1, 1), (0, 1)}),
                        frozenset({0}), "rotate P0 at (1, 1)"),
            Instruction("measure", 5, 1, frozenset({(1, 1), (2, 1)}),
                        frozenset({0, -1}), "M Z")))

    @pytest.mark.parametrize("start,duration", [(0, 1), (1, 0)])
    def test_detects_a_bad_time_window(self, start, duration):
        sch = self._schedule(
            Instruction("measure", 1, 1, frozenset({(0, 0)}),
                        frozenset({0, -1}), "M Z"),
            Instruction("measure", start, duration, frozenset({(1, 1)}),
                        frozenset({1, -1}), "M IZ"))
        with pytest.raises(ScheduleError,
                           match="^instruction 1 has a bad time window$"):
            validate_schedule(sch)


class TestSerialization:
    def test_to_dict_shape(self):
        prog = parse_pbc("M ZZZZZI", 6)
        sch = schedule_loose(prog, builtin_layout("compact", 6))
        d = sch.to_dict()
        assert set(d) == {"header", "slices", "total_clocks"}
        assert d["total_clocks"] == 4
        assert d["header"]["scheduler"] == "loose"

    def test_instruction_keys_and_labels(self):
        # `lscompile compile` writes these dicts as they are; the
        # fingerprints hash them with sorted keys, so pin the order here
        sch = compile_program(bench.ising_circuit(5, 1),
                              CompileOptions(board="compact")).schedule
        first = {}
        for ins in sch.instructions:
            first.setdefault(ins.kind, ins)
            if ins.kind == "move":
                (pid,) = ins.patches
                assert ins.label == f"move P{pid} {ins.src}->{ins.dst}"
            elif ins.kind == "rotate":
                (pid,), (tile,) = ins.patches, ins.tiles - {ins.helper}
                assert ins.label == f"rotate P{pid} at {tile}"
        common = ["kind", "label", "start", "duration", "patches", "tiles"]
        assert list(first["measure"].to_dict()) == common + ["op_index", "bus"]
        assert list(first["move"].to_dict()) == common + ["src", "dst"]
        assert list(first["rotate"].to_dict()) == common + ["helper"]
        assert first["move"].label == "move P3 (2, 4)->(1, 4)"
        assert first["rotate"].label == "rotate P2 at (2, 3)"

    def test_header_names_no_run_settings_of_its_own(self):
        sch = schedule_loose(parse_pbc("M ZZ", 2), builtin_layout("compact", 2))
        header = sch.to_dict()["header"]
        assert header["seed"] is None and header["correction"] is None

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
    ops = scheduled_program(pipeline.insert_corrections(
        pipeline.apply_y_strategy(program, "o3ls",
                                  pipeline.access_map(board, qmap))), "loose")
    with pytest.raises(DeadlockError) as exc_info:
        schedule_loose(ops, board, qmap)
    exc = exc_info.value
    assert exc.op in {format_op(op) for op in ops.ops}
    op = parse_op(exc.op)
    assert exc.patches == tuple(sorted(qmap[q] for q in op.word.support()))
    stuck = parse_layout(exc.board)
    assert (stuck.rows, stuck.cols, stuck.port, stuck.ancilla) == (
        board.rows, board.cols, board.port, board.ancilla)
    assert set(stuck.patches) == set(board.patches)
    assert _try_bus(stuck, required_edges(op, qmap), op) is None
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
    # the default board, on which 10 of these widths deadlock: both
    # sides must then raise the same DeadlockError (no action found)
    *(pytest.param(f"adder_{w}", bench.adder_circuit(w), "compact",
                   marks=pytest.mark.slow) for w in range(3, 25)),
])
def test_loose_schedule_matches_copy_and_flood_reference(name, circuit, board,
                                                        monkeypatch):
    ours, actions = _schedule_json(circuit, board)
    monkeypatch.setattr(scheduler, "_pick_action", ref.pick_action)
    assert (ours, actions) == _schedule_json(circuit, board)
    if board == "compact" and actions is not None:
        assert actions > 0   # the case drives moves or rotations


# sha256 of each schedule's sorted-key JSON, hashed as perfbench's job
# fingerprint hashes it; no golden covers these two loose schedules, on
# which one-tile deltas that leave no strict component dominate
LADDERS = {
    "adder_60": (
        bench.adder_circuit(60), 1445,
        "68bd5705caebb124c51014a71488b70d69c8760b17caf688e690ac6c5e120817"),
    "random_120_1200_1": (
        bench.random_program(120, 1200, 1), 3823,
        "f6aa91190f998bc7df26be48584e08e6397e15445e6081ce9cb5c964be5dcb22"),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(LADDERS))
def test_ladder_schedules_are_pinned(name):
    source, clocks, digest = LADDERS[name]
    sched = compile_program(source, CompileOptions(board="standard")).schedule
    blob = json.dumps(sched.to_dict(), sort_keys=True).encode()
    assert (sched.total_clocks, hashlib.sha256(blob).hexdigest()) == (
        clocks, digest)
