"""End-to-end compilation pipeline and correction insertion."""

import re

import pytest

from lscompile.board import Board, builtin_layout
from lscompile.mapping import MappingError
from lscompile.oracle import (
    circuit_distribution,
    distributions_match,
    outcome_distribution,
)
from lscompile.pauli import ROTATION, format_op
from lscompile.pipeline import (
    CompileOptions,
    CompileResult,
    compile_program,
    insert_corrections,
    make_board,
)
from lscompile.scheduler import normalize_angles
from lscompile.transpiler import GateCircuit, PbcProgram, parse_pbc
from lscompile.ysynth import naive_y_decompose
from lscompile import bench


class TestInsertCorrections:
    def test_always_adds_one_quarter_per_eighth(self):
        prog = parse_pbc("pi/8 ZZ\npi/8 XX\nM ZZ")
        out = insert_corrections(prog, "always")
        assert len(out.ops) == 5
        kinds = [(op.word.to_string(), op.angle_num) for op in out.ops
                 if op.kind == ROTATION]
        assert kinds == [("ZZ", 1), ("ZZ", 2), ("XX", 1), ("XX", 2)]

    def test_never_is_identity(self):
        prog = parse_pbc("pi/8 ZZ\npi/8 XX\nM ZZ")
        assert tuple(insert_corrections(prog, "never").ops) == tuple(prog.ops)

    def test_seeded_random_is_reproducible(self):
        prog = bench.random_program(3, 8, seed=0)
        a = insert_corrections(prog, "seeded-random", seed=7)
        b = insert_corrections(prog, "seeded-random", seed=7)
        assert tuple(a.ops) == tuple(b.ops)
        assert len(prog.ops) <= len(a.ops) <= len(
            insert_corrections(prog, "always").ops)

    def test_unknown_policy(self):
        prog = parse_pbc("pi/8 ZZ\nM ZZ")
        with pytest.raises(ValueError):
            insert_corrections(prog, "sometimes")


class TestMakeBoard:
    def test_styles(self):
        assert len(make_board("compact", 6).patches) == 6
        assert len(make_board("standard", 4).patches) == 4
        assert len(make_board("sparse", 5).patches) == 5

    def test_dimension_spec_is_width_by_height(self):
        b = make_board("3x4", 4)
        assert (b.rows, b.cols) == (4, 3)

    def test_auto(self):
        b = make_board("auto", 5)
        assert len(b.patches) == 5
        assert b.a_component() is not None

    def test_board_passthrough(self):
        board = builtin_layout("compact", 3)
        assert make_board(board, 3) is board

    def test_board_with_too_few_patches_names_both_counts(self):
        board = builtin_layout("compact", 1)
        with pytest.raises(ValueError,
                           match="board has 1 patches for 4 qubits"):
            make_board(board, 4)

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            make_board("hexagonal", 4)

    @pytest.mark.parametrize("spec", ["5x", "axb", "x"])
    def test_malformed_dimension_spec_names_the_spec(self, spec):
        with pytest.raises(ValueError,
                           match=re.escape(f"unknown board spec '{spec}'")):
            make_board(spec, 4)


class TestCompileProgram:
    def test_accepts_circuit_and_program(self):
        circ = bench.ising_circuit(3, 1)
        res = compile_program(circ)
        assert isinstance(res, CompileResult)
        prog = parse_pbc("pi/8 ZZ\nM ZZ")
        res2 = compile_program(prog)
        assert res2.schedule.total_clocks > 0
        with pytest.raises(TypeError):
            compile_program(42)

    def test_result_is_consistent(self):
        res = compile_program(bench.ising_circuit(3, 1))
        assert sorted(res.qmap) == [0, 1, 2]
        assert set(res.access) == {0, 1, 2}
        assert res.schedule.qmap == res.qmap
        assert res.board.a_component() is not None

    def test_distribution_preserved_without_corrections(self):
        circ = bench.ising_circuit(3, 1)
        res = compile_program(circ, CompileOptions(
            correction="never", board="compact", mapping="identity"))
        assert distributions_match(outcome_distribution(res.corrected),
                                   circuit_distribution(circ), tol=1e-9)

    def test_distribution_preserved_on_random_circuits(self):
        for seed in (1, 4):
            circ = bench.random_circuit(3, 10, seed=seed)
            res = compile_program(circ, CompileOptions(
                correction="never", board="standard"))
            assert distributions_match(outcome_distribution(res.corrected),
                                       circuit_distribution(circ), tol=1e-9)

    def test_y_strategy_off_keeps_y_ops(self):
        prog = parse_pbc("pi/8 YY\nM ZZ")
        res = compile_program(prog, CompileOptions(
            y_strategy="off", correction="never", board="standard"))
        assert any("Y" in op.word.to_string() for op in res.synthesized.ops)

    def test_o3ls_strategy_decomposes_on_restricted_board(self):
        prog = parse_pbc("pi/8 YY\nM ZZ")
        res = compile_program(prog, CompileOptions(
            correction="never", board="compact", mapping="identity"))
        assert all("Y" not in op.word.to_string() for op in res.synthesized.ops)

    def test_scheduler_choice_recorded(self):
        res = compile_program(bench.ising_circuit(3, 1),
                              CompileOptions(scheduler="spc"))
        assert res.schedule.scheduler == "spc"

    def test_custom_board_too_small(self):
        board = builtin_layout("compact", 2)
        with pytest.raises(MappingError):
            compile_program(bench.ising_circuit(3, 1),
                            CompileOptions(board=board))

    def test_seeded_random_corrections_compile(self):
        circ = bench.ising_circuit(3, 1)
        r1 = compile_program(circ, CompileOptions(
            correction="seeded-random", seed=5))
        r2 = compile_program(circ, CompileOptions(
            correction="seeded-random", seed=5))
        assert tuple(r1.corrected.ops) == tuple(r2.corrected.ops)
        assert r1.schedule.total_clocks == r2.schedule.total_clocks

    def test_the_pipeline_stamps_its_run_settings(self):
        res = compile_program(bench.ising_circuit(3, 1), CompileOptions(
            correction="seeded-random", seed=5))
        header = res.schedule.to_dict()["header"]
        assert (header["seed"], header["correction"]) == (5, "seeded-random")
        assert res.schedule.meta == {
            "seed": 5, "correction": "seeded-random", "mapping": "ea",
            "y_strategy": "o3ls"}


@pytest.mark.parametrize("board", ["standard", "auto"])
@pytest.mark.parametrize("scheduler", ["loose", "spc"])
def test_every_op_index_names_one_scheduled_operator(scheduler, board):
    """A schedule measures each operator of `scheduled` once, under its own
    text, and `scheduled` is the rewrite the benchmark derives on its own
    from `corrected`."""
    for name, circuit in bench.suite():
        res = compile_program(circuit, CompileOptions(scheduler=scheduler,
                                                      board=board))
        measures = res.schedule.measure_instructions()
        # sorted indices equal to the range: each one exactly once
        assert sorted(i.op_index for i in measures) == list(
            range(len(res.scheduled.ops))), name
        for ins in measures:
            assert format_op(res.scheduled.ops[ins.op_index]) == ins.label
        corrected = res.corrected
        if scheduler == "spc":
            corrected = naive_y_decompose(corrected)
        assert res.scheduled == normalize_angles(corrected), name


@pytest.mark.parametrize("field,error,message", [
    ("scheduler", ValueError, "unknown scheduler 'bogus'"),
    ("mapping", MappingError, "unknown mapping strategy 'bogus'"),
    ("y_strategy", ValueError, "unknown Y strategy 'bogus'"),
    ("correction", ValueError, "unknown correction policy 'bogus'"),
], ids=["scheduler", "mapping", "y_strategy", "correction"])
def test_unknown_scheduler_is_refused_before_any_stage(monkeypatch, field,
                                                       error, message):
    import lscompile.pipeline as pipeline

    def no_stage(*args):
        raise AssertionError(f"a stage ran before the {field} check")

    for stage in ("transpile", "build_pdag", "make_board"):
        monkeypatch.setattr(pipeline, stage, no_stage)
    with pytest.raises(error, match=f"^{message}$"):
        compile_program(bench.adder_circuit(24),
                        CompileOptions(board="auto", **{field: "bogus"}))


def test_traced_run_lookup_sites_exist():
    # perfbench/spans.py wraps these names where their callers look them
    # up; a rename here silently breaks `perfbench/run.py --trace 1`.
    from lscompile import layout_search, pipeline, scheduler, transpiler

    sites = [(pipeline, name, pipeline.compile_program) for name in (
        "transpile", "build_pdag", "make_board", "build_mapping",
        "access_map", "apply_y_strategy", "insert_corrections",
        "SCHEDULERS", "validate_schedule")]
    sites += [
        (pipeline, "builtin_layout", pipeline.make_board),
        (layout_search, "design_layout", layout_search.auto_design),
        (layout_search, "layout_score", layout_search.design_layout),
        (scheduler, "bus_patches", scheduler._try_bus),
        (transpiler, "conjugate_past", transpiler.absorb_cliffords),
    ]
    for owner, name, caller in sites:
        assert hasattr(owner, name), f"{owner.__name__}.{name}"
        assert name in caller.__code__.co_names, (
            f"{caller.__name__} no longer looks up {name}")
    for name in ("a_component", "copy", "move_patch", "rotate_patch"):
        assert callable(getattr(Board, name)), f"Board.{name}"
    assert set(pipeline.SCHEDULERS) == {"loose", "spc"}
