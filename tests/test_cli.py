"""Command line entry points, driven through main() with temp files."""

import io
import json
import time
from xml.etree import ElementTree

import pytest

from lscompile import bench
from lscompile.board import (
    builtin_layout,
    format_layout,
    irregular_demo,
    parse_layout,
)
from lscompile.cli import main
from lscompile.layout_search import MAX_DESIGN_TILES
from lscompile.oracle import MAX_ORACLE_QUBITS
from lscompile.pauli import MEASUREMENT
from lscompile.pipeline import CompileOptions, compile_program, make_board
from lscompile.transpiler import format_pbc, parse_pbc, parse_qasm, transpile

import ler_reference

QASM = (
    'OPENQASM 2.0;\n'
    'include "qelib1.inc";\n'
    'qreg q[2];\n'
    'creg c[2];\n'
    'h q[0];\n'
    'cx q[0],q[1];\n'
    'measure q[0] -> c[0];\n'
    'measure q[1] -> c[1];\n')


@pytest.fixture
def qasm_file(tmp_path):
    path = tmp_path / "bell.qasm"
    path.write_text(QASM)
    return str(path)


def test_transpile_writes_parseable_program(qasm_file, tmp_path):
    out = tmp_path / "bell.pbc"
    assert main(["transpile", qasm_file, "-o", str(out)]) == 0
    prog = parse_pbc(out.read_text())
    assert prog.n == 2
    assert any(op.kind == MEASUREMENT for op in prog.ops)


def test_transpile_reads_pbc_too(tmp_path):
    src = tmp_path / "prog.pbc"
    src.write_text("pi/8 ZZ\nM ZZ\n")
    out = tmp_path / "out.pbc"
    assert main(["transpile", str(src), "-o", str(out)]) == 0
    assert parse_pbc(out.read_text()).n == 2


def test_layout_builtin(tmp_path):
    out = tmp_path / "board.layout"
    assert main(["layout", "--qubits", "4", "--board", "compact",
                 "-o", str(out)]) == 0
    board = parse_layout(out.read_text())
    assert len(board.patches) == 4


def test_layout_designed_with_svg(tmp_path):
    out = tmp_path / "board.layout"
    svg = tmp_path / "board.svg"
    assert main(["layout", "--qubits", "4", "--board", "5x5",
                 "-o", str(out), "--svg", str(svg)]) == 0
    assert parse_layout(out.read_text()).a_component() is not None
    assert "<svg" in svg.read_text()


@pytest.mark.parametrize("name", ["box.layout", "c.layout"])
def test_layout_reads_layout_file(tmp_path, name):
    text = format_layout(irregular_demo())
    src = tmp_path / name
    src.write_text(text)
    out = tmp_path / "out.layout"
    assert main(["layout", "--qubits", "6", "--board", "@" + str(src),
                 "-o", str(out)]) == 0
    assert out.read_text() == text


def test_layout_dimension_spec_matches_make_board(tmp_path):
    out = tmp_path / "board.layout"
    assert main(["layout", "--qubits", "4", "--board", "5x4",
                 "-o", str(out)]) == 0
    assert out.read_text() == format_layout(make_board("5x4", 4))


def test_auto_budget_above_the_design_limit_designs_at_the_limit(tmp_path):
    out = tmp_path / "board.layout"
    start = time.perf_counter()
    assert main(["layout", "--qubits", "2", "--board", "auto",
                 "--max-tiles", "20000", "-o", str(out)]) == 0
    assert time.perf_counter() - start < 10.0
    assert parse_layout(out.read_text()).tile_count() == MAX_DESIGN_TILES


@pytest.mark.parametrize("board,message", [
    ("2x3", "no legal position for patch 1 on 2x3"),
    ("100x50", "a 100x50 board is over the 4096-tile design limit"),
    ("1x5", "a 1x5 board is too small to design on"),
])
def test_design_errors_name_the_grid_as_board_spells_it(board, message,
                                                        capsys):
    """--board WxH is W columns by H rows, and the error says WxH."""
    with pytest.raises(SystemExit) as exit_:
        main(["layout", "--qubits", "3", "--board", board])
    assert exit_.value.code == 2
    assert capsys.readouterr().err == f"lscompile: error: {message}\n"


def test_compile_emits_schedule_json(qasm_file, tmp_path):
    out = tmp_path / "schedule.json"
    assert main(["compile", qasm_file, "--board", "compact",
                 "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"header", "slices", "total_clocks"}
    assert payload["total_clocks"] >= 1
    assert payload["header"]["scheduler"] == "loose"


def test_compile_layout_file_round_trip(qasm_file, tmp_path):
    layout_out = tmp_path / "board.layout"
    assert main(["layout", "--qubits", "2", "--board", "standard",
                 "-o", str(layout_out)]) == 0
    out = tmp_path / "schedule.json"
    assert main(["compile", qasm_file, "--board", "@" + str(layout_out),
                 "-o", str(out)]) == 0
    assert json.loads(out.read_text())["total_clocks"] >= 1


def test_compile_svg_draws_one_rect_per_instruction(qasm_file, tmp_path):
    out, svg = tmp_path / "schedule.json", tmp_path / "schedule.svg"
    assert main(["compile", qasm_file, "-o", str(out),
                 "--svg", str(svg)]) == 0
    slices = json.loads(out.read_text())["slices"]
    rects = ElementTree.parse(svg).getroot().iter(
        "{http://www.w3.org/2000/svg}rect")
    assert len(list(rects)) == sum(len(s["instructions"]) for s in slices)


def test_compile_layout_out_round_trips(qasm_file, tmp_path):
    out, layout = tmp_path / "schedule.json", tmp_path / "board.layout"
    assert main(["compile", qasm_file, "--board", "standard", "-o", str(out),
                 "--layout-out", str(layout)]) == 0
    text = layout.read_text()
    assert format_layout(parse_layout(text)) == text
    assert text == json.loads(out.read_text())["header"]["board"]


def test_compile_reads_stdin_and_writes_stdout(qasm_file, tmp_path,
                                               monkeypatch, capsys):
    out = tmp_path / "schedule.json"
    assert main(["compile", qasm_file, "-o", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(QASM))
    assert main(["compile", "-"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_finite_alpha_e_designs_the_board(tmp_path):
    out = tmp_path / "board.layout"
    assert main(["layout", "--qubits", "2", "--board", "auto",
                 "--alpha-e", "0.5", "-o", str(out)]) == 0
    assert out.read_text() == format_layout(make_board("auto", 2, 0.5))
    assert out.read_text() != format_layout(make_board("auto", 2))


def test_auto_board_designs_at_alpha_e_one(tmp_path):
    out = tmp_path / "board.layout"
    assert main(["layout", "--qubits", "2", "--board", "auto",
                 "--alpha-e", "1", "-o", str(out)]) == 0
    assert out.read_text() == format_layout(make_board("auto", 2, 1.0))


def test_identity_mapping_leaves_spare_patches_free(tmp_path):
    """Two qubits on a board of four patches compile under identity."""
    src, layout = tmp_path / "two.pbc", tmp_path / "four.layout"
    src.write_text("pi/8 XZ\nM ZZ\n")
    layout.write_text(format_layout(builtin_layout("standard", 4)))
    out = tmp_path / "schedule.json"
    assert main(["compile", str(src), "--board", "@" + str(layout),
                 "--mapping", "identity", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["header"]["mapping"] == {
        "0": 0, "1": 1}


def test_estimate_reports_p_total(qasm_file, tmp_path):
    out = tmp_path / "ler.json"
    assert main(["estimate", qasm_file, "--distance", "9",
                 "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["distance"] == 9
    assert payload["p_total"] > 0.0
    assert {"p_measure", "p_deform", "p_idle", "mean_bus_tiles"} <= set(payload)
    assert "layers" not in payload


def test_estimate_per_slice_and_custom_calibration(qasm_file, tmp_path,
                                                   monkeypatch):
    from lscompile.ler import default_calibration
    calib = tmp_path / "calib.json"
    calib.write_text(default_calibration(5).to_json())
    monkeypatch.setenv("LSCOMPILE_CALIB", str(calib))
    out = tmp_path / "ler.json"
    assert main(["estimate", qasm_file, "--per-slice", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["distance"] == 5
    assert payload["layers"]
    # the layers of the per-slice dict estimate, key for key
    schedule = compile_program(parse_qasm(QASM), CompileOptions()).schedule
    old = ler_reference.estimate_ler(schedule, default_calibration(5))
    assert payload["layers"] == old["layers"]
    assert payload["p_total"] == old["p_total"]


def test_compare_prints_table(qasm_file, capsys):
    assert main(["compare", qasm_file,
                 "--run", "fast:loose:compact",
                 "--run", "base:spc:standard"]) == 0
    text = capsys.readouterr().out
    assert "fast" in text and "base" in text
    assert "clocks" in text and "p_total" in text
    header, _, *rows = text.splitlines()
    assert header.split()[-4:] == ["p_total", "p_measure", "p_deform",
                                   "p_idle"]
    # each run's three sums, beside its total
    assert [len(row.split()) for row in rows] == [10, 10]


def test_op_counts_are_the_operators_the_schedule_measures(tmp_path, capsys):
    """adder_4 has 32 operators after corrections; spc measures 80 after
    its naive Y removal and angle normalization, loose 32."""
    src = tmp_path / "adder_4.pbc"
    src.write_text(format_pbc(transpile(bench.adder_circuit(4))))
    out = str(tmp_path / "s.json")
    for sched, ops in (("spc", 80), ("loose", 32)):
        assert main(["compile", str(src), "--board", "standard",
                     "--scheduler", sched, "-o", out]) == 0
        assert f" ops={ops} " in capsys.readouterr().err
    assert main(["compare", str(src), "--run", "a:spc:standard:ea:o3ls",
                 "--run", "b:loose:standard"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[5] for row in rows] == ["80", "32"]


def test_compare_accepts_layout_file(qasm_file, tmp_path, capsys):
    src = tmp_path / "box.layout"
    src.write_text(format_layout(builtin_layout("standard", 2)))
    assert main(["compare", qasm_file, "--run", f"a:loose:@{src}"]) == 0
    assert "a " in capsys.readouterr().out


def test_compare_rejects_bad_run_spec(qasm_file):
    with pytest.raises(SystemExit):
        main(["compare", qasm_file, "--run", "only-name"])


@pytest.mark.parametrize("extra", [
    ["--run", "b:loose:compact:bogus"],
    ["--run", "b:loose", "--distance", "9"],
    ["--run", "b:loose:compact", "--distance", "4"],
    ["--run", "b:loose:bogus"],
], ids=["bad-mapping", "two-fields", "bad-distance", "bad-layout"])
def test_compare_checks_every_run_before_compiling(qasm_file, monkeypatch,
                                                    capsys, extra):
    from lscompile import cli

    real, calls = cli.compile_program, []
    monkeypatch.setattr(cli, "compile_program",
                        lambda *a: calls.append(a) or real(*a))
    with pytest.raises(SystemExit) as exit_:
        main(["compare", qasm_file, "--run", "a:loose:compact", *extra])
    assert exit_.value.code == 2
    assert calls == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("lscompile: error: ")
    assert err.count("\n") == 1


def test_compile_names_a_missing_magic_port(tmp_path, monkeypatch, capsys):
    """A layout without M is refused as it is read, before its first T
    gate could look for the port."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bell_t.qasm").write_text(QASM.replace(
        "measure q[0] -> c[0];\n", "t q[1];\nmeasure q[0] -> c[0];\n"))
    (tmp_path / "no_port.layout").write_text("Q0h Q1h .\n. . .\nAh . .\n")
    with pytest.raises(SystemExit) as exit_:
        main(["compile", "bell_t.qasm", "--board", "@no_port.layout"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err == (
        "lscompile: error: layout has no magic port\n")


def test_verify_accepts_sound_circuit(qasm_file, capsys):
    assert main(["verify", qasm_file]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_program_input(tmp_path, capsys):
    src = tmp_path / "prog.pbc"
    src.write_text("pi/8 YY\nM ZZ\n")
    assert main(["verify", str(src)]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_accepts_ten_qubit_circuit(tmp_path, capsys):
    src = tmp_path / "wide.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[10];\n"
                   "h q[0];\nt q[0];\ncx q[0],q[9];\ntdg q[9];\ns q[4];\n")
    assert main(["verify", str(src)]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["layout", "--qubits", "4", "--board", "5x"],
    ["compile", "ok.pbc", "--board", "@one.layout"],
    ["compile", "missing.pbc"],
    ["estimate", "ok.pbc", "--distance", "4"],
    ["compile", "ok.pbc", "--board", "2x2"],
    ["compare", "ok.pbc", "--run", "only-name"],
    ["compare", "ok.pbc", "--run", "a:loose:standard:ea:o3ls:junk:more"],
    ["verify", "wide.qasm"],
    ["layout", "--qubits", "4", "--board", "auto", "--alpha-e", "nan"],
    ["layout", "--qubits", "4", "--board", "auto", "--alpha-e=-inf"],
    ["layout", "--qubits", "3", "--board", "compact", "--alpha-e", "nan"],
    ["compile", "ok.pbc", "--alpha-e", "inf"],
    ["estimate", "ok.pbc", "--alpha-e", "nan"],
    ["compare", "ok.pbc", "--run", "a:loose:compact", "--alpha-e", "nan"],
    ["compile", "ok.pbc", "--board", "@neg.layout"],
    ["layout", "--qubits", "0", "--board", "3x3"],
    ["compile", "empty.qasm", "--board", "3x3"],
    ["layout", "--qubits", "2", "--board", "99999x99999"],
], ids=["bad-spec", "few-patches", "missing-file", "bad-distance",
        "no-design", "bad-run-spec", "run-spec-too-long", "verify-too-wide",
        "nan-alpha-e", "infinite-alpha-e", "nan-alpha-e-builtin-board",
        "infinite-alpha-e-compile", "nan-alpha-e-estimate",
        "nan-alpha-e-compare", "negative-patch-id",
        "zero-qubits", "zero-qubit-program", "over-design-limit"])
def test_library_errors_are_one_line_and_exit_2(tmp_path, monkeypatch,
                                                capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.pbc").write_text("pi/8 ZZ\nM ZZ\n")
    (tmp_path / "one.layout").write_text(
        format_layout(builtin_layout("compact", 1)))
    (tmp_path / "neg.layout").write_text("Q-1h . Q0h\n. . .\nAh . M\n")
    (tmp_path / "wide.qasm").write_text(
        QASM.replace("[2]", f"[{MAX_ORACLE_QUBITS + 1}]"))
    (tmp_path / "empty.qasm").write_text("OPENQASM 2.0;\nqreg q[0];\n")
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("lscompile: error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["transpile", "compile", "verify"])
def test_a_negative_qubit_count_is_one_line_and_exit_2(monkeypatch, capsys,
                                                       command):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    with pytest.raises(SystemExit) as exit_:
        main([command, "-", "--qubits", "-1"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "lscompile: error: qubit count must be non-negative, got -1\n")


def _calibration_rates(**changes):
    from lscompile.ler import default_calibration
    rates = json.loads(default_calibration(9).to_json())["rates"]
    rates.update(changes)
    return {k: v for k, v in rates.items() if v is not None}


@pytest.mark.parametrize("payload", [
    {"distance": 9},
    {"rates": _calibration_rates()},
    {"distance": 9, "rates": {"bogus": 1}},
    {"distance": 9, "rates": _calibration_rates(bogus=1.0)},
    {"distance": 9, "rates": _calibration_rates(idle_rate=None)},
    {"distance": 9, "rates": _calibration_rates(idle_rate=-1e-6)},
    {"distance": 9, "rates": _calibration_rates(move_rate=float("inf"))},
    {"distance": 9, "rates": _calibration_rates(move_rate=float("nan"))},
    {"distance": 9, "rates": _calibration_rates(move_rate="1e-6")},
    {"distance": 9, "rates": [1, 2]},
    [9],
    {"distance": "nine", "rates": _calibration_rates()},
    {"distance": 4, "rates": _calibration_rates()},
    {"distance": 11, "rates": _calibration_rates()},
    {"distance": 9.0, "rates": _calibration_rates()},
    {"distance": True, "rates": _calibration_rates()},
    {"distance": None, "rates": _calibration_rates()},
], ids=["no-rates", "no-distance", "only-unknown-rate", "extra-rate",
        "missing-rate", "negative-rate", "infinite-rate", "nan-rate",
        "string-rate", "rates-not-object", "not-an-object", "string-distance",
        "even-distance", "unsupported-distance", "float-distance",
        "bool-distance", "null-distance"])
def test_malformed_calibration_is_one_line_and_exit_2(tmp_path, monkeypatch,
                                                       capsys, payload):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.pbc").write_text("pi/8 ZZ\nM ZZ\n")
    (tmp_path / "c.json").write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exit_:
        main(["estimate", "ok.pbc", "--calibration", "c.json"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("lscompile: error: calibration")
    assert err.count("\n") == 1


@pytest.mark.parametrize("bug,gate", [
    ("t-as-s", "t 2"),              # the right qubit, the wrong angle
    ("h-on-neighbour", "h 0"),      # the right rotations, the wrong qubit
])
def test_verify_names_a_wrong_gate_decomposition(tmp_path, capsys,
                                                 monkeypatch, bug, gate):
    from lscompile import cli
    from lscompile.pauli import PauliWord, rotation

    real = cli.decompose_gate

    def broken(g, n):
        if bug == "t-as-s" and g.name == "t":
            return [rotation(PauliWord.from_letters(n, {g.qubits[0]: "Z"}), 2)]
        if bug == "h-on-neighbour" and g.name == "h":
            return real(type(g)("h", (g.qubits[0] + 1,)), n)
        return real(g, n)

    monkeypatch.setattr(cli, "decompose_gate", broken)
    src = tmp_path / "c.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[3];\n"
                   "h q[0];\ncx q[0],q[1];\nt q[2];\n")
    assert main(["verify", str(src)]) == 1
    out = capsys.readouterr().out
    assert f"FAIL: gate decomposition unitary mismatch at {gate}\n" in out
    assert "OK" not in out
