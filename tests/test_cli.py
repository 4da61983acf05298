"""Command line entry points, driven through main() with temp files."""

import json

import pytest

from lscompile.board import (
    builtin_layout,
    format_layout,
    irregular_demo,
    parse_layout,
)
from lscompile.cli import main
from lscompile.oracle import MAX_ORACLE_QUBITS
from lscompile.pipeline import make_board
from lscompile.transpiler import parse_pbc

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
    assert any(op.is_measurement() for op in prog.ops)


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


def test_estimate_reports_p_total(qasm_file, tmp_path):
    out = tmp_path / "ler.json"
    assert main(["estimate", qasm_file, "--distance", "9",
                 "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["distance"] == 9
    assert payload["p_total"] > 0.0
    assert "mean_bus_tiles" in payload
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


def test_compare_prints_table(qasm_file, capsys):
    assert main(["compare", qasm_file,
                 "--run", "fast:loose:compact",
                 "--run", "base:spc:standard"]) == 0
    text = capsys.readouterr().out
    assert "fast" in text and "base" in text
    assert "clocks" in text and "p_total" in text


def test_compare_accepts_layout_file(qasm_file, tmp_path, capsys):
    src = tmp_path / "box.layout"
    src.write_text(format_layout(builtin_layout("standard", 2)))
    assert main(["compare", qasm_file, "--run", f"a:loose:@{src}"]) == 0
    assert "a " in capsys.readouterr().out


def test_compare_rejects_bad_run_spec(qasm_file):
    with pytest.raises(SystemExit):
        main(["compare", qasm_file, "--run", "only-name"])


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
    ["verify", "wide.qasm"],
], ids=["bad-spec", "few-patches", "missing-file", "bad-distance",
        "no-design", "bad-run-spec", "verify-too-wide"])
def test_library_errors_are_one_line_and_exit_2(tmp_path, monkeypatch,
                                                capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.pbc").write_text("pi/8 ZZ\nM ZZ\n")
    (tmp_path / "one.layout").write_text(
        format_layout(builtin_layout("compact", 1)))
    (tmp_path / "wide.qasm").write_text(
        QASM.replace("[2]", f"[{MAX_ORACLE_QUBITS + 1}]"))
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("lscompile: error: ")
    assert err.count("\n") == 1


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
