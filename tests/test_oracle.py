"""State-vector oracle: unitaries, distributions; brute-force clocks."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import brute_force_reference
import dense_reference as dense
from lscompile import bench, oracle, scheduled_program
from lscompile.board import Board
from lscompile.oracle import (
    MAX_ORACLE_QUBITS,
    circuit_distribution,
    circuit_unitary,
    distributions_match,
    equivalent_up_to_phase,
    outcome_distribution,
    program_unitary,
)
from lscompile.pauli import ROTATION, PauliWord, measurement, rotation
from lscompile.pipeline import CompileOptions, compile_program
from lscompile.scheduler import DeadlockError, ScheduleError
from lscompile.transpiler import (
    SUPPORTED_GATES,
    Gate,
    GateCircuit,
    PbcProgram,
    decompose_gate,
    transpile,
)
from lscompile.ysynth import y_synthesize
from brute_force_reference import brute_force_optimum
from dense_reference import gate_matrix, rotation_matrix, word_matrix
from test_transpiler import pbc_programs

W = PauliWord.from_string

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_word_matrix_single_qubit():
    assert np.allclose(word_matrix(W("X")), SX)
    assert np.allclose(word_matrix(W("Y")), SY)
    assert np.allclose(word_matrix(W("Z")), SZ)
    assert np.allclose(word_matrix(W("I")), np.eye(2))


def test_word_matrix_qubit_zero_is_leftmost_factor():
    assert np.allclose(word_matrix(W("XI")), np.kron(SX, np.eye(2)))
    assert np.allclose(word_matrix(W("IZ")), np.kron(np.eye(2), SZ))


def test_rotation_matrix_quarter_turn():
    u = rotation_matrix(rotation(W("Z"), 2))
    assert np.allclose(u, (np.eye(2) - 1j * SZ) / np.sqrt(2))


def test_rotation_matrix_is_exponential():
    op = rotation(W("XZ"), 3)
    theta = 3 * np.pi / 8
    m = word_matrix(W("XZ"))
    expected = np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * m
    assert np.allclose(rotation_matrix(op), expected)


def test_program_unitary_composes_hadamard():
    ops = (rotation(W("Z"), 2), rotation(W("X"), 2), rotation(W("Z"), 2))
    u = program_unitary(PbcProgram(1, ops))
    assert equivalent_up_to_phase(u, gate_matrix(Gate("h", (0,)), 1))


def test_equivalent_up_to_phase():
    h = gate_matrix(Gate("h", (0,)), 1)
    assert equivalent_up_to_phase(h, np.exp(0.7j) * h)
    assert not equivalent_up_to_phase(h, gate_matrix(Gate("x", (0,)), 1))


def test_circuit_unitary_matches_gate_product():
    circ = GateCircuit(2)
    circ.add("h", 0)
    circ.add("cx", 0, 1)
    u = circuit_unitary(circ)
    cx = gate_matrix(Gate("cx", (0, 1)), 2)
    h0 = gate_matrix(Gate("h", (0,)), 2)
    assert np.allclose(u, cx @ h0)


def test_outcome_distribution_deterministic():
    prog = PbcProgram(1, (measurement(W("Z")),))
    assert outcome_distribution(prog) == {(1,): pytest.approx(1.0)}


def test_bell_state_distribution():
    circ = GateCircuit(2)
    circ.add("h", 0)
    circ.add("cx", 0, 1)
    dist = circuit_distribution(circ)
    assert set(dist) == {(1, 1), (-1, -1)}
    assert dist[(1, 1)] == pytest.approx(0.5)
    assert dist[(-1, -1)] == pytest.approx(0.5)


def test_negative_sign_measurement_flips_outcome():
    prog = PbcProgram(1, (measurement(W("Z"), -1),))
    assert outcome_distribution(prog) == {(-1,): pytest.approx(1.0)}


def test_distributions_match_tolerance():
    a = {(1,): 0.5, (-1,): 0.5}
    b = {(1,): 0.5 + 1e-12, (-1,): 0.5 - 1e-12}
    c = {(1,): 0.6, (-1,): 0.4}
    assert distributions_match(a, b)
    assert not distributions_match(a, c)


def test_qubit_cap_enforced():
    big = PbcProgram(MAX_ORACLE_QUBITS + 1,
                     (measurement(PauliWord(MAX_ORACLE_QUBITS + 1, 0, 0)),))
    with pytest.raises(Exception):
        program_unitary(big)


def test_oracle_imports_nothing_it_checks():
    """The oracle reads only the Pauli algebra and the IR types, so no
    compiler stage it checks is part of the check."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
    assert names.isdisjoint({"scheduler", "board", "pdag", "ysynth",
                             "mapping", "layout_search", "pipeline"})
    package = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level}
    assert package == {"pauli", "transpiler"}


def test_brute_force_single_measurement():
    board = Board(3, 3, ((2, 1), "h"), (2, 0),
                  {0: ((0, 0), "h"), 1: ((0, 2), "h")})
    prog = PbcProgram(2, (measurement(W("ZZ")),))
    assert brute_force_optimum(prog, board) == 1


def test_brute_force_never_beats_known_golden():
    """The exhaustive search is a lower bound on any legal schedule."""
    from lscompile.board import builtin_layout
    from lscompile.scheduler import schedule_loose
    from lscompile.transpiler import parse_pbc

    prog = parse_pbc("M ZZZ", 3)
    board = builtin_layout("compact", 3)
    loose = schedule_loose(prog, board).total_clocks
    assert brute_force_optimum(prog, board) <= loose


@pytest.mark.parametrize("error", [
    DeadlockError("M ZZ", (0, 1), ""), ScheduleError("stuck")])
def test_brute_force_survives_a_scheduler_failure(monkeypatch, error):
    """Without a heuristic incumbent the search starts from a crude bound
    and still finds the optimum."""
    def failing(*args):
        raise error

    monkeypatch.setattr(brute_force_reference, "schedule_loose", failing)
    board = Board(3, 3, ((2, 1), "h"), (2, 0),
                  {0: ((0, 0), "h"), 1: ((0, 2), "h")})
    prog = PbcProgram(2, (measurement(W("ZZ")),))
    assert brute_force_optimum(prog, board) == 1


def test_brute_force_passes_on_the_refusal_of_an_unscheduled_program():
    """A program not in scheduled form is refused by the heuristic with a
    ValueError, which is no scheduling failure: the search never starts."""
    board = Board(3, 3, ((2, 1), "h"), (2, 0),
                  {0: ((0, 0), "h"), 1: ((0, 2), "h")})
    prog = PbcProgram(2, (rotation(W("ZZ"), 3), measurement(W("ZZ"))))
    with pytest.raises(ValueError, match=(
            r"^operator 0 \(3pi/8 ZZ\) is not in scheduled form for loose$")):
        brute_force_optimum(prog, board)
    assert brute_force_optimum(scheduled_program(prog, "loose"), board) >= 3


def test_brute_force_surfaces_other_scheduler_errors(monkeypatch):
    """A fault that is not a scheduling failure, here a qubit missing from
    the map, is raised, not hidden behind a looser bound."""
    def failing(*args):
        raise KeyError(1)

    monkeypatch.setattr(brute_force_reference, "schedule_loose", failing)
    board = Board(3, 3, ((2, 1), "h"), (2, 0),
                  {0: ((0, 0), "h"), 1: ((0, 2), "h")})
    with pytest.raises(KeyError):
        brute_force_optimum(PbcProgram(2, (measurement(W("ZZ")),)), board)


# --- the index-map kernel against the dense reference ----------------------

@st.composite
def gate_circuits(draw, max_qubits=6, with_measure=True):
    """Circuits over every supported gate name, `measure` included unless
    `with_measure` is false."""
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    names = [g for g in SUPPORTED_GATES
             if (with_measure or g != "measure") and (n > 1 or g != "cx")]
    qubit = st.integers(min_value=0, max_value=n - 1)
    circ = GateCircuit(n)
    for name in draw(st.lists(st.sampled_from(names), max_size=25)):
        if name == "cx":
            circ.add("cx", *draw(st.lists(qubit, min_size=2, max_size=2,
                                          unique=True)))
        else:
            circ.add(name, draw(qubit))
    return circ


def at_most_six_measurements(prog):
    """The program cut before its seventh measurement: each measurement
    can double the dense reference's branches."""
    ends = [i for i, op in enumerate(prog.ops) if op.kind != ROTATION]
    return PbcProgram(prog.n, prog.ops[:ends[6]] if len(ends) > 6
                      else prog.ops)


@given(pbc_programs().map(at_most_six_measurements))
@settings(max_examples=25, deadline=None)
def test_outcome_distribution_matches_dense_reference(prog):
    got, want = outcome_distribution(prog), dense.outcome_distribution(prog)
    assert list(got) == list(want)
    assert distributions_match(got, want)


@given(gate_circuits())
@settings(max_examples=30, deadline=None)
def test_circuit_distribution_matches_dense_reference(circ):
    got, want = circuit_distribution(circ), dense.circuit_distribution(circ)
    assert list(got) == list(want)
    assert distributions_match(got, want)


@given(pbc_programs())
@settings(max_examples=20, deadline=None)
def test_program_unitary_matches_dense_reference(prog):
    prog = PbcProgram(prog.n, tuple(op for op in prog.ops
                                    if op.kind == ROTATION))
    assert equivalent_up_to_phase(program_unitary(prog),
                                  dense.program_unitary(prog))


@given(gate_circuits(with_measure=False))
@settings(max_examples=20, deadline=None)
def test_circuit_unitary_matches_dense_reference(circ):
    assert equivalent_up_to_phase(circuit_unitary(circ),
                                  dense.circuit_unitary(circ))


# --- 7 to MAX_ORACLE_QUBITS qubits, beyond the dense reference -------------

@pytest.mark.parametrize("n", range(7, MAX_ORACLE_QUBITS + 1))
def test_front_end_preserves_semantics_on_wide_circuits(n):
    """The acceptance test's front-end check at widths the dense
    reference cannot reach: the per-gate decomposition reproduces the
    unitary, and Y synthesis under an X/Z-only access map keeps the
    outcome distribution."""
    circ = bench.random_circuit(n, 2 * n, seed=n)
    gates_only = GateCircuit(
        n, tuple(g for g in circ.gates if g.name != "measure"))
    raw = [op for g in gates_only.gates for op in decompose_gate(g, n)]
    assert equivalent_up_to_phase(program_unitary(PbcProgram(n, tuple(raw))),
                                  circuit_unitary(gates_only), tol=1e-9)
    synthesized = y_synthesize(transpile(circ),
                               {q: {"X", "Z"} for q in range(n)})
    assert distributions_match(outcome_distribution(synthesized),
                               circuit_distribution(circ), tol=1e-9)


@pytest.mark.parametrize("board", ["auto", "standard"])
@pytest.mark.parametrize("name", ["adder_7", "adder_10"])
def test_compiled_suite_adders_match_oracle(name, board):
    circ = dict(bench.suite())[name]
    result = compile_program(circ, CompileOptions(board=board))
    assert distributions_match(circuit_distribution(circ),
                               outcome_distribution(result.synthesized))
