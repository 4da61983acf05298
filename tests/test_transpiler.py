"""Gate-level lowering into Pauli rotation programs."""

import pytest
from hypothesis import given, settings, strategies as st

from lscompile import transpiler
from lscompile.oracle import (
    circuit_distribution,
    circuit_unitary,
    distributions_match,
    equivalent_up_to_phase,
    outcome_distribution,
    program_unitary,
)
from lscompile.pauli import (
    ROTATION,
    PauliWord,
    commutes,
    conjugate_past,
    flip_past_pauli,
    measurement,
    rotation,
)
from lscompile.transpiler import (
    CircuitParseError,
    Gate,
    GateCircuit,
    PbcProgram,
    SUPPORTED_GATES,
    UnsupportedGateError,
    absorb_cliffords,
    decompose_gate,
    format_pbc,
    parse_pbc,
    parse_qasm,
    transpile,
)
from lscompile import bench
from dense_reference import gate_matrix

W = PauliWord.from_string


def op_triples(program):
    return [(op.kind[0], op.word.to_string(), op.angle_num) for op in program.ops]


# each one-qubit gate's rotations (word, k pi/8), written apart from the
# transpiler's own table
ONE_QUBIT_TABLE = {
    "t": [("Z", 1)],
    "tdg": [("Z", 15)],
    "s": [("Z", 2)],
    "sdg": [("Z", 14)],
    "h": [("Z", 2), ("X", 2), ("Z", 2)],
    "x": [("X", 4)],
    "y": [("Y", 4)],
    "z": [("Z", 4)],
}
ONE_QUBIT_GATES = [g for g in SUPPORTED_GATES if g not in ("cx", "measure")]


class TestDecomposeGate:
    def test_known_tables(self):
        for name, expected in ONE_QUBIT_TABLE.items():
            ops = decompose_gate(Gate(name, (0,)), 1)
            assert [(o.word.to_string(), o.angle_num) for o in ops] == expected

    @pytest.mark.parametrize("name", ONE_QUBIT_GATES)
    def test_every_one_qubit_gate_parses_and_decomposes_as_the_table(
            self, name):
        circ = parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\n{name} q[0];\n")
        assert circ.gates == [Gate(name, (0,))]
        ops = decompose_gate(circ.gates[0], 1)
        assert [(o.word.to_string(), o.angle_num) for o in ops] == \
            ONE_QUBIT_TABLE[name]

    def test_cx(self):
        ops = decompose_gate(Gate("cx", (0, 1)), 2)
        assert [(o.word.to_string(), o.angle_num) for o in ops] == [
            ("ZX", 2), ("IX", 14), ("ZI", 14)]

    def test_measure(self):
        ops = decompose_gate(Gate("measure", (1,)), 2)
        assert len(ops) == 1
        assert ops[0].is_measurement()
        assert ops[0].word.to_string() == "IZ"

    @pytest.mark.parametrize("name", ONE_QUBIT_GATES)
    def test_single_qubit_unitaries_match_oracle(self, name):
        ops = decompose_gate(Gate(name, (0,)), 1)
        u = program_unitary(PbcProgram(1, tuple(ops)))
        assert equivalent_up_to_phase(u, gate_matrix(Gate(name, (0,)), 1))

    def test_cx_unitary_matches_oracle(self):
        ops = decompose_gate(Gate("cx", (1, 0)), 3)
        u = program_unitary(PbcProgram(3, tuple(ops)))
        assert equivalent_up_to_phase(u, gate_matrix(Gate("cx", (1, 0)), 3))


class TestAbsorbCliffords:
    def test_worked_example(self):
        """A quarter turn ahead of an X eighth turn folds into a Y eighth
        turn, leaving only the rotation and the final readout."""
        prog = parse_pbc("pi/4 Z\npi/8 X\nM Z")
        out = absorb_cliffords(prog)
        assert op_triples(out) == [("r", "Y", 15), ("m", "Z", 0)]
        assert distributions_match(outcome_distribution(out),
                                   outcome_distribution(prog))

    def test_output_only_eighths_and_measurements(self):
        for seed in range(8):
            circ = bench.random_circuit(3, 15, seed=seed)
            prog = transpile(circ)
            assert all(op.is_eighth() or op.is_measurement()
                       for op in prog.ops)

    def test_quarter_before_commuting_measurement_disappears(self):
        prog = parse_pbc("pi/4 Z\nM Z")
        out = absorb_cliffords(prog)
        assert op_triples(out) == [("m", "Z", 0)]


def absorb_right_to_left(program):
    """Reference absorption: every Clifford conjugates the whole tail."""
    tail = []
    for op in reversed(program.ops):
        if op.kind == ROTATION and op.is_trivial():
            continue
        if op.is_clifford_quarter():
            tail = [conjugate_past(op, t) for t in tail]
        elif op.is_pauli_half():
            tail = [flip_past_pauli(op.word, t) for t in tail]
        else:
            tail.insert(0, op)
    return PbcProgram(program.n, tail)


@st.composite
def pbc_programs(draw, max_qubits=6, min_qubits=1):
    n = draw(st.integers(min_value=min_qubits, max_value=max_qubits))
    words = st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n).map(
        lambda letters: W("".join(letters)))
    ops = st.one_of(
        st.builds(rotation, words, st.integers(min_value=0, max_value=15)),
        st.builds(measurement, words, st.sampled_from([1, -1])))
    return PbcProgram(n, draw(st.lists(ops, max_size=30)))


UNITARY_GATES = [g for g in SUPPORTED_GATES if g != "measure"]


@st.composite
def wide_circuits(draw):
    """Every supported gate at least once, on a few qubits of a wide
    register, then a final layer of measurements."""
    n = draw(st.integers(min_value=60, max_value=80))
    pool = st.sampled_from(draw(st.lists(
        st.integers(0, n - 1), min_size=2, max_size=6, unique=True)))
    names = draw(st.permutations(UNITARY_GATES)) + draw(
        st.lists(st.sampled_from(UNITARY_GATES), max_size=30))
    circ = GateCircuit(n)
    for name in names:
        if name == "cx":
            circ.add(name, *draw(st.lists(pool, min_size=2, max_size=2,
                                          unique=True)))
        else:
            circ.add(name, draw(pool))
    for q in draw(st.lists(pool, min_size=1, max_size=3, unique=True)):
        circ.add("measure", q)
    return circ


class TestLinearAbsorption:
    @given(pbc_programs())
    @settings(max_examples=60, deadline=None)
    def test_matches_right_to_left_reference(self, prog):
        assert absorb_cliffords(prog) == absorb_right_to_left(prog)

    # widths past one 64-bit word, where the frame's masks grow past it
    @given(pbc_programs(min_qubits=60, max_qubits=80))
    @settings(max_examples=40, deadline=None)
    def test_wide_programs_match_reference(self, prog):
        assert absorb_cliffords(prog) == absorb_right_to_left(prog)

    @given(wide_circuits())
    @settings(max_examples=40, deadline=None)
    def test_wide_circuits_match_reference(self, circ):
        ops = [op for g in circ.gates for op in decompose_gate(g, circ.n)]
        assert transpile(circ) == absorb_right_to_left(PbcProgram(circ.n, ops))

    @staticmethod
    def _conjugations(monkeypatch, width):
        calls = []

        def counting(clifford, target):
            calls.append(1)
            return conjugate_past(clifford, target)

        # perfbench/spans.py counts calls at this same lookup site
        monkeypatch.setattr(transpiler, "conjugate_past", counting)
        transpile(bench.adder_circuit(width))
        return len(calls)

    def test_conjugations_grow_linearly(self, monkeypatch):
        circ = bench.adder_circuit(40)
        quarters = sum(op.is_clifford_quarter() for g in circ.gates
                       for op in decompose_gate(g, circ.n))
        wide = self._conjugations(monkeypatch, 40)
        assert 0 < wide <= 4 * quarters
        assert wide < 2.5 * self._conjugations(monkeypatch, 20)

    def test_each_conjugation_is_computed_once_per_call(self, monkeypatch):
        pairs = []

        def recording(clifford, target):
            pairs.append((clifford, target))
            return conjugate_past(clifford, target)

        monkeypatch.setattr(transpiler, "conjugate_past", recording)
        circ = bench.adder_circuit(20)
        quarters = {op for g in circ.gates for op in decompose_gate(g, circ.n)
                    if op.is_clifford_quarter()}
        transpile(circ)
        assert pairs and len(set(pairs)) == len(pairs)
        for clifford, generator in pairs:
            assert clifford in quarters
            assert generator.word.weight() == 1
            assert not commutes(clifford.word, generator.word)
        # nothing is kept between calls: a second call works them out again
        once = list(pairs)
        transpile(circ)
        assert pairs == once + once


class TestTranspile:
    def test_empty_circuit_gets_default_readout(self):
        prog = transpile(GateCircuit(2))
        assert op_triples(prog) == [("m", "ZI", 0), ("m", "IZ", 0)]

    def test_explicit_measure_not_duplicated(self):
        circ = GateCircuit(1)
        circ.add("h", 0)
        circ.add("measure", 0)
        prog = transpile(circ)
        assert sum(1 for op in prog.ops if op.is_measurement()) == 1

    def test_distribution_preserved(self):
        for seed in (11, 23, 37):
            circ = bench.random_circuit(3, 12, seed=seed)
            prog = transpile(circ)
            assert distributions_match(outcome_distribution(prog),
                                       circuit_distribution(circ), tol=1e-9)

    def test_unsupported_gate_rejected(self):
        circ = GateCircuit(3)
        with pytest.raises(UnsupportedGateError):
            circ.add("ccx", 0, 1, 2)


class TestTextFormats:
    def test_pbc_round_trip(self):
        text = "pi/8 ZZ\n-pi/4 XI\nM IZ\n"
        prog = parse_pbc(text)
        rendered = format_pbc(prog)
        assert rendered.startswith("# 2 qubits, 3 operators\n")
        assert rendered.endswith(text)
        assert parse_pbc(rendered) == prog
        assert prog.n == 2

    def test_pbc_programs_compare_by_their_operators(self):
        ops = parse_pbc("pi/8 ZZ\nM IZ").ops
        assert isinstance(ops, tuple)
        assert PbcProgram(2, list(ops)) == PbcProgram(2, ops)

    def test_pbc_infers_width_from_first_line(self):
        prog = parse_pbc("pi/8 XYZ")
        assert prog.n == 3

    def test_pbc_width_mismatch(self):
        with pytest.raises(Exception):
            parse_pbc("pi/8 ZZ\npi/8 ZZZ")

    def test_qasm_small_program(self):
        circ = parse_qasm(
            'OPENQASM 2.0;\n'
            'include "qelib1.inc";\n'
            'qreg q[2];\n'
            'creg c[2];\n'
            'h q[0];\n'
            'cx q[0],q[1];\n'
            'measure q[0] -> c[0];\n'
            'measure q[1] -> c[1];\n')
        assert circ.n == 2
        assert [g.name for g in circ.gates] == ["h", "cx", "measure", "measure"]
        assert circ.gates[1].qubits == (0, 1)

    @pytest.mark.parametrize("body", [
        "creg c[2];\nmeasure q[0] -> d[0];",
        "measure q[0] -> c[0];",
        "creg c[1];\nmeasure q[1] -> c[5];",
        "creg c[1];\nmeasure q[1] -> c[1];",
        "creg c[2];\ncreg c[3];",
        "creg c[2];\ncreg c[2];",
    ], ids=["undeclared-creg", "no-creg", "index-past-size",
            "index-at-size", "creg-declared-twice", "creg-repeated"])
    def test_qasm_rejects_bad_classical_registers(self, body):
        with pytest.raises(CircuitParseError):
            parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{body}\n")

    @pytest.mark.parametrize("decls", ["qreg q[2];\ncreg q[2];",
                                       "creg q[2];\nqreg q[2];"],
                             ids=["qreg-first", "creg-first"])
    def test_qasm_register_names_share_one_namespace(self, decls):
        with pytest.raises(CircuitParseError,
                           match="^register q declared twice$"):
            parse_qasm(f"OPENQASM 2.0;\n{decls}\nmeasure q[0] -> q[0];\n")

    def test_qasm_measures_into_any_declared_bit(self):
        circ = parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncreg a[1];\n"
                          "creg b[3];\nmeasure q[0] -> b[2];\n"
                          "measure q[1] -> a[0];\n")
        assert [g.qubits for g in circ.gates] == [(0,), (1,)]

    def test_qasm_line_comment_ends_at_newline(self):
        circ = parse_qasm('OPENQASM 2.0;\n// header note\nqreg q[2];\n'
                          'h q[0]; // trailing note\n// note\ncx q[0],q[1];\n')
        assert [g.name for g in circ.gates] == ["h", "cx"]

    def test_qasm_rejects_unknown_gate(self):
        with pytest.raises((UnsupportedGateError, CircuitParseError)):
            parse_qasm('OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[2];\n')

    def test_qasm_rejects_bad_syntax(self):
        with pytest.raises(CircuitParseError):
            parse_qasm('OPENQASM 2.0;\nqreg q[2];\nh q[0\n')

    def test_qasm_full_circle_through_oracle(self):
        text = ('OPENQASM 2.0;\nqreg q[2];\n'
                't q[0];\nh q[1];\ncx q[1],q[0];\n')
        circ = parse_qasm(text)
        prog = transpile(circ)
        assert distributions_match(outcome_distribution(prog),
                                   circuit_distribution(circ))
