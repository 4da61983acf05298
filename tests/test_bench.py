"""Benchmark circuits and the board family used for the size sweep."""

import pytest

from lscompile.board import format_layout
from lscompile.pauli import ROTATION
from lscompile.transpiler import SUPPORTED_GATES, GateCircuit, transpile
from lscompile import bench


def toffoli() -> GateCircuit:
    circ = GateCircuit(3)
    bench.ccx(circ, 0, 1, 2)
    return circ


def test_toffoli_uses_seven_t_gates():
    prog = transpile(toffoli())
    assert sum(1 for op in prog.ops if op.is_eighth()) == 7


def test_adder_sizes():
    assert bench.adder_circuit(4).n == 4
    assert bench.adder_circuit(10).n == 10
    with pytest.raises(ValueError):
        bench.adder_circuit(2)


def test_all_generators_emit_supported_gates():
    circuits = [bench.adder_circuit(5), toffoli(),
                bench.ising_circuit(4, 2), bench.qft_fragment(4),
                bench.swap_test_circuit(2), bench.random_circuit(3, 20, 0),
                bench.star_ising_circuit(5, 1)]
    for circ in circuits:
        for g in circ.gates:
            assert g.name in SUPPORTED_GATES


def test_suite_contents():
    entries = [(name, circ.n, len(circ.gates)) for name, circ in bench.suite()]
    assert entries == [
        ("adder_4", 4, 35),
        ("ising_5", 5, 27),
        ("swap_test_5", 5, 36),
        ("qft_6", 6, 43),
        ("adder_7", 7, 102),
        ("adder_10", 10, 137),
    ]


def test_suite_spans_required_qubit_range():
    sizes = [circ.n for _, circ in bench.suite()]
    assert min(sizes) == 4 and max(sizes) == 10
    assert len(sizes) >= 5


class TestStarIsing:
    def test_gate_count(self):
        # per layer: 7 couplings of 3 gates, then 8 field terms of 3 gates
        circ = bench.star_ising_circuit(8, 2)
        assert circ.n == 8
        assert len(circ.gates) == 2 * (7 * 3 + 8 * 3)

    def test_coupling_pattern(self):
        circ = bench.star_ising_circuit(4, 1)
        head = [(g.name, g.qubits) for g in circ.gates[:6]]
        assert head == [("cx", (0, 1)), ("t", (1,)), ("cx", (0, 1)),
                        ("cx", (0, 2)), ("t", (2,)), ("cx", (0, 2))]


class TestRandomSources:
    def test_random_circuit_deterministic(self):
        a = bench.random_circuit(4, 25, seed=9)
        b = bench.random_circuit(4, 25, seed=9)
        assert [(g.name, g.qubits) for g in a.gates] == \
               [(g.name, g.qubits) for g in b.gates]
        c = bench.random_circuit(4, 25, seed=10)
        assert [(g.name, g.qubits) for g in a.gates] != \
               [(g.name, g.qubits) for g in c.gates]

    def test_random_program_shape(self):
        prog = bench.random_program(3, 5, seed=1)
        rotations = [op for op in prog.ops if op.kind == ROTATION]
        measures = [op for op in prog.ops if op.is_measurement()]
        assert len(rotations) == 5
        assert len(measures) == 3
        for op in rotations:
            assert op.angle_num in (1, 15)
            assert 1 <= op.word.weight() <= 3
        # trailing readout covers every qubit once
        assert sorted(m.word.support()[0] for m in measures) == [0, 1, 2]

    def test_random_program_deterministic(self):
        a = bench.random_program(4, 8, seed=2)
        b = bench.random_program(4, 8, seed=2)
        assert tuple(a.ops) == tuple(b.ops)


class TestSpreadLayout:
    def test_minimum_width(self):
        with pytest.raises(ValueError):
            bench.spread_layout(4)

    @pytest.mark.parametrize("width", list(range(5, 13)))
    def test_always_schedulable(self, width):
        b = bench.spread_layout(width)
        assert (b.rows, b.cols) == (width, width)
        assert len(b.patches) == 8
        assert b.ancilla is not None and b.port is not None
        assert b.a_component() is not None

    def test_smallest_board_corners_the_hub(self):
        """Width 5 pins qubit 0 in the bottom-right corner with only the
        port tile as a rotation helper."""
        b = bench.spread_layout(5)
        assert b.patches[0].tile == (4, 4)
        assert b.port == (3, 4)
        assert b.rotation_helper(0) == (3, 4)

    def test_wide_boards_pin_edge_rows(self):
        b = bench.spread_layout(9)
        rows = {p.tile[0] for p in b.patches.values()}
        assert rows == {0, 8}

    def test_deterministic(self):
        assert format_layout(bench.spread_layout(7)) == \
               format_layout(bench.spread_layout(7))
