"""Mutation fuzzing of the three text parsers.

Valid QASM, Pauli-program and layout texts are mutated by inserting,
deleting and replacing characters.  Whatever the result, each parser
either returns or raises one of its documented ValueError subclasses,
which the CLI turns into a one-line error.
"""

import pytest
from hypothesis import given, settings, strategies as st

from lscompile import bench
from lscompile.board import (
    IllegalOpError,
    LayoutParseError,
    builtin_layout,
    format_layout,
    irregular_demo,
    parse_layout,
)
from lscompile.pauli import PauliParseError
from lscompile.transpiler import CircuitParseError, parse_pbc, parse_qasm


def qasm_text(circ):
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";',
             f"qreg q[{circ.n}];", f"creg c[{circ.n}];"]
    for g in circ.gates:
        args = ",".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"measure {args} -> c[{g.qubits[0]}];"
                     if g.name == "measure" else f"{g.name} {args};")
    return "\n".join(lines) + "\n"


QASM_TEXTS = [qasm_text(bench.adder_circuit(4)),
              qasm_text(bench.random_circuit(3, 12, seed=1)),
              'OPENQASM 2.0;\ninclude "qelib1.inc";\n// bell pair\n'
              "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\n"
              "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"]
PBC_TEXTS = ["# 3 qubits\npi/8 XYZ\n-pi/4 ZZI\n3pi/8 IXY\n0 III\n"
             "M ZZZ\n-M XIX\n",
             "pi/2 Y\n-7pi/8 X  # comment\n\nM Z\n"]
LAYOUT_TEXTS = [format_layout(builtin_layout(kind, n))
                for kind, n in (("compact", 3), ("standard", 4),
                                ("sparse", 2))]
LAYOUT_TEXTS.append(format_layout(irregular_demo()))

# The grammars' own characters, plus any character at all.
CHARS = st.one_of(
    st.sampled_from(list("qc[]();,->/#.\n\t 0123456789-+"
                         "hstxyzdgmeurIXYZMAQv")),
    st.characters())


@st.composite
def mutated(draw, texts):
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        if kind == "insert":
            text = text[:i] + draw(CHARS) + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + draw(CHARS) + text[i + 1:]
    return text


def test_unmutated_texts_parse():
    for text in QASM_TEXTS:
        parse_qasm(text)
    for text in PBC_TEXTS:
        parse_pbc(text)
    for text in LAYOUT_TEXTS:
        parse_layout(text)


@given(mutated(QASM_TEXTS))
@settings(max_examples=40, deadline=None)
def test_parse_qasm_raises_only_circuit_parse_errors(text):
    try:
        parse_qasm(text)
    except CircuitParseError:
        pass


@given(mutated(PBC_TEXTS))
@settings(max_examples=40, deadline=None)
def test_parse_pbc_raises_only_pauli_parse_errors(text):
    try:
        parse_pbc(text)
    except PauliParseError:
        pass


@pytest.mark.parametrize("text", ["", "pi/8 Z\n"])
def test_parse_pbc_refuses_a_negative_qubit_count(text):
    with pytest.raises(PauliParseError,
                       match=r"^qubit count must be non-negative, got -1$"):
        parse_pbc(text, -1)


@given(mutated(LAYOUT_TEXTS))
@settings(max_examples=40, deadline=None)
def test_parse_layout_raises_only_layout_errors(text):
    try:
        parse_layout(text)
    except (LayoutParseError, IllegalOpError):
        pass
