"""Lowering of Clifford+T gate circuits to Pauli-product-rotation programs.

Every gate becomes a short list of Pauli rotations; one left-to-right scan
carrying the Clifford frame then absorbs the +/- pi/4 and pi/2 rotations
into the later operators, leaving only +/- pi/8 rotations and (possibly
transformed) measurements.  The frame is held as integer bit masks and
signs, like a stabilizer tableau, and the scan builds a PauliOp only for
each operator it keeps.  `_ONE_QUBIT_ROTATIONS` is the one statement
of the one-qubit gates and their rotations: `SUPPORTED_GATES`,
`decompose_gate` and the OpenQASM parser read it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .pauli import (
    PauliOp,
    PauliParseError,
    PauliWord,
    conjugate_past,
    format_op,
    measurement,
    parse_op,
    rotation,
    set_bits,
)

# each one-qubit gate as its Pauli rotations (letter, k pi/8), in order
_ONE_QUBIT_ROTATIONS = {
    "h": (("Z", 2), ("X", 2), ("Z", 2)), "s": (("Z", 2),),
    "sdg": (("Z", 14),), "t": (("Z", 1),), "tdg": (("Z", 15),),
    "x": (("X", 4),), "y": (("Y", 4),), "z": (("Z", 4),),
}

SUPPORTED_GATES = (*_ONE_QUBIT_ROTATIONS, "cx", "measure")


class UnsupportedGateError(ValueError):
    """Gate outside the fixed Clifford+T set."""


class CircuitParseError(ValueError):
    """Malformed circuit text."""


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple

    def __post_init__(self):
        if self.name not in SUPPORTED_GATES:
            raise UnsupportedGateError(f"unsupported gate {self.name!r}")
        if self.name == "cx":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise CircuitParseError("cx needs two distinct qubits")
        elif len(self.qubits) != 1:
            raise CircuitParseError(f"{self.name} takes one qubit")


@dataclass
class GateCircuit:
    n: int
    gates: list = field(default_factory=list)

    def add(self, name: str, *qubits: int) -> "GateCircuit":
        for q in qubits:
            if not 0 <= q < self.n:
                raise CircuitParseError(f"qubit {q} out of range for n={self.n}")
        self.gates.append(Gate(name, tuple(qubits)))
        return self


@dataclass
class PbcProgram:
    """Ordered Pauli operators; rotations first in pipeline output, then measurements."""

    n: int
    ops: tuple = ()

    def __post_init__(self):
        self.ops = tuple(self.ops)


def _letter(n: int, q: int, letter: str) -> PauliWord:
    return PauliWord.from_letters(n, {q: letter})


def decompose_gate(gate: Gate, n: int) -> list:
    """Standard Pauli-rotation decompositions for the supported gate set."""
    name = gate.name
    if name == "measure":
        return [measurement(_letter(n, gate.qubits[0], "Z"))]
    if name == "cx":
        c, t = gate.qubits
        zc_xt = PauliWord.from_letters(n, {c: "Z", t: "X"})
        return [
            rotation(zc_xt, 2),
            rotation(_letter(n, t, "X"), 14),
            rotation(_letter(n, c, "Z"), 14),
        ]
    q = gate.qubits[0]
    return [rotation(_letter(n, q, letter), k)
            for letter, k in _ONE_QUBIT_ROTATIONS[name]]


def _through_frame(xs: list, zs: list, word: tuple) -> tuple:
    """The frame image of the signed word (x, z, negated), where
    W(x, z) = i^pc(x&z) X^x Z^z: the product i^e X^x Z^z of the images
    of its letters, X letters first, as an (x, z, negated) triple."""
    wx, wz, neg = word
    e = (wx & wz).bit_count() + 2 * neg
    x = z = 0
    for images, mask in ((xs, wx), (zs, wz)):
        for q in set_bits(mask):
            gx, gz, gneg = images[q]
            e += (gx & gz).bit_count() + 2 * gneg + 2 * (z & gx).bit_count()
            x ^= gx
            z ^= gz
    return x, z, (e - (x & z).bit_count()) % 4 == 2


def absorb_cliffords(program: PbcProgram) -> PbcProgram:
    """Push +/- pi/4 and pi/2 rotations rightward and drop them at the boundary.

    One left-to-right scan keeps the frame F, the composite of the Cliffords
    so far, as the images of X_q and Z_q, each an integer (x, z, negated)
    triple, and maps each kept operator through it once; only the kept
    operators become PauliOp objects.  A pi/4 or pi/2 rotation C on word P
    sets the image of each generator g that anticommutes with P to
    F(conj_C(g)), which is conj_F(C)(F(g)) because F is an automorphism.
    conj_C(g) is conjugate_past(C, g) for a pi/4 rotation, and -g for a
    pi/2 one, which flips the image's sign.  Each distinct (C, g) is worked
    out once per call; nothing is kept between calls.  Idempotent.
    """
    n = program.n
    xs = [(1 << q, 0, False) for q in range(n)]
    zs = [(0, 1 << q, False) for q in range(n)]
    moves: dict = {}    # (x, z, k) of C -> [(images, q, conj_C(g))]
    out: list = []
    for op in program.ops:
        if op.is_trivial():
            continue
        w = op.word
        quarter = op.is_clifford_quarter()
        if not quarter and not op.is_pauli_half():
            x, z, neg = _through_frame(xs, zs, (w.x, w.z, False))
            image = PauliOp(PauliWord(n, x, z), op.kind, op.angle_num, op.sign)
            out.append(image.negated() if neg else image)
            continue
        key = (w.x, w.z, op.angle_num)
        move = moves.get(key)
        if move is None:
            move = moves[key] = []
            # X_q anticommutes with P where P has Z on q, Z_q where it has X
            for images, mask, letter in ((xs, w.z, "X"), (zs, w.x, "Z")):
                for q in set_bits(mask):
                    g = measurement(_letter(n, q, letter))
                    g = conjugate_past(op, g) if quarter else g.negated()
                    move.append((images, q, (g.word.x, g.word.z, g.sign < 0)))
        # every new image is read off the frame as it was before op
        new = [_through_frame(xs, zs, g) for _, _, g in move]
        for (images, q, _), image in zip(move, new):
            images[q] = image
    return PbcProgram(n, out)


def transpile(circuit: GateCircuit) -> PbcProgram:
    """Gate decomposition followed by Clifford absorption.

    Measurements must form the final layer; if the circuit has none, a
    Z measurement is appended on every qubit so absorption has a boundary.
    """
    seen_measure = False
    for g in circuit.gates:
        if g.name == "measure":
            seen_measure = True
        elif seen_measure:
            raise CircuitParseError("gates after measurement are not supported")
    ops: list = []
    for g in circuit.gates:
        ops.extend(decompose_gate(g, circuit.n))
    if not seen_measure:
        for q in range(circuit.n):
            ops.append(measurement(_letter(circuit.n, q, "Z")))
    return absorb_cliffords(PbcProgram(circuit.n, ops))


# --- native PBC text format ---------------------------------------------

def parse_pbc(text: str, n: int | None = None) -> PbcProgram:
    """One operator per line, `#` comments and blank lines ignored;
    malformed text raises PauliParseError."""
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            op = parse_op(line)
        except PauliParseError as e:
            raise PauliParseError(f"line {lineno}: {e}") from None
        if n is None:
            n = op.n
        elif op.n != n:
            raise PauliParseError(f"line {lineno}: word length {op.n} != {n}")
        ops.append(op)
    if n is None:
        raise PauliParseError("empty program and no qubit count given")
    return PbcProgram(n, ops)


def format_pbc(program: PbcProgram) -> str:
    lines = [f"# {program.n} qubits, {len(program.ops)} operators"]
    lines.extend(format_op(op) for op in program.ops)
    return "\n".join(lines) + "\n"


# --- OpenQASM 2.0 subset -------------------------------------------------

_QASM_GATE_RE = re.compile(
    rf"^({'|'.join(_ONE_QUBIT_ROTATIONS)})\s+(\w+)\[(\d+)\]$")
_QASM_CX_RE = re.compile(
    r"^cx\s+(\w+)\[(\d+)\]\s*,\s*(\w+)\[(\d+)\]$")
_QASM_MEASURE_RE = re.compile(
    r"^measure\s+(\w+)\[(\d+)\]\s*->\s*(\w+)\[(\d+)\]$")
_QASM_REG_RE = re.compile(r"^([qc])reg\s+(\w+)\[(\d+)\]$")


def parse_qasm(text: str) -> GateCircuit:
    """Parse the supported OpenQASM 2.0 subset; anything else, and any
    malformed text, raises CircuitParseError."""
    qreg_name = None
    cregs: dict[str, int] = {}
    circ: GateCircuit | None = None
    body = " ".join(line.split("//", 1)[0] for line in text.splitlines())
    statements = [s.strip() for s in body.split(";") if s.strip()]
    for stmt in statements:
        if stmt.startswith("OPENQASM") or stmt.startswith("include"):
            continue
        if stmt.startswith("if"):
            raise CircuitParseError("classically controlled gates are not supported")
        if stmt.startswith("barrier"):
            raise CircuitParseError("barrier is not supported")
        m = _QASM_REG_RE.match(stmt)
        if m:
            if m[2] == qreg_name or m[2] in cregs:
                raise CircuitParseError(f"register {m[2]} declared twice")
            if m[1] == "c":
                cregs[m[2]] = int(m[3])
            elif qreg_name is not None:
                raise CircuitParseError("only one qreg is supported")
            else:
                qreg_name, circ = m[2], GateCircuit(int(m[3]))
            continue
        if circ is None:
            raise CircuitParseError(f"statement before qreg: {stmt!r}")
        m = _QASM_GATE_RE.match(stmt)
        if m:
            if m.group(2) != qreg_name:
                raise CircuitParseError(f"unknown register {m.group(2)!r}")
            circ.add(m.group(1), int(m.group(3)))
            continue
        m = _QASM_CX_RE.match(stmt)
        if m:
            if m.group(1) != qreg_name or m.group(3) != qreg_name:
                raise CircuitParseError("unknown register in cx")
            circ.add("cx", int(m.group(2)), int(m.group(4)))
            continue
        m = _QASM_MEASURE_RE.match(stmt)
        if m:
            if m.group(1) != qreg_name:
                raise CircuitParseError("unknown register in measure")
            if int(m.group(4)) >= cregs.get(m.group(3), 0):
                raise CircuitParseError(
                    f"measure target {m.group(3)}[{m.group(4)}] is not a "
                    "declared classical bit")
            circ.add("measure", int(m.group(2)))
            continue
        raise CircuitParseError(f"unsupported statement: {stmt!r}")
    if circ is None:
        raise CircuitParseError("no qreg declaration found")
    return circ
