"""Lowering of Clifford+T gate circuits to Pauli-product-rotation programs.

`transpile` scans the gates once and carries the Clifford frame, the
images of X_q and Z_q under the Cliffords so far, held as integer bit
masks and signs like a stabilizer tableau.  A Clifford gate replaces
only the images of the generators on its own qubits; an eighth turn or a
measurement is kept on the image of Z_q, and only those become PauliOp
objects.  The result is +/- pi/8 rotations and (possibly transformed)
measurements.  `decompose_gate` states each gate as Pauli rotations, and
`absorb_cliffords` pushes the +/- pi/4 and pi/2 rotations of any program
into its later operators on the same frame; `transpile` reads each gate
name's action off them once per call, and `verify` and the tests check
gates against `decompose_gate`.  `_ONE_QUBIT_ROTATIONS` is the one
statement of the one-qubit gates and their rotations: `SUPPORTED_GATES`,
`decompose_gate`, `transpile` and the OpenQASM parser read it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .pauli import (
    MEASUREMENT,
    ROTATION,
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


def _letters(word: tuple) -> tuple:
    """The signed word (x, z, negated) as (e, letters): i^e times the
    product of its letters, X_q as (0, q) then Z_q as (1, q), since
    W(x, z) = i^pc(x&z) X^x Z^z."""
    x, z, neg = word
    return ((x & z).bit_count() + 2 * neg,
            [(0, q) for q in set_bits(x)] + [(1, q) for q in set_bits(z)])


def _image(frame: tuple, e: int, letters: list) -> tuple:
    """i^e times the product of the frame images of letters, in order, as
    an (x, z, negated) triple; frame is the images of (X_q, Z_q) lists."""
    x = z = 0
    for f, q in letters:
        gx, gz, gneg = frame[f][q]
        e += (gx & gz).bit_count() + 2 * gneg + 2 * (z & gx).bit_count()
        x ^= gx
        z ^= gz
    return x, z, (e - (x & z).bit_count()) % 4 == 2


def _identity_frame(n: int) -> tuple:
    return ([(1 << q, 0, False) for q in range(n)],
            [(0, 1 << q, False) for q in range(n)])


def _update(frame: tuple, move: list) -> None:
    """Set the image of each generator (f, q) in move, entries (f, q, e,
    letters), to the image of i^e letters read off the frame as it was."""
    new = [_image(frame, e, letters) for _, _, e, letters in move]
    for (f, q, _, _), image in zip(move, new):
        frame[f][q] = image


def _kept(n: int, image: tuple, kind: str, k: int = 0,
          sign: int = 1) -> PauliOp:
    """The operator (kind, k pi/8 or sign) on the signed word image, with
    a negated image's sign folded in as PauliOp.negated does."""
    x, z, neg = image
    if neg:
        k, sign = (-k, sign) if kind == ROTATION else (0, -sign)
    return PauliOp(PauliWord(n, x, z), kind, k, sign)


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
    frame = _identity_frame(n)
    moves: dict = {}    # (x, z, k) of C -> [(f, q, conj_C(g) as e, letters)]
    out: list = []
    for op in program.ops:
        if op.is_trivial():
            continue
        w = op.word
        quarter = op.is_clifford_quarter()
        if not quarter and not op.is_pauli_half():
            image = _image(frame, *_letters((w.x, w.z, False)))
            out.append(_kept(n, image, op.kind, op.angle_num, op.sign))
            continue
        key = (w.x, w.z, op.angle_num)
        move = moves.get(key)
        if move is None:
            move = moves[key] = []
            # X_q anticommutes with P where P has Z on q, Z_q where it has X
            for f, mask in ((0, w.z), (1, w.x)):
                for q in set_bits(mask):
                    g = measurement(_letter(n, q, "XZ"[f]))
                    g = conjugate_past(op, g) if quarter else g.negated()
                    move.append((f, q, *_letters(
                        (g.word.x, g.word.z, g.sign < 0))))
        _update(frame, move)
    return PbcProgram(n, out)


# the gates transpile keeps, each on the image of Z_q: measurements, and
# the one-qubit gates that are one odd turn about Z
_KEPT_ON_Z = {"measure": (MEASUREMENT, 0), **{
    name: (ROTATION, k)
    for name, ((letter, k), *rest) in _ONE_QUBIT_ROTATIONS.items()
    if letter == "Z" and k % 2 and not rest}}


def _gate_move(gate: Gate, n: int, firsts: dict) -> list:
    """A Clifford gate's move: each generator g on its qubits that the
    gate's conjugation A changes, with A(g).  A is read once per name, at
    the first gate of that name, by absorbing its decomposition followed by
    reads of its generators, and taken onto each later gate's qubits."""
    if gate.name not in firsts:
        gens = [(f, q) for q in gate.qubits for f in (0, 1)]
        reads = [measurement(_letter(n, q, "XZ"[f])) for f, q in gens]
        images = absorb_cliffords(
            PbcProgram(n, decompose_gate(gate, n) + reads)).ops
        firsts[gate.name] = gate.qubits, [
            (g, _letters((a.word.x, a.word.z, a.sign < 0)))
            for g, a, read in zip(gens, images, reads) if a != read]
    src, images = firsts[gate.name]
    at = dict(zip(src, gate.qubits))
    return [(f, at[q], e, [(h, at[p]) for h, p in letters])
            for (f, q), (e, letters) in images]


def transpile(circuit: GateCircuit) -> PbcProgram:
    """Clifford+T gates to eighth turns and measurements, Cliffords absorbed.

    Measurements must form the final layer; if the circuit has none, a
    Z measurement is appended on every qubit so absorption has a boundary.
    One scan over the gates carries absorb_cliffords' frame: a Clifford
    gate sets the images of the generators on its qubits, and an eighth
    turn or a measurement on qubit q is kept on the image of Z_q.  The
    output equals absorb_cliffords of the gates' decompositions.
    """
    n = circuit.n
    seen_measure = False
    for g in circuit.gates:
        if g.name == "measure":
            seen_measure = True
        elif seen_measure:
            raise CircuitParseError("gates after measurement are not supported")
    gates = circuit.gates if seen_measure else [
        *circuit.gates, *(Gate("measure", (q,)) for q in range(n))]
    frame = _identity_frame(n)
    firsts: dict = {}   # gate name -> (its first qubits, its changed images)
    moves: dict = {}    # gate -> its frame update on its own qubits
    out: list = []
    for gate in gates:
        kept = _KEPT_ON_Z.get(gate.name)
        if kept:
            out.append(_kept(n, frame[1][gate.qubits[0]], *kept))
            continue
        move = moves.get(gate)
        if move is None:
            move = moves[gate] = _gate_move(gate, n, firsts)
        _update(frame, move)
    return PbcProgram(n, out)


# --- native PBC text format ---------------------------------------------

def parse_pbc(text: str, n: int | None = None) -> PbcProgram:
    """One operator per line, `#` comments and blank lines ignored;
    malformed text or a negative n raises PauliParseError."""
    if n is not None and n < 0:
        raise PauliParseError(f"qubit count must be non-negative, got {n}")
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
