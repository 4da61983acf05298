"""Benchmark circuits, all exactly expressible over Clifford+T.

Families: CDKM-style ripple-carry adders, the 7-T Toffoli, first-order
Ising Trotter steps at eighth-turn angles, QFT fragments truncated to
controlled-S and controlled-Z, swap tests, and seeded random circuits
and rotation programs for property and scaling tests.
"""

from __future__ import annotations

import random

from .board import Board, Patch
from .pauli import PauliWord, measurement, rotation
from .transpiler import GateCircuit, PbcProgram


def ccx(circ: GateCircuit, a: int, b: int, c: int) -> None:
    """Toffoli with the standard seven-T decomposition."""
    circ.add("h", c)
    circ.add("cx", b, c)
    circ.add("tdg", c)
    circ.add("cx", a, c)
    circ.add("t", c)
    circ.add("cx", b, c)
    circ.add("tdg", c)
    circ.add("cx", a, c)
    circ.add("t", b)
    circ.add("t", c)
    circ.add("h", c)
    circ.add("cx", a, b)
    circ.add("t", a)
    circ.add("tdg", b)
    circ.add("cx", a, b)


def _maj(circ: GateCircuit, c: int, b: int, a: int) -> None:
    circ.add("cx", a, b)
    circ.add("cx", a, c)
    ccx(circ, c, b, a)


def _uma(circ: GateCircuit, c: int, b: int, a: int) -> None:
    ccx(circ, c, b, a)
    circ.add("cx", a, c)
    circ.add("cx", c, b)


def adder_circuit(width: int) -> GateCircuit:
    """Ripple-carry adder on `width` qubits.

    Even widths 2k+2 carry out into the last qubit; odd widths 2k+1 drop
    the carry-out.  Layout: carry-in, then alternating b_i, a_i pairs.
    """
    if width < 3:
        raise ValueError("adder needs at least 3 qubits")
    if width % 2 == 0:
        k, carry = (width - 2) // 2, True
    else:
        k, carry = (width - 1) // 2, False
    circ = GateCircuit(width)
    cin = 0
    b = [1 + 2 * i for i in range(k)]
    a = [2 + 2 * i for i in range(k)]
    prev = cin
    for i in range(k):
        _maj(circ, prev, b[i], a[i])
        prev = a[i]
    if carry:
        circ.add("cx", a[k - 1], width - 1)
    for i in reversed(range(k)):
        _uma(circ, cin if i == 0 else a[i - 1], b[i], a[i])
    return circ


def _trotter(n: int, layers: int, pairs) -> GateCircuit:
    """Ising Trotter steps at eighth-turn angles: a ZZ coupling per pair
    via CX-conjugated T, then an X field via H-conjugated T."""
    circ = GateCircuit(n)
    for _ in range(layers):
        for a, b in pairs:
            circ.add("cx", a, b)
            circ.add("t", b)
            circ.add("cx", a, b)
        for q in range(n):
            circ.add("h", q)
            circ.add("t", q)
            circ.add("h", q)
    return circ


def ising_circuit(n: int, layers: int = 1) -> GateCircuit:
    """Trotter steps of a transverse-field Ising chain."""
    return _trotter(n, layers, [(i, i + 1) for i in range(n - 1)])


def _cs(circ: GateCircuit, a: int, b: int) -> None:
    circ.add("t", a)
    circ.add("t", b)
    circ.add("cx", a, b)
    circ.add("tdg", b)
    circ.add("cx", a, b)


def _cz(circ: GateCircuit, a: int, b: int) -> None:
    circ.add("h", b)
    circ.add("cx", a, b)
    circ.add("h", b)


def qft_fragment(n: int) -> GateCircuit:
    """QFT truncated past the controlled-Z level, exact over Clifford+T."""
    circ = GateCircuit(n)
    for i in range(n):
        circ.add("h", i)
        if i + 1 < n:
            _cs(circ, i + 1, i)
        if i + 2 < n:
            _cz(circ, i + 2, i)
    return circ


def swap_test_circuit(pairs: int = 1) -> GateCircuit:
    """Controlled-swap test between two `pairs`-qubit registers."""
    n = 1 + 2 * pairs
    circ = GateCircuit(n)
    circ.add("h", 0)
    for i in range(pairs):
        x, y = 1 + i, 1 + pairs + i
        circ.add("cx", y, x)
        ccx(circ, 0, x, y)
        circ.add("cx", y, x)
    circ.add("h", 0)
    return circ


_RANDOM_GATES = ("h", "s", "sdg", "t", "tdg", "x", "y", "z", "cx")


def random_circuit(n: int, n_gates: int, seed: int) -> GateCircuit:
    rng = random.Random(seed)
    circ = GateCircuit(n)
    for _ in range(n_gates):
        name = rng.choice(_RANDOM_GATES)
        if name == "cx" and n >= 2:
            c, t = rng.sample(range(n), 2)
            circ.add("cx", c, t)
        elif name == "cx":
            circ.add("x", 0)
        else:
            circ.add(name, rng.randrange(n))
    return circ


def random_program(n: int, n_ops: int, seed: int) -> PbcProgram:
    """Random low-weight eighth-turn rotations plus all-qubit Z reads."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        weight = rng.randint(1, min(3, n))
        qubits = rng.sample(range(n), weight)
        x = z = 0
        for q in qubits:
            letter = rng.choice(("X", "Y", "Z"))
            if letter in ("X", "Y"):
                x |= 1 << q
            if letter in ("Z", "Y"):
                z |= 1 << q
        ops.append(rotation(PauliWord(n, x, z), rng.choice((1, 15))))
    for q in range(n):
        ops.append(measurement(PauliWord(n, 0, 1 << q)))
    return PbcProgram(n, tuple(ops))


def star_ising_circuit(n: int, layers: int = 1) -> GateCircuit:
    """Central-spin Trotter steps: qubit 0 couples to every satellite
    through ZZ eighth turns, then a transverse X field hits all qubits.
    The hub alternates between Z-type and X-type access every layer."""
    return _trotter(n, layers, [(0, j) for j in range(1, n)])


def spread_layout(width: int) -> Board:
    """Eight-patch board family for the square-board-size sweep.

    On the smallest board the hub patch (qubit 0) is wedged into the
    bottom-right corner: board edge below and to its right, a satellite
    on its west side, and the magic port directly above.  Moves cannot
    land on the port, so every change of access type costs a full
    three-clock rotation that borrows the port tile.  At width 6 the
    corner gains clearance, and from width 7 the patches are pinned to
    the top and bottom board edges with gaps that widen with the board;
    everything stays exposed, and the price shifts to ever longer buses
    between the edge rows and the central ancilla.
    """
    if width < 5:
        raise ValueError("sweep boards start at 5x5")
    mid = width // 2
    if width <= 6:
        spots = ((4, 4), (4, 1), (4, 3), (3, 0), (1, 4), (0, 3), (0, 1), (1, 0))
        ancilla, port = (2, 2), (3, 4)
    else:
        gap = max(1, (width - 5) // 2)
        cols = (0, 1 + gap, width - 2 - gap, width - 1)
        spots = tuple((row, col) for row in (0, width - 1) for col in cols)
        ancilla, port = (mid, mid), (mid - 1, 0)
    return Board(width, width, Patch(ancilla, "h"), port,
                 {q: Patch(tile, "h") for q, tile in enumerate(spots)})


def suite() -> list:
    """The in-repo benchmark suite: name, circuit pairs, 4-10 qubits."""
    return [
        ("adder_4", adder_circuit(4)),
        ("ising_5", ising_circuit(5, 1)),
        ("swap_test_5", swap_test_circuit(2)),
        ("qft_6", qft_fragment(6)),
        ("adder_7", adder_circuit(7)),
        ("adder_10", adder_circuit(10)),
    ]
