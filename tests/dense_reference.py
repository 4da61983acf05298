"""Dense-matrix reference semantics, for tests only.

The kron-and-matmul simulation that `lscompile.oracle` used before it
applied Pauli words as index maps.  Every operator becomes a 2^n x 2^n
matrix, so it is slow and capped at MAX_DENSE_QUBITS, but it shares no
code with the oracle it checks.
"""

import numpy as np

from lscompile.pauli import MEASUREMENT, PauliOp, PauliWord, ROTATION
from lscompile.transpiler import Gate, GateCircuit, PbcProgram

MAX_DENSE_QUBITS = 6

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_GATE_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
    "x": _SINGLE["X"],
    "y": _SINGLE["Y"],
    "z": _SINGLE["Z"],
}


def _check_n(n: int) -> None:
    if n > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense reference handles at most {MAX_DENSE_QUBITS} qubits")


def word_matrix(word: PauliWord) -> np.ndarray:
    """Dense matrix with qubit 0 as the leftmost tensor factor."""
    _check_n(word.n)
    m = np.eye(1, dtype=complex)
    for q in range(word.n):
        m = np.kron(m, _SINGLE[word.letter(q)])
    return m


def rotation_matrix(op: PauliOp) -> np.ndarray:
    if op.kind != ROTATION:
        raise ValueError("rotation_matrix needs a rotation operator")
    theta = op.angle_num * np.pi / 8.0
    w = word_matrix(op.word)
    return np.cos(theta) * np.eye(w.shape[0]) - 1j * np.sin(theta) * w


def program_unitary(program: PbcProgram) -> np.ndarray:
    """Product of rotation matrices, later operators on the left."""
    _check_n(program.n)
    u = np.eye(2 ** program.n, dtype=complex)
    for op in program.ops:
        if op.kind == MEASUREMENT:
            raise ValueError("program_unitary cannot absorb measurements")
        u = rotation_matrix(op) @ u
    return u


def _embed_1q(mat: np.ndarray, q: int, n: int) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for i in range(n):
        m = np.kron(m, mat if i == q else _SINGLE["I"])
    return m


def gate_matrix(gate, n: int) -> np.ndarray:
    _check_n(n)
    if gate.name == "cx":
        c, t = gate.qubits
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        m0 = np.eye(1, dtype=complex)
        m1 = np.eye(1, dtype=complex)
        for q in range(n):
            m0 = np.kron(m0, p0 if q == c else _SINGLE["I"])
            m1 = np.kron(m1, p1 if q == c
                         else (_SINGLE["X"] if q == t else _SINGLE["I"]))
        return m0 + m1
    if gate.name == "measure":
        raise ValueError("measure gates have no unitary")
    return _embed_1q(_GATE_1Q[gate.name], gate.qubits[0], n)


def circuit_unitary(circuit: GateCircuit) -> np.ndarray:
    _check_n(circuit.n)
    u = np.eye(2 ** circuit.n, dtype=complex)
    for g in circuit.gates:
        u = gate_matrix(g, circuit.n) @ u
    return u


def _measure_branches(state: np.ndarray, word: PauliWord, sign: int,
                      tol: float):
    w = word_matrix(word)
    for r in (1, -1):
        proj = 0.5 * (np.eye(w.shape[0]) + (r * sign) * w)
        branch = proj @ state
        p = float(np.vdot(branch, branch).real)
        if p > tol:
            yield r, p, branch / np.sqrt(p)


def outcome_distribution(program: PbcProgram, tol: float = 1e-12) -> dict:
    """Joint outcome distribution on |0...0>, keyed by +/-1 tuples."""
    _check_n(program.n)
    state0 = np.zeros(2 ** program.n, dtype=complex)
    state0[0] = 1.0
    branches = [(1.0, state0, ())]
    for op in program.ops:
        if op.kind == ROTATION:
            u = rotation_matrix(op)
            branches = [(p, u @ s, o) for p, s, o in branches]
        else:
            nxt = []
            for p, s, outcomes in branches:
                for r, pr, ns in _measure_branches(s, op.word, op.sign, tol):
                    nxt.append((p * pr, ns, outcomes + (r,)))
            branches = nxt
    dist: dict[tuple, float] = {}
    for p, _, outcomes in branches:
        dist[outcomes] = dist.get(outcomes, 0.0) + p
    return dist


def circuit_distribution(circuit: GateCircuit, tol: float = 1e-12) -> dict:
    """Direct circuit simulation; appends all-qubit Z measurements when the
    circuit has none, matching the transpiler default."""
    _check_n(circuit.n)
    state0 = np.zeros(2 ** circuit.n, dtype=complex)
    state0[0] = 1.0
    branches = [(1.0, state0, ())]
    events = list(circuit.gates)
    if not any(g.name == "measure" for g in events):
        events += [Gate("measure", (q,)) for q in range(circuit.n)]
    for g in events:
        if g.name == "measure":
            word = PauliWord(circuit.n, 0, 1 << g.qubits[0])
            nxt = []
            for p, s, outcomes in branches:
                for r, pr, ns in _measure_branches(s, word, 1, tol):
                    nxt.append((p * pr, ns, outcomes + (r,)))
            branches = nxt
        else:
            u = gate_matrix(g, circuit.n)
            branches = [(p, u @ s, o) for p, s, o in branches]
    dist: dict[tuple, float] = {}
    for p, _, outcomes in branches:
        dist[outcomes] = dist.get(outcomes, 0.0) + p
    return dist
