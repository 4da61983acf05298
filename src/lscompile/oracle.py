"""Independent reference semantics.

State-vector simulation for up to MAX_ORACLE_QUBITS qubits: unitaries
for rotation sequences and gate circuits, and exact outcome
distributions for measurement-bearing programs, with every surviving
measurement branch kept as one column of a state array.  A Pauli word
acts as an index map and a sign, as in Aaronson and Gottesman
(quant-ph/0406196) and Stim (arXiv:2103.02202), so no operator is ever
built as a matrix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .pauli import MEASUREMENT, PauliOp, PauliWord, ROTATION
from .transpiler import Gate, GateCircuit, PbcProgram

MAX_ORACLE_QUBITS = 10

_GATE_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_I_POWERS = (1, 1j, -1, -1j)


class OracleLimitError(ValueError):
    pass


def _check_n(n: int) -> None:
    if n > MAX_ORACLE_QUBITS:
        raise OracleLimitError(
            f"oracle handles at most {MAX_ORACLE_QUBITS} qubits")


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple:
    """Every n-bit index, and (-1)^parity of each, built once per n."""
    parity = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        parity = np.concatenate([parity, 1 - parity])
    return np.arange(2 ** n), 1.0 - 2.0 * parity


def _reversed_mask(mask: int, n: int) -> int:
    """Index bits of a qubit mask: qubit 0 is the leftmost tensor factor,
    the most significant bit."""
    return int(f"{mask:0{n}b}"[::-1], 2)


def _apply_word(word: PauliWord, s: np.ndarray, scale: complex):
    """scale * W s along axis 0, for W = i^popcount(x & z) X^x Z^z.

    Entry j of the result is entry j ^ x of s times the sign
    (-1)^parity((j ^ x) & z), with x and z as index-bit masks.
    """
    idx, signs = _tables(word.n)
    x = _reversed_mask(word.x, word.n)
    z = _reversed_mask(word.z, word.n)
    src = idx ^ x
    coeff = (scale * _I_POWERS[(word.x & word.z).bit_count() % 4]) \
        * signs[src & z]
    out = np.take(s, src, axis=0)
    out *= coeff.reshape((-1,) + (1,) * (s.ndim - 1))
    return out


def _rotate(op: PauliOp, s: np.ndarray) -> np.ndarray:
    """cos(theta) s - i sin(theta) W s, written over s."""
    theta = op.angle_num * np.pi / 8.0
    ws = _apply_word(op.word, s, -1j * np.sin(theta))
    s *= np.cos(theta)
    s += ws
    return s


def _apply_gate(gate: Gate, n: int, s: np.ndarray) -> np.ndarray:
    if gate.name == "cx":
        c, t = (_reversed_mask(1 << q, n) for q in gate.qubits)
        idx, _ = _tables(n)
        return np.take(s, idx ^ np.where(idx & c, t, 0), axis=0)
    if gate.name == "measure":
        raise ValueError("measure gates have no unitary")
    # Row r of the result is g[r, 0] s3[:, 0] + g[r, 1] s3[:, 1], by
    # broadcasting: a matmul would hand the 2x2 product to BLAS threads.
    g = _GATE_1Q[gate.name]
    s3 = s.reshape(2 ** gate.qubits[0], 2, -1)
    out = g[:, 0, None] * s3[:, :1]
    out += g[:, 1, None] * s3[:, 1:]
    return out.reshape(s.shape)


def program_unitary(program: PbcProgram) -> np.ndarray:
    """Product of rotation matrices, later operators on the left."""
    _check_n(program.n)
    u = np.eye(2 ** program.n, dtype=complex)
    for op in program.ops:
        if op.kind == MEASUREMENT:
            raise ValueError("program_unitary cannot absorb measurements")
        u = _rotate(op, u)
    return u


def circuit_unitary(circuit: GateCircuit) -> np.ndarray:
    _check_n(circuit.n)
    u = np.eye(2 ** circuit.n, dtype=complex)
    for g in circuit.gates:
        u = _apply_gate(g, circuit.n, u)
    return u


def equivalent_up_to_phase(a: np.ndarray, b: np.ndarray,
                           tol: float = 1e-9) -> bool:
    if a.shape != b.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < tol:
        return bool(np.max(np.abs(a)) < tol)
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(a - phase * b)) <= tol)


# --- outcome distributions ------------------------------------------------

class _Branches:
    """Measurement branches from |0...0>: column i of `states` is the
    normalized state after outcomes[i], reached with probability probs[i]."""

    def __init__(self, n: int):
        self.states = np.zeros((2 ** n, 1), dtype=complex)
        self.states[0, 0] = 1.0
        self.probs = np.ones(1)
        self.outcomes = [()]

    def measure(self, word: PauliWord, sign: int) -> None:
        """Split every branch by (s + r sign W s) / 2 for r = +1, -1,
        keeping the parts with probability above 1e-12."""
        s = self.states
        ws = _apply_word(word, s, sign)
        halves = np.stack([s + ws, s - ws], axis=2).reshape(len(s), -1)
        halves *= 0.5
        p = np.einsum("ij,ij->j", halves.conj(), halves).real
        keep = np.flatnonzero(p > 1e-12)
        self.states = halves[:, keep] / np.sqrt(p[keep])
        self.probs = self.probs[keep // 2] * p[keep]
        self.outcomes = [self.outcomes[k // 2] + ((1, -1)[k % 2],)
                         for k in keep]

    def distribution(self) -> dict:
        return dict(zip(self.outcomes, self.probs.tolist()))


def outcome_distribution(program: PbcProgram) -> dict:
    """Joint outcome distribution on |0...0>, keyed by +/-1 tuples."""
    _check_n(program.n)
    b = _Branches(program.n)
    for op in program.ops:
        if op.kind == ROTATION:
            b.states = _rotate(op, b.states)
        else:
            b.measure(op.word, op.sign)
    return b.distribution()


def circuit_distribution(circuit: GateCircuit) -> dict:
    """Direct circuit simulation; appends all-qubit Z measurements when the
    circuit has none, matching the transpiler default."""
    _check_n(circuit.n)
    b = _Branches(circuit.n)
    events = list(circuit.gates)
    if not any(g.name == "measure" for g in events):
        events += [Gate("measure", (q,)) for q in range(circuit.n)]
    for g in events:
        if g.name == "measure":
            b.measure(PauliWord(circuit.n, 0, 1 << g.qubits[0]), 1)
        else:
            b.states = _apply_gate(g, circuit.n, b.states)
    return b.distribution()


def distributions_match(a: dict, b: dict, tol: float = 1e-9) -> bool:
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in keys)
