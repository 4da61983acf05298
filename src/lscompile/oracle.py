"""Independent reference semantics and a brute-force schedule optimum.

Dense-matrix simulation for small qubit counts: unitaries for rotation
sequences and gate circuits, and exact outcome distributions for
measurement-bearing programs via projector branching.  Also an
exhaustive branch-and-bound scheduler for tiny boards, used to measure
the optimality gap of the heuristic scheduler.
"""

from __future__ import annotations

import numpy as np

from .board import Board, NoPathError, OP_COSTS, bus_patches
from .pauli import MEASUREMENT, PauliOp, PauliWord, ROTATION
from .pdag import build_pdag
from .scheduler import (
    _measure_footprint,
    normalize_angles,
    required_edges,
    schedule_loose,
)
from .transpiler import GateCircuit, PbcProgram

MAX_ORACLE_QUBITS = 6

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


class OracleLimitError(ValueError):
    pass


def _check_n(n: int) -> None:
    if n > MAX_ORACLE_QUBITS:
        raise OracleLimitError(
            f"dense oracle handles at most {MAX_ORACLE_QUBITS} qubits")


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
        from .transpiler import Gate
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


def distributions_match(a: dict, b: dict, tol: float = 1e-9) -> bool:
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in keys)


# --- brute-force scheduling optimum ---------------------------------------

def brute_force_optimum(program: PbcProgram, board: Board,
                        qmap: dict | None = None) -> int:
    """Minimum clock count over exhaustively searched schedules.

    Search space: at each slice, start any dependency-ready operator
    whose canonical bus tiles are free, or any legal patch move/rotation,
    or advance time.  Buses come from the same deterministic router the
    heuristic scheduler uses, so the result is the optimum over
    canonical-bus schedules.
    """
    if qmap is None:
        qmap = {q: q for q in range(program.n)}
    prog = normalize_angles(program)
    dag = build_pdag(prog)
    preds = {nid: frozenset(node.preds) for nid, node in dag.nodes.items()}
    num_ops = len(prog.ops)

    try:
        incumbent = schedule_loose(prog, board, qmap).total_clocks
    except Exception:
        incumbent = num_ops * (max(OP_COSTS.values()) + 1) * board.tile_count()
    best = [incumbent]

    seen: dict = {}

    def rel_key(t, busy, op_end, b):
        busy_rel = tuple(sorted((tile, e - t) for tile, e in busy.items()
                                if e >= t))
        ops_rel = tuple(sorted((i, e - t) for i, e in op_end.items()
                               if e >= t))
        done = frozenset(i for i, e in op_end.items() if e < t)
        return (b.key(), busy_rel, ops_rel, done)

    def lower_bound(t, op_end):
        remaining = num_ops - len(op_end)
        return t - 1 + remaining

    def dfs(t, busy, op_end, b, makespan):
        if len(op_end) == num_ops:
            best[0] = min(best[0], makespan)
            return
        if lower_bound(t, op_end) >= best[0]:
            return
        key = rel_key(t, busy, op_end, b)
        slack = makespan - t
        bucket = seen.setdefault(key, [])
        if any(pt <= t and ps <= slack for pt, ps in bucket):
            return
        bucket.append((t, slack))

        def free(tiles):
            return all(busy.get(tile, 0) < t for tile in tiles)

        # start a ready measurement
        for i in range(num_ops):
            if i in op_end:
                continue
            if any(p not in op_end or op_end[p] >= t for p in preds[i]):
                continue
            op = prog.ops[i]
            try:
                bus = bus_patches(b, required_edges(op, qmap),
                                  include_port=op.is_eighth())
            except NoPathError:
                continue
            tiles, _ = _measure_footprint(b, qmap, op, bus)
            if not free(tiles):
                continue
            nb_busy = dict(busy)
            for tile in tiles:
                nb_busy[tile] = t
            nb_end = dict(op_end)
            nb_end[i] = t
            dfs(t, nb_busy, nb_end, b, max(makespan, t))

        # start a patch move or rotation
        for pid in sorted(b.patches):
            home = b.patches[pid].tile
            if not free([home]):
                continue
            for dest in b.neighbors(home):
                if not b.is_routing(dest) or dest == b.port:
                    continue
                if not free([dest]):
                    continue
                nb = b.copy()
                fp = nb.move_patch(pid, dest)
                nb_busy = dict(busy)
                for tile in fp:
                    nb_busy[tile] = t + OP_COSTS["move"] - 1
                dfs(t, nb_busy, dict(op_end), nb,
                    max(makespan, t + OP_COSTS["move"] - 1))
            for helper in b.neighbors(home):
                if not b.is_routing(helper) or not free([helper]):
                    continue
                nb = b.copy()
                fp = nb.rotate_patch(pid, helper)
                nb_busy = dict(busy)
                for tile in fp:
                    nb_busy[tile] = t + OP_COSTS["rotate"] - 1
                dfs(t, nb_busy, dict(op_end), nb,
                    max(makespan, t + OP_COSTS["rotate"] - 1))

        # advance time
        dfs(t + 1, busy, op_end, b, makespan)

    dfs(1, {}, {}, board.copy(), 0)
    return best[0]
