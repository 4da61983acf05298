"""Assignment of program qubits to board patches.

Three strategies: "identity" (program qubit i on patch i), "ea"
(exposure-aware: qubits needing frequent edge-type switches go to patches
exposing both boundary types), and "greedy" (interaction-frequency
placement near partners).  A mapping is a dict program qubit -> patch id;
the derived access map records which Pauli letters each program qubit can
reach without a patch rotation.
"""

from __future__ import annotations

from .board import LETTER_EDGES, Board
from .pdag import PDag, rotation_demand

MAPPING_STRATEGIES = ("identity", "ea", "greedy")


class MappingError(ValueError):
    pass


def _exposure_class(board: Board, pid: int) -> int:
    types = board.exposed_types(pid)
    if types == {"X", "Z"}:
        return 0
    if types:
        return 1
    return 2


def _anchor_distance(board: Board, pid: int) -> int:
    (ar, ac) = board.ancilla.tile
    (r, c) = board.patches[pid].tile
    return abs(r - ar) + abs(c - ac)


def identity_mapping(board: Board, n: int) -> dict:
    if not board.patches.keys() >= set(range(n)):
        raise MappingError("identity mapping needs patch ids 0..n-1")
    return {q: q for q in range(n)}


def ea_mapping(board: Board, dag: PDag) -> dict:
    """Rank qubits by rotation demand, patches by exposure richness."""
    n = dag.n
    demand = rotation_demand(dag)
    qubits = sorted(range(n), key=lambda q: (-demand[q], q))
    patches = sorted(board.patches,
                     key=lambda p: (_exposure_class(board, p),
                                    _anchor_distance(board, p), p))
    return {q: patches[i] for i, q in enumerate(qubits)}


def greedy_mapping(board: Board, dag: PDag) -> dict:
    """Place frequently interacting qubits on mutually close patches."""
    n = dag.n
    weight: dict[tuple, int] = {}
    freq = {q: 0 for q in range(n)}
    for node in dag.nodes.values():
        supp = node.op.word.support()
        for q in supp:
            freq[q] += 1
        for i, a in enumerate(supp):
            for b in supp[i + 1:]:
                weight[(a, b)] = weight.get((a, b), 0) + 1

    def tile(p):
        return board.patches[p].tile

    order = sorted(range(n), key=lambda q: (-freq[q], q))
    free = sorted(board.patches)
    placed: dict[int, int] = {}
    for q in order:
        best = None
        best_key = None
        for p in free:
            (r, c) = tile(p)
            cost = 0
            for other, pid in placed.items():
                w = weight.get((min(q, other), max(q, other)), 0)
                if w:
                    (orr, occ) = tile(pid)
                    cost += w * (abs(r - orr) + abs(c - occ))
            key = (cost, _exposure_class(board, p), _anchor_distance(board, p), p)
            if best_key is None or key < best_key:
                best, best_key = p, key
        placed[q] = best
        free.remove(best)
    return placed


def build_mapping(strategy: str, board: Board, dag: PDag) -> dict:
    if len(board.patches) < dag.n:
        raise MappingError(
            f"board has {len(board.patches)} patches for {dag.n} qubits")
    if strategy == "identity":
        return identity_mapping(board, dag.n)
    if strategy == "ea":
        return ea_mapping(board, dag)
    if strategy == "greedy":
        return greedy_mapping(board, dag)
    raise MappingError(f"unknown mapping strategy {strategy!r}")


def access_map(board: Board, qmap: dict) -> dict:
    """Letters each program qubit reaches without rotating its patch.

    A letter is granted when the patch exposes every edge type
    LETTER_EDGES asks of it.
    """
    out = {}
    for q, pid in qmap.items():
        types = board.exposed_types(pid)
        out[q] = {letter for letter, need in LETTER_EDGES.items()
                  if types.issuperset(need)}
    return out
