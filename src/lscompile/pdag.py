"""Dependency DAG over Pauli operators: the compiler IR.

Edges follow the last-writer rule: operator j depends on operator i when
some qubit is in both supports and no operator between them touches that
qubit.  In-degree-0 nodes form the executable frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pauli import PauliOp
from .transpiler import PbcProgram


@dataclass
class PDagNode:
    id: int                    # original sequence position
    op: PauliOp
    preds: set = field(default_factory=set)
    succs: set = field(default_factory=set)


class PDag:
    def __init__(self, n: int):
        self.n = n
        self.nodes: dict[int, PDagNode] = {}
        self._indeg: dict[int, int] = {}
        self._ready: set = set()         # ids with no remaining predecessor

    def __bool__(self) -> bool:
        return bool(self.nodes)

    def add_node(self, node: PDagNode) -> None:
        self.nodes[node.id] = node
        self._indeg[node.id] = len(node.preds)
        if not node.preds:
            self._ready.add(node.id)

    def frontier(self) -> list:
        """Executable node ids, lowest original index first."""
        return sorted(self._ready)

    def pop_node(self, nid: int) -> PDagNode:
        """Remove a specific frontier node."""
        if nid not in self._ready:
            raise ValueError(f"node {nid} is not executable")
        self._ready.remove(nid)
        node = self.nodes.pop(nid)
        del self._indeg[nid]
        for s in node.succs:
            if s in self.nodes:
                self._indeg[s] -= 1
                if self._indeg[s] == 0:
                    self._ready.add(s)
        return node


def build_pdag(program: PbcProgram) -> PDag:
    """O(n * l) construction with a per-qubit last-writer pointer."""
    dag = PDag(program.n)
    last_writer: dict[int, int] = {}
    for idx, op in enumerate(program.ops):
        node = PDagNode(id=idx, op=op)
        for q in op.word.support():
            if q in last_writer:
                p = last_writer[q]
                node.preds.add(p)
                dag.nodes[p].succs.add(idx)
            last_writer[q] = idx
        dag.add_node(node)
    return dag


def rotation_demand(dag: PDag) -> dict:
    """Per-qubit count of letter changes along that qubit's access sequence.

    Consecutive operators touching a qubit with different letters force a
    boundary-type change; Y counts as its own combined-access state, so
    entering and leaving it each cost one.
    """
    per_qubit: dict[int, list] = {}
    for node in sorted(dag.nodes.values(), key=lambda nd: nd.id):
        w = node.op.word
        for q in w.support():
            per_qubit.setdefault(q, []).append(w.letter(q))
    demand = {q: 0 for q in range(dag.n)}
    for q, seq in per_qubit.items():
        demand[q] = sum(1 for a, b in zip(seq, seq[1:]) if a != b)
    return demand
