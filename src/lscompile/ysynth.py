"""Removal of Y letters that a patch layout cannot serve directly.

A board access map says which Pauli letters each qubit's patch exposes.
When an operator carries a Y on a qubit without combined X/Z access, the
operator is rewritten: every Y index is split into one or two index
groups, each group g contributing a conjugating pair of Z^g quarter
rotations around a Y-free core.  Group choice looks for neighbors in the
dependency structure whose conjugators cancel, and a follow-up merge pass
collapses the cancellations.  The naive variant used as a baseline always
splits at the first Y index and skips the merge pass.
"""

from __future__ import annotations

from .pauli import (
    MEASUREMENT,
    PauliOp,
    PauliWord,
    PhasedPauli,
    ROTATION,
    commutes,
    flip_past_pauli,
    measurement,
    multiply,
    rotation,
    set_bits,
)
from .pdag import PDag, build_pdag
from .transpiler import PbcProgram

Y_STRATEGIES = ("o3ls", "naive", "off")

_FULL_ACCESS = frozenset({"X", "Y", "Z"})


def _z_group_word(n: int, group) -> PauliWord:
    z = 0
    for q in group:
        z |= 1 << q
    return PauliWord(n, 0, z)


def _y_indices(op: PauliOp) -> tuple:
    return tuple(set_bits(op.word.x & op.word.z))


def decompose_op(op: PauliOp, b1, b2=()) -> list:
    """Rewrite one Y-bearing operator as conjugator pairs around a core.

    Emitted order: Z^{b1} at -pi/4, Z^{b2} at -pi/4, core, Z^{b1} at
    +pi/4, Z^{b2} at +pi/4.  The core keeps the original word with Y
    turned into X on b1 and b2; its sign is fixed by conjugating the core
    word through the quarter rotations and checking it lands back on the
    original word.
    """
    n = op.word.n
    groups = [tuple(sorted(b1))]
    if b2:
        groups.append(tuple(sorted(b2)))
    ymask = 0
    for g in groups:
        for q in g:
            if op.word.letter(q) != "Y":
                raise ValueError(f"qubit {q} carries no Y letter")
            ymask |= 1 << q
    core_word = PauliWord(n, op.word.x, op.word.z & ~ymask)

    # conjugate the core by the rotation pairs, innermost group first;
    # each anticommuting quarter turn maps V to -i * Z^g * V
    img = PhasedPauli(core_word, 0)
    for g in reversed(groups):
        gw = _z_group_word(n, g)
        if commutes(gw, img.word):
            raise ValueError(f"group {g} must anticommute at its turn")
        img = multiply(PhasedPauli(gw, 3), img)
    if img.word != op.word or not img.is_hermitian():
        raise AssertionError("Y decomposition failed to reproduce the word")
    s = img.sign()

    if op.kind == ROTATION:
        core = rotation(core_word, (s * op.angle_num) % 16)
    else:
        core = measurement(core_word, s * op.sign)
    left = [rotation(_z_group_word(n, g), 14) for g in groups]
    right = [rotation(_z_group_word(n, g), 2) for g in groups]
    return left + [core] + right


def choose_bipartition(y_indices, node_id: int, program: PbcProgram,
                       dag: PDag, emitted_groups: dict):
    """Pick an odd/odd split of an even Y index set.

    Predecessors offer groups: pure-Z quarter rotations' supports and the
    groups emitted for decomposed predecessors.  A group scores one per
    equal offer and one per successor whose Y set holds it with an odd or
    empty remainder.  Candidates are the offers, the successor Y overlaps
    and the lowest index that are odd proper subsets of the Y set.  The
    best summed score wins; ties prefer the smaller, then first, group.
    """
    yset = frozenset(y_indices)
    node = dag.nodes[node_id]
    offers = []
    for pid in node.preds:
        pop = program.ops[pid]
        if pop.is_clifford_quarter() and pop.word.x == 0:
            offers.append(frozenset(pop.word.support()))
        offers.extend(frozenset(g) for g in emitted_groups.get(pid, ()))
    succ_ys = [frozenset(_y_indices(program.ops[sid])) for sid in node.succs]
    cands = {g for g in [*offers, *(yset & sy for sy in succ_ys),
                         frozenset({min(yset)})]
             if g and g < yset and len(g) % 2 == 1}

    def group_score(g: frozenset) -> int:
        return offers.count(g) + sum(
            g <= sy and (g == sy or len(sy - g) % 2 == 1) for sy in succ_ys)

    def rank(g: frozenset):
        return (-(group_score(g) + group_score(yset - g)),
                len(g), tuple(sorted(g)))

    best = min(cands, key=rank)
    return tuple(sorted(best)), tuple(sorted(yset - best))


def y_synthesize(program: PbcProgram, access=None) -> PbcProgram:
    """Decompose Y-bearing operators blocked by the access map, then merge.

    An operator is rewritten when any of its Y qubits lacks Y access; all
    its Y indices are decomposed together.  Odd Y counts use one group,
    even counts an odd/odd bipartition chosen against the dependency
    neighborhood.  A merge pass afterwards cancels adjacent conjugators.
    """
    dag = None   # built for the first even Y count
    out = []
    emitted: dict[int, list] = {}
    for idx, op in enumerate(program.ops):
        ys = _y_indices(op)
        if not ys or access is None or all(
                "Y" in access.get(q, _FULL_ACCESS) for q in ys):
            out.append(op)
            continue
        if len(ys) % 2 == 1:
            b1, b2 = ys, ()
        else:
            if dag is None:
                dag = build_pdag(program)
            b1, b2 = choose_bipartition(ys, idx, program, dag, emitted)
        emitted[idx] = [b1] + ([b2] if b2 else [])
        out.extend(decompose_op(op, b1, b2))
    return pauli_synthesis(PbcProgram(program.n, tuple(out)))


def naive_y_decompose(program: PbcProgram) -> PbcProgram:
    """Baseline rewrite: always decompose, fixed first-vs-rest split, no
    merge pass afterwards."""
    out = []
    for op in program.ops:
        ys = _y_indices(op)
        if not ys:
            out.append(op)
            continue
        if len(ys) % 2 == 1:
            b1, b2 = ys, ()
        else:
            b1, b2 = (ys[0],), tuple(ys[1:])
        out.extend(decompose_op(op, b1, b2))
    return PbcProgram(program.n, tuple(out))


def apply_y_strategy(program: PbcProgram, strategy: str, access=None
                     ) -> PbcProgram:
    if strategy == "o3ls":
        return y_synthesize(program, access)
    if strategy == "naive":
        return naive_y_decompose(program)
    if strategy == "off":
        return program
    raise ValueError(f"unknown Y strategy {strategy!r}")


# --- merge / cancellation pass --------------------------------------------

def pauli_synthesis(program: PbcProgram) -> PbcProgram:
    """Merge same-word rotation pairs separated only by disjoint-support
    operators, in one left-to-right scan.

    An operator's only possible partner is the last kept operator it
    overlaps, the greatest top of its qubits' stacks of kept positions;
    the two merge when both are rotations on the same word.  Merged
    angles are taken mod 2*pi; a zero or pi result deletes the pair and
    uncovers what lies beneath, a half-pi result is folded into later
    operators as a Pauli frame flip when a measurement still follows the
    partner's earliest part (otherwise the explicit rotation stays).
    Measurements are never merge partners and block merges across
    overlapping support.
    """
    n, ops = program.n, program.ops
    last_m = max((p for p, op in enumerate(ops) if op.kind == MEASUREMENT),
                 default=-1)
    frame = PauliWord(n, 0, 0)
    kept = []   # (op, input position of its earliest part), None once gone
    stacks = [[] for _ in range(n)]   # per qubit, indices into kept
    for p, op in enumerate(ops):
        op = flip_past_pauli(frame, op)
        if op.is_trivial():
            continue
        w, supp = op.word, op.word.support()
        i = max((stacks[q][-1] for q in supp if stacks[q]), default=-1)
        if i < 0 or not (kept[i][0].kind == op.kind == ROTATION
                         and kept[i][0].word == w):
            for q in supp:
                stacks[q].append(len(kept))
            kept.append((op, p))
            continue
        a, start = kept[i]
        k = (a.angle_num + op.angle_num) % 16
        fold = k in (4, 12) and last_m > start
        if k in (0, 8) or fold:
            if fold:
                frame = PauliWord(n, frame.x ^ w.x, frame.z ^ w.z)
            kept[i] = None
            for q in supp:
                stacks[q].pop()
        else:
            kept[i] = (rotation(w, k), start)
    return PbcProgram(n, tuple(e[0] for e in kept if e))
