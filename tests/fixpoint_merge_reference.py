"""The Pauli merge pass as a fixpoint, before it became one scan.

`_merge_once` finds the first rotation whose first overlapping later
operator is a rotation on the same word, merges the pair, and the loop
restarts from the front of the rebuilt list; a half-pi fold rewrites the
whole tail with `flip_past_pauli`.  The tests hold
`ysynth.pauli_synthesis` equal to this.
"""

from lscompile.pauli import MEASUREMENT, ROTATION, flip_past_pauli, rotation
from lscompile.transpiler import PbcProgram


def pauli_synthesis(program: PbcProgram) -> PbcProgram:
    """Merge same-word rotation pairs separated only by disjoint-support
    operators, to a fixpoint.

    Merged angles are taken mod 2*pi; a zero or pi result deletes the
    pair, a half-pi result is folded into later operators as a Pauli
    frame flip when a measurement still follows (otherwise the explicit
    rotation stays).  Measurements are never merge partners and block
    merges across overlapping support.
    """
    ops = [op for op in program.ops
           if not (op.kind == ROTATION and op.is_trivial())]
    changed = True
    while changed:
        ops, changed = _merge_once(ops)
    return PbcProgram(program.n, tuple(ops))


def _merge_once(ops):
    for i, a in enumerate(ops):
        if a.kind != ROTATION:
            continue
        for j in range(i + 1, len(ops)):
            b = ops[j]
            if b.kind == ROTATION and b.word == a.word:
                k = (a.angle_num + b.angle_num) % 16
                rest = ops[:i] + ops[i + 1:j] + ops[j + 1:]
                if k in (0, 8):
                    return rest, True
                if k in (4, 12) and any(t.kind == MEASUREMENT
                                        for t in rest[i:]):
                    tail = [flip_past_pauli(a.word, t) for t in rest[i:]]
                    return rest[:i] + tail, True
                merged = rotation(a.word, k)
                return ops[:i] + [merged] + ops[i + 1:j] + ops[j + 1:], True
            if a.word.overlaps(b.word):
                break
    return ops, False
