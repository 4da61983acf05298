"""The Y bipartition choice as it stood before its neighbour rules were
stated once.

Candidate groups are collected from the dependency neighbours, and each
group is scored by a second pass over the same neighbours that builds a
Z Pauli word per candidate and predecessor.  The tests hold
`ysynth.choose_bipartition` equal to this.
"""

from lscompile.pauli import PauliWord


def _z_group_word(n: int, group) -> PauliWord:
    z = 0
    for q in group:
        z |= 1 << q
    return PauliWord(n, 0, z)


def choose_bipartition(y_indices, node_id, program, dag, emitted_groups):
    """Pick an odd/odd split of an even Y index set.

    Candidate groups come from dependency neighbors: predecessor pure-Z
    quarter rotations with odd support inside the Y set, groups already
    emitted for decomposed predecessors, and odd Y overlaps with
    successors.  The split maximizing the number of such neighbor matches
    wins; ties prefer the smaller then lexicographically first group.
    """
    yset = frozenset(y_indices)
    node = dag.nodes[node_id]
    n = program.n

    cands = set()
    for pid in node.preds:
        pop = program.ops[pid]
        if pop.is_clifford_quarter() and pop.word.x == 0:
            supp = frozenset(pop.word.support())
            if supp and supp < yset and len(supp) % 2 == 1:
                cands.add(supp)
        for g in emitted_groups.get(pid, ()):
            gf = frozenset(g)
            if gf < yset and len(gf) % 2 == 1:
                cands.add(gf)
    for sid in node.succs:
        sw = program.ops[sid].word
        ov = frozenset(q for q in yset if sw.letter(q) == "Y")
        if ov and ov < yset and len(ov) % 2 == 1:
            cands.add(ov)
    cands.add(frozenset({min(yset)}))

    def group_score(g: frozenset) -> int:
        gw = _z_group_word(n, sorted(g))
        sc = 0
        for pid in node.preds:
            pop = program.ops[pid]
            if pop.is_clifford_quarter() and pop.word == gw:
                sc += 1
            if any(frozenset(eg) == g for eg in emitted_groups.get(pid, ())):
                sc += 1
        for sid in node.succs:
            sw = program.ops[sid].word
            sy = frozenset(q for q in sw.support() if sw.letter(q) == "Y")
            if g <= sy and (g == sy or len(sy - g) % 2 == 1):
                sc += 1
        return sc

    def rank(g: frozenset):
        return (-(group_score(g) + group_score(yset - g)),
                len(g), tuple(sorted(g)))

    best = min(cands, key=rank)
    return tuple(sorted(best)), tuple(sorted(yset - best))
