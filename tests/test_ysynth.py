"""Y-operator decomposition under access limits and rotation merging."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bipartition_reference
import fixpoint_merge_reference as ref
from lscompile import bench, ysynth
from lscompile.board import builtin_layout
from lscompile.mapping import access_map, build_mapping
from lscompile.oracle import (
    distributions_match,
    outcome_distribution,
    program_unitary,
)
from lscompile.pauli import PauliWord, measurement, rotation
from lscompile.pdag import build_pdag
from lscompile.transpiler import PbcProgram, parse_pbc
from lscompile.ysynth import (
    Y_STRATEGIES,
    apply_y_strategy,
    choose_bipartition,
    decompose_op,
    naive_y_decompose,
    pauli_synthesis,
    y_synthesize,
)

W = PauliWord.from_string
XZ_ONLY = {"X", "Z"}


def op_triples(program):
    return [(op.kind[0], op.word.to_string(), op.angle_num) for op in program.ops]


def all_y_family(n_qubits):
    """Two identical all-Y rotations followed by a full Z readout.

    Adjacent conjugation shells cancel, so the merged form is much
    shorter than decomposing each rotation on its own.
    """
    w = W("Y" * n_qubits)
    ops = [rotation(w, 1), rotation(w, 1)]
    ops += [measurement(PauliWord.from_letters(n_qubits, {q: "Z"}))
            for q in range(n_qubits)]
    return PbcProgram(n_qubits, tuple(ops))


class TestDecomposeOp:
    def test_single_y_rotation_shape(self):
        ops = decompose_op(rotation(W("Y"), 1), (0,))
        assert [(o.word.to_string(), o.angle_num) for o in ops] == [
            ("Z", 14), ("X", 1), ("Z", 2)]

    def test_single_y_rotation_exact(self):
        ops = decompose_op(rotation(W("Y"), 1), (0,))
        u1 = program_unitary(PbcProgram(1, (rotation(W("Y"), 1),)))
        u2 = program_unitary(PbcProgram(1, tuple(ops)))
        assert np.allclose(u1, u2)

    def test_even_pair_shape(self):
        ops = decompose_op(rotation(W("YY"), 1), (0,), (1,))
        assert [(o.word.to_string(), o.angle_num) for o in ops] == [
            ("ZI", 14), ("IZ", 14), ("XX", 1), ("ZI", 2), ("IZ", 2)]

    def test_even_pair_exact(self):
        ops = decompose_op(rotation(W("YY"), 1), (0,), (1,))
        u1 = program_unitary(PbcProgram(2, (rotation(W("YY"), 1),)))
        u2 = program_unitary(PbcProgram(2, tuple(ops)))
        assert np.allclose(u1, u2)

    def test_measurement_keeps_sandwich(self):
        ops = decompose_op(measurement(W("Y")), (0,))
        kinds = [(o.kind[0], o.word.to_string(), o.angle_num) for o in ops]
        assert kinds == [("r", "Z", 14), ("m", "X", 0), ("r", "Z", 2)]
        prog = PbcProgram(1, (measurement(W("Y")),))
        assert distributions_match(
            outcome_distribution(PbcProgram(1, tuple(ops))),
            outcome_distribution(prog))

    def test_mixed_word_distribution(self):
        op = rotation(W("YXY"), 15)
        ops = decompose_op(op, (0,), (2,))
        u1 = program_unitary(PbcProgram(3, (op,)))
        u2 = program_unitary(PbcProgram(3, tuple(ops)))
        assert np.allclose(u1, u2)


class TestYSynthesize:
    def test_full_access_leaves_y_alone(self):
        prog = parse_pbc("pi/8 Y\nM Z")
        assert op_triples(y_synthesize(prog)) == [("r", "Y", 1), ("m", "Z", 0)]

    def test_restricted_access_decomposes(self):
        prog = parse_pbc("pi/8 Y\nM Z")
        out = y_synthesize(prog, {0: XZ_ONLY})
        assert op_triples(out) == [
            ("r", "Z", 14), ("r", "X", 1), ("r", "Z", 2), ("m", "Z", 0)]
        assert distributions_match(outcome_distribution(out),
                                   outcome_distribution(prog))

    def test_partial_access_map(self):
        # qubit 0 keeps Y access, qubit 1 does not
        prog = parse_pbc("pi/8 YI\npi/8 IY\nM ZZ")
        out = y_synthesize(prog, {0: {"X", "Y", "Z"}, 1: XZ_ONLY})
        words = [op.word.to_string() for op in out.ops]
        assert "YI" in words
        assert "IY" not in words

    @pytest.mark.parametrize("n_qubits", [2, 4, 6])
    def test_family_counts_beat_naive(self, n_qubits):
        fam = all_y_family(n_qubits)
        access = {q: XZ_ONLY for q in range(n_qubits)}
        merged = y_synthesize(fam, access)
        naive = naive_y_decompose(fam)
        expected = {2: (7, 12), 4: (9, 14), 6: (11, 16)}[n_qubits]
        assert (len(merged.ops), len(naive.ops)) == expected
        base = outcome_distribution(fam)
        assert distributions_match(outcome_distribution(merged), base)
        assert distributions_match(outcome_distribution(naive), base)

    def test_split_cancels_a_preceding_z_quarter_turn(self):
        """The pi/4 on qubit 1 is a candidate group; splitting it off
        lets its conjugator cancel in the merge."""
        prog = parse_pbc("pi/4 IZII\npi/8 YYYY\nM ZZZZ")
        assert choose_bipartition((0, 1, 2, 3), 1, prog, build_pdag(prog),
                                  {}) == ((1,), (0, 2, 3))
        merged = y_synthesize(prog, {q: XZ_ONLY for q in range(4)})
        naive = naive_y_decompose(prog)
        assert (len(merged.ops), len(naive.ops)) == (5, 7)
        assert distributions_match(outcome_distribution(merged),
                                   outcome_distribution(naive))

    @pytest.mark.parametrize("text,access,builds", [
        ("pi/8 YY\nM ZZ", None, 0),
        ("pi/8 YY\nM ZZ", {0: XZ_ONLY}, 1),
        ("pi/8 YZI\npi/8 YYY\nM ZZZ", {q: XZ_ONLY for q in range(3)}, 0),
        ("pi/8 YYII\npi/4 YYYY\nM ZZZZ", {q: XZ_ONLY for q in range(4)}, 1),
    ], ids=["served", "even", "odd-only", "two-even"])
    def test_dependency_graph_built_only_for_a_bipartition(
            self, text, access, builds, monkeypatch):
        """Only an even Y count asks the dependency graph, and one graph
        serves every such operator."""
        calls = []
        monkeypatch.setattr(ysynth, "build_pdag", lambda p: calls.append(p)
                            or build_pdag(p))
        prog = parse_pbc(text)
        y_synthesize(prog, access)
        assert len(calls) == builds


class TestNaive:
    def test_decomposes_every_y(self):
        prog = parse_pbc("pi/8 Y\nM Z")
        assert op_triples(naive_y_decompose(prog)) == [
            ("r", "Z", 14), ("r", "X", 1), ("r", "Z", 2), ("m", "Z", 0)]

    def test_leaves_y_free_programs_alone(self):
        prog = parse_pbc("pi/8 ZX\nM ZZ")
        assert tuple(naive_y_decompose(prog).ops) == tuple(prog.ops)


class TestApplyStrategy:
    def test_strategy_names(self):
        assert Y_STRATEGIES == ("o3ls", "naive", "off")

    def test_off_is_identity(self):
        prog = parse_pbc("pi/8 Y\nM Z")
        assert tuple(apply_y_strategy(prog, "off").ops) == tuple(prog.ops)

    def test_unknown_rejected(self):
        prog = parse_pbc("pi/8 Y\nM Z")
        with pytest.raises(ValueError):
            apply_y_strategy(prog, "bogus")

    def test_naive_dispatch(self):
        prog = parse_pbc("pi/8 Y\nM Z")
        assert len(apply_y_strategy(prog, "naive").ops) == 4


class TestPauliSynthesis:
    CASES = [
        # two eighth turns on the same word merge into a quarter turn
        ("pi/8 Z\npi/8 Z\nM Z",
         [("r", "Z", 2), ("m", "Z", 0)]),
        # opposite eighth turns cancel outright
        ("pi/8 Z\n-pi/8 Z\nM X",
         [("m", "X", 0)]),
        # merged half turn folds into the anticommuting readout sign
        ("pi/4 Z\npi/4 Z\nM X",
         [("m", "X", 0, -1)]),
        # without a trailing measurement the half turn stays explicit
        ("pi/4 Z\npi/4 Z",
         [("r", "Z", 4)]),
        # a measurement on the shared word blocks merging across it
        ("pi/8 Z\nM X\npi/8 Z",
         [("r", "Z", 1), ("m", "X", 0), ("r", "Z", 1)]),
        # a disjoint operator in between does not block the merge
        ("pi/8 ZI\npi/8 IX\npi/8 ZI\nM ZZ",
         [("r", "ZI", 2), ("r", "IX", 1), ("m", "ZZ", 0)]),
        # a cancelled pair uncovers the earlier partner beneath it
        ("pi/8 ZI\npi/8 ZZ\n-pi/8 ZZ\npi/8 ZI\nM XX",
         [("r", "ZI", 2), ("m", "XX", 0)]),
        # a measurement on the shared word blocks the merge, though it
        # commutes with both rotations
        ("pi/8 ZZ\nM ZZ\n-pi/8 ZZ",
         [("r", "ZZ", 1), ("m", "ZZ", 0), ("r", "ZZ", 15)]),
        # a disjoint measurement after the partner is a later measurement
        ("pi/4 ZI\nM IX\npi/4 ZI",
         [("m", "IX", 0)]),
        # one before the partner is not, so the half turn stays
        ("M IX\npi/4 ZI\npi/4 ZI",
         [("m", "IX", 0), ("r", "ZI", 4)]),
        # the partner's earliest merged part decides what comes after it
        ("pi/8 ZI\nM IX\npi/8 ZI\npi/4 ZI",
         [("m", "IX", 0)]),
        # a fold flips each later anticommuting operator, and only those
        ("pi/4 ZI\npi/4 ZI\npi/8 XI\nM XI\nM ZZ",
         [("r", "XI", 15), ("m", "XI", 0, -1), ("m", "ZZ", 0)]),
        # a fold uncovers the earlier partner too, and the flipped
        # operator then cancels with it
        ("pi/8 XI\npi/4 ZI\npi/4 ZI\npi/8 XI\nM XX",
         [("m", "XX", 0, -1)]),
    ]

    @pytest.mark.parametrize("text,expected", CASES)
    def test_known_merges(self, text, expected):
        out = pauli_synthesis(parse_pbc(text))
        got = [(op.kind[0], op.word.to_string(), op.angle_num, op.sign)
               for op in out.ops]
        want = [e if len(e) == 4 else e + (1,) for e in expected]
        assert got == want

    @pytest.mark.parametrize("text,expected", CASES)
    def test_known_merges_preserve_distribution(self, text, expected):
        prog = parse_pbc(text)
        assert distributions_match(outcome_distribution(pauli_synthesis(prog)),
                                   outcome_distribution(prog))

    def test_random_programs_preserved(self):
        for seed in range(6):
            prog = bench.random_program(3, 6, seed=seed)
            out = pauli_synthesis(prog)
            assert len(out.ops) <= len(prog.ops)
            assert distributions_match(outcome_distribution(out),
                                       outcome_distribution(prog))


@st.composite
def merge_programs(draw):
    """Programs on a small pool of words, so that same-word pairs are
    dense: every angle, signed measurements in mid-program and at the
    end, and identity words."""
    n = draw(st.integers(min_value=1, max_value=12))
    word = st.lists(st.sampled_from("IIXYZ"), min_size=n, max_size=n).map(
        lambda letters: W("".join(letters)))
    k = draw(st.integers(min_value=1, max_value=4))
    pool = draw(st.lists(word, min_size=k, max_size=k))
    if draw(st.booleans()):
        pool.append(PauliWord.identity(n))
    words = st.sampled_from(pool)
    signs = st.sampled_from([1, -1])
    # numerators -2 and -1 stand for a measurement in mid-program
    size = draw(st.integers(min_value=0, max_value=40))
    body = draw(st.lists(st.tuples(words, st.integers(-2, 15)),
                         min_size=size, max_size=size))
    ops = [rotation(w, k) if k >= 0 else measurement(w, 2 * k + 3)
           for w, k in body]
    ops += draw(st.lists(st.builds(measurement, words, signs), max_size=2))
    return PbcProgram(n, tuple(ops))


@given(merge_programs())
@settings(max_examples=300, deadline=None)
def test_one_scan_matches_fixpoint_reference(prog):
    assert pauli_synthesis(prog) == ref.pauli_synthesis(prog)


@st.composite
def y_programs(draw):
    """Y-heavy rotations and measurements among pure-Z quarter turns,
    with an access map that serves Y on some qubits, lacks it on others
    and leaves the rest unlisted."""
    n = draw(st.integers(min_value=2, max_value=8))
    y_heavy = st.lists(st.sampled_from("YYYXZI"), min_size=n, max_size=n).map(
        lambda letters: W("".join(letters)))
    z_only = st.integers(1, (1 << n) - 1).map(lambda z: PauliWord(n, 0, z))
    op = st.one_of(
        st.builds(rotation, y_heavy, st.integers(0, 15)),
        st.builds(measurement, y_heavy, st.sampled_from([1, -1])),
        st.builds(rotation, z_only, st.sampled_from([2, 14])))
    ops = draw(st.lists(op, min_size=1, max_size=24))
    access = {q: draw(st.sampled_from([XZ_ONLY, {"X", "Y", "Z"}]))
              for q in range(n) if draw(st.booleans())}
    return PbcProgram(n, tuple(ops)), access


@given(y_programs())
@settings(max_examples=300, deadline=None)
def test_bipartition_matches_reference(case):
    """Every split y_synthesize asks for is the one the two-pass
    reference picks."""
    prog, access = case

    def both(*args):
        got = choose_bipartition(*args)
        assert got == bipartition_reference.choose_bipartition(*args)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ysynth, "choose_bipartition", both)
        y_synthesize(prog, access)


@given(st.text("IXYZ", min_size=1, max_size=70))
def test_y_indices_read_off_the_masks(letters):
    w = W(letters)
    assert ysynth._y_indices(rotation(w, 1)) == tuple(
        q for q in w.support() if w.letter(q) == "Y")


@pytest.mark.slow
def test_y_synthesis_scales_near_linearly():
    """Y synthesis of random_program(n, 10n, 1), mapped by ea on the
    standard board, fits a log-log slope of at most 1.5 in n (the
    fixpoint merge's is about 3)."""
    ns, times = (20, 40, 80), []
    for n in ns:
        prog = bench.random_program(n, 10 * n, 1)
        board = builtin_layout("standard", n)
        access = access_map(board, build_mapping("ea", board, build_pdag(prog)))
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            y_synthesize(prog, access)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    slope = np.polyfit(np.log(ns), np.log(times), 1)[0]
    assert slope <= 1.5, times
