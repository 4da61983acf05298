"""Symplectic Pauli algebra: words, phased products, conjugation rules."""

import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lscompile.pauli import (
    DimensionError,
    MEASUREMENT,
    PauliOp,
    PauliParseError,
    PauliWord,
    PhasedPauli,
    ROTATION,
    commutes,
    conjugate_past,
    flip_past_pauli,
    format_op,
    measurement,
    multiply,
    parse_op,
    rotation,
    set_bits,
)
from dense_reference import word_matrix

W = PauliWord.from_string


def phased_matrix(p: PhasedPauli) -> np.ndarray:
    return (1j ** p.phase_exp) * word_matrix(p.word)


words_1q = st.sampled_from(["I", "X", "Y", "Z"])
words_3q = st.tuples(words_1q, words_1q, words_1q).map("".join)
# (n, x, z) of a word of 0 to 80 qubits: widths that end inside a
# four-qubit chunk, and past 64 bits
nxz_words = st.integers(0, 80).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 2 ** n - 1), st.integers(0, 2 ** n - 1)))


class TestPauliWord:
    def test_round_trip(self):
        for s in ("I", "X", "ZZ", "XYZI", "IIIY"):
            assert W(s).to_string() == s

    def test_letters_and_support(self):
        w = W("XIZY")
        assert [w.letter(q) for q in range(4)] == ["X", "I", "Z", "Y"]
        assert w.support() == (0, 2, 3)
        assert w.weight() == 3

    @settings(max_examples=200, deadline=None)
    @given(nxz_words)
    def test_support_is_a_scan_of_the_qubits(self, nxz):
        n, x, z = nxz
        w = PauliWord(n, x, z)
        assert w.support() == tuple(q for q in range(n)
                                    if (x >> q) & 1 or (z >> q) & 1)

    @settings(max_examples=200, deadline=None)
    @given(nxz_words)
    def test_support_is_worked_out_once(self, nxz):
        w = PauliWord(*nxz)
        support = w.support()
        assert support == tuple(set_bits(w.x | w.z))
        assert w.support() is support
        # the kept support is no field: equality and hashing ignore it
        fresh = PauliWord(*nxz)
        assert w == fresh and hash(w) == hash(fresh)

    @settings(max_examples=200, deadline=None)
    @given(nxz_words)
    def test_string_is_the_letters_in_qubit_order(self, nxz):
        w = PauliWord(*nxz)
        assert w.to_string() == "".join(w.letter(q) for q in range(w.n))
        assert W(w.to_string()) == w

    def test_identity(self):
        w = PauliWord(3, 0, 0)
        assert w.is_identity()
        assert w.to_string() == "III"
        assert not W("IXI").is_identity()

    def test_from_letters(self):
        assert PauliWord.from_letters(4, {1: "X", 3: "Z"}).to_string() == "IXIZ"

    def test_bad_letter_rejected(self):
        with pytest.raises(PauliParseError):
            W("XQ")

    def test_overlaps(self):
        assert W("XI").overlaps(W("XZ"))
        assert not W("XI").overlaps(W("IZ"))


def refuses(message: str):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


class TestValueContract:
    """Words, phased words and operators are frozen values: each checks
    its fields once, compares, hashes, prints and pickles by them alone."""

    @settings(max_examples=200, deadline=None)
    @given(nxz_words, st.integers(-40, 40), st.sampled_from([1, -1]),
           st.integers(-9, 9))
    def test_values(self, nxz, k, sign, phase):
        n, x, z = nxz
        w = PauliWord(n, x, z)
        w.support()   # the kept support neither prints nor compares
        cases = [
            (w, (n, x, z), f"PauliWord(n={n}, x={x}, z={z})"),
            (PhasedPauli(w, phase), (w, phase % 4),
             f"PhasedPauli(word={w!r}, phase_exp={phase % 4})"),
            (PauliOp(w, ROTATION, k), (w, ROTATION, k % 16, 1),
             f"PauliOp(word={w!r}, kind='rotation', angle_num={k % 16}, "
             "sign=1)"),
            (PauliOp(w, MEASUREMENT, 0, sign), (w, MEASUREMENT, 0, sign),
             f"PauliOp(word={w!r}, kind='measurement', angle_num=0, "
             f"sign={sign})")]
        for v, fields, text in cases:
            assert repr(v) == text
            twin = type(v)(*fields)
            assert twin is not v and twin == v and hash(twin) == hash(v)
            for back in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
                assert back == v and hash(back) == hash(v)
                assert repr(back) == text
            for f in dataclasses.fields(v):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(v, f.name, 1)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(v, f.name)

    @settings(max_examples=200, deadline=None)
    @given(nxz_words, st.integers(1, 200),
           st.integers(-5, 5).filter(lambda s: s not in (1, -1)))
    def test_bad_inputs_are_refused(self, nxz, shift, sign):
        n, x, z = nxz
        with refuses("negative qubit count"):
            PauliWord(-shift, 0, 0)
        for bad in (x | 1 << (n + shift - 1), -shift):
            with refuses("mask bits outside qubit range"):
                PauliWord(n, bad, z)
            with refuses("mask bits outside qubit range"):
                PauliWord(n, x, bad)
        w = PauliWord(n, x, z)
        with refuses("bad kind 'Rotation'"):
            PauliOp(w, "Rotation")
        for kind in (ROTATION, MEASUREMENT):
            with refuses("measurement sign must be +1 or -1"):
                PauliOp(w, kind, 0, sign)
        # -W at angle k is W at -k: the sign of a rotation is always +1
        with refuses("rotation sign must be +1"):
            PauliOp(w, ROTATION, shift, -1)


class TestCommutation:
    def test_single_qubit_table(self):
        assert not commutes(W("X"), W("Z"))
        assert not commutes(W("X"), W("Y"))
        assert not commutes(W("Y"), W("Z"))
        assert commutes(W("X"), W("X"))
        assert commutes(W("I"), W("Z"))

    def test_two_anticommuting_pairs_commute(self):
        # XX vs ZZ: each qubit anticommutes, product of two signs is +1
        assert commutes(W("XX"), W("ZZ"))
        assert not commutes(W("XX"), W("ZI"))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            commutes(W("X"), W("XX"))

    @given(words_3q, words_3q)
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, a, b):
        assert commutes(W(a), W(b)) == commutes(W(b), W(a))

    @given(words_3q, words_3q)
    @settings(max_examples=60, deadline=None)
    def test_matches_matrix_commutator(self, a, b):
        ma, mb = word_matrix(W(a)), word_matrix(W(b))
        assert commutes(W(a), W(b)) == np.allclose(ma @ mb, mb @ ma)


class TestPhasedProduct:
    def test_hand_checked_products(self):
        zx = multiply(PhasedPauli(W("Z")), PhasedPauli(W("X")))
        assert (zx.word.to_string(), zx.phase_exp) == ("Y", 1)   # Z X = iY
        xz = multiply(PhasedPauli(W("X")), PhasedPauli(W("Z")))
        assert (xz.word.to_string(), xz.phase_exp) == ("Y", 3)   # X Z = -iY
        xx = multiply(PhasedPauli(W("X")), PhasedPauli(W("X")))
        assert xx.word.is_identity() and xx.phase_exp == 0

    def test_identity_neutral(self):
        p = PhasedPauli(W("XZY"), 2)
        one = PhasedPauli(PauliWord(3, 0, 0), 0)
        assert multiply(p, one) == p
        assert multiply(one, p) == p

    def test_sign(self):
        assert PhasedPauli(W("Z"), 0).sign() == 1
        assert PhasedPauli(W("Z"), 2).sign() == -1
        assert PhasedPauli(W("Z"), 2).is_hermitian()
        with pytest.raises(ValueError):
            PhasedPauli(W("Z"), 1).sign()

    @given(words_3q, words_3q)
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_product(self, a, b):
        pa, pb = PhasedPauli(W(a)), PhasedPauli(W(b))
        prod = multiply(pa, pb)
        assert np.allclose(phased_matrix(prod),
                           phased_matrix(pa) @ phased_matrix(pb))

    @given(words_3q, words_3q, words_3q)
    @settings(max_examples=40, deadline=None)
    def test_associative(self, a, b, c):
        pa, pb, pc = PhasedPauli(W(a)), PhasedPauli(W(b)), PhasedPauli(W(c))
        assert multiply(multiply(pa, pb), pc) == multiply(pa, multiply(pb, pc))


class TestOps:
    def test_predicates(self):
        assert rotation(W("Z"), 1).is_eighth()
        assert rotation(W("Z"), 15).is_eighth()
        assert rotation(W("Z"), 2).is_clifford_quarter()
        assert rotation(W("Z"), 14).is_clifford_quarter()
        assert rotation(W("Z"), 4).is_pauli_half()
        assert rotation(W("Z"), 12).is_pauli_half()
        assert rotation(W("Z"), 0).is_trivial()
        assert measurement(W("ZZ")).kind == MEASUREMENT
        assert measurement(W("ZZ")).kind != ROTATION

    def test_negated(self):
        assert rotation(W("X"), 1).negated().angle_num == 15
        assert measurement(W("Z")).negated().sign == -1


class TestConjugatePast:
    def test_quarter_turn_maps_x_eighth_to_y(self):
        """Pushing a Z quarter turn past an X eighth turn yields a Y eighth
        turn; the two quarter-turn signs give opposite Y angles."""
        img = conjugate_past(rotation(W("Z"), 2), rotation(W("X"), 1))
        assert (img.word.to_string(), img.angle_num, img.kind) == ("Y", 15, ROTATION)
        img = conjugate_past(rotation(W("Z"), 14), rotation(W("X"), 1))
        assert (img.word.to_string(), img.angle_num) == ("Y", 1)

    def test_commuting_target_unchanged(self):
        t = rotation(W("ZZ"), 1)
        assert conjugate_past(rotation(W("IZ"), 2), t) == t

    def test_measurement_sign_folding(self):
        img = conjugate_past(rotation(W("Z"), 2), measurement(W("X")))
        assert img.kind == MEASUREMENT
        assert img.word.to_string() == "Y"

    def test_rejects_non_quarter_clifford(self):
        with pytest.raises(ValueError):
            conjugate_past(rotation(W("Z"), 1), rotation(W("X"), 1))

    @given(words_3q, words_3q,
           st.sampled_from([2, 14]), st.sampled_from([1, 15]))
    @settings(max_examples=60, deadline=None)
    def test_matrix_identity(self, cw, tw, ck, tk):
        """Program [C, T] equals [conjugated T, C] as a unitary."""
        from lscompile.oracle import program_unitary
        from lscompile.transpiler import PbcProgram
        c = rotation(W(cw), ck)
        t = rotation(W(tw), tk)
        if c.word.is_identity():
            return
        t2 = conjugate_past(c, t)
        u1 = program_unitary(PbcProgram(3, (c, t)))
        u2 = program_unitary(PbcProgram(3, (t2, c)))
        assert np.allclose(u1, u2)


class TestFlipPastPauli:
    def test_anticommuting_flips(self):
        assert flip_past_pauli(W("Z"), rotation(W("X"), 1)).angle_num == 15
        assert flip_past_pauli(W("Z"), measurement(W("X"))).sign == -1

    def test_commuting_passes_through(self):
        t = measurement(W("ZZ"))
        assert flip_past_pauli(W("ZI"), t) == t


class TestTextFormat:
    def test_known_renderings(self):
        assert format_op(rotation(W("ZZ"), 1)) == "pi/8 ZZ"
        assert format_op(rotation(W("X"), 15)) == "-pi/8 X"
        assert format_op(rotation(W("Y"), 2)) == "pi/4 Y"
        assert format_op(rotation(W("Z"), 0)) == "0 Z"
        assert format_op(measurement(W("ZZ"))) == "M ZZ"
        assert format_op(measurement(W("ZZ"), -1)) == "-M ZZ"

    def test_parse_known(self):
        op = parse_op("pi/8 ZZ")
        assert op == rotation(W("ZZ"), 1)
        op = parse_op("-M XY")
        assert op == measurement(W("XY"), -1)

    def test_parse_rejects_garbage(self):
        for line in ("pi/7 Z", "M", "ZZ pi/8", "pi/8 QQ"):
            with pytest.raises(PauliParseError):
                parse_op(line)

    @given(words_3q, st.integers(min_value=0, max_value=15))
    @example("XYZ", 0)
    @settings(max_examples=60, deadline=None)
    def test_rotation_round_trip(self, w, k):
        op = rotation(W(w), k)
        assert parse_op(format_op(op)) == op

    @given(words_3q, st.sampled_from([1, -1]))
    @settings(max_examples=30, deadline=None)
    def test_measurement_round_trip(self, w, sign):
        op = measurement(W(w), sign)
        assert parse_op(format_op(op)) == op
