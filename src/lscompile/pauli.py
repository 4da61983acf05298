"""Exact symbolic algebra for n-qubit Pauli words with phase tracking.

Words are stored as paired bit masks (x, z): qubit q carries the letter
given by (x_q, z_q) with X=(1,0), Z=(0,1), Y=(1,1), I=(0,0).  The phase
convention for the Hermitian word is W(x, z) = i^(popcount(x & z)) X^x Z^z,
so W is always the usual signless Pauli string.  Phases produced by
products are tracked mod 4 as powers of i.

Program-level operators (PauliOp) are either rotations exp(-i W k pi/8)
with k stored mod 16, or measurements of +/-W.  Word signs are always
folded into the angle or the measurement sign, so the stored word itself
is unsigned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

_LETTER_BY_BITS = ("I", "X", "Z", "Y")  # index = x_bit + 2 * z_bit
_BITS_BY_LETTER = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
# the letters of four qubits, index = x nibble + 16 * z nibble
_LETTERS_BY_NIBBLES = tuple(
    "".join(_LETTER_BY_BITS[(x >> q & 1) + 2 * (z >> q & 1)] for q in range(4))
    for z in range(16) for x in range(16))

# canonical angle spellings for k mod 16 (numerator of pi/8)
_ANGLE_TOKENS = {
    0: "0", 1: "pi/8", 2: "pi/4", 3: "3pi/8", 4: "pi/2", 5: "5pi/8",
    6: "3pi/4", 7: "7pi/8", 8: "pi", 9: "-7pi/8", 10: "-3pi/4",
    11: "-5pi/8", 12: "-pi/2", 13: "-3pi/8", 14: "-pi/4", 15: "-pi/8",
}
_ANGLE_VALUES = {tok: k for k, tok in _ANGLE_TOKENS.items()}

ROTATION = "rotation"
MEASUREMENT = "measurement"


class DimensionError(ValueError):
    """Qubit counts of two operands do not match."""


class PauliParseError(ValueError):
    """Malformed operator text."""


def set_bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


@dataclass(frozen=True)
class PauliWord:
    """Signless n-qubit Pauli word as (x, z) bit masks; bit q = qubit q."""

    n: int
    x: int
    z: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative qubit count")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("mask bits outside qubit range")

    @staticmethod
    def from_string(s: str) -> "PauliWord":
        x = z = 0
        for q, ch in enumerate(s):
            try:
                xb, zb = _BITS_BY_LETTER[ch]
            except KeyError:
                raise PauliParseError(f"bad Pauli letter {ch!r}") from None
            x |= xb << q
            z |= zb << q
        return PauliWord(len(s), x, z)

    @staticmethod
    def from_letters(n: int, letters: dict) -> "PauliWord":
        x = z = 0
        for q, ch in letters.items():
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range")
            xb, zb = _BITS_BY_LETTER[ch]
            x |= xb << q
            z |= zb << q
        return PauliWord(n, x, z)

    @staticmethod
    def identity(n: int) -> "PauliWord":
        return PauliWord(n, 0, 0)

    def letter(self, q: int) -> str:
        return _LETTER_BY_BITS[((self.x >> q) & 1) + 2 * ((self.z >> q) & 1)]

    def to_string(self) -> str:
        x, z, n = self.x, self.z, self.n
        return "".join([_LETTERS_BY_NIBBLES[(x >> q & 15) + 16 * (z >> q & 15)]
                        for q in range(0, n, 4)])[:n]

    def support(self) -> tuple:
        """The qubits the word acts on, lowest first."""
        return self._support

    @cached_property
    def _support(self) -> tuple:
        # worked out once per word: words are frozen and tuples immutable
        return tuple(set_bits(self.x | self.z))

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def overlaps(self, other: "PauliWord") -> bool:
        return bool((self.x | self.z) & (other.x | other.z))

    def __str__(self) -> str:
        return self.to_string()


def commutes(a: PauliWord, b: PauliWord) -> bool:
    """True iff the symplectic inner product of a and b is even."""
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} vs {b.n}")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


@dataclass(frozen=True)
class PhasedPauli:
    """A Pauli word together with a global phase i^phase_exp."""

    word: PauliWord
    phase_exp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    def is_hermitian(self) -> bool:
        return self.phase_exp in (0, 2)

    def sign(self) -> int:
        """+1 or -1 for Hermitian phases; error otherwise."""
        if self.phase_exp == 0:
            return 1
        if self.phase_exp == 2:
            return -1
        raise ValueError(f"non-Hermitian phase i^{self.phase_exp}")


def multiply(a: PhasedPauli, b: PhasedPauli) -> PhasedPauli:
    """Exact product a * b (a applied after b as matrices)."""
    aw, bw = a.word, b.word
    if aw.n != bw.n:
        raise DimensionError(f"qubit counts differ: {aw.n} vs {bw.n}")
    x3 = aw.x ^ bw.x
    z3 = aw.z ^ bw.z
    # phase bookkeeping for W(x,z) = i^pc(x&z) X^x Z^z:
    # commuting Z^z1 past X^x2 contributes (-1)^pc(z1 & x2)
    ph = (a.phase_exp + b.phase_exp
          + (aw.x & aw.z).bit_count() + (bw.x & bw.z).bit_count()
          + 2 * (aw.z & bw.x).bit_count() - (x3 & z3).bit_count()) % 4
    return PhasedPauli(PauliWord(aw.n, x3, z3), ph)


@dataclass(frozen=True)
class PauliOp:
    """One program operator: a rotation exp(-i W k pi/8) or a +/-W measurement."""

    word: PauliWord
    kind: str
    angle_num: int = 0    # rotations: k mod 16
    sign: int = 1         # measurements: +1 or -1

    def __post_init__(self):
        if self.kind not in (ROTATION, MEASUREMENT):
            raise ValueError(f"bad kind {self.kind!r}")
        object.__setattr__(self, "angle_num", self.angle_num % 16)
        if self.sign not in (1, -1):
            raise ValueError("measurement sign must be +1 or -1")

    @property
    def n(self) -> int:
        return self.word.n

    def is_measurement(self) -> bool:
        return self.kind == MEASUREMENT

    def is_clifford_quarter(self) -> bool:
        """A +/- pi/4 rotation (the conjugation Cliffords)."""
        return self.kind == ROTATION and self.angle_num in (2, 14)

    def is_pauli_half(self) -> bool:
        """A +/- pi/2 rotation, i.e. a Pauli up to global phase."""
        return self.kind == ROTATION and self.angle_num in (4, 12)

    def is_eighth(self) -> bool:
        """A rotation with odd numerator (needs a magic state)."""
        return self.kind == ROTATION and self.angle_num % 2 == 1

    def is_trivial(self) -> bool:
        """Identity up to global phase (k = 0 or 8, or identity word)."""
        if self.kind != ROTATION:
            return False
        return self.angle_num in (0, 8) or self.word.is_identity()

    def negated(self) -> "PauliOp":
        """Same operation with the word sign flipped into angle/sign."""
        if self.kind == ROTATION:
            return PauliOp(self.word, ROTATION, (-self.angle_num) % 16)
        return PauliOp(self.word, MEASUREMENT, sign=-self.sign)


def rotation(word: PauliWord, k: int) -> PauliOp:
    return PauliOp(word, ROTATION, angle_num=k % 16)


def measurement(word: PauliWord, sign: int = 1) -> PauliOp:
    return PauliOp(word, MEASUREMENT, sign=sign)


def conjugate_past(clifford: PauliOp, target: PauliOp) -> PauliOp:
    """Move a +/- pi/4 Clifford rotation later in time past target.

    The target is replaced by its conjugation image C^dag target C where
    C = exp(-i P theta) is the Clifford: unchanged when the words commute,
    otherwise the Hermitian normalization of (+/- i P P') with the residual
    sign folded into the target's angle or measurement sign.
    """
    if not clifford.is_clifford_quarter():
        raise ValueError(f"clifford must have angle +/-pi/4, got k={clifford.angle_num}")
    if clifford.n != target.n:
        raise DimensionError("qubit counts differ")
    if commutes(clifford.word, target.word):
        return target
    # +pi/4 (k=2): image = +i P P'; -pi/4 (k=14): image = -i P P'
    ph = 1 if clifford.angle_num == 2 else 3
    img = multiply(PhasedPauli(clifford.word, ph), PhasedPauli(target.word, 0))
    if not img.is_hermitian():
        raise AssertionError("conjugation image must be Hermitian")
    if target.kind == ROTATION:
        out = rotation(img.word, target.angle_num)
    else:
        out = measurement(img.word, target.sign)
    return out if img.sign() > 0 else out.negated()


def flip_past_pauli(pauli_word: PauliWord, target: PauliOp) -> PauliOp:
    """Move a Pauli (+/- pi/2 rotation) past target: sign flip iff anticommuting."""
    if commutes(pauli_word, target.word):
        return target
    return target.negated()


def format_op(op: PauliOp) -> str:
    if op.kind == MEASUREMENT:
        tok = "M" if op.sign > 0 else "-M"
    else:
        tok = _ANGLE_TOKENS[op.angle_num]
    return f"{tok} {op.word.to_string()}"


def parse_op(line: str) -> PauliOp:
    parts = line.split()
    if len(parts) != 2:
        raise PauliParseError(f"expected '<angle> <word>', got {line!r}")
    tok, word_s = parts
    word = PauliWord.from_string(word_s)
    if tok == "M":
        return measurement(word, 1)
    if tok == "-M":
        return measurement(word, -1)
    if tok not in _ANGLE_VALUES:
        raise PauliParseError(f"unknown angle token {tok!r}")
    return rotation(word, _ANGLE_VALUES[tok])
