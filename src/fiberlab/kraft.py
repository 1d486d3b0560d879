"""Prefix-free binary codebooks built canonically from a length profile.

Feasibility is decided in exact integer arithmetic: lengths l_1..l_m are
realizable as a prefix-free binary code iff sum(2**-l_i) <= 1, checked as
sum(2**(L - l_i)) <= 2**L with L = max length, so no float rounding can
accept an infeasible profile.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping

import numpy as np

from .actions import _integer
from .errors import KraftInfeasibleError
from .records import FrozenRecord
from .words import is_prefix_free


def kraft_sum(lengths: Iterable[int]) -> Fraction:
    """Exact value of sum(2**-l) over the given codeword lengths.

    Summed as the integer sum(2**(L - l)) over 2**L, L the largest length
    (or 0).  A length that is not an integer raises ValueError.
    """
    lengths = [_integer(l, "a codeword length") for l in lengths]
    top = max([0, *lengths])
    return Fraction(sum(1 << (top - l) for l in lengths), 1 << top)


def shannon_length(probability: Fraction) -> int:
    """Smallest integer l with 2**-l <= probability, i.e. ceil(-log2 p).

    Computed exactly from the rational probability; p must lie in (0, 1].
    """
    p = Fraction(probability)
    if not 0 < p <= 1:
        raise ValueError("probability must lie in (0, 1]")
    return _shannon_bits(p.numerator, p.denominator)


# numerators over a denominator below this are held as int64: each is
# exact as a float64, so np.frexp reads its bit length, and a numerator
# shifted to its denominator's bit length, at most twice the denominator,
# stays far below 2**63
_MACHINE_DEN = 2 ** 53

# int.bit_length of one Python int, or of each entry of an object array of them
_int_bit_length = np.frompyfunc(int.bit_length, 1, 1)


def _numerator_dtype(den: int) -> np.dtype:
    """The dtype of numerators over den, or over a denominator it bounds: int64 below _MACHINE_DEN, else Python ints."""
    return np.dtype(np.int64 if den < _MACHINE_DEN else object)


def _bit_length(x):
    """The bit length of a Python int, of each entry of an object array of them, or of each entry of an
    integer array below _MACHINE_DEN, read off np.frexp's exponent."""
    if isinstance(x, np.ndarray) and x.dtype != object:
        return np.frexp(x)[1]
    return _int_bit_length(x)


def _shannon_bits(num, den):
    """ceil(-log2(num / den)) for integers 0 < num <= den, reduced or not.

    num and den may also be arrays, or one of each, and then the lengths
    come back elementwise, from whole-array shifts and comparisons, with
    no Python loop: an object array of Python ints, or a machine-integer
    array when num is an int64 array and den one too or a Python int,
    both below _MACHINE_DEN.
    """
    # shifted by this much, num has den's bit length, so one more shift at most
    length = _bit_length(den) - _bit_length(num)
    return length + ((num << length) < den)


class BinaryCodebook(FrozenRecord):
    """An injective, prefix-free map from source blocks to bit strings.

    A validated record (records.FrozenRecord): the codewords are checked
    distinct, prefix free and Kraft-feasible once, when it is built.
    """

    entries: dict

    def __post_init__(self):
        values = list(self.entries.values())
        if len(set(values)) != len(values):
            raise ValueError("codewords must be distinct")
        if any(not w or set(w) - {"0", "1"} for w in values):
            raise ValueError("codewords must be non-empty bit strings")
        if not is_prefix_free(values):
            raise ValueError("codewords must be prefix free")
        if kraft_sum(len(w) for w in values) > 1:
            raise KraftInfeasibleError("codeword lengths violate Kraft's inequality")

    def __len__(self) -> int:
        return len(self.entries)


def canonical_kraft_code(lengths: Mapping[Hashable, int]) -> BinaryCodebook:
    """Construct the canonical prefix-free code realizing a length profile.

    Blocks are sorted by (length, block identifier) and codewords assigned
    as consecutive binary fractions, so equal inputs always yield the same
    codebook.  Raises KraftInfeasibleError when sum(2**-l) > 1.
    """
    for l in lengths.values():
        _integer(l, "a codeword length", 1)
    items = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    words = _canonical_words([length for _, length in items])
    return BinaryCodebook({block: word for (block, _), word in zip(items, words)})


def _canonical_words(lengths: list[int]) -> list[str]:
    """The canonical codewords, consecutive binary fractions, of ascending integer lengths >= 1.

    After word i, code = sum_{j<=i} 2**(l_i - l_j), so code / 2**l_max is the
    Kraft sum, decided once at the end: KraftInfeasibleError when it exceeds 1.
    """
    words, code, last = [], 0, 0
    for length in lengths:
        code <<= length - last
        last = length
        words.append(format(code, f"0{length}b"))
        code += 1
    if code > 1 << last:
        raise KraftInfeasibleError("requested lengths violate Kraft's inequality")
    return words
