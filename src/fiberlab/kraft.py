"""Prefix-free binary codebooks built canonically from a length profile.

Feasibility is decided in exact integer arithmetic: lengths l_1..l_m are
realizable as a prefix-free binary code iff sum(2**-l_i) <= 1, checked as
sum(2**(L - l_i)) <= 2**L with L = max length, so no float rounding can
accept an infeasible profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping

import numpy as np

from .actions import _integer
from .errors import KraftInfeasibleError
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


# int.bit_length of one Python int, or of each entry of an object array of them
_bit_length = np.frompyfunc(int.bit_length, 1, 1)


def _shannon_bits(num, den):
    """ceil(-log2(num / den)) for integers 0 < num <= den, reduced or not.

    num and den may also be object arrays of Python ints, or one of each,
    and then the lengths come back elementwise as an object array, from
    whole-array shifts and comparisons, with no Python loop.
    """
    # shifted by this much, num has den's bit length, so one more shift at most
    length = _bit_length(den) - _bit_length(num)
    return length + ((num << length) < den)


@dataclass(frozen=True)
class BinaryCodebook:
    """An injective, prefix-free map from source blocks to bit strings."""

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
    if kraft_sum(lengths.values()) > 1:
        raise KraftInfeasibleError("requested lengths violate Kraft's inequality")
    items = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    entries = {}
    code = 0
    prev_len = items[0][1] if items else 0
    for block, length in items:
        code <<= length - prev_len
        prev_len = length
        entries[block] = format(code, f"0{length}b")
        code += 1
    return BinaryCodebook(entries)
