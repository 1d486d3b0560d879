"""Alphabets, finite words, prefix relations and word enumeration.

Words are stored as tuples of letter indices into an ordered alphabet.
The empty word is a first-class value (index 0 in the global enumeration).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .actions import _integer, _integers
from .records import FrozenRecord


class Alphabet(FrozenRecord):
    """An ordered, finite, non-empty set of distinct symbol labels.

    A validated record (records.FrozenRecord): each label is read as a str
    once, and alphabets compare and hash by their labels.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(str(s) for s in self.symbols))
        if len(self.symbols) == 0:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


class Word(FrozenRecord):
    """A finite (possibly empty) word over an alphabet, held as letter indices.

    A validated record (records.FrozenRecord): every letter is checked
    against the alphabet once, when the word is built.
    """

    alphabet: Alphabet
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(_integer(x, "a letter index") for x in self.letters))
        _integers(self.letters, self.alphabet.size, "letter indices")

    @classmethod
    def from_symbols(cls, alphabet: Alphabet, symbols: Iterable[str]) -> "Word":
        return cls(alphabet, tuple(alphabet.index(s) for s in symbols))

    def text(self, sep: str = "") -> str:
        return sep.join(self.alphabet.symbols[x] for x in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __array__(self, dtype=None, copy=None):
        """The letter indices, as int64 unless numpy asks for another dtype (see actions._integers)."""
        return np.array(self.letters, dtype=np.int64 if dtype is None else dtype)


def _as_letter_sequences(words) -> list[tuple]:
    seqs = []
    alphabet = None
    for w in words:
        if isinstance(w, Word):
            if alphabet is None:
                alphabet = w.alphabet
            elif w.alphabet != alphabet:
                raise ValueError("words must share an alphabet")
            seqs.append(w.letters)
        else:
            seqs.append(tuple(w))
    return seqs


def is_prefix_free(words) -> bool:
    """Whether no word in the collection is a proper prefix of another.

    Accepts Word values over a common alphabet, or plain sequences such as
    bit strings.  Duplicates are collapsed (a set is tested).  The empty
    collection is prefix free; any collection containing the empty word
    alongside another word is not.
    """
    seqs = sorted(set(_as_letter_sequences(words)))
    # after lexicographic sorting a prefix is adjacent to its extension
    for a, b in zip(seqs, seqs[1:]):
        if b[: len(a)] == a:
            return False
    return True


def enumerate_word(alphabet: Alphabet, index: int) -> Word:
    """Return the index-th word in length-then-lexicographic order.

    Index 0 is the empty word; the map is a bijection between the
    nonnegative integers and all finite words over the alphabet.  An index
    that is not an integer raises ValueError.
    """
    index = _integer(index, "a word index", 0)
    s = alphabet.size
    if s == 1:
        return Word(alphabet, (0,) * index)
    # skip the s**l words of each shorter length l
    length = 0
    count = 1
    remaining = index
    while remaining >= count:
        remaining -= count
        length += 1
        count *= s
    digits = []
    for _ in range(length):
        digits.append(remaining % s)
        remaining //= s
    return Word(alphabet, tuple(reversed(digits)))
