import itertools
import random
from fractions import Fraction

import pytest

from fiberlab import (
    Alphabet,
    BinaryCodebook,
    KraftInfeasibleError,
    Word,
    canonical_kraft_code,
    enumerate_word,
    is_prefix_free,
    kraft_sum,
    shannon_length,
)

BINARY = Alphabet(("0", "1"))


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


def test_word_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        Word(BINARY, (0, 2))


def test_is_prefix_free_cases():
    assert is_prefix_free(["0", "10", "11"])
    assert not is_prefix_free(["0", "01"])
    assert is_prefix_free([])
    words = [Word.from_symbols(BINARY, s) for s in ("00", "01", "1")]
    assert is_prefix_free(words)
    assert not is_prefix_free(words + [Word(BINARY)])


def brute_force_enumeration(alphabet, count):
    """Independent oracle: generate words by length then lexicographic order."""
    out = []
    length = 0
    while len(out) < count:
        for letters in itertools.product(range(alphabet.size), repeat=length):
            out.append(Word(alphabet, letters))
            if len(out) == count:
                return out
        length += 1
    return out


def test_enumerate_word_small_values():
    assert enumerate_word(BINARY, 0) == Word(BINARY)
    # frozen by the brute-force enumeration: e, 0, 1, 00, ...
    assert enumerate_word(BINARY, 3).text() == "00"
    assert enumerate_word(BINARY, 6).text() == "11"


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_enumerate_word_matches_brute_force_and_inverts(size):
    alphabet = Alphabet(tuple(f"s{i}" for i in range(size)))
    expected = brute_force_enumeration(alphabet, 200)
    produced = [enumerate_word(alphabet, i) for i in range(200)]
    assert produced == expected
    # injectivity and linear-search inversion
    assert len({w.letters for w in produced}) == 200
    for index in (0, 1, 17, 123):
        assert produced.index(enumerate_word(alphabet, index)) == index


def test_canonical_kraft_code_examples():
    assert canonical_kraft_code({"a": 1, "b": 2, "c": 2}).entries == {"a": "0", "b": "10", "c": "11"}
    four = canonical_kraft_code({"a": 2, "b": 2, "c": 2, "d": 2})
    assert four.entries == {"a": "00", "b": "01", "c": "10", "d": "11"}
    with pytest.raises(KraftInfeasibleError):
        canonical_kraft_code({"a": 1, "b": 1, "c": 1})


def test_canonical_kraft_code_rejects_nonpositive_lengths():
    with pytest.raises(ValueError):
        canonical_kraft_code({"a": 0})


def test_canonical_kraft_code_empty_profile():
    assert canonical_kraft_code({}).entries == {}


def test_canonical_kraft_code_random_profiles():
    rng = random.Random(20240917)
    for _ in range(50):
        lengths = {}
        budget = Fraction(1)
        for i in range(rng.randint(1, 12)):
            l = rng.randint(1, 10)
            if Fraction(1, 2 ** l) <= budget:
                lengths[f"b{i}"] = l
                budget -= Fraction(1, 2 ** l)
        if not lengths:
            continue
        book = canonical_kraft_code(lengths)
        assert is_prefix_free(book.entries.values())
        assert {b: len(w) for b, w in book.entries.items()} == lengths
        assert kraft_sum(lengths.values()) <= 1


def test_codebook_validation_rejects_prefix_collision():
    with pytest.raises(ValueError):
        BinaryCodebook({"a": "0", "b": "01"})


def test_kraft_sum_is_exact():
    assert kraft_sum([1, 2, 2]) == 1
    assert kraft_sum([64, 64]) == Fraction(2, 2 ** 64)


def test_shannon_length_exact_ceiling():
    assert shannon_length(Fraction(1)) == 0
    assert shannon_length(Fraction(1, 2)) == 1
    assert shannon_length(Fraction(1, 3)) == 2
    # exact powers of two must not pick up a spurious extra bit
    assert shannon_length(Fraction(1, 2 ** 53)) == 53
    assert shannon_length(Fraction(1, 4) * Fraction(1, 3) ** 9) == 17


def test_shannon_length_matches_its_definition_at_powers_of_two():
    # the smallest l with 2**-l <= p, checked by definition on p = 1, on
    # powers of two and on each side of them
    def by_definition(p):
        return next(l for l in itertools.count() if Fraction(1, 2 ** l) <= p)

    cases = [Fraction(1)]
    for l in range(1, 60):
        cases += [Fraction(1, 2 ** l), Fraction(1, 2 ** l) - Fraction(1, 2 ** 60), Fraction(1, 2 ** l) + Fraction(1, 2 ** 60)]
    cases += [Fraction(1, 2 ** l) for l in range(60, 300, 7)]
    for p in cases:
        assert shannon_length(p) == by_definition(p)


def test_kraft_sum_matches_its_definition():
    for lengths in ([], [1], [3, 1, 2, 3], [1, 1, 1], [200, 1, 64, 64], [0, 5]):
        assert kraft_sum(lengths) == sum((Fraction(1, 2 ** l) for l in lengths), Fraction(0))
