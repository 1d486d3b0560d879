import itertools
import math
import pickle
from bisect import bisect_right
from fractions import Fraction

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberlab import (
    Alphabet,
    FiberSystemSpec,
    MarkovChainSpec,
    ModelMismatchError,
    Word,
    block_code_rate,
    bufetov_condition,
    cylinder_prob,
    driving_preset,
    entropy_rate,
    is_irreducible,
    is_stationary,
    sample_trajectory,
)
from fiberlab.actions import _CHUNK
from fiberlab.driving import (
    _block_faults,
    _block_table,
    _composition_depth,
    _cumulative,
    _cylinder_numerators,
    _gather,
    _inverse_cdf,
    block_code_details,
)
from fiberlab.kraft import shannon_length

import oracles

F2 = driving_preset("f2-markov")
UNIFORM4 = MarkovChainSpec.bernoulli(Alphabet(("a", "b", "c", "d")), (Fraction(1, 4),) * 4)
UNIFORM2 = MarkovChainSpec.bernoulli(Alphabet(("0", "1")), (Fraction(1, 2), Fraction(1, 2)))
# denominators 5 for pi and 2, 3 and 6 for Pi, so lcm(den Pi) = 6 is no row's own
MIXED = MarkovChainSpec(
    Alphabet(("x", "y", "z")),
    (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)),
    tuple(tuple(Fraction(1, q) for q in row) for row in ((2, 3, 6), (3, 6, 2), (6, 2, 3))),
)
# skewed and not stationary, with a zero transition (x never follows x)
SKEWED3 = MarkovChainSpec(
    Alphabet(("x", "y", "z")),
    (Fraction(1, 10), Fraction(3, 10), Fraction(3, 5)),
    (
        (Fraction(0), Fraction(1, 7), Fraction(6, 7)),
        (Fraction(9, 10), Fraction(1, 20), Fraction(1, 20)),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    ),
)


def fraction_cylinder(spec, u):
    """The Fraction product cylinder_prob computed before it scored blocks
    by integer numerators, kept as the oracle."""
    prob = spec.pi[u[0]]
    for a, b in zip(u, u[1:]):
        prob *= spec.Pi[a][b]
    return prob


def bisect_trajectory(spec, n, seed):
    """The per-letter bisect loop the transition table replaced, kept as the oracle."""
    us = np.random.Generator(np.random.PCG64(seed)).random(n).tolist()
    pi_cum = list(itertools.accumulate(float(p) for p in spec.pi))
    row_cums = [list(itertools.accumulate(float(p) for p in row)) for row in spec.Pi]
    letters, cum = [], pi_cum
    for u in us:
        state = min(bisect_right(cum, u), spec.alphabet.size - 1)
        letters.append(state)
        cum = row_cums[state]
    return letters


def void_block_table(words, k):
    """The block table keyed by each row's raw bytes as one void scalar,
    which the int64 mixed-radix key replaced, kept as the oracle."""
    m = len(words[0]) // k
    rows = np.concatenate([np.asarray(w, dtype=np.int64)[: m * k].reshape(m, k) for w in words], axis=1)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rows[first[order]], rank[inverse], counts[order], first[order]


def assert_block_table_is_the_void_key_table(words, k):
    table = _block_table(words, k)
    for got, want in zip((_gather(table), table.index, table.counts, table.first), void_block_table(words, k)):
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_spec_validation():
    two = Alphabet(("x", "y"))
    with pytest.raises(ValueError):
        MarkovChainSpec(two, (Fraction(1, 2), Fraction(1, 4)), ((Fraction(1, 2),) * 2,) * 2)
    with pytest.raises(ValueError):
        MarkovChainSpec(two, (Fraction(1, 2),) * 2, ((Fraction(1, 2), Fraction(1, 4)),) * 2)
    # sums are exact: 0.1 + 0.9 as binary floats is 1 + 2**-55
    assert sum(Fraction(x) for x in (0.1, 0.9)) == 1 + Fraction(1, 2 ** 55)
    with pytest.raises(ValueError, match="pi must sum to exactly 1"):
        MarkovChainSpec.bernoulli(two, (0.1, 0.9))
    with pytest.raises(ValueError, match="row 1 of Pi must sum to exactly 1"):
        MarkovChainSpec(two, (0.5, 0.5), ((0.5, 0.5), (0.1, 0.9)))
    assert MarkovChainSpec.bernoulli(two, ("1/10", "9/10")).pi == (Fraction(1, 10), Fraction(9, 10))
    # a bool is no probability: Python's True and False, ints to isinstance, once
    # read as 1 and 0 and made this chain, while np.True_ was refused
    document = {"alphabet": ["x", "y"], "pi": [True, False], "Pi": [[True, False], [False, True]]}
    for build in (lambda: MarkovChainSpec(two, document["pi"], document["Pi"]),
                  lambda: MarkovChainSpec.from_dict(document),
                  lambda: MarkovChainSpec.bernoulli(two, (True, False)),
                  lambda: MarkovChainSpec.bernoulli(two, (np.True_, 0))):
        with pytest.raises(ValueError, match="as a probability"):
            build()


def test_cylinder_prob_examples():
    assert cylinder_prob(UNIFORM4, (0, 3)) == Fraction(1, 16)
    # "a" then "b" under the nearest-neighbour chain
    assert cylinder_prob(F2, (0, 2)) == Fraction(1, 12)
    # "a" followed by its inverse is impossible
    assert cylinder_prob(F2, (0, 1)) == 0
    assert cylinder_prob(F2, ()) == 1


def test_cylinder_prob_accepts_words():
    w = Word.from_symbols(F2.alphabet, ("a", "b"))
    assert cylinder_prob(F2, w) == Fraction(1, 12)
    with pytest.raises(ValueError):
        cylinder_prob(F2, Word.from_symbols(Alphabet(("a", "b")), ("a",)))


def test_cylinder_prob_multiplicative_under_markov_property():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = rng.integers(2, 13)
        letters = tuple(int(x) for x in rng.integers(0, 4, n))
        cut = int(rng.integers(1, n))
        v, w = letters[:cut], letters[cut:]
        direct = cylinder_prob(F2, letters)
        left = cylinder_prob(F2, v)
        bridge = F2.Pi[v[-1]][w[0]]
        interior = Fraction(1)
        for a, b in zip(w, w[1:]):
            interior *= F2.Pi[a][b]
        assert direct == left * bridge * interior


@pytest.mark.parametrize("k", range(1, 9))
def test_cylinder_prob_sums_to_one(k):
    total = sum(cylinder_prob(F2, u) for u in itertools.product(range(4), repeat=k))
    assert total == 1  # exact rational arithmetic


@pytest.mark.parametrize("k", range(1, 9))
def test_f2_support_is_exactly_the_uncancellable_words(k):
    inverse = (1, 0, 3, 2)
    for u in itertools.product(range(4), repeat=k):
        uncancellable = all(b != inverse[a] for a, b in zip(u, u[1:]))
        assert (cylinder_prob(F2, u) > 0) == uncancellable


def test_is_stationary():
    assert is_stationary(UNIFORM2)
    assert is_stationary(F2)
    skewed = MarkovChainSpec(
        Alphabet(("0", "1")),
        (Fraction(1), Fraction(0)),
        ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))),
    )
    assert not is_stationary(skewed)
    # invariance is tested exactly, so an error of 2**-60 is not stationary
    eps = Fraction(1, 2 ** 60)
    near = MarkovChainSpec(
        Alphabet(("0", "1")),
        (Fraction(1, 2) + eps, Fraction(1, 2) - eps),
        ((Fraction(1, 2),) * 2, (Fraction(1, 2),) * 2),
    )
    assert is_stationary(near) is False
    exact = MarkovChainSpec(
        Alphabet(("0", "1")),
        (Fraction(1, 3), Fraction(2, 3)),
        ((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(1, 2))),
    )
    assert is_stationary(exact) is True


def test_is_irreducible():
    assert is_irreducible(F2)
    assert is_irreducible(UNIFORM4)
    identity = MarkovChainSpec(
        Alphabet(("0", "1")),
        (Fraction(1, 2), Fraction(1, 2)),
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
    )
    assert not is_irreducible(identity)


def test_bufetov_condition():
    assert bufetov_condition(UNIFORM4)
    assert bufetov_condition(F2)
    swap = MarkovChainSpec(
        Alphabet(("0", "1")),
        (Fraction(1, 2), Fraction(1, 2)),
        ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
    )
    assert not bufetov_condition(swap)


def test_entropy_rate_values():
    assert entropy_rate(UNIFORM2) == 1.0
    assert entropy_rate(F2) == pytest.approx(math.log2(3), abs=1e-12)
    cycle = MarkovChainSpec(
        Alphabet(("0", "1")),
        (Fraction(1, 2), Fraction(1, 2)),
        ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
    )
    assert entropy_rate(cycle) == 0.0


def test_entropy_rate_requires_stationarity():
    skewed = MarkovChainSpec(
        Alphabet(("0", "1")),
        (Fraction(1), Fraction(0)),
        ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))),
    )
    with pytest.raises(ValueError):
        entropy_rate(skewed)


def test_sample_trajectory_empty_and_reproducible():
    assert len(sample_trajectory(F2, 0, 1)) == 0
    a = sample_trajectory(F2, 5000, 42).letters
    b = sample_trajectory(F2, 5000, 42).letters
    assert np.array_equal(a, b)
    c = sample_trajectory(F2, 5000, 43).letters
    assert not np.array_equal(a, c)


class TopUniforms(np.random.Generator):
    """A generator whose every third uniform is the largest double below 1."""

    def random(self, n):
        us = super().random(n)
        us[::3] = np.nextafter(1.0, 0.0)
        return us


def test_sample_trajectory_fast_path_matches_generic_loop(monkeypatch):
    # the Bernoulli path searches every uniform at once and clips in place;
    # its uint8 letters equal the per-letter bisect loop's, and the same law
    # given row by row takes the same path
    p = (Fraction(1, 2), Fraction(1, 2))
    bern = MarkovChainSpec.bernoulli(Alphabet(("0", "1")), p)
    fast = sample_trajectory(bern, 10000, 9).letters
    assert fast.dtype == np.uint8
    rows = tuple(p for _ in range(2))
    loop_spec = MarkovChainSpec(Alphabet(("0", "1")), p, rows)
    assert np.array_equal(fast, sample_trajectory(loop_spec, 10000, 9).letters)
    assert fast.tolist() == bisect_trajectory(bern, 10000, 9)
    # ten letters of 1/10 sum to 1 - 2**-53 as floats, so a uniform there
    # is past the last cumulative value and is clipped to the last letter
    tenths = MarkovChainSpec.bernoulli(Alphabet(tuple("0123456789")), (Fraction(1, 10),) * 10)
    assert list(itertools.accumulate([0.1] * 10))[-1] == np.nextafter(1.0, 0.0)
    monkeypatch.setattr(np.random, "Generator", TopUniforms)
    letters = sample_trajectory(tenths, 1000, 9).letters
    assert letters.dtype == np.uint8
    assert letters[::3].tolist() == [9] * 334
    assert letters.tolist() == bisect_trajectory(tenths, 1000, 9)


def sampler_depth(spec):
    """The sampler's composition depth r for the chain, from its cut count C."""
    row_cums = [itertools.accumulate(float(p) for p in row) for row in spec.Pi]
    return _composition_depth(len({c for row in row_cums for c in row}) + 1, spec.alphabet.size)


def sampler_sizes(r):
    """Sizes around r and around the sampler's chunk boundaries: chunks of
    _CHUNK // r * r letters follow the first letter."""
    step = _CHUNK // r * r
    sizes = {0, 1, 2, r - 1, r, r + 1, 2 * r + 1, 3 * _CHUNK + 5}
    for edge in (_CHUNK, step + 1, 2 * step + 1):
        sizes |= {edge - r, edge - 1, edge, edge + 1, edge + r}
    return sorted(size for size in sizes if size >= 0)


def assert_sampler_equals_bisect_loop(spec, n, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some chains are not stationary
        letters = sample_trajectory(spec, n, seed).letters
    assert letters.dtype == np.uint8
    assert letters.tolist() == bisect_trajectory(spec, n, seed)


# pi and Pi with zeros, one leading a row (its cumulative values start at
# 0.0) and one ending it (1.0 twice)
ZEROS3 = MarkovChainSpec(
    Alphabet(("x", "y", "z")),
    (Fraction(0), Fraction(1, 2), Fraction(1, 2)),
    (
        (Fraction(0), Fraction(1, 4), Fraction(3, 4)),
        (Fraction(2, 3), Fraction(1, 3), Fraction(0)),
        (Fraction(1, 5), Fraction(0), Fraction(4, 5)),
    ),
)
# six letters whose rows have 29 distinct cumulative values, so C = 30 and
# a two-step table (30**2 * 6 entries) passes the budget: r = 1 runs
WIDE6 = MarkovChainSpec(
    Alphabet(tuple("uvwxyz")),
    (Fraction(1, 6),) * 6,
    tuple(
        tuple(Fraction(w, sum(row)) for w in row)
        for row in ((1, 2, 3, 4, 5, 6), (7, 1, 1, 2, 3, 9), (5, 5, 1, 8, 2, 2),
                    (2, 9, 4, 1, 1, 6), (3, 1, 7, 7, 2, 1), (11, 1, 2, 1, 3, 5))
    ),
)


def test_the_sampler_composes_as_deep_as_the_budget_allows():
    assert (sampler_depth(F2), sampler_depth(SKEWED3), sampler_depth(ZEROS3)) == (4, 3, 4)
    assert sampler_depth(WIDE6) == 1


@pytest.mark.parametrize("spec", [F2, SKEWED3, ZEROS3, WIDE6], ids=["f2-markov", "skewed3", "zeros3", "wide6"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_markov_sampler_equals_the_per_letter_bisect_loop(spec, seed):
    for n in sampler_sizes(sampler_depth(spec)):
        assert_sampler_equals_bisect_loop(spec, n, seed)


@st.composite
def rational_chains(draw, sizes=st.integers(2, 5)):
    s = draw(sizes)
    weights = st.lists(st.integers(0, 6), min_size=s, max_size=s).filter(any)
    pi = draw(weights)
    rows = [draw(weights) for _ in range(s)]
    law = lambda w: tuple(Fraction(x, sum(w)) for x in w)  # noqa: E731
    return MarkovChainSpec(Alphabet(tuple("abcde"[:s])), law(pi), tuple(law(row) for row in rows))


@settings(max_examples=60, deadline=None)
@given(rational_chains(), st.integers(0, 3 * _CHUNK), st.integers(0, 2 ** 64 - 1))
def test_markov_sampler_equals_the_bisect_loop_on_random_rational_chains(spec, n, seed):
    assert_sampler_equals_bisect_loop(spec, n, seed)


def zeroed(law, mask):
    """law with its masked entries set to zero and the rest rescaled, or law itself when none would be left."""
    kept = [Fraction(0) if gone else x for x, gone in zip(law, mask)]
    return tuple(x / sum(kept) for x in kept) if any(kept) else law


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rational_chains(), st.data())
def test_support_readings_equal_their_oracles_on_random_sparse_chains(spec, data):
    # entries are zeroed at random, so that chains break apart and lose common predecessors
    s = spec.alphabet.size
    masks = data.draw(st.lists(st.lists(st.booleans(), min_size=s, max_size=s), min_size=s + 1, max_size=s + 1))
    spec = MarkovChainSpec(spec.alphabet, zeroed(spec.pi, masks[0]),
                           tuple(zeroed(row, mask) for row, mask in zip(spec.Pi, masks[1:])))
    assert is_irreducible(spec) == oracles.is_irreducible(spec)
    assert bufetov_condition(spec) == oracles.bufetov_condition(spec)
    # driving rows with letters inside and just outside the alphabet
    k = data.draw(st.integers(1, 4), label="k")
    rows = data.draw(st.lists(st.lists(st.integers(-1, s), min_size=k, max_size=k), min_size=1, max_size=8))
    outside, null = _block_faults(spec, np.array(rows, dtype=np.int64))
    for row, out, zero in zip(rows, outside.tolist(), null.tolist()):
        try:
            prob = cylinder_prob(spec, row)
        except ValueError:
            assert out
        else:
            assert not out and zero == (prob == 0)
    # the one inverse CDF, on a float and on an array, against bisect on the list
    us = data.draw(st.lists(st.floats(0, 1), max_size=8), label="u")
    for law in (spec.pi, *spec.Pi):
        cumulative = _cumulative(law)
        points = [0.0, 1.0, *cumulative.tolist(), *us]
        expected = [min(bisect_right(cumulative.tolist(), u), s - 1) for u in points]
        assert [int(_inverse_cdf(cumulative, u)) for u in points] == expected
        assert _inverse_cdf(cumulative, np.array(points)).tolist() == expected


def fraction_is_stationary(spec):
    """pi^T Pi = pi^T in Fraction sums, the check the integer numerators replaced, kept as the oracle."""
    s = spec.alphabet.size
    return all(sum(spec.pi[i] * spec.Pi[i][j] for i in range(s)) == spec.pi[j] for j in range(s))


def fraction_law_holds(pi, Pi):
    """Nonnegative entries and Fraction sums of exactly 1, as the spec once checked them."""
    laws = (pi, *Pi)
    return all(x >= 0 for law in laws for x in law) and all(sum(law) == 1 for law in laws)


@settings(max_examples=100, deadline=None)
@given(rational_chains(), st.data())
def test_integer_spec_checks_agree_with_fraction_sums(spec, data):
    # the chain, its first row as the start, and a Bernoulli chain of its
    # pi, which is stationary
    for chain in (spec, MarkovChainSpec(spec.alphabet, spec.Pi[0], spec.Pi),
                  MarkovChainSpec.bernoulli(spec.alphabet, spec.pi)):
        assert is_stationary(chain) == fraction_is_stationary(chain)
    # nudge one entry of pi (law 0) or of a row of Pi, and maybe take the
    # nudge back from another entry of the same law, so sums hold or miss
    # 1 and entries may turn negative
    s = spec.alphabet.size
    laws = [list(spec.pi), *(list(row) for row in spec.Pi)]
    law = laws[data.draw(st.integers(0, s), label="law")]
    j, back = data.draw(st.integers(0, s - 1), label="entry"), data.draw(st.integers(-1, s - 1), label="back")
    delta = data.draw(st.sampled_from([Fraction(0), Fraction(1, 7), Fraction(-1, 7), Fraction(1, 2 ** 60)]))
    law[j] += delta
    if back >= 0:
        law[back] -= delta
    pi, Pi = tuple(laws[0]), tuple(tuple(row) for row in laws[1:])
    try:
        MarkovChainSpec(spec.alphabet, pi, Pi)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == fraction_law_holds(pi, Pi)


def block_table_cases():
    rng = np.random.default_rng(5)
    small = rng.integers(0, 3, size=600)
    # negative letters and letters at and past 2**40
    wide = rng.choice(np.array([-7, -1, 0, 2 ** 40, 2 ** 40 + 3, 2 ** 50]), size=600)
    # columns spanning nearly all of int64, each wider than 2**62 alone
    extreme = rng.choice(np.array([-(2 ** 63), -1, 0, 2 ** 63 - 1]), size=600)
    # 200 rows of 2 x 40 binary letters, in twins that differ only in the
    # first letter: 80 columns of span 2 pass 2**62 and re-rank the key,
    # where a key that wrapped modulo 2**64 would lose that letter
    rows = np.repeat(rng.integers(0, 2, size=(100, 80)), 2, axis=0)
    rows[1::2, 0] ^= 1
    twins = (rows[:, :40].ravel(), rows[:, 40:].ravel())
    return [
        ("one word", (small,), 8),
        ("negative and past 2**40", (wide,), 3),
        ("re-ranked", twins, 40),
        # 82 columns of span 3 re-rank the key; 600 = 14 * 41 + 26
        ("re-ranked, length not a multiple of k", (small, small[::-1].copy()), 41),
        ("two wide words", (wide, extreme), 4),
        ("m = 0", (small[:0],), 8),
        ("m = 0, word shorter than k", (small[:3],), 8),
    ]


@pytest.mark.parametrize("words, k", [case[1:] for case in block_table_cases()],
                         ids=[case[0] for case in block_table_cases()])
def test_block_table_equals_the_void_key_table(words, k):
    assert_block_table_is_the_void_key_table(words, k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([np.uint8, np.uint16]), st.integers(1, 2), st.integers(0, 40), st.integers(1, 6), st.data())
def test_block_table_of_small_words_equals_the_void_key_table(dtype, count, n, k, data):
    letters = st.lists(st.integers(0, np.iinfo(dtype).max), min_size=n, max_size=n)
    words = tuple(np.array(data.draw(letters), dtype=dtype) for _ in range(count))
    assert_block_table_is_the_void_key_table(words, k)


def test_small_dtypes_never_wrap():
    # uint8 letters that use 255 and uint16 symbols past 255: under NumPy 2
    # arithmetic between such an array and a Python int keeps the array's
    # dtype, so a missing widening would wrap silently.  The fiber law is
    # dyadic (256 symbols of 1/512, two of 1/4), so information is an
    # integer number of bits and the Fraction reference is exact.
    from fiberlab import decode, emit_name, encode, information_function
    from fiberlab.coding import BlockCodebookFamily

    driving = MarkovChainSpec.bernoulli(Alphabet(tuple(f"x{i}" for i in range(256))), (Fraction(1, 256),) * 256)
    p = (Fraction(1, 512),) * 256 + (Fraction(1, 4),) * 2
    fiber = FiberSystemSpec("free-monoid", Alphabet(tuple(f"y{i}" for i in range(258))), p)
    trajectory = sample_trajectory(driving, 3001, 5)
    name = emit_name(fiber, trajectory, seed=5)
    assert trajectory.letters.dtype == np.uint8 and trajectory.letters.max() == 255
    assert name.letters.dtype == np.uint16 and name.letters.max() == 257

    family = BlockCodebookFamily(2, fiber, driving)
    decoded = decode(encode(name, family), trajectory, family)
    assert decoded.dtype == np.uint16 and np.array_equal(decoded, name.letters)

    for k in (2, 3, 40):
        assert_block_table_is_the_void_key_table((trajectory.letters, name.letters), k)

    # free-monoid coordinates never repeat, so every position is a first visit
    cylinder = math.prod((p[s] for s in name.letters.tolist()), start=Fraction(1))
    assert cylinder.numerator == 1
    assert information_function(fiber, trajectory, name.letters) == cylinder.denominator.bit_length() - 1


def test_sample_trajectory_f2_never_emits_inverse_pairs():
    letters = sample_trajectory(F2, 10 ** 5, 7).letters
    inverse = np.array([1, 0, 3, 2])
    assert not np.any(letters[1:] == inverse[letters[:-1]])


def test_sample_trajectory_law_of_large_numbers():
    letters = sample_trajectory(UNIFORM2, 10 ** 6, 11).letters
    freq = np.bincount(letters, minlength=2) / len(letters)
    assert np.all(np.abs(freq - 0.5) < 0.005)


def test_block_frequencies_converge_to_cylinder_probs():
    n, k = 10 ** 6, 4
    letters = sample_trajectory(UNIFORM2, n, 13).letters
    m = n // k
    blocks = letters[: m * k].reshape(m, k)
    codes = blocks @ (2 ** np.arange(k - 1, -1, -1))
    counts = np.bincount(codes, minlength=2 ** k)
    for code, count in enumerate(counts):
        p = 2.0 ** -k
        se = math.sqrt(p * (1 - p) / m)
        assert abs(count / m - p) <= 3 * se


def test_block_code_rate_uniform_blocks_are_ideal():
    trajectory = sample_trajectory(UNIFORM2, 4096, 3)
    assert block_code_rate(UNIFORM2, trajectory, 8) == 1.0


def test_block_code_rate_f2_value():
    trajectory = sample_trajectory(F2, 10 ** 5, 5)
    rate = block_code_rate(F2, trajectory, 10)
    # every positive block costs ceil(2 + 9 log2 3) = 17 bits
    assert rate == pytest.approx(1.7, abs=1e-12)
    assert abs(rate - (math.log2(3) + 2 / 10)) <= 0.1


def test_block_code_rate_empty_and_tail():
    assert block_code_rate(UNIFORM2, sample_trajectory(UNIFORM2, 0, 1), 4) == 0.0
    # n < k is pure raw tail at 1 bit per symbol
    assert block_code_rate(UNIFORM2, sample_trajectory(UNIFORM2, 3, 1), 8) == 1.0


def test_block_code_rate_rejects_null_blocks():
    with pytest.raises(ModelMismatchError):
        block_code_rate(F2, [0, 1], 2)  # "a" followed by its inverse


def test_block_code_details_match_the_block_loop():
    # the loop the plain coder replaced, kept as the reference: lengths and
    # ideals summed block by block, nu computed per block
    skewed = MarkovChainSpec.bernoulli(Alphabet(("a", "b", "c")), tuple(Fraction(q, 7) for q in (1, 2, 4)))
    for spec, n, k in ((skewed, 1003, 3), (skewed, 2, 3), (F2, 5001, 6), (UNIFORM2, 4096, 8)):
        letters = sample_trajectory(spec, n, 7).letters.tolist()
        m = n // k
        total, ideal = 0, 0.0
        for i in range(m):
            prob = cylinder_prob(spec, letters[i * k : (i + 1) * k])
            total += shannon_length(prob)
            ideal += -math.log2(float(prob))
        raw = (spec.alphabet.size - 1).bit_length()
        plain = block_code_details(spec, letters, k)
        assert plain.total_bits == total + (n - m * k) * raw
        assert plain.ideal_bits == ideal  # same additions in the same order
        assert plain.m == m and plain.tail_bits == (n - m * k) * raw
        blocks = [tuple(letters[i * k : (i + 1) * k]) for i in range(m)]
        rows = [tuple(row) for row in _gather(plain.table).tolist()]
        assert rows == list(dict.fromkeys(blocks))
        assert [Fraction(num, plain.den) for num in plain.nums.tolist()] == [cylinder_prob(spec, b) for b in rows]


def test_block_code_details_raise_at_the_first_null_block():
    with pytest.raises(ModelMismatchError, match=r"block \(2, 3\)"):
        block_code_details(F2, [0, 2, 2, 3, 0, 1], 2)  # b B, then a A
    with pytest.raises(ValueError):
        block_code_details(F2, [0, 2, 0, 4], 2)  # letter 4 is outside the alphabet


def test_block_code_details_raise_at_the_first_offending_block_either_way():
    with pytest.raises(ValueError, match="out of range") as raised:
        block_code_details(F2, [0, 4, 2, 3], 2)  # letter 4, then b B
    assert raised.type is ValueError
    with pytest.raises(ModelMismatchError, match=r"block \(2, 3\)"):
        block_code_details(F2, [2, 3, 0, 4], 2)  # b B, then letter 4
    with pytest.raises(ValueError, match="out of range") as raised:
        block_code_details(F2, [0, 1, 5], 3)  # a A is null, but the block holds letter 5
    assert raised.type is ValueError
    # the n mod k remainder comes last; it was once raw coded unchecked
    for run in (block_code_details, block_code_rate):
        with pytest.raises(ValueError, match=r"driving letters must lie in \[0, 4\)"):
            run(F2, [0, 2, 7], 2)
    with pytest.raises(ModelMismatchError, match=r"driving block \(0, 1\) has zero probability"):
        block_code_details(F2, [0, 1, 7], 2)


@pytest.mark.parametrize("spec,pi_den,step_den", [(F2, 4, 3), (MIXED, 5, 6)], ids=["f2-markov", "mixed"])
def test_cylinder_numerators_equal_the_fraction_products(spec, pi_den, step_den):
    size = spec.alphabet.size
    for k in range(1, 7):
        rows = np.array(list(itertools.product(range(size), repeat=k)), dtype=np.int64)
        nums, den = _cylinder_numerators(spec, rows)
        assert den == pi_den * step_den ** (k - 1)
        # the support refuses exactly the rows of numerator 0, and no row is outside
        outside, null = _block_faults(spec, rows)
        assert not outside.any() and null.tolist() == [num == 0 for num in nums.tolist()]
        assert all(type(num) is int for num in nums.tolist())
        for u, num in zip(rows.tolist(), nums.tolist()):
            assert Fraction(num, den) == fraction_cylinder(spec, u) == cylinder_prob(spec, u)
        assert sum(nums.tolist()) == den
        if spec is F2:
            # every positive context has probability 1 / (4 * 3**(k-1))
            assert {num for num in nums.tolist() if num} == {1}


def test_cylinder_numerators_do_not_overflow():
    # den = 5 * 6**79 is far past int64
    rows = np.random.default_rng(4).integers(0, 3, (5, 80))
    nums, den = _cylinder_numerators(MIXED, rows)
    assert den == 5 * 6 ** 79
    for u, num in zip(rows.tolist(), nums.tolist()):
        assert Fraction(num, den) == fraction_cylinder(MIXED, u) > 0


@pytest.mark.parametrize(
    "spec", [MIXED, SKEWED3, FiberSystemSpec("z2", Alphabet(("0", "1", "2")), ("1/6", "1/3", "1/2"))]
)
def test_integer_forms_are_derived_once_outside_the_spec_value(spec):
    fresh = pickle.loads(pickle.dumps(spec))
    before = (repr(spec), hash(spec))
    names = ["_p_numerators"] if isinstance(spec, FiberSystemSpec) else ["_pi_numerators", "_Pi_numerators"]
    for name in names:
        assert getattr(spec, name) is getattr(spec, name)
    # the cached forms are no fields: equality, hashing and repr are unchanged, and a
    # spec pickled with its cache filled unpickles equal, with the same numerators
    assert (repr(spec), hash(spec)) == before and spec == fresh
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == fresh and hash(copy) == hash(fresh)
    for name in names:
        nums, den = getattr(copy, name)
        assert den == getattr(fresh, name)[1] and nums.tolist() == getattr(fresh, name)[0].tolist()
