import hashlib
import re
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberlab import (
    Alphabet,
    BlockCodebookFamily,
    DrivingTrajectory,
    ExperimentConfig,
    FiberSystemSpec,
    MarkovChainSpec,
    OrbitName,
    Word,
    block_code_rate,
    canonical_kraft_code,
    conditional_rate,
    cylinder_prob,
    decode,
    driving_preset,
    emit_name,
    empirical_two_pass_rate,
    encode,
    enumerate_word,
    exact_averaged_entropy,
    information_function,
    kraft_sum,
    range_ratio_curve,
    sample_trajectory,
    system_preset,
    visit_record,
    walk,
)
from fiberlab import actions
from fiberlab.actions import _CHUNK, Z2_VECTORS
from fiberlab.coding import pair_counts
from fiberlab.config import ConfigError
from fiberlab.driving import block_code_details
from oracles import LAWS, reference_walk

# generator indices for the lattice and free-group alphabets
E1, NEG_E1, E2, NEG_E2 = 0, 1, 2, 3
A, A_INV, B, B_INV = 0, 1, 2, 3
INVERSE = (1, 0, 3, 2)


def final_key(kind, letters):
    """LAWS key of the coordinate reached after every letter of the word."""
    identity, step, key = LAWS[kind]
    return key(reduce(step, letters, identity))


def keyed_draws(seed, keys):
    """The symbol draws walk() must give these keys: seed-keyed 8-byte digests."""
    key = seed.to_bytes(8, "little")
    return [int.from_bytes(hashlib.blake2b(k, digest_size=8, key=key).digest(), "little") for k in keys]


def test_actions_hashes_with_the_blake2b_hashlib_hands_out():
    # actions takes blake2b from _blake2, so that no run loads hashlib's
    # OpenSSL backend; hashlib routes blake2b to the same builtin type
    import _blake2

    assert hashlib.blake2b is _blake2.blake2b
    assert actions.blake2b is _blake2.blake2b


def test_initial_state_is_identity():
    for kind in ("free-monoid", "z2", "f2"):
        first, draws = walk(kind, [0], seed=1)
        assert first.tolist() == [0]
        assert draws.tolist() == keyed_draws(1, [final_key(kind, [])])
    assert final_key("z2", []) == b"0,0"
    assert walk("z2", [E1]).draws is None


def test_step_examples():
    assert final_key("z2", [E1]) == b"1,0"
    assert final_key("f2", [A, A_INV]) == final_key("f2", [])
    assert final_key("free-monoid", [0, 1, 1]) != final_key("free-monoid", [1, 1, 0])
    assert walk("free-monoid", [0, 1, 1, 0]).first.tolist() == [0, 1, 2, 3]


def test_step_rejects_foreign_symbols():
    for kind, letter in (("z2", 4), ("f2", 4), ("z2", -1), ("free-monoid", -1), ("free-monoid", 256)):
        with pytest.raises(ValueError):
            walk(kind, [0, letter])
    with pytest.raises(ValueError):
        walk("z3", [0])
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            walk("z2", [0], seed)


def test_f2_left_multiplication_prepends():
    # stepping a then b gives the product b*a: the head is the letter last
    # stepped, so b^-1 cancels it and a^-1 does not
    assert walk("f2", [A, B, B_INV, A]).first.tolist() == [0, 1, 2, 1]
    assert walk("f2", [A, B, A_INV, A]).first.tolist() == [0, 1, 2, 3]


def test_f2_step_then_inverse_step_returns():
    rng = np.random.default_rng(3)
    for _ in range(50):
        base = [int(x) for x in rng.integers(0, 4, rng.integers(0, 10))]
        for letter in range(4):
            first = walk("f2", base + [letter, INVERSE[letter], 0]).first
            assert first[-1] == first[len(base)]
            assert final_key("f2", base + [letter, INVERSE[letter]]) == final_key("f2", base)


def test_f2_retraces_coordinates_under_inverse_walk():
    rng = np.random.default_rng(4)
    letters = [int(x) for x in rng.integers(0, 4, 40)]
    back = [INVERSE[letter] for letter in reversed(letters)]
    first = walk("f2", letters + back + [0]).first
    n = len(letters)
    # c_{n+t} = c_{n-t}: the inverse word retraces the path to the identity
    for t in range(n + 1):
        assert first[n + t] == first[n - t]


def test_visit_record_examples():
    assert walk("z2", [E1, NEG_E1], seed=2).draws.tolist() == keyed_draws(2, [b"0,0", b"1,0"])
    record = visit_record("z2", [E1, NEG_E1])
    assert record.distinct_counts.tolist() == [1, 2]
    assert record.distinct_count == 2

    first, draws = walk("z2", [E1, NEG_E1, E1], seed=2)
    assert first.tolist() == [0, 1, 0] and draws.tolist() == keyed_draws(2, [b"0,0", b"1,0"])
    assert visit_record("z2", [E1, NEG_E1, E1]).distinct_count == 2

    assert visit_record("free-monoid", []).distinct_count == 0
    assert walk("free-monoid", []).first.dtype == np.int32
    assert walk("free-monoid", [], seed=2).draws.tolist() == []


def test_visit_record_counts_are_monotone_and_bounded():
    rng = np.random.default_rng(11)
    for kind in ("free-monoid", "z2", "f2"):
        letters = [int(x) for x in rng.integers(0, 4, 200)]
        record = visit_record(kind, letters)
        counts = record.distinct_counts
        assert counts[0] == 1
        assert np.all(np.diff(counts) >= 0)
        assert np.all(counts <= np.arange(1, len(letters) + 1))


def test_free_monoid_all_prefixes_distinct():
    rng = np.random.default_rng(12)
    letters = [int(x) for x in rng.integers(0, 3, 500)]
    record = visit_record("free-monoid", letters)
    assert record.distinct_count == 500
    assert np.array_equal(record.distinct_counts, np.arange(1, 501))


def test_f2_uncancellable_words_visit_distinct_coordinates():
    # no letter followed by its inverse, so all prefix products differ
    letters = [A, B, A, B_INV, A, A, B]
    record = visit_record("f2", letters)
    assert record.distinct_count == len(letters)


def test_z2_action_is_abelian():
    rng = np.random.default_rng(7)
    for _ in range(30):
        letters = [int(x) for x in rng.integers(0, 4, rng.integers(1, 13))]
        final = final_key("z2", letters)
        perm = list(letters)
        rng.shuffle(perm)
        assert final_key("z2", perm) == final


def test_range_ratio_curve_is_one_for_free_monoid_and_f2():
    f2 = driving_preset("f2-markov")
    for kind in ("free-monoid", "f2"):
        curve = range_ratio_curve(kind, f2, [1, 2, 3], [10, 100, 1000, 2000])
        assert all(ratio == 1.0 for _, ratio in curve)


def test_range_ratio_curve_decreases_for_z2():
    z2 = driving_preset("z2-uniform")
    curve = range_ratio_curve("z2", z2, seeds=range(5), checkpoints=[100, 1000, 10000])
    ratios = [ratio for _, ratio in curve]
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < ratios[0]


def test_range_ratio_curve_refuses_no_seeds():
    # a mean over no trajectories is 0/0
    with pytest.raises(ValueError, match="at least one seed"):
        range_ratio_curve("z2", driving_preset("z2-uniform"), [], [100])


def test_range_ratio_curve_takes_an_array_of_seeds():
    # "if not seeds" once asked numpy for the truth value of the array
    z2 = driving_preset("z2-uniform")
    assert range_ratio_curve("z2", z2, np.array([1, 2]), [10, 100]) == range_ratio_curve("z2", z2, [1, 2], [10, 100])
    with pytest.raises(ValueError, match="at least one seed"):
        range_ratio_curve("z2", z2, np.array([], dtype=np.int64), [100])


NOT_INTEGERS = [1.9, 2.0, "7", True, np.float64(3.0), np.True_]


@pytest.mark.parametrize("seed", NOT_INTEGERS, ids=repr)
def test_seeds_are_integers_at_every_entry_point(seed):
    # int(seed) once ran 1.9 as seed 1 and "7" as seed 7
    driving, fiber = system_preset("z2-uniform")
    trajectory = sample_trajectory(driving, 10, 1)
    message = "seed must be an integer"
    for run in (lambda: walk("z2", [0, 1], seed), lambda: emit_name(fiber, trajectory, seed),
                lambda: sample_trajectory(driving, 10, seed)):
        with pytest.raises(ValueError, match=message):
            run()
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(driving, fiber, (10,), (2,), (seed,), Path("reports"))


def test_one_seed_range_at_every_entry_point():
    driving, fiber = system_preset("z2-uniform")
    trajectory = sample_trajectory(driving, 10, 1)
    message = "seed must be a 64-bit unsigned integer"
    for seed in (-1, 2 ** 64, 2 ** 70):
        for run in (lambda: emit_name(fiber, trajectory, seed), lambda: sample_trajectory(driving, 10, seed)):
            with pytest.raises(ValueError, match=message):
                run()
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(driving, fiber, (10,), (2,), (seed,), Path("reports"))
    # numpy integers are integers, and a name keeps its seed as an int
    name = emit_name(fiber, trajectory, np.uint64(2 ** 64 - 1))
    assert type(name.seed) is int and name.seed == 2 ** 64 - 1
    assert np.array_equal(name.letters, emit_name(fiber, trajectory, 2 ** 64 - 1).letters)
    assert np.array_equal(sample_trajectory(driving, 10, np.int64(1)).letters, trajectory.letters)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("preset", ["free-monoid-uniform", "z2-uniform", "f2-markov"])
def test_horizons_and_block_lengths_are_integers_at_every_entry_point(preset, value):
    # exact_averaged_entropy once gave an "exact" value at n = 2.5 on the
    # free monoid and f2, and a bare TypeError on z2
    driving, fiber = system_preset(preset)
    letters = sample_trajectory(driving, 10, 1).letters
    calls = {
        "n must be an integer": (lambda: exact_averaged_entropy(fiber, driving, value),
                                 lambda: sample_trajectory(driving, value, 1)),
        "block length must be an integer": (lambda: BlockCodebookFamily(value, fiber, driving),
                                            lambda: block_code_details(driving, letters, value)),
        "window length must be an integer": (lambda: pair_counts(letters, letters, value),),
    }
    for message, runs in calls.items():
        for run in runs:
            with pytest.raises(ValueError, match=message):
                run()
    for horizons, block_lengths, message in (((value,), (2,), "a horizon"), ((10,), (value,), "a block length")):
        with pytest.raises(ConfigError, match=f"{message} must be an integer"):
            ExperimentConfig(driving, fiber, horizons, block_lengths, (1,), Path("reports"))
    assert exact_averaged_entropy(fiber, driving, np.int64(3)) == exact_averaged_entropy(fiber, driving, 3)


@pytest.mark.parametrize("entry", ["kraft_sum", "canonical_kraft_code", "Word", "enumerate_word", "range_ratio_curve"])
def test_lengths_letters_indices_and_checkpoints_are_integers(entry):
    # int() once truncated each of these: kraft_sum([1.5, 1.5]) gave exactly
    # 1, Word(B, (0.7,)) stored letter 0, enumerate_word(B, 2.5) the word
    # "1", range_ratio_curve read checkpoint 2.5 as 2; a bool was read as 0
    # or 1, and canonical_kraft_code({"a": True}) died formatting the code
    binary = Alphabet(("0", "1"))
    driving = driving_preset("z2-uniform")
    calls = {
        "kraft_sum": lambda value: kraft_sum([1, value]),
        "canonical_kraft_code": lambda value: canonical_kraft_code({"a": 1, "b": value}),
        "Word": lambda value: Word(binary, (0, value)),
        "enumerate_word": lambda value: enumerate_word(binary, value),
        "range_ratio_curve": lambda value: range_ratio_curve("z2", driving, [1], [value, 10]),
    }
    for value in (1.5, 0.7, True, "2"):
        with pytest.raises(ValueError, match="must be an integer"):
            calls[entry](value)
    # numpy integers are integers
    calls[entry](np.int64(1))


@pytest.mark.parametrize("entry", ["family", "config", "exact", "range"])
def test_driving_alphabet_size_is_checked_at_every_entry_point(entry):
    half = Fraction(1, 2)
    binary = Alphabet(("0", "1"))
    driving = MarkovChainSpec.bernoulli(binary, (half, half))
    fiber = FiberSystemSpec("z2", binary, (half, half))
    calls = {
        "family": lambda: BlockCodebookFamily(2, fiber, driving),
        "config": lambda: ExperimentConfig(driving, fiber, (100,), (2,), (1,), Path("reports")),
        "exact": lambda: exact_averaged_entropy(fiber, driving, 3),
        "range": lambda: range_ratio_curve("z2", driving, [1], [100]),
    }
    with pytest.raises(ConfigError if entry == "config" else ValueError, match="driving alphabet of size 4"):
        calls[entry]()


# chain -> action it drives; the f2 Bernoulli chain backtracks and revisits,
# and the f2 chain that never repeats a letter backtracks without repeats
ORACLE_CHAINS = {
    "z2-uniform": "z2",
    "f2-markov": "f2",
    "f2-bernoulli": "f2",
    "f2-no-repeat": "f2",
    "monoid-bytes": "free-monoid",
}


def oracle_letters(chain, n):
    if chain == "monoid-bytes":
        return np.random.default_rng(n).integers(0, 256, n)
    generators = Alphabet(("a", "A", "b", "B"))
    quarter, third = Fraction(1, 4), Fraction(1, 3)
    if chain == "f2-bernoulli":
        driving = MarkovChainSpec.bernoulli(generators, (quarter,) * 4)
    elif chain == "f2-no-repeat":
        Pi = tuple(tuple(Fraction(0) if a == b else third for b in range(4)) for a in range(4))
        driving = MarkovChainSpec(generators, (quarter,) * 4, Pi)
    else:
        driving = driving_preset(chain)
    return sample_trajectory(driving, n, n + 5).letters


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 20003])
@pytest.mark.parametrize("chain", list(ORACLE_CHAINS))
def test_walk_kernels_equal_the_generic_walk(chain, n):
    kind = ORACLE_CHAINS[chain]
    letters = oracle_letters(chain, n)
    first, keys = reference_walk(kind, letters)
    if chain in ("f2-bernoulli", "f2-no-repeat") and n == 20003:
        assert len(keys) < n
    draws = {seed: np.array(keyed_draws(seed, keys), dtype=np.uint64) for seed in (0, 2 ** 64 - 1)}
    for given in (letters.tolist(), letters.astype(np.int64), letters.astype(np.uint8)):
        got = walk(kind, given)
        assert got.first.dtype == np.int32
        assert np.array_equal(got.first, np.array(first, dtype=np.int64))
        assert got.draws is None
        for seed, expected in draws.items():
            seeded = walk(kind, given, seed)
            assert np.array_equal(seeded.first, got.first)
            assert seeded.draws.dtype == np.uint64 and np.array_equal(seeded.draws, expected)


@pytest.mark.parametrize("kind, letter", [("z2", -1), ("z2", 4), ("f2", -1), ("f2", 4),
                                          ("free-monoid", -1), ("free-monoid", 256)])
def test_walk_kernels_reject_foreign_letters_like_the_generic_walk(kind, letter):
    limit = 256 if kind == "free-monoid" else 4
    message = re.escape(f"driving letters of action {kind!r} must lie in [0, {limit})")
    # every integer dtype that holds the letter: int8 -1 has the bits of
    # uint8 255, a letter the free monoid takes
    dtypes = [np.dtype(c) for c in np.typecodes["AllInteger"]]
    dtypes = [d for d in dtypes if np.iinfo(d).min <= letter <= np.iinfo(d).max]
    for word in ([letter], [0, 1, letter], [letter, 0, 1]):
        for given in (word, *(np.array(word, dtype=d) for d in dtypes)):
            with pytest.raises(ValueError, match=message):
                walk(kind, given)


def test_letters_that_are_not_one_dimensional_integers_are_refused():
    # these were once cast to int64: floats truncated to letters, and a 2-D
    # word walked, and counted, by its rows
    z2_chain = driving_preset("z2-uniform")
    message = "letters must be one-dimensional integers"
    for run in (lambda: walk("z2", [0.2, 1.9, 2.5]), lambda: cylinder_prob(z2_chain, [3.9]),
                lambda: walk("free-monoid", [[0, 1], [1, 0]]), lambda: visit_record("free-monoid", [[0, 1], [1, 0]]),
                lambda: walk("f2", np.array([True, False])), lambda: walk("z2", 3)):
        with pytest.raises(ValueError, match=message):
            run()
    # an empty word is still empty int64 letters
    assert len(walk("z2", []).first) == 0
    assert cylinder_prob(z2_chain, ()) == 1


# a word, given the chain whose alphabet holds its letters, in each form a letters argument takes
LETTER_FORMS = {
    "list": lambda word, chain: word.tolist(),
    "tuple": lambda word, chain: tuple(word.tolist()),
    "int64": lambda word, chain: word.astype(np.int64),
    "uint8": lambda word, chain: word.astype(np.uint8),
    "Word": lambda word, chain: Word(chain.alphabet, tuple(word.tolist())),
    "DrivingTrajectory": lambda word, chain: DrivingTrajectory(chain, 3, word.astype(np.uint8)),
}
NOT_LETTERS = {
    "floats": lambda word, chain: word.astype(np.float64),
    "bools": lambda word, chain: word.astype(bool),
    "2-D": lambda word, chain: word[:, None],
}
LETTER_ENTRIES = ["walk", "visit_record", "emit_name", "information_function", "decode", "block_code_rate",
                  "cylinder_prob", "pair_counts", "codebook_for", "OrbitName", "encode", "conditional_rate",
                  "empirical_two_pass_rate"]


def letters_entry_points():
    """Entry point -> a call that reads one driving word in the form given(word, chain) gives it.

    Each call returns a value that == compares; a rebuilt orbit name gets
    its driving word and its symbols in the same form.
    """
    chain, fiber = system_preset("z2-uniform")
    symbols_chain = MarkovChainSpec.bernoulli(fiber.fiber_alphabet, fiber.p)
    trajectory = sample_trajectory(chain, 23, 3)
    alpha = trajectory.letters
    name = emit_name(fiber, trajectory, 3)
    family = BlockCodebookFamily(4, fiber, chain)
    stream = encode(name, family)

    def rebuilt(given):
        return OrbitName(fiber, given(alpha, chain), given(name.letters, symbols_chain))

    def rebuilt_parts(given):
        built = rebuilt(given)
        return [part.tolist() for part in (built.driving, built.letters, built.first)]

    return {
        "walk": lambda given: [part.tolist() for part in walk("z2", given(alpha, chain), 5)],
        "visit_record": lambda given: visit_record("z2", given(alpha, chain)).distinct_counts.tolist(),
        "emit_name": lambda given: emit_name(fiber, given(alpha, chain), 3).letters.tolist(),
        "information_function": lambda given: information_function(fiber, given(alpha, chain), name.letters),
        "decode": lambda given: decode(stream, given(alpha, chain), family).tolist(),
        "block_code_rate": lambda given: block_code_rate(chain, given(alpha, chain), 4),
        "cylinder_prob": lambda given: cylinder_prob(chain, given(alpha, chain)),
        "pair_counts": lambda given: pair_counts(given(alpha, chain), name.letters, 4),
        "codebook_for": lambda given: family.codebook_for(given(alpha[:4], chain)),
        "OrbitName": rebuilt_parts,
        "encode": lambda given: encode(rebuilt(given), family),
        "conditional_rate": lambda given: conditional_rate(rebuilt(given), family, exact=None),
        "empirical_two_pass_rate": lambda given: empirical_two_pass_rate(rebuilt(given), 4, 4),
    }


@pytest.mark.parametrize("form", list(LETTER_FORMS))
@pytest.mark.parametrize("entry", LETTER_ENTRIES)
def test_every_entry_point_reads_letters_by_one_rule(entry, form):
    # walk, visit_record and OrbitName once refused a Word or a trajectory,
    # and a name built from lists could not be coded
    run = letters_entry_points()[entry]
    assert run(LETTER_FORMS[form]) == run(LETTER_FORMS["int64"])


@pytest.mark.parametrize("form", list(NOT_LETTERS))
@pytest.mark.parametrize("entry", LETTER_ENTRIES)
def test_every_entry_point_refuses_what_is_not_letters(entry, form):
    # codebook_for once truncated floats to letters
    with pytest.raises(ValueError, match="letters must be one-dimensional integers"):
        letters_entry_points()[entry](NOT_LETTERS[form])


def test_letters_are_read_without_a_copy_and_a_name_is_no_driving_word():
    chain, fiber = system_preset("z2-uniform")
    trajectory = sample_trajectory(chain, 23, 3)
    name = emit_name(fiber, trajectory, 3)
    assert np.shares_memory(actions._integers(trajectory), trajectory.letters)
    assert np.shares_memory(name.driving, trajectory.letters)
    # a name has letters too, its symbols, which are no driving word
    for run in (lambda: walk("z2", name), lambda: emit_name(fiber, name, 3), lambda: cylinder_prob(chain, name)):
        with pytest.raises(ValueError, match="letters must be one-dimensional integers"):
            run()
    for symbols in (name.letters[:, None], name.letters.astype(np.float64), name.letters.astype(bool)):
        with pytest.raises(ValueError, match="letters must be one-dimensional integers"):
            OrbitName(fiber, trajectory, symbols)


@pytest.mark.parametrize("offset", [-1, 0, 1, _CHUNK + 1])
@pytest.mark.parametrize("kind, path", [("free-monoid", "chained"), ("f2", "chained"), ("f2", "tree"),
                                        ("z2", "formatted")])
def test_chain_and_draw_loops_cross_draw_chunks(kind, path, offset):
    # each kernel's keys (chained, tree or formatted a span at a time) are
    # drawn by _draws, _CHUNK at a time; around a span's end, every
    # coordinate is drawn exactly once
    count = _CHUNK + offset
    rng = np.random.default_rng(count)
    if path == "chained":
        # a and b only: an f2 word that never cancels takes the chained kernel
        letters = rng.choice([A, B], count) if kind == "f2" else rng.integers(0, 256, count)
    elif path == "formatted":
        # a z2 path that turns at random but only ever goes up or right
        # visits count distinct points, one key per point
        letters = rng.choice([E1, E2], count)
    else:
        # count - 1 steps out along a, one step back and a last letter that
        # moves nothing recorded: the tree has count nodes
        letters = np.array([A] * (count - 1) + [A_INV, A])
    first, keys = reference_walk(kind, letters)
    assert len(keys) == count
    got = walk(kind, letters, seed=5)
    assert np.array_equal(got.first, np.array(first, dtype=np.int64))
    assert got.draws.tolist() == keyed_draws(5, keys)


@st.composite
def z2_words(draw):
    """A z2 driving word of 0 to 40 letters: random, a straight line, or a
    staircase that alternates one step of each axis, whose bounding box
    grows as n**2 / 4."""
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(0, 40))
    shape = draw(st.sampled_from(["random", "line", "staircase"]))
    if shape == "random":
        return shape, draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if shape == "line":
        return shape, [draw(st.integers(0, 3))] * n
    pair = [draw(st.sampled_from([E1, NEG_E1])), draw(st.sampled_from([E2, NEG_E2]))]
    return shape, (pair * n)[:n]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z2_words(), st.integers(0, 2 ** 64 - 1))
@example(("line", []), 0)
@example(("line", [E2]), 1)
@example(("random", [E1, NEG_E1]), 2)
@example(("line", [NEG_E2] * 9), 3)
@example(("staircase", [E1, E2] * 10), 2 ** 64 - 1)
def test_z2_numbers_its_positions_by_box_or_by_rank_as_the_oracle_walks(word, seed):
    # the z2 kernel numbers positions by their offset in the walk's bounding
    # box, or by their rank when the box holds more than _BOX_CELLS cells per
    # step; either way first and the draws are the generic walk's, across
    # the spans of a small chunk
    shape, letters = word
    ranked = []
    rank = actions._rank

    def spy(code):
        ranked.append(len(code))
        return rank(code)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(actions, "_CHUNK", 4)
        patch.setattr(actions, "_rank", spy)
        got = walk("z2", letters, seed)
        first, keys = reference_walk("z2", letters)
    assert got.first.tolist() == first
    assert got.draws.tolist() == keyed_draws(seed, keys)
    x, y = zip(*([(0, 0)] + [Z2_VECTORS[letter] for letter in letters[:-1]]))
    box = (np.ptp(np.cumsum(x)) + 1) * (np.ptp(np.cumsum(y)) + 1)
    assert ranked == ([len(letters)] if box > actions._BOX_CELLS * len(letters) else [])
    # a line's box is the line itself (an empty walk's box is one cell, more
    # than 3.5 per letter), and a staircase of 16 letters spans 9 by 8 cells:
    # the examples take both numberings
    if shape == "line" and letters:
        assert not ranked
    if shape == "staircase" and len(letters) >= 16:
        assert ranked


@settings(max_examples=150, deadline=None, derandomize=True)
@given(z2_words(), st.sampled_from([1, 3, 4096]))
@example(("line", [NEG_E2] * 70_000), 4096)
@example(("line", [E1] * 70_000), 5)
def test_the_bounding_box_holds_every_coordinate_across_spans(word, chunk):
    # _box sums x * 2**32 + y in one pass, each span's from the point where
    # it begins, and carries that point into the next span: it gives the
    # extremes of the coordinates, c_0 = (0, 0) among them, across spans of
    # any length, far from the origin too
    _, letters = word
    letters = np.array(letters, dtype=np.uint8)
    steps = np.array(Z2_VECTORS)[letters[:-1]].reshape(-1, 2)
    x, y = np.concatenate(([(0, 0)], np.cumsum(steps, axis=0))).T
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(actions, "_CHUNK", chunk)
        box = actions._box(letters)
    assert box == (x.min(), x.max(), y.min(), y.max())


# a word that circles the origin, so that its spans cross zero on both
# axes, then paces between two cells, so that its last spans meet no new cell
CIRCLING = [E1] * 3 + [E2] * 3 + [NEG_E1] * 6 + [NEG_E2] * 6 + [E1] * 6 + [E2] * 2 + [NEG_E1, E1] * 20


@settings(max_examples=150, deadline=None, derandomize=True)
@given(z2_words(), st.sampled_from([1, 3, 4096]))
@example(("random", CIRCLING), 1)
@example(("random", CIRCLING), 3)
@example(("random", CIRCLING), 4096)
@example(("random", np.random.default_rng(7).integers(0, 4, 20_000).tolist()), 4096)
@example(("line", [E1] * 70_000), 4096)
@example(("line", [NEG_E2] * 70_000), 3)
@example(("staircase", [NEG_E1, E2] * 3_000), 4096)
@example(("staircase", [E1, NEG_E2] * 40), 3)
def test_z2_keys_from_axis_tables_are_the_oracle_keys(word, chunk):
    # each z2 key is handed to _draws as a head b"x," and a tail b"y", by
    # their numbers in tables over its span's own x and y ranges: each head
    # + tail is the oracle's b"%d,%d" key, on the box path and the ranked
    # one, and a span with no new cell hands none
    _, letters = word
    handed = []

    def drawn(seed):
        def draws(heads, tails, pairs):
            keys = [heads[head] + tails[tail] for head, tail in pairs]
            handed.extend(keys)
            return np.zeros(len(keys), dtype=np.uint64)

        return draws

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(actions, "_CHUNK", chunk)
        patch.setattr(actions, "_draws", drawn)
        walk("z2", letters, seed=1)
    assert handed == reference_walk("z2", letters)[1]
    assert {type(key) for key in handed} <= {bytes}


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_a_head_and_its_tail_draw_their_joined_key(seed):
    # _draws feeds each head to a copy of the keyed hasher and each tail to
    # a copy of its head: the draw of head + tail, with an empty tail the
    # draw of the head alone, as a word's identity is drawn
    heads = [b"", b"0,", b"-12,", b"fiberlab", bytes(range(200))]
    tails = [b"", b"7", b"-3", bytes(130)]
    pairs = [(h, t) for h in range(len(heads)) for t in range(len(tails))][::-1]
    draws = actions._draws(seed)
    assert draws(heads, tails, pairs).tolist() == keyed_draws(seed, [heads[h] + tails[t] for h, t in pairs])
    assert draws(heads[3:4], [b""], [(0, 0)]).tolist() == keyed_draws(seed, [b"fiberlab"])
    assert draws(heads, tails, []).tolist() == []
