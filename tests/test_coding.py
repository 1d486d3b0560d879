import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fiberlab import (
    Alphabet,
    BlockCodebookFamily,
    FiberSystemSpec,
    MalformedStreamError,
    MarkovChainSpec,
    ModelMismatchError,
    OrbitName,
    ResourceLimitError,
    ar_decomposition_check,
    build_codebooks,
    conditional_cylinder_fraction,
    conditional_rate,
    cylinder_prob,
    decode,
    driving_preset,
    emit_name,
    empirical_two_pass_rate,
    encode,
    exact_averaged_entropy,
    is_prefix_free,
    kraft_sum,
    pair_counts,
    pair_frequencies,
    sample_trajectory,
    system_preset,
)

BINARY = Alphabet(("0", "1"))
HALF = Fraction(1, 2)

MONOID = FiberSystemSpec("free-monoid", BINARY, (HALF, HALF))
Z2 = FiberSystemSpec("z2", BINARY, (HALF, HALF))
F2 = FiberSystemSpec("f2", BINARY, (HALF, HALF))

BERNOULLI2 = MarkovChainSpec.bernoulli(Alphabet(("0", "1")), (HALF, HALF))
Z2_DRIVING = driving_preset("z2-uniform")
F2_DRIVING = driving_preset("f2-markov")

SYSTEMS = ((MONOID, BERNOULLI2), (Z2, Z2_DRIVING), (F2, F2_DRIVING))

E1, NEG_E1 = 0, 1


def test_build_codebooks_uniform_monoid():
    family = build_codebooks(MONOID, BERNOULLI2, 3)
    for u in itertools.product(range(2), repeat=3):
        book = family.codebook_for(u)
        assert len(book) == 8
        assert all(len(w) == 3 for w in book.entries.values())


def test_build_codebooks_z2_revisit_context():
    family = BlockCodebookFamily(3, Z2, Z2_DRIVING)
    book = family.codebook_for((E1, NEG_E1, E1))
    # only the 4 revisit-consistent blocks get codewords, each of length 2
    assert sorted(book.entries) == [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)]
    assert all(len(w) == 2 for w in book.entries.values())


def test_build_codebooks_k1_lengths():
    skewed = FiberSystemSpec("free-monoid", Alphabet(("a", "b", "c")), (HALF, Fraction(1, 4), Fraction(1, 4)))
    family = build_codebooks(skewed, BERNOULLI2, 1)
    book = family.codebook_for((0,))
    assert sorted(len(w) for w in book.entries.values()) == [1, 2, 2]


def test_build_codebooks_enforces_cap():
    with pytest.raises(ResourceLimitError):
        build_codebooks(F2, F2_DRIVING, 10)


def test_family_rejects_null_context():
    family = BlockCodebookFamily(2, F2, F2_DRIVING)
    with pytest.raises(ModelMismatchError):
        family.codebook_for((0, 1))  # a then its inverse


def test_codebooks_are_prefix_free_with_exact_kraft_and_length_bounds():
    for fiber, driving in SYSTEMS:
        for k in range(1, 5):
            family = build_codebooks(fiber, driving, k)
            assert family.verify_length_bounds()
            for u in family.contexts():
                book = family.codebook_for(u)
                assert is_prefix_free(book.entries.values())
                assert kraft_sum(len(w) for w in book.entries.values()) <= 1


def test_encode_empty_name():
    name = emit_name(MONOID, [], seed=1)
    family = BlockCodebookFamily(4, MONOID, BERNOULLI2)
    stream = encode(name, family)
    assert stream.bits == "" and stream.m == 0
    assert np.array_equal(decode(stream, [], family), np.array([], dtype=np.int64))


def test_encode_uniform_monoid_exact_length():
    trajectory = sample_trajectory(BERNOULLI2, 64, 3)
    name = emit_name(MONOID, trajectory, seed=3)
    family = BlockCodebookFamily(8, MONOID, BERNOULLI2)
    stream = encode(name, family)
    assert len(stream.bits) == 64
    assert stream.tail == ""


def test_round_trip_across_systems_and_block_lengths():
    rng = np.random.default_rng(100)
    for fiber, driving in SYSTEMS:
        for k in range(1, 7):
            family = BlockCodebookFamily(k, fiber, driving)
            for trial in range(6):
                seed = int(rng.integers(0, 2 ** 32))
                n = int(rng.integers(0, 300))
                trajectory = sample_trajectory(driving, n, seed)
                name = emit_name(fiber, trajectory, seed)
                stream = encode(name, family)
                assert np.array_equal(decode(stream, trajectory, family), name.letters)


def test_decode_truncated_stream_is_malformed():
    trajectory = sample_trajectory(Z2_DRIVING, 101, 8)
    name = emit_name(Z2, trajectory, seed=8)
    family = BlockCodebookFamily(4, Z2, Z2_DRIVING)
    stream = encode(name, family)
    from fiberlab import EncodedStream

    truncated = EncodedStream(stream.bits[:-1], stream.m, stream.k, stream.tail[:-1])
    with pytest.raises(MalformedStreamError):
        decode(truncated, trajectory, family)
    padded = EncodedStream(stream.bits + "0", stream.m, stream.k, stream.tail + "0")
    with pytest.raises(MalformedStreamError):
        decode(padded, trajectory, family)


def test_encode_rejects_inconsistent_name():
    # omega claims two symbols at the revisited origin
    bad = OrbitName(Z2, np.array([E1, NEG_E1, E1, E1]), np.array([0, 1, 1, 0]))
    family = BlockCodebookFamily(4, Z2, Z2_DRIVING)
    with pytest.raises(ModelMismatchError):
        encode(bad, family)


def test_pair_counts_constant_sequences():
    counts, m = pair_counts([0] * 12, [1] * 12, 3, "block")
    assert counts == {((0, 0, 0), (1, 1, 1)): 4} and m == 4
    counts, m = pair_counts([0] * 12, [1] * 12, 3, "slide")
    assert counts == {((0, 0, 0), (1, 1, 1)): 10} and m == 10


def test_pair_counts_validates_horizon():
    with pytest.raises(ValueError):
        pair_counts([0, 1], [0, 1], 2, "block", m=2)
    with pytest.raises(ValueError):
        pair_frequencies([], [], 1)


def shifted_block_counts(alpha, omega, k, m):
    """Sum of block-stride counts over the k shifted starting phases."""
    total = {}
    for r in range(k):
        counts, _ = pair_counts(alpha[r:], omega[r:], k, "block", m)
        for pair, c in counts.items():
            total[pair] = total.get(pair, 0) + c
    return total


@pytest.mark.parametrize("kind,seed", [("free-monoid", 1), ("z2", 2), ("f2", 3)])
def test_shift_averaging_identity_exact(kind, seed):
    fiber, driving = {
        "free-monoid": (MONOID, BERNOULLI2),
        "z2": (Z2, Z2_DRIVING),
        "f2": (F2, F2_DRIVING),
    }[kind]
    rng = np.random.default_rng(seed)
    for _ in range(5):
        k = int(rng.integers(1, 7))
        m = int(rng.integers(1, 80))
        n = m * k + k - 1  # exactly enough for all phases and mk sliding scans
        trajectory = sample_trajectory(driving, n, int(rng.integers(0, 2 ** 32)))
        name = emit_name(fiber, trajectory, int(rng.integers(0, 2 ** 32)))
        sliding, _ = pair_counts(trajectory.letters, name.letters, k, "slide", m * k)
        assert dict(sliding) == shifted_block_counts(list(trajectory.letters), list(name.letters), k, m)


def test_pair_frequencies_converge_to_product_measure():
    n = 2 * 10 ** 5
    trajectory = sample_trajectory(BERNOULLI2, n, 6)
    name = emit_name(MONOID, trajectory, seed=6)
    freqs = pair_frequencies(trajectory.letters, name.letters, 2, "block")
    m = n // 2
    for u in itertools.product(range(2), repeat=2):
        for v in itertools.product(range(2), repeat=2):
            expected = 1 / 16
            se = math.sqrt(expected * (1 - expected) / m)
            assert abs(freqs.get((u, v), 0.0) - expected) <= 3 * se


def test_empirical_cross_entropy_identities():
    # at the exact pair probabilities the block cross entropy is the exact entropy
    for k in range(1, 7):
        bits = 0.0
        for u in itertools.product(range(4), repeat=k):
            nu = cylinder_prob(F2_DRIVING, u)
            if nu == 0:
                continue
            for v in itertools.product(range(2), repeat=k):
                mu = conditional_cylinder_fraction(F2, u, v)
                if mu > 0:
                    bits -= float(nu * mu) * math.log2(mu)
        assert bits == pytest.approx(exact_averaged_entropy(F2, F2_DRIVING, k).bits, abs=1e-9)


def cross_entropy_rate(fiber, driving, alpha, omega, k):
    name = OrbitName(fiber, np.array(alpha), np.array(omega))
    return conditional_rate(name, BlockCodebookFamily(k, fiber, driving), exact=None).cross_entropy_rate


def test_empirical_cross_entropy_uniform_monoid_is_k():
    # k bits per k-block
    assert cross_entropy_rate(MONOID, BERNOULLI2, [0, 1, 1, 0, 1, 0], [1, 1, 0, 0, 1, 1], 3) == 1.0


def test_empirical_cross_entropy_degenerate_pair():
    assert cross_entropy_rate(MONOID, BERNOULLI2, [0, 0], [1, 1], 2) == 1.0


def test_empirical_cross_entropy_rejects_null_pairs():
    with pytest.raises(ModelMismatchError):
        cross_entropy_rate(F2, F2_DRIVING, [0, 1], [0, 0], 2)
    with pytest.raises(ModelMismatchError):
        # the origin is revisited at step 2, so the fiber block conflicts
        cross_entropy_rate(Z2, Z2_DRIVING, [E1, NEG_E1, E1], [0, 1, 1], 3)


def test_conditional_rate_uniform_monoid_exact():
    trajectory = sample_trajectory(BERNOULLI2, 4096, 9)
    name = emit_name(MONOID, trajectory, seed=9)
    family = BlockCodebookFamily(8, MONOID, BERNOULLI2)
    report = conditional_rate(name, family)
    assert report.code_rate == 1.0
    assert report.cross_entropy_rate == pytest.approx(1.0)
    assert report.exact_rate == pytest.approx(1.0)
    assert report.eq15_ok and report.no_undershoot_ok and report.length_bound_ok


def test_conditional_rate_pure_tail():
    trajectory = sample_trajectory(BERNOULLI2, 5, 2)
    name = emit_name(MONOID, trajectory, seed=2)
    family = BlockCodebookFamily(8, MONOID, BERNOULLI2)
    report = conditional_rate(name, family)
    assert report.code_rate == 1.0  # ceil(log2 2) bits per raw symbol
    assert report.cross_entropy_rate is None and report.eq15_ok is None


def test_conditional_rate_z2_bounds():
    trajectory = sample_trajectory(Z2_DRIVING, 20000, 14)
    name = emit_name(Z2, trajectory, seed=14)
    family = BlockCodebookFamily(8, Z2, Z2_DRIVING)
    report = conditional_rate(name, family)
    assert report.eq15_ok
    assert report.no_undershoot_ok
    assert abs(report.cross_entropy_rate - report.exact_rate) < 0.05
    assert report.code_rate <= report.cross_entropy_rate + 1 / 8 + 1e-12


def test_ar_decomposition_monoid_analytic():
    report = ar_decomposition_check(BERNOULLI2, MONOID, 8192, 8, 4)
    assert report.joint_rate == pytest.approx(2.0)
    assert report.plain_rate == pytest.approx(1.0)
    assert report.conditional_rate == pytest.approx(1.0)
    assert abs(report.residual) <= 1e-9


def test_ar_decomposition_f2_exact_block_costs():
    report = ar_decomposition_check(F2_DRIVING, F2, 5000, 10, 4)
    assert report.joint_rate == pytest.approx(2.7, abs=1e-12)
    assert report.plain_rate == pytest.approx(1.7, abs=1e-12)
    assert report.conditional_rate == pytest.approx(1.0, abs=1e-12)
    assert abs(report.residual) <= 1e-9
    assert report.plain_ideal_rate == pytest.approx(0.2 + 0.9 * math.log2(3), abs=1e-9)


def test_ar_decomposition_empty_run():
    report = ar_decomposition_check(BERNOULLI2, MONOID, 0, 4, 1)
    assert report.joint_rate == report.plain_rate == report.conditional_rate == 0.0
    assert report.residual == 0.0


def test_one_symbol_fiber_round_trip():
    # degenerate fiber: names carry no information, blocks cost 1 clamped bit
    mono = FiberSystemSpec("free-monoid", Alphabet(("x",)), (Fraction(1),))
    trajectory = sample_trajectory(BERNOULLI2, 19, 5)
    name = emit_name(mono, trajectory, seed=5)
    family = BlockCodebookFamily(4, mono, BERNOULLI2)
    stream = encode(name, family)
    assert len(stream.bits) == 4  # one bit per full block, raw tail is free
    assert np.array_equal(decode(stream, trajectory, family), name.letters)


def test_two_pass_rate_tracks_model_rate():
    trajectory = sample_trajectory(BERNOULLI2, 2 ** 15, 21)
    name = emit_name(MONOID, trajectory, seed=21)
    family = BlockCodebookFamily(4, MONOID, BERNOULLI2)
    model = conditional_rate(name, family).code_rate
    two_pass = empirical_two_pass_rate(name, 4, driving_alphabet_size=2)
    assert two_pass.rate >= model - 1e-9  # the header is charged
    assert two_pass.rate <= model + 0.4
    assert two_pass.header_bits > 0
