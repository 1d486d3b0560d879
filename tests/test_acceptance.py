"""Acceptance suite.

One test per criterion; each prints a single PASS line with its runtime
once every assertion in it has held (run with -s to see the lines live).
Expected values are frozen from exact small-instance oracles and analytic
closed forms; convergence checks use the stated bounded-gap tolerances.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from fiberlab import (
    Alphabet,
    BlockCodebookFamily,
    FiberSystemSpec,
    MarkovChainSpec,
    ar_decomposition_check,
    bufetov_condition,
    conditional_rate,
    cylinder_prob,
    decode,
    driving_preset,
    emit_name,
    encode,
    entropy_rate,
    exact_averaged_entropy,
    is_irreducible,
    is_prefix_free,
    is_stationary,
    kraft_sum,
    range_ratio_curve,
    sample_trajectory,
    system_preset,
    visit_record,
)
from fiberlab.coding import pair_counts
from oracles import averaged_entropy_enumerated, sliding_pair_counts

HALF = Fraction(1, 2)
BINARY = Alphabet(("0", "1"))

MONOID = FiberSystemSpec("free-monoid", BINARY, (HALF, HALF))
Z2 = FiberSystemSpec("z2", BINARY, (HALF, HALF))
F2 = FiberSystemSpec("f2", BINARY, (HALF, HALF))

BERNOULLI2 = MarkovChainSpec.bernoulli(Alphabet(("0", "1")), (HALF, HALF))
Z2_DRIVING = driving_preset("z2-uniform")
F2_DRIVING = driving_preset("f2-markov")

SYSTEMS = {
    "free-monoid": (MONOID, BERNOULLI2),
    "z2": (Z2, Z2_DRIVING),
    "f2": (F2, F2_DRIVING),
}

LOG2_3 = math.log2(3)


@contextmanager
def budget(label: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{label} took {elapsed:.1f}s, budget {seconds}s"
    print(f"PASS {label} ({elapsed:.1f}s)")


def test_criterion_1_coding_soundness():
    with budget("criterion 1: coding soundness, round trips and exact Kraft bounds", 60):
        rng = np.random.default_rng(20240901)
        instances = 0
        for kind, (fiber, driving) in SYSTEMS.items():
            for k in range(1, 7):
                family = BlockCodebookFamily(k, fiber, driving)
                sizes = list(rng.integers(0, 1200, 55)) + [10 ** 4]
                for n in sizes:
                    seed = int(rng.integers(0, 2 ** 63))
                    trajectory = sample_trajectory(driving, int(n), seed)
                    name = emit_name(fiber, trajectory, seed)
                    stream = encode(name, family)
                    assert np.array_equal(decode(stream, trajectory, family), name.letters)
                    instances += 1
                # exact prefix-freeness, Kraft and length-bound checks on
                # every codebook the runs materialized
                assert family.verify_length_bounds()
                for code in family._count_codes.values():
                    words = code.words.tolist()
                    assert is_prefix_free(words)
                    assert kraft_sum(len(w) for w in words) <= 1
        assert instances >= 1000


def test_criterion_2_exact_entropy_oracle():
    with budget("criterion 2: exact entropy, full enumeration equals fast path", 30):
        for n in range(1, 9):
            for fiber, driving in SYSTEMS.values():
                fast = exact_averaged_entropy(fiber, driving, n).bits
                oracle = averaged_entropy_enumerated(fiber, driving, n)
                assert abs(fast - oracle) <= 1e-9
        assert exact_averaged_entropy(Z2, Z2_DRIVING, 3).bits == 2.75
        for n in range(1, 9):
            assert exact_averaged_entropy(MONOID, BERNOULLI2, n).bits == n
            assert exact_averaged_entropy(F2, F2_DRIVING, n).bits == n


@lru_cache(maxsize=None)
def _brudno_runs():
    runs = []
    trajectory = sample_trajectory(BERNOULLI2, 2 ** 17, 1)
    name = emit_name(MONOID, trajectory, 1)
    runs.append(conditional_rate(name, BlockCodebookFamily(8, MONOID, BERNOULLI2)))
    trajectory = sample_trajectory(Z2_DRIVING, 10 ** 5, 2)
    name = emit_name(Z2, trajectory, 2)
    runs.append(conditional_rate(name, BlockCodebookFamily(8, Z2, Z2_DRIVING)))
    return runs


def test_criterion_3_brudno_convergence():
    with budget("criterion 3: coded rates converge to the exact entropy rate", 120):
        monoid_report, z2_report = _brudno_runs()
        assert monoid_report.code_rate == 1.0
        assert monoid_report.exact_rate == pytest.approx(1.0, abs=1e-12)
        assert z2_report.cross_entropy_rate is not None
        assert abs(z2_report.cross_entropy_rate - z2_report.exact_rate) <= 0.02
        tail_term = z2_report.tail_bits / z2_report.n
        assert z2_report.code_rate <= z2_report.cross_entropy_rate + 1 / 8 + tail_term + 1e-12
        assert monoid_report.eq15_ok and z2_report.eq15_ok
        assert monoid_report.length_bound_ok and z2_report.length_bound_ok


def test_criterion_4_shift_averaging_identity():
    with budget("criterion 4: shift-averaging identity as exact integer counts", 10):
        rng = np.random.default_rng(20240904)
        cases = [(kind, int(rng.integers(1, 7)), int(rng.integers(1, 400))) for kind in SYSTEMS for _ in range(4)]
        cases.append(("z2", 6, 10 ** 4))
        for kind, k, m in cases:
            fiber, driving = SYSTEMS[kind]
            n = m * k + k - 1
            seed = int(rng.integers(0, 2 ** 63))
            trajectory = sample_trajectory(driving, n, seed)
            name = emit_name(fiber, trajectory, seed)
            alpha = list(trajectory.letters)
            omega = list(name.letters)
            sliding = sliding_pair_counts(alpha, omega, k, m * k)
            recombined: dict = {}
            for r in range(k):
                # the m full blocks of phase r
                phase = pair_counts(alpha[r : r + m * k], omega[r : r + m * k], k)
                for pair, c in phase.items():
                    recombined[pair] = recombined.get(pair, 0) + c
            assert dict(sliding) == recombined


def test_criterion_5_entropy_decomposition():
    with budget("criterion 5: joint minus plain minus conditional rates", 120):
        monoid = ar_decomposition_check(emit_name(MONOID, sample_trajectory(BERNOULLI2, 2 ** 17, 3), 3),
                                        BlockCodebookFamily(8, MONOID, BERNOULLI2))
        assert abs(monoid.residual) <= 0.05
        assert monoid.joint_rate == pytest.approx(2.0, abs=1e-12)
        assert monoid.plain_rate == pytest.approx(1.0, abs=1e-12)
        assert monoid.conditional_rate == pytest.approx(1.0, abs=1e-12)

        f2 = ar_decomposition_check(emit_name(F2, sample_trajectory(F2_DRIVING, 10 ** 5, 4), 4),
                                    BlockCodebookFamily(10, F2, F2_DRIVING))
        assert abs(f2.residual) <= 0.1
        # the ideal per-symbol cost of the plain coder approaches the
        # entropy rate; its coded rate carries the ceil and first-symbol
        # overhead of 2/k on top
        assert abs(f2.plain_ideal_rate - entropy_rate(F2_DRIVING)) <= 0.1
        assert abs(f2.plain_rate - (LOG2_3 + 2 / 10)) <= 0.1


def test_criterion_6_example_behaviors():
    with budget("criterion 6: free-group and lattice range behavior", 60):
        for seed in range(10):
            letters = sample_trajectory(F2_DRIVING, 10 ** 4, seed).letters
            inverse = np.array([1, 0, 3, 2])
            assert not np.any(letters[1:] == inverse[letters[:-1]])
            assert visit_record("f2", letters).distinct_count == 10 ** 4
        curve = range_ratio_curve(
            "z2", Z2_DRIVING, seeds=range(20),
            checkpoints=[10 ** 3, 3163, 10 ** 4, 31623, 10 ** 5],
        )
        ratios = [ratio for _, ratio in curve]
        for a, b in zip(ratios, ratios[1:]):
            assert b < a
        assert ratios[-1] < ratios[0]


def test_criterion_7_driving_measure_algebra():
    with budget("criterion 7: chain diagnostics and exact cylinder totals", 10):
        assert (is_stationary(F2_DRIVING), is_irreducible(F2_DRIVING), bufetov_condition(F2_DRIVING)) == (
            True,
            True,
            True,
        )
        two = Alphabet(("0", "1"))
        not_stationary = MarkovChainSpec(
            two, (Fraction(1), Fraction(0)), ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
        )
        assert not is_stationary(not_stationary)
        identity_chain = MarkovChainSpec(
            two, (HALF, HALF), ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        )
        assert not is_irreducible(identity_chain)
        swap_chain = MarkovChainSpec(
            two, (HALF, HALF), ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
        )
        assert not bufetov_condition(swap_chain)
        assert bufetov_condition(BERNOULLI2)
        for k in range(1, 9):
            total = sum(cylinder_prob(F2_DRIVING, u) for u in itertools.product(range(4), repeat=k))
            assert abs(float(total) - 1.0) <= 1e-9


def test_criterion_8_no_undershoot():
    with budget("criterion 8: coded length never undercuts the information floor", 120):
        for report in _brudno_runs():
            assert report.n >= 10 ** 3
            assert report.no_undershoot_ok
            floor = report.info_rate - 2 * math.log2(report.n) / report.n
            assert report.code_rate >= floor - 1e-12
