import copy
import itertools
import math
import statistics
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from fiberlab import (
    Alphabet,
    FiberSystemSpec,
    InfiniteInformationError,
    MarkovChainSpec,
    ResourceLimitError,
    cylinder_prob,
    driving_preset,
    emit_name,
    exact_averaged_entropy,
    information_function,
    range_ratio_curve,
    sample_trajectory,
    system_preset,
    visit_record,
    walk,
)
from fiberlab import actions, fiber as fiber_module
import oracles
from oracles import averaged_entropy_enumerated, conditional_cylinder_fraction

BINARY = Alphabet(("0", "1"))
HALF = Fraction(1, 2)

MONOID = FiberSystemSpec("free-monoid", BINARY, (HALF, HALF))
Z2 = FiberSystemSpec("z2", BINARY, (HALF, HALF))
F2 = FiberSystemSpec("f2", BINARY, (HALF, HALF))

BERNOULLI2 = MarkovChainSpec.bernoulli(Alphabet(("0", "1")), (HALF, HALF))
Z2_DRIVING = driving_preset("z2-uniform")
F2_DRIVING = driving_preset("f2-markov")

E1, NEG_E1 = 0, 1

GENERATORS = Alphabet(("a", "A", "b", "B"))
UNIFORM4 = MarkovChainSpec.bernoulli(GENERATORS, (Fraction(1, 4),) * 4)
SKEWED4 = MarkovChainSpec.bernoulli(GENERATORS, (HALF, Fraction(1, 5), Fraction(1, 5), Fraction(1, 10)))
# starts at letter 0 and is not stationary; zeros in Pi forbid some steps,
# while others backtrack (3 after 2, 0 after 1)
NONSTATIONARY4 = MarkovChainSpec(
    GENERATORS,
    (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
    (
        (Fraction(1, 3), Fraction(0), Fraction(2, 3), Fraction(0)),
        (HALF, HALF, Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1, 4), Fraction(1, 4), HALF),
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
    ),
)


def test_spec_validation():
    with pytest.raises(ValueError):
        FiberSystemSpec("z3", BINARY, (HALF, HALF))
    with pytest.raises(ValueError):
        FiberSystemSpec("z2", BINARY, (Fraction(1), Fraction(0)))  # zero-probability symbol
    with pytest.raises(ValueError):
        FiberSystemSpec("z2", BINARY, (HALF, HALF, HALF))
    with pytest.raises(ValueError, match="p must sum to exactly 1"):
        FiberSystemSpec("z2", BINARY, (0.1, 0.9))  # 1 + 2**-55 as binary floats
    assert sum(FiberSystemSpec("z2", BINARY, ("1/10", "9/10")).p) == 1
    # True read as 1 once made a one-symbol fiber law
    for p in ((True,), (np.True_,)):
        with pytest.raises(ValueError, match="as a probability"):
            FiberSystemSpec("free-monoid", Alphabet(("0",)), p)
    with pytest.raises(ValueError, match="as a probability"):
        FiberSystemSpec.from_dict({"action": "free-monoid", "fiber_alphabet": ["0"], "p": [True]})


def test_emit_name_basics():
    name = emit_name(MONOID, [0, 1, 0, 1], seed=1)
    assert len(name) == 4
    assert emit_name(MONOID, [], seed=1).letters.size == 0
    again = emit_name(MONOID, [0, 1, 0, 1], seed=1)
    assert np.array_equal(name.letters, again.letters)


def test_emit_name_revisits_reuse_symbols():
    # (0,0) is visited at steps 0 and 2
    name = emit_name(Z2, [E1, NEG_E1, E1], seed=5)
    assert name.letters[2] == name.letters[0]


def test_emit_name_configuration_is_shared_across_driving_words():
    # same seed means same configuration: names agree on shared prefixes
    a = emit_name(MONOID, [0, 0, 1], seed=9)
    b = emit_name(MONOID, [0, 1, 1], seed=9)
    assert a.letters[0] == b.letters[0]
    assert a.letters[1] == b.letters[1]


def test_emit_name_distribution_is_roughly_uniform():
    name = emit_name(MONOID, [0] * 20000, seed=3)
    freq = np.bincount(name.letters, minlength=2) / len(name)
    assert np.all(np.abs(freq - 0.5) < 0.02)


class CountingCopies:
    """A hasher whose copies are counted under one label.

    Given more labels, each copy is itself a CountingCopies under the next
    label, and every digest of such a copy is counted under "digest".
    """

    def __init__(self, hasher, calls, label, *labels):
        self.hasher, self.calls, self.label, self.labels = hasher, calls, label, labels

    def copy(self):
        self.calls[self.label] += 1
        copied = self.hasher.copy()
        return CountingCopies(copied, self.calls, *self.labels) if self.labels else copied

    def update(self, data):
        self.hasher.update(data)

    def digest(self):
        self.calls["digest"] += 1
        return self.hasher.digest()


def count_hashes(monkeypatch) -> Counter:
    """Count keyed hashers made, their copies, copies of those copies and their
    digests (draws), and chain-hasher copies."""
    calls = Counter()
    real = actions.blake2b

    def counting(*args, **kwargs):
        if "key" in kwargs:
            calls["keyed"] += 1
            return CountingCopies(real(*args, **kwargs), calls, "copy", "copy of a copy", "deeper copy")
        calls["unkeyed"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(actions, "blake2b", counting)
    monkeypatch.setattr(actions, "_CHAIN_HASHER", CountingCopies(actions._CHAIN_HASHER, calls, "chain"))
    return calls


# a z2 walk, an f2 chain that never cancels, one that does, and the free monoid
HASH_CASES = [(Z2, Z2_DRIVING), (F2, F2_DRIVING), (F2, UNIFORM4), (MONOID, BERNOULLI2)]


def x_values_per_span(letters) -> int:
    """The distinct x values of the z2 coordinates in each span of positions, summed over the spans."""
    steps = np.array([dx for dx, _ in actions.Z2_VECTORS])
    x = np.concatenate(([0], np.cumsum(steps[np.asarray(letters[:-1], dtype=np.intp)])))
    return sum(len(np.unique(x[lo:hi])) for lo, hi in actions._spans(len(x)))


@pytest.mark.parametrize("spec, driving", HASH_CASES)
def test_emit_name_hashes_each_distinct_coordinate_once(monkeypatch, spec, driving):
    # the floor while name bytes are pinned: one digest per distinct
    # coordinate, all from the one keyed hasher of the call, and one chain
    # hash, a copy of the chain hasher, per word coordinate other than the
    # identity.  z2 feeds each span's x values b"x," to at most one copy of
    # the keyed hasher each, and draws each new cell from a copy of its x's
    # copy; a word draws each chained key from a copy of the keyed hasher,
    # and the identity from a copy of its head, fed the identity's key
    letters = sample_trajectory(driving, 5000, 4).letters
    distinct = visit_record(spec.action_kind, letters).distinct_count
    calls = count_hashes(monkeypatch)
    emit_name(spec, letters, seed=3)
    kind = spec.action_kind
    chains = {"z2": 0, "f2": distinct - 1, "free-monoid": len(letters) - 1}[kind]
    assert (calls["keyed"], calls["digest"], calls["chain"], calls["unkeyed"]) == (1, distinct, chains, 0)
    if kind == "z2":
        assert calls["copy of a copy"] == distinct and calls["copy"] <= x_values_per_span(letters) < distinct
    else:
        assert (calls["copy"], calls["copy of a copy"]) == (distinct, 1)
    assert calls["deeper copy"] == 0


def test_emit_name_holds_no_list_of_keys(traced_peak):
    # every f2-markov coordinate is new, so a list of the 2e5 keys and
    # their digests would take the peak past the bound; each coordinate is
    # drawn as the walk meets it
    letters = sample_trajectory(F2_DRIVING, 200_000, 4).letters
    _, peak = traced_peak(lambda: emit_name(F2, letters, seed=3))
    assert peak < 12 * 2 ** 20


@pytest.mark.parametrize("spec, driving", HASH_CASES, ids=["z2", "f2-reduced", "f2-cancelling", "free-monoid"])
def test_first_only_walks_hash_nothing(monkeypatch, spec, driving):
    from fiberlab.coding import BlockCodebookFamily, decode, encode

    kind, k = spec.action_kind, 3
    letters = sample_trajectory(driving, 600, 4).letters
    name = emit_name(spec, letters, seed=3)
    family = BlockCodebookFamily(k, spec, driving)
    stream = encode(name, family)
    if kind == "f2":
        # the tree kernel runs exactly where the chain cancels
        assert (walk(kind, letters).first != np.arange(len(letters))).any() == (driving is UNIFORM4)
    calls = count_hashes(monkeypatch)
    assert np.array_equal(decode(stream, letters, BlockCodebookFamily(k, spec, driving)), name.letters)
    visit_record(kind, letters)
    range_ratio_curve(kind, driving, [1, 2], [10, 300])
    information_function(spec, letters, name.letters)
    fiber_module.OrbitName(spec, name.driving, name.letters, name.seed)
    family.codebook_for(letters[:k])
    conditional_cylinder_fraction(spec, letters[:50], name.letters[:50])
    assert sum(calls.values()) == 0, calls


def test_one_pass_draw_equals_the_scalar_inverse_cdf(monkeypatch):
    # digest values at and around every cumulative boundary, at the float64
    # rounding edges (2**64 - 1 rounds to u = 1.0) and at random
    thirds = FiberSystemSpec("free-monoid", Alphabet(("0", "1", "2")), (Fraction(1, 3),) * 3)
    cumulative = [1 / 3, 1 / 3 + 1 / 3, 1 / 3 + 1 / 3 + 1 / 3]
    values = [0, 1, 2 ** 53 + 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64 - 1024, 2 ** 64 - 1025, 2 ** 64 - 2049]
    # offsets within one float64 step of a boundary, and within one float32 step
    for c in cumulative:
        m = int(Fraction(c) * 2 ** 64)
        values += [v for d in (0, 1, 2 ** 11, 2 ** 20, 2 ** 36) for v in (m - d, m + d) if v < 2 ** 64]
    values += np.random.default_rng(8).integers(0, 2 ** 64, 300, dtype=np.uint64).tolist()
    digests = iter(v.to_bytes(8, "little") for v in values)
    real = actions.blake2b

    class Fixed:
        def copy(self):
            return self

        def update(self, data):
            pass

        def digest(self):
            return next(digests)

    def fixed_draws(*args, **kwargs):
        return Fixed() if "key" in kwargs else real(*args, **kwargs)

    monkeypatch.setattr(actions, "blake2b", fixed_draws)
    name = emit_name(thirds, [0] * len(values), seed=1)
    expected = [min(bisect_right(cumulative, v / 2.0 ** 64), 2) for v in values]
    assert name.letters.tolist() == expected
    assert expected[values.index(2 ** 64 - 1)] == 2  # u rounds to 1.0


def test_conditional_cylinder_fraction_examples():
    for v in itertools.product(range(2), repeat=4):
        assert conditional_cylinder_fraction(MONOID, [0, 1, 1, 0], v) == Fraction(1, 16)
    assert conditional_cylinder_fraction(Z2, [], []) == 1


def test_conditional_cylinder_fraction_agrees():
    assert conditional_cylinder_fraction(Z2, [E1, NEG_E1, E1], [0, 1, 0]) == Fraction(1, 4)
    assert conditional_cylinder_fraction(Z2, [E1, NEG_E1, E1], [0, 1, 1]) == 0


def test_conditional_cylinder_fraction_length_mismatch():
    with pytest.raises(ValueError):
        conditional_cylinder_fraction(Z2, [E1], [0, 1])
    with pytest.raises(ValueError):
        conditional_cylinder_fraction(Z2, [E1], [2])


def test_information_function_values():
    alpha = [0, 1] * 50
    omega = emit_name(MONOID, alpha, seed=2).letters
    assert information_function(MONOID, alpha, omega) == 100.0
    assert information_function(MONOID, [], []) == 0.0


def test_information_function_equals_range_times_log_fiber_size():
    trajectory = sample_trajectory(Z2_DRIVING, 400, 21)
    name = emit_name(Z2, trajectory, seed=21)
    record = visit_record("z2", trajectory.letters)
    assert information_function(Z2, trajectory.letters, name.letters) == float(record.distinct_count)


def test_information_function_rejects_inconsistent_names():
    with pytest.raises(InfiniteInformationError):
        information_function(Z2, [E1, NEG_E1, E1], [0, 1, 1])


def test_information_function_refuses_a_name_of_another_action():
    # the z2 walk of this word revisits its start, the f2 walk does not: the
    # name's kept z2 walk once gave 4.0 bits under the f2 spec, not 5.0
    driving = [0, 2, 1, 3, 0]
    name = emit_name(Z2, driving, seed=1)
    assert name.first.tolist() == [0, 1, 2, 3, 0]
    assert information_function(F2, driving, name.letters) == 5.0
    with pytest.raises(ValueError, match="disagree on the action"):
        information_function(F2, name, name.letters)
    assert information_function(Z2, name, name.letters) == 4.0


def test_emitted_names_always_have_finite_information():
    rng = np.random.default_rng(17)
    for spec, driving in ((MONOID, BERNOULLI2), (Z2, Z2_DRIVING), (F2, F2_DRIVING)):
        for seed in range(5):
            n = int(rng.integers(1, 200))
            trajectory = sample_trajectory(driving, n, seed)
            name = emit_name(spec, trajectory, seed)
            bits = information_function(spec, trajectory.letters, name.letters)
            assert math.isfinite(bits) and bits >= 0


def expected_distinct_by_words(driving, kind, n):
    """E[distinct coordinates among c_0 .. c_{n-1}], summed over all driving words."""
    size = driving.alphabet.size
    return sum(
        cylinder_prob(driving, u) * int((walk(kind, u).first == np.arange(n)).sum())
        for u in itertools.product(range(size), repeat=n)
    )


CHAINS = {"uniform": UNIFORM4, "skewed": SKEWED4, "f2-markov": F2_DRIVING, "nonstationary": NONSTATIONARY4}
DISTINCT_CASES = [
    pytest.param(kind, chain, id=f"{kind}-{name}") for kind in ("z2", "f2") for name, chain in CHAINS.items()
] + [
    pytest.param("free-monoid", BERNOULLI2, id="free-monoid-uniform"),
    pytest.param("free-monoid", SKEWED4, id="free-monoid-skewed"),
]


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("kind,driving", DISTINCT_CASES)
def test_expected_distinct_equals_the_word_sum_exactly(kind, driving, n):
    value = fiber_module._expected_distinct(driving, kind, n)
    assert isinstance(value, Fraction)
    assert value == expected_distinct_by_words(driving, kind, n)
    if kind != "free-monoid":
        assert fiber_module._TabooTable(driving, kind).distinct(n) == value


def test_expected_distinct_z2_uniform_at_eleven():
    assert fiber_module._expected_distinct(Z2_DRIVING, "z2", 11) == Fraction(516513, 65536)


def test_exact_averaged_entropy_free_monoid_is_linear():
    result = exact_averaged_entropy(MONOID, BERNOULLI2, 5)
    assert result.bits == 5.0
    assert result.rate == 1.0


def test_exact_averaged_entropy_z2_three_steps():
    # brute force over the 16 two-step driving words: E distinct = 3 - 1/4
    result = exact_averaged_entropy(Z2, Z2_DRIVING, 3)
    assert result.bits == pytest.approx(2.75, abs=1e-12)
    assert result.rate == pytest.approx(2.75 / 3, abs=1e-12)


def test_exact_averaged_entropy_f2_is_linear():
    result = exact_averaged_entropy(F2, F2_DRIVING, 6)
    assert result.bits == 6.0


def test_exact_averaged_entropy_f2_markov_is_exactly_n_up_to_the_cap():
    # no-backtracking f2 never revisits
    for n in range(1, 13):
        assert exact_averaged_entropy(F2, F2_DRIVING, n).bits == n


@pytest.mark.parametrize(
    "spec,driving,n",
    [
        (MONOID, BERNOULLI2, 5),
        (Z2, Z2_DRIVING, 5),
        (F2, F2_DRIVING, 5),
    ],
)
def test_exact_averaged_entropy_oracle_equivalence_small(spec, driving, n):
    fast = exact_averaged_entropy(spec, driving, n).bits
    oracle = averaged_entropy_enumerated(spec, driving, n)
    assert fast == pytest.approx(oracle, abs=1e-9)


def test_exact_averaged_entropy_nonuniform_p_oracle_equivalence():
    spec = FiberSystemSpec("z2", Alphabet(("0", "1", "2")), (HALF, Fraction(1, 4), Fraction(1, 4)))
    fast = exact_averaged_entropy(spec, Z2_DRIVING, 4).bits
    oracle = averaged_entropy_enumerated(spec, Z2_DRIVING, 4)
    assert fast == pytest.approx(oracle, abs=1e-9)


def test_exact_averaged_entropy_rate_is_nonincreasing():
    for spec, driving in ((MONOID, BERNOULLI2), (Z2, Z2_DRIVING), (F2, F2_DRIVING)):
        rates = [exact_averaged_entropy(spec, driving, n).rate for n in range(1, 9)]
        for a, b in zip(rates, rates[1:]):
            assert b <= a + 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_conditional_cylinder_normalization(n):
    # the conditional block probabilities sum to 1 for every positive context
    from fiberlab import cylinder_prob

    for u in itertools.product(range(4), repeat=n):
        if cylinder_prob(F2_DRIVING, u) == 0:
            continue
        total = sum(
            conditional_cylinder_fraction(F2, u, v) for v in itertools.product(range(2), repeat=n)
        )
        assert total == 1


def test_exceeds_cap_equals_the_power_it_avoids():
    for base in range(1, 9):
        for power in range(0, 40):
            assert fiber_module._exceeds_cap(base, power) == (base ** power > fiber_module.ENUMERATION_CAP)


def fresh(chain):
    """An equal chain that keeps no range table yet."""
    return MarkovChainSpec(chain.alphabet, chain.pi, chain.Pi)


def test_exact_averaged_entropy_enforces_caps(monkeypatch):
    def refused(*args):
        pytest.fail("ran past its cap")

    # each chain is new, so that no table kept by an earlier test answers
    # the taboo path counts size**n driving words: 4**13 > 2**24; it refuses
    # before any state is built, each of which looks up its group steps
    monkeypatch.setattr(fiber_module, "_GROUP_STEPS", {})
    with pytest.raises(ResourceLimitError, match=r"4\*\*13 driving words"):
        exact_averaged_entropy(Z2, fresh(NONSTATIONARY4), 13)
    with pytest.raises(ResourceLimitError, match=r"4\*\*13 driving words"):
        exact_averaged_entropy(F2, fresh(UNIFORM4), 13)
    # the renewal path counts n**2 * den.bit_length() table bits: 2364**2 * 3
    # fits in 2**24 and 2365**2 * 3 does not; the cap refuses before the table grows
    monkeypatch.setattr(fiber_module._RenewalTable, "_extend", refused)
    with pytest.raises(ResourceLimitError, match="renewal tables"):
        exact_averaged_entropy(Z2, fresh(Z2_DRIVING), 2365)

    # survival numerators all 1 over den 1 give E[R_n] = n
    def unit_survival(table, n):
        table.den, table.totals = 1, list(range(1, n + 1))

    monkeypatch.setattr(fiber_module._RenewalTable, "_extend", unit_survival)
    assert exact_averaged_entropy(Z2, fresh(Z2_DRIVING), 2364).bits == 2364.0
    # the (u, v) oracle counts (size * fiber size)**n pairs: 8**9 > 2**24
    monkeypatch.setattr(oracles, "itertools", SimpleNamespace(product=refused))
    with pytest.raises(ResourceLimitError, match=r"full \(u, v\) enumeration"):
        averaged_entropy_enumerated(Z2, Z2_DRIVING, 9)


def iid4(*p):
    return MarkovChainSpec.bernoulli(GENERATORS, tuple(Fraction(x) for x in p))


TENTHS4 = iid4("1/10", "2/10", "3/10", "4/10")
LINE4 = iid4("1/2", "1/2", 0, 0)  # the simple walk on the first axis
DIAGONAL4 = iid4("1/2", 0, "1/2", 0)  # steps +e1 and +e2 only: never returns
RENEWAL_CASES = {"uniform": Z2_DRIVING, "tenths": TENTHS4, "line": LINE4, "diagonal": DIAGONAL4}


def record_paths(monkeypatch):
    """Wrap the renewal and taboo tables' distinct; the returned list names each call.

    The linear path keeps no table, so it records nothing.
    """
    calls = []
    for table in (fiber_module._RenewalTable, fiber_module._TabooTable):
        def recorded(self, n, name=table.__name__, distinct=table.distinct):
            calls.append(name)
            return distinct(self, n)

        monkeypatch.setattr(table, "distinct", recorded)
    return calls


@pytest.mark.parametrize("driving", RENEWAL_CASES.values(), ids=RENEWAL_CASES.keys())
def test_renewal_equals_the_taboo_recursion(monkeypatch, driving):
    # bound before record_paths wraps the classes, so these calls are not recorded
    renewal = fiber_module._RenewalTable(driving).distinct
    taboo = fiber_module._TabooTable(driving, "z2").distinct
    calls = record_paths(monkeypatch)
    for n in range(1, 13):
        value = renewal(n)
        assert isinstance(value, Fraction)
        assert value == taboo(n)
        assert fiber_module._expected_distinct(driving, "z2", n) == value
        if driving is DIAGONAL4:
            assert value == n
    assert calls == ["_RenewalTable"] * 12


@pytest.mark.parametrize("driving", [TENTHS4, LINE4], ids=["tenths", "line"])
@pytest.mark.parametrize("n", range(1, 6))
def test_renewal_matches_the_uv_oracle(driving, n):
    fast = exact_averaged_entropy(Z2, driving, n).bits
    oracle = averaged_entropy_enumerated(Z2, driving, n)
    assert fast == pytest.approx(oracle, abs=1e-9)


def test_return_numerators_equal_the_constant_term():
    # z2-uniform: u_2m = C(2m, m)**2 / 16**m, and den = 4; n = 2h + 1
    # grows the table to U_2h
    table = fiber_module._RenewalTable(Z2_DRIVING)
    table.distinct(401)
    assert table.returns == [math.comb(2 * m, m) ** 2 for m in range(201)]
    # any i.i.d. law: C(2h, h) * sum_a C(h, a)**2 (n0 n1)**a (n2 n3)**(h-a)
    nums, den = TENTHS4._pi_numerators
    assert den == 10
    x, y = nums[0] * nums[1], nums[2] * nums[3]
    expected = [
        math.comb(2 * h, h) * sum(math.comb(h, a) ** 2 * x ** a * y ** (h - a) for a in range(h + 1))
        for h in range(61)
    ]
    table = fiber_module._RenewalTable(TENTHS4)
    table.distinct(121)
    assert table.returns == expected


def test_transient_walk_range_falls_toward_its_escape_probability():
    """E[R_n]/n for the walk with steps +e1 w.p. 3/4 and -e1 w.p. 1/4.

    By Dvoretzky-Erdos, E[R_n]/n decreases to P(no return) = |p - q| =
    Fraction(1, 2); every ratio up to n = 2000 lies strictly above it.  The
    first return takes two steps, so E[R_1]/1 = E[R_2]/2 = 1 and the
    decrease is strict from n = 2 on.
    """
    limit = Fraction(1, 2)
    driving = iid4("3/4", "1/4", 0, 0)
    # one table, swept upwards, against one call at n = 2000 on a new chain
    table = fiber_module._RenewalTable(driving)
    expected = [table.distinct(n) for n in range(1, 2001)]
    assert expected[-1] == fiber_module._expected_distinct(iid4("3/4", "1/4", 0, 0), "z2", 2000)
    # E[R_{i+1}] - E[R_i] = P(T_0 > i), which falls from 1 toward the limit
    survival = [b - a for a, b in zip([0] + expected, expected)]
    assert survival[0] == 1 and all(limit < b <= a for a, b in zip(survival, survival[1:]))
    ratios = [e / n for n, e in enumerate(expected, 1)]
    assert ratios[0] == ratios[1] == 1
    assert all(b < a for a, b in zip(ratios[1:], ratios[2:]))
    assert ratios[-1] > limit


def test_renewal_matches_the_monte_carlo_range_at_1000():
    n, seeds = 1000, range(400)
    samples = [range_ratio_curve("z2", Z2_DRIVING, [seed], [n])[0][1] for seed in seeds]
    mean = range_ratio_curve("z2", Z2_DRIVING, seeds, [n])[0][1]
    assert mean == pytest.approx(statistics.fmean(samples), abs=1e-12)
    standard_error = statistics.stdev(samples) / math.sqrt(len(samples))
    exact = fiber_module._RenewalTable(Z2_DRIVING).distinct(n) / n
    assert abs(mean - float(exact)) < 4 * standard_error


# rows unequal to each other; uniform rows under a start that is not their law
PERSISTENT4 = MarkovChainSpec(
    GENERATORS,
    (Fraction(1, 4),) * 4,
    tuple(tuple(HALF if a == b else Fraction(1, 6) for b in range(4)) for a in range(4)),
)
FIXED_START4 = MarkovChainSpec(GENERATORS, (Fraction(1), Fraction(0), Fraction(0), Fraction(0)), UNIFORM4.Pi)


@pytest.mark.parametrize("driving", [PERSISTENT4, FIXED_START4], ids=["unequal-rows", "fixed-start"])
def test_non_iid_z2_chains_take_the_taboo_path(monkeypatch, driving):
    calls = record_paths(monkeypatch)
    for n in range(1, 7):
        assert exact_averaged_entropy(Z2, driving, n).bits == float(expected_distinct_by_words(driving, "z2", n))
    assert calls == ["_TabooTable"] * 6


def test_f2_that_never_cancels_is_exactly_n_past_the_old_cap(monkeypatch):
    # Pi never steps from a letter to its inverse, so every driving word is
    # reduced and no coordinate repeats
    calls = record_paths(monkeypatch)
    for n in (13, 50, 10 ** 4):
        assert exact_averaged_entropy(F2, F2_DRIVING, n).bits == n
    assert calls == []


@pytest.mark.parametrize("driving", [UNIFORM4, NONSTATIONARY4], ids=["uniform", "nonstationary"])
def test_f2_chains_that_backtrack_take_the_taboo_path(monkeypatch, driving):
    calls = record_paths(monkeypatch)
    assert exact_averaged_entropy(F2, driving, 6).bits == float(expected_distinct_by_words(driving, "f2", 6))
    assert calls == ["_TabooTable"]


# one chain instance per path: linear, renewal and taboo
TABLE_CASES = {
    "linear-f2-markov": ("f2", F2_DRIVING, range(1, 40)),
    "renewal-z2-uniform": ("z2", Z2_DRIVING, range(1, 60)),
    "taboo-nonstationary": ("z2", NONSTATIONARY4, range(1, 13)),
}


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("kind,chain,horizons", TABLE_CASES.values(), ids=TABLE_CASES.keys())
def test_one_table_answers_every_order_as_a_new_chain_does(kind, chain, horizons, order):
    chain, horizons = fresh(chain), list(horizons)
    if order == "descending":
        horizons.reverse()
    elif order == "shuffled":
        np.random.default_rng(20).shuffle(horizons)
    for n in horizons:
        value = fiber_module._expected_distinct(chain, kind, n)
        assert isinstance(value, Fraction)
        assert value == fiber_module._expected_distinct(fresh(chain), kind, n)
    assert len(chain._range_tables) == 1


@pytest.mark.parametrize(
    "chain,refused", [(Z2_DRIVING, 2365), (NONSTATIONARY4, 13)], ids=["renewal", "taboo"]
)
def test_a_refused_n_leaves_the_table_as_it_was(chain, refused):
    chain = fresh(chain)
    for n in (9, 4):
        fiber_module._expected_distinct(chain, "z2", n)
    table = chain._range_tables["z2"]
    kept = copy.deepcopy(vars(table))
    with pytest.raises(ResourceLimitError):
        exact_averaged_entropy(Z2, chain, refused)
    assert fiber_module.exact_rate_or_none(Z2, chain, refused) is None
    assert chain._range_tables["z2"] is table and vars(table) == kept
    for n in (9, 4, 10, 1):
        assert fiber_module._expected_distinct(chain, "z2", n) == fiber_module._expected_distinct(fresh(chain), "z2", n)


def test_symbol_entropy_is_computed_once_per_spec():
    spec = FiberSystemSpec("z2", Alphabet(("0", "1", "2")), (HALF, Fraction(1, 4), Fraction(1, 4)))
    assert spec.symbol_entropy() == 1.5
    object.__setattr__(spec, "p", (Fraction(1),) * 3)  # not read again
    assert spec.symbol_entropy() == 1.5


def test_a_table_interrupted_while_it_grows_is_dropped(monkeypatch):
    chain = fresh(Z2_DRIVING)
    fiber_module._expected_distinct(chain, "z2", 5)
    calls = iter(range(3))

    def interrupted_sum(*args):
        # the renewal step has appended U_2h but not yet F_2h
        if next(calls, None) is None:
            raise KeyboardInterrupt
        return sum(*args)

    monkeypatch.setattr(fiber_module, "sum", interrupted_sum, raising=False)
    with pytest.raises(KeyboardInterrupt):
        fiber_module._expected_distinct(chain, "z2", 40)
    monkeypatch.undo()
    assert "z2" not in chain._range_tables
    assert fiber_module._expected_distinct(chain, "z2", 40) == fiber_module._expected_distinct(fresh(chain), "z2", 40)
