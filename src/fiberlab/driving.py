"""Markov driving measures: cylinder probabilities, chain diagnostics,
trajectory sampling and the plain block coder.

Probabilities are held as exact fractions so that cylinder values and the
integer codeword lengths derived from them are free of float rounding.  A
float is read as the exact binary value it stores, so sums and
stationarity are tested exactly: (0.1, 0.9) sums to 1 + 2**-55 and is
refused, while "1/10" and "9/10" are exact.
All entropies and rates are reported in bits (binary logarithm).

Block coders cost a word block by block, and the cost of a block depends
on its letters alone, so they work from _block_table: the distinct aligned
k-blocks in first-occurrence order and each block's index into them.  The
table keeps its blocks as views of the words, and the coders gather, check
and score its distinct blocks a span at a time (actions._spans), in table
order, keeping one value per block.  Per-block sums are then taken in
block order over whole arrays, as a block-by-block loop takes them.

Each law's integer numerators over its least common denominator are
cached on its spec, and a spec is validated on them: entries are
nonnegative, each law's numerators sum to its denominator, and pi is
stationary when pi's numerators times Pi's equal pi's times den(Pi).  The
cylinder probabilities of k-blocks share one denominator,
den(pi) * lcm(den Pi)**(k-1), so a table of blocks is scored
as integer numerators over it (_cylinder_numerators), in Python ints that
cannot overflow; cylinder_prob is the one-row case.  A Shannon length is
read off the bit lengths of numerator and denominator, and an ideal length
is log2(num / den), which equals log2 of the Fraction's float because int
division is correctly rounded.  Which blocks are positive is read off one
support per chain, pi > 0 and Pi > 0 (MarkovChainSpec._support), by every
coder (_block_faults, before any numerator) and by the chain diagnostics,
and every coder refuses its first offending block by _refuse_blocks.

Every sampled letter and orbit-name symbol is read off its uniform by one
inverse CDF, _inverse_cdf.  The Markov sampler steps a transition table:
the next letter depends on a uniform only through the interval of distinct
cumulative values it falls in, so one vectorized search per span of
uniforms gives each step's interval.  The table composes: r steps are one
lookup of (r intervals, state), so a Python loop finds the state at every
r-th step only and r vectorized gathers fill in the letters between.
Uniforms are drawn a span at a time from the one PCG64 stream, which gives
the same doubles as one draw of all of them, and letters are kept in the
smallest dtype that holds them (_letter_dtype), uint8 for every action's
alphabet.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .actions import INVERSE, _check_seed, _integer, _integers, _spans
from .errors import ModelMismatchError
from .kraft import _shannon_bits
from .words import Alphabet, Word

# the end of the message that refuses an inexact probability sum
_EXACT_HINT = ' (a float is read as its binary value; give exact strings such as "1/10")'
# a block table's window keys stay at or below this, so they fit an int64
_KEY_LIMIT = 2 ** 62
# entries the sampler's composed step table may hold: it resolves r letters
# per lookup, for the largest r whose table of C**r * s entries fits
_COMPOSED_ENTRIES = 2 ** 12


def _as_fraction(x) -> Fraction:
    """x as an exact Fraction; a bool, a string such as "1/0", a NaN or an infinity is refused with ValueError."""
    if isinstance(x, Fraction):
        return x
    try:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
            return Fraction(int(x))
        if isinstance(x, (float, np.floating)):
            return Fraction(float(x))
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"cannot interpret {x!r} as a probability")


def _listed(values, what: str) -> tuple:
    """values as a tuple when they form a list; a string, which would iterate into its characters, raises ValueError."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ValueError(f"{what} must be a list, not {values!r}")
    return tuple(values)


def _over_lcm(probs) -> tuple[np.ndarray, int]:
    """Exact probabilities as Python-int numerators, in an object array, over their lcm denominator."""
    den = math.lcm(*(x.denominator for x in probs))
    return np.array([x.numerator * (den // x.denominator) for x in probs], dtype=object), den


@dataclass(frozen=True)
class MarkovChainSpec:
    """Initial vector pi and row-stochastic matrix Pi over a driving alphabet.

    A Bernoulli chain is the special case where every row of Pi equals one
    fixed distribution.
    """

    alphabet: Alphabet
    pi: tuple[Fraction, ...]
    Pi: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        s = self.alphabet.size
        pi = tuple(_as_fraction(x) for x in self.pi)
        Pi = tuple(tuple(_as_fraction(x) for x in row) for row in self.Pi)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "Pi", Pi)
        if len(pi) != s or any(len(row) != s for row in Pi) or len(Pi) != s:
            raise ValueError("pi and Pi must be indexed by the alphabet")
        # denominators are positive, so the integer numerators decide
        # signs and sums exactly
        starts, start_den = self._pi_numerators
        steps, step_den = self._Pi_numerators
        starts, steps = starts.tolist(), steps.tolist()
        if min(starts) < 0 or min(map(min, steps)) < 0:
            raise ValueError("probabilities must be nonnegative")
        if sum(starts) != start_den:
            raise ValueError(f"pi must sum to exactly 1{_EXACT_HINT}")
        for i, row in enumerate(steps):
            if sum(row) != step_den:
                raise ValueError(f"row {i} of Pi must sum to exactly 1{_EXACT_HINT}")

    @cached_property
    def _pi_numerators(self) -> tuple[np.ndarray, int]:
        return _over_lcm(self.pi)

    @cached_property
    def _Pi_numerators(self) -> tuple[np.ndarray, int]:
        """Pi[a][b] = nums[a, b] / den, with den the lcm of every row's denominators."""
        nums, den = _over_lcm([x for row in self.Pi for x in row])
        return nums.reshape(len(self.Pi), -1), den

    @cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        """The bool arrays pi > 0 and Pi > 0: which letters may start a word and which may follow which."""
        return self._pi_numerators[0] > 0, self._Pi_numerators[0] > 0

    @cached_property
    def _iid(self) -> bool:
        """Every row of Pi equals pi: the letters are i.i.d. under pi, a Bernoulli chain."""
        return all(row == self.pi for row in self.Pi)

    @cached_property
    def _range_tables(self) -> dict:
        """Action kind -> the exact range table fiber._expected_distinct keeps for this chain."""
        return {}

    @classmethod
    def bernoulli(cls, alphabet: Alphabet, p: Sequence) -> "MarkovChainSpec":
        p = tuple(_as_fraction(x) for x in p)
        return cls(alphabet, p, tuple(p for _ in range(alphabet.size)))

    @classmethod
    def from_dict(cls, data: dict) -> "MarkovChainSpec":
        rows = tuple(_listed(row, f"row {i} of Pi") for i, row in enumerate(_listed(data["Pi"], "Pi")))
        return cls(Alphabet(_listed(data["alphabet"], "alphabet")), _listed(data["pi"], "pi"), rows)


def _uniform(labels: tuple[str, ...]) -> MarkovChainSpec:
    """The uniform Bernoulli measure on the letters."""
    return MarkovChainSpec.bernoulli(Alphabet(labels), (Fraction(1, len(labels)),) * len(labels))


def _non_backtracking(labels: tuple[str, ...]) -> MarkovChainSpec:
    """Uniform start, then 1/3 to each letter other than the inverse of the current one.

    Exactly the words with no letter followed by its inverse are positive.
    """
    rows = tuple(
        tuple(Fraction(0) if j == INVERSE[i] else Fraction(1, 3) for j in range(4)) for i in range(4)
    )
    return MarkovChainSpec(Alphabet(labels), (Fraction(1, 4),) * 4, rows)


# preset name -> (the action its chain drives, the chain's letters, the measure
# on them).  z2's letters are the lattice generators and f2's the free-group
# generators, each next to its inverse as actions.INVERSE pairs them.
PRESETS = {
    "free-monoid-uniform": ("free-monoid", ("0", "1"), _uniform),
    "z2-uniform": ("z2", ("+e1", "-e1", "+e2", "-e2"), _uniform),
    "f2-markov": ("f2", ("a", "A", "b", "B"), _non_backtracking),
}


def driving_preset(name: str) -> MarkovChainSpec:
    """The driving chain of a named system in PRESETS."""
    try:
        _, labels, measure = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown driving preset {name!r}") from None
    return measure(labels)


def _letter_dtype(size: int) -> np.dtype:
    """The smallest dtype that holds the letter indices 0 .. size - 1, at least uint8."""
    return np.min_scalar_type(max(size - 1, 0))


def _cylinder_den(spec: MarkovChainSpec, k: int) -> int:
    """The denominator den(pi) * lcm(den Pi)**(k-1) of every k-block's cylinder probability."""
    return spec._pi_numerators[1] * spec._Pi_numerators[1] ** (k - 1)


def _block_faults(spec: MarkovChainSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(outside, null) of a table of driving blocks of k >= 1 letters, read off the chain's support:
    outside[r] tells whether row r holds a letter outside the alphabet, and
    null[r] whether row r lies inside it and has probability zero."""
    starts, moves = spec._support
    outside = ((rows < 0) | (rows >= len(starts))).any(axis=1)
    rows = np.where(outside[:, None], 0, rows)  # index safely; outside rows are flagged
    null = ~(outside | (starts[rows[:, 0]] & moves[rows[:, :-1], rows[:, 1:]].all(axis=1)))
    return outside, null


def _refuse_blocks(spec: MarkovChainSpec, contexts: np.ndarray, inconsistent=False, blocks=None) -> None:
    """The one block refusal: raise at the first offending row of contexts, a table of driving blocks in
    their own dtype, with blocks[r] row r's fiber block where rows are flagged inconsistent (one bool per
    row).  A driving letter outside the alphabet raises ValueError, a null driving block or an
    inconsistent row ModelMismatchError."""
    outside, null = _block_faults(spec, contexts)
    if (bad := outside | null | inconsistent).any():
        r = int(bad.argmax())
        context = tuple(contexts[r].tolist())
        if outside[r]:
            raise ValueError("letter index out of range for the driving alphabet")
        if null[r]:
            raise ModelMismatchError(f"driving block {context} has zero probability")
        block = tuple(blocks[r].tolist())
        raise ModelMismatchError(f"fiber block {block} is inconsistent with driving block {context}")


def _cylinder_numerators(spec: MarkovChainSpec, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact cylinder probabilities of a table of driving blocks of k >= 1 letters, none outside the alphabet.

    Returns (nums, den): row r has probability nums[r] / den, with
    den = den(pi) * lcm(den Pi)**(k-1) and den(x) the least common
    denominator of x's entries.  The numerators are Python ints, products
    of the integer numerators of pi and Pi, so none can overflow.
    """
    steps = spec._Pi_numerators[0]
    nums = spec._pi_numerators[0][rows[:, 0]]
    for j in range(1, rows.shape[1]):
        nums = nums * steps[rows[:, j - 1], rows[:, j]]
    return nums, _cylinder_den(spec, rows.shape[1])


def cylinder_prob(spec: MarkovChainSpec, v) -> Fraction:
    """Exact probability of the cylinder of all sequences extending v.

    The empty word has probability 1.
    """
    letters = _integers(v)
    if isinstance(v, Word) and v.alphabet != spec.alphabet:
        raise ValueError("word is over a different alphabet")
    if not len(letters):
        return Fraction(1)
    if _block_faults(spec, letters[None, :])[0][0]:
        raise ValueError("letter index out of range for the driving alphabet")
    nums, den = _cylinder_numerators(spec, letters[None, :])
    return Fraction(nums[0], den)


def is_stationary(spec: MarkovChainSpec) -> bool:
    """Whether pi is invariant under Pi (pi^T Pi = pi^T), exactly.

    With pi = starts / den(pi) and Pi = steps / den(Pi), that is
    starts^T steps = starts^T * den(Pi), in Python ints.
    """
    starts = spec._pi_numerators[0].tolist()
    steps, step_den = spec._Pi_numerators
    columns = zip(*steps.tolist())
    return all(sum(map(operator.mul, starts, column)) == x * step_den for x, column in zip(starts, columns))


def is_irreducible(spec: MarkovChainSpec) -> bool:
    """Whether the directed graph of positive transitions is strongly connected: its reachability
    closure over paths of at most s steps, (I + moves)**s in boolean arithmetic, is all True."""
    moves = spec._support[1]
    return bool(np.linalg.matrix_power(moves | np.eye(len(moves), dtype=bool), len(moves)).all())


def bufetov_condition(spec: MarkovChainSpec) -> bool:
    """Whether every pair of states has a common predecessor with positive
    transition probability to both (a checkable sufficient condition for
    ergodicity of the driven skew product): moves.T @ moves is all True."""
    moves = spec._support[1]
    return bool((moves.T @ moves).all())


def entropy_rate(spec: MarkovChainSpec) -> float:
    """Entropy rate of the stationary chain in bits per symbol.

    Requires a stationary spec; 0*log(0) is taken as 0.
    """
    if not is_stationary(spec):
        raise ValueError("entropy rate requires a stationary chain")
    rate = 0.0
    for i in range(spec.alphabet.size):
        pi_i = float(spec.pi[i])
        if pi_i == 0.0:
            continue
        for q in spec.Pi[i]:
            qf = float(q)
            if qf > 0.0:
                rate -= pi_i * qf * math.log2(qf)
    return rate


@dataclass(frozen=True)
class DrivingTrajectory:
    """A sampled finite trajectory of the driving chain.

    letters holds one letter index per step, in _letter_dtype(size): uint8
    for every alphabet an action takes, which has at most 256 letters
    (actions.check_driving_size).
    """

    spec: MarkovChainSpec
    seed: int
    letters: np.ndarray

    def __len__(self) -> int:
        return len(self.letters)

    def __array__(self, dtype=None, copy=None):
        """The letters array itself, not a copy, unless numpy asks for one (see actions._integers)."""
        return np.array(self.letters, dtype=dtype, copy=copy)


def _cumulative(probs) -> np.ndarray:
    """The float64 cumulative sums of a law's entries, added left to right."""
    return np.fromiter(accumulate(float(p) for p in probs), dtype=np.float64)


def _inverse_cdf(cumulative: np.ndarray, u):
    """The one inverse CDF, of every letter and symbol drawn: min(#{c in cumulative : c <= u}, size - 1)."""
    return np.minimum(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1)


def _composition_depth(cuts: int, s: int) -> int:
    """The largest r >= 1 with cuts**r * s <= _COMPOSED_ENTRIES, or 1 when none fits."""
    r = 1
    while cuts ** (r + 1) * s <= _COMPOSED_ENTRIES:
        r += 1
    return r


def _composed(after: np.ndarray, r: int) -> np.ndarray:
    """The step table composed r times: comp[code, a] is the state r steps after a.

    after[c, a] is the state after a under cut c; code reads the r cuts as
    base-C digits, the first cut most significant, with C = len(after).
    """
    cuts = np.arange(len(after))[None, :, None]
    comp = after
    for _ in range(r - 1):
        comp = after[cuts, comp[:, None, :]].reshape(-1, after.shape[1])
    return comp


def sample_trajectory(spec: MarkovChainSpec, n: int, seed: int) -> DrivingTrajectory:
    """Sample n letters, the first from pi and each next from the Pi row of
    the current state.

    The generator is numpy's PCG64 seeded with the given 64-bit seed; one
    uniform draw per letter is mapped through the inverse CDF (_inverse_cdf)
    of pi or of the current state's row of Pi, in alphabet order, so
    trajectories are bitwise reproducible for equal seeds.

    The letter after state a depends on u only through its cut c in [0, C),
    the number of the C - 1 distinct cumulative values of all rows that are
    <= u.  So r steps compose into one table comp[code * s + a] of
    C**r * s entries, the state r steps after a, with code the r cuts read
    as base-C digits.  r is the largest depth whose table holds at most
    _COMPOSED_ENTRIES entries (at least 1, which is the plain step table);
    f2-markov has C = 5 and s = 4, so r = 4.  The Python loop looks the
    table up once per r letters, and r gathers in the plain table fill in
    the letters between; the letters equal those of the per-letter loop
    bit for bit.

    Uniforms are drawn a span at a time (actions._spans, each span a
    multiple of r on the composed path), which reads the same doubles off
    the stream as one draw of all n, and letters are stored in
    _letter_dtype(size): uint8 for every alphabet of at most 256 letters,
    as every action's driving alphabet is.
    """
    n, seed = _integer(n, "n", 0), _check_seed(seed)
    if not is_stationary(spec):
        warnings.warn("sampling from a non-stationary chain", stacklevel=2)
    rng = np.random.Generator(np.random.PCG64(seed))
    s = spec.alphabet.size
    letters = np.empty(n, dtype=_letter_dtype(s))
    if n == 0:
        return DrivingTrajectory(spec, seed, letters)
    pi_cum = _cumulative(spec.pi)
    if spec._iid:
        # Bernoulli fast path, identical to the generic loop, a span of uniforms at a time
        for lo, hi in _spans(n):
            letters[lo:hi] = _inverse_cdf(pi_cum, rng.random(hi - lo))
        return DrivingTrajectory(spec, seed, letters)
    letters[0] = _inverse_cdf(pi_cum, rng.random())
    # The next letter depends on u only through c, the number of distinct
    # cumulative values <= u: after[c, a] is the letter after state a for
    # such u, picked at -inf (c = 0) or at the c-th smallest value.
    row_cums = [_cumulative(row) for row in spec.Pi]
    edges = np.array(sorted({c for row in row_cums for c in row.tolist()}))
    after = np.array([_inverse_cdf(row, np.concatenate(([-math.inf], edges))) for row in row_cums]).T
    r = _composition_depth(len(after), s)
    comp = _composed(after, r).ravel().tolist()
    weights = len(after) ** np.arange(r - 1, -1, -1)
    for start, stop in _spans(n, start=1, multiple=r):
        # the span's cuts, r to a row; the last row of the last span is
        # padded with c = 0, whose letters are computed but never kept
        size = stop - start
        cuts = np.zeros(-(-size // r) * r, dtype=np.int64)
        cuts[:size] = np.searchsorted(edges, rng.random(size), side="right")
        cuts = cuts.reshape(-1, r)
        # the Python loop visits block starts only: the state before each block
        state = int(letters[start - 1])
        before = [state]
        for base in (cuts @ weights * s)[:-1].tolist():
            state = comp[base + state]
            before.append(state)
        # then r gathers fill each block's letters from the state before it
        block = np.empty_like(cuts)
        state = np.array(before)
        for j in range(r):
            state = block[:, j] = after[cuts[:, j], state]
        letters[start : start + size] = block.ravel()[:size]
    return DrivingTrajectory(spec, seed, letters)


class _BlockTable(NamedTuple):
    """The distinct rows of a table of aligned blocks, in first-occurrence order.

    windows holds one (m, k) array per word, a zero-copy view of a
    contiguous word, whose row i is the word's block i.  Row i lays the
    words' blocks i side by side; distinct row j is row first[j] (see
    _gather), counts[j] is how many rows equal it, and index[i] is the
    distinct row equal to row i.
    """

    windows: tuple[np.ndarray, ...]
    index: np.ndarray
    counts: np.ndarray
    first: np.ndarray


def _gather(table: _BlockTable, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Distinct rows lo .. hi - 1 of the table, as one int64 array."""
    first = table.first[lo:hi]
    return np.concatenate([view[first] for view in table.windows], axis=1, dtype=np.int64)


def _dense_rank(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Each value's rank among the distinct values, and their number."""
    distinct, rank = np.unique(values, return_inverse=True)
    return rank, len(distinct)


def _block_table(words, k: int) -> _BlockTable:
    """Cut equally long letter arrays into their m = len // k aligned k-blocks.

    Row i lays the words' blocks i, w[i * k : i * k + k], side by side; the
    n mod k letters past the last block are left out.  Each row is keyed by
    one int64: its columns read as mixed-radix digits, each offset by its
    column's minimum and counted in its column's span, and the key is
    ranked densely whenever the next column would take it past 2**62, so
    any letters and any k fit.  The blocks stay views of the words,
    w[: m * k].reshape(m, k), in their own dtypes, and only one column at
    a time is widened to int64 to be keyed; the coders read the distinct
    rows they need a span at a time (actions._spans), in the words' own
    dtypes, and pair_counts gathers them as int64 (_gather).
    """
    m = len(words[0]) // k
    views = tuple(w[: m * k].reshape(m, k) for w in words)
    if not m:
        empty = np.empty(0, dtype=np.int64)
        return _BlockTable(views, empty, empty, empty)
    key, span = np.zeros(m, dtype=np.int64), 1
    for column in (view[:, j].astype(np.int64) for view in views for j in range(k)):
        lo = int(column.min())
        width = int(column.max()) - lo + 1
        if span * width > _KEY_LIMIT:
            key, span = _dense_rank(key)
            if span * width > _KEY_LIMIT:
                # a column wider than the limit leaves too little room even
                # after the key is ranked; ranking it too leaves at most m values
                (column, width), lo = _dense_rank(column), 0
        # in place, on the column's own int64 copy
        column -= lo
        key *= width
        key += column
        span *= width
    _, first, inverse, counts = np.unique(key, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return _BlockTable(views, rank[inverse], counts[order], first[order])


def _sequential_sum(values) -> float:
    """Sum values left to right from 0.0, as a block-by-block loop does.

    np.cumsum adds sequentially; np.sum adds pairwise and rounds otherwise.
    """
    return float(np.cumsum(np.concatenate(([0.0], np.asarray(values, dtype=float))))[-1])


class PlainBlockCode(NamedTuple):
    """The plain block coder's bit counts on one driving word.

    table holds the word's distinct full blocks (see _block_table); block
    _gather(table)[j] has exact cylinder probability nums[j] / den.
    """

    total_bits: int
    ideal_bits: float
    m: int
    tail_bits: int
    table: _BlockTable
    nums: np.ndarray
    den: int


def block_code_details(spec: MarkovChainSpec, trajectory, k: int) -> PlainBlockCode:
    """Total and ideal bit counts of the plain per-block Shannon coder.

    Full k-blocks cost ceil(-log2 nu[block]) bits; the n mod k remainder
    symbols are raw coded at ceil(log2 |alphabet|) bits each.  nu is
    computed once per distinct block, as integer numerators over one
    denominator.  The first offending block, in block order, is refused by
    _refuse_blocks, and then a remainder letter outside the alphabet
    raises ValueError.
    """
    k = _integer(k, "block length", 1)
    letters = _integers(trajectory)
    n = len(letters)
    m = n // k
    table = _block_table((letters,), k)
    nums, den = np.empty(len(table.first), dtype=object), _cylinder_den(spec, k)
    bits = np.empty(len(table.first), dtype=np.int64)
    for lo, hi in _spans(len(table.first)):
        rows = table.windows[0][table.first[lo:hi]]
        _refuse_blocks(spec, rows)
        nums[lo:hi] = _cylinder_numerators(spec, rows)[0]
        bits[lo:hi] = _shannon_bits(nums[lo:hi], den)
    _integers(letters[m * k :], spec.alphabet.size, "driving letters")
    total = int(table.counts @ bits)
    ideal = _sequential_sum(np.array([-math.log2(num / den) for num in nums.tolist()])[table.index])
    raw = (spec.alphabet.size - 1).bit_length()
    tail_bits = (n - m * k) * raw
    return PlainBlockCode(total + tail_bits, ideal, m, tail_bits, table, nums, den)


def block_code_rate(spec: MarkovChainSpec, trajectory, k: int) -> float:
    """Bits per symbol spent by the plain block coder on the trajectory."""
    letters = _integers(trajectory)
    return block_code_details(spec, letters, k).total_bits / len(letters) if len(letters) else 0.0
