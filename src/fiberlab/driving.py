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
and score its distinct rows a span at a time (actions._spans), in table
order, keeping one value per row.  The plain coder (_plain_code) prices
the distinct blocks of a table's driving columns, its contexts, once
each, in a word's own table or a name's pair table alike.  Float sums
are taken in block order a span of blocks at a time, each span from the
sum before it, so they add as a block-by-block loop adds.

Each law's integer numerators over its least common denominator are
cached on its spec, and a spec is validated on them: entries are
nonnegative, each law's numerators sum to its denominator, and pi is
stationary when pi's numerators times Pi's equal pi's times den(Pi).  The
cylinder probabilities of k-blocks share one denominator,
den(pi) * lcm(den Pi)**(k-1), so a table of blocks is scored
as integer numerators over it (_cylinder_numerators), in Python ints that
cannot overflow, or, where it lies below 2**53 as the plain coder reads
them, in int64 (kraft._numerator_dtype); cylinder_prob is the one-row
case.  A Shannon length is read off the bit lengths of numerator and
denominator (np.frexp's exponent in int64), and an ideal length
is log2(num / den), which equals log2 of the Fraction's float because int
division is correctly rounded.  Which blocks are positive is read off one
support per chain, pi > 0 and Pi > 0 (MarkovChainSpec._support), by every
coder (_block_faults, before any numerator) and by the chain diagnostics,
and every coder refuses its first offending block by _refuse_blocks.

Every sampled letter and orbit-name symbol is read off its uniform by one
inverse CDF, _inverse_cdf, which builds a guide table once per law and
reads each uniform with one lookup, searching only the few that land in a
bucket a cumulative value cuts.  The Markov sampler steps a transition
table: the next letter depends on a uniform only through the interval of
distinct cumulative values it falls in, and that interval is the same
inverse CDF, of the distinct values with a +inf sentinel, read off a span
of uniforms at a time.  The table composes: r steps are one lookup of
(r intervals, state), so a Python loop finds the state at every r-th step
only and r vectorized gathers fill in the letters between.  Uniforms are
drawn a span at a time from the one PCG64 stream, which gives the same
doubles as one draw of all of them, and letters are kept in the smallest
dtype that holds them (_letter_dtype), uint8 for every action's alphabet.

The stream is fiberlab's own (_Uniforms), bit-identical to numpy's
Generator(PCG64(seed)).random, which the tests keep as its oracle.  It
jumps the 128-bit state a span at a time by two tables built once per
process (_jumps), and it spares every run the numpy.random import, about
2.5 MB and 6 ms, and the OpenSSL libcrypto that numpy.random would load
through secrets and hmac.
"""

from __future__ import annotations

import math
import operator
import warnings
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .actions import INVERSE, _check_seed, _index_dtype, _integer, _integers, _rank, _spans
from .errors import ModelMismatchError
from .kraft import _numerator_dtype, _shannon_bits
from .records import FrozenRecord
from .words import Alphabet, Word

# the end of the message that refuses an inexact probability sum
_EXACT_HINT = ' (a float is read as its binary value; give exact strings such as "1/10")'
# a block table's keys, tagged with their rows, stay at or below this, so they fit an int64
_KEY_LIMIT = 2 ** 62
# entries the sampler's composed step table may hold: it resolves r letters
# per lookup, for the largest r whose table of C**r * s entries fits
_COMPOSED_ENTRIES = 2 ** 12
# an inverse CDF's guide table has a power-of-two number of buckets, at
# least this many and at least _BUCKETS_PER_CUT per cumulative value, so
# that few uniforms land in a bucket with a cumulative value inside it
_GUIDE_BUCKETS = 2 ** 8
_BUCKETS_PER_CUT = 4
# numpy's PCG64 (O'Neill 2014): a 128-bit LCG with this multiplier, stepped
# before each output, and seeded by SeedSequence's hash of 32-bit words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1


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


class MarkovChainSpec(FrozenRecord):
    """Initial vector pi and row-stochastic matrix Pi over a driving alphabet.

    A Bernoulli chain is the special case where every row of Pi equals one
    fixed distribution.  A validated record (records.FrozenRecord): the
    laws are read as Fractions and checked once; the integer forms cached
    on a spec are no fields, so ==, hash and repr read only the three laws.
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
    size = len(starts)
    outside = ((rows < 0) | (rows >= size)).any(axis=1)
    if outside.any():
        rows = np.where(outside[:, None], 0, rows)  # index safely; outside rows are flagged
    # read a column at a time, as the coders hand their blocks in (rows.T):
    # each step (letter, next letter) is one intp index into moves, flattened
    columns, follows = rows.T, moves.ravel()
    allowed = starts.take(columns[0])
    for letter, after in zip(columns[:-1], columns[1:]):
        step = letter.astype(np.intp)
        step *= size
        step += after
        allowed &= follows.take(step)
    return outside, ~(outside | allowed)


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
    denominator of x's entries.  The numerators are products of the
    integer numerators of pi and Pi in kraft._numerator_dtype(den): int64
    below 2**53, where no partial product exceeds den, else Python ints,
    so none can overflow.
    """
    den = _cylinder_den(spec, rows.shape[1])
    dtype = _numerator_dtype(den)
    nums = spec._pi_numerators[0].astype(dtype)[rows[:, 0]]
    if rows.shape[1] > 1:
        # Pi's numerators fit den's dtype only when a block takes a step
        steps = spec._Pi_numerators[0].astype(dtype)
        for j in range(1, rows.shape[1]):
            nums = nums * steps[rows[:, j - 1], rows[:, j]]
    return nums, den


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
    return Fraction(int(nums[0]), den)


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
    """Whether the chain's runs live on one communicating class: the states reachable from the
    support of pi are strongly connected in the graph of positive transitions.

    A state no run reaches does not count, so a stationary chain whose pi
    vanishes off one closed class is irreducible.  The reachability closure
    over paths of at most s steps is (I + moves)**s in boolean arithmetic;
    the reached states are its rows' union over pi > 0, and no path between
    two of them leaves them.
    """
    starts, moves = spec._support
    closure = np.linalg.matrix_power(moves | np.eye(len(moves), dtype=bool), len(moves))
    reached = closure[starts].any(axis=0)
    return bool(closure[np.ix_(reached, reached)].all())


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


class DrivingTrajectory(FrozenRecord):
    """A sampled finite trajectory of the driving chain.

    letters holds one letter index per step, in _letter_dtype(size): uint8
    for every alphabet an action takes, which has at most 256 letters
    (actions.check_driving_size).  A record (records.FrozenRecord), not a
    NamedTuple, as len() is its number of letters.
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


def _inverse_cdf(cumulative: np.ndarray):
    """The one inverse CDF, of every letter and symbol drawn, as a function of a float64 array of uniforms:
    u maps to min(#{c in cumulative : c <= u}, size - 1), in _letter_dtype(size).

    The function reads u off a guide table (Chen and Asau 1974; Devroye
    1986), built here once per law.  G, a power of two, is at least
    _GUIDE_BUCKETS and at least _BUCKETS_PER_CUT per cumulative value, so
    u * G is exact and bucket j = floor(u * G) spans [j / G, (j + 1) / G);
    bucket G takes u = 1.0 and anything above it.  Bucket j holds the
    answer at its left edge, which is the answer for every u in it unless
    a cumulative value lies strictly inside it.  Such buckets are flagged,
    and only the uniforms that land in one are searched for among the
    cumulative values.  So every answer is exact, and a law of L symbols
    flags at most L of its 4 L or more buckets.
    """
    size = len(cumulative)
    buckets = max(_GUIDE_BUCKETS, 2 ** (_BUCKETS_PER_CUT * size - 1).bit_length())
    # j / G is exact, so the table holds the exact answer at each left edge
    guide = np.minimum(np.searchsorted(cumulative, np.arange(buckets + 1) / buckets, side="right"), size - 1)
    guide = guide.astype(_letter_dtype(size))
    # a value c lies strictly inside bucket min(floor(c * G), G) unless c * G is that bucket's edge
    scaled = cumulative * buckets
    inside = np.minimum(np.floor(scaled), buckets)
    flagged = np.zeros(buckets + 1, dtype=bool)
    flagged[inside[scaled != inside].astype(np.intp)] = True

    def read(u: np.ndarray) -> np.ndarray:
        bucket = (u * buckets).astype(np.intp)
        letters = guide.take(bucket, mode="clip")
        searched = flagged.take(bucket, mode="clip")
        if searched.any():
            letters[searched] = np.minimum(np.searchsorted(cumulative, u[searched], side="right"), size - 1)
        return letters

    return read


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


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash, whose constant steps by mult at each call."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _seed_state(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, np.uint64), in Python ints, for a seed below 2**64.

    The seed's 32-bit words, least significant first, are hashed into a
    pool of four words, and every pool word is mixed with the hash of
    every other.  Eight words hashed out of the pool, read in pairs
    little-endian, are the four 64-bit words.
    """
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_in = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hash_in(word) for word in words + [0] * (4 - len(words))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hash_in(pool[src])) & _M32
                pool[dst] = mixed ^ mixed >> 16
    hash_out = _hasher(0x8B51F9DD, 0x58F38DED)
    halves = [hash_out(pool[i % 4]) for i in range(8)]
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


def _halves(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, ...]:
    """128-bit values held as uint64 (hi, lo), with lo's 32-bit halves, as _mul_add reads them."""
    return hi, lo, lo >> np.uint64(32), lo & np.uint64(_M32)


def _mul_add(v, k: int, d, hi: np.ndarray, lo: np.ndarray, t: np.ndarray, u: np.ndarray, carry: np.ndarray) -> None:
    """hi, lo = the 64-bit halves of v * k + d mod 2**128, elementwise, by in-place ufuncs.

    v is a _halves tuple of arrays, k a 128-bit int and d a (hi, lo) pair
    of ints or of uint64 arrays; t, u (uint64) and carry (bool) are scratch
    as long as v.  The high word of the low halves' product is summed from
    the four products of their 32-bit halves, each exact in uint64: with
    v_lo = v1 2**32 + v0 and k_lo = k1 2**32 + k0, it is v1 k1 + (v0 k1 >> 32)
    + (v1 k0 + (v0 k1 & _M32) + (v0 k0 >> 32) >> 32), and the inner sum stays
    below 2**64.  The other cross products wrap mod 2**64 as they should.
    """
    v_hi, v_lo, v1, v0 = v
    k_hi, k_lo, k1, k0 = k >> 64 & _M64, k & _M64, k >> 32 & _M32, k & _M32
    np.multiply(v0, k0, out=t)
    np.right_shift(t, 32, out=t)
    np.multiply(v0, k1, out=u)
    np.right_shift(u, 32, out=hi)
    np.bitwise_and(u, _M32, out=u)
    np.add(t, u, out=t)
    np.multiply(v1, k0, out=u)
    np.add(t, u, out=t)
    np.right_shift(t, 32, out=t)
    np.add(hi, t, out=hi)
    for a, b in ((v1, k1), (v_lo, k_hi), (v_hi, k_lo)):
        np.multiply(a, b, out=t)
        np.add(hi, t, out=hi)
    np.multiply(v_lo, k_lo, out=lo)
    d_hi, d_lo = d
    np.add(lo, d_lo, out=lo)
    np.less(lo, d_lo, out=carry)
    np.add(hi, carry, out=hi)
    np.add(hi, d_hi, out=hi)


@cache
def _jumps(span: int) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """PCG64's jump tables over one span, built once per span length: A_j = M**j as
    _halves and G_j = the sum of M**i over i < j as (hi, lo), for j = 1..span, mod 2**128.

    The state j steps after s is A_j * s + inc * G_j.  The tables double:
    A_{m+j} = M**m * A_j and G_{m+j} = M**m * G_j + G_m.
    """
    a_hi, a_lo, g_hi, g_lo, t, u = (np.empty(span, dtype=np.uint64) for _ in range(6))
    carry = np.empty(span, dtype=bool)
    a_hi[0], a_lo[0], g_hi[0], g_lo[0] = _PCG_MULT >> 64, _PCG_MULT & _M64, 0, 1
    # the tables hold j = 1..m, power is M**m and total is G_m
    m, power, total = 1, _PCG_MULT, 1
    while m < span:
        j = min(m, span - m)
        for hi, lo, add in ((a_hi, a_lo, 0), (g_hi, g_lo, total)):
            _mul_add(_halves(hi[:j], lo[:j]), power, (add >> 64, add & _M64),
                     hi[m : m + j], lo[m : m + j], t[:j], u[:j], carry[:j])
        m, power, total = m + j, power * power & _M128, (power + 1) * total & _M128
    tables = _halves(a_hi, a_lo), g_hi, g_lo
    # every stream of this span shares them
    for table in (*tables[0], g_hi, g_lo):
        table.flags.writeable = False
    return tables


class _Uniforms:
    """A uniform stream bit-identical to numpy's Generator(PCG64(seed)).random, however the requests are split.

    The state is seeded from _seed_state(seed) as PCG64 seeds it, and a
    request is served a span of the jump tables (_jumps) at a time: the
    span's states are A_j * s + C_j, with s the state before the span and
    C_j = inc * G_j, computed once per stream.  Each uniform is the state's
    XSL-RR output, the xor of its halves rotated right by its top 6 bits,
    shifted right 11 and scaled by 2**-53.  The tables span one _spans
    span, _CHUNK uniforms, as read when the stream is made, and every
    array a span needs is held by the stream, so a request allocates only
    the doubles it returns.
    """

    def __init__(self, seed: int):
        _, span = next(_spans())
        self._a, g_hi, g_lo = _jumps(span)
        s_hi, s_lo, i_hi, i_lo = _seed_state(seed)
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        self._state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
        self._hi, self._lo, self._c_hi, self._c_lo, self._t, self._u = (
            np.empty(span, dtype=np.uint64) for _ in range(6))
        self._carry = np.empty(span, dtype=bool)
        _mul_add(_halves(g_hi, g_lo), inc, (0, 0), self._c_hi, self._c_lo, self._t, self._u, self._carry)

    def random(self, size: int) -> np.ndarray:
        """The next size uniforms in [0, 1), as a new float64 array."""
        out = np.empty(size)
        span = len(self._hi)
        for start in range(0, size, span):
            m = min(span, size - start)
            hi, lo, t, u, carry = (x[:m] for x in (self._hi, self._lo, self._t, self._u, self._carry))
            _mul_add([x[:m] for x in self._a], self._state, (self._c_hi[:m], self._c_lo[:m]), hi, lo, t, u, carry)
            self._state = int(hi[-1]) << 64 | int(lo[-1])
            # numpy shifts a uint64 left by 64 to 0, so a rotation by 0 ors x with 0
            np.bitwise_xor(hi, lo, out=lo)
            np.right_shift(hi, 58, out=hi)
            np.right_shift(lo, hi, out=t)
            np.subtract(64, hi, out=hi)
            np.left_shift(lo, hi, out=lo)
            np.bitwise_or(t, lo, out=t)
            np.right_shift(t, 11, out=t)
            # below 2**53, so its int64 view, which numpy converts faster, is exact as a double
            np.multiply(t.view(np.int64), 2.0 ** -53, out=out[start : start + m])
        return out


def sample_trajectory(spec: MarkovChainSpec, n: int, seed: int) -> DrivingTrajectory:
    """Sample n letters, the first from pi and each next from the Pi row of
    the current state.

    The generator is _Uniforms, bit for bit numpy's
    Generator(PCG64(seed)).random for the given 64-bit seed; one
    uniform draw per letter is mapped through the inverse CDF (_inverse_cdf)
    of pi or of the current state's row of Pi, in alphabet order, so
    trajectories are bitwise reproducible for equal seeds.  Each law's
    guide table is built once per call.

    The letter after state a depends on u only through its cut c in [0, C),
    the number of the C - 1 distinct cumulative values of all rows that are
    <= u, read off the inverse CDF of those values with a +inf sentinel
    appended.  So r steps compose into one table comp[code * s + a] of
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
    rng = _Uniforms(seed)
    s = spec.alphabet.size
    letters = np.empty(n, dtype=_letter_dtype(s))
    if n == 0:
        return DrivingTrajectory(spec, seed, letters)
    pi_letter = _inverse_cdf(_cumulative(spec.pi))
    if spec._iid:
        # Bernoulli fast path, identical to the generic loop, a span of uniforms at a time
        for lo, hi in _spans(n):
            letters[lo:hi] = pi_letter(rng.random(hi - lo))
        return DrivingTrajectory(spec, seed, letters)
    letters[:1] = pi_letter(rng.random(1))
    # The next letter depends on u only through c, the number of distinct
    # cumulative values <= u: after[c, a] is the letter after state a for
    # such u, picked at the c-th smallest value, or at 0.0 for c = 0: no u
    # reaches c = 0 when 0.0 is among the values, and when it is not, every
    # row reads letter 0 there, as below all of them.  c is the inverse CDF
    # of the values with +inf appended, whose clip to the last index never
    # bites, as no uniform reaches +inf.
    row_cums = [_cumulative(row) for row in spec.Pi]
    edges = np.array(sorted({c for row in row_cums for c in row.tolist()}))
    picks = np.concatenate(([0.0], edges))
    after = np.array([_inverse_cdf(row)(picks) for row in row_cums]).T
    cut = _inverse_cdf(np.append(edges, math.inf))
    r = _composition_depth(len(after), s)
    comp = _composed(after, r).ravel().tolist()
    weights = len(after) ** np.arange(r - 1, -1, -1)
    for start, stop in _spans(n, start=1, multiple=r):
        # the span's cuts, r to a row; the last row of the last span is
        # padded with c = 0, whose letters are computed but never kept
        size = stop - start
        cuts = np.zeros(-(-size // r) * r, dtype=np.int64)
        cuts[:size] = cut(rng.random(size))
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
    distinct row equal to row i.  contexts[j] numbers distinct row j's
    block of the first word, windows[0][first[j]], among the distinct
    blocks of that word, in the order of their keys.  index, counts,
    first and contexts are held in actions._index_dtype(m), int32 while
    m < 2**31.
    """

    windows: tuple[np.ndarray, ...]
    index: np.ndarray
    counts: np.ndarray
    first: np.ndarray
    contexts: np.ndarray


def _gather(table: _BlockTable, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Distinct rows lo .. hi - 1 of the table, as one int64 array."""
    first = table.first[lo:hi]
    return np.concatenate([view.take(first, axis=0) for view in table.windows], axis=1, dtype=np.int64)


def _placed(values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The array with values[j] at place at[j], for a permutation at, scattered a span at a time."""
    placed = np.empty_like(values)
    for lo, hi in _spans(len(at)):
        placed[at[lo:hi]] = values[lo:hi]
    return placed


def _block_table(words, k: int) -> _BlockTable:
    """Cut equally long letter arrays into their m = len // k aligned k-blocks.

    Row i lays the words' blocks i, w[i * k : i * k + k], side by side; the
    n mod k letters past the last block are left out.  Each row is keyed by
    one int64: its columns read as mixed-radix digits, the first word's
    most significant, each offset by its column's minimum and counted in
    its column's span, and the key is ranked densely (actions._rank)
    whenever the next column would take it past 2**62, so any letters and
    any k fit.  The blocks stay views of the words, w[: m * k].reshape(m,
    k), in their own dtypes, and each column is added into the key from
    its view.  The coders read the distinct rows they need a span at a
    time (actions._spans), in the words' own dtypes, and pair_counts
    gathers them as int64 (_gather).

    The rows are numbered from one in-place sort of their keys, each tagged
    with its row, key << bits | row with bits = (m - 1).bit_length(), the
    key ranked densely first when the tag would take it past 2**62.  The
    tagged keys are distinct, so their order is fixed and no result
    depends on how a sort orders equal keys; each distinct key's run of
    sorted keys begins at its least row, its first row.  A mask of the
    first rows numbers the distinct keys in first-occurrence order by a
    running count, and each row takes the number of its key's first row.
    Rows with equal first-word blocks have neighbouring keys, since those
    digits are most significant and a dense rank keeps the order; so the
    contexts are numbered in key order, where the part of each distinct
    key that the first word's columns made differs from its neighbour's.
    Every array as long as the table but the key and its first word's
    part is held in actions._index_dtype(m), so that no more than about 25
    bytes per row are alive at once (3.3 bytes per letter at k = 8).
    """
    m = len(words[0]) // k
    views = tuple(w[: m * k].reshape(m, k) for w in words)
    dtype = _index_dtype(m)
    if not m:
        empty = np.empty(0, dtype=dtype)
        return _BlockTable(views, empty, empty, empty, empty)
    key, span = np.zeros(m, dtype=np.int64), 1
    for word, view in enumerate(views):
        for j in range(k):
            column = view[:, j] if np.can_cast(view.dtype, np.int64) else view[:, j].astype(np.int64)
            lo = int(column.min())
            width = int(column.max()) - lo + 1
            if span * width > _KEY_LIMIT:
                span = len(_rank(key))
                if span * width > _KEY_LIMIT:
                    # a column wider than the limit leaves too little room even
                    # after the key is ranked; ranking a copy of it leaves at most m values
                    column = column.astype(np.int64)
                    width, lo = len(_rank(column)), 0
            # in place; a sum past int64 on the way wraps back, as the key stays below span * width
            key *= width
            key += column
            key -= lo
            span *= width
        if not word and len(views) > 1:
            # the first word's part of the key, which numbers its blocks
            context = key.copy()
    bits = (m - 1).bit_length()
    if span << bits > _KEY_LIMIT:
        _rank(key)
    key <<= bits
    for lo, hi in _spans(m):
        key[lo:hi] |= np.arange(lo, hi)
    key.sort()
    # each sorted key's row, then where a distinct key's run begins
    rows = np.empty(m, dtype=dtype)
    for lo, hi in _spans(m):
        rows[lo:hi] = key[lo:hi] & ((1 << bits) - 1)
    key >>= bits
    new = np.empty(m, dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    del key
    # the first row of each distinct key, in key order; numpy reads a whole
    # int32 index array as intp, so every gather and scatter by one takes
    # a span of it at a time
    leads = rows[new]
    size = len(leads)
    # a distinct key starts a new context where the first word's part of it changes
    if len(views) > 1:
        sorted_contexts = np.zeros(size, dtype=dtype)
        for lo, hi in _spans(size):
            part = context.take(leads[max(lo - 1, 0) : hi])
            np.not_equal(part[1:], part[:-1], out=sorted_contexts[max(lo, 1) : hi], casting="unsafe")
        del context, part
        np.cumsum(sorted_contexts, dtype=dtype, out=sorted_contexts)
    else:
        sorted_contexts = np.arange(size, dtype=dtype)
    # each row's distinct key numbered in key order, and each key's count,
    # run by run: a span of sorted keys runs over a range of distinct keys
    index = np.empty(m, dtype=dtype)
    sorted_counts = np.zeros(size, dtype=dtype)
    last = -1
    for lo, hi in _spans(m):
        runs = np.cumsum(new[lo:hi], dtype=dtype)
        runs += last
        index[rows[lo:hi]] = runs
        start, last = int(runs[0]), int(runs[-1])
        runs -= start
        sorted_counts[start : last + 1] += np.bincount(runs)
    del rows, new, runs
    # renumber the distinct keys in first-occurrence order, by a running
    # count over the mask of their first rows
    count = np.zeros(m, dtype=dtype)
    for lo, hi in _spans(size):
        count[leads[lo:hi]] = 1
    np.cumsum(count, dtype=dtype, out=count)
    numbers = np.empty(size, dtype=dtype)
    for lo, hi in _spans(size):
        numbers[lo:hi] = count.take(leads[lo:hi])
    del count
    numbers -= 1
    first = _placed(leads, numbers)
    del leads
    contexts = _placed(sorted_contexts, numbers)
    del sorted_contexts
    counts = _placed(sorted_counts, numbers)
    del sorted_counts
    for lo, hi in _spans(m):
        index[lo:hi] = numbers.take(index[lo:hi])
    return _BlockTable(views, index, counts, first, contexts)


def _sequential_sum(values, start: float = 0.0) -> float:
    """start plus values, added left to right, as a block-by-block loop adds them.

    np.cumsum adds sequentially; np.sum adds pairwise and rounds otherwise.
    A sum taken a span at a time, each span from the last one's sum, adds
    the same values in the same order, so it rounds as one sum does.
    """
    return float(np.cumsum(np.concatenate(([start], np.asarray(values, dtype=float))))[-1])


class PlainBlockCode(NamedTuple):
    """The plain block coder's bit counts: Shannon lengths with the raw tail, and ideal lengths."""

    total_bits: int
    ideal_bits: float


def _plain_code(spec: MarkovChainSpec, table: _BlockTable, tail: int) -> tuple[PlainBlockCode, np.ndarray, np.ndarray]:
    """The plain coder on the driving columns, windows[0], of a checked table: a word's or a name's pairs.

    Each distinct context's (table.contexts) numerator is formed once,
    from its first block, and its Shannon length is read off that
    numerator a span of distinct rows at a time.  Returns the
    PlainBlockCode, with tail letters raw coded, then each context's
    cylinder numerator over _cylinder_den(spec, k), in
    kraft._numerator_dtype of that denominator, and its log2 nu.
    """
    view, contexts = table.windows[0], table.contexts
    size = int(contexts.max()) + 1 if len(contexts) else 0
    rows = np.full(size, len(view), dtype=table.first.dtype)
    np.minimum.at(rows, contexts, table.first)
    den = _cylinder_den(spec, view.shape[1])
    nums, log2nu = np.empty(size, dtype=_numerator_dtype(den)), np.empty(size)
    for lo, hi in _spans(size):
        nums[lo:hi] = _cylinder_numerators(spec, view.take(rows[lo:hi], axis=0))[0]
        log2nu[lo:hi] = [math.log2(num / den) for num in nums[lo:hi].tolist()]
    # the first rows go once the numerators are formed, and each distinct
    # row's Shannon length is read off its context's numerator as the rows
    # are summed, so no length per context is held
    del rows
    total = tail * (spec.alphabet.size - 1).bit_length()
    for lo, hi in _spans(len(contexts)):
        total += int(table.counts[lo:hi] @ _shannon_bits(nums.take(contexts[lo:hi]), den))
    ideal = 0.0
    for lo, hi in _spans(len(table.index)):
        ideal = _sequential_sum(-log2nu.take(contexts.take(table.index[lo:hi])), ideal)
    return PlainBlockCode(total, ideal), nums, log2nu


def block_code_details(spec: MarkovChainSpec, trajectory, k: int) -> PlainBlockCode:
    """Total and ideal bit counts of the plain per-block Shannon coder.

    Full k-blocks cost ceil(-log2 nu[block]) bits; the n mod k remainder
    symbols are raw coded at ceil(log2 |alphabet|) bits each.  The first
    offending block, in block order, is refused by _refuse_blocks, and then
    a remainder letter outside the alphabet raises ValueError.
    """
    k = _integer(k, "block length", 1)
    letters = _integers(trajectory)
    table = _block_table((letters,), k)
    for lo, hi in _spans(len(table.first)):
        _refuse_blocks(spec, table.windows[0].take(table.first[lo:hi], axis=0))
    m = len(table.index)
    _integers(letters[m * k :], spec.alphabet.size, "driving letters")
    return _plain_code(spec, table, len(letters) - m * k)[0]


def block_code_rate(spec: MarkovChainSpec, trajectory, k: int) -> float:
    """Bits per symbol spent by the plain block coder on the trajectory."""
    letters = _integers(trajectory)
    return block_code_details(spec, letters, k).total_bits / len(letters) if len(letters) else 0.0
