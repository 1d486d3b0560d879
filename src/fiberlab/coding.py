"""Contextual prefix-free block coding of orbit names and the derived
complexity estimators.

For block length k, every driving k-block u of positive probability gets
its own prefix-free code over the fiber k-blocks v of positive conditional
probability, with Shannon lengths ceil(-log2 mu(v | context u)).  A block
v is consistent with u when it repeats a symbol wherever u's walk revisits
a coordinate, and then mu(v | u) is the product of p over the d symbols v
reads at its d first visits.  So the code depends on u only through d:
the canonical code sorts blocks by (length, v), two consistent blocks
first differ at a first visit (every other position copies an earlier
one), so v's order is the lexicographic order of its first-visit symbols,
and lengths depend on those symbols alone.  The family therefore keeps one
code per count d, over the assignments a in F^d of symbols to first
visits, and the codeword of v is that of a = v at its first visits.  At
most k codes are built, each the first time a block with its count
occurs, which keeps long-horizon runs cheap.

An assignment is held as its rank, the integer with digits a in base |F|,
first symbol most significant, so ranks order assignments
lexicographically and a count code is a set of arrays indexed by rank:
codewords, lengths, log2 mu and mu.  mu is exact, an integer numerator
over the code's one denominator lcm(den p)**d, so lengths, the length
bound and the joint coder's lengths are integer computations.

The cost of a block depends on its (u, v) pair alone, so the coders work
from one table of a name's distinct aligned pairs in first-occurrence
order (driving._block_table), built once per cell.  One checked pass
(BlockCodebookFamily._checked_table), which decode runs on its contexts,
checks, patterns and ranks the rows a span at a time (actions._spans),
keeping only each pair's first-visit count and rank: encode joins
codewords by block index, the coded length is counts times codeword
lengths, the cross entropy sums counts times log2 mu over the whole
table, and the joint coder reads its lengths off the same pairs.  Spans
are checked in order, so the first offending row raises, as a
block-by-block loop would, by the plain coder's refusal too
(driving._refuse_blocks); letters are read by actions._integers, the
letters after the last block too.  The coders sample nothing: both
conditional_rate and ar_decomposition_check take a name and a family.

A block's first visits are read off a walk across it.  Group coordinates
cancel on the right, so two steps of a block visit the same coordinate of
the block's own walk exactly when they visit the same coordinate of any
longer walk that contains the block, and free-monoid coordinates never
repeat.  A name's blocks therefore take their patterns from the name's
walk, and decode walks the driving word once; only codebook_for walks a
lone context.  Positivity is read off the chain's support, by the plain
coder's refusal (driving._refuse_blocks); the exact context probability nu is
computed only by the plain coder, as integer numerators over one
denominator, and the joint coder reuses them:
a pair's context is the plain table's row of the pair's first block, and
its joint length is read off nu's numerator times mu's over the product
of their denominators.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .actions import _integer, _integers, _real, _spans, check_driving_size, walk

# coding calls neither sample_trajectory nor emit_name; bench/child.py's tracer wraps both here too
from .driving import (
    MarkovChainSpec,
    _block_table,
    _gather,
    _letter_dtype,
    _refuse_blocks,
    _sequential_sum,
    block_code_details,
    sample_trajectory,
)
from .errors import MalformedStreamError
from .fiber import FiberSystemSpec, OrbitName, emit_name, exact_rate_or_none, information_function
from .kraft import BinaryCodebook, _shannon_bits, canonical_kraft_code, shannon_length

_TOL = 1e-12
# the information-function floor gates a verdict from this horizon on
UNDERSHOOT_MIN_N = 1000


class _CountCode:
    """The code shared by all blocks with d first visits, indexed by rank.

    Entry r belongs to the assignment a in F^d of rank r: its codeword,
    its length max(1, ceil(-log2 mu)), log2 mu, and mu = prod p[a_j]
    exactly, as the integer numerators[r] over den = lcm(den p)**d.
    log2(num / den) equals log2 of the reduced Fraction's float, since int
    division is correctly rounded.
    """

    __slots__ = ("words", "lengths", "log2mu", "numerators", "den", "decode_map", "lengths_sorted")

    def __init__(self, spec: FiberSystemSpec, d: int):
        p_nums, p_den = spec._p_numerators
        # prefix products: appending a symbol as the least significant digit keeps rank order
        nums = [1]
        for _ in range(d):
            nums = [x * q for x in nums for q in p_nums]
        den = p_den ** d
        # clamp covers the degenerate one-symbol fiber where mu = 1
        lengths = [max(1, _shannon_bits(x, den)) for x in nums]
        entries = canonical_kraft_code(dict(enumerate(lengths))).entries
        self.words = np.empty(len(nums), dtype=object)
        self.words[:] = [entries[r] for r in range(len(nums))]
        self.lengths = np.array(lengths, dtype=np.int64)
        self.log2mu = np.array([math.log2(x / den) for x in nums])
        self.numerators = np.empty(len(nums), dtype=object)
        self.numerators[:] = nums
        self.den = den
        self.decode_map = {w: r for r, w in enumerate(self.words.tolist())}
        self.lengths_sorted = sorted(set(lengths))


def _patterns(first: np.ndarray) -> np.ndarray:
    """pattern[r, i] = the smallest j with first[r, j] == first[r, i], for walks first[r] across blocks."""
    return (first[:, :, None] == first[:, None, :]).argmax(axis=2)


def _present(counts: np.ndarray) -> list[int]:
    """The distinct first-visit counts, ascending.

    A bare np.unique would import numpy.ma on its first call (numpy 2.4
    tests for a masked array), about 15 ms and 1.25 MB of RSS in one run.
    """
    return np.flatnonzero(np.bincount(counts)).tolist()


def _place_values(pattern: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each block's first visits lie, and each position's weight in the block's rank.

    A block with d first visits that reads a_0 .. a_{d-1} there has rank
    sum a_j size**(d-1-j).  Every position carries the weight of the first
    visit it copies, so the rank is the sum of block * weight over first
    visits and block = rank // weight % size at every position.
    """
    first_visit = pattern == np.arange(pattern.shape[1])
    slots = np.cumsum(first_visit, axis=1)
    return first_visit, size ** (slots[:, -1:] - np.take_along_axis(slots, pattern, axis=1))


class BlockCodebookFamily:
    """The per-context codebooks for one (fiber system, driving chain, k).

    A context's codebook is the count code of its number d of first
    visits, read through its first-visit pattern (see the module
    docstring), so the family keeps one memo, d -> code, filled the first
    time a block with count d is checked.  It never holds more than k
    codes, the code for d having |F|**d entries.
    """

    def __init__(self, k: int, fiber_spec: FiberSystemSpec, driving_spec: MarkovChainSpec):
        k = _integer(k, "block length", 1)
        check_driving_size(fiber_spec.action_kind, driving_spec.alphabet.size)
        self.k = k
        self.fiber_spec = fiber_spec
        self.driving_spec = driving_spec
        self.fiber_bits = (fiber_spec.fiber_alphabet.size - 1).bit_length()
        self._count_codes: dict[int, _CountCode] = {}

    def _codes(self, rows: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Check table rows and return each row's first-visit count and pattern.

        A row is a context u, or a pair u + v, of k letters each; first[r]
        is a walk across row r's driving block.  The first offending row
        raises, by driving._refuse_blocks: a fiber block is inconsistent
        when it gives one coordinate two symbols or uses a letter outside
        the fiber alphabet.  The count code of every row is built before
        this returns.
        """
        k = self.k
        v = rows[:, k:]
        pattern = _patterns(first)
        # context rows have no v; cut to v's width, the pattern checks nothing there
        copies = np.take_along_axis(v, pattern[:, : v.shape[1]], axis=1)
        outside_fiber = (v < 0) | (v >= self.fiber_spec.fiber_alphabet.size)
        _refuse_blocks(self.driving_spec, rows, k, (outside_fiber | (copies != v)).any(axis=1))
        counts = (pattern == np.arange(k)).sum(axis=1)
        for d in _present(counts):
            if d not in self._count_codes:
                self._count_codes[d] = _CountCode(self.fiber_spec, d)
        return counts, pattern

    def _checked_table(self, words, first: np.ndarray):
        """Table the k-blocks of words, (driving,) or (driving, fiber), and check every row.

        Each row reads its block's walk off first, a walk of the driving
        word.  Returns the table and, per row, its first-visit count d and
        the rank in the count code for d of its fiber block (0 for a context).
        """
        k = self.k
        table = _block_table(words, k)
        counts = np.empty(len(table.first), dtype=np.int64)
        ranks = np.zeros_like(counts)
        for lo, hi in _spans(len(table.first)):
            rows = _gather(table, lo, hi)
            counts[lo:hi], pattern = self._codes(rows, first[table.first[lo:hi, None] * k + np.arange(k)])
            if len(words) > 1:
                first_visit, place = _place_values(pattern, self.fiber_spec.fiber_alphabet.size)
                ranks[lo:hi] = np.where(first_visit, rows[:, k:] * place, 0).sum(axis=1)
        return table, counts, ranks

    def _read(self, counts: np.ndarray, ranks: np.ndarray, field: str) -> np.ndarray:
        """One field of _CountCode per row, at the row's rank in its count code."""
        out = None
        for d in _present(counts):
            values = getattr(self._count_codes[d], field)
            if out is None:
                out = np.empty(len(counts), dtype=values.dtype)
            rows = counts == d
            out[rows] = values[ranks[rows]]
        return np.empty(0) if out is None else out

    def codebook_for(self, u) -> BinaryCodebook:
        """Context u's codebook over full fiber k-blocks, expanded from its count code."""
        u = _integers(u)
        if len(u) != self.k:
            raise ValueError(f"context must have length {self.k}")
        counts, pattern = self._codes(u[None, :], walk(self.fiber_spec.action_kind, u).first[None, :])
        code = self._count_codes[int(counts[0])]
        _, place = _place_values(pattern, self.fiber_spec.fiber_alphabet.size)
        # the canonical order, (length, v), is (length, rank)
        ranks = np.argsort(code.lengths, kind="stable")
        blocks = ranks[:, None] // place % self.fiber_spec.fiber_alphabet.size
        return BinaryCodebook(dict(zip(zip(*blocks.T.tolist()), code.words[ranks].tolist())))

    def verify_length_bounds(self) -> bool:
        """Exact check that every built length obeys l <= -log2 mu + 1, as num * 2**l <= 2 * den."""
        for code in self._count_codes.values():
            for num, length in zip(code.numerators.tolist(), code.lengths.tolist()):
                if num << length > 2 * code.den:
                    return False
        return True


@dataclass(frozen=True)
class EncodedStream:
    """Concatenated per-block codewords followed by the raw-coded tail."""

    bits: str
    m: int
    k: int
    tail: str

    def __post_init__(self):
        if not self.bits.endswith(self.tail):
            raise ValueError("stream bits must end with the raw tail")

    def __len__(self) -> int:
        return len(self.bits)


def _coded_pairs(name: OrbitName, family: BlockCodebookFamily):
    """family._checked_table on the name's two words, then their tails checked against the two alphabets."""
    if name.fiber_spec != family.fiber_spec:
        raise ValueError("name and family disagree on the fiber system")
    table, counts, ranks = family._checked_table((name.driving, name.letters), name.first)
    tail = len(table.index) * family.k
    _integers(name.driving[tail:], family.driving_spec.alphabet.size, "driving letters")
    _integers(name.letters[tail:], family.fiber_spec.fiber_alphabet.size, "fiber letters")
    return table, counts, ranks


def encode(name: OrbitName, family: BlockCodebookFamily) -> EncodedStream:
    """Code the k-blocks of the name against their driving contexts.

    Remainder symbols (n mod k of them) are raw coded at ceil(log2 |fiber|)
    bits each.  A block pair outside the model support raises
    ModelMismatchError, a tail symbol outside the fiber alphabet ValueError.
    """
    table, counts, ranks = _coded_pairs(name, family)
    k = family.k
    m = len(table.index)
    raw = family.fiber_bits
    tail = "".join(format(int(s), f"0{raw}b") for s in name.letters[m * k :]) if raw else ""
    return EncodedStream("".join(family._read(counts, ranks, "words")[table.index]) + tail, m, k, tail)


def decode(stream: EncodedStream, alpha, family: BlockCodebookFamily) -> np.ndarray:
    """Replay the decoding machine against the driving word used at encode time.

    Every context is checked first, from one walk of the driving word's
    full blocks, by the coders' one checked pass (_checked_table).
    Then the stream is scanned bit by bit until the prefix read so far
    matches a codeword of the current context's count code, which gives
    the rank of the block's first-visit symbols, and so on; each span of
    blocks is expanded through the patterns of its own walk as soon as it
    is read, and the raw tail is parsed last.  A stream of other block
    length or block count than family.k and len(alpha) // k, a character
    other than "0" or "1", or any leftover or missing bits, raise
    MalformedStreamError.  The name comes back in the dtype emit_name
    gives it, driving._letter_dtype(|F|).
    """
    letters = _integers(alpha)
    k = family.k
    size = family.fiber_spec.fiber_alphabet.size
    n = len(letters)
    m = n // k
    if (stream.m, stream.k) != (m, k):
        raise MalformedStreamError(f"stream of {stream.m} blocks of length {stream.k}, not {m} of length {k}")
    if not re.fullmatch("[01]*", stream.bits):
        raise MalformedStreamError('stream bits must be "0" or "1"')
    first = walk(family.fiber_spec.action_kind, letters[: m * k]).first
    table, counts, _ = family._checked_table((letters,), first)
    _integers(letters[m * k :], family.driving_spec.alphabet.size, "driving letters")
    codes = [family._count_codes[d] for d in counts.tolist()]
    bits = stream.bits
    pos = 0
    decoded = np.empty(n, dtype=_letter_dtype(size))
    for lo, hi in _spans(m):
        ranks: list[int] = []
        for i in table.index[lo:hi].tolist():
            code = codes[i]
            rank = None
            for length in code.lengths_sorted:
                if pos + length <= len(bits):
                    rank = code.decode_map.get(bits[pos : pos + length])
                    if rank is not None:
                        pos += length
                        break
            if rank is None:
                raise MalformedStreamError("bits exhausted before a codeword matched")
            ranks.append(rank)
        # a block's pattern is that of its own walk, which its context row shares
        _, place = _place_values(_patterns(first[lo * k : hi * k].reshape(-1, k)), size)
        decoded[lo * k : hi * k] = (np.array(ranks, dtype=np.int64)[:, None] // place % size).ravel()
    raw = family.fiber_bits
    for i in range(m * k, n):
        if pos + raw > len(bits):
            raise MalformedStreamError("bits exhausted inside the raw tail")
        # a one-symbol fiber codes its tail in no bits
        sym = int(bits[pos : pos + raw] or "0", 2)
        if sym >= size:
            raise MalformedStreamError("raw tail symbol out of range")
        decoded[i] = sym
        pos += raw
    if pos != len(bits):
        raise MalformedStreamError("trailing bits after the decoded name")
    return decoded


def pair_counts(alpha, omega, k: int) -> Counter:
    """Occurrence counts of the aligned (driving, fiber) blocks of length k.

    Blocks start at offsets 0, k, 2k, ... and every full block is counted;
    the counter's keys are (u, v) tuples in first-occurrence order.
    """
    a, w = _integers(alpha), _integers(omega)
    if len(a) != len(w):
        raise ValueError("driving and fiber sequences must have equal length")
    k = _integer(k, "window length", 1)
    table = _block_table((a, w), k)
    counts: Counter = Counter()
    for lo, hi in _spans(len(table.first)):
        for row, c in zip(_gather(table, lo, hi).tolist(), table.counts[lo:hi].tolist()):
            counts[tuple(row[:k]), tuple(row[k:])] = c
    return counts


@dataclass(frozen=True)
class EstimatorReport:
    """Per-run record of coded, empirical and exact per-symbol rates.

    COLUMNS names the report's CSV columns, in order.
    """

    COLUMNS = ("n", "k", "code_rate", "H_hat_over_k", "exact_h_k", "residual", "seed")

    n: int
    k: int
    seed: int | None
    code_rate: float
    cross_entropy_rate: float | None
    exact_rate: float | None
    info_rate: float | None
    total_bits: int
    tail_bits: int
    length_bound_ok: bool
    eq15_ok: bool | None
    no_undershoot_ok: bool | None

    @property
    def residual(self) -> float | None:
        reference = self.exact_rate if self.exact_rate is not None else self.cross_entropy_rate
        return None if reference is None else self.code_rate - reference

    @property
    def bounds_hold(self) -> bool:
        """The run's verdict on its three per-run inequalities.

        The length bound always gates, the cross-entropy bound where a block
        was coded, and the information-function floor from n = UNDERSHOOT_MIN_N on.
        """
        gates = [self.length_bound_ok, self.eq15_ok]
        if self.n >= UNDERSHOOT_MIN_N:
            gates.append(self.no_undershoot_ok)
        return all(bool(gate) for gate in gates if gate is not None)

    def to_csv_row(self) -> dict:
        values = (self.n, self.k, self.code_rate, self.cross_entropy_rate, self.exact_rate, self.residual,
                  self.seed)
        return dict(zip(self.COLUMNS, ("" if v is None else v for v in values)))


def _conditional(name: OrbitName, family: BlockCodebookFamily, exact):
    """conditional_rate's report, then the table, first-visit counts and ranks of its pairs."""
    k = family.k
    n = len(name)
    table, counts, ranks = _coded_pairs(name, family)
    m = len(table.index)
    tail_bits = (n - m * k) * family.fiber_bits
    total_bits = int(table.counts @ family._read(counts, ranks, "lengths")) + tail_bits
    code_rate = total_bits / n if n else 0.0

    cross = None
    eq15_ok = None
    if m >= 1:
        cross = _sequential_sum(-(table.counts * family._read(counts, ranks, "log2mu"))) / (m * k)
        eq15_ok = code_rate <= cross + 1.0 / k + tail_bits / n + _TOL

    info_rate = None
    no_undershoot_ok = None
    if n >= 1:
        info_rate = information_function(name.fiber_spec, name, name.letters) / n
        no_undershoot_ok = code_rate >= info_rate - 2.0 * math.log2(n) / n - _TOL

    if exact == "auto":
        exact = exact_rate_or_none(name.fiber_spec, family.driving_spec, k)

    report = EstimatorReport(
        n=n,
        k=k,
        seed=name.seed,
        code_rate=code_rate,
        cross_entropy_rate=cross,
        exact_rate=exact,
        info_rate=info_rate,
        total_bits=total_bits,
        tail_bits=tail_bits,
        length_bound_ok=family.verify_length_bounds(),
        eq15_ok=eq15_ok,
        no_undershoot_ok=no_undershoot_ok,
    )
    return report, table, counts, ranks


def conditional_rate(name: OrbitName, family: BlockCodebookFamily, exact="auto") -> EstimatorReport:
    """Code the name and report bits per symbol against its entropy references.

    The coded rate is checked on every run against the per-block length
    bound, the blockwise cross-entropy bound
    code_rate <= H_hat/k + 1/k + tail/n, and the information-function
    floor code_rate >= J/n - 2 log2(n)/n.  exact may be "auto" (compute
    the exact rate unless exact_averaged_entropy refuses k past its cap),
    None, or a precomputed finite real that is not a bool; anything else
    raises ValueError before the name is coded.  The bits are counted, not
    written: they equal len(encode(name, family).bits).
    """
    if exact is not None and not (isinstance(exact, str) and exact == "auto"):
        if not math.isfinite(exact := _real(exact, "exact")):
            raise ValueError(f"exact must be finite, not {exact!r}")
    return _conditional(name, family, exact)[0]


@dataclass(frozen=True)
class ArDecompositionReport:
    """Joint, plain and conditional coded rates for one sampled run.

    The ideal companions drop the integer rounding and tail costs: they
    are the exact -log2 probabilities of the coded blocks per symbol.
    COLUMNS names the report's CSV columns, in order.
    """

    COLUMNS = (
        "n",
        "k",
        "joint_rate",
        "plain_rate",
        "conditional_rate",
        "residual",
        "joint_ideal_rate",
        "plain_ideal_rate",
        "conditional_cross_rate",
        "seed",
    )

    n: int
    k: int
    seed: int | None
    joint_rate: float
    plain_rate: float
    conditional_rate: float
    joint_ideal_rate: float
    plain_ideal_rate: float
    conditional_cross_rate: float

    @property
    def residual(self) -> float:
        return self.joint_rate - self.plain_rate - self.conditional_rate

    def to_csv_row(self) -> dict:
        return {column: getattr(self, column) for column in self.COLUMNS}


def ar_decomposition_check(name: OrbitName, family: BlockCodebookFamily) -> ArDecompositionReport:
    """Compare joint, plain and conditional block-code rates on one name.

    It takes what conditional_rate takes and samples nothing: the plain
    coder reads name.driving, the report carries name.seed.  The joint
    coder spends ceil(-log2(nu[u] mu[u|v])) bits per aligned pair block
    and raw codes remainder pairs; the plain coder is the driving block
    coder, whose exact nu numerators the joint coder reuses; the
    conditional coder is the contextual fiber coder.  The report carries
    joint - plain - conditional.
    """
    cond, table, counts, ranks = _conditional(name, family, None)
    n, k = len(name), family.k
    if n == 0:
        return ArDecompositionReport(0, k, name.seed, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    plain = block_code_details(family.driving_spec, name.driving, k)

    # every pair is consistent and every context positive: the conditional pass checked both
    contexts = plain.table.index[table.first]
    nums = (plain.nums[contexts] * family._read(counts, ranks, "numerators")).tolist()
    dens = {d: plain.den * code.den for d, code in family._count_codes.items()}
    lengths = [max(1, _shannon_bits(num, dens[d])) for num, d in zip(nums, counts.tolist())]
    log2nu = np.array([math.log2(num / plain.den) for num in plain.nums.tolist()])
    ideals = -family._read(counts, ranks, "log2mu") - log2nu[contexts]
    pair_raw = (family.driving_spec.alphabet.size * family.fiber_spec.fiber_alphabet.size - 1).bit_length()
    joint_total = int(table.counts @ np.array(lengths, dtype=np.int64)) + (n - plain.m * k) * pair_raw
    joint_ideal = _sequential_sum(ideals[table.index])

    return ArDecompositionReport(
        n=n,
        k=k,
        seed=name.seed,
        joint_rate=joint_total / n,
        plain_rate=plain.total_bits / n,
        conditional_rate=cond.code_rate,
        joint_ideal_rate=joint_ideal / n,
        plain_ideal_rate=plain.ideal_bits / n,
        conditional_cross_rate=cond.cross_entropy_rate if cond.cross_entropy_rate is not None else 0.0,
    )


@dataclass(frozen=True)
class TwoPassReport:
    """Model-free coded rate with the frequency table charged as a header."""

    n: int
    k: int
    rate: float
    header_bits: int
    payload_bits: int
    tail_bits: int


def empirical_two_pass_rate(name: OrbitName, k: int, driving_alphabet_size: int) -> TwoPassReport:
    """Code the name from its own pair frequencies, counting the header.

    First pass counts aligned block pairs; the header serializes every
    (context, block, count) triple at fixed widths; the payload uses
    Shannon lengths for the empirical conditional frequencies.  This
    cross-checks the model-based coder: no side knowledge of the measure
    is assumed, and the header cost is charged to the rate.  k is checked
    first, so a name shorter than k is refused for a bad k too, then the
    driving alphabet size, which must exceed every driving letter.
    """
    k = _integer(k, "block length", 1)
    size = _integer(driving_alphabet_size, "driving alphabet size", 1)
    _integers(name.driving, size, "driving letters")
    n = len(name)
    m = n // k
    raw = (name.fiber_spec.fiber_alphabet.size - 1).bit_length()
    if m == 0:
        tail_bits = n * raw
        return TwoPassReport(n, k, tail_bits / n if n else 0.0, 0, 0, tail_bits)
    counts = pair_counts(name.driving, name.letters, k)
    context_totals: Counter = Counter()
    for (u, _), c in counts.items():
        context_totals[u] += c
    theta_bits = (size - 1).bit_length()
    count_bits = m.bit_length()
    header_bits = 64 + len(counts) * (k * theta_bits + k * raw + count_bits)
    payload_bits = 0
    for (u, v), c in counts.items():
        payload_bits += c * max(1, shannon_length(Fraction(c, context_totals[u])))
    tail_bits = (n - m * k) * raw
    total = header_bits + payload_bits + tail_bits
    return TwoPassReport(n, k, total / n, header_bits, payload_bits, tail_bits)
