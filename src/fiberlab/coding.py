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
most k codes are built, each after the first checked pass in which a
block with its count occurs, which keeps long-horizon runs cheap.

An assignment is held as its rank, the integer with digits a in base |F|,
first symbol most significant, so ranks order assignments
lexicographically and a count code is a set of arrays indexed by rank:
codewords, lengths, log2 mu and mu.  mu is exact, an integer numerator
over the code's one denominator lcm(den p)**d, so lengths, the length
bound and the joint coder's lengths are integer computations, taken over
whole arrays of numerators (kraft._shannon_bits): object arrays of
Python ints, which the joint coder reads as int64 where its denominator
lies below 2**53 (kraft._numerator_dtype).

The cost of a block depends on its (u, v) pair alone, so the coders work
from one table of a name's distinct aligned pairs in first-occurrence
order (driving._block_table), built once per cell from one sort of its
row-tagged keys, with its index, counts, first rows and contexts in
int32.  One checked pass (BlockCodebookFamily._checked_table), which
decode runs on its contexts, checks, counts and ranks the rows a span at
a time (actions._spans), keeping only each pair's first-visit count and
rank, each in the smallest unsigned dtype that holds it (uint8 for k = 8
and a binary fiber): encode joins
codewords by block index, and the coded length (counts times codeword
lengths), the cross entropy (counts times log2 mu, summed in table
order) and the joint coder's lengths are read off the same pairs a span
at a time, each float sum carried from span to span.  A span's rows are
read off the words as k contiguous columns, and one sweep per column of
their walks (_block_patterns) gives every step the first step of its
block at its coordinate, with no k x k comparison and no temporary
larger than the span; decode and codebook_for undo a rank on the same
patterns.  Spans are checked in order, so the first offending
row raises, as a block-by-block loop would, by the plain coder's refusal
too (driving._refuse_blocks); letters are read by actions._integers, the
letters after the last block too.  The coders sample nothing: both
conditional_rate and ar_decomposition_check take a name and a family.

A block's first visits are read off a walk across it.  Group coordinates
cancel on the right, so two steps of a block visit the same coordinate of
the block's own walk exactly when they visit the same coordinate of any
longer walk that contains the block, and free-monoid coordinates never
repeat.  A name's blocks therefore take their patterns from the name's
walk, and decode walks the driving word once; only codebook_for walks a
lone context.  Positivity is read off the chain's support
(driving._refuse_blocks).  verify-ar's three coders price the one pair
table: the plain coder (driving._plain_code) gives each distinct context
its exact nu once, an integer numerator over one denominator, each pair
reads its context's (the table's contexts), and the joint length is read
off nu's numerator times mu's over the product of their denominators,
in int64 while that product lies below 2**53.

Every per-run verdict is decided in integers, with no float tolerance:
the length bound, eq15 as its corollary, and the information floor from
the first-visit symbol counts (conditional_rate, _no_undershoot), read in
the one pass whose counts also give J_n (fiber._information).  The
report's float rates are never compared.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import NamedTuple

import numpy as np

from .actions import _integer, _integers, _real, _spans, check_driving_size, walk

# coding calls none of sample_trajectory, emit_name, block_code_details and
# information_function; bench/child.py's tracer wraps all four here
from .driving import MarkovChainSpec, _block_table, _cylinder_den, _gather, _letter_dtype, _plain_code
from .driving import _refuse_blocks, _sequential_sum, block_code_details, sample_trajectory
from .errors import MalformedStreamError
from .fiber import FiberSystemSpec, OrbitName, _information, emit_name, exact_rate_or_none, information_function
from .kraft import BinaryCodebook, _canonical_words, _numerator_dtype, _shannon_bits
from .records import FrozenRecord

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
        self.numerators = np.empty(len(nums), dtype=object)
        self.numerators[:] = nums
        # clamp covers the degenerate one-symbol fiber where mu = 1
        self.lengths = np.maximum(_shannon_bits(self.numerators, den), 1).astype(np.int64)
        # the canonical order, (length, v), is (length, rank)
        order = np.argsort(self.lengths, kind="stable")
        self.words = np.empty(len(nums), dtype=object)
        self.words[order] = _canonical_words(self.lengths[order].tolist())
        self.log2mu = np.array([math.log2(x / den) for x in nums])
        self.den = den
        self.decode_map = {w: r for r, w in enumerate(self.words.tolist())}
        self.lengths_sorted = sorted(set(self.lengths.tolist()))


def _block_patterns(walks: np.ndarray) -> np.ndarray:
    """The one reading of block patterns, swept column by column over a table of block walks.

    walks[i, r] is the coordinate of step i of block r, and pattern[i, r]
    is the first step j <= i of block r at that coordinate, so step i is a
    first visit of block r exactly when pattern[i, r] == i.  Sweep j
    compares column j with the columns after it and marks them where they
    meet; the sweeps run from the last column to the first, so the first
    step that meets a column marks it last.  No temporary is larger than
    walks, and pattern takes the smallest dtype that holds a step.
    """
    pattern = np.empty(walks.shape, dtype=_letter_dtype(len(walks)))
    pattern[:] = np.arange(len(walks))[:, None]
    for j in range(len(walks) - 2, -1, -1):
        np.putmask(pattern[j + 1 :], walks[j + 1 :] == walks[j], j)
    return pattern


def _present(counts: np.ndarray) -> list[int]:
    """The distinct first-visit counts, ascending.

    A bare np.unique would import numpy.ma on its first call (numpy 2.4
    tests for a masked array), about 15 ms and 1.25 MB of RSS in one run.
    """
    return np.flatnonzero(np.bincount(counts)).tolist()


class BlockCodebookFamily:
    """The per-context codebooks for one (fiber system, driving chain, k).

    A context's codebook is the count code of its number d of first
    visits, read through its first-visit pattern (see the module
    docstring), so the family keeps one memo, d -> code, filled after the
    first checked pass that meets a block with count d.  It never holds
    more than k codes, the code for d having |F|**d entries.
    """

    def __init__(self, k: int, fiber_spec: FiberSystemSpec, driving_spec: MarkovChainSpec):
        k = _integer(k, "block length", 1)
        check_driving_size(fiber_spec.action_kind, driving_spec.alphabet.size)
        self.k = k
        self.fiber_spec = fiber_spec
        self.driving_spec = driving_spec
        self.fiber_bits = (fiber_spec.fiber_alphabet.size - 1).bit_length()
        self._count_codes: dict[int, _CountCode] = {}

    def _rank_rows(self, walks: np.ndarray, contexts: np.ndarray, blocks: np.ndarray | None = None):
        """Check table rows and return each row's first-visit count d and rank.

        The table is held by columns: walks[:, r] is a walk across row r's
        driving block contexts[:, r], and blocks[:, r] is its fiber block,
        or blocks is None for a table of contexts alone, whose ranks are 0.
        A fiber block is inconsistent when a step reads another symbol than
        the first visit of its coordinate, or a letter outside the fiber
        alphabet; the first offending row raises, by driving._refuse_blocks.
        """
        size = self.fiber_spec.fiber_alphabet.size
        pattern = _block_patterns(walks)
        first_visits = pattern == np.arange(len(pattern))[:, None]
        counts = first_visits.sum(axis=0)
        ranks = np.zeros(len(counts), dtype=np.int64)
        inconsistent = False
        if blocks is not None:
            inconsistent = ((blocks < 0) | (blocks >= size)).any(axis=0)
            for j in range(len(blocks) - 1):
                # a step whose first visit is step j must read step j's symbol
                inconsistent |= ((pattern[j + 1 :] == j) & (blocks[j + 1 :] != blocks[j])).any(axis=0)
            for symbols, new in zip(blocks, first_visits):
                ranks = np.where(new, ranks * size + symbols, ranks)
        _refuse_blocks(self.driving_spec, contexts.T, inconsistent, None if blocks is None else blocks.T)
        return counts, ranks

    def _build_codes(self, counts: np.ndarray) -> None:
        """Build the count code of every count present that has none yet."""
        for d in _present(counts):
            if d not in self._count_codes:
                self._count_codes[d] = _CountCode(self.fiber_spec, d)

    def _blocks(self, walks: np.ndarray, counts: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """The fiber blocks of the given ranks, by columns: _rank_rows's ranking undone on the same patterns.

        Block r, walked by walks[:, r], has counts[r] first visits, whose
        symbols are the base-|F| digits of ranks[r], first symbol most
        significant; every step reads the digit of its coordinate's first
        visit, whose place is the number of first visits after it.  One
        walk and one count, walks of one column and counts of one entry,
        may serve every block.
        """
        size = self.fiber_spec.fiber_alphabet.size
        pattern = _block_patterns(walks)
        after = counts - np.cumsum(pattern == np.arange(len(pattern))[:, None], axis=0)
        places = np.take_along_axis(after, pattern, axis=0)
        return (ranks // size ** places % size).astype(_letter_dtype(size))

    def _checked_table(self, words, first: np.ndarray):
        """Table the k-blocks of words, (driving,) or (driving, fiber), and check every row.

        Each row reads its block's walk off first, a walk of the driving
        word.  A span of rows at a time, the rows' blocks are read off the
        words as columns, in the words' own dtypes, and checked by _rank_rows.
        Returns the table and, per row, its first-visit count d and the
        rank in the count code for d of its fiber block (0 for a context),
        in the smallest unsigned dtype that holds |F|**k - 1 (uint64 past
        it); the count code of every row is built before this returns.
        """
        k, size = self.k, self.fiber_spec.fiber_alphabet.size
        table = _block_table(words, k)
        walks = first[: len(table.index) * k].reshape(-1, k)
        counts = np.empty(len(table.first), dtype=_letter_dtype(k + 1))
        ranks = np.empty(len(table.first), dtype=_letter_dtype(min(size ** k, 2 ** 64)))
        for lo, hi in _spans(len(table.first)):
            # the rows' walks and blocks, laid out as columns
            rows = table.first[lo:hi]
            columns = [np.ascontiguousarray(view.take(rows, axis=0).T) for view in (walks, *table.windows)]
            counts[lo:hi], ranks[lo:hi] = self._rank_rows(*columns)
            del columns
        # after the spans, so that the family's lasting arrays are not laid above their temporaries
        self._build_codes(counts)
        return table, counts, ranks

    def _read(self, counts: np.ndarray, ranks: np.ndarray, field: str) -> np.ndarray:
        """One field of _CountCode per row, at the row's rank in its count code.

        The field's arrays for the counts present are laid end to end, so
        one gather reads every row.
        """
        present = _present(counts)
        if not present:
            return np.empty(0)
        fields = [getattr(self._count_codes[d], field) for d in present]
        starts = np.zeros(self.k + 1, dtype=np.int64)
        starts[present] = np.cumsum([0] + [len(values) for values in fields[:-1]])
        # in int64, as int64 plus uint64 ranks would give float64
        return np.concatenate(fields).take(np.add(starts.take(counts), ranks, dtype=np.int64))

    def codebook_for(self, u) -> BinaryCodebook:
        """Context u's codebook over full fiber k-blocks, expanded from its count code."""
        u = _integers(u)
        if len(u) != self.k:
            raise ValueError(f"context must have length {self.k}")
        walks = walk(self.fiber_spec.action_kind, u).first[:, None]
        counts, _ = self._rank_rows(walks, u[:, None])
        self._build_codes(counts)
        code = self._count_codes[int(counts[0])]
        # the canonical order, (length, v), is (length, rank)
        ranks = np.argsort(code.lengths, kind="stable")
        blocks = self._blocks(walks, counts, ranks)
        return BinaryCodebook(dict(zip(zip(*blocks.tolist()), code.words[ranks].tolist())))

    def verify_length_bounds(self) -> bool:
        """Exact check that every built length obeys l <= -log2 mu + 1, as num * 2**l <= 2 * den."""
        for code in self._count_codes.values():
            for num, length in zip(code.numerators.tolist(), code.lengths.tolist()):
                if num << length > 2 * code.den:
                    return False
        return True


class EncodedStream(FrozenRecord):
    """Concatenated per-block codewords followed by the raw-coded tail.

    A validated record (records.FrozenRecord): the bits must end with the tail.
    """

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
    blocks is expanded from its ranks through the patterns of its own walk
    (BlockCodebookFamily._blocks) as soon as it is read, and the raw tail
    is parsed last.  A stream of other block
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
        walks = first[lo * k : hi * k].reshape(-1, k).T
        blocks = family._blocks(walks, counts[table.index[lo:hi]], np.array(ranks, dtype=np.int64))
        decoded[lo * k : hi * k].reshape(-1, k)[:] = blocks.T
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


class EstimatorReport(NamedTuple):
    """Per-run record of coded, empirical and exact per-symbol rates, as a NamedTuple.

    COLUMNS names the report's columns and row() gives its values, in
    that order.  eq15_ok is the length bound's certificate of eq15 where a
    block was coded (None where none was): True proves eq15, while False
    says only that the length bound failed, not that eq15 does.  info_rate
    is J_n / n, with J_n read off the symbols' first-visit counts
    (fiber._information): it can differ by an ulp or two from a sum over
    the first visits one by one.
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

        The length bound always gates, the cross-entropy bound (eq15) where a
        block was coded, and the information-function floor from
        n = UNDERSHOOT_MIN_N on.  conditional_rate decides each exactly, in
        integers, and sets eq15_ok to the length bound's own verdict, its
        certificate of eq15.
        """
        gates = [self.length_bound_ok, self.eq15_ok]
        if self.n >= UNDERSHOOT_MIN_N:
            gates.append(self.no_undershoot_ok)
        return all(bool(gate) for gate in gates if gate is not None)

    def row(self) -> tuple:
        values = (self.n, self.k, self.code_rate, self.cross_entropy_rate, self.exact_rate, self.residual,
                  self.seed)
        return tuple("" if v is None else v for v in values)


def _no_undershoot(spec: FiberSystemSpec, bits: int, n: int, counts: list[int]) -> bool:
    """Exact verdict on the floor bits >= J_n - 2 log2 n, for n >= 1.

    counts[s] is how often symbol s is read at a first visit, so
    J_n = sum_s counts[s] * log2(den / num_s), with p_s = num_s / den, and
    the floor reads 2**bits * n**2 * prod_s num_s**counts[s] >= den**R_n,
    R_n = sum_s counts[s], compared in big integers.
    """
    nums, den = spec._p_numerators
    return math.prod(num ** c for num, c in zip(nums.tolist(), counts)) * n * n << bits >= den ** sum(counts)


def _conditional(name: OrbitName, family: BlockCodebookFamily, exact):
    """conditional_rate's report, then the table, first-visit counts and ranks of its pairs."""
    k = family.k
    n = len(name)
    table, counts, ranks = _coded_pairs(name, family)
    m = len(table.index)
    tail_bits = (n - m * k) * family.fiber_bits
    # a span of distinct pairs at a time: their coded lengths, and their
    # cross entropy summed in table order
    total_bits, cross_bits = tail_bits, 0.0
    for lo, hi in _spans(len(table.first)):
        weights, d, rank = table.counts[lo:hi], counts[lo:hi], ranks[lo:hi]
        total_bits += int(weights @ family._read(d, rank, "lengths"))
        cross_bits = _sequential_sum(-(weights * family._read(d, rank, "log2mu")), cross_bits)
    code_rate = total_bits / n if n else 0.0

    length_bound_ok = family.verify_length_bounds()

    cross = None
    eq15_ok = None
    if m >= 1:
        cross = cross_bits / (m * k)
        eq15_ok = length_bound_ok

    info_rate = None
    no_undershoot_ok = None
    if n >= 1:
        # one read of the first visits gives J_n and the symbol counts the floor is decided on
        information, symbol_counts = _information(name.fiber_spec, name.first, name.letters)
        info_rate = information / n
        no_undershoot_ok = _no_undershoot(name.fiber_spec, total_bits, n, symbol_counts)

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
        length_bound_ok=length_bound_ok,
        eq15_ok=eq15_ok,
        no_undershoot_ok=no_undershoot_ok,
    )
    return report, table, counts, ranks


def conditional_rate(name: OrbitName, family: BlockCodebookFamily, exact="auto") -> EstimatorReport:
    """Code the name and report bits per symbol against its entropy references.

    The coded rate is checked on every run against the per-block length
    bound, the blockwise cross-entropy bound (eq15)
    code_rate <= H_hat/k + 1/k + tail/n, and the information-function
    floor code_rate >= J/n - 2 log2(n)/n, each decided exactly:
    - the length bound l <= -log2 mu + 1 is checked as num * 2**l <= 2 * den
      on every built codeword (verify_length_bounds);
    - eq15 follows from it.  Summed over the m coded blocks, the lengths
      obey sum l <= S + m, with S = sum -log2 mu >= 0 and H_hat/k = S/(mk);
      and m k <= n, so S/n <= S/(mk) and m/n <= 1/k.  Hence
      code_rate = (sum l + tail)/n <= H_hat/k + 1/k + tail/n, and eq15_ok
      is the length bound's verdict.  The float H_hat/k is reported, not
      compared;
    - the floor is decided in integers from the counts of each symbol at
      first visits (_no_undershoot); J/n is reported, not compared.
    exact may be "auto" (compute the exact rate unless
    exact_averaged_entropy refuses k past its cap), None, or a precomputed
    finite real that is not a bool; anything else raises ValueError before
    the name is coded.  The bits are counted, not written: they equal
    len(encode(name, family).bits).
    """
    if exact is not None and not (isinstance(exact, str) and exact == "auto"):
        if not math.isfinite(exact := _real(exact, "exact")):
            raise ValueError(f"exact must be finite, not {exact!r}")
    return _conditional(name, family, exact)[0]


class ArDecompositionReport(NamedTuple):
    """Joint, plain and conditional coded rates for one sampled run, as a NamedTuple.

    The ideal companions drop the integer rounding and tail costs: they
    are the exact -log2 probabilities of the coded blocks per symbol.
    COLUMNS names the report's columns and row() gives its values, in
    that order.
    """

    COLUMNS = ("n", "k", "joint_rate", "plain_rate", "conditional_rate", "residual", "joint_ideal_rate",
               "plain_ideal_rate", "conditional_cross_rate", "seed")

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

    def row(self) -> tuple:
        return tuple(getattr(self, column) for column in self.COLUMNS)


def ar_decomposition_check(name: OrbitName, family: BlockCodebookFamily) -> ArDecompositionReport:
    """Compare joint, plain and conditional block-code rates on one name.

    It takes what conditional_rate takes and samples nothing: the report
    carries name.seed.  The joint coder spends ceil(-log2(nu[u] mu[v|u]))
    bits per aligned pair block and raw codes remainder pairs, the plain
    coder is the driving block coder and the conditional coder the
    contextual fiber coder, all three on the one pair table the conditional
    pass checked.  The report carries joint - plain - conditional.
    """
    cond, table, counts, ranks = _conditional(name, family, None)
    n, k = len(name), family.k
    if n == 0:
        return ArDecompositionReport(0, k, name.seed, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    # the conditional pass checked every pair and its context: the plain coder prices each context
    m = len(table.index)
    plain, nu, log2nu = _plain_code(family.driving_spec, table, n - m * k)
    den = _cylinder_den(family.driving_spec, k)
    # nu * mu over den * code.den, in int64 while the largest such denominator allows
    dens = [den * family._count_codes[d].den if d in family._count_codes else 1 for d in range(k + 1)]
    dens = np.array(dens, dtype=_numerator_dtype(max(dens)))
    pair_raw = (family.driving_spec.alphabet.size * family.fiber_spec.fiber_alphabet.size - 1).bit_length()
    joint_total = (n - m * k) * pair_raw
    # a span at a time, so that no array of products is as long as the table
    for lo, hi in _spans(len(table.first)):
        d = counts[lo:hi]
        mu = family._read(d, ranks[lo:hi], "numerators").astype(dens.dtype, copy=False)
        nums = nu.take(table.contexts[lo:hi]).astype(dens.dtype, copy=False) * mu
        joint_total += int(table.counts[lo:hi] @ np.maximum(_shannon_bits(nums, dens[d]), 1))
    # the ideal joint lengths, summed in block order a span of blocks at a time
    joint_ideal = 0.0
    for lo, hi in _spans(m):
        pairs = table.index[lo:hi]
        log2mu = family._read(counts.take(pairs), ranks.take(pairs), "log2mu")
        joint_ideal = _sequential_sum(-log2mu - log2nu.take(table.contexts.take(pairs)), joint_ideal)

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


class TwoPassReport(NamedTuple):
    """Model-free coded rate with the frequency table charged as a header, as a NamedTuple."""

    n: int
    k: int
    rate: float
    header_bits: int
    payload_bits: int
    tail_bits: int


def empirical_two_pass_rate(name: OrbitName, k: int, driving_alphabet_size: int) -> TwoPassReport:
    """Code the name from its own pair frequencies, counting the header.

    First pass counts aligned block pairs (driving._block_table); the
    header serializes every (context, block, count) triple at fixed
    widths; the payload uses Shannon lengths for the empirical conditional
    frequencies, each pair's count over its context's total in int64.  This
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
    table = _block_table((name.driving, name.letters), k)
    counts = table.counts.astype(np.int64)
    totals = np.zeros(int(table.contexts.max()) + 1, dtype=np.int64)
    np.add.at(totals, table.contexts, counts)
    theta_bits = (size - 1).bit_length()
    count_bits = m.bit_length()
    header_bits = 64 + len(table.first) * (k * theta_bits + k * raw + count_bits)
    payload_bits = int(counts @ np.maximum(_shannon_bits(counts, totals.take(table.contexts)), 1))
    tail_bits = (n - m * k) * raw
    total = header_bits + payload_bits + tail_bits
    return TwoPassReport(n, k, total / n, header_bits, payload_bits, tail_bits)
