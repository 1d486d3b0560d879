"""Contextual prefix-free block coding of orbit names and the derived
complexity estimators.

For block length k, every driving k-block u of positive probability gets
its own prefix-free code over the fiber k-blocks v of positive conditional
probability, with Shannon lengths ceil(-log2 mu(v | context u)).  The
conditional block distribution depends on u only through the
first-occurrence pattern of the coordinates it visits, so codebooks are
built once per pattern and shared; contexts can therefore be materialized
lazily, which keeps long-horizon runs cheap, or eagerly over all positive
contexts under the desk-scale cap.

The cost of a block depends on its (u, v) pair alone, so the coders work
from one table of a name's distinct pairs in first-occurrence order (see
driving._block_table): encode joins codewords by block index, the cross
entropy sums counts times log2 mu, and the joint coder reads its lengths
off the pairs.  Per-pair work runs in first-occurrence order, so the
first offending block raises, as a block-by-block loop would.

A context met inside a name takes its pattern from the name's own walk:
group coordinates cancel on the right, so two steps of a block visit the
same coordinate of the context's walk exactly when they visit the same
coordinate of the name's walk, and free-monoid coordinates never repeat.
Only contexts given without a name (decode, build_codebooks,
codebook_for) are walked.  Positivity is an exact test for zeros in pi
and Pi; the exact context probability nu is computed only by the plain
coder, whose values the joint coder reuses.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from .actions import check_driving_size, walk
from .driving import (
    MarkovChainSpec,
    _block_table,
    _letters_of,
    _sum_in_block_order,
    block_code_details,
    sample_trajectory,
)
from .errors import MalformedStreamError, ModelMismatchError, ResourceLimitError
from .fiber import ENUMERATION_CAP, FiberSystemSpec, OrbitName, emit_name, information_function
from .kraft import BinaryCodebook, canonical_kraft_code, shannon_length

_EXACT_AUTO_CAP = 2 ** 20
_TOL = 1e-12


class _PatternCode:
    """Codebook and exact block probabilities shared by one visit pattern."""

    __slots__ = ("codebook", "lengths", "log2mu", "fractions", "decode_map", "lengths_sorted")

    def __init__(self, codebook, lengths, log2mu, fractions):
        self.codebook = codebook
        self.lengths = lengths
        self.log2mu = log2mu
        self.fractions = fractions
        self.decode_map = {w: v for v, w in codebook.entries.items()}
        self.lengths_sorted = sorted(set(lengths.values()))


def _build_pattern_code(spec: FiberSystemSpec, pattern: tuple[int, ...]) -> _PatternCode:
    reps = [i for i, j in enumerate(pattern) if i == j]
    size = spec.fiber_alphabet.size
    lengths: dict[tuple[int, ...], int] = {}
    log2mu: dict[tuple[int, ...], float] = {}
    fractions: dict[tuple[int, ...], Fraction] = {}
    for assignment in itertools.product(range(size), repeat=len(reps)):
        v = [0] * len(pattern)
        for r, sym in zip(reps, assignment):
            v[r] = sym
        for i, j in enumerate(pattern):
            v[i] = v[j]
        v = tuple(v)
        frac = Fraction(1)
        for sym in assignment:
            frac *= spec.p[sym]
        fractions[v] = frac
        # clamp covers the degenerate one-symbol fiber where mu = 1
        lengths[v] = max(1, shannon_length(frac))
        log2mu[v] = math.log2(float(frac))
    return _PatternCode(canonical_kraft_code(lengths), lengths, log2mu, fractions)


def _pattern(first) -> tuple[int, ...]:
    """pattern[i] = the smallest j with first[j] == first[i].

    On a context's own walk this is its first-visit list; on a block of a
    name's walk it is the same list, read off the name.
    """
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(c, i) for i, c in enumerate(first))


class BlockCodebookFamily:
    """The per-context codebooks for one (fiber system, driving chain, k).

    Contexts are materialized on first use; build_codebooks constructs the
    family eagerly over every positive-probability context instead.
    """

    def __init__(self, k: int, fiber_spec: FiberSystemSpec, driving_spec: MarkovChainSpec):
        if k < 1:
            raise ValueError("block length must be >= 1")
        check_driving_size(fiber_spec.action_kind, driving_spec.alphabet.size)
        self.k = k
        self.fiber_spec = fiber_spec
        self.driving_spec = driving_spec
        self.fiber_bits = (fiber_spec.fiber_alphabet.size - 1).bit_length()
        self._starts = tuple(x != 0 for x in driving_spec.pi)
        self._moves = tuple(tuple(x != 0 for x in row) for row in driving_spec.Pi)
        self._pattern_codes: dict[tuple[int, ...], _PatternCode] = {}
        self._context_codes: dict[tuple[int, ...], _PatternCode] = {}

    def _positive(self, u: tuple[int, ...]) -> bool:
        """Whether the driving block u has positive probability: no zero in pi or Pi on its path."""
        if min(u) < 0 or max(u) >= len(self._starts):
            raise ValueError("letter index out of range for the driving alphabet")
        moves = self._moves
        return self._starts[u[0]] and all(moves[a][b] for a, b in zip(u, u[1:]))

    def _code_for(self, u) -> _PatternCode:
        """The pattern code of a context given without a name, which is walked."""
        u = tuple(int(x) for x in u)
        code = self._context_codes.get(u)
        return code if code is not None else self._add_context(u, None)

    def _add_context(self, u: tuple[int, ...], first) -> _PatternCode:
        """Materialize the context u.

        first is the walk of a name across a block whose context is u, or
        None, in which case u itself is walked.
        """
        if len(u) != self.k:
            raise ValueError(f"context must have length {self.k}")
        if not self._positive(u):
            raise ModelMismatchError(f"driving block {u} has zero probability")
        if first is None:
            first = walk(self.fiber_spec.action_kind, u).first
        # the conditional block law depends on u only through its first visits
        pattern = _pattern(first.tolist())
        code = self._pattern_codes.get(pattern)
        if code is None:
            code = _build_pattern_code(self.fiber_spec, pattern)
            self._pattern_codes[pattern] = code
        self._context_codes[u] = code
        return code

    def codebook_for(self, u) -> BinaryCodebook:
        return self._code_for(u).codebook

    def contexts(self):
        return iter(self._context_codes)

    def verify_length_bounds(self) -> bool:
        """Exact check that every built length obeys l <= -log2 mu + 1."""
        for code in self._pattern_codes.values():
            for v, length in code.lengths.items():
                frac = code.fractions[v]
                if frac.numerator * (1 << length) > 2 * frac.denominator:
                    return False
        return True


def build_codebooks(fiber_spec: FiberSystemSpec, driving_spec: MarkovChainSpec, k: int) -> BlockCodebookFamily:
    """Materialize codebooks for every driving k-block of positive probability.

    Enforces the desk-scale enumeration cap (|driving| * |fiber|)**k <= 2**24;
    beyond it, construct BlockCodebookFamily directly and let contexts build
    lazily as they occur.
    """
    family = BlockCodebookFamily(k, fiber_spec, driving_spec)
    size = driving_spec.alphabet.size
    if (size * fiber_spec.fiber_alphabet.size) ** k > ENUMERATION_CAP:
        raise ResourceLimitError("eager codebook enumeration exceeds the desk-scale cap")
    for u in itertools.product(range(size), repeat=k):
        if family._positive(u):
            family._code_for(u)
    return family


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


def _name_table(name: OrbitName, k: int):
    """The distinct (u, v) pairs of the name's n // k aligned k-blocks."""
    return _block_table((name.driving, name.letters), k, k, len(name) // k)


def _pair_codes(name: OrbitName, family: BlockCodebookFamily, table):
    """Yield (u, v, pattern code) for each distinct pair of the name's table.

    Pairs come in first-occurrence order; a context not yet in the family
    takes its pattern from the name's walk across the pair's first block.
    """
    k = family.k
    codes = family._context_codes
    for row, block in zip(table.rows, table.first.tolist()):
        row = row.tolist()
        u, v = tuple(row[:k]), tuple(row[k:])
        code = codes.get(u)
        if code is None:
            code = family._add_context(u, name.first[block * k : (block + 1) * k])
        yield u, v, code


def encode(name: OrbitName, family: BlockCodebookFamily) -> EncodedStream:
    """Code the k-blocks of the name against their driving contexts.

    Remainder symbols (n mod k of them) are raw coded at ceil(log2 |fiber|)
    bits each.  A block pair outside the model support raises
    ModelMismatchError.
    """
    if name.fiber_spec != family.fiber_spec:
        raise ValueError("name and family disagree on the fiber system")
    k = family.k
    m = len(name) // k
    table = _name_table(name, k)
    words = []
    for u, v, code in _pair_codes(name, family, table):
        word = code.codebook.entries.get(v)
        if word is None:
            raise ModelMismatchError(f"fiber block {v} is inconsistent with driving block {u}")
        words.append(word)
    raw = family.fiber_bits
    tail = "".join(format(int(s), f"0{raw}b") for s in name.letters[m * k :]) if raw else ""
    return EncodedStream("".join(np.array(words, dtype=object)[table.index]) + tail, m, k, tail)


def decode(stream: EncodedStream, alpha, family: BlockCodebookFamily) -> np.ndarray:
    """Replay the decoding machine against the driving word used at encode time.

    Scans the stream bit by bit until the prefix read so far matches a
    codeword of the current context, emits its source block and continues;
    the raw tail is parsed last.  Any leftover or missing bits raise
    MalformedStreamError.
    """
    letters = _letters_of(alpha).tolist()
    k = family.k
    n = len(letters)
    m = n // k
    bits = stream.bits
    pos = 0
    out: list[int] = []
    for i in range(m):
        u = tuple(letters[i * k : (i + 1) * k])
        code = family._code_for(u)
        block = None
        for length in code.lengths_sorted:
            if pos + length <= len(bits):
                block = code.decode_map.get(bits[pos : pos + length])
                if block is not None:
                    pos += length
                    break
        if block is None:
            raise MalformedStreamError("bits exhausted before a codeword matched")
        out.extend(block)
    raw = family.fiber_bits
    tail_count = n - m * k
    if raw:
        for _ in range(tail_count):
            if pos + raw > len(bits):
                raise MalformedStreamError("bits exhausted inside the raw tail")
            sym = int(bits[pos : pos + raw], 2)
            if sym >= family.fiber_spec.fiber_alphabet.size:
                raise MalformedStreamError("raw tail symbol out of range")
            out.append(sym)
            pos += raw
    else:
        out.extend([0] * tail_count)
    if pos != len(bits):
        raise MalformedStreamError("trailing bits after the decoded name")
    return np.array(out, dtype=np.int64)


def pair_counts(alpha, omega, k: int, stride: str = "block", m: int | None = None):
    """Occurrence counts of aligned (driving, fiber) windows of length k.

    stride "block" scans offsets 0, k, 2k, ...; stride "slide" scans every
    offset.  Returns (counter, number of windows scanned); the counter's
    keys are (u, v) tuples in first-occurrence order.
    """
    a = _letters_of(alpha)
    w = np.asarray(omega, dtype=np.int64)
    if len(a) != len(w):
        raise ValueError("driving and fiber sequences must have equal length")
    if k < 1:
        raise ValueError("window length must be >= 1")
    n = len(a)
    if stride == "block":
        available = n // k
        hop = k
    elif stride == "slide":
        available = max(0, n - k + 1)
        hop = 1
    else:
        raise ValueError(f"unknown stride {stride!r}")
    if m is None:
        m = available
    if not 0 <= m <= available:
        raise ValueError(f"requested {m} windows but only {available} fit the horizon")
    table = _block_table((a, w), k, hop, m)
    counts: Counter = Counter()
    for row, c in zip(table.rows, table.counts.tolist()):
        row = row.tolist()
        counts[tuple(row[:k]), tuple(row[k:])] = c
    return counts, m


def pair_frequencies(alpha, omega, k: int, stride: str = "block", m: int | None = None) -> dict:
    counts, m = pair_counts(alpha, omega, k, stride, m)
    if m == 0:
        raise ValueError("horizon too short for a single window")
    return {pair: c / m for pair, c in counts.items()}


@dataclass(frozen=True)
class EstimatorReport:
    """Per-run record of coded, empirical and exact per-symbol rates."""

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

    def to_csv_row(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "code_rate": self.code_rate,
            "H_hat_over_k": "" if self.cross_entropy_rate is None else self.cross_entropy_rate,
            "exact_h_k": "" if self.exact_rate is None else self.exact_rate,
            "residual": "" if self.residual is None else self.residual,
            "seed": "" if self.seed is None else self.seed,
        }

    def to_json(self) -> dict:
        row = self.to_csv_row()
        row.update(
            info_rate=self.info_rate,
            total_bits=self.total_bits,
            tail_bits=self.tail_bits,
            length_bound_ok=self.length_bound_ok,
            eq15_ok=self.eq15_ok,
            no_undershoot_ok=self.no_undershoot_ok,
        )
        return {key: (None if value == "" else value) for key, value in row.items()}


def conditional_rate(name: OrbitName, family: BlockCodebookFamily, exact="auto") -> EstimatorReport:
    """Code the name and report bits per symbol against its entropy references.

    The coded rate is checked on every run against the per-block length
    bound, the blockwise cross-entropy bound
    code_rate <= H_hat/k + 1/k + tail/n, and the information-function
    floor code_rate >= J/n - 2 log2(n)/n.  exact may be "auto" (compute
    the exact rate when the block enumeration is desk scale), None, or a
    precomputed float.
    """
    from .fiber import exact_averaged_entropy

    k = family.k
    n = len(name)
    stream = encode(name, family)
    total_bits = len(stream.bits)
    tail_bits = len(stream.tail)
    m = stream.m
    code_rate = total_bits / n if n else 0.0

    cross = None
    eq15_ok = None
    if m >= 1:
        table = _name_table(name, k)
        acc = 0.0
        for (_, v, code), c in zip(_pair_codes(name, family, table), table.counts.tolist()):
            acc -= c * code.log2mu[v]
        cross = acc / (m * k)
        eq15_ok = code_rate <= cross + 1.0 / k + tail_bits / n + _TOL

    info_rate = None
    no_undershoot_ok = None
    if n >= 1:
        info_rate = information_function(name.fiber_spec, name, name.letters) / n
        no_undershoot_ok = code_rate >= info_rate - 2.0 * math.log2(n) / n - _TOL

    if exact == "auto":
        exact_rate = None
        if family.driving_spec.alphabet.size ** k <= _EXACT_AUTO_CAP:
            exact_rate = exact_averaged_entropy(name.fiber_spec, family.driving_spec, k).rate
    else:
        exact_rate = exact

    return EstimatorReport(
        n=n,
        k=k,
        seed=name.seed,
        code_rate=code_rate,
        cross_entropy_rate=cross,
        exact_rate=exact_rate,
        info_rate=info_rate,
        total_bits=total_bits,
        tail_bits=tail_bits,
        length_bound_ok=family.verify_length_bounds(),
        eq15_ok=eq15_ok,
        no_undershoot_ok=no_undershoot_ok,
    )


@dataclass(frozen=True)
class ArDecompositionReport:
    """Joint, plain and conditional coded rates for one sampled run.

    The ideal companions drop the integer rounding and tail costs: they
    are the exact -log2 probabilities of the coded blocks per symbol.
    """

    n: int
    k: int
    seed: int
    joint_rate: float
    plain_rate: float
    conditional_rate: float
    joint_ideal_rate: float
    plain_ideal_rate: float
    conditional_cross_rate: float
    eq15_ok: bool | None
    length_bound_ok: bool

    @property
    def residual(self) -> float:
        return self.joint_rate - self.plain_rate - self.conditional_rate

    def to_csv_row(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "joint_rate": self.joint_rate,
            "plain_rate": self.plain_rate,
            "conditional_rate": self.conditional_rate,
            "residual": self.residual,
            "joint_ideal_rate": self.joint_ideal_rate,
            "plain_ideal_rate": self.plain_ideal_rate,
            "conditional_cross_rate": self.conditional_cross_rate,
            "seed": self.seed,
        }


def ar_decomposition_check(
    driving_spec: MarkovChainSpec,
    fiber_spec: FiberSystemSpec,
    n: int,
    k: int,
    seed: int,
) -> ArDecompositionReport:
    """Compare joint, plain and conditional block-code rates on one run.

    The joint coder spends ceil(-log2(nu[u] mu[u|v])) bits per aligned
    pair block and raw codes remainder pairs; the plain coder is the
    driving block coder, whose exact nu the joint coder reuses; the
    conditional coder is the contextual fiber coder.  The report carries
    joint - plain - conditional.
    """
    trajectory = sample_trajectory(driving_spec, n, seed)
    name = emit_name(fiber_spec, trajectory, seed)
    family = BlockCodebookFamily(k, fiber_spec, driving_spec)
    cond = conditional_rate(name, family, exact=None)

    if n == 0:
        return ArDecompositionReport(0, k, seed, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, None, True)

    plain = block_code_details(driving_spec, trajectory, k)

    # every pair is consistent and every context positive: encode checked both
    table = _name_table(name, k)
    lengths = np.empty(len(table.rows), dtype=np.int64)
    ideals = np.empty(len(table.rows))
    for r, (u, v, code) in enumerate(_pair_codes(name, family, table)):
        nu = plain.nu[u]
        lengths[r] = max(1, shannon_length(nu * code.fractions[v]))
        ideals[r] = -code.log2mu[v] - math.log2(float(nu))
    pair_raw = (driving_spec.alphabet.size * fiber_spec.fiber_alphabet.size - 1).bit_length()
    joint_total = int(table.counts @ lengths) + (n - plain.m * k) * pair_raw
    joint_ideal = _sum_in_block_order(ideals, table.index)

    return ArDecompositionReport(
        n=n,
        k=k,
        seed=seed,
        joint_rate=joint_total / n,
        plain_rate=plain.total_bits / n,
        conditional_rate=cond.code_rate,
        joint_ideal_rate=joint_ideal / n,
        plain_ideal_rate=plain.ideal_bits / n,
        conditional_cross_rate=cond.cross_entropy_rate if cond.cross_entropy_rate is not None else 0.0,
        eq15_ok=cond.eq15_ok,
        length_bound_ok=cond.length_bound_ok,
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
    is assumed, and the header cost is charged to the rate.
    """
    n = len(name)
    m = n // k
    fiber_size = name.fiber_spec.fiber_alphabet.size
    raw = (fiber_size - 1).bit_length()
    if m == 0:
        tail_bits = n * raw
        return TwoPassReport(n, k, tail_bits / n if n else 0.0, 0, 0, tail_bits)
    counts, _ = pair_counts(name.driving, name.letters, k, "block", m)
    context_totals: Counter = Counter()
    for (u, _), c in counts.items():
        context_totals[u] += c
    theta_bits = (driving_alphabet_size - 1).bit_length()
    count_bits = m.bit_length()
    header_bits = 64 + len(counts) * (k * theta_bits + k * raw + count_bits)
    payload_bits = 0
    for (u, v), c in counts.items():
        payload_bits += c * max(1, shannon_length(Fraction(c, context_totals[u])))
    tail_bits = (n - m * k) * raw
    total = header_bits + payload_bits + tail_bits
    return TwoPassReport(n, k, total / n, header_bits, payload_bits, tail_bits)
