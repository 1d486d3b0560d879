"""Randomly driven symbolic fibers: orbit names, their information, and
the exact averaged entropy they are checked against.

A fiber system pairs a coordinate action with a product (per-coordinate
i.i.d.) symbol distribution on a fiber alphabet.  Configurations are
uncountable objects, so they are realized lazily: the symbol at a
coordinate is a deterministic keyed hash of (seed, canonical coordinate
key).  An orbit name is fixed by its symbols at the first visits of its
driving walk, so only first visits are hashed, as the walk meets them a
span at a time (actions._walk_spans); the information function is -log2 p
summed over them, read off how often each symbol is read there (both
read a name a span at a time, by actions._spans); and the averaged
entropy is the expected number of distinct coordinates times H(p).  That
expectation (the range of a random walk) is an exact Fraction, found
without listing driving words by one of three paths chosen from the
input: exactly n where no coordinate can repeat (the free monoid, and f2
under a chain that never steps to an inverse), the renewal identity for
z2 under i.i.d. steps, and a backward taboo recursion over the driving
chain otherwise.  The path is chosen once per (chain, action) and kept on
the chain with one table that serves every n up to the longest asked; a
path's cap is checked before its table grows, so the cap bounds what the
chain keeps.  The tests keep the full (u, v) enumeration as an
independent oracle (tests/oracles.py).  Sampled names are compared with
the exact rates by the coders (coding.conditional_rate).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .actions import ACTION_KINDS, INVERSE, Z2_VECTORS, _check_seed, _integer, _integers, _spans
from .actions import _walk_spans, check_driving_size, walk
from .driving import _EXACT_HINT, MarkovChainSpec, _as_fraction, _cumulative, _inverse_cdf, _letter_dtype
from .driving import _listed, _over_lcm
from .errors import InfiniteInformationError, ResourceLimitError
from .records import FrozenRecord
from .words import Alphabet

# the one cap on exhaustive work, each bound checked by the code that
# allocates it: taboo driving words size**n (_TabooTable), renewal
# table bits n**2 * den.bit_length() (_RenewalTable), and the CLI block
# coders' pair blocks (|driving| * |fiber|)**k (ExperimentConfig.check_codebook_cap);
# the tests' (u, v) oracle caps its pairs (size * fiber size)**n by it too
ENUMERATION_CAP = 2 ** 24


def _exceeds_cap(base: int, power: int) -> bool:
    """base**power > ENUMERATION_CAP, with no power formed far past the cap.

    For base >= 2 the power at the cap's bit length already exceeds it.
    """
    return base ** min(power, ENUMERATION_CAP.bit_length()) > ENUMERATION_CAP


class FiberSystemSpec(FrozenRecord):
    """A coordinate action plus a fully supported symbol distribution.

    A validated record (records.FrozenRecord): the law is read as
    Fractions and checked once, when the spec is built.
    """

    action_kind: str
    fiber_alphabet: Alphabet
    p: tuple[Fraction, ...]

    def __post_init__(self):
        if self.action_kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.action_kind!r}")
        p = tuple(_as_fraction(x) for x in self.p)
        object.__setattr__(self, "p", p)
        if len(p) != self.fiber_alphabet.size:
            raise ValueError("p must be indexed by the fiber alphabet")
        if any(x <= 0 for x in p):
            raise ValueError("every fiber symbol must have positive probability")
        if sum(p) != 1:
            raise ValueError(f"p must sum to exactly 1{_EXACT_HINT}")

    @cached_property
    def _p_numerators(self) -> tuple[np.ndarray, int]:
        return _over_lcm(self.p)

    @classmethod
    def from_dict(cls, data: dict) -> "FiberSystemSpec":
        return cls(data["action"], Alphabet(_listed(data["fiber_alphabet"], "fiber_alphabet")), _listed(data["p"], "p"))

    @cached_property
    def _entropy_bits(self) -> float:
        return -sum(float(q) * math.log2(float(q)) for q in self.p)

    def symbol_entropy(self) -> float:
        """Shannon entropy of the per-coordinate distribution, in bits, computed once per spec."""
        return self._entropy_bits


def _log2p(spec: FiberSystemSpec) -> np.ndarray:
    return np.array([math.log2(float(q)) for q in spec.p])


class OrbitName(FrozenRecord):
    """The fiber symbols read while a configuration is driven along alpha.

    first is the walk of the driving word (see actions.walk), kept so the
    name's information needs no second walk; it is computed when omitted.
    emit_name stores letters in driving._letter_dtype(|F|), uint8 up to
    256 symbols and uint16 up to 65536; both words are read by
    actions._integers and keep their integer dtype (uint8 for a sampled
    trajectory), and first is int32 while the name is shorter than 2**31.
    A validated record (records.FrozenRecord) whose first, derived from the
    driving word, takes no part in ==, hash or repr.
    """

    fiber_spec: FiberSystemSpec
    driving: np.ndarray
    letters: np.ndarray
    seed: int | None = None
    first: np.ndarray | None = None

    _uncompared = ("first",)

    def __post_init__(self):
        object.__setattr__(self, "driving", _integers(self.driving))
        object.__setattr__(self, "letters", _integers(self.letters))
        if len(self.driving) != len(self.letters):
            raise ValueError("orbit name must be as long as its driving word")
        if self.first is None:
            object.__setattr__(self, "first", walk(self.fiber_spec.action_kind, self.driving).first)

    def __len__(self) -> int:
        return len(self.letters)


def emit_name(spec: FiberSystemSpec, alpha, seed: int) -> OrbitName:
    """Drive a lazily sampled configuration along alpha and read its name.

    The symbol at a coordinate is drawn from its key alone: the walk's
    draw, an 8-byte blake2b hash keyed by the seed (see actions.walk), read
    as an integer over 2**64 (a float64 u in [0, 1]) and mapped through the
    sampler's inverse CDF (driving._inverse_cdf) of p, u = 1.0 to the last
    symbol, whose guide table is built once per call.  Each distinct
    coordinate is hashed once, when the walk first meets it.  The walk is
    taken a span of positions at a time (actions._walk_spans), and the
    name is filled as each span comes: the span's first visits and the
    draws of its new coordinates are mapped to u and to symbols, each with
    the same float64 operations as one pass over all of them, and written
    at their first visits, and every step reads its first visit, which
    lies in the span or before it; so the name is always consistent, and
    only first and the name are as long as alpha.  Symbols are stored in
    driving._letter_dtype(|F|).
    """
    seed = _check_seed(seed)
    driving = _integers(alpha)
    # the name and first are allocated before the walk's set-up temporaries,
    # so that freeing them leaves one free stretch of heap rather than holes
    letters = np.zeros(len(driving), dtype=_letter_dtype(spec.fiber_alphabet.size))
    symbol = _inverse_cdf(_cumulative(spec.p))
    first, spans = _walk_spans(spec.action_kind, driving, seed)
    hi = 0
    for steps, drawn in spans:
        lo, hi = hi, hi + len(steps)
        u = drawn.astype(np.float64)
        u /= 2.0 ** 64
        name = letters[lo:hi]
        name[steps == np.arange(lo, hi, dtype=steps.dtype)] = symbol(u)
        name[:] = letters.take(steps)
        # the span goes before the walk takes the next one
        del steps, drawn, u
    return OrbitName(spec, driving, letters, seed, first)


def _first_symbol_spans(spec: FiberSystemSpec, first: np.ndarray, v):
    """The symbols v reads at first visits, one span of positions at a time (actions._spans), in v's own dtype.

    v is checked before the first span, and a span in which v gives a
    revisited coordinate another symbol than its first visit's raises
    InfiniteInformationError: the one refusal of a null pair.
    """
    v = _integers(v, spec.fiber_alphabet.size, "fiber letters")
    if len(v) != len(first):
        raise ValueError("driving and fiber words must have equal length")
    for lo, hi in _spans(len(v)):
        at, here = first[lo:hi], v[lo:hi]
        if not np.array_equal(v.take(at), here):
            raise InfiniteInformationError("prefix pair has zero probability")
        yield here[at == np.arange(lo, hi, dtype=at.dtype)]


def information_function(spec: FiberSystemSpec, alpha, omega) -> float:
    """Bits of information in the orbit-name cylinder, -log2 of its measure.

    alpha is a driving word, a trajectory, or an OrbitName, whose kept walk
    is reused; a name of another action than spec's raises ValueError.  The
    value is -log2 p summed over the first visits.  Raises
    InfiniteInformationError on an inconsistent (zero-probability) prefix
    pair.  Names produced by emit_name are always consistent.
    """
    if isinstance(alpha, OrbitName):
        if alpha.fiber_spec.action_kind != spec.action_kind:
            raise ValueError("name and spec disagree on the action")
        first = alpha.first
    else:
        first = walk(spec.action_kind, alpha).first
    return _information(spec, first, omega)[0]


def _information(spec: FiberSystemSpec, first: np.ndarray, v) -> tuple[float, list[int]]:
    """-log2 p summed over v's first visits, and how often each symbol is read there.

    The symbols are counted a span at a time, as _first_symbol_spans reads
    them, so none are kept, and the sum is read off the counts: each
    product counts[s] * log2 p[s] is rounded once, and the products are
    summed exactly by math.fsum, so no float is formed per first visit and
    the value does not depend on how a vectorized sum would pair its terms.
    It can differ by an ulp or two from a float64 sum over the first
    visits one by one.
    """
    counts = np.zeros(spec.fiber_alphabet.size, dtype=np.int64)
    for symbols in _first_symbol_spans(spec, first, v):
        counts += np.bincount(symbols, minlength=len(counts))
    counts = counts.tolist()
    return -math.fsum(c * x for c, x in zip(counts, _log2p(spec).tolist())), counts


class ExactAveragedEntropy(NamedTuple):
    """Averaged entropy of the first n orbit symbols and its per-symbol rate, as a NamedTuple."""

    n: int
    bits: float

    @property
    def rate(self) -> float:
        return self.bits / self.n


def _expected_distinct(driving_spec: MarkovChainSpec, kind: str, n: int) -> Fraction:
    """Exact expected number of distinct coordinates among c_0 .. c_{n-1}.

    The one place a path is chosen.  It is chosen once per (chain, action)
    and kept as that path's table in driving_spec._range_tables[kind], so
    the table goes away with its chain, and every later n up to the longest
    asked is read from it.  Each path refuses past its own cap before its
    table changes, and a table that fails in any other way is dropped:
    - linear, _LINEAR: no coordinate can repeat, on the free monoid and on
      f2 under a chain that never steps from a letter to its inverse (every
      positive driving word is then reduced), so the value is n, with no
      table;
    - renewal, _RenewalTable: z2 under i.i.d. steps (driving_spec._iid,
      every row of Pi equal to pi), extended a step at a time (O(n**2)
      integer products in all);
    - taboo, _TabooTable: every other chain, recomputed from level 1 for a
      longer n.
    """
    tables = driving_spec._range_tables
    table = tables.get(kind)
    if table is None:
        if kind == "free-monoid" or (kind == "f2" and not driving_spec._support[1][np.arange(4), INVERSE].any()):
            table = _LINEAR
        elif kind == "z2" and driving_spec._iid:
            table = _RenewalTable(driving_spec)
        else:
            table = _TabooTable(driving_spec, kind)
        tables[kind] = table
    try:
        return table.distinct(n)
    except ResourceLimitError:
        raise  # refused before the table changed
    except BaseException:
        # an interrupt or error while the table grew may leave it half
        # extended; the next call starts a new one
        del tables[kind]
        raise


class _LinearTable:
    """The linear path: every coordinate is new, so E[R_n] = n and nothing is kept."""

    @staticmethod
    def distinct(n: int) -> Fraction:
        return Fraction(n)


_LINEAR = _LinearTable()


class _RenewalTable:
    """E[distinct coordinates among c_0 .. c_{n-1}] for z2 under i.i.d. steps,
    for every n up to the longest asked.

    c_i = theta_{i-1} + ... + theta_0 is new exactly when no sum of the
    last m <= i steps is zero; reversed i.i.d. steps have the same law, so
    that is the event T_0 > i for a fresh walk, T_0 its first return time to
    the origin, and E[R_n] = sum_{i<n} P(T_0 > i), the Dvoretzky-Erdos /
    Kesten-Spitzer-Whitman range identity (Spitzer, Principles of Random
    Walk).  Over den = lcm(den pi) every term is an integer recurrence in i,
    so the table grows a step at a time and a call forms one Fraction:
    - returns[h] = U_{2h} = u_{2h} * den**(2h), with u_m = P(S_m = 0) the
      constant term of (p0 x + p1/x + p2 y + p3/y)**m, zero for odd m, so
      U_{2h} = C(2h, h) * g_h with g_h = sum_a C(h, a)**2 X**a Y**(h-a),
      X = n0 n1 and Y = n2 n3 the products of the integer numerators of
      opposite steps.  g_h is a scaled Legendre polynomial, so it obeys
      (h+1) g_{h+1} = (2h+1)(X+Y) g_h - h (Y-X)**2 g_{h-1}, whose division
      is exact; the tests compare it with the sum;
    - firsts[h] = F_{2h}, the first returns F_m = f_m * den**m, from the
      renewal equation u_m = sum_{0<j<=m} f_j u_{m-j}: F_m = U_m -
      sum_{0<j<m} F_j U_{m-j}, zero for odd m;
    - S_i = P(T_0 > i) * den**i = den * S_{i-1} - F_i from S_0 = 1, and
      totals[i] = den * totals[i-1] + S_i, so E[R_n] = totals[n-1] / den**(n-1).
    A call refuses n past ENUMERATION_CAP bits of integer tables,
    n**2 * den.bit_length(), before the table grows, so a kept table stays
    within about that many bits.
    """

    def __init__(self, driving_spec: MarkovChainSpec):
        nums, self.den = driving_spec._pi_numerators
        self.x, self.y = nums[0] * nums[1], nums[2] * nums[3]
        self.legendre = (1, self.x + self.y)  # (g_{h-1}, g_h) for the next h
        self.returns = [1]
        self.firsts = [0]  # F_0 is not a return
        self.survival = 1  # S_i at the last i in totals
        self.totals = [1]

    def distinct(self, n: int) -> Fraction:
        table_bits = n * n * self.den.bit_length()
        if table_bits > ENUMERATION_CAP:
            raise ResourceLimitError(f"renewal tables of {table_bits} bits exceed the enumeration cap")
        self._extend(n)
        return Fraction(self.totals[n - 1], self.den ** (n - 1))

    def _extend(self, n: int) -> None:
        """Grow the table to totals[n-1]."""
        x, y, den, returns, firsts = self.x, self.y, self.den, self.returns, self.firsts
        for i in range(len(self.totals), n):
            first = 0
            if i % 2 == 0:
                h = i // 2
                g, g_next = self.legendre
                returns.append(math.comb(2 * h, h) * g_next)
                self.legendre = g_next, ((2 * h + 1) * (x + y) * g_next - h * (y - x) ** 2 * g) // (h + 1)
                first = returns[h] - sum(map(int.__mul__, firsts[1:h], returns[h - 1:0:-1]))
                firsts.append(first)
            self.survival = den * self.survival - first
            self.totals.append(den * self.totals[-1] + self.survival)


def _z2_left(h: tuple[int, int], letter: int) -> tuple[int, int]:
    dx, dy = Z2_VECTORS[letter]
    return (h[0] + dx, h[1] + dy)


def _f2_left(h: tuple[int, ...], letter: int) -> tuple[int, ...]:
    # h is the reduced word, head first: letter * h cancels the head or prepends
    return h[1:] if h and h[0] == INVERSE[letter] else (letter,) + h


# kind -> (identity, left multiplication by a letter) on the group
# coordinates themselves, which key the taboo states
_GROUP_STEPS = {"z2": ((0, 0), _z2_left), "f2": ((), _f2_left)}


class _TabooTable:
    """E[distinct coordinates among c_0 .. c_{n-1}] for any chain and group,
    for every n up to the longest asked.

    A backward taboo recursion, in the manner of the range of a random walk.
    Group coordinates are c_i = theta_{i-1} ... theta_0, so c_i repeats an
    earlier coordinate exactly when some theta_{i-1} ... theta_{i-m} is the
    identity.  Read the driving word backwards from theta_{i-1} and keep
    h = (theta_{i-1} ... theta_{i-m})^-1: an earlier letter b multiplies h
    on the left by b^-1 (_GROUP_STEPS), and c_i is new when h never reaches
    the identity.  A state is (h, a), with h the group element itself (a
    lattice point, or a reduced word as a tuple) and a the letter read
    last; its weight is the integer scale**(m-1) times the chain's
    transition product along the m letters read.  The weights do not
    depend on i, so P(c_i is new) = sum of weight * pi[a] at m = i, and one
    pass over m = 1 .. n-1 gives every E[R_m] with m <= n.  The table keeps
    those values and no level's states: states never merge across levels,
    so their number grows with m (exponentially on f2, bounded by
    size**m), and a longer n recomputes from level 1.  size**n past
    ENUMERATION_CAP is refused before any state is built.
    """

    def __init__(self, driving_spec: MarkovChainSpec, kind: str):
        self.kind, self.pi, self.size = kind, driving_spec.pi, driving_spec.alphabet.size
        steps, self.scale = driving_spec._Pi_numerators
        # before[a] lists each letter b that may precede a, with scale * Pi[b][a]
        self.before = [[(b, t) for b, t in enumerate(steps[:, a].tolist()) if t] for a in range(self.size)]
        self.expected = [Fraction(1)]  # E[R_m] at m = 1, 2, ...

    def distinct(self, n: int) -> Fraction:
        if _exceeds_cap(self.size, n):
            raise ResourceLimitError(f"{self.size}**{n} driving words exceed the enumeration cap")
        if n > len(self.expected):
            self.expected = self._levels(n)
        return self.expected[n - 1]

    def _levels(self, n: int) -> list[Fraction]:
        """E[R_m] for m = 1 .. n, from level 1."""
        identity, step = _GROUP_STEPS[self.kind]
        # weights: (h, a) -> weight at level m
        weights = {(step(identity, INVERSE[a]), a): 1 for a in range(self.size)}
        totals = [1] * self.size
        expected = [Fraction(1)]
        for m in range(1, n):
            expected.append(expected[-1] + sum(p * w for p, w in zip(self.pi, totals)) / self.scale ** (m - 1))
            if m == n - 1:
                break
            # level m + 1; the last level is summed without being kept
            keep = m + 1 < n - 1
            totals = [0] * self.size
            grown = {}
            for (h, a), x in weights.items():
                for b, t in self.before[a]:
                    g = step(h, INVERSE[b])
                    if g == identity:
                        continue
                    totals[b] += t * x
                    if keep:
                        grown[g, b] = grown.get((g, b), 0) + t * x
            weights = grown
        return expected


def exact_averaged_entropy(spec: FiberSystemSpec, driving_spec: MarkovChainSpec, n: int) -> ExactAveragedEntropy:
    """Exact averaged entropy of the first n orbit symbols, in bits.

    It uses the product-measure collapse: the inner fiber sum for a driving
    word equals (distinct coordinates) * H(p), so the value is
    E[distinct] * H(p), with E[distinct] an exact Fraction from
    _expected_distinct, rounded once.  H(p) is computed once per fiber
    spec.

    One table per (driving chain, action) serves every n up to the longest
    asked: it is kept on driving_spec and goes away with it, so a sweep
    n = 1 .. N costs about one call at N.  Each path checks its own cost
    against ENUMERATION_CAP before its table grows, and raises
    ResourceLimitError past it, leaving the table as it was; the cap thus
    bounds the table too:
    - linear (free monoid, f2 that never cancels): no cap and no table, the
      value is n;
    - renewal (z2 under i.i.d. steps): n**2 * den.bit_length() bits of
      integer tables, den = lcm(den pi), so n <= 2364 under uniform z2
      steps; the table keeps about that many bits;
    - taboo (every other chain): size**n driving words bound its states;
      the table keeps one Fraction per n and no states.
    """
    n = _integer(n, "n", 1)
    check_driving_size(spec.action_kind, driving_spec.alphabet.size)
    bits = float(_expected_distinct(driving_spec, spec.action_kind, n)) * spec.symbol_entropy()
    return ExactAveragedEntropy(n, bits)


def exact_rate_or_none(spec: FiberSystemSpec, driving_spec: MarkovChainSpec, k: int) -> float | None:
    """The exact rate h_k = H_k / k, or None where exact_averaged_entropy refuses k past its cap."""
    try:
        return exact_averaged_entropy(spec, driving_spec, k).rate
    except ResourceLimitError:
        return None
