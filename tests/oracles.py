"""Reference computations shared by several test modules."""

import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

import numpy as np

from fiberlab.actions import INVERSE, Z2_VECTORS, walk
from fiberlab.driving import cylinder_prob
from fiberlab.errors import InfiniteInformationError, ResourceLimitError
from fiberlab.fiber import _exceeds_cap, _first_symbol_spans, _log2p


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def _chain(key: bytes, letter: int) -> bytes:
    return _digest(key + bytes([letter]))


def _z2_step(c: tuple[int, int], letter: int) -> tuple[int, int]:
    dx, dy = Z2_VECTORS[letter]
    return (c[0] + dx, c[1] + dy)


def _f2_step(c: tuple, letter: int) -> tuple:
    # c is (key, head letter, parent): left multiplication cancels the head
    # or prepends the letter
    if c[1] == INVERSE[letter]:
        return c[2]
    return (_chain(c[0], letter), letter, c)


# kind -> (identity coordinate, step rule, canonical key of a coordinate):
# each action written once, one coordinate at a time
LAWS = {
    "free-monoid": (_digest(b"fiberlab:free-monoid:e"), _chain, lambda c: c),
    "z2": ((0, 0), _z2_step, lambda c: b"%d,%d" % c),
    "f2": ((_digest(b"fiberlab:f2:e"), None, None), _f2_step, itemgetter(0)),
}


def reference_walk(kind, letters):
    """The generic walk over LAWS: step every letter and key every coordinate.

    Returns first, as a list, and the keys of the distinct coordinates in
    first-visit order: the oracle every walk kernel must equal.
    """
    identity, step, key = LAWS[kind]
    letters = np.asarray(letters, dtype=np.int64).tolist()
    seen, first, keys = {}, [], []
    for i, c in enumerate(accumulate(letters[:-1], step, initial=identity) if letters else ()):
        k = key(c)
        j = seen.setdefault(k, i)
        if j == i:
            keys.append(k)
        first.append(j)
    return first, keys


def first_symbols(spec, first, v):
    """The symbols v reads at first visits, all in one array, or None when v
    gives a revisited coordinate two different symbols: fiber's span-wise
    reading (_first_symbol_spans) joined."""
    try:
        return np.concatenate([np.empty(0, dtype=np.int64), *_first_symbol_spans(spec, first, v)])
    except InfiniteInformationError:
        return None


def conditional_cylinder_fraction(spec, u, v) -> Fraction:
    """Exact probability that the orbit driven by u reads the fiber word v.

    Zero when v assigns conflicting symbols to a revisited coordinate;
    otherwise the product of p over the distinct coordinates visited.  The
    (u, v) oracle of the information function and the block coders.
    """
    symbols = first_symbols(spec, walk(spec.action_kind, u).first, v)
    if symbols is None:
        return Fraction(0)
    return math.prod((spec.p[s] for s in symbols.tolist()), start=Fraction(1))


def averaged_entropy_enumerated(spec, driving_spec, n: int) -> float:
    """Oracle path: the full double sum over driving and fiber words.

    For every driving word u of positive probability, every fiber word v
    is scored with its exact conditional cylinder probability; no use is
    made of the product-measure collapse.  (size * fiber size)**n pairs
    past ENUMERATION_CAP are refused before any word is listed.
    """
    size = driving_spec.alphabet.size
    fiber_size = spec.fiber_alphabet.size
    if _exceeds_cap(size * fiber_size, n):
        raise ResourceLimitError("full (u, v) enumeration exceeds the enumeration cap")
    logp = _log2p(spec)
    V = np.array(list(itertools.product(range(fiber_size), repeat=n)), dtype=np.int64)
    total = 0.0
    for u in itertools.product(range(size), repeat=n):
        nu = float(cylinder_prob(driving_spec, u))
        if nu == 0.0:
            continue
        first = walk(spec.action_kind, u).first
        mask = (V == V[:, first]).all(axis=1)
        log2mu = logp[V[:, first == np.arange(n)]].sum(axis=1)[mask]
        total -= nu * float((np.exp2(log2mu) * log2mu).sum())
    return total


def sliding_pair_counts(alpha, omega, k: int, m: int) -> Counter:
    """Counts of the (driving, fiber) windows of length k at offsets 0 .. m - 1.

    One window per offset, where coding.pair_counts takes one per block;
    the shift-averaging identity equates these counts with the sum of the
    block counts of the k phases.  Keys are (u, v) tuples of ints.
    """
    alpha, omega = np.asarray(alpha).tolist(), np.asarray(omega).tolist()
    return Counter((tuple(alpha[i : i + k]), tuple(omega[i : i + k])) for i in range(m))


def is_irreducible(spec) -> bool:
    """Whether the states reachable from the support of pi are strongly
    connected in the graph of positive transitions, by depth-first search
    over Fraction comparisons: the list-based check the support's boolean
    reachability closure replaced, kept as the oracle."""
    s = spec.alphabet.size
    forward = [[j for j in range(s) if spec.Pi[i][j] > 0] for i in range(s)]
    backward = [[j for j in range(s) if spec.Pi[j][i] > 0] for i in range(s)]

    def reached(adjacency, starts):
        seen = set(starts)
        stack = list(starts)
        while stack:
            for j in adjacency[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    live = reached(forward, [i for i in range(s) if spec.pi[i] > 0])
    root = min(live)
    # no path between two live states leaves them, so a search from one live state covers the rest
    return reached(forward, [root]) == live and reached(backward, [root]) >= live


def bufetov_condition(spec) -> bool:
    """Whether every pair of states has a common predecessor with positive
    transition probability to both, by sets of successors: the list-based
    check one product of the support replaced, kept as the oracle."""
    s = spec.alphabet.size
    successors = [frozenset(j for j in range(s) if spec.Pi[i][j] > 0) for i in range(s)]
    for a in range(s):
        for b in range(a, s):
            if not any(a in successors[d] and b in successors[d] for d in range(s)):
                return False
    return True


def block_table(words, k: int):
    """The block table built from row tuples in a dict: the distinct rows in
    first-occurrence order, their counts, each block's index into them, each
    distinct row's first row, and its context, the number of its first
    word's block among that word's distinct blocks in key order (the order
    of their letters, first letter most significant).  Rows are tuples of
    one tuple of ints per word."""
    m = len(words[0]) // k
    blocks = [np.asarray(w)[: m * k].reshape(m, k).tolist() for w in words]
    rows = [tuple(tuple(word[i]) for word in blocks) for i in range(m)]
    numbers, first = {}, []
    index = []
    for i, row in enumerate(rows):
        if row not in numbers:
            numbers[row] = len(numbers)
            first.append(i)
        index.append(numbers[row])
    counts = Counter(index)
    contexts = {block: c for c, block in enumerate(sorted({row[0] for row in numbers}))}
    return list(numbers), index, [counts[j] for j in range(len(numbers))], first, [contexts[row[0]] for row in numbers]
