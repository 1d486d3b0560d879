"""Coordinates traced out along a driving word.

Three actions are supported: the free monoid over the driving alphabet
(coordinates are the plain prefixes, extended on the right), the integer
lattice Z^2 over the four generators +-e1, +-e2, and the free group on two
generators over a, a^-1, b, b^-1 (reduced words).  Group coordinates are
updated by left multiplication, c_{i+1} = theta_i * c_i, so the coordinate
after i steps is the left-to-right product of the first i letters in
reverse order; the free monoid appends instead.  The two orientations
differ by a word reversal that preserves all visit counts.

Every coordinate has a canonical byte key.  A lattice key is the
integer pair written b"x,y"; a word key chains a 16-byte blake2b digest
per letter onto the identity's key (_MONOID_IDENTITY, _F2_IDENTITY), so a
key depends only on the coordinate itself, never on how or when it was
reached.  Two coordinates are equal exactly when their keys are.

walk() is the one contract for stepping a driving word.  It returns
first[i], the smallest j with c_j = c_i, and, when given a seed, the
symbol draws of the distinct coordinates in first-visit order: each the
8-byte blake2b digest of the coordinate's key, keyed by the seed.
Everything else is read off these: position i is a first visit when
first[i] == i, so visit counts are a cumulative sum, and an orbit name is
fixed by its symbols at the first visits.  Three kernels meet the
contract, one per action.  z2 sums the steps into its two coordinates,
numbers each position by its offset in the walk's bounding box (by its
rank among the distinct offsets when the box holds more than _BOX_CELLS
cells per step), and reads first visits off one table of each cell's
first step, with no sort.  The free monoid chains one key per step (its
prefixes never repeat), and f2 numbers the tree nodes it meets, then
chains their keys in node order, each from its parent's.  A kernel hands
_draws its keys in first-visit order, one span of _spans at a time: z2 as
one formatted list per span, the chains as an islice of their key
iterator.  _draws alone hashes them under the seed, and no list of all
keys is built but the f2 tree's.  Without a seed no key is made, so the
walks that only read first hash nothing.

Every chunked pass (z2's first-visit table, _draws' key spans and joins,
fiber's name reads, the sampler, the coders' rows and JSON report rows)
takes the spans of _CHUNK that _spans cuts, and gives the same result
for any span length.

Per-letter arrays take the smallest dtype that holds their values:
driving letters are uint8 (every driving alphabet has at most 256
letters), first and z2's coordinates are int32 while n < 2**31 (int64
past it), z2's position codes are int32 while the box holds fewer than
2**31 cells, and draws are uint64.  Every letters argument is read by
one rule, _integers, which checks them against an alphabet size when
given one; walk() then reads uint8 letters as they are and copies other
integer letters to uint8 once.

The tests keep a generic walk that steps and keys one coordinate at a
time (tests/oracles.py) as the oracle the kernels must equal.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import operator
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Sequence

import numpy as np

ACTION_KINDS = ("free-monoid", "z2", "f2")

Z2_VECTORS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# both groups pair their generators: INVERSE[a] is the letter of a's inverse
INVERSE = (1, 0, 3, 2)
_INVERSE = np.array(INVERSE, dtype=np.uint8)

# a free-monoid key chains one byte per letter
_MONOID_LETTERS = 256
_BYTES = [bytes([letter]) for letter in range(_MONOID_LETTERS)]

# every chain hash is a copy of this one hasher: the same digest as
# blake2b(data, digest_size=16), without parsing the parameters each time
_CHAIN_HASHER = hashlib.blake2b(digest_size=16)
# the keys of the two word identities, from which every other key chains
_MONOID_IDENTITY = hashlib.blake2b(b"fiberlab:free-monoid:e", digest_size=16).digest()
_F2_IDENTITY = hashlib.blake2b(b"fiberlab:f2:e", digest_size=16).digest()
# items every chunked pass takes at once (_spans): a span of digests, with
# bytes.join's 80-byte buffer view per part, stays under 1 MB
_CHUNK = 2 ** 12
# a z2 walk whose bounding box holds more than this many cells per step
# numbers its positions by rank rather than by their offset in the box, so
# its first-visit table holds at most 3.5 step indices per step (_walk_z2)
_BOX_CELLS = 3.5


def _index_dtype(n: int) -> np.dtype:
    """The dtype of step indices below n: int32 while n < 2**31, else int64.

    Its char is also the array typecode of the same C type.
    """
    return np.dtype("i" if n < 2 ** 31 else "q")


def _spans(stop: float = math.inf, start: int = 0, multiple: int = 1):
    """(lo, hi) over range(start, stop), endless by default.

    Every span but the last is _CHUNK rounded down to a multiple of
    multiple, and at least multiple, long; _CHUNK is read as the spans begin.
    """
    lo, step = start, max(_CHUNK // multiple, 1) * multiple
    while lo < stop:
        yield lo, min(lo + step, stop)
        lo += step


def _integers(letters, size: int | None = None, what: str = "letters") -> np.ndarray:
    """letters as a one-dimensional integer array, with no copy when they are one: the one letters rule.

    A Word or DrivingTrajectory gives numpy its letters (__array__); no
    .letters attribute is read, so an OrbitName is refused.  An empty
    sequence becomes int64; floats, bools, 2-D and, given an alphabet size,
    letters outside [0, size) raise ValueError.
    """
    letters = np.asarray(letters)
    if letters.ndim != 1 or (letters.dtype.kind not in "iu" and letters.size):
        raise ValueError(f"letters must be one-dimensional integers, not {letters.ndim}-D {letters.dtype}")
    letters = letters if letters.dtype.kind in "iu" else letters.astype(np.int64)
    if size is not None and letters.size and (letters.min() < 0 or letters.max() >= size):
        raise ValueError(f"{what} must lie in [0, {size})")
    return letters


def driving_size(kind: str) -> int | None:
    """Number of driving letters the action consumes, None when unconstrained."""
    if kind not in ACTION_KINDS:
        raise ValueError(f"unknown action kind {kind!r}")
    return None if kind == "free-monoid" else 4


def check_driving_size(kind: str, size: int) -> None:
    """Raise ValueError unless a driving alphabet of this size fits the action.

    The free monoid takes at most _MONOID_LETTERS letters, one key byte each.
    """
    fixed = driving_size(kind)
    if fixed is None and size > _MONOID_LETTERS:
        raise ValueError(f"action {kind!r} takes at most {_MONOID_LETTERS} driving letters, not {size}")
    if fixed is not None and size != fixed:
        raise ValueError(f"action {kind!r} requires a driving alphabet of size {fixed}")


class Walk(NamedTuple):
    """First visits of c_0 .. c_{n-1} and the symbol draws of the distinct coordinates."""

    first: np.ndarray
    draws: np.ndarray | None


def _integer(value, what: str, least: int | None = None) -> int:
    """value as an int, by operator.index, and at least least when given:
    the one rule for seeds, horizons, block lengths, checkpoints, codeword
    lengths and letter and word indices.  A bool, float, string or other
    non-integer, or an integer below least, raises ValueError.
    """
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if least is not None and value < least:
                raise ValueError(f"{what} must be >= {least}")
            return value
    raise ValueError(f"{what} must be an integer, not {value!r}")


def _real(value, what: str) -> float:
    """value as a float when it is a real number and not a bool: the one rule
    for tolerances and supplied rates.  A bool, string or other non-real,
    or a real past the float range such as 10**400, raises ValueError; NaN
    and the infinities pass, for each caller to refuse in its own terms.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{what} must be a finite number, not one past the float range") from None
    raise ValueError(f"{what} must be a real number, not {value!r}")


def _check_seed(seed) -> int:
    """seed as an int in [0, 2**64), the one seed rule; anything else raises ValueError."""
    seed = _integer(seed, "seed")
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return seed


def _draws(spans, count: int, seed: int) -> np.ndarray:
    """The uint64 symbol draws of count keys: the one draw rule.

    spans gives the keys of each span (lo, hi) of _spans(count), hi - lo
    keys each, as a list or an iterator.  Draw d is the little-endian
    8-byte blake2b digest of the d-th key, keyed by the seed's 8
    little-endian bytes.  Each draw is a copy of one keyed hasher, so the
    key block is compressed once, and a span's digests are joined at once.
    """
    draw = hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little")).copy
    draws = np.empty(count, dtype=np.uint64)
    for (lo, hi), keys in zip(_spans(count), spans):
        digests = []
        append = digests.append
        for key in keys:
            h = draw()
            h.update(key)
            append(h.digest())
        draws[lo:hi] = np.frombuffer(b"".join(digests), dtype="<u8")
        # a span's keys and digests go before the next span's keys are made
        del keys, digests, append
    return draws


def _cut(keys, count: int):
    """An iterator of count keys as the spans of _spans(count), one islice each."""
    keys = iter(keys)
    return (islice(keys, hi - lo) for lo, hi in _spans(count))


def _chain(key: bytes, steps: bytes):
    """key, then each key chained from the one before by the next letter of steps."""
    chain, byte = _CHAIN_HASHER.copy, _BYTES
    yield key
    # bytes iterate as ints, with no list of Python ints alongside
    for letter in steps:
        h = chain()
        h.update(key + byte[letter])
        key = h.digest()
        yield key


def _chained(identity: bytes, letters: np.ndarray, seed: int | None) -> Walk:
    # every step reaches a new coordinate: coordinate i chains letter i - 1
    # onto the key of coordinate i - 1, and only the last key is held
    n = len(letters)
    first = np.arange(n, dtype=_index_dtype(n))
    if seed is None:
        return Walk(first, None)
    return Walk(first, _draws(_cut(_chain(identity, letters[:-1].tobytes()), n), n, seed))


def _walk_free_monoid(letters: np.ndarray, seed: int | None) -> Walk:
    return _chained(_MONOID_IDENTITY, letters, seed)


def _walk_z2(letters: np.ndarray, seed: int | None) -> Walk:
    n = len(letters)
    index = _index_dtype(n)
    # letters 0 and 1 step x by +1 and -1, letters 2 and 3 step y (Z2_VECTORS)
    x, y = _coordinate(letters, 0, index), _coordinate(letters, 2, index)
    # c_0 = (0, 0), so 0 bounds every box, an empty walk's too
    x0, y0 = int(x.min(initial=0)), int(y.min(initial=0))
    height = int(y.max(initial=0)) - y0 + 1
    cells = (int(x.max(initial=0)) - x0 + 1) * height
    # a position's code is its offset in the walk's bounding box, in place
    # over x when the box's dtype is x's
    code = x.astype(_index_dtype(cells), copy=False)
    code -= x0
    code *= height
    y -= y0
    code += y
    del x, y
    # a box this sparse would outweigh the walk: rank the offsets instead
    offsets = _rank(code) if cells > _BOX_CELLS * n else None
    # table[c] is the first step at code c as soon as the span that holds
    # that step is taken, so each span reads its own first visits, in step
    # order, and first overwrites the codes
    table = np.full(cells if offsets is None else len(offsets), n, dtype=index)
    visits = [code[:0]]
    for lo, hi in _spans(n):
        span, i = code[lo:hi], np.arange(lo, hi, dtype=index)
        np.minimum.at(table, span, i)
        at = table[span]
        if seed is not None:
            visits.append(span[at == i])
        span[:] = at
    del table
    first = code.astype(index, copy=False)
    if seed is None:
        return Walk(first, None)
    visits = np.concatenate(visits)
    if offsets is not None:
        visits = offsets[visits]
    return Walk(first, _draws(_z2_keys(visits, height, x0, y0), len(visits), seed))


def _rank(code: np.ndarray) -> np.ndarray:
    """The distinct codes in order; each code is replaced by its rank among them, in place."""
    distinct = np.unique(code)
    for lo, hi in _spans(len(code)):
        code[lo:hi] = np.searchsorted(distinct, code[lo:hi])
    return distinct


def _coordinate(letters: np.ndarray, up: int, index: np.dtype) -> np.ndarray:
    """The running coordinate that letter up steps by +1 and letter up + 1 by -1, from 0.

    Each letter is compared with a one-byte temporary, and the sum runs in place.
    """
    axis = np.zeros(len(letters), dtype=index)
    steps = letters[:-1]
    axis[1:] = steps == up
    np.subtract(axis[1:], steps == up + 1, out=axis[1:])
    return np.cumsum(axis, dtype=index, out=axis)


def _z2_keys(offsets: np.ndarray, height: int, x0: int, y0: int):
    """The list of keys b"x,y" of each span of box offsets, (x - x0) * height + y - y0."""
    for lo, hi in _spans(len(offsets)):
        x, y = np.divmod(offsets[lo:hi], height)
        x += x0
        y += y0
        yield list(map(b"%d,%d".__mod__, zip(x.tolist(), y.tolist())))


def _walk_f2(letters: np.ndarray, seed: int | None) -> Walk:
    steps = letters[:-1]
    if not (steps[1:] == _INVERSE[steps[:-1]]).any():
        # a reduced word never cancels its head, so it never revisits
        return _chained(_F2_IDENTITY, letters, seed)
    # tree nodes are numbered in first-visit order; node 0 is the identity.
    # A child is entered from its parent only after being left upwards, so
    # children (node * 4 + letter -> child) holds just the edges walked back.
    index = _index_dtype(len(letters)).char
    head = array("b", [-1])
    parent = array(index, [-1])
    born = array(index, [0])
    children: dict[int, int] = {}
    node = array(index, [0]) * len(letters)
    cur = 0
    for i, letter in enumerate(steps.tolist(), 1):
        if head[cur] == INVERSE[letter]:
            up = parent[cur]
            children[up * 4 + head[cur]] = cur
            cur = up
        else:
            child = children.get(cur * 4 + letter)
            if child is None:
                child = len(head)
                head.append(letter)
                parent.append(cur)
                born.append(i)
            cur = child
        node[i] = cur
    first = np.frombuffer(born, dtype=index)[np.frombuffer(node, dtype=index)]
    if seed is None:
        return Walk(first, None)
    # the walk's edges and node per step go before the keys are chained,
    # to keep them off the peak
    del children, node
    return Walk(first, _draws(_cut(_tree_keys(head, parent), len(head)), len(head), seed))


def _tree_keys(head: array, parent: array):
    """Each tree node's key in node order, chained from its parent's, numbered before it."""
    chain, byte = _CHAIN_HASHER.copy, _BYTES
    keys = [_F2_IDENTITY]
    yield keys[0]
    for letter, up in islice(zip(head, parent), 1, None):
        h = chain()
        h.update(keys[up] + byte[letter])
        key = h.digest()
        keys.append(key)
        yield key


_KERNELS = {"free-monoid": _walk_free_monoid, "z2": _walk_z2, "f2": _walk_f2}


def walk(kind: str, letters, seed: int | None = None) -> Walk:
    """Step the identity along a driving word and record first visits.

    c_0 is the identity and c_{i+1} = step(c_i, letters[i]), so the last
    letter never moves a recorded coordinate.  first[i] is the smallest j
    with c_j = c_i, as int32 while n < 2**31 (int64 past it).  Letters are
    read by _integers, so floats, bools, 2-D and letters outside the
    action's driving alphabet raise ValueError whatever their dtype; uint8
    letters are read without a copy, and others are copied to uint8 once.
    With a seed (a 64-bit unsigned integer), draws[d] is the uint64 symbol
    draw of the d-th distinct coordinate, in first-visit order: the
    little-endian 8-byte blake2b digest of its key, keyed by the seed's 8
    little-endian bytes.  Without one, draws is None and no key is hashed.

    Each action has its own kernel; all of them equal the generic walk
    that steps one letter at a time.  z2 numbers its positions densely and
    reads first from a table of each position's first step, so it sorts
    nothing unless its bounding box holds more than _BOX_CELLS cells per
    step; each kernel hands _draws its keys one span at a time.
    """
    limit = driving_size(kind) or _MONOID_LETTERS
    if seed is not None:
        seed = _check_seed(seed)
    letters = _integers(letters, limit, f"driving letters of action {kind!r}")
    return _KERNELS[kind](letters.astype(np.uint8, copy=False), seed)


@dataclass(frozen=True)
class VisitRecord:
    """Distinct-coordinate counts along a driving word of length n.

    distinct_counts[i] is the number of distinct coordinates among
    c_0 .. c_i, with the coordinates of walk(), in the dtype of its first.
    """

    distinct_counts: np.ndarray

    @property
    def distinct_count(self) -> int:
        return int(self.distinct_counts[-1]) if len(self.distinct_counts) else 0


def visit_record(kind: str, alpha) -> VisitRecord:
    first = walk(kind, alpha).first
    return VisitRecord(np.cumsum(first == np.arange(len(first), dtype=first.dtype), dtype=first.dtype))


def range_ratio_curve(kind: str, spec, seeds: Sequence[int], checkpoints: Sequence[int]):
    """Monte Carlo means of (distinct coordinates)/n_i at the given horizons.

    Returns a list of (n_i, mean ratio) pairs, one per distinct checkpoint
    n_i >= 1 in ascending order, averaged over one trajectory per seed,
    sampled to the largest.  At least one seed and one such checkpoint are
    required, and a checkpoint that is not an integer raises ValueError.
    """
    from .driving import sample_trajectory

    check_driving_size(kind, spec.alphabet.size)
    if not len(seeds):
        raise ValueError("at least one seed is required")
    checkpoints = [_integer(c, "a checkpoint") for c in checkpoints]
    checkpoints = sorted({c for c in checkpoints if c >= 1})
    if not checkpoints:
        raise ValueError("at least one checkpoint of 1 or more is required")
    sums = np.zeros(len(checkpoints))
    for seed in seeds:
        record = visit_record(kind, sample_trajectory(spec, checkpoints[-1], seed))
        for j, c in enumerate(checkpoints):
            sums[j] += record.distinct_counts[c - 1] / c
    means = sums / len(seeds)
    return [(c, float(means[j])) for j, c in enumerate(checkpoints)]
