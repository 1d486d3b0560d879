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
contract, one per action, and each walks a span of positions at a time
(_walk_spans): it fills first[lo:hi] and draws the span's new
coordinates before it takes the next span, so that no other array is as
long as the word.  walk(), visit_record and fiber.emit_name read the same
spans.  z2 finds its bounding box in a first pass of running sums of
both axes at once, each span's taken from the point where it begins,
then numbers every position by its offset in the box, summed again a
span at a time, and marks the visited offsets, one bit each; a
position's rank among the visited offsets indexes one table of first
steps, one entry per visited cell, with no sort (it ranks by a sort only
when the box holds more than _BOX_CELLS cells per step).  The free
monoid chains one key per step (its prefixes never repeat), and f2
numbers the tree nodes it meets and chains each new node's key from its
parent's.  _draws alone hashes under the seed, a span at a time, in
first-visit order.  z2 hands it a span's keys as heads and tails; a word
kernel hands it a span's letters, and the tree each new node's parent,
and _draws chains each new key and draws it in one loop, so no span's
keys are listed.  A chained word carries only its last key from span to
span, and the f2 tree alone keeps a key per node, as a node's children
chain from it.  A z2 key is never joined: its head b"x," and its tail
b"y" come from tables over the span's own x and y ranges (_z2_keys), so
no integer is formatted twice in a span, and _draws feeds each head to
one copy of the keyed hasher per span, which each of its cells' draws
copies and feeds the tail.  Without a seed no key is made, so the walks
that only read first hash nothing.

Every chunked pass (the walk kernels, fiber's name reads, the sampler,
the coders' rows and JSON report rows) takes the spans of _CHUNK that
_spans cuts, and gives the same result for any span length; z2's two
set-up passes alone, which hand out no span, take _SET_UP of them at a
time.

Per-letter arrays take the smallest dtype that holds their values:
driving letters are uint8 (every driving alphabet has at most 256
letters), first is int32 while n < 2**31 (int64 past it), z2's offsets are
int32 while the box holds fewer than 2**31 cells, and draws are uint64.
Every letters argument is read by one rule, _integers, which checks them
against an alphabet size when given one; walk() then reads uint8 letters
as they are and copies other integer letters to uint8 once.

The tests keep a generic walk that steps and keys one coordinate at a
time (tests/oracles.py) as the oracle the kernels must equal.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import operator
from array import array
from typing import NamedTuple, Sequence

import numpy as np

ACTION_KINDS = ("free-monoid", "z2", "f2")

Z2_VECTORS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# both groups pair their generators: INVERSE[a] is the letter of a's inverse
INVERSE = (1, 0, 3, 2)
_INVERSE = np.array(INVERSE, dtype=np.uint8)
# each letter's step along x and along y (Z2_VECTORS), and both as x * 2**32 + y
_Z2_X, _Z2_Y = np.array(Z2_VECTORS, dtype=np.int64).T.copy()
_Z2_XY = (_Z2_X << 32) + _Z2_Y
# _BELOW[b] has the b bits below bit b set: a word's bits before bit b
_BELOW = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)

# a free-monoid key chains one byte per letter
_MONOID_LETTERS = 256
_BYTES = [bytes([letter]) for letter in range(_MONOID_LETTERS)]

# every chain hash is a copy of this one hasher: the same digest as
# blake2b(data, digest_size=16), without parsing the parameters each time
_CHAIN_HASHER = hashlib.blake2b(digest_size=16)
# the keys of the two word identities, from which every other key chains
_MONOID_IDENTITY = hashlib.blake2b(b"fiberlab:free-monoid:e", digest_size=16).digest()
_F2_IDENTITY = hashlib.blake2b(b"fiberlab:f2:e", digest_size=16).digest()
# items every chunked pass takes at once (_spans): a span's keys, or the
# k-blocks of a span of a pair table's rows, stay well under 1 MB
_CHUNK = 2 ** 12
# a z2 walk whose bounding box holds more than this many cells per step
# ranks its offsets by a sort rather than by the box's bits of visited
# cells, whose one byte per cell while they are marked stays at most 3.5
# bytes per step (_walk_z2)
_BOX_CELLS = 3.5
# z2's set-up passes, which find its bounding box and mark its offsets and
# hand out no span, take spans of this many _CHUNKs: fewer spans cost less
_SET_UP = 4


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


def _draws(seed: int):
    """The one draw rule, as a function from heads and tails, or from the letters that chain keys, to uint64 symbol draws.

    Draw d is the little-endian 8-byte blake2b digest of the d-th key,
    keyed by the seed's 8 little-endian bytes.  Every draw is a copy of
    one keyed hasher, made here once per walk, so no draw parses the
    parameters again.  Copying does not save the key block: CPython's
    blake2b buffers up to two blocks, the key block and whatever is fed
    after it, and compresses them only when a copy digests, so a draw
    costs about as much as an unkeyed hash of two blocks however much of
    its key was fed before the copy.  Each digest is appended to one
    buffer as it is made, so no list of digests is held beside the keys.

    draws(heads, tails, pairs) draws the key heads[h] + tails[t] for each
    (h, t) in pairs: each head is fed to its own copy of the keyed hasher
    once per call, and each draw copies its head's hasher and feeds it
    the tail, so no key is joined; the heads save building keys, not a
    compression.  draws(keys, letters=letters, parents=parents) makes one
    new key per letter and draws it at once, in one loop: new key i is a
    copy of _CHAIN_HASHER updated by its parent's key, then by letter i's
    byte, and its parent is keys[parents[i]], with keys extended by each
    new key; without parents its parent is the key made before it,
    keys[-1] for the first, and keys[-1] ends as the last new key.  The
    chain hasher is read as each call begins.
    """
    copy = hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little")).copy

    def draws(keys, tails=(), pairs=(), letters=None, parents=None) -> np.ndarray:
        digests = bytearray()
        if letters is None:
            fed = []
            for head in keys:
                h = copy()
                h.update(head)
                fed.append(h.copy)
            for head, tail in pairs:
                h = fed[head]()
                h.update(tails[tail])
                digests += h.digest()
            return np.frombuffer(digests, dtype="<u8")
        chain, byte = _CHAIN_HASHER.copy, _BYTES
        if parents is None:
            key = keys[-1]
            # bytes iterate as ints, with no list of Python ints alongside
            for letter in letters:
                h = chain()
                h.update(key)
                h.update(byte[letter])
                key = h.digest()
                h = copy()
                h.update(key)
                digests += h.digest()
            keys[-1] = key
        else:
            append = keys.append
            for letter, up in zip(letters, parents):
                h = chain()
                h.update(keys[up])
                h.update(byte[letter])
                key = h.digest()
                append(key)
                h = copy()
                h.update(key)
                digests += h.digest()
        return np.frombuffer(digests, dtype="<u8")

    return draws


def _chained(identity: bytes, letters: np.ndarray, first: np.ndarray, draws):
    # every step reaches a new coordinate: coordinate i chains letter i - 1
    # onto the key of coordinate i - 1, and keys holds only the last key
    keys = [identity]
    for lo, hi in _spans(len(letters)):
        first[lo:hi] = np.arange(lo, hi, dtype=first.dtype)
        drawn = None
        if draws is not None:
            drawn = _drawn(draws, lo, keys, letters[max(lo - 1, 0) : hi - 1].tobytes())
        yield Walk(first[lo:hi], drawn)


def _drawn(draws, lo: int, keys: list, letters, parents=None) -> np.ndarray:
    """The draws of the word coordinates new in the span from lo: those of letters and parents chained onto
    keys, after, in the first span, that of the identity, keys[0], which no letter chains: a head with an
    empty tail."""
    if lo:
        return draws(keys, letters=letters, parents=parents)
    identity = draws(keys[:1], [b""], [(0, 0)])
    return np.concatenate((identity, draws(keys, letters=letters, parents=parents)))


def _walk_free_monoid(letters: np.ndarray, first: np.ndarray, draws):
    return _chained(_MONOID_IDENTITY, letters, first, draws)


def _sums(increments: np.ndarray, letters: np.ndarray, start: int, multiple: int = 1, out=None):
    """start plus the running sums of increments[letter] at each position, one array per span.

    The spans are those of _spans(n, multiple=multiple), each written into
    out[lo:hi] when out is given.  Position i sums the letters before it,
    so position 0 holds start; a span picks up where the span before it
    ended, in increments' dtype.
    """
    end = start
    for lo, hi in _spans(len(letters), multiple=multiple):
        sums = np.empty(hi - lo, dtype=increments.dtype) if out is None else out[lo:hi]
        # position lo sums letters 0 .. lo - 1, so the span reads letters lo - 1 .. hi - 2
        head = 0 if lo else 1
        sums[:head] = 0
        # every letter is in range, and "clip" writes out directly, with no buffered copy
        increments.take(letters[lo - 1 + head : hi - 1].astype(np.intp), out=sums[head:], mode="clip")
        np.cumsum(sums, out=sums)
        sums += end
        end = int(sums[-1])
        yield sums
        # each span goes before the next one is summed
        del sums


def _box(letters: np.ndarray) -> tuple[int, int, int, int]:
    """x0, x1, y0, y1: the least and greatest coordinates of the walk, with c_0 = (0, 0) among them.

    One pass of running sums of x * 2**32 + y, each span's summed from the
    point where the span begins: a span moves y by less than 2**31, so its
    sums order positions by x, then y, x is their high half, rounded, and
    y their low 32 bits.  Each span's extremes are offset by that point,
    carried as Python ints, so the pass is exact at any n.
    """
    x = y = x0 = x1 = y0 = y1 = 0
    # c_1 .. c_{n-1} are reached by letters 0 .. n - 2
    for lo, hi in _spans(len(letters) - 1, multiple=_SET_UP * _CHUNK):
        sums = np.cumsum(_Z2_XY.take(letters[lo:hi].astype(np.intp), mode="clip"))
        low, high, end = ((int(v) + 2 ** 31) >> 32 for v in (sums.min(), sums.max(), sums[-1]))
        x0, x1 = min(x0, x + low), max(x1, x + high)
        ys = sums.astype(np.int32)
        y0, y1 = min(y0, y + int(ys.min())), max(y1, y + int(ys.max()))
        x, y = x + end, y + int(ys[-1])
        # a span goes before the next one is summed
        del sums, ys
    return x0, x1, y0, y1


def _walk_z2(letters: np.ndarray, first: np.ndarray, draws):
    n = len(letters)
    x0, x1, y0, y1 = _box(letters)
    height = y1 - y0 + 1
    cells = (x1 - x0 + 1) * height
    # a box this sparse would outweigh the walk: rank the offsets by a sort
    # instead (so too a box whose offsets first cannot hold, past 6e8 steps)
    ranked = cells > _BOX_CELLS * n or _index_dtype(cells).itemsize > first.itemsize
    # a position's code is its offset in the box, (x - x0) * height + y - y0,
    # summed a span at a time from each letter's move of it; the codes of a
    # dense box wait in first, and their first steps overwrite them
    moves = (_Z2_X * height + _Z2_Y).astype(_index_dtype(cells) if ranked else first.dtype)
    codes = np.empty(n, dtype=moves.dtype) if ranked else first
    seen = None if ranked else np.zeros(-(-cells // 64) * 64, dtype=bool)
    for code in _sums(moves, letters, -x0 * height - y0, _SET_UP * _CHUNK, codes):
        if seen is not None:
            seen[code.astype(np.intp)] = True
    if ranked:
        offsets = _rank(codes)
        distinct = len(offsets)
    else:
        rank, distinct = _box_ranks(seen)
        del seen
    # table[r] is the first step at the r-th visited offset as soon as the
    # span that holds that step is taken, so each span reads its own first
    # visits, in step order
    table = np.full(distinct, n, dtype=first.dtype)
    for lo, hi in _spans(n):
        code = codes[lo:hi]
        ranks = code if ranked else rank(code)
        i = np.arange(lo, hi, dtype=first.dtype)
        np.minimum.at(table, ranks, i)
        at = table.take(ranks)
        drawn = None
        if draws is not None:
            new = at == i
            drawn = draws(*_z2_keys(offsets.take(ranks[new]) if ranked else code[new], height, x0, y0))
        first[lo:hi] = at
        # a span's arrays go before the span is read and the next one is numbered
        del code, ranks, i, at
        yield Walk(first[lo:hi], drawn)


def _box_ranks(seen: np.ndarray):
    """The rank of each visited box offset among them, as a function of a span of offsets, and their number.

    seen marks the visited offsets, a multiple of 64 of them.  They are
    packed one bit each, 64 to a word, with the number of visited offsets in
    the words before each word, so that the table of first steps holds one
    entry per visited offset rather than one per cell of the box.  The
    ranks are intp, as take and np.minimum.at read indices without a cast.
    """
    words = np.packbits(seen, bitorder="little").view("<u8")
    before = np.zeros(len(words) + 1, dtype=np.intp)
    np.cumsum(np.bitwise_count(words), dtype=before.dtype, out=before[1:])

    def rank(code: np.ndarray) -> np.ndarray:
        word = code.astype(np.intp)
        bits = _BELOW.take(word & 63)
        word >>= 6
        bits &= words.take(word)
        ranks = before.take(word)
        del word
        ranks += np.bitwise_count(bits)
        return ranks

    return rank, int(before[-1])


def _rank(code: np.ndarray) -> np.ndarray:
    """The distinct codes in order; each code is replaced by its rank among them, in place.

    The distinct codes are read off one sorted copy, where a code differs
    from its neighbour, and the ranks are searched for a span at a time.
    np.unique would do the same, but its first call imports numpy.ma.
    """
    ordered = np.sort(code)
    new = np.empty(len(ordered), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    del ordered, new
    for lo, hi in _spans(len(code)):
        code[lo:hi] = np.searchsorted(distinct, code[lo:hi])
    return distinct


def _z2_keys(offsets: np.ndarray, height: int, x0: int, y0: int):
    """The keys b"x,y" of box offsets (x - x0) * height + y - y0, as _draws' heads, tails and pairs.

    The heads are b"x," over the x range of these offsets and the tails
    b"y" over their y range, so each value is formatted once and no key is
    joined; each offset's pair names its head and its tail by their
    numbers.  A span's offsets lie within a span's length of each other,
    so neither table is longer than the span.
    """
    if not len(offsets):
        return (), (), ()
    x, y = np.divmod(offsets, height)
    xlo, ylo = int(x.min()), int(y.min())
    heads = list(map(b"%d,".__mod__, range(x0 + xlo, x0 + int(x.max()) + 1)))
    tails = list(map(b"%d".__mod__, range(y0 + ylo, y0 + int(y.max()) + 1)))
    x -= xlo
    y -= ylo
    return heads, tails, zip(x.tolist(), y.tolist())


def _reduced(steps: np.ndarray) -> bool:
    """Whether no letter of steps is followed by its inverse, read a span at a time."""
    return not any((steps[lo + 1 : hi + 1] == _INVERSE.take(steps[lo:hi])).any() for lo, hi in _spans(len(steps) - 1))


def _walk_f2(letters: np.ndarray, first: np.ndarray, draws):
    if _reduced(letters[:-1]):
        # a reduced word never cancels its head, so it never revisits
        return _chained(_F2_IDENTITY, letters, first, draws)
    return _tree(letters, first, draws)


def _tree(letters: np.ndarray, first: np.ndarray, draws):
    # tree nodes are numbered in first-visit order; node 0 is the identity.
    # A child is entered from its parent only after being left upwards, so
    # children (node * 4 + letter -> child) holds just the edges walked back.
    index = first.dtype.char
    head = array("b", [-1])
    parent = array(index, [-1])
    born = array(index, [0])
    children: dict[int, int] = {}
    keys = [_F2_IDENTITY]
    cur = 0
    for lo, hi in _spans(len(letters)):
        # position 0 is the identity; position i > 0 steps by letter i - 1
        steps = array(index, [0] if lo == 0 else [])
        for letter in letters[max(lo - 1, 0) : hi - 1].tolist():
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
                    born.append(lo + len(steps))
                cur = child
            steps.append(born[cur])
        first[lo:hi] = steps
        drawn = None
        if draws is not None:
            # the nodes born in the span are its first visits, each chained
            # from its parent's key, which keys holds for every node
            drawn = _drawn(draws, lo, keys, head[len(keys) :], parent[len(keys) :])
        yield Walk(first[lo:hi], drawn)


_KERNELS = {"free-monoid": _walk_free_monoid, "z2": _walk_z2, "f2": _walk_f2}


def _walk_spans(kind: str, letters, seed: int | None = None):
    """walk() a span at a time: first, and one Walk per span of _spans(n).

    The kernel fills first a span at a time; span (lo, hi) is the Walk of
    first[lo:hi], filled, and, given a seed, the draws of the span's first
    visits, else None.  A kernel never reads a span of first again once it
    has handed it out, so the reader may overwrite it.  The seed and the
    letters are checked, and first is allocated, before the kernel is called.
    """
    limit = driving_size(kind) or _MONOID_LETTERS
    draws = None if seed is None else _draws(_check_seed(seed))
    letters = _integers(letters, limit, f"driving letters of action {kind!r}").astype(np.uint8, copy=False)
    first = np.empty(len(letters), dtype=_index_dtype(len(letters)))
    return first, _KERNELS[kind](letters, first, draws)


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
    that steps one letter at a time.  A kernel walks a span of positions
    at a time (_walk_spans), and walk() joins the spans' draws.
    """
    first, spans = _walk_spans(kind, letters, seed)
    draws = [np.empty(0, dtype=np.uint64)] + [span.draws for span in spans]
    return Walk(first, None if seed is None else np.concatenate(draws, dtype=np.uint64))


class VisitRecord(NamedTuple):
    """Distinct-coordinate counts along a driving word of length n, as a NamedTuple.

    distinct_counts[i] is the number of distinct coordinates among
    c_0 .. c_i, with the coordinates of walk(), in the dtype of its first.
    """

    distinct_counts: np.ndarray

    @property
    def distinct_count(self) -> int:
        return int(self.distinct_counts[-1]) if len(self.distinct_counts) else 0


def visit_record(kind: str, alpha) -> VisitRecord:
    counts, spans = _walk_spans(kind, alpha)
    # each span's first steps become its counts as soon as it is walked
    hi = 0
    for steps, _ in spans:
        lo, hi = hi, hi + len(steps)
        np.cumsum(steps == np.arange(lo, hi, dtype=steps.dtype), dtype=steps.dtype, out=steps)
        steps += counts[lo - 1] if lo else 0
    return VisitRecord(counts)


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
