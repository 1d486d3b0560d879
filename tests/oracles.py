"""Reference computations shared by several test modules."""

import hashlib
import math
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

import numpy as np

from fiberlab.actions import INVERSE, Z2_VECTORS, walk
from fiberlab.fiber import _first_symbols


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


def conditional_cylinder_fraction(spec, u, v) -> Fraction:
    """Exact probability that the orbit driven by u reads the fiber word v.

    Zero when v assigns conflicting symbols to a revisited coordinate;
    otherwise the product of p over the distinct coordinates visited.  The
    (u, v) oracle of the information function and the block coders.
    """
    symbols = _first_symbols(spec, walk(spec.action_kind, u).first, v)
    if symbols is None:
        return Fraction(0)
    return math.prod((spec.p[s] for s in symbols.tolist()), start=Fraction(1))
