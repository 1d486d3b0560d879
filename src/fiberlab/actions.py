"""Coordinates traced out along a driving word.

Three actions are supported: the free monoid over the driving alphabet
(coordinates are the plain prefixes, extended on the right), the integer
lattice Z^2 over the four generators +-e1, +-e2, and the free group on two
generators over a, a^-1, b, b^-1 (reduced words).  Group coordinates are
updated by left multiplication, c_{i+1} = theta_i * c_i, so the coordinate
after i steps is the left-to-right product of the first i letters in
reverse order; the free monoid appends instead.  The two orientations
differ by a word reversal that preserves all visit counts.

Each action is written once, in LAWS, as an identity coordinate, a step
rule and a canonical byte key.  Lattice keys encode the integer pair;
word keys chain a 16-byte blake2b digest per letter, so a key depends only
on the coordinate itself, never on how or when it was reached.  Two
coordinates are equal exactly when their keys are.

walk() is the one loop that steps a driving word.  It returns first[i],
the smallest j with c_j = c_i, and the keys of the distinct coordinates in
first-visit order.  Everything else is read off these: position i is a
first visit when first[i] == i, so visit counts are a cumulative sum, and
an orbit name is fixed by its symbols at the first visits.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

ACTION_KINDS = ("free-monoid", "z2", "f2")

Z2_VECTORS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# both groups pair their generators: INVERSE[a] is the letter of a's inverse
INVERSE = (1, 0, 3, 2)

# a free-monoid key chains one byte per letter
_MONOID_LETTERS = 256


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


# kind -> (identity coordinate, step rule, canonical key of a coordinate)
LAWS = {
    "free-monoid": (_digest(b"fiberlab:free-monoid:e"), _chain, lambda c: c),
    "z2": ((0, 0), _z2_step, lambda c: b"%d,%d" % c),
    "f2": ((_digest(b"fiberlab:f2:e"), None, None), _f2_step, itemgetter(0)),
}


def driving_size(kind: str) -> int | None:
    """Number of driving letters the action consumes, None when unconstrained."""
    if kind not in ACTION_KINDS:
        raise ValueError(f"unknown action kind {kind!r}")
    return None if kind == "free-monoid" else 4


def check_driving_size(kind: str, size: int) -> None:
    """Raise ValueError unless a driving alphabet of this size fits the action."""
    fixed = driving_size(kind)
    if fixed is not None and size != fixed:
        raise ValueError(f"action {kind!r} requires a driving alphabet of size {fixed}")


class Walk(NamedTuple):
    """First visits of c_0 .. c_{n-1} and the keys of the distinct coordinates."""

    first: np.ndarray
    keys: list


def walk(kind: str, letters) -> Walk:
    """Step the identity along a driving word and record first visits.

    c_0 is the identity and c_{i+1} = step(c_i, letters[i]), so the last
    letter never moves a recorded coordinate.  first[i] is the smallest j
    with c_j = c_i (int64); keys[d] is the key of the d-th distinct
    coordinate, in first-visit order.  Letters outside the action's
    driving alphabet raise ValueError.
    """
    limit = driving_size(kind) or _MONOID_LETTERS
    identity, step, key = LAWS[kind]
    letters = np.asarray(letters, dtype=np.int64).tolist()
    if letters and (min(letters) < 0 or max(letters) >= limit):
        raise ValueError(f"driving letters of action {kind!r} must lie in [0, {limit})")
    first = array("q")
    seen: dict[bytes, int] = {}
    keys = []
    for i, c in enumerate(accumulate(letters[:-1], step, initial=identity) if letters else ()):
        k = key(c)
        j = seen.setdefault(k, i)
        if j == i:
            keys.append(k)
        first.append(j)
    return Walk(np.frombuffer(first, dtype=np.int64), keys)


@dataclass(frozen=True)
class VisitRecord:
    """Distinct-coordinate counts along a driving word of length n.

    distinct_counts[i] is the number of distinct coordinates among
    c_0 .. c_i, with the coordinates of walk().
    """

    distinct_counts: np.ndarray

    @property
    def distinct_count(self) -> int:
        return int(self.distinct_counts[-1]) if len(self.distinct_counts) else 0


def visit_record(kind: str, alpha) -> VisitRecord:
    first = walk(kind, alpha).first
    return VisitRecord(np.cumsum(first == np.arange(len(first))))


def range_ratio_curve(kind: str, spec, n: int, seeds: Sequence[int], checkpoints=None):
    """Monte Carlo means of (distinct coordinates)/n_i at log-spaced horizons.

    Returns a list of (n_i, mean ratio) pairs averaged over one sampled
    trajectory per seed.
    """
    from .driving import sample_trajectory

    check_driving_size(kind, spec.alphabet.size)
    if checkpoints is None:
        checkpoints = default_checkpoints(n)
    checkpoints = sorted({int(c) for c in checkpoints if 1 <= int(c) <= n})
    if not checkpoints:
        raise ValueError("no valid checkpoints at or below the horizon")
    sums = np.zeros(len(checkpoints))
    for seed in seeds:
        letters = sample_trajectory(spec, n, seed).letters
        record = visit_record(kind, letters)
        for j, c in enumerate(checkpoints):
            sums[j] += record.distinct_counts[c - 1] / c
    means = sums / len(seeds)
    return [(c, float(means[j])) for j, c in enumerate(checkpoints)]


def default_checkpoints(n: int, per_decade: int = 4) -> list[int]:
    """Logarithmically spaced integer horizons from 10 up to n."""
    if n < 1:
        return []
    lo = 1.0
    hi = np.log10(n)
    grid = np.logspace(lo, hi, max(2, int((hi - lo) * per_decade) + 1)) if n >= 10 else np.array([n])
    points = sorted({int(round(x)) for x in grid} | {n})
    return [p for p in points if 1 <= p <= n]
