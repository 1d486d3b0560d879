"""Reference computations shared by several test modules."""

import math
from fractions import Fraction

from fiberlab.actions import walk
from fiberlab.fiber import _first_symbols


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
