"""Visited coordinates under the three actions.

The number of distinct coordinates a driving word visits is what controls
how much fresh randomness its orbit can read.  Free-monoid prefixes and
free-group products never revisit, while the recurrent lattice walk
revisits more and more densely: its range fraction decays toward zero.
"""

from itertools import accumulate

from fiberlab import driving_preset, range_ratio_curve, system_preset, walk
from fiberlab.actions import Z2_VECTORS

z2 = driving_preset("z2-uniform")
f2 = driving_preset("f2-markov")
bern2, _ = system_preset("free-monoid-uniform")

word = [0, 1, 0, 2, 3, 1]
first = walk("z2", word).first
# summing the generator vectors names each coordinate; walk() reports which are new
coordinates = accumulate((Z2_VECTORS[letter] for letter in word[:-1]),
                         lambda c, v: (c[0] + v[0], c[1] + v[1]), initial=(0, 0))
distinct = ["%d,%d" % c for i, c in enumerate(coordinates) if first[i] == i]
print("lattice coordinates along +e1,-e1,+e1,+e2,-e2,-e1:")
print("   first visits", first.tolist())
print("   distinct", distinct, "->", len(distinct))

print()
print("range fraction |visited|/n, averaged over 10 seeds:")
print(f"{'n':>8}  {'free-monoid':>12}  {'f2':>8}  {'z2':>8}")
checkpoints = [100, 1000, 10000, 100000]
monoid_curve = dict(range_ratio_curve("free-monoid", bern2, range(10), checkpoints))
f2_curve = dict(range_ratio_curve("f2", f2, range(10), checkpoints))
z2_curve = dict(range_ratio_curve("z2", z2, range(10), checkpoints))
for n in checkpoints:
    print(f"{n:>8}  {monoid_curve[n]:>12.4f}  {f2_curve[n]:>8.4f}  {z2_curve[n]:>8.4f}")
print("the lattice column keeps falling; the other two are pinned at 1")
