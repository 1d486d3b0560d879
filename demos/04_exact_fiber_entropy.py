"""Exact averaged entropies of the first n orbit symbols.

For product fiber measures the inner sum over fiber words collapses to
(distinct coordinates) * H(p).  The fast path takes the expected number
of distinct coordinates as an exact fraction, with no driving word listed,
and rounds it once: it is n where no coordinate repeats (the free monoid,
and f2 under the no-backtracking chain), and for z2 under i.i.d. steps it
comes from the range identity E[R_n] = sum_{i<n} P(no return by step i),
with first returns from the renewal equation.  The tests check it
against the full double enumeration over (u, v) pairs (tests/oracles.py),
which agrees to 1e-9.  The per-symbol rate H_n / n is nonincreasing and its limit is the fiber
entropy of the system: log2 |fiber| for the never-revisiting actions,
zero for the lattice walk.  The z2 rates at n = 10, 100, 1000 and 2364
fall toward 0 slowly: E[R_n] is asymptotic to pi n / log n
(Dvoretzky-Erdos).  One range table, kept on the driving chain, serves
them all: each longer n extends it a step at a time, so the four calls
cost about one call at n = 2364, the renewal path's cap.
"""

from fiberlab import exact_averaged_entropy, system_preset

print(f"{'n':>3}  {'free-monoid':>12}  {'f2':>8}  {'z2':>8}   (rates H_n / n)")
systems = {name: system_preset(name) for name in ("free-monoid-uniform", "f2-markov", "z2-uniform")}
for n in range(1, 9):
    rates = {}
    for name, (driving, fiber) in systems.items():
        rates[name] = exact_averaged_entropy(fiber, driving, n).rate
    print(
        f"{n:>3}  {rates['free-monoid-uniform']:>12.6f}  {rates['f2-markov']:>8.6f}  "
        f"{rates['z2-uniform']:>8.6f}"
    )

print()
driving, fiber = systems["z2-uniform"]
for n in (3, 5, 7):
    print(f"z2 H_{n} = {exact_averaged_entropy(fiber, driving, n).bits:.9f} bits")
print("at n = 3 the value is exactly 2.75 bits: the origin is revisited with probability 1/4")
print("tests/oracles.py checks these against the full (u, v) enumeration")

print()
# H(p) = 1 bit, so each rate is E[R_n] / n, read from the chain's one table
for n in (10, 100, 1000, 2364):
    print(f"z2 E[R_{n}] / {n} = {exact_averaged_entropy(fiber, driving, n).rate:.6f}  (renewal identity)")
