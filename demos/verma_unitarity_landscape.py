"""
Exact Verma Gram matrices and where positivity fails
====================================================

Gram matrices of highest-weight vectors are computed in exact rational
arithmetic, so sign changes are genuine rather than numerical.  Three
views: a small Gram matrix at the Ising point, the determinant of a
distinguished 2x2 block at central charge zero, and a scan for the
first level carrying a negative-norm vector.
"""

from fractions import Fraction

from virfock.virasoro import partitions_of, unitarity_scan, verma_gram

# Level-2 Gram matrix at the Ising values (c, h) = (1/2, 1/16): the
# basis is d(-2)v, d(-1)d(-1)v and every entry is an exact fraction.
G = verma_gram(2, Fraction(1, 2), Fraction(1, 16))
print("level 2, c = 1/2, h = 1/16")
for part, row in zip(partitions_of(2), G):
    label = "d" + "".join(f"(-{p})" for p in part) + "v"
    print(f"  {label:12s} {[str(v) for v in row]}")
print()

# At c = 0 the pair {d(-2n)v, d(-n)d(-n)v} has determinant
# 4 n^3 h^2 (8h - 5n), which crosses zero along h = 5n/8.
print("c = 0 pair determinants, h = 1:")
for n in (1, 2, 3):
    h = Fraction(1)
    g = verma_gram(2 * n, Fraction(0), h, partitions=((2 * n,), (n, n)))
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    sign = "positive" if det > 0 else "negative" if det < 0 else "zero"
    print(f"  n = {n}: det = {det}  ({sign})")
print("the flip between n = 1 and n = 2 signals a ghost at c = 0\n")

# unitarity_scan diagonalizes the float Gram at one point (c, h) level by
# level and reports the first level whose smallest eigenvalue goes negative.
for c, h in ((1.0, 1.0), (26.0, 1.0), (0.0, 1.0), (0.0, 0.5)):
    mins, first = unitarity_scan(c, h, max_level=5)
    mins = ["%.3g" % m for m in mins]
    verdict = f"first negative level {first}" if first else "no ghost found"
    print(f"c = {c:4.1f}, h = {h:3.1f}:  min eigs by level {mins}  -> {verdict}")
