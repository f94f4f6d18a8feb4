"""Canonical linear algebra over Z/p^n: Howell forms, kernels, solving.

Z/9 is not a field: 3 is a zero divisor, so Gaussian elimination cannot
canonicalize row spans.  The Howell form can, and uniquely; this script
shows the canonical form, an exact kernel, and solving with the full
solution set.
"""

import numpy as np

from derived_heights import linalg as la

p, n = 3, 2
m = p ** n

print("== Howell form over Z/9 ==")
a = np.array([[3, 1, 4], [0, 3, 6], [6, 2, 8]])
span = la.Span(a, p, n)  # a span is its Howell form together with (p, n)
print("input rows:\n", a)
print("Howell form:\n", span.h)
print("idempotent:", la.Span(span.h, p, n) == span)
print("span size:", span.size())

print("\n== kernels are exact ==")
k = la.kernel(a, p, n)
print("kernel basis:\n", k.h)
print("check v @ a = 0 for every basis row:",
      all(not ((row @ a) % m).any() for row in k.h))

print("\n== solving v @ a = b ==")
b = (np.array([1, 2, 0]) @ a) % m
solver = la.Solver(a, p, n)
print("b =", b, " one solution:", solver.solve(b))
print("solution-space kernel has", solver.ker.size(), "elements")
print("no solution for b = [1, 0, 0]:", solver.solve(np.array([1, 0, 0])))

print("\n== annihilators, the chain-ring phenomenon ==")
single = np.array([[3]])
print("kernel of multiplication by 3 on Z/9:",
      la.kernel(single, p, n).h.tolist(), "(the multiples of 3)")
