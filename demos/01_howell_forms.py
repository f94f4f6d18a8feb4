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
h = la.howell_form(a, p, n)
print("input rows:\n", a)
print("Howell form:\n", h)
print("idempotent:", (la.howell_form(h, p, n) == h).all())
print("span size:", la.span_size(h, p, n))

print("\n== kernels are exact ==")
k = la.kernel(a, p, n)
print("kernel basis:\n", k)
print("check v @ a = 0 for every basis row:",
      all(not ((row @ a) % m).any() for row in k))

print("\n== solving v @ a = b ==")
b = (np.array([1, 2, 0]) @ a) % m
solver = la.Solver(a, p, n)
print("b =", b, " one solution:", solver.solve(b))
print("solution-space kernel has", la.span_size(solver.ker, p, n), "elements")
print("no solution for b = [1, 0, 0]:", solver.solve(np.array([1, 0, 0])))

print("\n== annihilators, the chain-ring phenomenon ==")
single = np.array([[3]])
print("kernel of multiplication by 3 on Z/9:",
      la.kernel(single, p, n).tolist(), "(the multiples of 3)")
