"""The spectral sequence of the I-adic filtration on a two-term complex.

A single map d : C^1 -> C^2 filtered by the powers of the augmentation
ideal produces pages E_k^{i,j} with two distinguished Bockstein maps:
the page differential beta(k) and the snake map psi(k) of the k-th
filtration step.  They fit in a commutative square with the natural
projections, and both cokernels compute I^k H^2 / I^(k+1) H^2.
"""

import numpy as np

from derived_heights import linalg as la
from derived_heights.complexes import TwoTermComplex
from derived_heights.groupring import RingCtx, regular_rep

ring = RingCtx(3, 1)

print("== C = [R --(g-1)--> R] over Z/3[C_3] ==")
cx = TwoTermComplex.free(ring, 1, 1, regular_rep(ring.gamma() - ring.one()))
h1 = la.kernel(cx.d, ring.p, ring.n)  # both terms are free: H^1 = ker d
print("H^1 order:", h1.size(), "  H^2 order:", cx.h2().order())
for k in (1, 2):
    e01 = cx.page_entry(k, 0, 1)
    corner = cx.page_entry(k, k, 2 - k)
    print(f"page {k}: |E_{k}^(0,1)| = {e01.order()},  |E_{k}^({k},{2-k})| = {corner.order()}")

print("\n== beta(1) sends the class of 1 to the class of g-1 ==")
beta = cx.derived_bockstein(1)
one = np.zeros(3, dtype=np.int64)
one[0] = 1
image = beta.apply(one)
print("beta(1)(class of 1) has representative", ring.elt(image))
print("nonzero in I C^2 / I^2 C^2:", beta.tgt.reduce(image).any())

print("\n== the comparison square rho psi = beta pi ==")
cx2 = TwoTermComplex.free(ring, 1, 1, regular_rep(ring.norm()))
for k in (1, 2):
    print(f"d = N, k = {k}: square commutes:", cx2.verify_relate(k))

print("\n== both cokernels match the filtration of H^2 ==")
for k in (1, 2):
    rep = cx2.coker_iso_reports(k)
    print(f"k = {k}:", rep)
