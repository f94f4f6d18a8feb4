"""The group ring Z/p^n[G] and its augmentation filtration.

G is cyclic of order p^n with generator g.  The augmentation ideal
I = (g - 1) filters the ring; the graded pieces I^k/I^(k+1) are free of
rank one over Z/p^n for k < p, normalized by (g-1)^k -> 1.  The
derivative operators D(k) satisfy (g - 1) D(k) = D(k-1) with D(0) the
norm; they are what turn filtration data into height pairings.
"""

from derived_heights.groupring import (
    RingCtx,
    aug_ideal_power,
    derivative_op,
    graded_scalar,
)

ring = RingCtx(3, 1)
print("== R = Z/3[C_3], a 27-element ring ==")
print("norm N = D(0) =", derivative_op(ring, 0))
print("D(1) =", derivative_op(ring, 1))
gm1 = ring.gamma() - ring.one()
print("(g-1) * D(1) =", gm1 * derivative_op(ring, 1), " (the norm)")

print("\n== filtration I^0 > I^1 > I^2 > I^3 ==")
for k in range(4):
    size = aug_ideal_power(ring, k).size()
    print(f"|I^{k}| = {size}")
print("I^2 is the norm line: (g-1)^2 =", gm1 * gm1)

print("\n== graded pieces are free rank one for k < p ==")
for k in (1, 2):
    vals = sorted({graded_scalar(ring, k, ring.scalar(c) * gm1 ** k)
                   for c in range(3)})
    print(f"Q^{k} realizes the scalars {vals}")

print("\n== the derivative relation, measured beyond the guaranteed range ==")
ring2 = RingCtx(3, 2)
gm1 = ring2.gamma() - ring2.one()
table = {k: gm1 * derivative_op(ring2, k) == derivative_op(ring2, k - 1)
         for k in range(1, ring2.m)}
holds = [k for k, ok in table.items() if ok]
fails = [k for k, ok in table.items() if not ok]
print(f"(3,2): relation holds at k = {holds}")
print(f"(3,2): relation fails at k = {fails}  (only k <= p-1 is asserted)")
