"""Stark systems of a synthetic core vertex and their Fitting ideals.

A core-vertex instance is a free module X with one localization
functional per abstract prime.  A basis of the rank-one determinant
line spawns a compatible family of exterior-bidual elements indexed by
the vertex lattice; the ideals generated by their images recover every
Fitting ideal of the dual-module stand-in W* = coker(ell).
"""

from derived_heights import linalg as la
from derived_heights.groupring import RingCtx
from derived_heights.rng import SplitMix64
from derived_heights.stark import StarkInstance, random_instance, verify_fitting

ring = RingCtx(3, 1)


def show(ideal: la.Span) -> str:
    """An ideal of R by the ring elements of its Howell rows, (0) and (1) by name."""
    if not ideal.h.shape[0]:
        return "Ideal(0)"
    if ideal == la.Span.whole(ring.m, ring.p, ring.n):
        return "Ideal(1)"
    return "Ideal(" + ", ".join(repr(ring.elt(row)) for row in ideal.h) + ")"


print("== one prime, ell = (N): the worked example ==")
inst = StarkInstance(ring, [[ring.norm()]])
system = inst.stark_system(ring.one())
print("compatible family:", system.check_compatible())
print("I_0 =", show(system.ideal(0)), "  (the norm line)")
print("I_1 =", show(system.ideal(1)), "  (relaxing the prime frees the module)")
print("Fitting comparison:", verify_fitting(inst, system, 1)["pass"])

print("\n== diag(N, 1): two primes, mixed degeneracy ==")
inst2 = StarkInstance(ring, [[ring.norm(), ring.zero()],
                             [ring.zero(), ring.one()]])
system2 = inst2.stark_system(ring.one())
for rec in verify_fitting(inst2, system2, 2)["records"]:
    print(f"i = {rec['i']}: Fitt = I_i ? {rec['equal']}")

print("\n== a random core vertex with nonzero core rank ==")
rng = SplitMix64(7)
inst3 = random_instance(ring, rng, chi_choices=(1,))
print(f"rank X = {inst3.a}, primes = {inst3.r}, chi = {inst3.chi}")
from derived_heights.heights import random_unit

system3 = inst3.stark_system(random_unit(ring, rng))
rep = verify_fitting(inst3, system3, inst3.a)
print("compatible:", system3.check_compatible(),
      " lands in biduals:", system3.check_kills_wedge_kernel(),
      " Fitting equality:", rep["pass"])
