"""
Frames and their noncommutative counterparts
============================================

A frame distributes finite meets over arbitrary joins.  The
noncommutative analogue asks the same over commuting subsets, on a
join complete strongly distributive skew lattice with zero.  The two
notions are equivalent across the D-quotient, and that equivalence is
checkable structure by structure.
"""

from skewlat import (
    CensusFilter,
    build_pfn_algebra,
    check_theorem_ncframes,
    diamond_m3,
    enumerate_skew_lattices,
    is_frame,
    is_ncframe,
)

# the five-element diamond is the classic non-distributive lattice
m3 = diamond_m3()
verdict = is_frame(m3)
print("M3 is a frame:", verdict.ok, " failing instance:", verdict.witness)

S = build_pfn_algebra(2, 2)
print("P(2,2) is a noncommutative frame:", is_ncframe(S).ok)

res = check_theorem_ncframes(S)
print("equivalence with the shadow:", res.ok)
for key, value in res.witness:
    print("  ", key, "=", value)

# no commuting subset is walked (Lemmas A and C), so order 243 is in reach:
# a walk over P(5,2) would visit about 10^11 subsets
big = build_pfn_algebra(5, 2)
res = check_theorem_ncframes(big)
print(f"P(5,2), order {big.order}: equivalence holds:", res.ok, dict(res.witness))

# every strongly distributive structure with zero at small order agrees
filt = CensusFilter(strongly_distributive=True, has_zero=True)
checked = 0
for n in (1, 2, 3, 4):
    for T in enumerate_skew_lattices(n, filt):
        assert check_theorem_ncframes(T).ok
        checked += 1
print("equivalence verified on", checked, "census structures")
