"""
Commuting subsets and the completeness ladder
=============================================

In a lattice every subset has a join.  Here only commuting subsets can
hope for one, and four properties of decreasing strength sort the
structures: joins of commuting subsets exist, commuting subsets are
bounded, commuting subsets extend to lattice sections, a lattice
section exists at all.
"""

from skewlat import (
    build_pfn_algebra,
    check_implication_chain,
    enumerate_commuting_subsets,
    join_fold,
    lattice_sections,
    om_window,
    sup_natural,
)

S = build_pfn_algebra(2, 2)

subsets = list(enumerate_commuting_subsets(S))
print("commuting subsets of P(2,2):", len(subsets))

# fold the elements in any order vs. the least upper bound: same answer
C = next(c for c in subsets if len(c) == 3)
print("subset:", [S.labels[i] for i in C])
print("  folded join:", S.labels[join_fold(S, C)])
print("  order-theoretic sup:", S.labels[sup_natural(S, C)])

print("lattice sections of P(2,2):")
for sec in lattice_sections(S):
    print("  {", ", ".join(S.labels[i] for i in sec), "}")

for T, name in ((S, "P(2,2)"), (om_window(3), "window of depth 3")):
    cert = check_implication_chain(T)
    print(f"{name}: ladder intact -> {cert.ok}")
    for rung, holds in cert.witness:
        print(f"   {rung}: {holds}")
