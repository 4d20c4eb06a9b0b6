"""
A chain of naturals under two incomparable tops
===============================================

The naturals 0 < 1 < 2 < ... sit below a flat pair of tops.  Every
finite window of this structure is a perfectly good skew lattice, yet
completeness fails in both directions at infinity: the naturals have no
least upper bound, and the two tops have no greatest lower bound.  Both
failures are certified over an arbitrarily deep finite window.
"""

from skewlat import (
    check_identity,
    commutation_graph,
    om_verify_no_infimum_of_infs,
    om_verify_no_join_of_naturals,
    om_window,
    validate_skew_axioms,
)

W = om_window(4)
print("window of depth 4, order", W.order, "labels", W.labels)
print("valid:", validate_skew_axioms(W).ok)
print("left-handed:", check_identity(W, "left_handed").ok)
print("strongly distributive:", check_identity(W, "strongly_distributive").ok)

# the tops project onto each other instead of commuting
# bit b of rows[a] is set iff a and b commute
rows = commutation_graph(W)
pairs = tuple((a, b) for a in range(W.order) for b in range(a + 1, W.order) if not rows[a] >> b & 1)
print("non-commuting pairs:", pairs)

cert = om_verify_no_join_of_naturals(100)
print(cert.checked, "->", cert.ok)
for key, value in cert.witness:
    print("   ", key, "=", value)

cert = om_verify_no_infimum_of_infs(50)
print(cert.checked, "->", cert.ok)
