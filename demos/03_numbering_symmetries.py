"""
Adjacent-swap involutions and the symmetry group
================================================

The i-th involution swaps positions i and i+1 of a numbering when the
two elements are incomparable, and fixes it otherwise. Realized as
permutations of the full path set these generate the symmetry group of
numberings; their relations (squares, distant commutation, sixth powers
of adjacent products) are checked as exact permutation identities.
"""

from posetpaths import (
    apply_sigma,
    build_antichain_poset,
    build_chain_poset,
    build_young_poset,
    classify_local,
    generate_group,
    group_order,
    local_indices,
    verify_relations,
)

# On a chain everything is comparable: each involution fixes the path.
chain = build_chain_poset(4)
phi = (0, 1, 2, 3)
print("chain, sigma_1:", apply_sigma(chain.poset, 1, phi))

# On the antichain nothing is comparable: sigma_i acts like an adjacent
# transposition, and the group on 6 paths has order 6.
anti = build_antichain_poset(3)
handle = generate_group(anti, 4)
print("antichain(3): paths", handle.n_paths, "order", group_order(handle).order)
report = verify_relations(handle)
print("relations hold:", report.ok)

rep = classify_local(handle, 1)
print(
    f"local pair (1,2): product order {rep.product_order}, "
    f"group order {rep.group_order}, orbits {rep.orbit_types}"
)

# Orbits under all involutions sweep out exactly the numberings with the
# same endpoint ideal.
young = generate_group(build_young_poset([3, 2]), 6)
orbit = {young.path_index[(0, 1, 2, 4, 3, 5)]}
frontier = orbit
while frontier:  # add every generator's images of the ids found last
    frontier = {perm[k] for perm in young.generators for k in frontier} - orbit
    orbit |= frontier
assert sorted(orbit) == young.fiber_ids[0]  # at full depth, one endpoint fiber
print("orbit size on young [3,2] at full depth:", len(orbit))

# The diagram with one long row plus a single cell below: n-1 maximal
# numberings, and the involutions generate the full symmetric group on
# them (order (n-1)! for n cells).
for lam in [(3, 1), (4, 1), (5, 1)]:
    w = build_young_poset(lam)
    h = generate_group(w, w.poset.n)
    print(f"young {lam}: paths {h.n_paths}, group order {group_order(h).order}")

for i in local_indices(handle):
    rep = classify_local(handle, i)
    print(f"antichain local i={i}: tags {[t for _, t in rep.orbit_types]}")
