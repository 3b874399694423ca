"""
Posets, windows, and monotone numberings
========================================

Build finite windows of the standard families, inspect their order
structure, and enumerate monotone numberings (injective labelings that
start at the root and keep every prefix downward closed).
"""

from posetpaths import (
    addable_elements,
    build_antichain_poset,
    build_box_poset,
    build_young_poset,
    enumerate_numberings,
    parse_poset,
    serialize_poset,
)

# A Young-diagram window: cells of the shape (3, 2) under componentwise
# order, with the root adjoined below the corner cell.
young = build_young_poset([3, 2])
print("young [3,2]:", young.poset.n, "elements,", len(young.poset.covers), "covers")
print(serialize_poset(young))

# The same text format parses back to an identical poset.
assert parse_poset(serialize_poset(young)).poset == young.poset

# Ideals grow one addable element at a time.
ideal = {0}
while True:
    frontier = addable_elements(young.poset, ideal)
    if not frontier:
        break
    print(f"ideal {sorted(ideal)} can add {frontier}")
    ideal.add(frontier[0])

# Full-length numberings of the shape (3,2): five of them, matching the
# number of standard fillings of the diagram.
for phi in enumerate_numberings(young, young.poset.n):
    print("numbering:", ",".join(map(str, phi)))

# A 2x2x2 box window of Z+^3: 48 full numberings.
box = build_box_poset(3, (2, 2, 2))
print("box (2,2,2) numberings:", len(enumerate_numberings(box, box.poset.n)))

# The root plus a 3-antichain has 3! = 6 full numberings.
anti = build_antichain_poset(3)
print("antichain(3)+root numberings:", len(enumerate_numberings(anti, 4)))
