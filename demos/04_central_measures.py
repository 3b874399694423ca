"""
Central measures on path space
==============================

A path measure is central when every adjacent-swap involution preserves
it; equivalently its conditional law on each endpoint fiber is uniform.
Endpoint-conditioned kernels realize the extreme central measures on a
finite truncation, and everything here is exact rational arithmetic.
"""

from fractions import Fraction

from posetpaths import (
    build_box_poset,
    build_graph,
    build_young_poset,
    endpoint_measure,
    generate_group,
    is_central,
    path_measure,
    perturb_fiber,
    uniform_path_measure,
)

g = build_graph(build_young_poset([2, 1]), 3)
kernel = endpoint_measure(g, g.levels[3][0])
for key, row in sorted(kernel.rows.items()):
    print(f"transitions at {key}:", [(elem, str(p)) for elem, _, p in row])

law = path_measure(kernel)
print("path law:", {" ".join(map(str, k)): str(v) for k, v in law.items()})

handle = generate_group(g.window, 4)  # the numberings of length 4, root included
report = is_central(handle, law)
print("endpoint kernel central:", report.central)

# The uniform measure on all fixed-length numberings is central as well:
# every involution permutes the path set bijectively.
w = build_box_poset(2, (3, 3))
g33 = build_graph(w, 6)
h33 = generate_group(w, 7)
uniform = uniform_path_measure(h33)
print("uniform on 3x3 paths central:", is_central(h33, uniform).central)

# Moving one tenth of the mass inside a fiber breaks invariance, and the
# check names a violating generator.
bad = perturb_fiber(law, Fraction(1, 10))
bad_report = is_central(handle, bad)
print("perturbed central:", bad_report.central)
print("witness (generator index, path):", bad_report.invariance_witnesses[0])

# Endpoint kernels at every top vertex of the 3x3 box are all central.
for v in g33.levels[6]:
    assert is_central(h33, path_measure(endpoint_measure(g33, v))).central
print("all endpoint kernels on the 3x3 box at depth 6: central")
