"""
The graded graph of finite ideals
=================================

Vertices at level k are the ideals with k non-root elements; an edge
adds one element. The number of root paths to a vertex (its dimension)
is computed by exact integer dynamic programming, and numberings
correspond to root paths one-to-one.
"""

from posetpaths import (
    build_box_poset,
    build_graph,
    build_young_poset,
    dimension,
    numbering_of,
    path_of,
    up_dimension,
)

g = build_graph(build_young_poset([3, 2]), 5)
for level, verts in enumerate(g.levels):
    dims = [g.dims[level][v.index] for v in verts]
    print(f"level {level}: {len(verts)} vertices, dims {dims}")

top = g.levels[5][0]
print("dimension of the full shape:", dimension(g, top))

# Path counts between two vertices: from the single-cell ideal up to the
# full diagram.
u = g.vertex_of((0, 1))
print("paths from {root,(1,1)} to the top:", up_dimension(g, u, top))

# A numbering traces a vertex chain, and the chain recovers the numbering.
phi = (0, 1, 2, 4)  # root, (1,1), (1,2), (2,1) of the shape
chain = path_of(phi, g)
print("vertex chain:", [v.describe() for v in chain])
assert numbering_of(chain, g) == phi

# The 3x3 box: 42 maximal paths, the same count as standard fillings of
# a square diagram.
box = build_box_poset(2, (3, 3))
gb = build_graph(box, 8)
print("3x3 box, total paths to the top:", gb.dims[8][0])
print(gb.csv().splitlines()[0])  # the per-level dump schema
