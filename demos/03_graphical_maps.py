"""Maps of connected acyclic graphs: edges to edges, vertices to subgraphs.

Run with:  python3 demos/03_graphical_maps.py
"""

from graphcat.digraph import (
    edge_subgraph,
    graph,
    is_convex_open,
    open_intersection,
    vertex_corolla,
)
from graphcat.graphical import (
    factorize_G,
    graphical_morphism,
    hom_set,
    is_active_G,
    is_inert_G,
    validate_graphical,
    vertex_map_G,
)
from graphcat.level import elementary_corolla, hom_level, linear_level_graph, tau
from graphcat.zoo import (
    closed_double_edge_graph,
    closed_square_graph,
    three_vertex_graph,
)

g3 = three_vertex_graph()
k = graph(
    ["i", "t1", "t2", "o"],
    [("a", ["i"], ["t1", "t2"]), ("b", ["t1", "t2"], ["o"])],
)

# A map may send a vertex to a single edge, and images of disjoint-ish
# corollas may overlap in more edges than their sources share: the
# middle vertex v lands on the edge t2, so the images of the outer
# corollas meet in two parallel edges.
f = graphical_morphism(
    g3, k,
    {"a": "i", "b": "t2", "c": "t2", "d": "t1", "e": "o"},
    {
        "u": vertex_corolla(k, "a"),
        "v": edge_subgraph(k, "t2"),
        "w": vertex_corolla(k, "b"),
    },
)
print("map accepted:", validate_graphical(f) is None)
meet = open_intersection(f.f1v["u"].as_open, f.f1v["w"].as_open)
print("image intersection has", len(meet.edge_names),
      "edges; structured:", is_convex_open(meet))
print("map is active:", is_active_G(f))
print("vertex map:", dict(vertex_map_G(f).pairs))

# Hom-sets are finite and computable.  Between the closed square and
# the closed double edge there are no maps in one direction; the maps
# in the other direction are the canonical active maps onto
# substitutions.
g2 = closed_square_graph()
k2 = closed_double_edge_graph()
print("\nmaps square -> double edge:", len(hom_set(g2, k2)))
print("maps double edge -> square:", len(hom_set(k2, g2)))

# Every map factors as an active map onto the substituted middle
# object followed by an inert subgraph inclusion.
act, ine = factorize_G(f)
print("\nfactorization: active:", is_active_G(act), " inert:", is_inert_G(ine))
print("middle object:", act.target)

# Morphisms of connected level graphs forget down to graphical maps.
src = elementary_corolla(1, 1)
tgt = linear_level_graph(2)
for lm in hom_level(src, tgt)[:3]:
    print("\nlevel morphism over", lm.alpha, "maps to", tau(lm))
