"""Presheaves on graph corpora: the Segal condition and the nerve.

Run with:  python3 demos/05_nerve_theorem.py
"""

from graphcat.digraph import linear_graph
from graphcat.level import level_graph, linear_level_graph
from graphcat.properad import end_properad
from graphcat.segal import (
    build_corpus,
    build_level_corpus,
    extract_properad,
    is_segal,
    nerve,
    representable_presheaf,
    segal_limit,
    segmentation_check,
)
from graphcat.zoo import closed_double_edge_graph, closed_square_graph

# A corpus: finitely many graphs closed under structured subgraphs,
# with all hom-sets precomputed.
corpus = build_corpus([linear_graph(2)])
print("corpus objects:")
for g in corpus.objects:
    print("  ", g)

# The nerve of a properad assigns to each graph its decorations; it is
# always Segal: the value at a graph is recovered from edges and
# corollas.
P = end_properad({"c": 2})
N = nerve(P, corpus)
print("\nnerve value sizes:", [len(v) for v in N.values])
print("nerve is Segal:", is_segal(N))

# Extracting the properad back from the nerve recovers it.
Q = extract_properad(N)
c = Q.colors[0]
print("extracted |ops(c;c)| =", len(Q.ops((c,), (c,))), "(matches 2^2)")

# Representable presheaves need not be Segal: with the closed square
# and the closed double edge, compatible corolla families exist where
# no actual map does.
pair = build_corpus(
    [closed_square_graph(), closed_double_edge_graph()], max_vertices=4
)
k2 = next(
    i for i, g in enumerate(pair.objects)
    if len(g.vertices) == 2 and not g.inputs
)
R = representable_presheaf(pair, k2)
flag, witness = is_segal(R)
print("\nrepresentable presheaf Segal:", flag,
      "- fails at object", witness)
sq = next(i for i, g in enumerate(pair.objects) if len(g.vertices) == 4)
print("at the square: values =", len(R.value(sq)),
      "but compatible families =", len(segal_limit(R, sq)))

# The same nerve and Segal condition work on level-graph corpora, where
# the condition can be rephrased through height-1 slices glued over
# height-0 interfaces.
branching = level_graph(
    [["a"], ["b", "c"], ["d", "e"]],
    [
        [("u", ["a"], ["b", "c"])],
        [("v", ["b"], ["d"]), ("w", ["c"], ["e"])],
    ],
)
lc = build_level_corpus([branching, linear_level_graph(2)])
NL = nerve(P, lc)
full, short_seg = segmentation_check(NL)
print("\nfull Segal locality:", full)
print("short cores + segmentation maps:", short_seg)
