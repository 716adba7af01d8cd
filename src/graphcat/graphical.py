"""The category of connected acyclic graphs and graphical maps.

A morphism sends edges to edges and vertices to structured subgraphs so
that boundaries match, and the assembled substitution of all the image
subgraphs embeds into the target with convex open image.  Morphisms are
determined by their edge map.  Active maps cover the whole target;
inert maps are the structured subgraph inclusions.  These classes form
an orthogonal factorization system whose middle object is the
substitution of the image subgraphs into the source.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass

from . import digraph
from .digraph import (
    Graph,
    StructuredSubgraph,
    _glue,
    _walk,
    cached_property,
    edge_subgraph,
    is_connected,
    is_convex_open,
    path_reentry,
    structured_subgraphs,
    vertex_corolla,
    whole_subgraph,
)
from .errors import GraphcatError, SizeLimit, Violation
from .pointed import pointed_map


@dataclass(frozen=True)
class GraphicalMorphism:
    """A graphical map, stored as the edge map plus per-vertex subgraphs."""

    source: Graph
    target: Graph
    f0_pairs: tuple
    f1v_pairs: tuple

    @cached_property
    def f0(self):
        return dict(self.f0_pairs)

    @cached_property
    def f1v(self):
        return {
            v: StructuredSubgraph(self.target, frozenset(edges), frozenset(vs))
            for v, (edges, vs) in self.f1v_pairs
        }

    def sort_key(self):
        return self.f0_pairs

    def __repr__(self):
        return f"GraphicalMorphism({dict(self.f0_pairs)})"


def graphical_morphism(source, target, f0, f1v):
    """Build a morphism from an edge map and vertex-to-subgraph map; a
    copy of ``f1v`` is kept when it holds only subgraphs of ``target``
    (DECISIONS.md D14)."""
    pairs = []
    for v, sub in f1v.items():
        if isinstance(sub, StructuredSubgraph):
            pairs.append((v, sub.key()))
        else:
            pairs.append((v, (tuple(sorted(sub[0])), tuple(sorted(sub[1])))))
    m = GraphicalMorphism(
        source, target, tuple(sorted(f0.items())), tuple(sorted(pairs))
    )
    if all(isinstance(sub, StructuredSubgraph) and sub.parent is target
           for sub in f1v.values()):
        m.__dict__["f1v"] = dict(f1v)
    return m


def identity_graphical(g):
    return graphical_morphism(
        g, g, {e: e for e in g.edges},
        {v: vertex_corolla(g, v) for v in g.vertex_names},
    )


def _image_violation(source, target, f0, f1v):
    """The clauses left once every vertex image is structured and matches
    its boundary: an injective assembled edge comparison and a total
    image closed under directed paths, decided from the edge and vertex
    sets of the images (DECISIONS.md D11)."""
    images = set(f0.values())
    subs = [f1v[v] for v in source.vertex_names]
    bare = [v for v, sub in zip(source.vertices, subs) if not sub.vertex_names_set]
    # a vertex sent to a bare edge merges its two edges, nothing else does
    if len(images) != len(source.edges) - len(bare):
        count = collections.Counter(f0.values())
        count.subtract(f0[v.ins[0]] for v in bare)
        return Violation(
            "NotConvexOpenImage", "assembled edge comparison is not injective",
            (min(y for y, n in count.items() if n > 1),),
        )
    # two images that share an internal edge fail the count or this test
    vertices = set()
    for sub in subs:
        if not images.isdisjoint(sub.internal_edges):
            return Violation(
                "NotConvexOpenImage", "assembled edge comparison is not injective",
                (min(images & sub.internal_edges),),
            )
        vertices |= sub.vertex_names_set
    w = path_reentry(target, vertices)
    if w is not None:
        return Violation(
            "NotConvexOpenImage", "total image is not a structured subgraph", (w,)
        )
    return None


def validate_graphical(f):
    """Check boundary compatibility, the convex open image condition, and
    that ``f1`` names only source vertices."""
    G, K = f.source, f.target
    for role, g in (("source", G), ("target", K)):
        if not is_connected(g):
            return Violation(
                "ConnectivityError", "source and target must be connected", (role,)
            )
    if f.f0.keys() != G.edge_set:
        return Violation(
            "EdgeMapError", "edge map is not total",
            tuple(sorted(f.f0.keys() ^ G.edge_set)),
        )
    for e, y in f.f0.items():
        if y not in K.edge_set:
            return Violation("EdgeMapError", f"{e} maps to unknown edge {y}", (e,))
    for v in G.vertex_names:
        if v not in f.f1v:
            return Violation("VertexMapError", f"no image subgraph for {v}", (v,))
        h = f.f1v[v]
        sub = h.as_open
        if not sub.is_open() or not is_convex_open(sub):
            return Violation(
                "NotConvexOpenImage", f"image of {v} is not structured", (v,)
            )
        vert = G.vertex(v)
        if sorted(f.f0[e] for e in vert.ins) != sorted(h.inputs):
            return Violation(
                "BoundaryMismatch", f"inputs of {v} do not match its image", (v,)
            )
        if sorted(f.f0[e] for e in vert.outs) != sorted(h.outputs):
            return Violation(
                "BoundaryMismatch", f"outputs of {v} do not match its image", (v,)
            )
    report = _image_violation(G, K, f.f0, f.f1v)
    # last, so that only a map that passes every other check changes verdict
    stray = sorted(f.f1v.keys() - G.vertex_by_name.keys())
    if report is None and stray:
        return Violation(
            "VertexMapError", f"image subgraph for unknown vertex {stray[0]}", (stray[0],)
        )
    return report


def f1_on_subgraph(f, j):
    """The derived action on structured subgraphs.

    A single edge goes to the edge subgraph on its image; otherwise the
    image is the union of the per-vertex subgraphs (DECISIONS.md D14).
    """
    if j.is_edge():
        (e,) = j.edge_names
        return edge_subgraph(f.target, f.f0[e])
    subs = [f.f1v[v] for v in j.vertex_names_set]
    return StructuredSubgraph(
        f.target,
        frozenset().union(*(sub.edge_names for sub in subs)),
        frozenset().union(*(sub.vertex_names_set for sub in subs)),
    )


def compose_graphical(g, f):
    """The composite of g: H -> G followed by f: G -> K."""
    if g.target != f.source:
        raise GraphcatError("morphisms are not composable")
    f0 = {e: f.f0[y] for e, y in g.f0.items()}
    f1v = {w: f1_on_subgraph(f, g.f1v[w]) for w in g.source.vertex_names}
    return graphical_morphism(g.source, f.target, f0, f1v)


# ---------------------------------------------------------------------------
# active / inert and factorization


def boundary_bijective(f):
    """Does the edge map restrict to bijections on inputs and outputs?"""
    G, K = f.source, f.target
    ins = [f.f0[e] for e in G.inputs]
    outs = [f.f0[e] for e in G.outputs]
    return (
        len(set(ins)) == len(ins)
        and len(set(outs)) == len(outs)
        and set(ins) == set(K.inputs)
        and set(outs) == set(K.outputs)
    )


def is_active_G(f):
    """The total image is the whole target."""
    whole = f1_on_subgraph(f, whole_subgraph(f.source))
    return (
        whole.edge_names == f.target.edge_set
        and whole.vertex_names_set == frozenset(f.target.vertex_names)
    )


def is_inert_G(f):
    """Isomorphic to a structured subgraph inclusion: edge-injective
    with every vertex landing on a corolla."""
    if len(set(f.f0.values())) != len(f.f0):
        return False
    return all(f.f1v[v].is_corolla() for v in f.source.vertex_names)


def active_onto_substitution(g, target, corr, inner):
    """The active map from ``g`` onto the result ``target`` (its vertices
    in any order) of substituting ``inner[v]`` at each vertex v of ``g``,
    with correspondence ``corr``: v goes to the image of ``inner[v]``."""
    f0 = {e: corr.outer_edge[e] for e in g.edges}
    f1v = {
        v: StructuredSubgraph(
            target,
            frozenset(corr.inner_edge[(v, e)] for e in h.edges),
            frozenset(corr.inner_vertex[(v, w)] for w in h.vertex_names),
        )
        for v, h in inner.items()
    }
    return graphical_morphism(g, target, f0, f1v)


def factorize_G(f):
    """Factor as an active map onto the assembled middle object followed
    by an inert inclusion into the target.

    The middle object substitutes every image subgraph into the source,
    with boundaries paired by the edge map; it maps into the target by
    the edge map and by the identity on internal edges and vertices.
    For a valid map the pairings, ``f0`` itself, are bijections onto
    the boundaries, so they are glued unchecked (DECISIONS.md D18).
    """
    G = f.source
    inner = {v: f.f1v[v].as_graph for v in G.vertex_names}
    assembled, corr = _glue(G, {
        v.name: (
            inner[v.name],
            {e: f.f0[e] for e in v.ins},
            {e: f.f0[e] for e in v.outs},
        )
        for v in G.vertices
    })
    active = active_onto_substitution(G, assembled, corr, inner)
    # consistent by DECISIONS.md D11: merged edges share their image
    e_map = {corr.outer_edge[e]: f.f0[e] for e in G.edges}
    e_map.update((res, e) for (_, e), res in corr.inner_edge.items())
    inert_f1v = {
        res: vertex_corolla(f.target, kv)
        for (_, kv), res in corr.inner_vertex.items()
    }
    inert = graphical_morphism(assembled, f.target, e_map, inert_f1v)
    return active, inert


def vertex_map_G(f):
    """The pointed map V(target) -> V(source): a target vertex goes to
    the unique source vertex whose image subgraph contains it."""
    mapping = {}
    for x in f.target.vertex_names:
        hits = [
            v for v in f.source.vertex_names
            if x in f.f1v[v].vertex_names_set
        ]
        mapping[x] = hits[0] if hits else None
    return pointed_map(f.target.vertex_names, f.source.vertex_names, mapping)


# ---------------------------------------------------------------------------
# hom enumeration


def hom_set(G, K, max_vertices=10):
    """All graphical maps G -> K by backtracking over vertex images.

    Each vertex is offered the structured subgraphs of K of its arity,
    with each pairing of its edges to their boundary that agrees with
    the edges already assigned, so a completed map runs only the clauses
    of ``_image_violation`` (DECISIONS.md D9, D11, D18).  A disconnected
    K raises ConnectivityError when G has vertices; otherwise a
    disconnected G or K has no maps.
    """
    if len(G.vertices) > max_vertices or len(K.vertices) > max_vertices:
        raise SizeLimit("hom enumeration bound exceeded")
    if not G.vertices:
        if len(G.edges) != 1 or not is_connected(K):
            return ()
        return tuple(
            graphical_morphism(G, K, {G.edges[0]: y}, {}) for y in K.edges
        )
    by_arity = {}
    for sub in structured_subgraphs(K):
        by_arity.setdefault(
            (len(sub.inputs), len(sub.outputs)), []
        ).append(sub)
    # connected: a walk along shared edges reaches every vertex and every
    # edge is at one; in its order, each later vertex meets an assigned edge
    order = [G.vertex(v) for v in _walk(G, G.vertex_by_name)]
    attached = G.in_vertex.keys() | G.out_vertex.keys()
    if len(order) < len(G.vertices) or len(attached) < len(G.edges):
        return ()
    results = []

    def backtrack(idx, f0, f1v):
        if idx == len(order):
            if _image_violation(G, K, f0, f1v) is None:
                f1v = {v: f1v[v] for v in G.vertex_names}
                results.append(graphical_morphism(G, K, f0, f1v))
            return
        vert = order[idx]
        v = vert.name
        for sub in by_arity.get(vert.biarity(), ()):
            ins, outs = sub.inputs, sub.outputs
            for in_perm in itertools.permutations(ins):
                if any(f0.get(e, y) != y for e, y in zip(vert.ins, in_perm)):
                    continue
                for out_perm in itertools.permutations(outs):
                    trial = dict(f0)
                    trial.update(zip(vert.ins, in_perm))
                    pairs = zip(vert.outs, out_perm)
                    if any(trial.setdefault(e, y) != y for e, y in pairs):
                        continue
                    f1v[v] = sub
                    backtrack(idx + 1, trial, f1v)
                    del f1v[v]

    backtrack(0, {}, {})
    results.sort(key=lambda m: m.sort_key())
    return tuple(results)


def iso_set(G, K):
    """All isomorphisms G -> K in the graphical category."""
    if len(G.edges) != len(K.edges) or len(G.vertices) != len(K.vertices):
        return ()
    return tuple(
        m for m in hom_set(G, K)
        if is_active_G(m) and is_inert_G(m)
    )


# ---------------------------------------------------------------------------
# membership predicates


def membership_G(g):
    """Flags locating a connected graph in the subcategory lattice."""
    sc = digraph.is_simply_connected(g)
    out = all(len(v.outs) >= 1 for v in g.vertices)
    omega = sc and all(len(v.outs) == 1 for v in g.vertices)
    linear = sc and all(v.biarity() == (1, 1) for v in g.vertices)
    return {"out": out, "sc": sc, "omega": omega, "linear": linear}


# ---------------------------------------------------------------------------
# serialization


def morphism_to_json(f):
    return {
        "f0": dict(f.f0_pairs),
        "f1": {
            v: {"edges": list(edges), "vertices": list(vs)}
            for v, (edges, vs) in f.f1v_pairs
        },
    }


def morphism_from_json(source, target, data):
    f0 = {str(k): str(v) for k, v in data["f0"].items()}
    f1v = {
        str(v): (tuple(map(str, val["edges"])), tuple(map(str, val["vertices"])))
        for v, val in data["f1"].items()
    }
    return graphical_morphism(source, target, f0, f1v)
