"""Level graphs: layered acyclic graphs and their category.

A level graph of height n has edge sets at levels 0..n and vertex sets
at layers (i, i+1); every level-i edge is the input of exactly one
layer-i vertex (for i < n) and the output of exactly one layer-(i-1)
vertex (for i > 0).  Extending a level graph to all index pairs (i, j)
by pushouts yields its components functor, whose elements are the level
subgraphs.

Morphisms consist of a monotone height map together with layerwise
injections into the target's components, subject to a monomorphism and
a pullback (cartesianness) condition.  Active maps fix boundaries and
are bijective on components; inert maps are interval inclusions.  The
two classes form an orthogonal factorization system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .digraph import (
    Graph,
    StructuredSubgraph,
    Vertex,
    as_vertex,
    betti_number,
    cached_property,
    connected_components,
    corolla,
    linear_graph,
    repeated,
    validate as validate_graph,
    vertex_from_json,
    vertex_to_json,
)
from .errors import (
    ConnectivityError,
    GraphcatError,
    HeightError,
    Violation,
)
from . import graphical
from .pointed import pointed_map


@dataclass(frozen=True)
class LevelGraph:
    """Edge layers 0..n and vertex layers (i, i+1) with incidence data.

    ``vertex_layers[i]`` holds vertices whose inputs lie in
    ``edge_layers[i]`` and outputs in ``edge_layers[i+1]``.
    """

    edge_layers: tuple
    vertex_layers: tuple

    @property
    def height(self):
        return len(self.edge_layers) - 1

    @cached_property
    def vertex_names(self):
        return tuple(
            v.name for layer in self.vertex_layers for v in layer
        )

    @cached_property
    def _components(self):
        return SpecialFunctor(self)

    @cached_property
    def _graph(self):
        return Graph(
            tuple(e for layer in self.edge_layers for e in layer),
            tuple(v for layer in self.vertex_layers for v in layer),
        )

    @cached_property
    def _hom_slots(self):
        """The search plan of ``hom_level`` from this graph: each vertex
        with its layer and shape (numbers of inputs and outputs), and each
        edge with its level and the vertices consuming it (below the top
        level) and producing it (above level 0)."""
        consumer, producer = {}, {}
        for i, layer in enumerate(self.vertex_layers):
            for v in layer:
                consumer.update(((i, e), v.name) for e in v.ins)
                producer.update(((i + 1, e), v.name) for e in v.outs)
        vertex_slots = tuple(
            (i, v.name, (len(v.ins), len(v.outs)))
            for i, layer in enumerate(self.vertex_layers) for v in layer
        )
        edge_slots = tuple(
            (i, e, consumer.get((i, e)), producer.get((i, e)))
            for i, layer in enumerate(self.edge_layers) for e in layer
        )
        return vertex_slots, edge_slots

    def __repr__(self):
        return (
            f"LevelGraph(height={self.height}, "
            f"edges={[list(l) for l in self.edge_layers]})"
        )


def level_graph(edge_layers, vertex_layers):
    """Build a LevelGraph from layer lists of edge ids and vertex triples."""
    return LevelGraph(
        tuple(tuple(layer) for layer in edge_layers),
        tuple(tuple(map(as_vertex, layer)) for layer in vertex_layers),
    )


def elementary_edge(name="e"):
    """The height-0 level graph with a single edge."""
    return LevelGraph(((name,),), ())


def elementary_corolla(p, q, name="v"):
    """The height-1 level graph of ``corolla(p, q, name)``."""
    (v,) = corolla(p, q, name).vertices
    return LevelGraph((v.ins, v.outs), ((v,),))


def linear_level_graph(n):
    """The height-n level graph of ``linear_graph(n)``: one edge at every level."""
    g = linear_graph(n)
    return LevelGraph(tuple((e,) for e in g.edges), tuple((v,) for v in g.vertices))


def validate_level(lg):
    """Check the level graph axioms; return a Violation or None."""
    n = lg.height
    if n < 0:
        return Violation("HeightError", "no edge layers", ("edge_layers",))
    if len(lg.vertex_layers) != n:
        return Violation(
            "HeightError",
            f"{len(lg.vertex_layers)} vertex layers for height {n}",
            ("vertex_layers",),
        )
    all_names = [e for layer in lg.edge_layers for e in layer] + [
        v.name for layer in lg.vertex_layers for v in layer
    ]
    if len(set(all_names)) != len(all_names):
        return Violation(
            "DuplicateName", "edge/vertex names are not distinct", repeated(all_names)
        )
    for i, layer in enumerate(lg.vertex_layers):
        # each vertex's inputs then outputs, then the partition of each level
        sides = (
            ("in", i, [v.ins for v in layer]),
            ("out", i + 1, [v.outs for v in layer]),
        )
        for k, v in enumerate(layer):
            for side, level, lists in sides:
                for e in lists[k]:
                    if e not in lg.edge_layers[level]:
                        return Violation(
                            "UnknownEdge",
                            f"{side}({v.name}) uses {e} outside level {level}",
                            (i, v.name, e),
                        )
        for side, level, lists in sides:
            if sorted(e for edges in lists for e in edges) != sorted(lg.edge_layers[level]):
                return Violation(
                    "PartitionViolation",
                    f"{side}puts of layer {i} vertices do not partition level {level} edges",
                    (i,),
                )
    return validate_graph(underlying_graph(lg))


def underlying_graph(lg):
    """Forget levels: the plain directed graph with the same incidences,
    memoised on the graph object."""
    return lg._graph


# ---------------------------------------------------------------------------
# the components functor (pushout extension)


class SpecialFunctor:
    """All components F_{i,j} of a level graph.

    F_{i,j} is the quotient of the edges at levels i..j and the vertices
    at layers i..j-1 by incidence; its elements (the level subgraphs)
    are represented by their least atom.  Atoms are ("e", level, name)
    or ("v", layer, name) tuples.  Each pair's tables are built on first
    use.
    """

    def __init__(self, lg, shifted=None):
        self.lg = lg
        self._shifted = shifted  # (functor of K, t, kept classes): see factorize_L
        self._reps = {}
        self._elements = {}
        self._members = {}
        self._shapes = {}
        self._subgraphs = {}

    def reps(self, pair):
        """Each atom of F at ``pair``, in atom order, to its representative."""
        table = self._reps.get(pair)
        if table is None:
            if not 0 <= pair[0] <= pair[1] <= self.lg.height:
                raise KeyError(pair)
            table = self._reps[pair] = self._component_reps(*pair)
        return table

    def _component_reps(self, i, j):
        if self._shifted is not None:
            sf, t, kept = self._shifted
            top = sf.reps((t, t + self.lg.height))
            return {
                (a[0], a[1] - t, a[2]): (r[0], r[1] - t, r[2])
                for a, r in sf.reps((i + t, j + t)).items() if top[r] in kept
            }
        lg = self.lg
        parent = {}
        for k in range(i, j + 1):
            for e in lg.edge_layers[k]:
                parent[("e", k, e)] = ("e", k, e)
        for k in range(i, j):
            for v in lg.vertex_layers[k]:
                parent[("v", k, v.name)] = ("v", k, v.name)

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra

        for k in range(i, j):
            for v in lg.vertex_layers[k]:
                va = ("v", k, v.name)
                for e in v.ins:
                    union(va, ("e", k, e))
                for e in v.outs:
                    union(va, ("e", k + 1, e))
        return {a: find(a) for a in parent}

    def _classes(self, pair):
        grouped = {}
        for atom, rep in self.reps(pair).items():
            grouped.setdefault(rep, []).append(atom)
        self._elements[pair] = tuple(sorted(grouped))
        self._members[pair] = {
            rep: tuple(sorted(atoms)) for rep, atoms in grouped.items()
        }

    def cls(self, pair, atom):
        """Representative of the class of ``atom`` in F at ``pair``."""
        return self.reps(pair)[atom]

    def elements(self, pair):
        """The representatives at ``pair``, sorted."""
        if pair not in self._elements:
            self._classes(pair)
        return self._elements[pair]

    def members(self, pair, rep):
        """The atoms of the class of ``rep`` at ``pair``, sorted."""
        if pair not in self._members:
            self._classes(pair)
        return self._members[pair].get(rep, ())

    def shapes(self, pair):
        """The representatives at ``pair``, sorted, grouped by shape: the
        numbers of their edges at levels ``pair[0]`` and ``pair[1]``.  A
        class at (i, i) is one edge, of shape (1, 1)."""
        table = self._shapes.get(pair)
        if table is None:
            table = self._shapes[pair] = {}
            for rep in self.elements(pair):
                levels = [a[1] for a in self.members(pair, rep) if a[0] == "e"]
                shape = (levels.count(pair[0]), levels.count(pair[1]))
                table.setdefault(shape, []).append(rep)
        return table

    def subgraph(self, pair, rep):
        """The structured subgraph of the underlying graph carried by the
        class of ``rep`` at ``pair``, built once per class.  A class is a
        component of a slice, so it is structured (DECISIONS.md D16)."""
        sub = self._subgraphs.get((pair, rep))
        if sub is None:
            members = self.members(pair, rep)
            if not members:
                raise GraphcatError(f"{rep} is not a component at {pair}")
            sub = self._subgraphs[(pair, rep)] = StructuredSubgraph(
                self.lg._graph,
                frozenset(a[2] for a in members if a[0] == "e"),
                frozenset(a[2] for a in members if a[0] == "v"),
            )
        return sub


def special_extension(lg):
    """The components functor of ``lg``, memoised on the graph object."""
    return lg._components


def is_connected_level(lg):
    sf = special_extension(lg)
    return len(sf.elements((0, lg.height))) == 1


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class LevelMorphism:
    """A morphism of level graphs over a monotone map ``alpha``.

    ``eta_e[i]`` maps level-i edges to edges at level alpha[i] of the
    target; ``eta_v[i]`` maps layer-i vertices to component
    representatives of the target at (alpha[i], alpha[i+1]).
    """

    source: LevelGraph
    target: LevelGraph
    alpha: tuple
    eta_e: tuple
    eta_v: tuple

    @cached_property
    def edge_maps(self):
        return tuple(dict(layer) for layer in self.eta_e)

    @cached_property
    def vertex_maps(self):
        return tuple(dict(layer) for layer in self.eta_v)

    @cached_property
    def atom_images(self):
        """Each source atom's image atom: a level-k edge goes to its image
        edge at level alpha[k], a vertex to its component representative."""
        images = {}
        for k, layer in enumerate(self.eta_e):
            level = self.alpha[k]
            for e, y in layer:
                images[("e", k, e)] = ("e", level, y)
        for k, layer in enumerate(self.eta_v):
            for v, rep in layer:
                images[("v", k, v)] = rep
        return images

    def sort_key(self):
        return (self.alpha, self.eta_e, self.eta_v)


def level_morphism(source, target, alpha, edge_maps, vertex_maps):
    return LevelMorphism(
        source,
        target,
        tuple(alpha),
        tuple(tuple(sorted(m.items())) for m in edge_maps),
        tuple(tuple(sorted(m.items())) for m in vertex_maps),
    )


def inert_inclusion(sub, lg, t):
    """The inert map sub -> lg that is the identity on edge and vertex
    names, where sub's levels are lg's levels t, t+1, ...: a layer-i
    vertex goes to its own class at (t+i, t+i+1)."""
    sf = special_extension(lg)
    edge_maps = [{e: e for e in layer} for layer in sub.edge_layers]
    vertex_maps = [
        {v.name: sf.cls((t + i, t + i + 1), ("v", t + i, v.name)) for v in layer}
        for i, layer in enumerate(sub.vertex_layers)
    ]
    return level_morphism(sub, lg, range(t, t + sub.height + 1), edge_maps, vertex_maps)


def identity_level(lg):
    return inert_inclusion(lg, lg, 0)


def derived_class_map(f, pair):
    """The induced map on components at a source index pair.

    Returns a dict from source representatives at ``pair`` to target
    representatives at (alpha[i], alpha[j]), or raises GraphcatError if
    the layerwise data is not natural.
    """
    i, j = pair
    target = special_extension(f.target).reps((f.alpha[i], f.alpha[j]))
    images = f.atom_images
    out = {}
    for atom, source_rep in special_extension(f.source).reps(pair).items():
        target_rep = target[images[atom]]
        if out.setdefault(source_rep, target_rep) != target_rep:
            raise GraphcatError(
                f"map is not natural at {pair}: class {source_rep} goes to "
                f"both {out[source_rep]} and {target_rep}"
            )
    return out


def validate_level_morphism(f):
    """Check monotonicity, naturality, monomorphy, cartesianness."""
    G, H = f.source, f.target
    n, m = G.height, H.height
    alpha = f.alpha
    if len(alpha) != n + 1 or any(
        alpha[i] > alpha[i + 1] for i in range(n)
    ) or alpha[0] < 0 or alpha[-1] > m:
        return Violation(
            "AlphaError", f"alpha {alpha} is not monotone into [0,{m}]", ("alpha",)
        )
    sf_t = special_extension(H)
    emaps, vmaps = f.edge_maps, f.vertex_maps
    if len(emaps) != n + 1:
        return Violation(
            "EdgeMapError", f"{len(emaps)} edge map layers for {n + 1} levels",
            ("edge_maps",),
        )
    if len(vmaps) != n:
        return Violation(
            "VertexMapError", f"{len(vmaps)} vertex map layers for {n} layers",
            ("vertex_maps",),
        )
    for i, layer in enumerate(G.edge_layers):
        if sorted(emaps[i]) != sorted(layer):
            return Violation("EdgeMapError", f"edge map at level {i} is not total", (i,))
        targets = H.edge_layers[alpha[i]]
        for e, y in emaps[i].items():
            if y not in targets:
                return Violation(
                    "EdgeMapError", f"{e} maps outside level {alpha[i]}", (i, e)
                )
    for i, (layer, vmap) in enumerate(zip(G.vertex_layers, vmaps)):
        tpair = (alpha[i], alpha[i + 1])
        elements = sf_t.elements(tpair)
        if sorted(vmap) != sorted(v.name for v in layer):
            return Violation("VertexMapError", f"vertex map at layer {i} is not total", (i,))
        for v in layer:
            c = vmap[v.name]
            if c not in elements:
                return Violation(
                    "VertexMapError",
                    f"{v.name} maps to {c} which is not a component at {tpair}",
                    (i, v.name),
                )
    # naturality at every pair before injectivity at any, so that data
    # which are not natural are always reported as such
    dmaps = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            try:
                dmaps[(i, j)] = derived_class_map(f, (i, j))
            except GraphcatError as exc:
                return Violation("Naturality", str(exc), (i, j))
    for (i, j), dmap in dmaps.items():
        if len(set(dmap.values())) != len(dmap):
            return Violation(
                "MonoViolation",
                f"component map at ({i},{j}) is not injective",
                (i, j),
            )
    # cartesianness against the terminal pair; smaller squares follow by
    # pullback cancellation
    im_full = set(dmaps[(0, n)].values())
    tfull = sf_t.reps((alpha[0], alpha[n]))
    for (i, j), dmap in dmaps.items():
        im = set(dmap.values())
        tpair = (alpha[i], alpha[j])
        for y in sf_t.elements(tpair):
            if tfull[y] in im_full and y not in im:
                return Violation(
                    "CartesianViolation",
                    f"component {y} at {tpair} misses the image",
                    (i, j, 0, n),
                )
    return None


def composite_key(f, g):
    """``compose_level(f, g).sort_key()``, raising alike, with no composite built."""
    if f.target != g.source:
        raise GraphcatError("morphisms are not composable")
    # f's layers are sorted by source name, so are these (DECISIONS.md D6)
    alpha = tuple(g.alpha[a] for a in f.alpha)
    eta_e = tuple(
        tuple((e, g.edge_maps[f.alpha[i]][y]) for e, y in layer)
        for i, layer in enumerate(f.eta_e)
    )
    eta_v = []
    for i, layer in enumerate(f.eta_v):
        dmap = derived_class_map(g, (f.alpha[i], f.alpha[i + 1]))
        eta_v.append(tuple((v, dmap[c]) for v, c in layer))
    return alpha, eta_e, tuple(eta_v)


def compose_level(f, g):
    """The composite of f: G -> H followed by g: H -> K."""
    return LevelMorphism(f.source, g.target, *composite_key(f, g))


# ---------------------------------------------------------------------------
# active / inert and factorization


def is_inert_L(f):
    """Interval inclusions: alpha(t) = c + t."""
    return all(
        f.alpha[i + 1] == f.alpha[i] + 1 for i in range(len(f.alpha) - 1)
    )


def is_active_L(f):
    """Boundary-preserving with bijective top component.

    Uses the criterion that only the (0, n) component map need be a
    bijection; cartesianness then forces all of them to be.
    """
    G, H = f.source, f.target
    if f.alpha[0] != 0 or f.alpha[-1] != H.height:
        return False
    dmap = derived_class_map(f, (0, G.height))
    target = special_extension(H).elements((0, H.height))
    return len(dmap) == len(target) and set(dmap.values()) == set(target)


def factorize_L(f):
    """Factor as an active map followed by an inert one.

    The middle object is carved out of the target: it spans the levels
    hit by alpha and keeps exactly the atoms lying over components in
    the image of the top component map.  Those are whole classes of the
    target, so the middle's classes are the target's, shifted
    (DECISIONS.md D19).
    """
    G, H = f.source, f.target
    t = f.alpha[0]
    p = f.alpha[-1] - t
    sf_t = special_extension(H)
    im_full = set(derived_class_map(f, (0, G.height)).values())
    top = sf_t.reps((t, t + p))
    middle = LevelGraph(
        tuple(tuple(e for e in H.edge_layers[k] if top[("e", k, e)] in im_full)
              for k in range(t, t + p + 1)),
        tuple(tuple(v for v in H.vertex_layers[k] if top[("v", k, v.name)] in im_full)
              for k in range(t, t + p)),
    )
    # its classes are the kept classes of H, shifted down by t
    middle.__dict__["_components"] = SpecialFunctor(middle, (sf_t, t, im_full))
    # naturality at (0, n) puts each image class c inside a top class in
    # the image, so the middle object keeps c, with c shifted as its
    # representative; f's layers stay sorted by source name (D6)
    active = LevelMorphism(
        G, middle, tuple(a - t for a in f.alpha), f.eta_e,
        tuple(tuple((v, (c[0], c[1] - t, c[2])) for v, c in layer) for layer in f.eta_v),
    )
    return active, inert_inclusion(middle, H, t)


# ---------------------------------------------------------------------------
# the vertex functor


def vertex_map_L(f):
    """The pointed map V(target) -> V(source) induced by a morphism.

    A target vertex goes to the source vertex whose component image
    contains it, and to the basepoint when no layer of the source maps
    over its layer or its component misses the image.
    """
    G, H = f.source, f.target
    sf_t = special_extension(H)
    n = G.height
    mapping = {}
    for k, layer in enumerate(H.vertex_layers):
        i = next(
            (i for i in range(n) if f.alpha[i] <= k and k + 1 <= f.alpha[i + 1]),
            None,
        )
        for w in layer:
            if i is None:
                mapping[w.name] = None
                continue
            tpair = (f.alpha[i], f.alpha[i + 1])
            c = sf_t.cls(tpair, ("v", k, w.name))
            hit = [v for v, cc in f.vertex_maps[i].items() if cc == c]
            mapping[w.name] = hit[0] if hit else None
    return pointed_map(H.vertex_names, G.vertex_names, mapping)


# ---------------------------------------------------------------------------
# membership predicates


def membership(lg):
    """Flags locating the level graph in the subcategory lattice."""
    g = underlying_graph(lg)
    connected = is_connected_level(lg)
    zero_type = betti_number(g) == 0 and (len(g.edges) + len(g.vertices)) > 0
    vertices = [v for layer in lg.vertex_layers for v in layer]
    out = all(len(v.outs) >= 1 for v in vertices)
    inp = all(len(v.ins) >= 1 for v in vertices)
    forest = all(len(v.outs) == 1 for v in vertices)
    tree = forest and len(lg.edge_layers[-1]) == 1
    linear = all(len(layer) == 1 for layer in lg.edge_layers)
    return {
        "connected": connected,
        "simply_connected": connected and zero_type,
        "zero_type": zero_type,
        "out": out,
        "input": inp,
        "forest": forest,
        "tree": tree,
        "linear": linear,
    }


# ---------------------------------------------------------------------------
# reindexing, degeneracy insertions, segmentation


def cartesian_reindex(lg, alpha):
    """Restrict along a monotone map: the cartesian lift over ``alpha``.

    Builds the level graph with layers F_{alpha(i), alpha(j)} and the
    projection morphism to ``lg``.  When alpha repeats a level, the
    corresponding vertex layer consists of the level's edges, seen as
    unary vertices.
    """
    sf = special_extension(lg)
    m = len(alpha) - 1

    def edge_copy(i, e):
        return f"L{i}_{e}"

    edge_layers = tuple(
        tuple(edge_copy(i, e) for e in lg.edge_layers[alpha[i]])
        for i in range(m + 1)
    )
    vls = []
    vertex_maps = []
    for i in range(m):
        pair = (alpha[i], alpha[i + 1])
        layer = []
        vmap = {}
        for rep in sf.elements(pair):
            name = f"L{i}.{rep[0]}{rep[1]}.{rep[2]}"
            ins = tuple(
                edge_copy(i, e)
                for e in lg.edge_layers[alpha[i]]
                if sf.cls(pair, ("e", alpha[i], e)) == rep
            )
            outs = tuple(
                edge_copy(i + 1, e)
                for e in lg.edge_layers[alpha[i + 1]]
                if sf.cls(pair, ("e", alpha[i + 1], e)) == rep
            )
            layer.append(Vertex(name, ins, outs))
            vmap[name] = rep
        vls.append(tuple(layer))
        vertex_maps.append(vmap)
    reindexed = LevelGraph(edge_layers, tuple(vls))
    edge_maps = [
        {edge_copy(i, e): e for e in lg.edge_layers[alpha[i]]}
        for i in range(m + 1)
    ]
    proj = level_morphism(reindexed, lg, alpha, edge_maps, vertex_maps)
    return reindexed, proj


def plus_minus(i1):
    """Insert a layer of unary vertices above, resp. below, a height-1 graph.

    These are the restrictions along the two surjections [2] -> [1]; the
    projection morphisms collapse the inserted layer again.
    """
    if i1.height != 1:
        raise HeightError(f"expected height 1, got {i1.height}")
    plus, _ = cartesian_reindex(i1, (0, 0, 1))
    minus, _ = cartesian_reindex(i1, (0, 1, 1))
    return plus, minus


def segmentation_pieces(lg):
    """Height-1 slices and their height-0 interfaces, with inclusions.

    Returns (pieces, interfaces): ``pieces[i]`` is the restriction to
    layers (i, i+1) with its inert inclusion, ``interfaces`` the
    interior level restrictions.  A height-0 graph is its own single
    piece.
    """
    n = lg.height
    if n == 0:
        return [(lg, identity_level(lg))], []
    pieces = [LevelGraph(lg.edge_layers[i:i + 2], (lg.vertex_layers[i],)) for i in range(n)]
    faces = [LevelGraph((lg.edge_layers[i],), ()) for i in range(1, n)]
    return (
        [(piece, inert_inclusion(piece, lg, i)) for i, piece in enumerate(pieces)],
        [(face, inert_inclusion(face, lg, i)) for i, face in enumerate(faces, 1)],
    )


# ---------------------------------------------------------------------------
# from connected level graphs to graphical maps


def component_images(f):
    """The edge map of a level morphism and the image of each vertex.

    Edges map by the levelwise edge maps; a vertex goes to the
    structured subgraph of the target's underlying graph carried by its
    component image.
    """
    sf_t = special_extension(f.target)
    f0 = {}
    for layer in f.edge_maps:
        f0.update(layer)
    images = {}
    for i, layer in enumerate(f.eta_v):
        tpair = (f.alpha[i], f.alpha[i + 1])
        for vname, rep in layer:
            images[vname] = sf_t.subgraph(tpair, rep)
    return f0, images


def tau(f):
    """Forget levels: the graphical map underlying a morphism of
    connected level graphs.

    Edges map by the levelwise edge maps; a vertex goes to the
    structured subgraph carried by its component image.
    """
    G, H = f.source, f.target
    if not is_connected_level(G) or not is_connected_level(H):
        raise ConnectivityError("tau is defined on connected level graphs")
    f0, images = component_images(f)
    return graphical.graphical_morphism(
        underlying_graph(G), underlying_graph(H), f0, images
    )


# ---------------------------------------------------------------------------
# hom enumeration


def _monotone_maps(n, m):
    """All monotone functions [n] -> [m] as (n+1)-tuples."""
    return [
        tuple(c)
        for c in itertools.combinations_with_replacement(range(m + 1), n + 1)
    ]


def hom_level(G, H):
    """All morphisms G -> H, enumerated by backtracking.

    For each monotone alpha, vertices are assigned component images
    first, distinct within a layer; then edges are filled in, distinct
    within a level, each in the components of the vertices consuming
    and producing it.  A layer-i vertex v is offered only the
    components of H at (alpha(i), alpha(i+1)) with |in(v)| edges at
    level alpha(i) and |out(v)| at level alpha(i+1), and an alpha
    leaving some vertex no such component is skipped.  This drops no
    morphism (DECISIONS.md D5), and it makes the edge map a bijection
    from in(v) and out(v) onto those edges, from which every leaf is a
    morphism (D9); so no leaf is validated.
    """
    sf_t = special_extension(H)
    results = []
    n = G.height
    vertex_slots, edge_slots = G._hom_slots
    for alpha in _monotone_maps(n, H.height):
        pairs = [(alpha[i], alpha[i + 1]) for i in range(n)]
        offers = [sf_t.shapes(pairs[i]).get(shape) for i, _, shape in vertex_slots]
        if not all(offers):
            continue
        tables = [sf_t.reps(pair) for pair in pairs]

        def assign_edges(idx, emaps, vmaps):
            if idx == len(edge_slots):
                results.append(level_morphism(G, H, alpha, emaps, vmaps))
                return
            i, e, below, above = edge_slots[idx]
            used = set(emaps[i].values())
            level = alpha[i]
            for y in H.edge_layers[level]:
                if y in used:
                    continue
                atom = ("e", level, y)
                if below is not None and tables[i][atom] != vmaps[i][below]:
                    continue
                if above is not None and tables[i - 1][atom] != vmaps[i - 1][above]:
                    continue
                emaps[i][e] = y
                assign_edges(idx + 1, emaps, vmaps)
                del emaps[i][e]

        def assign_vertices(idx, vmaps):
            if idx == len(vertex_slots):
                assign_edges(0, [dict() for _ in range(n + 1)], vmaps)
                return
            i, name, _ = vertex_slots[idx]
            used = set(vmaps[i].values())
            for rep in offers[idx]:
                if rep in used:
                    continue
                vmaps[i][name] = rep
                assign_vertices(idx + 1, vmaps)
                del vmaps[i][name]

        assign_vertices(0, [dict() for _ in range(n)])
    results.sort(key=lambda f: f.sort_key())
    return tuple(results)


# ---------------------------------------------------------------------------
# recovering a level structure


def level_structure(g, height=None):
    """Find level assignments for a plain graph, or None.

    Vertex levels are forced along shared edges; a component containing
    a graph output is placed at the top, any other component at the
    bottom, and ``validate_level`` decides the result.  Without a
    ``height`` the tallest component sets it.  Returns None when no
    placement is a level graph.
    """
    comps = [comp for comp, _ in connected_components(g)]
    placed = []
    for comp in comps:
        if not comp.vertices:
            continue
        rel = {comp.vertices[0].name: 0}
        queue = [comp.vertices[0].name]
        while queue:
            name = queue.pop()
            v = comp.vertex(name)
            for edges, ends, step in (
                (v.outs, comp.in_vertex, 1),
                (v.ins, comp.out_vertex, -1),
            ):
                for w in (ends[e] for e in edges if e in ends):
                    if w not in rel:
                        rel[w] = rel[name] + step
                        queue.append(w)
                    elif rel[w] != rel[name] + step:
                        return None
        lo = min(rel.values())
        rel = {k: val - lo + 1 for k, val in rel.items()}
        has_output = any(e in comp.out_vertex for e in comp.outputs)
        placed.append((rel, max(rel.values()), has_output))

    if len(placed) < len(comps):
        # a loose edge forces height zero and no vertices
        if placed or height not in (None, 0):
            return None
        return LevelGraph((tuple(e for comp in comps for e in comp.edges),), ())

    n = max((span for _, span, _ in placed), default=0) if height is None else height
    levels = {}
    for rel, span, has_output in placed:
        if span > n:
            return None
        offset = n - span if has_output else 0
        levels.update((name, lvl + offset) for name, lvl in rel.items())

    edge_layers = [[] for _ in range(n + 1)]
    vertex_layers = [[] for _ in range(n)]
    for e in g.edges:
        if g.out_vertex.get(e) is not None:
            edge_layers[levels[g.out_vertex[e]]].append(e)
        else:
            edge_layers[levels[g.in_vertex[e]] - 1].append(e)
    for v in g.vertices:
        vertex_layers[levels[v.name] - 1].append(v)
    lg = LevelGraph(tuple(map(tuple, edge_layers)), tuple(map(tuple, vertex_layers)))
    return lg if validate_level(lg) is None else None


# ---------------------------------------------------------------------------
# serialization


def level_to_json(lg):
    return {
        "height": lg.height,
        "edge_layers": [list(layer) for layer in lg.edge_layers],
        "vertex_layers": [
            [vertex_to_json(v) for v in layer] for layer in lg.vertex_layers
        ],
    }


def level_from_json(data):
    return level_graph(
        [[str(e) for e in layer] for layer in data["edge_layers"]],
        [[vertex_from_json(v) for v in layer] for layer in data["vertex_layers"]],
    )


def morphism_to_json(f):
    return {
        "alpha": list(f.alpha),
        "source": level_to_json(f.source),
        "target": level_to_json(f.target),
        "edge_maps": [dict(layer) for layer in f.eta_e],
        "vertex_maps": [
            {v: list(rep) for v, rep in layer} for layer in f.eta_v
        ],
    }


def morphism_from_json(data):
    return level_morphism(
        level_from_json(data["source"]),
        level_from_json(data["target"]),
        tuple(data["alpha"]),
        [dict(m) for m in data["edge_maps"]],
        [
            {v: (rep[0], int(rep[1]), str(rep[2])) for v, rep in m.items()}
            for m in data["vertex_maps"]
        ],
    )
