"""Finite presheaves on graph corpora: Segal conditions and nerves.

A corpus is a finite family of graphs in one category of graphs (the
graphical category of connected graphs, or the category of level
graphs), together with all hom-sets between its members.  Set-valued
presheaves on a corpus are given by value tables and restriction tables;
the Segal condition asks the value at a graph to be recovered from the
values on its edges and corollas.  Covers, limits, comparisons, nerves
and representables are written once and read what they need from the
corpus's category.  The nerve of a finite properad is always Segal, and
a Segal presheaf determines a properad; both directions are implemented,
along with the segmentation reformulation on level-graph corpora.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from .digraph import (
    cached_property,
    canonical_form,
    corolla,
    edge_graph,
    edge_subgraph,
    structured_subgraphs,
    unordered_canonical_form,
    vertex_corolla,
    whole_subgraph,
)
from .errors import ColorMismatch, GraphcatError, NotSegal
from .graphical import (
    compose_graphical,
    graphical_morphism,
    hom_set,
    identity_graphical,
)
from .level import (
    LevelMorphism,
    component_images,
    compose_level,
    composite_key,
    elementary_corolla,
    elementary_edge,
    hom_level,
    identity_level,
    segmentation_pieces,
    special_extension,
    underlying_graph,
)
from .properad import FiniteProperad, decorated_graph


# ---------------------------------------------------------------------------
# categories of graphs


@dataclass(frozen=True)
class Category:
    """What the Segal engine reads from a category of graphs.

    ``hom(x, y)`` lists the maps x -> y; ``graph_of(x)`` is x's underlying graph.
    ``composite_key(f, g)`` is ``compose(f, g).sort_key()``.
    ``corolla_inclusion(c, x, v, at)`` sends the corolla object c onto the
    vertex v of ``graph_of(x)``; ``edge_inclusion(edge, x, e, at)`` sends the
    single-edge object onto the edge e; ``at`` is the table ``locate(x)``.
    ``images(f)`` is the edge map of a morphism together with, per source
    vertex, the target subgraph it is sent to (anything with an ``as_graph``).
    """

    hom: Callable
    compose: Callable
    composite_key: Callable
    identity: Callable
    graph_of: Callable
    locate: Callable
    corolla_inclusion: Callable
    edge_inclusion: Callable
    images: Callable


def _graphical_corolla_inclusion(c, g, v, at=None):
    cv = c.vertices[0]
    f0 = dict(zip(cv.ins, v.ins)) | dict(zip(cv.outs, v.outs))
    return graphical_morphism(c, g, f0, {cv.name: vertex_corolla(g, v.name)})


def _graphical_edge_inclusion(edge, g, e, at=None):
    return graphical_morphism(edge, g, {edge.edges[0]: e}, {})


def _level_positions(lg):
    """Each edge's level and each vertex's layer (the names are distinct)."""
    return {e: i for i, layer in enumerate(lg.edge_layers) for e in layer} | {
        v.name: i for i, layer in enumerate(lg.vertex_layers) for v in layer}


def _level_corolla_inclusion(c, lg, v, at):
    i = at[v.name]
    cv = c.vertex_layers[0][0]
    eta_e = (tuple(sorted(zip(cv.ins, v.ins))), tuple(sorted(zip(cv.outs, v.outs))))
    rep = special_extension(lg).cls((i, i + 1), ("v", i, v.name))
    return LevelMorphism(c, lg, (i, i + 1), eta_e, (((cv.name, rep),),))


def _level_edge_inclusion(edge, lg, e, at):
    return LevelMorphism(edge, lg, (at[e],), (((edge.edge_layers[0][0], e),),), ())


# hom and compose are looked up when called, so that rebinding the
# module-level names (as instrumentation does) also reaches the maps here
GRAPHICAL = Category(
    hom=lambda x, y: hom_set(x, y),
    compose=lambda f, g: compose_graphical(f, g),
    composite_key=lambda f, g: compose_graphical(f, g).sort_key(),
    identity=identity_graphical,
    graph_of=lambda g: g,
    locate=lambda g: None,
    corolla_inclusion=_graphical_corolla_inclusion,
    edge_inclusion=_graphical_edge_inclusion,
    images=lambda f: (f.f0, f.f1v),
)

LEVEL = Category(
    hom=lambda x, y: hom_level(x, y),
    compose=lambda f, g: compose_level(f, g),
    composite_key=composite_key,
    identity=identity_level,
    graph_of=underlying_graph,
    locate=_level_positions,
    corolla_inclusion=_level_corolla_inclusion,
    edge_inclusion=_level_edge_inclusion,
    images=component_images,
)


# ---------------------------------------------------------------------------
# corpora


class OnDemand(Mapping):
    """A read-only table that computes its entry at a key as ``rule(key)``
    on the first read and keeps it (DECISIONS.md D12).  ``keys()`` lists
    the keys in order; ``rule`` raises KeyError off the table.  Iterating,
    and so ``items()`` and ``==``, computes every entry."""

    def __init__(self, keys, rule):
        self._keys, self._rule, self._kept = keys, rule, {}

    def __getitem__(self, key):
        if key not in self._kept:
            self._kept[key] = self._rule(key)
        return self._kept[key]

    def __iter__(self):
        return iter({key: self[key] for key in self._keys()})

    def __len__(self):
        return len(self._keys())


class Corpus:
    """Objects of one category of graphs with their hom tables.

    ``graphs[i]`` is the underlying graph of ``objects[i]``; the edge
    and corolla objects are located on the underlying graphs.  ``homs[(i, j)]``
    is the tuple of maps A_i -> A_j, by default found on its first read.
    ``segments[i]``, kept by ``build_level_corpus`` for each generator,
    holds its height-1 pieces as (object index, inclusion) pairs and its
    interfaces' object indices.
    """

    def __init__(self, category, objects, homs=None):
        self.category = category
        self.objects = tuple(objects)
        self.graphs = tuple(category.graph_of(x) for x in self.objects)
        at = dict(enumerate(self.objects))
        self.homs = homs if homs is not None else OnDemand(
            lambda: list(itertools.product(at, repeat=2)),
            lambda key: category.hom(*(at[i] for i in key)),
        )
        self._covers = {}
        self.segments = {}
        self._hom_index = OnDemand(self.homs.keys, self._sort_key_index)

    def _sort_key_index(self, key):
        entry = self.homs[key]
        index = {m.sort_key(): k for k, m in enumerate(entry)}
        if len(index) != len(entry):
            raise GraphcatError(f"two maps in hom table {key} share a sort key")
        return index

    def __len__(self):
        return len(self.objects)

    def hom(self, i, j):
        return self.homs[(i, j)]

    def hom_index(self, i, j, m):
        """The position of m: A_i -> A_j in ``hom(i, j)``, found by its
        ``sort_key()`` within that pair (DECISIONS.md D6); KeyError if no
        map there has that key; GraphcatError if two maps there share one."""
        return self.key_index(i, j, m.sort_key())

    def key_index(self, i, j, key):
        """The position in ``hom(i, j)`` of the map whose sort key is key."""
        return self._hom_index[(i, j)][key]

    def object_index(self, x):
        return self.objects.index(x)

    def compose(self, f, g):
        return self.category.compose(f, g)

    def identity_of(self, i):
        return self.category.identity(self.objects[i])

    @cached_property
    def edge_index(self):
        return next(
            i for i, g in enumerate(self.graphs)
            if not g.vertices and len(g.edges) == 1
        )

    @cached_property
    def corolla_index(self):
        """biarity -> index of the corolla object."""
        table = {}
        for i, g in enumerate(self.graphs):
            if len(g.vertices) == 1 and len(g.edges) == sum(g.vertices[0].biarity()):
                table[g.vertices[0].biarity()] = i
        return table


def build_corpus(generators, max_vertices=3):
    """Close generators under structured subgraphs and boundary corollas.

    Objects are canonical forms, deduplicated up to isomorphism of the
    graphical category (orderings quotiented); each hom-set is
    enumerated on its first read.
    """
    pool = [edge_graph()]
    for g in generators:
        if len(g.vertices) > max_vertices:
            raise GraphcatError("generator exceeds the corpus vertex bound")
        pool.append(g)
        for sub in structured_subgraphs(g):
            pool.append(sub.as_graph)
        pool.append(corolla(len(g.inputs), len(g.outputs)))
    objects = []
    forms = set()
    for g in pool:
        form, _, _ = unordered_canonical_form(g)
        if form not in forms:
            forms.add(form)
            objects.append(canonical_form(g)[0])
    objects.sort(key=lambda g: (len(g.vertices), len(g.edges), repr(g)))
    return Corpus(GRAPHICAL, objects)


def build_level_corpus(generators):
    """Close level graphs under segmentation pieces and elementaries,
    keeping each generator's pieces as its ``segments``."""
    pool = [elementary_edge()]
    cuts = [(lg, *segmentation_pieces(lg)) for lg in generators]
    for lg, pieces, interfaces in cuts:
        pool.append(lg)
        pool.extend(p for p, _ in pieces + interfaces)
    biarities = {v.biarity() for lg in generators for layer in lg.vertex_layers for v in layer}
    pool.extend(elementary_corolla(m, n) for m, n in sorted(biarities))
    index = {}  # equal graphs merge into the first one's index
    for lg in pool:
        index.setdefault(lg, len(index))
    corpus = Corpus(LEVEL, index)
    for lg, pieces, interfaces in cuts:
        corpus.segments[index[lg]] = (
            [(index[p], incl) for p, incl in pieces], [index[p] for p, _ in interfaces]
        )
    return corpus


# ---------------------------------------------------------------------------
# presheaves


class FinitePresheaf:
    """Value and restriction tables over a corpus.

    ``values[i]`` is the tuple of elements at object i.  For the k-th
    morphism f: A_i -> A_j, ``restrictions[(i, j, k)]`` is the tuple whose
    p-th entry is the position in ``values[i]`` of the restriction of
    ``values[j][p]`` along f, as in a presheaf file (DECISIONS.md D10).
    ``nerve`` and ``representable_presheaf`` keep ``OnDemand`` tables by morphism (D13).
    """

    def __init__(self, corpus, values, restrictions, along=None):
        self.corpus = corpus
        self.values = values
        self.restrictions = restrictions
        self._along = along or (
            lambda i, j, m: restrictions[(i, j, corpus.hom_index(i, j, m))]
        )
        self._index = {}

    def value(self, i):
        return self.values[i]

    def positions(self, i):
        return range(len(self.values[i]))

    def position(self, i, x):
        """The position of the element x in ``values[i]``, indexed on first use."""
        if i not in self._index:
            self._index[i] = {y: p for p, y in enumerate(self.values[i])}
        return self._index[i][x]

    def restrict(self, i, j, k, x):
        return self.values[i][self.restrictions[(i, j, k)][self.position(j, x)]]

    def table_along(self, i, j, m):
        """The restriction table along the morphism m: A_i -> A_j."""
        return self._along(i, j, m)

    def restrict_along(self, i, j, m, x):
        return self.values[i][self.table_along(i, j, m)[self.position(j, x)]]

    def check_functorial(self, max_pairs=None):
        """Identities restrict trivially; composites factor."""
        corpus = self.corpus
        for i in range(len(corpus.objects)):
            ident = self.table_along(i, i, corpus.identity_of(i))
            if any(y != p for p, y in enumerate(ident)):
                return False
        count = 0
        for (i, j), fs in corpus.homs.items():
            for kf, f in enumerate(fs):
                along_f = self.restrictions[(i, j, kf)]
                for l in range(len(corpus.objects)):
                    for kg, g in enumerate(corpus.homs[(j, l)]):
                        along_g = self.restrictions[(j, l, kg)]
                        along_fg = self.table_along(i, l, corpus.compose(f, g))
                        for x in self.positions(l):
                            if along_fg[x] != along_f[along_g[x]]:
                                return False
                            count += 1
                            if max_pairs and count >= max_pairs:
                                return True
        return True


def _per_morphism(corpus, table):
    """Tables kept by morphism: ``along(i, j, f)`` is ``table(i, j, f)``, once
    per sort key, and the view's entry (i, j, k) is ``along`` at the k-th map."""
    kept = {}

    def along(i, j, f):
        key = (i, j, f.sort_key())
        if key not in kept:
            kept[key] = table(i, j, f)
        return kept[key]

    def rule(key):
        i, j, k = key
        fs = corpus.homs[(i, j)]
        if k not in range(len(fs)):
            raise KeyError(key)
        return along(i, j, fs[k])

    return OnDemand(lambda: [
        (i, j, k) for (i, j), fs in corpus.homs.items() for k in range(len(fs))
    ], rule), along


def representable_presheaf(corpus, x_index):
    """hom(-, X): restriction is precomposition."""
    values = tuple(corpus.homs[(i, x_index)] for i in range(len(corpus)))

    def table(i, j, f):
        key = corpus.category.composite_key
        return tuple(corpus.key_index(i, x_index, key(f, h)) for h in values[j])

    return FinitePresheaf(corpus, values, *_per_morphism(corpus, table))


representable_level_presheaf = representable_presheaf


# ---------------------------------------------------------------------------
# covers and the Segal condition


@dataclass(frozen=True)
class Cover:
    """The canonical elementary cover of a corpus object.

    ``vertex_entries[v]`` and ``edge_entries[e]`` are (name, object
    index, inclusion morphism); ``connections`` holds one commuting
    triangle per incidence: (edge, vertex, corolla object index,
    inclusion of the edge into that corolla).
    """

    object_index: int
    vertex_entries: tuple
    edge_entries: tuple
    connections: tuple


def elementary_cover(corpus, gi):
    """The elementary cover of object gi, built on first use and then
    kept on the corpus."""
    if gi in corpus._covers:
        return corpus._covers[gi]
    cat = corpus.category
    x, g = corpus.objects[gi], corpus.graphs[gi]
    ei = corpus.edge_index
    at = cat.locate(x)
    edge_entries = tuple(
        (e, ei, cat.edge_inclusion(corpus.objects[ei], x, e, at)) for e in g.edges
    )
    vertex_entries, connections = [], []
    for v in g.vertices:
        ci = corpus.corolla_index[v.biarity()]
        vertex_entries.append((v.name, ci, cat.corolla_inclusion(corpus.objects[ci], x, v, at)))
        # a connection is an edge entry of the corolla's own cover
        links = {ce: conn for ce, _, conn in (
            edge_entries if ci == gi else elementary_cover(corpus, ci).edge_entries
        )}
        cv = corpus.graphs[ci].vertices[0]
        for ends, corolla_ends in ((v.ins, cv.ins), (v.outs, cv.outs)):
            for e, ce in zip(ends, corolla_ends):
                connections.append((e, v.name, ci, links[ce]))
    cover = Cover(gi, tuple(vertex_entries), edge_entries, tuple(connections))
    corpus._covers[gi] = cover
    return cover


def _families(F, parts):
    """The choices of one position per part, at that part's object,
    whose tables give one value under each shared key: ``parts`` lists
    (object index, [(key, table), ...]), and a position x gives each key
    of its part ``table[x]``.  Yields (choice, {key: value}) in order."""
    for choice in itertools.product(*(F.positions(i) for i, _ in parts)):
        values = {}
        if all(
            values.setdefault(key, table[x]) == table[x]
            for (_, checks), x in zip(parts, choice)
            for key, table in checks
        ):
            yield choice, values


def segal_limit(F, gi):
    """Families over the elementary cover agreeing on shared edges: per
    vertex in cover order a position at its corolla, and per edge one at
    the edge object.  Each vertex choice is tried once, so none repeats."""
    corpus = F.corpus
    cover = elementary_cover(corpus, gi)
    ei = corpus.edge_index
    edge_list = [e for e, _, _ in cover.edge_entries]
    if not cover.vertex_entries:
        # a vertexless object is covered by its edges alone
        combos = itertools.product(F.positions(ei), repeat=len(edge_list))
        return tuple(((), combo) for combo in combos)
    # the parts are the vertices, in cover order, and the keys their edges
    parts = {vname: (ci, []) for vname, ci, _ in cover.vertex_entries}
    for e, vname, ci, conn in cover.connections:
        parts[vname][1].append((e, F.table_along(ei, ci, conn)))
    return tuple(
        (choice, tuple(values[e] for e in edge_list))
        for choice, values in _families(F, parts.values())
    )


def segal_map(F, gi):
    """The canonical comparison from F(G) into the cover limit, by position."""
    cover = elementary_cover(F.corpus, gi)
    vtables = [F.table_along(ci, gi, incl) for _, ci, incl in cover.vertex_entries]
    etables = [F.table_along(ci, gi, incl) for _, ci, incl in cover.edge_entries]
    return tuple(
        (tuple(t[x] for t in vtables), tuple(t[x] for t in etables))
        for x in F.positions(gi)
    )


def _bijective_onto(image, limit):
    return len(set(image)) == len(image) and set(image) == set(limit)


def _first_non_segal(F, indices):
    """The first listed object where the comparison is not bijective."""
    for gi in indices:
        if not _bijective_onto(segal_map(F, gi), segal_limit(F, gi)):
            return gi
    return None


def is_segal(F):
    """Bijectivity of the comparison at every corpus object.

    Returns (flag, witness object index or None).
    """
    witness = _first_non_segal(F, range(len(F.corpus)))
    return witness is None, witness


# ---------------------------------------------------------------------------
# nerve and extraction


def nerve(P, corpus):
    """The presheaf of P-decorations of the corpus graphs.

    A decoration is an edge coloring plus a color-compatible operation
    per vertex of the underlying graph; restriction along a morphism
    evaluates the decoration on each vertex's image subgraph, on the
    first read of its table (DECISIONS.md D12).  Per presheaf,
    ``P.evaluate`` runs once per distinct input: the image's edges and
    vertex rows, its boundary order, and the decoration's colors and
    operations on the image (D6, D19).
    """
    values = []
    for g in corpus.graphs:
        entries = []
        for coloring in itertools.product(P.colors, repeat=len(g.edges)):
            cof = dict(zip(g.edges, coloring))
            per_vertex = [
                P.ops(tuple(cof[e] for e in v.ins), tuple(cof[e] for e in v.outs))
                for v in g.vertices
            ]
            entries.extend((coloring, ops) for ops in itertools.product(*per_vertex))
        values.append(tuple(entries))
    values = tuple(values)
    positions = [{x: p for p, x in enumerate(entries)} for entries in values]
    edge_pos = [{e: p for p, e in enumerate(g.edges)} for g in corpus.graphs]
    vertex_pos = [{w: p for p, w in enumerate(g.vertex_names)} for g in corpus.graphs]
    # image, vertex rows and boundary -> {(colors, operations): value}
    memos = {}

    def table(i, j, f):
        f0, subs = corpus.category.images(f)
        plans = []
        for v in corpus.graphs[i].vertices:
            img = subs[v.name].as_graph
            ins = tuple(f0[e] for e in v.ins)
            outs = tuple(f0[e] for e in v.outs)
            plans.append((
                img, ins, outs, memos.setdefault((img.edges, img.vertices, ins, outs), {}),
                [edge_pos[j][e] for e in img.edges],
                [vertex_pos[j][w] for w in img.vertex_names],
            ))
        colour_pos = [edge_pos[j][f0[e]] for e in corpus.graphs[i].edges]
        return tuple(
            _restrict_decoration(P, positions[i], colour_pos, plans, x)
            for x in values[j]
        )

    return FinitePresheaf(corpus, values, *_per_morphism(corpus, table))


def nerve_level(P, corpus):
    """The nerve on a level corpus (the same construction as ``nerve``)."""
    return nerve(P, corpus)


def _restrict_decoration(P, positions, colour_pos, plans, x):
    coloring, ops = x
    new_ops = []
    for img, ins, outs, memo, epos, vpos in plans:
        key = (tuple(coloring[p] for p in epos), tuple(ops[p] for p in vpos))
        if key not in memo:
            colors = dict(zip(img.edges, key[0]))
            labels = dict(zip(img.vertex_names, key[1]))
            memo[key] = P.evaluate(decorated_graph(img, colors, labels, ins, outs))
        new_ops.append(memo[key])
    return positions[(tuple(coloring[p] for p in colour_pos), tuple(new_ops))]


class ExtractedProperad(FiniteProperad):
    """The properad carried by a Segal presheaf.

    Colors are the values on the edge; operations in a profile are the
    corolla values with the prescribed edge restrictions; evaluation
    inverts the Segal comparison and restricts along an active map.
    Decorated graphs may live on any graph isomorphic to a corpus
    object; the decoration is transported along an isomorphism first.
    """

    def __init__(self, F):
        ok, witness = is_segal(F)
        if not ok:
            raise NotSegal(f"presheaf fails the Segal condition at {witness}")
        self.F = F
        self.corpus = F.corpus
        self.colors = tuple(F.value(F.corpus.edge_index))
        self._ops_cache = {}
        self._profiles = {}
        # object -> {Segal comparison of a value: its position}
        self._fingerprints = OnDemand(
            lambda: range(len(self.corpus)),
            lambda gi: {fp: p for p, fp in enumerate(segal_map(F, gi))},
        )
        # unordered form -> (object index, edge renaming, vertex renaming)
        self._by_form = {}
        # decorated graph -> (object index, its isomorphism from the object)
        self._isos = {}
        for gi, obj in enumerate(self.corpus.objects):
            form, edge_map, vertex_map = unordered_canonical_form(obj)
            self._by_form[form] = (gi, edge_map, vertex_map)
        # a corolla value's profile: its restrictions to the corolla's
        # inputs, then to its outputs, along the cover's connections
        ei = self.corpus.edge_index
        for (m, n), ci in self.corpus.corolla_index.items():
            tables = [
                F.table_along(ei, ci, conn)
                for _, _, _, conn in elementary_cover(self.corpus, ci).connections
            ]
            for p, x in enumerate(F.value(ci)):
                if x in self._profiles:
                    ins, outs = self._profiles[x]
                    raise GraphcatError(
                        f"value {x!r} sits at the corollas of biarity "
                        f"{(len(ins), len(outs))} and {(m, n)}, so its profile "
                        "is ambiguous"
                    )
                ys = tuple(self.colors[t[p]] for t in tables)
                self._profiles[x] = (ys[:m], ys[m:])

    def _corolla(self, m, n):
        ci = self.corpus.corolla_index.get((m, n))
        if ci is None:
            raise GraphcatError(f"corpus has no corolla of biarity {(m, n)}")
        return ci, self.corpus.objects[ci]

    def ops(self, ins, outs):
        key = (tuple(ins), tuple(outs))
        if key not in self._ops_cache:
            ci, _ = self._corolla(len(key[0]), len(key[1]))
            self._ops_cache[key] = tuple(
                x for x in self.F.value(ci) if self._profiles[x] == key
            )
        return self._ops_cache[key]

    def op_profile(self, op):
        return self._profiles[op]

    def identity(self, color):
        ci, c = self._corolla(1, 1)
        ei = self.corpus.edge_index
        edge_obj = self.corpus.objects[ei]
        cv = c.vertices[0]
        deg = graphical_morphism(
            c, edge_obj,
            {cv.ins[0]: edge_obj.edges[0], cv.outs[0]: edge_obj.edges[0]},
            {cv.name: edge_subgraph(edge_obj, edge_obj.edges[0])},
        )
        return self.F.restrict_along(ci, ei, deg, color)

    def act(self, op, in_perm, out_perm):
        prof = self.op_profile(op)
        m, n = len(prof[0]), len(prof[1])
        ci, c = self._corolla(m, n)
        cv = c.vertices[0]
        f0 = {cv.ins[i]: cv.ins[in_perm[i]] for i in range(m)}
        f0 |= {cv.outs[j]: cv.outs[out_perm[j]] for j in range(n)}
        perm_map = graphical_morphism(c, c, f0, {cv.name: vertex_corolla(c, cv.name)})
        return self.F.restrict_along(ci, ci, perm_map, op)

    def _iso_from_object(self, g):
        """The corpus object isomorphic to ``g`` and the isomorphism
        object -> g on edges and on vertices, found once per graph."""
        iso = self._isos.get(g)
        if iso is None:
            form, g_edges, g_vertices = unordered_canonical_form(g)
            if form not in self._by_form:
                raise GraphcatError("decorated graph is not isomorphic to a corpus object")
            gi, obj_edges, obj_vertices = self._by_form[form]
            # through the shared form
            edge_back = {c: e for e, c in g_edges.items()}
            vertex_back = {c: v for v, c in g_vertices.items()}
            iso = self._isos[g] = (
                gi,
                {e: edge_back[c] for e, c in obj_edges.items()},
                {w: vertex_back[c] for w, c in obj_vertices.items()},
            )
        return iso

    def _transport(self, dec):
        """Move a decoration onto the corpus representative."""
        g = dec.graph
        if g in self.corpus.objects:
            return self.corpus.object_index(g), dec
        gi, z0, z1 = self._iso_from_object(g)
        obj = self.corpus.objects[gi]
        inv = {img: e for e, img in z0.items()}
        colors = {e: dec.color_of[z0[e]] for e in obj.edges}
        labels = {}
        for w in obj.vertices:
            x_name = z1[w.name]
            xv = g.vertex(x_name)
            op = dec.label_of[x_name]
            in_perm = tuple(xv.ins.index(z0[e]) for e in w.ins)
            out_perm = tuple(xv.outs.index(z0[e]) for e in w.outs)
            labels[w.name] = self.act(op, in_perm, out_perm)
        return gi, decorated_graph(
            obj, colors, labels,
            tuple(inv[e] for e in dec.in_order),
            tuple(inv[e] for e in dec.out_order),
        )

    def evaluate(self, dec):
        if not dec.graph.vertices:
            (e,) = dec.graph.edges
            return self.identity(dec.color_of[e])
        gi, dec = self._transport(dec)
        g = dec.graph
        if not self.check_decoration(dec):
            raise ColorMismatch("decoration does not match vertex profiles")
        # matching profiles put each label at its vertex's corolla
        cover = elementary_cover(self.corpus, gi)
        F = self.F
        fingerprint = (
            tuple(F.position(ci, dec.label_of[v]) for v, ci, _ in cover.vertex_entries),
            tuple(F.position(ei, dec.color_of[e]) for e, ei, _ in cover.edge_entries),
        )
        # a point of the limit, which has a preimage as F is Segal (DECISIONS.md D20)
        target = self._fingerprints[gi][fingerprint]
        m, n = len(dec.in_order), len(dec.out_order)
        ci, c = self._corolla(m, n)
        cv = c.vertices[0]
        f0 = dict(zip(cv.ins, dec.in_order)) | dict(zip(cv.outs, dec.out_order))
        active = graphical_morphism(c, g, f0, {cv.name: whole_subgraph(g)})
        try:
            k = self.corpus.hom_index(ci, gi, active)
        except KeyError:
            raise GraphcatError("no active comparison with the given boundary") from None
        return F.values[ci][F.restrictions[(ci, gi, k)][target]]


def extract_properad(F):
    return ExtractedProperad(F)


# ---------------------------------------------------------------------------
# the segmentation condition on level corpora


def segmentation_local(F):
    """Locality with respect to the segmentation maps.

    The value at a level graph must biject with the families of values
    on its height-1 slices that agree on the height-0 interfaces.  The
    slices are the corpus's ``segments``, kept by ``build_level_corpus``.
    """
    corpus = F.corpus
    objects = corpus.objects
    for li, lg in enumerate(objects):
        if lg.height <= 1:
            continue
        if li not in corpus.segments:
            raise GraphcatError(
                f"no segments kept for object {li}: only build_level_corpus keeps them"
            )
        pieces, face_idx = corpus.segments[li]
        parts = [(pi, []) for pi, _ in pieces]
        # interface i is the key shared by the restriction tables from the
        # top of piece i and from the bottom of piece i+1
        for i, fi in enumerate(face_idx):
            face = objects[fi]
            emap = (tuple((e, e) for e in sorted(face.edge_layers[0])),)
            for (pi, checks), layer in ((parts[i], 1), (parts[i + 1], 0)):
                side = LevelMorphism(face, objects[pi], (layer,), emap, ())
                checks.append((i, F.table_along(fi, pi, side)))
        families = [choice for choice, _ in _families(F, parts)]
        tables = [F.table_along(pi, li, incl) for pi, incl in pieces]
        # the p-th value of F(lg) -> its restrictions to the pieces
        if not _bijective_onto(list(zip(*tables)), families):
            return False, li
    return True, None


def segmentation_check(F):
    """Compare full Segal locality with short cores plus segmentation.

    Returns (full, short_and_segmentation); the two flags agree for
    every functorial presheaf.  Both flags need locality at the short
    objects (height at most one), which is checked once.
    """
    objects = F.corpus.objects
    short = [i for i, lg in enumerate(objects) if lg.height <= 1]
    tall = [i for i, lg in enumerate(objects) if lg.height > 1]
    short_ok = _first_non_segal(F, short) is None
    full = short_ok and _first_non_segal(F, tall) is None
    seg, _ = segmentation_local(F)
    return full, (short_ok and seg)
