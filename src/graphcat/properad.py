"""Set-valued colored properads and the operads governing them.

Operations of the governing operad are indexed ordered graphs: connected
acyclic graphs with total orderings on every vertex boundary and on the
graph boundary, vertices enumerated by an index set, taken up to the
unique order-preserving isomorphism.  Operadic composition is graph
substitution along order-preserving boundary identifications.

Finite properads are presented through an evaluation interface: a
properad knows its colors, its operation sets per profile, identities,
boundary permutations, and how to evaluate a decorated graph.  Free
properads on a graph and function properads on finite sets implement
the interface; the nerve machinery consumes it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .digraph import (
    Graph,
    Vertex,
    cached_property,
    check,
    graph_from_json,
    graph_to_json,
    is_connected,
    multi_substitute,
    reading_order,
    topological_vertices,
)
from .errors import (
    ColorMismatch,
    GraphcatError,
    ProfileMismatch,
    SizeLimit,
)
from .graphical import active_onto_substitution, vertex_map_G


# ---------------------------------------------------------------------------
# indexed ordered graphs


@dataclass(frozen=True)
class ZGraph:
    """A connected ordered graph with indexed vertices, in normal form.

    The vertex tuple order is the indexing; ``in_order`` and
    ``out_order`` are the boundary orderings. ``colors`` assigns a color
    to every edge (aligned with the edge tuple) or is None.
    """

    graph: Graph
    in_order: tuple
    out_order: tuple
    colors: tuple = None

    @property
    def size(self):
        return len(self.graph.vertices)

    def biarity(self):
        return (len(self.in_order), len(self.out_order))

    def vertex_biarities(self):
        return tuple(v.biarity() for v in self.graph.vertices)

    @cached_property
    def color_of(self):
        if self.colors is None:
            return None
        return dict(zip(self.graph.edges, self.colors))

    def profile(self):
        """(input colors, output colors) in boundary order, or arities."""
        if self.colors is None:
            return (len(self.in_order), len(self.out_order))
        cof = self.color_of
        return (
            tuple(cof[e] for e in self.in_order),
            tuple(cof[e] for e in self.out_order),
        )

    def vertex_profile(self, z):
        v = self.graph.vertices[z]
        if self.colors is None:
            return v.biarity()
        cof = self.color_of
        return (tuple(cof[e] for e in v.ins), tuple(cof[e] for e in v.outs))


def zgraph(graph, in_order, out_order, colors=None):
    """Indexed-graph data from outside, checked and then normalized."""
    _check_connected(graph)
    return _normalize(graph, in_order, out_order, colors)


def _check_connected(graph):
    check(graph)
    if not is_connected(graph):
        raise GraphcatError("indexed graphs must be connected")


def _normalize(graph, in_order, out_order, colors=None):
    """The canonical representative of a valid, connected indexed graph.

    The vertex order is preserved (it is the indexing); edges are
    renamed deterministically, so two inputs yield equal values exactly
    when the unique order-preserving comparison is an isomorphism.  The
    graph is not checked again (DECISIONS.md D4); the boundary orders
    and colors are.
    """
    color_map = _check_boundary(graph, in_order, out_order, colors)
    return _numbered(_rows(graph), tuple(in_order), tuple(out_order), color_map)


def _check_boundary(graph, in_order, out_order, colors=None):
    """The colors as a dict (or None), once orders and colors are checked."""
    if sorted(in_order) != sorted(graph.inputs):
        raise ProfileMismatch("in_order must enumerate the graph inputs")
    if sorted(out_order) != sorted(graph.outputs):
        raise ProfileMismatch("out_order must enumerate the graph outputs")
    color_map = dict(colors) if isinstance(colors, dict) else (
        dict(zip(graph.edges, colors)) if colors is not None else None
    )
    if color_map is not None and not graph.edge_set <= color_map.keys():
        raise ColorMismatch("colors must cover every edge")
    return color_map


def _rows(graph):
    """The ``(ins, outs)`` of every vertex, in vertex order."""
    return [(v.ins, v.outs) for v in graph.vertices]


def _numbered(rows, in_keys, out_keys, color_of):
    """The normal form of an indexed graph given as rows of edge keys.

    ``rows[z]`` holds the input and output keys of the vertex at index
    z.  Edges are named in ``reading_order``, with ``in_keys`` as its
    tail for the loose edge of a vertexless graph (DECISIONS.md D15,
    D17).  ``color_of`` maps keys to colors, or is None.
    """
    keys = reading_order(rows, in_keys)
    edges = _names("e", len(keys))
    number = dict(zip(keys, edges))
    vertices = tuple(
        Vertex(name, tuple(map(number.get, ins)), tuple(map(number.get, outs)))
        for name, (ins, outs) in zip(_names("v", len(rows)), rows)
    )
    return ZGraph(
        Graph(edges, vertices),
        tuple(map(number.get, in_keys)),
        tuple(map(number.get, out_keys)),
        None if color_of is None else tuple(map(color_of.get, number)),
    )


@functools.cache
def _names(prefix, n):
    """The names ``prefix1`` .. ``prefix<n>``, made once per length."""
    return tuple(f"{prefix}{k}" for k in range(1, n + 1))


def identity_operation(m, n, in_colors=None, out_colors=None):
    """The identity corolla: both boundary orderings match the vertex's.
    Built once per profile, as the value is frozen (DECISIONS.md D7)."""
    tupled = (None if cs is None else tuple(cs) for cs in (in_colors, out_colors))
    return _identity_operation(m, n, *tupled)


@functools.cache
def _identity_operation(m, n, in_colors, out_colors):
    ins, outs = tuple(range(m)), tuple(range(m, m + n))
    colors = None
    if in_colors is not None or out_colors is not None:
        colors = dict(zip(ins, in_colors)) | dict(zip(outs, out_colors))
    return _numbered([(ins, outs)], ins, outs, colors)


def zgraph_of_graph(g, in_order=None, out_order=None, colors=None):
    """Index a plain ordered graph by its own vertex order."""
    return zgraph(
        g,
        tuple(in_order) if in_order is not None else g.inputs,
        tuple(out_order) if out_order is not None else g.outputs,
        colors,
    )


def prpd_compose(outer, inner):
    """Operadic composition: substitute an operation for every vertex.

    ``inner`` maps each vertex index to an operation whose profile
    matches that vertex; gluing uses the order-preserving boundary
    identifications.  The result is indexed by the concatenation of the
    inner indexings in outer order, and numbered directly in normal
    form: glued edges are keyed by their outer edge, internal ones by
    (index, inner name).  An edge operation merges its vertex's output
    edge into its input edge (DECISIONS.md D15).
    """
    if sorted(inner) != list(range(outer.size)):
        raise ProfileMismatch("inner family must cover every vertex index")
    merged = {}
    for z, v in enumerate(outer.graph.vertices):
        op = inner[z]
        if op.biarity() != v.biarity():
            raise ProfileMismatch(
                f"operation at index {z} has biarity {op.biarity()}, "
                f"vertex needs {v.biarity()}"
            )
        if outer.colors is not None:
            if outer.vertex_profile(z) != op.profile():
                raise ColorMismatch(f"colors disagree at index {z}")
        if not op.size:
            merged[v.outs[0]] = v.ins[0]

    def find(e):
        while e in merged:
            e = merged[e]
        return e

    rows, colors = [], None
    if outer.colors is not None:
        # the profile checks make the colours met at each glued edge agree
        colors = {find(e): c for e, c in zip(outer.graph.edges, outer.colors)}
    for z, v in enumerate(outer.graph.vertices):
        op = inner[z]
        glued = dict(zip(op.in_order, v.ins)) | dict(zip(op.out_order, v.outs))
        key = {x: find(glued[x]) if x in glued else (z, x) for x in op.graph.edges}
        rows.extend((tuple(map(key.get, u.ins)), tuple(map(key.get, u.outs)))
                    for u in op.graph.vertices)
        if colors is not None:
            colors.update(zip(map(key.get, op.graph.edges), op.colors))
    return _numbered(rows, tuple(map(find, outer.in_order)),
                     tuple(map(find, outer.out_order)), colors)


def sigma_action(op, perm=None, in_perm=None, out_perm=None):
    """Reindex vertices and permute the boundary orderings.

    ``perm[z]`` is the old index placed at new index z; ``in_perm`` and
    ``out_perm`` act the same way on the boundary orderings, which must
    stay enumerations of the boundary.
    """
    vertices = op.graph.vertices
    if perm is not None:
        if sorted(perm) != list(range(op.size)):
            raise ProfileMismatch("not a permutation of the index set")
        vertices = [vertices[p] for p in perm]
    in_order = op.in_order
    if in_perm is not None:
        in_order = tuple(op.in_order[in_perm[i]] for i in range(len(in_order)))
        if sorted(in_order) != sorted(op.in_order):
            raise ProfileMismatch("in_order must enumerate the graph inputs")
    out_order = op.out_order
    if out_perm is not None:
        out_order = tuple(op.out_order[out_perm[j]] for j in range(len(out_order)))
        if sorted(out_order) != sorted(op.out_order):
            raise ProfileMismatch("out_order must enumerate the graph outputs")
    rows = [(v.ins, v.outs) for v in vertices]
    return _numbered(rows, in_order, out_order, op.color_of)


# the most vertices a stabilizer search may permute
MAX_STABILIZER_SIZE = 8


def stabilizer(op):
    """All index permutations fixing the operation, by brute force."""
    n = op.size
    if n > MAX_STABILIZER_SIZE:
        raise SizeLimit(f"stabilizer search bound exceeded ({n} > {MAX_STABILIZER_SIZE})")
    profiles = tuple(map(op.vertex_profile, range(n)))
    found = []
    for perm in itertools.permutations(range(n)):
        if tuple(map(profiles.__getitem__, perm)) != profiles:
            continue
        if sigma_action(op, perm) == op:
            found.append(perm)
    return tuple(found)


def suboperad_member(op):
    """Membership flags for the governing operad's suboperads.  A
    connected graph is simply connected exactly when it has one internal
    edge fewer than vertices (DECISIONS.md D16)."""
    g = op.graph
    out = len(op.out_order) >= 1 and all(len(v.outs) >= 1 for v in g.vertices)
    operad = len(op.out_order) == 1 and all(len(v.outs) == 1 for v in g.vertices)
    cat = (
        op.biarity() == (1, 1)
        and all(v.biarity() == (1, 1) for v in g.vertices)
    )
    internal = sum(len(v.outs) for v in g.vertices) - len(op.out_order)
    return {"dioperad": internal == op.size - 1, "out": out, "operad": operad, "cat": cat}


def _matchings(boundaries):
    """Connected acyclic matchings of vertices with colored stubs.

    ``boundaries[z]`` is (input colors, output colors) of vertex z.  An
    output stub (z, k) may be glued to an input stub of another vertex
    with the same color; stubs left unglued become loose ends.  Returns
    the input and output stubs as ((z, k), color) in stub order, and a
    generator of the matchings in a fixed order, each a tuple giving
    every input stub the output stub glued to it, or None.
    A glue that would close a directed cycle is refused as it is made,
    and only matchings whose glues connect every vertex are yielded
    (DECISIONS.md D7).
    """
    stubs_in, stubs_out = [], []
    for z, (ins, outs) in enumerate(boundaries):
        stubs_in.extend(((z, k), c) for k, c in enumerate(ins))
        stubs_out.extend(((z, k), c) for k, c in enumerate(outs))

    def connected(matching):
        # union-find over the glued pairs, by relabelling; no class if empty
        cls = list(range(len(boundaries)))
        for ((t, _), _), so in zip(stubs_in, matching):
            if so is not None:
                cls = [cls[t] if c == cls[so[0]] else c for c in cls]
        return len(set(cls)) == 1

    def match(i, used, reach, acc):
        # reach[z]: the vertices reachable from z along the glues in acc
        if i == len(stubs_in):
            if connected(acc):
                yield acc
            return
        (t, _), color = stubs_in[i]
        yield from match(i + 1, used, reach, acc + (None,))
        for so, so_color in stubs_out:
            if so in used or so_color != color or so[0] in reach[t]:
                continue
            glued = tuple(r | reach[t] if so[0] in r else r for r in reach)
            yield from match(i + 1, used | {so}, glued, acc + (so,))

    reach = tuple(frozenset((z,)) for z in range(len(boundaries)))
    return stubs_in, stubs_out, match(0, frozenset(), reach, ())


def _keyed_matchings(boundaries):
    """Each matching of ``_matchings`` as rows of stub keys: a glued edge
    or a loose output is keyed by its output stub (z, k), a loose input
    by its place among the input stubs (DECISIONS.md D16).  Returns the
    color of every key, and a generator of (rows, in_keys, out_keys)
    with the boundary keys in stub order."""
    stubs_in, stubs_out, matchings = _matchings(boundaries)
    colors = {i: c for i, (_, c) in enumerate(stubs_in)} | dict(stubs_out)
    arities = [len(ins) for ins, _ in boundaries]
    outs = [tuple((z, k) for k in range(len(o))) for z, (_, o) in enumerate(boundaries)]

    def keyed():
        for matching in matchings:
            keys = (i if so is None else so for i, so in enumerate(matching))
            rows = [(tuple(itertools.islice(keys, m)), o) for m, o in zip(arities, outs)]
            glued = set(matching)
            yield (
                rows,
                tuple(i for i, so in enumerate(matching) if so is None),
                tuple(so for so, _ in stubs_out if so not in glued),
            )

    return colors, keyed()


def all_operations(biarities, orderings="canonical"):
    """All operations with the given indexed vertex biarities.

    Enumerates stub matchings (acyclic, connected) and numbers each one
    from its stub keys (``_keyed_matchings``).  Boundary orderings are
    the stub orders, or all of them with ``orderings="all"``; no two
    results are equal (DECISIONS.md D16).
    """
    _, keyed = _keyed_matchings([((None,) * m, (None,) * n) for m, n in biarities])
    results = []
    for rows, in_keys, out_keys in keyed:
        if orderings == "all":
            for ip in itertools.permutations(in_keys):
                for op_ in itertools.permutations(out_keys):
                    results.append(_numbered(rows, ip, op_, None))
        else:
            results.append(_numbered(rows, in_keys, out_keys, None))
    return tuple(results)


# ---------------------------------------------------------------------------
# finite properads


@dataclass(frozen=True)
class DecoratedGraph:
    """A connected graph with edge colors and operation-labeled vertices."""

    graph: Graph
    colors: tuple
    labels: tuple
    in_order: tuple
    out_order: tuple

    @cached_property
    def color_of(self):
        return dict(self.colors)

    @cached_property
    def label_of(self):
        return dict(self.labels)


def decorated_graph(graph, colors, labels, in_order=None, out_order=None):
    return DecoratedGraph(
        graph,
        tuple(sorted(colors.items())),
        tuple(sorted(labels.items())),
        tuple(in_order) if in_order is not None else graph.inputs,
        tuple(out_order) if out_order is not None else graph.outputs,
    )


class FiniteProperad:
    """Interface for finite set-valued colored properads.

    Subclasses provide ``colors``, ``ops(ins, outs)``, ``identity(color)``,
    the boundary action ``act(op, in_perm, out_perm)``, ``op_profile(op)``
    and ``evaluate(dec)`` of decorated graphs (the unbiased composition).
    """

    colors = ()

    def check_decoration(self, dec):
        """Labels match colors at every vertex; an uncolored edge matches none."""
        cof = dec.color_of
        for v in dec.graph.vertices:
            op = dec.label_of[v.name]
            ins, outs = self.op_profile(op)
            if ins != tuple(cof.get(e) for e in v.ins):
                return False
            if outs != tuple(cof.get(e) for e in v.outs):
                return False
        return True

    def check_colors(self, dec):
        """Raise ColorMismatch unless ``check_decoration`` passes and every
        edge has a color; each ``evaluate`` calls this first."""
        if not self.check_decoration(dec):
            raise ColorMismatch("decoration does not match vertex profiles")
        if not dec.graph.edge_set <= dec.color_of.keys():
            raise ColorMismatch("colors must cover every edge")


class EndProperad(FiniteProperad):
    """Functions between products of finite sets, composed by flow.

    An operation in profile (c1..cm; d1..dn) is a function from the
    product of the input sets to the product of the output sets, stored
    as a tuple of output tuples indexed by the ranked input tuples.
    """

    def __init__(self, sets):
        self.sets = {c: tuple(vals) for c, vals in sets.items()}
        self.colors = tuple(sorted(self.sets))

    def _inputs(self, ins):
        return list(itertools.product(*(self.sets[c] for c in ins)))

    def ops(self, ins, outs):
        ins, outs = tuple(ins), tuple(outs)
        domain = self._inputs(ins)
        codomain = self._inputs(outs)
        out = []
        for values in itertools.product(codomain, repeat=len(domain)):
            out.append(("fn", ins, outs, tuple(values)))
        return tuple(out)

    def identity(self, color):
        vals = self.sets[color]
        return ("fn", (color,), (color,), tuple((v,) for v in vals))

    def op_profile(self, op):
        return op[1], op[2]

    def apply(self, op, args):
        _, ins, outs, table = op
        domain = self._inputs(ins)
        return table[domain.index(tuple(args))]

    def act(self, op, in_perm, out_perm):
        _, ins, outs, table = op
        new_ins = tuple(ins[in_perm[i]] for i in range(len(ins)))
        new_outs = tuple(outs[out_perm[j]] for j in range(len(outs)))
        inv_in = {in_perm[i]: i for i in range(len(ins))}
        domain_new = self._inputs(new_ins)
        values = []
        for args in domain_new:
            old_args = tuple(args[inv_in[k]] for k in range(len(ins)))
            old_out = self.apply(op, old_args)
            values.append(tuple(old_out[out_perm[j]] for j in range(len(outs))))
        return ("fn", new_ins, new_outs, tuple(values))

    def evaluate(self, dec):
        self.check_colors(dec)
        cof = dec.color_of
        ins = tuple(cof[e] for e in dec.in_order)
        outs = tuple(cof[e] for e in dec.out_order)
        order = topological_vertices(dec.graph)
        values = []
        for args in self._inputs(ins):
            state = dict(zip(dec.in_order, args))
            for name in order:
                v = dec.graph.vertex(name)
                res = self.apply(
                    dec.label_of[name], [state[e] for e in v.ins]
                )
                state.update(zip(v.outs, res))
            values.append(tuple(state[e] for e in dec.out_order))
        return ("fn", ins, outs, tuple(values))


def end_properad(sets):
    """The properad of functions on an assignment color -> finite set."""
    prepared = {}
    for c, val in sets.items():
        prepared[c] = tuple(range(val)) if isinstance(val, int) else tuple(val)
    return EndProperad(prepared)


def terminal_properad(colors=("*",)):
    return end_properad({c: 1 for c in colors})


class FreeProperad(FiniteProperad):
    """The properad generated by the vertices of a graph, truncated.

    Colors are the edges of the generating graph; operations are
    strict-isomorphism classes of connected ordered graphs with edges
    colored by generator edges and vertices labeled by generators,
    enumerated up to a vertex bound.  Elements are ZGraph-normal forms
    whose vertex index order is part of the representative, quotiented
    by reindexing (stored with the lexicographically least reindexing).
    """

    def __init__(self, generator, vertex_bound=4):
        self.generator = check(generator)
        self.vertex_bound = vertex_bound
        self.colors = tuple(generator.edges)

    def _element(self, rows, colors, labels, in_order, out_order):
        """Normal form: minimize the indexed normal form over reindexings.

        ``rows`` and ``labels`` give each vertex's edge keys and generator,
        ``colors`` maps keys to colors.  Each reindexing is numbered from
        its rows; the numbering ignores how keys are named, so any
        injective renaming of the keys gives the same element
        (DECISIONS.md D17)."""
        best = None
        for perm in itertools.permutations(range(len(rows))):
            cand = _numbered([rows[k] for k in perm], in_order, out_order, colors)
            key = (_zkey(cand), tuple(labels[k] for k in perm))
            if best is None or key < best[0]:
                best = (key, cand)
        (_, labs), cand = best
        return ("el", cand, labs)

    def op_profile(self, op):
        _, zg, labels = op
        return zg.profile()

    def generator_element(self, vname):
        v = self.generator.vertex(vname)
        colors = {e: e for e in itertools.chain(v.ins, v.outs)}
        return self._element([(v.ins, v.outs)], colors, (vname,), v.ins, v.outs)

    def identity(self, color):
        return self._element([], {0: color}, (), (0,), (0,))

    def subgraph_element(self, sub):
        """The element carried by a connected open subgraph."""
        g = sub.as_graph
        return self._element(
            _rows(g), {e: e for e in g.edges}, g.vertex_names, g.inputs, g.outputs
        )

    @cached_property
    def _pool(self):
        """All elements with canonical boundary orders, up to the bound."""
        found = {}
        for c in self.colors:
            el = self.identity(c)
            found.setdefault(el[1].profile(), set()).add(el)
        gens = self.generator.vertex_names
        for k in range(1, self.vertex_bound + 1):
            for combo in itertools.combinations_with_replacement(gens, k):
                colors, keyed = _keyed_matchings(
                    [(v.ins, v.outs) for v in map(self.generator.vertex, combo)]
                )
                for rows, in_keys, out_keys in keyed:
                    el = self._element(rows, colors, combo, in_keys, out_keys)
                    found.setdefault(el[1].profile(), set()).add(el)
        return found

    def ops(self, ins, outs):
        """Elements in an exact ordered profile, up to the vertex bound: the
        pool's elements of each profile with the same colors, reordered to it."""
        ins, outs = tuple(ins), tuple(outs)
        out = set()
        for profile, els in self._pool.items():
            pins, pouts = profile
            if sorted(pins) != sorted(ins) or sorted(pouts) != sorted(outs):
                continue
            for el in els:
                for ip in _color_permutations(pins, ins):
                    for op_ in _color_permutations(pouts, outs):
                        out.add(self.act(el, ip, op_))
        return tuple(sorted(out, key=repr))

    def nonempty_profiles(self, min_vertices=0):
        """Unordered profiles with at least one element within the bound.

        ``min_vertices=1`` skips the identity elements carried by single
        edges, which occupy the profiles (c; c).
        """
        out = set()
        for (pins, pouts), els in self._pool.items():
            if any(el[1].size >= min_vertices for el in els):
                out.add((tuple(sorted(pins)), tuple(sorted(pouts))))
        return out

    def act(self, op, in_perm, out_perm):
        _, zg, labels = op
        zg = sigma_action(zg, None, in_perm, out_perm)
        return self._element(_rows(zg.graph), zg.color_of, labels, zg.in_order, zg.out_order)

    def evaluate(self, dec):
        """Grafting: compose the labels' indexed graphs into the decorated
        graph, indexed in its vertex order, and renormalize.  The graph is
        checked like ``zgraph``'s but not numbered (DECISIONS.md D17, D19)."""
        self.check_colors(dec)
        g = dec.graph
        _check_connected(g)
        colors = _check_boundary(g, dec.in_order, dec.out_order, dec.color_of)
        outer = ZGraph(g, dec.in_order, dec.out_order, tuple(map(colors.get, g.edges)))
        elements = [dec.label_of[name] for name in dec.graph.vertex_names]
        zg = prpd_compose(outer, {z: el[1] for z, el in enumerate(elements)})
        labels = tuple(lab for el in elements for lab in el[2])
        return self._element(_rows(zg.graph), zg.color_of, labels, zg.in_order, zg.out_order)


def _zkey(zg):
    """A deterministic comparison key for normalized indexed graphs."""
    return (
        zg.graph.edges,
        tuple((v.name, v.ins, v.outs) for v in zg.graph.vertices),
        zg.in_order,
        zg.out_order,
        zg.colors if zg.colors is not None else (),
    )


def _color_permutations(src, dst):
    """Permutations p with src[p[i]] == dst[i] for all i; src and dst
    list the same colors, each as often."""
    n = len(src)
    positions = {}
    for i, c in enumerate(src):
        positions.setdefault(c, []).append(i)
    slots = [positions[c] for c in dst]
    for choice in itertools.product(*slots):
        if len(set(choice)) == n:
            yield tuple(choice)


def free_properad(generator, vertex_bound=4):
    """The truncated properad generated by the vertices of a graph."""
    return FreeProperad(generator, vertex_bound)


# ---------------------------------------------------------------------------
# vertex lifts of maps between free properads


@dataclass(frozen=True)
class EtaleMap:
    """A levelwise-exact naive map of graphs: per-vertex boundaries map
    bijectively."""

    source: Graph
    target: Graph
    edge_map: tuple
    vertex_map: tuple
    mono: bool

    @cached_property
    def edges(self):
        return dict(self.edge_map)

    @cached_property
    def vertices(self):
        return dict(self.vertex_map)


def vertex_lift(source, target, edge_map, images):
    """Lift a free-properad map to an etale map of graphs, if possible.

    ``edge_map`` is the color map E(source) -> E(target); ``images``
    sends each generator of the source to an element of the free
    properad on the target.  The lift exists exactly when every image
    is a single-vertex element; the result is flagged mono when the
    color map is injective.
    """
    vmap = {}
    for v in source.vertices:
        el = images[v.name]
        _, zg, labels = el
        expected_ins = tuple(edge_map[e] for e in v.ins)
        expected_outs = tuple(edge_map[e] for e in v.outs)
        pins, pouts = zg.profile()
        if sorted(pins) != sorted(expected_ins) or sorted(pouts) != sorted(expected_outs):
            raise ProfileMismatch(f"image of {v.name} has the wrong profile")
        if zg.size != 1:
            return None
        vmap[v.name] = labels[0]
    for v in source.vertices:
        w = target.vertex(vmap[v.name])
        if sorted(edge_map[e] for e in v.ins) != sorted(w.ins):
            return None
        if sorted(edge_map[e] for e in v.outs) != sorted(w.outs):
            return None
    mono = len(set(edge_map.values())) == len(edge_map)
    return EtaleMap(
        source,
        target,
        tuple(sorted(edge_map.items())),
        tuple(sorted(vmap.items())),
        mono,
    )


# ---------------------------------------------------------------------------
# the functor to the governing operad


@dataclass(frozen=True)
class OperadArrow:
    """A morphism in the category of operators of the governing operad.

    ``alpha[b]`` is the target index receiving source index b (None for
    the basepoint); ``ops[a]`` is the operation filling target index a,
    indexed by the sorted fiber of a.
    """

    source: tuple
    target: tuple
    alpha: tuple
    ops: tuple

    def fiber(self, a):
        return tuple(b for b, img in enumerate(self.alpha) if img == a)

    def is_active(self):
        return all(img is not None for img in self.alpha)


def identity_arrow(profile):
    return OperadArrow(
        tuple(profile),
        tuple(profile),
        tuple(range(len(profile))),
        tuple(identity_operation(m, n) for m, n in profile),
    )


def theta_object(g):
    """The profile of a graph: its vertex biarities in index order."""
    return tuple(v.biarity() for v in g.vertices)


def theta(f):
    """The operad morphism induced by a graphical map f: H -> G.

    Contravariant: the result goes from the profile of G to the profile
    of H.  Its pointed map is the vertex map; the operation at a target
    index is the image subgraph with inherited orderings, indexed by
    the fiber.
    """
    H, G = f.source, f.target
    vm = vertex_map_G(f)
    hindex = {name: b for b, name in enumerate(H.vertex_names)}
    gindex = {name: a for a, name in enumerate(G.vertex_names)}
    alpha = tuple(
        hindex[vm(name)] if vm(name) is not None else None
        for name in G.vertex_names
    )
    ops = []
    for b, wname in enumerate(H.vertex_names):
        sub = f.f1v[wname]
        subg = sub.as_graph
        w = H.vertex(wname)
        in_order = tuple(f.f0[e] for e in w.ins)
        out_order = tuple(f.f0[e] for e in w.outs)
        ops.append(_normalize(subg, in_order, out_order))
    return OperadArrow(theta_object(G), theta_object(H), alpha, tuple(ops))


def compose_arrows(t1, t2):
    """The composite of t1: x -> y followed by t2: y -> z."""
    if t1.target != t2.source:
        raise GraphcatError("arrows are not composable")
    alpha = tuple(
        (t2.alpha[b] if b is not None else None) for b in t1.alpha
    )
    ops = []
    for c in range(len(t2.target)):
        outer = t2.ops[c]
        fiber2 = t2.fiber(c)
        inner = {}
        flat = []
        for pos, b in enumerate(fiber2):
            inner[pos] = t1.ops[b]
            flat.extend(t1.fiber(b))
        composite = prpd_compose(outer, inner)
        target_order = sorted(flat)
        perm = tuple(flat.index(x) for x in target_order)
        ops.append(sigma_action(composite, perm))
    return OperadArrow(t1.source, t2.target, alpha, tuple(ops))


def cartesian_lift_active(g, arrow):
    """Lift an active operad morphism into the profile of ``g``.

    ``arrow`` must target theta_object(g) and be exhibited by a family
    of operations with biarities matching the vertices of g.  The lift
    is the graphical map from g to the substitution of the family into
    g, sending each vertex to its inserted operation; applying theta
    recovers the arrow.
    """
    if arrow.target != theta_object(g):
        raise ProfileMismatch("arrow does not target the profile of the graph")
    if not arrow.is_active():
        raise ProfileMismatch("arrow must be active")
    assignment = {}
    for a, vname in enumerate(g.vertex_names):
        op = arrow.ops[a]
        v = g.vertex(vname)
        if op.biarity() != v.biarity():
            raise ProfileMismatch(f"operation at {vname} has wrong biarity")
        assignment[vname] = (op.graph, zip(v.ins, op.in_order), zip(v.outs, op.out_order))
    result, corr = multi_substitute(g, assignment)
    # order result vertices by the arrow's source indexing
    placed = []
    for a, vname in enumerate(g.vertex_names):
        fiber = arrow.fiber(a)
        for pos, b in enumerate(fiber):
            inner_name = arrow.ops[a].graph.vertices[pos].name
            placed.append((b, corr.inner_vertex[(vname, inner_name)]))
    placed.sort()
    by_name = {v.name: v for v in result.vertices}
    target = Graph(result.edges, tuple(by_name[name] for _, name in placed))
    return active_onto_substitution(
        g, target, corr, {name: spec[0] for name, spec in assignment.items()}
    )


# ---------------------------------------------------------------------------
# serialization


def operation_to_json(z):
    out = graph_to_json(z.graph)
    out["in_order"] = list(z.in_order)
    out["out_order"] = list(z.out_order)
    if z.colors is not None:
        out["colors"] = dict(zip(z.graph.edges, z.colors))
    return out


def operation_from_json(data):
    g = graph_from_json(data)
    colors = data.get("colors")
    return zgraph(
        g,
        tuple(str(e) for e in data["in_order"]),
        tuple(str(e) for e in data["out_order"]),
        {str(k): v for k, v in colors.items()} if colors else None,
    )


def decorated_to_json(P, dec):
    """Decorated-graph format: the graph plus colors and label maps.

    Labels are referenced by their position in the operation set of
    their profile, which is deterministic for a fixed properad.
    """
    labels = {}
    for v in dec.graph.vertices:
        op = dec.label_of[v.name]
        ins, outs = P.op_profile(op)
        labels[v.name] = {
            "in": list(ins),
            "out": list(outs),
            "index": P.ops(ins, outs).index(op),
        }
    data = graph_to_json(dec.graph)
    data["colors"] = dict(dec.colors)
    data["labels"] = labels
    data["in_order"] = list(dec.in_order)
    data["out_order"] = list(dec.out_order)
    return data


def decorated_from_json(P, data):
    g = graph_from_json(data)
    labels = {}
    for name, spec in data["labels"].items():
        ops = P.ops(tuple(spec["in"]), tuple(spec["out"]))
        labels[str(name)] = ops[spec["index"]]
    return decorated_graph(
        g,
        {str(k): v for k, v in data["colors"].items()},
        labels,
        tuple(str(e) for e in data["in_order"]),
        tuple(str(e) for e in data["out_order"]),
    )
