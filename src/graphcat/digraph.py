"""Finite directed acyclic graphs with loose ends.

A graph is a finite set of edges together with vertices carrying ordered
lists of input and output edges.  Edges need not be attached to a vertex
on either side; the unattached sides form the inputs and outputs of the
graph itself.  No edge may be the input (or output) of two different
vertices, and the vertex-level relation "some output of v is an input of
w" must be acyclic.

This module provides the subgraph calculus (open subgraphs, convexity,
structured subgraphs, the partial join), graph substitution, and
canonical forms deciding strict isomorphism of ordered graphs and
isomorphism with the orderings forgotten.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    ConnectivityError,
    GraphcatError,
    OpennessViolation,
    ProfileMismatch,
    SizeLimit,
    Violation,
)


class cached_property:
    """``functools.cached_property`` without its lock: the first access
    stores the value in the instance ``__dict__`` (frozen dataclasses
    too), where later accesses find it."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        instance.__dict__[self.name] = value = self.func(instance)
        return value


@dataclass(frozen=True)
class Vertex:
    """A vertex with ordered input and output edge lists."""

    name: str
    ins: tuple
    outs: tuple

    def biarity(self):
        return (len(self.ins), len(self.outs))


@dataclass(frozen=True)
class Graph:
    """An ordered directed graph with loose ends.

    ``edges`` fixes a reference order on edge identifiers; each vertex
    carries its own in/out orderings.  Values are immutable; all
    operations in this module are pure.
    """

    edges: tuple
    vertices: tuple

    @cached_property
    def edge_set(self):
        return frozenset(self.edges)

    @cached_property
    def vertex_names(self):
        return tuple(v.name for v in self.vertices)

    @cached_property
    def vertex_by_name(self):
        return {v.name: v for v in self.vertices}

    @cached_property
    def in_vertex(self):
        """edge -> name of the vertex having it as an input, if any."""
        table = {}
        for v in self.vertices:
            for e in v.ins:
                table[e] = v.name
        return table

    @cached_property
    def out_vertex(self):
        """edge -> name of the vertex having it as an output, if any."""
        table = {}
        for v in self.vertices:
            for e in v.outs:
                table[e] = v.name
        return table

    @cached_property
    def inputs(self):
        """Edges that are not the output of any vertex."""
        return tuple(e for e in self.edges if e not in self.out_vertex)

    @cached_property
    def outputs(self):
        """Edges that are not the input of any vertex."""
        return tuple(e for e in self.edges if e not in self.in_vertex)

    def vertex(self, name):
        return self.vertex_by_name[name]

    def __repr__(self):
        vs = ", ".join(
            f"{v.name}:{list(v.ins)}->{list(v.outs)}" for v in self.vertices
        )
        return f"Graph(edges={list(self.edges)}, vertices=[{vs}])"


def graph(edges, vertices):
    """Build a Graph from edge ids and (name, ins, outs) triples."""
    vs = []
    for item in vertices:
        if isinstance(item, Vertex):
            vs.append(item)
        else:
            name, ins, outs = item
            vs.append(Vertex(str(name), tuple(ins), tuple(outs)))
    return Graph(tuple(edges), tuple(vs))


def edge_graph(name="e"):
    """The graph with a single loose edge and no vertices."""
    return Graph((name,), ())


def corolla(m, n, name="v", prefix=""):
    """The one-vertex graph with m inputs and n outputs."""
    ins = tuple(f"{prefix}i{k}" for k in range(1, m + 1))
    outs = tuple(f"{prefix}o{k}" for k in range(1, n + 1))
    return Graph(ins + outs, (Vertex(name, ins, outs),))


def linear_graph(k):
    """A chain of k vertices, each with one input and one output."""
    edges = tuple(f"e{i}" for i in range(k + 1))
    vs = tuple(
        Vertex(f"v{i}", (f"e{i-1}",), (f"e{i}",)) for i in range(1, k + 1)
    )
    return Graph(edges, vs)


# ---------------------------------------------------------------------------
# validation


def repeated(names):
    """The names listed more than once, sorted: the ``where`` of a
    duplicate-name violation."""
    return tuple(sorted({x for x in names if names.count(x) > 1}, key=str))


def validate(g):
    """Check the graph invariants; return a Violation or None.

    The first violated invariant is reported: unknown or duplicated
    identifiers, an edge used twice as input or twice as output
    (MonoViolation), or a directed cycle among vertices (CycleViolation).
    """
    if len(set(g.edges)) != len(g.edges):
        return Violation(
            "DuplicateEdge", "edge list contains duplicates", repeated(g.edges)
        )
    names = [v.name for v in g.vertices]
    if len(set(names)) != len(names):
        return Violation(
            "DuplicateVertex", "vertex names are not distinct", repeated(names)
        )
    seen_in, seen_out = {}, {}
    for v in g.vertices:
        for side, listed in (("in", v.ins), ("out", v.outs)):
            if len(set(listed)) != len(listed):
                return Violation(
                    "DuplicateEdge",
                    f"duplicate edge in {side}({v.name})",
                    (v.name,),
                )
            for e in listed:
                if e not in g.edge_set:
                    return Violation(
                        "UnknownEdge", f"{e} in {side}({v.name})", (v.name, e)
                    )
        for e in v.ins:
            if e in seen_in:
                return Violation(
                    "MonoViolation",
                    f"edge {e} is an input of both {seen_in[e]} and {v.name}",
                    (e,),
                )
            seen_in[e] = v.name
        for e in v.outs:
            if e in seen_out:
                return Violation(
                    "MonoViolation",
                    f"edge {e} is an output of both {seen_out[e]} and {v.name}",
                    (e,),
                )
            seen_out[e] = v.name
    cycle = _find_cycle(g)
    if cycle is not None:
        return Violation(
            "CycleViolation", f"directed cycle through {cycle}", tuple(cycle)
        )
    return None


def check(g):
    """Raise GraphcatError if ``g`` is not a valid graph."""
    report = validate(g)
    if report is not None:
        raise GraphcatError(str(report))
    return g


def _successors(g, vname):
    found = []
    for e in g.vertex(vname).outs:
        w = g.in_vertex.get(e)
        if w is not None:
            found.append(w)
    return found


def _find_cycle(g):
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v.name: WHITE for v in g.vertices}
    for start in g.vertex_names:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(_successors(g, start)))]
        color[start] = GRAY
        trail = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == GRAY:
                    return trail[trail.index(w):] if w in trail else [w]
                if color[w] == WHITE:
                    color[w] = GRAY
                    trail.append(w)
                    stack.append((w, iter(_successors(g, w))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                trail.pop()
                stack.pop()
    return None


def boundary(g):
    """Input and output edges of the graph, in edge-list order."""
    return g.inputs, g.outputs


def topological_vertices(g):
    """Vertex names in an order compatible with the direction of edges."""
    indeg = {v.name: 0 for v in g.vertices}
    for v in g.vertices:
        for e in v.ins:
            if e in g.out_vertex:
                indeg[v.name] += 1
    ready = [v.name for v in g.vertices if indeg[v.name] == 0]
    order = []
    while ready:
        name = ready.pop(0)
        order.append(name)
        for w in _successors(g, name):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(order) != len(g.vertices):
        raise GraphcatError("graph has a directed cycle")
    return order


# ---------------------------------------------------------------------------
# connectivity


def _walk(g, members):
    """The member vertices reached from the first member through edges
    between members, as dict keys in the order reached; they are all the
    members exactly when the open subgraph they span is connected."""
    start = next(iter(members))
    seen, stack = {start: None}, [start]
    while stack:
        v = g.vertex(stack.pop())
        for w in itertools.chain(
            map(g.in_vertex.get, v.outs), map(g.out_vertex.get, v.ins)
        ):
            if w in members and w not in seen:
                seen[w] = None
                stack.append(w)
    return seen


def _spanning_walk(g):
    """``_walk`` from g's first vertex, or None unless it reaches every
    vertex and every edge meets one: g is connected exactly when not None."""
    order = _walk(g, g.vertex_by_name)
    attached = g.in_vertex.keys() | g.out_vertex.keys()
    if len(order) < len(g.vertices) or len(attached) < len(g.edges):
        return None
    return order


def is_connected(g):
    if not g.vertices:
        return len(g.edges) == 1
    return _spanning_walk(g) is not None


def connected_components(g):
    """Split into components; returns (component, embedding) pairs.

    Components come in the order of their first edge, edgeless ones
    last.  The embedding maps component edge/vertex names to the
    parent's (the identity on names, recorded for uniformity).
    """
    # the walks from the first vertex not yet reached, then the loose edges
    parts, left = [], dict.fromkeys(g.vertex_names)
    while left:
        members = _walk(g, left)
        parts.append(open_subgraph(g, members))
        left = dict.fromkeys(v for v in left if v not in members)
    attached = g.in_vertex.keys() | g.out_vertex.keys()
    parts += [open_subgraph(g, (), (e,)) for e in g.edges if e not in attached]
    first = {e: i for i, e in enumerate(g.edges)}
    parts.sort(key=lambda h: min(map(first.get, h.edge_names), default=len(first)))
    graphs = [h.as_graph for h in parts]
    return [(c, {x: x for x in c.edges + c.vertex_names}) for c in graphs]


def betti_number(g):
    """First Betti number of the underlying undirected incidence structure."""
    incidences = sum(len(v.ins) + len(v.outs) for v in g.vertices)
    atoms = len(g.edges) + len(g.vertices)
    return incidences - atoms + len(connected_components(g)) if atoms else 0


def is_simply_connected(g):
    return is_connected(g) and betti_number(g) == 0


# ---------------------------------------------------------------------------
# subgraphs


@dataclass(frozen=True)
class OpenSubgraph:
    """A subset of edges and vertices inheriting full incidence.

    Openness: every edge incident to a member vertex is itself a member.
    """

    parent: Graph
    edge_names: frozenset
    vertex_names_set: frozenset

    def is_open(self):
        if not self.vertex_names_set <= self.parent.vertex_by_name.keys():
            return False
        for name in self.vertex_names_set:
            v = self.parent.vertex(name)
            for e in itertools.chain(v.ins, v.outs):
                if e not in self.edge_names:
                    return False
        return self.edge_names <= self.parent.edge_set

    @cached_property
    def as_graph(self):
        """The subgraph as a Graph, inheriting the parent's orderings."""
        edges = tuple(e for e in self.parent.edges if e in self.edge_names)
        vs = tuple(
            v for v in self.parent.vertices if v.name in self.vertex_names_set
        )
        return Graph(edges, vs)

    def key(self):
        return (tuple(sorted(self.edge_names)), tuple(sorted(self.vertex_names_set)))


def open_subgraph(parent, vertices=(), extra_edges=()):
    """The open subgraph spanned by ``vertices`` plus any extra loose edges."""
    vset = frozenset(vertices)
    eset = set(extra_edges)
    for name in vset:
        v = parent.vertex(name)
        eset.update(v.ins)
        eset.update(v.outs)
    return OpenSubgraph(parent, frozenset(eset), vset)


def open_intersection(h1, h2):
    if h1.parent is not h2.parent and h1.parent != h2.parent:
        raise GraphcatError("subgraphs of different parents")
    return OpenSubgraph(
        h1.parent,
        h1.edge_names & h2.edge_names,
        h1.vertex_names_set & h2.vertex_names_set,
    )


def open_union(h1, h2):
    if h1.parent is not h2.parent and h1.parent != h2.parent:
        raise GraphcatError("subgraphs of different parents")
    return OpenSubgraph(
        h1.parent,
        h1.edge_names | h2.edge_names,
        h1.vertex_names_set | h2.vertex_names_set,
    )


def is_convex_open(sub):
    """Is the open subgraph connected and closed under directed paths?"""
    if not sub.is_open():
        raise OpennessViolation(
            "subset is not open: missing edges incident to member vertices"
        )
    return (
        is_connected(sub.as_graph)
        and path_reentry(sub.parent, sub.vertex_names_set) is None
    )


def path_reentry(parent, members):
    """A member vertex that a directed path re-enters after leaving the
    vertex set ``members``, or None when the set is closed under
    directed paths.

    Starting from each member vertex in the parent's order, follow
    directed paths through non-member vertices only; the first member
    such a path reaches is returned.
    """
    outside_reachable = set()
    frontier = []
    for name in parent.vertex_names:
        if name not in members:
            continue
        for w in _successors(parent, name):
            if w not in members and w not in outside_reachable:
                outside_reachable.add(w)
                frontier.append(w)
    while frontier:
        u = frontier.pop()
        for w in _successors(parent, u):
            if w in members:
                return w
            if w not in outside_reachable:
                outside_reachable.add(w)
                frontier.append(w)
    return None


class StructuredSubgraph(OpenSubgraph):
    """A connected, convex open subgraph of a connected acyclic graph.

    Exactly these subgraphs arise from collapsing a vertex via graph
    substitution, so each admits substitution data exhibiting the parent
    as a substitution into a smaller graph (see ``subgraph_witness``).
    """

    @cached_property
    def inputs(self):
        return self._boundary(self.parent.out_vertex)

    @cached_property
    def outputs(self):
        return self._boundary(self.parent.in_vertex)

    def _boundary(self, end):
        """Member edges, in parent order, whose ``end`` vertex is no member."""
        return tuple(
            e for e in self.parent.edges
            if e in self.edge_names and end.get(e) not in self.vertex_names_set
        )

    @cached_property
    def internal_edges(self):
        """The edges with both ends at member vertices."""
        return self.edge_names.difference(self.inputs, self.outputs)

    def is_edge(self):
        return not self.vertex_names_set

    def is_corolla(self):
        return len(self.vertex_names_set) == 1

    def __le__(self, other):
        return (
            self.edge_names <= other.edge_names
            and self.vertex_names_set <= other.vertex_names_set
        )


def edge_subgraph(parent, e):
    return StructuredSubgraph(parent, frozenset((e,)), frozenset())


def vertex_corolla(parent, name):
    v = parent.vertex(name)
    return StructuredSubgraph(
        parent, frozenset(itertools.chain(v.ins, v.outs)), frozenset((name,))
    )


def whole_subgraph(parent):
    return StructuredSubgraph(
        parent, parent.edge_set, frozenset(parent.vertex_names)
    )


def structured_subgraphs(g, max_vertices=16):
    """All structured subgraphs of a connected graph, in a stable order.

    Single edges come first (in edge order), then vertex-spanned
    subgraphs by size and name.  Every subgraph with at least one vertex
    is spanned by its vertex set, so enumeration ranges over connected,
    convex vertex subsets.  Each subgraph comes with its inputs and
    outputs, read off its member vertices' edges and listed in parent
    edge order as ``_boundary`` lists them (DECISIONS.md D18).
    """
    if not is_connected(g):
        raise ConnectivityError("structured subgraphs require a connected parent")
    if len(g.vertices) > max_vertices:
        raise SizeLimit(f"too many vertices ({len(g.vertices)} > {max_vertices})")
    found = [edge_subgraph(g, e) for e in g.edges]
    for sub, e in zip(found, g.edges):
        sub.__dict__.update(inputs=(e,), outputs=(e,))
    pos = {e: i for i, e in enumerate(g.edges)}
    names = g.vertex_names
    spanned = []
    for r in range(1, len(names) + 1):
        for combo in itertools.combinations(names, r):
            members = frozenset(combo)
            if len(_walk(g, members)) < r or path_reentry(g, members) is not None:
                continue
            vs = [g.vertex(name) for name in combo]
            ins = [e for v in vs for e in v.ins if g.out_vertex.get(e) not in members]
            outs = [e for v in vs for e in v.outs if g.in_vertex.get(e) not in members]
            sub = StructuredSubgraph(g, open_subgraph(g, combo).edge_names, members)
            sub.__dict__["inputs"] = tuple(sorted(ins, key=pos.get))
            sub.__dict__["outputs"] = tuple(sorted(outs, key=pos.get))
            spanned.append(sub)
    spanned.sort(key=lambda s: (len(s.vertex_names_set), sorted(s.vertex_names_set)))
    return tuple(found + spanned)


def tilde_union(h1, h2):
    """Join of structured subgraphs when the plain union is structured.

    Returns None when the union is not connected-convex ("does not
    exist"); when it exists it is the least upper bound under inclusion.
    """
    union = open_union(h1, h2)
    if not is_convex_open(union):
        return None
    return StructuredSubgraph(union.parent, union.edge_names, union.vertex_names_set)


# ---------------------------------------------------------------------------
# substitution


@dataclass(frozen=True)
class SubstitutionData:
    """Data for substituting ``inner`` at ``vertex`` of ``outer``.

    ``bij_in`` maps in(vertex) bijectively onto the inputs of ``inner``,
    and ``bij_out`` maps out(vertex) onto its outputs.
    """

    outer: Graph
    inner: Graph
    vertex: str
    bij_in: tuple
    bij_out: tuple


def substitution_data(outer, inner, vertex, bij_in=None, bij_out=None):
    """Build SubstitutionData; default bijections pair edges by position."""
    v = outer.vertex(vertex)
    if bij_in is None:
        bij_in = tuple(zip(v.ins, inner.inputs))
    else:
        bij_in = tuple(sorted(bij_in.items()) if isinstance(bij_in, dict) else bij_in)
    if bij_out is None:
        bij_out = tuple(zip(v.outs, inner.outputs))
    else:
        bij_out = tuple(sorted(bij_out.items()) if isinstance(bij_out, dict) else bij_out)
    return SubstitutionData(outer, inner, vertex, bij_in, bij_out)


@dataclass
class Correspondence:
    """Tracks where edges and vertices land after substitution.

    ``outer_edge`` maps edges of the outer graph to result edges,
    ``inner_edge`` maps (vertex, inner edge) pairs, and ``inner_vertex``
    maps (vertex, inner vertex) pairs to result vertex names.
    """

    outer_edge: dict
    inner_edge: dict
    inner_vertex: dict


def _fresh(name, *taken):
    while any(name in names for names in taken):
        name = name + "'"
    return name


def substitute(data):
    """Replace a vertex by a connected graph with matching boundary.

    The one-vertex case of ``multi_substitute``, which gives the naming
    rules; an unknown vertex raises KeyError, and a disconnected inner
    graph ConnectivityError.
    """
    data.outer.vertex(data.vertex)
    if not is_connected(data.inner):
        raise ConnectivityError("inner graph must be connected")
    result, _ = multi_substitute(
        data.outer, {data.vertex: (data.inner, data.bij_in, data.bij_out)}
    )
    return result


def multi_substitute(outer, assignment):
    """Substitute a graph for every vertex in the assignment, in one pass.

    ``assignment`` maps vertex names to either a Graph (boundaries are
    then paired by position) or triples ``(graph, bij_in, bij_out)``
    pairing the vertex's edges with the inner graph's boundary; names
    that are not vertices of ``outer`` are ignored.  A pairing that is
    no bijection raises ProfileMismatch.  Callers pass connected inner
    graphs (``substitute`` checks its one), and connectivity is not
    checked again here.  ``_glue`` builds the result.
    """
    specs = {}
    for w in outer.vertices:
        if w.name not in assignment:
            continue
        spec = assignment[w.name]
        if isinstance(spec, Graph):
            inner = spec
            in_map = dict(zip(w.ins, inner.inputs))
            out_map = dict(zip(w.outs, inner.outputs))
        else:
            inner, bij_in, bij_out = spec
            in_map, out_map = dict(bij_in), dict(bij_out)
        for side, ends, pairs, targets in (
            ("in", w.ins, in_map, inner.inputs),
            ("out", w.outs, out_map, inner.outputs),
        ):
            if sorted(pairs) != sorted(ends) or sorted(pairs.values()) != sorted(targets):
                raise ProfileMismatch(
                    f"{side}({w.name}) does not match the {side}puts of the inner graph"
                )
        specs[w.name] = (inner, in_map, out_map)
    return _glue(outer, specs)


def _glue(outer, specs):
    """Substitute ``specs[v] = (inner, in_map, out_map)`` at each vertex
    v; the maps pair v's in- and out-edges with the inner inputs and
    outputs, and are not checked to be bijections (DECISIONS.md D18).

    The result equals substituting one vertex at a time in the outer
    graph's vertex order.  Inner vertices take the place of the vertex
    they replace, and internal edges follow the outer edges.  Boundary
    edges keep the outer identifiers; internal edges and vertices are
    renamed ``<vertex>.<name>``, primed until the name is unused in the
    graph as it stands at that vertex.  A vertex replaced by a single
    edge merges its output edge into its input edge, so a chain of them
    keeps the input-most identifier.  Returns (result, Correspondence).
    """
    name = {e: e for e in outer.edges}  # outer edge -> its current name
    live_edges, live_vertices = set(outer.edges), set(outer.vertex_names)
    internal = []
    pieces = []  # per outer vertex: the vertex kept, or what replaces it
    for w in outer.vertices:
        if w.name not in specs:
            pieces.append(w)
            continue
        inner, in_map, out_map = specs[w.name]
        # inner boundary edge -> the outer edge glued to it, as named now
        bound = {x: name[e] for e, x in itertools.chain(out_map.items(), in_map.items())}
        fresh_e, fresh_v = {}, {}
        if not inner.vertices:
            # a single edge: the output edge of w merges into its input edge
            (e_in,), (e_out,) = [name[e] for e in in_map], [name[e] for e in out_map]
            name = {e: e_in if x == e_out else x for e, x in name.items()}
            live_edges.discard(e_out)
        for e in inner.edges:
            if e not in bound:
                fresh_e[e] = _fresh(f"{w.name}.{e}", live_edges, live_vertices)
                live_edges.add(fresh_e[e])
                internal.append(fresh_e[e])
        for u in inner.vertices:
            fresh_v[u.name] = _fresh(f"{w.name}.{u.name}", live_edges, live_vertices)
            live_vertices.add(fresh_v[u.name])
        live_vertices.discard(w.name)
        pieces.append((w.name, inner, bound, fresh_e, fresh_v))

    vertices, inner_edge, inner_vertex = [], {}, {}
    for piece in pieces:
        if isinstance(piece, Vertex):
            vertices.append(Vertex(
                piece.name,
                tuple(name[e] for e in piece.ins),
                tuple(name[e] for e in piece.outs),
            ))
            continue
        vname, inner, bound, fresh_e, fresh_v = piece
        # later merges may have renamed a glued outer edge again
        ref = {e: name[bound[e]] if e in bound else fresh_e[e] for e in inner.edges}
        inner_edge.update(((vname, e), ref[e]) for e in inner.edges)
        for u in inner.vertices:
            inner_vertex[(vname, u.name)] = fresh_v[u.name]
            vertices.append(Vertex(
                fresh_v[u.name],
                tuple(ref[e] for e in u.ins),
                tuple(ref[e] for e in u.outs),
            ))
    edges = tuple(e for e in outer.edges if name[e] == e) + tuple(internal)
    return Graph(edges, tuple(vertices)), Correspondence(
        name, inner_edge, inner_vertex
    )


def subgraph_witness(h):
    """Substitution data realizing the parent as a substitution onto h.

    Collapses the subgraph to a fresh vertex; substituting ``h`` back in
    returns a graph strictly isomorphic to the parent.
    """
    parent = h.parent
    used = set(parent.edges) | set(parent.vertex_names)
    vname = _fresh("w", used)
    if h.is_edge():
        # split the edge in two around a new (1,1)-vertex
        (e,) = h.edge_names
        e_new = _fresh(e + "_", used)
        vs = []
        for v in parent.vertices:
            ins = tuple(e_new if x == e else x for x in v.ins)
            vs.append(Vertex(v.name, ins, v.outs))
        vs.append(Vertex(vname, (e,), (e_new,)))
        collapsed = Graph(tuple(parent.edges) + (e_new,), tuple(vs))
        return substitution_data(
            collapsed, h.as_graph, vname,
            bij_in=((e, e),), bij_out=((e_new, e),),
        )
    ins = tuple(h.inputs)
    outs = tuple(h.outputs)
    internal = h.edge_names - set(ins) - set(outs)
    edges = tuple(e for e in parent.edges if e not in internal)
    vs = []
    placed = False
    for v in parent.vertices:
        if v.name in h.vertex_names_set:
            if not placed:
                vs.append(Vertex(vname, ins, outs))
                placed = True
            continue
        vs.append(v)
    collapsed = Graph(edges, tuple(vs))
    return substitution_data(
        collapsed,
        h.as_graph,
        vname,
        bij_in=tuple((e, e) for e in ins),
        bij_out=tuple((e, e) for e in outs),
    )


# ---------------------------------------------------------------------------
# canonical form


def _refine_classes(g, classes, order_sensitive):
    """One round of neighbourhood refinement of a vertex partition."""
    idx = {}
    for ci, cls in enumerate(classes):
        for name in cls:
            idx[name] = ci

    def edge_sig(e, side):
        other = g.out_vertex.get(e) if side == "in" else g.in_vertex.get(e)
        return idx[other] if other is not None else -1

    sigs = {}
    for v in g.vertices:
        ins = tuple(edge_sig(e, "in") for e in v.ins)
        outs = tuple(edge_sig(e, "out") for e in v.outs)
        if not order_sensitive:
            ins, outs = tuple(sorted(ins)), tuple(sorted(outs))
        sigs[v.name] = (idx[v.name], ins, outs)
    buckets = {}
    for name, s in sigs.items():
        buckets.setdefault(s, []).append(name)
    return [sorted(b) for _, b in sorted(buckets.items())]


# the most vertex orders a canonical form search may try
MAX_ORDERS = 50000


def _vertex_orders(g, order_sensitive):
    """Vertex orders compatible with the refined partition of ``g``.

    Vertices start out classed by biarity; each refinement round splits
    a class by the classes on the far side of each vertex's edges, read
    in the vertex's own order or, without ``order_sensitive``, as a
    multiset.  Classes come in an isomorphism-invariant order, so every
    order yielded lists isomorphic graphs the same way up to a choice
    within each class.
    """
    buckets = {}
    for v in g.vertices:
        buckets.setdefault(v.biarity(), []).append(v.name)
    classes = [sorted(b) for _, b in sorted(buckets.items())]
    for _ in range(len(g.vertices)):
        refined = _refine_classes(g, classes, order_sensitive)
        if len(refined) == len(classes):
            break
        classes = refined
    if math.prod(math.factorial(len(cls)) for cls in classes) > MAX_ORDERS:
        raise SizeLimit("canonical form search space too large")
    for combo in itertools.product(*(itertools.permutations(c) for c in classes)):
        yield tuple(itertools.chain.from_iterable(combo))


def reading_order(rows, tail=()):
    """Number the edge keys of an ordered graph given as rows.

    ``rows`` holds one ``(ins, outs)`` pair of edge keys per vertex, in
    vertex order.  Keys are read outputs row by row, then inputs row by
    row, then ``tail``, and each is numbered 1, 2, ... where it first
    appears (DECISIONS.md D17).  Returns the keys in that order, as the
    keys of a dict: key k has number n when it is the n-th.
    """
    firsts = itertools.chain(
        (k for _, outs in rows for k in outs), (k for ins, _ in rows for k in ins), tail
    )
    return dict.fromkeys(firsts)


def canonical_form(g):
    """A deterministic representative of the strict isomorphism class.

    Two graphs receive equal canonical forms exactly when there is an
    isomorphism preserving per-vertex orderings.  Each
    refinement-compatible vertex order numbers the edges in reading
    order, loose edges without a vertex last in edge-list order; the
    first order whose rows of edge numbers are least wins.

    Returns (canonical graph, edge renaming, vertex renaming).
    """
    best = None
    for order in _vertex_orders(g, order_sensitive=True):
        rows = [(v.ins, v.outs) for v in map(g.vertex, order)]
        number = dict(zip(reading_order(rows, g.edges), itertools.count(1)))
        cert = [(tuple(map(number.get, ins)), tuple(map(number.get, outs))) for ins, outs in rows]
        if best is None or cert < best[0]:
            best = (cert, order, number)
    _, order, number = best
    edge_map = {e: f"e{number[e]}" for e in g.edges}
    vertex_map = {name: f"v{i+1}" for i, name in enumerate(order)}
    edges = tuple(f"e{k}" for k in range(1, len(g.edges) + 1))
    vs = tuple(
        Vertex(
            vertex_map[name],
            tuple(edge_map[e] for e in g.vertex(name).ins),
            tuple(edge_map[e] for e in g.vertex(name).outs),
        )
        for name in order
    )
    return Graph(edges, vs), edge_map, vertex_map


def unordered_canonical_form(g):
    """A representative of the isomorphism class with orderings forgotten.

    Graphical isomorphisms keep each vertex's set of inputs and set of
    outputs but not their order, so a graph is determined up to one by
    the (source, target) vertex pair of each edge.  The certificate of a
    vertex order is the sorted tuple of those pairs, in positions, with
    -1 for a loose end; the least over refinement-compatible orders
    wins.  Edges are numbered in certificate order and every vertex
    lists its edges in that numbering, so graphs get equal forms exactly
    when they are isomorphic in the graphical category.

    Returns (form, edge renaming, vertex renaming).  When two forms
    agree, one graph's renamings followed by the inverse of the other's
    is an isomorphism between them.
    """
    best = None
    for order in _vertex_orders(g, order_sensitive=False):
        pos = {name: i for i, name in enumerate(order)}
        ends = sorted(
            (pos.get(g.out_vertex.get(e), -1), pos.get(g.in_vertex.get(e), -1), e)
            for e in g.edges
        )
        cert = tuple((src, tgt) for src, tgt, _ in ends)
        if best is None or cert < best[0]:
            best = (cert, order, ends)
    _, order, ends = best
    number = {e: k for k, (_, _, e) in enumerate(ends, 1)}
    edge_map = {e: f"e{k}" for e, k in number.items()}
    vertex_map = {name: f"v{i+1}" for i, name in enumerate(order)}

    def renamed(edges):
        return tuple(edge_map[e] for e in sorted(edges, key=number.get))

    vs = tuple(
        Vertex(vertex_map[v.name], renamed(v.ins), renamed(v.outs))
        for v in map(g.vertex, order)
    )
    return Graph(renamed(g.edges), vs), edge_map, vertex_map


def strict_iso(g1, g2):
    """Are the two ordered graphs strictly isomorphic?"""
    if len(g1.edges) != len(g2.edges) or len(g1.vertices) != len(g2.vertices):
        return False
    c1, _, _ = canonical_form(g1)
    c2, _, _ = canonical_form(g2)
    return c1 == c2


# ---------------------------------------------------------------------------
# serialization


def graph_to_json(g):
    return {
        "edges": list(g.edges),
        "vertices": [
            {"name": v.name, "in": list(v.ins), "out": list(v.outs)}
            for v in g.vertices
        ],
    }


def graph_from_json(data):
    return graph(
        [str(e) for e in data["edges"]],
        [(v["name"], [str(e) for e in v["in"]], [str(e) for e in v["out"]])
         for v in data["vertices"]],
    )


def to_dot(g, name="G"):
    """GraphViz rendering: circles for vertices, points for loose ends."""
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for v in g.vertices:
        lines.append(f'  "{v.name}" [shape=circle];')
    for e in g.edges:
        src = g.out_vertex.get(e)
        dst = g.in_vertex.get(e)
        if src is None:
            lines.append(f'  "in_{e}" [shape=point, label=""];')
            src_name = f"in_{e}"
        else:
            src_name = src
        if dst is None:
            lines.append(f'  "out_{e}" [shape=point, label=""];')
            dst_name = f"out_{e}"
        else:
            dst_name = dst
        lines.append(f'  "{src_name}" -> "{dst_name}" [label="{e}"];')
    lines.append("}")
    return "\n".join(lines)
