"""Seeded drafts of the benchmark's inputs.

Graphs, level graphs, biarity shapes and finite properads are drafted
from a ``random.Random`` stream, built only through the library's
public constructors (``graph``, ``level_graph``, ``end_properad``,
``terminal_properad``) and checked with its validators.  A draft that
fails a check or exceeds a size cap is redrawn from the same stream,
so one seed always yields the same inputs.
"""

from __future__ import annotations

import itertools

from graphcat.digraph import graph, is_connected, validate
from graphcat.level import is_connected_level, level_graph, validate_level
from graphcat.properad import end_properad, terminal_properad

MAX_DRAWS = 2000


class DraftError(RuntimeError):
    """No draft within the caps passed validation."""


def redraw(rng, draft):
    """Call ``draft(rng)`` until it returns a value that is not None."""
    for _ in range(MAX_DRAWS):
        value = draft(rng)
        if value is not None:
            return value
    raise DraftError(f"{draft.__name__}: no valid draft in {MAX_DRAWS} tries")


# ---------------------------------------------------------------------------
# graphs with loose ends


def draft_graph(rng, n_vertices, max_in, max_out, max_edges, closed=False):
    """A connected acyclic graph, or None when the draft breaks a cap.

    Vertices are placed in a random topological order; each input stub
    either consumes a free output stub of an earlier vertex or becomes
    a loose input.  A closed draft must consume every stub.
    """
    edges, vertices, free_outs = [], [], []
    fresh = (f"a{k}" for k in itertools.count())
    for k in range(n_vertices):
        m, n = rng.randint(0, max_in), rng.randint(0, max_out)
        if m + n == 0:
            return None
        ins = []
        for _ in range(m):
            if free_outs and (closed or rng.random() < 0.7):
                ins.append(free_outs.pop(rng.randrange(len(free_outs))))
            elif closed:
                return None
            else:
                ins.append(next(fresh))
                edges.append(ins[-1])
        outs = [next(fresh) for _ in range(n)]
        edges.extend(outs)
        free_outs.extend(outs)
        vertices.append((f"u{k}", ins, outs))
    if closed and free_outs:
        return None
    if len(edges) > max_edges:
        return None
    g = graph(edges, vertices)
    if validate(g) is not None or not is_connected(g):
        return None
    return g


def random_graph(rng, n_vertices, max_in=2, max_out=2, max_edges=8, closed=False):
    return redraw(
        rng,
        lambda r: draft_graph(r, n_vertices, max_in, max_out, max_edges, closed),
    )


# ---------------------------------------------------------------------------
# level graphs


def draft_level_graph(rng, height, max_width, max_arity, connected):
    """A level graph of the given height, or None when a cap is broken.

    Layer 0 vertices get random biarities; each later layer splits the
    edges arriving at its level among fresh vertices, which then emit
    their own outputs.  Level-i edges are matched to layer-i inputs by
    a random permutation.
    """
    fresh = (f"b{k}" for k in itertools.count())
    names = (f"w{k}" for k in itertools.count())
    level0 = []
    layer = []
    for _ in range(rng.randint(1, max_width)):
        m, n = rng.randint(0, max_arity), rng.randint(1, max_arity)
        ins = [next(fresh) for _ in range(m)]
        level0.extend(ins)
        layer.append((next(names), ins, [next(fresh) for _ in range(n)]))
    edge_layers, vertex_layers = [level0], [layer]
    for i in range(1, height):
        arriving = [e for _, _, outs in vertex_layers[-1] for e in outs]
        rng.shuffle(arriving)
        edge_layers.append(list(arriving))
        layer = []
        while arriving:
            m = min(len(arriving), rng.randint(1, max_arity))
            ins, arriving = arriving[:m], arriving[m:]
            n = rng.randint(1, max_arity)
            layer.append((next(names), ins, [next(fresh) for _ in range(n)]))
        if len(layer) > max_width:
            return None
        vertex_layers.append(layer)
    edge_layers.append([e for _, _, outs in vertex_layers[-1] for e in outs])
    if any(len(level) > max_width + 1 for level in edge_layers):
        return None
    lg = level_graph(edge_layers, vertex_layers)
    if validate_level(lg) is not None:
        return None
    if connected and not is_connected_level(lg):
        return None
    return lg


def random_level_graph(rng, height, max_width=2, max_arity=2, connected=True):
    return redraw(
        rng,
        lambda r: draft_level_graph(r, height, max_width, max_arity, connected),
    )


# ---------------------------------------------------------------------------
# biarity shapes and finite properads


def random_shape(rng, n_vertices, max_arity, max_stubs):
    """Vertex biarities for ``all_operations``, without (0, 0)."""

    def draft(r):
        shape = []
        for _ in range(n_vertices):
            m, n = r.randint(0, max_arity), r.randint(0, max_arity)
            if m + n == 0:
                return None
            shape.append((m, n))
        if sum(m + n for m, n in shape) > max_stubs:
            return None
        return tuple(shape)

    return redraw(rng, draft)


def properad_from_spec(spec):
    """``("end", ((colour, size), ...))`` or ``("terminal", colours)``."""
    kind, data = spec
    if kind == "end":
        return end_properad(dict(data))
    return terminal_properad(tuple(data))


def profile_op_count(sizes, ins, outs):
    """|End(ins; outs)| = (prod |S_out|) ** (prod |S_in|), from set sizes."""
    dom = 1
    for c in ins:
        dom *= sizes[c]
    cod = 1
    for c in outs:
        cod *= sizes[c]
    return cod ** dom


def spec_sizes(spec):
    kind, data = spec
    if kind == "end":
        return dict(data)
    return {c: 1 for c in data}


def decoration_count(g, sizes):
    """Number of decorations of ``g``: the nerve's value set size."""
    colours = sorted(sizes)
    total = 0
    for colouring in itertools.product(colours, repeat=len(g.edges)):
        cof = dict(zip(g.edges, colouring))
        count = 1
        for v in g.vertices:
            count *= profile_op_count(
                sizes, [cof[e] for e in v.ins], [cof[e] for e in v.outs]
            )
        total += count
    return total


# ---------------------------------------------------------------------------
# relabelling


def renaming(rng, names, prefix):
    """A random injective renaming of ``names`` to fresh identifiers."""
    codes = rng.sample(range(10 * len(names) + 10), len(names))
    return {x: f"{prefix}{c}" for x, c in zip(names, codes)}


def relabel_graph(rng, g):
    """A copy of ``g`` with fresh edge and vertex names and shuffled
    edge and vertex lists; per-vertex orderings are kept.

    Returns (copy, edge renaming, vertex renaming).
    """
    emap = renaming(rng, g.edges, "x")
    vmap = renaming(rng, g.vertex_names, "y")
    edges = [emap[e] for e in g.edges]
    rng.shuffle(edges)
    vertices = [
        (vmap[v.name], [emap[e] for e in v.ins], [emap[e] for e in v.outs])
        for v in g.vertices
    ]
    rng.shuffle(vertices)
    return graph(edges, vertices), emap, vmap


def sorted_renaming(rng, names, prefix):
    """A random renaming of ``names`` that keeps their sorted order."""
    codes = sorted(rng.sample(range(10 * len(names) + 10), len(names)))
    return {x: f"{prefix}{c:06d}" for x, c in zip(sorted(names), codes)}


def relabel_level_graphs(rng, graphs):
    """Copies of ``graphs`` with fresh names.

    One renaming serves all of them and layer orders are kept, so
    ``build_level_corpus``, which merges pieces that are equal as
    values, merges the same pieces before and after relabelling.  The
    renaming keeps the names' sorted order: hom tables and Segal limits
    run in name order and stop at the first mismatch, and random orders
    moved ``job_p90_ms`` by 15 % from seed to seed.
    Returns (copies, edge renaming, vertex renaming).
    """
    edges = {e for lg in graphs for layer in lg.edge_layers for e in layer}
    names = {name for lg in graphs for name in lg.vertex_names}
    emap, vmap = sorted_renaming(rng, edges, "x"), sorted_renaming(rng, names, "y")
    copies = [
        level_graph(
            [[emap[e] for e in layer] for layer in lg.edge_layers],
            [
                [(vmap[v.name], [emap[e] for e in v.ins], [emap[e] for e in v.outs])
                 for v in layer]
                for layer in lg.vertex_layers
            ],
        )
        for lg in graphs
    ]
    return copies, emap, vmap
