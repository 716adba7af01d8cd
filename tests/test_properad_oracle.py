"""Operations of the governing operad, checked against references.

The first section keeps the path that ``prpd_compose`` and
``sigma_action`` replaced as a reference: substitute with
``multi_substitute``, then number the edges of the result with the
vertex order pinned to the indexing (``_edge_numbering``, the numbering
``canonical_form`` used before ``reading_order``, kept in
``test_digraph``).  The direct numbering must give equal operations
(DECISIONS.md D15).

The second section is an oracle from the definition.  Two indexed
graphs are equal exactly when the index-preserving vertex bijection
extends to an edge bijection that keeps every vertex's input and output
orders, both boundary orders and the colours.  The oracle tries every
edge bijection, and shares no code with the normal form.

The third section keeps the path that ``all_operations`` replaced as a
reference: build each stub matching as a graph with ``_stub_matchings``
(kept in ``test_properad``), then normalize it and drop repeats.
Numbering the matching's stub keys must give the same operations in the
same order (DECISIONS.md D16).

The fourth section keeps the free properad's element path as it was:
every reindexing built as a ``Graph`` and normalized, over a pool of
``_stub_matchings`` graphs.  Numbering each reindexing's rows must give
the same elements (DECISIONS.md D17).

The last section pins the direct paths with counters.
"""

import itertools
import random

from graphcat import digraph, properad, zoo
import pytest

from graphcat.digraph import (
    Graph,
    Vertex,
    betti_number,
    check,
    corolla,
    edge_graph,
    linear_graph,
    multi_substitute,
    structured_subgraphs,
    subgraph_witness,
)
from graphcat.errors import ColorMismatch, GraphcatError, ProfileMismatch
from graphcat.properad import (
    OperadArrow,
    ZGraph,
    _normalize,
    _zkey,
    all_operations,
    cartesian_lift_active,
    decorated_graph,
    free_properad,
    identity_operation,
    prpd_compose,
    sigma_action,
    stabilizer,
    suboperad_member,
    theta_object,
    zgraph,
    zgraph_of_graph,
)
from graphcat.zoo import closed_square_graph, double_edge_graph, three_vertex_graph
from test_digraph import _edge_numbering
from test_properad import (
    SMALL_BIARITIES,
    _criterion_6_shapes,
    _operad_laws_shapes,
    _stub_matchings,
    op_pool,
)


# ---------------------------------------------------------------------------
# the substitute-then-renumber path, as a reference


def normalize_reference(graph, in_order, out_order, colors=None):
    """``_normalize`` as it was: the edge numbering of ``canonical_form``
    with the vertex order pinned to the indexing."""
    if sorted(in_order) != sorted(graph.inputs):
        raise ProfileMismatch("in_order must enumerate the graph inputs")
    if sorted(out_order) != sorted(graph.outputs):
        raise ProfileMismatch("out_order must enumerate the graph outputs")
    color_map = dict(colors) if isinstance(colors, dict) else (
        dict(zip(graph.edges, colors)) if colors is not None else None
    )
    eid = _edge_numbering(
        graph, graph.vertex_names, color_map.get if color_map else None
    )
    name = {e: f"e{eid[e]}" for e in graph.edges}
    canon = Graph(
        tuple(f"e{k}" for k in range(1, len(graph.edges) + 1)),
        tuple(
            Vertex(f"v{i}", tuple(map(name.get, v.ins)), tuple(map(name.get, v.outs)))
            for i, v in enumerate(graph.vertices, 1)
        ),
    )
    colours = None
    if color_map is not None:
        colours = tuple(color_map[e] for e in sorted(graph.edges, key=eid.get))
    return ZGraph(
        canon, tuple(map(name.get, in_order)), tuple(map(name.get, out_order)), colours
    )


def compose_reference(outer, inner):
    """``prpd_compose`` as it was: ``multi_substitute``, then normalize."""
    assignment = {}
    for z, v in enumerate(outer.graph.vertices):
        op = inner[z]
        assert op.biarity() == v.biarity()
        assignment[v.name] = (op.graph, zip(v.ins, op.in_order), zip(v.outs, op.out_order))
    result, corr = multi_substitute(outer.graph, assignment)
    colors = None
    if outer.colors is not None:
        colors = {corr.outer_edge[e]: c for e, c in zip(outer.graph.edges, outer.colors)}
        for z, v in enumerate(outer.graph.vertices):
            colors.update(
                (corr.inner_edge[(v.name, e)], c)
                for e, c in zip(inner[z].graph.edges, inner[z].colors)
            )
    return normalize_reference(
        result,
        tuple(corr.outer_edge[e] for e in outer.in_order),
        tuple(corr.outer_edge[e] for e in outer.out_order),
        colors,
    )


def sigma_reference(op, perm=None, in_perm=None, out_perm=None):
    """``sigma_action`` as it was: reorder the vertices of a ``Graph``,
    then normalize."""
    g = op.graph
    vertices = g.vertices if perm is None else tuple(g.vertices[p] for p in perm)
    in_order, out_order = op.in_order, op.out_order
    if in_perm is not None:
        in_order = tuple(op.in_order[in_perm[i]] for i in range(len(in_order)))
    if out_perm is not None:
        out_order = tuple(op.out_order[out_perm[j]] for j in range(len(out_order)))
    colors = dict(zip(g.edges, op.colors)) if op.colors is not None else None
    return normalize_reference(Graph(g.edges, vertices), in_order, out_order, colors)


def stabilizer_reference(op):
    """``stabilizer`` as it was, over the reference action."""
    n = op.size
    return tuple(
        perm for perm in itertools.permutations(range(n))
        if all(op.vertex_profile(perm[z]) == op.vertex_profile(z) for z in range(n))
        and sigma_reference(op, perm) == op
    )


EDGE = zgraph(edge_graph(), ("e",), ("e",))


def inner_pool():
    """Inner operations by biarity: the law-test pool, plus the edge
    operation at (1, 1)."""
    pool = op_pool()
    pool[(1, 1)] = pool[(1, 1)] + [EDGE]
    return pool


def shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def test_compose_and_sigma_match_the_reference_on_every_operation():
    rng = random.Random(21)
    pool = inner_pool()
    checked = 0
    for shape in dict.fromkeys(_criterion_6_shapes() + _operad_laws_shapes()):
        for op in all_operations(shape):
            units = {z: identity_operation(*b) for z, b in enumerate(op.vertex_biarities())}
            assert prpd_compose(op, units) == compose_reference(op, units) == op
            family = {z: rng.choice(pool[b]) for z, b in enumerate(op.vertex_biarities())}
            assert prpd_compose(op, family) == compose_reference(op, family)
            checked += 1
            if op.size > 3:  # four vertices: compositions only, to keep the test short
                continue
            outer = identity_operation(*op.biarity())
            assert prpd_compose(outer, {0: op}) == compose_reference(outer, {0: op})
            args = (
                shuffled(rng, op.size),
                shuffled(rng, len(op.in_order)),
                shuffled(rng, len(op.out_order)),
            )
            assert sigma_action(op, *args) == sigma_reference(op, *args)
    assert checked == 17_551


def coloured_operations():
    """Free-properad elements on the zoo: coloured operations, edges
    included."""
    for name in sorted(dir(zoo)):
        if not name.endswith("_graph"):
            continue
        P = free_properad(getattr(zoo, name)(), vertex_bound=4)
        for els in P._pool.values():
            for el in sorted(els, key=repr):
                yield P, el[1]


def test_coloured_compose_and_sigma_match_the_reference():
    rng = random.Random(7)
    checked = 0
    for P, op in coloured_operations():
        for _ in range(2):
            family = {}
            for z in range(op.size):
                ins, outs = op.vertex_profile(z)
                family[z] = rng.choice(P.ops(ins, outs))[1]
            assert prpd_compose(op, family) == compose_reference(op, family)
        args = (
            shuffled(rng, op.size),
            shuffled(rng, len(op.in_order)),
            shuffled(rng, len(op.out_order)),
        )
        assert sigma_action(op, *args) == sigma_reference(op, *args)
        checked += 1
    assert checked > 100


def coloured_chain(k, colour="a"):
    """The chain of k (1, 1) vertices with every edge of one colour."""
    g = linear_graph(k)
    return zgraph(g, g.inputs, g.outputs, {e: colour for e in g.edges})


def test_edge_operations_merge_like_the_reference():
    pool = [EDGE, identity_operation(1, 1), all_operations([(1, 1), (1, 1)])[0]]
    coloured = [
        zgraph(edge_graph(), ("e",), ("e",), {"e": "a"}),
        coloured_chain(1),
        coloured_chain(2),
    ]
    checked = 0
    for k in range(1, 5):
        for outer, inners in ((zgraph_of_graph(linear_graph(k)), pool), (coloured_chain(k), coloured)):
            for family in itertools.product(inners, repeat=k):
                family = dict(enumerate(family))
                got = prpd_compose(outer, family)
                assert got == compose_reference(outer, family)
                assert got.size == sum(x.size for x in family.values())
                checked += 1
    assert checked == 2 * (3 + 9 + 27 + 81)
    # a whole chain of edges, and a corolla filled by an edge, give the edge
    assert prpd_compose(zgraph_of_graph(linear_graph(3)), dict.fromkeys(range(3), EDGE)) == EDGE
    assert prpd_compose(identity_operation(1, 1), {0: EDGE}) == EDGE
    assert prpd_compose(EDGE, {}) == compose_reference(EDGE, {}) == EDGE
    # an edge inside a larger outer, between two vertices and at a boundary
    for outer in all_operations([(1, 2), (1, 1), (2, 1)]):
        for z, b in enumerate(outer.vertex_biarities()):
            if b == (1, 1):
                family = {y: identity_operation(*c) for y, c in enumerate(outer.vertex_biarities())}
                family[z] = EDGE
                assert prpd_compose(outer, family) == compose_reference(outer, family)


def test_free_evaluate_matches_the_reference_path(monkeypatch):
    cases = []
    for g in (three_vertex_graph(), double_edge_graph(), linear_graph(3), corolla(2, 2)):
        P = free_properad(g, vertex_bound=4)
        for sub in structured_subgraphs(g):
            h = sub.as_graph
            cases.append((P, decorated_graph(
                h, {e: e for e in h.edges}, {v: P.generator_element(v) for v in h.vertex_names},
            )))
            data = subgraph_witness(sub)
            collapsed = data.outer
            labels = {v: P.generator_element(v) for v in g.vertex_names}
            labels[data.vertex] = P.subgraph_element(sub)
            cases.append((P, decorated_graph(
                collapsed,
                {e: e for e in collapsed.edges} | dict(data.bij_out),
                {v: labels[v] for v in collapsed.vertex_names},
                g.inputs,
                tuple({x: e for e, x in data.bij_out}.get(e, e) for e in g.outputs),
            )))
    got = [P.evaluate(dec) for P, dec in cases]
    monkeypatch.setattr(properad, "_normalize", normalize_reference)
    monkeypatch.setattr(properad, "prpd_compose", compose_reference)
    assert got == [P.evaluate(dec) for P, dec in cases]
    assert len(cases) > 40


def test_stabilizer_matches_the_reference():
    checked = 0
    for shape in _operad_laws_shapes():
        for op in all_operations(shape):
            if len(set(op.vertex_biarities())) < op.size:
                assert stabilizer(op) == stabilizer_reference(op)
                checked += 1
    for _, op in coloured_operations():
        assert stabilizer(op) == stabilizer_reference(op)
        checked += 1
    square = zgraph_of_graph(closed_square_graph())
    assert stabilizer(square) == stabilizer_reference(square) == ((0, 1, 2, 3), (1, 0, 3, 2))
    assert checked > 1000


# ---------------------------------------------------------------------------
# an oracle from the definition


def raw(op):
    """An operation as plain indexed-graph data."""
    return op.graph, op.in_order, op.out_order, op.color_of


def indexed_equal(a, b):
    """Whether some edge bijection, paired with the index-preserving
    vertex bijection, keeps every vertex's input and output orders, the
    boundary orders and the colours; every bijection is tried."""
    (ga, ina, outa, ca), (gb, inb, outb, cb) = a, b
    if len(ga.vertices) != len(gb.vertices) or len(ga.edges) != len(gb.edges):
        return False
    if (ca is None) != (cb is None):
        return False
    for image in itertools.permutations(gb.edges):
        phi = dict(zip(ga.edges, image))
        if (
            all(
                tuple(map(phi.get, v.ins)) == tuple(w.ins)
                and tuple(map(phi.get, v.outs)) == tuple(w.outs)
                for v, w in zip(ga.vertices, gb.vertices)
            )
            and tuple(map(phi.get, ina)) == tuple(inb)
            and tuple(map(phi.get, outa)) == tuple(outb)
            and (ca is None or all(ca[e] == cb[phi[e]] for e in ga.edges))
        ):
            return True
    return False


def in_reading_order(op):
    """The normal form's own naming: vertices v1, v2, ... in index
    order, and edges e1, e2, ... in reading order: outputs vertex by
    vertex, then attached inputs by consumer and position, then the
    loose edge of a bare edge."""
    seen = [e for v in op.graph.vertices for e in v.outs]
    for e in itertools.chain([e for v in op.graph.vertices for e in v.ins], op.in_order):
        if e not in seen:
            seen.append(e)
    return (
        op.graph.edges == tuple(seen) == tuple(f"e{k}" for k in range(1, len(seen) + 1))
        and op.graph.vertex_names == tuple(f"v{z}" for z in range(1, op.size + 1))
    )


def relabelled(rng, data):
    """The same indexed graph under fresh edge and vertex names and a
    shuffled edge list."""
    g, in_order, out_order, colors = data
    fresh = rng.sample(range(10_000), len(g.edges))
    name = {e: f"x{k}" for e, k in zip(g.edges, fresh)}
    edges = list(map(name.get, g.edges))
    rng.shuffle(edges)
    vertices = tuple(
        Vertex(f"w{rng.randrange(10_000)}_{z}", tuple(map(name.get, v.ins)), tuple(map(name.get, v.outs)))
        for z, v in enumerate(g.vertices)
    )
    colours = None if colors is None else {name[e]: c for e, c in colors.items()}
    return Graph(tuple(edges), vertices), tuple(map(name.get, in_order)), tuple(map(name.get, out_order)), colours


def swapped(order, rng):
    if len(order) < 2:
        return None
    i, j = rng.sample(range(len(order)), 2)
    order = list(order)
    order[i], order[j] = order[j], order[i]
    return tuple(order)


def perturbed(rng, data, others):
    """A near miss of the same biarity: one vertex's or one boundary's
    order swapped, one colour changed, or another operation; None when
    the draw does not apply."""
    g, in_order, out_order, colors = data
    kind = rng.randrange(4)
    if kind == 0:
        sides = [
            (z, side) for z, v in enumerate(g.vertices)
            for side in ("ins", "outs") if len(getattr(v, side)) > 1
        ]
        if not sides:
            return None
        z, side = rng.choice(sides)
        v = g.vertices[z]
        w = Vertex(v.name, *(
            swapped(getattr(v, s), rng) if s == side else getattr(v, s) for s in ("ins", "outs")
        ))
        return Graph(g.edges, g.vertices[:z] + (w,) + g.vertices[z + 1:]), in_order, out_order, colors
    if kind == 1:
        ins, outs = swapped(in_order, rng), swapped(out_order, rng)
        if ins is None and outs is None:
            return None
        return g, ins or in_order, outs or out_order, colors
    if kind == 2:
        if colors is None:
            return None
        e = rng.choice(g.edges)
        return g, in_order, out_order, colors | {e: "b" if colors[e] == "a" else "a"}
    return rng.choice([
        o for o in others if (len(o[1]), len(o[2])) == (len(in_order), len(out_order))
    ])


def random_raw(rng, shape, coloured):
    """A random operation of ``shape``, with random boundary orders and,
    if ``coloured``, random colours, as raw data of at most 6 edges."""
    ops = [op for op in all_operations(shape) if len(op.graph.edges) <= 6]
    if not ops:
        return None, []
    out = []
    for op in ops:
        g = op.graph
        in_order = tuple(rng.sample(op.in_order, len(op.in_order)))
        out_order = tuple(rng.sample(op.out_order, len(op.out_order)))
        colors = {e: rng.choice("ab") for e in g.edges} if coloured else None
        out.append((g, in_order, out_order, colors))
    return rng.choice(out), out


def test_normal_forms_are_equal_exactly_when_the_oracle_finds_a_bijection():
    rng = random.Random(2021)
    shapes = [s for s in _operad_laws_shapes() if len(s) <= 3]
    verdicts = {True: 0, False: 0}
    while min(verdicts.values()) < 150:
        shape = rng.choice(shapes)
        a, catalogue = random_raw(rng, shape, coloured=rng.random() < 0.5)
        if a is None:
            continue
        b = relabelled(rng, a if rng.random() < 0.5 else (perturbed(rng, a, catalogue) or a))
        na, nb = _normalize(*a), _normalize(*b)
        assert in_reading_order(na) and in_reading_order(nb)
        assert indexed_equal(a, raw(na)) and indexed_equal(b, raw(nb))
        verdict = indexed_equal(a, b)
        assert (na == nb) == verdict, (a, b)
        verdicts[verdict] += 1


def substituted(outer, inner):
    """The composite built from the definition: each vertex's operation
    put in its place, its boundary glued to the vertex's edges in order,
    its other edges named after their index; a bare edge joins its
    vertex's two edges into one."""
    joined = {}

    def root(e):
        return root(joined[e]) if e in joined else e

    for z, v in enumerate(outer.graph.vertices):
        if not inner[z].size:
            joined[v.outs[0]] = v.ins[0]
    vertices, colors = [], None
    if outer.colors is not None:
        colors = {root(e): c for e, c in zip(outer.graph.edges, outer.colors)}
    edges = list(dict.fromkeys(map(root, outer.graph.edges)))
    for z, v in enumerate(outer.graph.vertices):
        op = inner[z]
        name = {x: f"{z}:{x}" for x in op.graph.edges}
        name.update((x, root(e)) for x, e in zip(op.in_order, v.ins))
        name.update((x, root(e)) for x, e in zip(op.out_order, v.outs))
        edges.extend(name[x] for x in op.graph.edges if name[x] not in edges)
        vertices.extend(
            Vertex(f"{z}:{u.name}", tuple(map(name.get, u.ins)), tuple(map(name.get, u.outs)))
            for u in op.graph.vertices
        )
        if colors is not None:
            colors.update((name[x], c) for x, c in zip(op.graph.edges, op.colors))
    return (
        Graph(tuple(edges), tuple(vertices)),
        tuple(map(root, outer.in_order)),
        tuple(map(root, outer.out_order)),
        colors,
    )


def reindexed(op, perm, in_perm, out_perm):
    """The reindexing from the definition: vertex perm[z] moves to z."""
    return (
        Graph(op.graph.edges, tuple(op.graph.vertices[p] for p in perm)),
        tuple(op.in_order[i] for i in in_perm),
        tuple(op.out_order[j] for j in out_perm),
        op.color_of,
    )


def test_compose_and_sigma_agree_with_the_definition():
    rng = random.Random(5)
    pool = inner_pool()
    plain = [op for shape in _operad_laws_shapes() if len(shape) <= 2 for op in all_operations(shape)]
    small = [
        (P, op) for P, op in coloured_operations() if len(op.graph.edges) <= 4
    ]
    checked = {"plain": 0, "coloured": 0}
    while min(checked.values()) < 120:
        if rng.random() < 0.5:
            outer = rng.choice(plain)
            family = {z: rng.choice(pool[b]) for z, b in enumerate(outer.vertex_biarities())}
            kind = "plain"
        else:
            P, outer = rng.choice(small)
            family = {
                z: rng.choice(P.ops(*outer.vertex_profile(z)))[1] for z in range(outer.size)
            }
            kind = "coloured"
        expected = substituted(outer, family)
        if len(expected[0].edges) > 7:
            continue
        got = prpd_compose(outer, family)
        assert in_reading_order(got)
        assert indexed_equal(expected, raw(got))
        args = (
            shuffled(rng, got.size),
            shuffled(rng, len(got.in_order)),
            shuffled(rng, len(got.out_order)),
        )
        acted = sigma_action(got, *args)
        assert in_reading_order(acted)
        assert indexed_equal(reindexed(got, *args), raw(acted))
        checked[kind] += 1


# ---------------------------------------------------------------------------
# stub matchings numbered from their keys, against the built graphs


def all_operations_reference(biarities, orderings="canonical"):
    """``all_operations`` as it was: each matching built as a graph, then
    normalized with its boundary orders, and repeats dropped."""
    results = []
    for g, _ in _stub_matchings([((None,) * m, (None,) * n) for m, n in biarities]):
        if orderings == "all":
            for ip in itertools.permutations(g.inputs):
                for op_ in itertools.permutations(g.outputs):
                    results.append(normalize_reference(g, ip, op_))
        else:
            results.append(normalize_reference(g, g.inputs, g.outputs))
    return tuple(dict.fromkeys(results))


BIARITIES_3 = [(m, n) for m in range(4) for n in range(4)]


def enumeration_cases():
    """(shape, orderings): every multiset of one or two vertices with
    biarities in {0..3}^2, and of three with at most 10 stubs in all;
    every ordering up to two vertices of arities at most two; and the
    ``operad_laws`` shapes."""
    for k in (1, 2, 3):
        for shape in itertools.combinations_with_replacement(BIARITIES_3, k):
            if k < 3 or sum(m + n for m, n in shape) <= 10:
                yield shape, "canonical"
    for k in (1, 2):
        for shape in itertools.combinations_with_replacement(SMALL_BIARITIES + [(0, 0)], k):
            yield shape, "all"
    for shape in dict.fromkeys(map(tuple, _operad_laws_shapes())):
        yield shape, "canonical"


def test_all_operations_match_the_built_graphs():
    counted = 0
    for shape, orderings in enumeration_cases():
        ops = all_operations(shape, orderings)
        assert ops == all_operations_reference(shape, orderings), (shape, orderings)
        # the dedupe the old path ended with never removed anything
        assert len(set(ops)) == len(ops), shape
        for op in ops:
            assert suboperad_member(op)["dioperad"] == (betti_number(op.graph) == 0), op
        counted += len(ops)
    assert counted > 30_000
    # no matching gives the vertexless edge operation: -1 internal edges
    assert suboperad_member(EDGE)["dioperad"] and betti_number(EDGE.graph) == 0


def test_long_chains_are_numbered_like_the_reference():
    # past the lengths any shape above reaches: 40 (1, 1) vertices, each
    # filled by a two-vertex chain or an edge
    chain = all_operations([(1, 1), (1, 1)])[0]
    outer = zgraph_of_graph(linear_graph(40))
    for inner in ({z: chain for z in range(40)}, {z: (EDGE, chain)[z % 2] for z in range(40)}):
        got = prpd_compose(outer, inner)
        assert got == compose_reference(outer, inner)
        assert got.graph.vertices[-1].name == f"v{got.size}" and got.size >= 40


# ---------------------------------------------------------------------------
# free-properad elements numbered from rows, against built graphs


def element_reference(graph, colors, labels, in_order, out_order):
    """``FreeProperad._element`` as it was: each reindexing built as a
    ``Graph`` and normalized, the least by ``(_zkey, labels)`` kept."""
    best = None
    for perm in itertools.permutations(range(len(graph.vertices))):
        reordered = Graph(graph.edges, tuple(graph.vertices[k] for k in perm))
        cand = normalize_reference(reordered, in_order, out_order, dict(colors))
        labs = tuple(labels[graph.vertices[k].name] for k in perm)
        key = (_zkey(cand), labs)
        if best is None or key < best[0]:
            best = (key, cand, labs)
    return ("el", best[1], best[2])


def generator_element_reference(P, vname):
    v = P.generator.vertex(vname)
    g = Graph(tuple(v.ins) + tuple(v.outs), (v,))
    return element_reference(g, {e: e for e in g.edges}, {vname: vname}, v.ins, v.outs)


def subgraph_element_reference(sub):
    g = sub.as_graph
    return element_reference(
        g, {e: e for e in g.edges}, {v: v for v in g.vertex_names}, g.inputs, g.outputs
    )


def pool_reference(P):
    """``FreeProperad._pool`` as it was: bare edges, then every stub
    matching of up to ``vertex_bound`` generators built as a graph."""
    found = {}
    for c in P.colors:
        el = element_reference(Graph(("e",), ()), {"e": c}, {}, ("e",), ("e",))
        found.setdefault(el[1].profile(), set()).add(el)
    for k in range(1, P.vertex_bound + 1):
        for combo in itertools.combinations_with_replacement(P.generator.vertex_names, k):
            stubs = [(v.ins, v.outs) for v in map(P.generator.vertex, combo)]
            for g, colors in _stub_matchings(stubs):
                labels = dict(zip(g.vertex_names, combo))
                el = element_reference(g, colors, labels, g.inputs, g.outputs)
                found.setdefault(el[1].profile(), set()).add(el)
    return found


def act_reference(op, in_perm, out_perm):
    _, zg, labels = op
    g = zg.graph
    in_order = tuple(zg.in_order[in_perm[i]] for i in range(len(zg.in_order)))
    out_order = tuple(zg.out_order[out_perm[j]] for j in range(len(zg.out_order)))
    return element_reference(
        g, dict(zip(g.edges, zg.colors)), dict(zip(g.vertex_names, labels)), in_order, out_order
    )


def ops_reference(pool, ins, outs):
    """``FreeProperad.ops`` as it was, over the reference pool and action."""
    out = set(pool.get((ins, outs), ()))
    for (pins, pouts), els in pool.items():
        if sorted(pins) != sorted(ins) or sorted(pouts) != sorted(outs):
            continue
        for el in els:
            for ip in properad._color_permutations(pins, ins):
                for op_ in properad._color_permutations(pouts, outs):
                    out.add(act_reference(el, ip, op_))
    return tuple(sorted(out, key=repr))


def evaluate_reference(P, dec):
    """``FreeProperad.evaluate`` as it was, over the substitute-then-
    renumber composition."""
    assert P.check_decoration(dec)
    outer = normalize_reference(check(dec.graph), dec.in_order, dec.out_order, dec.color_of)
    elements = [dec.label_of[name] for name in dec.graph.vertex_names]
    zg = compose_reference(outer, {z: el[1] for z, el in enumerate(elements)})
    g = zg.graph
    return element_reference(
        g, dict(zip(g.edges, zg.colors)),
        dict(zip(g.vertex_names, (lab for el in elements for lab in el[2]))),
        zg.in_order, zg.out_order,
    )


FREE_GENERATORS = [(name, getattr(zoo, name)()) for name in sorted(dir(zoo)) if name.endswith("_graph")]
FREE_GENERATORS += [("linear_graph_3", linear_graph(3)), ("corolla_2_2", corolla(2, 2))]


def decorations(P):
    """Decorated graphs to evaluate: every pool element's own graph with
    its generators as labels, and, on a connected generator, each
    structured subgraph with generator labels and its witness with the
    subgraph's element at the collapsed vertex."""
    for els in P._pool.values():
        for _, zg, labels in sorted(els, key=repr):
            g = zg.graph
            yield decorated_graph(
                g, zg.color_of, {v: P.generator_element(lab) for v, lab in zip(g.vertex_names, labels)},
                zg.in_order, zg.out_order,
            )
    g = P.generator
    if not digraph.is_connected(g):
        return
    for sub in structured_subgraphs(g):
        h = sub.as_graph
        yield decorated_graph(h, {e: e for e in h.edges}, {v: P.generator_element(v) for v in h.vertex_names})
        data = subgraph_witness(sub)
        labels = {v: P.generator_element(v) for v in g.vertex_names}
        labels[data.vertex] = P.subgraph_element(sub)
        yield decorated_graph(
            data.outer,
            {e: e for e in data.outer.edges} | dict(data.bij_out),
            {v: labels[v] for v in data.outer.vertex_names},
            g.inputs,
            tuple({x: e for e, x in data.bij_out}.get(e, e) for e in g.outputs),
        )


@pytest.mark.parametrize("g", [g for _, g in FREE_GENERATORS], ids=[name for name, _ in FREE_GENERATORS])
def test_free_properad_matches_the_built_graphs(g):
    rng = random.Random(len(g.edges))
    P = free_properad(g, vertex_bound=4)
    pool = pool_reference(P)
    assert P._pool == pool
    for ins, outs in pool:
        for profile in ((ins, outs), (ins[::-1], outs[::-1])):
            assert P.ops(*profile) == ops_reference(pool, *profile), profile
    for v in g.vertex_names:
        assert P.generator_element(v) == generator_element_reference(P, v)
    if digraph.is_connected(g):
        for sub in structured_subgraphs(g):
            assert P.subgraph_element(sub) == subgraph_element_reference(sub)
    for els in pool.values():
        for el in sorted(els, key=repr):
            _, zg, _ = el
            args = shuffled(rng, len(zg.in_order)), shuffled(rng, len(zg.out_order))
            assert P.act(el, *args) == act_reference(el, *args)
    decs = list(decorations(P))
    assert [P.evaluate(dec) for dec in decs] == [evaluate_reference(P, dec) for dec in decs]
    assert len(decs) >= sum(map(len, pool.values()))


@pytest.mark.parametrize("in_perm, out_perm", [((0, 0), (0, 1)), ((0, 1), (1, 1))])
def test_free_act_rejects_a_non_permutation_like_the_reference(in_perm, out_perm):
    P = free_properad(corolla(2, 2), vertex_bound=1)
    el = P.generator_element("v")
    with pytest.raises(ProfileMismatch) as got:
        P.act(el, in_perm, out_perm)
    with pytest.raises(ProfileMismatch) as expected:
        act_reference(el, in_perm, out_perm)
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# the direct paths, pinned by counters


def test_compose_and_normalize_neither_substitute_nor_search(monkeypatch):
    # operations are numbered from their rows (DECISIONS.md D15); only the
    # cartesian lift still substitutes
    substitutions, forms = [], []
    substitute, canonical_form = digraph.multi_substitute, digraph.canonical_form

    def counted_substitute(outer, assignment):
        substitutions.append(outer)
        return substitute(outer, assignment)

    def counted_form(g, *args, **kwargs):
        forms.append(g)
        return canonical_form(g, *args, **kwargs)

    for module in (digraph, properad):
        monkeypatch.setattr(module, "multi_substitute", counted_substitute)
        monkeypatch.setattr(module, "canonical_form", counted_form, raising=False)
    pool = inner_pool()
    ops = [op for shape in _operad_laws_shapes() if len(shape) <= 2 for op in all_operations(shape)]
    for op in ops:
        family = {z: pool[b][-1] for z, b in enumerate(op.vertex_biarities())}
        composite = prpd_compose(op, family)
        sigma_action(composite, tuple(reversed(range(composite.size))))
        zgraph(op.graph, op.in_order, op.out_order)
        stabilizer(op)
    prpd_compose(zgraph_of_graph(linear_graph(2)), {0: EDGE, 1: EDGE})
    assert ops and substitutions == [] and forms == []
    op = ops[-1]
    family = tuple(identity_operation(*b) for b in op.vertex_biarities())
    arrow = OperadArrow(op.vertex_biarities(), theta_object(op.graph), tuple(range(op.size)), family)
    cartesian_lift_active(op.graph, arrow)
    assert len(substitutions) == 1


def test_enumeration_neither_normalizes_nor_counts_cycles(monkeypatch):
    # matchings are numbered from their stub keys, and the dioperad flag
    # is read from counts (DECISIONS.md D16)
    normalized, searched = [], []
    normalize, betti = properad._normalize, digraph.betti_number
    monkeypatch.setattr(
        properad, "_normalize", lambda *args: normalized.append(args) or normalize(*args)
    )
    monkeypatch.setattr(digraph, "betti_number", lambda g: searched.append(g) or betti(g))
    assert not hasattr(properad, "betti_number")
    ops = [op for shape in _operad_laws_shapes() if len(shape) <= 2 for op in all_operations(shape)]
    ops += all_operations([(1, 2), (2, 1)], orderings="all")
    flags = [suboperad_member(op) for op in ops]
    assert ops and flags and normalized == [] and searched == []
    # the counters see the work they are meant to count
    zgraph(ops[-1].graph, ops[-1].in_order, ops[-1].out_order)
    digraph.is_simply_connected(ops[-1].graph)
    assert len(normalized) == 1 and len(searched) == 1


def test_free_elements_neither_normalize_nor_build_reindexings(monkeypatch):
    # each reindexing is numbered from rows (DECISIONS.md D17); evaluate
    # checks its decorated graph as zgraph does (D4) but does not number it
    normalized = []
    normalize = properad._normalize
    monkeypatch.setattr(
        properad, "_normalize", lambda *args: normalized.append(args) or normalize(*args)
    )
    P = free_properad(three_vertex_graph(), vertex_bound=4)
    els = [el for els in P._pool.values() for el in els]
    for el in els:
        _, zg, _ = el
        P.act(el, tuple(reversed(range(len(zg.in_order)))), tuple(reversed(range(len(zg.out_order)))))
    assert els and normalized == []
    decs = list(decorations(P))
    for dec in decs:
        P.evaluate(dec)
    assert decs and normalized == []


def test_free_evaluate_checks_its_input_like_zgraph():
    # evaluate checks the decorated graph as zgraph does, without
    # numbering it: mismatched labels, a boundary order that is not the
    # boundary, and a disconnected graph are each refused
    g = three_vertex_graph()
    P = free_properad(g, vertex_bound=4)
    colors = {e: e for e in g.edges}
    labels = {v: P.generator_element(v) for v in g.vertex_names}
    whole = P.evaluate(decorated_graph(g, colors, labels))
    assert whole == P.evaluate(decorated_graph(g, colors, labels, g.inputs, g.outputs))
    with pytest.raises(ColorMismatch, match="decoration does not match vertex profiles"):
        P.evaluate(decorated_graph(g, colors, labels | {"v": P.generator_element("u")}))
    with pytest.raises(ProfileMismatch, match="in_order must enumerate the graph inputs"):
        P.evaluate(decorated_graph(g, colors, labels, ("b",), g.outputs))
    with pytest.raises(ProfileMismatch, match="out_order must enumerate the graph outputs"):
        P.evaluate(decorated_graph(g, colors, labels, g.inputs, ("e", "e")))
    u, w = g.vertex("u"), g.vertex("w")
    apart = Graph(("a", "b", "d", "c", "x", "e"), (u, Vertex("w", ("c", "x"), ("e",))))
    with pytest.raises(GraphcatError, match="indexed graphs must be connected"):
        P.evaluate(decorated_graph(
            apart, colors | {"x": "d"}, {"u": labels["u"], "w": labels["w"]},
        ))
