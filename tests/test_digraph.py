import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from graphcat.digraph import (
    _vertex_orders,
    boundary,
    canonical_form,
    connected_components,
    corolla,
    edge_graph,
    edge_subgraph,
    graph,
    graph_to_json,
    is_connected,
    is_convex_open,
    linear_graph,
    multi_substitute,
    open_intersection,
    open_subgraph,
    open_union,
    strict_iso,
    structured_subgraphs,
    subgraph_witness,
    substitute,
    substitution_data,
    tilde_union,
    topological_vertices,
    validate,
    vertex_corolla,
    whole_subgraph,
)
from graphcat.errors import (
    ConnectivityError,
    GraphcatError,
    OpennessViolation,
    ProfileMismatch,
    SizeLimit,
)
from graphcat.zoo import three_vertex_graph, two_component_graph


G3 = three_vertex_graph()


def brute_force_structured(g):
    """Oracle: every open connected subset passing path convexity.

    Convexity is checked directly from the definition, by enumerating
    all directed paths of the parent and testing the ones whose first
    and last edges lie in the candidate.
    """
    paths = []

    def extend(path):
        last = path[-1]
        v = g.in_vertex.get(last)
        paths.append(tuple(path))
        if v is None:
            return
        for nxt in g.vertex(v).outs:
            extend(path + [nxt])

    for e in g.edges:
        extend([e])

    def path_inside(path, edges, vertices):
        for e in path:
            if e not in edges:
                return False
        for a, b in zip(path, path[1:]):
            if g.in_vertex[a] not in vertices:
                return False
        return True

    found = set()
    names = g.vertex_names
    for r in range(0, len(names) + 1):
        for combo in itertools.combinations(names, r):
            sub = open_subgraph(g, combo)
            candidates = [sub] if combo else [
                open_subgraph(g, (), (e,)) for e in g.edges
            ]
            for cand in candidates:
                sg = cand.as_graph
                if not sg.edges:
                    continue
                if not is_connected(sg):
                    continue
                convex = True
                for path in paths:
                    if path[0] in cand.edge_names and path[-1] in cand.edge_names:
                        if not path_inside(path, cand.edge_names, cand.vertex_names_set):
                            convex = False
                            break
                if convex:
                    found.add((tuple(sorted(cand.edge_names)),
                               tuple(sorted(cand.vertex_names_set))))
    return found


def test_validate_trivial_cases():
    assert validate(edge_graph()) is None
    assert validate(G3) is None


def test_validate_mono_violation():
    bad = graph("ab", [("u", "a", ""), ("v", "a", "b")])
    report = validate(bad)
    assert report is not None and report.kind == "MonoViolation"


def test_validate_cycle():
    bad = graph("ab", [("u", "a", "b"), ("v", "b", "a")])
    report = validate(bad)
    assert report is not None and report.kind == "CycleViolation"


def test_boundary():
    e = edge_graph()
    assert boundary(e) == (("e",), ("e",))
    assert boundary(G3) == (("a",), ("e",))
    ins, outs = boundary(corolla(2, 3))
    assert len(ins) == 2 and len(outs) == 3


def test_connected_components():
    assert len(connected_components(G3)) == 1
    assert len(connected_components(two_component_graph())) == 2
    both = graph(
        list(G3.edges) + ["x"], [(v.name, v.ins, v.outs) for v in G3.vertices]
    )
    assert len(connected_components(both)) == 2


def test_convexity_three_vertex():
    uw = open_subgraph(G3, ("u", "w"))
    uv = open_subgraph(G3, ("u", "v"))
    assert not is_convex_open(uw)
    assert is_convex_open(uv)
    for e in G3.edges:
        assert is_convex_open(open_subgraph(G3, (), (e,)))


def test_openness_precondition():
    sub = open_subgraph(G3, ("v",))
    closed = type(sub)(G3, sub.edge_names - {"b"}, sub.vertex_names_set)
    with pytest.raises(OpennessViolation):
        is_convex_open(closed)


def test_structured_subgraphs_counts():
    assert len(structured_subgraphs(edge_graph())) == 1
    assert len(structured_subgraphs(G3)) == 11
    assert len(structured_subgraphs(corolla(2, 3))) == 2 + 3 + 1


def test_structured_subgraphs_against_oracle():
    for g in (G3, corolla(2, 3), linear_graph(3)):
        got = {s.key() for s in structured_subgraphs(g)}
        assert got == brute_force_structured(g)


def test_structured_contains_edges_corollas_whole():
    subs = {s.key() for s in structured_subgraphs(G3)}
    for e in G3.edges:
        assert edge_subgraph(G3, e).key() in subs
    for v in G3.vertex_names:
        assert vertex_corolla(G3, v).key() in subs
    assert whole_subgraph(G3).key() in subs


def test_structured_requires_connected():
    with pytest.raises(ConnectivityError):
        structured_subgraphs(two_component_graph())


def test_tilde_union():
    cu = vertex_corolla(G3, "u")
    cv = vertex_corolla(G3, "v")
    cw = vertex_corolla(G3, "w")
    uv = tilde_union(cu, cv)
    assert uv is not None and uv.vertex_names_set == {"u", "v"}
    assert tilde_union(cu, cw) is None
    assert tilde_union(uv, uv).key() == uv.key()


def test_tilde_union_least_upper_bound():
    subs = structured_subgraphs(G3)
    for h1 in subs:
        for h2 in subs:
            join = tilde_union(h1, h2)
            if join is None:
                continue
            uppers = [s for s in subs if h1 <= s and h2 <= s]
            least = min(uppers, key=lambda s: (len(s.edge_names), len(s.vertex_names_set)))
            assert join.key() == least.key()
            for s in uppers:
                assert join <= s


def test_intersection_not_always_structured():
    cu = vertex_corolla(G3, "u")
    cw = vertex_corolla(G3, "w")
    meet = open_intersection(cu, cw)
    assert meet.edge_names == {"d"}
    assert is_convex_open(meet)  # a single edge is structured


def test_substitute_corolla_is_identity():
    for v in G3.vertex_names:
        c = vertex_corolla(G3, v).as_graph
        data = substitution_data(G3, c, v, bij_in=[(e, e) for e in G3.vertex(v).ins],
                                 bij_out=[(e, e) for e in G3.vertex(v).outs])
        assert strict_iso(substitute(data), G3)


def test_substitute_edge_merges():
    lin = linear_graph(2)
    data = substitution_data(lin, edge_graph(), "v1")
    result = substitute(data)
    assert strict_iso(result, linear_graph(1))
    # the merged edge keeps the input-side identifier
    assert "e0" in result.edges and "e1" not in result.edges


def test_substitute_profile_mismatch():
    with pytest.raises(ProfileMismatch):
        substitute(substitution_data(G3, corolla(2, 2), "v"))
    # a bijection naming an edge the graph does not have
    with pytest.raises(ProfileMismatch):
        multi_substitute(G3, {"v": (corolla(1, 1), [("nope", "i1")], [("c", "o1")])})


def test_substitute_disconnected_inner_raises():
    # one input and one output, as v of linear_graph(2) has, on two
    # vertices that share no edge
    split = graph(["i", "o"], [("a", ["i"], []), ("b", [], ["o"])])
    with pytest.raises(ConnectivityError):
        substitute(substitution_data(linear_graph(2), split, "v1"))
    # nor the empty graph at a vertex with no edges
    with pytest.raises(ConnectivityError):
        substitute(substitution_data(corolla(0, 0), graph([], []), "v"))


def test_substitute_unknown_vertex_raises():
    data = substitution_data(G3, corolla(1, 1), "v")
    with pytest.raises(KeyError):
        substitute(dataclasses.replace(data, vertex="nope"))


def test_substitute_boundary_preserved():
    inner = corolla(1, 2, name="z")
    data = substitution_data(G3, inner, "u")
    result = substitute(data)
    assert validate(result) is None
    assert boundary(result) == boundary(G3)


def test_substitution_witness_roundtrip():
    for sub in structured_subgraphs(G3):
        data = subgraph_witness(sub)
        rebuilt = substitute(data)
        assert strict_iso(rebuilt, G3)


def test_multi_substitute_collapses_vertex():
    assignment = {
        "u": vertex_corolla(G3, "u").as_graph,
        "v": edge_graph("m"),
        "w": vertex_corolla(G3, "w").as_graph,
    }
    result, corr = multi_substitute(G3, assignment)
    expected = graph(
        ["a", "b", "d", "e"],
        [("p", "a", "bd"), ("q", "bd", "e")],
    )
    assert strict_iso(result, expected)
    assert corr.outer_edge["b"] == corr.outer_edge["c"]


def test_multi_substitute_associativity_random():
    rng = random.Random(0)
    pool = [corolla(1, 1), linear_graph(2), corolla(1, 2), corolla(2, 1)]
    for _ in range(25):
        outer = linear_graph(2)
        inner_u = rng.choice([g for g in pool if g.inputs and g.outputs])

        def arity_match(g, v):
            return len(g.inputs) == len(v.ins) and len(g.outputs) == len(v.outs)

        v1 = outer.vertex("v1")
        if not arity_match(inner_u, v1):
            continue
        one, _ = multi_substitute(outer, {"v1": inner_u})
        direct = substitute(substitution_data(outer, inner_u, "v1"))
        assert strict_iso(one, direct)

    # every vertex at once against one vertex at a time, names and all,
    # on random outers whose names collide with the fresh ones
    primed = chains = 0
    for _ in range(300):
        outer = _random_outer(rng)
        assignment = {
            v.name: _random_inner(rng, v)
            for v in outer.vertices
            if rng.random() < 0.8
        }
        result, corr = multi_substitute(outer, assignment)
        reference, *tables = _one_vertex_at_a_time(outer, assignment)
        assert validate(result) is None
        assert graph_to_json(result) == graph_to_json(reference)
        assert [corr.outer_edge, corr.inner_edge, corr.inner_vertex] == tables
        primed += any("'" in name for name in corr.inner_vertex.values())
        chains += max(Counter(corr.outer_edge.values()).values(), default=0) > 2
    assert primed > 10 and chains > 10


# outer names that the fresh names ``<vertex>.<name>`` run into
COLLIDING_EDGES = ["a", "b", "c", "d", "v1.x", "v2.x", "v3.x", "v2.e1", "v3.v1", "v1"]
COLLIDING_VERTICES = ["v1", "v2", "v3", "v1.x", "v2.v1"]


def _random_outer(rng):
    """A valid graph: a chain of (1,1) vertices, or a random acyclic one,
    with its vertices listed in a random order."""
    names = rng.sample(COLLIDING_VERTICES, rng.randint(1, 4))
    edges = iter(rng.sample(COLLIDING_EDGES, len(COLLIDING_EDGES)))
    vertices, dangling = [], []
    if rng.random() < 0.5:
        first = next(edges)
        for name in names:
            out = next(edges)
            vertices.append((name, [first], [out]))
            first = out
    else:
        for name in names:
            ins = [
                dangling.pop(rng.randrange(len(dangling)))
                if dangling and rng.random() < 0.6 else next(edges)
                for _ in range(rng.randint(0, 2))
            ]
            outs = [next(edges) for _ in range(rng.randint(0, 2))]
            dangling.extend(outs)
            vertices.append((name, ins, outs))
    rng.shuffle(vertices)
    used = [e for _, ins, outs in vertices for e in ins + outs]
    return graph(sorted(set(used)) or ["a"], vertices)


def _random_inner(rng, v):
    """A connected graph with the biarity of ``v`` and a shuffled pairing."""
    m, n = v.biarity()
    ins = [f"i{k}" for k in range(m)]
    outs = [f"o{k}" for k in range(n)]
    choice = rng.randrange(4)
    if (m, n) == (1, 1) and choice in (0, 3):
        inner = edge_graph(rng.choice(["x", "e1"]))
    elif choice == 1:
        inner = graph(ins + ["x"] + outs, [("v1", ins, ["x"]), ("x", ["x"], outs)])
    else:
        inner = corolla(m, n, name=rng.choice(["v1", "x"]))
    bij_in = list(zip(v.ins, rng.sample(inner.inputs, m)))
    bij_out = list(zip(v.outs, rng.sample(inner.outputs, n)))
    return inner, bij_in, bij_out


def _one_vertex_at_a_time(outer, assignment):
    """Reference: substitute each vertex in turn, following every
    bijection and correspondence through the merges made so far."""
    current = outer
    outer_edge = {e: e for e in outer.edges}
    inner_edge, inner_vertex = {}, {}
    for name in outer.vertex_names:
        if name not in assignment:
            continue
        inner, bij_in, bij_out = assignment[name]
        data = substitution_data(
            current, inner, name,
            {outer_edge[e]: x for e, x in bij_in},
            {outer_edge[e]: x for e, x in bij_out},
        )
        step = substitute(data)
        _, corr = multi_substitute(current, {name: (inner, data.bij_in, data.bij_out)})
        outer_edge = {e: corr.outer_edge[x] for e, x in outer_edge.items()}
        inner_edge = {k: corr.outer_edge[x] for k, x in inner_edge.items()}
        inner_edge.update(corr.inner_edge)
        inner_vertex.update(corr.inner_vertex)
        current = step
    return current, outer_edge, inner_edge, inner_vertex


def test_nested_substitution_associative():
    # K = G'(H'(H)) vs (G'(H'))(H) on a seeded family of small cases
    rng = random.Random(7)
    for _ in range(20):
        outer = corolla(1, 1)
        mid = linear_graph(2)
        inner = rng.choice([corolla(1, 1, name="z"), linear_graph(1)])
        # substitute inner into v1 of mid, then the result into the corolla,
        # versus substituting mid first and then inner into the image of v1.
        mid_inner = substitute(substitution_data(mid, inner, "v1"))
        left = substitute(substitution_data(outer, mid_inner, "v"))
        step = substitute(substitution_data(outer, mid, "v"))
        name = "v.v1"
        right = substitute(substitution_data(step, inner, name))
        assert strict_iso(left, right)


def test_canonical_form_idempotent():
    c1, _, _ = canonical_form(G3)
    c2, _, _ = canonical_form(c1)
    assert c1 == c2


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(3)
    base, _, _ = canonical_form(G3)
    for _ in range(20):
        edges = list(G3.edges)
        rng.shuffle(edges)
        emap = dict(zip(G3.edges, edges))
        names = list(G3.vertex_names)
        rng.shuffle(names)
        vmap = dict(zip(G3.vertex_names, names))
        perm = graph(
            sorted(emap.values()),
            [
                (vmap[v.name], [emap[e] for e in v.ins], [emap[e] for e in v.outs])
                for v in G3.vertices
            ],
        )
        got, _, _ = canonical_form(perm)
        assert got == base


def test_canonical_form_sees_orderings():
    flipped = graph(
        "abcde",
        [("u", "a", "bd"), ("v", "b", "c"), ("w", "dc", "e")],
    )
    assert not strict_iso(G3, flipped)


def test_strict_iso_positive_and_negative():
    assert strict_iso(corolla(2, 1), corolla(2, 1, name="other"))
    assert not strict_iso(corolla(2, 1), corolla(1, 2))


# ---------------------------------------------------------------------------
# canonical forms against the parent's edge numbering


def _edge_numbering(g, vorder, edge_label):
    """The parent's numbering, kept as a test-side reference: outputs by
    vertex, then attached inputs by consumer and position, then loose
    edges (sorted by ``edge_label`` when given)."""
    vpos = {name: i for i, name in enumerate(vorder)}
    eid = {}
    counter = itertools.count(1)
    for name in vorder:
        for e in g.vertex(name).outs:
            eid[e] = next(counter)
    attached_inputs = sorted(
        (vpos[g.in_vertex[e]], g.vertex(g.in_vertex[e]).ins.index(e), e)
        for e in g.inputs
        if e in g.in_vertex
    )
    for _, _, e in attached_inputs:
        eid[e] = next(counter)
    loose = [e for e in g.edges if e not in eid]
    if edge_label:
        loose.sort(key=lambda e: repr(edge_label(e)))
    for e in loose:
        eid[e] = next(counter)
    return eid


def _certificate(g, vorder):
    eid = _edge_numbering(g, vorder, None)
    rows = tuple(
        (
            tuple(eid[e] for e in g.vertex(name).ins),
            tuple(eid[e] for e in g.vertex(name).outs),
        )
        for name in vorder
    )
    return (len(g.edges), rows, (), (), ()), eid


def canonical_form_reference(g):
    """``canonical_form`` as it was: the least certificate of integer
    rows over the refinement-compatible vertex orders, the first order
    reaching it kept."""
    best = None
    for order in _vertex_orders(g, order_sensitive=True):
        cert, eid = _certificate(g, order)
        if best is None or cert < best[0]:
            best = (cert, order, eid)
    _, order, eid = best
    edge_map = {e: f"e{eid[e]}" for e in g.edges}
    vertex_map = {name: f"v{i+1}" for i, name in enumerate(order)}
    edges = tuple(f"e{k}" for k in range(1, len(g.edges) + 1))
    vs = tuple(
        (vertex_map[name], [edge_map[e] for e in g.vertex(name).ins],
         [edge_map[e] for e in g.vertex(name).outs])
        for name in order
    )
    return graph(edges, vs), edge_map, vertex_map


@st.composite
def ordered_graphs(draw):
    """Valid ordered graphs, connected or not: up to five vertices, where
    vertex i may feed vertex j only when i < j, loose ends, up to three
    edges without a vertex, and shuffled vertex orders, vertex list and
    edge list.  Edges are named ``e<k>`` in a drawn order, so that the
    order of their names disagrees with reading order."""
    n = draw(st.integers(0, 5))
    ins, outs, edges = [[] for _ in range(n)], [[] for _ in range(n)], []
    for i, j in itertools.combinations(range(n), 2):
        for _ in range(draw(st.integers(0, 2))):
            outs[i].append(len(edges))
            ins[j].append(len(edges))
            edges.append(len(edges))
    for side in ins + outs:
        for _ in range(draw(st.integers(0, 2))):
            side.append(len(edges))
            edges.append(len(edges))
    edges.extend(range(len(edges), len(edges) + draw(st.integers(0, 3))))
    name = dict(zip(edges, draw(st.permutations([f"e{k}" for k in range(1, len(edges) + 1)]))))
    vs = [
        (f"w{i}", [name[e] for e in draw(st.permutations(ins[i]))],
         [name[e] for e in draw(st.permutations(outs[i]))])
        for i in draw(st.permutations(range(n)))
    ]
    return graph(draw(st.permutations([name[e] for e in edges])), vs)


def renamed_copy(g, rng):
    """The same ordered graph under fresh edge and vertex names, with the
    vertex list and the edge list shuffled."""
    fresh = [f"e{k}" for k in range(1, len(g.edges) + 1)]
    rng.shuffle(fresh)
    name = dict(zip(g.edges, fresh))
    vs = [
        (f"u{rng.randrange(100)}_{v.name}", [name[e] for e in v.ins], [name[e] for e in v.outs])
        for v in g.vertices
    ]
    rng.shuffle(vs)
    rng.shuffle(fresh)
    return graph(fresh, vs)


# two equal components, so several orders reach the least certificate
TWO_CHAINS = graph("abcdef", [("p", "a", "b"), ("q", "b", "c"), ("r", "d", "e"), ("s", "e", "f")])
# three edges without a vertex around a corolla
BARE_EDGES = graph("zyxab", [("v", "a", "b")])
# 15 edges, and vertices w3 and w4 of one class: the third rows of the
# two orders first differ where one numbers an edge 11 and the other 9,
# which as names ("e11" < "e9") would compare the other way
WIDE = graph(
    [f"x{k}" for k in range(15)],
    [("w0", ["x9"], ["x0", "x3", "x1", "x2", "x11", "x4"]),
     ("w1", ["x0"], ["x13", "x12"]),
     ("w4", ["x7", "x4", "x8"], []),
     ("w3", ["x6", "x3", "x5"], []),
     ("w2", ["x2", "x10", "x1"], ["x7", "x5", "x6", "x8", "x14"])],
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ordered_graphs(), st.randoms(use_true_random=False))
@example(TWO_CHAINS, random.Random(0))
@example(BARE_EDGES, random.Random(1))
@example(WIDE, random.Random(2))
def test_canonical_form_matches_the_parent_numbering(g, rng):
    assert validate(g) is None
    form = canonical_form(g)
    assert form == canonical_form_reference(g)
    copy = renamed_copy(g, rng)
    assert canonical_form(copy) == canonical_form_reference(copy)
    assert canonical_form(copy)[0] == form[0]


@pytest.mark.parametrize("combine", [open_intersection, open_union])
def test_open_subgraphs_of_different_parents_do_not_combine(combine):
    with pytest.raises(GraphcatError, match="^subgraphs of different parents$"):
        combine(open_subgraph(G3, ["u"]), open_subgraph(linear_graph(1), ["v1"]))


def test_canonical_form_refuses_too_many_vertex_orders():
    # refinement cannot tell nine leaves of one centre apart: 9! orders
    leaves = [f"e{k}" for k in range(9)]
    star = graph(leaves, [("c", [], leaves)] + [(f"w{e}", [e], []) for e in leaves])
    with pytest.raises(SizeLimit, match="^canonical form search space too large$"):
        canonical_form(star)


def test_graphs_of_different_sizes_are_not_strictly_isomorphic():
    assert not strict_iso(linear_graph(1), linear_graph(2))


def test_topological_vertices_refuses_a_cycle():
    cyclic = graph("ab", [("u", "a", "b"), ("w", "b", "a")])
    with pytest.raises(GraphcatError, match="^graph has a directed cycle$"):
        topological_vertices(cyclic)
