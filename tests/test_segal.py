import itertools
import random

import pytest

from graphcat.digraph import (
    Graph,
    OpenSubgraph,
    Vertex,
    corolla,
    edge_graph,
    linear_graph,
    unordered_canonical_form,
    vertex_corolla,
    whole_subgraph,
)
from graphcat.errors import ColorMismatch, GraphcatError, NotSegal
from graphcat.graphical import (
    compose_graphical,
    graphical_morphism,
    hom_set,
    identity_graphical,
    validate_graphical,
)
from graphcat.level import (
    compose_level,
    derived_class_map,
    elementary_corolla,
    elementary_edge,
    hom_level,
    is_connected_level,
    level_graph,
    level_morphism,
    linear_level_graph,
    special_extension,
    tau,
)
from graphcat.properad import (
    decorated_graph,
    end_properad,
    free_properad,
    terminal_properad,
)
from graphcat.segal import (
    GRAPHICAL,
    Corpus,
    Cover,
    build_corpus,
    build_level_corpus,
    elementary_cover,
    extract_properad,
    is_segal,
    nerve,
    nerve_level,
    representable_level_presheaf,
    representable_presheaf,
    segal_limit,
    segal_map,
    segmentation_check,
    segmentation_local,
    FinitePresheaf,
)
from graphcat.zoo import (
    closed_double_edge_graph,
    closed_square_graph,
    double_edge_graph,
    three_vertex_graph,
)


def g3_corpus():
    return build_corpus([three_vertex_graph()])


def pair_corpus():
    return build_corpus(
        [closed_square_graph(), closed_double_edge_graph()], max_vertices=4
    )


def test_corpus_contains_edge_and_corollas():
    corpus = g3_corpus()
    assert corpus.edge_index is not None
    assert (1, 2) in corpus.corolla_index
    assert (2, 1) in corpus.corolla_index
    assert (1, 1) in corpus.corolla_index


def test_elementary_cover_counts():
    corpus = g3_corpus()
    gi = next(
        i for i, g in enumerate(corpus.objects) if len(g.vertices) == 3
    )
    cover = elementary_cover(corpus, gi)
    assert len(cover.vertex_entries) == 3
    assert len(cover.edge_entries) == 5
    assert len(cover.connections) == 8


def test_cover_for_single_edge():
    corpus = g3_corpus()
    cover = elementary_cover(corpus, corpus.edge_index)
    assert cover.vertex_entries == ()
    assert len(cover.edge_entries) == 1


def test_nerve_of_terminal_is_singletons():
    corpus = g3_corpus()
    N = nerve(terminal_properad(("*",)), corpus)
    assert all(len(v) == 1 for v in N.values)
    assert N.check_functorial()
    assert is_segal(N) == (True, None)


def test_nerve_counts_on_corolla():
    corpus = build_corpus([corolla(1, 1)])
    P = end_properad({"c": 2, "d": 2})
    N = nerve(P, corpus)
    ci = corpus.corolla_index[(1, 1)]
    # 2x2 colorings, 4 functions per coloring
    assert len(N.value(ci)) == 16


def test_nerve_is_segal_and_functorial():
    corpus = g3_corpus()
    for P in (end_properad({"c": 2}), end_properad({"c": 2, "d": 1})):
        N = nerve(P, corpus)
        assert N.check_functorial(max_pairs=1500)
        assert is_segal(N) == (True, None)


def test_segal_limit_matches_decorations():
    corpus = g3_corpus()
    P = end_properad({"c": 2})
    N = nerve(P, corpus)
    gi = next(i for i, g in enumerate(corpus.objects) if len(g.vertices) == 3)
    limit = segal_limit(N, gi)
    assert len(limit) == len(N.value(gi))


def test_representable_fails_segal():
    corpus = pair_corpus()
    k2 = next(
        i for i, g in enumerate(corpus.objects)
        if len(g.vertices) == 2 and not g.inputs and not g.outputs
    )
    R = representable_presheaf(corpus, k2)
    assert R.check_functorial(max_pairs=1500)
    flag, witness = is_segal(R)
    assert not flag
    # the square itself certifies the failure: it has no maps to the
    # double edge, yet compatible elementary families exist
    sq = next(
        i for i, g in enumerate(corpus.objects) if len(g.vertices) == 4
    )
    assert len(R.value(sq)) == 0
    assert len(segal_limit(R, sq)) > 0


def with_phantom(N, gi):
    """N with a copy of its first element at object gi, restricting as
    the original does; the comparison at gi is then not injective.

    Every table out of F(A_gi) gets one more entry, for the phantom's
    position: the phantom itself along the identity, else the position
    the first element restricts to."""
    corpus = N.corpus
    values = list(N.values)
    phantom = len(values[gi])
    values[gi] = values[gi] + (("phantom",),)
    ident_k = corpus.hom_index(gi, gi, corpus.identity_of(gi))
    restrictions = {}
    for (i, j, k), table in N.restrictions.items():
        if j == gi:
            table = table + ((phantom,) if (i, k) == (gi, ident_k) else (table[0],))
        restrictions[(i, j, k)] = table
    return FinitePresheaf(corpus, tuple(values), restrictions)


def element_table(F, i, j, k):
    """The table ``F.restrictions[(i, j, k)]`` read on elements: each
    value at A_j -> its restriction, a value at A_i."""
    table = F.restrictions[(i, j, k)]
    assert len(table) == len(F.values[j]), (i, j, k)
    return {x: F.values[i][p] for x, p in zip(F.values[j], table)}


def test_broken_fiber_fails_with_witness():
    corpus = g3_corpus()
    P = terminal_properad(("*",))
    N = nerve(P, corpus)
    gi = next(i for i, g in enumerate(corpus.objects) if len(g.vertices) == 3)
    # duplicate an element of F(G3): restrictions reuse the original's
    broken = with_phantom(N, gi)
    assert broken.check_functorial(max_pairs=500)
    flag, witness = is_segal(broken)
    assert not flag and witness == gi


def test_extract_roundtrip_end_properad():
    corpus = build_corpus([linear_graph(2), corolla(2, 1)])
    P = end_properad({"c": 2})
    N = nerve(P, corpus)
    Q = extract_properad(N)
    c = Q.colors[0]
    # per-profile bijections against P
    for m, n in corpus.corolla_index:
        p_ops = P.ops(("c",) * m, ("c",) * n)
        q_ops = Q.ops((c,) * m, (c,) * n)
        assert len(p_ops) == len(q_ops)
    # the operation of a corolla decoration lies in P's operations
    # between the colours of the corolla's inputs and outputs
    ci = corpus.corolla_index[(2, 1)]
    c21 = corpus.graphs[ci]
    cv = c21.vertices[0]
    for coloring, ops in N.value(ci):
        colour = dict(zip(c21.edges, coloring))
        ins = tuple(colour[e] for e in cv.ins)
        outs = tuple(colour[e] for e in cv.outs)
        assert ops[0] in P.ops(ins, outs)
    # identities correspond
    ident_q = Q.identity(c)
    prof = Q.op_profile(ident_q)
    assert prof == ((c,), (c,))


def test_extract_rejects_a_value_shared_by_two_corollas():
    # a presheaf file stores each object's values as positions 0..n-1, so
    # read back, the corollas (1, 1) and (2, 1) share the values 0..3
    from graphcat import cli
    from graphcat.digraph import graph_to_json

    generators = [corolla(1, 1), corolla(2, 1)]
    N = nerve(end_properad({"c": 2}), build_corpus(generators))
    Q = extract_properad(N)
    assert sum(len(Q.ops((a,), (b,))) for a in Q.colors for b in Q.colors) == 4
    manifest = {"generators": [graph_to_json(g) for g in generators]}
    F = cli._presheaf_from_json(cli._presheaf_to_json(N, manifest))
    with pytest.raises(GraphcatError, match=r"value 0 .*\(1, 1\) and \(2, 1\)"):
        extract_properad(F)


def test_extract_evaluate_matches_flow():
    corpus = build_corpus([linear_graph(2)])
    P = end_properad({"c": 2})
    N = nerve(P, corpus)
    Q = extract_properad(N)
    c = Q.colors[0]
    chain = next(g for g in corpus.objects if len(g.vertices) == 2)
    gi = corpus.object_index(chain)
    ops = Q.ops((c,), (c,))
    # evaluating a decorated chain agrees with the nerve restriction
    # along the long active map, for every decoration
    for f1 in ops:
        for f2 in ops:
            dec = decorated_graph(
                chain,
                {e: c for e in chain.edges},
                {chain.vertex_names[0]: f1, chain.vertex_names[1]: f2},
            )
            val = Q.evaluate(dec)
            assert val in ops


def test_extract_evaluate_rejects_mismatched_colors():
    corpus = build_corpus([linear_graph(2)])
    Q = extract_properad(nerve(end_properad({"a": 1, "b": 2}), corpus))
    ca, cb = Q.colors
    chain = next(g for g in corpus.objects if len(g.vertices) == 2)
    op = Q.ops((cb,), (cb,))[0]
    dec = decorated_graph(
        chain, {e: ca for e in chain.edges}, {v: op for v in chain.vertex_names}
    )
    with pytest.raises(ColorMismatch):
        Q.evaluate(dec)


def test_extract_evaluate_matches_p_on_reordered_graphs():
    # a decoration on a graph isomorphic to a corpus object, with every
    # order permuted, is moved onto the object before evaluation; the
    # result must still be P's evaluation, read through the bijection
    # between Q's operations and P's
    P = end_properad({"c": 2})
    corpus = build_corpus([double_edge_graph()])
    Q = extract_properad(nerve(P, corpus))
    (qc,) = Q.colors
    rnd = random.Random(4)

    def p_ops(v):
        return P.ops(("c",) * len(v.ins), ("c",) * len(v.outs))

    def q_op(p_op):
        ins, outs = P.op_profile(p_op)
        (hit,) = [
            x for x in Q.ops((qc,) * len(ins), (qc,) * len(outs)) if x[1][0] == p_op
        ]
        return hit

    for g in corpus.objects:
        if not g.vertices:
            continue
        for _ in range(10):
            # renamed vertices keep h off the corpus, so it is transported
            h = Graph(g.edges, tuple(
                Vertex("r" + v.name, tuple(rnd.sample(v.ins, len(v.ins))),
                       tuple(rnd.sample(v.outs, len(v.outs))))
                for v in rnd.sample(g.vertices, len(g.vertices))
            ))
            labels = {v.name: rnd.choice(p_ops(v)) for v in h.vertices}
            in_order = rnd.sample(h.inputs, len(h.inputs))
            out_order = rnd.sample(h.outputs, len(h.outputs))
            dec_p = decorated_graph(
                h, {e: "c" for e in h.edges}, labels, in_order, out_order
            )
            dec_q = decorated_graph(
                h, {e: qc for e in h.edges},
                {v: q_op(op) for v, op in labels.items()}, in_order, out_order,
            )
            assert Q.evaluate(dec_q)[1][0] == P.evaluate(dec_p)


def test_nerve_extract_roundtrip_is_natural():
    corpus = build_corpus([linear_graph(2)])
    P = end_properad({"c": 2})
    N = nerve(P, corpus)
    Q = extract_properad(N)
    M = nerve_of_extracted(Q, N)
    # comparison: x -> (edge restrictions, corolla restrictions) is a
    # bijection per object and natural in the corpus
    for gi in range(len(corpus)):
        assert len(M[gi]) == len(N.value(gi))
        assert len(set(M[gi].values())) == len(M[gi])


def nerve_of_extracted(Q, F):
    """The comparison family F(G) -> decorations by the extracted properad."""
    corpus = F.corpus
    out = {}
    for gi, g in enumerate(corpus.objects):
        table = {}
        ei = corpus.edge_index
        edge_obj = corpus.objects[ei]
        for x in F.value(gi):
            colors = []
            for e in g.edges:
                incl = graphical_morphism(
                    edge_obj, g, {edge_obj.edges[0]: e}, {}
                )
                colors.append(F.restrict_along(ei, gi, incl, x))
            ops = []
            for v in g.vertices:
                ci = corpus.corolla_index[v.biarity()]
                cobj = corpus.objects[ci]
                cv = cobj.vertices[0]
                f0 = dict(zip(cv.ins, v.ins)) | dict(zip(cv.outs, v.outs))
                from graphcat.digraph import vertex_corolla

                incl = graphical_morphism(
                    cobj, g, f0, {cv.name: vertex_corolla(g, v.name)}
                )
                ops.append(F.restrict_along(ci, gi, incl, x))
            table[x] = (tuple(colors), tuple(ops))
        out[gi] = table
    return out


def test_extract_requires_segal():
    corpus = pair_corpus()
    k2 = next(
        i for i, g in enumerate(corpus.objects)
        if len(g.vertices) == 2 and not g.inputs and not g.outputs
    )
    R = representable_presheaf(corpus, k2)
    with pytest.raises(NotSegal):
        extract_properad(R)


# ---------------------------------------------------------------------------
# level corpora


def branching_level():
    return level_graph(
        [["a"], ["b", "c"], ["d", "e"]],
        [
            [("u", ["a"], ["b", "c"])],
            [("v", ["b"], ["d"]), ("w", ["c"], ["e"])],
        ],
    )


def level_corpus():
    return build_level_corpus([branching_level(), linear_level_graph(2)])


def test_level_corpus_contains_pieces():
    lc = level_corpus()
    heights = [lg.height for lg in lc.objects]
    assert 0 in heights and 1 in heights and 2 in heights


def test_level_nerve_segal_and_segmentation_agree():
    lc = level_corpus()
    for P in (terminal_properad(("*",)), end_properad({"c": 2})):
        N = nerve_level(P, lc)
        assert N.check_functorial(max_pairs=1000)
        full, short_seg = segmentation_check(N)
        assert full and short_seg


def test_representable_level_presheaves_biimplication():
    lc = level_corpus()
    for xi in range(len(lc)):
        R = representable_level_presheaf(lc, xi)
        full, short_seg = segmentation_check(R)
        assert full == short_seg


def test_broken_level_presheaf_fails_both():
    lc = level_corpus()
    N = nerve_level(terminal_properad(("*",)), lc)
    gi = next(i for i, lg in enumerate(lc.objects) if lg.height == 2)
    full, short_seg = segmentation_check(with_phantom(N, gi))
    assert not full and not short_seg


def test_level_presheaf_broken_at_short_object_fails_both():
    # only a height-1 object is broken, so the short objects alone
    # decide both flags
    lc = level_corpus()
    N = nerve_level(terminal_properad(("*",)), lc)
    gi = next(
        i for i, lg in enumerate(lc.objects)
        if lg.height == 1 and len(lg.vertex_layers[0]) == 2
    )
    broken = with_phantom(N, gi)
    assert is_segal(broken) == (False, gi)
    assert segmentation_check(broken) == (False, False)


def test_level_cover_of_height_two_object():
    lc = level_corpus()
    gi = lc.object_index(branching_level())
    cover = elementary_cover(lc, gi)
    assert isinstance(cover, Cover) and cover.object_index == gi
    assert [(name, ci) for name, ci, _ in cover.vertex_entries] == [
        ("u", lc.corolla_index[(1, 2)]),
        ("v", lc.corolla_index[(1, 1)]),
        ("w", lc.corolla_index[(1, 1)]),
    ]
    for _, ci, incl in cover.vertex_entries:
        assert (incl.source, incl.target) == (lc.objects[ci], lc.objects[gi])
    assert [e for e, _, _ in cover.edge_entries] == ["a", "b", "c", "d", "e"]
    assert len(cover.connections) == 7


def test_linear_corpus_reduces_to_category_segal():
    # on linear graphs the condition is the classical one: values at
    # the chain biject with composable tuples
    lc = build_level_corpus([linear_level_graph(2)])
    P = end_properad({"c": 2})
    N = nerve_level(P, lc)
    chain = next(
        i for i, lg in enumerate(lc.objects)
        if lg.height == 2 and all(len(l) == 1 for l in lg.edge_layers)
    )
    c11 = next(
        i for i, lg in enumerate(lc.objects)
        if lg.height == 1 and all(len(l) == 1 for l in lg.edge_layers)
    )
    assert len(N.value(chain)) == len(N.value(c11)) ** 2 // len(N.value(lc.edge_index))
    full, short_seg = segmentation_check(N)
    assert full and short_seg


# ---------------------------------------------------------------------------
# the table-reading paths against their definitions


def graphical_images(f):
    return f.f0, {v: sub.as_graph for v, sub in f.f1v.items()}


def level_images(f):
    """The edge map of a level morphism, and each source vertex's image:
    the open subgraph of the target's underlying graph carried by the
    members of its component."""
    sf = special_extension(f.target)
    tgt = f.target._graph
    f0 = {e: y for layer in f.edge_maps for e, y in layer.items()}
    images = {}
    for i, layer in enumerate(f.vertex_maps):
        pair = (f.alpha[i], f.alpha[i + 1])
        for v, rep in layer.items():
            members = sf.members(pair, rep)
            images[v] = OpenSubgraph(
                tgt,
                frozenset(a[2] for a in members if a[0] == "e"),
                frozenset(a[2] for a in members if a[0] == "v"),
            ).as_graph
    return f0, images


def reference_nerve(P, corpus, images_of):
    """The nerve from its definition: every decoration of every object,
    and each restriction evaluating P once on every vertex image, with
    nothing remembered between evaluations."""
    values = []
    for g in corpus.graphs:
        entries = []
        for coloring in itertools.product(P.colors, repeat=len(g.edges)):
            color = dict(zip(g.edges, coloring))
            per_vertex = [
                P.ops(tuple(color[e] for e in v.ins), tuple(color[e] for e in v.outs))
                for v in g.vertices
            ]
            entries += [(coloring, ops) for ops in itertools.product(*per_vertex)]
        values.append(tuple(entries))
    restrictions = {}
    for (i, j), fs in corpus.homs.items():
        src, tgt = corpus.graphs[i], corpus.graphs[j]
        for k, f in enumerate(fs):
            f0, images = images_of(f)
            restrictions[(i, j, k)] = {
                x: pull_back(P, src, tgt, f0, images, x) for x in values[j]
            }
    return tuple(values), restrictions


def pull_back(P, src, tgt, f0, images, x):
    """The decoration x of tgt restricted along a map src -> tgt with
    edge map f0 and vertex images ``images`` (Graphs): P evaluated on
    each vertex's image, with the boundary order the map gives it."""
    coloring, ops = x
    color = dict(zip(tgt.edges, coloring))
    label = dict(zip(tgt.vertex_names, ops))
    new_ops = tuple(
        P.evaluate(decorated_graph(
            images[v.name],
            {e: color[e] for e in images[v.name].edges},
            {w: label[w] for w in images[v.name].vertex_names},
            tuple(f0[e] for e in v.ins),
            tuple(f0[e] for e in v.outs),
        ))
        for v in src.vertices
    )
    return tuple(color[f0[e]] for e in src.edges), new_ops


def criterion_9_level_corpus():
    cospan = level_graph(
        [["m1", "m2"], ["n1", "n2", "n3"]],
        [[("k1", ["m1"], ["n1", "n2"]), ("k2", ["m2"], ["n3"])]],
    )
    return build_level_corpus([
        elementary_edge(), elementary_corolla(1, 1), elementary_corolla(2, 1),
        elementary_corolla(1, 2), elementary_corolla(0, 2),
        linear_level_graph(2), branching_level(), cospan,
    ])


@pytest.mark.parametrize("P", [terminal_properad(), end_properad({"c": 2})],
                         ids=["terminal", "end-2"])
@pytest.mark.parametrize("corpus, images_of", [
    (g3_corpus, graphical_images),
    (criterion_9_level_corpus, level_images),
], ids=["g3", "criterion-9-level"])
def test_nerve_matches_reference_nerve(P, corpus, images_of):
    corpus = corpus()
    N = nerve(P, corpus)
    values, restrictions = reference_nerve(P, corpus, images_of)
    assert N.values == values
    assert N.restrictions.keys() == restrictions.keys()
    for key, table in restrictions.items():
        assert element_table(N, *key) == table, key


# ---------------------------------------------------------------------------
# forgetting levels: tau* N_G(P) = N_L(P)


def graphical_twins(level_corpus):
    """The graphical corpus of the connected underlying graphs of a level
    corpus; and for each connected level object i, the graphical object
    t whose graph is isomorphic to graphs[i], with the isomorphism
    graphs[i] -> graphs[t] read off the two unordered canonical forms
    and its inverse."""
    connected = [i for i, x in enumerate(level_corpus.objects) if is_connected_level(x)]
    generators = [level_corpus.graphs[i] for i in connected]
    C = build_corpus(generators, max_vertices=max(len(g.vertices) for g in generators))
    forms = [unordered_canonical_form(y) for y in C.graphs]
    twins = {}
    for i in connected:
        g = level_corpus.graphs[i]
        form, edges, vertices = unordered_canonical_form(g)
        twin = [t for t, (other, _, _) in enumerate(forms) if other == form]
        assert len(twin) == 1, (i, g)
        t = twin[0]
        _, t_edges, t_vertices = forms[t]
        edge_of = {name: e for e, name in t_edges.items()}
        vertex_of = {name: w for w, name in t_vertices.items()}
        y = C.graphs[t]
        f0 = {e: edge_of[edges[e]] for e in g.edges}
        f1 = {v: vertex_of[vertices[v]] for v in g.vertex_names}
        iso = graphical_morphism(g, y, f0, {v: vertex_corolla(y, w) for v, w in f1.items()})
        back = graphical_morphism(
            y, g, {y_e: e for e, y_e in f0.items()},
            {w: vertex_corolla(g, v) for v, w in f1.items()},
        )
        assert validate_graphical(iso) is None and validate_graphical(back) is None
        assert compose_graphical(iso, back) == identity_graphical(g)
        twins[i] = (t, iso, back)
    return C, twins


@pytest.mark.parametrize("P", [terminal_properad(), end_properad({"c": 2})],
                         ids=["terminal", "end-2"])
def test_forgetting_levels_pulls_the_graphical_nerve_back(P):
    # ROADMAP item 5: on the connected objects of the criterion-9 level
    # corpus, N_L(P)(x) is N_G(P)(tau x), carried along the isomorphism
    # of tau x onto its twin in the graphical corpus; and restricting
    # along f is restricting along tau f, carried the same way
    C_L = criterion_9_level_corpus()
    C_G, twins = graphical_twins(C_L)
    N_L, N_G = nerve(P, C_L), nerve(P, C_G)
    carry = {}
    for i, (t, iso, _) in twins.items():
        carry[i] = {
            y: pull_back(P, C_L.graphs[i], C_G.graphs[t], *graphical_images(iso), y)
            for y in N_G.values[t]
        }
        assert len(set(carry[i].values())) == len(N_L.values[i]), i
        assert set(carry[i].values()) == set(N_L.values[i]), i
    maps = 0
    for i, (t, _, back) in twins.items():
        for j, (u, iso, _) in twins.items():
            for f in C_L.hom(i, j):
                m = compose_graphical(compose_graphical(back, tau(f)), iso)
                C_G.hom_index(t, u, m)
                for y in N_G.values[u]:
                    assert N_L.restrict_along(i, j, f, carry[j][y]) == (
                        carry[i][N_G.restrict_along(t, u, m, y)]
                    ), (i, j, f)
                maps += 1
    assert maps > len(twins) ** 2


@pytest.mark.parametrize("corpus", [g3_corpus, level_corpus], ids=["g3", "level"])
def test_representable_restricts_to_stored_composites(corpus):
    corpus = corpus()
    for x in range(len(corpus)):
        R = representable_presheaf(corpus, x)
        for i, j, k in R.restrictions:
            table = element_table(R, i, j, k)
            f = corpus.homs[(i, j)][k]
            stored = {id(h) for h in R.values[i]}
            assert list(table) == list(R.values[j])
            for h, y in table.items():
                assert y == corpus.compose(f, h)
                assert id(y) in stored


def test_compose_level_matches_dict_built_composite():
    from test_level_oracle import GRAPHS

    def dict_built(f, g):
        emaps = [
            {e: g.edge_maps[f.alpha[i]][y] for e, y in layer.items()}
            for i, layer in enumerate(f.edge_maps)
        ]
        vmaps = [
            {v: derived_class_map(g, (f.alpha[i], f.alpha[i + 1]))[c]
             for v, c in layer.items()}
            for i, layer in enumerate(f.vertex_maps)
        ]
        alpha = tuple(g.alpha[a] for a in f.alpha)
        return level_morphism(f.source, g.target, alpha, emaps, vmaps)

    homs = {
        (a, b): hom_level(A, B)
        for (a, A), (b, B) in itertools.product(GRAPHS, repeat=2)
    }
    pairs = 0
    for (a, b), fs in homs.items():
        for c, _ in GRAPHS:
            for f in fs:
                for g in homs[(b, c)]:
                    assert compose_level(f, g) == dict_built(f, g), (a, b, c)
                    pairs += 1
    assert pairs > 1000


def test_corpus_rejects_maps_sharing_a_sort_key():
    e = edge_graph()
    ident = identity_graphical(e)
    Corpus(GRAPHICAL, [e], {(0, 0): (ident,)})
    with pytest.raises(GraphcatError):
        Corpus(GRAPHICAL, [e], {(0, 0): (ident, identity_graphical(e))}).hom_index(0, 0, ident)


def brute_force_limit(F, gi, images_of):
    """The Segal limit at object gi from its definition: every tuple of
    vertex values (at the corollas) and edge values, each given by its
    position, kept when each vertex value restricts, along each of its
    edges, to that edge's value.

    Each edge-into-corolla map is found by scanning the hom-set for the
    one that hits the right edge.  The product is filtered prefix by
    prefix, vertices first: a prefix is dropped as soon as an incidence
    with both ends in it disagrees, which drops exactly the tuples the
    filter on the whole product would."""
    corpus, g = F.corpus, F.corpus.graphs[gi]
    ei = corpus.edge_index
    factors, incidences = [], []
    for p, v in enumerate(g.vertices):
        ci = corpus.corolla_index[v.biarity()]
        factors.append(range(len(F.value(ci))))
        cv = corpus.graphs[ci].vertices[0]
        for e, ce in zip(v.ins + v.outs, cv.ins + cv.outs):
            (k,) = [k for k, m in enumerate(corpus.hom(ei, ci))
                    if set(images_of(m)[0].values()) == {ce}]
            q = len(g.vertices) + g.edges.index(e)
            incidences.append((p, q, F.restrictions[(ei, ci, k)]))
    factors += [range(len(F.value(ei)))] * len(g.edges)
    prefixes = [()]
    for q, values in enumerate(factors):
        # the incidences of the edge at position q, whose vertex comes earlier
        checks = [(p, t) for p, q_, t in incidences if q_ == q]
        prefixes = [
            xs + (x,) for xs in prefixes for x in values
            if all(t[xs[p]] == x for p, t in checks)
        ]
    return {(xs[:len(g.vertices)], xs[len(g.vertices):]) for xs in prefixes}


def _limit_test_presheaves(corpus):
    """Nerves of the terminal and an end properad, each with a phantom
    element at its largest object and at its first corolla, and every
    representable."""
    nerves = [nerve(P, corpus) for P in (terminal_properad(), end_properad({"c": 2}))]
    largest = len(corpus) - 1
    first_corolla = min(corpus.corolla_index.values())
    yield from nerves
    for N in nerves:
        yield with_phantom(N, largest)
        yield with_phantom(N, first_corolla)
    for x in range(len(corpus)):
        yield representable_presheaf(corpus, x)


@pytest.mark.parametrize("corpus, images_of", [
    (g3_corpus, graphical_images),
    (pair_corpus, graphical_images),
    (criterion_9_level_corpus, level_images),
], ids=["g3", "pair", "criterion-9-level"])
def test_segal_limit_matches_brute_force(corpus, images_of):
    corpus = corpus()
    for F in _limit_test_presheaves(corpus):
        for gi in range(len(corpus)):
            limit = segal_limit(F, gi)
            assert len(set(limit)) == len(limit)
            assert set(limit) == brute_force_limit(F, gi, images_of), gi


# ---------------------------------------------------------------------------
# tables computed on first read against the tables computed up front


def eager_homs(corpus):
    """Every ordered hom-set of the corpus objects, enumerated up front."""
    hom = hom_set if corpus.category is GRAPHICAL else hom_level
    objects = list(enumerate(corpus.objects))
    return {(i, j): hom(a, b) for (i, a), (j, b) in itertools.product(objects, repeat=2)}


def eager_nerve(P, corpus, homs):
    """The nerve as it was computed before its tables were computed on
    first read: values, then every restriction table in one pass over
    ``homs``, with one evaluation memo per target object."""
    values = []
    for g in corpus.graphs:
        entries = []
        for coloring in itertools.product(P.colors, repeat=len(g.edges)):
            cof = dict(zip(g.edges, coloring))
            per_vertex = [
                P.ops(tuple(cof[e] for e in v.ins), tuple(cof[e] for e in v.outs))
                for v in g.vertices
            ]
            entries += [(coloring, ops) for ops in itertools.product(*per_vertex)]
        values.append(tuple(entries))
    positions = [{x: p for p, x in enumerate(entries)} for entries in values]
    memos = [{} for _ in corpus.graphs]
    restrictions = {}
    for (i, j), fs in homs.items():
        src, tgt = corpus.graphs[i], corpus.graphs[j]
        edge_pos = {e: p for p, e in enumerate(tgt.edges)}
        vertex_pos = {w: p for p, w in enumerate(tgt.vertex_names)}
        for k, f in enumerate(fs):
            f0, subs = corpus.category.images(f)
            plans = []
            for v in src.vertices:
                img = subs[v.name].as_graph
                ins = tuple(f0[e] for e in v.ins)
                outs = tuple(f0[e] for e in v.outs)
                memo = memos[j].setdefault((img.edges, img.vertex_names, ins, outs), {})
                plans.append((img, ins, outs, memo, [edge_pos[e] for e in img.edges],
                              [vertex_pos[w] for w in img.vertex_names]))
            colour_pos = [edge_pos[f0[e]] for e in src.edges]
            table = []
            for coloring, ops in values[j]:
                new_ops = []
                for img, ins, outs, memo, epos, vpos in plans:
                    key = (tuple(coloring[p] for p in epos), tuple(ops[p] for p in vpos))
                    if key not in memo:
                        colors = dict(zip(img.edges, key[0]))
                        labels = dict(zip(img.vertex_names, key[1]))
                        dec = decorated_graph(img, colors, labels, ins, outs)
                        memo[key] = P.evaluate(dec)
                    new_ops.append(memo[key])
                new_colors = tuple(coloring[p] for p in colour_pos)
                table.append(positions[i][(new_colors, tuple(new_ops))])
            restrictions[(i, j, k)] = tuple(table)
    return tuple(values), restrictions


def eager_representable(corpus, x, homs):
    """hom(-, X) with every table computed up front, each composite
    located by its sort key within its pair."""
    index = {
        key: {m.sort_key(): k for k, m in enumerate(fs)} for key, fs in homs.items()
    }
    values = tuple(homs[(i, x)] for i in range(len(corpus)))
    restrictions = {
        (i, j, k): tuple(index[(i, x)][corpus.compose(f, h).sort_key()] for h in values[j])
        for (i, j), fs in homs.items()
        for k, f in enumerate(fs)
    }
    return values, restrictions


def assert_reads_equal(table, reference, rnd):
    """Each entry read in a shuffled order equals the reference; then the
    whole table (which computes the entries not yet read) does too."""
    keys = list(reference)
    rnd.shuffle(keys)
    for key in keys[: len(keys) // 2]:
        assert table[key] == reference[key], key
    assert table == reference
    assert list(table) == list(reference)


@pytest.mark.parametrize("corpus, P", [
    (g3_corpus, end_properad({"c": 2})),
    (pair_corpus, terminal_properad(("x", "y"))),
    (criterion_9_level_corpus, end_properad({"c": 2})),
    (level_corpus, end_properad({"c": 2})),
], ids=["g3", "pair", "criterion-9-level", "level"])
def test_on_demand_tables_equal_the_eager_tables(corpus, P):
    rnd = random.Random(18)
    C = corpus()
    homs = eager_homs(C)
    assert_reads_equal(C.homs, homs, rnd)
    N = nerve(P, corpus())
    values, restrictions = eager_nerve(P, N.corpus, homs)
    assert N.values == values
    assert_reads_equal(N.restrictions, restrictions, rnd)
    # the last object: the largest of a graphical corpus
    R = representable_presheaf(corpus(), len(C) - 1)
    values, restrictions = eager_representable(R.corpus, len(C) - 1, homs)
    assert R.values == values
    assert_reads_equal(R.restrictions, restrictions, rnd)


@pytest.mark.parametrize("corpus, category, hom_name, check", [
    (g3_corpus, "GRAPHICAL", "hom_set", is_segal),
    (pair_corpus, "GRAPHICAL", "hom_set", is_segal),
    (criterion_9_level_corpus, "LEVEL", "hom_level", segmentation_check),
], ids=["g3", "pair", "criterion-9-level"])
def test_segal_checks_compute_only_the_maps_they_read(monkeypatch, corpus, category,
                                                       hom_name, check):
    import dataclasses

    from graphcat import segal

    homs, tables = [], []
    hom = getattr(segal, hom_name)
    images = getattr(segal, category).images
    monkeypatch.setattr(segal, hom_name, lambda a, b: homs.append((a, b)) or hom(a, b))
    monkeypatch.setattr(segal, category, dataclasses.replace(
        getattr(segal, category), images=lambda f: tables.append(f) or images(f),
    ))
    C = corpus()
    result = check(nerve(terminal_properad(), C))
    assert result in ((True, None), (True, True))
    maps = sum(len(hom(a, b)) for a in C.objects for b in C.objects)
    # the nerve's tables are read by morphism, so no hom-set is searched
    assert homs == []
    assert 0 < len(tables) < maps
    # and no table is computed twice
    assert len({id(f) for f in tables}) == len(tables)
    # a representable hom(-, X) searches only the hom-sets of its values
    x = len(C) - 1
    check(representable_presheaf(C, x))
    assert {(C.object_index(a), C.object_index(b)) for a, b in homs} == {
        (i, x) for i in range(len(C))
    }
    assert len(homs) == len(C)


@pytest.mark.parametrize("by_morphism_first", [True, False],
                         ids=["by-morphism-first", "by-position-first"])
@pytest.mark.parametrize("corpus", [
    g3_corpus, pair_corpus, criterion_9_level_corpus, level_corpus,
], ids=["g3", "pair", "criterion-9-level", "level"])
def test_tables_by_morphism_equal_tables_by_position(monkeypatch, corpus,
                                                     by_morphism_first):
    import dataclasses

    from graphcat import segal

    rnd = random.Random(19)
    reference = corpus()
    homs = eager_homs(reference)
    x = len(reference) - 1
    properads = (terminal_properad(), end_properad({"c": 2}))
    expected = [eager_nerve(P, reference, homs) for P in properads]
    expected.append(eager_representable(reference, x, homs))
    # count the work of each table: the nerve's images, the representable's
    # composite keys
    images, composites = [], []
    name = "GRAPHICAL" if reference.category is segal.GRAPHICAL else "LEVEL"
    category = getattr(segal, name)
    monkeypatch.setattr(segal, name, dataclasses.replace(
        category,
        images=lambda f: images.append(f) or category.images(f),
        composite_key=lambda f, g: composites.append(f) or category.composite_key(f, g),
    ))
    C = corpus()
    maps = [(i, j, k, m) for (i, j), fs in C.homs.items() for k, m in enumerate(fs)]

    def by_morphism(F, i, j, m):
        return F.table_along(i, j, m)

    def by_position(F, i, j, m):
        return F.restrictions[(i, j, C.hom_index(i, j, m))]

    reads = (by_morphism, by_position) if by_morphism_first else (by_position, by_morphism)
    # per presheaf: the calls its tables make, and how many one table along A_i -> A_j makes
    cases = [(nerve(P, C), images, lambda j: 1) for P in properads]
    cases.append((representable_presheaf(C, x), composites, lambda j: len(C.homs[(j, x)])))
    for (F, calls, per_table), (values, restrictions) in zip(cases, expected):
        assert F.values == values
        images.clear()
        composites.clear()
        for read in reads:
            rnd.shuffle(maps)
            for i, j, k, m in maps:
                assert read(F, i, j, m) == restrictions[(i, j, k)], (read, i, j, k)
        # each table is computed once across both kinds of read
        assert len(calls) == sum(per_table(j) for _, j, _, _ in maps)
        assert len(images) + len(composites) == len(calls)
