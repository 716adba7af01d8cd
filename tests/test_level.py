import itertools
import json
import random

import pytest

from graphcat.digraph import (
    Graph,
    boundary,
    connected_components,
    corolla,
    is_connected,
    strict_iso,
)
from graphcat.errors import ConnectivityError, GraphcatError, HeightError
from graphcat.level import (
    LevelGraph,
    LevelMorphism,
    cartesian_reindex,
    compose_level,
    derived_class_map,
    elementary_corolla,
    elementary_edge,
    factorize_L,
    hom_level,
    identity_level,
    is_active_L,
    is_connected_level,
    is_inert_L,
    level_from_json,
    level_graph,
    level_structure,
    level_to_json,
    linear_level_graph,
    membership,
    plus_minus,
    segmentation_pieces,
    special_extension,
    tau,
    underlying_graph,
    validate_level,
    validate_level_morphism,
    vertex_map_L,
)
from graphcat.pointed import compose_pointed
from graphcat import graphical
from graphcat.zoo import three_vertex_graph


def branching_level():
    """Height 2: one splitter feeding two vertices side by side."""
    return level_graph(
        [["a"], ["b", "c"], ["d", "e"]],
        [
            [("u", ["a"], ["b", "c"])],
            [("v", ["b"], ["d"]), ("w", ["c"], ["e"])],
        ],
    )


def test_validate_level_accepts_standard_examples():
    for lg in (
        elementary_edge(),
        elementary_corolla(2, 3),
        linear_level_graph(4),
        branching_level(),
    ):
        assert validate_level(lg) is None


def test_validate_level_partition_failure():
    bad = level_graph([["a", "x"], ["b"]], [[("v", ["a"], ["b"])]])
    rep = validate_level(bad)
    assert rep is not None and rep.kind == "PartitionViolation"


@pytest.mark.parametrize("lg, report", [
    (level_graph([["a"], ["b"]], [[("v", ["b"], ["b"])]]),
     "UnknownEdge at (0, 'v', 'b'): in(v) uses b outside level 0"),
    (level_graph([["a"], ["b"]], [[("v", ["a"], ["a"])]]),
     "UnknownEdge at (0, 'v', 'a'): out(v) uses a outside level 1"),
    (level_graph([["a", "x"], ["b"]], [[("v", ["a"], ["b"])]]),
     "PartitionViolation at (0,): inputs of layer 0 vertices do not partition level 0 edges"),
    (level_graph([["a"], ["b", "y"]], [[("v", ["a"], ["b"])]]),
     "PartitionViolation at (0,): outputs of layer 0 vertices do not partition level 1 edges"),
], ids=["input-outside", "output-outside", "inputs-partition", "outputs-partition"])
def test_validate_level_reports_each_side(lg, report):
    assert str(validate_level(lg)) == report


def test_height_zero_with_multiple_edges():
    lg = level_graph([["a", "b", "c"]], [])
    assert validate_level(lg) is None
    sf = special_extension(lg)
    assert len(sf.elements((0, 0))) == 3
    assert not is_connected_level(lg)


def test_special_extension_connected_singleton():
    for lg in (linear_level_graph(3), branching_level(), elementary_corolla(0, 2)):
        sf = special_extension(lg)
        n = lg.height
        assert (len(sf.elements((0, n))) == 1) == is_connected(underlying_graph(lg))


def test_component_counts_match_slice_components():
    lg = branching_level()
    sf = special_extension(lg)
    for i in range(lg.height + 1):
        for j in range(i, lg.height + 1):
            slice_graph = underlying_graph(
                level_graph(
                    lg.edge_layers[i:j + 1], lg.vertex_layers[i:j]
                )
            )
            expected = len(connected_components(slice_graph))
            assert len(sf.elements((i, j))) == expected


def test_underlying_graph_shapes():
    assert strict_iso(underlying_graph(elementary_corolla(2, 3)), corolla(2, 3))
    assert len(underlying_graph(elementary_edge()).edges) == 1
    g = underlying_graph(branching_level())
    assert boundary(g) == (("a",), ("d", "e"))


def test_level_structure_roundtrip():
    for lg in (linear_level_graph(2), branching_level(), elementary_corolla(1, 2)):
        g = underlying_graph(lg)
        found = level_structure(g)
        assert found is not None
        assert strict_iso(underlying_graph(found), g)


def test_level_structure_rejects_three_vertex():
    assert level_structure(three_vertex_graph()) is None


def test_level_structure_edge_cases():
    from graphcat.digraph import graph

    empty = level_structure(Graph((), ()))
    assert empty is not None and empty.height == 0 and empty.edge_layers == ((),)
    # a source named "" whose output is a graph output sits at the top
    g = graph(["x", "y", "z"], [("p", [], ["x"]), ("q", ["x"], ["y"]), ("", [], ["z"])])
    lg = level_structure(g)
    assert lg is not None and validate_level(lg) is None
    assert lg.edge_layers == ((), ("x",), ("y", "z"))


def test_level_structure_closed_component():
    g = Graph(
        ("p1", "p2"),
        (
            Graph(("x",), ()).vertices
        ),
    )
    # two-vertex closed graph: source over sink
    from graphcat.digraph import graph

    closed = graph(["p1", "p2"], [("u", [], ["p1", "p2"]), ("v", ["p1", "p2"], [])])
    lg = level_structure(closed)
    # the sink vertex must sit at vertex-level 2, so the minimal height
    # is 2 with empty extremal edge layers
    assert lg is not None and lg.height == 2
    assert lg.edge_layers[0] == () and lg.edge_layers[2] == ()


def test_identity_morphism_validates():
    for lg in (elementary_edge(), linear_level_graph(2), branching_level()):
        ident = identity_level(lg)
        assert validate_level_morphism(ident) is None
        assert is_active_L(ident) and is_inert_L(ident)


def test_identity_composition():
    lg = branching_level()
    ident = identity_level(lg)
    assert compose_level(ident, ident) == ident


def test_inert_piece_inclusions_validate():
    lg = branching_level()
    pieces, interfaces = segmentation_pieces(lg)
    assert len(pieces) == 2 and len(interfaces) == 1
    for piece, incl in pieces + interfaces:
        assert validate_level_morphism(incl) is None
        assert is_inert_L(incl)
        assert not is_active_L(incl) or piece == lg


def test_segmentation_height_one_is_identity():
    c = elementary_corolla(2, 2)
    pieces, interfaces = segmentation_pieces(c)
    assert len(pieces) == 1 and interfaces == []
    assert pieces[0][0] == c


def test_vertex_merging_is_rejected():
    # collapsing two parallel vertices onto one is not a monomorphism
    two = level_graph(
        [["a", "b"], ["c", "d"]],
        [[("v1", ["a"], ["c"]), ("v2", ["b"], ["d"])]],
    )
    one = elementary_corolla(1, 1)
    homs = hom_level(two, one)
    assert homs == ()


def test_hom_level_counts():
    e = elementary_edge()
    c = elementary_corolla(2, 3)
    # an edge can land on any of the five edges of the corolla, but only
    # via an interval inclusion [0] -> [1]; each level has its edges
    assert len(hom_level(e, e)) == 1
    maps = hom_level(e, c)
    assert len(maps) == 5
    assert all(is_inert_L(m) for m in maps)
    # corolla self-maps: all pairs of boundary permutations
    self_maps = hom_level(c, c)
    assert len(self_maps) == 2 * 6


def test_degeneracy_map_exists():
    c = elementary_corolla(1, 1)
    e = elementary_edge()
    maps = hom_level(c, e)
    assert len(maps) == 1
    assert is_active_L(maps[0])
    assert not is_inert_L(maps[0])


def is_active_L_full(f):
    """Oracle for ``is_active_L``: the unabbreviated active condition,
    every component map bijective."""
    G, H = f.source, f.target
    if f.alpha[0] != 0 or f.alpha[-1] != H.height:
        return False
    sf_t = special_extension(H)
    n = G.height
    for i in range(n + 1):
        for j in range(i, n + 1):
            dmap = derived_class_map(f, (i, j))
            tgt = sf_t.elements((f.alpha[i], f.alpha[j]))
            if len(dmap) != len(tgt) or set(dmap.values()) != set(tgt):
                return False
    return True


def test_active_weak_equals_full():
    pairs = [
        (elementary_corolla(1, 1), elementary_edge()),
        (elementary_corolla(2, 3), elementary_corolla(2, 3)),
        (linear_level_graph(2), linear_level_graph(1)),
        (elementary_edge(), linear_level_graph(2)),
        (linear_level_graph(1), branching_level()),
    ]
    checked = 0
    for src, tgt in pairs:
        for f in hom_level(src, tgt):
            assert is_active_L(f) == is_active_L_full(f)
            checked += 1
    assert checked > 10


def test_factorization_recomposes():
    cases = [
        (elementary_corolla(1, 1), elementary_edge()),
        (elementary_edge(), branching_level()),
        (linear_level_graph(1), linear_level_graph(3)),
        (linear_level_graph(2), branching_level()),
    ]
    for src, tgt in cases:
        for f in hom_level(src, tgt):
            act, ine = factorize_L(f)
            assert validate_level_morphism(act) is None
            assert validate_level_morphism(ine) is None
            assert is_active_L(act)
            assert is_inert_L(ine)
            assert compose_level(act, ine) == f


def test_factorization_trivial_sides():
    lg = branching_level()
    ident = identity_level(lg)
    act, ine = factorize_L(ident)
    assert compose_level(act, ine) == ident


def test_vertex_map_identity():
    lg = branching_level()
    vm = vertex_map_L(identity_level(lg))
    assert all(vm(x) == x for x in lg.vertex_names)


def test_vertex_map_inert_fibers():
    lg = branching_level()
    pieces, _ = segmentation_pieces(lg)
    for piece, incl in pieces:
        vm = vertex_map_L(incl)
        assert vm.is_inert()


def test_vertex_map_functorial():
    src = elementary_edge()
    mid = linear_level_graph(1)
    tgt = linear_level_graph(3)
    count = 0
    for f in hom_level(src, mid):
        for g in hom_level(mid, tgt):
            gf = compose_level(f, g)
            left = vertex_map_L(gf)
            right = compose_pointed(vertex_map_L(g), vertex_map_L(f))
            assert left == right
            count += 1
    assert count > 0


def test_membership_examples():
    lin = linear_level_graph(3)
    flags = membership(lin)
    assert all(
        flags[k]
        for k in ("connected", "simply_connected", "forest", "tree", "linear", "out", "input")
    )
    c20 = elementary_corolla(2, 0)
    flags = membership(c20)
    assert flags["connected"] and flags["simply_connected"] and not flags["out"]
    two = level_graph(
        [["a", "b"], ["c", "d"]],
        [[("v1", ["a"], ["c"]), ("v2", ["b"], ["d"])]],
    )
    assert membership(two)["zero_type"] and not membership(two)["connected"]


def test_sieve_property_zero_type():
    # any morphism into a zero-type graph has zero-type source
    sources = [elementary_edge(), elementary_corolla(1, 1), linear_level_graph(2)]
    targets = [linear_level_graph(2), branching_level()]
    for src in sources:
        for tgt in targets:
            if not membership(tgt)["zero_type"]:
                continue
            for f in hom_level(src, tgt):
                assert membership(src)["zero_type"]


def test_plus_minus_shapes():
    c = elementary_corolla(2, 3)
    plus, minus = plus_minus(c)
    assert validate_level(plus) is None and validate_level(minus) is None
    assert plus.height == 2 and minus.height == 2
    # the inserted layer consists of unary vertices, one per edge
    assert [v.biarity() for v in plus.vertex_layers[0]] == [(1, 1)] * 2
    assert [len(layer) for layer in plus.vertex_layers] == [2, 1]
    assert [v.biarity() for v in minus.vertex_layers[1]] == [(1, 1)] * 3
    assert [len(layer) for layer in minus.vertex_layers] == [1, 3]


def test_plus_minus_wrong_height():
    with pytest.raises(HeightError):
        plus_minus(linear_level_graph(2))


def test_plus_minus_disconnected_shape():
    # shape with 2 bottom edges, 2 vertices, 4 top edges
    i = level_graph(
        [["m1", "m2"], ["n1", "n2", "n3", "n4"]],
        [[("k1", ["m1"], ["n1", "n2"]), ("k2", ["m2"], ["n3", "n4"])]],
    )
    plus, minus = plus_minus(i)
    assert [len(l) for l in plus.edge_layers] == [2, 2, 4]
    assert [len(l) for l in minus.edge_layers] == [2, 4, 4]


def test_collapse_section_roundtrip():
    c = elementary_corolla(2, 3)
    plus, proj = cartesian_reindex(c, (0, 0, 1))
    assert validate_level_morphism(proj) is None
    # two sections: the active one skipping the repeated level and the
    # inert inclusion of the top slice
    sections = [
        f for f in hom_level(c, plus)
        if compose_level(f, proj) == identity_level(c)
    ]
    assert len(sections) == 2
    assert sorted(f.alpha for f in sections) == [(0, 2), (1, 2)]
    assert sum(1 for f in sections if is_active_L(f)) == 1


def level_subgraph(lg, pair, rep):
    """The connected level graph carried by a single component element."""
    sf = special_extension(lg)
    i, j = pair
    members = set(sf.members(pair, rep))
    edge_layers = tuple(
        tuple(e for e in lg.edge_layers[k] if ("e", k, e) in members)
        for k in range(i, j + 1)
    )
    vls = tuple(
        tuple(v for v in lg.vertex_layers[k] if ("v", k, v.name) in members)
        for k in range(i, j)
    )
    return LevelGraph(edge_layers, vls)


def test_level_subgraph_is_connected():
    lg = branching_level()
    sf = special_extension(lg)
    for i in range(lg.height + 1):
        for j in range(i, lg.height + 1):
            for rep in sf.elements((i, j)):
                sub = level_subgraph(lg, (i, j), rep)
                assert validate_level(sub) is None
                assert is_connected_level(sub)


def test_tau_identity_and_validation():
    lg = branching_level()
    t = tau(identity_level(lg))
    assert graphical.validate_graphical(t) is None
    assert t.f0 == {e: e for e in underlying_graph(lg).edges}


def test_tau_rejects_an_image_that_is_no_component():
    # a morphism built without the validator: the vertex names no class
    f = identity_level(linear_level_graph(1))
    bad = LevelMorphism(f.source, f.target, f.alpha, f.eta_e, ((("v1", ("v", 0, "nope")),),))
    assert validate_level_morphism(bad).kind == "VertexMapError"
    with pytest.raises(GraphcatError, match="is not a component at"):
        tau(bad)


def test_tau_rejects_disconnected():
    two = level_graph([["a", "b"]], [])
    with pytest.raises(ConnectivityError):
        tau(identity_level(two))


def test_tau_functorial_small():
    src = elementary_edge()
    mid = elementary_corolla(1, 1)
    tgt = linear_level_graph(2)
    count = 0
    for f in hom_level(src, mid):
        for g in hom_level(mid, tgt):
            left = tau(compose_level(f, g))
            right = graphical.compose_graphical(tau(f), tau(g))
            assert left == right
            count += 1
    assert count > 0


def test_tau_preserves_classes():
    src = linear_level_graph(1)
    tgt = branching_level()
    for f in hom_level(src, tgt):
        t = tau(f)
        assert graphical.validate_graphical(t) is None
        if is_inert_L(f):
            assert graphical.is_inert_G(t)
        if is_active_L(f):
            assert graphical.is_active_G(t)


def test_json_roundtrip():
    lg = branching_level()
    assert level_from_json(level_to_json(lg)) == lg


@pytest.mark.parametrize("lg, text", [
    (elementary_corolla(2, 1),
     '{"edge_layers": [["i1", "i2"], ["o1"]], "height": 1, "vertex_layers": '
     '[[{"in": ["i1", "i2"], "name": "v", "out": ["o1"]}]]}'),
    (linear_level_graph(2),
     '{"edge_layers": [["e0"], ["e1"], ["e2"]], "height": 2, "vertex_layers": '
     '[[{"in": ["e0"], "name": "v1", "out": ["e1"]}], '
     '[{"in": ["e1"], "name": "v2", "out": ["e2"]}]]}'),
    (branching_level(),
     '{"edge_layers": [["a"], ["b", "c"], ["d", "e"]], "height": 2, "vertex_layers": '
     '[[{"in": ["a"], "name": "u", "out": ["b", "c"]}], '
     '[{"in": ["b"], "name": "v", "out": ["d"]}, {"in": ["c"], "name": "w", "out": ["e"]}]]}'),
], ids=["corolla", "linear", "branching"])
def test_level_json_text(lg, text):
    assert json.dumps(level_to_json(lg), sort_keys=True) == text


def test_special_extension_has_no_pair_beyond_the_height():
    lg = linear_level_graph(2)
    with pytest.raises(KeyError):
        special_extension(lg).reps((0, lg.height + 1))
