import itertools

import pytest

from graphcat import digraph, graphical
from graphcat.digraph import (
    corolla,
    edge_graph,
    edge_subgraph,
    graph,
    is_convex_open,
    linear_graph,
    open_intersection,
    strict_iso,
    structured_subgraphs,
    vertex_corolla,
    whole_subgraph,
)
from graphcat.errors import ConnectivityError
from graphcat.graphical import (
    boundary_bijective,
    compose_graphical,
    f1_on_subgraph,
    factorize_G,
    graphical_morphism,
    hom_set,
    identity_graphical,
    is_active_G,
    is_inert_G,
    iso_set,
    membership_G,
    morphism_from_json,
    morphism_to_json,
    validate_graphical,
    vertex_map_G,
)
from graphcat.level import (
    compose_level,
    elementary_corolla,
    elementary_edge,
    hom_level,
    linear_level_graph,
    tau,
    vertex_map_L,
)
from graphcat.pointed import compose_pointed
from graphcat.zoo import (
    closed_double_edge_graph,
    closed_square_graph,
    double_edge_graph,
    three_vertex_graph,
    two_component_graph,
)

G3 = three_vertex_graph()
K_TWIST = graph(
    ["i", "t1", "t2", "o"],
    [("a", ["i"], ["t1", "t2"]), ("b", ["t1", "t2"], ["o"])],
)


def no_intersections_map():
    """u and w land on the two vertices, v on the edge between them."""
    f0 = {"a": "i", "b": "t2", "c": "t2", "d": "t1", "e": "o"}
    f1v = {
        "u": vertex_corolla(K_TWIST, "a"),
        "v": edge_subgraph(K_TWIST, "t2"),
        "w": vertex_corolla(K_TWIST, "b"),
    }
    return graphical_morphism(G3, K_TWIST, f0, f1v)


def test_identity_validates():
    for g in (edge_graph(), G3, corolla(2, 3)):
        assert validate_graphical(identity_graphical(g)) is None


def test_no_intersections_map_accepted():
    f = no_intersections_map()
    assert validate_graphical(f) is None
    # the images of the outer corollas overlap in two edges and their
    # plain intersection is not structured, yet the map is legal
    meet = open_intersection(f.f1v["u"].as_open, f.f1v["w"].as_open)
    assert len(meet.edge_names) == 2
    assert not is_convex_open(meet)
    src_meet = open_intersection(
        vertex_corolla(G3, "u").as_open, vertex_corolla(G3, "w").as_open
    )
    assert len(src_meet.edge_names) == 1


def test_no_intersections_map_is_active():
    f = no_intersections_map()
    assert is_active_G(f)
    assert boundary_bijective(f)


def test_boundary_mismatch_detected():
    f0 = {"a": "i", "b": "t2", "c": "t2", "d": "t1", "e": "o"}
    f1v = {
        "u": vertex_corolla(K_TWIST, "a"),
        "v": vertex_corolla(K_TWIST, "b"),  # wrong arity for v
        "w": vertex_corolla(K_TWIST, "b"),
    }
    bad = graphical_morphism(G3, K_TWIST, f0, f1v)
    rep = validate_graphical(bad)
    assert rep is not None and rep.kind in ("BoundaryMismatch", "NotConvexOpenImage")


def test_overlapping_vertices_rejected():
    # two source vertices on the same target corolla cannot assemble
    lin = linear_graph(2)
    c = corolla(1, 1)
    f0 = {"e0": "i1", "e1": "i1", "e2": "o1"}
    f1v = {"v1": vertex_corolla(c, "v"), "v2": vertex_corolla(c, "v")}
    bad = graphical_morphism(lin, c, f0, f1v)
    assert validate_graphical(bad) is not None


def test_no_hom_from_square_to_double_edge():
    g2 = closed_square_graph()
    k2 = closed_double_edge_graph()
    # the four vertex images would have to be the two corollas, but
    # images of distinct vertices cannot share vertices
    assert hom_set(g2, k2) == ()


def test_homs_from_double_edge_are_substitution_lifts():
    # maps out of the double edge exist: they are the canonical active
    # maps onto substitutions K{H_u, H_v} recovering the square, as
    # produced by the cartesian lift construction
    g2 = closed_square_graph()
    k2 = closed_double_edge_graph()
    maps = hom_set(k2, g2)
    assert len(maps) == 8
    for m in maps:
        assert validate_graphical(m) is None
        assert is_active_G(m)
        sizes = sorted(len(m.f1v[v].vertex_names_set) for v in ("u", "v"))
        assert sizes == [1, 3]


def test_hom_set_without_connected_graphs():
    # the search checks connectivity once per call, not at its leaves;
    # these are the answers its leaf validator gave, apart from the empty
    # source, which raised IndexError against a target with an edge
    empty, split = graph([], []), two_component_graph()
    assert hom_set(empty, G3) == () and hom_set(empty, empty) == ()
    assert hom_set(edge_graph(), split) == ()
    assert hom_set(graph(["a", "b"], []), G3) == ()
    assert hom_set(split, G3) == ()
    with pytest.raises(ConnectivityError):
        hom_set(corolla(1, 1), split)


def test_hom_counts():
    assert len(hom_set(edge_graph(), edge_graph())) == 1
    # the linear graphs embed the simplex category fully: one identity
    # plus the two constant maps
    assert len(hom_set(corolla(1, 1), corolla(1, 1))) == 3
    assert len(hom_set(edge_graph(), G3)) == len(G3.edges)
    # boundary permutations of a corolla
    assert len(hom_set(corolla(2, 3), corolla(2, 3))) == 2 * 6
    # the degeneracy: a (1,1)-vertex collapses onto an edge
    assert len(hom_set(corolla(1, 1), edge_graph())) == 1


def test_linear_homs_match_monotone_maps():
    # hom(linear m, linear n) must biject with monotone maps
    # [m] -> [n]; spot-check small cases by cardinality
    import math

    def monotone_count(m, n):
        return math.comb(m + n + 1, m + 1)

    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        got = len(hom_set(linear_graph(m), linear_graph(n)))
        assert got == monotone_count(m, n)


def test_hom_faithfulness():
    # two valid morphisms with the same edge map are equal
    for src, tgt in [(G3, K_TWIST), (corolla(1, 1), G3), (linear_graph(2), G3)]:
        seen = {}
        for m in hom_set(src, tgt):
            assert m.f0_pairs not in seen
            seen[m.f0_pairs] = m


def test_compose_with_identity():
    f = no_intersections_map()
    assert compose_graphical(identity_graphical(G3), f) == f
    assert compose_graphical(f, identity_graphical(K_TWIST)) == f


def test_compose_associative_on_sample():
    e = edge_graph()
    c = corolla(1, 1)
    lin = linear_graph(2)
    count = 0
    for f in hom_set(e, c):
        for g in hom_set(c, lin):
            for h in hom_set(lin, G3):
                left = compose_graphical(compose_graphical(f, g), h)
                right = compose_graphical(f, compose_graphical(g, h))
                assert left == right
                count += 1
    assert count > 0


def test_f1_on_subgraph():
    f = no_intersections_map()
    assert f1_on_subgraph(f, vertex_corolla(G3, "v")) == f.f1v["v"]
    whole = f1_on_subgraph(f, whole_subgraph(G3))
    assert whole.key() == whole_subgraph(K_TWIST).key()
    assert is_convex_open(
        open_intersection(whole_subgraph(G3).as_open, whole_subgraph(G3).as_open)
    )
    ed = f1_on_subgraph(f, edge_subgraph(G3, "b"))
    assert ed.key() == edge_subgraph(K_TWIST, "t2").key()


def test_tilde_union_preserved_by_morphisms():
    # condition (2): images of joins are joins, across a whole hom-set
    from graphcat.digraph import tilde_union

    for m in hom_set(linear_graph(2), G3):
        subs = structured_subgraphs(linear_graph(2))
        for h1 in subs:
            for h2 in subs:
                join = tilde_union(h1, h2)
                if join is None:
                    continue
                left = f1_on_subgraph(m, join)
                right = tilde_union(f1_on_subgraph(m, h1), f1_on_subgraph(m, h2))
                assert right is not None and left.key() == right.key()


def test_active_iff_boundary_bijective():
    pairs = [
        (corolla(1, 1), G3),
        (linear_graph(2), G3),
        (G3, K_TWIST),
        (edge_graph(), G3),
    ]
    for src, tgt in pairs:
        for m in hom_set(src, tgt):
            assert is_active_G(m) == boundary_bijective(m)


def test_inert_maps_are_subgraph_inclusions():
    for sub in structured_subgraphs(G3):
        h = sub.as_graph
        incl = graphical_morphism(
            h, G3, {e: e for e in h.edges},
            {v: vertex_corolla(G3, v) for v in h.vertex_names},
        )
        assert validate_graphical(incl) is None
        assert is_inert_G(incl)
        assert is_active_G(incl) == (sub.key() == whole_subgraph(G3).key())


def test_factorization_recomposes_and_classes():
    pairs = [
        (corolla(1, 1), G3),
        (linear_graph(2), G3),
        (G3, K_TWIST),
        (edge_graph(), G3),
        (corolla(1, 1), edge_graph()),
    ]
    for src, tgt in pairs:
        for m in hom_set(src, tgt):
            act, ine = factorize_G(m)
            assert validate_graphical(act) is None
            assert validate_graphical(ine) is None
            assert is_active_G(act)
            assert is_inert_G(ine)
            assert compose_graphical(act, ine) == m


def test_only_factorization_builds_the_assembled_graph(monkeypatch):
    # hom_set and validate_graphical decide a map from the edge and
    # vertex sets of its images (DECISIONS.md D11); factorize_G glues
    # them into the source for its middle object, without the boundary
    # check of multi_substitute; hom_set reads the boundaries that
    # structured_subgraphs lists, and its walk decides whether the
    # source is connected (D18)
    glued, checked, scanned, connected = [], [], [], []
    glue, check = digraph._glue, digraph.multi_substitute
    boundary, is_connected = digraph.StructuredSubgraph._boundary, digraph.is_connected

    def counted_glue(outer, specs):
        glued.append(outer)
        return glue(outer, specs)

    def counted_check(outer, assignment):
        checked.append(outer)
        return check(outer, assignment)

    monkeypatch.setattr(digraph, "_glue", counted_glue)
    monkeypatch.setattr(graphical, "_glue", counted_glue)
    monkeypatch.setattr(digraph, "multi_substitute", counted_check)
    monkeypatch.setattr(
        digraph.StructuredSubgraph, "_boundary",
        lambda sub, end: scanned.append(sub) or boundary(sub, end),
    )
    for module in (digraph, graphical):
        monkeypatch.setattr(
            module, "is_connected", lambda g: connected.append(g) or is_connected(g)
        )
    zoo = [
        edge_graph(), corolla(1, 1), linear_graph(2), G3, K_TWIST,
        double_edge_graph(), closed_double_edge_graph(), closed_square_graph(),
    ]
    maps = []
    for g, k in itertools.product(zoo, zoo):
        maps += hom_set(g, k)
        assert all(x is k for x in connected), (g, k)
        connected.clear()
    assert maps and scanned == []
    assert all(validate_graphical(m) is None for m in maps)
    assert glued == [] and checked == []
    for m in maps:
        factorize_G(m)
    assert len(glued) == len(maps) and checked == []


def test_hom_set_and_compose_build_no_subgraph_graph(monkeypatch):
    # boundaries are read from the target's tables and composite images
    # are not promoted again (DECISIONS.md D14)
    built, convex = [], []
    as_graph = digraph.OpenSubgraph.as_graph.func
    counted = digraph.cached_property(lambda sub: built.append(sub) or as_graph(sub))
    counted.__set_name__(digraph.OpenSubgraph, "as_graph")
    monkeypatch.setattr(digraph.OpenSubgraph, "as_graph", counted)
    original = digraph.is_convex_open

    def counted_convex(sub):
        convex.append(sub)
        return original(sub)

    monkeypatch.setattr(digraph, "is_convex_open", counted_convex)
    monkeypatch.setattr(graphical, "is_convex_open", counted_convex)
    zoo = [
        edge_graph(), corolla(1, 1), linear_graph(2), G3, K_TWIST,
        double_edge_graph(), closed_double_edge_graph(), closed_square_graph(),
    ]
    homs = {(g, k): hom_set(g, k) for g in zoo for k in zoo}
    assert any(homs.values()) and built == []
    composites = [
        compose_graphical(f, g)
        for (a, b), fs in homs.items() for c in zoo
        for f in fs for g in homs[(b, c)]
    ]
    assert composites and convex == []
    # the counters see the work they are meant to count
    assert validate_graphical(composites[-1]) is None
    assert built and convex


def test_factorization_unique_up_to_unique_iso():
    m = no_intersections_map()
    act, ine = factorize_G(m)
    mid = act.target
    # alternative: route through the target itself (m is active)
    alt_act, alt_ine = m, identity_graphical(K_TWIST)
    isos = [
        z for z in iso_set(mid, K_TWIST)
        if compose_graphical(act, z) == alt_act
        and compose_graphical(z, alt_ine) == ine
    ]
    assert len(isos) == 1


def test_vertex_map_identity_and_fibers():
    vm = vertex_map_G(identity_graphical(G3))
    assert all(vm(x) == x for x in G3.vertex_names)
    f = no_intersections_map()
    vm = vertex_map_G(f)
    assert vm("a") == "u" and vm("b") == "w"
    assert vm.is_active()


def test_vertex_map_functorial():
    e = edge_graph()
    c = corolla(1, 1)
    lin = linear_graph(2)
    for f in hom_set(c, lin):
        for g in hom_set(lin, G3):
            left = vertex_map_G(compose_graphical(f, g))
            right = compose_pointed(vertex_map_G(g), vertex_map_G(f))
            assert left == right


def test_vertex_map_preserves_classes():
    for src, tgt in [(linear_graph(2), G3), (G3, K_TWIST)]:
        for m in hom_set(src, tgt):
            vm = vertex_map_G(m)
            if is_active_G(m):
                assert vm.is_active()
            if is_inert_G(m):
                assert vm.is_inert()


def test_membership_flags():
    assert membership_G(corolla(2, 1)) == {
        "out": True, "sc": True, "omega": True, "linear": False,
    }
    flags = membership_G(G3)
    assert not flags["sc"]
    assert membership_G(linear_graph(2))["linear"]
    assert membership_G(edge_graph())["linear"]


def test_membership_sieve_under_homs():
    # flags pass backwards along morphisms
    pairs = [
        (corolla(1, 1), linear_graph(2)),
        (linear_graph(2), G3),
        (corolla(2, 1), G3),
    ]
    for src, tgt in pairs:
        tflags = membership_G(tgt)
        for m in hom_set(src, tgt):
            sflags = membership_G(src)
            for flag in ("out", "sc", "omega", "linear"):
                if tflags[flag]:
                    assert sflags[flag]


def test_agreement_with_level_functors():
    # V_G after tau equals V_L on connected level morphisms
    src = elementary_corolla(1, 1)
    tgt = linear_level_graph(2)
    for f in hom_level(src, tgt):
        assert vertex_map_G(tau(f)) == vertex_map_L(f)


def test_tau_composition_agreement():
    src = elementary_edge()
    mid = elementary_corolla(1, 1)
    tgt = linear_level_graph(2)
    for f in hom_level(src, mid):
        for g in hom_level(mid, tgt):
            assert compose_graphical(tau(f), tau(g)) == tau(compose_level(f, g))


def test_morphism_json_roundtrip():
    f = no_intersections_map()
    data = morphism_to_json(f)
    back = morphism_from_json(G3, K_TWIST, data)
    assert back == f
