import itertools
import random

import pytest

from graphcat.digraph import (
    Graph,
    Vertex,
    corolla,
    edge_graph,
    graph,
    is_connected,
    linear_graph,
    structured_subgraphs,
    subgraph_witness,
    validate,
    whole_subgraph,
)
from graphcat.errors import ColorMismatch, GraphcatError, ProfileMismatch
from graphcat.graphical import (
    compose_graphical,
    hom_set,
    identity_graphical,
    validate_graphical,
    vertex_map_G,
)
from graphcat.properad import (
    DecoratedGraph,
    OperadArrow,
    _matchings,
    _normalize,
    all_operations,
    cartesian_lift_active,
    compose_arrows,
    decorated_graph,
    end_properad,
    free_properad,
    identity_arrow,
    identity_operation,
    prpd_compose,
    sigma_action,
    stabilizer,
    suboperad_member,
    terminal_properad,
    theta,
    theta_object,
    vertex_lift,
    zgraph,
    zgraph_of_graph,
)
from graphcat import zoo
from graphcat.zoo import (
    closed_square_graph,
    dangling_pair_graph,
    closed_double_edge_graph,
    double_edge_graph,
    three_vertex_graph,
    two_component_graph,
)


def op_pool(max_arity=2):
    """Small operations for law tests, canonical boundary orders."""
    pool = {}
    for m in range(max_arity + 1):
        for n in range(max_arity + 1):
            ops = [identity_operation(m, n)]
            for bi in ([(m, 1), (1, n)], [(m, 2), (2, n)]):
                ops.extend(all_operations(bi))
            pool[(m, n)] = [op for op in ops if op.biarity() == (m, n)]
    return pool


def test_unit_laws():
    x = zgraph_of_graph(three_vertex_graph())
    units = {
        z: identity_operation(*x.graph.vertices[z].biarity())
        for z in range(x.size)
    }
    assert prpd_compose(x, units) == x
    outer = identity_operation(*x.biarity())
    assert prpd_compose(outer, {0: x}) == x


def test_associativity_exhaustive_small():
    pool = op_pool()
    outers = [identity_operation(1, 1)] + list(all_operations([(1, 1), (1, 1)]))
    checked = 0
    for outer in outers:
        bi = [outer.graph.vertices[z].biarity() for z in range(outer.size)]
        for mids in itertools.product(*(pool[b][:3] for b in bi)):
            mids = dict(enumerate(mids))
            once = prpd_compose(outer, mids)
            inner_bi = [
                once.graph.vertices[z].biarity() for z in range(once.size)
            ]
            inners = {
                z: identity_operation(*b) for z, b in enumerate(inner_bi)
            }
            # (outer o mids) o inners == outer o (mids o inners)
            left = prpd_compose(once, inners)
            offset = 0
            fused = {}
            for z in range(outer.size):
                k = mids[z].size
                sub = {
                    i: inners[offset + i] for i in range(k)
                }
                fused[z] = prpd_compose(mids[z], sub)
                offset += k
            right = prpd_compose(outer, fused)
            assert left == right
            checked += 1
    assert checked >= 20


def test_equivariance():
    rng = random.Random(0)
    ops2 = all_operations([(1, 1), (1, 1)])
    for outer in ops2:
        x = identity_operation(1, 1)
        y = list(all_operations([(1, 1)]))[0]
        composed = prpd_compose(outer, {0: x, 1: y})
        swapped_outer = sigma_action(outer, (1, 0))
        swapped = prpd_compose(swapped_outer, {0: y, 1: x})
        # reindex the composite accordingly
        assert sigma_action(composed, (1, 0)) == swapped


def test_sigma_action_identity():
    x = zgraph_of_graph(closed_square_graph())
    assert sigma_action(x, (0, 1, 2, 3)) == x


def test_stabilizer_of_square_is_double_transposition():
    x = zgraph_of_graph(closed_square_graph())
    assert stabilizer(x) == ((0, 1, 2, 3), (1, 0, 3, 2))


def test_single_swap_moves_square():
    x = zgraph_of_graph(closed_square_graph())
    assert sigma_action(x, (1, 0, 2, 3)) != x


def test_corolla_stabilizer_trivial():
    for m, n in [(0, 2), (2, 0), (2, 2), (1, 3)]:
        assert stabilizer(identity_operation(m, n)) == ((),) if m + n == 0 else True
        c = identity_operation(m, n)
        assert stabilizer(c) == (tuple(range(1)),)


def test_simply_connected_operations_sigma_free():
    # every dioperad or output operation of small size has a trivial
    # stabilizer
    shapes = [
        [(1, 1)], [(1, 2)], [(2, 1)],
        [(1, 1), (1, 1)], [(1, 2), (1, 1)], [(2, 2), (2, 2)],
        [(1, 1), (1, 1), (1, 1)], [(0, 2), (2, 0)],
        [(0, 2), (0, 2), (2, 0), (2, 0)],
    ]
    checked_nontrivial = 0
    for bi in shapes:
        for op in all_operations(bi, orderings="all"):
            flags = suboperad_member(op)
            stab = stabilizer(op)
            if flags["dioperad"] or flags["out"]:
                assert stab == (tuple(range(op.size)),)
            if len(stab) > 1:
                checked_nontrivial += 1
    assert checked_nontrivial > 0


def test_suboperad_flags():
    tree = zgraph_of_graph(linear_graph(2))
    flags = suboperad_member(tree)
    assert flags == {"dioperad": True, "out": True, "operad": True, "cat": True}
    sq = zgraph_of_graph(closed_square_graph())
    flags = suboperad_member(sq)
    assert not flags["dioperad"] and not flags["out"]
    c21 = identity_operation(2, 1)
    assert suboperad_member(c21) == {
        "dioperad": True, "out": True, "operad": True, "cat": False,
    }
    edge_like = zgraph_of_graph(edge_graph())
    assert suboperad_member(edge_like)["cat"]


def test_nullary_profile_edge_only():
    # with no vertices the only connected graph is the single edge
    e = zgraph_of_graph(edge_graph())
    assert e.biarity() == (1, 1)
    assert e.size == 0


def test_suboperad_closure_under_composition():
    # composing output operations yields output operations, and
    # likewise for the simply-connected class
    pool = op_pool()
    outer = identity_operation(2, 1)
    for x in pool[(2, 1)][:4]:
        composed = prpd_compose(outer, {0: x})
        fx = suboperad_member(x)
        fc = suboperad_member(composed)
        if fx["out"]:
            assert fc["out"]
        if fx["dioperad"]:
            assert fc["dioperad"]


# ---------------------------------------------------------------------------
# free properads


def test_free_properad_on_edge():
    P = free_properad(edge_graph("e"), vertex_bound=3)
    assert P.nonempty_profiles() == {(("e",), ("e",))}
    assert len(P.ops(("e",), ("e",))) == 1


def test_free_properad_two_component_families():
    P = free_properad(two_component_graph(), vertex_bound=4)
    got = P.nonempty_profiles(min_vertices=1)

    def fam(ins, outs):
        return (tuple(sorted(ins)), tuple(sorted(outs)))

    expected = {
        fam("1", "23"),
        fam("23", ""),
        fam("1", ""), fam("11", ""),
        fam("12", "2"), fam("112", "2"),
        fam("123", ""),
        fam("13", "3"), fam("113", "3"),
        fam("11", "23"),
        fam("4", "56"),
    }
    assert got == expected
    # the identity elements occupy the edge profiles on top of these
    with_ids = P.nonempty_profiles()
    assert with_ids - got == {((c,), (c,)) for c in "123456"}


def test_free_properad_corolla_orbit():
    gen = corolla(2, 3, name="v")
    P = free_properad(gen, vertex_bound=2)
    ins, outs = gen.vertices[0].ins, gen.vertices[0].outs
    assert len(P.ops(ins, outs)) == 1
    # ordered representatives across all boundary reorderings
    count = 0
    for ip in itertools.permutations(ins):
        for op in itertools.permutations(outs):
            count += len(P.ops(ip, op))
    assert count == 2 * 6


def test_free_properad_subgraph_elements():
    g = three_vertex_graph()
    P = free_properad(g, vertex_bound=3)
    for sub in structured_subgraphs(g):
        el = P.subgraph_element(sub)
        ins, outs = P.op_profile(el)
        assert sorted(ins) == sorted(sub.inputs)
        assert sorted(outs) == sorted(sub.outputs)
        assert el in P.ops(ins, outs)


@pytest.mark.parametrize("g", [
    three_vertex_graph(), double_edge_graph(), linear_graph(3), corolla(2, 2),
], ids=["three-vertex", "double-edge", "linear-3", "corolla-2-2"])
def test_free_evaluate_matches_substitution(g):
    P = free_properad(g, vertex_bound=4)
    whole = P.subgraph_element(whole_subgraph(g))
    for sub in structured_subgraphs(g):
        # grafting the generators of a structured subgraph gives its element
        h = sub.as_graph
        dec = decorated_graph(
            h,
            {e: e for e in h.edges},
            {v: P.generator_element(v) for v in h.vertex_names},
        )
        assert P.evaluate(dec) == P.subgraph_element(sub)
        # so does grafting its element into the graph it was collapsed out of
        data = subgraph_witness(sub)
        collapsed = data.outer
        color = {e: e for e in collapsed.edges} | dict(data.bij_out)
        labels = {v: P.generator_element(v) for v in g.vertex_names}
        labels[data.vertex] = P.subgraph_element(sub)
        dec = decorated_graph(
            collapsed, color,
            {v: labels[v] for v in collapsed.vertex_names},
            g.inputs,
            tuple({x: e for e, x in data.bij_out}.get(e, e) for e in g.outputs),
        )
        assert P.evaluate(dec) == whole


def test_free_evaluate_unit():
    g = corolla(1, 2, name="v")
    P = free_properad(g, vertex_bound=2)
    el = P.generator_element("v")
    c = decorated_graph(
        g, {e: e for e in g.edges}, {"v": el}
    )
    assert P.evaluate(c) == el


def test_free_evaluate_rejects_mismatched_colors():
    g = linear_graph(2)
    P = free_properad(g, vertex_bound=2)
    # v2's generator sits at v1, whose edges are colored e0 -> e1
    labels = {"v1": P.generator_element("v2"), "v2": P.generator_element("v2")}
    dec = decorated_graph(g, {e: e for e in g.edges}, labels)
    with pytest.raises(ColorMismatch):
        P.evaluate(dec)


# ---------------------------------------------------------------------------
# end properads


def test_end_properad_counts():
    P = end_properad({"c": 2})
    assert len(P.ops(("c",), ("c",))) == 4
    assert len(P.ops(("c", "c"), ("c",))) == 16


def test_terminal_properad():
    P = terminal_properad(("a", "b"))
    assert len(P.ops(("a", "b"), ("b",))) == 1


def test_end_evaluate_is_composition():
    P = end_properad({"c": 2})
    lin = linear_graph(2)
    f = ("fn", ("c",), ("c",), ((1,), (0,)))  # swap
    g = ("fn", ("c",), ("c",), ((1,), (1,)))  # constant 1
    dec = decorated_graph(
        lin, {e: "c" for e in lin.edges}, {"v1": f, "v2": g}
    )
    out = P.evaluate(dec)
    assert out == ("fn", ("c",), ("c",), ((1,), (1,)))
    # in the other order
    dec2 = decorated_graph(
        lin, {e: "c" for e in lin.edges}, {"v1": g, "v2": f}
    )
    assert P.evaluate(dec2) == ("fn", ("c",), ("c",), ((0,), (0,)))


def test_end_evaluate_single_edge():
    P = end_properad({"c": 2})
    e = edge_graph()
    dec = decorated_graph(e, {"e": "c"}, {})
    assert P.evaluate(dec) == P.identity("c")


def test_end_evaluate_rejects_mismatched_colors():
    P = end_properad({"c": 2, "d": 2})
    lin = linear_graph(2)
    f = P.ops(("c",), ("c",))[0]
    g = P.ops(("d",), ("d",))[0]
    dec = decorated_graph(lin, {e: "c" for e in lin.edges}, {"v1": f, "v2": g})
    with pytest.raises(ColorMismatch):
        P.evaluate(dec)


def test_end_act_group_law():
    P = end_properad({"c": 2, "d": 3})
    op = P.ops(("c", "d"), ("d", "c"))[5]
    ident = P.act(op, (0, 1), (0, 1))
    assert ident == op
    swapped = P.act(op, (1, 0), (0, 1))
    back = P.act(swapped, (1, 0), (0, 1))
    assert back == op


# ---------------------------------------------------------------------------
# vertex lifts


def test_vertex_lift_exists_for_subgraph_inclusion():
    g = three_vertex_graph()
    P = free_properad(g, vertex_bound=2)
    sub = [s for s in structured_subgraphs(g) if len(s.vertex_names_set) == 2][0]
    h = sub.as_graph
    lift = vertex_lift(
        h, g, {e: e for e in h.edges},
        {v: P.generator_element(v) for v in h.vertex_names},
    )
    assert lift is not None and lift.mono


def test_vertex_lift_etale_not_mono():
    h = dangling_pair_graph()
    g = closed_double_edge_graph()
    P = free_properad(g, vertex_bound=2)
    edge_map = {"s": "p1", "dout": "p2", "din": "p2"}
    lift = vertex_lift(
        h, g, edge_map,
        {"u": P.generator_element("u"), "v": P.generator_element("v")},
    )
    assert lift is not None
    assert not lift.mono
    assert lift.vertices == {"u": "u", "v": "v"}


def test_vertex_lift_absent_for_composite_image():
    g = linear_graph(2)
    P = free_properad(g, vertex_bound=3)
    c = corolla(1, 1, name="z")
    from graphcat.digraph import whole_subgraph

    whole = P.subgraph_element(whole_subgraph(g))
    lift = vertex_lift(
        c, g, {"i1": "e0", "o1": "e2"}, {"z": whole},
    )
    assert lift is None


# ---------------------------------------------------------------------------
# theta and cartesian lifts


def test_theta_identity():
    g = three_vertex_graph()
    assert theta(identity_graphical(g)) == identity_arrow(theta_object(g))


def test_theta_functorial_random_pairs():
    rng = random.Random(0)
    e = edge_graph()
    c = corolla(1, 1)
    lin = linear_graph(2)
    g3 = three_vertex_graph()
    chains = [(c, lin), (lin, g3), (c, g3)]
    count = 0
    for a, b in chains:
        for f in hom_set(a, b):
            for target in (g3,):
                for g in hom_set(b, target):
                    left = theta(compose_graphical(f, g))
                    right = compose_arrows(theta(g), theta(f))
                    assert left == right
                    count += 1
    assert count >= 10


def test_theta_vertex_component():
    g = three_vertex_graph()
    for f in hom_set(corolla(1, 1), g):
        arr = theta(f)
        vm = vertex_map_G(f)
        for a, name in enumerate(g.vertex_names):
            expected = vm(name)
            if expected is None:
                assert arr.alpha[a] is None
            else:
                assert arr.alpha[a] == 0


def test_cartesian_lift_identity():
    g = three_vertex_graph()
    arrow = identity_arrow(theta_object(g))
    lift = cartesian_lift_active(g, arrow)
    assert validate_graphical(lift) is None
    assert theta(lift) == arrow


def test_cartesian_lift_two_vertex_inner():
    # insert a two-vertex operation at the top vertex of a chain
    g = linear_graph(2)
    inner = zgraph_of_graph(linear_graph(2))
    arrow_ops = (inner, identity_operation(1, 1))
    alpha = (0, 0, 1)
    arrow = type(identity_arrow(theta_object(g)))(
        ((1, 1), (1, 1), (1, 1)), theta_object(g), alpha, arrow_ops
    )
    lift = cartesian_lift_active(g, arrow)
    assert validate_graphical(lift) is None
    assert len(lift.target.vertices) == 3
    assert theta(lift) == arrow


def test_cartesian_lift_unique_in_hom_set():
    g = linear_graph(2)
    inner = zgraph_of_graph(linear_graph(2))
    arrow = type(identity_arrow(theta_object(g)))(
        ((1, 1), (1, 1), (1, 1)), theta_object(g), (0, 0, 1),
        (inner, identity_operation(1, 1)),
    )
    lift = cartesian_lift_active(g, arrow)
    matches = [
        m for m in hom_set(g, lift.target) if theta(m) == arrow
    ]
    assert matches == [lift]


def test_cartesian_lift_profile_mismatch():
    g = linear_graph(1)
    arrow = identity_arrow(((2, 1),))
    with pytest.raises(ProfileMismatch):
        cartesian_lift_active(g, arrow)


def test_decorated_graph_json_roundtrip():
    from graphcat.properad import decorated_from_json, decorated_to_json

    P = end_properad({"c": 2})
    lin = linear_graph(2)
    ops = P.ops(("c",), ("c",))
    dec = decorated_graph(
        lin, {e: "c" for e in lin.edges}, {"v1": ops[1], "v2": ops[2]}
    )
    data = decorated_to_json(P, dec)
    assert data["colors"] and data["labels"]
    back = decorated_from_json(P, data)
    assert back == dec


def test_operation_json_roundtrip():
    from graphcat.properad import operation_from_json, operation_to_json

    x = zgraph_of_graph(closed_square_graph())
    assert operation_from_json(operation_to_json(x)) == x


# ---------------------------------------------------------------------------
# where an indexed graph is checked (DECISIONS.md D4)


SMALL_BIARITIES = [(m, n) for m in range(3) for n in range(3) if (m, n) != (0, 0)]
# the two-vertex outers of criterion 6's associativity and equivariance checks
TWO_VERTEX_SHAPES = [
    ((1, 1), (1, 1)), ((1, 2), (1, 1)), ((1, 2), (2, 1)), ((0, 2), (2, 0)),
]


def _criterion_6_shapes():
    """The shapes of acceptance criterion 6: one vertex, its two-vertex
    outers, and two to four vertices with at most 10 stubs."""
    one = [((m, n),) for m in range(3) for n in range(3)]
    return one + TWO_VERTEX_SHAPES + [
        combo
        for k in (2, 3, 4)
        for combo in itertools.combinations_with_replacement(SMALL_BIARITIES, k)
        if sum(m + n for m, n in combo) <= 10
    ]


def _operad_laws_shapes():
    """Every ordered shape the operad_laws benchmark can draw with at most
    three vertices: arities at most two, no (0, 0) vertex, at most 8 stubs."""
    return [
        shape
        for k in (1, 2, 3)
        for shape in itertools.product(SMALL_BIARITIES, repeat=k)
        if sum(m + n for m, n in shape) <= 8
    ]


def assert_valid_by_construction(op):
    """``op`` is valid and connected, and checking it changes nothing."""
    assert validate(op.graph) is None
    assert is_connected(op.graph)
    assert zgraph(op.graph, op.in_order, op.out_order, op.colors) == op


def test_operad_constructors_are_valid_by_construction():
    for m in range(3):
        for n in range(3):
            assert_valid_by_construction(identity_operation(m, n))
    assert_valid_by_construction(identity_operation(2, 1, ("a", "b"), ("a",)))
    pool = op_pool()
    checked = 0
    for shape in dict.fromkeys(_criterion_6_shapes() + _operad_laws_shapes()):
        for op in all_operations(shape):
            assert_valid_by_construction(op)
            checked += 1
            if op.size > 3:  # four vertices: enumeration only, to keep the test short
                continue
            assert_valid_by_construction(sigma_action(
                op, tuple(reversed(range(op.size))),
                tuple(reversed(range(len(op.in_order)))),
                tuple(reversed(range(len(op.out_order)))),
            ))
            # a non-trivial composition: the pool's last operation of each
            # vertex's biarity (unit compositions give ``op`` back)
            inner = {z: pool[b][-1] for z, b in enumerate(op.vertex_biarities())}
            assert_valid_by_construction(prpd_compose(op, inner))
    assert checked > 15_000
    # every composition of two-vertex outers with inner operations
    for shape in TWO_VERTEX_SHAPES:
        for outer in all_operations(shape):
            for inners in itertools.product(
                *(pool[b] for b in outer.vertex_biarities())
            ):
                assert_valid_by_construction(
                    prpd_compose(outer, dict(enumerate(inners)))
                )
    for shape in ([(1, 1), (1, 1)], [(1, 2), (2, 1)]):
        for op in all_operations(shape, orderings="all"):
            assert_valid_by_construction(op)



def _stub_matchings(boundaries):
    """The parent's graph builder over ``_matchings``, kept as a test-side
    reference: each matching as (graph, edge colors), with vertices
    ``z<z>`` and edges ``m<n>`` for the n-th glue, then ``in<z>_<k>`` and
    ``out<z>_<k>`` for loose stubs, listed in that order so that the
    graph's boundary orders follow the stubs."""
    stubs_in, stubs_out, matchings = _matchings(boundaries)
    for matching in matchings:
        edge_of_in, edge_of_out, colors = {}, {}, {}
        glues = ((so, si, c) for (si, c), so in zip(stubs_in, matching) if so is not None)
        for n, (so, si, color) in enumerate(glues):
            edge_of_out[so] = edge_of_in[si] = f"m{n}"
            colors[f"m{n}"] = color
        for stubs, edge_of, side in ((stubs_in, edge_of_in, "in"), (stubs_out, edge_of_out, "out")):
            for key, color in stubs:
                if key not in edge_of:
                    edge_of[key] = f"{side}{key[0]}_{key[1]}"
                    colors[edge_of[key]] = color
        yield Graph(tuple(colors), tuple(
            Vertex(f"z{z}", tuple(edge_of_in[z, k] for k in range(len(ins))),
                   tuple(edge_of_out[z, k] for k in range(len(outs))))
            for z, (ins, outs) in enumerate(boundaries)
        )), colors


def stub_matchings_oracle(boundaries):
    """The leaf filter ``_stub_matchings`` replaced: enumerate every
    matching of an output stub to a same-coloured input stub of another
    vertex, build each as a graph, and keep it when it is valid and
    connected."""
    stubs_in = [((z, k), c) for z, (ins, _) in enumerate(boundaries) for k, c in enumerate(ins)]
    stubs_out = [((z, k), c) for z, (_, outs) in enumerate(boundaries) for k, c in enumerate(outs)]

    def build(matching):
        edge_of = {}
        colors = {}
        for n, (so, si, color) in enumerate(matching):
            edge_of["out", so] = edge_of["in", si] = f"m{n}"
            colors[f"m{n}"] = color
        for side, stubs in (("in", stubs_in), ("out", stubs_out)):
            for key, color in stubs:
                if (side, key) not in edge_of:
                    edge_of[side, key] = f"{side}{key[0]}_{key[1]}"
                    colors[edge_of[side, key]] = color
        vs = tuple(
            Vertex(
                f"z{z}",
                tuple(edge_of["in", (z, k)] for k in range(len(ins))),
                tuple(edge_of["out", (z, k)] for k in range(len(outs))),
            )
            for z, (ins, outs) in enumerate(boundaries)
        )
        return Graph(tuple(colors), vs), colors

    def match(i, used, acc):
        if i == len(stubs_in):
            g, colors = build(acc)
            if validate(g) is None and is_connected(g):
                yield g, colors
            return
        si, color = stubs_in[i]
        yield from match(i + 1, used, acc)
        for so, so_color in stubs_out:
            if so not in used and so_color == color and so[0] != si[0]:
                yield from match(i + 1, used | {so}, acc + [(so, si, color)])

    yield from match(0, frozenset(), [])


def test_stub_matchings_match_the_leaf_filter():
    kept = 0
    for shape in dict.fromkeys(_criterion_6_shapes() + _operad_laws_shapes()):
        stubs = [((None,) * m, (None,) * n) for m, n in shape]
        got = list(_stub_matchings(stubs))
        assert got == list(stub_matchings_oracle(stubs)), shape
        kept += len(got)
    assert kept == 17_551
    assert list(_stub_matchings([])) == list(stub_matchings_oracle([])) == []


@pytest.mark.parametrize("g", [
    getattr(zoo, name)() for name in sorted(dir(zoo)) if name.endswith("_graph")
], ids=[name for name in sorted(dir(zoo)) if name.endswith("_graph")])
def test_coloured_stub_matchings_match_the_leaf_filter(g):
    # the free properad's pool: combinations of up to three generator vertices
    for k in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(g.vertex_names, k):
            stubs = [(v.ins, v.outs) for v in map(g.vertex, combo)]
            assert list(_stub_matchings(stubs)) == list(stub_matchings_oracle(stubs))


def test_identity_operation_is_the_normalized_corolla():
    for m in range(3):
        for n in range(3):
            g = corolla(m, n)
            assert identity_operation(m, n) == _normalize(g, g.inputs, g.outputs)
    g = corolla(2, 1)
    colors = {"i1": "a", "i2": "b", "o1": "a"}
    coloured = identity_operation(2, 1, ("a", "b"), ("a",))
    assert coloured == _normalize(g, g.inputs, g.outputs, colors)
    assert identity_operation(2, 1, ["a", "b"], ["a"]) == coloured
    assert identity_operation(2, 1, ["a", "b"], ["a"]) != identity_operation(2, 1)

def test_theta_is_valid_by_construction():
    graphs = [
        corolla(1, 1), linear_graph(2), three_vertex_graph(), double_edge_graph(),
        closed_double_edge_graph(),
    ]
    count = 0
    for source in graphs:
        for target in graphs:
            for f in hom_set(source, target):
                for op in theta(f).ops:
                    assert_valid_by_construction(op)
                    count += 1
    assert count > 100


@pytest.mark.parametrize("g", [
    three_vertex_graph(), double_edge_graph(), two_component_graph(), corolla(2, 2),
], ids=["three-vertex", "double-edge", "two-component", "corolla-2-2"])
def test_free_pool_is_valid_by_construction(g):
    P = free_properad(g, vertex_bound=3)
    for els in P._pool.values():
        for _, zg, _ in els:
            assert_valid_by_construction(zg)


@pytest.mark.parametrize("g", [
    Graph(("a",), (Vertex("v", ("a",), ("a",)),)),
    two_component_graph(),
    Graph(("a", "a"), (Vertex("v", ("a",), ()),)),
], ids=["cyclic", "disconnected", "duplicate-edge"])
def test_zgraph_rejects_invalid_graphs(g):
    with pytest.raises(GraphcatError):
        zgraph(g, g.inputs, g.outputs)


def test_free_properad_rejects_cyclic_generator():
    with pytest.raises(GraphcatError):
        free_properad(Graph(("a",), (Vertex("v", ("a",), ("a",)),)))


@pytest.mark.parametrize("in_perm, out_perm", [((0, 0), (0, 1)), ((0, 1), (1, 1))])
def test_non_permutation_boundary_action_raises(in_perm, out_perm):
    op = identity_operation(2, 2)
    with pytest.raises(ProfileMismatch):
        sigma_action(op, in_perm=in_perm, out_perm=out_perm)
    P = free_properad(corolla(2, 2), vertex_bound=1)
    with pytest.raises(ProfileMismatch):
        P.act(P.generator_element("v"), in_perm, out_perm)


def test_sigma_action_refuses_an_index_map_that_is_not_a_permutation():
    op = zgraph_of_graph(linear_graph(2))
    with pytest.raises(ProfileMismatch, match="^not a permutation of the index set$"):
        sigma_action(op, (0, 0))


def test_uncolored_profile_is_the_biarity():
    assert zgraph_of_graph(corolla(2, 3)).profile() == (2, 3)


def test_arrows_that_do_not_compose_are_refused():
    with pytest.raises(GraphcatError, match="^arrows are not composable$"):
        compose_arrows(identity_arrow(((1, 1),)), identity_arrow(((2, 1),)))


@pytest.mark.parametrize("arrow, message", [
    (OperadArrow(((1, 1),), ((1, 1),), (None,), (identity_operation(1, 1),)),
     "arrow must be active"),
    (OperadArrow(((2, 1),), ((1, 1),), (0,), (identity_operation(2, 1),)),
     "operation at v1 has wrong biarity"),
], ids=["inactive", "biarity"])
def test_cartesian_lift_refuses_arrows_it_cannot_lift(arrow, message):
    with pytest.raises(ProfileMismatch, match=f"^{message}$"):
        cartesian_lift_active(linear_graph(1), arrow)


def test_vertex_lift_refuses_an_image_of_the_wrong_profile():
    P = free_properad(linear_graph(2), vertex_bound=1)
    with pytest.raises(ProfileMismatch, match="^image of z has the wrong profile$"):
        vertex_lift(corolla(1, 1, name="z"), linear_graph(2), {"i1": "e0", "o1": "e1"},
                    {"z": P.generator_element("v2")})


@pytest.mark.parametrize("name", ["v1", "v2"])
def test_vertex_lift_needs_the_named_vertex_to_have_the_image_edges(name):
    # an element of the free properad on another graph, whose vertex of
    # that name has the edges e0 -> e2; in the chain v1 is e0 -> e1 and
    # v2 is e1 -> e2
    other = free_properad(graph(["e0", "e2"], [(name, ["e0"], ["e2"])]), vertex_bound=1)
    images = {"z": other.generator_element(name)}
    edge_map = {"i1": "e0", "o1": "e2"}
    assert vertex_lift(corolla(1, 1, name="z"), linear_graph(2), edge_map, images) is None
    lift = vertex_lift(corolla(1, 1, name="z"), other.generator, edge_map, images)
    assert lift.edges == edge_map and lift.vertices == {"z": name}


FREE_G3 = free_properad(three_vertex_graph())
END_C = end_properad({"c": 2})
END_CD = end_properad({"c": 2, "d": 2})


@pytest.mark.parametrize("P, g, colors, labels", [
    # the edge b, at two of the vertices, has no color
    (FREE_G3, three_vertex_graph(), {e: e for e in "acde"},
     {v: FREE_G3.generator_element(v) for v in "uvw"}),
    # the output edge o1 has no color
    (END_C, corolla(1, 1), {"i1": "c"}, {"v": END_C.ops(("c",), ("c",))[0]}),
    # every edge is colored c, but the label's output is a d
    (END_CD, corolla(1, 1), {"i1": "c", "o1": "c"}, {"v": END_CD.ops(("c",), ("d",))[0]}),
], ids=["free-uncolored-edge", "end-uncolored-edge", "end-output-color"])
def test_evaluate_refuses_colors_that_miss_or_mismatch_an_edge(P, g, colors, labels):
    dec = decorated_graph(g, colors, labels)
    assert not P.check_decoration(dec)
    with pytest.raises(ColorMismatch, match="^decoration does not match vertex profiles$"):
        P.evaluate(dec)


@pytest.mark.parametrize("P", [FREE_G3, END_C], ids=["free", "end"])
def test_evaluate_refuses_an_uncolored_edge_at_no_vertex(P):
    dec = decorated_graph(edge_graph("a"), {}, {})
    assert P.check_decoration(dec)
    with pytest.raises(ColorMismatch, match="^colors must cover every edge$"):
        P.evaluate(dec)
