"""A brute-force oracle for graphical maps, written from the definition.

A graphical map f: G -> K between connected graphs sends every edge of
G to an edge of K and every vertex v of G to a structured subgraph H_v
of K -- a single edge, or a connected convex open subgraph -- such that

* f0 restricts to bijections in(v) -> inputs(H_v) and out(v) ->
  outputs(H_v), and
* the graph G{H_v} assembled by substituting every H_v into G maps
  injectively, on vertices and on edges, onto a connected convex open
  subgraph of K.

The oracle reads only the edge and vertex lists of a ``Graph``.  It
computes connectivity, reachability, convexity, the structured
subgraphs and the assembly itself, and shares no code with
``hom_set``, ``validate_graphical``, ``structured_subgraphs`` or
``is_convex_open``.  The edge map is read off the boundary bijections
of the chosen vertex images, so no edge map is guessed blindly.

A second section keeps the leaf test that built the assembled graph
with ``multi_substitute`` as a reference, and compares it with the
leaf that decides from edge and vertex sets (DECISIONS.md D11).

The next section checks ``unordered_canonical_form`` against
``iso_set``, the isomorphisms among the maps ``hom_set`` finds.

The next section keeps the derived action on subgraphs that promoted
the union of the vertex images through ``is_convex_open`` as a
reference, and checks the subgraphs that morphisms keep and the
boundaries read from the parent against their rebuilt counterparts
(DECISIONS.md D14).

The last section keeps the enumeration and factorization as they were
before DECISIONS.md D18 -- boundaries scanned by ``_boundary``, the
search in the source's vertex order after ``is_connected``, and the
middle object glued by a substitution that checks each vertex's
pairings -- and compares subgraph tables, hom-sets (in order, or the
error raised) and factorizations with them: on the zoo, on graphs from
the benchmark's drafter and their relabelled copies, and on a middle
object that needs a primed name.
"""

import functools
import importlib.util
import itertools
import pathlib
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from graphcat import graphical
from graphcat.digraph import (
    Correspondence,
    Graph,
    OpenSubgraph,
    StructuredSubgraph,
    Vertex,
    _fresh,
    canonical_form,
    corolla,
    edge_graph,
    edge_subgraph,
    graph,
    is_connected,
    is_convex_open,
    linear_graph,
    multi_substitute,
    open_subgraph,
    open_union,
    path_reentry,
    structured_subgraphs,
    unordered_canonical_form,
    vertex_corolla,
)
from graphcat.errors import (
    ConnectivityError,
    GraphcatError,
    ProfileMismatch,
    SizeLimit,
    Violation,
)
from graphcat.graphical import (
    GraphicalMorphism,
    compose_graphical,
    f1_on_subgraph,
    factorize_G,
    graphical_morphism,
    hom_set,
    identity_graphical,
    iso_set,
    morphism_from_json,
    validate_graphical,
)
from graphcat.segal import GRAPHICAL
from graphcat.zoo import (
    closed_double_edge_graph,
    closed_square_graph,
    dangling_pair_graph,
    double_edge_graph,
    three_vertex_graph,
    two_component_graph,
)


# ---------------------------------------------------------------------------
# the oracle


def _is_connected(k, edges, vertices):
    """Union-find over the edges and vertices of a subgraph of k."""
    atoms = [("e", e) for e in edges] + [("v", v) for v in vertices]
    if not atoms:
        return False
    root = {a: a for a in atoms}

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for v in k.vertices:
        if v.name in vertices:
            for e in v.ins + v.outs:
                root[find(("e", e))] = find(("v", v.name))
    return len({find(a) for a in atoms}) == 1


def _is_whole_connected(k):
    return _is_connected(k, set(k.edges), {v.name for v in k.vertices})


def _reachable(k):
    """vertex -> the vertices at the end of a directed path of length >= 1."""
    tail = {e: v.name for v in k.vertices for e in v.outs}
    succ = {v.name: set() for v in k.vertices}
    for w in k.vertices:
        for e in w.ins:
            if e in tail:
                succ[tail[e]].add(w.name)
    reach = {}

    def visit(a):
        if a not in reach:
            reach[a] = set()
            for b in succ[a]:
                reach[a] |= {b} | visit(b)
        return reach[a]

    for a in succ:
        visit(a)
    return reach


def _is_structured(k, reach, edges, vertices):
    """Open, connected, and containing every directed path between its
    vertices."""
    for v in k.vertices:
        if v.name in vertices and not set(v.ins + v.outs) <= edges:
            return False
    if not _is_connected(k, edges, vertices):
        return False
    return not any(
        z not in vertices and z in reach[a] and b in reach[z]
        for a in vertices
        for b in vertices
        for z in reach
    )


def _boundary(k, edges, vertices):
    """(inputs, outputs) of the subgraph (edges, vertices) of k."""
    heads = {e for v in k.vertices if v.name in vertices for e in v.ins}
    tails = {e for v in k.vertices if v.name in vertices for e in v.outs}
    return (
        tuple(e for e in sorted(edges) if e not in tails),
        tuple(e for e in sorted(edges) if e not in heads),
    )


@functools.lru_cache(maxsize=64)
def _structured_subgraphs(k):
    """Every (edges, vertices) pair of subsets of k that is structured."""
    reach = _reachable(k)
    found = []
    for ne in range(len(k.edges) + 1):
        for es in itertools.combinations(k.edges, ne):
            for nv in range(len(k.vertices) + 1):
                for vs in itertools.combinations([v.name for v in k.vertices], nv):
                    if _is_structured(k, reach, frozenset(es), frozenset(vs)):
                        found.append((frozenset(es), frozenset(vs)))
    return tuple(found)


def _vertex_images(v, k, subgraphs):
    """(H, partial edge map) for every image of v with matching boundary."""
    out = []
    for edges, vertices in subgraphs:
        ins, outs = _boundary(k, edges, vertices)
        if (len(ins), len(outs)) != (len(v.ins), len(v.outs)):
            continue
        for ip in itertools.permutations(ins):
            for op in itertools.permutations(outs):
                part = dict(zip(v.ins, ip))
                if any(part.get(e, y) != y for e, y in zip(v.outs, op)):
                    continue
                part.update(zip(v.outs, op))
                out.append(((edges, vertices), part))
    return out


def _families(g, choices, idx=0, f0=None, f1=None):
    """Every choice of one image per vertex whose edge maps agree."""
    f0, f1 = f0 or {}, f1 or {}
    if idx == len(g.vertices):
        yield dict(f0), dict(f1)
        return
    v = g.vertices[idx]
    for sub, part in choices[v.name]:
        if all(f0.get(e, y) == y for e, y in part.items()):
            yield from _families(
                g, choices, idx + 1, {**f0, **part}, {**f1, v.name: sub}
            )


def _assembles(g, k, reach, f0, f1):
    """Does G{H_v} map injectively onto a structured subgraph of k?

    The assembled graph has one vertex (v, w) per w in H_v; its edges are
    the edges of g, with in(v) and out(v) merged when H_v is a bare edge,
    plus one edge (v, x) per edge x inside H_v.  Its comparison with k
    sends (v, w) to w, an edge of g to its f0-image and (v, x) to x; the
    boundary bijections make it preserve incidence, so it is an embedding
    exactly when it is injective on vertices and on edges.
    """
    root = {e: e for e in g.edges}

    def find(e):
        while root[e] != e:
            e = root[e]
        return e

    for v in g.vertices:
        if not f1[v.name][1]:
            root[find(v.ins[0])] = find(v.outs[0])
    edge_image = {}
    for e in g.edges:
        if edge_image.setdefault(("g", find(e)), f0[e]) != f0[e]:
            return False
    vertex_image = []
    for v in g.vertices:
        edges, vertices = f1[v.name]
        ins, outs = _boundary(k, edges, vertices)
        for x in edges - set(ins) - set(outs):
            edge_image[(v.name, x)] = x
        vertex_image.extend(vertices)
    image_edges = set(edge_image.values())
    image_vertices = set(vertex_image)
    if len(image_edges) != len(edge_image):
        return False
    if len(image_vertices) != len(vertex_image):
        return False
    return _is_structured(k, reach, image_edges, image_vertices)


def _key(f0, f1):
    return (
        tuple(sorted(f0.items())),
        tuple(
            sorted(
                (v, (tuple(sorted(es)), tuple(sorted(vs))))
                for v, (es, vs) in f1.items()
            )
        ),
    )


def oracle_hom(g, k):
    """All graphical maps g -> k, as (f0 pairs, f1 pairs) keys."""
    if not _is_whole_connected(g) or not _is_whole_connected(k):
        return set()
    if not g.vertices:
        (e,) = g.edges
        return {_key({e: y}, {}) for y in k.edges}
    subgraphs = _structured_subgraphs(k)
    reach = _reachable(k)
    choices = {v.name: _vertex_images(v, k, subgraphs) for v in g.vertices}
    return {
        _key(f0, f1)
        for f0, f1 in _families(g, choices)
        if _assembles(g, k, reach, f0, f1)
    }


def engine_hom(g, k):
    return {(m.f0_pairs, m.f1v_pairs) for m in hom_set(g, k)}


# ---------------------------------------------------------------------------
# the oracle against hom_set


K_TWIST = graph(
    ["i", "t1", "t2", "o"],
    [("a", ["i"], ["t1", "t2"]), ("b", ["t1", "t2"], ["o"])],
)

# the three-vertex graph without v: mapped onto {u, w} of that graph,
# its image is open and connected but not convex
G3_WITHOUT_V = graph("abcde", [("p", "a", "bd"), ("q", "cd", "e")])


def test_oracle_settles_the_closed_pair():
    # the closed square has no map to the closed double edge, and
    # receives exactly 8 from it: u or v goes to a lone corolla, the
    # other to the 3-vertex complement, in either order of p1, p2
    g2, k2 = closed_square_graph(), closed_double_edge_graph()
    assert oracle_hom(g2, k2) == set() == engine_hom(g2, k2)
    backward = oracle_hom(k2, g2)
    assert len(backward) == 8
    assert backward == engine_hom(k2, g2)
    for f0, f1 in backward:
        sizes = sorted(len(vs) for _, (_, vs) in f1)
        assert sizes == [1, 3]
    assert len({f0 for f0, _ in backward}) == 8


def test_oracle_on_known_counts():
    # independent of the engine: the degeneracy, the corolla's boundary
    # permutations and the monotone maps [1] -> [2]
    assert len(oracle_hom(corolla(1, 1), edge_graph())) == 1
    assert len(oracle_hom(corolla(2, 3), corolla(2, 3))) == 2 * 6
    assert len(oracle_hom(linear_graph(1), linear_graph(2))) == 6


ZOO = [
    edge_graph(),
    corolla(1, 1),
    corolla(2, 1),
    corolla(0, 2),
    corolla(2, 0),
    linear_graph(2),
    linear_graph(3),
    three_vertex_graph(),
    G3_WITHOUT_V,
    double_edge_graph(),
    K_TWIST,
    dangling_pair_graph(),
    closed_double_edge_graph(),
    closed_square_graph(),
]

PAIRS = [
    (edge_graph(), closed_square_graph()),
    (corolla(1, 1), linear_graph(3)),
    (linear_graph(2), linear_graph(2)),
    (linear_graph(3), three_vertex_graph()),
    (linear_graph(2), K_TWIST),
    (corolla(2, 1), three_vertex_graph()),
    (corolla(2, 2), three_vertex_graph()),
    (G3_WITHOUT_V, three_vertex_graph()),
    (three_vertex_graph(), three_vertex_graph()),
    (three_vertex_graph(), corolla(1, 1)),
    (double_edge_graph(), K_TWIST),
    (double_edge_graph(), corolla(1, 1)),
    (K_TWIST, three_vertex_graph()),
    (corolla(0, 2), closed_square_graph()),
    (corolla(2, 0), closed_double_edge_graph()),
    (dangling_pair_graph(), closed_double_edge_graph()),
    (closed_double_edge_graph(), dangling_pair_graph()),
    (closed_square_graph(), closed_square_graph()),
    (closed_double_edge_graph(), closed_double_edge_graph()),
]


def test_oracle_matches_hom_set_on_listed_pairs():
    for g, k in PAIRS:
        assert oracle_hom(g, k) == engine_hom(g, k), (g, k)


def test_oracle_matches_hom_set_on_zoo_endomorphisms_and_edges():
    for g in ZOO:
        assert oracle_hom(g, g) == engine_hom(g, g), g
        assert oracle_hom(edge_graph(), g) == engine_hom(edge_graph(), g), g


def assert_hom_set_valid(g, k):
    """Each map hom_set returns passes the public validator, which the
    search no longer runs at its leaves (DECISIONS.md D9)."""
    for m in hom_set(g, k):
        assert validate_graphical(m) is None, (g, k, m)


def test_hom_set_returns_valid_maps_on_listed_and_zoo_pairs():
    for g, k in PAIRS:
        assert_hom_set_valid(g, k)
    for g in ZOO:
        assert_hom_set_valid(g, g)
        assert_hom_set_valid(edge_graph(), g)


@st.composite
def small_connected_graphs(draw, max_vertices=4):
    """Connected graphs on 1..max_vertices vertices with loose ends and
    parallel edges; vertex i may feed vertex j only when i < j."""
    n = draw(st.integers(1, max_vertices))
    ins = {i: [] for i in range(n)}
    outs = {i: [] for i in range(n)}
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        for _ in range(draw(st.integers(0, 2 if n < 3 else 1))):
            e = f"x{len(edges)}"
            edges.append(e)
            outs[i].append(e)
            ins[j].append(e)
    for i in range(n):
        for side in (ins[i], outs[i]):
            for _ in range(draw(st.integers(0, 1))):
                e = f"x{len(edges)}"
                edges.append(e)
                side.append(e)
    g = graph(edges, [(f"w{i}", ins[i], outs[i]) for i in range(n)])
    if not _is_whole_connected(g):
        # join the components: one more edge from the first vertex to
        # each other vertex
        for j in range(1, n):
            e = f"x{len(edges)}"
            edges.append(e)
            outs[0].append(e)
            ins[j].append(e)
        g = graph(edges, [(f"w{i}", ins[i], outs[i]) for i in range(n)])
    return g


@settings(max_examples=60, deadline=None)
@given(small_connected_graphs(), small_connected_graphs())
def test_oracle_matches_hom_set_on_random_graphs(g, k):
    assert oracle_hom(g, k) == engine_hom(g, k)


@settings(max_examples=60, deadline=None)
@given(small_connected_graphs(), small_connected_graphs())
def test_hom_set_returns_valid_maps_on_random_graphs(g, k):
    assert_hom_set_valid(g, k)


@settings(max_examples=40, deadline=None)
@given(small_connected_graphs())
def test_oracle_matches_hom_set_from_corollas(k):
    # maps out of a corolla are the structured subgraphs of k with
    # ordered boundaries, so this checks the subgraph search of hom_set
    # whatever arities k offers
    for m, n in itertools.product(range(4), repeat=2):
        assert oracle_hom(corolla(m, n), k) == engine_hom(corolla(m, n), k)


# ---------------------------------------------------------------------------
# the set-based leaf against the assembled leaf


def assembled_leaf(source, target, f0, f1v):
    """The leaf test as it was before DECISIONS.md D11: substitute every
    image into the source, then ask that the assembled edge comparison
    be consistent and injective and that its image be open and convex."""
    assignment = {
        v.name: (
            f1v[v.name].as_graph,
            {e: f0[e] for e in v.ins},
            {e: f0[e] for e in v.outs},
        )
        for v in source.vertices
    }
    failed = Violation("NotConvexOpenImage", "reference leaf")
    try:
        _, corr = multi_substitute(source, assignment)
    except GraphcatError:
        return failed
    e_map = {}
    for e in source.edges:
        if e_map.setdefault(corr.outer_edge[e], f0[e]) != f0[e]:
            return failed
    for (_, inner_e), res in corr.inner_edge.items():
        if e_map.setdefault(res, inner_e) != inner_e:
            return failed
    if len(set(e_map.values())) != len(e_map):
        return failed
    image = OpenSubgraph(
        target,
        frozenset(e_map.values()),
        frozenset(w for _, w in corr.inner_vertex),
    )
    if not image.is_open() or not is_convex_open(image):
        return failed
    return None


def kind(report):
    return None if report is None else report.kind


def leaf_clause(source, f0, f1v):
    """Which clause rejects a leaf: 'count' when two classes of source
    edges share an image, 'internal' when an internal edge of an image
    is also the image of a source edge, else 'closure'."""
    subs = [f1v[v] for v in source.vertex_names]
    bare = sum(1 for sub in subs if not sub.vertex_names_set)
    if len(set(f0.values())) != len(source.edges) - bare:
        return "count"
    if any(set(f0.values()) & sub.internal_edges for sub in subs):
        return "internal"
    return "closure"


ALL_PAIRS = PAIRS + [(g, k) for g in ZOO for k in ZOO]


def test_set_leaf_matches_the_assembled_leaf_at_every_search_leaf():
    # every candidate the search completes, on the listed pairs and all
    # ordered pairs of the zoo: rejections by each clause occur, as do
    # two vertices sent to one corolla
    seen = {"accepted": 0, "count": 0, "internal": 0, "closure": 0, "one corolla": 0}
    leaf = graphical._image_violation

    def both(source, target, f0, f1v):
        report = leaf(source, target, f0, f1v)
        assert kind(report) == kind(assembled_leaf(source, target, f0, f1v)), (
            source, target, f0, {v: sub.key() for v, sub in f1v.items()}
        )
        seen["accepted" if report is None else leaf_clause(source, f0, f1v)] += 1
        corollas = [sub.key() for sub in f1v.values() if sub.is_corolla()]
        seen["one corolla"] += len(corollas) != len(set(corollas))
        return report

    with mock.patch.object(graphical, "_image_violation", both):
        for g, k in ALL_PAIRS:
            try:
                hom_set(g, k)
            except GraphcatError:
                pass
    assert all(seen.values()), seen


def test_hom_set_equals_the_assembled_leaf_search():
    found = {}
    for g, k in ALL_PAIRS:
        try:
            found[g, k] = hom_set(g, k)
        except GraphcatError as exc:
            found[g, k] = type(exc)
    with mock.patch.object(graphical, "_image_violation", assembled_leaf):
        for g, k in ALL_PAIRS:
            try:
                assert hom_set(g, k) == found[g, k], (g, k)
            except GraphcatError as exc:
                assert type(exc) is found[g, k], (g, k)


# the zoo pairs whose search completes a candidate that is rejected
REJECTING_PAIRS = [
    (linear_graph(2), closed_square_graph()),
    (linear_graph(3), closed_square_graph()),
    (G3_WITHOUT_V, three_vertex_graph()),
    (G3_WITHOUT_V, double_edge_graph()),
    (G3_WITHOUT_V, K_TWIST),
    (dangling_pair_graph(), closed_double_edge_graph()),
    (dangling_pair_graph(), closed_square_graph()),
    (closed_square_graph(), closed_double_edge_graph()),
    (closed_square_graph(), closed_square_graph()),
]


def _fits(v, subs, f0):
    """(image, edge images) pairs for v that agree with f0."""
    return [
        (sub, ins + outs)
        for sub in subs
        if (len(sub.inputs), len(sub.outputs)) == v.biarity()
        for ins in itertools.permutations(sub.inputs)
        for outs in itertools.permutations(sub.outputs)
        if all(f0.get(e, y) == y for e, y in zip(v.ins + v.outs, ins + outs))
    ]


def _random_leaf(g, subs, rnd, keep, idx=0, f0=None, f1=None):
    """The first leaf of the hom search of g that ``keep`` accepts,
    trying images in a random order; None when there is none."""
    f0, f1 = f0 or {}, f1 or {}
    if idx == len(g.vertices):
        return (f0, f1) if keep(f0, f1) else None
    v = g.vertices[idx]
    fits = _fits(v, subs, f0)
    rnd.shuffle(fits)
    for sub, images in fits:
        leaf = _random_leaf(
            g, subs, rnd, keep, idx + 1,
            {**f0, **dict(zip(v.ins + v.outs, images))}, {**f1, v.name: sub},
        )
        if leaf is not None:
            return leaf
    return None


@st.composite
def candidate_maps(draw):
    """A graphical morphism as a file hands it to validate_graphical.

    Usually a leaf of the hom search picked at random, half the time
    among those the assembled leaf rejects; sometimes one vertex then
    gets any structured subgraph of the target with a random pairing of
    its edges.  A stray image for a name that is no vertex may be added.
    Source and target are a zoo pair whose search rejects some leaf, or
    a graph and itself, or two graphs, from the zoo or drawn.
    """
    graphs = st.sampled_from(ZOO) | small_connected_graphs()
    g, k = draw(
        st.sampled_from(REJECTING_PAIRS)
        | graphs.map(lambda g: (g, g))
        | st.tuples(graphs, graphs)
    )
    subs = structured_subgraphs(k)
    rnd = draw(st.randoms(use_true_random=False))

    def rejected(f0, f1):
        return assembled_leaf(g, k, f0, f1) is not None

    f0, f1 = {}, {}
    if g.vertices:
        leaf = draw(st.booleans()) and _random_leaf(g, subs, rnd, rejected)
        f0, f1 = leaf or _random_leaf(g, subs, rnd, lambda *_: True) or ({}, {})
    if g.vertices and (not f1 or not draw(st.integers(0, 3))):
        v = draw(st.sampled_from(g.vertices))
        sub = draw(st.sampled_from(subs))
        images = draw(st.permutations(sub.inputs)) + draw(st.permutations(sub.outputs))
        f0.update(zip(v.ins + v.outs, images))
        f1[v.name] = sub
    for v in g.vertices:
        f1.setdefault(v.name, draw(st.sampled_from(subs)))
    if draw(st.booleans()):
        f1["stray"] = draw(st.sampled_from(subs))
    for e in g.edges:
        f0.setdefault(e, draw(st.sampled_from(k.edges or ("nowhere",))))
    data = {
        "f0": f0,
        "f1": {
            v: {"edges": sorted(sub.edge_names), "vertices": sorted(sub.vertex_names_set)}
            for v, sub in f1.items()
        },
    }
    return morphism_from_json(g, k, data)


@settings(max_examples=150, deadline=None)
@given(candidate_maps())
def test_validate_graphical_matches_the_assembled_leaf_on_random_candidates(f):
    verdict = kind(validate_graphical(f))
    with mock.patch.object(graphical, "_image_violation", assembled_leaf):
        assert verdict == kind(validate_graphical(f))


# ---------------------------------------------------------------------------
# the unordered canonical form against iso_set


def _shuffled(g, rnd):
    """A copy of g with fresh names and every order permuted: isomorphic
    in the graphical category, and usually not strictly isomorphic."""
    edges = {e: f"y{k}" for k, e in enumerate(rnd.sample(g.edges, len(g.edges)))}
    vertices = rnd.sample(g.vertices, len(g.vertices))
    return graph(
        sorted(edges.values()),
        [
            (
                f"u{k}",
                [edges[e] for e in rnd.sample(v.ins, len(v.ins))],
                [edges[e] for e in rnd.sample(v.outs, len(v.outs))],
            )
            for k, v in enumerate(vertices)
        ],
    )


def assert_form_decides_iso(g, k):
    """Equal forms exactly when iso_set(g, k) is non-empty, and then the
    renamings compose to one of those isomorphisms."""
    form_g, g_edges, g_vertices = unordered_canonical_form(g)
    form_k, k_edges, k_vertices = unordered_canonical_form(k)
    isos = iso_set(g, k)
    assert (form_g == form_k) == bool(isos), (g, k)
    if isos:
        edge_back = {c: e for e, c in k_edges.items()}
        vertex_back = {c: v for v, c in k_vertices.items()}
        f0 = {e: edge_back[c] for e, c in g_edges.items()}
        f1v = {v: vertex_corolla(k, vertex_back[c]) for v, c in g_vertices.items()}
        assert graphical_morphism(g, k, f0, f1v) in isos, (g, k)


# three sources feeding three sinks around a hexagon: refinement cannot
# split the sources or the sinks, so the least certificate has to be
# searched for among the orders within each class
CROWN = graph(
    ["ad", "ae", "be", "bf", "cf", "cd"],
    [
        ("a", [], ["ad", "ae"]),
        ("b", [], ["be", "bf"]),
        ("c", [], ["cf", "cd"]),
        ("d", ["ad", "cd"], []),
        ("e", ["ae", "be"], []),
        ("f", ["bf", "cf"], []),
    ],
)


def test_unordered_form_decides_iso_on_the_zoo():
    rnd = random.Random(11)
    for g in ZOO + [CROWN]:
        for _ in range(3):
            assert_form_decides_iso(g, _shuffled(g, rnd))
    for g in ZOO:
        for k in ZOO:
            assert_form_decides_iso(g, k)


def test_unordered_form_forgets_vertex_orders():
    # x and y share a biarity; with x's inputs swapped the graph is the
    # same once orderings are forgotten and another one while they are
    # kept, and refinement must not read the order either
    def fan(x_ins):
        return graph(
            ["p", "q", "r", "s", "t", "u", "w"],
            [
                ("a", [], ["p", "q"]),
                ("b", [], ["r", "s", "t"]),
                ("x", x_ins, ["u"]),
                ("y", ["s", "q"], ["w"]),
                ("c", ["u"], []),
            ],
        )

    g, swapped = fan(["p", "r"]), fan(["r", "p"])
    assert unordered_canonical_form(g)[0] == unordered_canonical_form(swapped)[0]
    assert canonical_form(g)[0] != canonical_form(swapped)[0]
    assert_form_decides_iso(g, swapped)


@settings(max_examples=60, deadline=None)
@given(small_connected_graphs(), small_connected_graphs(), st.randoms())
def test_unordered_form_decides_iso_on_random_graphs(g, k, rnd):
    assert_form_decides_iso(g, k)
    assert_form_decides_iso(g, _shuffled(g, rnd))
    assert_form_decides_iso(_shuffled(k, rnd), k)


# ---------------------------------------------------------------------------
# kept subgraphs and unpromoted images against the promoting reference


def promoted_image(f, j):
    """The image of j as ``f1_on_subgraph`` computed it before
    DECISIONS.md D14: the open union of the vertex images, promoted
    through ``is_convex_open``; None when the union is not structured."""
    if j.is_edge():
        (e,) = j.edge_names
        return edge_subgraph(f.target, f.f0[e])
    current = None
    for v in sorted(j.vertex_names_set):
        sub = f.f1v[v]
        current = sub if current is None else open_union(current, sub)
    if not is_convex_open(current):
        return None
    return StructuredSubgraph(current.parent, current.edge_names, current.vertex_names_set)


def assert_keeps_f1v(m):
    """The subgraphs m keeps are those rebuilt from its name tuples."""
    rebuilt = GraphicalMorphism(m.source, m.target, m.f0_pairs, m.f1v_pairs).f1v
    assert m.f1v == rebuilt, m


def assert_graphical_layer(graphs, composites=True):
    """On ``graphs`` (connected): boundaries read from the parent equal
    those of the subgraph's Graph; every map of ``hom_set``, both parts
    of its factorization, every identity and Segal inclusion, and (with
    ``composites``) every composite keeps the f1v rebuilt from its names;
    and ``f1_on_subgraph`` equals the promoting reference, which never
    finds an image that is not structured."""
    for k in graphs:
        for sub in structured_subgraphs(k):
            assert (sub.inputs, sub.outputs) == (
                sub.as_graph.inputs, sub.as_graph.outputs
            ), sub.key()
        assert_keeps_f1v(identity_graphical(k))
        for e in k.edges:
            assert_keeps_f1v(GRAPHICAL.edge_inclusion(edge_graph(), k, e))
        for v in k.vertices:
            c = corolla(len(v.ins), len(v.outs))
            assert_keeps_f1v(GRAPHICAL.corolla_inclusion(c, k, v))
    homs = {(g, k): hom_set(g, k) for g in graphs for k in graphs}
    for (g, k), maps in homs.items():
        subs = structured_subgraphs(g)
        for f in maps:
            assert_keeps_f1v(f)
            for part in factorize_G(f):
                assert_keeps_f1v(part)
            for j in subs:
                image = promoted_image(f, j)
                assert image is not None and f1_on_subgraph(f, j) == image, (f, j)
    if not composites:
        return
    for (h, g), firsts in homs.items():
        for k in graphs:
            for a in firsts:
                for b in homs[(g, k)]:
                    m = compose_graphical(a, b)
                    assert_keeps_f1v(m)
                    f0 = {e: b.f0[y] for e, y in a.f0.items()}
                    f1v = {w: promoted_image(b, a.f1v[w]) for w in h.vertex_names}
                    assert m == graphical_morphism(h, k, f0, f1v)


def test_graphical_layer_matches_the_reference_on_the_zoo():
    assert_graphical_layer(ZOO)


def test_graphical_layer_matches_the_reference_on_corollas_and_linear_graphs():
    corollas = [corolla(m, n) for m in range(3) for n in range(3) if m + n]
    linear = [linear_graph(k) for k in range(1, 4)]
    assert_graphical_layer(corollas + linear + ZOO, composites=False)
    assert_graphical_layer(corollas[:4] + linear + [three_vertex_graph()])


@settings(max_examples=60, deadline=None)
@given(small_connected_graphs(3), small_connected_graphs(), small_connected_graphs())
def test_graphical_layer_matches_the_reference_on_random_graphs(h, g, k):
    assert_graphical_layer([h, g, k])


# ---------------------------------------------------------------------------
# enumeration and factorization as they were before DECISIONS.md D18


def _reference_linked(g, members):
    """Are the member vertices connected through edges between members?"""
    start = next(iter(members))
    seen, stack = {start}, [start]
    while stack:
        v = g.vertex(stack.pop())
        for w in itertools.chain(
            map(g.in_vertex.get, v.outs), map(g.out_vertex.get, v.ins)
        ):
            if w in members and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(members)


def reference_structured_subgraphs(g, max_vertices=16):
    """The same subsets in the same order, with boundaries left to
    ``StructuredSubgraph._boundary``, which scans the parent's edges."""
    if not is_connected(g):
        raise ConnectivityError("structured subgraphs require a connected parent")
    if len(g.vertices) > max_vertices:
        raise SizeLimit(f"too many vertices ({len(g.vertices)} > {max_vertices})")
    found = [edge_subgraph(g, e) for e in g.edges]
    names = g.vertex_names
    spanned = []
    for r in range(1, len(names) + 1):
        for combo in itertools.combinations(names, r):
            members = frozenset(combo)
            if _reference_linked(g, members) and path_reentry(g, members) is None:
                sub = open_subgraph(g, combo)
                spanned.append(StructuredSubgraph(g, sub.edge_names, members))
    spanned.sort(key=lambda s: (len(s.vertex_names_set), sorted(s.vertex_names_set)))
    return tuple(found + spanned)


def reference_hom_set(G, K, max_vertices=10):
    """The search over G's vertices in G's own order, after an
    ``is_connected(G)`` test."""
    if len(G.vertices) > max_vertices or len(K.vertices) > max_vertices:
        raise SizeLimit("hom enumeration bound exceeded")
    if not G.vertices:
        if len(G.edges) != 1 or not is_connected(K):
            return ()
        return tuple(
            graphical_morphism(G, K, {G.edges[0]: y}, {}) for y in K.edges
        )
    by_arity = {}
    for sub in reference_structured_subgraphs(K):
        by_arity.setdefault((len(sub.inputs), len(sub.outputs)), []).append(sub)
    if not is_connected(G):
        return ()
    results = []
    vnames = G.vertex_names

    def backtrack(idx, f0, f1v):
        if idx == len(vnames):
            if graphical._image_violation(G, K, f0, f1v) is None:
                results.append(graphical_morphism(G, K, f0, f1v))
            return
        v = vnames[idx]
        vert = G.vertex(v)
        for sub in by_arity.get(vert.biarity(), ()):
            for in_perm in itertools.permutations(sub.inputs):
                if any(f0.get(e, y) != y for e, y in zip(vert.ins, in_perm)):
                    continue
                for out_perm in itertools.permutations(sub.outputs):
                    trial = dict(f0)
                    trial.update(zip(vert.ins, in_perm))
                    pairs = zip(vert.outs, out_perm)
                    if any(trial.setdefault(e, y) != y for e, y in pairs):
                        continue
                    f1v[v] = sub
                    backtrack(idx + 1, trial, f1v)
                    del f1v[v]

    backtrack(0, {}, {})
    results.sort(key=lambda m: m.sort_key())
    return tuple(results)


def reference_multi_substitute(outer, assignment):
    """Substitution with the boundary check made vertex by vertex, on the
    edge names as they stand after the merges before it."""
    name = {e: e for e in outer.edges}
    live_edges, live_vertices = set(outer.edges), set(outer.vertex_names)
    internal = []
    pieces = []
    for w in outer.vertices:
        if w.name not in assignment:
            pieces.append(w)
            continue
        spec = assignment[w.name]
        ins = tuple(name[e] for e in w.ins)
        outs = tuple(name[e] for e in w.outs)
        if isinstance(spec, Graph):
            inner = spec
            in_map = dict(zip(ins, inner.inputs))
            out_map = dict(zip(outs, inner.outputs))
        else:
            inner, bij_in, bij_out = spec
            in_map = {name.get(e, e): x for e, x in dict(bij_in).items()}
            out_map = {name.get(e, e): x for e, x in dict(bij_out).items()}
        for side, ends, pairs, targets in (
            ("in", ins, in_map, inner.inputs),
            ("out", outs, out_map, inner.outputs),
        ):
            if sorted(pairs) != sorted(ends) or sorted(pairs.values()) != sorted(targets):
                raise ProfileMismatch(
                    f"{side}({w.name}) does not match the {side}puts of the inner graph"
                )
        bound = {x: e for e, x in out_map.items()} | {x: e for e, x in in_map.items()}
        fresh_e, fresh_v = {}, {}
        if not inner.vertices:
            (e_in,), (e_out,) = in_map, out_map
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
    return Graph(edges, tuple(vertices)), Correspondence(name, inner_edge, inner_vertex)


def reference_factorize_G(f):
    """The factorization through the checked ``reference_multi_substitute``."""
    G = f.source
    inner = {v: f.f1v[v].as_graph for v in G.vertex_names}
    assembled, corr = reference_multi_substitute(G, {
        v.name: (
            inner[v.name],
            {e: f.f0[e] for e in v.ins},
            {e: f.f0[e] for e in v.outs},
        )
        for v in G.vertices
    })
    active = graphical.active_onto_substitution(G, assembled, corr, inner)
    e_map = {corr.outer_edge[e]: f.f0[e] for e in G.edges}
    e_map.update((res, e) for (_, e), res in corr.inner_edge.items())
    inert_f1v = {
        res: vertex_corolla(f.target, kv)
        for (_, kv), res in corr.inner_vertex.items()
    }
    inert = graphical_morphism(assembled, f.target, e_map, inert_f1v)
    return active, inert


def _listed(subs):
    """Subgraphs in order, with their boundaries as listed; an error
    message as it is."""
    if isinstance(subs, str):
        return subs
    return [(sub.key(), sub.inputs, sub.outputs) for sub in subs]


def _outcome(function, *args):
    """The result, or the class and message of the error raised."""
    try:
        return function(*args)
    except GraphcatError as exc:
        return f"{type(exc).__name__}: {exc}"


def _kept(maps):
    """Morphisms with the subgraphs they keep, in order, with boundaries;
    an error message as it is."""
    if isinstance(maps, str):
        return maps
    return [(m, list(m.f1v), _listed(m.f1v.values())) for m in maps]


def assert_matches_the_reference(graphs, pairs):
    """On ``graphs``, subgraph tables equal the reference's; on ``pairs``,
    hom-sets equal it in order (or raise alike) and so do both parts of
    every map's factorization.  Returns the number of maps factorized."""
    for g in graphs:
        assert _listed(_outcome(structured_subgraphs, g)) == _listed(
            _outcome(reference_structured_subgraphs, g)
        ), g
    factorized = 0
    for g, k in pairs:
        maps = _outcome(hom_set, g, k)
        assert _kept(maps) == _kept(_outcome(reference_hom_set, g, k)), (g, k)
        for m in () if isinstance(maps, str) else maps:
            assert _kept(factorize_G(m)) == _kept(reference_factorize_G(m)), m
            factorized += 1
    return factorized


def test_enumeration_and_factorization_match_the_reference_on_the_zoo():
    graphs = ZOO + [edge_graph("z"), graph(["z0", "z1"], []), two_component_graph()]
    graphs += [_shuffled(g, random.Random(i)) for i, g in enumerate(graphs)]
    assert assert_matches_the_reference(
        graphs, [(g, k) for g in graphs for k in graphs]
    ) > 0


def _benchmark_gen():
    """The benchmark's input drafter, ``perfbench/gen.py``."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _renamed(g, suffix):
    return graph(
        [e + suffix for e in g.edges],
        [(v.name + suffix, [e + suffix for e in v.ins], [e + suffix for e in v.outs])
         for v in g.vertices],
    )


def benchmark_graphs(count, seed):
    """``count`` drafts of 1-5 vertices from the benchmark's drafter, in
    turn connected, closed, two components, and with vertexless edges."""
    gen, rng = _benchmark_gen(), random.Random(seed)
    graphs = []
    for i in range(count):
        if i % 4 == 0:
            g = gen.random_graph(rng, rng.randint(1, 5))
        elif i % 4 == 1:
            g = gen.random_graph(rng, rng.randint(2, 5), closed=True)
        elif i % 4 == 2:
            g = gen.random_graph(rng, rng.randint(1, 2))
            h = _renamed(gen.random_graph(rng, rng.randint(1, 3)), "'")
            g = graph(g.edges + h.edges, g.vertices + h.vertices)
        else:
            g = gen.random_graph(rng, rng.randint(1, 4))
            g = graph(g.edges + tuple(f"z{j}" for j in range(rng.randint(1, 2))), g.vertices)
        graphs.append(g)
    return graphs


def test_enumeration_and_factorization_match_the_reference_on_benchmark_graphs():
    # 2,400 pairs: each graph or relabelled copy as G, against three
    # connected targets and one drawn from all 600; 281 pairs raise, and
    # 695 maps are factorized
    graphs = benchmark_graphs(300, seed=18)
    copies = [_shuffled(g, random.Random(i)) for i, g in enumerate(graphs)]
    pool = [g for pair in zip(graphs, copies) for g in pair]
    rng = random.Random(18)
    connected = [g for g in pool if is_connected(g)]
    pairs = [(g, k) for g in pool for k in rng.sample(connected, 3) + [rng.choice(pool)]]
    assert assert_matches_the_reference(pool, pairs) > 600


# G has a vertex v with edges v.x -> b, and K is the chain a -p-> x -q-> c:
# sent onto the whole chain, v's internal edge x is named v.x, which G
# already uses, so the middle object primes it
PRIMED_SOURCE = graph(["v.x", "b"], [("v", ["v.x"], ["b"])])
PRIMED_TARGET = graph(["a", "x", "c"], [("p", ["a"], ["x"]), ("q", ["x"], ["c"])])


def test_factorization_primes_a_taken_name_like_the_reference():
    (f,) = [
        m for m in hom_set(PRIMED_SOURCE, PRIMED_TARGET)
        if m.f1v["v"].vertex_names_set == {"p", "q"}
    ]
    active, inert = factorize_G(f)
    assert active.target == graph(
        ["v.x", "b", "v.x'"], [("v.p", ["v.x"], ["v.x'"]), ("v.q", ["v.x'"], ["b"])]
    )
    assert dict(inert.f0_pairs) == {"v.x": "a", "b": "c", "v.x'": "x"}
    assert _kept((active, inert)) == _kept(reference_factorize_G(f))
    assert assert_matches_the_reference(
        [PRIMED_SOURCE, PRIMED_TARGET], [(PRIMED_SOURCE, PRIMED_TARGET)]
    ) == 6


def test_multi_substitute_checks_pairings_like_the_reference():
    # good pairings and a merge, then broken ones: a Graph of the wrong
    # arity, an empty pairing, a key that is no edge of the vertex, a
    # wrong inner edge, and a merge at a vertex that is no (1, 1)
    g3 = three_vertex_graph()
    v = g3.vertex("v")
    inner = corolla(len(v.ins), len(v.outs))
    good = (inner, dict(zip(v.ins, inner.inputs)), dict(zip(v.outs, inner.outputs)))
    cases = [{"v": good}, {"v": inner}, {"v": edge_graph()}, {"v": corolla(2, 1)}]
    cases += [{"v": (inner, {}, good[2])}]
    cases += [{"v": (inner, {**good[1], "nope": "i1"}, good[2])}]
    cases += [{"v": (inner, good[1], {e: "i1" for e in v.outs})}]
    cases += [{name: edge_graph() for name in ("v", "u")}]
    for assignment in cases:
        new = _outcome(multi_substitute, g3, assignment)
        assert new == _outcome(reference_multi_substitute, g3, assignment), assignment
    # a key naming an edge that an earlier vertex merged into one of the
    # vertex's own (e0, into which v1's collapse merges v2's input e1)
    # passed the reference, which compared names after the merges; the
    # pairing is now checked on the vertex's own edges (DECISIONS.md D18)
    aliased = {"v1": edge_graph(), "v2": (corolla(1, 1), {"e0": "i1"}, {"e2": "o1"})}
    assert not isinstance(_outcome(reference_multi_substitute, linear_graph(3), aliased), str)
    assert _outcome(multi_substitute, linear_graph(3), aliased) == (
        "ProfileMismatch: in(v2) does not match the inputs of the inner graph"
    )
    f = hom_set(PRIMED_SOURCE, PRIMED_TARGET)[-1]
    specs = {
        u.name: (f.f1v[u.name].as_graph, {e: f.f0[e] for e in u.ins},
                 {e: f.f0[e] for e in u.outs})
        for u in PRIMED_SOURCE.vertices
    }
    assert multi_substitute(PRIMED_SOURCE, specs) == reference_multi_substitute(
        PRIMED_SOURCE, specs
    )
