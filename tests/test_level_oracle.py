"""A brute-force oracle for level morphisms, written from the definition.

A morphism G -> H of level graphs of heights n and m is a monotone map
alpha: [n] -> [m] with

* an edge map from each level k of G to level alpha(k) of H, and
* a vertex map from each layer k of G to the components of H at the
  index pair (alpha(k), alpha(k+1)),

such that, for every index pair (i, j) of G,

* naturality: the atoms of each component of G at (i, j) land in one
  component of H at (alpha(i), alpha(j)), so that the data induce a map
  of components at (i, j);
* monomorphism: that induced map is injective; and
* cartesianness: for every pair (k, l) containing (i, j), the square of
  induced maps and inclusions of components is a pullback of sets.

The oracle tries every monotone alpha, every layerwise edge map and
every vertex map, and keeps the data that pass these clauses.  It finds
the components of a slice by its own breadth-first search and shares no
code with ``SpecialFunctor``, ``derived_class_map``,
``validate_level_morphism`` or ``hom_level``.  A component is named as
``LevelMorphism`` names it: by its least atom, where atoms are
("e", level, edge) and ("v", layer, vertex) tuples.
"""

import functools
import itertools
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from graphcat import digraph, graphical, zoo
from graphcat.digraph import (
    Graph,
    StructuredSubgraph,
    Vertex,
    corolla,
    edge_graph,
    is_convex_open,
    linear_graph,
)
from graphcat.errors import ConnectivityError
from graphcat.level import (
    LevelGraph,
    LevelMorphism,
    component_images,
    elementary_corolla,
    elementary_edge,
    hom_level,
    level_graph,
    level_structure,
    linear_level_graph,
    special_extension,
    tau,
    underlying_graph,
    validate_level,
    validate_level_morphism,
)


# ---------------------------------------------------------------------------
# the oracle


@functools.cache
def slice_components(lg, i, j):
    """Components of the slice at levels i..j (layers i..j-1), each a
    frozenset of atoms, found by breadth-first search; kept per graph
    value and pair, since the oracle asks for the same slices many times."""
    atoms = [("e", k, e) for k in range(i, j + 1) for e in lg.edge_layers[k]]
    atoms += [("v", k, v.name) for k in range(i, j) for v in lg.vertex_layers[k]]
    neighbours = {a: [] for a in atoms}
    for k in range(i, j):
        for v in lg.vertex_layers[k]:
            va = ("v", k, v.name)
            ends = [("e", k, e) for e in v.ins] + [("e", k + 1, e) for e in v.outs]
            for ea in ends:
                neighbours[va].append(ea)
                neighbours[ea].append(va)
    seen, components = set(), []
    for start in atoms:
        if start in seen:
            continue
        seen.add(start)
        component, queue = {start}, deque([start])
        while queue:
            for b in neighbours[queue.popleft()]:
                if b not in seen:
                    seen.add(b)
                    component.add(b)
                    queue.append(b)
        components.append(frozenset(component))
    return tuple(components)


def containing(components, atom):
    """The component that holds ``atom``."""
    return next(c for c in components if atom in c)


def pairs(n):
    return [(i, j) for i in range(n + 1) for j in range(i, n + 1)]


def induced_map(G, H, alpha, image, i, j):
    """The map of components at (i, j), or None where data are not natural."""
    target = slice_components(H, alpha[i], alpha[j])
    out = {}
    for comp in slice_components(G, i, j):
        hit = {containing(target, b) for a in comp for b in image[a]}
        if len(hit) != 1:
            return None
        out[comp] = hit.pop()
    return out


def is_pullback(G, H, alpha, maps, small, big):
    """The square of the maps at ``small`` and ``big`` and the inclusions
    small -> big in G and in H is a pullback of sets."""
    (i, j), (k, l) = small, big
    g_big = slice_components(G, k, l)
    h_big = slice_components(H, alpha[k], alpha[l])
    for b in slice_components(H, alpha[i], alpha[j]):
        b_up = containing(h_big, next(iter(b)))
        for c in g_big:
            if maps[big][c] != b_up:
                continue
            over = [
                a for a, y in maps[small].items()
                if y == b and containing(g_big, next(iter(a))) == c
            ]
            if len(over) != 1:
                return False
    return True


def is_morphism(G, H, alpha, image, cartesian=True):
    n = G.height
    maps = {}
    for i, j in pairs(n):
        dmap = induced_map(G, H, alpha, image, i, j)
        if dmap is None or len(set(dmap.values())) != len(dmap):
            return False
        maps[(i, j)] = dmap
    if not cartesian:
        return True
    return all(
        is_pullback(G, H, alpha, maps, small, big)
        for small in pairs(n) for big in pairs(n)
        if big[0] <= small[0] and small[1] <= big[1]
    )


def candidates(G, H):
    """Every monotone alpha with every edge map and vertex map, as
    ((alpha, edge maps, vertex maps), image of each atom); each map is a
    tuple per layer of sorted (name, image) pairs."""
    n, m = G.height, H.height
    for alpha in itertools.product(range(m + 1), repeat=n + 1):
        if any(alpha[k] > alpha[k + 1] for k in range(n)):
            continue
        edge_choices = [
            itertools.product(H.edge_layers[alpha[k]], repeat=len(G.edge_layers[k]))
            for k in range(n + 1)
        ]
        vertex_choices = [
            list(itertools.product(
                slice_components(H, alpha[k], alpha[k + 1]),
                repeat=len(G.vertex_layers[k]),
            ))
            for k in range(n)
        ]
        for edges in itertools.product(*edge_choices):
            for verts in itertools.product(*vertex_choices):
                image = {}
                for k, layer in enumerate(G.edge_layers):
                    for e, y in zip(layer, edges[k]):
                        image[("e", k, e)] = {("e", alpha[k], y)}
                for k, layer in enumerate(G.vertex_layers):
                    for v, comp in zip(layer, verts[k]):
                        image[("v", k, v.name)] = comp
                key = (
                    alpha,
                    tuple(
                        tuple(sorted(zip(layer, edges[k])))
                        for k, layer in enumerate(G.edge_layers)
                    ),
                    tuple(
                        tuple(sorted(
                            (v.name, min(comp)) for v, comp in zip(layer, verts[k])
                        ))
                        for k, layer in enumerate(G.vertex_layers)
                    ),
                )
                yield key, image


def oracle_hom(G, H, cartesian=True):
    """The keys of every candidate that is a morphism."""
    return {
        key for key, image in candidates(G, H)
        if is_morphism(G, H, key[0], image, cartesian)
    }


# ---------------------------------------------------------------------------
# the level graphs of tests/test_level.py


def branching_level():
    return level_graph(
        [["a"], ["b", "c"], ["d", "e"]],
        [
            [("u", ["a"], ["b", "c"])],
            [("v", ["b"], ["d"]), ("w", ["c"], ["e"])],
        ],
    )


def two_vertex_layer():
    return level_graph(
        [["a", "b"], ["c", "d"]],
        [[("v1", ["a"], ["c"]), ("v2", ["b"], ["d"])]],
    )


def merge_level():
    return level_graph(
        [["a", "b"], ["c", "d"], ["e"]],
        [
            [("v1", ["a"], ["c"]), ("v2", ["b"], ["d"])],
            [("w", ["c", "d"], ["e"])],
        ],
    )


GRAPHS = (
    [("edge", elementary_edge())]
    + [
        (f"corolla({p},{q})", elementary_corolla(p, q))
        for p in range(3) for q in range(3)
    ]
    + [(f"linear({k})", linear_level_graph(k)) for k in (1, 2, 3)]
    + [
        ("branching", branching_level()), ("two", two_vertex_layer()),
        ("merge", merge_level()),
    ]
)


# ---------------------------------------------------------------------------
# the checks


def test_hom_level_matches_oracle_on_every_pair():
    nonempty = 0
    for (gname, G), (hname, H) in itertools.product(GRAPHS, repeat=2):
        keys = [f.sort_key() for f in hom_level(G, H)]
        assert len(set(keys)) == len(keys), (gname, hname)
        assert set(keys) == oracle_hom(G, H), (gname, hname)
        nonempty += bool(keys)
    assert nonempty > 50


def test_hom_level_returns_only_morphisms():
    # the search validates no leaf, as each one is a morphism
    # (DECISIONS.md D9); the public validator agrees on every map found
    for (gname, G), (hname, H) in itertools.product(GRAPHS, repeat=2):
        for f in hom_level(G, H):
            assert validate_level_morphism(f) is None, (gname, hname, f.sort_key())


@st.composite
def small_level_graphs(draw, max_height=3):
    """Level graphs of height 1..max_height with at most two edges at a
    level, two vertices in a layer and, where the levels allow, four in
    all, connected or not; vertices may have no inputs or no outputs."""
    n = draw(st.integers(1, max_height))
    edge_layers = [[f"e0.{k}" for k in range(draw(st.integers(0, 2)))]]
    vertex_layers = []
    for i in range(n):
        below = edge_layers[i]
        least = 1 if below else 0
        spare = 4 - sum(map(len, vertex_layers))
        count = draw(st.integers(least, max(least, min(2, spare))))
        ins = [[] for _ in range(count)]
        for e in below:
            ins[draw(st.integers(0, count - 1))].append(e)
        above, layer = [], []
        for k in range(count):
            outs = [f"e{i + 1}.{len(above) + t}"
                    for t in range(draw(st.integers(0, 2 - len(above))))]
            above += outs
            layer.append((f"v{i}.{k}", ins[k], outs))
        edge_layers.append(above)
        vertex_layers.append(layer)
    lg = level_graph(edge_layers, vertex_layers)
    assert validate_level(lg) is None
    return lg


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_level_graphs(), small_level_graphs())
@example(two_vertex_layer(), merge_level())
@example(two_vertex_layer(), two_vertex_layer())
def test_hom_level_matches_oracle_on_random_pairs(G, H):
    # the search without leaf validation against the oracle, and each map
    # it returns against the public validator
    found = hom_level(G, H)
    assert [f.sort_key() for f in found] == sorted(oracle_hom(G, H))
    for f in found:
        assert validate_level_morphism(f) is None, f.sort_key()


def test_validator_agrees_with_oracle_on_every_candidate():
    tried = 0
    for (gname, G), (hname, H) in itertools.product(GRAPHS, repeat=2):
        for key, image in candidates(G, H):
            verdict = validate_level_morphism(LevelMorphism(G, H, *key))
            assert (verdict is None) == is_morphism(G, H, key[0], image), (
                gname, hname, key, verdict)
            tried += 1
    assert tried > 1000


def test_cartesian_clause_alone_rejects_a_candidate():
    # the input of corolla(1, 1) may land on either input of corolla(2, 1):
    # natural and injective at every pair, but the other input then lies
    # over the image at (0, 1) without being hit at (0, 0)
    small, big = elementary_corolla(1, 1), elementary_corolla(2, 1)
    kept = oracle_hom(small, big)
    rejected = oracle_hom(small, big, cartesian=False) - kept
    assert len(rejected) == 2 and all(key[0] == (0, 1) for key in rejected)
    assert {f.sort_key() for f in hom_level(small, big)} == kept
    for alpha, eta_e, eta_v in rejected:
        f = LevelMorphism(small, big, alpha, eta_e, eta_v)
        assert validate_level_morphism(f).kind == "CartesianViolation"


def test_hom_level_sorted_by_sort_key():
    for (_, G), (_, H) in itertools.product(GRAPHS, repeat=2):
        keys = [f.sort_key() for f in hom_level(G, H)]
        assert keys == sorted(keys)


def oracle_tau(f):
    """The graphical map underlying f, from the definition: edges map by
    the levelwise edge maps, and a vertex goes to the edges and vertices
    of its component image, found by the oracle's own search."""
    G, H, alpha = f.source, f.target, f.alpha
    edges = {e: y for layer in f.eta_e for e, y in layer}
    images = {}
    for k, layer in enumerate(f.eta_v):
        components = slice_components(H, alpha[k], alpha[k + 1])
        for v, rep in layer:
            comp = containing(components, rep)
            images[v] = (
                frozenset(a[2] for a in comp if a[0] == "e"),
                frozenset(a[2] for a in comp if a[0] == "v"),
            )
    return edges, images


def test_tau_matches_oracle_on_every_connected_pair():
    def connected(lg):
        return len(slice_components(lg, 0, lg.height)) == 1

    maps = collapsing = refused = 0
    for (gname, G), (hname, H) in itertools.product(GRAPHS, repeat=2):
        for f in hom_level(G, H):
            if not (connected(G) and connected(H)):
                with pytest.raises(ConnectivityError):
                    tau(f)
                refused += 1
                continue
            t = tau(f)
            edges, images = oracle_tau(f)
            assert t.f0 == edges, (gname, hname, f.sort_key())
            assert {
                v: (sub.edge_names, sub.vertex_names_set) for v, sub in t.f1v.items()
            } == images, (gname, hname, f.sort_key())
            maps += 1
            collapsing += any(len(vs) > 1 for _, vs in images.values())
    # in some maps a vertex goes to a subgraph with several vertices
    assert maps > 300 and collapsing > 40 and refused > 0


def assert_structured(sub, lg):
    """``sub`` is a structured subgraph of ``lg``'s underlying graph by
    the definition: open, connected and closed under directed paths, and
    one edge when it has no vertex."""
    assert isinstance(sub, StructuredSubgraph) and sub.parent is underlying_graph(lg)
    assert sub.is_open() and is_convex_open(sub), sub
    assert sub.vertex_names_set or len(sub.edge_names) == 1, sub


def test_component_images_are_structured_on_every_pair():
    # why tau passes component images on unchecked (DECISIONS.md D16)
    images = 0
    for (_, G), (_, H) in itertools.product(GRAPHS, repeat=2):
        for f in hom_level(G, H):
            for sub in component_images(f)[1].values():
                assert_structured(sub, H)
                images += 1
    assert images > 500


@settings(max_examples=60, deadline=None)
@given(small_level_graphs())
@example(merge_level())
def test_every_slice_component_is_structured(lg):
    # a component image is the class of some slice of the target, so this
    # covers every image a level morphism into ``lg`` can have
    sf = special_extension(lg)
    for i, j in itertools.combinations_with_replacement(range(lg.height + 1), 2):
        for rep in sf.elements((i, j)):
            assert_structured(sf.subgraph((i, j), rep), lg)


def test_tau_checks_no_image(monkeypatch):
    convex = []
    original = digraph.is_convex_open

    def counted(sub):
        convex.append(sub)
        return original(sub)

    monkeypatch.setattr(digraph, "is_convex_open", counted)
    monkeypatch.setattr(graphical, "is_convex_open", counted)
    maps = [
        tau(f)
        for (_, G), (_, H) in itertools.product(GRAPHS, repeat=2)
        if len(slice_components(G, 0, G.height)) == len(slice_components(H, 0, H.height)) == 1
        for f in hom_level(G, H)
    ]
    assert maps and convex == []
    # the counter sees the work it is meant to count
    assert graphical.validate_graphical(maps[-1]) is None and convex


# ---------------------------------------------------------------------------
# recovering a level structure
#
# A level structure of height h on a plain graph puts each vertex on a
# layer 0..h-1 and each edge on a level 0..h, and is one when the result
# passes ``validate_level``.  An edge must sit one level above the layer
# of the vertex it leaves and on the layer of the vertex it enters, so
# only the vertex layers and the levels of edges touching no vertex are
# free; the oracle tries all of them.


def placements(g, h):
    """Every level graph of height h that places g's vertices on layers
    and its edges on levels as above."""
    producer = {e: v for v in g.vertices for e in v.outs}
    consumer = {e: v for v in g.vertices for e in v.ins}
    loose = [e for e in g.edges if e not in producer and e not in consumer]
    for layers in itertools.product(range(h), repeat=len(g.vertices)):
        layer_of = {v.name: k for v, k in zip(g.vertices, layers)}
        for free in itertools.product(range(h + 1), repeat=len(loose)):
            level_of = dict(zip(loose, free))
            for e in g.edges:
                if e in producer:
                    level_of[e] = layer_of[producer[e].name] + 1
                elif e in consumer:
                    level_of[e] = layer_of[consumer[e].name]
            yield LevelGraph(
                tuple(
                    tuple(e for e in g.edges if level_of[e] == k)
                    for k in range(h + 1)
                ),
                tuple(
                    tuple(v for v in g.vertices if layer_of[v.name] == k)
                    for k in range(h)
                ),
            )


def has_level_structure(g, h):
    return any(validate_level(lg) is None for lg in placements(g, h))


def disjoint_union(*graphs):
    renamed = [
        Graph(
            tuple(f"{k}{e}" for e in g.edges),
            tuple(
                Vertex(f"{k}{v.name}", tuple(f"{k}{e}" for e in v.ins),
                       tuple(f"{k}{e}" for e in v.outs))
                for v in g.vertices
            ),
        )
        for k, g in enumerate(graphs)
    ]
    return Graph(
        sum((g.edges for g in renamed), ()), sum((g.vertices for g in renamed), ())
    )


PLAIN_BASE = (
    [
        zoo.three_vertex_graph(), zoo.double_edge_graph(),
        zoo.closed_double_edge_graph(), zoo.dangling_pair_graph(),
        zoo.two_component_graph(), edge_graph(),
    ]
    + [linear_graph(k) for k in (1, 2, 3)]
    + [corolla(m, n) for m in range(3) for n in range(3)]
)
PLAIN_GRAPHS = PLAIN_BASE + [
    disjoint_union(g, k)
    for g, k in itertools.combinations(PLAIN_BASE, 2)
    if len(g.vertices) + len(k.vertices) <= 4
] + [disjoint_union(edge_graph(), edge_graph(), corolla(0, 0))]


def assert_structure_of(g, lg):
    assert validate_level(lg) is None
    assert sorted(e for level in lg.edge_layers for e in level) == sorted(g.edges)
    assert {v for layer in lg.vertex_layers for v in layer} == set(g.vertices)


def test_level_structure_matches_oracle_at_each_height():
    found = 0
    for g in PLAIN_GRAPHS:
        for h in range(len(g.vertices) + 2):
            lg = level_structure(g, h)
            assert (lg is not None) == has_level_structure(g, h), (g, h)
            if lg is not None:
                assert lg.height == h
                assert_structure_of(g, lg)
                found += 1
    assert found > 50


def test_level_structure_without_height_matches_oracle():
    found = 0
    for g in PLAIN_GRAPHS:
        lg = level_structure(g)
        exists = any(
            has_level_structure(g, h) for h in range(len(g.vertices) + 1)
        )
        assert (lg is not None) == exists, g
        if lg is not None:
            assert_structure_of(g, lg)
            found += 1
    assert 20 < found < len(PLAIN_GRAPHS)
