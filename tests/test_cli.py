import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from graphcat.cli import main
from graphcat.digraph import graph, graph_to_json, linear_graph
from graphcat.zoo import (
    closed_double_edge_graph,
    closed_square_graph,
    dangling_pair_graph,
    three_vertex_graph,
    two_component_graph,
)


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(json.dumps(graph_to_json(g)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(tmp_path, capsys):
    path = write_graph(tmp_path, "g3.json", three_vertex_graph())
    code, out, err = run_cli(capsys, "validate", path)
    assert code == 0 and "ok" in out


def test_validate_mono_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "edges": ["a", "b"],
        "vertices": [
            {"name": "u", "in": ["a"], "out": []},
            {"name": "v", "in": ["a"], "out": ["b"]},
        ],
    }))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "MonoViolation" in err


def test_missing_file_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["validate", "/nonexistent/file.json"])
    assert err.value.code == 2


def test_subgraphs_count(tmp_path, capsys):
    path = write_graph(tmp_path, "g3.json", three_vertex_graph())
    code, out, err = run_cli(capsys, "--format", "json", "subgraphs", path)
    assert code == 0
    assert json.loads(out)["count"] == 11


def test_convex(tmp_path, capsys):
    path = write_graph(tmp_path, "g3.json", three_vertex_graph())
    code, out, _ = run_cli(
        capsys, "--format", "json", "convex", path, "--vertices", "u,w"
    )
    assert code == 0 and json.loads(out)["convex"] is False
    code, out, _ = run_cli(
        capsys, "--format", "json", "convex", path, "--vertices", "u,v"
    )
    assert code == 0 and json.loads(out)["convex"] is True


def test_hom_empty(tmp_path, capsys):
    g2 = write_graph(tmp_path, "g2.json", closed_square_graph())
    k2 = write_graph(tmp_path, "k2.json", closed_double_edge_graph())
    code, out, _ = run_cli(capsys, "--format", "json", "hom", g2, k2)
    assert code == 0
    assert json.loads(out)["count"] == 0


@pytest.mark.parametrize("source, target, code", [
    ("empty", "g3", 0), ("empty", "empty", 0), ("edge", "split", 0),
    ("split", "g3", 0), ("g3", "split", 1),
])
def test_hom_without_connected_graphs(tmp_path, capsys, source, target, code):
    from graphcat.digraph import edge_graph, graph
    from graphcat.zoo import two_component_graph

    graphs = {"empty": graph([], []), "edge": edge_graph(), "g3": three_vertex_graph(),
              "split": two_component_graph()}
    paths = [write_graph(tmp_path, f"{name}.json", graphs[name])
             for name in (source, target)]
    got, out, err = run_cli(capsys, "--format", "json", "hom", *paths)
    assert got == code
    if code == 0:
        assert json.loads(out) == {"count": 0, "morphisms": []} and err == ""
    else:
        assert out == "" and err.startswith("violation: ConnectivityError")


def test_substitute(tmp_path, capsys):
    from graphcat.digraph import corolla, linear_graph

    data = {
        "outer": graph_to_json(linear_graph(2)),
        "inner": graph_to_json(corolla(1, 1, name="z")),
        "vertex": "v1",
    }
    path = tmp_path / "sub.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "--format", "json", "substitute", str(path))
    assert code == 0
    result = json.loads(out)
    assert len(result["vertices"]) == 2


def _substitution(**changes):
    from graphcat.digraph import corolla, linear_graph

    data = {
        "outer": graph_to_json(linear_graph(2)),
        "inner": graph_to_json(corolla(1, 1, name="z")),
        "vertex": "v1",
    }
    return {**data, **changes}


def _graphical_identity_json(vertices):
    from graphcat.digraph import corolla

    g = graph_to_json(corolla(1, 1))
    return {
        "source": g, "target": g, "f0": {"i1": "i1", "o1": "o1"},
        "f1": {"v": {"edges": ["i1", "o1"], "vertices": vertices}},
    }


@pytest.mark.parametrize("command, data, code, report", [
    (["substitute"], {}, 2, "error: malformed substitution"),
    (["substitute"], _substitution(vertex="nope"), 1, "violation: UnknownVertex"),
    (["substitute"], _substitution(outer={
        "edges": ["a"], "vertices": [{"name": "v", "in": ["a"], "out": ["a"]}],
    }), 1, "violation: CycleViolation"),
    (["substitute"], _substitution(bij_in={"nope": "i1"}), 1,
     "violation: ProfileMismatch"),
    (["substitute"], _substitution(inner={"edges": ["i", "o"], "vertices": [
        {"name": "a", "in": ["i"], "out": []}, {"name": "b", "in": [], "out": ["o"]},
    ]}), 1, "violation: ConnectivityError"),
    (["theta"], _graphical_identity_json(["nope"]), 1,
     "violation: NotConvexOpenImage"),
    (["prpd", "stabilizer"], {
        **graph_to_json(closed_square_graph()), "in_order": [], "out_order": [],
        "colors": {"e00": "c"},
    }, 1, "violation: ColorMismatch"),
    (["prpd", "stabilizer"], {
        **graph_to_json(linear_graph(9)), "in_order": ["e0"], "out_order": ["e9"],
    }, 1, "violation: SizeLimit: stabilizer search bound exceeded (9 > 8)"),
    (["convex", "--vertices", "nope"], graph_to_json(three_vertex_graph()), 1,
     "violation: UnknownVertex"),
    (["convex", "--edges", "zz"], graph_to_json(three_vertex_graph()), 1,
     "violation: UnknownEdge"),
], ids=[
    "substitution-shape", "unknown-vertex", "cyclic-outer", "unknown-bijection-edge",
    "disconnected-inner",
    "image-names-unknown-vertex", "colors-miss-an-edge", "stabilizer-nine-vertices",
    "convex-unknown-vertex",
    "convex-unknown-edge",
])
def test_command_file_errors(tmp_path, capsys, command, data, code, report):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    try:
        got = main([*command, str(path)])
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code and out == ""
    assert err.startswith(report) and err.count("\n") == 1


def _graphical_json(source, target, f0, f1):
    """A graphical morphism file; f1 maps a vertex to (edges, vertices)."""
    return {
        "source": graph_to_json(source), "target": graph_to_json(target), "f0": f0,
        "f1": {v: {"edges": list(es), "vertices": list(vs)} for v, (es, vs) in f1.items()},
    }


# the three-vertex graph without v; the same edge names as the graph
G3_WITHOUT_V = graph("abcde", [("p", "a", "bd"), ("q", "cd", "e")])
G3_IDENTITY_EDGES = {e: e for e in "abcde"}


@pytest.mark.parametrize("data, line", [
    (_graphical_json(G3_WITHOUT_V, three_vertex_graph(), G3_IDENTITY_EDGES, {
        "p": ("abd", "u"), "q": ("cde", "w"),
    }), "NotConvexOpenImage at ('w',): total image is not a structured subgraph"),
    (_graphical_json(G3_WITHOUT_V, three_vertex_graph(), {**G3_IDENTITY_EDGES, "b": "c", "c": "b"}, {
        "p": ("abcd", "uv"), "q": ("bcde", "vw"),
    }), "NotConvexOpenImage at ('b',): assembled edge comparison is not injective"),
    (_graphical_json(dangling_pair_graph(), closed_double_edge_graph(),
                     {"s": "p1", "din": "p2", "dout": "p2"}, {
        "u": (["p1", "p2"], "u"), "v": (["p1", "p2"], "v"),
    }), "NotConvexOpenImage at ('p2',): assembled edge comparison is not injective"),
    (_graphical_json(linear_graph(0), two_component_graph(), {"e0": "a"}, {}),
     "ConnectivityError at ('target',): source and target must be connected"),
    (_graphical_json(two_component_graph(), linear_graph(0), {}, {}),
     "ConnectivityError at ('source',): source and target must be connected"),
    ({**_graphical_identity_json(["v"]), "f0": {"i1": "i1", "zz": "o1"}},
     "EdgeMapError at ('o1', 'zz'): edge map is not total"),
], ids=["path-re-enters", "internal-edge-collides", "edge-images-collide",
        "target-disconnected", "source-disconnected", "edge-map-not-total"])
def test_theta_reports_where_a_map_fails(tmp_path, capsys, data, line):
    path = tmp_path / "morphism.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "theta", str(path))
    assert code == 1 and out == ""
    assert err == f"violation: {line}\n"


@pytest.mark.parametrize("data, digest", [
    # v onto the chain a -p-> x -q-> c: the internal edge x is named v.x,
    # which the source uses, so the middle object calls it v.x'
    (_graphical_json(
        graph(["v.x", "b"], [("v", ["v.x"], ["b"])]),
        graph(["a", "x", "c"], [("p", ["a"], ["x"]), ("q", ["x"], ["c"])]),
        {"v.x": "a", "b": "c"}, {"v": ("axc", "pq")},
    ), "6f19b91b59b6d5522e67d5400151e8447c28be041c092ca1d08224cb6082d4f0"),
    # v1 onto the edge e0: the middle object merges e1 into e0
    (_graphical_json(
        linear_graph(2), linear_graph(1), {"e0": "e0", "e1": "e0", "e2": "e1"},
        {"v1": (["e0"], []), "v2": (["e0", "e1"], ["v1"])},
    ), "ad458f8738cc7379d9055bb56047110c0286e0f8f1ade91ead92609d05cf3a03"),
], ids=["primed-name", "merged-edge"])
def test_factorize_G_output_is_pinned(tmp_path, capsys, data, digest):
    # the sha256 of the JSON that `factorize --cat G` prints
    import hashlib

    path = tmp_path / "morphism.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "--format", "json", "factorize", "--cat", "G", str(path))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_STRAY_F1 = {
    **_graphical_identity_json(["v"]),
    "f1": {
        "v": {"edges": ["i1", "o1"], "vertices": ["v"]},
        "zz": {"edges": ["nope"], "vertices": ["ghost"]},
    },
}
_LEVEL_IDENTITY = {
    "alpha": [0, 1], "edge_maps": [{"a": "a"}, {"b": "b"}],
    "vertex_maps": [{"v": ["e", 0, "a"]}],
    **{role: {"edge_layers": [["a"], ["b"]],
              "vertex_layers": [[{"name": "v", "in": ["a"], "out": ["b"]}]]}
       for role in ("source", "target")},
}


@pytest.mark.parametrize("command, data, line", [
    (["validate"], {"edges": ["b", "a", "b", "a"], "vertices": []},
     "DuplicateEdge at ('a', 'b'): edge list contains duplicates"),
    (["validate"], {"edges": [], "vertices": [
        {"name": "v", "in": [], "out": []}, {"name": "v", "in": [], "out": []},
    ]}, "DuplicateVertex at ('v',): vertex names are not distinct"),
    (["validate", "--level"], {"edge_layers": [], "vertex_layers": []},
     "HeightError at ('edge_layers',): no edge layers"),
    (["validate", "--level"], {"edge_layers": [["a"]], "vertex_layers": [[]]},
     "HeightError at ('vertex_layers',): 1 vertex layers for height 0"),
    (["validate", "--level"], {"edge_layers": [["a"], ["b"]], "vertex_layers": [
        [{"name": "a", "in": ["a"], "out": ["b"]}],
    ]}, "DuplicateName at ('a',): edge/vertex names are not distinct"),
    (["tau"], {**_LEVEL_IDENTITY, "alpha": [1, 0]},
     "AlphaError at ('alpha',): alpha (1, 0) is not monotone into [0,1]"),
    (["tau"], {**_LEVEL_IDENTITY, "edge_maps": [{"a": "a"}]},
     "EdgeMapError at ('edge_maps',): 1 edge map layers for 2 levels"),
    (["tau"], {**_LEVEL_IDENTITY, "vertex_maps": []},
     "VertexMapError at ('vertex_maps',): 0 vertex map layers for 1 layers"),
    (["validate", "--level"], {"edge_layers": [["a"], ["b"]], "vertex_layers": [
        [{"name": "v", "in": ["a"], "out": ["a"]}],
    ]}, "UnknownEdge at (0, 'v', 'a'): out(v) uses a outside level 1"),
    (["tau"], {**_LEVEL_IDENTITY, "edge_maps": [{"a": "a"}, {}]},
     "EdgeMapError at (1,): edge map at level 1 is not total"),
    (["factorize", "--cat", "L"], {**_LEVEL_IDENTITY, "edge_maps": [{"a": "b"}, {"b": "b"}]},
     "EdgeMapError at (0, 'a'): a maps outside level 0"),
    (["tau"], {**_LEVEL_IDENTITY, "vertex_maps": [{}]},
     "VertexMapError at (0,): vertex map at layer 0 is not total"),
    (["theta"], _STRAY_F1,
     "VertexMapError at ('zz',): image subgraph for unknown vertex zz"),
    (["factorize", "--cat", "G"], _STRAY_F1,
     "VertexMapError at ('zz',): image subgraph for unknown vertex zz"),
    # a stray name is checked last: another fault is reported as before
    (["theta"], _graphical_json(G3_WITHOUT_V, three_vertex_graph(), G3_IDENTITY_EDGES, {
        "p": ("abd", "u"), "q": ("cde", "w"), "zz": ("a", ""),
    }), "NotConvexOpenImage at ('w',): total image is not a structured subgraph"),
], ids=["duplicate-edge", "duplicate-vertex", "no-edge-layers", "vertex-layer-count",
        "duplicate-name", "alpha", "edge-map-layers", "vertex-map-layers",
        "output-off-level", "edge-map-not-total", "edge-off-level", "vertex-map-not-total",
        "theta-stray-f1", "factorize-stray-f1", "stray-f1-after-another-fault"])
def test_violations_say_where(tmp_path, capsys, command, data, line):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 1 and out == ""
    assert err == f"violation: {line}\n"


def test_identity_without_stray_f1_passes_theta(tmp_path, capsys):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(_graphical_identity_json(["v"])))
    code, _, err = run_cli(capsys, "theta", str(path))
    assert code == 0 and err == ""


@pytest.mark.parametrize("data, code, report", [
    ([], 2, "error: malformed properad"),
    ({"kind": "end"}, 2, "error: malformed properad"),
    ({"kind": "end", "sets": {"c": "two"}}, 2, "error: malformed properad"),
    ({"kind": "terminal", "colors": [["c"]]}, 2, "error: malformed properad"),
    ({"kind": "free", "generator": {"edges": "ab"}}, 2, "error: malformed properad"),
    ({"kind": "nope"}, 2, "error: malformed properad"),
    ({"kind": "free", "generator": {
        "edges": ["a"], "vertices": [{"name": "v", "in": ["a"], "out": ["a"]}],
    }}, 1, "violation: CycleViolation"),
    ({"kind": "end", "sets": {"c": -1}}, 2, "error: malformed properad"),
    ({"kind": "end", "sets": {"c": True}}, 2, "error: malformed properad"),
    ({"kind": "free", "generator": {"edges": ["a"], "vertices": []},
      "vertex_bound": -1}, 2, "error: malformed properad"),
    ({"kind": "free", "generator": {"edges": ["a"], "vertices": []},
      "vertex_bound": True}, 2, "error: malformed properad"),
    ({"kind": "end", "sets": {"c": [1, 1]}}, 2, "error: malformed properad"),
    ({"kind": "end", "sets": {"c": [1, True]}}, 2, "error: malformed properad"),
], ids=[
    "list", "end-without-sets", "end-set-not-a-list", "terminal-color-not-a-name",
    "free-generator-shape", "unknown-kind", "free-cyclic-generator",
    "end-negative-size", "end-bool-size", "free-negative-bound", "free-bool-bound",
    "end-repeated-values", "end-bool-collides",
])
def test_nerve_properad_file_errors(tmp_path, capsys, data, code, report):
    from graphcat.digraph import linear_graph

    properad_file = tmp_path / "p.json"
    properad_file.write_text(json.dumps(data))
    corpus_file = tmp_path / "corpus.json"
    corpus_file.write_text(json.dumps({"generators": [graph_to_json(linear_graph(2))]}))
    try:
        got = main(["nerve", str(properad_file), str(corpus_file)])
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code and out == ""
    assert err.startswith(report) and err.count("\n") == 1


def test_free_properad_profiles(tmp_path, capsys):
    from graphcat.zoo import two_component_graph

    path = write_graph(tmp_path, "two.json", two_component_graph())
    code, out, _ = run_cli(
        capsys, "--max-vertices", "4", "--format", "json",
        "free-properad", path, "--min-vertices", "1",
    )
    assert code == 0
    assert len(json.loads(out)["profiles"]) == 11


def test_prpd_stabilizer(tmp_path, capsys):
    data = graph_to_json(closed_square_graph())
    data["in_order"] = []
    data["out_order"] = []
    path = tmp_path / "z.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "--format", "json", "prpd", "stabilizer", str(path))
    assert code == 0
    assert json.loads(out)["order"] == 2


def test_dot_output(tmp_path, capsys):
    path = write_graph(tmp_path, "g3.json", three_vertex_graph())
    code, out, _ = run_cli(capsys, "dot", path)
    assert code == 0 and out.startswith("digraph")


def test_nerve_and_segal_roundtrip(tmp_path, capsys):
    from graphcat.digraph import linear_graph

    properad_file = tmp_path / "p.json"
    properad_file.write_text(json.dumps({"kind": "end", "sets": {"c": 2}}))
    corpus_file = tmp_path / "corpus.json"
    corpus_file.write_text(json.dumps({
        "generators": [graph_to_json(linear_graph(2))],
        "max_vertices": 3,
    }))
    presheaf_file = tmp_path / "nerve.json"
    code, out, _ = run_cli(
        capsys, "nerve", str(properad_file), str(corpus_file),
        "-o", str(presheaf_file),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "--format", "json", "segal", str(presheaf_file))
    assert code == 0
    assert json.loads(out)["segal"] is True


def test_nerve_error_in_a_table_writes_no_file(tmp_path, capsys, monkeypatch):
    from graphcat import segal
    from graphcat.errors import GraphcatError

    def fail(*_):
        raise GraphcatError("restriction failed")

    monkeypatch.setattr(segal, "_restrict_decoration", fail)
    properad_file = tmp_path / "p.json"
    properad_file.write_text(json.dumps({"kind": "end", "sets": {"c": 2}}))
    corpus_file = tmp_path / "corpus.json"
    corpus_file.write_text(json.dumps({"generators": [graph_to_json(linear_graph(2))]}))
    presheaf_file = tmp_path / "nerve.json"
    code, out, err = run_cli(
        capsys, "nerve", str(properad_file), str(corpus_file), "-o", str(presheaf_file),
    )
    assert code == 1 and out == ""
    assert err == "violation: GraphcatError: restriction failed\n"
    assert not presheaf_file.exists()


@pytest.mark.parametrize("bound, code", [(3, 0), (1, 1)], ids=["closed", "truncated"])
def test_nerve_of_a_free_properad_round_trips_or_is_a_violation(tmp_path, capsys,
                                                               bound, code):
    # x;y has two vertices: the bound 1 leaves it out, so composition leaves
    # the properad and the nerve is a violation, not a traceback
    generator = graph(["a", "u", "b"], [("x", ["a"], ["u"]), ("y", ["u"], ["b"])])
    properad_file = tmp_path / "p.json"
    properad_file.write_text(json.dumps(
        {"kind": "free", "generator": graph_to_json(generator), "vertex_bound": bound}))
    corpus_file = tmp_path / "corpus.json"
    corpus_file.write_text(json.dumps(
        {"generators": [graph_to_json(generator)], "max_vertices": 3}))
    presheaf_file = tmp_path / "nerve.json"
    got, out, err = run_cli(
        capsys, "nerve", str(properad_file), str(corpus_file), "-o", str(presheaf_file),
    )
    assert got == code
    if code:
        assert out == "" and err.split()[0] == "violation:" and err.count("\n") == 1
        assert err.startswith("violation: GraphcatError: restriction from object ")
        assert not presheaf_file.exists()
    else:
        assert run_cli(capsys, "segal", str(presheaf_file), "--strict")[0] == 0


def _pair_corpus_manifest():
    """The corpus file of the closed square and the closed double edge."""
    generators = [closed_square_graph(), closed_double_edge_graph()]
    return {"generators": [graph_to_json(g) for g in generators], "max_vertices": 4}


def _pair_representable():
    """The representable of the pair corpus at its closed two-vertex
    object, and that object's index."""
    from graphcat.segal import build_corpus, representable_presheaf

    corpus = build_corpus(
        [closed_square_graph(), closed_double_edge_graph()], max_vertices=4
    )
    (k2,) = [
        i for i, g in enumerate(corpus.objects)
        if len(g.vertices) == 2 and not g.inputs and not g.outputs
    ]
    return representable_presheaf(corpus, k2), k2


def _linear_nerve():
    from graphcat.properad import end_properad
    from graphcat.segal import build_corpus, nerve

    N = nerve(end_properad({"c": 2}), build_corpus([linear_graph(2)]))
    return N, {"generators": [graph_to_json(linear_graph(2))]}


@pytest.mark.parametrize("presheaf, digest", [
    (_linear_nerve,
     "c35a0a2d537a4e85c8e4b0288185daaa3ca13ea9c616fa00065a087e26caffaf"),
    (lambda: (_pair_representable()[0], _pair_corpus_manifest()),
     "d263d1fa4c310176bcf98abae41200a9f3cd345122d84e390c97c2c0d6283b09"),
], ids=["nerve", "representable"])
def test_presheaf_file_is_pinned_and_reads_back(presheaf, digest):
    # the sha256 of the file text that `nerve -o` writes (sorted keys)
    import hashlib

    from graphcat.cli import _presheaf_from_json, _presheaf_to_json

    F, manifest = presheaf()
    data = _presheaf_to_json(F, manifest)
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # the file stores the tables as they are held in memory
    assert _presheaf_from_json(json.loads(text)).restrictions == F.restrictions


def test_nerve_output_file_has_the_pinned_bytes(tmp_path, capsys):
    # the file `nerve -o` writes is the text the golden digest above pins
    import hashlib

    properad_file = tmp_path / "p.json"
    properad_file.write_text(json.dumps({"kind": "end", "sets": {"c": 2}}))
    corpus_file = tmp_path / "corpus.json"
    corpus_file.write_text(json.dumps({"generators": [graph_to_json(linear_graph(2))]}))
    presheaf_file = tmp_path / "nerve.json"
    code, _, _ = run_cli(
        capsys, "nerve", str(properad_file), str(corpus_file), "-o", str(presheaf_file),
    )
    assert code == 0
    assert hashlib.sha256(presheaf_file.read_bytes()).hexdigest() == (
        "c35a0a2d537a4e85c8e4b0288185daaa3ca13ea9c616fa00065a087e26caffaf")


def test_segal_on_a_presheaf_that_is_not_segal(tmp_path, capsys):
    from graphcat.cli import _presheaf_to_json

    R, _ = _pair_representable()
    presheaf_file = tmp_path / "representable.json"
    presheaf_file.write_text(json.dumps(_presheaf_to_json(R, _pair_corpus_manifest())))
    code, out, err = run_cli(capsys, "--format", "json", "segal", str(presheaf_file))
    assert code == 0 and err == ""
    witness = R.corpus.objects[5]
    assert json.loads(out) == {"segal": False, "witness": graph_to_json(witness)}
    code, out, err = run_cli(capsys, "segal", "--strict", str(presheaf_file))
    assert code == 1
    assert out.startswith("segal: False\n")
    assert err == "violation: presheaf fails the Segal condition at 5\n"


def _assert_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("manifest", [
    {},
    {"generators": [{"edges": "ab"}]},
    {"generators": [], "max_vertices": True},
    {"generators": [], "max_vertices": -1},
])
def test_nerve_malformed_corpus_exits_2(tmp_path, capsys, manifest):
    properad_file = tmp_path / "p.json"
    properad_file.write_text(json.dumps({"kind": "end", "sets": {"c": 2}}))
    corpus_file = tmp_path / "c.json"
    corpus_file.write_text(json.dumps(manifest))
    _assert_usage_error(capsys, "nerve", str(properad_file), str(corpus_file))


def test_nerve_generator_with_unknown_edge_exits_1(tmp_path, capsys):
    properad_file = tmp_path / "p.json"
    properad_file.write_text(json.dumps({"kind": "end", "sets": {"c": 2}}))
    corpus_file = tmp_path / "c.json"
    corpus_file.write_text(json.dumps({"generators": [{
        "edges": ["a"], "vertices": [{"name": "v", "in": ["x"], "out": []}],
    }]}))
    code, _, err = run_cli(capsys, "nerve", str(properad_file), str(corpus_file))
    assert code == 1
    assert err.startswith("violation: UnknownEdge")
    assert "Traceback" not in err


def test_segal_presheaf_of_wrong_size_exits_2(tmp_path, capsys):
    from graphcat.digraph import linear_graph

    properad_file = tmp_path / "p.json"
    properad_file.write_text(json.dumps({"kind": "end", "sets": {"c": 2}}))
    corpus_file = tmp_path / "corpus.json"
    corpus_file.write_text(json.dumps({
        "generators": [graph_to_json(linear_graph(2))],
        "max_vertices": 3,
    }))
    presheaf_file = tmp_path / "nerve.json"
    code, _, _ = run_cli(
        capsys, "nerve", str(properad_file), str(corpus_file),
        "-o", str(presheaf_file),
    )
    assert code == 0
    data = json.loads(presheaf_file.read_text())
    data["values"] = data["values"][:-1]
    presheaf_file.write_text(json.dumps(data))
    _assert_usage_error(capsys, "segal", str(presheaf_file))


@pytest.fixture(scope="module")
def corolla_nerve_file(tmp_path_factory):
    """The presheaf file ``nerve`` writes for the end properad on a
    two-element set over the corpus of one corolla (1, 1), as JSON text."""
    from graphcat.digraph import corolla

    folder = tmp_path_factory.mktemp("nerve")
    properad_file = folder / "p.json"
    properad_file.write_text(json.dumps({"kind": "end", "sets": {"c": 2}}))
    corpus_file = folder / "corpus.json"
    corpus_file.write_text(json.dumps({"generators": [graph_to_json(corolla(1, 1))]}))
    presheaf_file = folder / "nerve.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["nerve", str(properad_file), str(corpus_file),
                     "-o", str(presheaf_file)])
    assert code == 0
    return presheaf_file.read_text()


def _edit_restriction(data):
    # an entry 1 of a table into the two-valued edge object, written true
    key, table = next(
        (key, table) for key, table in sorted(data["restrictions"].items())
        if 1 in table
    )
    table[table.index(1)] = True


@pytest.mark.parametrize("edit", [
    _edit_restriction,
    lambda data: data["corpus"].update(max_vertices=True),
    lambda data: data["corpus"].update(max_vertices=-1),
], ids=["bool-restriction-entry", "corpus-bool-bound", "corpus-negative-bound"])
def test_segal_malformed_presheaf_exits_2(tmp_path, capsys, corolla_nerve_file, edit):
    data = json.loads(corolla_nerve_file)
    edit(data)
    presheaf_file = tmp_path / "edited.json"
    presheaf_file.write_text(json.dumps(data))
    _assert_usage_error(capsys, "segal", str(presheaf_file))


def _corolla_identity_json():
    from graphcat.level import elementary_corolla, identity_level, morphism_to_json

    return morphism_to_json(identity_level(elementary_corolla(1, 1)))


def _drop_edge_layer(f):
    f["edge_maps"] = f["edge_maps"][:1]


def _drop_vertex_layer(f):
    f["vertex_maps"] = []


def _source_vertex_off_level(f):
    f["source"]["vertex_layers"][0][0]["in"] = ["x"]


def _out_edge_to_other_vertex(f):
    # the target has two (1, 1) vertices; the vertex goes to the first
    # one's component and its out-edge into the second one's
    f["target"] = {
        "edge_layers": [["a", "b"], ["c", "d"]],
        "vertex_layers": [[
            {"name": "w1", "in": ["a"], "out": ["c"]},
            {"name": "w2", "in": ["b"], "out": ["d"]},
        ]],
    }
    f["edge_maps"] = [{"i1": "a"}, {"o1": "d"}]
    f["vertex_maps"] = [{"v": ["e", 0, "a"]}]


LEVEL_COMMANDS = pytest.mark.parametrize(
    "command", [["tau"], ["factorize", "--cat", "L"]], ids=["tau", "factorize"]
)


@LEVEL_COMMANDS
@pytest.mark.parametrize("spoil, kind", [
    (_drop_edge_layer, "EdgeMapError"),
    (_drop_vertex_layer, "VertexMapError"),
    (_source_vertex_off_level, "source UnknownEdge"),
    (_out_edge_to_other_vertex, "Naturality"),
], ids=["edge-layer", "vertex-layer", "source", "naturality"])
def test_malformed_level_morphism_exits_1(tmp_path, capsys, command, spoil, kind):
    f = _corolla_identity_json()
    spoil(f)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f))
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"violation: {kind}") and err.count("\n") == 1


@LEVEL_COMMANDS
def test_level_morphism_commands_accept_identity(tmp_path, capsys, command):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(_corolla_identity_json()))
    code, out, err = run_cli(capsys, "--format", "json", *command, str(path))
    assert code == 0 and err == ""
    assert json.loads(out)


GRAPH_COMMANDS = pytest.mark.parametrize(
    "command", [["validate"], ["subgraphs"], ["hom"]],
    ids=["validate", "subgraphs", "hom"],
)


def _graph_command(command, path):
    # hom reads the same file as source and target
    return [*command, path, path] if command == ["hom"] else [*command, path]


@GRAPH_COMMANDS
@pytest.mark.parametrize("data", [
    {},
    [],
    {"edges": "ab", "vertices": []},
    {"edges": [], "vertices": [{"name": "v"}]},
], ids=["empty", "list", "edge-string", "vertex-without-ends"])
def test_malformed_graph_file_exits_2(tmp_path, capsys, command, data):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    _assert_usage_error(capsys, *_graph_command(command, str(path)))


@pytest.mark.parametrize("data", [
    {},
    {"edge_layers": [["a"]]},
    {"edge_layers": [["a"], ["b"]], "vertex_layers": [["v"]]},
], ids=["empty", "no-vertex-layers", "vertex-string"])
def test_malformed_level_graph_file_exits_2(tmp_path, capsys, data):
    path = tmp_path / "l.json"
    path.write_text(json.dumps(data))
    _assert_usage_error(capsys, "validate", str(path), "--level")


@GRAPH_COMMANDS
@pytest.mark.parametrize("data, kind", [
    ({"edges": ["a"], "vertices": [{"name": "v", "in": ["a"], "out": ["x"]}]},
     "UnknownEdge"),
    ({"edges": ["a", "b"], "vertices": [
        {"name": "u", "in": ["a"], "out": ["b"]},
        {"name": "w", "in": ["b"], "out": ["a"]},
    ]}, "CycleViolation"),
], ids=["unknown-edge", "two-cycle"])
def test_invalid_graph_file_exits_1(tmp_path, capsys, command, data, kind):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, *_graph_command(command, str(path)))
    assert code == 1 and out == ""
    assert err.startswith(f"violation: {kind}") and err.count("\n") == 1


# hypothesis-drawn JSON: arbitrary values, and values shaped like each file
# format over a few names, so that some of them pass the shape checks
NAMES = st.sampled_from(["a", "b", "c", 1])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
VERTEX = st.fixed_dictionaries(
    {"name": NAMES | JSON, "in": st.lists(NAMES, max_size=2) | JSON,
     "out": st.lists(NAMES, max_size=2) | JSON}
)
GRAPH = st.fixed_dictionaries(
    {"edges": st.lists(NAMES, max_size=4) | JSON,
     "vertices": st.lists(VERTEX, max_size=3) | JSON}
)
LEVEL = st.fixed_dictionaries(
    {"edge_layers": st.lists(st.lists(NAMES, max_size=2), max_size=3) | JSON,
     "vertex_layers": st.lists(st.lists(VERTEX, max_size=2), max_size=2) | JSON}
)


OPERATION = GRAPH.flatmap(lambda g: st.fixed_dictionaries(
    {"in_order": st.lists(NAMES, max_size=2), "out_order": st.lists(NAMES, max_size=2)},
    optional={"colors": st.dictionaries(st.sampled_from(["a", "b", "c"]), NAMES)},
).map(lambda orders: {**g, **orders}))
SUBSTITUTION = st.fixed_dictionaries(
    {"outer": GRAPH, "inner": GRAPH, "vertex": NAMES},
    optional={"bij_in": st.dictionaries(NAMES.map(str), NAMES),
              "bij_out": st.dictionaries(NAMES.map(str), NAMES)},
)
COMPOSITION = st.fixed_dictionaries({
    "outer": OPERATION,
    "inner": st.dictionaries(st.sampled_from(["0", "1", "x"]), OPERATION),
})
MORPHISM = st.fixed_dictionaries({
    "source": GRAPH, "target": GRAPH,
    "f0": st.dictionaries(NAMES.map(str), NAMES),
    "f1": st.dictionaries(NAMES.map(str), st.fixed_dictionaries(
        {"edges": st.lists(NAMES, max_size=2), "vertices": st.lists(NAMES, max_size=2)}
    )),
})
LEVEL_MORPHISM = st.fixed_dictionaries({
    "source": LEVEL, "target": LEVEL, "alpha": st.lists(st.integers(-1, 3), max_size=3),
    "edge_maps": st.lists(st.dictionaries(NAMES.map(str), NAMES), max_size=3),
    "vertex_maps": st.lists(st.dictionaries(NAMES.map(str), st.tuples(
        st.sampled_from(["e", "v"]), st.integers(0, 2), NAMES).map(list)), max_size=2),
})


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([
        ["validate"], ["validate", "--level"], ["subgraphs"], ["substitute"],
        ["tau"], ["factorize", "--cat", "L"], ["factorize", "--cat", "G"],
        ["theta"], ["prpd", "compose"], ["prpd", "stabilizer"],
    ]),
    JSON | GRAPH | LEVEL | OPERATION | SUBSTITUTION | COMPOSITION | MORPHISM
    | LEVEL_MORPHISM,
)
def test_graph_loaders_never_raise(tmp_path_factory, command, data):
    path = tmp_path_factory.mktemp("fuzz") / "g.json"
    path.write_text(json.dumps(data))
    _assert_exits_cleanly([*command, str(path)])


# sizes and vertex bounds stay at most 3, and the corpus is one corolla, so
# that each nerve is small
SIZE = st.integers(-1, 3) | st.booleans()
PROPERAD = st.one_of(
    st.fixed_dictionaries({"kind": st.just("end"), "sets": st.dictionaries(
        NAMES.map(str), SIZE | st.lists(NAMES, max_size=3) | JSON, max_size=3,
    ) | JSON}),
    st.fixed_dictionaries(
        {"kind": st.just("terminal")},
        optional={"colors": st.lists(NAMES, max_size=3) | JSON},
    ),
    st.fixed_dictionaries(
        {"kind": st.just("free"), "generator": GRAPH},
        optional={"vertex_bound": SIZE | JSON},
    ),
)


@settings(max_examples=200, deadline=None)
@given(JSON | PROPERAD)
@example({"kind": "terminal", "colors": ["a", 1]})
def test_nerve_properad_loader_never_raises(tmp_path_factory, data):
    from graphcat.digraph import linear_graph

    folder = tmp_path_factory.mktemp("fuzz")
    properad_file, corpus_file = folder / "p.json", folder / "corpus.json"
    properad_file.write_text(json.dumps(data))
    corpus_file.write_text(json.dumps({"generators": [graph_to_json(linear_graph(1))]}))
    _assert_exits_cleanly(["nerve", str(properad_file), str(corpus_file)])


CORPUS = st.fixed_dictionaries(
    {"generators": st.lists(GRAPH, max_size=2) | JSON},
    optional={"max_vertices": SIZE | JSON},
)
# a presheaf file that ``nerve`` writes (end properad on one corolla),
# with one part replaced by drawn JSON
PRESHEAF_EDIT = st.one_of(
    st.tuples(st.just("corpus"), CORPUS | JSON),
    st.tuples(
        st.just("values"), st.lists(st.lists(SIZE, max_size=3), max_size=3) | JSON
    ),
    st.tuples(st.just("restrictions"), JSON),
    st.tuples(st.just("entry"), st.lists(SIZE, max_size=4) | JSON),
)


@settings(max_examples=200, deadline=None)
@given(CORPUS | JSON, PRESHEAF_EDIT)
def test_corpus_and_presheaf_loaders_never_raise(
    tmp_path_factory, corolla_nerve_file, manifest, edit
):
    folder = tmp_path_factory.mktemp("fuzz")
    properad_file, corpus_file = folder / "p.json", folder / "corpus.json"
    properad_file.write_text(json.dumps({"kind": "terminal"}))
    corpus_file.write_text(json.dumps(manifest))
    _assert_exits_cleanly(["nerve", str(properad_file), str(corpus_file)])

    data = json.loads(corolla_nerve_file)
    part, value = edit
    if part == "entry":
        data["restrictions"][min(data["restrictions"])] = value
    else:
        data[part] = value
    presheaf_file = folder / "presheaf.json"
    presheaf_file.write_text(json.dumps(data))
    _assert_exits_cleanly(["segal", str(presheaf_file)])


def _assert_exits_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def _operation_json(**changes):
    return {**graph_to_json(linear_graph(1)), "in_order": ["e0"], "out_order": ["e1"],
            **changes}


@pytest.mark.parametrize("command, data, line", [
    (["validate", "@"], {"edges": [], "vertices": [{"name": "v", "in": []}]},
     "graph: at $.vertices[0].out: missing"),
    (["validate", "--level", "@"], {"edge_layers": [["a"]], "vertex_layers": [["v"]]},
     "level graph: at $.vertex_layers[0][0]: expected an object"),
    (["tau", "@"], {"source": {"edge_layers": [["a"], "b"], "vertex_layers": []}},
     "level morphism: at $.source.edge_layers[1]: expected a list"),
    (["factorize", "--cat", "L", "@"],
     {"source": {"edge_layers": [], "vertex_layers": []}},
     "level morphism: at $.target: missing"),
    (["tau", "@"], {**_corolla_identity_json(), "vertex_maps": [{"v": ["v", 0]}]},
     "level morphism: at $.vertex_maps[0].v: expected a list of 3 items"),
    (["theta", "@"], {**_graphical_identity_json([]), "f1": {"v": {"edges": []}}},
     "graphical morphism: at $.f1.v.vertices: missing"),
    (["prpd", "stabilizer", "@"], _operation_json(colors=["c"]),
     "operation: at $.colors: expected an object"),
    (["substitute", "@"], _substitution(bij_out=[["o1", "o1"]]),
     "substitution: at $.bij_out: expected an object"),
    (["prpd", "compose", "@"], {"outer": _operation_json(), "inner": {"x": {}}},
     "composition: at $.inner.x: expected a decimal key"),
    (["nerve", "@", "corpus.json"], {"kind": "end", "sets": {"c": "two"}},
     "properad: at $.sets.c: expected an int >= 0 or a list"),
    (["nerve", "@", "corpus.json"], {"kind": "end", "sets": {"c": [1, [2]]}},
     "properad: at $.sets.c[1]: expected a string or a number"),
    (["nerve", "@", "corpus.json"], {"kind": "end", "sets": {"c d": [1, True]}},
     'properad: at $.sets["c d"]: expected distinct values'),
    (["nerve", "@", "corpus.json"], {"kind": "terminal", "colors": None},
     "properad: at $.colors: expected a list"),
    (["nerve", "@", "corpus.json"], {"kind": ["end"]},
     'properad: at $.kind: expected "end" or "terminal" or "free"'),
    (["nerve", "properad.json", "@"], {"generators": [], "max_vertices": -1},
     "corpus: at $.max_vertices: expected an int >= 0"),
    (["segal", "@"], lambda d: d["corpus"].update(max_vertices=True),
     "corpus: at $.corpus.max_vertices: expected an int >= 0"),
    (["segal", "@"], lambda d: d.update(values=d["values"][:1]),
     "presheaf: at $.values: expected a list of length 2"),
    (["segal", "@"], lambda d: d["restrictions"].pop("0:0:0"),
     'presheaf: at $.restrictions["0:0:0"]: missing'),
    (["segal", "@"], lambda d: d["restrictions"].update({"1:1:1": [0, True, 2, 3]}),
     'presheaf: at $.restrictions["1:1:1"][1]: expected an int >= 0'),
    (["segal", "@"], lambda d: d["restrictions"].update({"0:1:0": [0, 0, 0]}),
     'presheaf: at $.restrictions["0:1:0"]: '
     "expected a list of length 4 with entries < 1"),
], ids=[
    "graph-missing-key", "level-graph", "tau-edge-layer", "missing-target",
    "representative-length", "graphical-morphism", "operation-colors",
    "substitution-bijection", "composition-key", "properad-either",
    "properad-set-value", "properad-repeated-values", "terminal-null-colors",
    "properad-kind", "corpus", "corpus-inside-presheaf", "presheaf-value-count",
    "presheaf-missing-table", "presheaf-bool-entry", "presheaf-table-length",
])
def test_malformed_file_names_the_path(tmp_path, capsys, corolla_nerve_file,
                                       command, data, line):
    # "@" is the file under test; a callable edits the presheaf file of
    # corolla_nerve_file, whose objects are the edge (0) and the corolla (1)
    if callable(data):
        edit, data = data, json.loads(corolla_nerve_file)
        edit(data)
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    (tmp_path / "properad.json").write_text(json.dumps({"kind": "terminal"}))
    (tmp_path / "corpus.json").write_text(json.dumps({"generators": []}))
    argv = [
        str(path) if a == "@" else str(tmp_path / a) if a.endswith(".json") else a
        for a in command
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: malformed {line}\n"


def test_main_parses_each_call_alone(tmp_path, capsys):
    # the parser is built once per process; each call still reads its own flags
    from graphcat.cli import build_parser

    assert build_parser() is build_parser()
    path = write_graph(tmp_path, "g3.json", three_vertex_graph())
    code, out, _ = run_cli(capsys, "--format", "json", "subgraphs", path)
    assert code == 0 and json.loads(out)["count"] > 0
    code, out, _ = run_cli(capsys, "subgraphs", path)
    assert code == 0 and out.startswith("count: ")


def test_determinism(tmp_path, capsys):
    path = write_graph(tmp_path, "g3.json", three_vertex_graph())
    outs = set()
    for _ in range(3):
        code, out, _ = run_cli(capsys, "--format", "json", "subgraphs", path)
        outs.add(out)
    assert len(outs) == 1


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "graphcat.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "subgraphs" in proc.stdout


def _colored_operation(g, color):
    return {**graph_to_json(g), "in_order": list(g.inputs), "out_order": list(g.outputs),
            "colors": {e: color for e in g.edges}}


def _composition(inner, outer=linear_graph(2)):
    return {"outer": _colored_operation(outer, "c"),
            "inner": {k: _colored_operation(g, c) for k, (g, c) in inner.items()}}


def test_prpd_compose_substitutes_colored_operations(tmp_path, capsys):
    from graphcat.digraph import corolla

    path = tmp_path / "composition.json"
    path.write_text(json.dumps(_composition({"0": (corolla(1, 1, name="w"), "c"),
                                             "1": (linear_graph(2), "c")})))
    code, out, err = run_cli(capsys, "--format", "json", "prpd", "compose", str(path))
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "colors": {"e1": "c", "e2": "c", "e3": "c", "e4": "c"},
        "edges": ["e1", "e2", "e3", "e4"], "in_order": ["e4"], "out_order": ["e3"],
        "vertices": [{"in": ["e4"], "name": "v1", "out": ["e1"]},
                     {"in": ["e1"], "name": "v2", "out": ["e2"]},
                     {"in": ["e2"], "name": "v3", "out": ["e3"]}],
    }


@pytest.mark.parametrize("command, files, line", [
    (["theta", "@"], [{**_graphical_identity_json(["v"]), "f1": {}}],
     "VertexMapError at ('v',): no image subgraph for v"),
    (["theta", "@"], [{**_graphical_identity_json(["v"]), "f0": {"i1": "i1", "o1": "zz"}}],
     "EdgeMapError at ('o1',): o1 maps to unknown edge zz"),
    (["validate", "@"], [{"edges": ["a"], "vertices": [{"name": "u", "in": ["a", "a"], "out": []}]}],
     "DuplicateEdge at ('u',): duplicate edge in in(u)"),
    (["validate", "@"], [{"edges": ["a", "b", "c"], "vertices": [
        {"name": "u", "in": ["a"], "out": ["c"]}, {"name": "v", "in": ["b"], "out": ["c"]},
    ]}], "MonoViolation at ('c',): edge c is an output of both u and v"),
    (["--max-vertices", "1", "subgraphs", "@"], [graph_to_json(linear_graph(2))],
     "SizeLimit: too many vertices (2 > 1)"),
    (["--max-vertices", "1", "hom", "@", "@"], [graph_to_json(linear_graph(2))] * 2,
     "SizeLimit: hom enumeration bound exceeded"),
    (["nerve", "@", "@"], [{"kind": "terminal"},
                           {"generators": [graph_to_json(linear_graph(4))]}],
     "GraphcatError: generator exceeds the corpus vertex bound"),
    (["prpd", "compose", "@"], [_composition({"0": (linear_graph(1), "c")})],
     "ProfileMismatch: inner family must cover every vertex index"),
    (["prpd", "compose", "@"], [_composition({"0": (linear_graph(1), "c"),
                                              "1": (graph("abc", [("v", "ab", "c")]), "c")})],
     "ProfileMismatch: operation at index 1 has biarity (2, 1), vertex needs (1, 1)"),
    (["prpd", "compose", "@"], [_composition({"0": (linear_graph(1), "c"),
                                              "1": (linear_graph(1), "d")})],
     "ColorMismatch: colors disagree at index 1"),
], ids=["theta-f1-omits-a-vertex", "theta-f0-unknown-edge", "edge-twice-in-one-list",
        "edge-output-of-two-vertices", "subgraphs-vertex-bound", "hom-vertex-bound",
        "nerve-generator-too-large", "compose-missing-index", "compose-biarity",
        "compose-colors"])
def test_reachable_violations_say_where(tmp_path, capsys, command, files, line):
    # the k-th "@" in the command names a file holding files[k]
    paths = iter(files)
    argv = []
    for k, arg in enumerate(command):
        if arg == "@":
            path = tmp_path / f"data{k}.json"
            path.write_text(json.dumps(next(paths)))
            arg = str(path)
        argv.append(arg)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"violation: {line}\n"
