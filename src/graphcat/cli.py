"""Command-line front end.

Subcommands mirror the library: validate, subgraphs, convex, hom,
factorize, substitute, tau, free-properad, prpd compose/stabilizer,
theta, nerve, segal, dot.  Exit code 0 on success, 1 on a domain
violation (with the violation report), 2 on usage or file errors.
JSON output is sorted and schema-stable.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import digraph, graphical, level, properad, segal
from .errors import GraphcatError, Violation


class DomainFailure(Exception):
    """A violation that should surface with exit code 1."""


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _emit(data, fmt):
    if fmt == "json":
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        _emit_text(data)


def _emit_text(data, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _emit_text(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(data, list):
        for item in data:
            if isinstance(item, (dict, list)):
                _emit_text(item, indent)
            else:
                print(f"{pad}{item}")
    else:
        print(f"{pad}{data}")


def _graph_arg(path):
    """A graph file, checked for shape and then for the graph invariants."""
    data = _load_json(path)
    if not _is_graph_json(data):
        _malformed(
            "graph",
            'expected {"edges": [...], "vertices": '
            '[{"name": ..., "in": [...], "out": [...]}, ...]}',
        )
    return _valid_graph(data)


def _valid_graphical_morphism(data):
    """A graphical morphism file, checked for shape, then validated."""
    if not (
        isinstance(data, dict)
        and _is_graph_json(data.get("source"))
        and _is_graph_json(data.get("target"))
        and isinstance(data.get("f0"), dict)
        and isinstance(data.get("f1"), dict)
        and all(
            isinstance(sub, dict) and _list_of(sub.get("edges"))
            and _list_of(sub.get("vertices"))
            for sub in data["f1"].values()
        )
    ):
        _malformed(
            "graphical morphism",
            'expected {"source": graph, "target": graph, "f0": {edge: edge}, '
            '"f1": {vertex: {"edges": [...], "vertices": [...]}}}',
        )
    f = graphical.morphism_from_json(
        _valid_graph(data["source"]), _valid_graph(data["target"]), data
    )
    report = graphical.validate_graphical(f)
    if report is not None:
        raise DomainFailure(str(report))
    return f


def _graphical_morphism_to_json(f):
    data = graphical.morphism_to_json(f)
    data["source"] = digraph.graph_to_json(f.source)
    data["target"] = digraph.graph_to_json(f.target)
    return data


def _properad_from_json(data):
    """A properad file, checked for shape; a free generator is validated."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "end" and isinstance(data.get("sets"), dict) and all(
        _is_size(v) or (_list_of(v, _is_scalar) and len(set(v)) == len(v))
        for v in data["sets"].values()
    ):
        return properad.end_properad({str(c): v for c, v in data["sets"].items()})
    if kind == "terminal" and _list_of(data.get("colors", []), _is_scalar):
        return properad.terminal_properad(tuple(map(str, data.get("colors", ["*"]))))
    if (
        kind == "free"
        and _is_graph_json(data.get("generator"))
        and _is_size(data.get("vertex_bound", 4))
    ):
        return properad.free_properad(
            _valid_graph(data["generator"]), data.get("vertex_bound", 4)
        )
    _malformed(
        "properad",
        'expected {"kind": "end", "sets": {color: n | [value, ...]}}, '
        '{"kind": "terminal", "colors"?: [color, ...]} or '
        '{"kind": "free", "generator": graph, "vertex_bound"?: n}, with n >= 0 '
        'and distinct values',
    )


def _malformed(kind, problem):
    print(f"error: malformed {kind}: {problem}", file=sys.stderr)
    raise SystemExit(2)


def _list_of(data, fits=lambda item: True):
    """Is ``data`` a list whose items all pass ``fits``?"""
    return isinstance(data, list) and all(map(fits, data))


def _is_size(x):
    """A count: an int (not a bool) that is at least 0."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _is_scalar(x):
    return isinstance(x, (str, int, float))


def _is_vertex_json(v):
    return (
        isinstance(v, dict)
        and "name" in v
        and _list_of(v.get("in"))
        and _list_of(v.get("out"))
    )


def _is_graph_json(data):
    return (
        isinstance(data, dict)
        and _list_of(data.get("edges"))
        and _list_of(data.get("vertices"), _is_vertex_json)
    )


def _is_level_json(data):
    return (
        isinstance(data, dict)
        and _list_of(data.get("edge_layers"), _list_of)
        and _list_of(
            data.get("vertex_layers"), lambda layer: _list_of(layer, _is_vertex_json)
        )
    )


def _is_operation_json(data):
    return (
        _is_graph_json(data)
        and _list_of(data.get("in_order"))
        and _list_of(data.get("out_order"))
        and isinstance(data.get("colors") or {}, dict)
    )


def _valid_graph(data):
    """The graph of well-shaped JSON; a violated invariant exits 1."""
    g = digraph.graph_from_json(data)
    report = digraph.validate(g)
    if report is not None:
        raise DomainFailure(str(report))
    return g


def _corpus_from_manifest(manifest):
    if not (
        isinstance(manifest, dict)
        and _list_of(manifest.get("generators"), _is_graph_json)
        and _is_size(manifest.get("max_vertices", 3))
    ):
        _malformed(
            "corpus",
            'expected {"generators": [graph, ...], "max_vertices"?: n}, with n >= 0',
        )
    generators = [_valid_graph(g) for g in manifest["generators"]]
    return segal.build_corpus(
        generators, max_vertices=manifest.get("max_vertices", 3)
    )


def _presheaf_to_json(F, manifest):
    values = []
    index_of = []
    for entry in F.values:
        values.append([repr(x) for x in entry])
        index_of.append({x: k for k, x in enumerate(entry)})
    restrictions = {}
    for (i, j, k), table in sorted(F.restrictions.items()):
        restrictions[f"{i}:{j}:{k}"] = [
            index_of[i][table[x]] for x in F.values[j]
        ]
    return {"corpus": manifest, "values": values, "restrictions": restrictions}


def _presheaf_from_json(data):
    if not (
        isinstance(data, dict)
        and _list_of(data.get("values"), _list_of)
        and isinstance(data.get("restrictions"), dict)
    ):
        _malformed(
            "presheaf",
            'expected {"corpus": ..., "values": [[...], ...], '
            '"restrictions": {"i:j:k": [...], ...}}',
        )
    corpus = _corpus_from_manifest(data.get("corpus"))
    sizes = [len(entry) for entry in data["values"]]
    if len(sizes) != len(corpus):
        _malformed(
            "presheaf",
            f"{len(sizes)} value lists for a corpus of {len(corpus)} objects",
        )
    restrictions = {}
    for (i, j), fs in corpus.homs.items():
        for k in range(len(fs)):
            table = data["restrictions"].get(f"{i}:{j}:{k}")
            if not (
                isinstance(table, list)
                and len(table) == sizes[j]
                and all(_is_size(y) and y < sizes[i] for y in table)
            ):
                _malformed(
                    "presheaf",
                    f"restriction {i}:{j}:{k} is not a map from "
                    f"{sizes[j]} values to {sizes[i]}",
                )
            restrictions[(i, j, k)] = dict(enumerate(table))
    values = tuple(tuple(range(n)) for n in sizes)
    return segal.FinitePresheaf(corpus, values, restrictions)


def _valid_level_morphism(data):
    """A level morphism file, checked for shape, whose source, target
    and maps all validate."""
    if not (
        isinstance(data, dict)
        and _is_level_json(data.get("source"))
        and _is_level_json(data.get("target"))
        and _list_of(data.get("alpha"), lambda a: isinstance(a, int))
        and _list_of(data.get("edge_maps"), lambda m: isinstance(m, dict))
        and _list_of(data.get("vertex_maps"), lambda m: isinstance(m, dict) and all(
            _list_of(rep) and len(rep) == 3 and isinstance(rep[1], int)
            for rep in m.values()
        ))
    ):
        _malformed(
            "level morphism",
            'expected {"source": level graph, "target": level graph, '
            '"alpha": [int, ...], "edge_maps": [{edge: edge}, ...], '
            '"vertex_maps": [{vertex: [kind, level, name]}, ...]}',
        )
    f = level.morphism_from_json(data)
    for role, lg in (("source", f.source), ("target", f.target)):
        report = level.validate_level(lg)
        if report is not None:
            raise DomainFailure(f"{role} {report}")
    report = level.validate_level_morphism(f)
    if report is not None:
        raise DomainFailure(str(report))
    return f


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    if args.level:
        data = _load_json(args.graph)
        if not _is_level_json(data):
            _malformed(
                "level graph",
                'expected {"edge_layers": [[...], ...], "vertex_layers": '
                '[[{"name": ..., "in": [...], "out": [...]}, ...], ...]}',
            )
        report = level.validate_level(level.level_from_json(data))
        if report is not None:
            raise DomainFailure(str(report))
    else:
        _graph_arg(args.graph)
    _emit({"ok": True}, args.format)


def cmd_subgraphs(args):
    g = _graph_arg(args.graph)
    subs = digraph.structured_subgraphs(g, max_vertices=args.max_vertices)
    payload = {
        "count": len(subs),
        "subgraphs": [
            {"edges": sorted(s.edge_names), "vertices": sorted(s.vertex_names_set)}
            for s in subs
        ],
    }
    _emit(payload, args.format)


def cmd_convex(args):
    g = _graph_arg(args.graph)
    vertices = [v for v in args.vertices.split(",") if v] if args.vertices else []
    edges = [e for e in args.edges.split(",") if e] if args.edges else []
    for kind, names, known in (
        ("UnknownVertex", vertices, g.vertex_by_name),
        ("UnknownEdge", edges, g.edge_set),
    ):
        unknown = tuple(name for name in names if name not in known)
        if unknown:
            raise DomainFailure(str(Violation(kind, "not in the graph", unknown)))
    sub = digraph.open_subgraph(g, vertices, edges)
    result = digraph.is_convex_open(sub)
    _emit(
        {
            "convex": result,
            "edges": sorted(sub.edge_names),
            "vertices": sorted(sub.vertex_names_set),
        },
        args.format,
    )


def cmd_hom(args):
    src = _graph_arg(args.source)
    tgt = _graph_arg(args.target)
    maps = graphical.hom_set(src, tgt, max_vertices=args.max_vertices)
    payload = {
        "count": len(maps),
        "morphisms": [dict(m.f0_pairs) for m in maps],
    }
    _emit(payload, args.format)


def cmd_factorize(args):
    data = _load_json(args.morphism)
    if args.cat == "G":
        act, ine = graphical.factorize_G(_valid_graphical_morphism(data))
        payload = {
            "active": _graphical_morphism_to_json(act),
            "inert": _graphical_morphism_to_json(ine),
        }
    else:
        f = _valid_level_morphism(data)
        act, ine = level.factorize_L(f)
        payload = {
            "active": level.morphism_to_json(act),
            "inert": level.morphism_to_json(ine),
        }
    _emit(payload, args.format)


def cmd_substitute(args):
    data = _load_json(args.data)
    if not (
        isinstance(data, dict)
        and _is_graph_json(data.get("outer"))
        and _is_graph_json(data.get("inner"))
        and "vertex" in data
        and all(isinstance(data.get(k) or {}, dict) for k in ("bij_in", "bij_out"))
    ):
        _malformed(
            "substitution",
            'expected {"outer": graph, "inner": graph, "vertex": name, '
            '"bij_in"?: {edge: edge}, "bij_out"?: {edge: edge}}',
        )
    outer, inner = _valid_graph(data["outer"]), _valid_graph(data["inner"])
    vertex = str(data["vertex"])
    if vertex not in outer.vertex_by_name:
        raise DomainFailure(str(Violation(
            "UnknownVertex", "not a vertex of the outer graph", (vertex,)
        )))
    bij_in = data.get("bij_in")
    bij_out = data.get("bij_out")
    sub = digraph.substitution_data(
        outer,
        inner,
        vertex,
        {str(k): str(v) for k, v in bij_in.items()} if bij_in else None,
        {str(k): str(v) for k, v in bij_out.items()} if bij_out else None,
    )
    result = digraph.substitute(sub)
    _emit(digraph.graph_to_json(result), args.format)


def cmd_tau(args):
    t = level.tau(_valid_level_morphism(_load_json(args.morphism)))
    _emit(_graphical_morphism_to_json(t), args.format)


def cmd_free_properad(args):
    g = _graph_arg(args.graph)
    P = properad.free_properad(g, vertex_bound=args.max_vertices)
    profiles = sorted(P.nonempty_profiles(min_vertices=args.min_vertices))
    payload = {
        "colors": sorted(P.colors),
        "profiles": [
            {"in": list(pins), "out": list(pouts)} for pins, pouts in profiles
        ],
    }
    _emit(payload, args.format)


def cmd_prpd(args):
    data = _load_json(args.data)
    if args.operation == "compose":
        if not (
            isinstance(data, dict)
            and _is_operation_json(data.get("outer"))
            and isinstance(data.get("inner"), dict)
            and all(
                k.isdecimal() and _is_operation_json(op)
                for k, op in data["inner"].items()
            )
        ):
            _malformed(
                "composition",
                'expected {"outer": operation, "inner": {"0": operation, ...}}',
            )
        outer = properad.operation_from_json(data["outer"])
        inner = {
            int(k): properad.operation_from_json(v)
            for k, v in data["inner"].items()
        }
        result = properad.prpd_compose(outer, inner)
        _emit(properad.operation_to_json(result), args.format)
    else:
        if not _is_operation_json(data):
            _malformed(
                "operation",
                'expected a graph with "in_order": [...], "out_order": [...] '
                'and optionally "colors": {edge: color}',
            )
        op = properad.operation_from_json(data)
        stab = properad.stabilizer(op)
        _emit(
            {"order": len(stab), "elements": [list(p) for p in stab]},
            args.format,
        )


def cmd_theta(args):
    arrow = properad.theta(_valid_graphical_morphism(_load_json(args.morphism)))
    payload = {
        "source": [list(p) for p in arrow.source],
        "target": [list(p) for p in arrow.target],
        "alpha": list(arrow.alpha),
        "operations": [properad.operation_to_json(op) for op in arrow.ops],
    }
    _emit(payload, args.format)


def cmd_nerve(args):
    P = _properad_from_json(_load_json(args.properad))
    manifest = _load_json(args.corpus)
    corpus = _corpus_from_manifest(manifest)
    N = segal.nerve(P, corpus)
    payload = _presheaf_to_json(N, manifest)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        _emit({"objects": len(corpus), "written": args.output}, args.format)
    else:
        _emit(payload, args.format)


def cmd_segal(args):
    F = _presheaf_from_json(_load_json(args.presheaf))
    flag, witness = segal.is_segal(F)
    payload = {"segal": flag}
    if witness is not None:
        payload["witness"] = digraph.graph_to_json(F.corpus.objects[witness])
    _emit(payload, args.format)
    if not flag and args.strict:
        raise DomainFailure(f"presheaf fails the Segal condition at {witness}")


def cmd_dot(args):
    g = _graph_arg(args.graph)
    print(digraph.to_dot(g))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphcat",
        description="directed graphs with loose ends, level graphs, "
        "graphical maps, properads, and Segal presheaves",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--max-vertices", type=int, default=10)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check graph invariants")
    p.add_argument("graph")
    p.add_argument("--level", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("subgraphs", help="list structured subgraphs")
    p.add_argument("graph")
    p.set_defaults(func=cmd_subgraphs)

    p = sub.add_parser("convex", help="test an open subgraph for convexity")
    p.add_argument("graph")
    p.add_argument("--vertices", default="")
    p.add_argument("--edges", default="")
    p.set_defaults(func=cmd_convex)

    p = sub.add_parser("hom", help="enumerate graphical maps")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("factorize", help="active-inert factorization")
    p.add_argument("morphism")
    p.add_argument("--cat", choices=("L", "G"), required=True)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("substitute", help="graph substitution")
    p.add_argument("data")
    p.set_defaults(func=cmd_substitute)

    p = sub.add_parser("tau", help="underlying graphical map of a level morphism")
    p.add_argument("morphism")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("free-properad", help="profiles of the free properad")
    p.add_argument("graph")
    p.add_argument("--min-vertices", type=int, default=0)
    p.set_defaults(func=cmd_free_properad)

    p = sub.add_parser("prpd", help="governing operad operations")
    p.add_argument("operation", choices=("compose", "stabilizer"))
    p.add_argument("data")
    p.set_defaults(func=cmd_prpd)

    p = sub.add_parser("theta", help="operad morphism of a graphical map")
    p.add_argument("morphism")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("nerve", help="nerve presheaf of a properad")
    p.add_argument("properad")
    p.add_argument("corpus")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("segal", help="check the Segal condition")
    p.add_argument("presheaf")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_segal)

    p = sub.add_parser("dot", help="GraphViz rendering")
    p.add_argument("graph")
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DomainFailure as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except GraphcatError as exc:
        print(f"violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
