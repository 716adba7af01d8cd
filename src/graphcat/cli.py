"""Command-line front end.

Subcommands mirror the library: validate, subgraphs, convex, hom,
factorize, substitute, tau, free-properad, prpd compose/stabilizer,
theta, nerve, segal, dot.  Exit code 0 on success, 1 on a domain
violation (with the violation report), 2 on usage or file errors.
JSON output is sorted and schema-stable.

Every file format has one schema in ``_FORMATS``.  A command walks the
file it reads against it before decoding anything, and the first
mismatch exits 2 with ``error: malformed <format>: at <JSON path>:
expected <what>`` (or ``missing``).  Checks across fields run in the
loaders and name a path too.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import digraph, graphical, level, properad, segal
from .errors import GraphcatError, Violation


class DomainFailure(Exception):
    """A violation that should surface with exit code 1."""


def _ok(report, role=""):
    """Surface the report of a failed check as a violation (exit 1)."""
    if report is not None:
        raise DomainFailure(f"{role}{report}")


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


# ---------------------------------------------------------------------------
# file formats: one schema per format, walked before anything is decoded


class _Mismatch(Exception):
    """``(path, expected)``: where a file departs from its schema and what
    was expected there; ``expected`` is None where a key is missing."""


def _at(path, key):
    """The path of ``key`` in the object at ``path``; a key that is not an
    ASCII identifier is written as a JSON string."""
    if key.isascii() and key.isidentifier():
        return f"{path}.{key}"
    return f"{path}[{json.dumps(key)}]"


def _any(x, path):
    """Any value at all."""


def _leaf(expected, test):
    """A value that passes ``test``."""
    def check(x, path):
        if not test(x):
            raise _Mismatch(path, expected)
    return check


_SIZE = _leaf(
    "an int >= 0", lambda x: isinstance(x, int) and not isinstance(x, bool) and x >= 0
)
_INT = _leaf("an int", lambda x: isinstance(x, int))  # a bool passes (DECISIONS.md D8)
_SCALAR = _leaf("a string or a number", lambda x: isinstance(x, (str, int, float)))


def _obj(keys):
    """An object with the schemas of ``keys``, checked in order; a key
    written ``"name?"`` may be absent, and other keys are ignored."""
    def check(x, path):
        if not isinstance(x, dict):
            raise _Mismatch(path, "an object")
        for key, schema in keys.items():
            name = key.rstrip("?")
            if name in x:
                schema(x[name], _at(path, name))
            elif name == key:
                raise _Mismatch(_at(path, name), None)
    return check


def _map(values=_any, keys=_any):
    """An object whose every key fits ``keys`` and every value ``values``."""
    def check(x, path):
        if not isinstance(x, dict):
            raise _Mismatch(path, "an object")
        for key, value in x.items():
            keys(key, _at(path, key))
            values(value, _at(path, key))
    return check


def _list(item=_any, *more):
    """A list whose items all fit ``item``, or, given more schemas, a list
    of exactly one item per schema."""
    def check(x, path):
        if not isinstance(x, list):
            raise _Mismatch(path, "a list")
        schemas = (item, *more) if more else (item,) * len(x)
        if len(x) != len(schemas):
            raise _Mismatch(path, f"a list of {len(schemas)} items")
        for i, (schema, y) in enumerate(zip(schemas, x)):
            schema(y, f"{path}[{i}]")
    return check


def _either(*schemas):
    """A value that fits one of ``schemas``; else the mismatch that got
    deepest, or everything that was expected here."""
    def check(x, path):
        misses = []
        for schema in schemas:
            try:
                return schema(x, path)
            except _Mismatch as miss:
                misses.append(miss)
        deepest = max(misses, key=lambda miss: len(miss.args[0]))
        if deepest.args[0] != path:
            raise deepest
        raise _Mismatch(path, " or ".join(miss.args[1] for miss in misses))
    return check


def _falsy_or(schema):
    """A falsy value, which the decoders read as absent, or ``schema``."""
    return lambda x, path: schema(x, path) if x else None


def _tagged(tag, schemas):
    """An object whose ``tag`` names the one of ``schemas`` it fits."""
    names = tuple(schemas)
    pick = _obj({tag: _leaf(" or ".join(map(json.dumps, names)), lambda t: t in names)})
    return lambda x, path: pick(x, path) or schemas[x[tag]](x, path)


_VERTEX = _obj({"name": _any, "in": _list(), "out": _list()})
_GRAPH_KEYS = {"edges": _list(), "vertices": _list(_VERTEX)}
_GRAPH = _obj(_GRAPH_KEYS)
_LEVEL = _obj({"edge_layers": _list(_list()), "vertex_layers": _list(_list(_VERTEX))})
_OPERATION = _obj({
    **_GRAPH_KEYS, "in_order": _list(), "out_order": _list(),
    "colors?": _falsy_or(_map()),
})

_FORMATS = {
    "graph": _GRAPH,
    "level graph": _LEVEL,
    "graphical morphism": _obj({
        "source": _GRAPH, "target": _GRAPH, "f0": _map(),
        "f1": _map(_obj({"edges": _list(), "vertices": _list()})),
    }),
    "level morphism": _obj({
        "source": _LEVEL, "target": _LEVEL, "alpha": _list(_INT),
        "edge_maps": _list(_map()),
        "vertex_maps": _list(_map(_list(_any, _INT, _any))),
    }),
    "operation": _OPERATION,
    "substitution": _obj({
        "outer": _GRAPH, "inner": _GRAPH, "vertex": _any,
        "bij_in?": _falsy_or(_map()), "bij_out?": _falsy_or(_map()),
    }),
    "composition": _obj({
        "outer": _OPERATION,
        "inner": _map(_OPERATION, keys=_leaf("a decimal key", str.isdecimal)),
    }),
    "properad": _tagged("kind", {
        "end": _obj({"sets": _map(_either(_SIZE, _list(_SCALAR)))}),
        "terminal": _obj({"colors?": _list(_SCALAR)}),
        "free": _obj({"generator": _GRAPH, "vertex_bound?": _SIZE}),
    }),
    "corpus": _obj({"generators": _list(_GRAPH), "max_vertices?": _SIZE}),
    "presheaf": _obj({"values": _list(_list()), "restrictions": _map()}),
}


def _malformed(fmt, path, problem):
    print(f"error: malformed {fmt}: at {path}: {problem}", file=sys.stderr)
    raise SystemExit(2)


def _parse(fmt, data, path="$", schema=None):
    """``data`` if it fits the schema of ``fmt`` (or ``schema``); else
    exit 2 naming the first mismatch."""
    try:
        (schema or _FORMATS[fmt])(data, path)
    except _Mismatch as miss:
        where, expected = miss.args
        _malformed(fmt, where, f"expected {expected}" if expected else "missing")
    return data


def _load(path, fmt):
    """The JSON in file ``path``, checked against the schema of ``fmt``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return _parse(fmt, data)


def _valid_graph(data):
    """The graph of well-shaped JSON; a violated invariant exits 1."""
    g = digraph.graph_from_json(data)
    _ok(digraph.validate(g))
    return g


def _graph_arg(path):
    return _valid_graph(_load(path, "graph"))


def _valid_graphical_morphism(path):
    data = _load(path, "graphical morphism")
    f = graphical.morphism_from_json(
        _valid_graph(data["source"]), _valid_graph(data["target"]), data
    )
    _ok(graphical.validate_graphical(f))
    return f


def _graphical_morphism_to_json(f):
    data = graphical.morphism_to_json(f)
    data["source"] = digraph.graph_to_json(f.source)
    data["target"] = digraph.graph_to_json(f.target)
    return data


def _properad_from_json(data):
    """The properad of a well-shaped file; a free generator is validated."""
    if data["kind"] == "end":
        for color, values in data["sets"].items():
            if isinstance(values, list) and len(set(values)) < len(values):
                _malformed("properad", _at("$.sets", color), "expected distinct values")
        return properad.end_properad({str(c): v for c, v in data["sets"].items()})
    if data["kind"] == "terminal":
        return properad.terminal_properad(tuple(map(str, data.get("colors", ["*"]))))
    return properad.free_properad(
        _valid_graph(data["generator"]), data.get("vertex_bound", 4)
    )


def _corpus_from_manifest(manifest):
    """The corpus of a well-shaped manifest; its generators are validated."""
    generators = [_valid_graph(g) for g in manifest["generators"]]
    return segal.build_corpus(
        generators, max_vertices=manifest.get("max_vertices", 3)
    )


def _presheaf_to_json(F, manifest):
    """The file of a presheaf: its values by repr, its tables as stored."""
    values = [[repr(x) for x in entry] for entry in F.values]
    restrictions = {f"{i}:{j}:{k}": list(t) for (i, j, k), t in F.restrictions.items()}
    return {"corpus": manifest, "values": values, "restrictions": restrictions}


def _presheaf_from_json(data):
    """The presheaf of a well-shaped file, its tables checked against its corpus."""
    # the manifest inside is checked as a corpus file of its own
    manifest = _parse("corpus", data.get("corpus"), "$.corpus")
    corpus = _corpus_from_manifest(manifest)
    sizes = [len(entry) for entry in data["values"]]
    if len(sizes) != len(corpus):
        _malformed("presheaf", "$.values", f"expected a list of length {len(corpus)}")
    restrictions = {}
    for (i, j), fs in corpus.homs.items():
        for k in range(len(fs)):
            key = f"{i}:{j}:{k}"
            table = _parse(
                "presheaf", data["restrictions"], "$.restrictions",
                _obj({key: _list(_SIZE)}),
            )[key]
            if len(table) != sizes[j] or any(y >= sizes[i] for y in table):
                _malformed(
                    "presheaf", _at("$.restrictions", key),
                    f"expected a list of length {sizes[j]} with entries < {sizes[i]}",
                )
            restrictions[(i, j, k)] = tuple(table)
    values = tuple(tuple(range(n)) for n in sizes)
    return segal.FinitePresheaf(corpus, values, restrictions)


def _valid_level_morphism(path):
    """A level morphism file whose source, target and maps all validate."""
    f = level.morphism_from_json(_load(path, "level morphism"))
    _ok(level.validate_level(f.source), "source ")
    _ok(level.validate_level(f.target), "target ")
    _ok(level.validate_level_morphism(f))
    return f


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    if args.level:
        lg = level.level_from_json(_load(args.graph, "level graph"))
        _ok(level.validate_level(lg))
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
    if args.cat == "G":
        parts = graphical.factorize_G(_valid_graphical_morphism(args.morphism))
        to_json = _graphical_morphism_to_json
    else:
        parts = level.factorize_L(_valid_level_morphism(args.morphism))
        to_json = level.morphism_to_json
    _emit(dict(zip(("active", "inert"), map(to_json, parts))), args.format)


def cmd_substitute(args):
    data = _load(args.data, "substitution")
    outer, inner = _valid_graph(data["outer"]), _valid_graph(data["inner"])
    vertex = str(data["vertex"])
    if vertex not in outer.vertex_by_name:
        raise DomainFailure(str(Violation(
            "UnknownVertex", "not a vertex of the outer graph", (vertex,)
        )))
    # a falsy bijection is absent
    bij_in, bij_out = (
        {str(k): str(v) for k, v in (data.get(key) or {}).items()} or None
        for key in ("bij_in", "bij_out")
    )
    result = digraph.substitute(
        digraph.substitution_data(outer, inner, vertex, bij_in, bij_out)
    )
    _emit(digraph.graph_to_json(result), args.format)


def cmd_tau(args):
    t = level.tau(_valid_level_morphism(args.morphism))
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
    if args.operation == "compose":
        data = _load(args.data, "composition")
        outer = properad.operation_from_json(data["outer"])
        inner = {
            int(k): properad.operation_from_json(v)
            for k, v in data["inner"].items()
        }
        result = properad.prpd_compose(outer, inner)
        _emit(properad.operation_to_json(result), args.format)
    else:
        op = properad.operation_from_json(_load(args.data, "operation"))
        stab = properad.stabilizer(op)
        _emit(
            {"order": len(stab), "elements": [list(p) for p in stab]},
            args.format,
        )


def cmd_theta(args):
    arrow = properad.theta(_valid_graphical_morphism(args.morphism))
    payload = {
        "source": [list(p) for p in arrow.source],
        "target": [list(p) for p in arrow.target],
        "alpha": list(arrow.alpha),
        "operations": [properad.operation_to_json(op) for op in arrow.ops],
    }
    _emit(payload, args.format)


def cmd_nerve(args):
    P = _properad_from_json(_load(args.properad, "properad"))
    manifest = _load(args.corpus, "corpus")
    corpus = _corpus_from_manifest(manifest)
    N = segal.nerve(P, corpus)
    payload = _presheaf_to_json(N, manifest)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True))
        _emit({"objects": len(corpus), "written": args.output}, args.format)
    else:
        _emit(payload, args.format)


def cmd_segal(args):
    F = _presheaf_from_json(_load(args.presheaf, "presheaf"))
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


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphcat",
        description="directed graphs with loose ends, level graphs, "
        "graphical maps, properads, and Segal presheaves",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--max-vertices", type=int, default=10)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *files):
        p = sub.add_parser(name, help=help)
        for file in files:
            p.add_argument(file)
        p.set_defaults(func=func)
        return p

    p = command("validate", cmd_validate, "check graph invariants", "graph")
    p.add_argument("--level", action="store_true")
    command("subgraphs", cmd_subgraphs, "list structured subgraphs", "graph")
    p = command("convex", cmd_convex, "test an open subgraph for convexity", "graph")
    p.add_argument("--vertices", default="")
    p.add_argument("--edges", default="")
    command("hom", cmd_hom, "enumerate graphical maps", "source", "target")
    p = command("factorize", cmd_factorize, "active-inert factorization", "morphism")
    p.add_argument("--cat", choices=("L", "G"), required=True)
    command("substitute", cmd_substitute, "graph substitution", "data")
    command("tau", cmd_tau, "underlying graphical map of a level morphism", "morphism")
    p = command("free-properad", cmd_free_properad, "profiles of the free properad",
                "graph")
    p.add_argument("--min-vertices", type=int, default=0)
    p = command("prpd", cmd_prpd, "governing operad operations")
    p.add_argument("operation", choices=("compose", "stabilizer"))
    p.add_argument("data")
    command("theta", cmd_theta, "operad morphism of a graphical map", "morphism")
    p = command("nerve", cmd_nerve, "nerve presheaf of a properad", "properad",
                "corpus")
    p.add_argument("--output", "-o")
    p = command("segal", cmd_segal, "check the Segal condition", "presheaf")
    p.add_argument("--strict", action="store_true")
    command("dot", cmd_dot, "GraphViz rendering", "graph")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
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
