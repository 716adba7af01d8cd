"""The four benchmark workloads: inputs, jobs, invariants and digests.

Each workload drafts a fixed catalogue of inputs from ``CATALOGUE_SEED``
(so that reference answers can be recorded once per catalogue entry).
The run's ``--seed`` turns the catalogue into a job list: it fixes the
order of the jobs, a fresh relabelling of every graph, and the
per-job choices (permutations, lifts).  Every seed runs every entry,
so the mix of job sizes, and with it the run's cost, is the same from
seed to seed.  A job returns its answer and the invariants it found
broken; the answer is then translated back to the catalogue's names
and hashed, so its digest can be checked against ``references.json``
whatever relabelling the seed chose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random

from graphcat import cli
from graphcat.digraph import (
    canonical_form,
    corolla,
    graph_to_json,
    structured_subgraphs,
)
from graphcat.graphical import compose_graphical, factorize_G, hom_set
from graphcat.level import (
    compose_level,
    factorize_L,
    hom_level,
    is_connected_level,
    special_extension,
    tau,
    vertex_map_L,
)
from graphcat.properad import (
    OperadArrow,
    all_operations,
    cartesian_lift_active,
    identity_operation,
    prpd_compose,
    sigma_action,
    stabilizer,
    suboperad_member,
    terminal_properad,
    theta,
    theta_object,
)
from graphcat.segal import (
    build_corpus,
    build_level_corpus,
    extract_properad,
    is_segal,
    nerve,
    nerve_level,
    representable_level_presheaf,
    segmentation_check,
)

import gen

CATALOGUE_SEED = 2007_00634


def digest(answer):
    """sha256 of the repr of an answer built from sorted tuples only."""
    return hashlib.sha256(repr(answer).encode()).hexdigest()


def entry_key(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _distinct(rng, draft, count, key_of, seen, max_draws=5000):
    """``count`` drafts whose keys are not yet in ``seen``, in draw order."""
    out = []
    for _ in range(max_draws):
        if len(out) == count:
            return out
        item = draft(rng)
        key = key_of(item)
        if key not in seen:
            seen.add(key)
            out.append(item)
    raise gen.DraftError(f"only {len(out)} distinct drafts of {count}")


def _canon(g):
    return repr(canonical_form(g)[0])


def _invert(mapping):
    return {v: k for k, v in mapping.items()}


def encode_graphical(f, src_names, tgt_names):
    """A graphical map in catalogue names: sorted edge pairs and, per
    vertex, the sorted edges and vertices of its image subgraph.

    ``src_names`` and ``tgt_names`` are (edge, vertex) renamings from job
    names back to catalogue names.
    """
    (se, sv), (te, tv) = src_names, tgt_names
    f0 = tuple(sorted((se[e], te[y]) for e, y in f.f0_pairs))
    f1 = tuple(
        sorted(
            (sv[v], tuple(sorted(te[e] for e in edges)), tuple(sorted(tv[w] for w in vs)))
            for v, (edges, vs) in f.f1v_pairs
        )
    )
    return (f0, f1)


class Workload:
    """A catalogue drafted once, and a job list made from it by seed.

    ``strata`` maps each kind of catalogue entry to how many are drafted.
    Subclasses say how to ``draft`` one input of a stratum, which drafts
    are the same input (``identity``), and how an input becomes a
    catalogue ``entry`` with the ``key`` its reference digest is filed
    under; ``prepare`` turns entries into jobs and ``run`` runs one.
    """

    name = ""
    strata = {}
    catalogue_offset = 0

    def catalogue(self):
        rng = random.Random(CATALOGUE_SEED + self.catalogue_offset)
        out, seen = [], set()
        for stratum, size in self.strata.items():
            items = _distinct(
                rng, lambda r, s=stratum: self.draft(r, s), size, self.identity, seen
            )
            out += [self.entry(item) for item in items]
        return out

    def jobs(self, seed, catalogue, workdir):
        rng = random.Random(seed)
        order = list(catalogue)
        rng.shuffle(order)
        return self.prepare(rng, order, workdir)


# ---------------------------------------------------------------------------
# nerve_roundtrip


class NerveRoundtrip(Workload):
    """CLI nerve -> segal, then build_corpus -> nerve -> extract -> nerve."""

    name = "nerve_roundtrip"
    strata = {"one-vertex": 32, "two-vertex": 32, "two-generators": 32}
    max_decorations = 24  # decorations of any one generator
    max_profile_ops = 16  # operations in any one vertex profile

    def _spec(self, rng):
        colours = [f"c{k}" for k in range(rng.randint(1, 2))]
        if rng.random() < 0.3:
            return ("terminal", tuple(colours))
        return ("end", tuple((c, rng.randint(1, 2)) for c in colours))

    def _attempt(self, rng, stratum):
        if stratum == "one-vertex":
            gens = [gen.random_graph(rng, 1, 2, 2, 4)]
        elif stratum == "two-vertex":
            gens = [gen.random_graph(rng, 2, 2, 2, 5)]
        else:
            gens = [gen.random_graph(rng, 1, 2, 2, 4) for _ in range(2)]
        spec = self._spec(rng)
        sizes = gen.spec_sizes(spec)
        for g in gens:
            if gen.decoration_count(g, sizes) > self.max_decorations:
                return None
            for v in g.vertices:
                m, n = v.biarity()
                for ins in itertools.product(sizes, repeat=m):
                    for outs in itertools.product(sizes, repeat=n):
                        if gen.profile_op_count(sizes, ins, outs) > self.max_profile_ops:
                            return None
        return gens, spec

    def draft(self, rng, stratum):
        return gen.redraw(rng, lambda r: self._attempt(r, stratum))

    def identity(self, item):
        gens, spec = item
        return tuple(sorted(_canon(g) for g in gens)), spec

    def entry(self, item):
        gens, spec = item
        return {"key": entry_key(self.name, gens, spec), "gens": gens, "spec": spec}

    def prepare(self, rng, entries, workdir):
        jobs = []
        for n, entry in enumerate(entries):
            gens = [gen.relabel_graph(rng, g)[0] for g in entry["gens"]]
            kind, data = entry["spec"]
            if kind == "end":
                pdata = {"kind": "end", "sets": dict(data)}
            else:
                pdata = {"kind": "terminal", "colors": list(data)}
            paths = {
                part: os.path.join(workdir, f"{self.name}-{n}-{part}.json")
                for part in ("properad", "corpus", "presheaf")
            }
            with open(paths["properad"], "w") as fh:
                json.dump(pdata, fh)
            with open(paths["corpus"], "w") as fh:
                json.dump(
                    {"generators": [graph_to_json(g) for g in gens], "max_vertices": 3},
                    fh,
                )
            jobs.append({"key": entry["key"], "gens": gens, "spec": entry["spec"],
                         "paths": paths})
        return jobs

    def run(self, job):
        problems = []
        paths = job["paths"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc_nerve = cli.main(["--format", "json", "nerve", paths["properad"],
                                 paths["corpus"], "-o", paths["presheaf"]])
            mark = out.tell()
            rc_segal = cli.main(["--format", "json", "segal", paths["presheaf"], "--strict"])
        if rc_nerve != 0 or rc_segal != 0:
            problems.append(f"cli exit codes {rc_nerve}, {rc_segal}: {err.getvalue()!r}")
        elif json.loads(out.getvalue()[mark:]) != {"segal": True}:
            problems.append("cli segal did not report a Segal presheaf")

        P = gen.properad_from_spec(job["spec"])
        sizes = gen.spec_sizes(job["spec"])
        corpus = build_corpus(job["gens"], max_vertices=3)
        N = nerve(P, corpus)
        if not is_segal(N)[0]:
            problems.append("nerve is not Segal")
        Q = extract_properad(N)
        M = nerve(Q, corpus)
        n_sizes = tuple(len(N.value(i)) for i in range(len(corpus)))
        m_sizes = tuple(len(M.value(i)) for i in range(len(corpus)))
        if m_sizes != n_sizes:
            problems.append(f"|nerve(Q)| {m_sizes} != |nerve(P)| {n_sizes}")
        expected = tuple(gen.decoration_count(g, sizes) for g in corpus.objects)
        if n_sizes != expected:
            problems.append(f"|nerve(P)| {n_sizes} != decoration counts {expected}")
        if len(Q.colors) != len(P.colors):
            problems.append("extracted properad has the wrong number of colours")
        op_counts = []
        for (m, n), _ in sorted(corpus.corolla_index.items()):
            got = sum(
                len(Q.ops(ins, outs))
                for ins in itertools.product(Q.colors, repeat=m)
                for outs in itertools.product(Q.colors, repeat=n)
            )
            want = sum(
                gen.profile_op_count(sizes, ins, outs)
                for ins in itertools.product(sorted(sizes), repeat=m)
                for outs in itertools.product(sorted(sizes), repeat=n)
            )
            if got != want:
                problems.append(f"extracted ops of biarity {(m, n)}: {got} != {want}")
            op_counts.append(((m, n), got))
        return (paths["presheaf"], n_sizes, m_sizes, tuple(op_counts)), problems

    def encode(self, job, answer):
        path, n_sizes, m_sizes, op_counts = answer
        # value and restriction tables live on canonical corpus objects, so
        # only the echoed corpus manifest carries the job's names
        try:
            with open(path) as fh:
                tables = json.load(fh)
            tables.pop("corpus")
            file_digest = digest(json.dumps(tables, sort_keys=True))
        except (OSError, ValueError, KeyError):
            file_digest = None
        return (file_digest, n_sizes, m_sizes, op_counts)


# ---------------------------------------------------------------------------
# hom_enum


class HomEnum(Workload):
    """hom_set + factorize_G on distinct pairs, and on relabelled copies."""

    name = "hom_enum"
    strata = {"independent": 120, "subgraph": 120, "corolla": 120, "self": 120}
    catalogue_offset = 1

    def draft(self, rng, stratum):
        nk = rng.randint(1, 4)
        K = gen.random_graph(rng, nk, closed=nk > 1 and rng.random() < 0.2)
        if stratum == "independent":
            G = gen.random_graph(rng, rng.randint(1, 4))
        elif stratum == "subgraph":
            subs = [s for s in structured_subgraphs(K) if s.vertex_names_set]
            G = rng.choice(subs).as_graph
        elif stratum == "corolla":
            G = corolla(len(K.inputs), len(K.outputs))
        else:
            G = K
        return G, K

    def identity(self, item):
        return tuple(_canon(g) for g in item)

    def entry(self, item):
        G, K = item
        return {"key": entry_key(self.name, G, K), "G": G, "K": K}

    def prepare(self, rng, entries, workdir):
        jobs = []
        for entry in entries:
            copies = []
            for _ in range(2):
                G, ge, gv = gen.relabel_graph(rng, entry["G"])
                K, ke, kv = gen.relabel_graph(rng, entry["K"])
                copies.append((G, K, (_invert(ge), _invert(gv)), (_invert(ke), _invert(kv))))
            jobs.append({"key": entry["key"], "copies": copies})
        return jobs

    def run(self, job):
        problems = []
        (G, K, gn, kn), (G2, K2, gn2, kn2) = job["copies"]
        maps = hom_set(G, K)
        for f in maps:
            act, ine = factorize_G(f)
            if compose_graphical(act, ine) != f:
                problems.append("factorize_G does not recompose")
        canon = (canonical_form(G)[0], canonical_form(K)[0])
        if (canonical_form(G2)[0], canonical_form(K2)[0]) != canon:
            problems.append("canonical_form changes under relabelling")
        maps2 = hom_set(G2, K2)
        if len(maps2) != len(maps):
            problems.append(f"hom count {len(maps)} changes to {len(maps2)} under relabelling")
        return (maps, maps2, canon), problems

    def encode(self, job, answer):
        maps, maps2, canon = answer
        (_, _, gn, kn), (_, _, gn2, kn2) = job["copies"]
        first = tuple(sorted(encode_graphical(f, gn, kn) for f in maps))
        second = tuple(sorted(encode_graphical(f, gn2, kn2) for f in maps2))
        return (first, first == second, repr(canon))


# ---------------------------------------------------------------------------
# operad_laws


class OperadLaws(Workload):
    """all_operations, unit laws, sigma round trip, stabilizers, a lift."""

    name = "operad_laws"
    strata = {"two-vertex": 32, "three-vertex": 96, "four-vertex": 32}
    catalogue_offset = 2
    vertices = {"two-vertex": 2, "three-vertex": 3, "four-vertex": 4}
    max_stubs = 8

    def draft(self, rng, stratum):
        return gen.random_shape(rng, self.vertices[stratum], 2, self.max_stubs)

    def identity(self, shape):
        return shape

    def entry(self, shape):
        return {"key": entry_key(self.name, shape), "shape": shape}

    def prepare(self, rng, entries, workdir):
        jobs = []
        for entry in entries:
            shape = entry["shape"]
            perm = list(range(len(shape)))
            rng.shuffle(perm)
            jobs.append({"key": entry["key"], "shape": shape, "perm": tuple(perm),
                         "lift_seed": rng.randrange(1 << 30)})
        return jobs

    def _lift_check(self, op, rng):
        """One cartesian lift of an active arrow into ``op``'s graph.

        One seeded vertex gets a two-vertex operation and the others get
        identities, so the lift's size, and its cost, is the same for
        every seed.
        """
        g = op.graph
        profile = theta_object(g)
        chosen = rng.randrange(len(profile))
        family = []
        for a, (m, n) in enumerate(profile):
            pool = []
            if a == chosen:
                pool = [x for x in all_operations([(m, 1), (1, n)]) if x.biarity() == (m, n)]
            family.append(pool[rng.randrange(len(pool))] if pool else identity_operation(m, n))
        alpha = [a for a, x in enumerate(family) for _ in range(x.size)]
        source = tuple(x.graph.vertices[z].biarity() for x in family for z in range(x.size))
        arrow = OperadArrow(source, profile, tuple(alpha), tuple(family))
        return theta(cartesian_lift_active(g, arrow)) == arrow

    def run(self, job):
        problems = []
        ops = all_operations(job["shape"])
        perm = job["perm"]
        inv = tuple(perm.index(z) for z in range(len(perm)))
        flags, stabs = [], []
        for op in ops:
            units = {
                z: identity_operation(*op.graph.vertices[z].biarity())
                for z in range(op.size)
            }
            if prpd_compose(op, units) != op:
                problems.append("right unit law fails")
            if prpd_compose(identity_operation(*op.biarity()), {0: op}) != op:
                problems.append("left unit law fails")
            in_perm = tuple(reversed(range(len(op.in_order))))
            acted = sigma_action(op, perm, in_perm, None)
            if sigma_action(acted, inv, in_perm, None) != op:
                problems.append("sigma_action inverse does not restore the operation")
            flags.append(tuple(sorted(suboperad_member(op).items())))
            if len(set(op.vertex_biarities())) < op.size:
                stabs.append(stabilizer(op))
        if ops and not self._lift_check(ops[job["lift_seed"] % len(ops)],
                                        random.Random(job["lift_seed"])):
            problems.append("theta of the cartesian lift is not the arrow")
        return (ops, flags, stabs), problems

    def encode(self, job, answer):
        ops, flags, stabs = answer
        return (tuple(repr(op) for op in ops), tuple(flags), tuple(stabs))


# ---------------------------------------------------------------------------
# level_maps


def _level_data(graphs):
    """Edge and vertex layers of level graphs (their repr omits vertices)."""
    return tuple((lg.edge_layers, lg.vertex_layers) for lg in graphs)


class LevelMaps(Workload):
    """hom_level, factorize_L, vertex_map_L, tau; segmentation checks."""

    name = "level_maps"
    strata = {"short": 96, "tall": 32}
    catalogue_offset = 3

    def draft(self, rng, stratum):
        if stratum == "short":
            heights = (1, 2)
        else:
            heights = (2, rng.randint(2, 3))
        A = gen.random_level_graph(rng, heights[0], connected=rng.random() < 0.8)
        B = gen.random_level_graph(rng, heights[1], connected=True)
        return A, B

    def identity(self, graphs):
        return _level_data(graphs)

    def entry(self, graphs):
        return {"key": entry_key(self.name, _level_data(graphs)), "graphs": graphs}

    def prepare(self, rng, entries, workdir):
        jobs = []
        for entry in entries:
            graphs, emap, vmap = gen.relabel_level_graphs(rng, entry["graphs"])
            names = (_invert(emap), _invert(vmap))
            jobs.append({"key": entry["key"], "graphs": graphs, "names": names})
        return jobs

    def run(self, job):
        problems = []
        graphs = job["graphs"]
        homs = {}
        for a, b in itertools.product(range(len(graphs)), repeat=2):
            A, B = graphs[a], graphs[b]
            maps = hom_level(A, B)
            both = is_connected_level(A) and is_connected_level(B)
            entries = []
            for f in maps:
                act, ine = factorize_L(f)
                if compose_level(act, ine) != f:
                    problems.append("factorize_L does not recompose")
                vm = vertex_map_L(f)
                entries.append((f, vm, tau(f) if both else None))
            homs[(a, b)] = entries
        lc = build_level_corpus(graphs)
        flags = []
        full, short_seg = segmentation_check(nerve_level(terminal_properad(("*",)), lc))
        if not (full and short_seg):
            problems.append(f"terminal nerve flags {(full, short_seg)}, expected Segal")
        flags.append((full, short_seg))
        # the representable on the shorter graph; a tall one costs seconds
        flag_pair = segmentation_check(
            representable_level_presheaf(lc, lc.object_index(graphs[0]))
        )
        if flag_pair[0] != flag_pair[1]:
            problems.append(f"segmentation_check flags disagree: {flag_pair}")
        flags.append(flag_pair)
        return (homs, len(lc), tuple(flags)), problems

    def encode(self, job, answer):
        homs, corpus_size, flags = answer
        graphs, names = job["graphs"], job["names"]
        en, vn = names
        out = []
        for (a, b), entries in sorted(homs.items()):
            sf = special_extension(graphs[b])
            rows = []
            for f, vm, t in entries:
                emaps = tuple(
                    tuple(sorted((en[e], en[y]) for e, y in layer)) for layer in f.eta_e
                )
                vmaps = []
                for i, layer in enumerate(f.eta_v):
                    pair = (f.alpha[i], f.alpha[i + 1])
                    vmaps.append(tuple(sorted(
                        (vn[v], tuple(sorted(
                            (kind, k, en[x] if kind == "e" else vn[x])
                            for kind, k, x in sf.members(pair, rep)
                        )))
                        for v, rep in layer
                    )))
                vertex_pairs = tuple(sorted(
                    (vn[x], vn[y] if y is not None else None) for x, y in vm.pairs
                ))
                tau_code = encode_graphical(t, names, names) if t is not None else None
                rows.append((f.alpha, emaps, tuple(vmaps), vertex_pairs, tau_code))
            out.append(((a, b), tuple(sorted(rows, key=repr))))
        return (tuple(out), corpus_size, flags)


WORKLOADS = {w.name: w for w in (NerveRoundtrip(), HomEnum(), OperadLaws(), LevelMaps())}
