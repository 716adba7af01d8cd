"""Level Segal tables, composite keys and factorization middles, pinned.

``level_tables.json`` holds one sha256 digest per input: the corpus
objects, the values and every restriction table of its nerves and
representables, and both ``segmentation_check`` flags of each presheaf,
exceptions included.  The digests were computed before covers, nerve
plans, composite keys and middle objects were read from kept tables
(DECISIONS.md D19), so they pin the answers of the code that built
everything afresh.  Regenerate them only for a deliberate change of
answers:

    PYTHONPATH=src python tests/test_level_tables.py > tests/level_tables.json
"""

import hashlib
import itertools
import json
import pathlib
import random
import sys

import pytest

from graphcat.errors import GraphcatError
from graphcat.level import (
    LevelMorphism,
    SpecialFunctor,
    compose_level,
    elementary_edge,
    factorize_L,
    hom_level,
    identity_level,
    level_graph,
    special_extension,
)
from graphcat.properad import end_properad, terminal_properad
from graphcat.segal import (
    LEVEL,
    build_level_corpus,
    nerve,
    representable_presheaf,
    segmentation_check,
)

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from test_graphical_oracle import _benchmark_gen  # noqa: E402
from test_level_oracle import GRAPHS  # noqa: E402
from test_segal import (  # noqa: E402
    branching_level,
    criterion_9_level_corpus,
    g3_corpus,
    level_corpus,
    pair_corpus,
)

DIGESTS = HERE / "level_tables.json"
DRAFTS = 40


def draft_pairs():
    """Graph pairs drawn like the ``level_maps`` benchmark's, one seeded
    ``random.Random`` per pair, so that no library upgrade changes them."""
    gen = _benchmark_gen()
    for k in range(DRAFTS):
        rng = random.Random(2600 + k)
        heights = (1, 2) if k % 4 else (2, rng.randint(2, 3))
        yield f"draft-{k:02d}", [
            gen.random_level_graph(rng, heights[0], connected=rng.random() < 0.8),
            gen.random_level_graph(rng, heights[1], connected=True),
        ]


def twisted(outs):
    """u: a -> outs, w: b, c -> d; two orders of u's outputs give two graphs
    with equal edge and vertex names and different incidences."""
    return level_graph([["a"], ["b", "c"], ["d"]], [[("u", ["a"], outs)], [("w", ["b", "c"], ["d"])]])


def inputs():
    """(key, corpus builder, properads of its nerves, representable objects)."""
    both = (terminal_properad(), end_properad({"c": 1, "d": 1}))
    yield ("criterion-9", criterion_9_level_corpus,
           both + (end_properad({"c": 2}),), None)
    yield ("twisted", lambda: build_level_corpus([twisted(["b", "c"]), twisted(["c", "b"])]),
           both + (end_properad({"c": 2}),), None)
    yield "oracle", lambda: build_level_corpus([g for _, g in GRAPHS]), both, None
    for key, graphs in draft_pairs():
        yield (key, lambda graphs=graphs: build_level_corpus(graphs),
               (terminal_properad(),), graphs)


def _outcome(call):
    try:
        return call()
    except GraphcatError as exc:
        return ("raised", type(exc).__name__, str(exc))


def _presheaf_record(make):
    """A presheaf's values and tables, read by position, and the flags of
    ``segmentation_check`` on a fresh copy, which reads by morphism."""
    F = make()
    values = tuple(
        tuple(x.sort_key() if hasattr(x, "sort_key") else x for x in vals)
        for vals in F.values
    )
    return values, tuple(F.restrictions.items()), _outcome(lambda: segmentation_check(make()))


def record(build, properads, generators):
    corpus = build()
    objects = tuple((lg.edge_layers, lg.vertex_layers) for lg in corpus.objects)
    presheaves = [
        (repr(P.colors), _outcome(lambda P=P: _presheaf_record(lambda: nerve(P, build()))))
        for P in properads
    ]
    targets = (
        range(len(corpus)) if generators is None
        else [corpus.object_index(g) for g in generators]
    )
    presheaves += [
        (x, _outcome(lambda x=x: _presheaf_record(lambda: representable_presheaf(build(), x))))
        for x in targets
    ]
    return objects, presheaves


def digest(rec):
    return hashlib.sha256(repr(rec).encode()).hexdigest()


def compute_digests():
    return {key: digest(record(*rest)) for key, *rest in inputs()}


def test_level_tables_match_the_pinned_digests():
    pinned = json.loads(DIGESTS.read_text())
    got = compute_digests()
    assert got.keys() == pinned.keys()
    for key, value in pinned.items():
        assert got[key] == value, key


# ---------------------------------------------------------------------------
# composite keys


def composable_triples(corpus):
    C = corpus()
    objects = range(len(C))
    for i, j, l in itertools.product(objects, repeat=3):
        for f in C.hom(i, j):
            for g in C.hom(j, l):
                yield C, f, g


@pytest.mark.parametrize("corpus", [
    g3_corpus, pair_corpus, criterion_9_level_corpus, level_corpus,
], ids=["g3", "pair", "criterion-9-level", "level"])
def test_composite_key_is_the_key_of_the_composite(corpus):
    pairs = 0
    for C, f, g in composable_triples(corpus):
        cat = C.category
        assert cat.composite_key(f, g) == cat.compose(f, g).sort_key()
        pairs += 1
    assert pairs > 100


def _raised(call):
    with pytest.raises(GraphcatError) as info:
        call()
    return type(info.value), str(info.value)


def test_composite_key_raises_like_compose_level():
    lg = branching_level()
    g = identity_level(lg)
    # not composable
    f = identity_level(elementary_edge())
    expected = _raised(lambda: compose_level(f, g))
    assert expected == (GraphcatError, "morphisms are not composable")
    assert _raised(lambda: LEVEL.composite_key(f, g)) == expected
    # not natural: a vertex sent to another class of its layer
    k = next(k for k in range(lg.height) if len(special_extension(lg).elements((k, k + 1))) > 1)
    (v, rep), *rest = g.eta_v[k]
    other = next(c for c in special_extension(lg).elements((k, k + 1)) if c != rep)
    bent = LevelMorphism(
        lg, lg, g.alpha, g.eta_e, g.eta_v[:k] + (((v, other), *rest),) + g.eta_v[k + 1:],
    )
    expected = _raised(lambda: compose_level(g, bent))
    assert expected[0] is GraphcatError and "is not natural at" in expected[1]
    assert _raised(lambda: LEVEL.composite_key(g, bent)) == expected


# ---------------------------------------------------------------------------
# middle objects of factorizations


def test_middle_classes_are_the_target_classes_shifted():
    factorized = 0
    for (_, G), (_, H) in itertools.product(GRAPHS, repeat=2):
        for f in hom_level(G, H):
            active, inert = factorize_L(f)
            middle = active.target
            kept = special_extension(middle)
            fresh = SpecialFunctor(middle)
            for i in range(middle.height + 1):
                for j in range(i, middle.height + 1):
                    assert list(kept.reps((i, j)).items()) == list(fresh.reps((i, j)).items())
            assert compose_level(active, inert) == f
            factorized += 1
    assert factorized > 100


if __name__ == "__main__":
    print(json.dumps(compute_digests(), indent=1, sort_keys=True))
