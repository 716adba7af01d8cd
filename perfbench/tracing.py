"""Spans around the public functions of each graphcat module.

``Tracer.install`` replaces each listed function object in every module
namespace that holds it (``segal`` imports ``hom_set`` and friends by
name, ``properad`` imports ``validate`` as ``validate_graph``), and
patches the listed methods on their classes.  ``Tracer.remove`` puts
every original back.  Spans are (name, start, end, parent) in process
CPU seconds; they stay in memory until ``write_spans``.  A span's self
time is its duration minus the durations of its wrapped child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

WRAPPED = {
    "digraph": ["validate", "canonical_form", "structured_subgraphs",
                "is_convex_open", "multi_substitute", "substitute"],
    "graphical": ["hom_set", "iso_set", "validate_graphical",
                  "compose_graphical", "factorize_G"],
    "level": ["hom_level", "validate_level_morphism", "compose_level",
              "factorize_L", "special_extension", "tau"],
    "properad": ["all_operations", "zgraph", "prpd_compose", "sigma_action",
                 "stabilizer", "cartesian_lift_active", "theta",
                 "EndProperad.evaluate"],
    "segal": ["build_corpus", "nerve", "is_segal", "segal_limit", "segal_map",
              "extract_properad", "ExtractedProperad.evaluate",
              "build_level_corpus", "nerve_level", "segmentation_check"],
    "cli": ["main"],
}

# (ratio name, span name, how a call's outcome counts): the ratio is
# outcome total / call count
RATIOS = [
    ("graphical.iso_set.hit_ratio", "graphical.iso_set", lambda r: 1 if r else 0),
    ("graphical.validate_graphical.accept_ratio", "graphical.validate_graphical",
     lambda r: 1 if r is None else 0),
    ("graphical.hom_set.maps_per_call", "graphical.hom_set", len),
    ("level.validate_level_morphism.accept_ratio", "level.validate_level_morphism",
     lambda r: 1 if r is None else 0),
    ("level.hom_level.maps_per_call", "level.hom_level", len),
]
KEPT_RATIO = "segal.segal_limit.kept_ratio"
DIAGNOSTICS = ["run.wall_s", "run.cpu_share", "trace.overhead_ratio"]


def span_names():
    return [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]


def metric_names():
    """Every per-layer metric name, in a fixed order."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s"]
    names += [f"{mod}.self_s" for mod in WRAPPED]
    names += [name for name, _, _ in RATIOS] + [KEPT_RATIO]
    return names + DIAGNOSTICS


class Tracer:
    def __init__(self, namespaces=()):
        self.extra_namespaces = list(namespaces)
        # (name, start, end, parent span index or -1, wrapped child seconds)
        self.spans = []
        self.stack = []  # [span index, start, child seconds]
        self.outcomes = {span: 0 for _, span, _ in RATIOS}
        self.kept = 0
        self.tried = 0
        self._patches = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, outcome=None, after=None):
        clock, spans, stack = time.process_time, self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1] if stack else None
                spans[index] = (name, frame[1], end, parent[0] if parent else -1,
                                frame[2])
                if parent is not None:
                    parent[2] += end - frame[1]
            if outcome is not None:
                self.outcomes[name] += outcome(result)
            if after is not None:
                # bookkeeping outside the span, charged to no layer
                start = clock()
                after(args, result)
                if parent is not None:
                    parent[2] += clock() - start
            return result

        return wrapper

    def _segal_limit_outcome(self, args, result):
        from graphcat.segal import elementary_cover

        F, gi = args[0], args[1]
        cover = elementary_cover(F.corpus, gi)
        tried = math.prod(len(F.value(ci)) for _, ci, _ in cover.vertex_entries)
        if not cover.vertex_entries:
            tried = len(F.value(F.corpus.edge_index))
        self.tried += tried
        self.kept += len(result)

    # -- install / remove ----------------------------------------------------

    def _namespaces(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "graphcat" or name.startswith("graphcat.")]
        return mods + self.extra_namespaces

    def install(self):
        outcome_of = {span: how for _, span, how in RATIOS}
        namespaces = self._namespaces()
        for mod_name, fns in WRAPPED.items():
            mod = importlib.import_module(f"graphcat.{mod_name}")
            for fn_name in fns:
                span = f"{mod_name}.{fn_name}"
                after = self._segal_limit_outcome if span == "segal.segal_limit" else None
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(span, original, outcome_of.get(span), after))
                    self._patches.append((cls, meth, original))
                    continue
                original = getattr(mod, fn_name)
                wrapper = self._wrap(span, original, outcome_of.get(span), after)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per-layer calls, self seconds and outcome ratios of this pass."""
        calls = {name: 0 for name in span_names()}
        self_s = {name: 0.0 for name in span_names()}
        for name, start, end, _, child in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for mod, fns in WRAPPED.items():
            out[f"{mod}.self_s"] = sum(self_s[f"{mod}.{fn}"] for fn in fns)
        for ratio, span, _ in RATIOS:
            out[ratio] = self.outcomes[span] / calls[span] if calls[span] else 0.0
        out[KEPT_RATIO] = self.kept / self.tried if self.tried else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"],
                 "spans": [s[:4] for s in self.spans]},
                fh,
            )
