"""Spans for the benchmark's traced run, recorded from outside the program.

A span is one call across a layer boundary of loudclass. It holds a name
``<layer>.<boundary>``, start and end on ``time.perf_counter``, the id of
the span that was open when it began, the run id shared by every span of
one benchmark run, and a few attributes (classifier variant, rows scored,
optimizer result). Spans are kept in memory; the caller writes them out
when the run ends.

``instrument`` swaps the module or class attribute that a caller looks up
(``loudclass.harness.fit``, ``loudclass.classifiers.linear.minimize_lbfgs``,
``OvrModel.predict_proba``, ...) for a recording wrapper and puts the
original back on exit, so no file of the program changes. A call that
re-enters the boundary of the innermost open span (``predict`` calling
``predict_proba``) is not recorded twice.

The layers are the package's modules. ``pca`` and CSV ``preprocess`` are
left out: they take milliseconds at benchmark size and no open item
targets them.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = (
    "cli", "pipeline", "bisgaard", "loudness", "harness",
    "classifiers", "optimize", "metrics", "explain", "reporting",
)
VARIANTS = ("dt", "gb", "knn", "lr", "nn", "rf", "svm")


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_jsonable(self) -> dict:
        return {
            "id": self.span_id, "parent": self.parent_id, "name": self.name,
            "start": self.start, "end": self.end, "run": self.run_id,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects the spans of one run in memory."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[tuple[int, str]] = []
        self._next_id = 0
        self._clock = clock

    def wrap(self, name: str, fn, describe=None, summarize=None):
        """``fn`` recording a span per call; ``describe(*args)`` gives the
        span's attributes, ``summarize(result)`` adds more after it ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open and self._open[-1][1] == name:
                return fn(*args, **kwargs)
            attrs = describe(*args, **kwargs) if describe else {}
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1][0] if self._open else None
            self._open.append((span_id, name))
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._clock()
                self._open.pop()
                self.spans.append(
                    Span(span_id, parent, name, start, end, self.run_id, attrs)
                )
            if summarize:
                attrs.update(summarize(result))
            return result

        return traced


def _fit_attrs(spec, X, *args, **kwargs) -> dict:
    return {"variant": spec.variant, "rows": len(X)}


def _fit_summary(model) -> dict:
    if model.variant != "svm":
        return {}
    return {"support_vectors": sum(len(m.sv_X_) for m in model.submodels)}


def _predict_attrs(model, X, *args, **kwargs) -> dict:
    return {"variant": model.variant, "rows": len(X)}


def _lbfgs_summary(result) -> dict:
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _boundaries():
    """(span name, [(owner, attribute)], describe, summarize) per boundary."""
    from loudclass import cli, explain, harness, pipeline
    from loudclass.classifiers import linear, neighbors, neural, ovr

    metric_fns = (
        "balanced_accuracy", "confusion", "f1_per_class", "micro_average_ovr",
        "paired_t_test", "pr_curve", "roc_curve", "weighted_f1",
    )
    writers = (
        "write_report", "write_sweep", "write_beeswarm_csv",
        "write_importance_csv", "dump_json", "write_manifest",
    )
    return [
        ("pipeline.generate", [(cli, "generate_synthetic_full")], None, None),
        ("pipeline.io", [(cli, "load_labeled_json"), (cli, "write_labeled_json"),
                         (harness, "load_labeled_json")], None, None),
        ("pipeline.feature_matrix", [(cli, "feature_matrix"),
                                     (harness, "feature_matrix")], None, None),
        ("pipeline.roving", [(cli, "apply_roving"), (harness, "apply_roving")],
         None, None),
        ("bisgaard.classify", [(pipeline, "classify")], None, None),
        ("loudness.derive", [(pipeline, "derive_features")], None, None),
        ("harness.run_experiment", [(cli, "run_experiment"),
                                    (harness, "run_experiment")], None, None),
        ("harness.roving_sweep", [(cli, "roving_sweep")], None, None),
        ("harness.fold_plan", [(cli, "kfold_split"), (harness, "make_fold_plans")],
         None, None),
        ("classifiers.fit", [(cli, "fit"), (harness, "fit")], _fit_attrs, _fit_summary),
        ("classifiers.predict", [(ovr.TrainedModel, "predict"),
                                 (ovr.OvrModel, "predict_proba"),
                                 (neighbors.KnnModel, "predict"),
                                 (neighbors.KnnModel, "predict_proba")],
         _predict_attrs, None),
        ("optimize.lbfgs", [(linear, "minimize_lbfgs"), (neural, "minimize_lbfgs")],
         None, _lbfgs_summary),
        ("metrics.score", [(harness, n) for n in metric_fns]
         + [(explain, "accuracy"), (explain, "balanced_accuracy")], None, None),
        ("explain.shapley", [(cli, "explain_model")], None, None),
        ("explain.permutation", [(cli, "importance_report"),
                                 (harness, "importance_report")], None, None),
        ("reporting.write", [(cli, n) for n in writers], None, None),
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Record spans at every layer boundary while the block runs."""
    originals = []
    try:
        for name, sites, describe, summarize in _boundaries():
            for owner, attr in sites:
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(name, original, describe, summarize))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = s.duration - covered
    return out


def subtree(spans, root_id: int) -> list[Span]:
    """The span ``root_id`` and every span below it."""
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent_id].append(s)
    by_id = {s.span_id: s for s in spans}
    out, todo = [], [by_id[root_id]]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids[s.span_id])
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer times and counts of one traced run.

    ``*_self_s`` and ``<layer>.self_s`` are self times; the other ``*_s``
    are whole span durations (a fit includes its optimizer calls).
    """
    own = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def total(name):
        return sum(s.duration for s in named[name])

    def self_of(name):
        return sum(own[s.span_id] for s in named[name])

    def layer_self(layer):
        return sum(own[s.span_id] for s in spans if s.layer == layer)

    def parent_name(s):
        return by_id[s.parent_id].name if s.parent_id in by_id else None

    m: dict[str, float] = {}
    for v in VARIANTS:
        fits = [s for s in named["classifiers.fit"] if s.attrs["variant"] == v]
        preds = [s for s in named["classifiers.predict"] if s.attrs["variant"] == v]
        m[f"classifiers.fit_s.{v}"] = sum(s.duration for s in fits)
        m[f"classifiers.fit_calls.{v}"] = len(fits)
        m[f"classifiers.predict_s.{v}"] = sum(s.duration for s in preds)
        m[f"classifiers.predict_rows.{v}"] = sum(s.attrs["rows"] for s in preds)
    m["classifiers.svm.support_vectors"] = sum(
        s.attrs.get("support_vectors", 0) for s in named["classifiers.fit"]
    )
    m["classifiers.self_s"] = layer_self("classifiers")

    lbfgs = named["optimize.lbfgs"]
    m["optimize.lbfgs_s"] = total("optimize.lbfgs")
    m["optimize.lbfgs_calls"] = len(lbfgs)
    m["optimize.lbfgs_iterations"] = sum(s.attrs["iterations"] for s in lbfgs)
    # No calls, no ratio: reported as 0 rather than undefined.
    m["optimize.lbfgs_converged_ratio"] = (
        sum(s.attrs["converged"] for s in lbfgs) / len(lbfgs) if lbfgs else 0.0
    )

    m["explain.shapley_self_s"] = self_of("explain.shapley")
    m["explain.coalition_rows"] = sum(
        s.attrs["rows"] for s in named["classifiers.predict"]
        if parent_name(s) == "explain.shapley"
    )
    m["explain.permutation_self_s"] = self_of("explain.permutation")
    m["explain.permutation_predicts"] = sum(
        1 for s in named["classifiers.predict"]
        if parent_name(s) == "explain.permutation"
    )

    m["metrics.s"] = total("metrics.score")
    m["metrics.calls"] = len(named["metrics.score"])
    m["harness.self_s"] = layer_self("harness")
    m["harness.fold_plan_s"] = total("harness.fold_plan")

    m["pipeline.self_s"] = layer_self("pipeline")
    m["pipeline.generate_s"] = total("pipeline.generate")
    m["pipeline.io_s"] = total("pipeline.io")
    m["pipeline.feature_matrix_s"] = total("pipeline.feature_matrix")
    m["pipeline.roving_s"] = total("pipeline.roving")
    m["pipeline.roving_calls"] = len(named["pipeline.roving"])
    m["bisgaard.classify_s"] = total("bisgaard.classify")
    m["bisgaard.classify_calls"] = len(named["bisgaard.classify"])
    m["loudness.derive_s"] = total("loudness.derive")
    m["loudness.derive_calls"] = len(named["loudness.derive"])

    m["reporting.write_s"] = total("reporting.write")
    m["cli.self_s"] = layer_self("cli")
    return m
