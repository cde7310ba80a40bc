"""Tests of the benchmark's span arithmetic and metric names.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import re
import sys
from pathlib import Path

import pytest

import spans
from spans import Span, Tracer, layer_metrics, self_times, subtree

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# Metrics that run.py adds to layer_metrics from the run as a whole.
RUN_LEVEL = {"reporting.bytes_written", "trace.wall_s", "trace.overhead_s", "trace.coverage"}


def _span(i, parent, name, start, end, **attrs):
    return Span(i, parent, name, start, end, "run", attrs)


def hand_built_tree():
    """cli.main [0, 10] with a fit [1, 6] (optimizer [2, 5] inside), a
    predict [6, 7] and two metrics spans that overlap each other [7, 9],
    [8, 9.5]; nothing covers [0, 1] or [9.5, 10]."""
    return [
        _span(2, 1, "optimize.lbfgs", 2.0, 5.0, iterations=7, converged=True),
        _span(1, 0, "classifiers.fit", 1.0, 6.0, variant="lr", rows=600),
        _span(3, 0, "classifiers.predict", 6.0, 7.0, variant="lr", rows=300),
        _span(4, 0, "metrics.score", 7.0, 9.0),
        _span(5, 0, "metrics.score", 8.0, 9.5),
        _span(0, None, "cli.main", 0.0, 10.0),
    ]


def test_self_time_subtracts_the_union_of_children():
    own = self_times(hand_built_tree())
    assert own[2] == pytest.approx(3.0)
    assert own[1] == pytest.approx(5.0 - 3.0)
    assert own[3] == pytest.approx(1.0)
    # Children cover [1, 9.5] once, although the metrics spans overlap.
    assert own[0] == pytest.approx(10.0 - 8.5)


def test_self_times_of_a_tree_sum_to_its_root():
    tree = [s for s in hand_built_tree() if s.span_id != 5]
    own = self_times(tree)
    assert sum(own[s.span_id] for s in subtree(tree, 0)) == pytest.approx(10.0)


def test_layer_metrics_on_a_hand_built_tree():
    m = layer_metrics(hand_built_tree())
    assert m["classifiers.fit_s.lr"] == pytest.approx(5.0)
    assert m["classifiers.fit_calls.lr"] == 1
    assert m["classifiers.predict_rows.lr"] == 300
    assert m["classifiers.self_s"] == pytest.approx(2.0 + 1.0)
    assert m["optimize.lbfgs_s"] == pytest.approx(3.0)
    assert m["optimize.lbfgs_iterations"] == 7
    assert m["optimize.lbfgs_converged_ratio"] == 1.0
    assert m["metrics.s"] == pytest.approx(3.5)
    assert m["metrics.calls"] == 2
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["classifiers.fit_s.svm"] == 0


def test_tracer_records_parents_and_collapses_reentry():
    ticks = iter(range(100))
    tracer = Tracer("r1", clock=lambda: float(next(ticks)))

    def proba(x):
        return x

    proba = tracer.wrap("classifiers.predict", proba)

    def predict(x):
        return proba(x)

    predict = tracer.wrap("classifiers.predict", predict)
    root = tracer.wrap("cli.main", lambda x: predict(x) + predict(x))
    assert root(1) == 2
    names = [(s.name, s.parent_id) for s in tracer.spans]
    assert names == [("classifiers.predict", 0), ("classifiers.predict", 0),
                     ("cli.main", None)]
    assert {s.run_id for s in tracer.spans} == {"r1"}


def test_failed_call_still_closes_its_span():
    tracer = Tracer("r")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("cli.main", boom)()
    assert [s.name for s in tracer.spans] == ["cli.main"]
    assert tracer._open == []


def test_every_boundary_belongs_to_a_layer_and_instrument_restores():
    sys.path.insert(0, str(ROOT / "src"))
    from loudclass import harness

    original = harness.fit
    boundaries = spans._boundaries()
    assert {name.split(".")[0] for name, *_ in boundaries} <= set(spans.LAYERS)
    with spans.instrument(Tracer("r")):
        assert harness.fit is not original
    assert harness.fit is original


def test_reported_names_match_benchmark_json_and_charset():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    reported = set(layer_metrics(hand_built_tree())) | RUN_LEVEL
    assert reported == per_layer
    names = per_layer | {m["name"] for m in spec["end_to_end"]} | {
        w["name"] for w in spec["workloads"]
    }
    for name in names:
        assert NAME.fullmatch(name), name
