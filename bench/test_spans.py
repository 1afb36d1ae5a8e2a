"""Tests of the benchmark's tracer.  Run with: python3 -m pytest bench/test_spans.py"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import spans  # noqa: E402


def _span(name, start, end, parent=None):
    return spans.Span(name, start * 1000, end * 1000, parent)


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) holds a [10, 50) and b [60, 90); a holds c [20, 30)
    root = _span("root", 0, 100)
    a = _span("a", 10, 50, root)
    c = _span("c", 20, 30, a)
    b = _span("b", 60, 90, root)
    later = _span("root", 200, 210)
    stats = spans.summarize([root, a, c, b, later])
    fn = stats["functions"]
    assert fn["root"]["calls"] == 2
    assert fn["root"]["self_s"] == pytest.approx((100 - 40 - 30 + 10) * 1e-6)
    assert fn["root"]["total_s"] == pytest.approx(110e-6)
    assert fn["a"]["self_s"] == pytest.approx(30e-6)
    assert fn["c"]["self_s"] == pytest.approx(10e-6)
    assert fn["b"]["self_s"] == pytest.approx(30e-6)
    # self times of all spans add up to the time the root spans cover
    assert sum(r["self_s"] for r in fn.values()) == pytest.approx(stats["covered_s"])
    assert stats["covered_s"] == pytest.approx(110e-6)
    assert fn["root"]["p50_us"] == pytest.approx(55.0)
    assert fn["root"]["p90_us"] == pytest.approx(91.0)


def test_install_wraps_every_binding_nests_calls_and_reports_missing(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def inner(x):
        return x + 1

    def outer(x):
        return core.inner(x) * 2

    core.inner, core.outer = inner, outer
    user.outer = outer  # a second binding, as "from .core import outer" makes
    pkg.core, pkg.user = core, user
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)

    tracer = spans.Tracer()
    counted = {"core.outer": lambda args, kwargs, result: {"out": result}, "core.inner": None, "core.gone": None}
    missing, uninstall = spans.install(tracer, counted, package="fakepkg")
    assert missing == ["core.gone"]
    assert user.outer(1) == 4
    uninstall()
    assert core.inner is inner and core.outer is outer and user.outer is outer
    assert user.outer(1) == 4  # untraced after uninstall

    names = [(s.name, s.parent.name if s.parent else None) for s in tracer.spans]
    assert names == [("core.outer", None), ("core.inner", "core.outer")]
    fn = spans.summarize(tracer.spans)["functions"]
    assert fn["core.outer"]["out"] == 4
    assert fn["core.outer"]["self_s"] <= fn["core.outer"]["total_s"]


def test_missing_function_reports_minus_one_not_zero():
    metrics = layers.per_layer_metrics({}, 1, ["energy.gradient"])
    assert metrics["energy.gradient.calls"][0] == -1
    assert metrics["energy.total_energy.calls"][0] == 0


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == layers.metric_names()
    produced = set(layers.per_layer_metrics({}, 1, []))
    assert produced | {n for n, _ in listed if n.startswith("trace.")} == {n for n, _ in listed}
