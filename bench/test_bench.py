"""Tests of the benchmark's own parts.

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layers  # noqa: E402
import spans  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Target, Tracer, traced  # noqa: E402

import framedynamo.differentiation as differentiation  # noqa: E402
import framedynamo.frame_calculus as frame_calculus  # noqa: E402


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_excludes_child_spans():
    # parent [0, 10] holds child a [1, 3] and child b [4, 8]; b holds c [5, 6]
    tr = Tracer(clock=scripted_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    leaf = lambda: None

    def b():
        tr.call("c", leaf, (), {})

    def parent():
        tr.call("a", leaf, (), {})
        tr.call("b", b, (), {})

    tr.call("parent", parent, (), {})
    st = tr.stats
    assert st["parent"]["total_s"] == 10 and st["parent"]["self_s"] == 4
    assert st["b"]["total_s"] == 4 and st["b"]["self_s"] == 3
    assert st["a"]["self_s"] == 2 and st["c"]["self_s"] == 1
    by_name = {name: (sid, parent) for sid, parent, name, _, _ in tr.spans}
    assert by_name["parent"][1] == -1
    assert by_name["a"][1] == by_name["b"][1] == by_name["parent"][0]
    assert by_name["c"][1] == by_name["b"][0]


def test_self_time_sums_repeated_calls_and_survives_exceptions():
    tr = Tracer(clock=scripted_clock([0, 2, 10, 13]))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.call("f", boom, (), {})
    tr.call("f", lambda: None, (), {})
    assert tr.stats["f"]["calls"] == 2
    assert tr.stats["f"]["self_s"] == 5
    assert tr._stack == []


def test_traced_patches_every_binding_and_restores():
    orig_spec = differentiation.spectral_derivative
    orig_dz = vars(frame_calculus.FrameOperators)["dz"]
    assert frame_calculus.spectral_derivative is orig_spec
    tr = Tracer()
    targets = [
        Target("framedynamo.differentiation:spectral_derivative", "spec"),
        Target("framedynamo.frame_calculus:FrameOperators.dz", "dz",
               layers._matmul_cost),
        Target("framedynamo.nowhere:gone", "gone"),
    ]
    metric = frame_calculus.FrameMetric(1.0)
    grid = metric.grid(4, 4, 16, z_periodic=True)
    f = np.random.default_rng(0).normal(size=grid.shape)
    with pytest.raises(RuntimeError):
        with traced(tr, targets) as missing:
            assert missing == ["framedynamo.nowhere:gone"]
            assert differentiation.spectral_derivative is not orig_spec
            assert frame_calculus.spectral_derivative is not orig_spec
            op = frame_calculus.FrameOperators(metric, grid)
            op.dp(f)                                   # frame_calculus binding
            differentiation.spectral_derivative(f, 1)  # differentiation binding
            op.dz(f)
            raise RuntimeError("leave the block early")
    assert differentiation.spectral_derivative is orig_spec
    assert frame_calculus.spectral_derivative is orig_spec
    assert vars(frame_calculus.FrameOperators)["dz"] is orig_dz
    assert tr.stats["spec"]["calls"] == 2
    assert tr.stats["dz"]["calls"] == 1
    assert tr.stats["dz"]["flop"] == 2.0 * f.size * grid.n_z


def test_every_layer_target_resolves():
    # a renamed or removed target fails the traced run; catch it here first
    import framedynamo.cli  # noqa: F401  (load every module that may bind one)
    tr = Tracer()
    with traced(tr, layers.TARGETS) as missing:
        assert missing == []
        for target in layers.TARGETS:
            owner, name = spans._resolve(target.where)
            assert getattr(vars(owner)[name], "__wrapped__", None) is not None


def test_resistive_closed_form_holds_on_tiny_grid():
    sc = workloads.growth_scenario(4, 4, 32, t_end=0.05, eta=1e-2)
    res = workloads.evolved(sc)
    op = frame_calculus.FrameOperators(sc.metric, sc.grid)
    err = workloads.rel_l2(op, res.field.data, workloads.resistive_exact(sc, sc.t_end))
    assert err < 1e-5
    # the decay term matters: dropping eta from the closed form is detected
    sc0 = workloads.growth_scenario(4, 4, 32, t_end=0.05)
    assert workloads.rel_l2(op, res.field.data,
                            workloads.resistive_exact(sc0, sc.t_end)) > 1e-4


def test_cfl_numbers_of_the_resistive_workload():
    sc = workloads.growth_scenario(32, 32, 128, t_end=0.25, eta=1e-3)
    cfl = workloads.cfl_numbers(sc)
    assert cfl["cfl_advective"] == pytest.approx(0.4)
    assert 0.5 < cfl["cfl_diffusive"] < 0.55
    assert cfl["cfl_diffusive"] < workloads.RK4_REAL_AXIS_LIMIT


def test_gate_ratio_directions():
    assert workloads.Gate("e", 0.5, 1.0).ratio == 0.5
    assert workloads.Gate("order", 4.0, 3.5, at_least=True).ratio == 3.5 / 4.0
    assert not workloads.Gate("order", 3.0, 3.5, at_least=True).ok
    assert not workloads.Gate("e", float("nan"), 1.0).ok
    assert not workloads.Gate("e", 0.1, 1.0, passed=False).ok


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.metric_specs()
    emitted = layers.layer_metrics({}, 1, 0.0)
    assert list(emitted) == [m["name"] for m in spec["per_layer"]]
