"""Tests of the benchmark's own logic: span arithmetic, tracer transparency,
metric names, and agreement of the frozen reference with ``grouse``."""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import grouse  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tree():
    # cli.main [0,100] -> cli.execute [10,40] -> harness.gen [20,30]
    #                  -> linalg.qr [50,90]
    return [
        Span("cli.main", 0, 100, -1, 0),
        Span("cli.execute", 10, 40, 0, 0),
        Span("harness.gen", 20, 30, 1, 0),
        Span("linalg.qr", 50, 90, 0, 0),
    ]


def test_self_times_subtract_children():
    assert tracing.self_times(_tree()) == [30, 20, 10, 40]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("a.f", 0, 100, -1, 0),
        Span("b.g", 10, 40, 0, 0),
        Span("b.h", 30, 50, 0, 0),
        Span("b.k", 60, 70, 0, 0),
    ]
    assert tracing.self_times(spans)[0] == 100 - 40 - 10


def test_layer_self_time_folds_same_module_callees():
    # cli.main keeps cli.execute's own 20 ns; harness and linalg are subtracted
    assert tracing.layer_self_times(_tree()) == [50, 0, 10, 40]


def test_within_marks_descendants():
    assert tracing.within(_tree(), {"cli.execute"}) == [False, True, True, False]


def test_unattributed_is_wall_minus_root_cover():
    spans = _tree() + [Span("results.w", 120, 150, -1, 0), Span("cli.main", 0, 5, -1, 1)]
    assert tracing.unattributed_ns(spans, {0: 200, 1: 10}) == (200 - 130) + (10 - 5)


def test_layer_metrics_per_step_arithmetic():
    spans = [
        Span("partial_data.run_stream", 0, 1000, -1, 0),
        Span("partial_data.grouse_step", 100, 400, 0, 0, (True, False, True)),
        Span("partial_data.gate_check", 110, 200, 1, 0, True),
        Span("linalg.singular_values", 120, 180, 2, 0),
        Span("linalg.least_squares", 210, 260, 1, 0),
        Span("partial_data.grouse_step", 500, 700, 0, 0, (False, False, False)),
        Span("partial_data.gate_check", 510, 600, 5, 0, False),
        Span("linalg.singular_values", 520, 580, 6, 0),
    ]
    m = tracing.layer_metrics(spans, {"steps": 2})
    assert m["partial_data.run_stream.self_us_per_step"] == pytest.approx((1000 - 300 - 200) / 2 / 1e3)
    assert m["linalg.singular_values.self_us_per_step"] == pytest.approx(60 / 1e3)
    assert m["linalg.factorizations_per_observation"] == 1.5
    assert m["partial_data.gate_check.pass_ratio"] == 0.5
    assert m["partial_data.grouse_step.clamped_ratio"] == 0.5
    assert m["partial_data.grouse_step.identity_ratio"] == 0.0
    assert m["full_data.run_full.self_us_per_step"] == 0.0


def _outputs(tmp_path: Path, tag: str) -> dict:
    spec = grouse.ProblemSpec(n=200, d=4, q=30, iters=60, seed=3)
    ubar, u0 = grouse.harness.generate_problem(spec)
    stream = reference.observations(ubar.columns, 30, 60, 3)
    obs = [grouse.partial_data.Observation(n=200, omega=o, values=v, latent_s=s) for o, v, s in stream]
    gated = grouse.partial_data.run_stream(u0, obs, ubar=ubar)
    full = grouse.full_data.run_full(u0, ubar, 30, seed=5)
    path = tmp_path / f"{tag}.csv"
    grouse.results.write_trajectory_csv(path, gated)
    return {
        "u0": u0.columns,
        "step": grouse.partial_data.grouse_step(u0, obs[0], 1.0, ubar, bypass_gate=True)[0].columns,
        "lsq": grouse.linalg.least_squares(u0.columns[:10], np.arange(10.0)),
        "gated_eps": gated.epsilons,
        "full_eps": full.epsilons,
        "csv": path.read_bytes(),
        "trial": grouse.harness.run_partial_trial(spec, bypass_gate=True).epsilons,
    }


def test_wrapped_functions_return_identical_results(tmp_path):
    plain = _outputs(tmp_path, "plain")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert grouse.partial_data.least_squares is grouse.linalg.least_squares
        assert grouse.least_squares is grouse.linalg.least_squares
        assert grouse.linalg.least_squares.__wrapped__ is not None
        traced = _outputs(tmp_path, "traced")
    for key, value in plain.items():
        if key == "csv":
            assert traced[key] == value
        else:
            np.testing.assert_array_equal(traced[key], value)
    names = {s.name for s in tracer.spans}
    assert {"partial_data.run_stream", "full_data.run_full", "metrics.Basis.__init__",
            "harness.run_partial_trial", "linalg.least_squares"} <= names
    assert all(s.end >= s.start for s in tracer.spans)


def test_uninstall_restores_every_binding():
    before = {
        (m, k): v for m in ("linalg", "partial_data", "cli")
        for k, v in vars(getattr(grouse, m)).items()
    }
    init = grouse.metrics.Basis.__init__
    tracer = tracing.Tracer()
    with tracer.installed():
        assert grouse.partial_data.gate_check is not before[("partial_data", "gate_check")]
    after = {
        (m, k): v for m in ("linalg", "partial_data", "cli")
        for k, v in vars(getattr(grouse, m)).items()
    }
    assert after == before
    assert grouse.metrics.Basis.__init__ is init


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == run.END_TO_END
    assert layer == tracing.PER_LAYER
    computed = set(tracing.layer_metrics([], {})) | {
        "trace.overhead_frac", "trace.unattributed_frac", "results.roundtrip_lost_fields"
    }
    assert computed == {name for name, _, _ in tracing.PER_LAYER}
    names = [n for n, _ in e2e] + [n for n, _, _ in layer] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_reference_matches_grouse_stream_and_full():
    spec = grouse.ProblemSpec(n=200, d=4, q=30, iters=150, seed=11)
    ubar, u0 = grouse.harness.generate_problem(spec)
    ref_ubar, ref_u0 = reference.problem(200, 4, 11)
    np.testing.assert_array_equal(ubar.columns, ref_ubar)
    stream = reference.observations(ref_ubar, 30, 150, 11)
    obs = [grouse.partial_data.Observation(n=200, omega=o, values=v) for o, v, _ in stream]
    got = grouse.partial_data.run_stream(u0, obs, ubar=ubar)
    want = reference.run_stream(ref_u0, stream, ref_ubar)
    assert got.gate_skips == int((~want["taken"]).sum())
    np.testing.assert_allclose(got.epsilons, want["epsilons"], rtol=reference.RTOL, atol=0)
    full = grouse.full_data.run_full(u0, ubar, 120, seed=4)
    want = reference.run_full(ref_u0, ref_ubar, 120, seed=4)
    np.testing.assert_allclose(full.epsilons, want["epsilons"], rtol=reference.RTOL, atol=0)
    np.testing.assert_array_equal(full.taken, want["taken"])


def test_reference_matches_sweep_and_skip_rate():
    cell = grouse.harness.sweep_phase([100], [3], [20], trials_per_cell=2, iters=40, seed=9,
                                      bypass_gate=True)[0]
    assert cell.mean_x == pytest.approx(
        reference.sweep_cell_mean_x(100, 3, 20, 2, 40, 9), rel=reference.RTOL
    )
    u, _ = grouse.harness.pair_with_epsilon(300, 3, 1e-4, 8)
    rate = grouse.concentration.estimate_skip_rate(u, 12, 200, 8)
    assert rate == reference.skip_count(300, 3, 12, 200, 1e-4, 8) / 200
