"""Span tracing of the ``grouse`` layers from outside the package.

:class:`Tracer` replaces every public function of the ``grouse`` modules
(and ``Basis.__init__``) by a wrapper that records a span around the call,
then restores the originals.  The package source is not changed.  A span is
``(name, start_ns, end_ns, parent, trial, outcome)``; spans stay in memory
until the run ends.  The analysis functions below turn a span list into
self times and the per-layer metrics of ``BENCHMARK.json``.
"""
from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from typing import NamedTuple

PACKAGE = "grouse"
MODULES = (
    "linalg",
    "metrics",
    "partial_data",
    "full_data",
    "concentration",
    "harness",
    "results",
    "cli",
)
# Methods traced besides module-level functions: (module, class, method).
METHODS = (("metrics", "Basis", "__init__"),)
# Outcome recorded on the span of these functions, computed from the result.
OUTCOMES = {
    "partial_data.gate_check": lambda verdict: bool(verdict.passed),
    # (taken, identity, clamped) of the step record
    "partial_data.grouse_step": lambda out: (
        bool(out[1].taken),
        bool(out[1].taken and out[1].eta == 0.0),
        bool(out[1].clamped),
    ),
}
# GROUSE step loops: "per step" metrics count only time spent inside them.
STEP_LOOPS = frozenset({"full_data.run_full", "partial_data.run_stream"})
VALIDATORS = (
    "validate_gram_concentration",
    "validate_residual_bound",
    "validate_sin_sq_expectation",
    "estimate_skip_rate",
)

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("full_data.run_full.self_us_per_step", "us/step", "lower"),
    ("full_data.run_full.update_gbps_computed", "GB/s", "higher"),
    ("metrics.Basis.copy_us_per_step", "us/step", "lower"),
    ("linalg.orthonormalize.calls_per_step", "calls/step", "lower"),
    ("linalg.orthonormalize.self_us_per_step", "us/step", "lower"),
    ("linalg.singular_values.self_us_per_step", "us/step", "lower"),
    ("linalg.least_squares.self_us_per_step", "us/step", "lower"),
    ("linalg.factorizations_per_observation", "calls/obs", "lower"),
    ("metrics.epsilon_residual.self_us_per_step", "us/step", "lower"),
    ("metrics.orthonormality_drift.self_us_per_step", "us/step", "lower"),
    ("metrics.revealed_angle_sin_sq.self_us_per_step", "us/step", "lower"),
    ("partial_data.gate_check.self_us_per_step", "us/step", "lower"),
    ("partial_data.gate_check.pass_ratio", "ratio", "higher"),
    ("partial_data.partial_residual.self_us_per_step", "us/step", "lower"),
    ("partial_data.apply_update.self_us_per_step", "us/step", "lower"),
    ("partial_data.grouse_step.self_us_per_step", "us/step", "lower"),
    ("partial_data.grouse_step.identity_ratio", "ratio", "lower"),
    ("partial_data.grouse_step.clamped_ratio", "ratio", "lower"),
    ("partial_data.run_stream.self_us_per_step", "us/step", "lower"),
    ("partial_data.read_observations.us_per_obs", "us/obs", "lower"),
    ("partial_data.read_observations.mb_per_s", "MB/s", "higher"),
    ("results.write_trajectory_csv.us_per_row", "us/row", "lower"),
    ("results.read_trajectory_csv.us_per_row", "us/row", "lower"),
    ("results.roundtrip_lost_fields", "count", "lower"),
    ("harness.generate_problem.self_ms_per_call", "ms/call", "lower"),
    ("harness.run_partial_trial.self_us_per_call", "us/call", "lower"),
    ("harness.sweep_phase.self_s", "s/call", "lower"),
    *((f"concentration.{v}.us_per_trial", "us/trial", "lower") for v in VALIDATORS),
    ("concentration.estimate_skip_rate.skip_ratio", "ratio", "lower"),
    ("cli.main.self_ms_per_call", "ms/call", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unattributed_frac", "frac", "lower"),
]


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int  # index into the span list, -1 for a root
    trial: int
    outcome: object = None


def span_name(fn) -> str:
    """``<module>.<qualname>`` with the package prefix dropped."""
    return f"{fn.__module__.split('.', 1)[1]}.{fn.__qualname__}"


class Tracer:
    """Records spans around every public ``grouse`` function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trial = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        outcome = OUTCOMES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = Span(name, start, clock(), parent, self.trial)
                stack.pop()
                raise
            spans[idx] = Span(
                name, start, clock(), parent, self.trial,
                None if outcome is None else outcome(result),
            )
            stack.pop()
            return result

        return traced

    def install(self) -> None:
        """Wrap each public function in every grouse namespace binding it.

        A function bound under several names (``partial_data.least_squares``
        is ``linalg.least_squares``) gets one wrapper, so identity between
        the bindings is kept.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        package = importlib.import_module(PACKAGE)
        namespaces = [package] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith(PACKAGE + ".")
                ):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, span_name(obj))
                self._patches.append((ns, attr, obj))
                setattr(ns, attr, wrappers[obj])
        for module, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{module}"), cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(original, f"{module}.{cls_name}.{method}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_csv(self, path) -> None:
        """One row per span: ``id,parent,trial,name,start_ns,end_ns,outcome``."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "trial", "name", "start_ns", "end_ns", "outcome"])
            for i, s in enumerate(self.spans):
                outcome = "" if s.outcome is None else s.outcome
                writer.writerow([i, s.parent, s.trial, s.name, s.start, s.end, outcome])


def _covered(intervals) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - _covered(children[i]) for i, s in enumerate(spans)]


def layer_self_times(spans) -> list[int]:
    """Self time of a module's outermost span, counting same-module callees.

    For a span entered from another module (or a root), this is its
    duration minus the time covered by spans of other modules nested under
    it through spans of its own module; 0 for the nested same-module spans.
    ``cli.main`` calls ``cli.parse_args`` and ``cli.execute``, so its plain
    self time is near 0 while this one is the whole command-line layer.
    """
    root = list(range(len(spans)))
    foreign = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent < 0:
            continue
        if _module(spans[s.parent].name) == _module(s.name):
            root[i] = root[s.parent]
        else:
            foreign[root[s.parent]].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(foreign[i]) if root[i] == i else 0
        for i, s in enumerate(spans)
    ]


def within(spans, names) -> list[bool]:
    """Whether each span is named in ``names`` or nested under one that is."""
    flags = []
    for s in spans:
        flags.append(s.name in names or (s.parent >= 0 and flags[s.parent]))
    return flags


class _Stats:
    __slots__ = ("calls", "total_ns", "self_ns", "layer_self_ns", "outcomes")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.layer_self_ns = 0
        self.outcomes = []


def summarize(spans, mask=None) -> dict[str, _Stats]:
    """Per-name calls, total, self and layer-self ns over the masked spans."""
    selfs = self_times(spans)
    layer = layer_self_times(spans)
    out: dict[str, _Stats] = {}
    for i, s in enumerate(spans):
        if mask is not None and not mask[i]:
            continue
        st = out.get(s.name)
        if st is None:
            st = out[s.name] = _Stats()
        st.calls += 1
        st.total_ns += s.end - s.start
        st.self_ns += selfs[i]
        st.layer_self_ns += layer[i]
        if s.outcome is not None:
            st.outcomes.append(s.outcome)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, work: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced units.

    ``work`` counts what those units did: ``steps`` (GROUSE iterations),
    ``update_bytes`` (computed bytes of full-data rank-one updates),
    ``observations`` and ``observation_bytes`` read, trajectory
    ``rows_written`` and ``rows_read``, and ``trials.<validator>``.  A
    metric of a layer that did not run on the workload is 0.  The
    ``trace.*`` and ``results.roundtrip_lost_fields`` entries are filled in
    by the caller.
    """
    every = summarize(spans)
    steps = summarize(spans, within(spans, STEP_LOOPS))
    in_step = summarize(spans, within(spans, {"partial_data.grouse_step"}))
    in_skip = summarize(spans, within(spans, {"concentration.estimate_skip_rate"}))
    none = _Stats()
    n_steps = work.get("steps", 0)

    def per_step_us(name: str) -> float:
        return _ratio(steps.get(name, none).self_ns / 1e3, n_steps)

    m = {}
    m["full_data.run_full.self_us_per_step"] = per_step_us("full_data.run_full")
    full_self_s = steps.get("full_data.run_full", none).self_ns / 1e9
    m["full_data.run_full.update_gbps_computed"] = _ratio(work.get("update_bytes", 0) / 1e9, full_self_s)
    m["metrics.Basis.copy_us_per_step"] = per_step_us("metrics.Basis.__init__")
    m["linalg.orthonormalize.calls_per_step"] = _ratio(steps.get("linalg.orthonormalize", none).calls, n_steps)
    for name in (
        "linalg.orthonormalize",
        "linalg.singular_values",
        "linalg.least_squares",
    ):
        m[f"{name}.self_us_per_step"] = per_step_us(name)
    grouse_steps = in_step.get("partial_data.grouse_step", none).calls
    factorizations = sum(
        in_step.get(f"linalg.{f}", none).calls for f in ("singular_values", "least_squares")
    )
    m["linalg.factorizations_per_observation"] = _ratio(factorizations, grouse_steps)
    for name in (
        "metrics.epsilon_residual",
        "metrics.orthonormality_drift",
        "metrics.revealed_angle_sin_sq",
        "partial_data.gate_check",
    ):
        m[f"{name}.self_us_per_step"] = per_step_us(name)
    gates = steps.get("partial_data.gate_check", none).outcomes
    m["partial_data.gate_check.pass_ratio"] = _ratio(sum(gates), len(gates))
    for name in (
        "partial_data.partial_residual",
        "partial_data.apply_update",
        "partial_data.grouse_step",
    ):
        m[f"{name}.self_us_per_step"] = per_step_us(name)
    records = steps.get("partial_data.grouse_step", none).outcomes
    m["partial_data.grouse_step.identity_ratio"] = _ratio(sum(r[1] for r in records), len(records))
    m["partial_data.grouse_step.clamped_ratio"] = _ratio(sum(r[2] for r in records), len(records))
    m["partial_data.run_stream.self_us_per_step"] = per_step_us("partial_data.run_stream")
    reads = every.get("partial_data.read_observations", none)
    m["partial_data.read_observations.us_per_obs"] = _ratio(reads.total_ns / 1e3, work.get("observations", 0))
    m["partial_data.read_observations.mb_per_s"] = _ratio(
        work.get("observation_bytes", 0) / 1e6, reads.total_ns / 1e9
    )
    m["results.write_trajectory_csv.us_per_row"] = _ratio(
        every.get("results.write_trajectory_csv", none).total_ns / 1e3, work.get("rows_written", 0)
    )
    m["results.read_trajectory_csv.us_per_row"] = _ratio(
        every.get("results.read_trajectory_csv", none).total_ns / 1e3, work.get("rows_read", 0)
    )
    m["results.roundtrip_lost_fields"] = 0.0
    gen = every.get("harness.generate_problem", none)
    m["harness.generate_problem.self_ms_per_call"] = _ratio(gen.self_ns / 1e6, gen.calls)
    trial = every.get("harness.run_partial_trial", none)
    m["harness.run_partial_trial.self_us_per_call"] = _ratio(trial.self_ns / 1e3, trial.calls)
    sweep = every.get("harness.sweep_phase", none)
    m["harness.sweep_phase.self_s"] = _ratio(sweep.self_ns / 1e9, sweep.calls)
    for v in VALIDATORS:
        m[f"concentration.{v}.us_per_trial"] = _ratio(
            every.get(f"concentration.{v}", none).total_ns / 1e3, work.get(f"trials.{v}", 0)
        )
    skip_gates = in_skip.get("partial_data.gate_check", none).outcomes
    m["concentration.estimate_skip_rate.skip_ratio"] = _ratio(
        len(skip_gates) - sum(skip_gates), len(skip_gates)
    )
    main = every.get("cli.main", none)
    m["cli.main.self_ms_per_call"] = _ratio(main.layer_self_ns / 1e6, main.calls)
    return m


def unattributed_ns(spans, walls: dict) -> int:
    """Wall time of the given units covered by none of their root spans.

    ``walls`` maps a unit's trial id to its wall time in ns.
    """
    roots: dict[int, list] = {trial: [] for trial in walls}
    for s in spans:
        if s.parent < 0 and s.trial in roots:
            roots[s.trial].append((s.start, s.end))
    return sum(walls[t] - _covered(roots[t]) for t in walls)
