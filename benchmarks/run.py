"""Benchmark of the ``grouse`` package: end-to-end metrics or a traced run.

Run from the root of a checkout::

    python3 benchmarks/run.py --workload stream-gated --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25

One single-threaded process drives a closed loop: each call into ``grouse``
starts after the previous one returned.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics.  The last line of standard
output is one JSON object; ``.bench_out/`` receives the run manifest and,
for traced runs, the span file.  See benchmarks/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# BLAS threads, fixed for every run and never above nproc; set before NumPy
# loads, and inherited by the import probes.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import grouse; print(time.perf_counter() - t)"
)
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def _parse(argv):
    names = ("full-large", "stream-gated", "montecarlo")
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_grouse():
    """Import grouse from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "grouse" / "__init__.py").is_file():
        print(f"benchmark: no grouse sources under {SRC}; run from a checkout root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import grouse  # noqa: F401  (binds the package and its modules)
    import grouse.cli

    if SRC.resolve() not in Path(grouse.__file__).resolve().parents:
        print(f"benchmark: grouse imported from {grouse.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return grouse


def _git_rev() -> str:
    """HEAD commit read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            sizes[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return sizes or {"unavailable": "cache sizes not readable"}


def manifest(args, np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cache": _cache_sizes(),
        "machine": platform.machine(),
        "git_rev": _git_rev(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


@dataclass
class Record:
    trial: int
    unit: str
    kind: str  # "setup", "warmup", "plain" (untraced, timed) or "traced"
    window: int  # index of the speed probe run just before this record
    result: object = None  # UnitResult; None when the unit raised
    error: str = ""
    setup_s: float = 0.0


class Loop:
    """Closed loop over rounds of units, with a speed probe around each unit.

    The probe is a fixed piece of frozen reference work resembling the
    workload.  Every timing is scaled by the workload's nominal probe time
    over the mean of the probes run just before and just after it, which
    removes the drift of the machine's speed.  Every result is kept for the
    checks.
    """

    def __init__(self, grouse, wl):
        self.grouse, self.wl = grouse, wl
        self.probe_inputs = wl.probe_inputs()
        self.state = None
        self.records: list[Record] = []
        self.probe_ns: list[int] = []

    def probe(self) -> None:
        t0 = time.perf_counter_ns()
        self.wl.probe(self.probe_inputs)
        self.probe_ns.append(time.perf_counter_ns() - t0)

    def scale(self, window: int) -> float:
        local = (self.probe_ns[window] + self.probe_ns[window + 1]) / 2
        return self.wl.probe_nominal_s * 1e9 / local

    def setup(self, seed: int, out: Path) -> None:
        """SETUP_REPS times: fresh-process import plus input construction."""
        self.probe()
        for _ in range(SETUP_REPS):
            seconds = _import_seconds()
            self.state = None  # release the previous inputs before building new ones
            t0 = time.perf_counter()
            self.state = self.wl.setup(self.grouse, seed, out)
            seconds += time.perf_counter() - t0
            self.records.append(Record(-1, "setup", "setup", len(self.probe_ns) - 1, setup_s=seconds))
            self.probe()

    def round(self, kind: str, tracer=None) -> None:
        for unit in self.wl.units:
            rec = Record(len(self.records), unit, kind, len(self.probe_ns) - 1)
            try:
                if tracer is None:
                    rec.result = self.wl.run(self.grouse, unit, self.state)
                else:
                    tracer.trial = rec.trial
                    with tracer.installed():
                        rec.result = self.wl.run(self.grouse, unit, self.state)
                self.wl.collect(self.grouse, unit, self.state, rec.result)
            except Exception:  # a unit that raises counts as failed; the loop goes on
                rec.result, rec.error = None, traceback.format_exc()
            self.records.append(rec)
            self.probe()

    def units(self, kind: str | None = None) -> list[Record]:
        return [r for r in self.records if r.kind != "setup" and kind in (None, r.kind)]

    def median_s(self, kind: str, attr: str, raw: bool = False) -> dict:
        """Per unit, the median of ``attr`` (ns) over that kind's results, in s."""
        return {
            u: _median([
                getattr(r.result, attr) / 1e9 * (1.0 if raw else self.scale(r.window))
                for r in self.units(kind) if r.unit == u and r.result is not None
            ])
            for u in self.wl.units
        }


def end_to_end(loop: Loop, raw: bool = False) -> dict:
    """Medians over the untraced timed rounds; the warm-up is not counted."""
    wall = loop.median_s("plain", "wall_ns", raw)
    stepping = loop.median_s("plain", "stepping_ns", raw)
    counts = {}
    for r in loop.units("plain"):
        if r.result is not None:
            counts.setdefault(r.unit, r.result)
    step_units = [u for u, r in counts.items() if r.steps]
    trial_units = [u for u, r in counts.items() if r.trials]
    setups = [
        r.setup_s * (1.0 if raw else loop.scale(r.window))
        for r in loop.records if r.kind == "setup"
    ]
    return {
        "setup_s": _median(setups),
        "wall_s": sum(wall.values()),
        "steps_per_s": _div(sum(counts[u].steps for u in step_units), sum(stepping[u] for u in step_units)),
        "trials_per_s": _div(sum(counts[u].trials for u in trial_units), sum(wall[u] for u in trial_units)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(loop: Loop, tracer, tracing, lost_fields: int) -> dict:
    traced = [r for r in loop.units("traced") if r.result is not None]
    work: dict = {}
    for r in traced:
        for key, value in r.result.work.items():
            work[key] = work.get(key, 0) + value
    metrics = tracing.layer_metrics(tracer.spans, work)
    metrics["results.roundtrip_lost_fields"] = float(lost_fields)
    plain = sum(loop.median_s("plain", "wall_ns").values())
    metrics["trace.overhead_frac"] = _div(sum(loop.median_s("traced", "wall_ns").values()), plain) - 1.0
    walls = {r.trial: r.result.wall_ns for r in traced}
    metrics["trace.unattributed_frac"] = _div(
        tracing.unattributed_ns(tracer.spans, walls), sum(walls.values())
    )
    return metrics


def run_workload(args) -> int:
    grouse = _import_grouse()
    import numpy as np
    import scipy

    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-s{args.seed}-t{args.trace}"
    info = manifest(args, np, scipy)
    work_dir = OUT / f"{tag}-p{os.getpid()}"
    work_dir.mkdir()
    try:
        loop = Loop(grouse, wl)
        loop.setup(args.seed, work_dir)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:  # one traced construction, for the set-up layers
            with tracer.installed():
                wl.setup(grouse, args.seed, work_dir)
        loop.round("warmup")  # checked, not timed
        start = last = time.perf_counter()
        rounds, round_s = 0, 0.0
        # start a round while it is expected to end by about --seconds
        while last - start + round_s / 2 < args.seconds or rounds < (2 if tracer else 1):
            if tracer is not None and rounds % 2 == 1:
                loop.round("traced", tracer)
            else:
                loop.round("plain")
            rounds += 1
            now = time.perf_counter()
            round_s, last = now - last, now
        e2e = raw = None
        if tracer is None:
            e2e, raw = end_to_end(loop), end_to_end(loop, raw=True)
        ref = wl.expect(loop.state)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = []
    baseline = {r.unit: r.result.digest for r in loop.units("warmup") if r.result is not None}
    for r in loop.units():
        if r.result is None:
            failures.append((r.trial, r.unit, r.error.strip().splitlines()[-1]))
            print(r.error, file=sys.stderr)
            continue
        errors = wl.check(r.unit, ref, r.result)
        if r.result.digest != baseline.get(r.unit):
            errors.append("output files differ from the warm-up round's")
        failures += [(r.trial, r.unit, e) for e in errors]
    failed = len({(t, u) for t, u, _ in failures})
    attempted = len(loop.units())
    for trial, unit, e in failures:
        print(f"FAILED trial {trial} ({unit}): {e}", file=sys.stderr)

    lost = max((r.result.summary.get("lost_fields", 0) for r in loop.units() if r.result), default=0)
    probes = [ns / 1e9 for ns in loop.probe_ns]
    info.update(
        rounds=rounds,
        probe_nominal_s=wl.probe_nominal_s,
        probe_s=probes,
        raw=raw,
        samples=[
            [r.unit, r.kind, r.window, r.setup_s if r.result is None else r.result.wall_ns / 1e9,
             0.0 if r.result is None else r.result.stepping_ns / 1e9]
            for r in loop.records
        ],
    )
    (OUT / f"manifest-{tag}.json").write_text(json.dumps(info, indent=1) + "\n")
    print(
        f"workload={wl.name} seed={args.seed} trace={args.trace} rounds={rounds} "
        f"units={attempted} blas={info['blas']} threads={info['blas_threads']} "
        f"nproc={info['nproc']} git={info['git_rev'][:12]}"
    )
    print(
        f"speed probe: nominal {wl.probe_nominal_s:.4g} s, measured median "
        f"{_median(probes):.4g} s (range {min(probes):.4g}-{max(probes):.4g})"
    )
    if tracer is not None:
        tracer.write_csv(OUT / f"trace-{tag}.csv")
        metrics = traced_metrics(loop, tracer, tracing, lost)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        for name, value in metrics.items():
            print(f"  {name:<56} {value:>14.6g} {units[name]}")
    else:
        metrics = e2e
        units = dict(END_TO_END)
        print(f"  {'metric':<14} {'value':>14} {'unit':<5} {'uncorrected':>14}")
        for name, value in metrics.items():
            print(f"  {name:<14} {value:>14.6g} {units[name]:<5} {info['raw'][name]:>14.6g}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed}/{attempted} units)")
    print(f"  results.roundtrip_lost_fields {lost} (reported, not a failure)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    script = Path(__file__).resolve()
    status, rows = 0, []
    for name in ("full-large", "stream-gated", "montecarlo"):
        cmd = [sys.executable, str(script), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        rows.append((name, result))
        print("\n".join(lines[:-1]))
    print(json.dumps({name: result for name, result in rows}))
    return status


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
