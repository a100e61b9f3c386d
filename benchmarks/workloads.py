"""The three benchmark workloads.

Each workload constructs its inputs from the benchmark seed (``setup``, the
part timed as ``setup_s``), runs a fixed sequence of units (one round), and
checks every unit's outputs against :mod:`reference`.  All calls into
``grouse`` go through module attributes at call time, so the spans the
tracer installs see them.

Each workload also has a speed probe: fixed, seed-independent work done by
the frozen :mod:`reference` code with the same character as the workload
(large-array updates for ``full-large``, small factorizations in a Python
loop for the others), lasting about 5% of a unit.  ``probe_nominal_s`` is
the probe's median time on the machine the baseline was measured on; the
runner scales every timing by ``probe_nominal_s`` over the probe time
measured next to it.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference


# Median probe times (s) on the baseline machine: 2-core shared virtual machine,
# Python 3.11.7, numpy 2.4.6, one BLAS thread.
PROBE_NOMINAL_S = {"full-large": 0.11, "stream-gated": 0.06, "montecarlo": 0.1}


@dataclass
class UnitResult:
    """Timings, work counts and the output summary of one unit."""

    wall_ns: int
    stepping_ns: int = 0  # time inside run_full, run_stream or the sweep call, 0 if none
    steps: int = 0  # GROUSE iterations taken or skipped
    trials: int = 0  # independent trials completed
    work: dict = field(default_factory=dict)  # counts for the per-layer metrics
    summary: dict = field(default_factory=dict)  # what the output check needs
    digest: str = ""  # sha256 of the unit's output file


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _close(a, b) -> bool:
    return a is not None and b is not None and a.shape == b.shape and bool(
        np.allclose(a, b, rtol=reference.RTOL, atol=0.0, equal_nan=True)
    )


def _same(a, b) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))


TRAJECTORY_FIELDS = ("epsilons", "gate_passed", "taken", "norm_r", "norm_p", "theta")
# Columns a trajectory CSV carries, as TrialResult fields.
CSV_COLUMNS = ("epsilons", "gate_passed", "norm_r", "norm_p", "theta")


def _roundtrip(grouse, path, res) -> tuple[list[str], int]:
    """Errors for CSV columns not read back equal, and the lost-field count.

    The lost-field count compares every trajectory field plus ``gate_skips``
    in memory against the read-back result.  It reports a known loss (the
    CSV has no ``taken`` column) and is not itself a failure.
    """
    back = grouse.results.read_trajectory_csv(path)
    errors = [
        f"column {f} does not read back equal"
        for f in CSV_COLUMNS
        if not _same(getattr(res, f), getattr(back, f))
    ]
    lost = sum(not _same(getattr(res, f), getattr(back, f)) for f in TRAJECTORY_FIELDS)
    lost += res.gate_skips != back.gate_skips
    return errors, int(lost)


def _collect_trajectory(grouse, st: dict, r: UnitResult) -> None:
    r.digest = _digest(st["path"])
    errors, lost = _roundtrip(grouse, st["path"], r.summary["result"])
    r.summary.update(roundtrip_errors=errors, lost_fields=lost)


def _trajectory_errors(res, ref: dict) -> list[str]:
    errors = []
    for f in ("gate_passed", "taken"):
        if not _same(getattr(res, f), ref[f]):
            errors.append(f"{f} differs from the reference")
    for f in ("epsilons", "norm_r", "norm_p", "theta"):
        if f in ref and not _close(getattr(res, f), ref[f]):
            errors.append(f"{f} outside rtol {reference.RTOL} of the reference")
    return errors


class FullLarge:
    """run_full at n=10000, d=200, then write_trajectory_csv."""

    name = "full-large"
    units = ("full",)
    n, d, iters = 10_000, 200, 100
    probe_nominal_s = PROBE_NOMINAL_S["full-large"]

    def probe_inputs(self):
        return np.random.default_rng(0).standard_normal(self.n)

    def probe(self, v) -> None:
        # rank-one updates of an n x d array with GEMVs, as in run_full;
        # allocated here so that no probe array outlives the probe
        u = np.outer(v, np.ones(self.d)) / np.sqrt(self.n)
        for _ in range(8):
            w = u.T @ v
            u = u + np.outer(v - u @ w, w * 1e-6)

    def setup(self, grouse, seed: int, out: Path) -> dict:
        spec = grouse.harness.ProblemSpec(n=self.n, d=self.d, q="full", iters=self.iters, seed=seed)
        ubar, u0 = grouse.harness.generate_problem(spec)
        return {"seed": seed, "ubar": ubar, "u0": u0, "path": out / "full.csv"}

    def run(self, grouse, unit: str, st: dict) -> UnitResult:
        clock = time.perf_counter_ns
        t0 = clock()
        res = grouse.full_data.run_full(
            st["u0"], st["ubar"], self.iters, seed=np.random.SeedSequence([st["seed"], 2])
        )
        t1 = clock()
        grouse.results.write_trajectory_csv(st["path"], res)
        t2 = clock()
        taken = int(res.taken.sum())
        return UnitResult(
            wall_ns=t2 - t0,
            stepping_ns=t1 - t0,
            steps=res.iterations,
            trials=1,
            work={
                "steps": res.iterations,
                "update_bytes": 2 * self.n * self.d * 8 * taken,
                "rows_written": res.iterations + 1,
            },
            summary={"result": res},
        )

    def collect(self, grouse, unit: str, st: dict, r: UnitResult) -> None:
        _collect_trajectory(grouse, st, r)

    def expect(self, st: dict) -> dict:
        ubar, u0 = reference.problem(self.n, self.d, st["seed"])
        return reference.run_full(u0, ubar, self.iters, np.random.SeedSequence([st["seed"], 2]))

    def check(self, unit: str, ref: dict, r: UnitResult) -> list[str]:
        return _trajectory_errors(r.summary["result"], ref) + r.summary["roundtrip_errors"]


class StreamGated:
    """Observation-CSV ingestion, gated run_stream, trajectory CSV round trip."""

    name = "stream-gated"
    units = ("stream",)
    n, d, q, iters = 2000, 10, 80, 3000
    probe_nominal_s = PROBE_NOMINAL_S["stream-gated"]

    def probe_inputs(self):
        ubar, u0 = reference.problem(self.n, self.d, 0)
        return u0, reference.observations(ubar, self.q, 300, 0), ubar

    def probe(self, inputs) -> None:
        u0, stream, ubar = inputs
        reference.run_stream(u0, stream, ubar)

    def setup(self, grouse, seed: int, out: Path) -> dict:
        spec = grouse.harness.ProblemSpec(n=self.n, d=self.d, q=self.q, iters=self.iters, seed=seed)
        ubar, u0 = grouse.harness.generate_problem(spec)
        stream = reference.observations(ubar.columns, self.q, self.iters, seed)
        obs_path = out / "observations.csv"
        grouse.partial_data.write_observations(
            obs_path,
            [grouse.partial_data.Observation(n=self.n, omega=o, values=v) for o, v, _ in stream],
        )
        return {
            "seed": seed, "ubar": ubar, "u0": u0, "stream": stream,
            "obs_path": obs_path, "obs_bytes": obs_path.stat().st_size,
            "path": out / "stream.csv",
        }

    def run(self, grouse, unit: str, st: dict) -> UnitResult:
        clock = time.perf_counter_ns
        t0 = clock()
        obs = grouse.partial_data.read_observations(st["obs_path"])
        t1 = clock()
        res = grouse.partial_data.run_stream(st["u0"], obs, ubar=st["ubar"])
        t2 = clock()
        grouse.results.write_trajectory_csv(st["path"], res)
        back = grouse.results.read_trajectory_csv(st["path"])
        t3 = clock()
        rows = res.iterations + 1
        return UnitResult(
            wall_ns=t3 - t0,
            stepping_ns=t2 - t1,
            steps=res.iterations,
            trials=1,
            work={
                "steps": res.iterations,
                "observations": len(obs),
                "observation_bytes": st["obs_bytes"],
                "rows_written": rows,
                "rows_read": len(back.gate_passed) + 1,
            },
            summary={"result": res},
        )

    def collect(self, grouse, unit: str, st: dict, r: UnitResult) -> None:
        _collect_trajectory(grouse, st, r)

    def expect(self, st: dict) -> dict:
        ubar, u0 = reference.problem(self.n, self.d, st["seed"])
        ref = reference.run_stream(u0, st["stream"], ubar)
        ref["theta"] = np.full(self.iters, np.nan)  # the wire format carries no latent_s
        return ref

    def check(self, unit: str, ref: dict, r: UnitResult) -> list[str]:
        res = r.summary["result"]
        errors = _trajectory_errors(res, ref) + r.summary["roundtrip_errors"]
        ref_skips = int((~ref["taken"]).sum())
        if res.gate_skips != ref_skips:
            errors.append(f"gate_skips {res.gate_skips} != reference {ref_skips}")
        return errors


def _read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class MonteCarlo:
    """In-process ``grouse`` CLI: one sweep cell and the four validators."""

    name = "montecarlo"
    units = (
        "sweep",
        "validate-concentration",
        "validate-residual",
        "validate-expectation",
        "skip-rate",
    )
    sweep = {"n": 1000, "d": 10, "q": 40, "trials": 10, "iters": 500}
    delta = 0.1
    # Validator trials per call, keyed by the validator function they run.
    trials = {
        "validate-concentration": ("validate_gram_concentration", 2000),
        "validate-residual": ("validate_residual_bound", 2000),
        "validate-expectation": ("validate_sin_sq_expectation", 50_000),
        "skip-rate": ("estimate_skip_rate", 1000),
    }
    skip = {"n": 10_000, "d": 10, "q": 213, "epsilon": 1e-4}
    # |mean - epsilon/d| allowed for validate-expectation, in standard errors
    z_limit = 5.0
    probe_nominal_s = PROBE_NOMINAL_S["montecarlo"]

    def probe_inputs(self):
        n, d, q = self.sweep["n"], self.sweep["d"], self.sweep["q"]
        ubar, u0 = reference.problem(n, d, 0)
        return u0, reference.observations(ubar, q, 250, 0), ubar

    def probe(self, inputs) -> None:
        u0, stream, ubar = inputs
        reference.run_stream(u0, stream, ubar, bypass_gate=True)

    def setup(self, grouse, seed: int, out: Path) -> dict:
        s, sk = self.sweep, self.skip
        seeds = {u: seed * 10 + k for k, u in enumerate(self.units)}
        argv = {
            "sweep": ["sweep", "--n", str(s["n"]), "--d", str(s["d"]), "--q", str(s["q"]),
                      "--trials", str(s["trials"]), "--iters", str(s["iters"]), "--bypass_gate"],
            "validate-concentration": ["validate-concentration", "--n", "400", "--d", "5",
                                       "--omega_size", "400", "--delta", str(self.delta)],
            "validate-residual": ["validate-residual", "--n", "400", "--d", "5", "--epsilon", "1e-5",
                                  "--omega_size", "5000", "--delta", str(self.delta)],
            "validate-expectation": ["validate-expectation", "--n", "100", "--d", "5",
                                     "--epsilon", "0.05"],
            "skip-rate": ["skip-rate", "--n", str(sk["n"]), "--d", str(sk["d"]), "--q", str(sk["q"]),
                          "--epsilon", repr(sk["epsilon"])],
        }
        for u in self.units:
            if u in self.trials:
                argv[u] += ["--trials", str(self.trials[u][1])]
            argv[u] += ["--seed", str(seeds[u]), "--out", str(out / f"{u}.csv")]
        return {"seeds": seeds, "argv": argv, "out": out}

    def run(self, grouse, unit: str, st: dict) -> UnitResult:
        printed = io.StringIO()
        clock = time.perf_counter_ns
        with contextlib.redirect_stdout(printed):
            t0 = clock()
            code = grouse.cli.main(st["argv"][unit])
            t1 = clock()
        r = UnitResult(wall_ns=t1 - t0, summary={"code": code, "printed": printed.getvalue()})
        if unit == "sweep":
            r.steps = self.sweep["trials"] * self.sweep["iters"]
            r.stepping_ns = r.wall_ns
            r.work = {"steps": r.steps}
        else:
            validator, trials = self.trials[unit]
            r.trials = trials
            r.work = {f"trials.{validator}": trials}
        return r

    def collect(self, grouse, unit: str, st: dict, r: UnitResult) -> None:
        path = st["out"] / f"{unit}.csv"
        r.digest = _digest(path)
        rows = _read_rows(path)
        if unit == "sweep":
            r.summary.update(trials=int(rows[0]["trials"]), mean_x=float(rows[0]["mean_X"]))
        elif unit == "validate-concentration":
            r.summary["rate"] = float(np.mean([row["in_window"] == "0" for row in rows]))
        elif unit == "validate-residual":
            r.summary["rate"] = float(np.mean([row["violated"] == "1" for row in rows]))
        elif unit == "validate-expectation":
            r.summary.update({k: float(rows[0][k]) for k in ("mean", "stderr", "target")})
        else:
            r.summary["rate"] = float(rows[0]["skip_rate"])

    def expect(self, st: dict) -> dict:
        s, sk = self.sweep, self.skip
        return {
            "mean_x": reference.sweep_cell_mean_x(
                s["n"], s["d"], s["q"], s["trials"], s["iters"], st["seeds"]["sweep"]
            ),
            "skip_rate": reference.skip_count(
                sk["n"], sk["d"], sk["q"], self.trials["skip-rate"][1], sk["epsilon"],
                st["seeds"]["skip-rate"],
            ) / self.trials["skip-rate"][1],
        }

    def check(self, unit: str, ref: dict, r: UnitResult) -> list[str]:
        s = r.summary
        if s["code"] != 0:
            return [f"exit code {s['code']}"]
        if unit == "sweep":
            if s["trials"] != self.sweep["trials"]:
                return [f"sweep cell reports {s['trials']} trials"]
            if not math.isclose(s["mean_x"], ref["mean_x"], rel_tol=reference.RTOL):
                return [f"mean_X {s['mean_x']!r} outside rtol of reference {ref['mean_x']!r}"]
        elif unit == "validate-concentration":
            if "hypothesis_met=True" not in s["printed"]:
                return ["sample-size hypothesis not met"]
            if s["rate"] > self.delta:
                return [f"failure rate {s['rate']} > delta {self.delta}"]
        elif unit == "validate-residual":
            if s["rate"] > self.delta:
                return [f"violation rate {s['rate']} > delta {self.delta}"]
        elif unit == "validate-expectation":
            if abs(s["mean"] - s["target"]) > self.z_limit * s["stderr"]:
                return [f"mean {s['mean']} not within {self.z_limit} stderr of {s['target']}"]
        elif s["rate"] != ref["skip_rate"]:
            return [f"skip rate {s['rate']} != reference {ref['skip_rate']}"]
        return []


WORKLOADS = {w.name: w for w in (FullLarge(), StreamGated(), MonteCarlo())}
