"""Command-line front end: reproducible runs, sweeps and validation reports.

Every stochastic verb requires an explicit --seed (no wall-clock seeding),
so repeating an invocation reproduces its output file exactly, at any BLAS
thread count (:func:`main` runs the verb on one OpenBLAS thread).  Exit codes:
0 success, 1 I/O failure, 2 usage error, 3 numerical error.  The parser
checks only syntax; every range rule (dimensions, alpha, delta, trials,
seed) is the library's, whose ValueError becomes exit code 2 with its
message, before any output file is written.

Each verb is declared in one place, the ``@_verb(...)`` line above its
handler: its help, the flags it takes in ``--help`` order, the help of its
``--out``, and any keyword it changes in a shared flag.  The handler makes
the library call, writes the output file(s) and returns the summary line,
which :func:`execute` prints.  Each flag is declared once, with its help
text, in ``_FLAGS``; a new verb is one handler with its ``@_verb`` line,
and a flag for every verb is one ``_FLAGS`` entry named in each ``@_verb``.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .concentration import (
    estimate_skip_rate,
    validate_gram_concentration,
    validate_residual_bound,
    validate_sin_sq_expectation,
    write_concentration_csv,
    write_residual_csv,
)
from .harness import (
    ProblemSpec,
    incoherent_basis,
    pair_with_epsilon,
    run_full_trial,
    run_partial_trial,
    sweep_phase,
    write_problem_spec,
    write_sweep_csv,
)
from .linalg import NumericalError, _one_blas_thread
from .results import _FLOAT, _INT, _write_table, write_trajectory_csv

# The one-row summary tables of validate-expectation and skip-rate.
_EXPECTATION = {"trials": _INT, "mean": _FLOAT, "stderr": _FLOAT, "target": _FLOAT}
_SKIP_RATE = {"n": _INT, "d": _INT, "q": _INT, "trials": _INT, "skip_rate": _FLOAT}


def _fmt(x) -> str:
    """A printed summary value: its shortest round-trip repr, or na where it does not exist."""
    return "na" if x is None else repr(float(x))


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


# Every flag a verb takes but --out, as its add_argument keywords; a flag is
# required unless it has a default.  A verb overrides only what differs.
_FLAGS = {
    "n": dict(type=int, help="ambient dimension"),
    "d": dict(type=int, help="subspace dimension"),
    "q": dict(type=int, help="observed entries per step"),
    "alpha": dict(type=float, default=ProblemSpec.alpha, help="step fudge factor in (0,2)"),
    "iters": dict(type=int, help="number of iterations"),
    "seed": dict(type=int, help="base seed (mandatory)"),
    "init_noise_std": dict(type=float, default=ProblemSpec.init_noise_std, help="starting-basis noise std"),
    "spec_out": dict(default=None, help="also write the run-spec file here"),
    "bypass_gate": dict(action="store_true", default=False, help="take every step"),
    "epsilon": dict(type=float, help="pair error metric"),
    "omega_size": dict(type=int),
    "delta": dict(type=float),
    "trials": dict(type=int),
}

# (name, about, flags, overrides, --out help, handler, defaults) of each verb, in --help order
_VERBS = []


def _verb(name, about, flags, out, defaults=None, **overrides):
    """Declare the decorated handler as verb ``name``, taking ``flags`` (names in ``_FLAGS``) in order.

    ``about`` is the verb's help and ``out`` that of its ``--out``;
    ``overrides`` maps a flag to the keywords this verb changes, and
    ``defaults`` sets values that no flag sets.  The handler takes the parsed
    command, writes the output file(s) and returns the summary line.
    """

    def declare(handler):
        _VERBS.append((name, about, flags.split(), overrides, out, handler, defaults or {}))
        return handler

    return declare


def _spec(cmd) -> ProblemSpec:
    return ProblemSpec(**{f.name: getattr(cmd, f.name) for f in dataclasses.fields(ProblemSpec)})


def _trajectory(cmd, spec: ProblemSpec, result, last: str) -> str:
    """Write a run's trajectory CSV, then its spec file if asked; its summary line ends with ``last``."""
    write_trajectory_csv(cmd.out, result)
    if cmd.spec_out:
        write_problem_spec(cmd.spec_out, spec)
    return f"final epsilon={_fmt(result.epsilons[-1])} X={_fmt(result.x_factor)} {last}"


@_verb(
    "full", "full-data run (every entry observed)",
    "n d alpha iters seed init_noise_std spec_out", "trajectory CSV path", defaults={"q": "full"},
)
def _full(cmd) -> str:
    spec = _spec(cmd)
    result = run_full_trial(spec)
    return _trajectory(cmd, spec, result, f"tail_slope={_fmt(result.tail_slope)}")


@_verb(
    "partial", "partial-data gated run",
    "n d q alpha iters seed init_noise_std spec_out bypass_gate", "trajectory CSV path",
)
def _partial(cmd) -> str:
    spec = _spec(cmd)
    result = run_partial_trial(spec, bypass_gate=cmd.bypass_gate)
    return _trajectory(cmd, spec, result, f"gate_skips={result.gate_skips}")


@_verb(
    "sweep", "phase-transition sweep over (n, d, q)",
    "n d q trials iters seed alpha init_noise_std bypass_gate", "sweep CSV path",
    **{x: dict(type=_int_list, help=f"comma-separated {x} values") for x in ("n", "d", "q")},
    trials=dict(default=10, help="trials per cell"), iters=dict(default=500),
)
def _sweep(cmd) -> str:
    cells = sweep_phase(
        cmd.n, cmd.d, cmd.q,
        trials_per_cell=cmd.trials, iters=cmd.iters, seed=cmd.seed,
        bypass_gate=cmd.bypass_gate, alpha=cmd.alpha,
        init_noise_std=cmd.init_noise_std,
    )
    write_sweep_csv(cmd.out, cells)
    feasible = [c.mean_x for c in cells if c.trials > 0]
    lo, hi = min(feasible, default=None), max(feasible, default=None)
    return f"cells={len(cells)} mean_X_range=[{_fmt(lo)},{_fmt(hi)}]"


@_verb("validate-concentration", "sampled-Gram eigenvalue window check",
       "n d omega_size delta trials seed", "per-trial report CSV path")
def _concentration(cmd) -> str:
    u = incoherent_basis(cmd.n, cmd.d, cmd.seed)
    report = validate_gram_concentration(u, cmd.omega_size, cmd.delta, cmd.trials, cmd.seed)
    write_concentration_csv(cmd.out, report)
    return (
        f"failure_rate={_fmt(report.failure_rate)}"
        f" gamma={_fmt(report.gamma)} hypothesis_met={report.hypothesis_met}"
    )


@_verb("validate-residual", "sampled-residual lower bound check",
       "n d epsilon omega_size delta trials seed", "per-trial report CSV path")
def _residual(cmd) -> str:
    u, ubar = pair_with_epsilon(cmd.n, cmd.d, cmd.epsilon, cmd.seed)
    report = validate_residual_bound(u, ubar, cmd.omega_size, cmd.delta, cmd.trials, cmd.seed)
    write_residual_csv(cmd.out, report)
    return f"violation_rate={_fmt(report.violation_rate)}"


@_verb("validate-expectation", "E[sin^2 theta] = epsilon/d check",
       "n d epsilon trials seed", "summary CSV path")
def _expectation(cmd) -> str:
    u, ubar = pair_with_epsilon(cmd.n, cmd.d, cmd.epsilon, cmd.seed)
    mean, stderr = validate_sin_sq_expectation(u, ubar, cmd.trials, cmd.seed)
    target = cmd.epsilon / cmd.d
    _write_table(cmd.out, _EXPECTATION, [[cmd.trials], [mean], [stderr], [target]])
    return f"mean={_fmt(mean)} stderr={_fmt(stderr)} target={_fmt(target)}"


@_verb("skip-rate", "gate failure rate on algorithm-mode samples",
       "n d q trials seed epsilon", "summary CSV path",
       epsilon=dict(default=1e-4, help="error metric of the near-solution basis"))
def _skip_rate(cmd) -> str:
    u, ubar = pair_with_epsilon(cmd.n, cmd.d, cmd.epsilon, cmd.seed)
    rate = estimate_skip_rate(u, cmd.q, cmd.trials, cmd.seed)
    _write_table(cmd.out, _SKIP_RATE, [[cmd.n], [cmd.d], [cmd.q], [cmd.trials], [rate]])
    return f"skip_rate={_fmt(rate)}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouse",
        description="Incremental subspace identification runs and validators",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for name, about, flags, overrides, out, handler, defaults in _VERBS:
        # every verb, like the top level, takes its flags only as spelled in full
        sub = subs.add_parser(name, help=about, allow_abbrev=False)
        for flag in flags:
            kwargs = {**_FLAGS[flag], **overrides.get(flag, {})}
            sub.add_argument(f"--{flag}", required="default" not in kwargs, **kwargs)
        sub.add_argument("--out", required=True, help=out)
        sub.set_defaults(handler=handler, **defaults)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse argv into a command; syntax errors exit with 2."""
    return build_parser().parse_args(argv)


def execute(cmd: argparse.Namespace) -> int:
    """Run one parsed command: its verb's handler writes the output file(s); print its summary line."""
    try:
        print(cmd.handler(cmd))
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"grouse: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    """Parse ``argv`` and run its command on one BLAS thread (``linalg._one_blas_thread``)."""
    cmd = parse_args(sys.argv[1:] if argv is None else argv)
    with _one_blas_thread():
        return execute(cmd)


if __name__ == "__main__":
    sys.exit(main())
