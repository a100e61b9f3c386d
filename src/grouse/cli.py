"""Command-line front end: reproducible runs, sweeps and validation reports.

Every stochastic verb requires an explicit --seed (no wall-clock seeding),
so repeating an invocation reproduces its output file exactly, at any BLAS
thread count (:func:`main` runs the verb on one OpenBLAS thread).  Exit codes:
0 success, 1 I/O failure, 2 usage error, 3 numerical error.  The parser
checks only syntax; every range rule (dimensions, alpha, delta, trials,
seed) is the library's, whose ValueError becomes exit code 2 with its
message, before any output file is written.
"""
from __future__ import annotations

import argparse
import functools
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


def _add_ints(sub, *names):
    """One required integer flag per name; its range rule is the library's."""
    for name in names:
        sub.add_argument(f"--{name}", type=int, required=True)


def _add_problem_flags(sub, with_q: bool):
    sub.add_argument("--n", type=int, required=True, help="ambient dimension")
    sub.add_argument("--d", type=int, required=True, help="subspace dimension")
    if with_q:
        sub.add_argument("--q", type=int, required=True, help="observed entries per step")
    sub.add_argument(
        "--alpha", type=float, default=ProblemSpec.alpha, help="step fudge factor in (0,2)"
    )
    sub.add_argument("--iters", type=int, required=True, help="number of iterations")
    sub.add_argument("--seed", type=int, required=True, help="base seed (mandatory)")
    sub.add_argument(
        "--init_noise_std", type=float, default=ProblemSpec.init_noise_std,
        help="starting-basis noise std",
    )
    sub.add_argument("--spec_out", default=None, help="also write the run-spec file here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouse",
        description="Incremental subspace identification runs and validators",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    # every verb, like the top level, takes its flags only as spelled in full
    add_verb = functools.partial(subs.add_parser, allow_abbrev=False)

    full = add_verb("full", help="full-data run (every entry observed)")
    _add_problem_flags(full, with_q=False)
    full.add_argument("--out", required=True, help="trajectory CSV path")

    partial = add_verb("partial", help="partial-data gated run")
    _add_problem_flags(partial, with_q=True)
    partial.add_argument("--bypass_gate", action="store_true", help="take every step")
    partial.add_argument("--out", required=True, help="trajectory CSV path")

    sweep = add_verb("sweep", help="phase-transition sweep over (n, d, q)")
    sweep.add_argument("--n", type=_int_list, required=True, help="comma-separated n values")
    sweep.add_argument("--d", type=_int_list, required=True, help="comma-separated d values")
    sweep.add_argument("--q", type=_int_list, required=True, help="comma-separated q values")
    sweep.add_argument("--trials", type=int, default=10, help="trials per cell")
    sweep.add_argument("--iters", type=int, default=500)
    sweep.add_argument("--seed", type=int, required=True)
    sweep.add_argument("--alpha", type=float, default=ProblemSpec.alpha)
    sweep.add_argument("--init_noise_std", type=float, default=ProblemSpec.init_noise_std)
    sweep.add_argument("--bypass_gate", action="store_true", help="take every step")
    sweep.add_argument("--out", required=True, help="sweep CSV path")

    conc = add_verb("validate-concentration", help="sampled-Gram eigenvalue window check")
    _add_ints(conc, "n", "d", "omega_size")
    conc.add_argument("--delta", type=float, required=True)
    _add_ints(conc, "trials", "seed")
    conc.add_argument("--out", required=True, help="per-trial report CSV path")

    resid = add_verb("validate-residual", help="sampled-residual lower bound check")
    _add_ints(resid, "n", "d")
    resid.add_argument("--epsilon", type=float, required=True, help="pair error metric")
    _add_ints(resid, "omega_size")
    resid.add_argument("--delta", type=float, required=True)
    _add_ints(resid, "trials", "seed")
    resid.add_argument("--out", required=True, help="per-trial report CSV path")

    expect = add_verb("validate-expectation", help="E[sin^2 theta] = epsilon/d check")
    _add_ints(expect, "n", "d")
    expect.add_argument("--epsilon", type=float, required=True, help="pair error metric")
    _add_ints(expect, "trials", "seed")
    expect.add_argument("--out", required=True, help="summary CSV path")

    skip = add_verb("skip-rate", help="gate failure rate on algorithm-mode samples")
    _add_ints(skip, "n", "d", "q", "trials", "seed")
    skip.add_argument(
        "--epsilon", type=float, default=1e-4,
        help="error metric of the near-solution basis",
    )
    skip.add_argument("--out", required=True, help="summary CSV path")

    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse argv into a command; syntax errors exit with 2."""
    return build_parser().parse_args(argv)


def execute(cmd: argparse.Namespace) -> int:
    """Run one parsed command, write its CSV, print a one-line summary."""
    try:
        if cmd.verb in ("full", "partial"):
            spec = ProblemSpec(
                n=cmd.n, d=cmd.d, q=getattr(cmd, "q", "full"), iters=cmd.iters, seed=cmd.seed,
                alpha=cmd.alpha, init_noise_std=cmd.init_noise_std,
            )
            if cmd.verb == "full":
                result = run_full_trial(spec)
                last = f"tail_slope={_fmt(result.tail_slope)}"
            else:
                result = run_partial_trial(spec, bypass_gate=cmd.bypass_gate)
                last = f"gate_skips={result.gate_skips}"
            write_trajectory_csv(cmd.out, result)
            if cmd.spec_out:
                write_problem_spec(cmd.spec_out, spec)
            print(f"final epsilon={_fmt(result.epsilons[-1])} X={_fmt(result.x_factor)} {last}")
        elif cmd.verb == "sweep":
            cells = sweep_phase(
                cmd.n, cmd.d, cmd.q,
                trials_per_cell=cmd.trials, iters=cmd.iters, seed=cmd.seed,
                bypass_gate=cmd.bypass_gate, alpha=cmd.alpha,
                init_noise_std=cmd.init_noise_std,
            )
            write_sweep_csv(cmd.out, cells)
            feasible = [c.mean_x for c in cells if c.trials > 0]
            lo, hi = min(feasible, default=None), max(feasible, default=None)
            print(f"cells={len(cells)} mean_X_range=[{_fmt(lo)},{_fmt(hi)}]")
        elif cmd.verb == "validate-concentration":
            u = incoherent_basis(cmd.n, cmd.d, cmd.seed)
            report = validate_gram_concentration(
                u, cmd.omega_size, cmd.delta, cmd.trials, cmd.seed
            )
            write_concentration_csv(cmd.out, report)
            print(
                f"failure_rate={_fmt(report.failure_rate)}"
                f" gamma={_fmt(report.gamma)} hypothesis_met={report.hypothesis_met}"
            )
        elif cmd.verb == "validate-residual":
            u, ubar = pair_with_epsilon(cmd.n, cmd.d, cmd.epsilon, cmd.seed)
            report = validate_residual_bound(
                u, ubar, cmd.omega_size, cmd.delta, cmd.trials, cmd.seed
            )
            write_residual_csv(cmd.out, report)
            print(f"violation_rate={_fmt(report.violation_rate)}")
        elif cmd.verb == "validate-expectation":
            u, ubar = pair_with_epsilon(cmd.n, cmd.d, cmd.epsilon, cmd.seed)
            mean, stderr = validate_sin_sq_expectation(u, ubar, cmd.trials, cmd.seed)
            target = cmd.epsilon / cmd.d
            _write_table(cmd.out, _EXPECTATION, [[cmd.trials], [mean], [stderr], [target]])
            print(f"mean={_fmt(mean)} stderr={_fmt(stderr)} target={_fmt(target)}")
        elif cmd.verb == "skip-rate":
            u, ubar = pair_with_epsilon(cmd.n, cmd.d, cmd.epsilon, cmd.seed)
            rate = estimate_skip_rate(u, cmd.q, cmd.trials, cmd.seed)
            _write_table(cmd.out, _SKIP_RATE, [[cmd.n], [cmd.d], [cmd.q], [cmd.trials], [rate]])
            print(f"skip_rate={_fmt(rate)}")
        else:  # pragma: no cover - argparse enforces the verb set
            return 2
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
