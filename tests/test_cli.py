import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grouse import cli
from grouse.concentration import (
    _CONCENTRATION,
    _RESIDUAL,
    estimate_skip_rate,
    read_concentration_csv,
    read_residual_csv,
    validate_gram_concentration,
    validate_residual_bound,
    validate_sin_sq_expectation,
)
from grouse.linalg import NumericalError, _one_blas_thread
from grouse.harness import (
    ProblemSpec,
    _observation_stream,
    generate_problem,
    incoherent_basis,
    pair_with_epsilon,
    read_problem_spec,
    read_sweep_csv,
    run_full_trial,
    run_partial_trial,
    sweep_phase,
    write_problem_spec,
    write_sweep_csv,
)
from grouse.partial_data import Observation, read_observations, run_stream, write_observations
from grouse.results import _read_table, _write_table, read_trajectory_csv, write_trajectory_csv


def run_cli(argv):
    return cli.execute(cli.parse_args(argv))


def test_parse_full_command():
    cmd = cli.parse_args(
        ["full", "--n", "10000", "--d", "10", "--iters", "500", "--seed", "7", "--out", "run.csv"]
    )
    assert cmd.verb == "full" and cmd.n == 10000 and cmd.seed == 7
    assert cmd.alpha == 1.0 and cmd.init_noise_std == 0.5


def test_parse_rejects_q_below_d(tmp_path, capsys):
    code = run_cli(
        ["partial", "--n", "5000", "--d", "10", "--q", "5", "--iters", "10",
         "--seed", "1", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "d <= q <= n" in capsys.readouterr().err


def test_parse_rejects_d_not_less_than_n(tmp_path, capsys):
    code = run_cli(
        ["full", "--n", "10", "--d", "10", "--iters", "5", "--seed", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "0 < d < n" in capsys.readouterr().err


def test_parse_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(
            ["full", "--n", "100", "--d", "5", "--iters", "5", "--seed", "1",
             "--out", "x.csv", "--frobnicate", "3"]
        )
    assert exc.value.code == 2


def test_parse_requires_seed():
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["full", "--n", "100", "--d", "5", "--iters", "5", "--out", "x.csv"])
    assert exc.value.code == 2


def test_parse_sweep_grid_lists():
    cmd = cli.parse_args(
        ["sweep", "--n", "1000,2000", "--d", "10", "--q", "20,40,80",
         "--trials", "10", "--iters", "500", "--seed", "1", "--out", "x.csv"]
    )
    assert cmd.n == [1000, 2000] and cmd.d == [10] and cmd.q == [20, 40, 80]
    # cartesian expansion: 2 * 1 * 3 = 6 cells


@pytest.mark.parametrize("q", ["", ",", "3,,30", "30,", ",30"])
def test_sweep_grid_lists_reject_empty_items(tmp_path, capsys, q):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(
            ["sweep", "--n", "60", "--d", "3", "--q", q, "--trials", "1", "--iters", "5",
             "--seed", "1", "--out", str(out)]
        )
    assert exc.value.code == 2
    assert "expected comma-separated integers" in capsys.readouterr().err
    assert not out.exists()


def test_full_run_d1_reports_tiny_epsilon(tmp_path, capsys):
    out = tmp_path / "d1.csv"
    code = run_cli(
        ["full", "--n", "100", "--d", "1", "--iters", "2", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("final epsilon=")
    final_eps = float(line.split()[1].split("=")[1])
    assert final_eps <= 1e-20
    result = read_trajectory_csv(out)
    assert len(result.epsilons) == 3


def test_validate_expectation_identical_spans(tmp_path, capsys):
    out = tmp_path / "expect.csv"
    code = run_cli(
        ["validate-expectation", "--n", "50", "--d", "5", "--epsilon", "0",
         "--trials", "400", "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    line = capsys.readouterr().out
    mean = float(line.split()[0].split("=")[1])
    assert mean <= 1e-20


def test_repeated_invocations_identical_files(tmp_path):
    args = ["partial", "--n", "200", "--d", "4", "--q", "50", "--iters", "60",
            "--seed", "11", "--out", ""]
    digests = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}.csv"
        args[-1] = str(out)
        assert run_cli(list(args)) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_trajectory_round_trip_precision(tmp_path):
    out = tmp_path / "traj.csv"
    assert run_cli(
        ["partial", "--n", "150", "--d", "3", "--q", "40", "--iters", "40",
         "--seed", "13", "--out", str(out)]
    ) == 0
    from grouse.harness import ProblemSpec, run_partial_trial

    reference = run_partial_trial(ProblemSpec(n=150, d=3, q=40, iters=40, seed=13))
    parsed = read_trajectory_csv(out)
    assert np.array_equal(parsed.epsilons, reference.epsilons)
    assert np.array_equal(parsed.norm_r, reference.norm_r)
    assert np.array_equal(parsed.norm_p, reference.norm_p)
    ok = np.isfinite(reference.theta)
    assert np.array_equal(parsed.theta[ok], reference.theta[ok])


def _angle_free_trial(spec, with_target):
    # observations without their latent coefficients reveal no angle: theta is NaN
    ubar, u0 = generate_problem(spec)
    stream = (Observation(spec.n, omega, values) for omega, values, _ in _observation_stream(spec, ubar))
    return run_stream(u0, stream, alpha=spec.alpha, ubar=ubar if with_target else None)


@pytest.mark.parametrize(
    "run, spec",
    [
        (run_partial_trial, ProblemSpec(n=150, d=3, q=40, iters=40, seed=13)),
        (partial(run_partial_trial, bypass_gate=True), ProblemSpec(n=500, d=10, q=12, iters=200, seed=0)),
        (run_full_trial, ProblemSpec(n=40, d=1, q="full", iters=30, seed=3)),
        (partial(_angle_free_trial, with_target=True), ProblemSpec(n=150, d=3, q=40, iters=40, seed=13)),
        (partial(_angle_free_trial, with_target=False), ProblemSpec(n=150, d=3, q=40, iters=40, seed=13)),
    ],
    ids=["gated", "bypassed", "full", "gated-nan-theta", "no-target"],
)
def test_trajectory_round_trip_every_field(tmp_path, run, spec):
    result = run(spec)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, result)
    back = read_trajectory_csv(path)
    assert back.gate_skips == result.gate_skips
    assert (back.epsilons is None) == (result.epsilons is None)
    for name in ("epsilons", "gate_passed", "taken", "norm_r", "norm_p", "theta"):
        if getattr(result, name) is not None:
            ours, theirs = getattr(back, name), getattr(result, name)
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
    # the file carries the columns only: the x_factor and tail_slope that the
    # run_*_trial functions attach read back as None
    assert back.x_factor is None and back.tail_slope is None
    # write -> read -> write reproduces the file byte for byte
    again = tmp_path / "again.csv"
    write_trajectory_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_read_trajectory_csv_rejects_malformed_files(tmp_path, malform_table):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, run_partial_trial(ProblemSpec(n=60, d=3, q=20, iters=5, seed=1)))
    malform_table(path)
    with pytest.raises(ValueError):
        read_trajectory_csv(path)


@pytest.mark.parametrize(
    "rows",
    [
        ["0,0.5,,,,,", "1,0.5,1,0,0.1,0.2,", "7,0.5,0,0,0.0,0.0,"],
        ["0,0.5,,,,,", "1,0.5,1,0,0.1,0.2,", "1,0.5,0,0,0.0,0.0,"],
        ["0,0.5,,,,,", "x,0.5,1,0,0.1,0.2,"],
        ["0,0.5,,,,,", "1,0.5,2,0,0.1,0.2,"],
        ["0,0.5,,,,,", "1,0.5,1,-1,0.1,0.2,"],
        ["0,0.5,1,,,,", "1,0.5,1,0,0.1,0.2,"],
        # an absent value is an empty cell, never nan text
        ["0,0.5,,,,,", "1,0.5,1,0,0.1,0.2,nan"],
        ["0,NaN,,,,,", "1,0.5,1,0,0.1,0.2,"],
    ],
    ids=[
        "t-skips", "t-repeats", "t-not-integer", "gate_passed-2", "taken-minus-1", "step-cell-at-t0",
        "theta-nan-text", "epsilon-NaN-text",
    ],
)
def test_read_trajectory_csv_rejects_bad_flags_and_t(tmp_path, rows):
    path = tmp_path / "traj.csv"
    path.write_text("\n".join(["t,epsilon,gate_passed,taken,norm_r,norm_p,theta", *rows]) + "\n")
    with pytest.raises(ValueError):
        read_trajectory_csv(path)


@pytest.mark.parametrize("verb, schema", [("validate-expectation", cli._EXPECTATION), ("skip-rate", cli._SKIP_RATE)])
def test_summary_csv_round_trip(tmp_path, verb, schema):
    path = tmp_path / "summary.csv"
    assert run_cli([*_VALID_ARGV[verb], "--out", str(path)]) == 0
    # write -> read -> write reproduces the file byte for byte
    again = tmp_path / "again.csv"
    _write_table(again, schema, _read_table(path, schema))
    assert again.read_bytes() == path.read_bytes()


def test_spec_out_round_trip(tmp_path):
    out = tmp_path / "t.csv"
    spec_out = tmp_path / "run.spec"
    assert run_cli(
        ["partial", "--n", "120", "--d", "3", "--q", "30", "--iters", "10",
         "--seed", "17", "--out", str(out), "--spec_out", str(spec_out)]
    ) == 0
    from grouse.harness import read_problem_spec

    spec = read_problem_spec(spec_out)
    assert (spec.n, spec.d, spec.q, spec.iters, spec.seed) == (120, 3, 30, 10, 17)


def test_skip_rate_command(tmp_path, capsys):
    out = tmp_path / "skip.csv"
    code = run_cli(
        ["skip-rate", "--n", "400", "--d", "5", "--q", "120", "--trials", "200",
         "--seed", "19", "--out", str(out)]
    )
    assert code == 0
    assert "skip_rate=" in capsys.readouterr().out
    assert out.exists()


def test_sweep_command_writes_cells(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        ["sweep", "--n", "60", "--d", "3", "--q", "3,30", "--trials", "2",
         "--iters", "25", "--seed", "21", "--out", str(out)]
    )
    assert code == 0
    from grouse.harness import read_sweep_csv

    cells = read_sweep_csv(out)
    assert len(cells) == 2


def test_validate_concentration_command(tmp_path, capsys):
    out = tmp_path / "conc.csv"
    code = run_cli(
        ["validate-concentration", "--n", "200", "--d", "4", "--omega_size", "80",
         "--delta", "0.1", "--trials", "100", "--seed", "23", "--out", str(out)]
    )
    assert code == 0
    assert "failure_rate=" in capsys.readouterr().out
    from grouse.concentration import read_concentration_csv

    eig_min, eig_max, in_window = read_concentration_csv(out)
    assert len(eig_min) == 100 and np.all(eig_min <= eig_max)


def test_validate_residual_command(tmp_path, capsys):
    out = tmp_path / "resid.csv"
    code = run_cli(
        ["validate-residual", "--n", "200", "--d", "4", "--epsilon", "1e-4",
         "--omega_size", "500", "--delta", "0.1", "--trials", "50",
         "--seed", "25", "--out", str(out)]
    )
    assert code == 0
    assert "violation_rate=" in capsys.readouterr().out
    from grouse.concentration import read_residual_csv

    lhs, rhs, violated = read_residual_csv(out)
    assert len(lhs) == 50 and violated.dtype == bool


def test_io_failure_exit_code(tmp_path):
    code = run_cli(
        ["full", "--n", "50", "--d", "2", "--iters", "3", "--seed", "1",
         "--out", str(tmp_path / "missing_dir" / "x.csv")]
    )
    assert code == 1


def test_numerical_error_exit_code(monkeypatch, tmp_path, capsys):
    def boom(spec, **kwargs):
        raise NumericalError("gate bypassed on singular sample")

    monkeypatch.setattr(cli, "run_full_trial", boom)
    code = run_cli(
        ["full", "--n", "50", "--d", "2", "--iters", "3", "--seed", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3
    assert "gate bypassed on singular sample" in capsys.readouterr().err


_VALID_ARGV = {
    "full": ["full", "--n", "50", "--d", "2", "--iters", "3", "--seed", "1"],
    "partial": ["partial", "--n", "50", "--d", "2", "--q", "20", "--iters", "3", "--seed", "1"],
    "sweep": ["sweep", "--n", "60", "--d", "3", "--q", "30", "--trials", "1", "--iters", "5",
              "--seed", "1"],
    "validate-concentration": ["validate-concentration", "--n", "200", "--d", "4",
                               "--omega_size", "80", "--delta", "0.1", "--trials", "10",
                               "--seed", "1"],
    "validate-residual": ["validate-residual", "--n", "200", "--d", "4", "--epsilon", "1e-4",
                          "--omega_size", "80", "--delta", "0.1", "--trials", "10", "--seed", "1"],
    "validate-expectation": ["validate-expectation", "--n", "50", "--d", "5", "--epsilon", "0.1",
                             "--trials", "10", "--seed", "1"],
    "skip-rate": ["skip-rate", "--n", "200", "--d", "4", "--q", "40", "--trials", "10",
                  "--seed", "1"],
}


@pytest.mark.parametrize(
    "row",
    [
        "full --alpha 3",
        "full --init_noise_std -1",
        "full --seed -1",
        "partial --alpha 0",
        "sweep --alpha 2.5",
        "sweep --trials 0",
        "validate-concentration --omega_size 0",
        "validate-concentration --trials 0",
        "validate-concentration --delta 0",
        "validate-residual --trials 0",
        "validate-residual --omega_size 3",
        "validate-residual --omega_size 4",
        "validate-expectation --trials 1",
        "skip-rate --trials 0",
    ],
)
def test_bad_value_exits_2(tmp_path, capsys, row):
    verb, *bad = row.split()
    # the valid invocation succeeds; repeating a flag later overrides it
    assert run_cli(_VALID_ARGV[verb] + ["--out", str(tmp_path / "ok.csv")]) == 0
    capsys.readouterr()
    out = tmp_path / "bad.csv"
    assert run_cli(_VALID_ARGV[verb] + bad + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("grouse: error:")
    assert not out.exists()


def test_every_verb_runs_without_scipy_linalg(tmp_path):
    # grouse loads scipy's compiled LAPACK and BLAS modules, not the scipy
    # package or the scipy.linalg package, whose __init__ loads numpy.f2py
    code = (
        "import json, sys\n"
        "from grouse import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, sorted({'scipy', 'scipy.linalg', 'numpy.f2py'} & set(sys.modules)))"
    )
    runs = [argv + ["--out", str(tmp_path / f"{verb}.csv")] for verb, argv in _VALID_ARGV.items()]
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert proc.stdout.splitlines()[-1] == f"{[0] * len(runs)} []"


@pytest.mark.parametrize(
    "verb, flag, abbreviated",
    [
        ("full", "--seed", "--se"),
        ("partial", "--iters", "--it"),
        ("sweep", "--trials", "--tri"),
        ("validate-concentration", "--omega_size", "--omega"),
        ("validate-residual", "--epsilon", "--eps"),
        ("validate-expectation", "--trials", "--tr"),
        ("skip-rate", "--trials", "--tr"),
    ],
)
def test_subcommands_reject_abbreviated_flags(tmp_path, verb, flag, abbreviated):
    out = tmp_path / "x.csv"
    argv = _VALID_ARGV[verb] + ["--out", str(out)]
    assert flag in argv
    with pytest.raises(SystemExit) as exc:
        run_cli([abbreviated if arg == flag else arg for arg in argv])
    assert exc.value.code == 2
    assert not out.exists()


def test_sweep_cell_with_d_not_below_n_is_marker_row(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(
        ["sweep", "--n", "60", "--d", "70", "--q", "30", "--trials", "2", "--iters", "5",
         "--seed", "1", "--out", str(out)]
    ) == 0
    from grouse.harness import read_sweep_csv

    (cell,) = read_sweep_csv(out)
    assert (cell.n, cell.d, cell.q, cell.trials) == (60, 70, 30, 0)
    assert np.isnan(cell.mean_x) and np.isnan(cell.std_x)


_RUN_FLAGS = {"n", "d", "alpha", "iters", "seed", "init_noise_std", "spec_out", "out"}

# The flags each verb's --help lists, --help itself aside.
_VERB_FLAGS = {
    "full": _RUN_FLAGS,
    "partial": _RUN_FLAGS | {"q", "bypass_gate"},
    "sweep": {"n", "d", "q", "trials", "iters", "seed", "alpha", "init_noise_std",
              "bypass_gate", "out"},
    "validate-concentration": {"n", "d", "omega_size", "delta", "trials", "seed", "out"},
    "validate-residual": {"n", "d", "epsilon", "omega_size", "delta", "trials", "seed", "out"},
    "validate-expectation": {"n", "d", "epsilon", "trials", "seed", "out"},
    "skip-rate": {"n", "d", "q", "trials", "seed", "epsilon", "out"},
}


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "grouse" in text
    assert all(verb in text for verb in _VERB_FLAGS)
    for verb, flags in _VERB_FLAGS.items():
        with pytest.raises(SystemExit) as exc:
            cli.parse_args([verb, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--(\w+)", capsys.readouterr().out))
        assert listed == flags | {"help"}, verb


def _cli_at_blas_threads(argv, threads, out) -> str:
    """Run ``grouse <argv> --out <out>`` in a child process at this OpenBLAS thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "grouse.cli", *argv.split(), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        # n d^2 above _EXACT_EPS_LIMIT: epsilon from the maintained U^T ubar product
        "full --n 1500 --d 40 --iters 300 --seed 7",
        "full --n 2000 --d 10 --iters 300 --seed 7",
        # q=40 > n=30 is an infeasible marker cell
        "sweep --n 30,200 --d 3 --q 3,12,40 --trials 3 --iters 60 --seed 18",
        # trials past two workers' fork floor: the residual report comes from
        # forked workers, the Gram-window report from one in-process loop
        "validate-residual --n 200 --d 4 --epsilon 1e-4 --omega_size 300 --delta 0.1"
        " --trials 1201 --seed 19",
        "validate-concentration --n 200 --d 4 --omega_size 80 --delta 0.1 --trials 1201 --seed 20",
    ],
)
def test_outputs_do_not_depend_on_the_blas_thread_count(argv, tmp_path):
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert _cli_at_blas_threads(argv, 1, one) == _cli_at_blas_threads(argv, 2, two)
    assert one.read_bytes() == two.read_bytes()


def _spelled(x) -> str:
    """A summary value as the CLI prints it: its repr, or na where it does not exist."""
    return "na" if x is None else repr(float(x))


def _run_line(result, last) -> str:
    return f"final epsilon={_spelled(result.epsilons[-1])} X={_spelled(result.x_factor)} {last}"


def _full_line(spec):
    result = run_full_trial(spec)
    return _run_line(result, f"tail_slope={_spelled(result.tail_slope)}")


def _partial_line(spec, bypass_gate):
    result = run_partial_trial(spec, bypass_gate=bypass_gate)
    return _run_line(result, f"gate_skips={result.gate_skips}")


def _sweep_line(*grid, **kwargs):
    cells = sweep_phase(*grid, **kwargs)
    feasible = [c.mean_x for c in cells if c.trials > 0]
    lo, hi = min(feasible, default=None), max(feasible, default=None)
    return f"cells={len(cells)} mean_X_range=[{_spelled(lo)},{_spelled(hi)}]"


def _concentration_line(n, d, omega_size, delta, trials, seed):
    report = validate_gram_concentration(incoherent_basis(n, d, seed), omega_size, delta, trials, seed)
    return (
        f"failure_rate={_spelled(report.failure_rate)} gamma={_spelled(report.gamma)}"
        f" hypothesis_met={report.hypothesis_met}"
    )


def _residual_line(n, d, epsilon, omega_size, delta, trials, seed):
    u, ubar = pair_with_epsilon(n, d, epsilon, seed)
    report = validate_residual_bound(u, ubar, omega_size, delta, trials, seed)
    return f"violation_rate={_spelled(report.violation_rate)}"


def _expectation_line(n, d, epsilon, trials, seed):
    u, ubar = pair_with_epsilon(n, d, epsilon, seed)
    mean, stderr = validate_sin_sq_expectation(u, ubar, trials, seed)
    return f"mean={_spelled(mean)} stderr={_spelled(stderr)} target={_spelled(epsilon / d)}"


def _skip_rate_line(n, d, q, trials, seed, epsilon):
    u, _ = pair_with_epsilon(n, d, epsilon, seed)
    return f"skip_rate={_spelled(estimate_skip_rate(u, q, trials, seed))}"


@pytest.mark.parametrize(
    "argv, expected",
    [
        # d=1 converges below the noise floor at once: no tail slope, "na"
        ("full --n 100 --d 1 --iters 2 --seed 3",
         partial(_full_line, ProblemSpec(n=100, d=1, q="full", iters=2, seed=3))),
        ("full --n 50 --d 2 --iters 20 --seed 1 --alpha 1.5",
         partial(_full_line, ProblemSpec(n=50, d=2, q="full", iters=20, seed=1, alpha=1.5))),
        ("partial --n 60 --d 3 --q 20 --iters 30 --seed 2",
         partial(_partial_line, ProblemSpec(n=60, d=3, q=20, iters=30, seed=2), False)),
        ("partial --n 60 --d 3 --q 12 --iters 30 --seed 2 --init_noise_std 0.3 --bypass_gate",
         partial(_partial_line, ProblemSpec(n=60, d=3, q=12, iters=30, seed=2, init_noise_std=0.3), True)),
        # q=40 > n=30 is an infeasible marker cell, left out of the range
        ("sweep --n 30,60 --d 3 --q 3,40 --trials 2 --iters 20 --seed 3",
         partial(_sweep_line, [30, 60], [3], [3, 40], trials_per_cell=2, iters=20, seed=3,
                 bypass_gate=False, alpha=1.0, init_noise_std=0.5)),
        ("sweep --n 30 --d 3 --q 40 --seed 3",
         partial(_sweep_line, [30], [3], [40], trials_per_cell=10, iters=500, seed=3,
                 bypass_gate=False, alpha=1.0, init_noise_std=0.5)),
        ("validate-concentration --n 200 --d 4 --omega_size 80 --delta 0.1 --trials 50 --seed 23",
         partial(_concentration_line, 200, 4, 80, 0.1, 50, 23)),
        ("validate-residual --n 200 --d 4 --epsilon 1e-4 --omega_size 300 --delta 0.1 --trials 40 --seed 25",
         partial(_residual_line, 200, 4, 1e-4, 300, 0.1, 40, 25)),
        ("validate-expectation --n 50 --d 5 --epsilon 0.05 --trials 100 --seed 4",
         partial(_expectation_line, 50, 5, 0.05, 100, 4)),
        ("skip-rate --n 200 --d 4 --q 40 --trials 30 --seed 5",
         partial(_skip_rate_line, 200, 4, 40, 30, 5, 1e-4)),
        ("skip-rate --n 200 --d 4 --q 40 --trials 30 --seed 5 --epsilon 1e-2",
         partial(_skip_rate_line, 200, 4, 40, 30, 5, 1e-2)),
    ],
    ids=["full-na", "full", "partial", "partial-bypassed", "sweep", "sweep-na", "validate-concentration",
         "validate-residual", "validate-expectation", "skip-rate", "skip-rate-epsilon"],
)
def test_summary_line_is_the_library_result(tmp_path, capsys, argv, expected):
    assert cli.main([*argv.split(), "--out", str(tmp_path / "out.csv")]) == 0
    with _one_blas_thread():
        line = expected()
    assert capsys.readouterr().out == line + "\n"


def test_readme_command_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```sh\n(.*?)```", section, re.S)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[0] for argv in commands] == ["grouse"] * len(commands)
    assert sorted(argv[1] for argv in commands) == sorted(_VERB_FLAGS)
    for argv in commands:
        assert cli.parse_args(argv[1:]).verb == argv[1]


# Bytes a mutation inserts or writes over: the cells' own alphabet and line
# ends most often, any byte otherwise.
_BYTES = st.sampled_from(b"0123456789.-+e_,;= \t\r\nfulnqx") | st.integers(0, 255)
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "replace", "pad line", "duplicate line", "drop line", "blank line"]),
        st.integers(0, 2**16),
        _BYTES,
    ),
    min_size=1,
    max_size=3,
)


def _mutated(data: bytes, edits) -> bytes:
    for kind, at, byte in edits:
        i = at % (len(data) + 1)
        if kind == "insert":
            data = data[:i] + bytes([byte]) + data[i:]
        elif kind in ("delete", "replace"):
            data = data[:i] + (bytes([byte]) if kind == "replace" else b"") + data[i + 1:]
        else:
            lines = data.splitlines(keepends=True) or [b""]
            j = at % len(lines)
            if kind == "pad line":
                # whitespace, which int() and float() strip, at the start of
                # the line or before its line end
                body = lines[j].rstrip(b"\r\n")
                at_end = len(body) if at % 2 else 0
                lines[j] = lines[j][:at_end] + bytes([b" \t\x0b\x0c"[byte % 4]]) + lines[j][at_end:]
            elif kind == "duplicate line":
                lines.insert(j, lines[j])
            elif kind == "drop line":
                del lines[j]
            else:
                lines.insert(j, (b"\n", b"\r\n", b" \n")[byte % 3])
            data = b"".join(lines)
    return data


def _spec_lines(path) -> bytes:
    """The spec file's lines as the line codec splits them, empty lines dropped, each ended by \\n."""
    return b"".join(line + b"\n" for line in path.read_bytes().splitlines() if line)


def _table_lines(path) -> bytes:
    """The table's lines as the line codec splits them, each ended by \\r\\n."""
    return b"".join(line + b"\r\n" for line in path.read_bytes().splitlines())


def _table(schema):
    """The reader and writer of one summary table."""
    return partial(_read_table, schema=schema), lambda path, columns: _write_table(path, schema, columns)


def _report(schema, read):
    """The reader of a per-trial report, and a writer of the columns it returns."""
    return read, lambda path, columns: _write_table(path, schema, [range(len(columns[0])), *columns])


def _run_cli(argv, path):
    assert cli.main([*argv, str(path)]) == 0


def _write_small_stream(path):
    rng = np.random.default_rng(3)
    write_observations(path, [
        Observation(20, np.sort(rng.choice(20, 6, replace=False)), rng.standard_normal(6)) for _ in range(4)
    ])


# Each file the fuzz test mutates: a function that writes it at a path, its
# reader and writer, and its lines as its reader sees them (None for the
# observation file, whose value elements need not be spelled as written).
_SUMMARY_FILES = {
    "spec-full": (partial(_run_cli, [*_VALID_ARGV["full"], "--out", os.devnull, "--spec_out"]),
                  read_problem_spec, write_problem_spec, _spec_lines),
    "spec-partial": (partial(_run_cli, [*_VALID_ARGV["partial"], "--out", os.devnull, "--spec_out"]),
                     read_problem_spec, write_problem_spec, _spec_lines),
    "validate-expectation": (partial(_run_cli, [*_VALID_ARGV["validate-expectation"], "--out"]),
                             *_table(cli._EXPECTATION), _table_lines),
    "skip-rate": (partial(_run_cli, [*_VALID_ARGV["skip-rate"], "--out"]), *_table(cli._SKIP_RATE), _table_lines),
    "trajectory": (partial(_run_cli, [*_VALID_ARGV["partial"], "--out"]),
                   read_trajectory_csv, write_trajectory_csv, _table_lines),
    "sweep": (partial(_run_cli, [*_VALID_ARGV["sweep"], "--out"]), read_sweep_csv, write_sweep_csv, _table_lines),
    "concentration": (partial(_run_cli, [*_VALID_ARGV["validate-concentration"], "--out"]),
                      *_report(_CONCENTRATION, read_concentration_csv), _table_lines),
    "residual": (partial(_run_cli, [*_VALID_ARGV["validate-residual"], "--out"]),
                 *_report(_RESIDUAL, read_residual_csv), _table_lines),
    "observations": (_write_small_stream, read_observations, write_observations, None),
}


@pytest.fixture(scope="module")
def summary_files(tmp_path_factory):
    """The bytes of each file in ``_SUMMARY_FILES``, as it is written, and a scratch directory."""
    work = tmp_path_factory.mktemp("summary")
    written = {}
    for name, (make, *_) in _SUMMARY_FILES.items():
        make(work / name)
        written[name] = (work / name).read_bytes()
    return written, work


def _observed(observations) -> list:
    return [(obs.n, obs.omega.tolist(), obs.values.tolist()) for obs in observations]


def _assert_rows_read_as_written(data: bytes, observations):
    """Each row of an observation file the reader accepted, in file order, against what it read.

    Row i's t is ``str(i)``, as the writer writes it.  n and every index
    element are plain digits that read as what was read (index + 1): the
    reader allows leading zeros there, so ``05`` is an n of 5.  Every value
    element is non-empty, holds no byte at or below the space and is not a
    bare sign.
    """
    rows = [line.split(b",") for line in data.splitlines() if line]
    assert len(rows) == len(observations)
    for i, ((t, n, indices, values), obs) in enumerate(zip(rows, observations)):
        assert t == str(i).encode()
        written = [n, *(indices.split(b";") if indices else [])]
        assert all(re.fullmatch(rb"[0-9]+", field) for field in written)
        assert list(map(int, written)) == [obs.n, *(obs.omega + 1).tolist()]
        elements = values.split(b";") if values else []
        assert len(elements) == len(obs.values)
        for element in elements:
            assert element and min(element) > ord(" ") and element not in (b"+", b"-")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edits=_EDITS)
@pytest.mark.parametrize("name", list(_SUMMARY_FILES))
def test_mutated_summary_files_are_rejected_or_read_exactly(summary_files, name, edits):
    # a mutant either raises ValueError or reads back to values whose
    # re-write is the mutant's own lines: nothing but a line end (or, in the
    # spec file, an empty line) is read other than as written.  An
    # observation file's re-write reads back to the same arrays instead, and
    # its rows hold what was read, the value elements in any finite spelling.
    written, work = summary_files
    _, read, write, lines = _SUMMARY_FILES[name]
    mutant, again = work / f"{name}.mutant", work / f"{name}.again"
    mutant.write_bytes(_mutated(written[name], edits))
    try:
        values = read(mutant)
    except ValueError:
        return
    write(again, values)
    if lines is None:
        assert _observed(read(again)) == _observed(values)
        _assert_rows_read_as_written(mutant.read_bytes(), values)
    else:
        assert again.read_bytes() == lines(mutant)
