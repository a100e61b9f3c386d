import math
import warnings

import numpy as np
import pytest

from grouse import cli, harness, partial_data
from grouse.harness import (
    ProblemSpec,
    _child_seed,
    _observation_stream,
    fit_x,
    generate_problem,
    incoherent_basis,
    pair_with_epsilon,
    random_basis,
    read_problem_spec,
    read_sweep_csv,
    run_full_trial,
    run_partial_trial,
    sweep_phase,
    tail_slope,
    write_problem_spec,
    write_sweep_csv,
)
from grouse.concentration import mu_xt_diagnostics, validate_sin_sq_expectation
from grouse.full_data import full_step, predicted_decrease, run_full
from grouse.linalg import NumericalError, _one_blas_thread, _openblas_thread_controls
from grouse.metrics import coherence_basis, epsilon, epsilon_residual
from grouse.partial_data import Observation, grouse_step


def test_problem_spec_validation():
    with pytest.raises(ValueError, match="0 < d < n"):
        ProblemSpec(n=10, d=10, q=10, iters=5, seed=0)
    with pytest.raises(ValueError, match="d <= q <= n"):
        ProblemSpec(n=100, d=10, q=5, iters=5, seed=0)
    with pytest.raises(ValueError, match="alpha"):
        ProblemSpec(n=100, d=10, q=20, iters=5, seed=0, alpha=2.0)
    with pytest.raises(ValueError, match="iters"):
        ProblemSpec(n=100, d=10, q=20, iters=0, seed=0)
    ProblemSpec(n=100, d=10, q="full", iters=5, seed=0)
    # a bool is an int, but its spec file line would not read back; a float
    # count (seed=1.5) would run as another value and read back unequal
    fields = dict(n=5, d=1, q=2, iters=1, seed=0)
    for name, bad in [
        ("n", True), ("d", True), ("q", True), ("iters", True), ("seed", False),
        ("n", 5.0), ("d", 1.0), ("q", 2.0), ("iters", 1.0), ("seed", 1.5), ("q", "2"),
    ]:
        kind = type(bad).__name__
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not a {kind}$"):
            ProblemSpec(**{**fields, name: bad})
    numpy_counts = {name: np.int64(value) for name, value in fields.items()}
    assert ProblemSpec(**numpy_counts) == ProblemSpec(**fields)


def test_generate_problem_noise_free_start():
    from grouse.metrics import epsilon_residual

    spec = ProblemSpec(n=60, d=4, q=20, iters=5, seed=7, init_noise_std=0.0)
    ubar, u0 = generate_problem(spec)
    assert np.array_equal(ubar.columns, u0.columns)
    assert epsilon_residual(u0, ubar) <= 1e-24


def test_generate_problem_determinism_and_spread():
    spec = ProblemSpec(n=200, d=6, q=50, iters=5, seed=8)
    ubar1, u01 = generate_problem(spec)
    ubar2, u02 = generate_problem(spec)
    assert np.array_equal(ubar1.columns, ubar2.columns)
    assert np.array_equal(u01.columns, u02.columns)
    eps0 = epsilon(u01, ubar1)
    assert 0.0 < eps0 < 6.0


def _record_bits(record) -> list:
    """Every bit of a record or report: its arrays' bytes and its other fields' reprs."""
    return [v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in vars(record).values()]


@pytest.mark.per_core
def test_library_runs_keep_their_bits_at_two_blas_threads():
    # OpenBLAS splits a product by its thread count, so generate_problem,
    # pair_with_epsilon, run_full, the single steps and the expectation and
    # coherence validators pin one thread for the whole call, and a caller
    # at two threads gets the bits of a pinned run (at these sizes an
    # unpinned call does not)
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread controls found")
    spec = ProblemSpec(n=5000, d=100, q="full", iters=1, seed=3)
    ubar, u0 = generate_problem(ProblemSpec(n=2000, d=50, q="full", iters=1, seed=4))
    target, start = generate_problem(spec)
    with _one_blas_thread():
        v = target.columns @ np.random.default_rng(4).standard_normal(spec.d)
    omega = np.sort(np.random.default_rng(5).choice(spec.n, size=spec.n // 2, replace=False))
    obs = Observation(n=spec.n, omega=omega, values=v[omega])
    with _one_blas_thread():
        near, near_target = pair_with_epsilon(5000, 100, 1e-2, 3)

    def runs():
        problem = generate_problem(spec)
        pair = pair_with_epsilon(5000, 100, 1e-4, 3)
        full = run_full(u0, ubar, 20, seed=4)
        stepped, record = full_step(start, v, target)
        moved, step = grouse_step(start, obs, ubar=target)
        return [b.columns.tobytes() for b in problem + pair] + [
            full.epsilons.tobytes(),
            full.theta.tobytes(),
            stepped.columns.tobytes(),
            moved.columns.tobytes(),
            *_record_bits(record),
            *_record_bits(step),
            repr(predicted_decrease(start, target, v, record.eta)),
            repr(validate_sin_sq_expectation(near, near_target, 400, 5)),
            *_record_bits(mu_xt_diagnostics(near, near_target, 50, 5)),
        ]

    with _one_blas_thread():
        pinned = runs()
    initial = [getter() for _, getter in controls]
    try:
        for setter, _ in controls:
            setter(2)
        threaded = runs()
        assert [getter() for _, getter in controls] == [2] * len(controls)
    finally:
        for (setter, _), count in zip(controls, initial):
            setter(count)
    assert threaded == pinned


def test_generate_problem_holds_at_most_three_basis_sized_arrays(traced_peak):
    # the target, the start formed in the noise's array, and one Fortran
    # workspace or Basis copy; the one-pass form held six at this shape
    n, d = 20000, 20
    # the first draw of a process imports numpy.random, about 0.7 MB of module objects
    generate_problem(ProblemSpec(n=4, d=2, q="full", iters=1, seed=5))
    peak = traced_peak(lambda: generate_problem(ProblemSpec(n=n, d=d, q="full", iters=1, seed=5)))
    assert peak <= 3.25 * n * d * 8


def test_pair_with_epsilon_exact_and_variants():
    for eps in (0.0, 1e-6, 0.3, 2.0):
        u, ubar = pair_with_epsilon(40, 4, eps, seed=9)
        assert np.isclose(epsilon(u, ubar), eps, atol=1e-10)
    ui, ubari = pair_with_epsilon(400, 5, 1e-3, seed=11, frame="incoherent")
    assert coherence_basis(ui) <= 2.5
    with pytest.raises(ValueError):
        pair_with_epsilon(7, 4, 0.1, seed=0)


def test_incoherent_basis_properties():
    u = incoherent_basis(300, 6, seed=12)
    assert np.linalg.norm(u.columns.T @ u.columns - np.eye(6)) <= 1e-10
    assert coherence_basis(u) <= 2.5


def test_fit_x_inverse_identities():
    assert fit_x(1e-3, 1e-3, 100, 5, 20, 50) == 0.0
    n, d, q, iters = 1000, 8, 40, 120
    eps0 = 0.7
    eps_n = eps0 * (1 - q / (n * d)) ** iters
    assert np.isclose(fit_x(eps0, eps_n, n, d, q, iters), 1.0, atol=1e-12)


def test_fit_x_documented_value():
    # independent arithmetic: X = (1 - 10**(-4/500)) * 1e4 * 10 / 1e2
    oracle = (1.0 - 10.0 ** (-4.0 / 500.0)) * 1e4 * 10 / 1e2
    assert np.isclose(fit_x(1e-2, 1e-6, 10_000, 10, 100, 500), oracle, atol=1e-12)
    assert np.isclose(oracle, 18.25205698001564, atol=1e-10)


def test_fit_x_divergence_and_errors():
    assert fit_x(1e-3, 2e-3, 100, 5, 20, 50) < 0.0
    # q=0 would divide by zero
    good = {"n": 100, "d": 5, "q": 20, "iters": 50}
    for name, bad in [("n", 100.0), ("d", 5.0), ("q", 20.0), ("iters", 50.0), ("q", 0), ("iters", 0)]:
        counts = {**good, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fit_x(1e-3, 2e-3, **counts)
    numpy_counts = {name: np.int32(value) for name, value in good.items()}
    assert fit_x(1e-3, 2e-3, **numpy_counts) == fit_x(1e-3, 2e-3, **good)
    with pytest.raises(ValueError):
        fit_x(0.0, 1e-3, 100, 5, 20, 50)
    with pytest.raises(ValueError):
        fit_x(1e-3, -1e-3, 100, 5, 20, 50)


def test_tail_slope_on_exact_geometric_decay():
    eps = 0.5 * np.exp(-0.07 * np.arange(200))
    assert np.isclose(tail_slope(eps), -0.07, atol=1e-12)
    # floored entries are discarded
    eps_floored = eps.copy()
    eps_floored[150:] = 1e-30
    assert np.isclose(tail_slope(eps_floored), -0.07, atol=1e-9)
    assert tail_slope(np.full(10, 1e-30)) is None


def test_tail_slope_takes_a_1d_trajectory():
    for bad in (np.ones((4, 4)), np.ones((1, 6)), 0.5):
        with pytest.raises(ValueError, match="^epsilons must be a 1-d trajectory$"):
            tail_slope(bad)
    # an empty trajectory has no slope, and NaN entries are dropped
    assert tail_slope([]) is None
    eps = 0.5 * np.exp(-0.07 * np.arange(20))
    with_nan = eps.copy()
    with_nan[[12, 17]] = np.nan
    kept = np.r_[eps[:12], [0.0], eps[13:17], [0.0], eps[18:]]
    assert tail_slope(with_nan) == tail_slope(kept)


def test_tail_slope_rejects_infinite_entries():
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="^epsilons must not be infinite$"):
            tail_slope([1.0, 0.5, bad, 0.1, 0.05])


def test_run_partial_trial_determinism():
    spec = ProblemSpec(n=300, d=5, q=60, iters=100, seed=21)
    a = run_partial_trial(spec)
    b = run_partial_trial(spec)
    assert np.array_equal(a.epsilons, b.epsilons)
    assert a.gate_skips == b.gate_skips
    assert a.x_factor == b.x_factor
    assert len(a.epsilons) == 101
    assert np.all(a.epsilons >= 0) and np.all(a.epsilons <= 5.0)


def test_run_partial_trial_noise_free_stays_converged():
    spec = ProblemSpec(n=100, d=4, q=30, iters=3, seed=22, init_noise_std=0.0)
    res = run_partial_trial(spec)
    assert np.all(res.epsilons <= 1e-24)


def test_full_and_partial_converge_at_full_sampling():
    seed = 23
    partial = run_partial_trial(ProblemSpec(n=150, d=4, q=150, iters=120, seed=seed))
    full = run_full_trial(ProblemSpec(n=150, d=4, q="full", iters=120, seed=seed))
    assert partial.epsilons[-1] < 1e-6 * partial.epsilons[0]
    assert full.epsilons[-1] < 1e-6 * full.epsilons[0]
    # identical generated problem underneath
    assert np.isclose(partial.epsilons[0], full.epsilons[0], rtol=1e-12)


def test_partial_trial_rejects_full_q():
    with pytest.raises(ValueError):
        run_partial_trial(ProblemSpec(n=100, d=4, q="full", iters=5, seed=0))


def test_run_full_trial_tail_slope_recorded():
    res = run_full_trial(ProblemSpec(n=400, d=4, q="full", iters=160, seed=24))
    assert res.tail_slope is not None and res.tail_slope < 0.0
    assert res.x_factor is not None


def test_partial_trial_large_q_reaches_plateau():
    # q = 8 d ceil(log2 d) = 320 for d=10: above the transition
    spec = ProblemSpec(n=5000, d=10, q=320, iters=500, seed=25)
    res = run_partial_trial(spec)
    assert res.x_factor >= 0.5


def test_sweep_phase_markers_and_determinism():
    cells_a = sweep_phase([60, 5], [4], [4, 20, 60], trials_per_cell=2, iters=40, seed=26)
    cells_b = sweep_phase([60, 5], [4], [4, 20, 60], trials_per_cell=2, iters=40, seed=26)
    # q = 20, 60 exceed n = 5: those two cells carry the skip marker
    marked = [c for c in cells_a if c.trials == 0]
    assert all(math.isnan(c.mean_x) for c in marked)
    assert len(marked) == 2
    for a, b in zip(cells_a, cells_b):
        assert (a.mean_x == b.mean_x) or (math.isnan(a.mean_x) and math.isnan(b.mean_x))


@pytest.mark.parametrize("q, bypass_gate", [(30, False), (15, True)])
def test_sweep_x_values_are_the_recorded_trials_x(q, bypass_gate):
    # sweep trials measure epsilon only at t=0 and t=N; X must be bitwise
    # the X of the trial that records every step
    n, d, trials, iters, seed = 200, 5, 3, 150, 41
    (cell,) = sweep_phase([n], [d], [q], trials, iters, seed, bypass_gate=bypass_gate)
    expected = []
    for trial in range(trials):
        spec = ProblemSpec(n=n, d=d, q=q, iters=iters, seed=_child_seed(seed, n, d, q, trial))
        x = run_partial_trial(spec, bypass_gate=bypass_gate).x_factor
        expected.append(np.nan if x is None else x)
    assert cell.x_values.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("bypass_gate", [False, True])
def test_sweep_workers_give_the_in_process_bits(see_one_cpu, tmp_path, bypass_gate):
    # n=5 makes the q=20 and q=60 cells infeasible markers between feasible ones
    args = ([60, 5, 200], [4], [4, 20, 60], 3, 40, 26)
    in_workers = sweep_phase(*args, bypass_gate=bypass_gate)
    write_sweep_csv(tmp_path / "workers.csv", in_workers)
    see_one_cpu()
    in_process = sweep_phase(*args, bypass_gate=bypass_gate)
    write_sweep_csv(tmp_path / "in_process.csv", in_process)
    assert [c.trials for c in in_process] == [3, 3, 3, 3, 0, 0, 3, 3, 3]
    for a, b in zip(in_workers, in_process, strict=True):
        assert (a.n, a.d, a.q, a.trials) == (b.n, b.d, b.q, b.trials)
        assert a.x_values.tobytes() == b.x_values.tobytes()
    assert (tmp_path / "workers.csv").read_bytes() == (tmp_path / "in_process.csv").read_bytes()


@pytest.mark.parametrize("in_process", [False, True])
def test_sweep_trial_error_reaches_the_caller(monkeypatch, see_one_cpu, tmp_path, capsys, in_process):
    # the forked workers inherit the patched module
    def singular(spec):
        raise NumericalError("singular trial")

    monkeypatch.setattr(harness, "generate_problem", singular)
    if in_process:
        see_one_cpu()
    with pytest.raises(NumericalError, match="^singular trial$") as exc:
        sweep_phase([60], [3], [10, 30], trials_per_cell=2, iters=5, seed=1)
    assert type(exc.value) is NumericalError
    out = tmp_path / "x.csv"
    argv = ["sweep", "--n", "60", "--d", "3", "--q", "10,30", "--trials", "2", "--iters", "5",
            "--seed", "1", "--out", str(out)]
    assert cli.main(argv) == 3
    assert not out.exists()
    assert capsys.readouterr().err == "numerical error: singular trial\n"


@pytest.mark.parametrize("bypass_gate, per_step", [(True, 0), (False, 1)])
def test_sweep_trial_evaluates_the_gate_only_when_it_decides(see_one_cpu, count_calls, bypass_gate, per_step):
    # a bypassed sweep trial keeps no verdict, so it evaluates no gate; a
    # gated one decides each step once, by _passes.  The calls are counted
    # in this process, so the trials must run here
    see_one_cpu()
    passes = count_calls(partial_data, "_passes")
    gates = count_calls(partial_data, "_gate")
    trials, iters = 2, 30
    sweep_phase([100], [4], [12], trials, iters, seed=3, bypass_gate=bypass_gate)
    assert len(passes) == per_step * trials * iters
    assert per_step or not gates


def test_recorded_bypassed_stream_evaluates_every_gate():
    # each recorded verdict is the gate's own, bypassed or not: a bypassed
    # stream takes every step and still records the bit
    spec = ProblemSpec(n=100, d=4, q=30, iters=40, seed=5)
    ubar, u0 = generate_problem(spec)
    stream = [Observation(spec.n, *draw) for draw in _observation_stream(spec, ubar)]
    for bypass_gate in (True, False):
        result = partial_data.run_stream(u0, stream, ubar=ubar, bypass_gate=bypass_gate)
        u, bits = u0, []
        for obs in stream:
            u, rec = partial_data.grouse_step(u, obs, ubar=ubar, bypass_gate=bypass_gate)
            bits.append(rec.gate.passed)
        assert result.gate_passed.tolist() == bits
        assert 0 < sum(bits) < len(bits)
        assert result.taken.all() if bypass_gate else result.taken.tolist() == bits


def test_harness_draws_are_in_the_checked_form(monkeypatch, count_calls):
    spec = ProblemSpec(n=300, d=5, q=20, iters=25, seed=8)
    ubar, _ = generate_problem(spec)
    calls = count_calls(Observation, "__post_init__")
    stream = list(_observation_stream(spec, ubar))
    # the harness streams bare arrays: drawing builds no Observation
    assert not calls
    monkeypatch.undo()
    assert len(stream) == spec.iters
    for draw in stream:
        omega, values, latent_s = draw
        assert omega.dtype == np.int64 and values.dtype == latent_s.dtype == np.float64
        checked = Observation(spec.n, *draw)
        # the checks convert nothing: the checked Observation holds the very same arrays
        assert checked.omega is omega and checked.values is values and checked.latent_s is latent_s


def test_sweep_phase_transition_shape_desk_scale():
    cells = sweep_phase([400], [4], [4, 120], trials_per_cell=3, iters=150, seed=27)
    below = next(c for c in cells if c.q == 4)
    above = next(c for c in cells if c.q == 120)
    assert above.mean_x > below.mean_x + 0.2
    assert below.mean_x <= 0.05  # interpolated samples make no progress


def test_sweep_csv_round_trip(tmp_path):
    # q=60 > n makes an infeasible cell with NaN statistics
    cells = sweep_phase([50], [3], [3, 25, 60], trials_per_cell=2, iters=30, seed=28)
    assert cells[-1].trials == 0
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, cells)
    back = read_sweep_csv(path)
    assert len(back) == len(cells)
    for a, b in zip(cells, back):
        assert (a.n, a.d, a.q, a.trials) == (b.n, b.d, b.q, b.trials)
        assert a.mean_x == b.mean_x or (math.isnan(a.mean_x) and math.isnan(b.mean_x))
        assert a.std_x == b.std_x or (math.isnan(a.std_x) and math.isnan(b.std_x))
    again = tmp_path / "again.csv"
    write_sweep_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_read_sweep_csv_rejects_malformed_files(tmp_path, malform_table):
    path = tmp_path / "sweep.csv"
    # q=25 gives the float-cell faults a finite X to rewrite; q=60 is infeasible
    write_sweep_csv(path, sweep_phase([50], [3], [25, 60], trials_per_cell=2, iters=30, seed=28))
    malform_table(path)
    with pytest.raises(ValueError):
        read_sweep_csv(path)


def test_problem_spec_file_round_trip(tmp_path):
    spec = ProblemSpec(n=123, d=7, q=31, iters=77, seed=5, alpha=0.75, init_noise_std=0.25)
    path = tmp_path / "run.spec"
    write_problem_spec(path, spec)
    assert read_problem_spec(path) == spec
    again = tmp_path / "again.spec"
    write_problem_spec(again, read_problem_spec(path))
    assert again.read_bytes() == path.read_bytes()
    full_spec = ProblemSpec(n=50, d=2, q="full", iters=10, seed=1)
    write_problem_spec(path, full_spec)
    assert read_problem_spec(path) == full_spec
    write_problem_spec(again, read_problem_spec(path))
    assert again.read_bytes() == path.read_bytes()
    text = path.read_text()
    for field in ("n=", "d=", "q=", "iters=", "seed=", "alpha=", "init_noise_std="):
        assert field in text


@pytest.mark.parametrize("extra", ["bogus=3\n", "bypass_gate=1\n", "seed=2\n", "n=123\n"])
def test_problem_spec_file_rejects_unknown_or_repeated_keys(tmp_path, extra):
    path = tmp_path / "run.spec"
    write_problem_spec(path, ProblemSpec(n=123, d=7, q=31, iters=77, seed=5))
    path.write_text(path.read_text() + extra)
    with pytest.raises(ValueError, match="unknown or repeated key"):
        read_problem_spec(path)


# Each line reads, stripped and by Python's int() or float(), as the written one.
@pytest.mark.parametrize(
    "line, written",
    [
        ("n = 500", "n=500"),
        ("n=5_00", "n=500"),
        ("q=+30", "q=30"),
        ("alpha=1", "alpha=1.0"),
        ("alpha=1e0", "alpha=1.0"),
        ("init_noise_std=.5", "init_noise_std=0.5"),
    ],
)
def test_problem_spec_file_rejects_values_not_as_written(tmp_path, line, written):
    path = tmp_path / "run.spec"
    write_problem_spec(path, ProblemSpec(n=500, d=7, q=30, iters=77, seed=5))
    text = path.read_text()
    assert f"{written}\n" in text
    path.write_text(text.replace(f"{written}\n", f"{line}\n"))
    with pytest.raises(ValueError):
        read_problem_spec(path)


# Lines that str.strip() empties but the line codec does not read as blank,
# and a line of a byte past ASCII (a UTF-8 no-break space, blank to
# str.strip() too): the spec file follows a table's line rules.
@pytest.mark.parametrize(
    "line", [b"\x0b", b"\x0c", b"\x1c", b"\x1f", b" ", b"\xc2\xa0"],
    ids=["vt", "ff", "fs", "us", "space", "non-ascii"],
)
def test_problem_spec_file_reads_lines_by_the_line_codec(tmp_path, line):
    path = tmp_path / "run.spec"
    write_problem_spec(path, ProblemSpec(n=500, d=7, q=30, iters=77, seed=5))
    data = path.read_bytes()
    assert b"d=7\n" in data
    path.write_bytes(data.replace(b"d=7\n", b"d=7\n" + line + b"\n"))
    with pytest.raises(ValueError):
        read_problem_spec(path)


def test_problem_spec_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        ProblemSpec(n=100, d=10, q=20, iters=5, seed=-1)


@pytest.mark.parametrize("std", [-1.0, math.nan, math.inf])
def test_problem_spec_rejects_bad_init_noise_std(std):
    with pytest.raises(ValueError, match="init_noise_std must be finite and nonnegative"):
        ProblemSpec(n=100, d=10, q=20, iters=5, seed=0, init_noise_std=std)


@pytest.mark.parametrize("d", [0, -1, 30])
def test_random_basis_requires_d_between_zero_and_n(d):
    with pytest.raises(ValueError, match="0 < d < n"):
        random_basis(30, d, seed=0)


def test_pair_with_epsilon_requires_positive_d():
    with pytest.raises(ValueError, match="d >= 1"):
        pair_with_epsilon(40, 0, 0.0, seed=0)


def test_pair_with_epsilon_rejects_an_unknown_frame_or_split():
    with pytest.raises(ValueError, match='^frame must be "gaussian" or "incoherent"$'):
        pair_with_epsilon(10, 2, 0.1, 0, frame="x")


def test_incoherent_pair_needs_one_harmonic_more_than_2d():
    # 2d distinct harmonics from the n - 1 nonconstant ones: n = 2d is one short
    with pytest.raises(ValueError, match=r"incoherent frame needs n >= 2d \+ 1"):
        pair_with_epsilon(4, 2, 0.1, 0, frame="incoherent")
    u, ubar = pair_with_epsilon(5, 2, 0.1, 0, frame="incoherent")
    assert np.isclose(epsilon(u, ubar), 0.1, atol=1e-12)
    # the gaussian frame still takes n = 2d
    pair_with_epsilon(4, 2, 0.1, 0)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_pair_with_epsilon_reaches_eps_d(d):
    # at eps = d every sine is 1, so the split has no room left to
    # redistribute into; n = 4d + 2 at seeds 0-3 takes that path for each d
    for seed in range(4):
        for frame in ("gaussian", "incoherent"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                u, ubar = pair_with_epsilon(4 * d + 2, d, d, seed, frame=frame)
            assert abs(epsilon_residual(u, ubar) - d) <= 1e-12


@pytest.mark.parametrize("make", [random_basis, incoherent_basis, pair_with_epsilon])
@pytest.mark.parametrize(
    "name, bad", [("n", 40.0), ("d", 2.0), ("seed", 1.5), ("seed", -1), ("d", True)]
)
def test_basis_makers_take_integer_counts(make, name, bad):
    args = {"n": 40, "d": 2, "seed": 3, name: bad}
    call = (lambda n, d, seed: make(n, d, 0.1, seed)[0]) if make is pair_with_epsilon else make
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(**args)
    # numpy integers are counts, and give the same basis
    same = call(n=np.int64(40), d=np.int32(2), seed=np.uint16(3))
    assert np.array_equal(same.columns, call(n=40, d=2, seed=3).columns)


def test_sweep_phase_rejects_nonpositive_trials():
    with pytest.raises(ValueError, match="trials_per_cell must be at least 1"):
        sweep_phase([60], [3], [30], trials_per_cell=0, iters=5, seed=0)


def test_sweep_phase_checks_run_settings_without_feasible_cells():
    # d >= n makes the only cell a marker; the settings are still checked
    for rule, bad in (("alpha", 2.5), ("iters", 0), ("seed", -1), ("iters", 5.0), ("seed", 1.5)):
        args = {"trials_per_cell": 1, "iters": 5, "seed": 0, rule: bad}
        with pytest.raises(ValueError, match=rule):
            sweep_phase([60], [70], [30], **args)


def test_sweep_phase_takes_integer_counts():
    # a float grid value is an error, not an infeasible marker cell
    grids = {"n": ([2.5], [3], [12]), "d": ([60], [3.0], [30]), "q": ([60], [70], [True])}
    for name, grid in grids.items():
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            sweep_phase(*grid, trials_per_cell=1, iters=5, seed=0)
    with pytest.raises(ValueError, match="^trials_per_cell must be an integer, not a float$"):
        sweep_phase([60], [3], [30], trials_per_cell=2.0, iters=5, seed=0)
    # numpy integers are counts, and give the same trials
    grid = ([np.int64(60)], [np.int32(3), 70], [np.int64(30)])
    cells = sweep_phase(*grid, trials_per_cell=np.int64(1), iters=5, seed=0)
    plain = sweep_phase([60], [3, 70], [30], trials_per_cell=1, iters=5, seed=0)
    assert [c.x_values.tolist() for c in cells] == [c.x_values.tolist() for c in plain]


def test_problem_spec_file_missing_field(tmp_path):
    path = tmp_path / "run.spec"
    path.write_text("n=100\nd=4\nq=20\niters=5\nseed=1\nalpha=1.0\n")
    with pytest.raises(ValueError, match="init_noise_std"):
        read_problem_spec(path)
