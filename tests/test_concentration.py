import dataclasses
import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from grouse import concentration
from grouse.concentration import (
    _FORK_FLOOR,
    _trial_ranges,
    estimate_skip_rate,
    gamma_bound,
    mu_xt_diagnostics,
    read_concentration_csv,
    read_residual_csv,
    validate_gram_concentration,
    validate_residual_bound,
    validate_sin_sq_expectation,
    write_concentration_csv,
    write_residual_csv,
)
from grouse.linalg import NumericalError, _one_blas_thread, _workers
from grouse.metrics import Basis, coherence_basis, epsilon
from grouse.partial_data import _gate, _sample, gate_check
from grouse.harness import incoherent_basis, pair_with_epsilon, random_basis


def test_gamma_bound_values():
    d, mu, delta = 6, 1.7, 0.2
    boundary = 8.0 / 3.0 * d * mu * math.log(2 * d / delta)
    assert np.isclose(gamma_bound(d, mu, round(boundary), delta), 1.0, atol=5e-3)
    assert np.isclose(gamma_bound(d, mu, round(4 * boundary), delta), 0.5, atol=5e-3)
    # independent arithmetic for the documented example
    assert np.isclose(gamma_bound(10, 2.0, 2000, 0.1), 0.3758835765339418, atol=1e-12)
    with pytest.raises(ValueError):
        gamma_bound(10, 2.0, 2000, 1.5)
    for name, bad in [("d", 10.0), ("omega_size", 2000.0), ("d", 0), ("omega_size", 0)]:
        args = {"d": 10, "mu": 2.0, "omega_size": 2000, "delta": 0.1, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            gamma_bound(**args)


def test_gram_concentration_guarantee_holds():
    u = incoherent_basis(400, 5, seed=5)
    mu = coherence_basis(u)
    m = math.floor(8.0 / 3.0 * 5 * mu * math.log(2 * 5 / 0.1)) + 1
    report = validate_gram_concentration(u, m, 0.1, 500, seed=6)
    assert report.hypothesis_met
    margin = 3 * math.sqrt(0.1 * 0.9 / 500)
    assert report.failure_rate <= 0.1 + margin
    # same guarantee at four times the hypothesis size (gamma ~ 0.5)
    report4 = validate_gram_concentration(u, 4 * m, 0.1, 500, seed=7)
    assert report4.gamma <= 0.55
    assert report4.failure_rate <= 0.1 + margin


def test_gram_concentration_flags_unmet_hypothesis():
    spike = Basis(np.eye(40)[:, :4])
    report = validate_gram_concentration(spike, 12, 0.1, 50, seed=8)
    assert not report.hypothesis_met
    assert 0.0 <= report.failure_rate <= 1.0


def test_gram_concentration_full_coverage_near_zero_failures():
    u = incoherent_basis(60, 3, seed=9)
    report = validate_gram_concentration(u, 1200, 0.1, 200, seed=10)
    assert report.failure_rate <= 0.01


def test_residual_bound_identical_bases():
    u = random_basis(50, 4, seed=11)
    report = validate_residual_bound(u, u, 200, 0.1, 100, seed=12)
    assert report.violation_rate == 0.0


def test_residual_bound_is_zero_where_v_lies_in_the_span_of_u(tmp_path):
    # v = e s has exact zeros off the span, so no trial has a residual
    # direction x: every rhs is 0.0, and the CSV says so in every cell
    e = Basis(np.eye(4)[:, :2])
    report = validate_residual_bound(e, e, 200, 0.1, 300, 5)
    assert report.violation_rate == 0.0 and not report.violated.any()
    assert report.rhs.tobytes() == np.zeros(300).tobytes()
    assert report.lhs.max() < 1e-26
    path = tmp_path / "resid.csv"
    write_residual_csv(path, report)
    header, *rows = path.read_text().splitlines()
    column = header.split(",").index("rhs")
    assert len(rows) == 300 and {row.split(",")[column] for row in rows} == {"0.0"}


def test_residual_bound_positive_factor_regime():
    u, ubar = pair_with_epsilon(400, 5, 1e-5, seed=13)
    report = validate_residual_bound(u, ubar, 5000, 0.1, 400, seed=14)
    # multiset larger than n makes the bound non-vacuous
    assert np.nanmean(report.rhs) > 0.0
    margin = 3 * math.sqrt(0.3 * 0.7 / 400)
    assert report.violation_rate <= 0.3 + margin
    # report arrays are coherent: a violation means lhs < rhs
    assert np.all(report.lhs[report.violated] < report.rhs[report.violated])


def test_residual_bound_subset_scale_is_vacuous_but_satisfied():
    u, ubar = pair_with_epsilon(400, 5, 1e-5, seed=15)
    report = validate_residual_bound(u, ubar, 300, 0.1, 300, seed=16)
    margin = 3 * math.sqrt(0.3 * 0.7 / 300)
    assert report.violation_rate <= 0.3 + margin


def test_residual_bound_at_gamma_one_or_more_computes_no_coherence(monkeypatch):
    # at gamma >= 1 no trial has a bound (rhs is NaN), so mu(x) is never needed;
    # 300 trials run in-process, where the patched name is the one called
    u, ubar = pair_with_epsilon(50, 4, 0.1, seed=1)
    assert gamma_bound(4, coherence_basis(u), 10, 0.1) >= 1.0
    calls = []
    real = concentration.coherence_vector
    monkeypatch.setattr(concentration, "coherence_vector", lambda x: calls.append(1) or real(x))
    report = validate_residual_bound(u, ubar, 10, 0.1, 300, seed=1)
    assert np.isnan(report.rhs).all() and not report.violated.any()
    assert len(calls) == 0


def test_skip_rate_extremes():
    u = random_basis(50, 3, seed=17)
    assert estimate_skip_rate(u, 50, 20, seed=18) == 0.0
    spike = Basis(np.eye(200)[:, :4])
    assert estimate_skip_rate(spike, 8, 200, seed=19) >= 0.95
    with pytest.raises(ValueError):
        estimate_skip_rate(u, 2, 10, seed=20)


def test_skip_rate_counts_the_gate_verdicts_of_its_draws():
    u = incoherent_basis(300, 4, seed=23)
    trials, seed = 400, 24
    rng = np.random.default_rng(seed)
    fails = sum(not gate_check(u, _sample(rng, u.n, 40)).passed for _ in range(trials))
    assert 0 < fails < trials
    assert estimate_skip_rate(u, 40, trials, seed) == fails / trials


def test_skip_rate_incoherent_desk_scale():
    u, _ = pair_with_epsilon(400, 5, 1e-4, seed=21, frame="incoherent")
    assert estimate_skip_rate(u, 120, 400, seed=22) <= 0.05


def test_sin_sq_expectation_identical_and_orthogonal():
    u = random_basis(30, 3, seed=23)
    mean, stderr = validate_sin_sq_expectation(u, u, 500, seed=24)
    assert mean <= 1e-25
    line = Basis(np.eye(4)[:, :1])
    other = Basis(np.eye(4)[:, 1:2])
    mean1, stderr1 = validate_sin_sq_expectation(other, line, 500, seed=25)
    assert np.isclose(mean1, 1.0, atol=1e-12) and stderr1 <= 1e-12


def test_sin_sq_expectation_seeded():
    u, ubar = pair_with_epsilon(100, 5, 0.05, seed=26)
    mean, stderr = validate_sin_sq_expectation(u, ubar, 50_000, seed=27)
    assert abs(mean - 0.05 / 5) <= 4 * stderr


def _draw_rows(monkeypatch) -> list:
    """The trials of each chunk that validate_sin_sq_expectation draws, in order, for the rest of the test."""
    rows, real = [], concentration._rng

    class Drawn:
        def __init__(self, seed):
            self._rng = real(seed)

        def standard_normal(self, size):
            rows.append(size[0])
            return self._rng.standard_normal(size)

    monkeypatch.setattr(concentration, "_rng", Drawn)
    return rows


# n=100: the default budget makes chunks of 654 trials
@pytest.mark.per_core
@pytest.mark.parametrize("trials", [2, 3, 1001, 2 * 654, 3 * 654 + 1, 20001])
def test_sin_sq_expectation_bits_do_not_depend_on_the_chunk_size(monkeypatch, trials):
    # budgets of 2, 3 and 7 trials make chunks of 2, 2 and 6 (even, so
    # OpenBLAS's Haswell dgemm runs no odd last row through another kernel),
    # and one below n makes chunks of two; an odd trial count or one past a
    # multiple of the chunk would leave a last chunk of one trial, which
    # joins the chunk before it
    u, ubar = pair_with_epsilon(100, 5, 0.05, seed=31)
    drawn = _draw_rows(monkeypatch)
    default = validate_sin_sq_expectation(u, ubar, trials, seed=32)
    budget_rows = {concentration._CHUNK_DOUBLES: 654, 200: 2, 300: 2, 700: 6, 99: 2}
    for budget, rows in budget_rows.items():
        monkeypatch.setattr(concentration, "_CHUNK_DOUBLES", budget)
        drawn.clear()
        assert validate_sin_sq_expectation(u, ubar, trials, seed=32) == default
        assert sum(drawn) == trials
        assert drawn[:-1] == [rows] * (len(drawn) - 1)
        assert 2 <= drawn[-1] <= rows + 1


@pytest.mark.parametrize("n, trials", [(100, 50_000), (1000, 20_000)])
def test_sin_sq_expectation_memory_does_not_grow_with_n_or_trials(traced_peak, n, trials):
    # two reused chunk buffers of _CHUNK_DOUBLES doubles and the trials'
    # values; 8192-trial chunks peaked at 20.7 MB and 197.4 MB
    u, ubar = pair_with_epsilon(n, 5, 0.05, seed=26)
    peak = traced_peak(lambda: validate_sin_sq_expectation(u, ubar, trials, seed=27))
    assert peak <= 4 * 2**20


def test_mu_xt_constant_in_dimension_two():
    u = Basis(np.array([[1.0], [0.0]]))
    ubar = Basis(np.array([[np.cos(0.4)], [np.sin(0.4)]]))
    summary = mu_xt_diagnostics(u, ubar, 50, seed=28)
    assert np.allclose(summary.quantiles, summary.quantiles[0], atol=1e-9)


def test_mu_xt_rejects_identical_bases():
    u = random_basis(30, 3, seed=29)
    with pytest.raises(ValueError):
        mu_xt_diagnostics(u, u, 10, seed=30)


def test_mu_xt_grows_slowly_with_n():
    medians = []
    for n in (100, 1000, 10000):
        u, ubar = pair_with_epsilon(n, 5, 1e-4, seed=31)
        summary = mu_xt_diagnostics(u, ubar, 300, seed=32)
        medians.append(summary.quantiles[2])
    assert medians[0] < medians[2]
    # log-like growth: well below proportional scaling with n
    assert medians[2] / medians[0] < 10.0
    assert medians[2] <= 40.0 * math.log(10000)


def test_mu_xt_thresholds_reported():
    u, ubar = pair_with_epsilon(200, 4, 1e-3, seed=33)
    summary = mu_xt_diagnostics(u, ubar, 100, seed=34)
    assert summary.c1 == 64.0 / 3.0
    assert summary.threshold_narrow > 0 and summary.threshold_wide > 0
    assert 0.0 <= summary.satisfied_rate <= 1.0


def test_concentration_csv_round_trip(tmp_path):
    u = incoherent_basis(100, 4, seed=35)
    report = validate_gram_concentration(u, 80, 0.1, 40, seed=36)
    path = tmp_path / "conc.csv"
    write_concentration_csv(path, report)
    eig_min, eig_max, in_window = read_concentration_csv(path)
    assert np.array_equal(eig_min, report.eig_min)
    assert np.array_equal(eig_max, report.eig_max)
    assert np.array_equal(in_window, report.in_window)
    again = tmp_path / "again.csv"
    write_concentration_csv(again, replace(report, eig_min=eig_min, eig_max=eig_max, in_window=in_window))
    assert again.read_bytes() == path.read_bytes()


def test_residual_csv_round_trip(tmp_path):
    u, ubar = pair_with_epsilon(100, 4, 1e-4, seed=37)
    # omega_size=10 leaves the bound vacuous: every rhs is NaN
    for omega_size in (500, 10):
        report = validate_residual_bound(u, ubar, omega_size, 0.1, 30, seed=38)
        path = tmp_path / "resid.csv"
        write_residual_csv(path, report)
        lhs, rhs, violated = read_residual_csv(path)
        assert np.array_equal(lhs, report.lhs)
        assert np.array_equal(rhs, report.rhs, equal_nan=True)
        assert np.array_equal(violated, report.violated)
        again = tmp_path / "again.csv"
        write_residual_csv(again, replace(report, lhs=lhs, rhs=rhs, violated=violated))
        assert again.read_bytes() == path.read_bytes()
    assert np.isnan(report.rhs).all()


def test_read_concentration_csv_rejects_malformed_files(tmp_path, malform_table):
    path = tmp_path / "conc.csv"
    report = validate_gram_concentration(incoherent_basis(100, 4, seed=35), 80, 0.1, 3, seed=36)
    write_concentration_csv(path, report)
    malform_table(path)
    with pytest.raises(ValueError):
        read_concentration_csv(path)


def test_read_residual_csv_rejects_malformed_files(tmp_path, malform_table):
    u, ubar = pair_with_epsilon(100, 4, 1e-4, seed=37)
    path = tmp_path / "resid.csv"
    write_residual_csv(path, validate_residual_bound(u, ubar, 500, 0.1, 3, seed=38))
    malform_table(path)
    with pytest.raises(ValueError):
        read_residual_csv(path)


@pytest.mark.parametrize("trials", ["5,5", "1,2", "0,0", "1,0"])
@pytest.mark.parametrize("reader", [read_concentration_csv, read_residual_csv])
def test_report_readers_require_trial_to_count_from_zero(tmp_path, reader, trials):
    path = tmp_path / "report.csv"
    header = "trial,eig_min,eig_max,in_window" if reader is read_concentration_csv else "trial,lhs,rhs,violated"
    path.write_text(header + "\n" + "".join(f"{t},0.5,1.5,1\n" for t in trials.split(",")))
    with pytest.raises(ValueError, match="trial = 0, 1, 2"):
        reader(path)


@pytest.mark.parametrize(
    "reader, table",
    [
        (read_concentration_csv, "trial,eig_min,eig_max,in_window\n0,0.5,1.5,2\n"),
        (read_concentration_csv, "trial,eig_min,eig_max,in_window\n0,0.5,1.5,-1\n"),
        (read_residual_csv, "trial,lhs,rhs,violated\n0,0.5,0.25,7\n"),
    ],
    ids=["in_window-2", "in_window-minus-1", "violated-7"],
)
def test_report_readers_accept_only_0_or_1_flags(tmp_path, reader, table):
    path = tmp_path / "report.csv"
    path.write_text(table)
    with pytest.raises(ValueError):
        reader(path)



@pytest.mark.parametrize(
    "call",
    [
        lambda u, ubar, trials: validate_gram_concentration(u, 80, 0.1, trials, 1),
        lambda u, ubar, trials: validate_residual_bound(u, ubar, 80, 0.1, trials, 1),
        lambda u, ubar, trials: estimate_skip_rate(u, 20, trials, 1),
        lambda u, ubar, trials: mu_xt_diagnostics(u, ubar, trials, 1),
    ],
    ids=["gram_concentration", "residual_bound", "skip_rate", "mu_xt"],
)
@pytest.mark.parametrize("trials", [0, -2])
def test_validators_reject_nonpositive_trials(call, trials):
    u, ubar = pair_with_epsilon(40, 4, 0.1, seed=1)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        call(u, ubar, trials)


# each validator as a call on (u, ubar) and its counts, which default to valid values
_GOOD = {"omega_size": 80, "q": 20, "trials": 3, "seed": 1}
_VALIDATOR_CALLS = {
    "gram_concentration": lambda u, ubar, omega_size=80, trials=3, seed=1: (
        validate_gram_concentration(u, omega_size, 0.1, trials, seed)
    ),
    "residual_bound": lambda u, ubar, omega_size=80, trials=3, seed=1: (
        validate_residual_bound(u, ubar, omega_size, 0.1, trials, seed)
    ),
    "skip_rate": lambda u, ubar, q=20, trials=3, seed=1: estimate_skip_rate(u, q, trials, seed),
    "sin_sq": lambda u, ubar, trials=3, seed=1: validate_sin_sq_expectation(u, ubar, trials, seed),
    "mu_xt": lambda u, ubar, trials=3, seed=1: mu_xt_diagnostics(u, ubar, trials, seed),
}


@pytest.mark.parametrize(
    "validator, name",
    [
        (validator, name)
        for validator, call in _VALIDATOR_CALLS.items()
        for name in call.__code__.co_varnames[2 : call.__code__.co_argcount]
    ],
)
def test_validators_take_integer_counts(validator, name):
    call = _VALIDATOR_CALLS[validator]
    u, ubar = pair_with_epsilon(40, 4, 0.1, seed=1)
    # a float, bool or negative count fails at the boundary, before it reaches numpy
    for bad in (_GOOD[name] + 0.5, float(_GOOD[name]), True, -1):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call(u, ubar, **{name: bad})
    # numpy integers are counts, and give the same report
    same, plain = call(u, ubar, **{name: np.int64(_GOOD[name])}), call(u, ubar)
    fields = lambda r: dataclasses.astuple(r) if dataclasses.is_dataclass(r) else np.atleast_1d(r)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(fields(same), fields(plain)))


def test_sin_sq_expectation_needs_two_trials():
    u, ubar = pair_with_epsilon(40, 4, 0.1, seed=1)
    with pytest.raises(ValueError, match="^trials must be at least 2$"):
        validate_sin_sq_expectation(u, ubar, 1, 1)


@pytest.mark.parametrize("delta", [0.0, -0.1, 1.0])
def test_gram_concentration_rejects_delta_outside_unit_interval(delta):
    u = incoherent_basis(200, 4, seed=3)
    with pytest.raises(ValueError, match=r"delta in \(0,1\)"):
        validate_gram_concentration(u, 80, delta, 10, 1)


@pytest.mark.parametrize("omega_size", [1, 3, 4])
def test_residual_bound_rejects_omega_size_below_d(omega_size):
    # fewer sampled rows than d can never determine the least-squares fit,
    # and d rows fit exactly: a zero residual against a vacuous bound
    u, ubar = pair_with_epsilon(40, 4, 0.1, seed=1)
    with pytest.raises(ValueError, match="omega_size must be at least d"):
        validate_residual_bound(u, ubar, omega_size, 0.1, 5, 1)
    assert validate_residual_bound(u, ubar, 20, 0.1, 5, 1).trials == 5


# the validator whose trials run in forked workers, as a call on a trial count
_FORKED_REPORTS = {
    "residual_bound": lambda trials: validate_residual_bound(
        *pair_with_epsilon(40, 4, 0.1, seed=1), 80, 0.1, trials, 38
    ),
}


@pytest.mark.parametrize("validator", list(_FORKED_REPORTS))
@pytest.mark.parametrize(
    "trials, ranges",
    [(2 * _FORK_FLOOR + 1, min(2, _workers(2))), (2 * _FORK_FLOOR - 1, 1)],
    ids=["two-uneven-ranges", "below-the-fork-floor"],
)
def test_validator_workers_give_the_in_process_bits(see_one_cpu, validator, trials, ranges):
    assert len(_trial_ranges(trials)) == ranges
    in_workers = _FORKED_REPORTS[validator](trials)
    assert not multiprocessing.active_children()
    see_one_cpu()
    assert _trial_ranges(trials) == [(0, trials)]
    in_process = _FORKED_REPORTS[validator](trials)
    for name in (f.name for f in dataclasses.fields(in_workers)):
        a, b = np.asarray(getattr(in_workers, name)), np.asarray(getattr(in_process, name))
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_gram_concentration_runs_in_process_with_the_serial_bits(monkeypatch):
    # past two workers' fork floor, where the validator once forked: it
    # forks no worker and gives the bits of one serial loop on one generator
    def no_fork(fn, tasks):
        raise AssertionError("the Gram-window validator forked")

    monkeypatch.setattr(concentration, "_fork_map", no_fork)
    u, trials = incoherent_basis(100, 4, seed=35), 2 * _FORK_FLOOR + 1
    report = validate_gram_concentration(u, 80, 0.1, trials, 36)
    assert not multiprocessing.active_children()
    rng = np.random.default_rng(36)
    with _one_blas_thread():
        verdicts = [_gate(u.columns[rng.integers(0, u.n, size=80)], u.n) for _ in range(trials)]
    eig_min = np.array([v.eigen_min for v in verdicts])
    eig_max = np.array([v.eigen_max for v in verdicts])
    assert report.eig_min.tobytes() == eig_min.tobytes()
    assert report.eig_max.tobytes() == eig_max.tobytes()
    low, high = (1.0 - report.gamma) * 80 / u.n, (1.0 + report.gamma) * 80 / u.n
    in_window = (eig_min >= low) & (eig_max <= high)
    assert np.array_equal(report.in_window, in_window)
    assert report.failure_rate == float(1.0 - in_window.mean())


@pytest.mark.parametrize("trials", [50, 2 * _FORK_FLOOR + 1], ids=["in-process", "in-workers"])
def test_residual_bound_singular_sample_reaches_the_caller(trials):
    # seed 2 draws a singular 5-row sample of this pair within its first 50 trials
    u, ubar = pair_with_epsilon(8, 4, 0.1, seed=1)
    with pytest.raises(NumericalError, match="^singular normal equations$") as exc:
        validate_residual_bound(u, ubar, 5, 0.1, trials, 2)
    assert type(exc.value) is NumericalError
    assert not multiprocessing.active_children()


def test_forked_validators_check_their_arguments_before_forking(monkeypatch):
    def no_fork(fn, tasks):
        raise AssertionError("forked before the arguments were checked")

    monkeypatch.setattr(concentration, "_fork_map", no_fork)
    u, ubar = pair_with_epsilon(40, 4, 0.1, seed=1)
    many = 2 * _FORK_FLOOR
    calls = [
        lambda: validate_gram_concentration(u, 80, 0.1, many, -1),
        lambda: validate_gram_concentration(u, 80, 0.1, many, 1.5),
        lambda: validate_gram_concentration(u, 0, 0.1, many, 1),
        lambda: validate_gram_concentration(u, 80, 1.0, many, 1),
        lambda: validate_gram_concentration(u, 80, 0.1, 0, 1),
        lambda: validate_residual_bound(u, ubar, 80, 0.1, many, -1),
        lambda: validate_residual_bound(u, ubar, 80, 0.1, many, True),
        lambda: validate_residual_bound(u, ubar, 4, 0.1, many, 1),
        lambda: validate_residual_bound(u, ubar, 80, 0.0, many, 1),
        lambda: validate_residual_bound(u, ubar, 80, 0.1, float(many), 1),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
