import math
from dataclasses import replace

import numpy as np
import pytest

from grouse.concentration import (
    estimate_skip_rate,
    gamma_bound,
    mu_xt_diagnostics,
    read_concentration_csv,
    read_residual_csv,
    sample_with_replacement,
    validate_gram_concentration,
    validate_residual_bound,
    validate_sin_sq_expectation,
    write_concentration_csv,
    write_residual_csv,
)
from grouse.metrics import Basis, coherence_basis, epsilon
from grouse.harness import incoherent_basis, pair_with_epsilon, random_basis


def test_sample_with_replacement_basics():
    assert np.all(sample_with_replacement(1, 50, seed=0) == 0)
    a = sample_with_replacement(10, 100, seed=3)
    b = sample_with_replacement(10, 100, seed=3)
    assert np.array_equal(a, b)


def test_sample_with_replacement_frequencies():
    n, m = 1000, 1_000_000
    draws = sample_with_replacement(n, m, seed=4)
    counts = np.bincount(draws, minlength=n)
    # binomial oracle: each count ~ Bin(m, 1/n)
    sd = math.sqrt(m * (1 / n) * (1 - 1 / n))
    assert np.abs(counts - m / n).max() <= 5 * sd


def test_gamma_bound_values():
    d, mu, delta = 6, 1.7, 0.2
    boundary = 8.0 / 3.0 * d * mu * math.log(2 * d / delta)
    assert np.isclose(gamma_bound(d, mu, round(boundary), delta), 1.0, atol=5e-3)
    assert np.isclose(gamma_bound(d, mu, round(4 * boundary), delta), 0.5, atol=5e-3)
    # independent arithmetic for the documented example
    assert np.isclose(gamma_bound(10, 2.0, 2000, 0.1), 0.3758835765339418, atol=1e-12)
    with pytest.raises(ValueError):
        gamma_bound(10, 2.0, 2000, 1.5)


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


def test_skip_rate_extremes():
    u = random_basis(50, 3, seed=17)
    assert estimate_skip_rate(u, 50, 20, seed=18) == 0.0
    spike = Basis(np.eye(200)[:, :4])
    assert estimate_skip_rate(spike, 8, 200, seed=19) >= 0.95
    with pytest.raises(ValueError):
        estimate_skip_rate(u, 2, 10, seed=20)


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
    summary = mu_xt_diagnostics(u, ubar, 100, seed=34, c1=64.0 / 3.0)
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
