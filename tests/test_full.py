import numpy as np
import pytest

from grouse.full_data import _EXACT_EPS_LIMIT, full_step, predicted_decrease, run_full
from grouse.metrics import Basis, epsilon, epsilon_residual
from grouse.partial_data import Observation, run_stream
from grouse.harness import (
    _OBSERVATION_STREAM,
    ProblemSpec,
    generate_problem,
    pair_with_epsilon,
    random_basis,
    run_full_trial,
)
from grouse.linalg import NumericalError
from grouse.metrics import REORTHO_EVERY
from grouse.results import _EPS_SWITCH, _Trajectory


def test_full_step_in_span_no_change():
    u = random_basis(30, 3, seed=1)
    ubar = random_basis(30, 3, seed=2)
    v = u.columns @ np.array([1.0, 2.0, -0.5])
    u1, rec = full_step(u, v, ubar)
    assert u1 is u and not rec.taken
    assert rec.predicted_decrease == 0.0
    assert rec.epsilon_after == rec.epsilon_before


def test_full_step_orthogonal_no_change():
    u = Basis(np.eye(10)[:, :2])
    ubar = random_basis(10, 2, seed=3)
    v = np.eye(10)[:, 7]
    u1, rec = full_step(u, v, ubar)
    assert u1 is u and not rec.taken
    assert np.isclose(rec.theta, np.pi / 2)
    assert rec.predicted_decrease == 0.0


def test_full_step_zero_vector_rejected():
    u = random_basis(10, 2, seed=4)
    with pytest.raises(ValueError):
        full_step(u, np.zeros(10), u)
    with pytest.raises(ValueError, match="^observation vector is zero$"):
        full_step(u, np.zeros(10), u)


def test_vector_arguments_must_be_finite():
    # a NaN must not pass as an identity step or a NaN or zero decrease
    u, ubar = pair_with_epsilon(20, 2, 0.1, seed=5)
    v = ubar.columns @ np.array([1.0, -2.0])
    v[3] = np.nan
    for call in (
        lambda: full_step(u, v, ubar),
        lambda: predicted_decrease(u, ubar, v, 0.1),
    ):
        with pytest.raises(ValueError, match="^v entries must be finite$"):
            call()


def test_run_full_takes_an_integer_iters():
    u0, ubar = pair_with_epsilon(40, 3, 0.3, seed=16)
    for bad in (5.0, True, -1):
        with pytest.raises(ValueError, match="^iters must be"):
            run_full(u0, ubar, bad, seed=1)
    five = run_full(u0, ubar, np.int64(5), seed=1)
    assert np.array_equal(five.epsilons, run_full(u0, ubar, 5, seed=1).epsilons)


def test_full_step_record_invariants():
    rng = np.random.default_rng(5)
    u, ubar = pair_with_epsilon(60, 4, 0.2, seed=5)
    for _ in range(20):
        v = ubar.columns @ rng.standard_normal(4)
        _, rec = full_step(u, v, ubar)
        nv = np.linalg.norm(v)
        assert abs(np.cos(rec.theta) - np.linalg.norm(rec.w) / nv) <= 1e-10
        assert abs(np.sin(rec.theta) - np.linalg.norm(rec.r) / nv) <= 1e-10
        sigma_oracle = 0.5 * nv**2 * np.sin(2 * rec.theta)
        assert abs(rec.sigma - sigma_oracle) <= 1e-10 * max(rec.sigma, 1e-12)


def test_single_step_line_convergence_full_rule():
    # d=1 with the exact step length: one step identifies the line
    rng = np.random.default_rng(6)
    ubar = random_basis(2, 1, seed=6)
    u = Basis(np.array([[1.0], [0.0]]))
    v = ubar.columns @ rng.standard_normal(1)
    u1, rec = full_step(u, v, ubar)
    assert rec.epsilon_after <= 1e-20


def test_exact_decrease_identity_seeded():
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(100):
        eps = 10.0 ** rng.uniform(-6, 0)
        u, ubar = pair_with_epsilon(100, 4, eps, seed=700 + k)
        v = ubar.columns @ rng.standard_normal(4)
        _, rec = full_step(u, v, ubar)
        if not rec.taken:
            continue
        measured = rec.epsilon_before - rec.epsilon_after
        mismatch = abs(measured - rec.predicted_decrease) / max(rec.epsilon_before, 1e-12)
        worst = max(worst, mismatch)
    assert worst <= 1e-8


def test_predicted_decrease_at_exact_eta_simplifies():
    rng = np.random.default_rng(8)
    u, ubar = pair_with_epsilon(80, 4, 0.15, seed=8)
    v = ubar.columns @ rng.standard_normal(4)
    w = u.columns.T @ v
    r = v - u.columns @ w
    theta = np.arctan2(np.linalg.norm(r), np.linalg.norm(w))
    sigma = np.linalg.norm(r) * np.linalg.norm(u.columns @ w)
    # with sigma*eta = theta the trig factor is exactly one
    a = u.columns.T @ ubar.columns
    overlap = w @ (a @ (a.T @ w)) / (w @ w)
    assert np.isclose(predicted_decrease(u, ubar, v, theta / sigma), 1.0 - overlap, atol=1e-12)
    # sigma*eta = 2*theta gives zero decrease
    assert abs(predicted_decrease(u, ubar, v, 2 * theta / sigma)) <= 1e-12


@pytest.mark.parametrize("n, d", [(40, 3), (30, 4)])
def test_predicted_decrease_rejects_bases_of_other_shapes(n, d):
    u = random_basis(30, 3, seed=1)
    with pytest.raises(ValueError, match="^bases must share ambient and subspace dimensions$"):
        predicted_decrease(u, random_basis(n, d, seed=2), np.ones(30), 0.1)


def test_predicted_decrease_nonnegative_over_step_range():
    rng = np.random.default_rng(9)
    u, ubar = pair_with_epsilon(50, 3, 0.4, seed=9)
    v = ubar.columns @ rng.standard_normal(3)
    w = u.columns.T @ v
    r = v - u.columns @ w
    theta = np.arctan2(np.linalg.norm(r), np.linalg.norm(w))
    sigma = np.linalg.norm(r) * np.linalg.norm(u.columns @ w)
    for frac in np.linspace(0.02, 0.98, 25):
        eta = 2 * theta * frac / sigma
        assert predicted_decrease(u, ubar, v, eta) >= -1e-12


def test_component_share_expectation():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((20000, 6))
    vals = w[:, 2] ** 2 / np.sum(w * w, axis=1)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 1.0 / 6.0) <= 4 * se


def test_quadratic_form_expectation():
    rng = np.random.default_rng(13)
    q = rng.standard_normal((5, 5))
    w = rng.standard_normal((20000, 5))
    vals = np.einsum("ti,ij,tj->t", w, q, w) / np.sum(w * w, axis=1)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - np.trace(q) / 5) <= 4 * se


def test_full_step_epsilon_consistency():
    rng = np.random.default_rng(14)
    u, ubar = pair_with_epsilon(70, 4, 0.05, seed=14)
    v = ubar.columns @ rng.standard_normal(4)
    u1, rec = full_step(u, v, ubar)
    assert np.isclose(rec.epsilon_before, epsilon_residual(u, ubar))
    assert np.isclose(rec.epsilon_after, epsilon_residual(u1, ubar))
    assert np.isclose(
        rec.epsilon_after,
        rec.epsilon_before - rec.predicted_decrease,
        atol=1e-8 * max(rec.epsilon_before, 1e-12),
    )


def test_rate_sandwich_single_step_mean():
    # epsilon <= 1/3: mean one-step ratio within 4 stderr of <= 1-(1-3 eps)/d
    rng = np.random.default_rng(15)
    d = 5
    u, ubar = pair_with_epsilon(100, d, 0.2, seed=15)
    eps0 = epsilon(u, ubar)
    ratios = np.empty(1500)
    for k in range(len(ratios)):
        v = ubar.columns @ rng.standard_normal(d)
        _, rec = full_step(u, v, ubar)
        ratios[k] = rec.epsilon_after / rec.epsilon_before
    se = ratios.std(ddof=1) / np.sqrt(len(ratios))
    bound = 1.0 - (1.0 - 3.0 * eps0) / d
    assert ratios.mean() <= bound + 4 * se


def test_run_full_zero_iters_and_determinism():
    u0, ubar = pair_with_epsilon(40, 3, 0.3, seed=16)
    res0 = run_full(u0, ubar, 0, seed=1)
    assert len(res0.epsilons) == 1
    a = run_full(u0, ubar, 50, seed=2)
    b = run_full(u0, ubar, 50, seed=2)
    assert np.array_equal(a.epsilons, b.epsilons)
    assert np.all(a.epsilons <= 3.0 + 1e-12) and np.all(a.epsilons >= 0.0)


def test_run_full_d1_single_step():
    from grouse.harness import ProblemSpec, run_full_trial

    for seed in (0, 1, 2):
        spec = ProblemSpec(n=100, d=1, q="full", iters=2, seed=seed)
        res = run_full_trial(spec)
        assert res.epsilons[1] <= 1e-20


def test_run_full_measured_decrease_matches_prediction():
    # harness-scale identity check: replay prediction against the trajectory
    rng = np.random.default_rng(17)
    u, ubar = pair_with_epsilon(90, 4, 0.3, seed=17)
    for _ in range(60):
        v = ubar.columns @ rng.standard_normal(4)
        u1, rec = full_step(u, v, ubar)
        measured = rec.epsilon_before - rec.epsilon_after
        assert abs(measured - rec.predicted_decrease) <= 1e-8 * max(rec.epsilon_before, 1e-12)
        u = u1


def _span_oracle_epsilons(u0, ubar, iters, seed) -> np.ndarray:
    """The epsilons of ``run_full_trial``'s steps, taken in coordinates of span(U0, Ubar).

    Every v_t = Ubar s_t, and so every w, p, r and rotation, stays in that
    span of dimension at most 2d.  With B an orthonormal basis of it, U_t =
    B C_t and Ubar = B Cbar, and the step on the 2d x d array C_t is the
    GROUSE rotation at the exact step length (sigma eta = theta), written
    here without the library's kernels.  C_t is re-orthonormalized after
    every step, which leaves its span, and so epsilon, as it is.
    """
    d = u0.d
    b = np.linalg.qr(np.hstack([u0.columns, ubar.columns]))[0]
    # Cbar keeps the coordinates of Ubar's columns: v_t = Ubar s_t depends on them
    c, cbar = np.linalg.qr(b.T @ u0.columns)[0], b.T @ ubar.columns
    rng = np.random.default_rng(np.random.SeedSequence([seed, _OBSERVATION_STREAM]))

    def residual_energy(c):
        g = c - cbar @ (cbar.T @ c)
        return float(np.sum(g * g))

    epsilons = [residual_energy(c)]
    for _ in range(iters):
        v = cbar @ rng.standard_normal(d)
        w = c.T @ v
        p = c @ w
        r = v - p
        norm_w, norm_p, norm_r = np.linalg.norm(w), np.linalg.norm(p), np.linalg.norm(r)
        if norm_w > 0.0 and norm_r > 0.0:
            theta = np.arctan2(norm_r, norm_w)
            gain = (np.cos(theta) - 1.0) * p / norm_p + np.sin(theta) * r / norm_r
            c = np.linalg.qr(c + np.outer(gain, w / norm_w))[0]
        epsilons.append(residual_energy(c))
    return np.array(epsilons)


@pytest.mark.parametrize(
    "n, d, iters, seed",
    [
        # n d^2 below _EXACT_EPS_LIMIT: every epsilon from scratch
        (2000, 5, 300, 3),
        # above it: epsilon from the maintained U^T Ubar product down to
        # _EPS_SWITCH, then from scratch
        (1500, 40, 1200, 12),
    ],
    ids=["from-scratch", "maintained"],
)
def test_run_full_epsilons_match_the_span_oracle(n, d, iters, seed):
    """``run_full``'s epsilons against an independent recursion in span(U0, Ubar).

    The oracle shares no code with ``_split``, ``_rotate`` or the maintained
    product, so a wrong sign, norm or update there moves epsilon by far more
    than rounding.  The two runs differ by rounding only; with u = 2^-53:

    - A from-scratch epsilon is ||G||_F^2 for the residual G = U - Ubar Ubar^T U,
      whose computed Frobenius norm is off by a few u ||U||_F = a few u sqrt(d),
      and the two iterates' spans differ by angles of a few u more.  Both
      move epsilon by about 2 sqrt(epsilon) times that: a few u 2 sqrt(d epsilon).
    - A maintained epsilon is d - ||P||_F^2 for the d x d product P, whose
      squares sum to about d: rounding in P's rank-one updates (up to
      ``REORTHO_EVERY`` between refreshes) and in the sum leave an absolute
      error of a few d u, whatever epsilon is.

    The tolerance is 64 u (2 sqrt(d epsilon) + d), the d term only where the
    run reads the maintained product.  At these and four more shapes (d
    from 3 to 40) the largest gap was 7% of it, so it leaves more than ten
    times headroom.  Only steps with epsilon > 1e-12 are compared: near the
    1e-24 measurement floor the sqrt(epsilon) term no longer bounds the
    rounding of a sum of squares of rounded residuals.
    """
    spec = ProblemSpec(n=n, d=d, q="full", iters=iters, seed=seed)
    ubar, u0 = generate_problem(spec)
    run = run_full_trial(spec).epsilons
    oracle = _span_oracle_epsilons(u0, ubar, iters, seed)
    compared = run > 1e-12
    maintained = n * d * d > _EXACT_EPS_LIMIT
    assert compared.sum() > iters // 3
    if maintained:
        assert (run >= _EPS_SWITCH).any() and (compared & (run < _EPS_SWITCH)).any()
    u = 2.0**-53
    tol = 64 * u * (2 * np.sqrt(d * oracle) + np.where(maintained & (run >= _EPS_SWITCH), d, 0.0))
    gap = np.abs(run - oracle)
    assert np.all(gap[compared] <= tol[compared]), np.max(gap[compared] / tol[compared])


def _stream(ubar, steps, q, seed):
    """Observations of ubar @ s on q rows drawn without replacement."""
    rng = np.random.default_rng(seed)
    observations = []
    for _ in range(steps):
        s = rng.standard_normal(ubar.d)
        omega = np.sort(rng.choice(ubar.n, size=q, replace=False))
        values = (ubar.columns @ s)[omega]
        observations.append(Observation(n=ubar.n, omega=omega, values=values, latent_s=s))
    return observations


@pytest.mark.parametrize("driver", ["run_full", "run_stream"])
def test_driver_leaves_u0_unchanged_and_read_only(driver):
    u0, ubar = pair_with_epsilon(40, 3, 0.3, seed=18)
    before = u0.columns.copy()
    # 120 steps cross one re-orthonormalization
    if driver == "run_full":
        run_full(u0, ubar, 120, seed=3)
    else:
        assert run_stream(u0, _stream(ubar, 120, 20, seed=3), ubar=ubar).taken.any()
    assert np.array_equal(u0.columns, before)
    assert not u0.columns.flags.writeable


@pytest.mark.parametrize("driver", ["run_full", "run_stream"])
def test_driver_allocates_no_basis_sized_array_per_step(driver):
    import tracemalloc

    n, d = 3000, 40  # n*d^2 above _EXACT_EPS_LIMIT: maintained-product path
    u0, ubar = pair_with_epsilon(n, d, 0.5, seed=19)
    # the stream runs without ubar and with the gate bypassed, so every step
    # rotates and no epsilon temporaries hide a per-step copy
    stream = _stream(ubar, 30, 200, seed=4) if driver == "run_stream" else None
    tracemalloc.start()
    try:
        if driver == "run_full":
            run_full(u0, ubar, 30, seed=4)
        else:
            assert run_stream(u0, stream, bypass_gate=True).taken.all()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the one owned buffer plus row blocks and vectors; a fresh n x d array
    # per step would add at least one more n*d*8 bytes
    assert peak < 2 * n * d * 8


def test_run_full_through_a_cadence_qr_holds_at_most_two_basis_sized_arrays(traced_peak):
    # the stepped buffer and the QR's one Fortran workspace; the QR copied
    # out of a fresh factor held three (n*d^2 above _EXACT_EPS_LIMIT, so
    # epsilon comes from the maintained product, not an n x d residual)
    n, d = 20000, 20
    ubar, u0 = generate_problem(ProblemSpec(n=n, d=d, q="full", iters=1, seed=6))
    peak = traced_peak(lambda: run_full(u0, ubar, REORTHO_EVERY, seed=7))
    assert peak <= 2.25 * n * d * 8


def test_recorded_run_stream_holds_at_most_two_basis_sized_arrays(traced_peak):
    # the stepped buffer and the one workspace epsilon is measured in from
    # scratch, plus the step's vectors; the residual's two temporaries held three
    n, d = 20000, 20
    ubar, u0 = generate_problem(ProblemSpec(n=n, d=d, q="full", iters=1, seed=6))
    stream = _stream(ubar, 10, 200, seed=8)
    peak = traced_peak(lambda: run_stream(u0, stream, ubar=ubar, bypass_gate=True))
    assert peak <= 2.25 * n * d * 8


def test_recorded_run_stream_through_a_cadence_qr_holds_at_most_two_basis_sized_arrays(traced_peak):
    # the QR factors in the epsilon workspace's memory, viewed in Fortran
    # order; a QR workspace of its own beside it held three
    n, d = 20000, 20
    ubar, u0 = generate_problem(ProblemSpec(n=n, d=d, q="full", iters=1, seed=6))
    stream = _stream(ubar, REORTHO_EVERY + 1, 200, seed=8)
    peak = traced_peak(lambda: run_stream(u0, stream, ubar=ubar, bypass_gate=True))
    assert peak <= 2.3 * n * d * 8


@pytest.mark.parametrize(
    "spoil, error, message",
    [
        (lambda cols: cols.__setitem__((3, 1), np.nan), ValueError, "^matrix entries must be finite$"),
        (lambda cols: cols.__setitem__((slice(None), 1), cols[:, 0]), NumericalError, "^rank deficient$"),
    ],
    ids=["non-finite", "rank-deficient"],
)
def test_trajectory_qr_raises_what_orthonormalize_raises(spoil, error, message):
    u0, ubar = pair_with_epsilon(40, 3, 0.3, seed=20)
    track = _Trajectory(u0, ubar.columns, maintained=False)
    for _ in range(REORTHO_EVERY - 1):
        track.step(None, None)
    spoil(track.cols)
    with pytest.raises(error, match=message):
        track.step(None, None)
