import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg.blas import dger

from grouse import metrics, partial_data
from grouse.full_data import _is_identity, _split, full_step, run_full
from grouse.linalg import NumericalError, _openblas_thread_controls, orthonormalize
from grouse.metrics import BASIS_DRIFT_TOL, Basis, _rotate, epsilon_residual, orthonormality_drift
from grouse.partial_data import (
    Observation,
    gate_check,
    grouse_step,
    partial_residual,
    read_observations,
    run_stream,
    step_size,
    write_observations,
)
from grouse.harness import ProblemSpec, generate_problem, pair_with_epsilon, random_basis
from grouse.results import read_trajectory_csv, write_trajectory_csv


def gated_draw(rng, u, q):
    """Rejection-sample an index set passing the eigenvalue gate."""
    while True:
        omega = np.sort(rng.choice(u.n, size=q, replace=False))
        if gate_check(u, omega).passed:
            return omega


def make_obs(ubar, omega, s):
    v = ubar.columns @ s
    return Observation(n=ubar.n, omega=omega, values=v[omega], latent_s=s)


def test_observation_validation():
    with pytest.raises(ValueError, match="^omega and values must be 1-d and equally long$"):
        Observation(n=5, omega=[0, 1], values=[0.0])
    with pytest.raises(ValueError, match="^omega and values must be 1-d and equally long$"):
        Observation(n=5, omega=[[0, 1]], values=[[0.0, 0.0]])
    with pytest.raises(ValueError, match="^omega indices out of range$"):
        Observation(n=5, omega=[0, 5], values=[0.0, 0.0])
    with pytest.raises(ValueError, match="^omega indices out of range$"):
        Observation(n=5, omega=[-1, 2], values=[0.0, 0.0])
    with pytest.raises(ValueError, match="^omega indices must be strictly increasing$"):
        Observation(n=5, omega=[1, 1], values=[0.0, 0.0])
    with pytest.raises(ValueError, match="^omega indices must be strictly increasing$"):
        Observation(n=5, omega=[0, 3, 2], values=[0.0, 0.0, 0.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^observed values must be finite$"):
            Observation(n=5, omega=[0, 2], values=[1.0, bad])
    # float indices are not truncated, a float n is not an integer
    with pytest.raises(ValueError, match="^omega must be a 1-d array of integers$"):
        Observation(n=5, omega=[0.5, 1.7], values=[0.0, 0.0])
    with pytest.raises(ValueError, match="^n must be an integer, not a float$"):
        Observation(n=5.0, omega=[0, 2], values=[0.0, 0.0])
    # no basis has n < 1, and the wire format cannot write a negative n
    for n in (0, -5):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            Observation(n=n, omega=[], values=[])
    with pytest.raises(ValueError, match="^latent_s entries must be finite$"):
        Observation(n=5, omega=[0, 2], values=[0.0, 0.0], latent_s=[np.nan, 1.0])
    empty = Observation(n=5, omega=[], values=[])
    assert empty.omega.dtype == np.int_ and empty.values.dtype == np.float64
    narrow = Observation(n=np.int64(5), omega=np.array([1, 3], dtype=np.int32), values=[0.0, 0.0])
    assert narrow.omega.dtype == np.int_


def test_gate_check_index_rule():
    u = random_basis(30, 4, seed=2)
    for bad in ([-1, 0, 1, 2], [0, 1, 2, 30], [0.5, 1.7, 2.2, 3.9], [[0, 1], [2, 3]]):
        with pytest.raises(ValueError, match="^omega"):
            gate_check(u, bad)
    # any order and repeats pass the rule; the verdict reads the same rows
    rows = np.array([7, 2, 2, 19, 0, 11])
    verdict = gate_check(u, rows)
    for same in (rows.astype(np.uint16), list(rows)):
        assert gate_check(u, same) == verdict
    flipped = gate_check(u, rows[::-1])
    assert np.isclose(flipped.eigen_min, verdict.eigen_min, rtol=1e-12)
    assert np.isclose(flipped.eigen_max, verdict.eigen_max, rtol=1e-12)
    assert not gate_check(u, []).passed


def test_gate_full_sampling_passes():
    u = random_basis(30, 4, seed=1)
    verdict = gate_check(u, np.arange(30))
    assert verdict.passed
    assert np.isclose(verdict.eigen_min, 1.0, atol=1e-12)
    assert np.isclose(verdict.eigen_max, 1.0, atol=1e-12)
    assert np.isclose(verdict.lower_bound, 0.5)
    assert np.isclose(verdict.upper_bound, 1.5)


def test_gate_unobserved_spike_fails():
    u = Basis(np.eye(20)[:, :3])
    verdict = gate_check(u, np.arange(3, 12))  # rows 0..2 never sampled
    assert not verdict.passed
    assert verdict.eigen_max == 0.0


def test_gate_small_sample_fails_without_error():
    u = random_basis(30, 4, seed=2)
    verdict = gate_check(u, np.array([1, 5, 9]))
    assert not verdict.passed and verdict.eigen_min == 0.0


def test_gate_pass_certifies_inverse_norm():
    rng = np.random.default_rng(3)
    u = random_basis(200, 4, seed=3)
    omega = gated_draw(rng, u, 80)
    verdict = gate_check(u, omega)
    sub = u.columns[omega]
    inv_norm = np.linalg.norm(np.linalg.inv(sub.T @ sub), 2)
    assert inv_norm <= 2 * 200 / len(omega) + 1e-9
    assert np.isclose(1.0 / verdict.eigen_min, inv_norm, rtol=1e-9)


def test_gate_pass_rate_incoherent():
    from grouse.harness import incoherent_basis

    u = incoherent_basis(400, 5, seed=4)
    rng = np.random.default_rng(5)
    passed = sum(
        gate_check(u, np.sort(rng.choice(400, 120, replace=False))).passed
        for _ in range(1000)
    )
    assert passed >= 950


def _sample_rows(kind: str, m: int, d: int, seed: int) -> np.ndarray:
    """m sampled rows of a random orthonormal 4m x d basis, of the given kind."""
    rng = np.random.default_rng(seed)
    cols = orthonormalize(rng.standard_normal((4 * max(m, d), d)))
    rows = rng.choice(len(cols), m, replace=kind != "distinct")
    if kind == "repeated":
        rows = rows[rng.integers(0, max(1, m // 3), m)] if m else rows
    sub = cols[rows]
    if kind == "ill-conditioned":
        sub = sub * np.logspace(0, -rng.uniform(1, 15), d)
    return sub


def _on_window_bound(m: int, d: int, n: int, end: str, offset: float, seed: int) -> np.ndarray:
    """An m x d sample (m >= d) whose squared singular values spread over the window of n, one extreme on a bound.

    The extreme at ``end`` ("lower" or "upper") is that bound plus ``offset``.
    """
    lower, upper = 0.5 * m / n, 1.5 * m / n
    sq = np.linspace(lower, upper, d + 2)[1:-1]
    sq[0 if end == "lower" else -1] = (lower if end == "lower" else upper) + offset
    q = orthonormalize(np.random.default_rng(seed).standard_normal((m, d)))
    return q * np.sqrt(sq)


_WINDOW_BOUNDS = [(end, offset) for end in ("lower", "upper") for offset in (0.0, 1e-14, -1e-14)]


@pytest.mark.per_core
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["distinct", "with replacement", "repeated", "ill-conditioned", *_WINDOW_BOUNDS]),
    d=st.integers(1, 12),
    extra=st.integers(-12, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_passes_is_the_gate_bit(kind, d, extra, seed):
    # m < d, m = d and m > d, on samples that pass, fail low and fail high,
    # and (m >= d) with an extreme on or next to a window bound; each check
    # order gives the gate's bit
    m = max(0, d + extra)
    n = 4 * max(m, d)
    if isinstance(kind, tuple) and m >= d:
        sub = _on_window_bound(m, d, n, *kind, seed=seed)
    else:
        sub = _sample_rows("distinct" if isinstance(kind, tuple) else kind, m, d, seed)
    for scale in (1.0, 0.8, 1.2):
        exact = partial_data._gate(sub * scale, n).passed
        for fail_first in (False, True):
            assert partial_data._passes(sub * scale, n, fail_first) == exact
    if isinstance(kind, tuple) and m >= d:
        # too close to call from the Gram matrix: the gate decides
        with mock.patch.object(partial_data, "_gate", wraps=partial_data._gate) as gate:
            partial_data._passes(sub, n, False)
        assert gate.called


@pytest.mark.per_core
@pytest.mark.parametrize("end", ["lower", "upper"])
@pytest.mark.parametrize("offset", [0.0, 1e-14, -1e-14])
def test_passes_defers_to_the_gate_at_the_window_bounds(count_calls, end, offset):
    # an extreme squared singular value on a window bound, or within 1e-14
    # of it, is too close to call from the Gram matrix in either order
    n = 2000
    sub = _on_window_bound(80, 10, n, end, offset, seed=31)
    exact = partial_data._gate(sub, n).passed
    calls = count_calls(partial_data, "_gate")
    assert [partial_data._passes(sub, n, fail_first) for fail_first in (False, True)] == [exact, exact]
    assert len(calls) == 2


@pytest.mark.per_core
def test_passes_never_defers_on_the_stream_gated_shapes(count_calls):
    # 40 000 samples of the benchmark's gated stream (n=2000, d=10, q=80),
    # where most samples fail: in neither order is a bit left to the gate
    spec = ProblemSpec(n=2000, d=10, q=80, iters=300, seed=34)
    ubar, u0 = generate_problem(spec)
    rng = np.random.default_rng(35)
    samples = [(u, partial_data._sample(rng, spec.n, spec.q)) for u in (u0, ubar) for _ in range(20_000)]
    calls = count_calls(partial_data, "_gate")
    bits = [
        [partial_data._passes(u.columns[omega], spec.n, fail_first) for u, omega in samples]
        for fail_first in (False, True)
    ]
    assert not calls
    exact = [gate_check(u, omega).passed for u, omega in samples]
    assert 0 < sum(exact) < len(exact)
    assert bits == [exact, exact]


def test_partial_residual_exact_fit():
    u = random_basis(40, 3, seed=6)
    omega = np.arange(0, 40, 2)
    c = np.array([0.5, -1.0, 2.0])
    obs = Observation(n=40, omega=omega, values=u.columns[omega] @ c)
    w, p, r = partial_residual(u, obs)
    assert np.allclose(w, c, atol=1e-10)
    assert np.linalg.norm(r) <= 1e-12


def test_partial_residual_orthogonal_observation():
    u = Basis(np.eye(6)[:, :2])
    omega = np.arange(6)
    values = np.array([0.0, 0.0, 1.0, 2.0, 0.0, -1.0])
    w, p, r = partial_residual(u, Observation(n=6, omega=omega, values=values))
    assert np.allclose(w, 0.0, atol=1e-14)
    assert np.allclose(p, 0.0, atol=1e-14)
    assert np.allclose(r, values, atol=1e-14)


def test_partial_residual_matches_normal_equations():
    rng = np.random.default_rng(7)
    u = random_basis(50, 3, seed=7)
    omega = np.sort(rng.choice(50, 20, replace=False))
    values = rng.standard_normal(20)
    w, p, r = partial_residual(u, Observation(n=50, omega=omega, values=values))
    sub = u.columns[omega]
    w_oracle = np.linalg.solve(sub.T @ sub, sub.T @ values)
    assert np.linalg.norm(w - w_oracle) < 1e-9
    assert abs(p @ r) <= 1e-9 * np.linalg.norm(p) * np.linalg.norm(r) + 1e-15


def test_partial_residual_singular_sample():
    u = Basis(np.eye(6)[:, :2])
    # sampled rows are all zero rows of the spike basis
    obs = Observation(n=6, omega=np.array([3, 4, 5]), values=np.ones(3))
    with pytest.raises(NumericalError, match="gate bypassed on singular sample"):
        partial_residual(u, obs)


def test_step_size_rules():
    assert step_size(2.0, 0.0, 1.0, 1.0) == 0.0
    assert np.isclose(step_size(2.0, 1.0, 1.0, 1.0) * 2.0, np.pi / 2)
    assert np.isclose(step_size(3.0, 0.5, 1.0, 1.0) * 3.0, np.pi / 6)
    # clamped when alpha ||r||/||p|| > 1
    assert np.isclose(step_size(1.0, 3.0, 1.0, 1.0), np.pi / 2)
    with pytest.raises(NumericalError, match="degenerate projection"):
        step_size(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        step_size(1.0, 1.0, 1.0, 2.5)


def test_single_step_line_geometry():
    # n=2, d=1, full sampling: the step rotates u toward v by exactly
    # arcsin(min(1, alpha tan a)); for small angles that is a in O(a^3),
    # so one step nearly converges (exact one-step convergence belongs to
    # the full-data rule, which uses eta = theta/sigma instead).
    for a in (0.05, 0.3, 0.9):
        u = Basis(np.array([[1.0], [0.0]]))
        v = np.array([np.cos(a), np.sin(a)])
        obs = Observation(n=2, omega=np.array([0, 1]), values=v, latent_s=np.array([1.0]))
        ubar = Basis(v.reshape(2, 1))
        u1, rec = grouse_step(u, obs, 1.0, ubar)
        assert rec.taken
        psi = np.arcsin(min(1.0, np.tan(a)))
        expected = np.array([np.cos(psi), np.sin(psi)])
        assert np.linalg.norm(u1.columns[:, 0] - expected) < 1e-12
        assert np.isclose(rec.epsilon_after, np.sin(a - psi) ** 2, atol=1e-12)
        assert rec.clamped == (np.tan(a) > 1.0)
    # small-angle near-convergence: residual error is O(a^6) in epsilon
    a = 0.05
    u = Basis(np.array([[1.0], [0.0]]))
    v = np.array([np.cos(a), np.sin(a)])
    obs = Observation(n=2, omega=np.array([0, 1]), values=v, latent_s=np.array([1.0]))
    _, rec = grouse_step(u, obs, 1.0, Basis(v.reshape(2, 1)))
    assert rec.epsilon_after <= a**6


def test_grouse_step_orthonormal_and_least_change():
    rng = np.random.default_rng(9)
    u = random_basis(50, 3, seed=9)
    omega = gated_draw(rng, u, 25)
    values = rng.standard_normal(25)
    u1, rec = grouse_step(u, Observation(n=50, omega=omega, values=values))
    w = rec.w
    assert rec.taken and rec.eta > 0.0
    assert np.linalg.norm(u1.columns.T @ u1.columns - np.eye(3)) <= 1e-12
    # orthonormal completion oracle for the least-change direction set
    z = orthonormalize(
        np.hstack([w.reshape(-1, 1), np.random.default_rng(10).standard_normal((3, 2))])
    )[:, 1:]
    assert np.linalg.norm(u1.columns @ z - u.columns @ z) <= 1e-10


def test_grouse_step_gate_failure_returns_input():
    u = Basis(np.eye(20)[:, :3])
    obs = Observation(n=20, omega=np.arange(5, 12), values=np.ones(7))
    u1, rec = grouse_step(u, obs, 1.0)
    assert u1 is u
    assert not rec.taken and not rec.gate.passed
    assert rec.w is None and rec.r is None and rec.sigma == 0.0 and rec.eta == 0.0


def test_grouse_step_makes_one_basis_sized_copy():
    import tracemalloc

    n, d, m = 3000, 40, 400
    u = random_basis(n, d, seed=41)
    rng = np.random.default_rng(42)
    obs = Observation(n=n, omega=np.sort(rng.choice(n, size=m, replace=False)), values=rng.standard_normal(m))
    tracemalloc.start()
    try:
        u1, rec = grouse_step(u, obs, bypass_gate=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.eta > 0.0 and not u1.columns.flags.writeable
    # the rotated copy plus a row block and vectors; a Basis that copied the
    # rotated array again would add another n*d*8 bytes
    assert peak < 1.5 * n * d * 8


def test_grouse_step_in_span_observation_is_identity():
    rng = np.random.default_rng(11)
    ubar = random_basis(60, 4, seed=11)
    omega = gated_draw(rng, ubar, 30)
    obs = make_obs(ubar, omega, rng.standard_normal(4))
    u1, rec = grouse_step(ubar, obs, 1.0, ubar)
    assert rec.taken and rec.eta == 0.0
    assert np.array_equal(u1.columns, ubar.columns)
    assert rec.epsilon_after <= 1e-24


def test_grouse_step_decrease_inequality():
    rng = np.random.default_rng(12)
    n, d, q = 200, 5, 60
    u, ubar = pair_with_epsilon(n, d, 1e-4, seed=12)
    for _ in range(50):
        omega = gated_draw(rng, u, q)
        obs = make_obs(ubar, omega, rng.standard_normal(d))
        u1, rec = grouse_step(u, obs, 1.0, ubar)
        assert rec.taken
        ratio = (np.linalg.norm(rec.r) / np.linalg.norm(rec.p)) ** 2
        bound = (
            rec.epsilon_before
            - ratio
            + 55.0 * np.sqrt(n / q) * rec.epsilon_before**1.5
            + 1e-12
        )
        assert rec.epsilon_after <= bound


def test_step_invariants_and_rps_bounds():
    rng = np.random.default_rng(13)
    n, d, q = 200, 5, 60
    u, ubar = pair_with_epsilon(n, d, 1e-4, seed=13)
    for _ in range(60):
        omega = gated_draw(rng, u, q)
        s = rng.standard_normal(d)
        obs = make_obs(ubar, omega, s)
        u1, rec = grouse_step(u, obs, 1.0, ubar)
        nr, npp, nw = map(np.linalg.norm, (rec.r, rec.p, rec.w))
        ns = np.linalg.norm(s)
        eps = rec.epsilon_before
        assert abs(rec.p @ rec.r) <= 1e-9 * npp * nr
        assert abs(npp - nw) <= 1e-10 * nw
        total = np.linalg.norm(rec.p + rec.r) ** 2
        assert abs(total - npp**2 - nr**2) <= 1e-9 * total
        # norm bounds guaranteed under the gate + size + epsilon preconditions
        assert eps <= q**2 / (128 * n**2 * d)
        assert nr <= np.sqrt(2 * eps) * ns + 1e-9
        assert 0.75 * ns - 1e-9 <= npp <= 1.25 * ns + 1e-9
        assert nr**2 / npp**2 <= 32.0 / 9.0 * eps + 1e-9


def test_one_step_contraction_in_expectation():
    rng = np.random.default_rng(14)
    n, d, q = 200, 5, 60
    ratios = []
    for k in range(200):
        u, ubar = pair_with_epsilon(n, d, 1e-9, seed=1000 + k)
        omega = gated_draw(rng, u, q)
        obs = make_obs(ubar, omega, rng.standard_normal(d))
        _, rec = grouse_step(u, obs, 1.0, ubar)
        ratios.append(rec.epsilon_after / rec.epsilon_before)
    assert np.mean(ratios) < 1.0


def test_run_stream_edge_cases():
    u, ubar = pair_with_epsilon(30, 3, 0.05, seed=15)
    empty = run_stream(u, [], ubar=ubar)
    assert len(empty.epsilons) == 1
    assert np.isclose(empty.epsilons[0], epsilon_residual(u, ubar))

    # gate-failing stream leaves the trajectory constant
    spike = Basis(np.eye(30)[:, :3])
    bad = [
        Observation(n=30, omega=np.arange(10, 16), values=np.ones(6))
        for _ in range(5)
    ]
    res = run_stream(spike, bad, ubar=ubar)
    assert res.gate_skips == 5
    assert np.allclose(res.epsilons, res.epsilons[0])


@pytest.mark.parametrize("driver", ["run_full", "run_stream"])
def test_skipped_steps_reuse_drift_and_epsilon(driver, monkeypatch):
    import grouse.results
    from grouse.metrics import REORTHO_EVERY

    calls = {"_residual_energy": 0, "orthonormality_drift": 0}
    for name in calls:

        def counting(*args, _name=name, _original=getattr(grouse.results, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(grouse.results, name, counting)
    _, ubar = pair_with_epsilon(30, 3, 0.05, seed=15)
    steps = 2 * REORTHO_EVERY + 50
    spike = Basis(np.eye(30)[:, :3])
    bad = Observation(n=30, omega=np.arange(10, 16), values=np.ones(6))
    if driver == "run_full":
        # every draw lies in the span of the start basis: identity steps only
        res = run_full(ubar, ubar, steps, seed=2)
        assert not res.taken.any()
    else:
        res = run_stream(spike, [bad] * steps, ubar=ubar)
        assert res.gate_skips == steps
    # epsilon at entry and after each cadence QR; no drift check of the
    # validated, unmoved basis, one of each fresh QR factor
    assert calls == {"_residual_energy": 3, "orthonormality_drift": 2}
    eps = res.epsilons
    for start in range(0, steps + 1, REORTHO_EVERY):
        assert np.all(eps[start : start + REORTHO_EVERY] == eps[start])
    if driver == "run_full":
        return

    # an identity step and skipped steps reuse; the rotating step measures
    calls.update(dict.fromkeys(calls, 0))
    identity = Observation(n=30, omega=np.arange(30), values=spike.columns @ [1.0, 2.0, 3.0])
    rotating = make_obs(ubar, np.arange(30), np.array([1.0, -1.0, 0.5]))
    res = run_stream(spike, [identity, bad, identity, rotating, bad], ubar=ubar)
    assert res.taken.tolist() == [True, False, True, True, False]
    assert calls == {"_residual_energy": 2, "orthonormality_drift": 1}
    assert np.all(res.epsilons[:4] == res.epsilons[0]) and res.epsilons[5] == res.epsilons[4]


def test_empty_runs_build_typed_zero_length_step_arrays(tmp_path):
    u, ubar = pair_with_epsilon(30, 3, 0.05, seed=15)
    path = tmp_path / "t0.csv"
    write_trajectory_csv(path, run_stream(u, [], ubar=ubar))
    assert len(path.read_text().splitlines()) == 2  # the header and the t=0 row
    for res in (run_full(u, ubar, 0, seed=1), run_stream(u, []), read_trajectory_csv(path)):
        for name, dtype in [
            ("gate_passed", bool),
            ("taken", bool),
            ("norm_r", np.float64),
            ("norm_p", np.float64),
            ("theta", np.float64),
        ]:
            column = getattr(res, name)
            assert column.shape == (0,) and column.dtype == dtype, name
        assert res.iterations == 0 and res.gate_skips == 0


def _assert_chain_of_grouse_steps(u, stream, alpha, ubar):
    """``run_stream(u, stream, alpha, ubar)`` holds the bits of single ``grouse_step`` calls.

    The chain applies the trajectory's QR rule between steps: a QR every
    ``REORTHO_EVERY`` steps, and one whenever the drift check, run on a
    rotated basis or on the step after a QR, finds excess drift.  The
    check and the QR are called through ``grouse.results``, so a test that
    patches them there patches both sides.  Returns the step records.
    """
    import grouse.results
    from grouse.metrics import REORTHO_EVERY

    res = run_stream(u, stream, alpha, ubar)
    records, epsilons, checked = [], [epsilon_residual(u, ubar)], True
    for t, obs in enumerate(stream, 1):
        u_next, rec = grouse_step(u, obs, alpha, ubar)
        records.append(rec)
        checked = checked and u_next is u
        qr = t % REORTHO_EVERY == 0
        if not (qr or checked):
            qr = grouse.results.orthonormality_drift(u_next.columns) > BASIS_DRIFT_TOL
            checked = not qr
        if qr:
            u_next = Basis(grouse.results.orthonormalize(u_next.columns))
            checked = False
        epsilons.append(epsilon_residual(u_next, ubar))
        u = u_next
    assert res.epsilons.tolist() == epsilons
    for field, vector in (("norm_r", "r"), ("norm_p", "p")):
        vectors = [getattr(rec, vector) for rec in records]
        expected = [0.0 if x is None else np.linalg.norm(x) for x in vectors]
        assert getattr(res, field).tolist() == expected
    assert res.taken.tolist() == [rec.taken for rec in records]
    assert res.gate_passed.tolist() == [rec.gate.passed for rec in records]
    theta = [np.nan if rec.theta is None else rec.theta for rec in records]
    assert np.array_equal(res.theta, theta, equal_nan=True)
    return records


def test_run_stream_is_a_chain_of_grouse_steps():
    from grouse.metrics import REORTHO_EVERY

    rng = np.random.default_rng(23)
    u, ubar = pair_with_epsilon(60, 4, 0.3, seed=23)
    # q = 3 < d always fails the gate; zero values give identity steps
    shapes = [(3, 1.0), (30, 1.0), (40, 0.0), (12, 1.0)] * 15
    stream = []
    for q, scale in shapes:
        omega = np.sort(rng.choice(60, size=q, replace=False))
        stream.append(make_obs(ubar, omega, scale * rng.standard_normal(4)))
    assert len(stream) < REORTHO_EVERY
    records = _assert_chain_of_grouse_steps(u, stream, 1.5, ubar)
    assert not all(rec.taken for rec in records) and any(rec.taken for rec in records)
    assert any(rec.taken and rec.eta == 0.0 for rec in records)


def _gated_stream(spec: ProblemSpec):
    """The seeded problem of ``spec`` and its observations, as checked Observations."""
    from grouse.harness import _observation_stream

    ubar, u0 = generate_problem(spec)
    return u0, ubar, [Observation(spec.n, *draw) for draw in _observation_stream(spec, ubar)]


def test_skip_runs_through_the_qr_cadence_are_a_chain_of_grouse_steps():
    # the benchmark's gated shape, where about 95% of steps fail the gate;
    # at this seed steps 85-108 and 190-210 are all skipped, so a run of
    # skips, decided fail certificate first, reaches each cadence QR and the
    # next step is decided on its factor
    from grouse.metrics import REORTHO_EVERY

    u0, ubar, stream = _gated_stream(ProblemSpec(n=2000, d=10, q=80, iters=250, seed=48))
    records = _assert_chain_of_grouse_steps(u0, stream, 1.0, ubar)
    taken = [rec.taken for rec in records]
    for cadence in (REORTHO_EVERY, 2 * REORTHO_EVERY):
        assert not any(taken[cadence - 10 : cadence + 5])
    assert sum(taken) >= 5


def test_steps_after_drift_triggered_qrs_are_a_chain_of_grouse_steps(monkeypatch):
    # the drift check reports excess drift on every rotated basis and on
    # every QR factor of one, so each taken step ends in a QR, the step
    # after it checks that factor and QRs again, and only the step after
    # that finds the second factor orthonormal; the skips between are
    # decided on whichever factor the buffer holds
    import grouse.results

    second, excess = {}, []
    real_qr, real_drift = grouse.results.orthonormalize, grouse.results.orthonormality_drift

    def qr(a):
        q = real_qr(a)
        second[q.tobytes()] = a.tobytes() in second
        return q

    def drift(cols):
        excess.append(not second.get(cols.tobytes(), False))
        return 1.0 if excess[-1] else real_drift(cols)

    monkeypatch.setattr(grouse.results, "orthonormalize", qr)
    monkeypatch.setattr(grouse.results, "orthonormality_drift", drift)
    u0, ubar, stream = _gated_stream(ProblemSpec(n=2000, d=10, q=80, iters=150, seed=40))
    records = _assert_chain_of_grouse_steps(u0, stream, 1.0, ubar)
    # both sides ran the checks: two with excess drift per taken step (its
    # rotated basis and the first factor), and one that passes
    taken = sum(rec.taken for rec in records)
    assert taken >= 5
    assert excess.count(True) >= 4 * taken and excess.count(False) >= 2 * taken


def test_gated_stream_reads_each_observation_when_its_step_starts(count_calls):
    # observation t is pulled once t steps are decided, also through a run
    # of gate failures, so one of another n raises when its own step reads
    # it and no observation past it is pulled
    decided = count_calls(partial_data, "_passes")
    pulled = []

    def stream():
        # the sampled rows of a spike basis are zero: a singular Gram matrix
        for n in [30] * 40 + [31, 30]:
            pulled.append(len(decided))
            yield Observation(n, np.arange(5, 12), np.ones(7))

    with pytest.raises(ValueError, match="^observation and basis ambient dimensions differ$"):
        run_stream(Basis(np.eye(30)[:, :3]), stream())
    assert pulled == list(range(41))


def test_streams_whose_sample_size_changes_are_a_chain_of_grouse_steps():
    # runs of one sample size of several lengths, and sizes below d, which
    # fail at once, between runs of either check order
    u, ubar = pair_with_epsilon(300, 4, 0.5, seed=36)
    rng = np.random.default_rng(36)
    sizes = [24] * 7 + [20] * 3 + [2] + [24, 20] * 4 + [3] * 5 + [16] * 20 + [24] * 30
    stream = [make_obs(ubar, partial_data._sample(rng, 300, q), rng.standard_normal(4)) for q in sizes]
    records = _assert_chain_of_grouse_steps(u, stream, 1.0, ubar)
    assert any(rec.taken for rec in records) and not all(rec.taken for rec in records)


@pytest.mark.parametrize("alpha", [0.0, -1.0, 2.0, 5.0, np.nan])
def test_alpha_outside_range_rejected_at_entry(alpha):
    u = random_basis(30, 3, seed=15)
    spike = Basis(np.eye(30)[:, :3])
    fails_gate = Observation(n=30, omega=np.arange(10, 16), values=np.ones(6))
    in_span = Observation(n=30, omega=np.arange(30), values=u.columns @ [1.0, 2.0, -0.5])
    # with a valid alpha these are a skipped step and an identity step
    assert not grouse_step(spike, fails_gate, 1.0)[1].taken
    assert grouse_step(u, in_span, 1.0)[1].eta == 0.0
    for basis, obs in ((spike, fails_gate), (u, in_span)):
        with pytest.raises(ValueError, match="alpha"):
            grouse_step(basis, obs, alpha)

    def unread():
        raise AssertionError("stream was read")
        yield

    for stream in (unread(), [], [fails_gate] * 5):
        with pytest.raises(ValueError, match="alpha"):
            run_stream(spike, stream, alpha=alpha)


def test_run_stream_forced_in_span_first_observation():
    ubar, _ = pair_with_epsilon(30, 3, 0.05, seed=16)
    u0 = ubar
    rng = np.random.default_rng(16)
    omega = gated_draw(rng, u0, 15)
    obs = make_obs(ubar, omega, rng.standard_normal(3))
    res = run_stream(u0, [obs], ubar=ubar)
    assert np.isclose(res.epsilons[1], res.epsilons[0], atol=1e-20)


def test_run_stream_determinism_and_drift():
    from grouse.harness import ProblemSpec, run_partial_trial

    spec = ProblemSpec(n=150, d=4, q=40, iters=120, seed=99)
    r1 = run_partial_trial(spec)
    r2 = run_partial_trial(spec)
    assert np.array_equal(r1.epsilons, r2.epsilons)
    assert np.all(r1.epsilons >= 0.0) and np.all(r1.epsilons <= 4.0)


def test_orthonormality_drift_stays_within_budget():
    rng = np.random.default_rng(17)
    u, ubar = pair_with_epsilon(80, 4, 0.3, seed=17)
    for k in range(150):
        omega = gated_draw(rng, u, 40)
        obs = make_obs(ubar, omega, rng.standard_normal(4))
        u, rec = grouse_step(u, obs, 1.0)
        drift = np.linalg.norm(u.columns.T @ u.columns - np.eye(4))
        assert drift <= 1e-8


def test_run_stream_gate_rate_at_recipe_sample_size():
    # 1000-step stream at n=10000, d=10, q = ceil(d log d log n): the gate
    # passes on at least 95% of steps for an incoherent near-solution basis
    n, d = 10_000, 10
    q = int(np.ceil(d * np.log(d) * np.log(n)))
    u0, ubar = pair_with_epsilon(n, d, 1e-4, seed=30, frame="incoherent")
    rng = np.random.default_rng(31)

    def stream():
        for _ in range(1000):
            s = rng.standard_normal(d)
            v = ubar.columns @ s
            omega = np.sort(rng.choice(n, size=q, replace=False))
            yield Observation(n=n, omega=omega, values=v[omega], latent_s=s)

    res = run_stream(u0, stream())
    assert res.gate_skips <= 50


def test_alignment_computes_below_double_dimension():
    # n < 2d: the sandwich is not asserted but the rotation is still defined
    from grouse.metrics import alignment

    rot = orthonormalize(np.random.default_rng(33).standard_normal((4, 4)))
    cols = orthonormalize(np.random.default_rng(34).standard_normal((6, 4)))
    a = Basis(cols)
    b = Basis(cols @ rot)
    v = alignment(a, b)
    assert np.allclose(v.T @ v, np.eye(4), atol=1e-12)


def test_observation_csv_round_trip(tmp_path):
    rng = np.random.default_rng(18)
    obs_list = []
    for t in range(4):
        omega = np.sort(rng.choice(25, size=8, replace=False))
        obs_list.append(Observation(n=25, omega=omega, values=rng.standard_normal(8)))
    # repr floats at the edges of binary64, a signed zero, and an empty sample
    tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
    edges = [0.1, -0.0, 1.0 / 3.0, tiny, -huge, 2.2250738585072014e-308, 1e22, -7.0]
    obs_list += [Observation(n=25, omega=np.arange(0, 24, 3), values=edges), Observation(n=25, omega=[], values=[])]
    path = tmp_path / "observations.csv"
    write_observations(path, obs_list)
    text = path.read_text()
    # wire format is 1-based: no index 0 may appear, n=25 may
    first_indices = text.splitlines()[0].split(",")[2]
    assert "0" not in first_indices.split(";")
    back = read_observations(path)
    assert len(back) == 6
    for a, b in zip(obs_list, back):
        assert b.omega.dtype == a.omega.dtype and b.values.dtype == a.values.dtype
        assert b.omega.tobytes() == a.omega.tobytes()
        assert b.values.tobytes() == a.values.tobytes()


def test_observation_csv_round_trips_a_wide_observation(tmp_path):
    # its values field holds about 157k characters, past csv's 131072-character field limit
    rng = np.random.default_rng(22)
    omega = np.sort(rng.choice(20000, size=8000, replace=False))
    obs = Observation(n=20000, omega=omega, values=rng.standard_normal(8000))
    path = tmp_path / "observations.csv"
    write_observations(path, [obs])
    assert len(path.read_text().split(",")[3]) > 131072
    (back,) = read_observations(path)
    assert back.n == obs.n
    assert back.omega.tobytes() == obs.omega.tobytes()
    assert back.values.tobytes() == obs.values.tobytes()


@pytest.mark.parametrize(
    "indices, values",
    [
        ("1.5", "1.0"),
        ("x", "1.0"),
        ("1;;2", "1.0;2.0"),
        ("1e3", "1.0"),
        ("1;2;", "1.0;2.0"),  # a trailing separator would parse short
        ("1;2", "1.0;2.0;"),
        (";1", "1.0"),
        ("1;-", "1.0;2.0"),  # a bare sign would parse as 0
        ("1; ", "1.0;2.0"),  # a blank element would parse as 0
        ("1;2", "1.0; "),  # ... or as -1.0
        ("- 1", "1.0"),
        ("1_0", "1.0"),
        ("1", "x"),
        ("1", "1.0;;2.0"),
        ("1", "1_0.5"),
        ("1", "0x10"),
        # a quoted field is not one the writer writes, though csv.reader would unquote it
        ('"1"', "1.0"),
        ("1", '"1.0"'),
    ],
)
def test_observation_csv_rejects_malformed_fields(tmp_path, indices, values):
    path = tmp_path / "observations.csv"
    path.write_text(f"0,20,{indices},{values}\n")
    with pytest.raises(ValueError):
        read_observations(path)


@pytest.mark.parametrize(
    "row",
    [
        "0,5",
        "0,5,1",
        "0,5,1,0.5,0.5",
        # t and n are plain digits; int() would read each of these
        "+0, 1_0,1;2,0.5;0.25",
        "0,1_0,1;2,0.5;0.25",
        "+0,5,1,0.5",
        "-0,5,1,0.5",
        " 0,5,1,0.5",
        "0,+5,1,0.5",
        "0,5 ,1,0.5",
    ],
)
def test_observation_csv_rejects_short_and_long_rows(tmp_path, row):
    path = tmp_path / "observations.csv"
    path.write_text(f"1,5,2,2.0\n{row}\n")
    with pytest.raises(ValueError, match="fields"):
        read_observations(path)


def test_observation_csv_rejects_duplicate_t(tmp_path):
    path = tmp_path / "observations.csv"
    path.write_text("0,5,1;3,0.5;1.5\n1,5,2,2.0\n0,5,4,1.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_observations(path)


def test_grouse_step_rejects_dimension_mismatch():
    u = random_basis(20, 3, 0)
    obs = Observation(n=30, omega=[0, 5, 25], values=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="dimensions differ"):
        grouse_step(u, obs, 1.0)
    with pytest.raises(ValueError, match="dimensions differ"):
        grouse_step(u, obs, 1.0, bypass_gate=True)
    with pytest.raises(ValueError, match="dimensions differ"):
        partial_residual(u, obs)
    with pytest.raises(ValueError, match="dimensions"):
        run_stream(u, [], ubar=random_basis(30, 3, 1))
    fits = Observation(n=20, omega=np.arange(20), values=u.columns @ [1.0, 0.5, -2.0])
    with pytest.raises(ValueError, match="dimensions differ"):
        run_stream(u, [fits, obs, fits])


# (n, d): d = 1, n = d + 1, n*d inside one row block, and several row
# blocks with a partial last one (1638 rows per block at d = 20)
_KERNEL_SHAPES = [(2, 1), (300, 1), (6, 5), (40, 8), (5000, 20)]


@pytest.mark.per_core
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(_KERNEL_SHAPES),
    seed=st.integers(0, 10_000),
    angle=st.floats(0.0, np.pi / 2),
)
def test_rotate_in_place_is_bitwise_the_outer_product_update(shape, seed, angle):
    n, d = shape
    u = random_basis(n, d, seed=seed)
    v = np.random.default_rng([seed, 1]).standard_normal(n)
    w, p, r, norm_w, norm_p, norm_r, theta = _split(u.columns, v)
    assume(not _is_identity(theta))  # the drivers never rotate at these angles
    cols = np.array(u.columns)
    y, gain = _rotate(cols, w, p, r, norm_w, norm_p, norm_r, angle)
    assert y.tobytes() == (w / norm_w).tobytes()
    expected = u.columns + np.outer(gain, w / norm_w)
    assert cols.tobytes() == expected.tobytes()
    assert orthonormality_drift(cols) <= BASIS_DRIFT_TOL


@pytest.mark.per_core
@pytest.mark.parametrize("shape", [(40, 8), (5000, 20)])
def test_rotate_keeps_signed_zeros_and_single_roundings(shape):
    # (40, 8) fits one row block; (5000, 20) spans four, the last one short.
    # Zero rows of p and r give gain entries of +0.0 (p_i = r_i = +0.0) and
    # -0.0 (r_i = -0.0); w has a +0.0 and a -0.0 entry.  cols holds -0.0 in
    # those rows and columns and in every third entry elsewhere, so a term
    # started from +0.0 turns -0.0 + -0.0 into +0.0, and a term fused into
    # the add rounds the random entries once instead of twice.
    n, d = shape
    rng = np.random.default_rng(n)
    p, r, w = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(d)
    zero_rows = np.arange(0, n, 7)
    p[zero_rows] = 0.0
    r[zero_rows[::2]] = 0.0
    r[zero_rows[1::2]] = -0.0
    w[0], w[-1] = 0.0, -0.0
    cols = rng.standard_normal((n, d))
    cols.flat[::3] = -0.0
    cols[zero_rows] = -0.0
    cols[:, [0, -1]] = -0.0
    cols0 = cols.copy()
    norms = [math.sqrt(x.dot(x)) for x in (w, p, r)]
    y, gain = _rotate(cols, w, p, r, *norms, 0.7)
    assert (gain < 0).any() and (gain > 0).any()
    assert np.signbit(gain[gain == 0]).any() and not np.signbit(gain[gain == 0]).all()
    assert np.signbit(y[y == 0]).tolist() == [False, True]
    assert cols.tobytes() == (cols0 + np.outer(gain, y)).tobytes()


def test_rotate_runs_dger_on_one_blas_thread_and_restores_counts(monkeypatch):
    # scipy's OpenBLAS pool on two threads fights numpy's for the cores
    controls = _openblas_thread_controls()
    initial = [getter() for _, getter in controls]
    seen = []

    def recording_dger(*args, **kwargs):
        seen.append(tuple(getter() for _, getter in controls))
        return dger(*args, **kwargs)

    monkeypatch.setattr(metrics, "dger", recording_dger)
    u = random_basis(5000, 20, seed=3)
    w, p, r, norm_w, norm_p, norm_r, _ = _split(u.columns, np.random.default_rng(3).standard_normal(5000))
    try:
        for setter, _ in controls:
            setter(2)
        _rotate(np.array(u.columns), w, p, r, norm_w, norm_p, norm_r, 0.3)
        assert [getter() for _, getter in controls] == [2] * len(controls)
    finally:
        for (setter, _), count in zip(controls, initial):
            setter(count)
    assert len(seen) == 4 and set(seen) == {(1,) * len(controls)}


def test_steps_return_read_only_bases_sharing_no_memory():
    rng = np.random.default_rng(21)
    u, ubar = pair_with_epsilon(60, 3, 0.3, seed=21)
    before = u.columns.copy()
    obs = make_obs(ubar, gated_draw(rng, u, 30), rng.standard_normal(3))
    stepped, rec = grouse_step(u, obs, 1.0)
    assert rec.taken and rec.eta > 0.0
    full, _ = full_step(u, ubar.columns @ rng.standard_normal(3), ubar)
    for new in (stepped, full):
        assert not new.columns.flags.writeable
        assert not np.shares_memory(new.columns, u.columns)
    assert np.array_equal(u.columns, before)


def _orthogonal_to_rows(sub, rng):
    """Values on the sample orthogonal to every column of ``sub`` (zero when square)."""
    q, d = sub.shape
    complement = np.linalg.qr(sub, mode="complete")[0][:, d:]
    return complement @ rng.standard_normal(q - d)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 5),
    extra=st.sampled_from([1, 2, 20]),  # n - d; 1 is n = d + 1
    q_kind=st.sampled_from(["below d", "d", "mid", "n"]),
    kind=st.sampled_from(["generic", "in span", "orthogonal"]),
    alpha=st.floats(1.9, 2.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 10_000),
)
def test_grouse_step_invariants_on_degenerate_shapes(d, extra, q_kind, kind, alpha, seed):
    n = d + extra
    q = {"below d": seed % d, "d": d, "mid": (d + n + 1) // 2, "n": n}[q_kind]
    rng = np.random.default_rng(seed)
    u = random_basis(n, d, seed=seed)
    omega = np.sort(rng.choice(n, size=q, replace=False))
    sub = u.columns[omega]
    if kind == "in span":
        values = sub @ rng.standard_normal(d)
    elif kind == "orthogonal" and q >= d:
        values = _orthogonal_to_rows(sub, rng)
    else:
        values = rng.standard_normal(q)
    u1, rec = grouse_step(u, Observation(n=n, omega=omega, values=values), alpha)
    if q < d:
        assert not rec.gate.passed
    if not rec.gate.passed:
        assert not rec.taken and u1 is u
        return
    assert rec.taken
    off = np.ones(n, dtype=bool)
    off[omega] = False
    assert np.all(rec.r[off] == 0.0)
    assert abs(rec.p @ rec.r) <= 1e-12 * np.linalg.norm(rec.w) * np.linalg.norm(values)
    assert orthonormality_drift(u1.columns) <= BASIS_DRIFT_TOL
    if kind != "generic":
        # nothing to explain, or nothing revealed along the span: identity
        assert rec.eta == 0.0 and u1 is u
        return
    # least change: directions orthogonal to w keep their image
    if d > 1:
        z = np.linalg.qr(rec.w.reshape(-1, 1), mode="complete")[0][:, 1:]
        assert np.linalg.norm(u1.columns @ z - u.columns @ z) <= 1e-10


@pytest.mark.parametrize("driver", ["run_full", "run_stream"])
def test_reorthonormalization_cadence(driver, monkeypatch):
    import grouse.full_data
    import grouse.results
    from grouse.metrics import REORTHO_EVERY

    steps = 2 * REORTHO_EVERY
    u0, ubar = pair_with_epsilon(40, 3, 0.3, seed=22)
    seen, at = [0], []

    def counting_orthonormalize(a):
        at.append(seen[0])
        return orthonormalize(a)

    monkeypatch.setattr(grouse.results, "orthonormalize", counting_orthonormalize)
    if driver == "run_full":
        split = grouse.full_data._split

        def counting_split(cols, v):
            seen[0] += 1
            return split(cols, v)

        monkeypatch.setattr(grouse.full_data, "_split", counting_split)
        run_full(u0, ubar, steps, seed=5)
    else:
        rng = np.random.default_rng(22)

        def stream():
            for _ in range(steps):
                seen[0] += 1
                omega = np.sort(rng.choice(40, size=20, replace=False))
                yield make_obs(ubar, omega, rng.standard_normal(3))

        assert run_stream(u0, stream()).taken.sum() > REORTHO_EVERY
    assert at == [REORTHO_EVERY, 2 * REORTHO_EVERY]
