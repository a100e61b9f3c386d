import functools
import itertools
import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg.blas import dger

from grouse import metrics, partial_data, results
from grouse.full_data import _is_identity, _split, full_step, run_full
from grouse.linalg import NumericalError, _openblas_thread_controls, dgemv, orthonormalize
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
from grouse.harness import run_full_trial, run_partial_trial
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


def test_observations_compare_and_hash_by_identity():
    # a record holding arrays compares as Basis does: by identity, without
    # asking numpy for the truth value of an array
    first, second = (Observation(n=5, omega=[0, 2], values=[1.0, 2.0]) for _ in range(2))
    assert first == first and first != second and not first == second
    assert first in [second, first] and second not in [first]
    assert len({first, second, first}) == 2 and hash(first) != hash(second)


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


def _slack(sub: np.ndarray, n: int) -> float:
    """The slack s of :func:`partial_data._passes`'s docstring for an m x d sample of n rows."""
    m, d = sub.shape
    return partial_data._GATE_SLACK * (m + d * d) * (float(np.sum(sub * sub)) + 1.5 * d * m / n)


def _exact_extremes(sub: np.ndarray) -> tuple:
    """The least and greatest eigenvalue of S^T S for the float sample S, at 80 digits."""
    with mpmath.workdps(80):
        s = mpmath.matrix(sub.tolist())
        eigenvalues = mpmath.eigsy(s.T * s, eigvals_only=True)
        return min(eigenvalues), max(eigenvalues)


@pytest.mark.per_core
@pytest.mark.parametrize("m, d, n", [(80, 10, 2000), (40, 6, 150), (12, 3, 30), (4, 1, 8)])
def test_passes_defers_to_the_gate_inside_the_slack_band_only(count_calls, m, d, n):
    # an extreme of S^T S within s of a window bound, by the exact
    # eigenvalue, is left to the gate in either check order; a sample more
    # than 2s from both bounds is decided by the certificates alone
    gate = partial_data._gate
    calls = count_calls(partial_data, "_gate")
    for end, bound in (("lower", 0.5 * m / n), ("upper", 1.5 * m / n)):
        s = _slack(_on_window_bound(m, d, n, end, 0.0, seed=m), n)
        for offset, in_band in ((s / 4, True), (-s / 4, True), (7 * s / 8, True), (-7 * s / 8, True),
                                (2.5 * s, False), (-2.5 * s, False)):
            sub = _on_window_bound(m, d, n, end, offset, seed=m)
            # the sample's own slack, which its placement moves slightly
            slack = _slack(sub, n)
            low, high = _exact_extremes(sub)
            assert abs((low if end == "lower" else high) - (bound + offset)) < slack / 64
            # the placed extreme's distance to its bound, then the others
            extremes = (low, high) if d > 1 else (low,)
            distances = sorted(abs(x - b) for x in extremes for b in (0.5 * m / n, 1.5 * m / n))
            assert distances[1] > 2 * slack
            assert distances[0] < slack if in_band else distances[0] > 2 * slack
            for fail_first in (False, True):
                before = len(calls)
                assert partial_data._passes(sub, n, fail_first) == gate(sub, n).passed
                assert len(calls) == before + in_band


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


@pytest.mark.per_core
@pytest.mark.parametrize("d", [1, 5, 10])
def test_passes_mutates_neither_the_sample_nor_the_shared_identity(d):
    # the shared identity goes to a BLAS routine that could overwrite it: on
    # samples that pass, fail and fall back to the gate, in both orders, the
    # sample and the identity keep their bits and the identity stays read-only
    m, n = 8 * d, 32 * d
    eye = partial_data._eye(d)
    before = eye.tobytes()
    subs = [_sample_rows("distinct", m, d, seed) for seed in range(4)]
    subs += [_on_window_bound(m, d, n, end, 0.0, seed=d) for end in ("lower", "upper")]
    bits = set()
    for sub in subs:
        for scale in (0.5, 1.0, 2.0):
            sample = sub * scale
            copy = sample.copy()
            for fail_first in (False, True):
                bits.add(partial_data._passes(sample, n, fail_first))
                assert sample.tobytes() == copy.tobytes()
    assert bits == {False, True}
    assert partial_data._eye(d) is eye and eye.tobytes() == before
    assert not eye.flags.writeable


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
    # epsilon at entry and after each cadence QR; one drift check of the
    # unmoved start basis, by the first step, and one of each fresh QR factor
    assert calls == {"_residual_energy": 3, "orthonormality_drift": 3}
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
    ``REORTHO_EVERY`` steps, and one whenever the drift check, run by the
    first step, after each rotation and by the step after a QR, finds
    excess drift.  The check and the QR are called through
    ``grouse.results``, so a test that patches them there patches both
    sides.  Returns the step records.
    """
    import grouse.results
    from grouse.metrics import REORTHO_EVERY

    res = run_stream(u, stream, alpha, ubar)
    records, epsilons, checked = [], [epsilon_residual(u, ubar)], False
    for t, obs in enumerate(stream, 1):
        u_next, rec = grouse_step(u, obs, alpha, ubar)
        records.append(rec)
        checked = checked and u_next is u
        qr = t % REORTHO_EVERY == 0
        if not (qr or checked):
            qr = grouse.results.orthonormality_drift(u_next.columns) > BASIS_DRIFT_TOL
            checked = not qr
        if qr:
            u_next = Basis(grouse.results._orthonormalize_in_place(np.array(u_next.columns, order="F")))
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
    real_qr, real_drift = grouse.results._orthonormalize_in_place, grouse.results.orthonormality_drift

    def qr(f):
        # the QR overwrites its input, so its bytes are read first
        factor_of_factor = f.tobytes() in second
        q = real_qr(f)
        second[q.tobytes()] = factor_of_factor
        return q

    def drift(cols):
        excess.append(not second.get(cols.tobytes(), False))
        return 1.0 if excess[-1] else real_drift(cols)

    monkeypatch.setattr(grouse.results, "_orthonormalize_in_place", qr)
    monkeypatch.setattr(grouse.results, "orthonormality_drift", drift)
    # the faked drift is no rotation's rounding, so the certificate must defer
    monkeypatch.setattr(grouse.results, "_drift_bound", lambda *args: math.inf)
    u0, ubar, stream = _gated_stream(ProblemSpec(n=2000, d=10, q=80, iters=150, seed=40))
    records = _assert_chain_of_grouse_steps(u0, stream, 1.0, ubar)
    # both sides ran the checks: two with excess drift per taken step (its
    # rotated basis and the first factor), and one that passes
    taken = sum(rec.taken for rec in records)
    assert taken >= 5
    assert excess.count(True) >= 4 * taken and excess.count(False) >= 2 * taken


def _trajectory_events(monkeypatch) -> list:
    """Record, in call order, the trajectory's drift bounds, exact drift checks and QRs.

    Each is an entry ``("bound", value)``, ``("check", reading)`` or
    ``("qr",)`` of the returned list; the calls themselves are unchanged.
    """
    import grouse.results

    events = []

    def recording(kind, real):
        def call(*args):
            value = real(*args)
            events.append((kind,) if kind == "qr" else (kind, value))
            return value

        return call

    names = {"bound": "_drift_bound", "check": "orthonormality_drift", "qr": "_orthonormalize_in_place"}
    for kind, name in names.items():
        monkeypatch.setattr(grouse.results, name, recording(kind, getattr(grouse.results, name)))
    return events


def _result_bytes(res) -> bytes:
    names = ("epsilons", "gate_passed", "taken", "norm_r", "norm_p", "theta")
    return b"".join(np.asarray(getattr(res, name)).tobytes() for name in names)


def _sweep_x_bytes(seed: int) -> bytes:
    from grouse.harness import _sweep_trial_x

    return np.float64(_sweep_trial_x(ProblemSpec(n=1000, d=10, q=40, iters=250, seed=seed), True)).tobytes()


def _trial_bytes(bypass_gate=False, **spec) -> bytes:
    spec = ProblemSpec(iters=250, seed=7, **spec)
    if spec.q == "full":
        return _result_bytes(run_full_trial(spec))
    return _result_bytes(run_partial_trial(spec, bypass_gate=bypass_gate))


# Runs that step a drift-checked trajectory through two cadence QRs: the
# montecarlo sweep's bypassed cell, the recorded gated stream, run_full
# below _EXACT_EPS_LIMIT (epsilon from scratch, drift checked), and the
# extreme shapes d = 1 and n = d + 1
_CERTIFIED_RUNS = {
    **{f"sweep-{seed}": functools.partial(_sweep_x_bytes, seed) for seed in (1, 2, 3)},
    "gated": functools.partial(_trial_bytes, n=500, d=5, q=80),
    "full": functools.partial(_trial_bytes, n=300, d=8, q="full"),
    "d=1": functools.partial(_trial_bytes, True, n=50, d=1, q=10),
    "n=d+1 partial": functools.partial(_trial_bytes, True, n=6, d=5, q=6),
    "n=d+1 full": functools.partial(_trial_bytes, n=6, d=5, q="full"),
}


@pytest.mark.per_core
@pytest.mark.parametrize("deferred", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("case", list(_CERTIFIED_RUNS))
def test_drift_certificate_keeps_the_bits_of_the_exact_checks(case, deferred, monkeypatch):
    import grouse.results
    from grouse.metrics import REORTHO_EVERY

    run = _CERTIFIED_RUNS[case]
    events = _trajectory_events(monkeypatch)
    certified = run()
    checks, qrs = (sum(e[0] == kind for e in events) for kind in ("check", "qr"))
    assert qrs == 250 // REORTHO_EVERY
    # the start and each QR factor take one exact check; the certificate decides every other step
    assert 1 <= checks <= qrs + 1
    # forced to defer by a bound of +inf or NaN, every check runs exactly, with the same bits
    events.clear()
    monkeypatch.setattr(grouse.results, "_drift_bound", lambda *args: deferred)
    assert run() == certified
    assert sum(e[0] == "check" for e in events) > 10 * checks


def _mp_drift(cols) -> mpmath.mpf:
    """||B^T B - I||_F of the float array ``cols``, evaluated in mpmath."""
    cols = [[mpmath.mpf(float(x)) for x in row] for row in cols.T]
    return mpmath.sqrt(mpmath.fsum(
        (mpmath.fdot(a, b) - (i == j)) ** 2 for i, a in enumerate(cols) for j, b in enumerate(cols)
    ))


def _mp_drift_bound(cols, y, gain, bound, e) -> mpmath.mpf:
    """The formula of ``results._drift_bound``'s docstring, in mpmath from its float inputs and e."""
    (n, d), u = cols.shape, mpmath.mpf(2) ** -53
    norm_g, norm_y, norm_e = (mpmath.sqrt(mpmath.fdot(v, v)) for v in (gain, y, e))
    c, s = norm_g**2, 1 + mpmath.mpf(bound) / 2
    err = 2 * u * (2 * norm_g * norm_y + mpmath.sqrt(d) * s)
    norm_e += 2 * (n + 2) * u * ((mpmath.sqrt(d) * s + norm_g * norm_y + err) * norm_g + c / 2 * norm_y)
    return bound + 2 * norm_e * norm_y + 2 * n * u * c * norm_y**2 + 2 * s * err + err**2


def _assert_tight(value: float, exact: mpmath.mpf):
    assert exact <= value <= exact * (1 + mpmath.mpf(2) ** -30)


@pytest.mark.parametrize(
    "run, spec",
    [
        (run_full_trial, ProblemSpec(n=60, d=6, q="full", iters=40, seed=1)),
        (run_full_trial, ProblemSpec(n=7, d=6, q="full", iters=40, seed=2)),
        (functools.partial(run_partial_trial, bypass_gate=True), ProblemSpec(n=40, d=4, q=10, iters=40, seed=3)),
        (run_partial_trial, ProblemSpec(n=50, d=2, q=20, iters=40, seed=4)),
    ],
    ids=["full-60x6", "full-7x6", "bypassed-40x4", "gated-50x2"],
)
def test_drift_certificate_is_the_docstring_formula_and_bounds_the_exact_drift(run, spec, monkeypatch):
    # the trajectory's bounds, evaluated again at 80 digits from the same
    # float inputs: each float bound sits at most 2^-30 (relative) above its
    # formula and bounds the buffer's exact drift; the same for the bound an
    # exact check resets, (drift + offset)(1 + 2k)
    events, real_bound, real_check = [], results._drift_bound, results.orthonormality_drift

    def bound(cols, y, gain, value):
        events.append(("bound", cols.copy(), y.copy(), gain.copy(), value, real_bound(cols, y, gain, value)))
        return events[-1][-1]

    def check(cols):
        events.append(("check", cols.copy(), real_check(cols)))
        return events[-1][-1]

    monkeypatch.setattr(results, "_drift_bound", bound)
    monkeypatch.setattr(results, "orthonormality_drift", check)
    run(spec)
    inputs = set()
    with mpmath.workdps(80):
        u = mpmath.mpf(2) ** -53
        offset, k = 2 * u * (spec.n + 1) * spec.d, 2 * u * ((spec.n + 1) * spec.d + spec.d**2 + 4)
        for before, event in zip([None, *events], events):
            if event[0] == "check":
                continue
            _, cols, y, gain, value, out = event
            if before[0] == "check":
                # the bound after an exact check is its reset, on the buffer it checked
                _assert_tight(value, (before[2] + offset) * (1 + 2 * k))
                assert _mp_drift(before[1]) <= value
            inputs.add(before[0])
            drift = _mp_drift(cols)
            assert drift <= out
            # y = w / ||w|| is a unit vector; the formula holds for any factors of
            # the rank-one term, and (4 y, gain / 4) is the same update bit for bit
            for y, gain in ((y, gain), (4.0 * y, 0.25 * gain)):
                e = dgemv(1.0, cols.T, gain, -0.5 * float(gain.dot(gain)), y)
                for start in (0.0, value):
                    _assert_tight(real_bound(cols, y, gain, start), _mp_drift_bound(cols, y, gain, start, e))
                assert drift <= real_bound(cols, y, gain, value)
    # bounds grown from a reset and from a grown bound
    assert inputs == {"check", "bound"}


def test_maintained_trajectory_runs_only_the_cadence_qrs(monkeypatch):
    # run_full above _EXACT_EPS_LIMIT maintains U^T ubar and checks no drift:
    # its limit is +inf, so no step bounds or checks the buffer
    from grouse.full_data import _EXACT_EPS_LIMIT
    from grouse.metrics import REORTHO_EVERY

    n, d = 1300, 40
    assert n * d * d > _EXACT_EPS_LIMIT
    u0, ubar = pair_with_epsilon(n, d, 0.3, seed=9)
    events = _trajectory_events(monkeypatch)
    res = run_full(u0, ubar, 250, seed=9)
    assert res.taken.all()
    assert events == [("qr",)] * (250 // REORTHO_EVERY)


def _near_tolerance_start(n: int, d: int, seed: int) -> Basis:
    """A random basis with its first column scaled until its drift reads just under ``BASIS_DRIFT_TOL``."""
    cols = random_basis(n, d, seed).columns

    def scaled(t):
        out = cols.copy()
        out[:, 0] *= 1.0 + t
        return out

    low, high = 0.0, BASIS_DRIFT_TOL
    for _ in range(60):
        mid = 0.5 * (low + high)
        low, high = (mid, high) if orthonormality_drift(scaled(mid)) <= BASIS_DRIFT_TOL else (low, mid)
    return Basis(scaled(low))


def _bypassed_stream(ubar: Basis, steps: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    n, d = ubar.n, ubar.d
    draws = ((np.sort(rng.choice(n, size=n // 2, replace=False)), rng.standard_normal(d)) for _ in range(steps))
    return [make_obs(ubar, omega, s) for omega, s in draws]


def _assert_qrs_are_the_checks(exact: list, tol: float, steps: int) -> None:
    """Each QR in ``exact``, checks and QRs in call order, is the cadence's or follows a check above ``tol``."""
    from grouse.metrics import REORTHO_EVERY

    excess = [i for i, event in enumerate(exact) if event[0] == "check" and event[1] > tol]
    assert all(exact[i + 1] == ("qr",) for i in excess)
    assert sum(event == ("qr",) for event in exact) == len(excess) + steps // REORTHO_EVERY


def test_drift_certificate_defers_to_the_exact_check_near_the_tolerance(monkeypatch):
    import grouse.results

    u0 = _near_tolerance_start(60, 4, seed=5)
    assert BASIS_DRIFT_TOL - 1e-15 < orthonormality_drift(u0.columns) <= BASIS_DRIFT_TOL
    _, ubar = pair_with_epsilon(60, 4, 0.3, seed=5)
    stream = _bypassed_stream(ubar, 150, seed=5)
    events = _trajectory_events(monkeypatch)
    certified = _result_bytes(run_stream(u0, stream, ubar=ubar, bypass_gate=True))
    # the start's check reads near the tolerance, so the bound after the next
    # rotation leaves no room: that step is checked exactly too
    assert [e[0] for e in events[:3]] == ["check", "bound", "check"]
    assert events[0][1] > 0.5 * BASIS_DRIFT_TOL
    exact = [e for e in events if e[0] != "bound"]
    _assert_qrs_are_the_checks(exact, BASIS_DRIFT_TOL, 150)
    monkeypatch.setattr(grouse.results, "_drift_bound", lambda *args: math.inf)
    events.clear()
    assert _result_bytes(run_stream(u0, stream, ubar=ubar, bypass_gate=True)) == certified
    assert sum(e[0] == "check" for e in events) > sum(e[0] == "check" for e in exact)


def test_drift_qrs_at_a_tolerance_inside_the_rounding_are_the_exact_checks(monkeypatch):
    # at a tolerance of a few roundings the certificate never holds, the
    # exact check reads excess drift on some rotated bases and not on others,
    # and each QR it decides is the same as with the certificate forced to defer
    import grouse.results
    from grouse.metrics import REORTHO_EVERY

    monkeypatch.setattr(grouse.results, "BASIS_DRIFT_TOL", 1e-15)
    u0, ubar = pair_with_epsilon(60, 4, 0.3, seed=6)
    stream = _bypassed_stream(ubar, 150, seed=6)
    events = _trajectory_events(monkeypatch)
    certified = _result_bytes(run_stream(u0, stream, ubar=ubar, bypass_gate=True))
    exact = [e for e in events if e[0] != "bound"]
    readings = [e[1] for e in exact if e[0] == "check"]
    assert any(x > 1e-15 for x in readings) and any(x <= 1e-15 for x in readings)
    _assert_qrs_are_the_checks(exact, 1e-15, 150)
    assert sum(e[0] == "qr" for e in exact) > 150 // REORTHO_EVERY
    monkeypatch.setattr(grouse.results, "_drift_bound", lambda *args: math.inf)
    events.clear()
    assert _result_bytes(run_stream(u0, stream, ubar=ubar, bypass_gate=True)) == certified
    assert [e for e in events if e[0] != "bound"] == exact


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


def test_observation_csv_skips_a_blank_line_between_rows(tmp_path):
    obs_list = [Observation(n=10, omega=[t, t + 2], values=[1.0, t + 0.5]) for t in range(2)]
    path = tmp_path / "observations.csv"
    write_observations(path, obs_list)
    first, second = path.read_text().splitlines()
    path.write_text(f"{first}\n\n{second}\n")
    back = read_observations(path)
    assert [b.omega.tolist() for b in back] == [[0, 2], [1, 3]]
    assert [b.values.tolist() for b in back] == [[1.0, 0.5], [1.0, 1.5]]


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


# Malformed index and value fields, each rejected with ValueError.
_MALFORMED_FIELDS = [
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
]


@pytest.mark.parametrize("indices, values", _MALFORMED_FIELDS)
def test_observation_csv_rejects_malformed_fields(tmp_path, indices, values):
    path = tmp_path / "observations.csv"
    path.write_text(f"0,20,{indices},{values}\n")
    with pytest.raises(ValueError):
        read_observations(path)


@pytest.mark.parametrize("batch", [partial_data._BATCH, 2])
@pytest.mark.parametrize("row", [0, 2, 4])
@pytest.mark.parametrize("indices, values", _MALFORMED_FIELDS)
def test_observation_csv_rejects_malformed_fields_in_any_row(tmp_path, monkeypatch, indices, values, row, batch):
    # the first, middle or last of five rows; 2-row batches put the middle
    # row first in the second batch and the last row alone in the third
    monkeypatch.setattr(partial_data, "_BATCH", batch)
    lines = [f"{t},20,{t + 1};{t + 3},0.5;-1.25" for t in range(5)]
    lines[row] = f"{row},20,{indices},{values}"
    path = tmp_path / "observations.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_observations(path)


# One fault of the observation rule each, applied to a row (n, 1-based
# indices, values) of n = 20 with indices 1;3; listed in the order in which
# the rule checks them.
_ROW_FAULTS = {
    "omega and values must be 1-d and equally long": lambda n, idx, vals: (n, idx, vals + [2.0]),
    "n must be at least 1": lambda n, idx, vals: (0, idx, vals),
    "omega indices must be strictly increasing": lambda n, idx, vals: (n, idx[::-1], vals),
    "omega indices out of range": lambda n, idx, vals: (n, [i + 20 for i in idx], vals),
    "observed values must be finite": lambda n, idx, vals: (n, idx, [np.nan] + vals[1:]),
}


def _faulty_row(t, *faults):
    """Row t of an observation file, with each of ``faults`` applied in turn."""
    n, idx, vals = 20, [t + 1, t + 3], [0.5, -1.25]
    for fault in faults:
        n, idx, vals = _ROW_FAULTS[fault](n, idx, vals)
    return f"{t},{n},{';'.join(map(str, idx))},{';'.join(map(repr, vals))}"


def _constructor_message(row):
    """The message ``Observation(...)`` raises on the arrays of an observation row."""
    _, n, idx, vals = row.split(",")
    with pytest.raises(ValueError) as info:
        Observation(n=int(n), omega=np.array(idx.split(";"), dtype=int) - 1,
                    values=np.array(vals.split(";"), dtype=float))
    return str(info.value)


def test_reader_builds_what_the_constructor_builds(tmp_path, monkeypatch):
    # the reader checks each batch once and builds without the constructor's check
    rng = np.random.default_rng(35)
    sizes = [3, 0, 7, 1, 0, 0, 12, 5]
    obs_list = [Observation(n=30, omega=np.sort(rng.choice(30, size=q, replace=False)),
                            values=rng.standard_normal(q)) for q in sizes]
    path = tmp_path / "observations.csv"
    write_observations(path, obs_list)
    for batch in (partial_data._BATCH, 3, 1):
        monkeypatch.setattr(partial_data, "_BATCH", batch)
        back = read_observations(path)
        assert len(back) == len(obs_list)
        for written, obs in zip(obs_list, back):
            built = Observation(n=obs.n, omega=obs.omega, values=obs.values)
            for other in (written, built):
                assert type(obs.n) is type(other.n) is int and obs.n == other.n
                assert (obs.omega.dtype, obs.values.dtype) == (other.omega.dtype, other.values.dtype)
                assert obs.omega.tobytes() == other.omega.tobytes()
                assert obs.values.tobytes() == other.values.tobytes()
                assert obs.latent_s is other.latent_s is None


@pytest.mark.parametrize("batch", [partial_data._BATCH, 2])
@pytest.mark.parametrize("second", list(_ROW_FAULTS))
@pytest.mark.parametrize("first", list(_ROW_FAULTS))
def test_observation_csv_names_the_first_faulty_row(tmp_path, monkeypatch, first, second, batch):
    # rows 2 and 3 of five are faulty; 2-row batches hold both in the second batch
    monkeypatch.setattr(partial_data, "_BATCH", batch)
    lines = [_faulty_row(t) for t in range(5)]
    lines[2], lines[3] = _faulty_row(2, first), _faulty_row(3, second)
    path = tmp_path / "observations.csv"
    path.write_text("\n".join(lines) + "\n")
    assert _constructor_message(lines[2]) == first
    with pytest.raises(ValueError, match=f"^{re.escape(first)}$"):
        read_observations(path)


@pytest.mark.parametrize("batch", [partial_data._BATCH, 2])
@pytest.mark.parametrize("pair", list(itertools.combinations(_ROW_FAULTS, 2)))
def test_observation_csv_names_a_rows_first_fault(tmp_path, monkeypatch, pair, batch):
    # one row with two faults names the one its constructor checks first
    monkeypatch.setattr(partial_data, "_BATCH", batch)
    lines = [_faulty_row(t) for t in range(5)]
    lines[3] = _faulty_row(3, *pair)
    path = tmp_path / "observations.csv"
    path.write_text("\n".join(lines) + "\n")
    assert _constructor_message(lines[3]) == pair[0]
    with pytest.raises(ValueError, match=f"^{re.escape(pair[0])}$"):
        read_observations(path)


@pytest.mark.parametrize("batch", [partial_data._BATCH, 2, 1])
def test_observation_csv_lets_a_row_start_below_the_last_rows_end(tmp_path, monkeypatch, batch):
    # within a batch, only the indices inside a row must increase, across empty rows too
    monkeypatch.setattr(partial_data, "_BATCH", batch)
    path = tmp_path / "observations.csv"
    path.write_text("0,20,5;9,0.5;1.5\n1,20,2;4,1.0;2.0\n2,20,,\n3,20,1;3,0.25;0.75\n")
    back = read_observations(path)
    assert [b.omega.tolist() for b in back] == [[4, 8], [1, 3], [], [0, 2]]


@pytest.mark.parametrize("batch", [partial_data._BATCH, 2, 1])
def test_observation_csv_accepts_empty_samples(tmp_path, monkeypatch, batch):
    monkeypatch.setattr(partial_data, "_BATCH", batch)
    path = tmp_path / "observations.csv"
    path.write_text("0,20,,\n1,20,,\n2,7,3,0.5\n3,20,,\n4,1,,\n")
    back = read_observations(path)
    assert [b.n for b in back] == [20, 20, 7, 20, 1]
    assert [len(b.omega) for b in back] == [0, 0, 1, 0, 0]
    for b in back:
        assert (b.omega.dtype, b.values.dtype) == (np.int_, np.float64)


def _check_each_row(ns, omega, bounds, values, value_bounds):
    """The observation rule row by row, in order: the checks ``Observation`` ran on each row before batch checks."""
    for n, a, b, c, e in zip(ns, bounds[:-1], bounds[1:], value_bounds[:-1], value_bounds[1:]):
        idx, vals = omega[a:b], values[c:e]
        if len(idx) != len(vals):
            raise ValueError("omega and values must be 1-d and equally long")
        if n < 1:
            raise ValueError("n must be at least 1")
        if len(idx) and (idx[1:] <= idx[:-1]).any():
            raise ValueError("omega indices must be strictly increasing")
        if len(idx) and (idx[0] < 0 or idx[-1] >= n):
            raise ValueError("omega indices out of range")
        if not np.isfinite(vals).all():
            raise ValueError("observed values must be finite")


def _read_outcome(path):
    try:
        back = read_observations(path)
    except ValueError as error:
        return str(error)
    return [(b.n, b.omega.dtype, b.omega.tobytes(), b.values.dtype, b.values.tobytes()) for b in back]


def test_observation_csv_batch_checks_match_row_by_row_checks(tmp_path, monkeypatch):
    # seeded files of one to six rows, with faults of the rule, n and
    # indices past int64, empty samples and byte edits; the reader must
    # accept and reject each file as it does with the rule run row by row
    rng = np.random.default_rng(36)
    ns = ["20", "20", "20", "0", "1", "3", "9223372036854775807", "9223372036854775808", "18446744073709551616"]
    specials = ["0", "-1", "21", "nan", "inf", "1e400", "9223372036854775808", "-9223372036854775808", ""]
    path = tmp_path / "observations.csv"
    outcomes = set()
    for _ in range(1500):
        lines = []
        for t in range(rng.integers(1, 7)):
            q = int(rng.integers(0, 5))
            idx = [str(i) for i in np.sort(rng.choice(np.arange(1, 21), size=q, replace=False))]
            vals = [repr(float(x)) for x in rng.uniform(-5, 5, size=q)]
            edit = rng.integers(6)
            if edit == 0 and q:
                idx[rng.integers(q)] = str(rng.choice(specials))
            elif edit == 1 and q:
                vals[rng.integers(q)] = str(rng.choice(specials))
            elif edit == 2:
                (idx if rng.integers(2) else vals).append(str(rng.integers(-1, 23)))
            elif edit == 3:
                idx.reverse()
            lines.append(f"{t},{rng.choice(ns)},{';'.join(idx)},{';'.join(vals)}")
        data = bytearray("\n".join(lines).encode())
        for _ in range(rng.integers(0, 3)):
            data[rng.integers(len(data))] = rng.choice(list(b"0123456789;,-.n\n"))
        path.write_bytes(bytes(data))
        monkeypatch.setattr(partial_data, "_BATCH", int(rng.choice([1, 2, 3, partial_data._BATCH])))
        batched = _read_outcome(path)
        with monkeypatch.context() as m:
            m.setattr(partial_data, "_check_rows", _check_each_row)
            assert _read_outcome(path) == batched
        outcomes.add(batched if isinstance(batched, str) else "accepted")
    # every fault of the rule came up, and files were accepted
    assert set(_ROW_FAULTS) | {"accepted"} <= outcomes


@pytest.mark.parametrize("indices", ["-;3", "1;+", "+"])
def test_observation_csv_names_a_bare_sign_in_an_index_field(tmp_path, indices):
    # np.fromstring reads a bare sign as index 0; the field rule rejects it
    # before the index rule sees that index
    path = tmp_path / "observations.csv"
    path.write_text(f"0,20,1;3,0.5;-1.25\n1,20,{indices},0.5;1.0\n")
    with pytest.raises(ValueError, match="malformed observation field"):
        read_observations(path)


@pytest.mark.parametrize(
    "text, message",
    [
        # np.fromstring read the long index as 2^63 - 1, and the 1-based
        # shift wrapped the most negative one round to 2^63 - 1
        (
            "0,9223372036854775808,-9223372036854775808,1.0\n1,99999999999999999999,99999999999999999999,2.0\n",
            "malformed observation field",
        ),
        ("0,99999999999999999999,99999999999999999999,2.0\n", "at or above 2\\^63"),
        ("0,20,1;09223372036854775808,1.0;2.0\n", "at or above 2\\^63"),
        # a sign, which np.fromstring reads, as index 4
        ("0,20,+5,1.0\n", "malformed observation field"),
    ],
    ids=["two-rows", "past-int64", "padded-past-int64", "signed"],
)
def test_observation_csv_index_fields_are_plain_digits_below_2_63(tmp_path, text, message):
    path = tmp_path / "observations.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_observations(path)
    # the largest int64 index, with leading zeros, still reads exactly
    path.write_text("0,9223372036854775808,0009223372036854775806;9223372036854775807,1.0;2.0\n")
    (back,) = read_observations(path)
    assert back.omega.tolist() == [2**63 - 3, 2**63 - 2]


@pytest.mark.parametrize("text", ["\u00e9", "\u00a0", "\uff11", "\u0661"])
def test_observation_csv_rejects_a_byte_past_ascii(tmp_path, text):
    # a non-breaking space, a fullwidth 1 and an Arabic-Indic 1 (int() reads both digits)
    path = tmp_path / "observations.csv"
    path.write_text(f"0,20,1;3,0.5;-1.25\n1,20,2;{text},0.5;1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="ASCII"):
        read_observations(path)


def test_read_observations_never_holds_the_files_text(tmp_path, traced_peak):
    # about 5 MB of text against 3.3 MB of arrays: the peak may exceed what
    # the result holds (its arrays, and under 512 bytes of objects a row) by
    # a few blocks and batches, not by the text
    rows, n, q = 2600, 2000, 80
    rng = np.random.default_rng(33)
    path = tmp_path / "observations.csv"
    write_observations(
        path,
        (Observation(n=n, omega=np.sort(rng.choice(n, size=q, replace=False)), values=rng.standard_normal(q))
         for _ in range(rows)),
    )
    size = path.stat().st_size
    assert size >= 4 << 20
    arrays = rows * q * 16
    read_observations(path)
    peak = traced_peak(lambda: read_observations(path))
    assert peak <= arrays + rows * 512 + 16 * results._BLOCK < arrays + size


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
    with pytest.raises(ValueError, match="must count t = 0, 1, 2"):
        read_observations(path)


@pytest.mark.parametrize("batch", [partial_data._BATCH, 2])
@pytest.mark.parametrize(
    "ts",
    [["1", "0"], ["0", "2"], ["0", "1", "1"], ["0", "01"], ["00"], ["0", "1", "0", "1"]],
    ids=["out-of-order", "gap", "repeated", "leading-zero", "zero-padded", "restarts"],
)
def test_observation_csv_rows_count_t_in_file_order(tmp_path, monkeypatch, ts, batch):
    # row i's t is str(i), as the writer writes it; with 2-row batches the
    # restarting count is a whole second batch
    monkeypatch.setattr(partial_data, "_BATCH", batch)
    path = tmp_path / "observations.csv"
    path.write_text("".join(f"{t},20,1;3,0.5;-1.25\n" for t in ts))
    with pytest.raises(ValueError, match=r"^observation rows must count t = 0, 1, 2, \.\.\.$"):
        read_observations(path)


@pytest.mark.parametrize("batch", [partial_data._BATCH, 2])
def test_observation_csv_blank_lines_count_no_row(tmp_path, monkeypatch, batch):
    monkeypatch.setattr(partial_data, "_BATCH", batch)
    path = tmp_path / "observations.csv"
    path.write_text("")
    assert read_observations(path) == []
    rng = np.random.default_rng(40)
    obs_list = [Observation(n=30, omega=np.sort(rng.choice(30, size=q, replace=False)),
                            values=rng.standard_normal(q)) for q in (4, 0, 7, 2, 5)]
    write_observations(path, obs_list)
    path.write_text("\n" + path.read_text().replace("\n", "\n\n"))
    back = read_observations(path)
    assert len(back) == len(obs_list)
    for a, b in zip(obs_list, back):
        assert b.n == a.n
        assert (b.omega.dtype, b.values.dtype) == (a.omega.dtype, a.values.dtype)
        assert b.omega.tobytes() == a.omega.tobytes()
        assert b.values.tobytes() == a.values.tobytes()


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


def test_rotating_entries_pin_dger_to_one_blas_thread_and_restore_counts(monkeypatch):
    # scipy's OpenBLAS pool on two threads fights numpy's for the cores, so
    # each entry that rotates pins once around its loop or its one rotation
    controls = _openblas_thread_controls()
    initial = [getter() for _, getter in controls]
    seen = []

    def recording_dger(*args, **kwargs):
        seen.append(tuple(getter() for _, getter in controls))
        return dger(*args, **kwargs)

    monkeypatch.setattr(metrics, "dger", recording_dger)
    u, ubar = pair_with_epsilon(5000, 20, 0.3, seed=3)
    rng = np.random.default_rng(3)
    obs = make_obs(ubar, np.arange(5000), rng.standard_normal(20))
    entries = [
        lambda: run_full(u, ubar, 2, seed=3),
        lambda: run_stream(u, [obs, obs]),
        lambda: grouse_step(u, obs, 1.0, bypass_gate=True),
        lambda: full_step(u, ubar.columns @ rng.standard_normal(20), ubar),
    ]
    try:
        for setter, _ in controls:
            setter(2)
        for entry in entries:
            before = len(seen)
            entry()
            # 5000 rows at d = 20 are four row blocks, one dger call each
            assert len(seen) - before in (4, 8)
            assert [getter() for _, getter in controls] == [2] * len(controls)
    finally:
        for (setter, _), count in zip(controls, initial):
            setter(count)
    assert set(seen) == {(1,) * len(controls)}


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

    real_qr = grouse.results._orthonormalize_in_place

    def counting_qr(f):
        at.append(seen[0])
        return real_qr(f)

    monkeypatch.setattr(grouse.results, "_orthonormalize_in_place", counting_qr)
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
