"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; the whole suite is seeded and deterministic.
"""
import math

import numpy as np
import pytest

from grouse.concentration import (
    validate_gram_concentration,
    validate_sin_sq_expectation,
)
from grouse.full_data import full_step
from grouse.harness import (
    ProblemSpec,
    incoherent_basis,
    pair_with_epsilon,
    run_full_trial,
    sweep_phase,
)
from grouse.linalg import orthonormalize
from grouse.metrics import Basis, _rotate, alignment, coherence_basis, epsilon, epsilon_residual
from grouse.partial_data import Observation, gate_check, grouse_step, partial_residual


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_exact_decrease_identity():
    n, d, steps = 200, 5, 1000
    rng = np.random.default_rng(1001)
    worst = 0.0
    taken = 0
    for k in range(steps):
        eps = 10.0 ** rng.uniform(-6.0, math.log10(2.5))
        u, ubar = pair_with_epsilon(n, d, eps, seed=10_000 + k)
        v = ubar.columns @ rng.standard_normal(d)
        _, rec = full_step(u, v, ubar)
        if not rec.taken:
            continue
        taken += 1
        measured = rec.epsilon_before - rec.epsilon_after
        mismatch = abs(measured - rec.predicted_decrease) / max(rec.epsilon_before, 1e-12)
        worst = max(worst, mismatch)
    ok = taken == steps and worst <= 1e-8
    _report(1, "exact-decrease-identity", ok, f"max rel mismatch {worst:.3e} over {taken} steps (tol 1e-08)")
    assert ok


# ---------------------------------------------------------------- criterion 2


def test_criterion_02_full_data_asymptotic_rate():
    res10 = run_full_trial(ProblemSpec(n=10_000, d=10, q="full", iters=500, seed=3))
    target10 = math.log(1.0 - 1.0 / 10.0)
    rel10 = abs(res10.tail_slope - target10) / abs(target10)

    res200 = run_full_trial(ProblemSpec(n=10_000, d=200, q="full", iters=2000, seed=3))
    target200 = math.log(1.0 - 1.0 / 200.0)
    rel200 = abs(res200.tail_slope - target200) / abs(target200)

    ok = rel10 <= 0.15 and rel200 <= 0.20
    _report(
        2,
        "full-data-asymptotic-rate",
        ok,
        f"d=10 slope {res10.tail_slope:.5f} vs {target10:.5f} (rel {rel10:.3f}, tol 0.15); "
        f"d=200 slope {res200.tail_slope:.6f} vs {target200:.6f} (rel {rel200:.3f}, tol 0.20)",
    )
    assert ok


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_single_step_d1_convergence():
    finals = []
    for seed in (0, 1, 2):
        res = run_full_trial(ProblemSpec(n=100, d=1, q="full", iters=1, seed=seed))
        finals.append(res.epsilons[1])
    worst = max(finals)
    ok = worst <= 1e-20
    _report(3, "single-step-d1-convergence", ok, f"worst eps_1 {worst:.3e} (tol 1e-20)")
    assert ok


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_expected_sin_sq_identity():
    n, d, trials = 100, 5, 50_000
    details = []
    ok = True
    for eps in (0.05, 0.5):
        u, ubar = pair_with_epsilon(n, d, eps, seed=404)
        mean, stderr = validate_sin_sq_expectation(u, ubar, trials, seed=405)
        dev = abs(mean - eps / d)
        ok = ok and dev <= 4.0 * stderr
        details.append(f"eps={eps}: |mean-eps/d|={dev:.2e} vs 4se={4 * stderr:.2e}")
    _report(4, "expected-sin-sq-identity", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_sampled_gram_concentration():
    n, d, delta, trials = 400, 5, 0.1, 2000
    u = incoherent_basis(n, d, seed=505)
    mu = coherence_basis(u)
    omega_size = math.floor(8.0 / 3.0 * d * mu * math.log(2.0 * d / delta)) + 1
    report = validate_gram_concentration(u, omega_size, delta, trials, seed=506)
    limit = delta + 3.0 * math.sqrt(delta * (1 - delta) / trials)
    ok = report.hypothesis_met and report.failure_rate <= limit
    _report(
        5,
        "sampled-gram-concentration",
        ok,
        f"|omega|={omega_size} (mu={mu:.2f}) failure_rate={report.failure_rate:.4f} (limit {limit:.4f})",
    )
    assert ok


# ------------------------------------------------------- criteria 6, 7, 8, 11


@pytest.fixture(scope="module")
def near_solution_gate_steps():
    """Criterion 6 draws plus one gated step per passing draw (for 11)."""
    n, d = 10_000, 10
    q = math.ceil(d * math.log(d) * math.log(n))
    u, ubar = pair_with_epsilon(n, d, 1e-4, seed=606, frame="incoherent")
    rng = np.random.default_rng(607)
    skips = 0
    steps = []
    for _ in range(1000):
        omega = np.sort(rng.choice(n, size=q, replace=False))
        if not gate_check(u, omega).passed:
            skips += 1
            continue
        s = rng.standard_normal(d)
        v = ubar.columns @ s
        obs = Observation(n=n, omega=omega, values=v[omega], latent_s=s)
        u1, rec = grouse_step(u, obs, 1.0)
        steps.append((u, u1, rec))
    return {"q": q, "skips": skips, "draws": 1000, "steps": steps}


@pytest.fixture(scope="module")
def preconditioned_gate_steps():
    """500 seeded gated steps satisfying the sample-size and epsilon bounds."""
    n, d, q = 200, 5, 60
    eps0 = 1e-4
    assert eps0 <= q**2 / (128.0 * n**2 * d)
    rng = np.random.default_rng(708)
    steps = []
    for k in range(500):
        u, ubar = pair_with_epsilon(n, d, eps0, seed=70_000 + k)
        while True:
            omega = np.sort(rng.choice(n, size=q, replace=False))
            if gate_check(u, omega).passed:
                break
        s = rng.standard_normal(d)
        v = ubar.columns @ s
        obs = Observation(n=n, omega=omega, values=v[omega], latent_s=s)
        u1, rec = grouse_step(u, obs, 1.0, ubar)
        steps.append((u, u1, rec, s))
    return {"n": n, "d": d, "q": q, "steps": steps}


def test_criterion_06_gate_satisfaction_rate(near_solution_gate_steps):
    data = near_solution_gate_steps
    rate = data["skips"] / data["draws"]
    ok = rate <= 0.05
    _report(
        6,
        "gate-satisfaction-rate",
        ok,
        f"q={data['q']}, skip rate {rate:.3f} over {data['draws']} draws (tol 0.05)",
    )
    assert ok


def test_criterion_07_per_step_decrease_inequality(preconditioned_gate_steps):
    data = preconditioned_gate_steps
    n, q = data["n"], data["q"]
    violations = 0
    worst_margin = -np.inf
    for _, _, rec, _ in data["steps"]:
        ratio_sq = (np.linalg.norm(rec.r) / np.linalg.norm(rec.p)) ** 2
        bound = (
            rec.epsilon_before
            - ratio_sq
            + 55.0 * math.sqrt(n / q) * rec.epsilon_before**1.5
            + 1e-12
        )
        margin = rec.epsilon_after - bound
        worst_margin = max(worst_margin, margin)
        if rec.epsilon_after > bound:
            violations += 1
    ok = violations == 0
    _report(
        7,
        "per-step-decrease-inequality",
        ok,
        f"{violations} violations in {len(data['steps'])} steps (worst slack {worst_margin:.2e})",
    )
    assert ok


def test_criterion_08_residual_projection_norm_bounds(preconditioned_gate_steps):
    data = preconditioned_gate_steps
    violations = 0
    for _, _, rec, s in data["steps"]:
        eps, ns = rec.epsilon_before, np.linalg.norm(s)
        nr, npp = np.linalg.norm(rec.r), np.linalg.norm(rec.p)
        if nr > math.sqrt(2.0 * eps) * ns + 1e-9:
            violations += 1
        elif not (0.75 * ns - 1e-9 <= npp <= 1.25 * ns + 1e-9):
            violations += 1
        elif nr**2 / npp**2 > 32.0 / 9.0 * eps + 1e-9:
            violations += 1
    ok = violations == 0
    _report(
        8,
        "residual-projection-norm-bounds",
        ok,
        f"{violations} violations in {len(data['steps'])} steps (tol 1e-09 slack)",
    )
    assert ok


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_alignment_sandwich():
    rng = np.random.default_rng(909)
    worst_low = worst_high = -np.inf
    ok = True
    for k in range(200):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(2 * d, 12 * d))
        eps = 10.0 ** rng.uniform(-6.0, math.log10(0.4 * d))
        u, ubar = pair_with_epsilon(n, d, eps, seed=90_000 + k)
        v = alignment(u, ubar)
        e = epsilon(u, ubar)
        gap = float(np.linalg.norm(ubar.columns @ v - u.columns) ** 2)
        low_violation = (e - gap) - 1e-9
        high_violation = (gap - 2.0 * e) - 1e-9
        worst_low = max(worst_low, low_violation)
        worst_high = max(worst_high, high_violation)
        ok = ok and low_violation <= 0.0 and high_violation <= 0.0
    _report(
        9,
        "alignment-sandwich",
        ok,
        f"200 pairs, worst lower-side excess {worst_low:.2e}, upper-side {worst_high:.2e} (tol 1e-09)",
    )
    assert ok


# --------------------------------------------------------------- criterion 10


def test_criterion_10_phase_transition_plateau():
    ns, d = [1000, 2000], 10
    qs = [10, 20, 40, 80, 160, 320]
    cells = sweep_phase(ns, [d], qs, trials_per_cell=10, iters=500, seed=1010, bypass_gate=True)
    ok = True
    details = []
    for n in ns:
        per_q = {c.q: c.mean_x for c in cells if c.n == n}
        plateau = 0.5 * (per_q[160] + per_q[320])
        ok = ok and per_q[160] >= 0.5 and per_q[320] >= 0.5
        ok = ok and per_q[10] <= plateau - 0.2
        ok = ok and abs(per_q[320] - per_q[160]) <= 0.5
        details.append(
            f"n={n}: X(q=10)={per_q[10]:.3f}, X(160)={per_q[160]:.3f}, "
            f"X(320)={per_q[320]:.3f}, plateau={plateau:.3f}"
        )
    _report(10, "phase-transition-plateau", ok, "; ".join(details))
    assert ok


# --------------------------------------------------------------- criterion 11


def _step_invariant_violations(u_before, u_after, rec, rng):
    d = u_before.d
    failures = []
    nr, npp, nw = (
        float(np.linalg.norm(rec.r)),
        float(np.linalg.norm(rec.p)),
        float(np.linalg.norm(rec.w)),
    )
    if abs(float(rec.p @ rec.r)) > 1e-9 * npp * nr:
        failures.append("p-r orthogonality")
    if abs(npp - nw) > 1e-10 * nw:
        failures.append("norm transfer")
    total = float(np.linalg.norm(rec.p + rec.r) ** 2)
    if abs(total - npp**2 - nr**2) > 1e-9 * total:
        failures.append("pythagoras")
    drift = float(np.linalg.norm(u_after.columns.T @ u_after.columns - np.eye(d)))
    if drift > 1e-8:
        failures.append("orthonormality drift")
    completion = orthonormalize(
        np.hstack([rec.w.reshape(-1, 1), rng.standard_normal((d, d - 1))])
    )[:, 1:]
    change = float(np.linalg.norm(u_after.columns @ completion - u_before.columns @ completion))
    if change > 1e-10:
        failures.append("least change")
    return failures


def test_criterion_11_algebraic_step_invariants(
    near_solution_gate_steps, preconditioned_gate_steps
):
    rng = np.random.default_rng(1111)
    violations = []
    count = 0
    for u0, u1, rec in near_solution_gate_steps["steps"]:
        count += 1
        violations.extend(_step_invariant_violations(u0, u1, rec, rng))
    for u0, u1, rec, _ in preconditioned_gate_steps["steps"]:
        count += 1
        violations.extend(_step_invariant_violations(u0, u1, rec, rng))
    ok = not violations
    _report(
        11,
        "algebraic-step-invariants",
        ok,
        f"{count} gated steps, {len(violations)} violations {sorted(set(violations))!r}",
    )
    assert ok


# --------------------------------------------------------------- criterion 12


def test_criterion_12_incremental_svd_relation():
    # Rotating U by t = atan2(2|p||r|, 1 + |p|^2 - |r|^2) / 2 spans the top-d left
    # singular subspace of [U, v]: incremental SVD with unit singular values.
    # In the (p/|p|, r/|r|) frame the new column adds the 2x2 block
    # [[1, |p|], [0, |r|]], and every other direction of U keeps singular value 1.
    # The check needs no recorded bits, so it guards the rotation on any BLAS core.
    rng = np.random.default_rng(1212)
    worst = 0.0
    cases = 0
    for n, d in ((50, 1), (200, 5), (1000, 10), (30, 29)):
        for _ in range(50):
            cols = orthonormalize(rng.standard_normal((n, d)))
            # a span part and a complement part of independent log-uniform sizes
            v = cols @ rng.standard_normal(d) + 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(n)
            v *= 10.0 ** rng.uniform(-3, 2) / np.linalg.norm(v)
            w = cols.T @ v
            p = cols @ w
            r = v - p
            norm_w, norm_p, norm_r = (float(np.linalg.norm(x)) for x in (w, p, r))
            t = 0.5 * math.atan2(2.0 * norm_p * norm_r, 1.0 + norm_p**2 - norm_r**2)
            top = np.linalg.svd(np.column_stack([cols, v]), full_matrices=False)[0][:, :d]
            rotated = np.array(cols)
            _rotate(rotated, w, p, r, norm_w, norm_p, norm_r, t)
            worst = max(worst, epsilon_residual(Basis(rotated), Basis(top)))
            cases += 1
    ok = worst <= 1e-18
    detail = f"max epsilon {worst:.3e} over {cases} cases (tol 1e-18)"
    _report(12, "incremental-svd-relation", ok, detail)
    assert ok


# --------------------------------------------------------------- criterion 13


def test_criterion_13_gradient_step_relation():
    # F(U) = min_w ||P_omega(v - U w)||^2 has gradient -2 r w^T, r the sampled
    # residual padded with zeros, and U^T r = 0, so -grad F = H is a tangent
    # vector of the Grassmannian.  (a) The rotation by sigma*eta is the
    # geodesic of Edelman, Arias and Smith along H at t = sigma*eta / (2|r||w|):
    # with the thin SVD H = Y S Z^T, U(t) = U Z cos(S t) Z^T + Y sin(S t) Z^T.
    # (b) The projected-gradient step orth(U + 2 tau r w^T), with
    # tau = tan(sigma*eta) / (2|r||w|), spans the same subspace.  Like
    # criterion 12 the check needs no recorded bits.
    rng = np.random.default_rng(1313)
    worst_entry = worst_eps = 0.0
    cases = 0
    for n, d, q in ((50, 1, 10), (200, 5, 40), (1000, 10, 80), (30, 29, 30)):
        # a partial sample of q rows, then full data
        for size in (q, n):
            for _ in range(15):
                u = Basis(orthonormalize(rng.standard_normal((n, d))))
                omega = np.sort(rng.choice(n, size, replace=False))
                # a span part and a complement part of independent log-uniform sizes
                v = u.columns @ rng.standard_normal(d) + 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(n)
                v *= 10.0 ** rng.uniform(-3, 2) / np.linalg.norm(v)
                w, p, r = partial_residual(u, Observation(n, omega, v[omega]))
                norm_w, norm_p, norm_r = (float(np.linalg.norm(x)) for x in (w, p, r))
                angle = rng.uniform(0.01, 1.4)
                rotated = np.array(u.columns)
                _rotate(rotated, w, p, r, norm_w, norm_p, norm_r, angle)
                y, s, zt = np.linalg.svd(2.0 * np.outer(r, w), full_matrices=False)
                t = angle / (2.0 * norm_r * norm_w)
                geodesic = (u.columns @ zt.T * np.cos(s * t)) @ zt + (y * np.sin(s * t)) @ zt
                worst_entry = max(worst_entry, float(np.abs(rotated - geodesic).max()))
                tau = math.tan(angle) / (2.0 * norm_r * norm_w)
                projected = orthonormalize(u.columns + 2.0 * tau * np.outer(r, w))
                # the rotated columns measured off the span of the QR factor, whose
                # orthonormality does not carry the residual's rounding
                worst_eps = max(worst_eps, epsilon_residual(Basis(rotated), Basis(projected)))
                cases += 1
    ok = worst_entry <= 1e-13 and worst_eps <= 1e-24
    detail = (
        f"max geodesic entry difference {worst_entry:.3e} (tol 1e-13), "
        f"max projected-gradient epsilon {worst_eps:.3e} (tol 1e-24) over {cases} cases"
    )
    _report(13, "gradient-step-relation", ok, detail)
    assert ok
