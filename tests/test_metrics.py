import copy
import pickle

import numpy as np
import pytest

from grouse.linalg import NumericalError, orthonormalize
from grouse.metrics import (
    Basis,
    _adopt,
    alignment,
    coherence_basis,
    coherence_vector,
    diagnostics,
    epsilon,
    epsilon_residual,
    principal_angles,
    revealed_angle_sin_sq,
)
from grouse.harness import pair_with_epsilon, random_basis


def basis_from(cols) -> Basis:
    return Basis(np.asarray(cols, dtype=float))


def rotation_pair(a: float):
    """n=4, d=2: ubar spans (e1, e2); u spans (cos a e1 + sin a e3, e2)."""
    ubar = basis_from([[1, 0], [0, 1], [0, 0], [0, 0]])
    u = basis_from([[np.cos(a), 0], [0, 1], [np.sin(a), 0], [0, 0]])
    return u, ubar


def test_basis_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        Basis(np.ones((4, 2)))
    with pytest.raises(ValueError, match="0 < d < n"):
        Basis(np.eye(3))
    b = basis_from([[1, 0], [0, 1], [0, 0]])
    with pytest.raises(AttributeError):
        b.columns = np.zeros((3, 2))
    with pytest.raises(ValueError):
        b.columns[0, 0] = 5.0  # read-only array


def test_basis_copies_its_input():
    arr = orthonormalize(np.random.default_rng(2).standard_normal((6, 2)))
    b = Basis(arr)
    assert arr.flags.writeable and not np.shares_memory(arr, b.columns)
    arr[0, 0] += 1.0
    assert b.columns[0, 0] != arr[0, 0]


def test_basis_copies_and_pickles_through_the_checked_constructor():
    b = random_basis(20, 3, 1)
    for twin in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert type(twin) is Basis and twin.columns is not b.columns
        assert twin.columns.tobytes() == b.columns.tobytes() and twin.columns.shape == (20, 3)
        assert not twin.columns.flags.writeable
        with pytest.raises(AttributeError, match="^Basis is immutable$"):
            twin.columns = b.columns

    class Forged:
        # pickles as a Basis of columns that are not orthonormal
        def __reduce__(self):
            return Basis, (np.ones((6, 2)),)

    with pytest.raises(ValueError, match="orthonormal"):
        pickle.loads(pickle.dumps(Forged()))


def test_adopted_basis_holds_its_array_after_the_basis_checks():
    arr = orthonormalize(np.random.default_rng(2).standard_normal((6, 2)))
    b = _adopt(arr)
    assert b.columns is arr and not arr.flags.writeable
    for bad in (np.full((6, 2), np.nan), np.ones((6, 2))):
        with pytest.raises(ValueError, match="finite|orthonormal"):
            _adopt(bad)


def test_principal_angles_identical_and_orthogonal():
    u = basis_from([[1.0], [0.0]])
    assert np.allclose(principal_angles(u, u), 0.0, atol=1e-7)
    v = basis_from([[0.0], [1.0]])
    assert np.allclose(principal_angles(u, v), np.pi / 2)


def test_principal_angles_planted_rotation():
    a = 0.37
    u, ubar = rotation_pair(a)
    # oracle: the 2x2 product ubar^T u is diag(cos a, 1) by construction
    assert np.allclose(sorted(principal_angles(u, ubar)), [0.0, a], atol=1e-12)


def test_epsilon_endpoints_and_rotation():
    u, ubar = rotation_pair(0.37)
    assert np.isclose(epsilon(u, ubar), np.sin(0.37) ** 2, atol=1e-12)
    assert np.isclose(epsilon(u, u), 0.0, atol=1e-13)
    w = basis_from([[0, 0], [0, 0], [1, 0], [0, 1]])
    ubar2 = basis_from([[1, 0], [0, 1], [0, 0], [0, 0]])
    assert np.isclose(epsilon(w, ubar2), 2.0, atol=1e-13)  # fully orthogonal: d


def test_epsilon_equals_angle_sum_and_residual_form():
    rng = np.random.default_rng(60)
    for k in range(8):
        u, ubar = pair_with_epsilon(30, 3, float(rng.uniform(0.001, 2.5)), seed=k)
        e = epsilon(u, ubar)
        assert 0.0 <= e <= 3.0
        assert np.isclose(e, np.sum(np.sin(principal_angles(u, ubar)) ** 2), atol=1e-10)
        assert np.isclose(e, epsilon_residual(u, ubar), atol=1e-10)


def test_epsilon_shape_mismatch():
    with pytest.raises(ValueError):
        epsilon(basis_from([[1.0], [0.0]]), basis_from([[1, 0], [0, 1], [0, 0]]))


def test_coherence_basis_extremes():
    spike = basis_from(np.eye(6)[:, :2])
    assert np.isclose(coherence_basis(spike), 3.0)  # n/d
    flat = basis_from(np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]]) / 2.0)
    assert np.isclose(coherence_basis(flat), 1.0)


def test_coherence_basis_row_scan_oracle():
    u = random_basis(100, 5, seed=61)
    best = 0.0
    for i in range(100):
        best = max(best, 100 / 5 * float(u.columns[i] @ u.columns[i]))
    assert np.isclose(coherence_basis(u), best, atol=1e-12)
    assert 1.0 - 1e-10 <= coherence_basis(u) <= 20.0 + 1e-10


def test_coherence_vector():
    assert np.isclose(coherence_vector(np.array([1.0, 0, 0, 0, 0])), 5.0)
    assert np.isclose(coherence_vector(np.ones(7)), 1.0)
    assert np.isclose(coherence_vector(np.array([3.0, 4.0, 0.0, 0.0])), 2.56)
    with pytest.raises(ValueError, match="^undefined coherence: zero vector$"):
        coherence_vector(np.zeros(3))
    # a NaN entry has no coherence
    with pytest.raises(ValueError, match="^x entries must be finite$"):
        coherence_vector([np.nan, 1.0])


def test_revealed_angle_sin_sq():
    u = basis_from([[1, 0], [0, 1], [0, 0]])
    assert revealed_angle_sin_sq(u, np.array([0.3, -0.2, 0.0])) <= 1e-30
    assert np.isclose(revealed_angle_sin_sq(u, np.array([0.0, 0.0, 2.0])), 1.0)
    a = 0.8
    line = basis_from([[1.0], [0.0]])
    assert np.isclose(
        revealed_angle_sin_sq(line, np.array([np.cos(a), np.sin(a)])),
        np.sin(a) ** 2,
        atol=1e-14,
    )
    with pytest.raises(ValueError, match="^undefined angle: zero vector$"):
        revealed_angle_sin_sq(u, np.zeros(3))
    # a NaN entry has no angle
    with pytest.raises(ValueError, match="^v entries must be finite$"):
        revealed_angle_sin_sq(u, np.array([np.nan, 1.0, 0.0]))


@pytest.mark.parametrize("scale", [1e170, 1e-170, 1e200, 1e-200, 5e-324])
def test_coherence_and_revealed_angle_are_scale_invariant(scale):
    # at these scales x @ x overflows or leaves the normal range; the vector
    # has integer entries below 2**21, so even 5e-324 * v is exact
    u, ubar = pair_with_epsilon(20, 2, 0.1, 1)
    v = np.round(ubar.columns @ [1.0, 2.0] * 2**20)
    assert revealed_angle_sin_sq(u, scale * v) == pytest.approx(revealed_angle_sin_sq(u, v), rel=1e-14)
    assert diagnostics(u, ubar, scale * v).cos_sq_theta == pytest.approx(
        diagnostics(u, ubar, v).cos_sq_theta, rel=1e-14
    )
    assert coherence_vector(scale * v) == pytest.approx(coherence_vector(v), rel=1e-14)
    assert coherence_vector([scale, 0.0]) == 2.0
    assert coherence_vector([scale, scale]) == 1.0


def test_alignment_identity_and_rotated_frame():
    u = random_basis(20, 3, seed=62)
    assert np.allclose(alignment(u, u), np.eye(3), atol=1e-7)
    rot = orthonormalize(np.random.default_rng(63).standard_normal((3, 3)))
    ubar = Basis(u.columns @ rot)
    assert np.allclose(alignment(u, ubar), rot.T, atol=1e-10)


def test_alignment_singular():
    u = basis_from([[1.0], [0.0]])
    v = basis_from([[0.0], [1.0]])
    with pytest.raises(NumericalError, match="no aligned frame"):
        alignment(u, v)


def test_alignment_sandwich_property():
    # n >= 2d required for the two-sided bound
    for k in range(20):
        eps = 10.0 ** (-4 + 3 * (k / 19))
        u, ubar = pair_with_epsilon(40, 4, eps, seed=100 + k)
        v = alignment(u, ubar)
        e = epsilon(u, ubar)
        assert np.linalg.norm(ubar.columns.T @ u.columns - v) ** 2 <= 2 * e + 1e-9
        gap = np.linalg.norm(ubar.columns @ v - u.columns) ** 2
        assert e - 1e-9 <= gap <= 2 * e + 1e-9


def test_projector_identity():
    for k in range(10):
        u, ubar = pair_with_epsilon(30, 3, 0.05 * (k + 1), seed=200 + k)
        diff = ubar.columns @ ubar.columns.T - u.columns @ u.columns.T
        assert np.isclose(
            np.linalg.norm(diff) ** 2, 2 * epsilon(u, ubar), atol=1e-9
        )


def test_expected_sin_sq_is_eps_over_d():
    u, ubar = pair_with_epsilon(50, 5, 0.3, seed=300)
    rng = np.random.default_rng(301)
    m = 20000
    s = rng.standard_normal((m, 5))
    v = s @ ubar.columns.T
    resid = v - (v @ u.columns) @ u.columns.T
    vals = np.sum(resid * resid, axis=1) / np.sum(v * v, axis=1)
    stderr = vals.std(ddof=1) / np.sqrt(m)
    assert abs(vals.mean() - epsilon(u, ubar) / 5) <= 4 * stderr


def test_coherence_monotone_bound():
    # precondition: eps <= (d/16n) mu(ubar)
    for k in range(10):
        n, d = 120, 4
        u, ubar = pair_with_epsilon(n, d, 1e-4, seed=400 + k)
        e = epsilon(u, ubar)
        mu_t, mu_bar = coherence_basis(u), coherence_basis(ubar)
        assert e <= d / (16 * n) * mu_bar
        assert mu_t <= mu_bar + 4 * np.sqrt(n / d) * np.sqrt(e) * np.sqrt(mu_bar) + 1e-9


def test_diagnostics_bundle():
    u, ubar = pair_with_epsilon(30, 3, 0.1, seed=500)
    v = ubar.columns @ np.array([1.0, -0.5, 0.2])
    diag = diagnostics(u, ubar, v)
    assert np.isclose(diag.epsilon, epsilon(u, ubar))
    assert len(diag.principal_angles) == 3
    assert 0.0 <= diag.cos_sq_theta <= 1.0
    assert diag.coherence_current >= 1.0 - 1e-10
    assert diagnostics(u, ubar).cos_sq_theta is None
