import math
import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import blas, lapack, solve_triangular
from scipy.linalg.lapack import dgeqrf, dgesdd_lwork, dorgqr

import grouse
from grouse import linalg, metrics
from grouse.concentration import validate_residual_bound
from grouse.linalg import (
    NumericalError,
    _fork_map,
    _lstsq,
    _lwork,
    _one_blas_thread,
    _openblas_thread_controls,
    _qr,
    _sv,
    _workers,
    least_squares,
    nearest_orthogonal,
    orthonormalize,
    singular_values,
    sym_eigenvalues,
)
from grouse.metrics import Basis, orthonormality_drift
from grouse.partial_data import Observation, partial_residual


def test_orthonormalize_identity():
    q = orthonormalize(np.eye(3))
    assert np.allclose(np.abs(q), np.eye(3), atol=1e-14)
    assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-12


def test_orthonormalize_column_scaling():
    a = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    q = orthonormalize(a)
    assert np.allclose(np.abs(q), np.array([[1, 0], [0, 1], [0, 0]]), atol=1e-14)


def test_orthonormalize_matches_normal_equations_projector():
    rng = np.random.default_rng(50)
    a = rng.standard_normal((50, 4))
    q = orthonormalize(a)
    assert np.linalg.norm(q.T @ q - np.eye(4)) < 1e-12
    # independent oracle: projector from the normal equations
    proj = a @ np.linalg.solve(a.T @ a, a.T)
    assert np.linalg.norm(proj - q @ q.T) < 1e-10


def test_orthonormalize_errors():
    with pytest.raises(NumericalError, match="rank deficient"):
        orthonormalize(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))
    with pytest.raises(ValueError, match="shape"):
        orthonormalize(np.ones((2, 3)))
    with pytest.raises(ValueError):
        orthonormalize(np.array([[np.nan, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def test_least_squares_identity_design():
    w = least_squares(np.eye(2), np.array([3.0, 4.0]))
    assert np.allclose(w, [3.0, 4.0], atol=1e-14)


def test_least_squares_mean_of_two_points():
    w = least_squares(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
    assert np.allclose(w, [2.0], atol=1e-14)


def test_least_squares_exact_fit_recovery():
    rng = np.random.default_rng(51)
    c = rng.standard_normal((30, 3))
    truth = np.array([1.0, -2.0, 5.0])
    w = least_squares(c, c @ truth)
    assert np.linalg.norm(w - truth) < 1e-10


def test_least_squares_residual_orthogonality():
    rng = np.random.default_rng(52)
    for k in range(10):
        c = rng.standard_normal((25, 4))
        b = rng.standard_normal(25)
        w = least_squares(c, b)
        resid = c @ w - b
        bound = 1e-10 * np.linalg.norm(c, 2) * np.linalg.norm(b)
        assert np.abs(c.T @ resid).max() <= bound


def test_least_squares_singular():
    c = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(NumericalError, match="singular normal equations"):
        least_squares(c, np.array([1.0, 2.0, 3.0]))


def test_singular_values_diag_and_zero():
    assert np.allclose(singular_values(np.diag([3.0, 1.0])), [3.0, 1.0])
    assert np.allclose(singular_values(np.zeros((4, 2))), 0.0)


def test_singular_values_match_gram_eigenvalues():
    rng = np.random.default_rng(53)
    a = rng.standard_normal((6, 3))
    sv = singular_values(a)
    assert np.all(np.diff(sv) <= 0) and np.all(sv >= 0)
    gram_eigs = sym_eigenvalues(a.T @ a)
    assert np.allclose(sv**2, gram_eigs, rtol=1e-9, atol=1e-12)
    # squares sum to the squared Frobenius norm
    assert np.isclose(np.sum(sv**2), np.sum(a * a), rtol=1e-10)


def test_nearest_orthogonal_fixed_points():
    rng = np.random.default_rng(54)
    v = orthonormalize(rng.standard_normal((3, 3)))
    assert np.allclose(nearest_orthogonal(v), v, atol=1e-13)
    assert np.allclose(nearest_orthogonal(2.0 * np.eye(3)), np.eye(3), atol=1e-14)


def test_nearest_orthogonal_recovers_rotation():
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    out = nearest_orthogonal(rot @ np.diag([1.0, 0.9]))
    assert np.allclose(out, rot, atol=1e-12)


def test_nearest_orthogonal_spd_invariance():
    rng = np.random.default_rng(55)
    for k in range(6):
        v = orthonormalize(rng.standard_normal((4, 4)))
        b = rng.standard_normal((4, 4))
        spd = b @ b.T + 4.0 * np.eye(4)
        assert np.allclose(nearest_orthogonal(v @ spd), v, atol=1e-9)


def test_nearest_orthogonal_errors():
    with pytest.raises(NumericalError, match="singular alignment"):
        nearest_orthogonal(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="shape"):
        nearest_orthogonal(np.ones((3, 2)))


def test_sym_eigenvalues_basics():
    assert np.allclose(sym_eigenvalues(np.diag([5.0, 2.0, 2.0])), [5.0, 2.0, 2.0])
    assert np.allclose(sym_eigenvalues(np.eye(4)), 1.0)
    g = np.diag([1.0, 2.0, 3.0])
    assert np.isclose(np.sum(sym_eigenvalues(g)), np.trace(g), rtol=1e-10)


def test_sym_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(2, 12),
    k=st.integers(1, 6),
)
def test_property_singular_values_square_to_gram_spectrum(seed, m, k):
    k = min(k, m)
    a = np.random.default_rng(seed).standard_normal((m, k))
    sv = singular_values(a)
    gram = a.T @ a
    eigs = sym_eigenvalues(gram) if k > 1 else gram.ravel()
    scale = max(1.0, eigs[0])
    assert np.all(np.abs(sv**2 - eigs) <= 1e-9 * scale)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 20), d=st.integers(1, 6))
def test_property_orthonormalize_contract(seed, n, d):
    d = min(d, n)
    a = np.random.default_rng(seed).standard_normal((n, d))
    q = orthonormalize(a)
    assert np.linalg.norm(q.T @ q - np.eye(d)) <= 1e-12


def _assert_kernels_are_numpys(a):
    """The QR, least-squares and singular-value kernels on a tall ``a`` are bitwise numpy's and scipy's."""
    q, r = _qr(a, "unused")
    q_ref, r_ref = np.linalg.qr(a)
    assert q.flags.c_contiguous and r.flags.c_contiguous
    assert q.tobytes() == q_ref.tobytes()
    # R's upper triangle is numpy's; below it lie the Householder vectors
    assert np.triu(r).tobytes() == r_ref.tobytes()
    b = np.random.default_rng(a.shape[0]).standard_normal(a.shape[0])
    w_ref = solve_triangular(r_ref, q_ref.T @ b, check_finite=False)
    assert _lstsq(a, b).tobytes() == w_ref.tobytes()
    # the transpose is wide (m < d) and in the other memory order
    for sample in (a, a.T):
        assert _sv(sample).tobytes() == np.linalg.svd(sample, compute_uv=False).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    d=st.integers(1, 32),
    extra=st.integers(0, 60),
    order=st.sampled_from("CF"),
)
def test_property_qr_kernel_is_bitwise_numpys_qr(seed, d, extra, order):
    a = np.random.default_rng(seed).standard_normal((d + extra, d))
    _assert_kernels_are_numpys(np.asarray(a, order=order))


@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize(
    "shape",
    [(300, 64), (5000, 5), (10000, 200), (1, 1), (7, 1), (10, 10), (40, 10), (80, 10), (213, 10), (400, 5)],
)
def test_qr_kernel_is_bitwise_numpys_qr_blocked_and_tall(shape, order):
    # d = 64 and 200 exceed LAPACK's block size, so these take the blocked
    # code, whose bits depend on the workspace size; 40x10 to 213x10 are the
    # sampled rows of the sweep and stream steps, 5000x5 the residual
    # validator's sample, and every kernel is checked, not the QR alone
    a = np.random.default_rng(shape[1]).standard_normal(shape)
    _assert_kernels_are_numpys(np.asarray(a, order=order))


@pytest.mark.parametrize("shape", [(1, 1), (40, 10), (5000, 5), (300, 64), (10000, 200)])
def test_cached_workspace_sizes_equal_fresh_queries(shape):
    m, d = shape
    a = np.asfortranarray(np.random.default_rng(d).standard_normal(shape))
    for _ in range(2):  # the first call fills the cache, the second reads it
        assert _lwork("geqrf", m, d) == int(dgeqrf(a, lwork=-1)[2][0])
        qr, tau, _, _ = dgeqrf(a)
        assert _lwork("orgqr", m, d) == int(dorgqr(qr, tau, lwork=-1)[1][0])
        for rows, cols in (shape, shape[::-1]):
            fresh = dgesdd_lwork(rows, cols, compute_uv=0, full_matrices=0)[0]
            assert _lwork("gesdd", rows, cols) == int(fresh)


def _same_bits(ours, theirs):
    """Two routine results, each an array or a tuple of arrays and scalars, hold the same bits."""
    ours, theirs = (x if isinstance(x, tuple) else (x,) for x in (ours, theirs))
    assert len(ours) == len(theirs)
    for x, y in zip(ours, theirs):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.per_core
@pytest.mark.parametrize("shape", [(40, 10), (300, 64)])
def test_bound_routines_are_bitwise_scipys(shape):
    # each routine grouse loads from scipy's compiled modules gives the bits
    # of the scipy.linalg.lapack or scipy.linalg.blas routine of its name
    m, d = shape
    rng = np.random.default_rng(m)
    a = np.asfortranarray(rng.standard_normal(shape))
    g = np.asfortranarray(a.T @ a)
    # indefinite: the Cholesky factorization stops part way, info > 0
    indefinite = np.asfortranarray(g - np.median(np.diag(g)) * np.eye(d))
    r = np.asfortranarray(np.triu(rng.standard_normal((d, d))) + d * np.eye(d))
    calls = [
        ("dgeqrf", (a,), {"lwork": -1}),
        ("dgeqrf", (a,), {"lwork": _lwork("geqrf", m, d)}),
        ("dgeqrf_lwork", (m, d), {}),
        ("dgesdd", (a,), {"compute_uv": 0, "full_matrices": 0, "lwork": _lwork("gesdd", m, d)}),
        ("dgesdd", (a.T,), {"compute_uv": 1, "full_matrices": 0}),
        ("dgesdd_lwork", (m, d), {"compute_uv": 0, "full_matrices": 0}),
        ("dgesdd_lwork", (d, m), {"compute_uv": 1, "full_matrices": 1}),
        ("dpotrf", (g,), {}),
        ("dpotrf", (indefinite,), {"lower": 1, "clean": 0}),
        ("dtrtrs", (r, rng.standard_normal(d)), {"lower": 0}),
        ("dtrtrs", (r.T, rng.standard_normal(d)), {"lower": 1, "trans": 1}),
    ]
    for name, args, kwargs in calls:
        _same_bits(getattr(linalg, name)(*args, **kwargs), getattr(lapack, name)(*args, **kwargs))
    assert linalg.dpotrf(g)[1] == 0 and linalg.dpotrf(indefinite)[1] > 0
    qr, tau, _, _ = lapack.dgeqrf(a)
    for lwork in (-1, _lwork("orgqr", m, d)):
        _same_bits(linalg.dorgqr(qr, tau, lwork=lwork), lapack.dorgqr(qr, tau, lwork=lwork))
    x, y = rng.standard_normal(m), rng.standard_normal(d)
    ours, theirs = a.copy(order="F"), a.copy(order="F")
    _same_bits(metrics.dger(-0.5, x, y, a=ours, overwrite_a=1), blas.dger(-0.5, x, y, a=theirs, overwrite_a=1))
    _same_bits(ours, theirs)


def test_missing_scipy_extension_raises_import_error_naming_the_directory(tmp_path, monkeypatch):
    # an installed scipy whose linalg directory lacks a compiled module
    directory = tmp_path / "scipy" / "linalg"
    directory.mkdir(parents=True)
    monkeypatch.setattr(linalg.scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    for name in ("_flapack", "_fblas"):
        with pytest.raises(ImportError, match=re.escape(str(directory))):
            linalg._scipy_linalg_extension(name)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-20, 1.0, 1e20, 1e150])
@pytest.mark.parametrize("length", [1, 2, 10, 40, 2000])
def test_vector_norm_formula_is_bitwise_numpys(scale, length):
    # the step paths take each 1-d 2-norm as sqrt(x.dot(x))
    x = scale * np.random.default_rng(length).standard_normal(length)
    assert math.sqrt(x.dot(x)) == np.linalg.norm(x)


@pytest.mark.parametrize("shape", [(1000, 10), (2000, 10), (40, 10), (10000, 200)])
def test_drift_norm_formula_is_bitwise_numpys(shape):
    # orthonormality_drift takes sqrt(x.dot(x)) of the raveled Gram matrix
    rng = np.random.default_rng(shape[1])
    b = orthonormalize(rng.standard_normal(shape))
    for cols in (b, b + 1e-6 * rng.standard_normal(shape)):
        assert orthonormality_drift(cols) == np.linalg.norm(cols.T @ cols - np.eye(shape[1]))


def test_rank_deficient_input_raises_each_callers_message():
    dependent = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(NumericalError, match="^rank deficient$"):
        orthonormalize(dependent)
    with pytest.raises(NumericalError, match="^singular normal equations$"):
        least_squares(dependent, np.ones(3))
    with pytest.raises(NumericalError, match="^either message$"):
        _qr(dependent, "either message")
    # rows 0 and 1 carry the whole basis: any other sampled rows are zero
    u = Basis(np.eye(40, 2))
    obs = Observation(n=40, omega=[5, 6, 7], values=[1.0, 2.0, 3.0])
    with pytest.raises(NumericalError, match="^gate bypassed on singular sample$"):
        partial_residual(u, obs)
    ubar = Basis(np.eye(40, 2, k=-2))
    with pytest.raises(NumericalError, match="^singular normal equations$"):
        validate_residual_bound(u, ubar, omega_size=3, delta=0.1, trials=20, seed=0)


def test_one_blas_thread_pins_both_bundled_openblas_libraries_and_restores():
    # numpy and scipy each bundle an OpenBLAS; scipy's serves the LAPACK kernels
    controls = _openblas_thread_controls()
    assert len(controls) == 2
    initial = [getter() for _, getter in controls]
    try:
        for setter, _ in controls:
            setter(2)
        entry = tuple(getter() for _, getter in controls)
        with _one_blas_thread() as previous:
            assert previous == entry
            assert [getter() for _, getter in controls] == [1, 1]
        assert tuple(getter() for _, getter in controls) == entry
    finally:
        for (setter, _), count in zip(controls, initial):
            setter(count)


def _blas_threads():
    return os.getpid(), tuple(getter() for _, getter in _openblas_thread_controls())


@pytest.mark.parametrize("one_cpu", [False, True], ids=["in-workers", "in-process"])
def test_fork_map_runs_each_task_on_one_blas_thread_in_task_order(see_one_cpu, one_cpu):
    if one_cpu:
        see_one_cpu()
    controls = _openblas_thread_controls()
    initial = [getter() for _, getter in controls]
    try:
        for setter, _ in controls:
            setter(2)
        # workers inherit the task list, closures included
        assert _fork_map(lambda k: 2**k, [(k,) for k in range(9)]) == [2**k for k in range(9)]
        runs = _fork_map(_blas_threads, [()] * 4)
        assert [getter() for _, getter in controls] == [2, 2]
    finally:
        for (setter, _), count in zip(controls, initial):
            setter(count)
    assert all(threads == (1, 1) for _, threads in runs)
    in_parent = {pid == os.getpid() for pid, _ in runs}
    assert in_parent == ({True} if one_cpu or _workers(2) == 1 else {False})
    assert _fork_map(pow, []) == []
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("one_cpu", [False, True], ids=["in-workers", "in-process"])
def test_fork_map_raises_the_first_failing_task_in_task_order(see_one_cpu, one_cpu):
    if one_cpu:
        see_one_cpu()

    def task(k):
        if k == 1:
            raise NumericalError("task 1")
        if k == 3:
            raise KeyError("task 3")
        return k

    with pytest.raises(NumericalError, match="^task 1$") as exc:
        _fork_map(task, [(k,) for k in range(6)])
    assert type(exc.value) is NumericalError
    assert not multiprocessing.active_children()


def test_import_loads_no_pool_machinery():
    # the pool is imported on the first fork, and LAPACK and BLAS come from
    # scipy's compiled modules without the scipy.linalg package, whose
    # __init__ loads scipy's array-API layer and numpy.f2py
    unused = ["multiprocessing", "concurrent.futures.process", "scipy.linalg", "scipy._lib._array_api", "numpy.f2py"]
    code = f"import sys, grouse, grouse.cli; print(sorted(set({unused!r}) & set(sys.modules)))"
    src = os.path.dirname(os.path.dirname(os.path.abspath(grouse.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
