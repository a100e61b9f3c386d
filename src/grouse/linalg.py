"""Dense linear-algebra kernel used by every other module.

All routines are deterministic, pure functions on plain ndarrays.  The
factorization routes are fixed by design: Householder QR for
orthonormalization and least squares (never normal equations), thin SVD
for the orthogonal Procrustes factor.  Sampled submatrices near the gate
boundary can be poorly conditioned, which is why QR/SVD routes are used
throughout.

Every QR, triangular solve and singular-value computation of a checked
array runs through one kernel each, :func:`_householder`, :func:`_lstsq`
and :func:`_sv`, and each calls LAPACK directly, bitwise the numpy or scipy
routine it replaces.  The one exception is :func:`nearest_orthogonal`: it
needs the singular vectors, which :func:`_sv` does not compute, so it calls
``np.linalg.svd``, the library's only SVD with vectors.  The public
routines reach the kernels after their boundary checks; callers that hold
already-checked arrays call them directly.  The QR factors its own copy,
as numpy's does, so no argument is written, or, for a caller that owns a
Fortran-ordered n x d array (:func:`_orthonormalize_in_place`), that array
in place.  The gate's decision rule (``partial_data._passes``) calls BLAS
``dsyrk`` and LAPACK ``dpotrf`` itself: a Cholesky factorization of a
shifted Gram matrix that completes or stops is its certificate.

LAPACK, the BLAS ``dger`` that :mod:`grouse.metrics` rotates with, the
gate's BLAS ``dsyrk`` and the drift certificate's BLAS ``dgemv``
(``results._drift_bound``) come from scipy's compiled modules ``_flapack`` and
``_fblas``, which :func:`_scipy_linalg_extension` loads from their files in
scipy's ``linalg`` directory, found by ``importlib.util.find_spec``.  The
routines are the objects ``scipy.linalg.lapack`` and ``scipy.linalg.blas``
export, so the bits are theirs; but neither the ``scipy`` package's
``__init__`` nor the ``scipy.linalg`` package's, which loads scipy's
array-API layer and ``numpy.f2py``, ever runs.  On a 2-core x86_64 VM,
skipping scipy's ``__init__`` took a fresh ``import grouse, grouse.cli``,
timed inside the process, from a median 0.069 s to 0.063 s (25 interleaved
pairs of processes, faster in 20); skipping the ``scipy.linalg`` package's
had taken it from 0.40 s to 0.18 s (12 interleaved processes each, an
earlier run on a busier machine).

:func:`_one_blas_thread` runs a block on one OpenBLAS thread, so that its
products give the same bits whatever thread count the process started with.
:func:`_fork_map` runs independent tasks in forked worker processes, each
on one BLAS thread, and returns their results in task order.

The library's argument rules live here too, each in one helper that raises
``ValueError`` before the argument reaches numpy: :func:`_count` for counts,
:func:`_real` for real settings, :func:`_rng` for seeds (it makes every
generator the library draws from), :func:`_real_array` for the dtype of an
array of reals, :func:`_as_matrix` and :func:`_as_vector` for finite arrays,
and :func:`_lstsq` for fits with fewer rows than columns.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import importlib.machinery
import importlib.util
import math
import os

import numpy as np

# A fixed tolerance, about 450x double eps, relative to the largest entry.
RANK_RTOL = 1e-13

# The smallest normal double: the floor of a rank check's scale.
_TINY = np.finfo(float).tiny
# The largest finite double: a real setting past it (an int, say) has no
# finite float value.
_HUGE = float(np.finfo(float).max)

# scipy's package directory, found without running scipy's __init__: grouse
# needs only scipy's compiled LAPACK and BLAS modules.
_SCIPY = importlib.util.find_spec("scipy")
if _SCIPY is None:
    raise ImportError("grouse needs scipy, which is not installed", name="scipy")
_SCIPY_DIR = _SCIPY.submodule_search_locations[0]
# on Windows, scipy's __init__ makes the DLLs bundled here loadable
_SCIPY_LIBS = os.path.join(os.path.dirname(_SCIPY_DIR), "scipy.libs")
if hasattr(os, "add_dll_directory") and os.path.isdir(_SCIPY_LIBS):
    os.add_dll_directory(_SCIPY_LIBS)

# The OpenBLAS builds bundled with numpy and with scipy: the package
# directory, the library's file pattern beside it, and the thread-count
# setter and getter it exports.
_OPENBLAS = (
    (os.path.dirname(np.__file__), "numpy.libs/libscipy_openblas64_*.so",
     "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    (_SCIPY_DIR, "scipy.libs/libscipy_openblas-*.so",
     "scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def _scipy_linalg_extension(name: str):
    """scipy's compiled module ``scipy.linalg.<name>``, loaded from its file in scipy's ``linalg`` directory.

    The ``scipy.linalg`` package is not imported: its ``__init__`` loads
    scipy's array-API layer and ``numpy.f2py``, which grouse never uses.
    The module keeps its full name, so CPython's cache of single-phase
    extension modules hands a later ``import scipy.linalg`` the same
    routine objects.  Raises ``ImportError`` naming the directory when
    scipy has no such module.
    """
    directory = os.path.join(_SCIPY_DIR, "linalg")
    spec = importlib.machinery.PathFinder.find_spec(f"scipy.linalg.{name}", [directory])
    if spec is None:
        raise ImportError(f"no compiled scipy module {name} in {directory}", name=f"scipy.linalg.{name}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the objects scipy.linalg.lapack and scipy.linalg.blas export under these names
_flapack = _scipy_linalg_extension("_flapack")
dgeqrf, dgeqrf_lwork, dorgqr = _flapack.dgeqrf, _flapack.dgeqrf_lwork, _flapack.dorgqr
dgesdd, dgesdd_lwork, dpotrf, dtrtrs = _flapack.dgesdd, _flapack.dgesdd_lwork, _flapack.dpotrf, _flapack.dtrtrs
_fblas = _scipy_linalg_extension("_fblas")
dgemv, dger, dsyrk = _fblas.dgemv, _fblas.dger, _fblas.dsyrk


class NumericalError(ValueError):
    """A numerically singular or degenerate input reached a kernel routine."""


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(setter, getter) of each bundled OpenBLAS library that exports both symbols.

    The libraries are already loaded by numpy and scipy, so opening the same
    file again returns the loaded copy.  A missing file or symbol leaves that
    library out.
    """
    controls = []
    for package, pattern, set_name, get_name in _OPENBLAS:
        site = os.path.dirname(package)
        for path in glob.glob(os.path.join(site, pattern)):
            lib = ctypes.CDLL(path)
            if not (hasattr(lib, set_name) and hasattr(lib, get_name)):
                continue
            setter, getter = getattr(lib, set_name), getattr(lib, get_name)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            controls.append((setter, getter))
    return tuple(controls)


class _one_blas_thread:
    """Run the block with every bundled OpenBLAS library on one thread.

    ``with _one_blas_thread() as previous`` yields the thread counts found
    on entry, one per library, and restores them on exit; a library already
    on one thread is left alone, so a pin inside a pin only reads the
    counts.  A product splits its inner dimension by the thread count, so
    pinning one thread makes results the same bits at any
    ``OPENBLAS_NUM_THREADS``.  Where neither library is found this pins
    nothing and yields an empty tuple.
    """

    __slots__ = ("_changed",)

    def __enter__(self) -> tuple:
        controls = _openblas_thread_controls()
        previous = tuple(getter() for _, getter in controls)
        self._changed = [(setter, count) for (setter, _), count in zip(controls, previous) if count != 1]
        for setter, _ in self._changed:
            setter(1)
        return previous

    def __exit__(self, *exc) -> None:
        for setter, count in self._changed:
            setter(count)


def _workers(tasks: int) -> int:
    """:func:`_fork_map`'s worker count: one per usable CPU, at most one per task.

    The usable CPUs are those ``os.sched_getaffinity`` reports.  Without it
    or without ``fork`` the count is 1, and it is never below 1.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(tasks, len(os.sched_getaffinity(0))))


# The (function, task list) of the running _fork_map, which its forked
# workers inherit; a worker receives a task's index, not its arguments.
_FORKED = None


def _forked_task(i: int):
    fn, tasks = _FORKED
    return fn(*tasks[i])


def _fork_map(fn, tasks) -> list:
    """``[fn(*task) for task in tasks]`` on one BLAS thread, in forked workers.

    There are :func:`_workers` of them, and the tasks go one at a time to
    the next idle worker, so tasks of mixed sizes balance.  The workers are
    forked, not spawned, inside :func:`_one_blas_thread`: they inherit
    ``fn``, the tasks and the one-thread pin, and start without re-importing
    numpy and scipy; only a task's index goes to a worker and only its
    result comes back.  With one worker the calls run in-process.  A task's
    exception reaches the caller with its type and message, the first in
    task order, and the workers are joined before this returns or raises.
    """
    global _FORKED
    tasks = list(tasks)
    workers = _workers(len(tasks))
    with _one_blas_thread():
        if workers == 1:
            return [fn(*task) for task in tasks]
        # imported here, so that ``import grouse`` does not load the pool machinery
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        outer, _FORKED = _FORKED, (fn, tasks)
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            return list(pool.map(_forked_task, range(len(tasks))))
        finally:
            pool.shutdown(cancel_futures=True)
            _FORKED = outer


def _count(name: str, value, floor: int | None = None, floor_text: str | None = None) -> None:
    """The count rule: ``value`` is an ``int`` or ``np.integer``, not a bool, at least ``floor``.

    Raises ``ValueError`` naming ``name`` otherwise; ``floor`` None checks
    the type alone, and ``floor_text`` spells the floor in the message.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not a {type(value).__name__}")
    if floor is not None and value < floor:
        raise ValueError(f"{name} must be at least {floor_text or floor}")


def _real(name: str, value, low=0.0, high=np.inf, closed: bool = False, message=None) -> None:
    """The real rule: ``value`` is a real number, not a bool, finite and in range.

    A real number is an ``int``, a ``float`` or a numpy integer or float.

    Finite means finite as a double, so an int past ``_HUGE`` fails too.
    The range runs from ``low`` to ``high``, both ends excluded, or both
    included when ``closed``; by default it is the positive half-line, or
    the nonnegative one when ``closed``.  Raises ``ValueError`` naming
    ``name`` for a value of another type, and ``ValueError(message)`` for
    one outside the range, NaN and infinities included; the default
    message says that ``name`` must be finite and positive (nonnegative).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, not a {type(value).__name__}")
    if not (-_HUGE <= value <= _HUGE and (low <= value <= high if closed else low < value < high)):
        sign = "nonnegative" if closed else "positive"
        raise ValueError(message or f"{name} must be finite and {sign}")


def _rng(seed) -> np.random.Generator:
    """The seed rule: ``np.random.default_rng(seed)`` for a seed >= 0 or a ``SeedSequence``.

    An integer seed obeys the count rule.  This is the library's only
    generator factory; a derived stream passes the ``SeedSequence`` it
    builds, and gets the generator numpy makes of it.
    """
    if not isinstance(seed, np.random.SeedSequence):
        _count("seed", seed, 0)
    return np.random.default_rng(seed)


def _real_array(what: str, a) -> np.ndarray:
    """The real-array rule: ``a`` as a float array, if its dtype is bool, integer or float.

    Any other dtype, complex, string or object (a list holding a string,
    say), raises ``ValueError`` naming ``what``, where numpy would drop an
    imaginary part with a warning, parse a string or raise ``TypeError``.
    """
    a = np.asarray(a)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real numbers, not {a.dtype.name}")
    return np.asarray(a, dtype=float)


def _as_matrix(a, square: bool = False) -> np.ndarray:
    """The matrix rule: ``a`` as a finite 2-d float array, nonempty, and square if ``square``."""
    a = _real_array("matrix entries", a)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError("shape: expected a 2-d matrix with positive dimensions")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError("shape: expected a square matrix")
    return a


def _as_vector(name: str, b, length: int | None = None) -> np.ndarray:
    """The vector rule: ``b`` as a finite 1-d float array of ``length`` entries (or of any >= 1).

    Raises ``ValueError`` naming ``name`` otherwise.
    """
    b = _real_array(f"{name} entries", b)
    if b.ndim != 1 or len(b) < 1 or len(b) != (length or len(b)):
        raise ValueError(f"{name} must be a 1-d vector of length {length or 'at least 1'}")
    if not np.all(np.isfinite(b)):
        raise ValueError(f"{name} entries must be finite")
    return b


@functools.cache
def _lwork(routine: str, m: int, d: int) -> int:
    """LAPACK's optimal workspace size for ``routine`` on an m x d array, queried once per shape.

    ``routine`` is ``"geqrf"``, ``"orgqr"`` (Q of an m x d QR) or ``"gesdd"``
    (singular values only).  The size depends on the shape alone, so each
    call after the first returns the integer a fresh query would.  ``dorgqr``
    has no size helper, so its ``lwork=-1`` query runs on a d x d zero
    array: LAPACK sizes that workspace as d times a block size that does not
    depend on m, and an m x d one would be as large as the array factored.
    """
    if routine == "geqrf":
        size = dgeqrf_lwork(m, d)[0]
    elif routine == "orgqr":
        size = dorgqr(np.zeros((d, d), order="F"), np.zeros(d), lwork=-1, overwrite_a=True)[1][0]
    else:
        size = dgesdd_lwork(m, d, compute_uv=0, full_matrices=0)[0]
    return int(size)


def _householder(a: np.ndarray, message: str, overwrite_a: int = 0):
    """Householder QR of a finite m x d array with m >= d: (Q, R), Q Fortran-ordered.

    Runs LAPACK ``dgeqrf``/``dorgqr`` at their optimal workspace
    (:func:`_lwork`), which is what ``np.linalg.qr`` does on its own
    Fortran-ordered copy, so Q and R's upper triangle are bitwise its own.
    f2py factors a Fortran-ordered copy of ``a``, unless ``overwrite_a`` is
    1 and ``a`` is a Fortran-ordered float64 array: then ``a`` itself
    becomes Q, whatever its read-only flag says.  R is a C-ordered copy;
    its entries below the diagonal are left as the Householder vectors, not
    zeroed: the one solve that reads R (:func:`_lstsq`) reads one triangle.
    Raises ``NumericalError(message)`` when a diagonal entry of R is
    negligible against the largest.
    """
    m, d = a.shape
    q, tau, _, _ = dgeqrf(a, lwork=_lwork("geqrf", m, d), overwrite_a=overwrite_a)
    # a real copy: at d=1, q[:d] is a view that dorgqr overwrites
    r = np.array(q[:d], order="C")
    diag = np.abs(np.diag(r))
    if diag.min() <= RANK_RTOL * max(diag.max(), _TINY):
        raise NumericalError(message)
    q, _, _ = dorgqr(q, tau, lwork=_lwork("orgqr", m, d), overwrite_a=True)
    return q, r


def _qr(a: np.ndarray, message: str):
    """:func:`_householder` of a copy of ``a``: (Q, R), both C-ordered, as numpy returns them."""
    q, r = _householder(a, message)
    return np.ascontiguousarray(q), r


def _lstsq(c: np.ndarray, b: np.ndarray, message: str = "singular normal equations") -> np.ndarray:
    """:func:`least_squares` on a finite m x d array and a length-m vector.

    Raises ``NumericalError(message)`` when the fit is singular: fewer rows
    than columns, or a negligible diagonal entry of R.  Solves R w = Q^T b
    with LAPACK ``dtrtrs`` on the Fortran-ordered transpose of the
    C-ordered R, the call ``solve_triangular`` makes for it, so w is bitwise
    ``solve_triangular(r, q.T @ b)``.  ``dtrtrs`` reads only the lower
    triangle of that transpose, so R's Householder vectors below its
    diagonal never enter the solve.
    """
    if len(c) < c.shape[1]:
        raise NumericalError(message)
    q, r = _qr(c, message)
    w, info = dtrtrs(r.T, q.T @ b, lower=1, trans=1)
    if info != 0:
        raise NumericalError(message)
    return w


def _sv(a: np.ndarray) -> np.ndarray:
    """Singular values, descending, of a finite 2-d array of any shape.

    Runs LAPACK ``dgesdd`` without singular vectors at its optimal
    workspace (:func:`_lwork`), as ``np.linalg.svd(a, compute_uv=False)``
    does, so the values are bitwise its own.
    """
    _, s, _, info = dgesdd(a, compute_uv=0, full_matrices=0, lwork=_lwork("gesdd", *a.shape))
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    return s


def _orthonormalize_in_place(f: np.ndarray) -> np.ndarray:
    """:func:`orthonormalize` of a Fortran-ordered m x d array the caller owns, with m >= d, in place.

    Returns ``f``, which now holds Q, bitwise the C-ordered Q that
    ``orthonormalize(f)`` would return.  No n x d copy is made, so a caller
    that drops its input once ``f`` exists holds one array fewer.  Raises
    ``ValueError`` for a non-finite entry and ``NumericalError("rank
    deficient")``, as ``orthonormalize`` does.  It raises ``ValueError``
    too for a read-only array, which f2py would write through, and for one
    of another layout or dtype, of which f2py would factor a copy and leave
    ``f`` as it was.
    """
    if not (f.flags.f_contiguous and f.flags.writeable and f.dtype == np.float64):
        raise ValueError("the in-place QR needs a writable Fortran-ordered float64 array")
    # the least and largest entries are finite exactly when every entry is
    # (NaN propagates through both), and reading them allocates no n x d mask
    if not (math.isfinite(f.min()) and math.isfinite(f.max())):
        raise ValueError("matrix entries must be finite")
    _householder(f, "rank deficient", overwrite_a=1)
    return f


def orthonormalize(a) -> np.ndarray:
    """Return Q with orthonormal columns and range(Q) = range(a).

    Householder QR route.  Raises ``ValueError("shape")`` when the input is
    wider than tall and ``NumericalError("rank deficient")`` when a column
    is numerically dependent on the others.
    """
    a = _as_matrix(a)
    n, d = a.shape
    if n < d:
        raise ValueError("shape: need rows >= cols to orthonormalize columns")
    return _qr(a, "rank deficient")[0]


def least_squares(c, b) -> np.ndarray:
    """Minimize ||c w - b||_2 via Householder QR of c (not normal equations)."""
    c = _as_matrix(c)
    return _lstsq(c, _as_vector("b", b, len(c)))


def singular_values(a) -> np.ndarray:
    """Singular values of a, sorted descending (all nonnegative)."""
    return _sv(_as_matrix(a))


def nearest_orthogonal(a) -> np.ndarray:
    """Orthogonal matrix minimizing ||a - V||_F (polar factor via thin SVD).

    Defined for square nonsingular a; the zero-singular-value case has no
    unique minimizer and raises ``NumericalError("singular alignment")``.
    """
    u, s, vt = np.linalg.svd(_as_matrix(a, square=True))
    if s.min() <= RANK_RTOL * max(s.max(), _TINY):
        raise NumericalError("singular alignment")
    return u @ vt
