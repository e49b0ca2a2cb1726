"""Symmetric eigensolves, bidiagonal SVD, Cholesky, the cosine-sine split and
the complex Schur form through scipy's LAPACK, with the GIL released.

scipy.linalg's LAPACK wrappers hold the GIL while LAPACK runs, so two pool
threads solving two blocks take turns.  The functions here call the same
routines, the ones scipy.linalg.cython_lapack exports from scipy's own
OpenBLAS, through ctypes, which releases the GIL for each foreign call.
That extension is loaded on its own when this module is imported, without
running scipy/linalg/__init__.py, so no gapforge path imports scipy.linalg
and pays for its memory and start-up.  _BlasPin holds the OpenBLAS builds
bundled with numpy and scipy to one thread for the duration of a per-weight
pass (openblas_set_num_threads_local, also through ctypes).
eigvalsh passes what scipy.linalg.eigvalsh passes: the same driver, triangle,
tolerance and queried workspace, on a column-major copy, so its results are
the same bits; cossin and schur do the same for scipy.linalg.cossin(...,
separate=True) and scipy.linalg.schur(..., output="complex") on complex
input.  bidiagonal_svd runs dbdsdc, which scipy does not wrap.
certify_norm_below proves ||B|| < theta with two Cholesky factorizations, one
sign at a time in one row-major work array, in place of an eigensolve;
LAPACK reads the array's lower triangle as the upper one of its transpose,
so no transposing copy is made.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib.machinery
import importlib.util
import os
import sys
import threading
from ctypes import byref, c_double, c_int

import numpy as np
import scipy

__all__ = ["eigvalsh", "bidiagonal_svd", "certify_norm_below", "cossin", "schur"]

_U = np.finfo(np.float64).eps / 2  # unit roundoff
_ETA = float(np.finfo(np.float64).smallest_subnormal)

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _cython_lapack():
    """scipy.linalg.cython_lapack, the one in sys.modules if there is one, else
    found in scipy.linalg's directory and executed on its own (the recipe for
    importing a source file directly), without scipy/linalg/__init__.py."""
    name = "scipy.linalg.cython_lapack"
    if name in sys.modules:
        return sys.modules[name]
    package = importlib.util.find_spec("scipy.linalg")  # found, not executed
    spec = importlib.machinery.PathFinder.find_spec(name, package.submodule_search_locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# loaded now, not on the first call, so that scipy's OpenBLAS is mapped before
# _blas_thread_setters below looks for the loaded builds, once
_CAPI = _cython_lapack().__pyx_capi__


@functools.cache
def _blas_thread_setters() -> tuple:
    """openblas_set_num_threads_local of the loaded OpenBLAS builds that numpy
    and scipy bundle; empty where there is none, and BLAS runs as configured."""
    setters = []
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
            try:
                lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))  # loaded ones only
                fn = lib.openblas_set_num_threads_local
            except (OSError, AttributeError):
                continue
            fn.argtypes = [ctypes.c_int]
            fn.restype = ctypes.c_int
            setters.append(fn)
    return tuple(setters)


def _pin_blas() -> list:
    """Set every OpenBLAS found to one thread; return the previous counts."""
    return [set_threads(1) for set_threads in _blas_thread_setters()]


class _BlasPin:
    """Context manager pinning OpenBLAS to one thread for the duration.

    The bundled pthreads builds apply the count to the whole process, so
    passes that overlap (from different caller threads) share one pin: the
    first to enter saves the counts and the last to leave restores them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._previous = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._previous = _pin_blas()
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_threads, n in zip(_blas_thread_setters(), self._previous):
                    set_threads(n)


_ONE_BLAS_THREAD = _BlasPin()


@functools.cache
def _routine(name: str):
    """LAPACK's `name` as exported by cython_lapack, every argument a pointer.

    A CFUNCTYPE call releases the GIL until the routine returns.
    """
    capsule = _CAPI[name]
    signature = _capsule_name(capsule)  # b"void (char *, int *, ...)"
    n_args = signature.count(b",") + 1
    address = _capsule_pointer(capsule, signature)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)


def _call(name: str, *args, pivot_ok: bool = False) -> int:
    """Run LAPACK's `name` on args and check its info, which it appends.

    info < 0 (an illegal argument) raises; so does info > 0 unless pivot_ok,
    where it is returned for the caller to read (potrf: a leading minor is not
    positive definite).  Pass every buffer as an object that holds it (a _view
    of a numpy array, a ctypes array or a byref), never as a bare address,
    whose array may be freed before LAPACK writes to it.  args keeps them
    until the call returns.
    """
    info = c_int()
    _routine(name)(*args, byref(info))
    if not (info.value == 0 or pivot_ok and info.value > 0):
        raise np.linalg.LinAlgError(f"LAPACK {name} failed with info = {info.value}")
    return info.value


def _view(a: np.ndarray):
    """A ctypes array over the memory of the contiguous a, keeping a alive."""
    return (ctypes.c_char * a.nbytes).from_buffer(a.T)  # a.T: C order either way


def _int(x: int):
    return byref(c_int(x))


def _real(x: float):
    return byref(c_double(x))


def _finite(*arrays: np.ndarray) -> None:
    # the error scipy's check_finite raises
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def eigvalsh(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric or complex Hermitian A,
    read from its lower triangle: scipy.linalg.eigvalsh(A) bit for bit, in
    double precision.  A is not modified.
    """
    A = np.asarray(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    _finite(A)
    cplx = np.iscomplexobj(A)
    a = np.array(A, dtype=np.complex128 if cplx else np.float64, order="F")  # LAPACK overwrites it
    w = np.empty(n)
    # jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz
    head = (b"N", b"A", b"L", _int(n), _view(a), _int(max(n, 1)), _real(0.0), _real(0.0),
            _int(1), _int(n), _real(0.0), _int(0), _view(w), (c_double * 2)(), _int(1),
            (c_int * (2 * max(n, 1)))())
    work, iwork = (c_double * 2)(), c_int()  # the workspace query's answers
    if cplx:
        rwork = c_double()
        _call("zheevr", *head, work, _int(-1), byref(rwork), _int(-1), byref(iwork), _int(-1))
        lwork, lrwork, liwork = int(work[0]), int(rwork.value), iwork.value
        _call("zheevr", *head, (c_double * (2 * lwork))(), _int(lwork), (c_double * lrwork)(),
              _int(lrwork), (c_int * liwork)(), _int(liwork))
    else:
        _call("dsyevr", *head, work, _int(-1), byref(iwork), _int(-1))
        lwork, liwork = int(work[0]), iwork.value
        _call("dsyevr", *head, (c_double * lwork)(), _int(lwork), (c_int * liwork)(), _int(liwork))
    return w


def bidiagonal_svd(d: np.ndarray, e: np.ndarray) -> tuple:
    """(s, U, Vt): the singular values, descending, and column-major
    orthogonal U and Vt with U diag(s) Vt = B, the n x n lower bidiagonal B
    with diagonal d and subdiagonal e, by divide and conquer (dbdsdc).  d and
    e are not modified.
    """
    s = np.array(d, dtype=np.float64)  # dbdsdc returns the singular values in d
    n = s.size
    if s.shape != (n,) or np.shape(e) != (max(n - 1, 0),):
        raise ValueError(f"expected d of size n and e of size n - 1, got {np.shape(d)}, {np.shape(e)}")
    off = np.zeros(max(n - 1, 1))
    off[: n - 1] = e  # dbdsdc destroys it
    _finite(s, off)
    u, vt = np.empty((n, n), order="F"), np.empty((n, n), order="F")
    ld = _int(max(n, 1))
    # uplo, compq, n, d, e, u, ldu, vt, ldvt, q, iq (not read for compq I), work, iwork
    _call("dbdsdc", b"L", b"I", _int(n), _view(s), _view(off), _view(u), ld, _view(vt), ld,
          (c_double * 1)(), (c_int * 1)(), (c_double * (3 * n * n + 4 * n))(), (c_int * (8 * n))())
    return s, u, vt


def cossin(X: np.ndarray, p: int, q: int) -> tuple:
    """((u1, u2), theta, (v1h, v2h)): the cosine-sine decomposition of the
    complex unitary X split after row p and column q, by zuncsd, as
    scipy.linalg.cossin(X, p, q, separate=True) returns it bit for bit: the
    same flags and queried workspace on column-major copies of the four
    blocks.  X is not modified.
    """
    X = np.asarray(X, dtype=np.complex128)
    m = X.shape[0]
    if X.shape != (m, m) or not (0 < p < m and 0 < q < m):
        raise ValueError(f"expected a square matrix and 0 < p, q < m, got {X.shape}, {p}, {q}")
    _finite(X)
    x11, x12, x21, x22 = (np.array(b, order="F")
                          for b in (X[:p, :q], X[:p, q:], X[p:, :q], X[p:, q:]))
    theta = np.empty(min(p, m - p, q, m - q))
    u1, u2, v1h, v2h = (np.empty((k, k), np.complex128, "F") for k in (p, m - p, q, m - q))
    # jobu1, jobu2, jobv1t, jobv2t, trans, signs, m, p, q, x11, ldx11, .., x22, ldx22,
    # theta, u1, ldu1, .., v2t, ldv2t
    head = (b"Y", b"Y", b"Y", b"Y", b"F", b"D", _int(m), _int(p), _int(q),
            _view(x11), _int(p), _view(x12), _int(p), _view(x21), _int(m - p),
            _view(x22), _int(m - p), _view(theta), _view(u1), _int(p), _view(u2), _int(m - p),
            _view(v1h), _int(q), _view(v2h), _int(m - q))
    iwork = (c_int * (m - theta.size))()
    work, rwork = (c_double * 2)(), c_double()  # the workspace query's answers
    _call("zuncsd", *head, work, _int(-1), byref(rwork), _int(-1), iwork)
    lwork, lrwork = int(work[0]), int(rwork.value)
    _call("zuncsd", *head, (c_double * (2 * lwork))(), _int(lwork), (c_double * lrwork)(),
          _int(lrwork), iwork)
    return (u1, u2), theta, (v1h, v2h)


def schur(A: np.ndarray) -> tuple:
    """(T, Z): the complex Schur form A = Z T Z^H of the complex square A,
    unsorted, by zgees, as scipy.linalg.schur(A, output="complex") returns
    it bit for bit: the same flags and queried workspace on a column-major
    copy.  A is not modified.
    """
    a = np.array(A, dtype=np.complex128, order="F")  # LAPACK overwrites it with T
    n = a.shape[0]
    if a.shape != (n, n) or n == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
    _finite(a)
    w, z = np.empty(n, np.complex128), np.empty((n, n), np.complex128, "F")
    # jobvs, sort, select (not called unsorted), n, a, lda, sdim, w, vs, ldvs
    head = (b"V", b"N", None, _int(n), _view(a), _int(n), byref(c_int()), _view(w), _view(z),
            _int(n))
    rwork, bwork = (c_double * n)(), (c_int * n)()
    work = (c_double * 2)()  # the workspace query's answer
    _call("zgees", *head, work, _int(-1), rwork, bwork)
    lwork = int(work[0])
    _call("zgees", *head, (c_double * (2 * max(lwork, 1)))(), _int(lwork), rwork, bwork)
    return a, z


def _potrf(a: np.ndarray) -> bool:
    """Cholesky-factor the row-major a in place from its lower triangle, read
    as the upper triangle of the column-major a^T (scipy.linalg.cholesky(a.T,
    lower=False) on the same memory); False where LAPACK meets a pivot that
    is not positive (info > 0)."""
    n = a.shape[0]
    name = "zpotrf" if np.iscomplexobj(a) else "dpotrf"
    return _call(name, b"U", _int(n), _view(a.T), _int(max(n, 1)), pivot_ok=True) == 0


# Why a completed Cholesky proves ||B|| < theta.  Let s be the shift, tau =
# fl(theta - s) and G the Hermitian matrix of the lower triangle LAPACK
# reads: -+b_ij off the diagonal (exact), fl(tau -+ b_ii) on it.  LAPACK
# factors G^T = conj(G), which has G's eigenvalues, diagonal and trace, so
# what follows holds for either.  If the floating-point Cholesky of G runs
# to completion (every pivot positive), then G + dG = R^H R is positive
# definite with |dG| <= gamma_m |R^H| |R| (Demmel's bound; Higham, Accuracy
# and Stability of Numerical Algorithms, ch. 10), gamma_m = m u / (1 - m u),
# m = n + 1.  A complex multiply-add errs by at most sqrt(2) gamma_2 + u
# (Higham, ch. 3), under twice the real count, so m = 2n + 4 for zpotrf.
# With r_i^2 = (R^H R)_ii <= g_ii / (1 - gamma_m) this gives ||dG|| <=
# gamma_m / (1 - gamma_m) tr G (Rump, "Verification of positive
# definiteness", BIT 46 (2006) 433, who adds 4n(2(n + 1) + max g_ii) eta for
# underflow, eta the smallest subnormal), so lambda_min(G) > -rho with rho
# the sum of the two.
# Now theta I -+ B = G + D with D diagonal: D_ii >= s - 2u W, W = theta +
# max |b_ii|, for the roundings of tau and of tau -+ b_ii, while tr G <=
# (1 + u) n W.  So theta I -+ B is positive definite once s >= 2u W + rho.
# s = 2(mn + 1) u W + 4n(2m + W) eta is nearly twice that, which covers the
# rounding of s and W themselves.  By Sylvester's law of inertia both signs
# positive definite means every eigenvalue of B lies in (-theta, theta).
def certify_norm_below(B: np.ndarray, theta: float) -> bool:
    """True only if ||B||_2 < theta is proved for the real symmetric or complex
    Hermitian B read from its lower triangle: theta I - B and theta I + B,
    shifted down by Rump's constant plus the rounding of forming them, both
    pass a floating-point Cholesky (dpotrf or zpotrf, without the GIL).
    False means no proof, not that ||B||_2 >= theta; theta <= 0 gives False.
    B is not modified.
    """
    B = np.asarray(B)
    n = B.shape[0]
    if B.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {B.shape}")
    cplx = np.iscomplexobj(B)
    # scanned by a dot product (non-finite also where it merely overflows,
    # which _finite then clears)
    flat = B.ravel(order="K")  # a view where B is contiguous
    if not np.isfinite(np.vdot(flat, flat)):
        _finite(B)
    m = 2 * n + 4 if cplx else n + 1
    W = theta + float(np.abs(np.diagonal(B).real).max(initial=0.0))
    s = 2.0 * (m * n + 1) * _U * W + 4.0 * n * (2.0 * m + W) * _ETA
    if not 0.0 < s < theta:  # theta <= 0 or NaN, or a shift that swamps it
        return False
    tau = theta - s
    # one row-major work array, which LAPACK overwrites, one sign at a time
    G = np.empty((n, n), dtype=np.complex128 if cplx else np.float64)
    diag = G.ravel()[:: n + 1]  # a view: G is contiguous
    for sign in (-1.0, 1.0):
        np.multiply(B, sign, out=G)  # exact
        diag += tau
        if not _potrf(G):
            return False
    return True
