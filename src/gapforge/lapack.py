"""Symmetric eigensolves through scipy's LAPACK, with the GIL released.

scipy.linalg's LAPACK wrappers hold the GIL while LAPACK runs, so two pool
threads solving two blocks take turns.  The functions here call the same
routines, the ones scipy.linalg.cython_lapack exports from scipy's own
OpenBLAS, through ctypes, which releases the GIL for each foreign call.  They
pass what scipy.linalg.eigvalsh and scipy.linalg.eigh_tridiagonal
(lapack_driver="stevd") pass: the same driver, triangle, tolerance and queried
workspace, on a column-major copy.  So their results are the same bits.
"""

from __future__ import annotations

import ctypes
import functools
from ctypes import byref, c_double, c_int

import numpy as np
from scipy.linalg import cython_lapack

__all__ = ["eigvalsh", "eigh_tridiagonal"]

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


@functools.cache
def _routine(name: str):
    """LAPACK's `name` as exported by cython_lapack, every argument a pointer.

    A CFUNCTYPE call releases the GIL until the routine returns.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    signature = _capsule_name(capsule)  # b"void (char *, int *, ...)"
    n_args = signature.count(b",") + 1
    address = _capsule_pointer(capsule, signature)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)


def _call(name: str, *args) -> None:
    """Run LAPACK's `name` on args and check its info, which it appends.

    Pass every buffer as an object that holds it (a _view of a numpy array,
    a ctypes array or a byref), never as a bare address, whose array may be
    freed before LAPACK writes to it.  args keeps them until the call returns.
    """
    info = c_int()
    _routine(name)(*args, byref(info))
    if not info.value == 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} failed with info = {info.value}")


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


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple:
    """(w, Z): the ascending eigenvalues and column-major orthonormal
    eigenvectors of the symmetric tridiagonal matrix with diagonal d and
    off-diagonal e, by divide and conquer (dstevd).  Bit for bit
    scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stevd"); d and e are
    not modified.
    """
    w = np.array(d, dtype=np.float64)  # dstevd returns the eigenvalues in d
    n = w.size
    if w.shape != (n,) or np.shape(e) != (max(n - 1, 0),):
        raise ValueError(f"expected d of size n and e of size n - 1, got {np.shape(d)}, {np.shape(e)}")
    off = np.zeros(max(n - 1, 1))
    off[: n - 1] = e  # dstevd destroys it
    _finite(w, off)
    z = np.empty((n, n), order="F")
    head = (b"V", _int(n), _view(w), _view(off), _view(z), _int(max(n, 1)))
    work, iwork = c_double(), c_int()  # the workspace query's answers
    _call("dstevd", *head, byref(work), _int(-1), byref(iwork), _int(-1))
    lwork, liwork = int(work.value), iwork.value
    _call("dstevd", *head, (c_double * lwork)(), _int(lwork), (c_int * liwork)(), _int(liwork))
    return w, z
