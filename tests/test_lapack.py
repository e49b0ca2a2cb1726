"""gapforge.lapack against the scipy.linalg functions it stands in for."""

import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import gapforge
from gapforge.avgop import block_operator_norm
import gapforge.lapack
from gapforge.gates import _haar_unitary
from gapforge.lapack import (
    _call,
    _int,
    _potrf,
    _view,
    bidiagonal_svd,
    certify_norm_below,
    cossin,
    eigvalsh,
    schur,
)


def _hermitian(n: int, dtype, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    if dtype is complex:
        X = X + 1j * rng.standard_normal((n, n))
    return X + X.conj().T


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 121, 600])
def test_norm_matches_scipy_bit_for_bit(n, dtype):
    A = _hermitian(n, dtype, seed=n)
    want = scipy.linalg.eigvalsh(A)
    assert np.array_equal(eigvalsh(A), want)
    assert block_operator_norm(A) == np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3, 50, 510])
def test_bidiagonal_svd_factors_the_matrix(n):
    rng = np.random.default_rng(n)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    B = np.diag(d) + np.diag(e, -1)  # lower bidiagonal
    s, U, Vt = bidiagonal_svd(d, e)
    assert U.flags.f_contiguous and Vt.flags.f_contiguous
    assert np.all(np.diff(s) <= 0)
    assert np.abs(s - np.linalg.svd(B, compute_uv=False)).max() <= 1e-13 * n
    assert np.abs((U * s) @ Vt - B).max() <= 1e-13 * n
    assert np.abs(U.T @ U - np.eye(n)).max() <= 1e-13
    assert np.abs(Vt @ Vt.T - np.eye(n)).max() <= 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_as_scipy_does(bad):
    A = _hermitian(4, complex)
    A[3, 1] = bad
    with pytest.raises(ValueError):
        scipy.linalg.eigvalsh(A)
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigvalsh(A)
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigvalsh(A.real)
    off = np.ones(3)
    off[1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        bidiagonal_svd(np.ones(4), off)
    with pytest.raises(ValueError, match="infs or NaNs"):
        bidiagonal_svd(np.array([1.0, bad, 1.0, 1.0]), np.ones(3))


def test_shape_is_checked():
    with pytest.raises(ValueError, match="square"):
        eigvalsh(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="size n - 1"):
        bidiagonal_svd(np.zeros(4), np.zeros(4))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_inputs_are_not_modified(dtype, order):
    # LAPACK overwrites the matrix it is given; a column-major float64 input
    # is exactly the layout it wants, so it is the one a missing copy exposes
    A = np.array(_hermitian(121, dtype), order=order)
    before = A.copy()
    eigvalsh(A)
    assert np.array_equal(A, before)
    d, e = np.ones(50), np.arange(1.0, 50.0)
    bidiagonal_svd(d, e)
    assert np.array_equal(d, np.ones(50)) and np.array_equal(e, np.arange(1.0, 50.0))


def test_solve_releases_the_gil():
    # A Python thread keeps counting while a solve runs on another thread.  A
    # solve that held the GIL would stall it for all but the short Python
    # parts; the short switch interval keeps those from leaking counts.
    A = _hermitian(600, complex)
    count = 0
    stop = threading.Event()

    def spin():
        nonlocal count
        while not stop.is_set():
            count += 1

    spun = []

    def solve():
        start, t0 = count, time.perf_counter()
        for _ in range(3):
            eigvalsh(A)
        spun.append((count - start, time.perf_counter() - t0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    spinner = threading.Thread(target=spin)
    try:
        spinner.start()
        time.sleep(0.05)
        start, t0 = count, time.perf_counter()
        time.sleep(0.05)  # the spinner alone: its rate
        rate = (count - start) / (time.perf_counter() - t0)
        worker = threading.Thread(target=solve)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
    finally:
        stop.set()
        spinner.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not spinner.is_alive()
    iterations, seconds = spun[0]
    assert iterations >= 1000
    assert iterations >= 0.1 * rate * seconds, (iterations, rate, seconds)


def test_checks_survive_python_O():
    # a non-finite block and a LAPACK error (ldz = 0 is illegal) both raise
    script = textwrap.dedent("""
        import ctypes
        import numpy as np
        from gapforge.lapack import _call, _int, eigvalsh
        try:
            eigvalsh(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        except ValueError:
            print("non-finite raised")
        buf = (ctypes.c_double * 8)()
        try:
            _call("dstevd", b"V", _int(2), buf, buf, buf, _int(0), buf, _int(-1), buf, _int(-1))
        except np.linalg.LinAlgError as exc:
            print(exc)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(gapforge.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()  # LAPACK's own message may come between
    assert lines[0] == "non-finite raised"
    assert lines[-1] == "LAPACK dstevd failed with info = -6"


def _unit_norm(n: int, dtype, seed: int) -> np.ndarray:
    B = _hermitian(n, dtype, seed)
    return B / np.max(np.abs(scipy.linalg.eigvalsh(B)))


def _exact_spectrum(n: int, theta: float, dtype, seed: int) -> np.ndarray:
    # H diag(lam) H^T / n for a Sylvester Hadamard H (H^T H = n I) and dyadic
    # lam: every entry is exact, so the eigenvalues are lam exactly, and
    # max |lam| = theta; complex Hermitian after a diagonal unitary of +-1, +-i
    H = np.ones((1, 1))
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    rng = np.random.default_rng(seed)
    lam = rng.integers(-63, 64, n) / 64.0 * theta
    lam[rng.integers(n)] = theta * rng.choice([-1.0, 1.0])
    B = (H * lam) @ H.T / n
    if dtype is complex:
        phase = 1j ** rng.integers(0, 4, n)
        B = phase[:, None] * B * phase.conj()[None, :]
    return B


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 121, 600])
def test_cholesky_matches_scipy_bit_for_bit(n, dtype):
    B = _hermitian(n, dtype, seed=n)
    A = B @ B.conj().T + np.eye(n)
    a = np.array(A)  # row-major: LAPACK reads A's lower triangle as A^T's upper one
    assert _potrf(a)
    assert np.array_equal(np.tril(a), scipy.linalg.cholesky(A.T, lower=False).T)
    assert np.abs(np.tril(a) - scipy.linalg.cholesky(A, lower=True)).max() <= 1e-12 * n
    # not positive definite: an answer here, where scipy raises
    assert not _potrf(np.array(-A))
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cholesky(-A.T, lower=False)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [2, 16, 64, 256])
def test_norm_exactly_theta_is_never_certified(n, dtype):
    for seed in range(5):
        for theta in (1.0, 0.75, 3.0):
            B = _exact_spectrum(n, theta, dtype, seed)
            assert np.max(np.abs(scipy.linalg.eigvalsh(B))) == pytest.approx(theta, abs=1e-12)
            assert not certify_norm_below(B, theta)
            assert not certify_norm_below(B, np.nextafter(theta, 0.0))
            assert certify_norm_below(B, theta + 1e-8)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 3, 41, 121, 600])
def test_norm_just_below_theta_is_certified(n, dtype):
    B = _unit_norm(n, dtype, seed=n)
    norm = block_operator_norm(B)
    assert certify_norm_below(B, norm + 1e-8)
    assert not certify_norm_below(B, norm)
    assert not certify_norm_below(B, 0.5 * norm)
    for theta in (0.0, -1.0, np.nan):
        assert not certify_norm_below(B, theta)


@pytest.mark.parametrize("dtype, routine", [(float, "dpotrf"), (complex, "zpotrf")])
def test_certificate_factors_with_potrf(monkeypatch, dtype, routine):
    called = []
    real = gapforge.lapack._routine

    def recording(name):
        called.append(name)
        return real(name)

    monkeypatch.setattr(gapforge.lapack, "_routine", recording)
    B = _unit_norm(50, dtype, seed=3)
    assert certify_norm_below(B, 1.0 + 1e-8)
    assert called == [routine, routine]  # theta I - B, then theta I + B
    called.clear()
    assert not certify_norm_below(B, 0.9)
    assert called and set(called) == {routine}


@pytest.mark.parametrize("dtype", [float, complex])
def test_certificate_inputs_are_checked_and_kept(dtype):
    B = np.array(_unit_norm(121, dtype, seed=5), order="F")
    before = B.copy()
    assert certify_norm_below(B, 2.0)
    assert not certify_norm_below(B, 0.5)
    assert np.array_equal(B, before)
    for bad in (np.nan, np.inf):
        B[3, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            certify_norm_below(B, 2.0)
    with pytest.raises(ValueError, match="square"):
        certify_norm_below(np.zeros((2, 3)), 1.0)


def test_potrf_illegal_argument_raises():
    # info > 0 (a pivot that is not positive) is an answer; info < 0 is not
    a = np.asfortranarray(np.eye(2))
    with pytest.raises(np.linalg.LinAlgError, match="info = -4"):
        _call("dpotrf", b"L", _int(2), _view(a), _int(1), pivot_ok=True)


def _cs_gates(d: int) -> list:
    """Haar U(d), a block-diagonal gate (theta = 0) and a cyclic permutation
    (theta = pi / 2)."""
    rng = np.random.default_rng(d)
    block = np.eye(d, dtype=np.complex128)
    block[:-1, :-1] = _haar_unitary(d - 1, rng)
    block[-1, -1] = np.exp(0.7j)
    return [_haar_unitary(d, rng), block, np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)]


@pytest.mark.parametrize("d", [3, 4, 5])
def test_cossin_and_schur_match_scipy_bit_for_bit(d):
    for U in _cs_gates(d):
        before = U.copy()
        for p, q in [(d - 1, d - 1), (1, d - 1), (2, 1)]:
            (u1, u2), theta, (v1h, v2h) = cossin(U, p, q)
            (w1, w2), phi, (x1h, x2h) = scipy.linalg.cossin(U, p=p, q=q, separate=True)
            for mine, theirs in [(u1, w1), (u2, w2), (theta, phi), (v1h, x1h), (v2h, x2h)]:
                assert np.array_equal(mine, theirs), (d, p, q)
                assert mine.flags.f_contiguous == theirs.flags.f_contiguous
        K = cossin(U, d - 1, d - 1)[0][0]  # the U(d-1) factor that gate_factors takes apart
        for A in (U, K):
            T, Z = schur(A)
            T0, Z0 = scipy.linalg.schur(A, output="complex")
            assert np.array_equal(T, T0) and np.array_equal(Z, Z0)
            assert T.flags.f_contiguous == T0.flags.f_contiguous
            assert Z.flags.f_contiguous == Z0.flags.f_contiguous
        assert np.array_equal(U, before)
    _, block, permutation = _cs_gates(d)
    assert cossin(block, d - 1, d - 1)[1][0] == 0.0
    assert cossin(permutation, d - 1, d - 1)[1][0] == np.pi / 2


def test_cossin_and_schur_check_their_input():
    with pytest.raises(ValueError, match="square"):
        cossin(np.eye(3)[:, :2], 1, 1)
    with pytest.raises(ValueError, match="0 < p, q < m"):
        cossin(np.eye(3), 3, 1)
    with pytest.raises(ValueError, match="square"):
        schur(np.zeros((2, 3)))
    bad = np.eye(3, dtype=complex)
    bad[0, 1] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        cossin(bad, 2, 2)
    with pytest.raises(ValueError, match="infs or NaNs"):
        schur(bad)


def test_no_path_imports_scipy_linalg():
    # a d = 2 g_t0 on the pool and a d = 3 gap (cossin and schur) run without
    # scipy.linalg, and the thread pin finds every OpenBLAS it finds after it
    passes = textwrap.dedent("""
        import sys
        import gapforge.cli
        from gapforge import avgop, lapack
        from gapforge.bounds import g_t0
        from gapforge.gates import haar_random_gateset
        g_t0(haar_random_gateset(2, 2, seed=1729), t_override=4, threads=2)
        avgop.gap_at_scale(haar_random_gateset(3, 2, seed=1729), t=2)
        print("scipy.linalg" in sys.modules, len(lapack._blas_thread_setters()))
    """)
    first = "import scipy.linalg\nfrom gapforge import lapack\nprint(len(lapack._blas_thread_setters()))"
    env = {**os.environ, "PYTHONPATH": str(Path(gapforge.__file__).resolve().parents[1])}
    out = []
    for script in (passes, first):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    assert out[0] == ["False", out[1][0]]
    assert int(out[1][0]) >= 1  # numpy's OpenBLAS at least
