"""Host-speed calibration: a fixed slice of work that does not use the library.

On a shared virtual machine the same op can take 1.5x longer for seconds to
minutes at a time, in CPU time, not only in steal: a busy sibling hyperthread
or memory contention slows every instruction.  No run length averages that
out, so the worker runs one calibration slice before the first op and one
after every op, and scales each op's seconds by

    factor = REFERENCE_S / mean(slice seconds just before and after the op)

i.e. it reports seconds at the host speed where a slice takes REFERENCE_S.
A change to the library moves the op times and not the slices, so it shows
in full.  The slice mixes the kinds of work the workloads do: batched 2x2
eigenvalues and einsum (gates), small Hermitian eigensolves and dense complex
products (avgop), and interpreter-bound loops over small arrays (pool
threads on small blocks).  It is spread over as many threads as the op keeps
busy: a one-thread slice tracks a one-thread op, but not an op that keeps
both vCPUs of a 2-vCPU host busy and contends for the GIL.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

import timing

REFERENCE_S = 0.12  # slice seconds at the reference host speed
_REPS = 36  # repetitions of the mix per slice, split over its threads

_rng = np.random.default_rng(20220127)
_small = _rng.standard_normal((512, 2, 2)) + 1j * _rng.standard_normal((512, 2, 2))
_mid = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))
_herm = _mid + _mid.conj().T
_dense = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))


def _work(reps: int) -> float:
    acc = 0.0
    for _ in range(reps):
        acc += float(np.abs(np.linalg.eigvals(_small)).sum())
        acc += float(np.abs(np.einsum("nab,bc->nac", _small, _small[0])).sum())
        acc += float(np.linalg.eigvalsh(_herm).sum())
        acc += float(np.abs(_dense @ _dense).sum())
        for block in _small[:256]:
            acc += abs(complex(np.trace(block @ block)))
    return acc


def slice_s(threads: int) -> float:
    """Seconds of one calibration slice spread over `threads` threads, net
    of steal like the op times (timing.py)."""
    reps = [_REPS // threads + (i < _REPS % threads) for i in range(threads)]
    watch = timing.Stopwatch()
    if threads == 1:
        _work(_REPS)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_work, reps))
    return watch.read()["s"]


def factor(slices) -> float:
    """Multiplier from measured seconds to seconds at the reference speed."""
    return REFERENCE_S * len(slices) / sum(slices)
