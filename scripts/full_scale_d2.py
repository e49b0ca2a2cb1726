#!/usr/bin/env python3
"""Full-scale d=2 reference run: the lower bound for a Haar pair at the cheapest grid row.

eps0 = 0.25 gives t0 = 509, so the squared-set averaging operator is assembled
over all 509 nontrivial weights (block dimensions up to 1019).  The pass runs
in the eigenbasis of the first squared gate, whose image is then a diagonal
of cosines, so each weight builds one image: the second gate's, real, from
its Euler angles on a per-weight Jy eigenbasis.  The 19 blocks of dimension
below 40 get a dense real symmetric eigensolve; the other 490 are certified below the largest of those by two Cholesky
factorizations, all with the GIL released; LAPACK comes from the capsule
table of scipy.linalg.cython_lapack, loaded without importing scipy.linalg
(see gapforge.lapack).  The README gives the run's measured wall time, CPU
time and peak RSS (section CLI, on the thread pool).  Building the 509 GT bases
takes 0.01 s of that, and they hold 0.21 MB (tracemalloc, about 400 bytes
per weight: a d = 2 basis is its weight and n, and the pass makes its Jy
chain from n).  The pool pins
OpenBLAS to one thread per task, so OPENBLAS_NUM_THREADS does not change
the result.  The g_t0 line gives the run's wall and CPU time (all
threads) and the process's peak RSS (ru_maxrss); --out writes them as
elapsed_s, cpu_s and peak_rss_mb.

The bound goes through bounds.main_lower_bound, which re-derives the closed
form from the per-subset diameter estimates and checks that both agree.  Note
the trade-off along the grid: eps0 = 0.25 minimizes t0 but sits exactly at the
degeneration point of the prefactor, so the certified lower bound there is 0.
Rows with eps0 < 0.25 give positive prefactors at larger t0.  The d=3 and d=4
reference scales (t0 = 1958 and beyond) are out of reach for dense linear
algebra: block dimensions grow like t0^(d-1) with multiplicities, putting the
largest blocks in the billions of entries.
"""

import argparse
import json
import resource
import sys
import time
import warnings

from gapforge.bounds import main_lower_bound
from gapforge.gates import haar_random_gateset


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--eps0", type=float, default=0.25)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument(
        "--t-override", type=int, default=None,
        help="replace t0 by a small scale for a quick dry run",
    )
    ap.add_argument("--out", default=None, help="also write the report as JSON")
    args = ap.parse_args()

    gs = haar_random_gateset(2, 2, seed=args.seed)
    start, cpu_start = time.perf_counter(), time.process_time()
    with warnings.catch_warnings():
        # boundary eps0 rows and dry runs below t0 warn; the report says so below
        warnings.simplefilter("ignore")
        rep = main_lower_bound(
            gs, args.eps0, t_override=args.t_override, threads=args.threads
        )
    elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB

    params, table = rep.params, rep.table
    print(f"d=2 Haar pair, seed={args.seed}")
    print(f"eps0={args.eps0} -> t0={params.t0}" + (
        f" (overridden to t={table.t0})" if args.t_override is not None else ""))
    print(f"alpha={params.alpha:.6e}  beta={params.beta:.6f}")
    for m, (gap, removed) in enumerate(table.per_m):
        print(f"  subset m={m} removed={removed}: gap={gap:.12f}")
    for i, j, verdict in table.universality:
        print(f"  squared pair ({i}, {j}): {verdict}")
    print(f"g_t0 = {rep.g_t0:.12f}   ({elapsed:.1f} s wall, {cpu:.1f} s CPU, "
          f"{peak_rss_mb:.0f} MB peak RSS)")
    if params.alpha > 0.0:
        kind = "diagnostic (below t0)" if rep.below_reference_scale else "certified"
        print(f"{kind} lower bound at t={rep.t}: {rep.lower_bound:.6e}")
    else:
        print("prefactor degenerates at eps0 = 1/(d+2); the certified bound is 0 "
              "at this grid row — rerun with a smaller eps0 for a positive one")

    if args.out:
        doc = {"seed": args.seed, **rep.to_json_dict(), "elapsed_s": elapsed, "cpu_s": cpu,
               "peak_rss_mb": peak_rss_mb}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
