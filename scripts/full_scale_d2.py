#!/usr/bin/env python3
"""Full-scale d=2 reference run: g_{t0} for a Haar pair at the cheapest grid row.

eps0 = 0.25 gives t0 = 509, so the squared-set averaging operator is assembled
over all 509 nontrivial weights (block dimensions up to 1019, each norm a
dense eigensolve).  With 2 pool threads on a 2-core machine g_t0 took 163 s
wall (about 325 MB peak RSS), and 161 s with OPENBLAS_NUM_THREADS=1: the pool
pins OpenBLAS to one thread per task either way.

Note the trade-off along the grid: eps0 = 0.25 minimizes t0 but sits exactly at
the degeneration point of the prefactor, so the certified lower bound there is
0.  Rows with eps0 < 0.25 give positive prefactors at larger t0.  The d=3 and
d=4 reference scales (t0 = 1958 and beyond) are out of reach for dense linear
algebra: block dimensions grow like t0^(d-1) with multiplicities, putting the
largest blocks in the billions of entries.
"""

import argparse
import json
import math
import sys
import time
import warnings

from gapforge.bounds import g_t0
from gapforge.constants import SK_EXPONENT, BoundParams
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # boundary eps0 rows warn; we report below
        params = BoundParams.compute(2, args.eps0)
    t0 = args.t_override if args.t_override is not None else params.t0
    print(f"d=2 Haar pair, seed={args.seed}")
    print(f"eps0={args.eps0} -> t0={params.t0}" + (
        f" (overridden to t={t0})" if args.t_override is not None else ""))
    print(f"alpha={params.alpha:.6e}  beta={params.beta:.6f}")

    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g, table = g_t0(
            gs,
            eps0=args.eps0,
            t_override=args.t_override,
            threads=args.threads,
            progress=lambda m, removed, gap: print(
                f"  subset m={m} removed={removed}: gap={gap:.12f}", flush=True
            ),
        )
    elapsed = time.perf_counter() - start
    print(f"g_t0 = {g:.12f}   ({elapsed:.1f}s)")

    if params.alpha > 0.0:
        bound = params.alpha * g * math.log(params.beta * t0) ** (-2 * SK_EXPONENT)
        print(f"certified lower bound at t=t0: {bound:.6e}")
    else:
        print("prefactor degenerates at eps0 = 1/(d+2); the certified bound is 0 "
              "at this grid row — rerun with a smaller eps0 for a positive one")

    if args.out:
        doc = {
            "seed": args.seed,
            "params": params.to_json_dict(),
            "t": t0,
            "g_t0": g,
            "subset_gaps": table.to_json_dict(),
            "elapsed_s": elapsed,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
