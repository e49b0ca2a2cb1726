#!/usr/bin/env python3
"""Empirical epsilon-net lengths vs the certified ones for a d=2 Haar pair.

Measures the gap at a probe scale, then scans word lengths until the sampled
covering fraction clears the target, and prints both certified lengths next to
the measurement: the covering-law length (slope*log(1/eps) + B, vacuous for
coarse eps because B < 0) and the scale-resolved length, which is what the
empirical length should sit under.
"""

import argparse
import sys

from gapforge.avgop import gap_at_scale
from gapforge.bounds import net_length_scale_bound, net_length_covering
from gapforge.gates import _word_count, empirical_net, haar_random_gateset


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--t", type=int, default=10, help="probe scale for the gap")
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--samples", type=int, default=400)
    ap.add_argument("--target", type=float, default=0.99)
    ap.add_argument("--max-length", type=int, default=12)
    args = ap.parse_args()

    gs = haar_random_gateset(2, 2, seed=args.seed)
    gap = gap_at_scale(gs, args.t).gap
    print(f"d=2 Haar pair, seed={args.seed}: gap_{args.t} = {gap:.6f}")

    cov_ell = net_length_covering(2, gap, args.eps)
    ell_scale, t_req = net_length_scale_bound(2, gap, args.eps)
    print(f"covering-law length at eps={args.eps}: {cov_ell:.2f}"
          + ("  (nonpositive -> vacuous)" if cov_ell <= 0 else ""))
    print(f"scale-resolved length: {ell_scale:.2f} "
          f"(needs the gap certified at t={t_req})")

    print(f"{'ell':>4} {'words':>9} {'covered':>8} {'max dist':>9}")
    hit = None
    for ell in range(1, args.max_length + 1):
        est = empirical_net(gs, length=ell, eps=args.eps,
                            samples=args.samples, seed=args.seed)
        print(f"{ell:>4} {_word_count(gs.size, ell):>9} {est.covered_fraction:>8.3f} "
              f"{est.max_observed_distance:>9.4f}")
        if hit is None and est.covered_fraction >= args.target:
            hit = ell
            break

    if hit is None:
        print(f"coverage never reached {args.target} up to length {args.max_length}")
        return 1
    print(f"empirical length for {args.target:.0%} coverage: {hit}"
          f"  (certified: {ell_scale:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
