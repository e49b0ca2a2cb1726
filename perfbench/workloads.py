"""Workload inputs, the op each workload runs, and the checks on its output.

Every op runs on a fresh Haar gate set sampled here from (seed, op index), so
the library receives only matrices and no per-gate state carries from one op
to the next.  The GT-basis cache is keyed by weight and does carry over, as it
would for a user screening many gate sets at one scale.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import gapforge.avgop
import gapforge.bounds
import gapforge.gates

DEFAULT_SEED = 1729  # the seed whose ops are pinned in reference.json
WARMUP_INDEX = 1_000_000  # gate-set index of the untimed warm-up op; never timed
REFERENCE_OPS = 16  # ops of the default seed pinned per workload
MAX_OPS = 256  # inputs generated per run; the timed loop stops there at the latest
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
EXACT_TOL = 1e-12  # agreement required with the stored reference values

# The full-scale g_t0 at t0 = 509 (994 s per op) is deliberately not a
# workload; gap-d3 is its proxy (large blocks, few gates per weight).
PARAMS = {
    "gap-d3": {"op": "gap", "d": 3, "k": 2, "t": 8},
    "gtzero-k4": {"op": "gtzero", "d": 2, "k": 4, "t_override": 60},
    "net-l8": {"op": "net", "d": 2, "k": 2, "length": 8, "eps": 0.5, "samples": 100},
}
# same code paths in milliseconds, for the self-test
TINY_PARAMS = {
    "gap-d3": {"op": "gap", "d": 2, "k": 2, "t": 4},
    "gtzero-k4": {"op": "gtzero", "d": 2, "k": 3, "t_override": 4},
    "net-l8": {"op": "net", "d": 2, "k": 2, "length": 2, "eps": 0.5, "samples": 100},
}


@dataclass(frozen=True)
class OpInput:
    index: int
    gates: gapforge.gates.GateSet
    net_seed: int  # seed of empirical_net's Haar targets


def op_threads(params: dict) -> int:
    """Threads an op keeps busy: empirical_net runs on the calling thread,
    gap_at_scale and g_t0 on the library's per-weight pool (os.cpu_count())."""
    return 1 if params["op"] == "net" else (os.cpu_count() or 1)


def reference_key(workload: str, tiny: bool) -> str:
    return workload + "/tiny" if tiny else workload


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar U(d) sample: QR of a complex Ginibre matrix with the phase fix."""
    Z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    diag = np.diag(R)
    return Q * (diag / np.abs(diag))


def make_input(params: dict, seed: int, index: int) -> OpInput:
    rng = np.random.default_rng([seed, index])
    d = params["d"]
    pairs = [(f"g{i + 1}", _haar_unitary(d, rng)) for i in range(params["k"])]
    gates = gapforge.gates.make_gateset(d, pairs)
    return OpInput(index=index, gates=gates, net_seed=int(rng.integers(2**32)))


def run_op(params: dict, inp: OpInput) -> dict:
    """One op through the public API; returns the values that get checked.

    Functions are looked up on their modules at call time, so the traced run
    sees them through its wrappers.
    """
    op = params["op"]
    if op == "gap":
        return {"gap": gapforge.avgop.gap_at_scale(inp.gates, params["t"]).gap}
    if op == "gtzero":
        g, _table = gapforge.bounds.g_t0(
            inp.gates, t_override=params["t_override"], check_universality=True
        )
        return {"g": g}
    net = gapforge.gates.empirical_net(
        inp.gates, params["length"], params["eps"], params["samples"], seed=inp.net_seed
    )
    return {
        "covered_fraction": net.covered_fraction,
        "max_observed_distance": net.max_observed_distance,
    }


def check(params: dict, result: dict, reference: dict | None) -> list:
    """Problems with one op's result: range invariants for any seed, and
    agreement with the stored reference where there is one."""
    problems = []
    op = params["op"]
    if op == "gap":
        if not 0.0 <= result["gap"] <= 1.0:
            problems.append(f"gap {result['gap']!r} outside [0, 1]")
    elif op == "gtzero":
        k = params["k"]
        if not 0.0 <= result["g"] <= (k - 1) / (2 * k):
            problems.append(f"g_t0 {result['g']!r} outside [0, (k-1)/(2k)]")
    else:
        if not 0.0 <= result["covered_fraction"] <= 1.0:
            problems.append(f"covered_fraction {result['covered_fraction']!r} outside [0, 1]")
        if not result["max_observed_distance"] >= 0.0:
            problems.append(f"max_observed_distance {result['max_observed_distance']!r} < 0")
    if reference is None:
        return problems
    for key, want in reference.items():
        got = result[key]
        tol = 0.0 if key == "covered_fraction" else EXACT_TOL
        if not abs(got - want) <= tol:
            problems.append(f"{key} = {got!r}, reference {want!r} (tolerance {tol:g})")
    return problems


def load_references(workload: str, tiny: bool) -> dict:
    """{(seed, index): expected result} for this workload."""
    with open(REFERENCE_FILE) as fh:
        stored = json.load(fh).get(reference_key(workload, tiny), {})
    return {
        (int(seed), int(index)): result
        for seed, per_index in stored.items()
        for index, result in per_index.items()
    }
