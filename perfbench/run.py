"""gapforge benchmark: the command that runs one workload and reports its metrics.

    python3 perfbench/run.py --workload gap-d3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest         # every path, tiny inputs, seconds
    python3 perfbench/run.py --make-reference   # re-pin reference.json (slow)

Run from the root of a source checkout; the library is imported from its
`src/`.  Workloads and metrics are defined in BENCHMARK.json at the root, the
ops in workloads.py.  Each run starts its worker process(es) in a closed loop
(one op at a time), checks every op's output, prints the metrics by name with
their units, writes the full record with the environment to
.bench_out/<workload>-seed<n>-trace<0|1>.json, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import timing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 3  # setup_s is the median of this many fresh worker processes


class BenchError(Exception):
    pass


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def start_worker(mode, workload, seed, seconds, tiny, deadline) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"run budget of {RUN_BUDGET_S:g} s exhausted before the {mode} worker")
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds))]
    if tiny:
        cmd.append("--tiny")
    cmd += ["--launched-steal", repr(timing.stolen_s()), "--launched", repr(time.monotonic())]
    try:
        # run() kills the worker and waits for it when the timeout expires
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} exceeded the run budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(definition, workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result line, full record, spans)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        main = start_worker("traced", workload, seed, seconds, tiny, deadline)
        runs = [main]
        values = main["per_layer"]
        kind = "per_layer"
    else:
        runs = [start_worker("setup", workload, seed, seconds, tiny, deadline)
                for _ in range(SETUP_REPEATS - 1)]
        main = start_worker("timed", workload, seed, seconds, tiny, deadline)
        runs.append(main)
        # seconds at the reference host speed (hostspeed.py)
        op_s = [o["ref_s"] for o in main["ops"]]
        values = {
            "op_s_p50": statistics.median(op_s),
            "ops_per_s": len(op_s) / sum(op_s),
            "setup_s": statistics.median(r["setup"]["s"] * r["setup"]["factor"] for r in runs),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        kind = "end_to_end"
    declared = {m["name"]: m["unit"] for m in definition[kind]}
    if set(values) != set(declared):
        raise BenchError(f"{kind} metrics {sorted(values)} differ from BENCHMARK.json {sorted(declared)}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    record = {
        "workload": workload,
        "tiny": tiny,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": main["params"],
        "env": main["env"],
        "samples": {
            "ops": main["ops"],
            "traced_ops": main.get("traced_ops"),
            "calibration_slices": main.get("slices"),
            "setup": [r["setup"] for r in runs],
        },
        "fail_frac": failed / attempted,
        "ref_checked": sum(r["ref_checked"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "result": result,
    }
    return result, record, main.get("spans", [])


def report(result, record) -> None:
    """Human-readable lines; the result line itself is printed by the caller."""
    ops = record["samples"]["ops"]
    counts = {"op_s_p50": len(ops), "ops_per_s": len(ops), "setup_s": len(record["samples"]["setup"])}
    print(f"workload {record['workload']}{' (tiny)' if record['tiny'] else ''}"
          f"  seed {record['seed']}  seconds {record['seconds']}  trace {record['trace']}")
    for name, m in result["metrics"].items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{n}")
    print(f"  {'fail_frac':36s} {record['fail_frac']:.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} ops;"
          f" {record['ref_checked']} matched against reference.json)")
    cpu, steal = sum(o["cpu"] for o in ops), sum(o["steal"] for o in ops)
    print(f"  {'op_wall_s_p50 (steal included)':36s} {statistics.median(o['wall'] for o in ops):.6g} s"
          f"  (steal {steal / (cpu + steal) if cpu + steal else 0.0:.1%} of wanted CPU)")
    if "factor" in ops[0]:
        print(f"  {'op_s_p50 at this host speed':36s} {statistics.median(o['s'] for o in ops):.6g} s"
              f"  (host speed factor p50 {statistics.median(o['factor'] for o in ops):.6g})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(record["env"], sort_keys=True))


def write_record(record, spans) -> None:
    """The record as <stem>.json; a traced run's spans, one per line, as <stem>.spans.jsonl."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tiny = "-tiny" if record["tiny"] else ""
    stem = os.path.join(OUT_DIR, f"{record['workload']}{tiny}-seed{record['seed']}-trace{record['trace']}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if spans:
        with open(stem + ".spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s, sort_keys=True) + "\n" for s in spans)


def load_workloads():
    """workloads.py, which imports the library; load it only after the src/ check."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    return workloads


def selftest(definition) -> int:
    """Every workload path, untraced and traced, on tiny inputs."""
    seed = load_workloads().DEFAULT_SEED
    problems = []
    for w in definition["workloads"]:
        for trace in (0, 1):
            result, record, spans = measure(definition, w["name"], seed, 1, trace, tiny=True)
            write_record(record, spans)
            report(result, record)
            tag = f"{w['name']} trace {trace}"
            if result["failed"] or not result["correct"]:
                problems.append(f"{tag}: {result['failed']} failed ops: {record['failures']}")
            if record["ref_checked"] == 0:
                problems.append(f"{tag}: no op was matched against reference.json")
            for name, m in result["metrics"].items():
                if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
                    problems.append(f"{tag}: {name} = {m['value']!r}")
    for p in problems:
        print("SELFTEST FAIL " + p)
    print("selftest " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def make_reference(definition) -> int:
    """Pin the results of the default seed's warm-up op and first ops."""
    workloads = load_workloads()
    pinned = {}
    for w in definition["workloads"]:
        for tiny in (False, True):
            out = start_worker("reference", w["name"], workloads.DEFAULT_SEED, 0, tiny,
                               time.monotonic() + 3600)
            pinned[workloads.reference_key(w["name"], tiny)] = {str(workloads.DEFAULT_SEED): out}
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "gapforge", "__init__.py")):
        print(f"no gapforge source under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    definition = load_definition()
    try:
        if args.selftest:
            return selftest(definition)
        if args.make_reference:
            return make_reference(definition)
        names = [w["name"] for w in definition["workloads"]]
        if args.workload not in names or args.seed is None or args.trace is None \
                or args.seconds is None or args.seconds <= 0:
            parser.error(f"need --workload {{{','.join(names)}}}, --seed, --seconds > 0 and --trace")
        result, record, spans = measure(definition, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    write_record(record, spans)
    report(result, record)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
