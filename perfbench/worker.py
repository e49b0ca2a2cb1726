"""One benchmark worker process: import, inputs, warm-up op, then timed ops.

Started by run.py, one process per workload run (plus set-up-only
repetitions); prints one JSON object as its last line of output.

Modes:
  setup      import, generate inputs, run and check the warm-up op, then
             run the host-speed calibration slices (hostspeed.py), stop
  timed      setup, then ops back to back for --seconds, untraced, with a
             calibration slice after each op
  traced     setup, then for each input one untraced and one traced op
  reference  compute the reference results of the default seed
"""

import os
import sys

# one BLAS thread, set before numpy loads; the per-weight pool keeps the
# library default (os.cpu_count())
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GAPFORGE_THREADS", None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gapforge  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402

SETUP_SLICES = 3  # calibration slices right after set-up, which scale setup_s

WARNING_KINDS = {  # per-layer metric -> message fragment of that library warning
    "warnings.lanczos_fallback.per_op": "Lanczos did not converge",
    "warnings.monotonicity.per_op": "subset minimum increased",
    "warnings.universality.per_op": "squared pair subset",
}


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    cpu = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "pool_threads": os.cpu_count() or 1,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "gapforge": gapforge.__version__,
        "git_commit": commit,
        "seed": seed,
    }


def params_of(args) -> dict:
    return (workloads.TINY_PARAMS if args.tiny else workloads.PARAMS)[args.workload]


class Worker:
    def __init__(self, args):
        self.params = params_of(args)
        self.references = workloads.load_references(args.workload, args.tiny)
        self.attempted = 0
        self.failures = []
        self.ref_checked = 0

    def op(self, inp, seed) -> dict:
        """Run and check one op; returns its timing.Stopwatch reading."""
        self.attempted += 1
        watch = timing.Stopwatch()
        try:
            result = workloads.run_op(self.params, inp)
        except Exception:  # a raising op is a failed op, not a dead run
            elapsed = watch.read()
            self.failures.append(f"op {inp.index}: " + traceback.format_exc(limit=-3))
            return elapsed
        elapsed = watch.read()
        reference = self.references.get((seed, inp.index))
        self.ref_checked += reference is not None
        problems = workloads.check(self.params, result, reference)
        if problems:
            self.failures.append(f"op {inp.index}: " + "; ".join(problems))
        return elapsed

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "ref_checked": self.ref_checked,
        }


def run(args) -> dict:
    w = Worker(args)
    inputs = [workloads.make_input(w.params, args.seed, i) for i in range(workloads.MAX_OPS)]
    warmup = workloads.make_input(w.params, workloads.DEFAULT_SEED, workloads.WARMUP_INDEX)
    setup_rec = spans.Recorder()
    if args.mode == "traced":
        with spans.installed(setup_rec):
            w.op(warmup, workloads.DEFAULT_SEED)
    else:
        w.op(warmup, workloads.DEFAULT_SEED)
    # CPU time counts from process start, like the wall time from launch
    setup = timing.Stopwatch(args.launched, 0.0, args.launched_steal).read()
    threads = workloads.op_threads(w.params)
    slices = [hostspeed.slice_s(threads) for _ in range(SETUP_SLICES)]
    setup["factor"] = hostspeed.factor(slices)
    out = {"setup": setup, "env": environment(args.seed), "params": w.params}

    if args.mode == "timed":
        ops = []
        watch = timing.Stopwatch()
        for inp in inputs:
            if ops and watch.read()["wall"] >= args.seconds:
                break
            op = w.op(inp, args.seed)
            slices.append(hostspeed.slice_s(threads))
            # the slices just before and after the op bracket its host speed
            op["factor"] = hostspeed.factor(slices[-2:])
            op["ref_s"] = op["s"] * op["factor"]
            ops.append(op)
        out["loop"] = watch.read()
        out["ops"] = ops
        out["slices"] = slices
    elif args.mode == "traced":
        out.update(traced(w, inputs, args, setup_rec))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(w.summary())
    return out


def traced(w, inputs, args, setup_rec) -> dict:
    """Each input runs untraced, then traced: the pairs give the overhead,
    the untraced halves the CPU use, the traced halves the spans."""
    rec = spans.Recorder()
    plain, traced_ops = [], []
    caught = []
    watch = timing.Stopwatch()
    for inp in inputs:
        if traced_ops and watch.read()["wall"] >= args.seconds:
            break
        plain.append(w.op(inp, args.seed))
        with spans.installed(rec), warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            traced_ops.append(w.op(inp, args.seed))
        caught += [str(m.message) for m in got]
    n = len(traced_ops)
    cpu_s = sum(o["cpu"] for o in plain)
    metrics = spans.layer_metrics(setup_rec.spans, rec.spans, n)
    metrics["proc.cpu_util"] = cpu_s / (sum(o["s"] for o in plain) * (os.cpu_count() or 1))
    metrics["proc.cpu_s_per_op"] = cpu_s / n
    metrics["warnings.per_op"] = len(caught) / n
    for name, fragment in WARNING_KINDS.items():
        metrics[name] = sum(fragment in m for m in caught) / n
    metrics["trace.overhead_frac"] = (
        statistics.median(o["s"] for o in traced_ops) / statistics.median(o["s"] for o in plain) - 1.0
    )
    written = [spans.as_json(s, "setup") for s in setup_rec.spans]
    written += [spans.as_json(s, "ops") for s in rec.spans]
    return {"per_layer": metrics, "ops": plain, "traced_ops": traced_ops, "spans": written}


def reference(args) -> dict:
    """{index: result} for the warm-up op and ops 0..n-1 of the default seed."""
    params = params_of(args)
    seed = workloads.DEFAULT_SEED
    indices = [workloads.WARMUP_INDEX] + list(range(workloads.REFERENCE_OPS))
    return {
        str(i): workloads.run_op(params, workloads.make_input(params, seed, i)) for i in indices
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=["setup", "timed", "traced", "reference"], required=True)
    parser.add_argument("--workload", choices=sorted(workloads.PARAMS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument(
        "--launched", type=float, required=True,
        help="time.monotonic() at which run.py started this process",
    )
    parser.add_argument(
        "--launched-steal", type=float, required=True,
        help="timing.stolen_s() at which run.py started this process",
    )
    args = parser.parse_args()
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(gapforge.__file__), src]) != src:
        print(f"gapforge imported from {gapforge.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = reference(args) if args.mode == "reference" else run(args)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
