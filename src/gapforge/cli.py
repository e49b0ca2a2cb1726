"""Command-line interface.

Every command prints exactly one JSON document to stdout (sorted keys, compact
separators, floats via repr), so identical inputs and seeds produce
byte-identical output.  Long computations stream NDJSON progress records to
stderr, and every Python warning goes there as one {"event": "warning"}
record, with --no-progress too.  A failing command, argument errors
included, writes one {"event": "error"} record there, with its exit code:
0 success, 1 I/O, 2 argument or domain error, 3 resource limit or memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import threading
import warnings

from . import __version__
from .avgop import _resolve_threads, checked_gap, gap_at_scale
from .bounds import g_t0, main_lower_bound, net_length_scale_bound, net_length_covering
from .constants import BoundParams, emit_tables
from .errors import DomainError, GapforgeError
from .gates import (
    WORD_CAP,
    dump_gateset,
    empirical_net,
    haar_random_gateset,
    load_gateset,
    save_gateset,
)
from .weightlat import (
    enumerate_nontrivial_weights,
    enumerate_weights,
    frobenius_schur,
    weyl_dimension,
)

__all__ = ["main"]


_STDERR_LOCK = threading.Lock()


def _progress_line(payload: dict) -> None:
    with _STDERR_LOCK:
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        sys.stderr.flush()


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    # replaces warnings.showwarning, whose two-line text would break the NDJSON stream
    _progress_line({"event": "warning", "category": category.__name__, "message": str(message)})


def _error_line(category: str, message: str, exit_code: int) -> None:
    _progress_line({"event": "error", "category": category, "message": message,
                    "exit_code": exit_code})


class _Parser(argparse.ArgumentParser):
    """argparse, with usage errors as one NDJSON error record (exit 2)."""

    def error(self, message):
        _error_line("UsageError", f"{self.prog}: {message}", 2)
        self.exit(2)


def _emit(doc, args) -> None:
    if isinstance(doc, str):
        text = doc
    else:
        pretty = getattr(args, "format", "json") == "pretty"
        style = dict(indent=2) if pretty else dict(separators=(",", ":"))
        try:  # allow_nan=False: Infinity and NaN are not JSON
            text = json.dumps(doc, sort_keys=True, allow_nan=False, **style) + "\n"
        except ValueError as exc:
            raise DomainError(f"the result is not finite: {exc}") from None
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _document(config: dict, payload: dict) -> dict:
    # config echoes the run's resolved settings; unset (None) ones are left out
    config = {k: v for k, v in config.items() if v is not None}
    return {"version": __version__, "config": config, **payload}


def cmd_constants(args) -> int:
    if args.table:
        d_values = (args.d,) if args.d else (2, 3, 4)
        if args.format == "csv":
            _emit(emit_tables(d_values=d_values, fmt="csv"), args)
            return 0
        rows = emit_tables(d_values=d_values)
        cfg = dict(command="constants", d=args.d)
        _emit(_document(cfg, {"table": rows}), args)
        return 0
    if args.d is None or args.eps0 is None:
        raise DomainError("constants needs --d and --eps0 (or --table)")
    if args.format == "csv":
        raise DomainError("--format csv needs --table")
    params = BoundParams.compute(args.d, args.eps0)
    cfg = dict(command="constants", d=args.d, eps0=args.eps0)
    _emit(_document(cfg, {"params": params.to_json_dict()}), args)
    return 0


def cmd_weights(args) -> int:
    ws = (
        enumerate_nontrivial_weights(args.d, args.t)
        if args.nontrivial
        else enumerate_weights(args.d, args.t)
    )
    cfg = dict(command="weights", d=args.d, t=args.t, nontrivial=args.nontrivial or None)
    if args.count_only:
        _emit(_document(cfg, {"count": len(ws)}), args)
        return 0
    rows = [
        {"weight": list(w.entries), "dim": weyl_dimension(w),
         "fs_indicator": frobenius_schur(w), "one_norm": w.one_norm}
        for w in ws
    ]
    _emit(_document(cfg, {"count": len(ws), "weights": rows}), args)
    return 0


def _load_gates(args) -> tuple:
    """(gate set, config keys): the file, and --repair if set (it moves the matrices)."""
    source = dict(gates=args.gates, repair=args.repair or None)
    return load_gateset(args.gates, repair=args.repair), source


def cmd_gap(args) -> int:
    gs, source = _load_gates(args)
    threads = _resolve_threads(args.threads)

    def progress(w, value, exact):
        # a certified block's ceiling goes under its own key, never as a norm
        _progress_line({"event": "block", "weight": list(w.entries),
                        "norm" if exact else "below": value})

    if not (gs.symmetric or args.auto_symmetrize):
        raise DomainError("gap needs a symmetric gate set; pass --auto-symmetrize")
    rep = gap_at_scale(
        gs.symmetrized(),
        args.t,
        threads=threads,
        progress=progress if not args.no_progress else None,
        every_norm=args.per_irrep,
    )
    payload = rep.to_json_dict()
    if not args.per_irrep:
        del payload["per_weight_norms"]
    if args.convolution_square:
        # the blocks are Hermitian, so the square's blocks B^dagger B have norm
        # ||B||^2; the worst norm is eigensolved on either pass
        worst = rep.per_weight_norms[rep.worst_weight]
        gap_sq = checked_gap(worst**2)
        payload["convolution_square_gap"] = gap_sq
        payload["sandwich_residual"] = max(0.0, rep.gap - gap_sq, 0.5 * gap_sq - rep.gap)
    cfg = dict(command="gap", t=args.t, threads=threads,
               auto_symmetrize=args.auto_symmetrize or None, **source)
    _emit(_document(cfg, payload), args)
    return 0


def cmd_gtzero(args) -> int:
    gs, source = _load_gates(args)
    threads = _resolve_threads(args.threads)

    def progress(m, combo, gap):
        _progress_line(
            {"event": "subset", "m": m, "removed": list(combo), "gap": gap}
        )

    g, table = g_t0(
        gs,
        eps0=args.eps0,
        t_override=args.t_override,
        check_universality=not args.no_universality_check,
        threads=threads,
        progress=progress if not args.no_progress else None,
    )
    cfg = dict(
        command="gtzero",
        eps0=args.eps0,
        threads=threads,
        t_override=args.t_override,
        **source,
    )
    _emit(_document(cfg, {"g_t0": g, "subset_gaps": table.to_json_dict()}), args)
    return 0


def cmd_bound(args) -> int:
    gs, source = _load_gates(args)
    threads = _resolve_threads(args.threads)
    rep = main_lower_bound(
        gs,
        args.eps0,
        t=args.t,
        t_override=args.t_override,
        check_universality=not args.no_universality_check,
        threads=threads,
    )
    cfg = dict(
        command="bound",
        eps0=args.eps0,
        t=rep.t,
        threads=threads,
        t_override=args.t_override,
        **source,
    )
    _emit(_document(cfg, rep.to_json_dict()), args)
    return 0


def cmd_net_length(args) -> int:
    cfg = dict(
        command="net-length", d=args.d, eps=args.eps, gap=args.gap, variant=args.variant
    )
    if args.variant == "covering":
        ell = net_length_covering(args.d, args.gap, args.eps)
        payload = {"ell": ell, "vacuous": ell <= 0.0}
    else:
        ell, t_req = net_length_scale_bound(args.d, args.gap, args.eps)
        payload = {"ell": ell, "required_t": t_req}
    _emit(_document(cfg, payload), args)
    return 0


def cmd_net_empirical(args) -> int:
    gs, source = _load_gates(args)
    est = empirical_net(
        gs,
        length=args.length,
        eps=args.eps,
        samples=args.samples,
        seed=args.seed,
        word_cap=args.word_cap,
    )
    cfg = dict(
        command="net-empirical",
        eps=args.eps,
        seed=args.seed,
        length=args.length,
        samples=args.samples,
        **source,
    )
    _emit(_document(cfg, dataclasses.asdict(est)), args)
    return 0


def cmd_random_gates(args) -> int:
    gs = haar_random_gateset(args.d, args.k, seed=args.seed)
    if args.out:
        # --out names the gate file here; the run document goes to stdout
        save_gateset(gs, args.out)
        cfg = dict(command="random-gates", d=args.d, k=args.k, seed=args.seed)
        _emit(_document(cfg, {"written": args.out, "labels": gs.labels()}),
              argparse.Namespace(format=args.format))
        return 0
    # no --out: print the gate file itself so the output can be piped to disk
    _emit(dump_gateset(gs), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="gapforge",
        description="Spectral gaps and calculable lower bounds for gate sets in PU(d).",
    )
    p.add_argument("--version", action="version", version=f"gapforge {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, gates=False, threads=False, formats=("json", "pretty")):
        sp.add_argument("--format", choices=formats, default="json")
        sp.add_argument("--out", help="write the document to this path instead of stdout")
        if gates:
            sp.add_argument("--gates", required=True, help="gate-set JSON file")
            sp.add_argument("--repair", action="store_true",
                            help="project nearly-unitary file input onto the unitary group")
        if threads:
            sp.add_argument("--threads", type=int, default=None,
                            help="worker threads (default: GAPFORGE_THREADS or all cores)")
            sp.add_argument("--no-progress", action="store_true",
                            help="suppress NDJSON progress records on stderr")

    sp = sub.add_parser("constants", help="bound constants and reference tables")
    sp.add_argument("--d", type=int)
    sp.add_argument("--eps0", type=float)
    sp.add_argument("--table", action="store_true", help="emit the full reference table")
    add_common(sp, formats=("json", "pretty", "csv"))
    sp.set_defaults(fn=cmd_constants)

    sp = sub.add_parser("weights", help="enumerate irrep weights at a scale")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--nontrivial", action="store_true")
    sp.add_argument("--count-only", action="store_true")
    add_common(sp)
    sp.set_defaults(fn=cmd_weights)

    sp = sub.add_parser("gap", help="spectral gap of a gate set at scale t")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--auto-symmetrize", action="store_true")
    sp.add_argument("--per-irrep", action="store_true",
                    help="include per-weight norms (eigensolves every block)")
    sp.add_argument("--convolution-square", action="store_true",
                    help="also report the convolution-square gap and sandwich residual")
    add_common(sp, gates=True, threads=True)
    sp.set_defaults(fn=cmd_gap)

    sp = sub.add_parser("gtzero", help="aggregate squared subset gap g_t0")
    sp.add_argument("--eps0", type=float)
    sp.add_argument("--t-override", type=int, default=None)
    sp.add_argument("--no-universality-check", action="store_true")
    add_common(sp, gates=True, threads=True)
    sp.set_defaults(fn=cmd_gtzero)

    sp = sub.add_parser("bound", help="calculable lower bound on the gap at scale t")
    sp.add_argument("--eps0", type=float, required=True)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--t-override", type=int, default=None)
    sp.add_argument("--no-universality-check", action="store_true")
    add_common(sp, gates=True, threads=True)
    sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("net-length", help="epsilon-net length laws from a gap")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--gap", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--variant", choices=("covering", "scale"), default="scale")
    add_common(sp)
    sp.set_defaults(fn=cmd_net_length)

    sp = sub.add_parser("net-empirical", help="empirical covering check by word enumeration")
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--word-cap", type=int, default=WORD_CAP)
    add_common(sp, gates=True)
    sp.set_defaults(fn=cmd_net_empirical)

    sp = sub.add_parser("random-gates", help="sample a Haar-random gate set")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    add_common(sp)
    sp.set_defaults(fn=cmd_random_gates)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            return args.fn(args)
        except (GapforgeError, OSError) as exc:
            code = exc.exit_code if isinstance(exc, GapforgeError) else 1
            _error_line(type(exc).__name__, str(exc), code)
            return code
        except MemoryError as exc:  # a resource limit, as ResourceLimitError
            _error_line("MemoryError", str(exc) or "out of memory", 3)
            return 3


if __name__ == "__main__":
    sys.exit(main())
