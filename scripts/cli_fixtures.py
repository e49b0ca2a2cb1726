#!/usr/bin/env python3
"""Run a fixed list of CLI commands on fixed gate sets, one JSON line each.

    PYTHONPATH=old/src python scripts/cli_fixtures.py > old.ndjson
    PYTHONPATH=new/src python scripts/cli_fixtures.py > new.ndjson
    python scripts/cli_fixtures.py old.ndjson new.ndjson

The first form writes the gate files (Haar sets for fixed seeds, and the
FINITE pair) into a temporary directory (under fixed relative names, so the
config echo does not depend on it), runs every command through
gapforge.cli.main with an explicit thread count and prints
{"argv", "exit", "stdout"} per command; stderr is discarded.  An exception
that escapes main is that command's result: "exit" holds its type name.  The
commands of FAILING, run last, are ones the CLI must refuse with their exit
code; some read the MALFORMED gate files, and one the NUDGED file, off the
unitary group by more than the check allows but within --repair's window.
Two trees that compute the same numbers print the same bytes.  The second
form compares two such outputs command by command: it prints each command
whose stdout differs, with the JSON keys that moved and the largest absolute
move of a numeric one, then each command that only the new output has, and
exits 1 if any command differs or is new.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

GATE_FILES = {  # name: (d, k, seed, symmetric)
    "d2k2.json": (2, 2, 1729, True),
    "d2k3.json": (2, 3, 7, True),
    "d2k1.json": (2, 1, 3, True),
    "d3k2.json": (3, 2, 1729, True),
    "d4k2.json": (4, 2, 1729, True),
    "d2k2-one-sided.json": (2, 2, 11, False),
}
FINITE = "d2-ix-iz.json"  # iX and iZ: special unitary, generating a finite group
MALFORMED = {  # name: (path of the field, value) written over a copy of d2k2.json
    "d2k2-symmetric-string.json": (("symmetric",), "false"),
    "d2k2-fractional-d.json": (("d",), 2.7),
    "d2k2-nan.json": (("gates", 0, "matrix", 0, 0, 0), float("nan")),  # Python's JSON reads NaN
    "d2k2-list-label.json": (("gates", 0, "label"), [1, 2]),
}
NUDGED = {  # name: (path of the field, shift) added to it in a copy of d2k2.json
    "d2k2-nudged.json": (("gates", 0, "matrix", 0, 0, 0), 1e-8),  # ||U*U - I|| = 1.344e-8
}
FAILING = [  # (argv, exit code) of the commands that must fail, run last
    (["net-empirical", "--gates", "d2k2.json", "--length", "2", "--eps", "nan",
      "--samples", "10"], 2),
    (["net-empirical", "--gates", "d2k2.json", "--length", "2", "--eps", "inf",
      "--samples", "10"], 2),
    (["net-length", "--d", "2", "--gap", "1e-310", "--eps", "0.5"], 2),
    (["net-length", "--d", "2", "--gap", "1e-320", "--eps", "0.5", "--variant", "covering"], 2),
    (["net-length", "--d", "2", "--gap", "0.5", "--eps", "5e-324"], 2),
    (["random-gates", "--d", "2", "--k", "2", "--seed", "-1"], 2),
    (["net-empirical", "--gates", "d2k2.json", "--length", "2", "--eps", "0.5",
      "--samples", "10", "--seed", "-1"], 2),
    (["net-empirical", "--gates", "d2k2.json", "--length", "2", "--eps", "0.5",
      "--samples", "10", "--word-cap", "-1"], 2),
    (["net-empirical", "--gates", "d2k2.json", "--length", "10000", "--eps", "0.5",
      "--samples", "10"], 3),
    *((["gap", "--gates", name, "--t", "2", "--threads", "2", "--no-progress"], 1)
      for name in MALFORMED),
    (["gap", "--gates", "d2k2-nudged.json", "--t", "4", "--threads", "2", "--no-progress"], 1),
    # a one-sided set is refused unless --auto-symmetrize closes it under inverses
    (["gap", "--gates", "d2k2-one-sided.json", "--t", "2", "--threads", "2", "--no-progress"],
     2),
]


def write_gate_files() -> None:
    """Write GATE_FILES, FINITE, MALFORMED and NUDGED into the working directory."""
    from gapforge.gates import haar_random_gateset, make_gateset, save_gateset

    for name, (d, k, seed, symmetric) in GATE_FILES.items():
        save_gateset(haar_random_gateset(d, k, seed=seed, symmetric=symmetric), name)
    save_gateset(make_gateset(2, [("iX", [[0, 1j], [1j, 0]]), ("iZ", [[1j, 0], [0, -1j]])]),
                 FINITE)
    for name, ((*path, last), value) in [*MALFORMED.items(), *NUDGED.items()]:
        with open("d2k2.json") as fh:
            doc = json.load(fh)
        field = doc
        for key in path:
            field = field[key]
        field[last] = value if name in MALFORMED else field[last] + value
        with open(name, "w") as fh:
            json.dump(doc, fh)


def commands() -> list:
    cmds = []
    # d3k2.json at t = 6 certifies 9 blocks on the pass without --per-irrep
    for gates, t in (("d2k2.json", 8), ("d2k3.json", 6), ("d2k1.json", 4),
                     ("d3k2.json", 4), ("d3k2.json", 6), ("d4k2.json", 2)):
        for extra in ([], ["--per-irrep"], ["--convolution-square"],
                      ["--per-irrep", "--convolution-square"]):
            cmds.append(["gap", "--gates", gates, "--t", str(t), "--threads", "2",
                         "--no-progress", *extra])
    cmds.append(["gap", "--gates", "d2k2.json", "--t", "8", "--threads", "1",
                 "--no-progress", "--per-irrep"])
    for extra in ([], ["--convolution-square"]):
        cmds.append(["gap", "--gates", "d2k2-one-sided.json", "--t", "6", "--threads", "2",
                     "--no-progress", "--auto-symmetrize", *extra])
    cmds.append(["gap", "--gates", "d2k2-nudged.json", "--t", "4", "--threads", "2",
                 "--no-progress", "--repair"])
    # the finite pair's blocks reach norm 1: gap 0 (floored), and gtzero's verdict
    # is not-universal, confirmed on the worst block
    for extra in ([], ["--convolution-square"]):
        cmds.append(["gap", "--gates", FINITE, "--t", "3", "--threads", "2", "--no-progress",
                     *extra])
    for gates, t in (("d2k2.json", 20), ("d2k3.json", 8), ("d3k2.json", 3), (FINITE, 3)):
        cmds.append(["gtzero", "--gates", gates, "--t-override", str(t), "--threads", "2",
                     "--no-progress"])
    for gates, eps0, t in (("d2k2.json", "0.1", 20), ("d2k3.json", "0.25", 8)):
        cmds.append(["bound", "--gates", gates, "--eps0", eps0, "--t-override", str(t),
                     "--threads", "2", "--no-progress"])
    # at t0 = 2 the checked pass runs to T_PROBE = 3; these stop at t0
    for command in (["gtzero"], ["bound", "--eps0", "0.1"]):
        cmds.append([*command, "--gates", "d2k3.json", "--t-override", "2", "--threads", "2",
                     "--no-progress", "--no-universality-check"])
    for gates, length in (("d2k2.json", 8), ("d3k2.json", 5), ("d2k2-one-sided.json", 6)):
        cmds.append(["net-empirical", "--gates", gates, "--length", str(length), "--eps", "0.5",
                     "--samples", "100", "--seed", "7"])
    cmds += [
        ["constants", "--table"],
        ["constants", "--table", "--format", "csv"],
        ["constants", "--d", "2", "--eps0", "0.1"],
        ["weights", "--d", "3", "--t", "2"],
        ["weights", "--d", "2", "--t", "10", "--nontrivial", "--count-only"],
    ]
    return cmds + [argv for argv, _ in FAILING]


def run() -> int:
    from gapforge.cli import main

    sys.stderr.write(f"gapforge from {os.path.dirname(sys.modules['gapforge'].__file__)}\n")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_gate_files()
            for argv in commands():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = main(argv)
                    except Exception as exc:  # a crash is a result to compare, too
                        code = type(exc).__name__
                line = {"argv": " ".join(argv), "exit": code, "stdout": out.getvalue()}
                print(json.dumps(line, sort_keys=True), flush=True)
        finally:
            os.chdir(home)
    return 0


def _moves(a, b, key="") -> list:
    """[(key, |a - b| or None)] for the leaves of two JSON values that differ;
    None where the difference is not between two numbers."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [m for k in sorted(a) for m in _moves(a[k], b[k], f"{key}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [m for i, (x, y) in enumerate(zip(a, b)) for m in _moves(x, y, f"{key}[{i}]")]
    if a == b:
        return []
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    return [(key, abs(a - b) if numbers else None)]


def compare(old_path: str, new_path: str) -> int:
    with open(old_path) as fh:
        old = [json.loads(line) for line in fh]
    with open(new_path) as fh:
        new = {r["argv"]: r for r in map(json.loads, fh)}
    differ = 0
    for o in old:
        n = new.get(o["argv"])
        if n == o:
            continue
        differ += 1
        report = {"argv": o["argv"]}
        if n is None:
            report["missing"] = True
        elif n["exit"] != o["exit"]:
            report["exit"] = [o["exit"], n["exit"]]
        else:
            try:
                moves = _moves(json.loads(o["stdout"]), json.loads(n["stdout"]))
            except ValueError:  # not JSON (CSV)
                moves = [("stdout", None)]
            report["moved"] = sorted({k.split("[")[0] for k, _ in moves})
            sizes = [m for _, m in moves if m is not None]
            # None when a value other than a number moved
            report["max_move"] = max(sizes) if len(sizes) == len(moves) else None
        print(json.dumps(report, sort_keys=True))
    olds = {o["argv"] for o in old}
    added = [argv for argv in new if argv not in olds]
    for argv in added:
        print(json.dumps({"added": True, "argv": argv}, sort_keys=True))
    print(json.dumps({"added": len(added), "commands": len(old),
                      "identical": len(old) - differ}))
    return 1 if differ or added else 0


if __name__ == "__main__":
    if len(sys.argv) == 3:
        sys.exit(compare(sys.argv[1], sys.argv[2]))
    if len(sys.argv) != 1:
        sys.exit(__doc__)
    sys.exit(run())
