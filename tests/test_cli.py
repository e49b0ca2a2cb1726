import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gapforge.avgop
import gapforge.cli
from gapforge.avgop import gap_at_scale
from gapforge.cli import _emit, main
from gapforge.errors import DomainError
from gapforge.gates import haar_random_gateset, load_gateset, make_gateset, save_gateset
from gapforge.weightlat import enumerate_nontrivial_weights


@pytest.fixture()
def gate_file(tmp_path):
    p = tmp_path / "pair.json"
    save_gateset(haar_random_gateset(2, 2, seed=1729), p)
    return str(p)


@pytest.fixture()
def identity_file(tmp_path):
    gs = make_gateset(2, [("e", np.eye(2, dtype=complex))])
    p = tmp_path / "id.json"
    save_gateset(gs, p)
    return str(p)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstantsCmd:
    def test_single_params(self, capsys):
        code, out, _ = run_cli(capsys, ["constants", "--d", "2", "--eps0", "0.1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["t0"] == 1559
        assert doc["config"]["command"] == "constants"
        assert doc["version"]

    def test_table_csv(self, capsys):
        code, out, _ = run_cli(capsys, ["constants", "--table", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,eps0,t0,alpha,beta"
        assert len(lines) == 46

    def test_table_json(self, capsys):
        code, out, _ = run_cli(capsys, ["constants", "--table"])
        doc = json.loads(out)
        assert len(doc["table"]) == 45

    def test_missing_args(self, capsys):
        code, _, err = run_cli(capsys, ["constants"])
        assert code == 2 and "eps0" in err

    def test_csv_needs_table(self, capsys):
        code, _, err = run_cli(capsys, ["constants", "--d", "2", "--eps0", "0.1",
                                        "--format", "csv"])
        assert code == 2 and "--table" in err

    def test_out_of_domain(self, capsys):
        code, _, err = run_cli(capsys, ["constants", "--d", "2", "--eps0", "0.4"])
        assert code == 2


class TestWeightsCmd:
    def test_enumeration(self, capsys):
        code, out, _ = run_cli(capsys, ["weights", "--d", "3", "--t", "2"])
        doc = json.loads(out)
        assert doc["count"] == 5
        assert [r["weight"] for r in doc["weights"]] == [
            [2, 0, -2], [2, -1, -1], [1, 1, -2], [1, 0, -1], [0, 0, 0]
        ]
        assert doc["weights"][0]["dim"] == 27

    def test_count_only(self, capsys):
        code, out, _ = run_cli(capsys, ["weights", "--d", "2", "--t", "10",
                                        "--count-only", "--nontrivial"])
        assert json.loads(out)["count"] == 10

    def test_config_echoes_nontrivial(self, capsys):
        # the two counts differ, so their configs must too
        docs = [json.loads(run_cli(capsys, ["weights", "--d", "2", "--t", "10",
                                            "--count-only", *extra])[1])
                for extra in ([], ["--nontrivial"])]
        assert [doc["count"] for doc in docs] == [11, 10]
        assert "nontrivial" not in docs[0]["config"]
        assert docs[1]["config"]["nontrivial"] is True

    def test_bad_d(self, capsys):
        code, _, _ = run_cli(capsys, ["weights", "--d", "1", "--t", "2"])
        assert code == 2


class TestGapCmd:
    def test_gap_doc(self, capsys, gate_file):
        code, out, err = run_cli(capsys, ["gap", "--gates", gate_file, "--t", "4"])
        assert code == 0
        doc = json.loads(out)
        assert 0.0 < doc["gap"] < 1.0
        assert doc["t"] == 4
        assert "per_weight_norms" not in doc and "iterations" not in doc
        assert not {"repair", "auto_symmetrize"} & set(doc["config"])
        # NDJSON progress: one record per nontrivial weight
        records = [json.loads(l) for l in err.strip().splitlines()]
        assert len(records) == 4
        assert all(r["event"] == "block" for r in records)

    def test_byte_identical(self, capsys, gate_file):
        argv = ["gap", "--gates", gate_file, "--t", "3", "--threads", "2",
                "--per-irrep", "--no-progress"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_thread_invariance(self, capsys, gate_file):
        _, out1, _ = run_cli(capsys, ["gap", "--gates", gate_file, "--t", "5",
                                      "--threads", "1", "--per-irrep", "--no-progress"])
        _, out4, _ = run_cli(capsys, ["gap", "--gates", gate_file, "--t", "5",
                                      "--threads", "4", "--per-irrep", "--no-progress"])
        d1, d4 = json.loads(out1), json.loads(out4)
        assert d1["gap"] == d4["gap"]
        assert d1["per_weight_norms"] == d4["per_weight_norms"]
        want = gap_at_scale(load_gateset(gate_file), 5, threads=1,
                            every_norm=True).to_json_dict()
        assert {key: d1[key] for key in want} == want

    def test_certified_blocks_report_their_ceiling_apart(self, capsys, tmp_path):
        # d = 3, t = 4 certifies two representative weights, one a conjugate
        # pair: their records carry "below", never "norm"
        path = tmp_path / "d3.json"
        save_gateset(haar_random_gateset(3, 2, seed=1729), path)
        argv = ["gap", "--gates", str(path), "--t", "4", "--threads", "2"]
        _, out, err = run_cli(capsys, argv)
        records = [json.loads(line) for line in err.strip().splitlines()]
        assert len(records) == len(enumerate_nontrivial_weights(3, 4))
        below = [r for r in records if "below" in r]
        assert sorted(r["weight"] for r in below) == [[3, 1, -4], [4, -1, -3], [4, 0, -4]]
        assert all(r.keys() == {"event", "weight", "below"} for r in below)
        assert all(r["below"] < 1.0 - json.loads(out)["gap"] for r in below)
        _, out_all, err_all = run_cli(capsys, argv + ["--per-irrep"])
        exact = [json.loads(line) for line in err_all.strip().splitlines()]
        assert all(r.keys() == {"event", "weight", "norm"} for r in exact)
        doc, doc_all = json.loads(out), json.loads(out_all)
        assert len(doc_all.pop("per_weight_norms")) == len(records)
        assert doc_all == doc

    def test_identity_gap_zero(self, capsys, identity_file):
        _, out, _ = run_cli(capsys, ["gap", "--gates", identity_file, "--t", "3",
                                     "--no-progress"])
        assert json.loads(out)["gap"] == pytest.approx(0.0, abs=1e-12)

    def test_convolution_square(self, capsys, gate_file):
        _, out, _ = run_cli(capsys, ["gap", "--gates", gate_file, "--t", "2",
                                     "--convolution-square", "--no-progress"])
        doc = json.loads(out)
        assert doc["sandwich_residual"] <= 1e-8
        assert doc["convolution_square_gap"] >= doc["gap"] - 1e-10

    def test_convolution_square_of_symmetrized_set(self, capsys, tmp_path):
        p = tmp_path / "one_sided.json"
        save_gateset(haar_random_gateset(2, 2, seed=1729, symmetric=False), p)
        assert '"symmetric": false' in p.read_text()
        code, out, err = run_cli(capsys, ["gap", "--gates", str(p), "--t", "4",
                                          "--auto-symmetrize", "--convolution-square",
                                          "--no-progress"])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["config"]["auto_symmetrize"] is True
        want = 1.0 - (1.0 - doc["gap"]) ** 2
        assert doc["convolution_square_gap"] == pytest.approx(want, abs=1e-14)

    def test_one_sided_set_needs_the_flag(self, capsys, tmp_path):
        # refused, not silently closed under inverses
        p = tmp_path / "one_sided.json"
        save_gateset(haar_random_gateset(2, 2, seed=1729, symmetric=False), p)
        code, out, err = run_cli(capsys, ["gap", "--gates", str(p), "--t", "2"])
        assert (code, out) == (2, "")
        [record] = [json.loads(line) for line in err.splitlines()]
        assert (record["event"], record["category"], record["exit_code"]) == (
            "error", "DomainError", 2)
        assert "--auto-symmetrize" in record["message"]

    def test_convolution_square_builds_no_extra_images(self, capsys, gate_file,
                                                       monkeypatch):
        calls = []
        real = gapforge.avgop.irrep_matrix

        def counting(basis, U, **kw):
            calls.append(basis.weight)
            return real(basis, U, **kw)

        monkeypatch.setattr(gapforge.avgop, "irrep_matrix", counting)
        argv = ["gap", "--gates", gate_file, "--t", "5", "--no-progress"]
        counts = []
        for extra in ([], ["--convolution-square"]):
            calls.clear()
            code, _, _ = run_cli(capsys, argv + extra)
            assert code == 0
            counts.append(len(calls))
        # one image per weight (every d = 2 weight is self-conjugate): the
        # first of the two gates is diagonal in the pass's normal form
        assert counts == [len(enumerate_nontrivial_weights(2, 5))] * 2

    def test_repair_accepts_a_nudged_file_and_is_echoed(self, capsys, tmp_path, gate_file):
        # one entry moved by 1e-8 puts the gate 1.3e-8 off the unitary group:
        # past the check's 1e-10, inside --repair's window
        doc = json.loads(Path(gate_file).read_text())
        doc["gates"][0]["matrix"][0][0][0] += 1e-8
        nudged = tmp_path / "nudged.json"
        nudged.write_text(json.dumps(doc))
        argv = ["gap", "--gates", str(nudged), "--t", "4", "--no-progress"]
        code, out, err = run_cli(capsys, argv)
        record = json.loads(err.splitlines()[-1])
        assert (code, out, record["category"]) == (1, "", "GateFileError")
        assert "= 1.344e-08 > 1e-10" in record["message"]
        code, out, err = run_cli(capsys, argv + ["--repair"])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["config"]["repair"] is True
        assert doc["gap"] == pytest.approx(0.08790303537049493, abs=1e-12)
        _, out, _ = run_cli(capsys, ["gap", "--gates", gate_file, "--t", "4", "--no-progress"])
        assert doc["gap"] == pytest.approx(json.loads(out)["gap"], abs=1e-7)

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["gap", "--gates", str(tmp_path / "no.json"),
                                        "--t", "2"])
        assert code == 1

    def test_bad_scale(self, capsys, gate_file):
        code, _, _ = run_cli(capsys, ["gap", "--gates", gate_file, "--t", "0"])
        assert code == 2

    def test_env_threads(self, capsys, gate_file, monkeypatch):
        monkeypatch.setenv("GAPFORGE_THREADS", "2")
        code, out, _ = run_cli(capsys, ["gap", "--gates", gate_file, "--t", "2",
                                        "--no-progress"])
        assert code == 0
        assert json.loads(out)["config"]["threads"] == 2

    def test_bad_env_threads(self, capsys, gate_file, monkeypatch):
        monkeypatch.setenv("GAPFORGE_THREADS", "zero")
        code, _, _ = run_cli(capsys, ["gap", "--gates", gate_file, "--t", "2",
                                      "--no-progress"])
        assert code == 2

    def test_rejects_csv(self, capsys, gate_file):
        # only constants --table writes CSV; elsewhere argparse refuses it
        with pytest.raises(SystemExit) as exc:
            main(["gap", "--gates", gate_file, "--t", "6", "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestGtzeroCmd:
    def test_doc(self, capsys, gate_file):
        code, out, err = run_cli(capsys, ["gtzero", "--gates", gate_file,
                                          "--t-override", "8"])
        assert code == 0
        doc = json.loads(out)
        assert doc["g_t0"] > 0
        assert doc["subset_gaps"]["t0"] == 8
        subset_records = [json.loads(l) for l in err.strip().splitlines()
                          if '"subset"' in l]
        assert len(subset_records) == 1

    def test_subset_records_in_order(self, capsys, tmp_path):
        # all subsets share one pass; their records follow it in (m, removed) order
        p = tmp_path / "triple.json"
        save_gateset(haar_random_gateset(2, 3, seed=1729), p)
        code, out, err = run_cli(capsys, ["gtzero", "--gates", str(p),
                                          "--t-override", "4"])
        assert code == 0
        records = [json.loads(l) for l in err.strip().splitlines() if '"subset"' in l]
        assert [(r["m"], r["removed"]) for r in records] == [
            (0, []), (1, [0]), (1, [1]), (1, [2])
        ]

    def test_needs_scale(self, capsys, gate_file):
        code, _, _ = run_cli(capsys, ["gtzero", "--gates", gate_file])
        assert code == 2

    @pytest.mark.parametrize("command", [["gtzero"], ["bound", "--eps0", "0.1"]])
    def test_no_universality_check_empties_only_the_verdicts(self, capsys, tmp_path,
                                                             command):
        # at t0 = 2 the checked pass runs to T_PROBE = 3, the unchecked one to 2
        p = tmp_path / "triple.json"
        save_gateset(haar_random_gateset(2, 3, seed=7), p)
        argv = [*command, "--gates", str(p), "--t-override", "2", "--threads", "2",
                "--no-progress"]
        docs = []
        for extra in ([], ["--no-universality-check"]):
            code, out, _ = run_cli(capsys, argv + extra)
            assert code == 0
            docs.append(json.loads(out))
        checked, unchecked = docs
        table = checked["subset_gaps"]
        assert len(table["universality"]) == 3
        table["universality"] = []
        assert unchecked == checked


class TestBoundCmd:
    def test_doc(self, capsys, gate_file):
        code, out, err = run_cli(capsys, [
            "bound", "--gates", gate_file, "--eps0", "0.1",
            "--t-override", "8", "--no-progress",
        ])
        # the warning is an NDJSON record on stderr, under --no-progress too
        (record,) = [json.loads(line) for line in err.splitlines()]
        assert record["event"] == "warning" and record["category"] == "UserWarning"
        assert "below the reference scale" in record["message"]
        assert code == 0
        doc = json.loads(out)
        assert doc["lower_bound"] > 0
        assert doc["below_reference_scale"] is True
        assert doc["params"]["t0"] == 1559
        assert doc["t"] == 1559


class TestNetLengthCmd:
    def test_scale_variant(self, capsys):
        code, out, _ = run_cli(capsys, ["net-length", "--d", "2", "--gap", "0.3",
                                        "--eps", "0.5"])
        doc = json.loads(out)
        assert doc["ell"] > 0
        assert doc["required_t"] > 0

    def test_covering_vacuous(self, capsys):
        code, out, _ = run_cli(capsys, ["net-length", "--d", "2", "--gap", "0.3",
                                        "--eps", "0.5", "--variant", "covering"])
        doc = json.loads(out)
        assert doc["ell"] < 0 and doc["vacuous"] is True

    def test_covering_informative(self, capsys):
        code, out, _ = run_cli(capsys, ["net-length", "--d", "2", "--gap", "0.3",
                                        "--eps", "0.01", "--variant", "covering"])
        doc = json.loads(out)
        assert doc["ell"] > 0 and doc["vacuous"] is False

    def test_rejects_d_below_two(self, capsys):
        code, _, err = run_cli(capsys, ["net-length", "--d", "1", "--gap", "0.1",
                                        "--eps", "0.1"])
        assert code == 2
        assert "d must be an integer >= 2, got 1" in err


class TestNetEmpiricalCmd:
    def test_doc_and_determinism(self, capsys, gate_file):
        argv = ["net-empirical", "--gates", gate_file, "--length", "3",
                "--eps", "0.8", "--samples", "20", "--seed", "5"]
        code, out1, _ = run_cli(capsys, argv)
        assert code == 0
        doc = json.loads(out1)
        assert 0.0 <= doc["covered_fraction"] <= 1.0
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_word_cap_exit_code(self, capsys, gate_file):
        code, _, err = run_cli(capsys, ["net-empirical", "--gates", gate_file,
                                        "--length", "30", "--eps", "0.5",
                                        "--samples", "1", "--word-cap", "100"])
        assert code == 3


class TestRandomGatesCmd:
    def test_writes_loadable_file(self, capsys, tmp_path):
        p = tmp_path / "gs.json"
        code, out, _ = run_cli(capsys, ["random-gates", "--d", "3", "--k", "2",
                                        "--seed", "7", "--out", str(p)])
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"] == ["g1", "g2"]
        gs = load_gateset(p)
        assert gs.d == 3 and gs.k == 2

    def test_out_keeps_format_of_run_document(self, capsys, tmp_path):
        p = tmp_path / "gs.json"
        argv = ["random-gates", "--d", "2", "--k", "2", "--seed", "7", "--out", str(p)]
        _, compact, _ = run_cli(capsys, argv)
        code, pretty, _ = run_cli(capsys, [*argv, "--format", "pretty"])
        assert code == 0
        doc = json.loads(compact)
        assert compact == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert pretty == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert load_gateset(p).k == 2

    def test_stdout_is_gate_file(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, ["random-gates", "--d", "2", "--k", "1",
                                        "--seed", "3"])
        p = tmp_path / "piped.json"
        p.write_text(out)
        gs = load_gateset(p)
        assert gs.k == 1
        saved = tmp_path / "saved.json"
        save_gateset(haar_random_gateset(2, 1, seed=3), saved)
        assert out.encode() == saved.read_bytes()

    def test_seed_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, ["random-gates", "--d", "2", "--k", "2", "--seed", "9"])
        _, out2, _ = run_cli(capsys, ["random-gates", "--d", "2", "--k", "2", "--seed", "9"])
        assert out1 == out2


class TestOutFile:
    def test_out_writes_file(self, capsys, tmp_path):
        p = tmp_path / "doc.json"
        code, out, _ = run_cli(capsys, ["weights", "--d", "2", "--t", "3",
                                        "--out", str(p)])
        assert code == 0 and out == ""
        assert json.loads(p.read_text())["count"] == 4


def _cli_fixtures():
    path = Path(__file__).resolve().parents[1] / "scripts" / "cli_fixtures.py"
    spec = importlib.util.spec_from_file_location("cli_fixtures", path)
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    return fixtures


def test_fixture_commands_write_only_ndjson_to_stderr(tmp_path, monkeypatch):
    # every command of scripts/cli_fixtures.py, warnings included
    fixtures = _cli_fixtures()
    monkeypatch.chdir(tmp_path)
    fixtures.write_gate_files()
    codes = {" ".join(argv): code for argv, code in fixtures.FAILING}
    events = []
    for argv in fixtures.commands():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == codes.get(" ".join(argv), 0), argv
        for line in err.getvalue().splitlines():
            record = json.loads(line)
            assert isinstance(record, dict), (argv, line)
            events.append(record["event"])
    assert "warning" in events  # bound below the reference scale warns
    assert events.count("error") == len(codes)


def test_fixture_output_matches_the_committed_file(tmp_path, capsys):
    # pins every fixture command's stdout; tests/data/cli_fixtures.ndjson is
    # regenerated only by a change that moves CLI output on purpose
    root = Path(__file__).resolve().parents[1]
    fresh = tmp_path / "fresh.ndjson"
    with open(fresh, "w") as out:
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "cli_fixtures.py")], stdout=out,
            stderr=subprocess.PIPE, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
    assert proc.returncode == 0, proc.stderr
    committed = root / "tests" / "data" / "cli_fixtures.ndjson"
    assert _cli_fixtures().compare(committed, fresh) == 0, capsys.readouterr().out


def test_committed_fixture_gaps_are_nonnegative():
    # every printed gap is floored at 0, whatever the rounding of its norm
    keys = {"gap", "convolution_square_gap", "min_gap", "sandwich_residual"}

    def values(doc):
        if isinstance(doc, dict):
            for key, value in doc.items():
                if key in keys:
                    yield key, value
                yield from values(value)
        elif isinstance(doc, list):
            for item in doc:
                yield from values(item)

    path = Path(__file__).resolve().parents[1] / "tests" / "data" / "cli_fixtures.ndjson"
    found = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["stdout"].startswith("{"):  # not the CSV table or a refusal
            found += [(record["argv"], key, v) for key, v in values(json.loads(record["stdout"]))]
    assert {key for _, key, _ in found} == keys
    assert all(v >= 0.0 for _, _, v in found), [f for f in found if f[2] < 0.0]


def test_fixture_compare_reports_added_commands(tmp_path, capsys):
    # a command only the new output has is a difference, not silence
    lines = [{"argv": f"weights {i}", "exit": 0, "stdout": "{}"} for i in range(3)]
    for name, rows in (("old", lines[:2]), ("new", lines)):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in rows))
    fixtures = _cli_fixtures()
    assert fixtures.compare(tmp_path / "old", tmp_path / "new") == 1
    *reports, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert reports == [{"added": True, "argv": "weights 2"}]
    assert summary == {"added": 1, "commands": 2, "identical": 2}
    assert fixtures.compare(tmp_path / "old", tmp_path / "old") == 0


@pytest.mark.parametrize("argv, code, category", [
    (["constants"], 2, "DomainError"),
    (["weights", "--d", "2", "--t", "2", "--bogus"], 2, "UsageError"),
    (["gap", "--gates", "no-such-file.json", "--t", "2"], 1, "GateFileError"),
    (["net-empirical", "--gates", "g.json", "--length", "2", "--eps", "nan", "--samples", "10"],
     2, "DomainError"),
    (["gap", "--gates", "nan.json", "--t", "2"], 1, "GateFileError"),
    (["net-empirical", "--gates", "g.json", "--length", "2", "--eps", "inf", "--samples", "10"],
     2, "DomainError"),
    (["net-length", "--d", "2", "--gap", "1e-310", "--eps", "0.5"], 2, "DomainError"),
    (["net-length", "--d", "2", "--gap", "1e-320", "--eps", "0.5", "--variant", "covering"],
     2, "DomainError"),
    (["net-length", "--d", "2", "--gap", "0.5", "--eps", "5e-324"], 2, "DomainError"),
    (["gap", "--gates", "g.json", "--t", "1000001"], 3, "ResourceLimitError"),
    (["gtzero", "--gates", "g.json", "--eps0", "1e-4"], 3, "ResourceLimitError"),
    (["random-gates", "--d", "2", "--k", "2", "--seed", "-1"], 2, "DomainError"),
    (["net-empirical", "--gates", "g.json", "--length", "2", "--eps", "0.5", "--samples", "10",
      "--seed", "-1"], 2, "DomainError"),
    (["net-empirical", "--gates", "g.json", "--length", "2", "--eps", "0.5", "--samples", "10",
      "--word-cap", "-1"], 2, "DomainError"),
    (["net-empirical", "--gates", "g.json", "--length", "10000", "--eps", "0.5", "--samples",
      "10"], 3, "ResourceLimitError"),
    (["net-empirical", "--gates", "g.json", "--length", "1", "--eps", "0.5", "--samples",
      "4000000000"], 3, "MemoryError"),
])
def test_failing_commands_write_only_ndjson_to_stderr(argv, code, category, tmp_path,
                                                      monkeypatch):
    # a failing command ends its stderr with one error record, and keeps its exit code
    monkeypatch.chdir(tmp_path)
    if category == "MemoryError":
        # raised, not allocated: a host that overcommits memory may kill instead
        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(gapforge.cli, "empirical_net", out_of_memory)
    save_gateset(haar_random_gateset(2, 2, seed=1729), "g.json")
    doc = json.loads(Path("g.json").read_text())
    doc["gates"][0]["matrix"][0][0][0] = float("nan")  # Python's JSON reads NaN
    Path("nan.json").write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse exits from parse_args
            got = exc.code
    assert got == code and out.getvalue() == ""
    records = [json.loads(line) for line in err.getvalue().splitlines()]
    assert all(isinstance(r, dict) for r in records) and records
    assert records[-1]["event"] == "error"
    assert (records[-1]["category"], records[-1]["exit_code"]) == (category, code)
    assert records[-1]["message"]


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_emit_refuses_infinity_and_nan(fmt, capsys):
    # the last guard: a non-finite number that reaches the document is an
    # error, not the invalid JSON tokens Infinity or NaN
    for bad in (float("inf"), float("nan")):
        with pytest.raises(DomainError, match="not finite"):
            _emit({"x": [1.0, bad]}, argparse.Namespace(format=fmt))
    assert capsys.readouterr().out == ""


def test_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "gapforge.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "gapforge" in proc.stdout
