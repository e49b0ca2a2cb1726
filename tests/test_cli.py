import json
import subprocess
import sys

import numpy as np
import pytest

from gapforge.avgop import gap_at_scale
from gapforge.cli import main
from gapforge.gates import haar_random_gateset, load_gateset, make_gateset, save_gateset


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
        want = gap_at_scale(load_gateset(gate_file), 5, threads=1).to_json_dict()
        assert {key: d1[key] for key in want} == want

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


class TestBoundCmd:
    def test_doc(self, capsys, gate_file):
        with pytest.warns(UserWarning, match="below the reference scale"):
            code, out, _ = run_cli(capsys, [
                "bound", "--gates", gate_file, "--eps0", "0.1",
                "--t-override", "8", "--no-progress",
            ])
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


def test_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "gapforge.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "gapforge" in proc.stdout
