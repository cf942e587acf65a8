import json

import numpy as np
import pytest

from qadsim.cli import SCHEMA_VERSION, main


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    rows = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 3.0], [2.0, 1.0]])
    np.savetxt(path, rows, delimiter=",")
    return str(path)


@pytest.fixture
def query_csv(tmp_path):
    path = tmp_path / "query.csv"
    np.savetxt(path, np.array([[1.0, 3.0]]), delimiter=",")
    return str(path)


@pytest.fixture
def far_query_csv(tmp_path):
    path = tmp_path / "far.csv"
    np.savetxt(path, np.array([[30.0, -30.0]]), delimiter=",")
    return str(path)


class TestFit:
    def test_runs_and_writes_report(self, data_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", data_csv, "--out", str(out)]) == 0
        assert "mu" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["command"] == "fit"
        np.testing.assert_allclose(report["mu"], [1.5, 2.5])

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["fit", "--data", str(tmp_path / "nope.csv")]) == 2
        assert "error:" in capsys.readouterr().err


class TestDetect:
    def test_normal_point_exit_0(self, data_csv, query_csv):
        assert main([
            "detect", "--data", data_csv, "--query", query_csv,
            "--t-bits", "8", "--delta", "1e-6",
        ]) == 0

    def test_anomaly_exit_1(self, data_csv, far_query_csv):
        assert main([
            "detect", "--data", data_csv, "--query", far_query_csv,
            "--t-bits", "8", "--delta", "0.01",
        ]) == 1

    def test_both_epsilon_and_t_bits_exit_2(self, data_csv, query_csv):
        with pytest.raises(SystemExit) as exc:
            main([
                "detect", "--data", data_csv, "--query", query_csv,
                "--epsilon", "0.2", "--t-bits", "8",
            ])
        assert exc.value.code == 2

    def test_neither_precision_flag_exit_2(self, data_csv, query_csv):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--data", data_csv, "--query", query_csv])
        assert exc.value.code == 2

    def test_circuit_without_seed_exit_2(self, data_csv, query_csv):
        with pytest.raises(SystemExit) as exc:
            main([
                "detect", "--data", data_csv, "--query", query_csv,
                "--t-bits", "6", "--mode", "circuit",
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag,value", [("--delta", "nan"), ("--delta", "inf"), ("--epsilon", "nan")]
    )
    def test_non_finite_flag_exit_2(self, data_csv, query_csv, capsys, flag, value):
        precision = [] if flag == "--epsilon" else ["--t-bits", "8"]
        argv = ["detect", "--data", data_csv, "--query", query_csv, *precision, flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be a finite number, got {value}\n"

    def test_report_deterministic_modulo_timestamp(self, data_csv, query_csv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main([
                "detect", "--data", data_csv, "--query", query_csv,
                "--t-bits", "8", "--out", str(out),
            ])
            report = json.loads(out.read_text())
            report.pop("timestamp")
            outs.append(report)
        assert outs[0] == outs[1]


class TestKpca:
    def test_runs(self, data_csv, query_csv, tmp_path, capsys):
        out = tmp_path / "kpca.json"
        assert main([
            "kpca", "--data", data_csv, "--query", query_csv,
            "--t-bits", "8", "--out", str(out),
        ]) == 0
        assert "f_hat" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["command"] == "kpca"
        assert "f_hat" in report

    def test_non_finite_epsilon_exit_2(self, data_csv, query_csv, capsys):
        argv = ["kpca", "--data", data_csv, "--query", query_csv, "--epsilon", "inf"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --epsilon must be a finite number, got inf\n"


class TestFlaws:
    def test_runs(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        np.savetxt(data, np.array([[1.0, 2.0], [3.0, -1.0]]), delimiter=",")
        query = tmp_path / "q.csv"
        np.savetxt(query, np.array([[2.0, 1.0]]), delimiter=",")
        out = tmp_path / "flaws.json"
        assert main(["flaws", "--data", str(data), "--query", str(query), "--out", str(out)]) == 0
        assert "discrepancy" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["normalization_mismatch"]["discrepancy"] > 0.01


class TestVerify:
    def test_pass_exit_0(self, capsys):
        assert main(["verify", "--suite", "flaws"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_bounds_small(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "--suite", "bounds", "--seeds", "5", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["instances"] == 5

    def test_unknown_suite_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2
