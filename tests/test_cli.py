import json

import numpy as np
import pytest

from qadsim.cli import SCHEMA_VERSION, main
from qadsim.verify import random_instance


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

    def test_both_epsilon_and_t_bits_exit_2(self, data_csv, query_csv, capsys):
        assert main([
            "detect", "--data", data_csv, "--query", query_csv,
            "--epsilon", "0.2", "--t-bits", "8",
        ]) == 2
        assert _one_line_error(capsys.readouterr().err)

    def test_neither_precision_flag_exit_2(self, data_csv, query_csv, capsys):
        assert main(["detect", "--data", data_csv, "--query", query_csv]) == 2
        assert _one_line_error(capsys.readouterr().err)

    def test_circuit_without_seed_exit_2(self, data_csv, query_csv, capsys):
        assert main([
            "detect", "--data", data_csv, "--query", query_csv,
            "--t-bits", "6", "--mode", "circuit",
        ]) == 2
        assert _one_line_error(capsys.readouterr().err)

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


def _one_line_error(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


class TestErrorContract:
    @pytest.mark.parametrize("flag", ["--fp-int-bits", "--fp-frac-bits"])
    def test_unusable_fixed_point_width_exit_2(self, flag, data_csv, query_csv, capsys):
        for value in ("100000000000", "-1"):
            argv = ["detect", "--data", data_csv, "--query", query_csv, "--t-bits", "2",
                    flag, value]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert _one_line_error(err) and "fixed-point" in err

    @pytest.mark.parametrize("mode", [[], ["--mode", "circuit", "--seed", "3"]])
    def test_fixed_point_overflow_exit_2(self, mode, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("50,-49\n-50,48\n49.5,50\n-48,-50\n")
        (tmp_path / "q.csv").write_text("51,-50\n")
        argv = ["detect", "--data", str(tmp_path / "d.csv"), "--query", str(tmp_path / "q.csv"),
                "--t-bits", "12", *mode]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert _one_line_error(err) and "overflows format" in err

    def test_every_qadsim_error_derives_from_the_base(self):
        import inspect

        from qadsim import adde, adkpca, ae, arith, cli, config, dataio, flawlab, simcore
        from qadsim.config import QadsimError

        mods = (adde, adkpca, ae, arith, cli, config, dataio, flawlab, simcore)
        errors = {
            obj for mod in mods for _, obj in inspect.getmembers(mod, inspect.isclass)
            if issubclass(obj, Exception) and obj.__module__.startswith("qadsim")
        }
        assert {e.__name__ for e in errors} >= {
            "ConstantViolationError", "InsufficientDataError", "SimulationError",
            "DataError", "RangeError", "FlawLabError",
        }
        assert all(issubclass(e, QadsimError) for e in errors)

    def test_kpca_constant_violation_exit_2(self, tmp_path, capsys):
        data, query = random_instance(7)
        np.savetxt(tmp_path / "d.csv", data.values, delimiter=",")
        np.savetxt(tmp_path / "q.csv", query.values[None], delimiter=",")
        argv = ["kpca", "--data", str(tmp_path / "d.csv"), "--query", str(tmp_path / "q.csv"),
                "--t-bits", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert _one_line_error(err) and "exceeds constant" in err

    def test_detect_estimated_variance_below_floor_exit_2(self, tmp_path, capsys):
        # sigma^2 of feature 0 is exactly the floor, and its estimate quantizes to 0.
        (tmp_path / "d.csv").write_text("0,1\n0.002,-1\n0,0.5\n0.002,-0.5\n")
        (tmp_path / "q.csv").write_text("0.001,0.2\n")
        argv = ["detect", "--data", str(tmp_path / "d.csv"), "--query", str(tmp_path / "q.csv"),
                "--t-bits", "10", "--policy", "error"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: estimated variance below floor for features [0]\n"

    def test_kpca_one_row_exit_2(self, tmp_path, query_csv, capsys):
        (tmp_path / "one.csv").write_text("1,2\n")
        argv = ["kpca", "--data", str(tmp_path / "one.csv"), "--query", query_csv, "--t-bits", "4"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert _one_line_error(err) and "at least 2 training points" in err


# Each case is (training CSV text, query CSV text).
FUZZ_CSVS = {
    "ragged": ("1,2\n3\n", "1,3\n"),
    "non-numeric": ("1,2\nx,4\n", "1,3\n"),
    "empty": ("", "1,3\n"),
    "non-finite": ("1,nan\n2,3\n", "1,3\n"),
    "constant-column": ("1,2\n1,4\n1,3\n", "1,3\n"),
    "one-row": ("1,2\n", "1,3\n"),
    "large-values": ("50,-49\n-50,48\n49.5,50\n", "51,-50\n"),
    "query-width": ("1,2\n3,4\n0,3\n", "1,2,3\n"),
    "query-narrow": ("1,2\n3,4\n0,3\n", "1\n"),
    "query-two-rows": ("1,2\n3,4\n0,3\n", "1,2\n3,4\n"),
    "plain": ("1,2\n3,4\n0,3\n2,1\n", "1,3\n"),
    # Entries whose squared moment sums overflow a double for the input's size.
    "overflow-1e160": ("1,2\n1e160,4\n0,3\n", "1,3\n"),
    "overflow-1e308": ("1,2\n1e308,4\n0,3\n", "1,3\n"),
    "overflow-4x3": ("1,2,1\n1e308,4,2\n0,3,1\n2,1,5\n", "1,3,2\n"),
    "overflow-query": ("1,2\n3,4\n0,3\n", "1,-1e308\n"),
    # A cell past the csv module's field size limit of 131072 characters.
    "overlong-cell": ("1,2\n3," + "4" * 131073 + "\n0,3\n", "1,3\n"),
    # Zero constants ADDE never divides by: the query at the training mean
    # (C' = C'' = 0), and every variance exactly 1 (E = 0).
    "query-at-mean": ("0,1\n2,5\n", "1,3\n"),
    "unit-variances": ("0,0\n2,2\n", "1,1.5\n"),
}
# Each overflowing input, under the command that used to end in a traceback,
# an exit 0 with an infinite variance, or NumPy warnings.
OVERFLOW_RUNS = [
    ("overflow-1e160", ["detect", "--t-bits", "8"]),
    ("overflow-1e308", ["kpca", "--t-bits", "8"]),
    ("overflow-1e308", ["fit"]),
    ("overflow-4x3", ["flaws"]),
    ("overflow-query", ["detect", "--t-bits", "8"]),
]
SMALL_T = [["--t-bits", str(t), *mode] for t in (1, 2, 3)
           for mode in ([], ["--mode", "circuit", "--seed", "3"])]
EXTREME_FLAGS = [
    ["--t-bits", "0"],
    ["--t-bits", "-3"],
    ["--t-bits", "2000"],
    ["--t-bits", "15", "--mode", "circuit", "--seed", "1"],
    ["--t-bits", "2", "--mode", "circuit", "--seed", "-5"],
    ["--epsilon", "1e-310"],
    ["--epsilon", "0.999"],
    ["--epsilon", "5"],
    ["--epsilon", "-1"],
    ["--t-bits", "2", "--fp-int-bits", "0"],
    ["--t-bits", "2", "--fp-frac-bits", "0"],
    ["--t-bits", "2", "--fp-int-bits", "-1"],
    ["--t-bits", "2", "--fp-int-bits", "100000000000"],
    ["--t-bits", "2", "--policy", "epsilon-floor"],
    ["--t-bits", "2", "--delta", "-1"],
    ["--t-bits", "2", "--delta", "1e300"],
]
# What the refusal of some of EXTREME_FLAGS says.
EXTREME_MESSAGES = {
    "--t-bits 15 --mode circuit --seed 1":
        "at most 14 phase bits: the mean stage plans t = 15; use --mode ideal",
    "--t-bits 2 --mode circuit --seed -5": "circuit mode requires a non-negative seed, got -5",
}


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the flags
        return exc.code


class TestFuzz:
    """Every input ends in exit 0, 1 or 2 without a traceback; 1 only from detect."""

    def _check(self, argv, capsys):
        code = _exit_code(argv)
        err = capsys.readouterr().err
        assert code in ({0, 1, 2} if argv[0] == "detect" else {0, 2}), (argv, code)
        assert "Traceback" not in err, argv
        if code == 2 and err.startswith("error: "):
            assert err.count("\n") == 1, (argv, err)
        return code, err

    @pytest.mark.parametrize("case", sorted(FUZZ_CSVS))
    def test_csv_inputs(self, case, tmp_path, capsys):
        data, query = (tmp_path / "d.csv", tmp_path / "q.csv")
        data.write_text(FUZZ_CSVS[case][0])
        query.write_text(FUZZ_CSVS[case][1])
        files = ["--data", str(data), "--query", str(query)]
        self._check(["fit", *files[:2]], capsys)
        self._check(["flaws", *files], capsys)
        for flags in SMALL_T:
            for command in ("detect", "kpca"):
                self._check([command, *files, *flags], capsys)

    @pytest.mark.parametrize("case", ["query-at-mean", "unit-variances"])
    @pytest.mark.parametrize("flags", [
        ["--t-bits", "8"], ["--t-bits", "8", "--mode", "circuit", "--seed", "3"], ["--epsilon", "0.3"],
    ], ids=" ".join)
    def test_detect_runs_with_a_zero_constant_it_never_divides_by(self, case, flags, tmp_path, capsys):
        data, query = (tmp_path / "d.csv", tmp_path / "q.csv")
        data.write_text(FUZZ_CSVS[case][0])
        query.write_text(FUZZ_CSVS[case][1])
        assert main(["detect", "--data", str(data), "--query", str(query), *flags]) in (0, 1)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("case,argv", OVERFLOW_RUNS, ids=lambda v: v if isinstance(v, str) else v[0])
    def test_overflowing_entries_exit_2_with_one_line(self, case, argv, tmp_path, capsys):
        data, query = (tmp_path / "d.csv", tmp_path / "q.csv")
        data.write_text(FUZZ_CSVS[case][0])
        query.write_text(FUZZ_CSVS[case][1])
        files = ["--data", str(data)] + (["--query", str(query)] if argv[0] != "fit" else [])
        assert main([argv[0], *files, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_line_error(captured.err) and "so that their squared sums stay finite" in captured.err

    @pytest.mark.parametrize("case", ["query-narrow", "query-width"])
    @pytest.mark.parametrize("command", ["flaws", "detect", "kpca"])
    def test_a_query_of_another_width_exits_2_with_one_line(self, case, command, tmp_path, capsys):
        data, query = (tmp_path / "d.csv", tmp_path / "q.csv")
        data.write_text(FUZZ_CSVS[case][0])
        query.write_text(FUZZ_CSVS[case][1])
        flags = [] if command == "flaws" else ["--t-bits", "4"]
        assert main([command, "--data", str(data), "--query", str(query), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: query/model dimension does not match the data matrix\n"

    def test_an_entry_of_1e100_still_loads(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n1e100,4\n0,3\n")
        assert main(["fit", "--data", str(data)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_verify_without_seeds(self, seeds, capsys):
        # An empty bounds suite would pass vacuously; it must be rejected.
        assert main(["verify", "--suite", "bounds", "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert _one_line_error(captured.err) and "at least 1 seed" in captured.err

    def test_verify_with_a_negative_base_seed(self, capsys):
        assert main(["verify", "--suite", "bounds", "--seeds", "1", "--base-seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_line_error(captured.err) and "non-negative base seed, got -3" in captured.err

    @pytest.mark.parametrize("flags", EXTREME_FLAGS, ids=" ".join)
    def test_extreme_flags(self, flags, data_csv, query_csv, capsys):
        for command in ("detect", "kpca"):
            if "--delta" in flags and command == "kpca":
                continue
            code, err = self._check([command, "--data", data_csv, "--query", query_csv, *flags], capsys)
            if " ".join(flags) in EXTREME_MESSAGES:
                assert code == 2 and EXTREME_MESSAGES[" ".join(flags)] in err, (command, err)
