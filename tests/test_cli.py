"""End-to-end CLI behavior: output formats, exit codes, reproducibility."""
import argparse
import csv
import io
import math
import os
import stat

import numpy as np
import pytest

import madkit
from madkit.cli import _build_parser, main
from madkit.factor_tables import TABLES
from madkit.mad import factor_table
from madkit.distributions import DEFAULT_SENSITIVITY_SET, parse_spec


def run_cli(argv, capsys, stdin=None, monkeypatch=None):
    if stdin is not None:
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body_of(csv_text: str) -> str:
    return "\n".join(l for l in csv_text.splitlines() if not l.startswith("#"))


class TestMadCommand:
    def test_stdin_two_points(self, capsys, monkeypatch):
        code, out, err = run_cli(["mad", "-", "--estimator", "sm"], capsys, "0\n1\n", monkeypatch)
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert lines["n"] == "2"
        assert lines["estimator"] == "sm"
        assert float(lines["mad0"]) == 0.5
        assert float(lines["factor"]) == pytest.approx(math.sqrt(math.pi), abs=1e-9)
        assert float(lines["mad"]) == pytest.approx(0.88622692545276, abs=1e-9)

    def test_csv_output_consistent(self, capsys, monkeypatch):
        code, out, _ = run_cli(["mad", "--csv", "--estimator", "sm"], capsys, "1\n2\n4\n", monkeypatch)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "n,estimator,mad0,factor,mad"
        n, est, mad0, factor, mad = row.split(",")
        assert (n, est) == ("3", "sm")
        assert float(mad0) == 1.0
        assert float(factor) == 2.2049
        # printed product relation holds at printed precision
        assert float(mad) == pytest.approx(float(factor) * float(mad0), rel=1e-9)

    def test_constant_input(self, capsys, monkeypatch):
        code, out, _ = run_cli(["mad", "--csv"], capsys, "3 3 3", monkeypatch)
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[4]) == pytest.approx(0.0, abs=1e-12)

    def test_default_estimator_is_thd_sqrt(self, capsys, monkeypatch):
        _, out, _ = run_cli(["mad", "--csv"], capsys, "1 2 3 4 5", monkeypatch)
        assert out.splitlines()[1].split(",")[1] == "thd-sqrt"

    def test_file_input_with_commas(self, capsys, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1, 2\n4,8\n")
        code, out, _ = run_cli(["mad", str(path), "--csv", "--estimator", "sm"], capsys)
        assert code == 0
        assert out.splitlines()[1].split(",")[0] == "4"

    def test_parse_failure_names_line(self, capsys, monkeypatch):
        code, _, err = run_cli(["mad", "-"], capsys, "1\nbogus\n3\n", monkeypatch)
        assert code == 2
        assert "line 2" in err and "bogus" in err

    def test_rejects_non_finite(self, capsys, monkeypatch):
        code, _, err = run_cli(["mad", "-"], capsys, "1\ninf\n", monkeypatch)
        assert code == 2
        assert "line 2" in err

    def test_too_few_values(self, capsys, monkeypatch):
        # The library's check, the only one on the sample size.
        for n, text in enumerate(["\n", "42\n"]):
            result = run_cli(["mad", "-"], capsys, text, monkeypatch)
            assert result == (2, "", f"madkit: MAD requires at least two observations, got {n}\n")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["mad", "/definitely/not/here.txt"], capsys)
        assert code == 2

    def test_huge_pair_is_finite(self, capsys, monkeypatch):
        # The sm midpoint of these two finite values once overflowed.
        for est in ("sm", "hd", "thd-sqrt"):
            argv = ["mad", "-", "--estimator", est, "--csv"]
            code, out, _ = run_cli(argv, capsys, "1e308 1.5e308\n", monkeypatch)
            assert code == 0
            assert out.splitlines()[1].split(",")[2] == "2.5e+307"

    @pytest.mark.parametrize("est", ["sm", "hd", "thd-sqrt"])
    def test_overflowing_deviations_exit_2(self, est, capsys, monkeypatch):
        text = "-1e308 1e308 1.5e308 1.7e308\n"
        code, out, err = run_cli(["mad", "-", "--estimator", est], capsys, text, monkeypatch)
        assert (code, out) == (2, "")
        assert "deviations from the median overflow float64" in err

    @pytest.mark.parametrize("est", ["sm", "hd", "thd-sqrt"])
    def test_overflowing_corrected_mad_exit_2(self, est, capsys, monkeypatch):
        argv = ["mad", "-", "--estimator", est, "--csv"]
        code, out, err = run_cli(argv, capsys, "-1.7e308 1.7e308\n", monkeypatch)
        assert (code, out) == (2, "")
        assert "corrected MAD overflows float64" in err

    @pytest.mark.parametrize(
        "n,model,source",
        [(2, "default", "exact"), (100, "default", "table"), (101, "default", "fitted"),
         (101, "park", "model")],
    )
    def test_factor_source_printed(self, n, model, source, capsys, monkeypatch):
        text = " ".join(str(float(i)) for i in range(n))
        code, out, _ = run_cli(["mad", "-", "--model", model], capsys, text, monkeypatch)
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert lines["factor_source"] == source
        argv = ["mad", "-", "--model", model, "--csv"]
        code, out, _ = run_cli(argv, capsys, text, monkeypatch)
        assert out.splitlines()[0] == "n,estimator,mad0,factor,mad"

    def test_non_utf8_file_names_path_and_byte(self, capsys, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes(b"1\n2\n\xff3\n")
        code, out, err = run_cli(["mad", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"madkit: {path}: byte 4: 0xff is not valid UTF-8\n"

    def test_non_utf8_stdin_names_byte(self, capsys, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"1 2 3\n4 \xc3(\n")))
        code, out, err = run_cli(["mad", "-"], capsys)
        assert (code, out) == (2, "")
        assert err == "madkit: <stdin>: byte 8: 0xc3 is not valid UTF-8\n"

    def test_utf8_stdin_bytes_parse(self, capsys, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"0\r\n1\r\n")))
        code, out, _ = run_cli(["mad", "-", "--csv", "--estimator", "sm"], capsys)
        assert code == 0 and out.splitlines()[1].startswith("2,sm,0.5,")

    def test_bom_file_parses(self, capsys, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf1\n2\n3\n")
        code, out, _ = run_cli(["mad", str(path), "--csv", "--estimator", "sm"], capsys)
        assert code == 0 and out.splitlines()[1].startswith("3,sm,1,")

    def test_bom_stdin_parses(self, capsys, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xef\xbb\xbf1\n2\n3\n")))
        code, out, _ = run_cli(["mad", "-", "--csv", "--estimator", "sm"], capsys)
        assert code == 0 and out.splitlines()[1].startswith("3,sm,1,")

    def test_only_one_bom_dropped(self, capsys, monkeypatch):
        code, _, err = run_cli(["mad", "-"], capsys, "\ufeff\ufeff1\n2\n", monkeypatch)
        assert code == 2
        assert err == "madkit: line 1: could not parse '\\ufeff1' as a number\n"

    def test_bom_counts_in_byte_offset(self, capsys, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf1\n\xff")
        code, out, err = run_cli(["mad", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"madkit: {path}: byte 5: 0xff is not valid UTF-8\n"

    @pytest.mark.parametrize("model,row", [
        ("default", "150,thd-sqrt,6.355901967,1.489835276,9.469246961"),
        ("asymptotic", "150,thd-sqrt,6.355901967,1.482602219,9.423274356"),
        ("croux-rousseeuw", "150,thd-sqrt,6.355901967,1.490551828,9.473801297"),
        ("williams", "150,thd-sqrt,6.355901967,1.490561819,9.473864794"),
        ("hayes", "150,thd-sqrt,6.355901967,1.490239064,9.471813401"),
        ("park", "150,thd-sqrt,6.355901967,1.490231118,9.471762891"),
    ])
    def test_every_model_pinned(self, model, row, capsys, tmp_path):
        path = tmp_path / "n150.txt"
        path.write_text("\n".join(str((i * 37) % 101 / 4) for i in range(150)) + "\n")
        code, out, err = run_cli(["mad", str(path), "--csv", "--model", model], capsys)
        assert (code, out, err) == (0, f"n,estimator,mad0,factor,mad\n{row}\n", "")

    def test_whole_output_in_both_forms(self, capsys, tmp_path):
        # Both forms print the same row; pinned byte for byte.
        path = tmp_path / "n150.txt"
        path.write_text("\n".join(str((i * 37) % 101 / 4) for i in range(150)) + "\n")
        assert run_cli(["mad", str(path), "--estimator", "hd"], capsys) == (0, (
            "n          150\n"
            "estimator  hd\n"
            "mad0       6.346089004\n"
            "factor     1.487979777\n"
            "mad        9.442852104\n"
            "factor_source fitted\n"
        ), "")
        assert run_cli(["mad", str(path), "--estimator", "hd", "--csv"], capsys) == (0, (
            "n,estimator,mad0,factor,mad\n"
            "150,hd,6.346089004,1.487979777,9.442852104\n"
        ), "")

    def test_hayes_below_its_range_exits_2(self, capsys, monkeypatch):
        result = run_cli(["mad", "-", "--csv", "--model", "hayes"], capsys, "0 1 2 3 4", monkeypatch)
        assert result == (2, "", "madkit: the Hayes scheme requires n >= 9, got 5\n")

    def test_legacy_model_flag(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["mad", "--csv", "--estimator", "sm", "--model", "park"], capsys, "0 1", monkeypatch
        )
        assert code == 0
        assert float(out.splitlines()[1].split(",")[3]) == 1.7722


GOOD_INPUTS = {
    "mixed separators": "1, 2\t3\n\n4,5 ,6\r\n\t7\n,8,\n",
    "exponents": "1e3 -2.5E-4\n6.02e23, 1e-300\n",
    "underscores": "1_000 2_500.5\n3\n",
    "leading plus": "+1 +2.5\n-3 +4e1\n",
}
BAD_INPUTS = {
    "unparsable": "1 2\n3,4\n5 bogus 6\n",
    "nan": "1\n2 nan\n",
    "inf": "1,2\n\n3 inf\n",
    "-inf": "1\n-inf 4\n",
}


class TestReadNumbers:
    """The one-pass parse against the line-by-line loop it falls back to."""

    @pytest.mark.parametrize("name", sorted(GOOD_INPUTS))
    def test_fast_path_same_doubles(self, name, tmp_path, monkeypatch):
        import numpy as np

        from madkit import cli

        text = GOOD_INPUTS[name]
        expected = cli._parse_lines(text)
        path = tmp_path / "data.txt"
        path.write_text(text)

        def no_fallback(text):
            raise AssertionError("valid input must not need the line-by-line parse")

        monkeypatch.setattr(cli, "_parse_lines", no_fallback)
        got = cli._read_numbers(str(path))
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), np.asarray(expected).view(np.uint64))

    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_errors_name_the_line(self, name, source, capsys, monkeypatch, tmp_path):
        from madkit import cli
        from madkit.errors import MadkitError

        text = BAD_INPUTS[name]
        with pytest.raises(MadkitError) as reference:
            cli._parse_lines(text)
        if source == "file":
            path = tmp_path / "data.txt"
            path.write_text(text)
            code, out, err = run_cli(["mad", str(path)], capsys)
        else:
            code, out, err = run_cli(["mad", "-"], capsys, text, monkeypatch)
        assert code == 2 and out == ""
        assert err == f"madkit: {reference.value}\n"

    def test_error_text_pinned(self, capsys, monkeypatch):
        _, _, err = run_cli(["mad", "-"], capsys, BAD_INPUTS["unparsable"], monkeypatch)
        assert err == "madkit: line 3: could not parse 'bogus' as a number\n"
        _, _, err = run_cli(["mad", "-"], capsys, BAD_INPUTS["-inf"], monkeypatch)
        assert err == "madkit: line 2: non-finite value '-inf' rejected\n"


class TestFactorsCommand:
    def test_single_row_value(self, capsys):
        code, out, _ = run_cli(
            ["factors", "--n", "2", "--reps", "100000", "--seed", "42",
             "--estimators", "sm"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == (
            f"# seed=42 reps=100000 version={madkit.__version__} "
            f"chunk_size=16384 streams=3 n=2 estimators=sm numpy={np.__version__}"
        )
        header, row = body_of(out).strip().splitlines()
        assert header == "n,estimator,m_n,c_n,std_error,repetitions"
        c_n = float(row.split(",")[3])
        assert c_n == pytest.approx(1.7725, abs=0.02)

    def test_byte_identical_across_threads(self, capsys):
        args = ["factors", "--n", "3,5", "--reps", "5000", "--seed", "7",
                "--chunk-size", "512"]
        _, out1, _ = run_cli(args + ["--threads", "1"], capsys)
        _, out2, _ = run_cli(args + ["--threads", "4"], capsys)
        assert body_of(out1) == body_of(out2)

    @pytest.mark.parametrize("estimator", ["sm", "hd", "thd-sqrt"])
    def test_one_estimator_gives_its_rows_of_the_full_run(self, estimator, capsys):
        # The check CI runs on the installed console script.
        args = ["factors", "--n", "3,5", "--reps", "20000", "--seed", "3"]
        _, full, _ = run_cli(args, capsys)
        _, alone, _ = run_cli(args + ["--estimators", estimator], capsys)
        rows = [line for line in body_of(full).splitlines() if f",{estimator}," in line]
        assert len(rows) == 2
        assert body_of(alone).splitlines()[1:] == rows

    def test_long_thd_widths_keep_distinct_labels(self, capsys):
        code, out, _ = run_cli(["factors", "--n", "5", "--reps", "2000",
                                "--estimators", "thd(0.1234567),thd(0.1234568)"], capsys)
        assert code == 0
        assert " estimators=thd(0.1234567),thd(0.1234568) " in out.splitlines()[0]
        labels = [line.split(",")[1] for line in body_of(out).splitlines()[1:]]
        assert labels == ["thd(0.1234567)", "thd(0.1234568)"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "factors.csv"
        code, out, _ = run_cli(
            ["factors", "--n", "2", "--reps", "1000", "--seed", "1", "--out", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        assert target.read_text().count("\n") == 2 + 3  # comment + header + 3 rows

    def test_failed_out_write_keeps_old_file(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "factors.csv"
        target.write_text("old content\n")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr("os.replace", fail)
        code, out, err = run_cli(
            ["factors", "--n", "2", "--reps", "1000", "--seed", "1", "--out", str(target)],
            capsys,
        )
        assert code == 2 and out == ""
        assert "replace failed" in err
        assert target.read_text() == "old content\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["factors.csv"]

    def test_out_symlink_written_through(self, capsys, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("old content\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        code, _, _ = run_cli(["tables", "--out", str(link)], capsys)
        assert code == 0
        assert link.is_symlink()
        assert real.read_text().startswith("# version=")

    def test_out_device_written_in_place(self, capsys, monkeypatch):
        # Renaming over a device would replace the device node itself.
        def fail(src, dst):
            raise OSError("replace called")

        monkeypatch.setattr("os.replace", fail)
        code, _, err = run_cli(["tables", "--out", os.devnull], capsys)
        assert code == 0, err

    def test_out_file_mode_follows_umask(self, capsys, tmp_path):
        target = tmp_path / "factors.csv"
        umask = os.umask(0o022)
        try:
            code, _, _ = run_cli(
                ["factors", "--n", "2", "--reps", "1000", "--seed", "1", "--out", str(target)],
                capsys,
            )
        finally:
            os.umask(umask)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    def test_reps_too_small(self, capsys):
        code, _, err = run_cli(["factors", "--n", "2", "--reps", "10"], capsys)
        assert code == 2
        assert "repetitions" in err


class TestProvenance:
    @pytest.mark.parametrize("command", ["factors", "efficiency", "sensitivity"])
    def test_line_records_full_config(self, command, capsys):
        args = [command, "--n", "3,5", "--reps", "200", "--seed", "9", "--chunk-size", "64"]
        dists = ""
        if command == "sensitivity":
            args += ["--dist", "uniform(a=0,b=1),pareto(loc=1,shape=0.5)"]
            dists = " dists=uniform(a=0,b=1),pareto(loc=1,shape=0.5)"
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out.splitlines()[0] == (
            f"# seed=9 reps=200 version={madkit.__version__} "
            f"chunk_size=64 streams=3 n=3,5 estimators=sm,hd,thd-sqrt{dists} "
            f"numpy={np.__version__}"
        )

    def test_default_dists_recorded(self, capsys):
        code, out, _ = run_cli(
            ["sensitivity", "--n", "3", "--reps", "100", "--estimators", "sm"], capsys
        )
        assert code == 0
        recorded = out.splitlines()[0].split(" dists=")[1].split(" numpy=")[0]
        assert recorded == ",".join(map(str, DEFAULT_SENSITIVITY_SET))


class TestEfficiencyCommand:
    def test_n2_row(self, capsys):
        code, out, _ = run_cli(
            ["efficiency", "--n", "2", "--reps", "2000", "--seed", "3"], capsys
        )
        assert code == 0
        row = body_of(out).strip().splitlines()[1].split(",")
        assert float(row[4]) == 1.0 and float(row[5]) == 1.0

    def test_estimators_flag_refused(self, capsys):
        # efficiency always compares sm, hd and thd-sqrt; the flag was
        # once accepted and ignored.
        with pytest.raises(SystemExit) as excinfo:
            main(["efficiency", "--n", "2", "--reps", "200", "--estimators", "sm"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --estimators sm" in capsys.readouterr().err


class TestSensitivityCommand:
    def test_dist_parsing_with_nested_commas(self, capsys):
        code, out, _ = run_cli(
            ["sensitivity", "--n", "5", "--reps", "200", "--seed", "1",
             "--dist", "pareto(loc=1,shape=0.5),uniform(a=0,b=1)"],
            capsys,
        )
        assert code == 0
        body = body_of(out).strip().splitlines()
        assert any(line.startswith('"pareto(loc=1,shape=0.5)",5,') for line in body[1:])
        assert any(line.startswith('"uniform(a=0,b=1)",5,') for line in body[1:])

    def test_every_default_row_reads_back_as_five_fields(self, capsys):
        # A label with a comma is quoted, so csv.reader gives each row the
        # header's five fields and the label as printed.
        code, out, _ = run_cli(
            ["sensitivity", "--n", "3", "--reps", "100", "--seed", "1", "--estimators", "sm"],
            capsys,
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(body_of(out)))
        assert header == ["distribution", "n", "estimator", "aggregator", "dispersion"]
        assert len(rows) == 3 * len(DEFAULT_SENSITIVITY_SET)
        assert all(len(row) == 5 for row in rows)
        assert [parse_spec(row[0]) for row in rows[::3]] == list(DEFAULT_SENSITIVITY_SET)

    def test_beta_with_tiny_shapes_runs(self, capsys):
        # Its draws stay in [0, 1]: no NaN reaches the corrected MADs.
        code, out, _ = run_cli(
            ["sensitivity", "--n", "5", "--reps", "200", "--seed", "1",
             "--dist", "beta(a=0.001,b=0.001)", "--estimators", "sm"],
            capsys,
        )
        assert code == 0
        assert len(body_of(out).strip().splitlines()) == 4

    def test_bad_dist_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sensitivity", "--n", "5", "--reps", "200", "--dist", "wat(x=1)"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("spec", ["normal(m=nan,sd=1)", "uniform(a=0,b=inf)",
                                      "constant(value=inf)"])
    def test_non_finite_parameter_exits_2_before_drawing(self, spec, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sensitivity", "--n", "5", "--reps", "200", "--seed", "1", "--dist", spec])
        assert excinfo.value.code == 2
        assert "the corrected MADs" not in capsys.readouterr().err

    def test_negative_zero_spec_gives_the_rows_of_zero(self, capsys):
        argv = ["sensitivity", "--n", "5", "--reps", "200", "--seed", "1", "--estimators", "sm"]
        outputs = [run_cli(argv + ["--dist", spec], capsys)
                   for spec in ("normal(m=-0,sd=1)", "normal(m=0,sd=1)")]
        assert outputs[0] == outputs[1]
        assert '"normal(m=0,sd=1)",5,sm,sd,0.5889473384\n' in outputs[0][1]

    # Valid specs whose draws, deviations or spread overflow float64: a
    # domain error naming the spec and n, with no NumPy warning (a warning
    # is an error here, on the pool threads too).
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("spec,message", [
        ("pareto(loc=1,shape=0.01)", "the corrected MADs are not finite"),
        ("uniform(a=-1.7e308,b=1.7e308)", "the corrected MADs are not finite"),
        ("uniform(a=0,b=1.7e308)", "the sd of the sm estimates overflows float64"),
    ])
    def test_overflowing_spec_exits_2(self, spec, message, threads, capsys):
        argv = ["sensitivity", "--n", "5", "--reps", "200", "--seed", "1", "--dist", spec,
                "--threads", threads]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"madkit: {parse_spec(spec)} at n=5: {message}")
        assert err.count("\n") == 1


class TestFitCommand:
    def test_default_sm_fit(self, capsys):
        code, out, _ = run_cli(["fit", "--estimator", "sm"], capsys)
        assert code == 0
        row = body_of(out).strip().splitlines()[1].split(",")
        assert row[0] == "sm"
        assert float(row[1]) == pytest.approx(-0.7668, abs=0.02)
        assert (float(row[4]), float(row[5])) == (100.0, 500.0)

    def test_custom_range(self, capsys):
        code, out, _ = run_cli(["fit", "--estimator", "hd", "--range", "100..300"], capsys)
        assert code == 0
        assert body_of(out).strip().splitlines()[1].split(",")[0] == "hd"

    def test_bad_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--range", "abc"])
        assert excinfo.value.code == 2


class TestTablesCommand:
    def test_dump_matches_embedded(self, capsys):
        code, out, _ = run_cli(["tables", "--estimator", "hd"], capsys)
        assert code == 0
        lines = body_of(out).strip().splitlines()
        assert lines[0] == "n,c_n"
        parsed = {int(n): float(c) for n, c in (line.split(",") for line in lines[1:])}
        assert parsed == factor_table("hd")

    @pytest.mark.parametrize("name", list(TABLES))
    def test_every_table_printed(self, name, capsys):
        code, out, err = run_cli(["tables", "--estimator", name], capsys)
        rows = "".join(f"{n},{c:.4f}\n" for n, c in sorted(factor_table(name).items()))
        assert (code, err) == (0, "")
        assert out == f"# version={madkit.__version__}\nn,c_n\n" + rows

    @pytest.mark.parametrize("command", ["tables", "fit"])
    def test_estimator_choices_are_the_tables(self, command):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        estimator = next(a for a in sub.choices[command]._actions if a.dest == "estimator")
        assert estimator.choices == tuple(TABLES) == ("sm", "hd", "thd-sqrt", "park")


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv, repeat", [
        (["factors", "--estimators", "hd,hd"], "estimator hd"),
        (["factors", "--estimators", "sm,thd,thd-sqrt"], "estimator thd-sqrt"),
        (["sensitivity", "--dist", "normal,normal(m=0,sd=1)"], "distribution normal(m=0,sd=1)"),
    ])
    def test_repeats_exit_2(self, argv, repeat, capsys):
        code, out, err = run_cli(argv + ["--n", "3", "--reps", "200", "--seed", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == f"madkit: {repeat} is listed more than once\n"

    @pytest.mark.parametrize("command", ["factors", "efficiency", "sensitivity"])
    def test_repeated_sample_size_exits_2(self, command, capsys):
        # A repeated n would compute the same rows twice.
        argv = [command, "--n", "3,5,3", "--reps", "200", "--seed", "1"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "madkit: sample size 3 is listed more than once\n"

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "36893488147419103231"])
    def test_seed_outside_64_bits_exits_2(self, seed, capsys):
        # Philox takes 64-bit key words: each would run as its value modulo 2**64.
        code, out, err = run_cli(["factors", "--n", "5", "--reps", "200", "--seed", seed], capsys)
        assert (code, out) == (2, "")
        assert err == f"madkit: master_seed must lie in [0, 2**64), got {seed}\n"

    def test_repeated_dist_parameter_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sensitivity", "--n", "5", "--reps", "200", "--dist", "normal(m=1,m=2)"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --dist: normal: parameter 'm' is given more than once "
            "in 'normal(m=1,m=2)'\n")

    def test_bad_n_list(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["factors", "--n", "2;3"])
        assert excinfo.value.code == 2

    # A flag whose value madkit rejects prints madkit's own message, which
    # names the parameter or rule, as the usage error.
    @pytest.mark.parametrize("argv, message", [
        (["sensitivity", "--n", "5", "--dist", "uniform(a=1,b=0)"],
         "argument --dist: uniform: need a < b"),
        (["factors", "--n", "5", "--estimators", "sm,foo"],
         "argument --estimators: unknown estimator 'foo' (expected sm, hd, thd-sqrt, or thd(w))"),
        (["mad", "-", "--estimator", "thd(2)"],
         "argument --estimator: thd width must lie in (0, 1], got 2.0"),
    ])
    def test_flag_value_error_names_the_rule(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(f"madkit {argv[0]}: error: {message}\n")

    # The built-in factors have no table for a custom thd width, so a
    # command that needs them at n >= 3 refuses it; factors, and mad with
    # a width-free --model, take it.
    @pytest.mark.parametrize("argv, stdin", [
        (["sensitivity", "--n", "5", "--estimators", "thd(0.25)", "--dist", "normal"], None),
        (["mad", "-", "--estimator", "thd(0.25)"], "3.1 2.9 3.4 7.0 3.0 4.2\n"),
    ])
    def test_custom_thd_width_needs_factors(self, argv, stdin, capsys, monkeypatch):
        assert run_cli(argv, capsys, stdin, monkeypatch) == (
            2, "", "madkit: built-in factors cover the 1/sqrt(n)-width thd estimator only; "
                   "calibrate this width with madkit factors --estimators 'thd(W)', or use a "
                   "width-free madkit mad --model such as asymptotic; in Python, pass a factor "
                   "model function (n, kind) -> C_n\n")

    def test_custom_thd_width_with_width_free_model(self, capsys, monkeypatch):
        argv = ["mad", "-", "--estimator", "thd(0.25)", "--model", "asymptotic", "--csv"]
        code, out, _ = run_cli(argv, capsys, "3.1 2.9 3.4 7.0 3.0 4.2\n", monkeypatch)
        assert code == 0
        assert out.splitlines()[1] == "6,thd(0.25),0.3,1.482602219,0.4447806656"


class TestParserReuse:
    """One parser serves every ``main()`` call of a process."""

    def test_built_once(self, capsys, monkeypatch):
        from madkit import cli

        cli._build_parser.cache_clear()
        for est in ("sm", "hd", "sm"):
            assert run_cli(["mad", "--estimator", est], capsys, "1 2 4", monkeypatch)[0] == 0
        assert run_cli(["tables", "--estimator", "hd"], capsys)[0] == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    @pytest.mark.parametrize("bad", [["mad", "--estimator"], ["mad", "--model", "nope"],
                                     ["factors", "--n", "2;3"], ["frobnicate"]])
    def test_usage_error_then_valid_call(self, bad, capsys, monkeypatch):
        argv = ["mad", "-", "--estimator", "sm", "--csv"]
        expected = run_cli(argv, capsys, "1 2 4 8", monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            main(bad)
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert run_cli(argv, capsys, "1 2 4 8", monkeypatch) == expected
        assert expected[1] == "n,estimator,mad0,factor,mad\n4,sm,1.5,2.0172,3.0258\n"

    def test_default_dists_seen_by_every_parse(self, capsys, monkeypatch):
        from madkit import cli

        seen = []
        study = cli.sensitivity

        def record(config, threads=1):
            seen.append(config.distributions)
            return study(config, threads)

        monkeypatch.setattr(cli, "sensitivity", record)
        argv = ["sensitivity", "--n", "3", "--reps", "100", "--seed", "1"]
        outputs = [run_cli(argv, capsys)[1] for _ in range(2)]
        assert seen == [DEFAULT_SENSITIVITY_SET] * 2
        assert len(seen[0]) == 20
        assert outputs[0] == outputs[1]


class TestThreadsAndInternalChecks:
    @pytest.mark.parametrize("command", ["factors", "efficiency", "sensitivity"])
    @pytest.mark.parametrize("value", ["0", "-4", "abc"])
    def test_threads_flag_must_be_positive(self, capsys, command, value):
        argv = [command, "--n", "2", "--reps", "2000", "--threads", value]
        if value == "abc":
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "argument --threads: invalid int value: 'abc'" in capsys.readouterr().err
        else:
            # Refused by the study, as a bad --reps or --chunk-size is.
            expected = f"madkit: threads must be a positive integer, got {value}\n"
            assert run_cli(argv, capsys) == (2, "", expected)

    def test_threads_env_is_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("MADKIT_THREADS", "abc")
        code, out, err = run_cli(["factors", "--n", "2", "--reps", "2000"], capsys)
        assert (code, err) == (0, "")
        assert out.count("\n") == 5  # provenance, header, one row per estimator

    def test_internal_check_failure_exits_3(self, capsys, monkeypatch):
        from madkit import cli
        from madkit.errors import InternalCheckError

        def explode(config, threads=1):
            raise InternalCheckError("synthetic failure")

        monkeypatch.setattr(cli, "estimate_factors", explode)
        code, _, err = run_cli(["factors", "--n", "2", "--reps", "2000"], capsys)
        assert code == 3
        assert "internal check failed" in err
