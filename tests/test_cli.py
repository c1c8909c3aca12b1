import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from mmdvar import montecarlo
from mmdvar.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_STAT_FAIL,
    InputError,
    load_csv,
    main,
)

from test_exact_variance import EPS, exact_stats, var_terms


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoadCsv:
    def test_single_column(self, tmp_path):
        path = write(tmp_path, "a.csv", "1\n2\n")
        np.testing.assert_array_equal(load_csv(path), [[1.0], [2.0]])

    def test_header_skipped(self, tmp_path):
        path = write(tmp_path, "a.csv", "a,b\n1,2\n3,4\n")
        np.testing.assert_array_equal(load_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,2\n3\n")
        with pytest.raises(InputError, match="ragged row 2"):
            load_csv(path)

    def test_non_numeric_interior_cell(self, tmp_path):
        path = write(tmp_path, "a.csv", "1,2\n3,oops\n")
        with pytest.raises(InputError, match="non-numeric cell 2 in row 2"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell(self, tmp_path, cell):
        path = write(tmp_path, "a.csv", f"a,b\n1,2\n\n3,{cell}\n")
        with pytest.raises(InputError, match=r"a\.csv: non-finite cell 2 in row 4"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "a.csv", "")
        with pytest.raises(InputError, match="empty"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_csv(str(tmp_path / "nope.csv"))

    def test_blank_lines_and_spaces(self, tmp_path):
        path = write(tmp_path, "a.csv", "1 , 2\n\n3,4\n")
        np.testing.assert_array_equal(load_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_row_order_preserved(self, tmp_path):
        path = write(tmp_path, "a.csv", "9\n1\n5\n7\n")
        np.testing.assert_array_equal(load_csv(path).ravel(), [9.0, 1.0, 5.0, 7.0])

    @pytest.mark.parametrize("header", ["", "a,b\n"])
    def test_byte_order_mark_ignored(self, tmp_path, header):
        plain = write(tmp_path, "plain.csv", header + "1,2\n3,4\n")
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
        np.testing.assert_array_equal(load_csv(str(tmp_path / "bom.csv")), load_csv(plain))
        assert load_csv(plain).shape == (2, 2)

    @pytest.mark.parametrize("text", ["1,2\nfoo,bar\n3,4\n", "a,b\n\n1,2\nfoo,bar\n3,4\n"])
    def test_only_first_row_may_be_header(self, tmp_path, text):
        path = write(tmp_path, "a.csv", text)
        row = text.split("\n").index("foo,bar") + 1
        with pytest.raises(InputError, match=f"non-numeric cell 1 in row {row}$"):
            load_csv(path)

    @pytest.mark.parametrize("text,cell,row", [("1_0,2\n3,4\n", 1, 1), ("1,2\n3,4_0\n", 2, 2)])
    def test_digit_group_underscore_is_not_numeric(self, tmp_path, text, cell, row):
        path = write(tmp_path, "a.csv", text)  # float("1_0") is 10.0
        with pytest.raises(InputError, match=f"non-numeric cell {cell} in row {row}$"):
            load_csv(path)

    @pytest.mark.parametrize("digit", ["\uff11", "\u0661"])  # full-width and Arabic-Indic 1
    def test_non_ascii_digit_is_not_numeric(self, tmp_path, digit):
        path = write(tmp_path, "a.csv", f"{digit},2\n3,4\n")  # float() reads it as 1.0
        with pytest.raises(InputError, match="non-numeric cell 1 in row 1$"):
            load_csv(path)

    def test_header_with_underscores_skipped(self, tmp_path):
        path = write(tmp_path, "a.csv", "a_1,b_2\n1,2\n3,4\n")
        np.testing.assert_array_equal(load_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_undecodable_file(self, tmp_path):
        (tmp_path / "a.csv").write_bytes(b"caf\xe9\n1\n2\n")  # Latin-1, not UTF-8
        with pytest.raises(InputError, match="cannot read"):
            load_csv(str(tmp_path / "a.csv"))


@pytest.fixture
def csv4(tmp_path):
    """Four-row single-column CSVs: X=(1..4), Y=(5..8), Z=(2..5)."""
    return {
        "x": write(tmp_path, "x.csv", "1\n2\n3\n4\n"),
        "y": write(tmp_path, "y.csv", "5\n6\n7\n8\n"),
        "z": write(tmp_path, "z.csv", "2\n3\n4\n5\n"),
    }


class TestCmdMmd:
    def test_identical_samples(self, capsys, tmp_path, csv4):
        code, out, _ = run_cli(capsys, "mmd", csv4["x"], csv4["x"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["mmd2"] == 0.0
        assert payload["m"] == 4 and payload["d"] == 1
        assert set(payload) == {"m", "d", "kernel", "mmd2", "vhat", "vhat_floored", "z_stat"}

    def test_constant_kernel_vhat_zero(self, capsys, csv4):
        code, out, _ = run_cli(capsys, "mmd", csv4["x"], csv4["y"],
                               "--kernel", "const", "--const-value", "1.0")
        assert code == EXIT_OK
        assert abs(json.loads(out)["vhat"]) < 1e-12

    def test_m3_precondition(self, capsys, tmp_path):
        x = write(tmp_path, "x3.csv", "1\n2\n3\n")
        y = write(tmp_path, "y3.csv", "4\n5\n6\n")
        code, out, err = run_cli(capsys, "mmd", x, y)
        assert code == EXIT_PRECONDITION
        assert "m ≥ 4" in err
        assert out == ""

    def test_unequal_sizes(self, capsys, tmp_path, csv4):
        y = write(tmp_path, "y5.csv", "1\n2\n3\n4\n5\n")
        code, _, err = run_cli(capsys, "mmd", csv4["x"], y)
        assert code == EXIT_PRECONDITION
        assert "sample sizes differ" in err

    def test_ragged_input(self, capsys, tmp_path, csv4):
        bad = write(tmp_path, "bad.csv", "1,2\n3\n")
        code, _, err = run_cli(capsys, "mmd", csv4["x"], bad)
        assert code == EXIT_INPUT
        assert "ragged row 2" in err

    def test_nan_cell_exits_2(self, capsys, tmp_path, csv4):
        bad = write(tmp_path, "bad.csv", "1\n2\nnan\n4\n")
        code, out, err = run_cli(capsys, "mmd", csv4["x"], bad)
        assert code == EXIT_INPUT and out == ""
        assert "non-finite cell 1 in row 3" in err

    @pytest.mark.parametrize("value,flags,message", [
        (1e200, ("--kernel", "poly", "--degree", "3"), "kernel matrix is not finite"),
        (1e75, (), "vhat is not finite"),  # squared grand sum overflows
    ])
    def test_overflow_exits_3_without_output(self, capsys, tmp_path, value, flags, message):
        x = write(tmp_path, "x.csv", "\n".join(repr(value * (1 + i % 7)) for i in range(100)))
        y = write(tmp_path, "y.csv", "\n".join(repr(-value * (i % 5)) for i in range(100)))
        for fmt in ("json", "tsv"):
            with np.errstate(over="ignore", invalid="ignore"):
                code, out, err = run_cli(capsys, "mmd", x, y, *flags, "--format", fmt)
            assert code == EXIT_PRECONDITION and out == ""
            assert message in err

    def test_variance_near_overflow_matches_exact_rationals(self, capsys, tmp_path):
        """At 1e74 vhat is near 1e297, and no step on the way to it overflows:
        it lies within 8 eps S of its exact value (``test_exact_variance``)."""
        xs = [1e74 * (1 + i % 7) for i in range(100)]
        ys = [-1e74 * (i % 5) for i in range(100)]
        x = write(tmp_path, "x.csv", "\n".join(map(repr, xs)))
        y = write(tmp_path, "y.csv", "\n".join(map(repr, ys)))
        code, out, _ = run_cli(capsys, "mmd", x, y)
        assert code == EXIT_OK
        # every value is an integer: divided by their gcd they fit in int64, and
        # each term of the linear kernel's variance is of degree 4 in the data
        unit = math.gcd(*map(int, xs + ys))
        xn, yn = (np.array([[int(v) // unit] for v in vs]) for vs in (xs, ys))
        terms = [t * unit ** 4 for t in var_terms(exact_stats({"x": xn, "y": yn, "z": xn}), 100)]
        scale = EPS * sum(abs(t) for t in terms)
        assert abs(Fraction(json.loads(out)["vhat"]) - sum(terms)) <= 8 * scale

    def test_bad_kernel_flags(self, capsys, csv4):
        code, _, err = run_cli(capsys, "mmd", csv4["x"], csv4["y"],
                               "--kernel", "rbf", "--bandwidth", "-2.0")
        assert code == EXIT_INPUT and "positive" in err
        code, _, err = run_cli(capsys, "mmd", csv4["x"], csv4["y"],
                               "--kernel", "poly", "--degree", "0")
        assert code == EXIT_INPUT and "degree" in err

    def test_underscore_cell_exits_2(self, capsys, tmp_path, csv4):
        bad = write(tmp_path, "bad.csv", "1_0\n2\n3\n4\n5\n")
        code, out, err = run_cli(capsys, "mmd", bad, csv4["x"])
        assert code == EXIT_INPUT and out == ""
        assert "non-numeric cell 1 in row 1" in err

    def test_non_ascii_digit_cell_exits_2(self, capsys, tmp_path, csv4):
        bad = write(tmp_path, "bad.csv", "\uff11\n2\n3\n4\n")
        code, out, err = run_cli(capsys, "mmd", bad, csv4["x"])
        assert code == EXIT_INPUT and out == ""
        assert "non-numeric cell 1 in row 1" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flags,field", [(("--kernel", "poly", "--coef0"), "polynomial coef0"),
                                             (("--kernel", "const", "--const-value"),
                                              "constant kernel value")])
    def test_non_finite_kernel_parameter_exits_2(self, capsys, csv4, flags, field, value):
        x, y, z = csv4["x"], csv4["y"], csv4["z"]
        for cmd, files in (("mmd", (x, y)), ("relmmd", (x, y, z))):
            code, out, err = run_cli(capsys, cmd, *files, *flags, value)
            assert code == EXIT_INPUT and out == ""
            assert f"{field} must be finite, got {value}" in err

    @pytest.mark.parametrize("bw", ["inf", "nan", "1e-300", "1e-160", "1e200"])
    def test_bandwidth_outside_float_range_exits_2(self, capsys, csv4, bw):
        code, out, err = run_cli(capsys, "mmd", csv4["x"], csv4["y"],
                                 "--kernel", "rbf", "--bandwidth", bw)
        assert code == EXIT_INPUT and out == ""
        assert "rbf bandwidth must be positive" in err

    def test_tiny_median_bandwidth_exits_3(self, capsys, tmp_path):
        x = write(tmp_path, "x.csv", "\n".join(repr(i * 1e-155) for i in range(4)))
        y = write(tmp_path, "y.csv", "\n".join(repr(i * 1e-155) for i in range(4, 8)))
        code, out, err = run_cli(capsys, "mmd", x, y, "--kernel", "rbf")
        assert code == EXIT_PRECONDITION and out == ""
        assert "rbf bandwidth must be positive" in err and "e-155" in err

    @pytest.mark.parametrize("eps", ["0", "-1", "inf", "nan"])
    def test_floor_eps_must_be_positive_and_finite(self, capsys, csv4, eps):
        code, out, err = run_cli(capsys, "mmd", csv4["x"], csv4["y"], "--floor-eps", eps)
        assert code == EXIT_INPUT and out == ""
        assert "--floor-eps must be positive and finite" in err

    def test_rbf_median_echoes_resolved_bandwidth(self, capsys, csv4):
        code, out, _ = run_cli(capsys, "mmd", csv4["x"], csv4["y"], "--kernel", "rbf")
        assert code == EXIT_OK
        bw = json.loads(out)["kernel"]["bandwidth"]
        assert isinstance(bw, float) and bw > 0

    def test_byte_identical_reruns(self, capsys, csv4):
        _, out1, _ = run_cli(capsys, "mmd", csv4["x"], csv4["y"], "--kernel", "rbf")
        _, out2, _ = run_cli(capsys, "mmd", csv4["x"], csv4["y"], "--kernel", "rbf")
        assert out1 == out2

    def test_json_round_trip(self, capsys, csv4):
        _, out, _ = run_cli(capsys, "mmd", csv4["x"], csv4["y"])
        payload = json.loads(out)
        assert json.dumps(payload) + "\n" == out

    def test_tsv_format(self, capsys, csv4):
        code, out, _ = run_cli(capsys, "mmd", csv4["x"], csv4["y"], "--format", "tsv")
        assert code == EXIT_OK
        lines = dict(line.split("\t") for line in out.strip().splitlines())
        assert float(lines["mmd2"]) == 16.0
        assert lines["kernel.kind"] == "linear"


def test_tsv_floats_are_plain(capsys, csv4):
    """TSV writes floats with repr(); NumPy scalars would print as np.float64(...)."""
    for argv in (("mmd", csv4["x"], csv4["y"]), ("relmmd", csv4["x"], csv4["y"], csv4["z"]),
                 ("verify", "--replicates", "1000", "--m", "5", "--targets", "all",
                  "--mean-z", "0.25", "--var-z", "1.0")):
        _, out, _ = run_cli(capsys, *argv, "--format", "tsv")
        assert out and "np." not in out, argv


class TestCmdRelmmd:
    def test_derived_example(self, capsys, csv4):
        # frozen by a hand loop over the defining double sums
        code, out, _ = run_cli(capsys, "relmmd", csv4["x"], csv4["y"], csv4["z"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["mmd2_xy"] == pytest.approx(16.0, rel=1e-12)
        assert payload["mmd2_xz"] == pytest.approx(1.0, rel=1e-12)
        assert payload["diff"] == pytest.approx(15.0, rel=1e-12)
        assert {"nuhat", "nuhat_floored", "z_stat"} <= set(payload)

    def test_z_identical_to_y(self, capsys, csv4):
        code, out, _ = run_cli(capsys, "relmmd", csv4["x"], csv4["y"], csv4["y"])
        assert code == EXIT_OK
        assert json.loads(out)["diff"] == 0.0

    def test_swapping_y_and_z_negates_diff(self, capsys, csv4):
        _, out1, _ = run_cli(capsys, "relmmd", csv4["x"], csv4["y"], csv4["z"])
        _, out2, _ = run_cli(capsys, "relmmd", csv4["x"], csv4["z"], csv4["y"])
        p1, p2 = json.loads(out1), json.loads(out2)
        assert p2["diff"] == -p1["diff"]
        assert p2["nuhat"] == pytest.approx(p1["nuhat"], rel=1e-12)

    def test_missing_z_argument(self, capsys, csv4):
        with pytest.raises(SystemExit) as exc:
            main(["relmmd", csv4["x"], csv4["y"]])
        assert exc.value.code == 2


class TestCmdVerify:
    def test_replicates_below_minimum(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--replicates", "10")
        assert code == EXIT_INPUT
        assert "replicates below minimum" in err

    def test_small_passing_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--replicates", "2000", "--m", "5",
                               "--seed", "42")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert set(payload["unbiasedness"]) == {"mmd2", "mmd2_var"}
        assert set(payload["variance_tracking"]) == {"mmd2"}
        for entry in payload["unbiasedness"].values():
            assert set(entry) == {"mean", "se", "truth", "z", "pass"}

    def test_three_sample_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--replicates", "2000", "--m", "5",
                               "--mean-z", "0.25", "--var-z", "1.0")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload["unbiasedness"]) == {"mmd2", "mmd2_var", "diff", "mmd2_diff_var"}
        assert set(payload["variance_tracking"]) == {"mmd2", "diff"}

    def test_statistical_failure_exit_code(self, capsys):
        # an absurdly tight threshold turns sampling noise into a failure
        code, out, _ = run_cli(capsys, "verify", "--replicates", "2000", "--m", "5",
                               "--z-threshold", "1e-9")
        assert code == EXIT_STAT_FAIL
        assert json.loads(out)["all_pass"] is False

    def test_explicit_targets(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--replicates", "1500", "--m", "6",
                               "--targets", "mmd2,ek2_xy,mu_sq_xx")
        assert code == EXIT_OK
        assert list(json.loads(out)["unbiasedness"]) == ["mmd2", "ek2_xy", "mu_sq_xx"]

    def test_three_sample_run_at_m_200(self, capsys):
        """The default targets at m = 200, where the harness's aggregates
        come from its closed forms, with enough replicates to gate on."""
        code, out, _ = run_cli(capsys, "verify", "--replicates", "5000", "--m", "200",
                               "--seed", "0", "--mean-z", "0.25", "--var-z", "1.0")
        payload = json.loads(out)
        zs = {f"{kind} {t}": e["z"] for kind in ("unbiasedness", "variance_tracking")
              for t, e in payload[kind].items()}
        assert set(zs) == {"unbiasedness mmd2", "unbiasedness mmd2_var", "unbiasedness diff",
                           "unbiasedness mmd2_diff_var", "variance_tracking mmd2",
                           "variance_tracking diff"}
        assert code == EXIT_OK and all(abs(z) <= 4 for z in zs.values()), zs

    def test_mean_z_without_var_z(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--replicates", "2000",
                               "--mean-z", "0.1")
        assert code == EXIT_INPUT
        assert "both" in err

    def test_overflowing_run_exits_2_naming_the_target(self, capsys):
        """Every replicate rounds to the same samples near 1e76, so the
        standard error is 0 and no z-score is finite; at a spread of 2e76 the
        variance estimates overflow."""
        for extra, message in (((), "target 'mmd2_var': z-score is not finite"),
                               (("--var-x", "4e152", "--var-y", "4e152"),
                                "target 'mmd2_var': replicate mean is not finite")):
            code, out, err = run_cli(capsys, "verify", "--replicates", "1000", "--m", "4",
                                     "--mean-x", "1e76", "--mean-y", "1e76", *extra)
            assert code == EXIT_INPUT and out == ""
            assert message in err and "Traceback" not in err

    def test_variance_tracking_precondition_fails_before_any_draw(self, capsys, monkeypatch):
        """m = 3 admits the unbiasedness targets but not variance tracking's
        'mmd2_var': verify refuses before either pass draws a replicate."""
        def no_draws(*args):
            raise AssertionError("a replicate was drawn")
        monkeypatch.setattr(montecarlo, "_replicate_values", no_draws)
        code, out, err = run_cli(capsys, "verify", "--targets", "mmd2", "--m", "3")
        assert code == EXIT_INPUT and out == ""
        assert "'mmd2_var'" in err and "m >= 4" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_bad_z_threshold_exits_2_before_any_draw(self, capsys, monkeypatch, value):
        """An infinite threshold would pass every replicate and then fail to
        serialise; verify refuses it before either pass draws a replicate."""
        def no_draws(*args):
            raise AssertionError("a replicate was drawn")
        monkeypatch.setattr(montecarlo, "_replicate_values", no_draws)
        code, out, err = run_cli(capsys, "verify", "--z-threshold", value)
        assert code == EXIT_INPUT and out == ""
        assert "z_threshold must be positive and finite" in err

    @pytest.mark.parametrize("flag,value", [("--mean-x", "nan"), ("--mean-z", "inf"),
                                            ("--var-y", "inf")])
    def test_non_finite_model_exits_2(self, capsys, flag, value):
        args = {"--mean-z": "0.25", "--var-z": "1.0", flag: value}
        code, out, err = run_cli(capsys, "verify", "--replicates", "1000",
                                 *[tok for kv in args.items() for tok in kv])
        assert code == EXIT_INPUT and out == ""
        assert f"{flag[2:].replace('-', '_')} must be finite" in err

    def test_deterministic_output(self, capsys):
        args = ("verify", "--replicates", "1500", "--m", "5", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


def test_module_entry_point(tmp_path):
    x = tmp_path / "x.csv"
    x.write_text("1\n2\n3\n4\n")
    proc = subprocess.run(
        [sys.executable, "-m", "mmdvar", "mmd", str(x), str(x)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mmd2"] == 0.0
