import hashlib
import json
import shlex

import pytest

from cantorvis.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestClassify:
    def test_regime_two(self, capsys):
        code, report = run_json(capsys, "classify", "--lambda", "7/20")
        assert code == 0
        assert report["command"] == "classify"
        assert report["result"]["regime"] == "Regime2_ExactGaps"
        assert report["result"]["discriminant"] == "29/400"

    def test_out_of_range_lambda(self, capsys):
        code, report = run_json(capsys, "classify", "--lambda", "3/5")
        assert code == 1
        assert report["error"]["code"] == "out-of-range"

    def test_bad_literal(self, capsys):
        code, report = run_json(capsys, "classify", "--lambda", "0.35")
        assert code == 1
        assert report["error"]["code"] == "parse-error"


class TestVisible:
    def test_visible_with_gap(self, capsys):
        code, report = run_json(capsys, "visible", "--lambda", "7/20",
                                "--alpha", "17/10", "--k-window", "3")
        assert code == 0
        assert report["result"]["answer"] == "Visible"
        assert report["result"]["gap"] == ["20/13", "13/7"]

    def test_not_visible_witnessed(self, capsys):
        code, report = run_json(capsys, "visible", "--lambda", "7/20", "--alpha", "1")
        assert code == 0
        assert report["result"]["answer"] == "NotVisible"
        assert report["result"]["scale_k"] == 0

    def test_unknown_exit_code(self, capsys):
        code, report = run_json(capsys, "visible", "--lambda", "1/5",
                                "--alpha", "81/100", "--depth", "3")
        assert code == 2
        assert report["result"]["answer"] == "UnknownAtDepth"


class TestReports:
    def test_quotient_cover_json(self, capsys):
        code, report = run_json(capsys, "quotient-cover", "--lambda", "1/5",
                                "--depth", "2")
        assert code == 0
        result = report["result"]
        assert result["part_count"] == 3
        assert result["parts"][0] == ["4/5", "7/8"]
        assert result["total_length"] == "47/168"
        # exact fields are strings; approximations carry the _approx suffix
        assert isinstance(result["total_length_approx"], float)

    def test_quotient_cover_csv(self, capsys):
        code, out = run(capsys, "quotient-cover", "--lambda", "1/5",
                        "--depth", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "lo,hi"
        assert "4/5,7/8" in out

    def test_visible_set_svg(self, capsys, tmp_path):
        import xml.dom.minidom
        target = tmp_path / "gaps.svg"
        code, _ = run(capsys, "visible-set", "--lambda", "7/20",
                      "--k-window", "1", "--format", "svg", "--out", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("<svg") and "<rect" in text
        xml.dom.minidom.parseString(text)  # must be well-formed

    def test_key2_check_default_window(self, capsys):
        code, report = run_json(capsys, "key2-check", "--lambda", "1/3")
        assert code == 0
        result = report["result"]
        assert result["holds"] is True
        assert result["full"] == ["2/3", "3/2"]
        assert result["margins"]["s1-r2"] == "1/56"

    def test_thickness(self, capsys):
        code, report = run_json(capsys, "thickness", "--lambda", "3/10")
        assert code == 0
        assert report["result"]["holds"] is True

    def test_boxdim_csv(self, capsys):
        code, out = run(capsys, "boxdim", "--lambda", "1/4", "--family", "basic",
                        "--n-min", "2", "--n-max", "5", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,scale,count"
        assert lines[1] == "2,1/16,4"

    def test_boxdim_slope(self, capsys):
        code, report = run_json(capsys, "boxdim", "--lambda", "1/4",
                                "--family", "basic", "--n-min", "2", "--n-max", "6")
        assert code == 0
        assert abs(report["result"]["slope"] - 0.5) < 1e-9


class TestDynamics:
    def test_project(self, capsys):
        code, report = run_json(capsys, "project", "--lambda", "1/3",
                                "--slope-t", "1/2")
        assert code == 0
        result = report["result"]
        assert result["attractor"] == ["-1/2", "1"]
        assert result["degenerate"] is False
        assert {"interval": ["-1/6", "0"], "maps": [1, 3],
                "degenerate": False} in result["overlaps"]

    def test_project_not_interval(self, capsys):
        code, report = run_json(capsys, "project", "--lambda", "1/5",
                                "--slope-t", "3")
        assert code == 1
        assert report["error"]["code"] == "not-interval-attractor"

    def test_orbits(self, capsys):
        code, report = run_json(capsys, "orbits", "--lambda", "1/3",
                                "--slope-t", "1/2", "--point=-1/6")
        assert code == 0
        assert report["result"]["status"] == "HitsHole"
        assert report["result"]["witness"] == [1]

    def test_orbits_budget_exit(self, capsys):
        # the closure of 0 is {0, 1}, which a budget of 1 cannot hold
        code, report = run_json(capsys, "orbits", "--lambda", "1/3",
                                "--slope-t", "1/2", "--point", "0",
                                "--budget", "1")
        assert code == 2
        assert report["result"]["status"] == "BudgetExceeded"

    def test_prop1(self, capsys):
        code, report = run_json(capsys, "prop1", "--lambda", "1/3",
                                "--slope-t", "1/2")
        assert code == 0
        assert report["result"]["holds"] is False
        assert "b1" in report["result"]["failing"]

    def test_prop2_unknown_exit(self, capsys):
        code, report = run_json(capsys, "prop2", "--lambda", "7/20",
                                "--slope-t", "1/2", "--budget", "50")
        assert code == 2
        assert report["result"]["verdict"] == "unknown"

    def test_gds_json(self, capsys):
        code, report = run_json(capsys, "gds", "--lambda", "1/3",
                                "--slope-t", "1/2")
        assert code == 0
        result = report["result"]
        assert result["states"] == [["-1/2", "-1/6"], ["0", "1/6"],
                                    ["1/3", "1/2"], ["2/3", "1"]]
        assert result["prop1_holds"] is False
        assert result["prop2_holds"] is True

    def test_gds_dot(self, capsys):
        code, out = run(capsys, "gds", "--lambda", "1/3", "--slope-t", "1/2",
                        "--format", "dot")
        assert code == 0
        assert out.startswith("digraph gds {")

    def test_gds_unknown_exit(self, capsys):
        code, report = run_json(capsys, "gds", "--lambda", "7/20",
                                "--slope-t", "1/2", "--budget", "50")
        assert code == 2
        assert report["result"]["verdict"] == "unknown"

    def test_gds_dim(self, capsys):
        code, report = run_json(capsys, "gds-dim", "--lambda", "1/3",
                                "--slope-t", "1/2")
        assert code == 0
        assert abs(report["result"]["dimension"] - 0.630929753571) < 1e-9
        assert abs(report["result"]["spectral_radius"] - 2.0) < 1e-9

    def test_codings_and_slice_count_agree(self, capsys):
        code1, rep1 = run_json(capsys, "codings", "--lambda", "1/3",
                               "--slope-t", "1/2", "--point=-1/6",
                               "--depth", "4")
        code2, rep2 = run_json(capsys, "slice-count", "--lambda", "1/3",
                               "--slope-t", "1/2", "--point=-1/6",
                               "--depth", "4")
        assert code1 == code2 == 0
        assert rep1["result"]["count"] == rep2["result"]["count"]


class TestDiscipline:
    def test_reports_are_deterministic(self, capsys):
        _, first = run(capsys, "gds", "--lambda", "1/3", "--slope-t", "1/2")
        _, second = run(capsys, "gds", "--lambda", "1/3", "--slope-t", "1/2")
        assert first == second

    def test_exact_fields_have_no_floats(self, capsys):
        _, report = run_json(capsys, "quotient-cover", "--lambda", "1/5",
                             "--depth", "3")
        for lo, hi in report["result"]["parts"]:
            assert isinstance(lo, str) and isinstance(hi, str)

    def test_depth_ceiling_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CANTOR_VIS_MAX_DEPTH", "3")
        code, report = run_json(capsys, "quotient-cover", "--lambda", "1/5",
                                "--depth", "5")
        assert code == 1
        assert report["error"]["code"] == "depth-budget-exceeded"

    def test_budget_cap(self, capsys):
        code, report = run_json(capsys, "orbits", "--lambda", "1/3",
                                "--slope-t", "1/2", "--point", "0",
                                "--budget", "20000001")
        assert code == 1
        assert report["error"]["code"] == "out-of-range"

    def test_out_file_roundtrip(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run(capsys, "classify", "--lambda", "1/3",
                        "--out", str(target))
        assert code == 0 and out == ""
        report = json.loads(target.read_text())
        assert report["result"]["regime"] == "Regime2_ExactGaps"

    def test_unwritable_out_is_a_coded_error(self, capsys, tmp_path):
        target = str(tmp_path / "missing" / "report.json")
        # both the report path and the error path must keep the JSON contract
        for lam in ("1/3", "3/5"):
            code = main(["classify", "--lambda", lam, "--out", target])
            captured = capsys.readouterr()
            assert code == 1
            assert json.loads(captured.out)["error"]["code"] == "output-not-writable"
            assert captured.err == ""

    def test_reversed_interval_literal(self, capsys):
        code = main(["key2-check", "--lambda", "1/3", "--interval-i", "1,0"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error"]["code"] == "parse-error"
        assert captured.err == ""


class TestInternalErrors:
    BIG_LAMBDA = "1000000000000000000000000000001/5000000000000000000000000000007"

    def test_oversized_report_is_a_coded_error(self, capsys):
        # the cover's total length has more digits than int-to-str allows
        code = main(["quotient-cover", "--lambda", self.BIG_LAMBDA, "--depth", "6"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 1
        assert report["command"] == "quotient-cover"
        assert report["error"]["code"] == "out-of-range"
        assert report["error"]["message"].startswith("numeral too long to print")
        assert captured.err == ""

    def test_any_unexpected_exception_is_internal(self, capsys, monkeypatch):
        def broken(lam):
            raise RuntimeError("boom")

        monkeypatch.setattr("cantorvis.cli.vismod.regime_classify", broken)
        code = main(["classify", "--lambda", "1/3"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out) == {
            "command": "classify",
            "error": {"code": "internal", "message": "RuntimeError: boom"}}
        assert "RuntimeError: boom" in captured.err


class TestUsageErrors:
    """Usage errors end like bad literals: a parse-error report, exit code 1."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["classify"], id="missing-lambda"),
        pytest.param(["visible", "--lambda", "1/3"], id="missing-alpha"),
        pytest.param(["frobnicate", "--lambda", "1/3"], id="unknown-command"),
        pytest.param([], id="no-command"),
        pytest.param(["visible", "--lambda", "1/3", "--alpha", "1/2", "--depth", "x"],
                     id="depth"),
        pytest.param(["orbits", "--lambda", "1/3", "--slope-t", "1/2", "--point", "0",
                      "--budget", "x"], id="budget"),
        pytest.param(["visible", "--lambda", "1/3", "--alpha", "1/2",
                      "--k-window", "1.5"], id="k-window"),
        pytest.param(["boxdim", "--lambda", "1/3", "--n-min", "a"], id="n-min"),
        pytest.param(["boxdim", "--lambda", "1/3", "--n-max", "b"], id="n-max"),
        pytest.param(["classify", "--lambda", "1/3", "--format", "xml"], id="format"),
    ])
    def test_usage_error_is_a_coded_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        report = json.loads(captured.out)
        assert report["error"]["code"] == "parse-error"
        assert report["error"]["message"]
        assert captured.err == ""

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["classify", "--help"])
        assert info.value.code == 0
        assert "--lambda" in capsys.readouterr().out


# each subcommand with the non-JSON formats it renders, and arguments to run it
FORMATS = {
    "classify": ((), ["--lambda", "7/20"]),
    "visible": ((), ["--lambda", "7/20", "--alpha", "17/10", "--k-window", "3"]),
    "visible-set": (("svg",), ["--lambda", "7/20", "--k-window", "1"]),
    "quotient-cover": (("csv", "svg"), ["--lambda", "1/5", "--depth", "3"]),
    "key2-check": ((), ["--lambda", "1/3"]),
    "thickness": ((), ["--lambda", "3/10"]),
    "boxdim": (("csv",), ["--lambda", "1/4", "--n-min", "2", "--n-max", "4"]),
    "project": (("svg",), ["--lambda", "1/3", "--slope-t", "1/2"]),
    "orbits": ((), ["--lambda", "1/3", "--slope-t", "1/2", "--point=-1/6"]),
    "prop1": ((), ["--lambda", "1/3", "--slope-t", "1/2"]),
    "prop2": ((), ["--lambda", "1/3", "--slope-t", "1/2"]),
    "gds": (("svg", "dot"), ["--lambda", "1/3", "--slope-t", "1/2"]),
    "gds-dim": ((), ["--lambda", "1/3", "--slope-t", "1/2"]),
    "codings": ((), ["--lambda", "1/3", "--slope-t", "1/2", "--point=-1/6",
                     "--depth", "3"]),
    "slice-count": ((), ["--lambda", "1/3", "--slope-t", "1/2", "--point=-1/6",
                         "--depth", "3"]),
}
PAYLOAD_START = {"csv": ("lo,hi\n", "n,scale,count\n"), "svg": ("<svg",),
                 "dot": ("digraph gds {",)}


class TestFormats:
    @pytest.mark.parametrize("command,fmt", [
        (command, fmt) for command, (formats, _) in FORMATS.items()
        for fmt in ("json", *formats)])
    def test_accepted_format(self, capsys, command, fmt):
        code, out = run(capsys, command, *FORMATS[command][1], "--format", fmt)
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["command"] == command
        else:
            assert out.startswith(PAYLOAD_START[fmt])

    @pytest.mark.parametrize("command,fmt", [
        (command, fmt) for command, (formats, _) in FORMATS.items()
        for fmt in ("csv", "svg", "dot") if fmt not in formats])
    def test_rejected_format(self, capsys, command, fmt):
        # e.g. classify --format svg and gds-dim --format dot used to print JSON
        code, report = run_json(capsys, command, *FORMATS[command][1], "--format", fmt)
        assert code == 1
        assert report["error"]["code"] == "parse-error"
        assert f"invalid choice: '{fmt}'" in report["error"]["message"]


def test_negative_k_window_is_out_of_range(capsys):
    # it used to answer NotVisible with exit code 0
    code, report = run_json(capsys, "visible", "--lambda", "1/3", "--alpha", "1/2",
                            "--k-window", "-50")
    assert code == 1
    assert report["error"] == {"code": "out-of-range",
                               "message": "scale window must be nonnegative, got -50"}


GOLDEN = {
    "quotient-cover --lambda 1/5 --depth 3 --format svg":
        (0, "3112392cf05f2fa253826266e8dfe447fb72d2a6142ba893dc2da986afdf69d9"),
    "project --lambda 1/3 --slope-t 1/2 --format svg":
        (0, "f44e7ad2d4bcf2dc07f43bc787eb6a25e77450a2f502535f96ffc2560cfdf1b3"),
    "gds --lambda 1/3 --slope-t 1/2 --format svg":
        (0, "c8faf5379b2c2fee98562c10f6c9a01ac8046469fa753b47b7e647adf34ade86"),
    "boxdim --lambda 1/4 --family basic --n-min 2 --n-max 5 --format csv":
        (0, "58b1c91396bc9263986ac2d1999835ab1ea56cda53cb1db397703b338c527e15"),
    "boxdim --lambda 1/5 --family quotient --n-min 2 --n-max 5 --format csv":
        (0, "8cb8af9e91611f684bc4b97e20f2d618c1a808d684f57c40b83614056d4db3c8"),
    "visible-set --lambda 1/5 --k-window 1 --depth 4":
        (0, "ace3996738733f59cf0ffdeb778c2e656239df9db99091bb18608227d1333278"),
    "key2-check --lambda 1/3 --interval-i 2/9,1/3 --interval-j 2/3,7/9":
        (0, "6aa0fcfe27a883a3bf363381789d7de79d176d4c0a930300a897f59701bb47ba"),
    "gds --lambda 7/20 --slope-t 1/2 --budget 50":
        (2, "28515da54f601e06072f8b00b2c2afd5ebbf503fbee78028e6be5d6f6c87f211"),
    "gds-dim --lambda 7/20 --slope-t 1/2 --budget 50":
        (2, "0054b4f6011fff5f0f7845c567bd84b0b514280104b8ad3c4825a5aa794c2389"),
    "orbits --lambda 1/3 --slope-t 1/2 --point 0 --budget 0":
        (1, "304487ab96e1b5d28a42f5fc344c8f87e92e9890c438f2e3938b67efeaa621d3"),
    "boxdim --lambda 1/4 --n-min 5 --n-max 5":
        (1, "38c6bcc3991ded4909643d46381672952ae4e9823cfd2d461eff57875f5f001d"),
}


@pytest.mark.parametrize("example", list(GOLDEN))
def test_output_is_unchanged(example, capsys):
    """CLI paths the README examples do not cover give byte-identical output.

    The digests are SHA-256 of stdout, recorded at commit 3e15916, before the
    command table replaced the per-command parser blocks and handler tuples.
    """
    code, out = run(capsys, *shlex.split(example))
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == GOLDEN[example]
