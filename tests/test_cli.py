import json
import math

import pytest

from qentropy.cli import main
from qentropy.weierstrass import (
    WeierstrassParams,
    difference_quotients,
    eval_phi_counterexample,
    nondifferentiability_probe,
)

TSALLIS_SPEC = {
    "phi": {"kind": "tsallis_phi"},
    "alpha": {"kind": "one_minus_q_alpha"},
    "k": 1.0,
}
WEIERSTRASS_SPEC = {
    "phi": {"kind": "weierstrass_phi", "a": 0.5, "b": 13, "eps": 1e-12},
    "alpha": {"kind": "one_minus_q_alpha"},
    "k": 1.0,
}


@pytest.fixture
def tsallis_file(tmp_path):
    path = tmp_path / "tsallis.json"
    path.write_text(json.dumps(TSALLIS_SPEC))
    return str(path)


class TestEval:
    def test_tsallis_q2(self, tsallis_file, capsys):
        rc = main(["eval", "--family", tsallis_file, "--q", "2",
                   "--dist", "[0.5,0.5]"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_shannon_point_fifteen_digits(self, tsallis_file, capsys):
        rc = main(["eval", "--family", tsallis_file, "--q", "1",
                   "--dist", "[0.5,0.5]"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.693147180559945"

    def test_digits_flag(self, tsallis_file, capsys):
        rc = main(["eval", "--family", tsallis_file, "--q", "1",
                   "--dist", "[0.5,0.5]", "--digits", "6"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.693147"

    def test_json_output(self, tsallis_file, capsys):
        rc = main(["eval", "--family", tsallis_file, "--q", "2",
                   "--dist", "[0.5,0.5]", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["q"] == 2.0
        assert payload["value"] == 0.5
        assert payload["family"]["k"] == 1.0

    def test_dist_from_file(self, tsallis_file, tmp_path, capsys):
        dist_file = tmp_path / "d.json"
        dist_file.write_text("[0.5, 0.25, 0.25]")
        rc = main(["eval", "--family", tsallis_file, "--q", "2",
                   "--dist", str(dist_file)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.625"

    def test_invalid_k_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(TSALLIS_SPEC, k=0)))
        rc = main(["eval", "--family", str(bad), "--q", "2", "--dist", "[0.5,0.5]"])
        assert rc == 2
        assert "'k'" in capsys.readouterr().err

    def test_missing_family_file(self, capsys):
        rc = main(["eval", "--family", "does-not-exist.json", "--q", "2",
                   "--dist", "[0.5,0.5]"])
        assert rc == 2

    def test_unnormalized_strict_input(self, tsallis_file):
        assert main(["eval", "--family", tsallis_file, "--q", "2",
                     "--dist", "[0.3,0.8]"]) == 2

    def test_normalize_mode(self, tsallis_file, capsys):
        rc = main(["eval", "--family", tsallis_file, "--q", "2",
                   "--dist", "[2,1,1]", "--mode", "normalize"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.625"

    def test_overflowing_sum_exits_2(self, tsallis_file, capsys):
        rc = main(["eval", "--family", tsallis_file, "--q", "2",
                   "--dist", "[1e308,1e308]", "--mode", "normalize"])
        assert rc == 2
        assert "float range" in capsys.readouterr().err

    def test_evaluation_error_exits_3(self, tmp_path, capsys):
        # phi crosses zero at q = 3, away from 1; the family must be
        # accepted (validate false) but evaluation there is undefined.
        spec = {
            "phi": {"kind": "tabulated",
                    "points": [[0.5, -0.5], [1.0, 0.0], [2.0, 1.0], [4.0, -1.0]]},
            "alpha": {"kind": "one_minus_q_alpha"},
            "k": 1.0,
            "validate": False,
        }
        fam = tmp_path / "zero.json"
        fam.write_text(json.dumps(spec))
        rc = main(["eval", "--family", str(fam), "--q", "3", "--dist", "[0.5,0.5]"])
        assert rc == 3
        assert "evaluation error" in capsys.readouterr().err


    @pytest.mark.parametrize("points", [
        [[0.01, math.nan], [1.0, 0.0], [10.0, 1.0]],
        [[0.01, -1.0], [1.0, 0.0], [10.0, math.inf]],
    ])
    def test_nonfinite_tabulated_point_exits_2(self, tmp_path, capsys, points):
        # Unrefused, q = 5 printed nan, or 0 where phi is inf, and exited 0.
        spec = {"phi": {"kind": "tabulated", "points": points},
                "alpha": {"kind": "one_minus_q_alpha"}, "k": 1.0, "validate": False}
        fam = tmp_path / "nonfinite.json"
        fam.write_text(json.dumps(spec))
        rc = main(["eval", "--family", str(fam), "--q", "5", "--dist", "[0.5,0.5]"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tabulated points must be finite" in captured.err

    def test_overflowing_term_exits_3(self, tmp_path, capsys):
        spec = {
            "phi": {"kind": "tsallis_phi"},
            "alpha": {"kind": "tabulated", "points": [[0.01, 2.0], [10.0, 2.0]]},
            "k": 1.0,
            "validate": False,
        }
        fam = tmp_path / "alpha2.json"
        fam.write_text(json.dumps(spec))
        rc = main(["eval", "--family", str(fam), "--q", "2", "--dist", "[1.0,1e-310]",
                   "--mode", "normalize"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("evaluation error:") and "q=2.0" in err

    @pytest.mark.parametrize("phi,alpha,message", [
        ({"kind": "power_phi", "gamma": 3.0}, {"kind": "one_minus_q_alpha"},
         "power_phi(1e+200) = inf is not finite"),
        ({"kind": "tsallis_phi"}, {"kind": "power_alpha", "gamma": 3.0},
         "power_alpha(1e+200) = -inf is not finite"),
    ])
    def test_power_overflow_exits_3(self, tmp_path, capsys, phi, alpha, message):
        # |q - 1|^3 is past the float range: a traceback and exit 1 before.
        fam = tmp_path / "power3.json"
        fam.write_text(json.dumps({"phi": phi, "alpha": alpha, "k": 1.0}))
        rc = main(["eval", "--family", str(fam), "--q", "1e200", "--dist", "[0.5,0.5]"])
        assert rc == 3
        assert capsys.readouterr() == ("", f"evaluation error: {message}\n")

    @pytest.mark.parametrize("command", [["eval", "--dist", "[0.5,0.5]"],
                                         ["info-content", "--p", "0.5"]])
    def test_overflowing_table_exits_2(self, tmp_path, capsys, command):
        # alpha(1.2) overflowed to inf inside the interpolation, and
        # info-content printed -5 with exit 0.
        spec = {"phi": {"kind": "tsallis_phi"},
                "alpha": {"kind": "tabulated", "points": [[0.5, -1e308], [2.0, 1e308]]},
                "k": 1.0, "validate": False}
        fam = tmp_path / "steep.json"
        fam.write_text(json.dumps(spec))
        rc = main([command[0], "--family", str(fam), "--q", "1.2", *command[1:]])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: field 'alpha': tabulated segment from (0.5, -1e+308) "
                                "to (2.0, 1e+308) overflows the float range\n")


@pytest.mark.parametrize("argv", [
    ["eval", "--dist", "[1.0]"],
    ["eval", "--dist", "[1.0, 0.0]"],
    ["info-content", "--p", "1"],
])
@pytest.mark.parametrize("q", ["0.5", "1", "1.000001", "2"])
def test_certainty_prints_positive_zero(tsallis_file, capsys, argv, q):
    # A zero entropy or surprise prints as 0 and serializes as 0.0, never -0.
    assert main([argv[0], "--family", tsallis_file, "--q", q, *argv[1:]]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main([argv[0], "--family", tsallis_file, "--q", q, *argv[1:], "--json"]) == 0
    assert '"value": 0.0' in capsys.readouterr().out


class TestInfoContent:
    def test_hand_value(self, tsallis_file, capsys):
        rc = main(["info-content", "--family", tsallis_file, "--q", "2",
                   "--p", "0.5"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_p_validation(self, tsallis_file):
        assert main(["info-content", "--family", tsallis_file, "--q", "2",
                     "--p", "1.5"]) == 2

    def test_overflow_exits_3(self, tsallis_file, capsys):
        rc = main(["info-content", "--family", tsallis_file, "--q", "1e308",
                   "--p", "0.5"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "evaluation error" in err and "q=1e+308, p=0.5" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--dist", "[0.5,0.5]"],
    ["info-content", "--p", "0.5"],
])
@pytest.mark.parametrize("q,message", [
    ("inf", "--q must be finite, got inf"),
    ("nan", "--q must be positive, got nan"),
    ("0", "--q must be positive, got 0.0"),
])
def test_bad_q_exits_2(tsallis_file, capsys, argv, q, message):
    rc = main([argv[0], "--family", tsallis_file, f"--q={q}", *argv[1:]])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv,message", [
    (["weierstrass", "--range=0:inf:1"], "--range must give a finite number of points"),
    (["weierstrass", "--range=0:nan:1"], "--range must give a finite number of points"),
    (["weierstrass", "--range=0:1:nan"], "--range must give a finite number of points"),
    (["weierstrass", "--range=-1e308:1e308:1e-300"],
     "--range must give a finite number of points"),
    (["weierstrass", "--range=0:1:inf"], "--range needs a finite step, got inf"),
    (["weierstrass", "--range=-inf:1:1"], "--range must give a finite number of points"),
    (["weierstrass", "--x", "0.5,inf,nan"], "x must be finite, got inf"),
    (["axioms", "--family", "TSALLIS", "--dims", "inf"], "--dims must be positive integers"),
    (["axioms", "--family", "TSALLIS", "--dims", "1e400"], "--dims must be positive integers"),
    (["axioms", "--family", "TSALLIS", "--dims", "2,nan"], "--dims must be positive integers"),
    (["eval", "--family", "TSALLIS", "--q", "2", "--dist", "[0.5,0.5]", "--digits", "-1"],
     "--digits must be >= 0, got -1"),
    (["eval", "--family", "TSALLIS", "--q", "2", "--dist", f"[{10**400}, 1]",
      "--mode", "normalize"], "distribution entry 0 is beyond the float range"),
    (["counterexample", "--digits", "-1"], "--digits must be >= 0, got -1"),
    (["counterexample", "--k", "nan"], "--k must be positive, got nan"),
    (["counterexample", "--k", "inf"], "--k must be finite, got inf"),
    (["counterexample", "--k", "0"], "--k must be positive, got 0.0"),
])
def test_malformed_number_exits_2(tsallis_file, tmp_path, capsys, argv, message):
    # Exit 1 means a failed axiom check, so a malformed number must not
    # escape as a traceback; nothing is printed or written.
    out = tmp_path / "out"
    argv = [tsallis_file if a == "TSALLIS" else a for a in argv]
    rc = main(argv + ([] if argv[0] == "eval" else ["--output", str(out)]))
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


# Refusals of the CLI's own checks, each with its message: the placeholders
# name a Tsallis family file, one that is not JSON, one with an unknown
# field, a distribution file that does not exist, and a Weierstrass family
# whose series would need more terms than WeierstrassParams takes.
_LONG_SERIES = "a=0.999 with eps=1e-300 needs 697335 series terms, more than 4096"


@pytest.mark.parametrize("argv,message", [
    (["eval", "--family", "TSALLIS", "--q", "2", "--dist", "MISSING"],
     "error: distribution file not found: "),
    (["eval", "--family", "TSALLIS", "--q", "2", "--dist", "[0.5,"],
     "error: distribution is not valid JSON: "),
    (["eval", "--family", "TSALLIS", "--q", "2", "--dist", '["a", 0.5]'],
     "error: distribution must be a JSON array of numbers"),
    (["eval", "--family", "NOT_JSON", "--q", "2", "--dist", "[0.5,0.5]"],
     "is not valid JSON: "),
    (["eval", "--family", "UNKNOWN_FIELD", "--q", "2", "--dist", "[0.5,0.5]"],
     "error: unknown field 'validat', expected one of ('phi', 'alpha', 'k', 'validate')"),
    (["weierstrass", "--range=0:1"], "error: --range must look like lo:hi:step"),
    (["weierstrass", "--range=a:1:0.5"], "error: --range must contain numbers"),
    (["weierstrass", "--range=0:1:0"], "error: --range needs step > 0 and hi >= lo"),
    (["weierstrass", "--range=0:1:-0.5"], "error: --range needs step > 0 and hi >= lo"),
    (["weierstrass", "--range=1:0:0.5"], "error: --range needs step > 0 and hi >= lo"),
    (["axioms", "--family", "TSALLIS", "--samples", "0"], "error: --samples must be >= 1"),
    (["counterexample", "--depth", "1"], "error: --depth must be >= 2"),
    (["counterexample", "--k", "1e-320"], "error: --k must have a finite reciprocal, got 1e-320"),
    (["eval", "--family", "LONG_SERIES", "--q", "2", "--dist", "[0.5,0.5]"],
     f"error: field 'phi': {_LONG_SERIES}"),
    (["axioms", "--family", "LONG_SERIES"], f"error: field 'phi': {_LONG_SERIES}"),
    (["counterexample", "--a", "0.999", "--eps", "1e-300"], f"error: {_LONG_SERIES}"),
    (["weierstrass", "--a", "0.999", "--eps", "1e-300", "--x", "0.5"], f"error: {_LONG_SERIES}"),
])
def test_refused_input_exits_2(tsallis_file, tmp_path, capsys, argv, message):
    not_json = tmp_path / "not.json"
    not_json.write_text("{phi: tsallis}")
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(dict(TSALLIS_SPEC, validat=False)))
    long_series = tmp_path / "long_series.json"
    long_series.write_text(json.dumps(dict(WEIERSTRASS_SPEC, phi=dict(
        WEIERSTRASS_SPEC["phi"], a=0.999, eps=1e-300))))
    files = {"TSALLIS": tsallis_file, "NOT_JSON": str(not_json), "UNKNOWN_FIELD": str(unknown),
             "MISSING": str(tmp_path / "missing.json"), "LONG_SERIES": str(long_series)}
    out = tmp_path / "out"
    argv = [files.get(a, a) for a in argv]
    rc = main(argv + ([] if argv[0] == "eval" else ["--output", str(out)]))
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


class TestAxioms:
    def test_tsallis_all_pass(self, tsallis_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["axioms", "--family", tsallis_file, "--samples", "50",
                   "--output", str(out)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "maximality" in table and "PASS" in table
        report = json.loads(out.read_text())
        assert {c["name"] for c in report["checks"]} >= {"maximality", "shannon_limit"}

    def test_invalid_family_exits_1(self, tmp_path):
        spec = {
            "phi": {"kind": "tsallis_phi"},
            "alpha": {"kind": "tabulated", "points": [[0.01, 0.5], [10.0, 0.5]]},
            "k": 1.0,
            "validate": False,
        }
        fam = tmp_path / "const.json"
        fam.write_text(json.dumps(spec))
        out = tmp_path / "report.json"
        rc = main(["axioms", "--family", str(fam), "--samples", "50",
                   "--output", str(out)])
        assert rc == 1
        report = json.loads(out.read_text())
        verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
        assert verdicts["maximality"] == "fail"
        assert verdicts["constraint_region"] == "fail"
        assert verdicts["convexity_of_I"] == "fail"

    def test_missing_family_exits_2(self, tmp_path):
        assert main(["axioms", "--family", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("q_list,message", [
        ("0,1", "--q-list must be positive, got 0.0"),
        ("nan", "--q-list must be positive, got nan"),
        ("-1", "--q-list must be positive, got -1.0"),
        ("2,inf", "--q-list must be finite, got inf"),
    ])
    def test_bad_q_list_exits_2(self, tsallis_file, tmp_path, capsys, q_list, message):
        out = tmp_path / "report.json"
        rc = main(["axioms", "--family", tsallis_file, f"--q-list={q_list}",
                   "--samples", "20", "--output", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_q_is_not_applicable(self, tsallis_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["axioms", "--family", tsallis_file, "--q-list", "2,800",
                   "--samples", "20", "--output", str(out)])
        assert rc == 0
        verdicts = {c["name"]: c["verdict"] for c in json.loads(out.read_text())["checks"]}
        assert verdicts["pseudoadditivity"] == "not_applicable"

    @pytest.mark.parametrize("flag,field", [("--q-list", "q_grid"), ("--dims", "dims")])
    def test_empty_list_exits_2(self, tsallis_file, tmp_path, capsys, flag, field):
        out = tmp_path / "report.json"
        rc = main(["axioms", "--family", tsallis_file, f"{flag}=,",
                   "--samples", "20", "--output", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{field} must not be empty" in captured.err
        assert not out.exists()

    def test_same_seed_byte_identical_reports(self, tsallis_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            rc = main(["axioms", "--family", tsallis_file, "--samples", "50",
                       "--seed", "7", "--output", str(out)])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_is_newline_terminated(self, tsallis_file, tmp_path):
        out = tmp_path / "r.json"
        main(["axioms", "--family", tsallis_file, "--samples", "50",
              "--output", str(out)])
        assert out.read_text().endswith("\n")


class TestCounterexample:
    def test_csv_structure_and_summary(self, tmp_path, capsys):
        out = tmp_path / "ce.csv"
        rc = main(["counterexample", "--a", "0.5", "--b", "13", "--k", "1",
                   "--depth", "8", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,scale,quotient_at_1,quotient_at_off1"
        assert len(lines) == 9
        assert out.read_text().endswith("\n")
        # quotient_at_1 approaches 1: the deepest value is much closer than
        # the shallowest.
        first = float(lines[1].split(",")[2])
        last = float(lines[8].split(",")[2])
        assert abs(last - 1.0) < abs(first - 1.0)
        assert abs(last - 1.0) < 0.02
        summary = capsys.readouterr().out
        assert "phi'(1)" in summary and "target 1" in summary

    def test_csv_columns_match_library(self, tmp_path):
        out = tmp_path / "ce.csv"
        rc = main(["counterexample", "--k", "2", "--depth", "5", "--off-q", "1.3",
                   "--output", str(out)])
        assert rc == 0
        params = WeierstrassParams(0.5, 13, 1e-12)
        at_1 = difference_quotients(
            lambda q: eval_phi_counterexample(params, 2.0, q), 1.0, 13, 5)
        off = nondifferentiability_probe(params, 1.3 - 1.0, 5).quotients
        expected = [f"{m},{h!r},{d1!r},{d2!r}"
                    for m, ((h, d1), (_, d2)) in enumerate(zip(at_1, off), 1)]
        assert out.read_text().splitlines()[1:] == expected

    def test_constraint_violation_exits_2(self, capsys):
        rc = main(["counterexample", "--a", "0.5", "--b", "3"])
        assert rc == 2
        assert "1 + 3*pi/2" in capsys.readouterr().err

    def test_off_point_spread_reported(self, tmp_path, capsys):
        out = tmp_path / "ce.csv"
        rc = main(["counterexample", "--depth", "8", "--output", str(out)])
        assert rc == 0
        summary = capsys.readouterr().out
        assert "off-1 spread" in summary

    def test_too_deep_exits_2(self, tmp_path, capsys):
        rc = main(["counterexample", "--depth", "15",
                   "--output", str(tmp_path / "ce.csv")])
        assert rc == 2
        assert "deepest usable depth is 14" in capsys.readouterr().err
        assert not (tmp_path / "ce.csv").exists()

    def test_k2_target(self, tmp_path, capsys):
        out = tmp_path / "ce.csv"
        rc = main(["counterexample", "--k", "2", "--depth", "6",
                   "--output", str(out)])
        assert rc == 0
        assert "target 0.5" in capsys.readouterr().out


class TestFlags:
    UNREAD = [
        (["eval", "--family", "f.json", "--q", "2", "--dist", "[1]"], "--seed"),
        (["info-content", "--family", "f.json", "--q", "2", "--p", "1"], "--seed"),
        (["axioms", "--family", "f.json"], "--digits"),
        (["counterexample"], "--json"),
        (["counterexample"], "--seed"),
        (["counterexample"], "--spread-threshold"),
        (["weierstrass", "--x", "0"], "--json"),
        (["weierstrass", "--x", "0"], "--digits"),
        (["weierstrass", "--x", "0"], "--seed"),
    ]

    @pytest.mark.parametrize("argv, flag", UNREAD,
                             ids=[f"{argv[0]} {flag}" for argv, flag in UNREAD])
    def test_unread_flag_exits_2(self, argv, flag, capsys):
        # Each subcommand offers only the flags it reads.
        value = [] if flag == "--json" else ["1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag] + value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestWeierstrassCommand:
    def test_single_points(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        rc = main(["weierstrass", "--x", "0,1", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,W"
        x0, w0 = lines[1].split(",")
        x1, w1 = lines[2].split(",")
        assert abs(float(w0) - 2.0) <= 1e-12
        assert abs(float(w1) + 2.0) <= 1e-12

    def test_range_produces_bounded_grid(self, tmp_path):
        out = tmp_path / "w.csv"
        # Leading minus needs the = form, or argparse reads it as a flag.
        rc = main(["weierstrass", "--range=-2:2:0.001", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4002  # header + 4001 points
        for line in lines[1:]:
            _, w = line.split(",")
            assert abs(float(w)) <= 2.0 + 1e-12

    @pytest.mark.parametrize("text,xs", [
        ("0:1:0.4", ["0.0", "0.4", "0.8"]),
        ("0:0.25:0.1", ["0.0", "0.1", "0.2"]),
        ("0:2.999999999:1", ["0.0", "1.0", "2.0"]),
        # A last point past hi only by the rounding of the grid stays.
        ("0:0.3:0.1", ["0.0", "0.1", "0.2", "0.30000000000000004"]),
    ])
    def test_range_stops_at_hi(self, tmp_path, text, xs):
        out = tmp_path / "w.csv"
        assert main(["weierstrass", f"--range={text}", "--output", str(out)]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == xs

    def test_requires_x_or_range(self, tmp_path):
        assert main(["weierstrass", "--output", str(tmp_path / "w.csv")]) == 2

    def test_x_and_range_refused_together(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        with pytest.raises(SystemExit) as exc:
            main(["weierstrass", "--range=0:1:0.25", "--x", "0.5", "--output", str(out)])
        assert exc.value.code == 2
        assert "argument --x: not allowed with argument --range" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_params_exit_2(self, tmp_path):
        assert main(["weierstrass", "--a", "0.5", "--b", "4", "--x", "0",
                     "--output", str(tmp_path / "w.csv")]) == 2
