import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kstieltjes as ks
from kstieltjes.cli import main, parse_set_expression
from kstieltjes.errors import SetExpressionError
from kstieltjes.intervals import ElementarySet, Interval


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    lines = buf.getvalue().splitlines()
    body = [line for line in lines if not line.startswith("elapsed_ms=")]
    return rc, body, lines


class TestSetExpression:
    def test_basic(self):
        e = parse_set_expression("[0,0.25],(0.5,0.75)")
        assert e.parts == (Interval(0.0, 0.25), Interval.open(0.5, 0.75))

    def test_degenerate_and_whitespace(self):
        e = parse_set_expression(" [0.5] , (0.6, 0.7] ")
        assert e.parts == (Interval.at(0.5), Interval(0.6, 0.7, False, True))

    def test_empty_is_empty_set(self):
        assert parse_set_expression("") == ElementarySet.empty()
        assert parse_set_expression("   ") == ElementarySet.empty()

    def test_errors_carry_positions(self):
        with pytest.raises(SetExpressionError) as err:
            parse_set_expression("(0.5")
        assert "position 4" in str(err.value)
        with pytest.raises(SetExpressionError):
            parse_set_expression("[a,b]")
        with pytest.raises(SetExpressionError):
            parse_set_expression("[0,1] [2,3]")
        with pytest.raises(SetExpressionError):
            parse_set_expression("(0.5)")  # degenerate must be closed

    def test_normalises_to_minimal_form(self):
        e = parse_set_expression("[0,1),[1,2]")
        assert str(e) == "[0.0,2.0]"


GOLDEN_INTEGRATE_RAMP = """\
command=integrate
spec_F=F_ramp.json
digest_F=a993faeb77c6bfef
spec_g=g_one.json
digest_g=7f2a4cb54255fed6
orientation=dFg
set=[0.0,1.0]
value=[1.0]
continuous_contribution=[1.0]
jump_contribution=[0.0]"""

GOLDEN_INTEGRATE_STEP = """\
command=integrate
spec_F=F_step.json
digest_F=902469d3986689f6
spec_g=g_ramp.json
digest_g=be85c0f967f432b8
orientation=dFg
set=[0.0,1.0]
value=[0.5]
continuous_contribution=[0.0]
jump_contribution=[0.5]"""

GOLDEN_VARIATION_HAT = """\
command=variation
spec_f=f_hat.json
digest_f=de62bb81947a3a89
set=[0.0,1.0]
total=2.0
continuous_contribution=2.0
jump_contribution=0.0"""

GOLDEN_VARIATION_EMPTY = """\
command=variation
spec_f=f_hat.json
digest_f=de62bb81947a3a89
set=
total=0.0
continuous_contribution=0.0
jump_contribution=0.0"""

GOLDEN_VARIATION_SPLIT = """\
command=variation
spec_f=g_ramp.json
digest_f=be85c0f967f432b8
set=[0.0,0.25],[0.75,1.0]
total=0.5
continuous_contribution=0.5
jump_contribution=0.0"""

GOLDEN_CONVERGE_POWER = """\
command=converge
spec_F=F_ramp.json
digest_F=a993faeb77c6bfef
family=power
ns=1,2,4,8,16,32,64,128,256,512,1024
threshold=0.001
bound=1.0
integral_limit=[0.0]
n=1 integral=[0.5] error=0.5
n=2 integral=[0.3333333333333333] error=0.3333333333333333
n=4 integral=[0.2] error=0.2
n=8 integral=[0.1111111111111111] error=0.1111111111111111
n=16 integral=[0.058823529411764705] error=0.058823529411764705
n=32 integral=[0.030303030303030304] error=0.030303030303030304
n=64 integral=[0.015384615384615385] error=0.015384615384615385
n=128 integral=[0.007751937984496124] error=0.007751937984496124
n=256 integral=[0.0038910505836575876] error=0.0038910505836575876
n=512 integral=[0.001949317738791423] error=0.001949317738791423
n=1024 integral=[0.000975609756097561] error=0.000975609756097561
passed=true"""

GOLDEN_ORACLE_STEP = """\
command=oracle
spec_F=F_step.json
digest_F=902469d3986689f6
spec_g=g_ramp.json
digest_g=be85c0f967f432b8
orientation=dFg
tol=1e-08
value=[0.5]"""

GOLDEN_DECOMPOSE = """\
command=decompose
spec_f=f_mixed.json
digest_f=c49e2a53d184d660
continuous_file=f_mixed_continuous.json
break_file=f_mixed_break.json
break_jumps=1"""


def _value_line(body, key):
    (line,) = [l for l in body if l.startswith(key + "=")]
    text = line.split("=", 1)[1]
    return np.array([float(x) for x in text.strip("[]").split(",")])


class TestGolden:
    def test_integrate_ramp(self, specs):
        rc, body, _ = run_cli(["integrate", "F_ramp.json", "g_one.json", "--set", "[0,1]"])
        assert rc == 0
        assert "\n".join(body) == GOLDEN_INTEGRATE_RAMP
        assert abs(_value_line(body, "value")[0] - 1.0) < 1e-12

    def test_integrate_step(self, specs):
        rc, body, _ = run_cli(["integrate", "F_step.json", "g_ramp.json", "--set", "[0,1]"])
        assert rc == 0
        assert "\n".join(body) == GOLDEN_INTEGRATE_STEP
        assert abs(_value_line(body, "value")[0] - 0.5) < 1e-12

    def test_variation_hat(self, specs):
        rc, body, _ = run_cli(["variation", "f_hat.json", "--set", "[0,1]"])
        assert rc == 0
        assert "\n".join(body) == GOLDEN_VARIATION_HAT

    def test_variation_empty_set(self, specs):
        rc, body, _ = run_cli(["variation", "f_hat.json", "--set", ""])
        assert rc == 0
        assert "\n".join(body) == GOLDEN_VARIATION_EMPTY

    def test_variation_two_parts(self, specs):
        rc, body, _ = run_cli(["variation", "g_ramp.json", "--set", "[0,0.25],[0.75,1]"])
        assert rc == 0
        assert "\n".join(body) == GOLDEN_VARIATION_SPLIT

    def test_converge_power(self, specs):
        rc, body, _ = run_cli(["converge", "F_ramp.json", "--family", "power",
                               "--ns", "1,2,4,8,16,32,64,128,256,512,1024",
                               "--threshold", "1e-3"])
        assert rc == 0
        assert "\n".join(body) == GOLDEN_CONVERGE_POWER

    def test_oracle_step(self, specs):
        rc, body, _ = run_cli(["oracle", "F_step.json", "g_ramp.json", "--tol", "1e-8"])
        assert rc == 0
        assert "\n".join(body) == GOLDEN_ORACLE_STEP

    def test_decompose_roundtrip(self, specs):
        rc, body, _ = run_cli(["decompose", "f_mixed.json"])
        assert rc == 0
        assert "\n".join(body) == GOLDEN_DECOMPOSE
        f = ks.load_function("f_mixed.json")
        fc = ks.load_function("f_mixed_continuous.json")
        fb = ks.load_function("f_mixed_break.json")
        ts = np.linspace(0.0, 1.0, 100)
        resum = fc.eval_many(ts) + fb.eval_many(ts)
        assert np.max(np.abs(resum - f.eval_many(ts))) < 1e-12
        assert fc.jumps(tol=1e-12) == []

    def test_decompose_pure_step(self, specs):
        rc, _, _ = run_cli(["decompose", "F_step.json"])
        assert rc == 0
        fc = ks.load_function("F_step_continuous.json")
        fb = ks.load_function("F_step_break.json")
        ts = np.linspace(0.0, 1.0, 50)
        assert np.all(fc.eval_many(ts) == 0.0)
        assert np.array_equal(fb.eval_many(ts),
                              ks.load_function("F_step.json").eval_many(ts))

    def test_decompose_continuous(self, specs):
        rc, _, _ = run_cli(["decompose", "g_ramp.json"])
        assert rc == 0
        fb = ks.load_function("g_ramp_break.json")
        assert np.all(fb.eval_many(np.linspace(0, 1, 50)) == 0.0)

    def test_orientation_fdg(self, specs):
        ks.save_function(ks.step((0.0, 1.0), Interval.closed(0.5, 1.0), 1.0),
                         "g_step.json")
        rc, body, _ = run_cli(["integrate", "F_ramp.json", "g_step.json",
                               "--orientation", "Fdg"])
        assert rc == 0
        assert "orientation=Fdg" in body
        assert abs(_value_line(body, "value")[0] - 0.5) < 1e-12

    def test_converge_spike_errors(self, specs):
        rc, body, _ = run_cli(["converge", "F_ramp.json", "--family", "spike",
                               "--center", "0", "--height", "1",
                               "--ns", "1,2,4,8", "--threshold", "10"])
        assert rc == 0
        errors = [float(line.rsplit("error=", 1)[1])
                  for line in body if line.startswith("n=")]
        assert errors == [1.0, 0.5, 0.25, 0.125]

    def test_converge_spike_center_outside(self, specs, capsys):
        """A spike center off the domain exits 3, with the domain error."""
        for center in ("2", "-0.5"):
            assert main(["converge", "F_ramp.json", "--family", "spike",
                         "--center", center, "--height", "1", "--ns", "1,2",
                         "--threshold", "1"]) == 3
            assert "is not inside [0.0, 1.0]" in capsys.readouterr().err

    def test_converge_truncation(self, specs):
        """Jumps 1 at 1/4 and 2 at 1/2 against ``t``: dropping the second
        leaves 2 (1 - 1/2) of the limit's 1 (1 - 1/4) + 2 (1 - 1/2)."""
        fb = ks.lincomb(1.0, ks.step((0.0, 1.0), Interval(0.25, 1.0, False, True), 1.0),
                        1.0, ks.step((0.0, 1.0), Interval(0.5, 1.0, False, True), 2.0))
        ks.save_function(fb, "fb.json")
        rc, body, _ = run_cli(["converge", "F_ramp.json", "--family", "truncation",
                               "--family-file", "fb.json", "--ns", "1,2", "--threshold", "0.5"])
        assert rc == 0
        assert "family=truncation" in body and "passed=true" in body
        assert _value_line(body, "integral_limit")[0] == 1.75
        errors = [float(line.rsplit("error=", 1)[1]) for line in body if line.startswith("n=")]
        assert errors == [1.0, 0.0]

    def test_converge_truncation_needs_a_file(self, specs, capsys):
        assert main(["converge", "F_ramp.json", "--family", "truncation",
                     "--ns", "1", "--threshold", "1"]) == 2
        assert "the truncation family needs --family-file" in capsys.readouterr().err

    def test_converge_spike_needs_center_and_height(self, specs, capsys):
        for given in (["--center", "0.5"], ["--height", "1"], []):
            assert main(["converge", "F_ramp.json", "--family", "spike", *given,
                         "--ns", "1", "--threshold", "1"]) == 2
            assert "the spike family needs --center and --height" in capsys.readouterr().err

    def test_successive_calls_share_one_parser(self, specs, capsys):
        """The parser is built once per process and left as it was by every
        parse: calls in a row, a bad ``--set`` among them, each print their
        golden."""
        from kstieltjes import cli
        calls = [(["integrate", "F_ramp.json", "g_one.json", "--set", "[0,1]"],
                  GOLDEN_INTEGRATE_RAMP),
                 (["variation", "f_hat.json", "--set", "[0,1]"], GOLDEN_VARIATION_HAT),
                 (["variation", "f_hat.json", "--set", "[0,0.5"], None),
                 (["converge", "F_ramp.json", "--family", "power", "--threshold", "1e-3",
                   "--ns", "1,2,4,8,16,32,64,128,256,512,1024"], GOLDEN_CONVERGE_POWER),
                 (["variation", "f_hat.json", "--set", ""], GOLDEN_VARIATION_EMPTY),
                 (["integrate", "F_step.json", "g_ramp.json", "--set", "[0,1]"],
                  GOLDEN_INTEGRATE_STEP)]
        for argv, golden in calls:
            rc, body, _ = run_cli(argv)
            if golden is None:
                assert rc == 2 and "error:" in capsys.readouterr().err
            else:
                assert rc == 0 and "\n".join(body) == golden
        assert cli._build_parser.cache_info().currsize == 1

    def test_reports_are_deterministic(self, specs):
        _, body1, _ = run_cli(["integrate", "F_ramp.json", "g_one.json"])
        _, body2, _ = run_cli(["integrate", "F_ramp.json", "g_one.json"])
        assert body1 == body2

    def test_out_flag_writes_report(self, specs):
        rc, body, full = run_cli(["variation", "f_hat.json", "--set", "[0,1]",
                                  "--out", "report.txt"])
        assert rc == 0
        written = (specs / "report.txt").read_text().splitlines()
        assert [l for l in written if not l.startswith("elapsed_ms=")] == body


class TestExitCodes:
    def test_parse_error_in_set(self, specs, capsys):
        assert main(["integrate", "F_ramp.json", "g_one.json", "--set", "(0.5"]) == 2
        assert "position 4" in capsys.readouterr().err

    def test_parse_error_in_spec_file(self, specs, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["variation", str(bad)]) == 2

    def test_missing_file(self, specs):
        assert main(["variation", "nope.json"]) == 2

    def test_non_finite_spec(self, specs, capsys):
        doc = json.loads((specs / "f_hat.json").read_text())
        doc["pieces"][0]["coeffs"] = [[float("nan")]]
        (specs / "f_nan.json").write_text(json.dumps(doc))
        assert main(["variation", "f_nan.json"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_string_number_in_spec(self, specs, capsys):
        doc = json.loads((specs / "f_hat.json").read_text())
        doc["domain"] = ["0", 1]
        (specs / "f_str.json").write_text(json.dumps(doc))
        assert main(["variation", "f_str.json"]) == 2
        assert "string or a boolean" in capsys.readouterr().err

    def test_malformed_dim(self, specs, capsys):
        doc = json.loads((specs / "f_hat.json").read_text())
        doc["codomain"]["dim"] = 1.7
        (specs / "f_dim.json").write_text(json.dumps(doc))
        assert main(["variation", "f_dim.json"]) == 2
        assert "'dim'" in capsys.readouterr().err

    def test_domain_error(self, specs):
        assert main(["integrate", "F_ramp.json", "g_one.json", "--set", "[0,2]"]) == 3

    def test_dimension_mismatch(self, specs):
        ks.save_function(ks.scaled_identity((0.0, 1.0), [0.0, 1.0], dim=2), "F_dim2.json")
        assert main(["integrate", "F_dim2.json", "g_one.json"]) == 3

    def test_hypothesis_violation(self, specs):
        rc = main(["converge", "F_ramp.json", "--family", "spike",
                   "--center", "0", "--height", "5",
                   "--ns", "1,2,4", "--threshold", "1", "--bound", "1"])
        assert rc == 4

    @pytest.mark.parametrize("flag, value", [("--bound", "nan"), ("--bound", "inf"),
                                             ("--threshold", "nan"), ("--threshold", "inf")])
    def test_non_finite_bound_or_threshold(self, specs, capsys, flag, value):
        # with --bound 0.5 the power family violates the bound (exit 4); a
        # NaN bound used to switch that check off and exit 0
        args = {"--threshold": "0.5", "--bound": "0.5", flag: value}
        rc = main(["converge", "F_ramp.json", "--family", "power", "--ns", "1,2,4",
                   *(item for pair in args.items() for item in pair)])
        assert rc == 3
        assert "must be finite" in capsys.readouterr().err

    def test_oracle_failure(self, specs):
        # quadratic integrator: the sums improve forever but never repeat
        # bitwise, so an absurd tolerance exhausts the level budget
        ks.save_function(ks.scaled_identity((0.0, 1.0), [0.0, 0.0, 1.0], dim=1),
                         "F_quad.json")
        rc = main(["oracle", "F_quad.json", "g_ramp.json", "--tol", "1e-300"])
        assert rc == 5

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_non_positive_tol(self, specs, capsys, tol):
        assert main(["oracle", "F_ramp.json", "g_ramp.json", "--tol", tol]) == 3
        assert "tol must be positive" in capsys.readouterr().err

    def test_bad_flags(self, specs):
        assert main(["converge", "F_ramp.json", "--family", "power",
                     "--ns", "fish", "--threshold", "1"]) == 2

    def test_success_is_zero(self, specs):
        assert main(["variation", "f_hat.json"]) == 0


def test_console_entry_point_runs(specs):
    # The fixture moved cwd to a tmp dir, so a relative PYTHONPATH no longer
    # resolves; hand the child the absolute directory of the imported package.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ks.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-m", "kstieltjes", "variation", "f_hat.json", "--set", "[0,1]"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "total=2.0" in proc.stdout, proc.stderr
