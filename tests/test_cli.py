import argparse
import ast
import contextlib
import importlib
import io
import json
import math
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combidetect import FAMILIES, ExplicitClass, SetClass, __version__, exact_overlap_mgf, make_class
from combidetect import bounds, cli
from combidetect.bounds import _PROPOSITIONS, PROPS
from combidetect.cli import _MAX_GRID_COUNT, build_parser, main
from combidetect.rules import TESTS


README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRiskCommand:
    def test_csv_structure(self, capsys):
        code, out, err = run(
            capsys, "risk", "--class", "disjoint", "--N", "3", "--K", "2",
            "--test", "optimal", "--mu", "0.5", "--mu", "1.5",
            "--trials", "200", "--seed", "7",
        )
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "#schema=combidetect.risk.v1"
        assert lines[1] == f"#version={__version__}"
        cfg = json.loads(lines[2].removeprefix("#config="))
        assert cfg["class"] == "disjoint" and cfg["seed"] == 7
        assert "workers" not in cfg
        assert lines[3] == "mu,type1,se1,type2,se2,total,se_total,trials"
        assert len(lines) == 6
        assert lines[4].startswith("0.5,")
        assert lines[5].startswith("1.5,")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "risk", "--class", "stars", "--m", "4", "--test", "averaging",
            "--mu", "1.0", "--trials", "100", "--seed", "3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "combidetect.risk.v1"
        assert doc["results"][0]["trials"] == 100
        assert "critical_mu" not in doc

    def test_maximum_defaults_emax0_to_cap(self, capsys):
        code, out, _ = run(
            capsys, "risk", "--class", "disjoint", "--N", "4", "--K", "2",
            "--test", "maximum", "--mu", "1.0", "--trials", "50", "--seed", "5",
        )
        assert code == 0
        cfg = json.loads(out.split("\n")[2].removeprefix("#config="))
        assert cfg["emax0"] == pytest.approx(math.sqrt(2 * 2 * math.log(4)))

    def test_averaging_mu_zero_is_config_error(self, capsys):
        code, out, err = run(
            capsys, "risk", "--class", "stars", "--m", "4", "--test", "averaging",
            "--mu", "0.0", "--trials", "10", "--seed", "1",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "DegenerateParameterError"


class TestScanCommand:
    def test_scan_with_footer(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--class", "disjoint", "--N", "4", "--K", "4",
            "--test", "averaging", "--mu-grid", "0.1:3.0:5",
            "--trials", "400", "--seed", "11",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[-1].startswith("#critical_mu=")
        assert len(lines) == 4 + 5 + 1

    def test_bad_grid_is_config_error(self, capsys):
        code, _, err = run(
            capsys, "scan", "--class", "stars", "--m", "4", "--test", "optimal",
            "--mu-grid", "1:2", "--trials", "10", "--seed", "1",
        )
        assert code == 2
        assert "start:stop:count" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("count", ["1", str(_MAX_GRID_COUNT + 1)])
    def test_grid_count_out_of_range_is_config_error(self, capsys, count):
        code, out, err = run(
            capsys, "scan", "--class", "stars", "--m", "4", "--test", "optimal",
            "--mu-grid", f"0:1:{count}", "--trials", "2", "--seed", "1",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"] == "--mu-grid needs 2 <= count <= 10,000"


class TestReproducibility:
    def test_worker_count_does_not_change_bytes(self, capsys, tmp_path):
        args = [
            "risk", "--class", "ksets", "--n", "10", "--K", "2",
            "--test", "optimal", "--mu", "0.8", "--trials", "600", "--seed", "42",
        ]
        paths = []
        for i, workers in enumerate(("1", "3")):
            p = tmp_path / f"out{i}.csv"
            code = main(args + ["--workers", workers, "--out", str(p)])
            assert code == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        args = [
            "emax", "--class", "matchings", "--m", "4", "--trials", "400",
            "--seed", "9",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_out_file_uses_lf(self, tmp_path):
        p = tmp_path / "o.csv"
        assert main([
            "risk", "--class", "stars", "--m", "4", "--test", "optimal",
            "--mu", "0.5", "--trials", "50", "--seed", "2", "--out", str(p),
        ]) == 0
        raw = p.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").endswith("\n")


class TestOutPath:
    ARGV = ["bounds", "--prop", "universal", "--K", "8", "--seed", "1"]

    @pytest.mark.parametrize("where", ["missing directory", "directory", "file as directory", "empty"])
    def test_unwritable_out_is_refused_before_any_work(self, capsys, tmp_path, monkeypatch, where):
        (tmp_path / "f").write_text("")
        out = {
            "missing directory": tmp_path / "no-such-dir" / "x.csv",
            "directory": tmp_path,
            "file as directory": tmp_path / "f" / "x.csv",
            "empty": "",
        }[where]
        ran = []
        monkeypatch.setitem(cli._RUNNERS, "bounds", ran.append)
        code, out_text, err = run(capsys, *self.ARGV, "--out", str(out))
        assert (code, out_text, ran) == (2, "", [])
        assert json.loads(err)["error"]["type"] == "ValueError"
        assert "--out" in json.loads(err)["error"]["message"]

    def test_relative_out_in_the_working_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *self.ARGV, "--out", "x.csv") == (0, "", "")
        assert (tmp_path / "x.csv").read_text().startswith("#schema=combidetect.bound.v1\n")

    def test_write_failure_after_the_run_exits_2(self, capsys, tmp_path, monkeypatch):
        # the directory goes away while the run computes
        target = tmp_path / "gone"
        target.mkdir()
        run_bounds = cli._RUNNERS["bounds"]

        def run_then_remove(args):
            text = run_bounds(args)
            target.rmdir()
            return text

        monkeypatch.setitem(cli._RUNNERS, "bounds", run_then_remove)
        code, out_text, err = run(capsys, *self.ARGV, "--out", str(target / "x.csv"))
        assert (code, out_text) == (2, "")
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"


class TestErrorExits:
    @pytest.mark.parametrize("argv, code, error, message", [
        ("scan --class stars --m 3 --test optimal --mu-grid 1:1e200:3 --trials 5",
         2, "OverflowError", "the optimal threshold at mu = 5e+199 is past the float range"),
        ("risk --class disjoint --N 3 --K 2 --test optimal --mu 1e200 --trials 5",
         2, "OverflowError", "the optimal threshold at mu = 1e+200 is past the float range"),
        ("risk --class ksets --n 5 --K 2 --test averaging --mu 1 --mu 9e307 --trials 5",
         2, "OverflowError", "the averaging threshold at mu = 9e+307 is past the float range"),
        ("scan --class stars --m 4 --test averaging --mu-grid 0:2:3 --trials 5",
         2, "DegenerateParameterError", "averaging test is undefined at mu = 0"),
        ("risk --class matchings --m 8 --test optimal --mu 0 --mu 1 --trials 5 --cap 100",
         3, "CapExceededError", "the subset DP has 256 mask states, enumeration capped at 100"),
    ])
    def test_a_grid_is_refused_as_its_first_refused_point(self, capsys, argv, code, error, message):
        # every point's trials share slices, yet the refusal is the one a
        # point-by-point loop raised first
        got, out, err = run(capsys, *argv.split(), "--seed", "1")
        assert (got, out) == (code, "")
        assert json.loads(err)["error"] == {"message": message, "type": error}

    def test_matchings_cap_spares_a_grid_at_mu_zero(self, capsys):
        argv = "risk --class matchings --m 8 --test optimal --mu 0 --trials 5 --cap 100 --seed 1"
        code, out, err = run(capsys, *argv.split())
        assert code == 0 and err == "" and out.startswith("#schema=combidetect.risk.v1\n")

    def test_invalid_class_parameters(self, capsys):
        code, out, err = run(
            capsys, "risk", "--class", "ksets", "--n", "3", "--K", "9",
            "--test", "optimal", "--mu", "1.0", "--trials", "10", "--seed", "1",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_cap_exceeded_is_exit_3(self, capsys):
        code, out, err = run(
            capsys, "emax", "--class", "cliques", "--m", "40", "--k", "8",
            "--trials", "10", "--seed", "1",
        )
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "CapExceededError"

    def test_cap_override_flag(self, capsys):
        code, _, err = run(
            capsys, "emax", "--class", "cliques", "--m", "10", "--k", "3",
            "--trials", "20", "--seed", "1", "--cap", "50",
        )
        assert code == 3  # N = 120 > 50
        assert "120" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("test", ["optimal", "maximum"])
    def test_disjoint_rules_refuse_past_the_cap(self, capsys, test):
        # both rules gather the N x K member matrix, so N = 8 > --cap 7 refuses
        argv = f"risk --class disjoint --N 8 --K 8 --test {test} --mu 1 --trials 5 --seed 1 --cap".split()
        code, out, err = run(capsys, *argv, "7")
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["message"] == "class has 8 members, enumeration capped at 7"
        code, out, err = run(capsys, *argv, "8")
        assert code == 0 and err == "" and out.startswith("#schema=combidetect.risk.v1\n")

    @pytest.mark.parametrize("argv, size", [
        ("risk --class cliques --m 7 --k 5 --test optimal --mu 1 --trials 5", 21),
        ("scan --class cliques --m 7 --k 5 --test maximum --mu-grid 0.5:1:2 --trials 5", 21),
        ("emax --class cliques --m 7 --k 5 --trials 5", 21),
        ("cover --class cliques --m 7 --k 5 --radius 1", 21),
        ("nonmono --K 3 --epsilon 0.8 --trials 5", 17),
        ("bounds --prop dudley --constant 1.0 --class cliques --m 7 --k 5", 21),
        ("bounds --prop type1-cover --delta 0.1 --class cliques --m 7 --k 5 --trials 5", 21),
    ])
    def test_every_enumerating_command_honours_the_cap(self, capsys, argv, size):
        # 5-cliques and the nonmono union class have no structured kernel, so
        # a cap one below the class size refuses and the size itself runs
        code, out, err = run(capsys, *argv.split(), "--seed", "1", "--cap", str(size - 1))
        assert (code, out) == (3, "")
        message = f"class has {size} members, enumeration capped at {size - 1}"
        assert json.loads(err)["error"] == {"message": message, "type": "CapExceededError"}
        code, out, err = run(capsys, *argv.split(), "--seed", "1", "--cap", str(size))
        assert code == 0 and err == "" and out.startswith("#schema=combidetect.")

    @pytest.mark.parametrize("flag", ["--workers", "--cap"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_count_below_one_is_config_error(self, capsys, flag, value):
        code, out, err = run(
            capsys, "risk", "--class", "stars", "--m", "4", "--test", "optimal",
            "--mu", "1.0", "--trials", "10", "--seed", "1", flag, value,
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and f"{flag} must be at least 1" in error["message"]

    @pytest.mark.parametrize("argv", [
        "bounds --prop dudley --class ksets --n 6 --K 2 --constant nan",
        "bounds --prop vc-cover --n 100 --V 2 --t nan",
        "bounds --prop pairs --mgf inf",
        "cover --class ksets --n 6 --K 2 --radius nan",
        "risk --class stars --m 4 --test optimal --mu 1.0 --mu inf --trials 10",
        "risk --class stars --m 4 --test maximum --mu 1.0 --emax0=-inf --trials 10",
        "scan --class stars --m 4 --test optimal --mu-grid nan:1:3 --trials 10",
        "scan --class stars --m 4 --test optimal --mu-grid 0:inf:3 --trials 10",
        "overlap --class stars --m 4 --mu nan",
        "nonmono --K 3 --epsilon nan --trials 10",
    ])
    def test_non_finite_float_is_config_error(self, capsys, argv):
        code, out, err = run(capsys, *argv.split(), "--seed", "1")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and "finite" in error["message"]

    @pytest.mark.parametrize("argv", [
        "risk --class stars --m 6 --test optimal --mu -0.8 --trials 10",
        "overlap --class stars --m 6 --mu -0.8",
        "overlap --class ksets --n 10 --K 3 --mu -0.8",
    ])
    def test_negative_mu_is_config_error(self, capsys, argv):
        code, out, err = run(capsys, *argv.split(), "--seed", "1")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and error["message"] == "mu must be finite and nonnegative"

    @pytest.mark.parametrize("argv", [
        "bounds --prop vc-cover --n 1 --V 1 --t 1e-200",
        "bounds --prop vc-cover --n 1 --V 1 --t 1e-160",
        "bounds --prop vc-cover --n 100 --V 2 --t 1.5",
        "overlap --class stars --m 5 --mu 40",
        "overlap --class ksets --n 30 --K 5 --mu 30 --pairs 50",
        "overlap --class trees --m 5 --mu 30 --pairs 50 --workers 1",
        "overlap --class trees --m 5 --mu 40 --pairs 50",
        "overlap --class grid --sqrt-n 4 --sqrt-K 2 --mu 30 --pairs 50",
        "overlap --class grid --sqrt-n 4 --sqrt-K 2 --mu 40 --pairs 50",
        "overlap --class trees --m 5 --mu 0.8 --pairs 50",
        "bounds --prop dudley --class ksets --n 4 --K 2 --constant 1e308",
        # refused before the grid is built: numpy would ask for 745 GiB
        "scan --class stars --m 4 --test optimal --mu-grid 0:1:100000000000 --trials 2",
    ])
    def test_boundary_values_exit_cleanly_with_finite_output(self, capsys, argv):
        # main returns rather than raising, and no printed number is inf or nan
        code, out, err = run(capsys, *argv.split(), "--seed", "1")
        assert code in (0, 2, 3)
        if code == 2:
            refusal = "ValueError" if argv.startswith("scan") else "OverflowError"
            assert out == "" and json.loads(err)["error"]["type"] == refusal
        _assert_printed_floats_finite(out, argv)

    @pytest.mark.parametrize("argv", [
        "risk --class stars --m 3 --test optimal --mu 1e154",
        "risk --class ksets --n 4 --K 2 --test optimal --mu 1e154",
        "risk --class disjoint --N 2 --K 2 --test optimal --mu 1e154",
        "risk --class trees --m 3 --test optimal --mu 1e154",
        "risk --class cliques --m 4 --k 3 --test optimal --mu 1e154",
        "risk --class ksets --n 5 --K 2 --test averaging --mu 9e307",
        "risk --class ksets --n 5 --K 2 --test maximum --mu 1e308",
    ])
    def test_rule_past_the_float_range_is_refused(self, capsys, argv):
        # each used to decide every trial alike and print type2 = 1
        code, out, err = run(capsys, *argv.split(), "--trials", "5", "--seed", "1")
        assert code == 2 and out == "" and "RuntimeWarning" not in err
        error = json.loads(err)["error"]
        assert error["type"] == "OverflowError" and "past the float range" in error["message"]

    @pytest.mark.parametrize("argv", [
        "bounds --prop averaging --n 10 --K 2",
        "bounds --prop maxtest --emax0 2 --K 2",
        "bounds --prop cliques --m 40 --k 2",
        "bounds --prop type1-cover --class ksets --n 4 --K 2 --trials 5",
    ])
    def test_subnormal_delta_is_refused_before_any_draw(self, capsys, monkeypatch, argv):
        # 2 / 1e-320 is inf, so the bound would print value,inf
        monkeypatch.setattr(bounds, "estimate_emax0", lambda *a, **k: pytest.fail("drew first"))
        code, out, err = run(capsys, *argv.split(), "--delta", "1e-320", "--seed", "1")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "OverflowError" and "delta = 1e-320" in error["message"]

    @pytest.mark.parametrize("prop,name,value", [
        (prop, name, value)
        for prop in ("universal", "averaging", "maxtest", "symmetric", "negass")
        for name in ("n", "K") if name in _PROPOSITIONS[prop].inputs
        for value in ("0", "-3")
    ])
    def test_size_below_one_is_config_error(self, capsys, prop, name, value):
        sizes = {"n": "10", "K": "2"} | {name: value}
        code, out, err = run(
            capsys, "bounds", "--prop", prop, "--n", sizes["n"], "--K", sizes["K"],
            "--delta", "0.1", "--emax0", "3.0", "--seed", "1", "--format", "json",
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and f"needs {name} >= 1, got {value}" in error["message"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_small_random_subclass_is_degenerate_error(self, capsys, fmt):
        code, out, err = run(
            capsys, "bounds", "--prop", "random-subclass", "--K", "10", "--M", "10",
            "--t", "4.0", "--seed", "1", "--format", fmt,
        )
        assert code == 2 and out == ""
        assert '"type": "DegenerateParameterError"' in err
        assert "M <= 16" in json.loads(err)["error"]["message"]

    def test_missing_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["risk", "--class", "stars", "--m", "4", "--test", "optimal",
                  "--mu", "1.0"])
        assert exc.value.code == 2

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["risk", "--class", "hexagons", "--test", "optimal",
                  "--mu", "1.0", "--seed", "1"])
        assert exc.value.code == 2


def _assert_printed_floats_finite(out, argv):
    for token in re.findall(r'[^\s,:;=\[\]{}"]+', out):
        try:
            value = float(token)
        except ValueError:
            continue
        assert math.isfinite(value), (argv, token)


#: each family's size flags over its smallest classes, some below the least valid size
FAMILY_SIZES = {
    "disjoint": {"N": st.integers(0, 2), "K": st.integers(1, 2)},
    "ksets": {"n": st.integers(1, 4), "K": st.integers(1, 3)},
    "stars": {"m": st.integers(2, 4)},
    "matchings": {"m": st.integers(1, 4)},
    "trees": {"m": st.integers(1, 4)},
    "cliques": {"m": st.integers(2, 4), "k": st.integers(2, 3)},
    "grid": {"sqrt_n": st.integers(1, 3), "sqrt_K": st.integers(1, 2)},
}
COMMANDS = sorted(next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices)
MUS = st.sampled_from([0.0, 1e-300, 0.5, 40.0, 1e154, 1e308])
DELTAS = st.sampled_from([1e-320, 1e-300, 0.1, 1.0])
#: at most 50 trials or pairs; 0 and 1 are refused or too few for some commands
COUNTS = st.sampled_from([0, 1, 2, 50])


def _as_flags(values: dict) -> list[str]:
    return [tok for k, v in values.items() for tok in ("--" + k.replace("_", "-"), str(v))]


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(COMMANDS))
    family = draw(st.sampled_from(sorted(FAMILY_SIZES)))
    sizes = {"class": family} | {k: draw(v) for k, v in FAMILY_SIZES[family].items()}
    # --workers 2 never starts a process here: no call draws 2**16 normals
    common = {"seed": 1, "workers": draw(st.sampled_from([0, 1, 2])),
              "format": draw(st.sampled_from(["csv", "json"]))}
    trials, mu = {"trials": draw(COUNTS)}, draw(MUS)
    if command in ("risk", "scan"):
        test = {"test": draw(st.sampled_from(TESTS))}
        grid = {"mu": mu} if command == "risk" else {"mu_grid": f"0:{mu}:{draw(st.sampled_from([2, 3]))}"}
        values = sizes | test | grid | trials
    elif command == "bounds":
        prop = draw(st.sampled_from(PROPS))
        scalars = {"n": 3, "K": 2, "m": 40, "k": 2, "emax0": draw(st.sampled_from([0.0, 2.0, 40.0])),
                   "mgf": draw(st.sampled_from([1.0, 2.0, 40.0])), "t": draw(st.sampled_from([0.5, 1.0])),
                   "M": 17, "V": 1}
        # the class-dependent propositions take the class flags, the others the scalars
        constant = {"constant": draw(st.sampled_from([1.0, 1e308]))}
        values = {"prop": prop, "delta": draw(DELTAS)} | (
            sizes | constant | trials if prop in ("dudley", "type1-cover") else scalars
        )
    elif command == "overlap":
        values = sizes | {"mu": mu, "pairs": draw(COUNTS)}
    elif command == "emax":
        values = sizes | trials
    elif command == "cover":
        values = sizes | {"radius": draw(st.sampled_from([0.0, 1.0, 40.0]))}
    else:  # nonmono
        values = {"K": draw(st.integers(1, 3)), "epsilon": draw(st.sampled_from([0.5, 0.9]))} | trials
    return [command, *_as_flags(values | common)]


@settings(max_examples=200, deadline=None)
@given(argv=command_lines())
def test_every_command_exits_cleanly_with_finite_output(argv):
    # exit 0, 2 or 3 and no traceback, whatever the boundary value
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    if code:
        error = json.loads(err)["error"]
        assert out == "" and (code == 3) == (error["type"] == "CapExceededError"), (argv, err)
    else:
        assert err == ""
    _assert_printed_floats_finite(out, argv)


class TestOverlapCommand:
    def test_exact_family_reports_zero_se(self, capsys):
        code, out, _ = run(
            capsys, "overlap", "--class", "stars", "--m", "6", "--mu", "0.5",
            "--seed", "4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is True and doc["mgf_se"] == 0.0
        expect = exact_overlap_mgf(make_class("stars", m=6), 0.5)
        assert doc["mgf"] == pytest.approx(expect, rel=1e-12)
        assert 0.0 <= doc["risk_lower_bound"] <= 1.0

    def test_monte_carlo_family(self, capsys):
        code, out, _ = run(
            capsys, "overlap", "--class", "ksets", "--n", "12", "--K", "3",
            "--mu", "0.4", "--pairs", "500", "--seed", "4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is False and doc["mgf_se"] > 0


class TestEmaxCoverNonmono:
    def test_emax_fields(self, capsys):
        code, out, _ = run(
            capsys, "emax", "--class", "disjoint", "--N", "9", "--K", "2",
            "--trials", "300", "--seed", "8", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["gaussian_cap"] == pytest.approx(math.sqrt(2 * 2 * math.log(9)))
        assert 0 < doc["emax0"] < doc["gaussian_cap"]

    def test_cover_csv_uses_semicolons(self, capsys):
        code, out, _ = run(
            capsys, "cover", "--class", "disjoint", "--N", "3", "--K", "2",
            "--radius", "0.5", "--seed", "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[3] == "set_id,indices"
        assert lines[4] == "1,1;2"
        assert lines[-1] == "#cover_size=3"

    def test_cover_json_members(self, capsys):
        code, out, _ = run(
            capsys, "cover", "--class", "grid", "--sqrt-n", "4", "--sqrt-K", "2",
            "--radius", "2.0", "--seed", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["cover_size"] == len(doc["members"])
        assert all("," in m for m in doc["members"])

    def test_nonmono_json(self, capsys):
        code, out, _ = run(
            capsys, "nonmono", "--K", "3", "--epsilon", "0.9",
            "--trials", "200", "--seed", "5", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 16
        assert "gap" in doc and "risk_disjoint_total" in doc
        assert doc["config"]["K"] == 3

    def test_nonmono_invalid_epsilon(self, capsys):
        code, _, err = run(
            capsys, "nonmono", "--K", "3", "--epsilon", "0.2",
            "--trials", "10", "--seed", "5",
        )
        assert code == 2


class TestBoundsCommand:
    def test_universal_json(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--prop", "universal", "--K", "8", "--seed", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(0.37926380822046607)

    def test_every_scalar_prop_runs(self, capsys):
        invocations = {
            "averaging": ["--n", "100", "--K", "10", "--delta", "0.2"],
            "maxtest": ["--emax0", "2.0", "--K", "49", "--delta", "0.2"],
            "universal": ["--K", "8"],
            "pairs": ["--mgf", "1.2"],
            "symmetric": ["--n", "45", "--K", "5", "--delta", "0.3"],
            "negass": ["--n", "25", "--K", "5", "--delta", "0.5"],
            "cliques": ["--m", "63", "--k", "4", "--delta", "0.2"],
            "random-subclass": ["--K", "10", "--M", "160", "--t", "0.0"],
            "vc-cover": ["--n", "100", "--V", "2", "--t", "1.5"],
        }
        for prop, extra in invocations.items():
            code, out, err = run(
                capsys, "bounds", "--prop", prop, "--seed", "1",
                "--format", "json", *extra,
            )
            assert code == 0, f"{prop}: {err}"
            assert json.loads(out)["name"] == prop

    def test_class_dependent_props(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--prop", "dudley", "--constant", "1.0",
            "--class", "stars", "--m", "5", "--seed", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["direction"] == "upper_bound_on_emax0"
        code, out, _ = run(
            capsys, "bounds", "--prop", "type1-cover", "--delta", "0.1",
            "--class", "stars", "--m", "6", "--trials", "300", "--seed", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["extras"]["cover_size"] == 6

    def test_inadmissible_cliques_exit_2(self, capsys):
        code, _, err = run(
            capsys, "bounds", "--prop", "cliques", "--m", "62", "--k", "4",
            "--delta", "0.2", "--seed", "1",
        )
        assert code == 2
        assert "sqrt" in json.loads(err)["error"]["message"]

    def test_missing_prop_parameter(self, capsys):
        code, _, err = run(
            capsys, "bounds", "--prop", "pairs", "--seed", "1",
        )
        assert code == 2
        assert "mgf" in json.loads(err)["error"]["message"]


CONSOLE_ARGS = ["bounds", "--prop", "universal", "--K", "4", "--seed", "1", "--format", "json"]


class TestEntryPoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "combidetect", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__

    def test_console_script(self):
        # the declared [project.scripts] entry, run the way the launcher that
        # an install generates runs it, so no install is needed
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["combidetect"] == "combidetect.cli:main"
        module, _, attr = scripts["combidetect"].partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
        launcher = (
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'combidetect'; sys.exit({attr}())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", launcher, *CONSOLE_ARGS],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["name"] == "universal"

    def test_pyproject_declares_the_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert tomllib.loads(pyproject.read_text())["project"]["version"] == __version__

    @pytest.mark.skipif(
        shutil.which("combidetect") is None,
        reason="the combidetect launcher is not on PATH (package not installed)",
    )
    def test_installed_launcher(self):
        proc = subprocess.run(["combidetect", *CONSOLE_ARGS], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["name"] == "universal"


def _sites(node, match, owner=None):
    # the name of the innermost function around each node that ``match`` accepts
    for child in ast.iter_child_nodes(node):
        if match(child):
            yield owner
        inner = child.name if isinstance(child, ast.FunctionDef) else owner
        yield from _sites(child, match, inner)


def _is_json_dumps(node):
    return (isinstance(node, ast.Attribute) and node.attr == "dumps"
            and isinstance(node.value, ast.Name) and node.value.id == "json")


class TestOutputEnvelope:
    def test_envelope_lives_in_one_module(self):
        # every document goes through _output.render; the one other dump is
        # the stderr error document of cli._emit_error
        src = Path(importlib.import_module("combidetect").__file__).parent
        sites = []
        for path in sorted(src.glob("*.py")):
            if path.name == "_output.py":
                continue
            text = path.read_text(encoding="utf-8")
            assert "#schema=" not in text, path.name
            sites += [(path.name, fn) for fn in _sites(ast.parse(text), _is_json_dumps)]
        assert sites == [("cli.py", "_emit_error")]


#: public names removed because no estimator, CLI path or bound used them,
#: with the module that held each
DELETED = {
    "estimate_tC": "classes",
    "sample_overlap_pair": "classes",
    "OverlapSample": "classes",
    "MTooLargeForClassError": "core",
    "packing_estimate": "bounds",
    "_greedy": "bounds",
    "canonical_distance": "core",
    "IndexSet": "core",
    "Observation": "core",
    "_as_generator": "core",
    "overlap": "core",
    "gaussian_sample": "core",
    "curve_to_csv": "risk",
    "curve_to_json": "risk",
    "fmt17": "risk",
    "UPPER_ON_RISK": "bounds",
}


class TestPublicSurface:
    def test_members_are_rows_only(self):
        # a member is a member_matrix row everywhere: sample_rows draws one and
        # member_matrix lists them, and no class hands out another form
        for cls in [SetClass, *FAMILIES.values(), ExplicitClass]:
            for name in ("contains", "enumerate_members", "sample"):
                assert not hasattr(cls, name), (cls.__name__, name)

    def test_readme_library_block_runs(self, capsys):
        # the README's "Library in one minute" example, run as written
        section = README.read_text(encoding="utf-8").split("## Library in one minute", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(code, "README.md", "exec"), {})
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_every_exported_name_resolves(self):
        package = importlib.import_module("combidetect")
        assert len(set(package.__all__)) == len(package.__all__)
        for name in package.__all__:
            assert getattr(package, name) is not None, name

    @pytest.mark.parametrize("name", sorted(DELETED))
    def test_deleted_name_is_gone(self, name):
        package = importlib.import_module("combidetect")
        assert name not in package.__all__
        with pytest.raises(AttributeError):
            getattr(package, name)
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(f"combidetect.{DELETED[name]}"), name)


def _flags(command):
    # the actions of one subcommand's parser, keyed by dest
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


class TestSingleDeclarations:
    """Each family's parameters and each proposition's inputs are declared
    once; the flags, the round trip and the branches follow from them."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_to_params_round_trips_through_make_class(self, family):
        spec = make_class(family, **dict(zip(FAMILIES[family].params, (4, 3))))
        params = spec.to_params()
        assert list(params) == ["family", *FAMILIES[family].params]
        assert repr(make_class(**params)) == repr(spec)

    def test_family_params_are_int_flags(self):
        flags = _flags("risk")
        for cls in FAMILIES.values():
            for name in cls.params:
                action = flags[name]
                assert action.option_strings == ["--" + name.replace("_", "-")]
                assert action.type is int and action.default is None

    def test_proposition_inputs_are_bounds_flags(self):
        flags = _flags("bounds")
        assert tuple(flags["prop"].choices) == PROPS == tuple(_PROPOSITIONS)
        for prop in _PROPOSITIONS.values():
            for name in prop.inputs:
                assert flags[name].option_strings == [f"--{name}"]

    def test_evaluate_bound_branches_only_where_a_table_row_cannot_serve(self):
        path = Path(importlib.import_module("combidetect.bounds").__file__)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "evaluate_bound")
        props = [n.comparators[0].value for n in ast.walk(fn)
                 if isinstance(n, ast.Compare) and isinstance(n.ops[0], ast.Eq)
                 and isinstance(n.left, ast.Name) and n.left.id == "prop"]
        assert sorted(props) == ["dudley", "random-subclass", "type1-cover"]


def _readme_command_lines():
    # every combidetect call in the README's sh blocks, continuation lines
    # joined, $m set to its loop's first value and $e to an emax0
    calls = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        loop = re.search(r"for m in (\d+)", block)
        text = block.replace("\\\n", " ").replace("$e", "11.4")
        text = text.replace("$m", loop[1]) if loop else text
        calls += [shlex.split(c) for c in re.findall(r"(?:^|\$\()\s*combidetect ([^|)\n]+)", text, re.M)]
    return calls


class TestSharedParser:
    """main parses with one parser per interpreter, and a parse carries
    nothing over to the next."""

    RISK = ["risk", "--class", "stars", "--m", "5", "--test", "averaging",
            "--trials", "20", "--seed", "3"]

    @pytest.fixture(scope="class")
    def fresh_process_out(self):
        # the bytes of a nonmono call, which takes no class flags, in a
        # process that ran nothing before it
        argv = ["nonmono", "--K", "3", "--epsilon", "0.5", "--trials", "20", "--seed", "1"]
        proc = subprocess.run([sys.executable, "-m", "combidetect", *argv], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        return argv, proc.stdout

    def test_main_calls_share_one_parser(self, capsys, monkeypatch):
        parsers, parse_args = [], argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        for _ in range(2):
            assert run(capsys, *self.RISK, "--mu", "0.5")[0] == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1] is cli._parser()
        # the public builder still hands out a new parser on each call
        assert build_parser() is not build_parser() is not cli._parser()

    def test_appended_mu_does_not_leak_into_the_next_call(self, capsys):
        def config_mu(*mus):
            code, out, _ = run(capsys, *self.RISK, *(t for mu in mus for t in ("--mu", mu)))
            assert code == 0
            config = next(line for line in out.splitlines() if line.startswith("#config="))
            return json.loads(config.removeprefix("#config="))["mu"]

        assert config_mu("0.5", "0.9") == [0.5, 0.9]
        assert config_mu("0.9") == [0.9]

    @pytest.mark.parametrize("argv, code", [
        (["risk", "--class", "stars", "--m", "4", "--test", "optimal",
          "--mu", "0.5", "--mu", "0.9"], 2),
        (["--version"], 0),
    ], ids=["missing-seed", "version"])
    def test_an_exiting_call_leaves_the_next_as_in_a_fresh_process(
        self, capsys, fresh_process_out, argv, code,
    ):
        next_argv, fresh = fresh_process_out
        # a risk call first, so a namespace kept between calls would show
        assert run(capsys, *self.RISK, "--mu", "0.5")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        capsys.readouterr()
        assert run(capsys, *next_argv)[1].encode() == fresh

    def test_shared_parser_reads_every_readme_line_as_a_fresh_one(self):
        lines = _readme_command_lines()
        assert len(lines) == 12 and {argv[0] for argv in lines} == set(COMMANDS)
        # the second pass reads each line after every other line
        for argv in [*lines, *reversed(lines)]:
            assert vars(cli._parser().parse_args(argv)) == vars(build_parser().parse_args(argv)), argv
