import argparse
import ast
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from combidetect import FAMILIES, __version__, exact_overlap_mgf, make_class
from combidetect.bounds import _PROPOSITIONS, PROPS
from combidetect.cli import build_parser, main


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


class TestErrorExits:
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


def _is_index_set_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "IndexSet")


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
    "canonical_distance": "core",
    "overlap": "core",
    "gaussian_sample": "core",
    "curve_to_csv": "risk",
    "curve_to_json": "risk",
    "fmt17": "risk",
}


class TestPublicSurface:
    def test_index_sets_are_built_only_at_the_public_edge(self):
        # inside the package a member is a member_matrix row; IndexSet is
        # made only where sample and enumerate_members hand members out
        src = Path(importlib.import_module("combidetect").__file__).parent
        sites = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            sites += [(path.name, fn) for fn in _sites(tree, _is_index_set_call)]
        assert sorted(sites) == [("classes.py", "enumerate_members"), ("classes.py", "sample")]

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
