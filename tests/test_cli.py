"""End-to-end tests for the command-line interface."""

import argparse
import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entmeas import (
    DensityOperator,
    MeasureResult,
    PureState,
    ghz_state,
    max_entangled,
    save_state,
    w_state,
)
from entmeas import bounds
from entmeas.cli import GAUSSIAN_OPS, RunConfig, _build_parser, main, run
from entmeas.gaussian import covariance_to_dict, two_mode_squeezed, vacuum


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}

    def put(name, state):
        path = root / f"{name}.json"
        save_state(state, path)
        paths[name] = str(path)

    put("bell", max_entangled(2).to_density())
    put("bell_pure", max_entangled(2))
    put("sep", DensityOperator(np.diag([0.5, 0.2, 0.2, 0.1]), (2, 2)))
    put("ghz", ghz_state(3))
    put("w", w_state(3))
    put("src", PureState(np.sqrt([0.8, 0.0, 0.0, 0.2]), (2, 2)))
    put("tgt", PureState(np.sqrt([0.5, 0.0, 0.0, 0.5]), (2, 2)))
    cat_src = np.zeros(16)
    cat_src[[0, 5, 10, 15]] = np.sqrt([0.4, 0.4, 0.1, 0.1])
    put("cat_src", PureState(cat_src, (4, 4)))
    cat_tgt = np.zeros(16)
    cat_tgt[[0, 5, 10]] = np.sqrt([0.5, 0.25, 0.25])
    put("cat_tgt", PureState(cat_tgt, (4, 4)))

    cov = root / "tms05.json"
    cov.write_text(json.dumps(covariance_to_dict(two_mode_squeezed(0.5))))
    paths["tms05"] = str(cov)

    bad = root / "bad.json"
    bad.write_text('{"dims": [2, 2], "matrix": [[')
    paths["bad"] = str(bad)

    manifest = root / "manifest.json"
    manifest.write_text(json.dumps([
        {"state": paths["bell_pure"], "measure": "geometric"},
        {"state": paths["w"], "measure": "geometric",
         "overrides": {"restarts": 8}},
        {"state": paths["ghz"], "measure": "geometric"},
    ]))
    paths["manifest"] = str(manifest)

    empty = root / "empty.json"
    empty.write_text("[]")
    paths["empty"] = str(empty)

    broken = root / "broken.json"
    broken.write_text(json.dumps([
        {"state": str(root / "missing.json"), "measure": "logneg"},
        {"state": paths["bell"], "measure": "logneg"},
    ]))
    paths["broken"] = str(broken)
    return paths


def run_json(argv, capsys):
    code = main(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


class TestMeasureCommand:
    def test_logneg_of_bell(self, files, capsys):
        code, out = run_json(
            ["measure", "--state", files["bell"], "--measure", "logneg"], capsys)
        assert code == 0
        assert out == {"value": 1.0, "status": "exact", "gap": 0.0,
                       "iterations": 0}

    def test_ree_of_separable_state(self, files, capsys):
        code, out = run_json(
            ["measure", "--state", files["sep"], "--measure", "ree"], capsys)
        assert code == 0
        assert abs(out["value"]) <= 1e-6
        assert out["status"] == "converged"

    def test_witness_reports_detection(self, files, capsys):
        code, out = run_json(
            ["measure", "--state", files["bell"], "--measure", "witness"],
            capsys)
        assert code == 0
        assert out["value"] == pytest.approx(0.5, abs=1e-9)
        assert out["detected"] is True

    def test_unknown_measure_lists_valid_names(self, files, capsys):
        code = main(["measure", "--state", files["bell"],
                     "--measure", "frobnicate"])
        text = capsys.readouterr().out
        assert code == 2
        assert "unknown measure" in text
        for name in ("ree", "logneg", "geometric", "rains"):
            assert name in text

    def test_malformed_json_reports_position(self, files, capsys):
        code = main(["measure", "--state", files["bad"],
                     "--measure", "logneg"])
        text = capsys.readouterr().out
        assert code == 2
        assert "line" in text and "column" in text

    def test_missing_file_is_a_validation_failure(self, files, capsys):
        code = main(["measure", "--state", files["bell"] + ".nope",
                     "--measure", "logneg"])
        assert code == 2
        assert "error:" in capsys.readouterr().out

    def test_strict_flags_best_effort_results(self, files, capsys):
        code, out = run_json(
            ["measure", "--state", files["bell_pure"], "--measure",
             "geometric", "--restarts", "4", "--strict"], capsys)
        assert code == 3
        assert out["status"] == "best_effort"
        assert out["value"] == pytest.approx(1.0, abs=1e-6)

    def test_strict_passes_certified_results(self, files, capsys):
        code, out = run_json(
            ["measure", "--state", files["bell"], "--measure", "ree",
             "--strict"], capsys)
        assert code == 0
        assert out["status"] == "converged"

    @pytest.mark.parametrize("flag", [["--seed", "-1"], ["--gap", "inf"]])
    def test_bad_solver_settings_exit_2(self, files, capsys, flag):
        code = main(["measure", "--state", files["bell"], "--measure", "ree", *flag])
        assert code == 2
        assert capsys.readouterr().out.startswith("error: solver-config")

    def test_bsa_reports_solver_iterations(self, tmp_path, capsys):
        bell = max_entangled(2).to_density().matrix
        path = tmp_path / "werner.json"
        save_state(DensityOperator(0.8 * bell + 0.2 * np.eye(4) / 4, (2, 2)), path)
        code, out = run_json(
            ["measure", "--state", str(path), "--measure", "bsa"], capsys)
        assert code == 0
        assert out["value"] == pytest.approx(0.7, abs=1e-6)
        assert out["iterations"] > 0


class TestOutputContracts:
    def test_table_and_json_values_agree(self, files, capsys):
        code, parsed = run_json(
            ["measure", "--state", files["bell"], "--measure", "negativity"],
            capsys)
        assert code == 0
        assert main(["measure", "--state", files["bell"], "--measure",
                     "negativity", "--format", "table"]) == 0
        table = capsys.readouterr().out
        rows = dict(line.split(": ", 1) for line in table.strip().splitlines())
        assert float(rows["value"]) == parsed["value"]
        assert rows["status"] == parsed["status"]
        assert float(rows["gap"]) == parsed["gap"]

    def test_identical_config_gives_bit_identical_output(self, files):
        config = RunConfig(command="measure", state=files["w"],
                           measure="geometric", restarts=6, seed=0, fmt="json")
        first = run(config)
        second = run(config)
        assert first == second

    def test_twelve_significant_digits(self, files, capsys):
        code, out = run_json(
            ["measure", "--state", files["w"], "--measure", "geometric",
             "--restarts", "6"], capsys)
        assert code == 0
        assert out["value"] == pytest.approx(math.log2(9 / 4), abs=1e-6)
        assert float(f"{out['value']:.12g}") == out["value"]


class TestBoundsCommand:
    def test_bell_report(self, files, capsys):
        code, out = run_json(
            ["bounds", "--state", files["bell"], "--skip", "rains",
             "--restarts", "3"], capsys)
        assert code == 0
        assert out["ppt"] is False
        assert out["lower"]["hashing"] == pytest.approx(1.0, abs=1e-9)
        assert out["upper"]["log_negativity"] == 1.0
        assert "rains" not in out["upper"]

    def test_strict_rejects_heuristic_entries(self, files, capsys):
        code, out = run_json(
            ["measure", "--state", files["bell"], "--measure", "eof-roof",
             "--restarts", "3", "--strict"], capsys)
        assert code == 3
        assert out["status"] == "best_effort"
        code, _ = run_json(
            ["bounds", "--state", files["bell"], "--skip", "rains",
             "--restarts", "3", "--strict"], capsys)
        assert code == 0


def _leaves(data, prefix=""):
    """Each JSON leaf as (dotted key, the text a table prints for it)."""
    items = (data.items() if isinstance(data, dict)
             else enumerate(data) if isinstance(data, list) else None)
    if items is None:
        yield prefix[:-1], data if isinstance(data, str) else json.dumps(data)
        return
    for key, val in items:
        yield from _leaves(val, f"{prefix}{key}.")


class TestTableFormat:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--state", "bell", "--skip", "rains", "--skip", "ree"],
        ["batch", "--manifest", "broken"],
    ], ids=["bounds", "batch"])
    def test_table_prints_every_json_leaf(self, files, capsys, argv):
        argv = [files.get(arg, arg) for arg in argv]
        code, parsed = run_json(argv, capsys)
        assert code == 0
        assert main(argv + ["--format", "table"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        rows = dict(line.split(": ", 1) for line in lines)
        assert len(rows) == len(lines)
        assert rows == dict(_leaves(parsed))


class TestConvertCommand:
    def test_probabilistic_conversion(self, files, capsys):
        code, out = run_json(
            ["convert", "--source", files["src"], "--target", files["tgt"]],
            capsys)
        assert code == 0
        assert out == {"deterministic": False, "probability": 0.4,
                       "limiting_index": 1}

    def test_deterministic_direction(self, files, capsys):
        code, out = run_json(
            ["convert", "--source", files["tgt"], "--target", files["src"]],
            capsys)
        assert code == 0
        assert out["deterministic"] is True
        assert out["probability"] == 1.0

    def test_catalyst_search(self, files, capsys):
        code, out = run_json(
            ["convert", "--source", files["cat_src"], "--target",
             files["cat_tgt"], "--catalyst-rank", "2"], capsys)
        assert code == 0
        assert out["catalyst"] is not None
        assert out["catalyst_note"] == "verified"
        assert sum(out["catalyst"]) == pytest.approx(1.0, abs=1e-9)

    def test_catalyst_not_needed_for_a_deterministic_pair(self, files, capsys):
        code, out = run_json(
            ["convert", "--source", files["tgt"], "--target", files["src"],
             "--catalyst-rank", "2"], capsys)
        assert code == 0
        assert out["deterministic"] is True
        assert out["catalyst"] is None
        assert out["catalyst_note"] == "not needed; conversion is deterministic"

    def test_rejects_mixed_inputs(self, files, capsys):
        code = main(["convert", "--source", files["bell"],
                     "--target", files["tgt"]])
        assert code == 2
        assert "pure" in capsys.readouterr().out


class TestGaussianCommand:
    def test_logneg_golden_value(self, files, capsys):
        code, out = run_json(
            ["gaussian", "--cov", files["tms05"], "--op", "logneg",
             "--cut", "1"], capsys)
        assert code == 0
        assert out["value"] == pytest.approx(math.log2(math.e), abs=1e-9)

    def test_validate_and_spectrum(self, files, capsys):
        code, out = run_json(
            ["gaussian", "--cov", files["tms05"], "--op", "validate"], capsys)
        assert code == 0
        assert out["modes"] == 2 and out["physical"] is True
        code, out = run_json(
            ["gaussian", "--cov", files["tms05"], "--op", "spectrum"], capsys)
        assert out["values"] == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_ppt_exact_for_one_on_one(self, files, capsys):
        code, out = run_json(
            ["gaussian", "--cov", files["tms05"], "--op", "ppt"], capsys)
        assert code == 0
        assert out == {"separable": False, "criterion": "exact"}

    @pytest.mark.parametrize("cut, ppt", [(0, None), (1, True), (2, True), (3, None)])
    def test_ppt_checks_its_cut(self, cut, ppt, tmp_path):
        path = tmp_path / "vacuum3.json"
        path.write_text(json.dumps(covariance_to_dict(vacuum(3))))
        results = {op: run(RunConfig(command="gaussian", cov=str(path), op=op,
                                     cut=cut, fmt="json"))
                   for op in ("ppt", "logneg")}
        if ppt is None:
            for code, text in results.values():
                assert code == 2 and "mode-cut" in text
        else:
            code, text = results["ppt"]
            assert code == 0
            assert json.loads(text) == {"ppt": ppt, "criterion": "necessary-condition"}
            assert results["logneg"][0] == 0

    @pytest.mark.parametrize("op", ["ppt", "logneg"])
    def test_one_mode_has_no_cut(self, op, tmp_path):
        path = tmp_path / "vacuum1.json"
        path.write_text(json.dumps(covariance_to_dict(vacuum(1))))
        code, text = run(RunConfig(command="gaussian", cov=str(path), op=op, fmt="json"))
        assert (code, text) == (2, "error: mode-cut: a cut needs at least two modes, got 1")

    def test_entropy_of_pure_state_is_zero(self, files, capsys):
        code, out = run_json(
            ["gaussian", "--cov", files["tms05"], "--op", "entropy"], capsys)
        assert code == 0
        assert out["value"] == 0.0

    def test_unknown_op(self, files, capsys):
        code = main(["gaussian", "--cov", files["tms05"], "--op", "williamson"])
        assert code == 2
        assert "valid ops" in capsys.readouterr().out


class TestBatchCommand:
    def test_geometric_manifest(self, files, capsys):
        code, out = run_json(["batch", "--manifest", files["manifest"]], capsys)
        assert code == 0
        assert [e["measure"] for e in out] == ["geometric"] * 3
        assert out[0]["value"] == pytest.approx(1.0, abs=1e-6)
        assert out[1]["value"] == pytest.approx(math.log2(9 / 4), abs=1e-3)
        assert out[2]["value"] == pytest.approx(1.0, abs=1e-6)

    def test_results_preserve_manifest_order(self, files, capsys):
        code, out = run_json(["batch", "--manifest", files["manifest"]], capsys)
        assert code == 0
        assert [e["state"] for e in out] == [
            files["bell_pure"], files["w"], files["ghz"]]

    def test_empty_manifest(self, files, capsys):
        code, out = run_json(["batch", "--manifest", files["empty"]], capsys)
        assert code == 0
        assert out == []

    def test_entry_failures_are_isolated(self, files, capsys):
        code, out = run_json(["batch", "--manifest", files["broken"]], capsys)
        assert code == 0
        assert "error" in out[0]
        assert out[1]["value"] == 1.0

    @pytest.mark.parametrize("measures, code", [
        (["logneg", "negativity"], 0),
        (["logneg", "eof-roof"], 3),
    ], ids=["exact", "eof-roof"])
    def test_strict_looks_into_every_entry(self, files, tmp_path, capsys, measures, code):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"state": files["bell"], "measure": name, "overrides": {"restarts": 2}}
            for name in measures]))
        got, out = run_json(["batch", "--manifest", str(manifest), "--strict"], capsys)
        assert got == code
        assert [e["measure"] for e in out] == measures

    @pytest.mark.parametrize("bad", [
        {"overrides": {"restarts": "abc"}},
        {"overrides": {"gap": "abc"}},
        {"overrides": {"gap": math.inf}},
        {"overrides": {"restarts": 1.5}},
        {"overrides": {"restarts": True}},
        {"overrides": {"seed": -1}},
        {"overrides": [["seed", 1]]},
        {"measure": ["x"]},
        {"state": None},
        {"state": 0},
        {"state": 1},
        {"overrides": {"tolerance": 1e-6}},
    ], ids=repr)
    def test_malformed_entry_is_its_own_error(self, files, tmp_path, capsys, bad):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"state": files["bell"], "measure": "eof-roof", **bad},
            {"state": files["bell"], "measure": "logneg"},
        ]))
        code, out = run_json(["batch", "--manifest", str(manifest)], capsys)
        assert code == 0
        assert "value" not in out[0]
        assert out[0]["error"].startswith(("solver-config", "manifest-entry"))
        assert out[1]["value"] == 1.0

    def test_manifest_that_is_not_an_array_is_refused(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"state": "bell.json", "measure": "logneg"}))
        code, text = run(RunConfig(command="batch", manifest=str(manifest), fmt="json"))
        assert code == 2
        assert "manifest" in text

    @pytest.mark.parametrize("entry", [3, {"state": "bell.json"}], ids=["number", "no-measure"])
    def test_entry_that_is_no_request_is_its_own_error(self, files, tmp_path, capsys, entry):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([entry, {"state": files["bell"], "measure": "logneg"}]))
        code, out = run_json(["batch", "--manifest", str(manifest)], capsys)
        assert code == 0
        assert out[0]["error"].startswith("manifest-entry")
        assert out[1]["value"] == 1.0


class TestFrontEndRules:
    """measure, bounds and batch read one definition of what is certified,
    what fails and which bounds may be skipped."""

    def test_strict_ignores_a_state_path_named_best_effort(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_state(max_entangled(2).to_density(), "best_effort_bell.json")
        Path("manifest.json").write_text(json.dumps([
            {"state": "best_effort_bell.json", "measure": "logneg"},
            {"state": "best_effort_bell.json", "measure": "concurrence"}]))
        code, out = run_json(["batch", "--manifest", "manifest.json", "--strict"], capsys)
        assert code == 0
        assert [e["status"] for e in out] == ["exact", "exact"]

    def test_malformed_json_reads_the_same_in_measure_and_batch(self, files, tmp_path):
        code, text = run(RunConfig(command="measure", state=files["bad"], measure="logneg"))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"state": files["bad"], "measure": "logneg"}]))
        batch_code, batch_text = run(RunConfig(command="batch", manifest=str(manifest),
                                               fmt="json"))
        [entry] = json.loads(batch_text)
        assert (code, batch_code) == (2, 0)
        assert entry["error"].startswith("malformed JSON at line 1, column ")
        assert text == f"error: {entry['error']}"

    def test_strict_reads_the_bounds_notes(self, files, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "relative_entropy_of_entanglement",
                            lambda rho, config=None: MeasureResult(1.0, "best_effort", 0.1, 5))
        code, out = run_json(["bounds", "--state", files["bell"], "--skip", "rains",
                              "--strict"], capsys)
        assert out["notes"]["ree"] == "best_effort"
        assert code == 3

    def test_skip_accepts_exactly_the_bounds_table(self):
        commands = next(a for a in _build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        skip = next(a for a in commands.choices["bounds"]._actions if a.dest == "skip")
        assert sorted(skip.choices) == sorted(bounds._SKIPPABLE) == ["rains", "ree"]


class TestDeterminism:
    def test_repeated_measure_runs_are_byte_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        rho = g @ g.conj().T
        path = tmp_path / "rho3x3.json"
        save_state(DensityOperator(rho / np.trace(rho), (3, 3)), path)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        for measure in ("robustness", "rains"):
            cmd = [sys.executable, "-m", "entmeas.cli", "measure", "--state", str(path),
                   "--measure", measure, "--format", "json"]
            first, second = (subprocess.run(cmd, env=env, capture_output=True, timeout=300)
                             for _ in range(2))
            assert first.returncode == 0, first.stderr
            assert json.loads(first.stdout)["value"] > 0.0
            assert first.stdout == second.stdout


class TestImportCost:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize adds to the start-up time and memory of every call
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = "import sys, entmeas.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_package_import_leaves_scipy_sparse_unloaded(self):
        # the SDP constraints live only as their stored entries, so nothing
        # needs scipy.sparse; a fresh interpreter, since the tests import it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, entmeas, entmeas.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_exact_commands_load_no_scipy(self, tmp_path):
        # scipy's LAPACK is loaded by the first SDP or barrier solve alone
        path = tmp_path / "bell.json"
        save_state(max_entangled(2).to_density(), path)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = (
            "import sys, entmeas, entmeas.cli as cli\n"
            f"config = dict(command='measure', state={str(path)!r}, fmt='json')\n"
            "assert cli.run(cli.RunConfig(**config, measure='logneg'))[0] == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "assert cli.run(cli.RunConfig(**config, measure='robustness'))[0] == 0\n"
            "print('scipy.linalg' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n")[:2] == ["[]", "True"]

    def test_only_sdp_imports_scipy_and_only_inside_functions(self):
        package = Path(__file__).resolve().parents[1] / "src" / "entmeas"
        found = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            inside = {id(node) for func in ast.walk(tree)
                      if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                      for node in ast.walk(func)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                if any(name.split(".")[0] == "scipy" for name in names):
                    found.append((path.name, node.lineno, id(node) in inside))
        assert found, "sdp.py imports scipy for its solvers"
        assert all(name == "sdp.py" and inside for name, _, inside in found), found


class TestSolverErrorBoundary:
    @pytest.fixture
    def failing_solver(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("block lost positive definiteness")
        monkeypatch.setattr("entmeas.variational.sdp_solve", fail)

    def test_measure_exits_2(self, files, capsys, failing_solver):
        code = main(["measure", "--state", files["bell"], "--measure", "robustness"])
        out = capsys.readouterr().out
        assert code == 2
        assert out.startswith("error: solver: block lost positive definiteness")

    def test_batch_isolates_the_failing_entry(self, files, tmp_path, capsys,
                                              failing_solver):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"state": files["bell"], "measure": "robustness"},
            {"state": files["bell"], "measure": "logneg"},
        ]))
        code, out = run_json(["batch", "--manifest", str(manifest)], capsys)
        assert code == 0
        assert out[0]["error"].startswith("solver: ")
        assert out[0]["measure"] == "robustness"
        assert out[1]["value"] == pytest.approx(1.0)


class TestNonFiniteInput:
    @pytest.fixture
    def nan_file(self, tmp_path):
        row = "[" + ", ".join(["[NaN, 0.0]"] * 4) + "]"
        path = tmp_path / "nan.json"
        path.write_text('{"dims": [2, 2], "matrix": [' + ", ".join([row] * 4) + "]}")
        return str(path)

    def test_measure_refuses_nan_state(self, nan_file, capsys):
        code = main(["measure", "--state", nan_file, "--measure", "logneg"])
        out = capsys.readouterr().out
        assert code == 2
        assert out.startswith("error: non-finite")

    def test_batch_isolates_nan_entry(self, files, nan_file, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"state": files["bell"], "measure": "logneg"},
            {"state": nan_file, "measure": "logneg"},
        ]))
        code, out = run_json(["batch", "--manifest", str(manifest)], capsys)
        assert code == 0
        assert out[0]["value"] == 1.0
        assert out[1]["state"] == nan_file
        assert "non-finite" in out[1]["error"]

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_gaussian_refuses_non_finite_covariance(self, entry, tmp_path, capsys):
        cov = covariance_to_dict(two_mode_squeezed(0.5))
        cov["cov"][0][0] = entry
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(cov))
        code = main(["gaussian", "--cov", str(path), "--op", "validate"])
        assert code == 2
        assert capsys.readouterr().out.startswith("error: non-finite")


# JSON that the parser cannot turn into values: nesting past the recursion
# limit, an integer literal longer than Python converts, and bytes that are
# not UTF-8; each is given as the text around one field's value
DEEP = "[" * 200_000 + "]" * 200_000
LONG_INT = "1" + "0" * 4999
UNREADABLE = {"deep": DEEP, "long-int": LONG_INT, "not-utf8": b"\xff"}


def _unreadable(path, prefix: str, value, suffix: str) -> str:
    """Write ``prefix + value + suffix`` to ``path`` as bytes; return the path."""
    raw = value if isinstance(value, bytes) else value.encode()
    path.write_bytes(prefix.encode() + raw + suffix.encode())
    return str(path)


class TestUnreadableJson:
    """A state, covariance or manifest file whose JSON cannot be read is
    refused as ``json``: ``measure``, ``bounds`` and ``gaussian`` exit 2, a
    ``batch`` entry fails alone, and a bad manifest exits 2."""

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_state_file(self, kind, files, tmp_path):
        path = _unreadable(tmp_path / "state.json", '{"dims": [2, 2], "vector": ',
                           UNREADABLE[kind], "}")
        for config in (RunConfig(command="measure", state=path, measure="logneg"),
                       RunConfig(command="bounds", state=path)):
            code, text = run(config)
            assert code == 2
            assert text.startswith("error: json: state file")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"state": path, "measure": "logneg"},
                                        {"state": files["bell"], "measure": "logneg"}]))
        code, text = run(RunConfig(command="batch", manifest=str(manifest), fmt="json"))
        assert code == 0
        first, second = json.loads(text)
        assert first["state"] == path and first["error"].startswith("json: state file")
        assert second["value"] == 1.0

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_covariance_file(self, kind, tmp_path):
        path = _unreadable(tmp_path / "cov.json", '{"modes": 1, "cov": ', UNREADABLE[kind], "}")
        code, text = run(RunConfig(command="gaussian", cov=path, op="validate"))
        assert code == 2
        assert text.startswith("error: json: covariance file")

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_manifest(self, kind, files, tmp_path):
        path = _unreadable(tmp_path / "manifest.json",
                           f'[{{"state": {json.dumps(files["bell"])}, "measure": "logneg", '
                           '"overrides": {"seed": ', UNREADABLE[kind], "}}]")
        code, text = run(RunConfig(command="batch", manifest=path))
        assert code == 2
        assert text.startswith("error: json: manifest")

    def test_measure_exits_2_through_main(self, tmp_path, capsys):
        path = _unreadable(tmp_path / "state.json", '{"dims": [2, 2], "vector": ', DEEP, "}")
        assert main(["measure", "--state", path, "--measure", "negativity"]) == 2
        assert capsys.readouterr().out.startswith("error: json")


FUZZ = sorted((Path(__file__).parent / "fuzz").glob("*.json"))


class TestFuzzCorpus:
    """Malformed, non-finite, wrong-shape and non-Hermitian input files:
    ``state_*`` files go through every state-reading command, ``cov_*``
    files through every Gaussian operation."""

    @pytest.mark.parametrize("path", FUZZ, ids=lambda p: p.stem)
    def test_malformed_file_exits_2(self, path, tmp_path):
        if path.stem.startswith("cov_"):
            configs = [RunConfig(command="gaussian", cov=str(path), op=op)
                       for op in GAUSSIAN_OPS]
        else:
            configs = [RunConfig(command="measure", state=str(path), measure="logneg"),
                       RunConfig(command="bounds", state=str(path))]
        for config in configs:
            code, text = run(config)
            assert code == 2
            assert text.startswith("error: ")
        if path.stem.startswith("state_"):
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps([{"state": str(path), "measure": "logneg"}]))
            code, text = run(RunConfig(command="batch", manifest=str(manifest), fmt="json"))
            assert code == 0
            [entry] = json.loads(text)
            assert "error" in entry and "value" not in entry

    def test_corpus_covers_both_kinds(self):
        stems = [p.stem for p in FUZZ]
        assert all(s.startswith(("state_", "cov_")) for s in stems)
        assert sum(s.startswith("state_") for s in stems) >= 10
        assert sum(s.startswith("cov_") for s in stems) >= 5


class TestRunConfig:
    def test_defaults_are_reproducible(self):
        config = RunConfig(command="measure")
        assert config.seed is None
        assert config.fmt == "table"
        assert config.strict is False

    @pytest.mark.parametrize("fields", [
        {"command": "measure", "measure": "logneg"},
        {"command": "bounds"},
        {"command": "convert"},
        {"command": "gaussian", "op": "entropy"},
        {"command": "batch"},
    ], ids=lambda f: f["command"])
    def test_a_missing_path_exits_2(self, fields):
        code, text = run(RunConfig(**fields))
        assert code == 2
        assert text.startswith("error: path")

    def test_an_unknown_format_exits_2(self, files):
        code, text = run(RunConfig(command="measure", state=files["bell"], measure="logneg",
                                   fmt="yaml"))
        assert code == 2
        assert text.startswith("error: format")
