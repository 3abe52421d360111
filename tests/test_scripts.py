"""The study scripts still run against the package's current interface."""
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rbto.cli import main as rbto

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{name}.py"), *args],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_estimator_comparison_runs():
    rows = run_script("estimator_comparison").splitlines()
    assert [r.split()[0] for r in rows[2:]] == ["monte-carlo", "subset", "hybrid"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# running these in full takes half a minute or more; importing them checks
# every name they take from the package
@pytest.mark.parametrize("name", ["truss_study", "beam_study"])
def test_study_script_imports(name):
    assert callable(load_script(name).main)


def test_beam_study_runs_both_modes(tmp_path):
    stdout = run_script("beam_study", "lshape", "--iterations", "50", "--out", str(tmp_path),
                        timeout=300)
    reports = [line for line in stdout.splitlines() if line.startswith("lshape")]
    assert len(reports) == 2
    for mode, line in zip(("rbto", "robust"), reports):
        summary = json.loads((tmp_path / f"lshape_{mode}" / "summary.json").read_text())
        assert (summary["config"]["kappa_f"] == 0) == (mode == "robust")
        assert summary["config"]["iterations"] == 50
        assert line.startswith(f"lshape {mode:>6} seed 4:")  # the config's seed
        assert f"{summary['design']['n_solves']} FE solves" in line


def test_same_outputs_tells_reruns_from_another_seed(tmp_path, capsys):
    config = tmp_path / "truss.json"
    config.write_text(json.dumps({
        "problem": "truss", "seed": 4, "iterations": 60, "m": 20,
        "estimator": {"method": "mc", "n_samples": 2000}, "posthoc_samples": 5000,
    }))
    for name, seed in (("a", "4"), ("b", "4"), ("c", "5")):
        assert rbto(["run", str(config), "--seed", seed, "--out", str(tmp_path / name)]) == 0
    same_outputs = load_script("same_outputs").main
    capsys.readouterr()
    assert same_outputs([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert same_outputs([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "differs: history.csv"


def test_same_outputs_rtol_tells_rounding_from_a_changed_result(tmp_path, capsys):
    config = tmp_path / "truss.json"
    config.write_text(json.dumps({
        "problem": "truss", "seed": 4, "iterations": 60, "m": 20,
        "estimator": {"method": "mc", "n_samples": 2000}, "posthoc_samples": 5000,
    }))
    run = tmp_path / "run"
    assert rbto(["run", str(config), "--out", str(run)]) == 0
    same_outputs = load_script("same_outputs").main

    rounded = tmp_path / "rounded"
    shutil.copytree(run, rounded)
    summary = json.loads((rounded / "summary.json").read_text())
    summary["design"]["objective"] *= 1.0 + 1e-13
    (rounded / "summary.json").write_text(json.dumps(summary, indent=2))
    capsys.readouterr()
    assert same_outputs([str(run), str(rounded)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "differs: summary.json"
    assert same_outputs([str(run), str(rounded), "--rtol", "1e-9"]) == 0
    assert capsys.readouterr().out.startswith("same outputs within rtol 1e-09")
    assert same_outputs([str(run), str(rounded), "--rtol", "1e-14"]) == 1

    flipped = tmp_path / "flipped"
    shutil.copytree(run, flipped)
    lines = (flipped / "history.csv").read_text().splitlines(keepends=True)
    row = lines[5].rstrip("\n").split(",")
    row[-1] = "1" if row[-1] == "0" else "0"  # failure_update
    lines[5] = ",".join(row) + "\n"
    (flipped / "history.csv").write_text("".join(lines))
    capsys.readouterr()
    for rtol in ("1e-9", "1", "1e300"):
        assert same_outputs([str(run), str(flipped), "--rtol", rtol]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "differs: history.csv"

    # a printed cell resolves no less than one unit of its last digit
    digit = tmp_path / "digit"
    shutil.copytree(run, digit)
    header, row = (run / "design.csv").read_text().splitlines()
    lam, delta = row.split(",")
    mantissa, exponent = lam.split("e")
    last = int(mantissa[-1])
    for units, code in ((1, 0), (2, 1)):
        bumped = last + units if last + units <= 9 else last - units
        (digit / "design.csv").write_text(f"{header}\n{mantissa[:-1]}{bumped}e{exponent},{delta}\n")
        capsys.readouterr()
        assert same_outputs([str(run), str(digit), "--rtol", "0"]) == code
    assert capsys.readouterr().out.splitlines()[-1] == "differs: design.csv"
