import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rbto import fem
from rbto.cli import (
    ConfigError,
    _resolve_theta,
    build_problem,
    load_config,
    main,
    parse_config,
)
from rbto.reliability import HybridConfig, McConfig
from rbto.sampling import DRAW_AHEAD, DRAW_BLOCK
from rbto.sgd import run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BEAM_CONFIGS = sorted(CONFIGS.glob("beam_*.json"))


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def truss_smoke_config(**over):
    cfg = {
        "problem": "truss",
        "seed": 4,
        "iterations": 60,
        "m": 20,
        "estimator": {"method": "mc", "n_samples": 2000},
        "posthoc_samples": 5000,
    }
    cfg.update(over)
    return cfg


def assert_config_error(tmp_path, capsys, argv, message):
    """main(argv) exits 2 with a one-line message and creates no output directory."""
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)] if argv[0] == "run" else argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert re.search(f"config error: .*{message}", err)
    assert not out.exists()


class TestConfigParsing:
    def test_defaults_filled_per_problem(self):
        cfg = parse_config({"problem": "truss", "seed": 1})
        assert cfg.optimizer.iterations == 10000
        assert cfg.optimizer.eta == 1e-5
        assert isinstance(cfg.optimizer.estimator, HybridConfig)
        assert cfg.optimizer.estimator.gamma == 2.5
        beam = parse_config({"problem": "beam", "seed": 1}).optimizer
        assert beam.n == 8 and beam.m == 25 and beam.eta == 0.02
        assert beam.estimator.gamma == 25.0

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key.*etaa"):
            parse_config({"problem": "truss", "seed": 1, "etaa": 2.0})

    def test_unknown_estimator_key_rejected(self):
        with pytest.raises(ConfigError, match="estimator"):
            parse_config({
                "problem": "truss", "seed": 1,
                "estimator": {"method": "mc", "n_samples": 10, "p0": 0.1},
            })

    def test_unknown_problem_param_rejected(self):
        with pytest.raises(ConfigError, match="problem_params"):
            parse_config({"problem": "beam", "seed": 1,
                          "problem_params": {"nz": 10}})

    def test_missing_required_fields(self):
        with pytest.raises(ConfigError, match="problem"):
            parse_config({"seed": 1})
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"problem": "truss"})

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": "truss",\n  seed: 1}')
        with pytest.raises(ConfigError, match=r"bad\.json:2"):
            load_config(path)

    @pytest.mark.parametrize("over, message", [
        ({"iterations": "x"}, "iterations must be a number"),
        ({"problem": "lbeam", "problem_params": {"n_grid": 20}}, "divisible by 6"),
        ({"problem_params": {"theta0": [5.0, 0.7]}}, "theta0"),
        ({"kappa_c": [1.0]}, "unknown key.*kappa_c"),
        ({"iterations": 2.7}, "iterations must be an integer"),
        ({"seed": True}, "seed must be a number"),
        ({"posthoc_samples": 0}, "posthoc_samples must be >= 1"),
        ({"problem": ["truss"]}, "problem must be one of"),
        ({"estimator": {"method": ["mc"]}}, "estimator.method must be one of"),
        ({"iterations": 10**30}, "iterations must be <= 1000000000"),
        ({"estimator": {"method": "mc", "n_samples": 10**30}}, "n_samples must be <= 1000000000"),
        ({"problem": "beam", "problem_params": {"nx": 10**30}}, "nx must be <= 1000000000"),
        ({"eta_f": -1}, "eta_f must be > 0"),
        ({"eta_f": 0}, "eta_f must be > 0"),
        ({"problem": "beam", "problem_params": {"e0_std": -0.1}}, "e0_std must be > 0"),
        ({"problem": "lbeam", "problem_params": {"e0_mean": 0}}, "e0_mean must be > 0"),
        ({"problem": "beam", "problem_params": {"p0_load": 0}}, "p0_load must be > 0"),
        ({"problem": "beam", "problem_params": {"tau": -5.0}}, "tau must be >= 0"),
        ({"problem_params": {"p_load": 0}}, "p_load must be > 0"),
        ({"p_a": 1.0}, r"p_a must lie in \(0, 1\)"),
        ({"n": 0}, "n must be >= 1"),
        ({"estimator": {"method": "mc", "n_samples": 0}}, "estimator: n_samples must be >= 1"),
        # keys that are no longer settings: a robust run is kappa_f 0, the output
        # directory is --out, and the estimators' method constants are class constants
        ({"mode": "robust"}, "unknown key.*mode"),
        ({"out_dir": "out"}, "unknown key.*out_dir"),
        ({"estimator": {"method": "subset", "p0": 0.1}}, "unknown key.*p0"),
        ({"estimator": {"method": "hybrid", "n_fit": 50}}, "unknown key.*n_fit"),
        # a run reads no fixed design
        ({"theta": [0.9, 0.3]}, "unknown key.*theta"),
    ], ids=["iterations", "n_grid", "theta0", "kappa_c", "iterations_float",
            "seed_bool", "posthoc_samples", "problem_list", "method_list",
            "iterations_huge", "n_samples_huge", "nx_huge", "eta_f_negative", "eta_f_zero",
            "beam_e0_std", "lbeam_e0_mean", "beam_p0_load", "beam_tau", "truss_p_load", "p_a_one", "n_zero",
            "mc_n_samples_zero", "mode", "out_dir", "p0", "n_fit", "theta"])
    def test_malformed_config_exits_2_before_any_work(self, tmp_path, capsys, over, message):
        path = write_config(tmp_path, {"problem": "truss", "seed": 1, **over})
        assert_config_error(tmp_path, capsys, ["run", path], message)

    @pytest.mark.parametrize("flag, value, message", [
        ("--iterations", "0", "iterations must be >= 1"),
        ("--seed", "-1", "seed must be >= 0"),
    ], ids=["iterations", "seed"])
    def test_malformed_override_exits_2_before_any_work(self, tmp_path, capsys, flag, value,
                                                        message):
        path = write_config(tmp_path, {"problem": "truss", "seed": 1})
        assert_config_error(tmp_path, capsys, ["run", path, flag, value], message)

    @pytest.mark.parametrize("problem, theta, message", [
        ("truss", {"uniform": 0.5}, r"theta must be a list or \{'csv': path\}"),
        ("truss", [0.3, "a"], r"theta\[1\] must be a number"),
        ("truss", {"csv": "missing.csv"}, "theta.csv: no file"),
        ("truss", {"csv": "three.csv"}, "theta must have 2 entries"),
        ("truss", [1.5, 0.0], r"theta\[0\] = 1.5 lies outside the design box \[0, 1\]"),
        # the L-bracket at n_grid 12 has 80 elements
        ("lbeam", [0] * 80, r"theta\[0\] = 0 lies outside the design box \[0.001, 1\]"),
        ("lbeam", [-1] * 80, r"theta\[0\] = -1 lies outside the design box"),
        ("lbeam", [5] * 80, r"theta\[0\] = 5 lies outside the design box"),
    ], ids=["uniform", "list", "csv", "csv_three_values", "truss_outside_box",
            "lbeam_zero", "lbeam_negative", "lbeam_above_one"])
    def test_malformed_theta_exits_2(self, tmp_path, capsys, monkeypatch, problem, theta, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "three.csv").write_text("0.3425,0.7549,0.9\n")
        cfg = {"problem": problem, "seed": 1, "theta": theta,
               "estimator": {"method": "mc", "n_samples": 100}}
        if problem == "lbeam":
            cfg["problem_params"] = {"n_grid": 12}
        assert_config_error(tmp_path, capsys, ["estimate", write_config(tmp_path, cfg)], message)

    @pytest.mark.parametrize("key, value", [
        ("iterations", 10), ("posthoc_samples", 10**4), ("eta", -1),
    ], ids=["iterations", "posthoc_samples", "eta"])
    def test_estimate_config_rejects_run_keys(self, tmp_path, capsys, key, value):
        cfg = {"problem": "truss", "seed": 1, "theta": [0.3425, 0.754855], key: value}
        assert_config_error(tmp_path, capsys, ["estimate", write_config(tmp_path, cfg)],
                            f"unknown key.*{key}")

    @pytest.mark.parametrize("flags", [["--out", "out"], ["--iterations", "3"]],
                             ids=["out", "iterations"])
    def test_estimate_takes_no_run_flags(self, tmp_path, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(CONFIGS / "truss_estimate.json"), *flags])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed, flags, message", [
        (-1, [], "seed must be >= 0"),
        (1, ["--seed", "-2"], "seed must be >= 0"),
        (1.5, [], "seed must be an integer, got 1.5"),
        (True, [], "seed must be a number, got True"),
    ], ids=["config", "flag", "float", "bool"])
    def test_estimate_checks_its_seed(self, tmp_path, capsys, seed, flags, message):
        cfg = {"problem": "truss", "seed": seed, "theta": [0.3425, 0.754855]}
        assert_config_error(tmp_path, capsys,
                            ["estimate", write_config(tmp_path, cfg), *flags], message)

    def test_estimate_builds_only_what_it_reads(self):
        raw = json.loads((CONFIGS / "truss_estimate.json").read_text())
        cfg = parse_config(raw, "estimate")
        assert cfg.optimizer is None and cfg.posthoc is None  # no run settings, no post-hoc check
        assert cfg.seed == raw["seed"]
        assert cfg.estimator == McConfig(n_samples=10**6)
        assert parse_config(json.loads(json.dumps(cfg.echo)), "estimate") == cfg

    @pytest.mark.parametrize("over, message", [
        ({"eta": float("nan")}, "eta must be finite, got nan"),
        ({"estimator": {"method": "hybrid", "gamma": float("inf")}},
         "estimator.gamma must be finite, got inf"),
        ({"eta": 10**400}, "eta must be finite"),  # an int beyond the float range
        ({"iterations": float("nan")}, "iterations must be an integer, got nan"),
    ], ids=["eta_nan", "gamma_inf", "eta_huge_int", "iterations_nan"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, over, message):
        path = write_config(tmp_path, truss_smoke_config(**over))
        assert_config_error(tmp_path, capsys, ["run", path], message)

    def test_range_validation(self):
        with pytest.raises(ConfigError, match="p_a"):
            parse_config({"problem": "truss", "seed": 1, "p_a": 2.0})
        with pytest.raises(ConfigError, match="eta"):
            parse_config({"problem": "truss", "seed": 1, "eta": -1.0})

    @pytest.mark.parametrize("raw", [
        {"problem": "beam", "seed": 1},
        {"problem": "truss", "seed": 1, "estimator": {"method": "subset"}},
        {"problem": "lbeam", "seed": 4, "kappa_f": 0},
    ], ids=["beam_minimal", "method_switch", "lbeam_robust"])
    def test_echo_holds_every_value_the_run_uses(self, raw):
        cfg = parse_config(raw)
        echo = json.loads(json.dumps(cfg.echo))  # as summary.json holds it
        assert parse_config(echo) == cfg
        opt, spec = cfg.optimizer, cfg.problem_spec
        for f in dataclasses.fields(opt):
            if f.name != "estimator":
                assert echo[f.name] == getattr(opt, f.name)
        assert echo["estimator"] == {"method": raw.get("estimator", {}).get("method", "hybrid"),
                                     **dataclasses.asdict(opt.estimator)}
        mesh_keys = {"truss": set(), "beam": {"variant", "n_grid"}, "lbeam": {"variant", "nx", "ny"}}
        params = {key: value for key, value in dataclasses.asdict(spec).items()
                  if key not in mesh_keys[raw["problem"]]}
        assert echo["problem_params"] == json.loads(json.dumps(params))
        assert echo["posthoc_samples"] == cfg.posthoc.n_samples

    @pytest.mark.parametrize("name", ["truss_hybrid.json", "beam_rect.json", "beam_lshape.json"])
    def test_run_config_lists_every_value_the_run_uses(self, name):
        # a shipped run config hides no default and carries no removed key
        text = (CONFIGS / name).read_text()
        assert json.loads(text) == json.loads(json.dumps(parse_config(json.loads(text)).echo))

    @pytest.mark.parametrize("path", BEAM_CONFIGS, ids=lambda path: path.stem)
    def test_beam_draws_stay_in_the_first_fill(self, path):
        # the first fill of a Monte Carlo draw is the single draw sample_u, so a
        # retune of DRAW_AHEAD or DRAW_BLOCK cannot change a shipped beam run
        cfg = load_config(path)
        assert cfg.optimizer.estimator.n_samples <= DRAW_AHEAD * DRAW_BLOCK
        assert cfg.posthoc.n_samples <= DRAW_AHEAD * DRAW_BLOCK


class TestRunCommand:
    def test_truss_smoke_run_outputs(self, tmp_path):
        path = write_config(tmp_path, truss_smoke_config())
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        assert (out / "history.csv").exists()
        assert (out / "design.csv").exists()
        assert (out / "summary.json").exists()
        assert not list(out.glob("*.tmp"))

        rows = (out / "history.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header == ["iteration", "objective", "objective_expected", "p_f", "alpha",
                          "beta_norm", "failure_update"]
        assert len(rows) == 1 + 60
        # refresh cells populated exactly at multiples of m
        for k, row in enumerate(rows[1:], start=1):
            p_cell = row.split(",")[3]
            assert (p_cell != "") == (k % 20 == 0)

        summary = json.loads((out / "summary.json").read_text())
        assert summary["problem"] == "truss"
        assert 0.0 <= summary["final_p_f"] <= 1.0
        assert summary["n_exact_g_evals"] > 0
        assert len(summary["design"]["theta"]) == 2

    def test_repeat_run_bit_identical_history(self, tmp_path):
        path = write_config(tmp_path, truss_smoke_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(out1)]) == 0
        assert main(["run", path, "--out", str(out2)]) == 0
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        s1.pop("wall_time_s"), s2.pop("wall_time_s")
        assert s1 == s2

    def test_summary_config_roundtrip(self, tmp_path):
        path = write_config(tmp_path, truss_smoke_config())
        out = tmp_path / "out"
        main(["run", path, "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        echoed = parse_config(summary["config"])
        original = load_config(path)
        assert echoed == original

    def test_robust_mode_estimates_only_posthoc(self, tmp_path):
        cfg = truss_smoke_config(kappa_f=0)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        rows = (out / "history.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[3] == "" for row in rows)
        summary = json.loads((out / "summary.json").read_text())
        assert "final_p_f" in summary
        assert summary["n_exact_g_evals"] == 0

    def test_cli_overrides(self, tmp_path):
        path = write_config(tmp_path, truss_smoke_config())
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--iterations", "10",
                     "--seed", "99"]) == 0
        rows = (out / "history.csv").read_text().splitlines()
        assert len(rows) == 11
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 99

    def test_beam_smoke_run_writes_images(self, tmp_path):
        cfg = {
            "problem": "beam",
            "seed": 2,
            "iterations": 5,
            "m": 2,
            "estimator": {"method": "mc", "n_samples": 500},
            "posthoc_samples": 500,
            "problem_params": {"nx": 12, "ny": 4},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        assert (out / "design.pgm").exists()
        grid = np.loadtxt(out / "design.csv", delimiter=",")
        assert grid.shape == (4, 12)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["design"]["n_elements"] == 48

    @pytest.mark.parametrize("cfg", [
        truss_smoke_config(),
        {"problem": "lbeam", "seed": 3, "iterations": 6, "m": 3,
         "estimator": {"method": "mc", "n_samples": 500}, "posthoc_samples": 500,
         "problem_params": {"n_grid": 12}},
    ], ids=["truss", "lbeam"])
    def test_history_holds_the_expected_objective(self, tmp_path, cfg):
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        rows = (out / "history.csv").read_text().splitlines()
        column = rows[0].split(",").index("objective_expected")
        run_cfg = load_config(path)
        _, hist = run(build_problem(run_cfg)[0], run_cfg.optimizer)
        assert [row.split(",")[column] for row in rows[1:]] == [
            f"{v:.10e}" for v in hist.objective_expected]

    def test_failed_image_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        def failing_pgm(fh, grid):
            fh.write("P2\n")
            raise OSError("disk full")

        monkeypatch.setattr(fem, "write_density_pgm", failing_pgm)
        cfg = {"problem": "beam", "seed": 2, "iterations": 2, "m": 2,
               "estimator": {"method": "mc", "n_samples": 100}, "posthoc_samples": 100,
               "problem_params": {"nx": 12, "ny": 4}}
        out = tmp_path / "out"
        with pytest.raises(OSError, match="disk full"):
            main(["run", write_config(tmp_path, cfg), "--out", str(out)])
        assert (out / "design.csv").exists()
        assert not (out / "design.pgm").exists()
        assert not list(out.glob("*.tmp"))

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "nope", "seed": 1})
        assert main(["run", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("content", [None, b'{"problem": "truss\xff", "seed": 1}'],
                             ids=["directory", "not_utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "cfg"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert_config_error(tmp_path, capsys, ["run", str(path)], "cannot read config file")

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept")
        assert main(["run", write_config(tmp_path, truss_smoke_config()), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "cannot create output directory" in err
        assert out.read_text() == "kept"

    def test_numerical_failure_exits_3_with_partial_history(self, tmp_path, capsys):
        # a vanished cross-section fails every draw: g = -inf cannot be fitted
        cfg = {"problem": "truss", "seed": 1, "iterations": 300, "m": 100,
               "problem_params": {"theta0": [0.0, 0.7]},
               "estimator": {"method": "hybrid", "n_samples": 1000}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 3
        assert "numerical failure at iteration 100: " in capsys.readouterr().err
        rows = (out / "history.csv").read_text().splitlines()
        assert len(rows) == 1 + 300
        for column in (1, 2):  # objective, objective_expected
            values = [row.split(",")[column] for row in rows[1:]]
            assert "nan" not in values[:99]  # the first refresh, at iteration 100, fails
            assert set(values[99:]) == {"nan"}

    def test_posthoc_failure_exits_3_with_full_history(self, tmp_path, capsys, monkeypatch):
        # a singular factorization of the final design in the post-hoc check
        def failing_posthoc(*args):
            raise fem.SolverError("stiffness matrix is not positive definite")

        monkeypatch.setattr("rbto.cli.run_estimator", failing_posthoc)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, truss_smoke_config()), "--out", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        rows = (out / "history.csv").read_text().splitlines()
        assert len(rows) == 1 + truss_smoke_config()["iterations"]
        assert "nan" not in "".join(rows)
        assert not (out / "summary.json").exists()


class TestEstimateCommand:
    def test_truss_reference_mc(self, capsys):
        assert main(["estimate", "configs/truss_estimate.json"]) == 0
        out = capsys.readouterr().out
        p_hat = float(out.split("p_hat")[1].split(":")[1].split()[0])
        assert p_hat == pytest.approx(1e-3, rel=0.1)

    def test_hybrid_below_the_fit_size_is_mc(self, tmp_path, capsys):
        # 3 samples are fewer than the 100 exact evaluations a surrogate fit takes
        outs = {}
        for method in ("hybrid", "mc"):
            cfg = json.loads((CONFIGS / "truss_estimate.json").read_text())
            cfg["estimator"] = {"method": method, "n_samples": 3}
            assert main(["estimate", write_config(tmp_path, cfg, f"{method}.json")]) == 0
            outs[method] = capsys.readouterr().out
        assert re.search(r"^exact evals *: 3$", outs["hybrid"], re.M)
        assert outs["hybrid"] == outs["mc"]

    def test_always_failing_design(self, tmp_path, capsys):
        # vanished cross-section: every draw fails
        cfg = {
            "problem": "truss",
            "seed": 3,
            "theta": [0.0, 0.7853981633974483],
            "estimator": {"method": "mc", "n_samples": 1000},
        }
        path = write_config(tmp_path, cfg)
        assert main(["estimate", path]) == 0
        out = capsys.readouterr().out
        assert "p_hat            : 1.000000e+00" in out

    def test_subset_ladder_printed_decreasing(self, tmp_path, capsys):
        cfg = {
            "problem": "truss",
            "seed": 5,
            "theta": [0.3425, 0.754855],
            "estimator": {"method": "subset", "n_samples": 1000},
        }
        path = write_config(tmp_path, cfg)
        assert main(["estimate", path]) == 0
        out = capsys.readouterr().out
        ladder_line = [l for l in out.splitlines() if "threshold ladder" in l][0]
        values = [float(v) for v in ladder_line.split(":")[1].split(">")]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_truss_design_csv_round_trips(self, tmp_path, capsys):
        path = write_config(tmp_path, truss_smoke_config())
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        design = out / "design.csv"
        header, row = design.read_text().splitlines()
        assert header == "lambda,delta"
        capsys.readouterr()

        cfg = {key: truss_smoke_config()[key] for key in ("problem", "seed", "estimator")}
        cfg["theta"] = {"csv": str(design)}
        assert main(["estimate", write_config(tmp_path, cfg, "from_csv.json")]) == 0
        from_csv = capsys.readouterr().out
        cfg["theta"] = [float(v) for v in row.split(",")]
        assert main(["estimate", write_config(tmp_path, cfg, "from_list.json")]) == 0
        assert from_csv == capsys.readouterr().out

    def test_beam_design_csv_round_trips(self, tmp_path):
        # design.csv holds the design variables theta, not the filtered density
        params = {"nx": 30, "ny": 10, "c_max": 150.0}
        cfg = {"problem": "beam", "seed": 1, "iterations": 400, "kappa_f": 0,
               "posthoc_samples": 100, "problem_params": params}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        est = parse_config({"problem": "beam", "seed": 1, "problem_params": params,
                            "theta": {"csv": str(out / "design.csv")}}, "estimate")
        problem, context = build_problem(est)
        c1, _ = context.unit_solution(_resolve_theta(est, problem, context))
        assert c1 == pytest.approx(summary["design"]["unit_compliance"], rel=1e-6)

    def test_uniform_theta_for_beam(self, tmp_path, capsys):
        cfg = {
            "problem": "beam",
            "seed": 6,
            "estimator": {"method": "mc", "n_samples": 2000},
            "problem_params": {"nx": 12, "ny": 4, "c_max": 100.0, "theta0": 1.0},
        }
        path = write_config(tmp_path, cfg)
        assert main(["estimate", path]) == 0
        out = capsys.readouterr().out
        assert "p_hat" in out


def test_import_leaves_scipy_stats_out():
    # the truss oracle takes ndtr from scipy.special; scipy.stats would more than double the import time
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, rbto.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
