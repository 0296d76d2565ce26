import dataclasses
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rsvm import bench, cli
from rsvm.bench import (
    AggregateRow,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    aggregate,
    m_from_fraction,
    nmse,
    read_rows_csv,
    run_experiment,
    write_csv,
)
from rsvm.cli import main
from rsvm.core import Hyperparameters, SolverDivergenceError
from rsvm.kronops import FactorizationError
from rsvm.nuclear import NuclearConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def tiny_config(**overrides):
    base = dict(scenario="completion", p=6, q=8, r=1, m_fraction=[0.6],
                n_matrices=2, n_measurements=2, algorithms=("rsvm",),
                seed=7, hyper=Hyperparameters(max_iter=6))
    base.update(overrides)
    return ExperimentConfig(**base)


FAILED = dict(nmse_linear=math.nan, nmse_db=math.nan, err_sq=math.nan,
              iterations=0, failed=1)


def make_row(**overrides):
    base = dict(scenario="completion", algorithm="rsvm", p=6, q=8, r=1,
                m=28, trial_matrix=0, trial_noise=0, nmse_linear=0.25,
                nmse_db=10 * math.log10(0.25), iterations=10,
                wall_time_seconds=0.1, err_sq=1.0, signal_sq=4.0)
    base.update(overrides)
    return ResultRow(**base)


class TestNmse:
    def test_exact_estimate(self):
        x = np.arange(6.0).reshape(2, 3)
        assert nmse(x, x) == 0.0

    def test_zero_estimate(self):
        x = np.arange(1.0, 7.0).reshape(2, 3)
        assert abs(nmse(x, np.zeros_like(x)) - 1.0) <= 1e-15

    def test_doubled_estimate(self):
        x = np.arange(1.0, 7.0).reshape(2, 3)
        assert abs(nmse(x, 2.0 * x) - 1.0) <= 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nmse(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_zero_truth(self):
        with pytest.raises(ValueError):
            nmse(np.zeros((2, 2)), np.ones((2, 2)))


class TestMFromFraction:
    @pytest.mark.parametrize("p,q,frac,expected", [
        (15, 30, 0.7, 315),
        (15, 15, 0.7, 157),
        (15, 15, 0.3, 67),
        (15, 15, 0.5, 112),
        (10, 10, 0.8, 80),
    ])
    def test_values(self, p, q, frac, expected):
        assert m_from_fraction(p, q, frac) == expected


class TestAggregate:
    def test_single_row(self):
        row = make_row()
        out = aggregate([row])
        assert len(out) == 1
        assert abs(out[0].nmse_db - 10 * math.log10(0.25)) <= 1e-12

    def test_ratio_of_means(self):
        rows = [make_row(err_sq=1.0, signal_sq=4.0, nmse_linear=0.25),
                make_row(trial_noise=1, err_sq=3.0, signal_sq=4.0,
                         nmse_linear=0.75)]
        out = aggregate(rows)
        assert len(out) == 1
        assert abs(out[0].nmse_db - 10 * math.log10(0.5)) <= 1e-12
        # mean of ratios differs: (0.25 + 0.75)/2 = 0.5 here too
        assert abs(out[0].nmse_db_mean_of_ratios
                   - 10 * math.log10(0.5)) <= 1e-12

    def test_failures_excluded_and_counted(self):
        rows = [make_row(),
                make_row(trial_noise=1, failed=1, err_sq=float("nan"),
                         nmse_linear=float("nan"))]
        out = aggregate(rows)
        assert out[0].n_trials == 2
        assert out[0].n_failures == 1
        assert abs(out[0].nmse_db - 10 * math.log10(0.25)) <= 1e-12

    def test_all_failed_group_keeps_its_row(self):
        rows = [make_row(m=24, **FAILED), make_row(m=36),
                make_row(m=36, algorithm="nuclear")]
        out = aggregate(rows)
        assert [(row.sweep_value, row.algorithm) for row in out] == [
            (0.5, "rsvm"), (0.75, "nuclear"), (0.75, "rsvm")]
        failed = out[0]
        assert failed.n_trials == failed.n_failures == 1
        assert math.isnan(failed.nmse_db)
        assert math.isnan(failed.mean_wall_time)
        assert math.isnan(failed.nmse_db_mean_of_ratios)

    def test_groups_by_algorithm(self):
        rows = [make_row(), make_row(algorithm="nuclear", err_sq=2.0)]
        out = aggregate(rows)
        assert [row.algorithm for row in out] == ["nuclear", "rsvm"]

    def test_sweep_value_is_m_fraction(self):
        rows = [make_row(m=24), make_row(m=36)]
        out = aggregate(rows)
        assert {row.sweep_value for row in out} == {0.5, 0.75}

    @pytest.mark.parametrize("qs", [[10, 20], [8, 10, 11]])
    def test_sweep_value_is_swept_width(self, qs):
        # m moves with q at a fixed m_fraction; the points are the widths
        rows = [make_row(p=6, q=q, m=m_from_fraction(6, q, 0.7)) for q in qs]
        assert [row.sweep_value for row in aggregate(rows)] == qs


class TestWriteCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("scenario,algorithm,")

    def test_single_row_two_lines(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([make_row()], path)
        assert len(path.read_text().splitlines()) == 2

    @pytest.mark.parametrize("written, read", [
        (dict(nmse_linear=0.123456789, err_sq=1.23456789e-7),
         dict(nmse_linear=0.123457, err_sq=1.23457e-7, nmse_db=-6.0206)),
        (FAILED, FAILED)], ids=["good", "failed"])
    def test_round_trip_six_significant_digits(self, tmp_path, written, read):
        path = tmp_path / "out.csv"
        write_csv([make_row(**written)], path)
        back = dataclasses.asdict(read_rows_csv(path)[0])
        expected = dataclasses.asdict(make_row(**read))
        np.testing.assert_equal(back, expected)  # NaN matches NaN
        assert [type(v) for v in back.values()] \
            == [type(v) for v in expected.values()]

    def test_aggregate_schema(self, tmp_path):
        path = tmp_path / "agg.csv"
        write_csv([AggregateRow(0.5, "rsvm", -12.0, 4, 0, 0.1, -11.5)], path)
        header = path.read_text().splitlines()[0]
        assert header == ("sweep_value,algorithm,nmse_db,n_trials,"
                          "n_failures,mean_wall_time,nmse_db_mean_of_ratios")


class TestConfigValidation:
    def test_exactly_one_sweep_required(self):
        with pytest.raises(ConfigError):
            tiny_config(m_fraction=0.6)  # no sweep at all
        with pytest.raises(ConfigError):
            tiny_config(r=[1, 2])  # two sweeps

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(m_fraction=[])

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            tiny_config(algorithms=("rsvm", "oracle"))

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            tiny_config(scenario="inpainting")

    def test_negative_seed(self):
        with pytest.raises(ConfigError):
            tiny_config(seed=-1)

    def test_symmetric_solver_needs_square_points(self):
        with pytest.raises(ConfigError):
            tiny_config(algorithms=("rsvm", "rsvm-symmetric"))
        with pytest.raises(ConfigError):
            tiny_config(p=[6, 7], q=6, m_fraction=0.6,
                        algorithms=("rsvm-symmetric",))
        tiny_config(p=6, q=6, algorithms=("rsvm-symmetric",))


class TestRunExperiment:
    def test_grid_shape(self):
        rows = run_experiment(tiny_config())
        assert len(rows) == 4  # 1 sweep point x 2 matrices x 2 noise draws
        assert {(r.trial_matrix, r.trial_noise) for r in rows} \
            == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_deterministic_csv(self, tmp_path):
        cfg = tiny_config(record_timing=False)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(cfg), p1)
        write_csv(run_experiment(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        serial = tiny_config(record_timing=False)
        parallel = tiny_config(record_timing=False, jobs=3)
        p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
        write_csv(run_experiment(serial), p1)
        write_csv(run_experiment(parallel), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_multiple_algorithms_share_instances(self):
        cfg = tiny_config(algorithms=("rsvm", "rsvm-accel"),
                          n_matrices=1, n_measurements=1)
        rows = run_experiment(cfg)
        assert [r.algorithm for r in rows] == ["rsvm", "rsvm-accel"]
        assert rows[0].signal_sq == rows[1].signal_sq

    def test_reconstruction_scenario(self):
        cfg = tiny_config(scenario="reconstruction", n_matrices=1,
                          n_measurements=1)
        rows = run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0].failed == 0

    def test_psd_truth_with_symmetric_solver(self):
        cfg = tiny_config(p=6, q=6, algorithms=("rsvm-symmetric",),
                          psd_truth=True, n_matrices=1, n_measurements=1)
        rows = run_experiment(cfg)
        assert rows[0].failed == 0
        assert rows[0].nmse_linear < 1.0

    def test_unset_cap_is_each_solvers_own(self):
        # a hyper section without max_iter keeps 25 for rsvm, 30 for accel
        rows = {hyper: run_experiment(tiny_config(
                    hyper=hyper, algorithms=("rsvm", "rsvm-accel"),
                    n_matrices=1, n_measurements=1, record_timing=False))
                for hyper in (None, Hyperparameters())}
        assert rows[None] == rows[Hyperparameters()]
        assert [r.iterations for r in rows[None]] == [25, 30]

    def test_solver_abort_recorded_as_failure_row(self, monkeypatch):
        # the symmetric solver diverges; the run continues
        def diverge(inst, hyper=None):
            raise SolverDivergenceError("non-finite estimate at iteration 1")

        monkeypatch.setattr(bench.symmetric, "solve_symmetric", diverge)
        cfg = tiny_config(p=6, q=6, algorithms=("rsvm", "rsvm-symmetric"),
                          n_matrices=1, n_measurements=1)
        rows = run_experiment(cfg)
        by_alg = {r.algorithm: r for r in rows}
        assert by_alg["rsvm"].failed == 0
        assert by_alg["rsvm-symmetric"].failed == 1
        assert math.isnan(by_alg["rsvm-symmetric"].nmse_linear)


class TestCli:
    def test_gen_and_solve(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        code = main(["gen", "--p", "6", "--q", "6", "--r", "1",
                     "--m-fraction", "0.8", "--seed", "3",
                     "--out", str(inst_path)])
        assert code == 0
        assert inst_path.exists()
        est_path = tmp_path / "est.json"
        code = main(["solve", "--instance", str(inst_path),
                     "--algorithm", "rsvm", "--out", str(est_path)])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["nmse_db"] < -10.0
        saved = json.loads(est_path.read_text())
        assert np.shape(saved.pop("x_hat")) == (6, 6)
        assert saved == payload

    def test_solve_zero_truth_prints_no_nmse(self, tmp_path, capsys):
        # NMSE is undefined against a zero truth; the estimate still prints
        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--p", "4", "--q", "4", "--r", "1",
                     "--out", str(inst_path)]) == 0
        doc = json.loads(inst_path.read_text())
        doc["ground_truth"] = np.zeros((4, 4)).tolist()
        inst_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["solve", "--instance", str(inst_path),
                     "--algorithm", "rsvm"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "nmse_db" not in payload and payload["iterations"] >= 1

    @pytest.mark.parametrize("error, code", [
        (SolverDivergenceError("non-finite estimate at iteration 1"), 2),
        (FactorizationError("Cholesky factorization failed"), 2),
        (TypeError("a programming error"), None)])
    def test_solve_failure_handling(self, tmp_path, capsys, monkeypatch,
                                    error, code):
        # numerical failures exit 2; anything else propagates
        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--p", "4", "--q", "4", "--r", "1",
                     "--out", str(inst_path)]) == 0

        def fail(name, inst, cfg):
            raise error

        monkeypatch.setattr(cli, "run_algorithm", fail)
        args = ["solve", "--instance", str(inst_path), "--algorithm", "rsvm"]
        if code is None:
            with pytest.raises(type(error)):
                main(args)
        else:
            assert main(args) == code
            assert "solver failed" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", bench.ALGORITHMS)
    def test_solve_smallest_shape(self, tmp_path, capsys, algorithm):
        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--p", "2", "--q", "2", "--r", "1",
                     "--out", str(inst_path)]) == 0
        assert main(["solve", "--instance", str(inst_path),
                     "--algorithm", algorithm]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("args", [
        ["--p", "4", "--q", "4", "--r", "5"], ["--m-fraction", "1.5"],
        ["--seed", "-1"], ["--snr-db", "4000"]],
        ids=["rank", "m-fraction", "seed", "snr"])
    def test_gen_out_of_range_exit_code(self, tmp_path, capsys, args):
        inst_path = tmp_path / "inst.json"
        assert main(["gen", *args, "--out", str(inst_path)]) == 1
        assert not inst_path.exists()
        assert capsys.readouterr().err.startswith("config error: ")

    def test_sweep_and_report(self, tmp_path, capsys):
        config = {
            "scenario": "completion", "p": 6, "q": 8, "r": 1,
            "m_fraction": [0.6], "n_matrices": 1, "n_measurements": 2,
            "algorithms": ["rsvm"], "seed": 1,
            "hyper": {"max_iter": 6},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rows_path = tmp_path / "rows.csv"
        code = main(["sweep", "--config", str(cfg_path),
                     "--out", str(rows_path), "--no-timing"])
        assert code == 0
        assert len(rows_path.read_text().splitlines()) == 3

        agg_path = tmp_path / "agg.csv"
        code = main(["report", "--rows", str(rows_path),
                     "--out", str(agg_path)])
        assert code == 0
        assert len(agg_path.read_text().splitlines()) == 2
        capsys.readouterr()

    def test_report_prints_table(self, tmp_path, capsys):
        rows_path = tmp_path / "rows.csv"
        write_csv([make_row(m=24, **FAILED), make_row(m=36)], rows_path)
        assert main(["report", "--rows", str(rows_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["sweep_value", "algorithm", "nmse_db",
                                    "trials", "failures"]
        assert [line.split() for line in lines[1:]] == [
            ["0.5", "rsvm", "nan", "1", "1"],
            ["0.75", "rsvm", "-6.021", "1", "0"]]

    @pytest.mark.parametrize("defect", ["no-file", "no-p-column",
                                        "header-only"])
    def test_report_bad_rows_exit_code(self, tmp_path, capsys, defect):
        rows_path = tmp_path / "rows.csv"
        if defect != "no-file":
            write_csv([make_row()], rows_path)
            header, row = rows_path.read_text().splitlines()
            if defect == "no-p-column":
                header = header.replace(",p,", ",width,")
                rows_path.write_text(f"{header}\n{row}\n")
            else:
                rows_path.write_text(header + "\n")
        agg_path = tmp_path / "agg.csv"
        assert main(["report", "--rows", str(rows_path),
                     "--out", str(agg_path)]) == 1
        assert not agg_path.exists()
        assert capsys.readouterr().err.startswith("config error: ")

    def test_sweep_seed_and_jobs_overrides(self, tmp_path, capsys,
                                           monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda cfg: seen.append(cfg) or [])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "completion", "p": 6, "q": 8, "r": 1,
            "m_fraction": [0.6], "seed": 1, "jobs": 1}))
        assert main(["sweep", "--config", str(cfg_path), "--seed", "7",
                     "--jobs", "2", "--out", str(tmp_path / "rows.csv")]) == 0
        assert (seen[0].seed, seen[0].jobs) == (7, 2)
        capsys.readouterr()

    def test_sweep_algorithm_override(self, tmp_path, capsys):
        config = {
            "scenario": "completion", "p": 6, "q": 8, "r": 1,
            "m_fraction": [0.6], "n_matrices": 1, "n_measurements": 1,
            "algorithms": ["rsvm", "nuclear"], "seed": 1,
            "hyper": {"max_iter": 5},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rows_path = tmp_path / "rows.csv"
        code = main(["sweep", "--config", str(cfg_path),
                     "--algorithms", "rsvm", "--out", str(rows_path)])
        assert code == 0
        rows = read_rows_csv(rows_path)
        assert {r.algorithm for r in rows} == {"rsvm"}
        capsys.readouterr()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"scenario": "completion",
                                        "bogus_key": 1}))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        cfg_path.write_text("not json at all")
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("section", [
        {"hyper": {"jitter": 1e-8}},
        {"hyper": {"max_iter": 0}},
        {"nuclear_cfg": {"lambda_bracket": [1e-3, 1]}},
        {"nuclear_cfg": {"bisect_tol": 0}},
        {"hyper": {"max_iter": 2.5}},
        {"n_matrices": 2.5},
        {"n_measurements": 0},
        {"jobs": -3},
        {"hyper": {"max_iter": math.nan}},
        {"hyper": {"max_iter": math.inf}},
        {"hyper": {"tol": 1e-6}},
        {"nuclear_cfg": {"bisect_tol": math.nan}},
        {"nuclear_cfg": {"bisect_tol": math.inf}},
        {"hyper": {"max_iter": True}},
        {"algorithms": 5},
        {"algorithms": "rsvm"},
        {"algorithms": ["nuclear", "nuclear"]},
        {"psd_truth": "false", "q": 6},  # square, so only the type is wrong
        {"record_timing": "no"},
    ], ids=["hyper-unknown", "hyper-invalid", "nuclear-unknown",
            "nuclear-invalid", "hyper-fractional-cap",
            "fractional-matrices", "zero-measurements", "negative-jobs",
            "hyper-nan-cap", "hyper-inf-cap", "hyper-unknown-tol",
            "nuclear-nan-bisect-tol", "nuclear-inf-bisect-tol",
            "hyper-bool-cap", "algorithms-number", "algorithms-string",
            "algorithms-repeated",
            "psd-truth-string", "record-timing-string"])
    def test_config_section_error_exit_code(self, tmp_path, capsys, section):
        config = {"scenario": "completion", "p": 6, "q": 8, "r": 1,
                  "m_fraction": [0.6], "n_matrices": 1, "n_measurements": 1,
                  "algorithms": ["rsvm"], **section}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rows.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: " + next(iter(section)))

    def test_output_path_type_error_exit_code(self, tmp_path, capsys,
                                              monkeypatch):
        # --out would override output_path, so the run goes without it
        solves = []
        monkeypatch.setattr(bench, "run_algorithm",
                            lambda *args: solves.append(args))
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "completion", "p": 6, "q": 8, "r": 1,
            "m_fraction": [0.6], "n_matrices": 1, "n_measurements": 1,
            "algorithms": ["rsvm"], "output_path": 5}))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: output_path")
        assert solves == []
        assert list(tmp_path.glob("*.csv")) == []

    def test_output_path_unwritable_exit_code(self, tmp_path, capsys,
                                              monkeypatch):
        # the rows file is opened before the first trial; an existing one
        # keeps its contents until the rows replace them
        rows_path = tmp_path / "rows.csv"
        seen = []
        run = bench.run_algorithm
        monkeypatch.setattr(
            bench, "run_algorithm",
            lambda *args: seen.append(rows_path.read_text()) or run(*args))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "completion", "p": 6, "q": 8, "r": 1,
            "m_fraction": [0.6], "n_matrices": 1, "n_measurements": 1,
            "algorithms": ["rsvm"], "hyper": {"max_iter": 2}}))
        for out in (tmp_path / "missing" / "rows.csv", tmp_path):
            assert main(["sweep", "--config", str(cfg_path),
                         "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith(
                "config error: cannot write rows")
        assert seen == []
        rows_path.write_text("old\n")
        assert main(["sweep", "--config", str(cfg_path),
                     "--out", str(rows_path)]) == 0
        assert seen == ["old\n"]
        assert rows_path.read_text().startswith("scenario,")

    @pytest.mark.parametrize("doc", [[1], "completion", None, 3],
                             ids=["list", "string", "null", "number"])
    def test_non_object_config_exit_code(self, tmp_path, capsys, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", [
        "nan-y", "no-kind", "no-file", "truth-shape", "inf-truth",
        "nan-sigma", "negative-sigma", "m-mismatch", "fractional-index",
        "fractional-p", "wide-index", "unknown-kind", "bool-m",
        "string-index"])
    def test_bad_instance_exit_code(self, tmp_path, capsys, defect):
        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--p", "4", "--q", "4", "--r", "1",
                     "--out", str(inst_path)]) == 0
        if defect == "no-file":
            inst_path = tmp_path / "missing.json"
        else:
            doc = json.loads(inst_path.read_text())
            if defect == "nan-y":
                doc["y"][0] = float("nan")
            elif defect == "no-kind":
                del doc["kind"]
            elif defect == "truth-shape":
                doc["ground_truth"] = doc["ground_truth"][:3]
            elif defect == "inf-truth":
                doc["ground_truth"][1][2] = float("inf")
            elif defect == "m-mismatch":
                doc["m"] = 3
            elif defect == "fractional-index":
                i, j = doc["indices"][0]
                doc["indices"][0] = [i + 0.9, j + 0.4]
            elif defect == "fractional-p":
                doc["p"] = 4.5
            elif defect == "wide-index":
                doc["indices"] = [[i, j, 7] for i, j in doc["indices"]]
            elif defect == "unknown-kind":  # would load as dense sensing
                doc["kind"] = "foo"
                doc["matrix"] = np.eye(16)[:doc["m"]].tolist()
            elif defect == "bool-m":  # one entry, so true == 1 rows
                doc.update(m=True, y=doc["y"][:1], indices=doc["indices"][:1])
            elif defect == "string-index":  # would load as the numbers
                doc["indices"] = [[str(i), str(j)]
                                  for i, j in doc["indices"]]
            else:
                doc["sigma_n"] = float("nan") if defect == "nan-sigma" \
                    else -1.0
            inst_path.write_text(json.dumps(doc))
        assert main(["solve", "--instance", str(inst_path),
                     "--algorithm", "rsvm"]) == 1
        assert "config error: cannot load instance" in capsys.readouterr().err

    def test_readme_config_loads(self, tmp_path):
        # the README's sweep config loads, its hyper section included
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        assert len(blocks) == 1
        cfg_path = tmp_path / "readme.json"
        cfg_path.write_text(blocks[0])
        cfg = cli._load_config(cfg_path, {})
        assert cfg.hyper is not None

    def test_readme_settings_table(self):
        # the README's table of nested sections names each section's class
        # and lists exactly its fields; no section is missing or extra
        text = README.read_text()
        table = text[text.index("| Section | Keys |"):].split("\n\n")[0]
        listed = {}
        for line in table.splitlines()[2:]:
            section, keys = line.split("|")[1:3]
            name, path = re.fullmatch(r" `(\w+)` \(`([\w.]+)`\) ",
                                      section).groups()
            module, _, cls = path.rpartition(".")
            listed[name] = (getattr(importlib.import_module(module), cls),
                            set(re.findall(r"`(\w+)`", keys)))
        assert listed == {
            name: (cls, {f.name for f in dataclasses.fields(cls)})
            for name, cls in (("hyper", Hyperparameters),
                              ("nuclear_cfg", NuclearConfig))}

    def test_bad_flag_exit_code(self, capsys):
        assert main(["sweep", "--nonexistent-flag", "x"]) == 1
        capsys.readouterr()

    def test_failure_rows_exit_code(self, tmp_path, capsys, monkeypatch):
        def diverge(name, inst, cfg):
            raise SolverDivergenceError("non-finite estimate at iteration 1")

        monkeypatch.setattr(bench, "run_algorithm", diverge)
        config = {
            "scenario": "completion", "p": 6, "q": 8, "r": 1,
            "m_fraction": [0.6], "n_matrices": 1, "n_measurements": 1,
            "algorithms": ["rsvm"], "seed": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rows.csv")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("point", [
        {"p": 4, "q": 4, "r": [1, 5], "m_fraction": 0.6},
        {"m_fraction": [0.6, 1.5]},
        {"scenario": "reconstruction", "m_fraction": [0.6, 0.01]},
        {"p": [6, 7], "q": 6, "m_fraction": 0.6, "psd_truth": True},
        {"seed": 1.5},
        {"snr_db": "x"},
        {"p": 6.5},
        {"snr_db": 4000},
        {"snr_db": -4000},
        {"snr_db": -3100},
        {"m_fraction": [0.5, 0.5]},
        {"m_fraction": [0.5, 0.504]},  # both give m = 24
    ], ids=["rank", "m-fraction-high", "m-fraction-low", "psd-non-square",
            "fractional-seed", "text-snr", "fractional-p", "huge-snr",
            "tiny-snr", "inf-noise", "repeated-point", "repeated-m"])
    def test_out_of_range_point_exit_code(self, tmp_path, capsys,
                                          monkeypatch, point):
        # every point is checked before the first trial runs
        solved = []
        run = bench.run_algorithm
        monkeypatch.setattr(bench, "run_algorithm",
                            lambda *args: solved.append(args) or run(*args))
        config = {"scenario": "completion", "p": 6, "q": 8, "r": 1,
                  "m_fraction": [0.6], "n_matrices": 1, "n_measurements": 1,
                  "algorithms": ["rsvm"], "hyper": {"max_iter": 2}, **point}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rows_path = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg_path),
                     "--out", str(rows_path)]) == 1
        assert not rows_path.exists()
        assert solved == []
        assert capsys.readouterr().err.startswith("config error: ")

    def test_non_square_symmetric_config_exit_code(self, tmp_path, capsys):
        config = {
            "scenario": "completion", "p": 6, "q": 8, "r": 1,
            "m_fraction": [0.6], "n_matrices": 1, "n_measurements": 1,
            "algorithms": ["rsvm-symmetric"], "seed": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rows_path = tmp_path / "rows.csv"
        code = main(["sweep", "--config", str(cfg_path),
                     "--out", str(rows_path)])
        assert code == 1
        assert not rows_path.exists()
        assert "p == q" in capsys.readouterr().err


class TestEntryModule:
    """``rsvm_bench``, the module behind the ``rsvm-bench`` command."""

    THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")

    def run_entry(self, args, preset=None):
        env = {k: v for k, v in os.environ.items()
               if k not in self.THREAD_VARS}
        env.update(preset or {})
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("preset, expected", [
        ({}, ["1", "1", "1"]),
        ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])],
        ids=["unset", "preset"])
    def test_pins_one_blas_thread_unless_set(self, preset, expected):
        # the variables must be in place before numpy loads its BLAS
        probe = ("import sys, os, rsvm_bench; "
                 "assert 'numpy' in sys.modules; "
                 f"print(*(os.environ[v] for v in {self.THREAD_VARS!r}))")
        done = self.run_entry(["-c", probe], preset)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == expected

    def test_runs_the_cli(self):
        done = self.run_entry(["-m", "rsvm_bench", "--help"])
        assert done.returncode == 0, done.stderr
        assert "sweep" in done.stdout
