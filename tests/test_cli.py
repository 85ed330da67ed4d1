"""CLI behavior: exit codes, artifact layout, and reproducibility."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from blowuplab import cli, functionals, lifespan, runio
from blowuplab.cli import main
from blowuplab.lifespan import SweepConfig, SweepRow
from blowuplab.solver import SimConfig

RUN_CONFIG = {
    "params": {"N": 1, "mu": 0.5, "p": 2.0, "q": 2.0, "a": 1, "b": 0},
    "eps": 0.4,
    "L": 12.0,
    "nr": 200,
    "t_max": 10.0,
}

SWEEP_CONFIG = {
    "base": RUN_CONFIG,
    "eps_list": [0.4, 0.3, 0.2],
    "refine": 1,
    "tau": 0.25,
}

POWER_ONLY = dict(RUN_CONFIG["params"], a=0, b=1)

# mu = 1.0 lies past mu* = 0.807 (lambda = 4.44 >= 4): no theorem covers it
PAST_MU_STAR = {
    "base": {
        "params": {"N": 3, "mu": 1.0, "p": 1.9, "q": 2.2, "a": 1, "b": 1},
        "eps": 2.4,
        "L": 21.0,
        "nr": 1050,
        "t_max": 20.0,
    },
    "eps_list": [2.4, 2.0, 1.7],
    "refine": 1,
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestClassify:
    def test_combined_case(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "p.json",
            {"params": {"N": 3, "mu": 0.5, "p": 1.9, "q": 2.2, "a": 1, "b": 1}},
        )
        assert main(["classify", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "CombinedBlowUp"
        assert doc["lifespan"]["kind"] == "algebraic"
        assert doc["lifespan"]["exponent"] == pytest.approx(6.5143, abs=5e-5)

    def test_bare_params_accepted(self, tmp_path, capsys):
        cfg = _write(tmp_path, "p.json", {"N": 1, "mu": 0.5, "p": 2.0, "q": 2.0})
        assert main(["classify", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "DerivativeBlowUp"

    def test_no_theorem(self, tmp_path, capsys):
        cfg = _write(tmp_path, "p.json", PAST_MU_STAR["base"])
        assert main(["classify", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "NoTheorem"
        assert doc["lifespan"] == {"kind": "none", "exponent": None}

    def test_invalid_params_exit_2(self, tmp_path):
        cfg = _write(tmp_path, "p.json", {"N": 0, "mu": 0.5, "p": 2.0, "q": 2.0})
        assert main(["classify", "--config", cfg]) == 2

    def test_missing_key_exit_2(self, tmp_path):
        cfg = _write(tmp_path, "p.json", {"N": 1, "mu": 0.5, "p": 2.0})
        assert main(["classify", "--config", cfg]) == 2

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["classify", "--config", str(path)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["classify", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command", ["classify", "solve"])
    def test_non_object_config_exit_2(self, tmp_path, capsys, command):
        argv = [command, "--config", _write(tmp_path, "five.json", 5)]
        if command == "solve":
            argv += ["--out", str(tmp_path / "r")]
        assert main(argv) == 2
        assert "config error:" in capsys.readouterr().err


def test_specfun_check(capsys):
    assert main(["specfun-check"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert lines[0] == "check,value,bound,pass"
    assert all(ln.endswith("True") for ln in lines[1:])


class TestSolve:
    def test_artifacts(self, tmp_path, capsys):
        cfg = _write(tmp_path, "run.json", RUN_CONFIG)
        out = tmp_path / "results"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        run_dirs = list(out.iterdir())
        assert len(run_dirs) == 1
        manifest = json.loads((run_dirs[0] / "manifest.json").read_text())
        assert manifest["outcome"] == "blowup"
        assert manifest["t_blowup"] > 0
        csv_text = (run_dirs[0] / "monitors.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header == "t,max_abs_u,F,G,G1,G2,Gamma,int_ut_p,int_u_q,dt,residual"

    def test_idempotent_hash_dir(self, tmp_path):
        cfg = _write(tmp_path, "run.json", RUN_CONFIG)
        out = tmp_path / "results"
        main(["solve", "--config", cfg, "--out", str(out)])
        first = {p.name: p.read_bytes() for d in out.iterdir() for p in d.iterdir()}
        main(["solve", "--config", cfg, "--out", str(out)])
        dirs = list(out.iterdir())
        assert len(dirs) == 1  # same config -> same hash directory
        second = {p.name: p.read_bytes() for p in dirs[0].iterdir()}
        assert first == second

    def test_distinct_configs_distinct_dirs(self, tmp_path):
        out = tmp_path / "results"
        main(["solve", "--config", _write(tmp_path, "a.json", RUN_CONFIG), "--out", str(out)])
        other = dict(RUN_CONFIG, eps=0.35)
        main(["solve", "--config", _write(tmp_path, "b.json", other), "--out", str(out)])
        assert len(list(out.iterdir())) == 2

    def test_blowuplab_out_is_the_default_and_out_wins(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("BLOWUPLAB_OUT", "env")
        docs = (RUN_CONFIG, dict(RUN_CONFIG, eps=0.35))
        names = [
            runio.config_hash(dataclasses.asdict(runio.config_from_dict(SimConfig, doc, "c")))
            for doc in docs
        ]
        solve = ["--quiet", "solve", "--config"]
        assert main(solve + [_write(tmp_path, "a.json", docs[0])]) == 0
        run_files = sorted(p.name for p in (tmp_path / "env" / names[0]).iterdir())
        assert run_files == sorted(runio.RUN_FILES)
        assert main(solve + [_write(tmp_path, "b.json", docs[1]), "--out", "flag"]) == 0
        assert [p.name for p in (tmp_path / "flag").iterdir()] == [names[1]]
        assert [p.name for p in (tmp_path / "env").iterdir()] == [names[0]]
        assert not (tmp_path / "results").exists()
        # a set but empty variable is no directory: the default ./results holds
        monkeypatch.setenv("BLOWUPLAB_OUT", "")
        assert main(solve + [str(tmp_path / "b.json")]) == 0
        assert [p.name for p in (tmp_path / "results").iterdir()] == [names[1]]

    def test_bad_config_exit_2(self, tmp_path):
        bad = dict(RUN_CONFIG, nr=10)  # below the 64-cell minimum
        cfg = _write(tmp_path, "bad.json", bad)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r")]) == 2


class TestVerify:
    def test_verify_blowup_run(self, tmp_path, capsys):
        cfg_doc = dict(RUN_CONFIG, nr=800)
        cfg = _write(tmp_path, "run.json", cfg_doc)
        out = tmp_path / "results"
        main(["solve", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        run_dir = next(out.iterdir())
        code = main(["verify", str(run_dir)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["lemma31"]["ok"]
        assert report["residual_F"]["max_rel"] < 0.05
        assert report["coercivity"]["minG1_over_eps"] > 0
        assert (run_dir / "verify.json").exists()

    def test_verify_missing_dir_exit_2(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent")]) == 2

    def _solved(self, tmp_path, capsys):
        # the run of test_verify_blowup_run, fine enough for the residual check
        out = tmp_path / "results"
        cfg = _write(tmp_path, "run.json", dict(RUN_CONFIG, nr=800))
        main(["solve", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        return next(out.iterdir())

    def test_verify_csv_missing_column_exit_2(self, tmp_path, capsys):
        run_dir = self._solved(tmp_path, capsys)
        path = run_dir / "monitors.csv"
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        with open(path, "w", newline="") as fh:
            names = [c for c in rows[0] if c != "Gamma"]
            writer = csv.DictWriter(fh, names, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        assert main(["verify", str(run_dir)]) == 2
        assert "Gamma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "manifest, key",
        [
            ({}, "config"),
            ({"config": 5}, "params"),
            ({"config": {"profile": {"R": 1.0}, "eps": 0.4}}, "params"),
            ({"config": {"params": RUN_CONFIG["params"], "eps": 0.4}}, "profile"),
            ({"config": {"params": RUN_CONFIG["params"], "profile": {}, "eps": 0.4}}, "R"),
            ({"config": {"params": RUN_CONFIG["params"], "profile": {"R": 1.0}}}, "eps"),
            # the config is read as a run config: every rule of one applies
            ({"config": {"params": RUN_CONFIG["params"], "profile": {"R": 1.0}, "eps": 0.4}}, "L"),
            ({"config": dict(RUN_CONFIG, profile={"R": 1.0}, nr=10)}, 10),
        ],
    )
    def test_verify_malformed_manifest_exit_2(self, tmp_path, capsys, manifest, key):
        run_dir = self._solved(tmp_path, capsys)
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        assert main(["verify", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("R", [-1.0, math.nan, math.inf])
    def test_verify_out_of_range_manifest_R_exit_2(self, tmp_path, capsys, R):
        # profile is read as an InitialProfile, whose check applies before
        # any quadrature runs
        run_dir = self._solved(tmp_path, capsys)
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["profile"]["R"] = R
        path.write_text(json.dumps(manifest))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert "support radius" in err
        assert not (run_dir / "verify.json").exists()

    @pytest.mark.parametrize("cell", ["oops", None], ids=["non-numeric", "missing"])
    def test_verify_bad_monitor_cell_exit_2(self, tmp_path, capsys, cell):
        run_dir = self._solved(tmp_path, capsys)
        path = run_dir / "monitors.csv"
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        # data row 2, column F (the third): replaced, or cut off with the cells after it
        lines[2] = ",".join(cells[:2] + [cell] + cells[3:] if cell else cells[:2])
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert f"{path} row 2 column 'F'" in err

    def test_verify_nan_residual_fails(self, tmp_path, capsys):
        # a NaN F cell makes the F'' residual NaN, which is no pass
        run_dir = self._solved(tmp_path, capsys)
        path = run_dir / "monitors.csv"
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        lines[2] = ",".join(cells[:2] + ["nan"] + cells[3:])  # data row 2, column F
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(run_dir)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert math.isnan(report["residual_F"]["max_rel"])
        assert report["residual_F"]["ok"] is False

    @pytest.mark.parametrize("value", ["x", None, [0.4]])
    @pytest.mark.parametrize("field", ["eps", "R"])
    def test_verify_non_numeric_manifest_field_exit_2(self, tmp_path, capsys, field, value):
        run_dir = self._solved(tmp_path, capsys)
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        owner = manifest["config"]["profile"] if field == "R" else manifest["config"]
        owner[field] = value
        path.write_text(json.dumps(manifest))
        assert main(["verify", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert field in err and (value is None or repr(value) in err)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_verify_non_finite_manifest_eps_exit_2(self, tmp_path, capsys, value):
        run_dir = self._solved(tmp_path, capsys)
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["eps"] = value
        path.write_text(json.dumps(manifest))
        assert main(["verify", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert "eps" in err
        assert not (run_dir / "verify.json").exists()

    def test_verify_nan_t_lo_exit_2(self, tmp_path, capsys):
        # a nan window bound would skip the coercivity check
        run_dir = self._solved(tmp_path, capsys)
        assert main(["verify", str(run_dir), "--t-lo", "nan"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--t-lo" in err
        assert not (run_dir / "verify.json").exists()

    def test_empty_coercivity_window_is_skipped(self, tmp_path, capsys):
        run_dir = self._solved(tmp_path, capsys)
        assert main(["verify", str(run_dir), "--t-lo", "1e6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coercivity"]["status"] == "skipped"
        assert "error" in report["coercivity"]
        assert "minG1_over_eps" not in report["coercivity"]

    def test_too_few_snapshots_for_the_residual_is_skipped(self, tmp_path, capsys):
        # 4 steps and 2 snapshots: too few for the F'' identity's differences
        out = tmp_path / "results"
        cfg = _write(tmp_path, "run.json", dict(RUN_CONFIG, t_max=0.2))
        main(["solve", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        run_dir = next(out.iterdir())
        assert main(["verify", str(run_dir)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == json.loads((run_dir / "verify.json").read_text())
        for check in ("residual_F", "coercivity"):
            assert report[check]["status"] == "skipped"
        assert "need >= 5 monitor times" in report["residual_F"]["error"]
        assert "max_rel" not in report["residual_F"]


class TestSweep:
    def test_sweep_artifacts_and_verdict(self, tmp_path, capsys):
        cfg = _write(tmp_path, "sweep.json", SWEEP_CONFIG)
        out = tmp_path / "results"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        sweep_dir = next(out.iterdir())
        fit = json.loads((sweep_dir / "fit.json").read_text())
        assert fit["bound"]["kind"] == "algebraic"
        assert fit["fit"]["slope"] < 0
        assert fit["verdict"]["verdict"] in ("consistent", "inconclusive")
        table = (sweep_dir / "sweep.csv").read_text().splitlines()
        assert table[0] == "eps,T_est,uncertainty,outcome"
        assert len(table) == 4

    @pytest.mark.parametrize(
        "doc, slope",
        [
            (PAST_MU_STAR, -2.805),
            (dict(SWEEP_CONFIG, base=dict(RUN_CONFIG, params=POWER_ONLY)), -0.641),
        ],
        ids=["no-theorem", "power-region"],
    )
    def test_sweep_without_a_stated_bound_fits_a_power_law(self, tmp_path, capsys, doc, slope):
        out = tmp_path / "results"
        assert main(["sweep", "--config", _write(tmp_path, "s.json", doc), "--out", str(out)]) == 0
        assert "verdict=not-applicable" in capsys.readouterr().err
        fit = json.loads((next(out.iterdir()) / "fit.json").read_text())
        assert fit["bound"] == {"kind": "none", "exponent": None}
        assert fit["fit"]["kind"] == "power"
        assert fit["fit"]["slope"] == pytest.approx(slope, abs=1e-3)
        assert "verdict" not in fit

    def test_glassey_power_fits_an_exponential_law_with_no_verdict(self, tmp_path, capsys):
        # p = p_G(N + mu) = 5.0: the bound is exponential, which no verdict compares
        base = dict(RUN_CONFIG, params=dict(RUN_CONFIG["params"], p=5.0), nr=300)
        doc = dict(SWEEP_CONFIG, base=base, eps_list=[1.6, 1.4, 1.2])
        out = tmp_path / "results"
        assert main(["sweep", "--config", _write(tmp_path, "s.json", doc), "--out", str(out)]) == 0
        assert "verdict=not-applicable" in capsys.readouterr().err
        fit = json.loads((next(out.iterdir()) / "fit.json").read_text())
        assert fit["bound"] == {"kind": "exponential", "exponent": 4.0}
        assert fit["fit"]["kind"] == "exponential"
        assert "verdict" not in fit

    def test_non_positive_lifespan_row_is_a_fit_error_not_nan(self, tmp_path, monkeypatch):
        # richardson([10.0, 5.0, 1.0]) = -15.0: a blow-up row the fit cannot take a log of
        times = {0.4: 2.0, 0.3: 5.0, 0.2: -15.0}

        def measured(cfg, refine):
            return SweepRow(cfg.eps, times[cfg.eps], 4.0, "blowup", (10.0, 5.0, 1.0))

        monkeypatch.setattr(lifespan, "measure_lifespan", measured)
        out = tmp_path / "results"
        cfg = _write(tmp_path, "s.json", SWEEP_CONFIG)
        assert main(["--quiet", "sweep", "--config", cfg, "--out", str(out)]) == 0

        def refused(token):
            raise AssertionError(f"fit.json holds the bare token {token}")

        fit = json.loads((next(out.iterdir()) / "fit.json").read_text(), parse_constant=refused)
        assert fit["fit_error"].startswith("blow-up row eps=0.2 has T_est=-15.0")
        assert "fit" not in fit and "verdict" not in fit

    def test_sweep_reproducible(self, tmp_path):
        cfg = _write(tmp_path, "sweep.json", SWEEP_CONFIG)
        out = tmp_path / "results"
        main(["sweep", "--config", cfg, "--out", str(out)])
        sweep_dir = next(out.iterdir())
        first = {p.name: p.read_bytes() for p in sweep_dir.iterdir()}
        main(["sweep", "--config", cfg, "--out", str(out)])
        second = {p.name: p.read_bytes() for p in sweep_dir.iterdir()}
        assert first == second

    @pytest.mark.parametrize("unstable", [(), (0.2,)])
    def test_unstable_row_never_consistent(self, tmp_path, fake_runs, unstable):
        fake_runs(unstable=set(unstable))
        doc = dict(SWEEP_CONFIG, eps_list=[0.4, 0.3, 0.2, 0.1])
        out = tmp_path / "results"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["sweep", "--config", _write(tmp_path, "s.json", doc), "--out", str(out)])
        assert code == 0
        sweep_dir = next(out.iterdir())
        fit = json.loads((sweep_dir / "fit.json").read_text())
        outcomes = (sweep_dir / "sweep.csv").read_text().count(",unstable")
        assert outcomes == len(unstable)
        if unstable:
            assert fit["verdict"]["verdict"] == "inconclusive"
            assert fit["unstable_rows"] == 1
        else:
            assert fit["verdict"]["verdict"] == "consistent"
            assert "unstable_rows" not in fit

    @pytest.mark.parametrize("outcome", ["unstable", "reached_tmax"])
    def test_row_whose_finer_level_does_not_blow_up(self, tmp_path, fake_runs, outcome):
        # level 0 of the 0.3 row blows up, level 1 does not: its line keeps
        # the columns, with nan cells
        fake_runs(finer={0.3: outcome})
        doc = dict(SWEEP_CONFIG, eps_list=[0.4, 0.3, 0.2, 0.1], refine=2)
        out = tmp_path / "results"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["sweep", "--config", _write(tmp_path, "s.json", doc), "--out", str(out)])
        assert code == 0
        table = (next(out.iterdir()) / "sweep.csv").read_text().splitlines()
        assert table[0] == "eps,T_est,uncertainty,outcome"
        assert table[2] == f"0.3,nan,nan,{outcome}"
        assert [line.rsplit(",", 1)[1] for line in table[1:]] == [
            "blowup", outcome, "blowup", "blowup"
        ]

    def test_missing_eps_list_exit_2(self, tmp_path):
        cfg = _write(tmp_path, "sweep.json", {"base": RUN_CONFIG})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize(
    "command, doc",
    [
        ("solve", dict(RUN_CONFIG, profile=5)),
        ("solve", dict(RUN_CONFIG, profile={"R": "x"})),
        ("sweep", 5),
        ("sweep", dict(SWEEP_CONFIG, eps_list=[1, "x", 0.5])),
        ("sweep", dict(SWEEP_CONFIG, eps_list=5)),
        ("sweep", dict(SWEEP_CONFIG, refine="x")),
        ("sweep", dict(SWEEP_CONFIG, base=dict(RUN_CONFIG, profile=[1.0]))),
        # non-integral integer fields are rejected, not truncated
        ("classify", {"N": 2.7, "mu": 0.5, "p": 2.0, "q": 2.0, "a": 0.9, "b": 1}),
        ("classify", {"N": 2, "mu": 0.5, "p": 2.0, "q": 2.0, "a": 0.9, "b": 1}),
        ("classify", {"N": 2, "mu": 0.5, "p": 2.0, "q": 2.0, "a": 1, "b": 0.5}),
        ("solve", dict(RUN_CONFIG, nr=600.5)),
        ("solve", dict(RUN_CONFIG, monitor_stride=2.5)),
        ("sweep", dict(SWEEP_CONFIG, refine=1.5)),
        # non-finite or nonpositive run parameters fail before any allocation
        ("solve", dict(RUN_CONFIG, L=-6)),
        ("solve", dict(RUN_CONFIG, L=0)),
        ("solve", dict(RUN_CONFIG, L=math.nan)),
        ("solve", dict(RUN_CONFIG, L=math.inf)),
        ("solve", dict(RUN_CONFIG, eps=math.nan)),
        ("solve", dict(RUN_CONFIG, eps=math.inf)),
        ("solve", dict(RUN_CONFIG, params=dict(RUN_CONFIG["params"], mu=math.nan))),
        ("solve", dict(RUN_CONFIG, params=dict(RUN_CONFIG["params"], mu=math.inf))),
        ("solve", dict(RUN_CONFIG, profile={"R": math.inf})),
        ("classify", dict(RUN_CONFIG["params"], mu=math.nan)),
        ("sweep", dict(SWEEP_CONFIG, eps_list=[0.4, math.nan, 0.2])),
        ("sweep", dict(SWEEP_CONFIG, eps_list=[math.inf, 0.3, 0.2])),
        ("solve", dict(RUN_CONFIG, params=dict(RUN_CONFIG["params"], p=math.inf))),
        ("solve", dict(RUN_CONFIG, params=dict(RUN_CONFIG["params"], q=math.inf))),
        ("classify", dict(RUN_CONFIG["params"], p=math.inf)),
        ("solve", dict(RUN_CONFIG, t_max=math.inf)),
        ("solve", dict(RUN_CONFIG, t_max=math.nan)),
        ("solve", dict(RUN_CONFIG, dt_min=math.nan)),
        ("solve", dict(RUN_CONFIG, dt_min=math.inf)),
        ("solve", dict(RUN_CONFIG, dt_min=-1e-10)),
        ("solve", dict(RUN_CONFIG, blowup_threshold=math.nan)),
        ("solve", dict(RUN_CONFIG, blowup_threshold=math.inf)),
        ("solve", dict(RUN_CONFIG, blowup_threshold=0.0)),
        # tau must be finite and lie in (0, 1)
        ("sweep", dict(SWEEP_CONFIG, tau=math.nan)),
        ("sweep", dict(SWEEP_CONFIG, tau=-0.5)),
        ("sweep", dict(SWEEP_CONFIG, tau=0.0)),
        ("sweep", dict(SWEEP_CONFIG, tau=1.0)),
        ("sweep", dict(SWEEP_CONFIG, tau=1.5)),
        ("sweep", dict(SWEEP_CONFIG, tau="x")),
        ("sweep", dict(SWEEP_CONFIG, tau=math.inf)),
        # a sweep config names its run config under "base"; an empty or null
        # one is not read as a flat config
        ("sweep", dict(RUN_CONFIG, eps_list=[0.4, 0.3, 0.2])),
        ("sweep", dict(RUN_CONFIG, eps_list=[0.4, 0.3, 0.2], base={})),
        ("sweep", dict(RUN_CONFIG, eps_list=[0.4, 0.3, 0.2], base=None)),
        # cfl must lie in (0, 1): at cfl 1 leapfrog's grid-scale mode is marginal
        ("solve", dict(RUN_CONFIG, cfl=1.0)),
        # at a threshold <= 1 every run would count as blow-up after one step
        ("solve", dict(RUN_CONFIG, blowup_threshold=0.5)),
        ("solve", dict(RUN_CONFIG, blowup_threshold=1.0)),
        # at a largest step min(cfl h / sqrt(N), 0.5) <= dt_min, after none
        ("solve", dict(RUN_CONFIG, cfl=1e-9)),
        ("solve", dict(RUN_CONFIG, dt_min=0.06)),
        ("solve", dict(RUN_CONFIG, dt_min=0.5, L=640.0, nr=64)),
        # h = 0.06 at refine level 0, 0.03 at level 1: level 1 fails before any run
        ("sweep", dict(SWEEP_CONFIG, base=dict(RUN_CONFIG, dt_min=0.04), refine=2)),
        # a ladder needs 3 epsilons for a fit
        ("sweep", dict(SWEEP_CONFIG, eps_list=[0.4, 0.3])),
        # the sphere area's Gamma(N/2) overflows from N = 344
        ("solve", dict(RUN_CONFIG, params=dict(RUN_CONFIG["params"], N=344))),
        # the critical exponents need N + mu > 1
        ("classify", dict(RUN_CONFIG["params"], mu=0.0)),
        (
            "sweep",
            dict(SWEEP_CONFIG, base=dict(RUN_CONFIG, params=dict(RUN_CONFIG["params"], mu=0.0))),
        ),
        # a config number is a JSON number, not a string that float() or int() parses
        ("solve", dict(RUN_CONFIG, eps="1.2", nr="300")),
        ("solve", dict(RUN_CONFIG, monitor_stride=0)),
    ],
)
def test_malformed_config_exit_2(tmp_path, capsys, command, doc):
    argv = [command, "--config", _write(tmp_path, "bad.json", doc)]
    if command != "classify":
        argv += ["--out", str(tmp_path / "r")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "command, doc, digits, named",
    [
        ("solve", dict(RUN_CONFIG, eps="BIG"), 400, "eps"),
        ("sweep", dict(SWEEP_CONFIG, eps_list=[0.4, "BIG", 0.2]), 400, "eps_list[1]"),
        # past Python's 4300-digit limit the JSON reader itself refuses the int
        ("solve", dict(RUN_CONFIG, eps="BIG"), 5000, "malformed JSON"),
    ],
)
def test_integer_past_the_float_range_exit_2(tmp_path, capsys, command, doc, digits, named):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc).replace('"BIG"', "1" + "0" * digits))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named}")
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    argv = ["sweep", "--config", _write(tmp_path, "sweep.json", SWEEP_CONFIG)]
    assert main(argv + ["--out", str(tmp_path / "r"), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"config error: --jobs must be at least 1, got {jobs}\n"
    assert not (tmp_path / "r").exists()


def test_report_merges_runs(tmp_path, capsys):
    out = tmp_path / "results"
    main(["solve", "--config", _write(tmp_path, "a.json", RUN_CONFIG), "--out", str(out)])
    main(["solve", "--config", _write(tmp_path, "b.json", dict(RUN_CONFIG, eps=0.3)), "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().err == f"2 run(s) merged into {out / 'summary.csv'}\n"
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("hash,N,mu,p,q,a,b,eps,nr,outcome")
    assert len(lines) == 3
    assert main(["--quiet", "report", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_report_missing_out_dir_exit_2(tmp_path, capsys):
    out = tmp_path / "absent"
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(out) in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["5", "{", '{"config": 5}', '{"config": {"params": []}}'])
def test_report_malformed_manifest_exit_2(tmp_path, capsys, text):
    run_dir = tmp_path / "results" / "0123456789abcdef"
    run_dir.mkdir(parents=True)
    (run_dir / "manifest.json").write_text(text)
    assert main(["report", "--out", str(tmp_path / "results")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(run_dir / "manifest.json") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "solve", "sweep"])
def test_config_path_that_is_a_directory_exit_2(tmp_path, capsys, command):
    argv = [command, "--config", str(tmp_path)]
    if command != "classify":
        argv += ["--out", str(tmp_path / "r")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot read {tmp_path}: Is a directory\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("name", ["manifest.json", "monitors.csv"])
@pytest.mark.parametrize("absent", [True, False], ids=["missing", "directory"])
def test_verify_unreadable_run_file_exit_2(tmp_path, capsys, name, absent):
    out = tmp_path / "results"
    main(["solve", "--config", _write(tmp_path, "run.json", RUN_CONFIG), "--out", str(out)])
    capsys.readouterr()
    run_dir = next(out.iterdir())
    path = run_dir / name
    path.unlink()
    if not absent:
        path.mkdir()
    assert main(["verify", str(run_dir)]) == 2
    err = capsys.readouterr().err
    reason = "file not found: " if absent else "cannot read "
    assert err.startswith(f"config error: {reason}{path}")
    assert not (run_dir / "verify.json").exists()


def test_report_manifest_that_is_a_directory_exit_2(tmp_path, capsys):
    path = tmp_path / "results" / "0123456789abcdef" / "manifest.json"
    path.mkdir(parents=True)
    assert main(["report", "--out", str(tmp_path / "results")]) == 2
    assert capsys.readouterr().err == f"config error: cannot read {path}: Is a directory\n"


@pytest.mark.parametrize(
    "command, taken",
    [
        pytest.param("solve", "out", id="solve"),
        pytest.param("sweep", "out", id="sweep"),
        pytest.param("report", "out", id="report"),
        # <out>/<config hash> a regular file, <out>/summary.csv a directory
        pytest.param("solve", "artifact-dir", id="solve-artifact-dir"),
        pytest.param("sweep", "artifact-dir", id="sweep-artifact-dir"),
        pytest.param("report", "summary.csv", id="report-summary-csv"),
        # a directory in place of a file in <out>/<config hash>
        pytest.param("solve", "manifest.json", id="solve-manifest"),
        pytest.param("solve", "monitors.csv", id="solve-monitors"),
        pytest.param("sweep", "sweep.csv", id="sweep-sweep-csv"),
        pytest.param("sweep", "fit.json", id="sweep-fit-json"),
    ],
)
def test_out_path_that_is_a_file_exit_2_before_any_run(
    tmp_path, capsys, monkeypatch, command, taken
):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run", no_run)
    monkeypatch.setattr(cli, "sweep", no_run)
    monkeypatch.setattr(runio, "merge_manifests", no_run)
    doc = SWEEP_CONFIG if command == "sweep" else RUN_CONFIG
    out = tmp_path / "results"
    cfg = runio.config_from_dict(SweepConfig if command == "sweep" else SimConfig, doc, "c")
    run_dir = out / runio.config_hash(dataclasses.asdict(cfg))
    if taken == "out":
        afile = out
        message = f"no such results directory: {afile}"
    elif taken == "artifact-dir":
        out.mkdir()
        afile = run_dir
        message = f"cannot write {afile}: Not a directory"
    else:
        adir = out / taken if command == "report" else run_dir / taken
        adir.mkdir(parents=True)
        message = f"cannot write {adir}: Is a directory"
    kept = taken in ("out", "artifact-dir")
    if kept:
        afile.write_text("kept\n")
    argv = [command, "--out", str(out)]
    if command != "report":
        argv += ["--config", _write(tmp_path, "c.json", doc)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    if kept:
        assert afile.read_text() == "kept\n"
    else:
        assert list(adir.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_out_path_below_a_file_exit_2_before_any_run(tmp_path, capsys, monkeypatch, command):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run", no_run)
    monkeypatch.setattr(cli, "sweep", no_run)
    afile = tmp_path / "results"
    afile.write_text("kept\n")
    out = afile / "sub"
    doc = SWEEP_CONFIG if command == "sweep" else RUN_CONFIG
    argv = [command, "--out", str(out), "--config", _write(tmp_path, "c.json", doc)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: no such results directory: {out}\n"
    assert afile.read_text() == "kept\n"


def test_verify_report_path_that_is_a_directory_exit_2_before_any_quadrature(
    tmp_path, capsys, monkeypatch
):
    out = tmp_path / "results"
    main(["solve", "--config", _write(tmp_path, "run.json", RUN_CONFIG), "--out", str(out)])
    capsys.readouterr()
    run_dir = next(out.iterdir())
    (run_dir / "verify.json").mkdir()

    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(functionals, "lemma31_ratio", no_quadrature)
    assert main(["verify", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {run_dir / 'verify.json'}: Is a directory\n"
    assert list((run_dir / "verify.json").iterdir()) == []


def test_cli_commands_import_no_openssl_and_no_numpy_polynomial(tmp_path):
    # hashlib loads OpenSSL's libcrypto; the artifact hash takes the built-in SHA-256
    (tmp_path / "run.json").write_text(json.dumps(dict(RUN_CONFIG, nr=800)))  # verify passes
    (tmp_path / "sweep.json").write_text(json.dumps(SWEEP_CONFIG))
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from blowuplab.cli import main\n"
        "tmp = Path(sys.argv[1])\n"
        "out = tmp / 'runs'\n"
        "codes = [main(['--quiet', 'solve', '--config', str(tmp / 'run.json'), '--out', str(out)])]\n"
        "codes.append(main(['--quiet', 'verify', str(next(out.iterdir()))]))\n"
        "codes.append(main(['--quiet', 'report', '--out', str(out)]))\n"
        "sweep = ['--quiet', 'sweep', '--config', str(tmp / 'sweep.json')]\n"
        "codes.append(main(sweep + ['--out', str(tmp / 'sweeps'), '--jobs', '1']))\n"
        "print(codes, '_hashlib' in sys.modules, 'numpy.polynomial' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0] False False"
    assert (tmp_path / "runs" / "summary.csv").exists()
