"""CLI behavior: exit codes, artifact layout, and reproducibility."""

import csv
import json
import warnings

import pytest

from blowuplab.cli import main

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

    def test_bad_config_exit_2(self, tmp_path):
        bad = dict(RUN_CONFIG, L=2.0)  # cone not covered
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

    def test_empty_coercivity_window_is_skipped(self, tmp_path, capsys):
        run_dir = self._solved(tmp_path, capsys)
        assert main(["verify", str(run_dir), "--t-lo", "1e6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coercivity"]["status"] == "skipped"
        assert "error" in report["coercivity"]
        assert "minG1_over_eps" not in report["coercivity"]


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

    def test_missing_eps_list_exit_2(self, tmp_path):
        cfg = _write(tmp_path, "sweep.json", {"base": RUN_CONFIG})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "r")]) == 2


def test_report_merges_runs(tmp_path, capsys):
    out = tmp_path / "results"
    main(["solve", "--config", _write(tmp_path, "a.json", RUN_CONFIG), "--out", str(out)])
    main(["solve", "--config", _write(tmp_path, "b.json", dict(RUN_CONFIG, eps=0.3)), "--out", str(out)])
    assert main(["report", "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("hash,N,mu,p,q,a,b,eps,nr,outcome")
    assert len(lines) == 3
