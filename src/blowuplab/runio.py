"""Config parsing, content hashing, and run artifacts (CSV/JSON).

Configs and manifests are JSON; series and tables are CSV. Artifact
directories are named by a truncated SHA-256 of the canonically
serialized config, so identical configs land in identical paths.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import ConfigError, InsufficientDataError
from .exponents import ModelParams
from .functionals import MONITOR_COLUMNS, MonitorSeries, residual_F
from .lifespan import SweepResult
from .solver import InitialProfile, RunResult, SimConfig

TOOL_VERSION = "blowuplab 0.1.0"

# monitors.csv: the monitor schema plus the relative F'' identity residual
CSV_COLUMNS = MONITOR_COLUMNS + ("residual",)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing key {key!r} in {where}")
    return d[key]


def params_from_dict(d: dict) -> ModelParams:
    for key in ("N", "mu", "p", "q"):
        _require(d, key, "params")
    try:
        return ModelParams(
            N=int(d["N"]),
            mu=float(d["mu"]),
            p=float(d["p"]),
            q=float(d["q"]),
            a=int(d.get("a", 1)),
            b=int(d.get("b", 1)),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid params: {exc}") from exc


def params_to_dict(p: ModelParams) -> dict:
    return {"N": p.N, "mu": p.mu, "p": p.p, "q": p.q, "a": p.a, "b": p.b}


def sim_config_from_dict(d: dict) -> SimConfig:
    params = params_from_dict(_require(d, "params", "run config"))
    prof = d.get("profile", {})
    profile = InitialProfile(
        shape=prof.get("shape", "bump"), R=float(prof.get("R", 1.0))
    )
    try:
        return SimConfig(
            params=params,
            eps=float(_require(d, "eps", "run config")),
            profile=profile,
            L=float(_require(d, "L", "run config")),
            nr=int(_require(d, "nr", "run config")),
            cfl=float(d.get("cfl", 0.9)),
            t_max=float(_require(d, "t_max", "run config")),
            blowup_threshold=float(d.get("blowup_threshold", 1e6)),
            dt_min=float(d.get("dt_min", 1e-10)),
            monitor_stride=int(d.get("monitor_stride", 10)),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid run config: {exc}") from exc


def sim_config_to_dict(cfg: SimConfig) -> dict:
    return {
        "params": params_to_dict(cfg.params),
        "eps": cfg.eps,
        "profile": {"shape": cfg.profile.shape, "R": cfg.profile.R},
        "L": cfg.L,
        "nr": cfg.nr,
        "cfl": cfg.cfl,
        "t_max": cfg.t_max,
        "blowup_threshold": cfg.blowup_threshold,
        "dt_min": cfg.dt_min,
        "monitor_stride": cfg.monitor_stride,
    }


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def _fmt(x: float) -> str:
    return repr(float(x))


def write_series_csv(path: Path, series: MonitorSeries, params: ModelParams) -> None:
    try:
        rel = residual_F(series, params).relative
    except InsufficientDataError:
        rel = np.full(len(series), math.nan)
    cols = [getattr(series, name) for name in MONITOR_COLUMNS] + [rel]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i in range(len(series)):
            writer.writerow([_fmt(col[i]) for col in cols])


def read_series_csv(path) -> MonitorSeries:
    with open(path) as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in MONITOR_COLUMNS if name not in (reader.fieldnames or ())]
        if missing:
            raise ConfigError(f"{path}: missing monitor column(s) {', '.join(missing)}")
        rows = [{name: float(row[name]) for name in MONITOR_COLUMNS} for row in reader]
    return MonitorSeries.from_rows(rows)


def default_out_dir(cli_value=None) -> Path:
    if cli_value:
        return Path(cli_value)
    return Path(os.environ.get("BLOWUPLAB_OUT", "results"))


def write_run_artifacts(out_root: Path, cfg: SimConfig, result: RunResult) -> Path:
    """Write monitors.csv + manifest.json under out_root/<config hash>/."""
    cfg_dict = sim_config_to_dict(cfg)
    run_dir = Path(out_root) / config_hash(cfg_dict)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_series_csv(run_dir / "monitors.csv", result.monitors, cfg.params)
    manifest = {
        "tool": TOOL_VERSION,
        "config": cfg_dict,
        "config_hash": config_hash(cfg_dict),
        "outcome": result.outcome,
        "t_blowup": result.t_blowup,
        "reason": result.reason,
        "grid": {"h": result.h, "nr": cfg.nr, "L": cfg.L},
        "steps": result.steps,
        "amp0": result.amp0,
    }
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return run_dir


def write_sweep_artifacts(
    out_root: Path, sweep_cfg: dict, result: SweepResult, fit_payload: dict
) -> Path:
    sweep_dir = Path(out_root) / config_hash(sweep_cfg)
    sweep_dir.mkdir(parents=True, exist_ok=True)
    with open(sweep_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "T_est", "uncertainty", "outcome"])
        for row in result.rows:
            writer.writerow([_fmt(row.eps), _fmt(row.T_est), _fmt(row.uncertainty), row.outcome])
    with open(sweep_dir / "fit.json", "w") as fh:
        json.dump(fit_payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return sweep_dir


def merge_manifests(out_root: Path, dest: Path) -> int:
    """Merge run manifests under out_root into one summary CSV; returns count."""
    rows = []
    for manifest_path in sorted(Path(out_root).glob("*/manifest.json")):
        with open(manifest_path) as fh:
            m = json.load(fh)
        cfg = m.get("config", {})
        par = cfg.get("params", {})
        rows.append(
            [
                m.get("config_hash", manifest_path.parent.name),
                par.get("N"),
                par.get("mu"),
                par.get("p"),
                par.get("q"),
                par.get("a"),
                par.get("b"),
                cfg.get("eps"),
                cfg.get("nr"),
                m.get("outcome"),
                m.get("t_blowup"),
                m.get("steps"),
            ]
        )
    with open(dest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["hash", "N", "mu", "p", "q", "a", "b", "eps", "nr", "outcome", "T_num", "steps"]
        )
        writer.writerows(rows)
    return len(rows)
