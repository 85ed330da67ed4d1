"""Config parsing, content hashing, and run artifacts (CSV/JSON).

Configs and manifests are JSON; series and tables are CSV. Artifact
directories are named by a truncated SHA-256 of the canonically
serialized config, so identical configs land in identical paths.

A config's schema is the fields of its dataclass, one JSON key per field:
SimConfig with its InitialProfile and ModelParams for a run, SweepConfig
(whose base is a run config) for a sweep. A field with no default is a
required key; an absent optional key takes the field's default. An int
field is read by `integer`, a float field by `number`, a tuple field as a
non-empty list of numbers, a nested config dataclass as a nested object,
and a str is passed on for its dataclass to check. Keys that are not
fields are ignored. The modules defining those dataclasses do not
postpone annotations, so each field's type is the class itself.
`config_from_dict` reads the schema and `dataclasses.asdict` writes it, so
a new config field is one line in its dataclass.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np

try:  # CPython's own SHA-256; hashlib would map OpenSSL's libcrypto (3.5 MB) for it
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from . import __version__
from .errors import ConfigError, InsufficientDataError
from .exponents import ModelParams
from .functionals import MONITOR_COLUMNS, MonitorSeries, residual_F
from .lifespan import SweepConfig, SweepResult
from .solver import RunResult, SimConfig

TOOL_VERSION = f"blowuplab {__version__}"

# monitors.csv: the monitor schema plus the relative F'' identity residual
CSV_COLUMNS = MONITOR_COLUMNS + ("residual",)

# The files a run's and a sweep's writer put in its artifact directory.
RUN_FILES = ("monitors.csv", "manifest.json")
SWEEP_FILES = ("sweep.csv", "fit.json")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return sha256(canonical_json(obj).encode()).hexdigest()[:16]


def _require(d: dict, key: str, where: str):
    if not isinstance(d, dict) or key not in d:
        raise ConfigError(f"missing key {key!r} in {where}")
    return d[key]


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def _is_number(value) -> bool:
    """Whether value is a JSON number: an int or a float, not a bool or a string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def integer(value, name: str) -> int:
    """value as an int; a non-number or a number with a fractional part is rejected."""
    try:
        if _is_number(value) and int(value) == value:
            return int(value)
    except (ValueError, OverflowError):  # int() of a NaN or an infinity
        pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def number(value, name: str) -> float:
    """value as a float; a missing value or a non-number is a ConfigError naming it."""
    if value is None:
        raise ConfigError(f"{name} has no value")
    try:
        if _is_number(value):
            return float(value)
    except OverflowError:  # an int past the float range
        pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _numbers(value, name: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
    return tuple(number(e, f"{name}[{i}]") for i, e in enumerate(value))


# How a field of each type is read; a str is passed on for its dataclass to check.
_READERS = {int: integer, float: number, tuple: _numbers, str: lambda value, name: value}


def _field_value(kind, value, name: str):
    if dataclasses.is_dataclass(kind):
        return config_from_dict(kind, value, name)
    return _READERS[kind](value, name)


def config_from_dict(cls, doc, where: str):
    """The config dataclass cls read from the JSON object doc; `where` names doc in errors."""
    doc = _object(doc, where)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in doc:
            kwargs[f.name] = _field_value(f.type, doc[f.name], f.name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing key {f.name!r} in {where}")
    return cls(**kwargs)


def _open(path, **kwargs):
    """path opened for reading; failing to open it (a missing file, a directory
    in its place) is a ConfigError naming it."""
    try:
        return open(path, **kwargs)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None


def load_json(path) -> dict:
    with _open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def _fmt(x: float) -> str:
    return repr(float(x))


def write_series_csv(path: Path, series: MonitorSeries, params: ModelParams) -> None:
    try:
        rel = residual_F(series, params)
    except InsufficientDataError:
        rel = np.full(len(series), math.nan)
    # by column: csv.writer's bytes (repr cells, CRLF endings), no per-cell call
    cols = [getattr(series, name).tolist() for name in MONITOR_COLUMNS] + [rel.tolist()]
    lines = [",".join(CSV_COLUMNS)] + [",".join(map(repr, row)) for row in zip(*cols)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def read_series_csv(path) -> MonitorSeries:
    with _open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in MONITOR_COLUMNS if name not in header]
        if missing:
            raise ConfigError(f"{path}: missing monitor column(s) {', '.join(missing)}")
        index = [header.index(name) for name in MONITOR_COLUMNS]
        rows = [row for row in reader if row]  # blank lines are skipped
    cols = list(zip(*rows)) if rows else [()] * len(header)  # one tuple per column
    try:
        return MonitorSeries(*(np.array(cols[j], dtype=float) for j in index))
    except (IndexError, ValueError):
        for i, row in enumerate(rows, start=1):  # name the first bad cell
            for name, j in zip(MONITOR_COLUMNS, index):
                where = f"{path} row {i} column {name!r}"
                if j >= len(row):
                    raise ConfigError(f"{where} has no value")
                try:
                    float(row[j])
                except ValueError:
                    raise ConfigError(f"{where} must be a number, got {row[j]!r}") from None
        raise


def default_out_dir(cli_value=None) -> Path:
    """The results directory: --out, else a non-empty $BLOWUPLAB_OUT, else ./results.

    A path that is, or lies below, an existing non-directory is a ConfigError;
    `solve` and `sweep` ask before their first run, so no run's work is lost to it.
    """
    out = Path(cli_value or os.environ.get("BLOWUPLAB_OUT") or "results")
    if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
        raise ConfigError(f"no such results directory: {out}")
    return out


def artifact_dir(out_root, cfg, files) -> Path:
    """out_root/<config hash>, the directory of cfg's artifacts, the files
    named in `files`. A path there that is not a directory, or a directory
    in place of one of the files, is a ConfigError, which the CLI asks for
    before its run or sweep, so that no work is lost to it."""
    path = Path(out_root) / config_hash(dataclasses.asdict(cfg))
    if path.exists() and not path.is_dir():
        raise ConfigError(f"cannot write {path}: Not a directory")
    for name in files:
        writable(path / name)
    return path


def writable(path) -> Path:
    """path, to be written as a file; a directory in its place is a ConfigError."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: Is a directory")
    return path


def write_run_artifacts(out_root: Path, cfg: SimConfig, result: RunResult) -> Path:
    """Write RUN_FILES, monitors.csv + manifest.json, under out_root/<config hash>/."""
    run_dir = artifact_dir(out_root, cfg, RUN_FILES)
    run_dir.mkdir(parents=True, exist_ok=True)
    monitors_path, manifest_path = (run_dir / name for name in RUN_FILES)
    write_series_csv(monitors_path, result.monitors, cfg.params)
    manifest = {
        "tool": TOOL_VERSION,
        "config": dataclasses.asdict(cfg),
        "config_hash": run_dir.name,
        "grid": {"h": cfg.h, "nr": cfg.nr, "L": cfg.L},
        # every result field but the series, which monitors.csv holds
        **{k: v for k, v in vars(result).items() if k != "monitors"},
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return run_dir


def write_sweep_artifacts(
    out_root: Path, cfg: SweepConfig, result: SweepResult, fit_payload: dict
) -> Path:
    """Write SWEEP_FILES, sweep.csv + fit.json, under out_root/<config hash>/."""
    sweep_dir = artifact_dir(out_root, cfg, SWEEP_FILES)
    sweep_dir.mkdir(parents=True, exist_ok=True)
    table_path, fit_path = (sweep_dir / name for name in SWEEP_FILES)
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "T_est", "uncertainty", "outcome"])
        for row in result.rows:
            writer.writerow([_fmt(row.eps), _fmt(row.T_est), _fmt(row.uncertainty), row.outcome])
    with open(fit_path, "w") as fh:
        json.dump(fit_payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return sweep_dir


def merge_manifests(out_root: Path, dest: Path) -> int:
    """Merge run manifests under out_root into one summary CSV; returns count."""
    rows = []
    for manifest_path in sorted(Path(out_root).glob("*/manifest.json")):
        m = _object(load_json(manifest_path), f"manifest {manifest_path}")
        cfg = _object(m.get("config", {}), f"config in {manifest_path}")
        par = _object(cfg.get("params", {}), f"params in {manifest_path}")
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
