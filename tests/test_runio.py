"""Run configs and monitors.csv: written, read back and hashed."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from blowuplab import runio
from blowuplab.cli import main
from blowuplab.errors import ConfigError, InsufficientDataError
from blowuplab.exponents import ModelParams
from blowuplab.functionals import MONITOR_COLUMNS, MonitorSeries, residual_F
from blowuplab.lifespan import SweepConfig
from blowuplab.runio import (
    CSV_COLUMNS,
    canonical_json,
    config_from_dict,
    config_hash,
    read_series_csv,
    write_series_csv,
)
from blowuplab.solver import ETA, InitialProfile, SimConfig

PARAMS = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=1, b=0)

_VALUES = hs.one_of(
    hs.floats(allow_nan=True, allow_infinity=True),
    hs.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
)


@hs.composite
def _series(draw):
    n = draw(hs.integers(0, 8))
    cols = {
        name: np.array(draw(hs.lists(_VALUES, min_size=n, max_size=n)), dtype=float)
        for name in MONITOR_COLUMNS
    }
    return MonitorSeries(**cols)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    # NaN payloads are not part of the format; every other value is bitwise
    nan = np.isnan(a)
    return bool(
        np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))
    )


@settings(max_examples=60, deadline=None)
@given(_series())
def test_round_trip_is_bitwise(tmp_path_factory, series):
    path = tmp_path_factory.mktemp("csv") / "monitors.csv"
    with np.errstate(all="ignore"):  # random t makes the residual's differences degenerate
        write_series_csv(path, series, PARAMS)
    back = read_series_csv(path)
    assert len(back) == len(series)
    for name in MONITOR_COLUMNS:
        assert _same_bits(getattr(series, name), getattr(back, name)), name
    with open(path) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert tuple(reader.fieldnames) == CSV_COLUMNS
    if len(series) < 5:
        assert all(math.isnan(float(r["residual"])) for r in rows)


def _csv_writer_bytes(series: MonitorSeries) -> bytes:
    # the format: csv.writer's output of repr cells, with \r\n line endings
    try:
        rel = residual_F(series, PARAMS)
    except InsufficientDataError:
        rel = np.full(len(series), math.nan)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(CSV_COLUMNS)
    cols = [getattr(series, name) for name in MONITOR_COLUMNS] + [rel]
    for i in range(len(series)):
        writer.writerow([repr(float(col[i])) for col in cols])
    return expected.getvalue().encode()


@settings(max_examples=60, deadline=None)
@given(_series())
def test_written_bytes_are_csv_writer_bytes(tmp_path_factory, series):
    path = tmp_path_factory.mktemp("csv") / "monitors.csv"
    with np.errstate(all="ignore"):
        write_series_csv(path, series, PARAMS)
        assert path.read_bytes() == _csv_writer_bytes(series)


def test_json_artifact_format(tmp_path):
    # every JSON artifact: sorted keys, two-space indent, a final newline,
    # and strict JSON: a non-finite float is written as null
    doc = {"b": [1.5, None, math.nan], "a": {"z": math.inf, "y": "x"}}
    path = tmp_path / "fit.json"
    text = runio.write_json(path, doc)
    assert path.read_text() == text == (
        '{\n  "a": {\n    "y": "x",\n    "z": null\n  },\n'
        '  "b": [\n    1.5,\n    null,\n    null\n  ]\n}\n'
    )
    assert runio.load_json(path) == {"b": [1.5, None, None], "a": {"z": None, "y": "x"}}


def test_header_only_file_reads_as_empty_series(tmp_path):
    path = tmp_path / "monitors.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\r\n")
    series = read_series_csv(path)
    assert isinstance(series, MonitorSeries) and len(series) == 0
    for name in MONITOR_COLUMNS:
        column = getattr(series, name)
        assert column.shape == (0,) and column.dtype == float


@pytest.mark.parametrize(
    "cell, value",
    [("1_0", 10.0), (" 1.5\t", 1.5), ("infinity", math.inf), ("+nan", math.nan), ("", None)],
)
def test_cells_parse_as_python_floats(tmp_path, cell, value):
    # float()'s semantics; a cell float() rejects is named
    path = tmp_path / "monitors.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join([cell] * len(CSV_COLUMNS)) + "\n")
    if value is None:
        with pytest.raises(ConfigError, match=r"row 1 column 't'"):
            read_series_csv(path)
        return
    series = read_series_csv(path)
    for name in MONITOR_COLUMNS:
        assert getattr(series, name).tolist() == pytest.approx([value], nan_ok=True), name


@pytest.mark.parametrize("dropped", MONITOR_COLUMNS)
def test_missing_column_raises_config_error(tmp_path, dropped):
    path = tmp_path / "monitors.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = [c for c in CSV_COLUMNS if c != dropped]
        writer.writerow(names)
        writer.writerow(["1.0"] * len(names))
    with pytest.raises(ConfigError, match=rf"column\(s\) {dropped}$"):
        read_series_csv(path)


def _long_series(n: int) -> MonitorSeries:
    # increasing times and random full-precision values, the longest repr cells
    rng = np.random.default_rng(n)
    cols = {name: rng.random(n) for name in MONITOR_COLUMNS}
    cols["t"] = np.cumsum(rng.random(n) + 0.01)
    return MonitorSeries(**cols)


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        fh.writelines(row + "\r\n" for row in rows)


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
def test_block_sized_files_round_trip_bitwise(tmp_path, n):
    # a table of exactly one or two 64-row blocks, and one row either side
    series = _long_series(n)
    path = tmp_path / "monitors.csv"
    write_series_csv(path, series, PARAMS)
    assert path.read_bytes() == _csv_writer_bytes(series)
    back = read_series_csv(path)
    for name in MONITOR_COLUMNS:
        assert _same_bits(getattr(series, name), getattr(back, name)), name


@pytest.mark.parametrize("bad_row", [1, 64, 65, 128, 130])
@pytest.mark.parametrize("cell, message", [("x", "must be a number, got 'x'"), (None, "has no value")])
def test_bad_cell_is_named_by_its_row_across_blocks(tmp_path, bad_row, cell, message):
    rows = [",".join(["1.5"] * len(CSV_COLUMNS)) for _ in range(200)]
    cells = ["1.5"] * len(CSV_COLUMNS)
    cells[MONITOR_COLUMNS.index("F")] = cell if cell is not None else ""
    # a row that stops before column F has no value there
    rows[bad_row - 1] = ",".join(cells if cell is not None else cells[:2])
    rows[bad_row + 9] = ",".join(["y"] * len(CSV_COLUMNS))  # a later bad row is not named
    path = tmp_path / "monitors.csv"
    _write_rows(path, rows)
    with pytest.raises(ConfigError, match=rf"row {bad_row} column 'F' {message}$"):
        read_series_csv(path)


def test_blank_lines_at_block_boundaries_are_skipped(tmp_path):
    series = _long_series(200)
    path = tmp_path / "monitors.csv"
    write_series_csv(path, series, PARAMS)
    header, *rows = path.read_text().splitlines()
    # blank lines before the first row, at the 64- and 128-row boundaries and at the end
    for at in (len(rows), 128, 128, 64, 63, 0):
        rows.insert(at, "")
    _write_rows(path, rows)
    back = read_series_csv(path)
    for name in MONITOR_COLUMNS:
        assert _same_bits(getattr(series, name), getattr(back, name)), name
    # the data-row numbers that name a bad cell count no blank line
    rows[-2] = "x" + rows[-2]  # data row 200, after five blank lines
    _write_rows(path, rows)
    with pytest.raises(ConfigError, match=r"row 200 column 't'"):
        read_series_csv(path)


def test_monitor_csv_io_holds_little_beyond_the_float64_table(tmp_path):
    # a 20,000-row series: the writer and the reader hold a 64-row block of
    # Python objects, not the whole table (13x its float64 bytes)
    series = _long_series(20_000)
    table = len(series) * len(MONITOR_COLUMNS) * 8
    path = tmp_path / "monitors.csv"
    write_series_csv(path, series, PARAMS)  # warm every import and cache
    read_series_csv(path)
    peaks = []
    for io_call in (lambda: write_series_csv(path, series, PARAMS), lambda: read_series_csv(path)):
        tracemalloc.start()
        try:
            io_call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1.5 * table
    assert peaks[1] < 3 * table


RUN_DOC = {
    "params": {"N": 1, "mu": 0.5, "p": 2.0, "q": 2.0, "a": 1, "b": 0},
    "eps": 0.4,
    "L": 12.0,
    "nr": 200,
    "t_max": 10.0,
}


@pytest.mark.parametrize("field", ["N", "a", "b", "nr", "monitor_stride"])
@pytest.mark.parametrize("value", [0.5, 1.5, 200.25, math.inf, math.nan])
def test_non_integral_integer_field_is_named_not_truncated(field, value):
    doc = json.loads(json.dumps(RUN_DOC))
    (doc["params"] if field in doc["params"] else doc)[field] = value
    with pytest.raises(ConfigError, match=rf"^{field} must be an integer, got "):
        config_from_dict(SimConfig, doc, "run config")


@pytest.mark.parametrize("field", ["N", "nr", "monitor_stride", "eps", "t_max", "mu"])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_field_is_named_not_read_as_a_number(field, value, tmp_path):
    # int(True) == 1, so a JSON true would otherwise pass as 1 or 1.0
    doc = json.loads(json.dumps(RUN_DOC))
    (doc["params"] if field in doc["params"] else doc)[field] = value
    with pytest.raises(ConfigError, match=rf"^{field} must be an? (integer|number), got {value}$"):
        config_from_dict(SimConfig, doc, "run config")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert main(["--quiet", "solve", "--config", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("eps", "1.2", "number"),
        ("t_max", "1_000", "number"),
        ("mu", "0.5", "number"),
        ("nr", " 2100 ", "integer"),
        ("N", "\u0663", "integer"),  # ARABIC-INDIC DIGIT THREE: int() reads it as 3
        ("monitor_stride", "5", "integer"),
    ],
)
def test_numeric_string_field_is_named_not_read_as_a_number(field, value, kind, tmp_path):
    # float() and int() parse these strings; a config field takes a JSON number only
    doc = json.loads(json.dumps(RUN_DOC))
    (doc["params"] if field in doc["params"] else doc)[field] = value
    message = rf"^{field} must be an? {kind}, got {re.escape(repr(value))}$"
    with pytest.raises(ConfigError, match=message):
        config_from_dict(SimConfig, doc, "run config")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert main(["--quiet", "solve", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_integral_floats_are_read_as_ints():
    params = dict(RUN_DOC["params"], N=3.0, a=1.0, b=0.0)
    doc = dict(RUN_DOC, params=params, nr=200.0, monitor_stride=5.0)
    cfg = config_from_dict(SimConfig, doc, "run config")
    fields = (cfg.params.N, cfg.params.a, cfg.params.b, cfg.nr, cfg.monitor_stride)
    assert fields == (3, 1, 0, 200, 5)
    assert all(type(x) is int for x in fields)


def test_minimal_run_config_takes_every_default_from_the_dataclass():
    cfg = config_from_dict(SimConfig, RUN_DOC, "run config")
    assert (cfg.params, cfg.eps, cfg.L, cfg.nr, cfg.t_max) == (PARAMS, 0.4, 12.0, 200, 10.0)
    for f in dataclasses.fields(SimConfig):
        if f.name not in RUN_DOC:
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            assert getattr(cfg, f.name) == default, f.name


@pytest.mark.parametrize("key", ["params", "eps", "L", "nr", "t_max", "N", "mu", "p", "q"])
def test_missing_required_key_is_named(key):
    doc = json.loads(json.dumps(RUN_DOC))
    del (doc["params"] if key in doc["params"] else doc)[key]
    with pytest.raises(ConfigError, match=rf"^missing key {key!r} in "):
        config_from_dict(SimConfig, doc, "run config")


def test_keys_that_are_not_fields_are_ignored():
    doc = dict(RUN_DOC, eps_list=[0.4, 0.2], refine=2, tau=0.25, forcing="x")
    assert config_from_dict(SimConfig, doc, "run config") == config_from_dict(
        SimConfig, RUN_DOC, "run config"
    )


_POSITIVE = hs.floats(1e-6, 1e6, allow_subnormal=False)


@hs.composite
def _sim_configs(draw):
    N = draw(hs.integers(1, 5))
    q_max = 2 * N / (N - 2) if N >= 3 else 10.0
    params = ModelParams(
        N=N,
        mu=draw(hs.floats(0.0, 10.0)),
        p=draw(hs.floats(1.0, 10.0, exclude_min=True)),
        q=draw(hs.floats(1.0, q_max, exclude_min=True)),
        a=draw(hs.integers(0, 1)),
        b=draw(hs.integers(0, 1)),
    )
    profile = InitialProfile(R=draw(_POSITIVE))
    t_max = draw(_POSITIVE)
    cfg = SimConfig(
        params=params,
        eps=draw(hs.floats(0.0, 1e3)),
        profile=profile,
        L=draw(_POSITIVE),
        nr=draw(hs.integers(64, 1 << 24)),
        cfl=draw(hs.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=False)),
        t_max=t_max,
        blowup_threshold=draw(hs.floats(1.0, 1e6, exclude_min=True)),
        dt_min=0.0,
        monitor_stride=draw(hs.integers(1, 1000)),
    )
    # a valid dt_min lies below the largest step the config allows
    dt_max = min(cfg.cfl_dt, ETA)
    return dataclasses.replace(cfg, dt_min=draw(hs.floats(0.0, dt_max, exclude_max=True)))


def _shuffled(obj, rng):
    if not isinstance(obj, dict):
        return obj
    keys = list(obj)
    rng.shuffle(keys)
    return {k: _shuffled(obj[k], rng) for k in keys}


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    else:
        yield path, obj


def _replaced(obj, path, value):
    if not path:
        return value
    return {**obj, path[0]: _replaced(obj[path[0]], path[1:], value)}


@settings(max_examples=200, deadline=None)
@given(_sim_configs(), hs.integers(0, 2**32 - 1))
def test_run_config_round_trip_and_hash(cfg, seed):
    d = dataclasses.asdict(cfg)
    assert config_from_dict(SimConfig, json.loads(json.dumps(d)), "run config") == cfg
    assert config_hash(_shuffled(d, random.Random(seed))) == config_hash(d)
    for path, leaf in _leaves(d):
        other = leaf + "x" if isinstance(leaf, str) else 2 * leaf + 1
        assert config_hash(_replaced(d, path, other)) != config_hash(d), path


@hs.composite
def _sweep_configs(draw):
    eps = draw(hs.lists(_POSITIVE, min_size=3, max_size=6, unique=True))
    return SweepConfig(
        base=draw(_sim_configs()),
        eps_list=tuple(sorted(eps, reverse=True)),
        refine=draw(hs.integers(1, 5)),
        tau=draw(hs.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    )


@settings(max_examples=100, deadline=None)
@given(_sweep_configs())
def test_sweep_config_round_trip_and_hash(cfg):
    d = dataclasses.asdict(cfg)
    assert config_from_dict(SweepConfig, json.loads(json.dumps(d)), "sweep config") == cfg
    # the document the sweep directory was named by before SweepConfig existed
    by_hand = {
        "base": dataclasses.asdict(cfg.base),
        "eps_list": list(cfg.eps_list),
        "refine": cfg.refine,
        "tau": cfg.tau,
    }
    assert config_hash(d) == config_hash(by_hand)


@pytest.mark.parametrize(
    "eps_list, message",
    [
        (5, r"^eps_list must be a non-empty list, got 5$"),
        ([], r"^eps_list must be a non-empty list, got \[\]$"),
        ([0.4, "x", 0.2], r"^eps_list\[1\] must be a number, got 'x'$"),
        ([0.4, True, 0.2], r"^eps_list\[1\] must be a number, got True$"),
        ([0.4, 0.3], r"^need >= 3 epsilons, got 2$"),
        ([0.4, "0.3", 0.2], r"^eps_list\[1\] must be a number, got '0.3'$"),
    ],
)
def test_malformed_eps_list_is_named(eps_list, message):
    doc = {"base": RUN_DOC, "eps_list": eps_list}
    with pytest.raises(ConfigError, match=message):
        config_from_dict(SweepConfig, doc, "sweep config")


_JSON = hs.recursive(
    hs.none() | hs.booleans() | hs.integers() | hs.floats(allow_nan=False) | hs.text(),
    lambda inner: hs.lists(inner, max_size=4) | hs.dictionaries(hs.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(hs.dictionaries(hs.text(), _JSON, max_size=6))
def test_config_hash_is_hashlib_sha256(doc):
    expected = hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]
    assert config_hash(doc) == expected


_COMBINED = {"N": 3, "mu": 0.5, "p": 1.9, "q": 2.2, "a": 1, "b": 1}
_LADDER = {
    "base": {"params": _COMBINED, "eps": 2.4, "L": 21.0, "nr": 1050, "t_max": 20.0},
    "eps_list": [2.4, 1.2, 0.7],
    "refine": 1,
}
_MONITORED = {
    "params": _COMBINED, "eps": 1.2, "L": 21.0, "nr": 2100, "t_max": 20.0, "monitor_stride": 2,
}


def test_gated_configs_keep_their_directory_names():
    # the run directories of the benchmark's two seed-0 workloads
    ladder = dataclasses.asdict(config_from_dict(SweepConfig, _LADDER, "sweep config"))
    assert config_hash(ladder) == "fdb2f6a368650555"
    monitored = dataclasses.asdict(config_from_dict(SimConfig, _MONITORED, "run config"))
    assert config_hash(monitored) == "4bc45ee1e293b4ec"


def test_hashlib_fallback_gives_the_same_digests():
    # this interpreter has the built-in module; without it hashlib (OpenSSL) is taken
    import _sha256

    assert runio.sha256 is _sha256.sha256
    docs = [_LADDER, _MONITORED, {}, {"x": [1, 2.5, None, "é"]}]
    code = (
        "import json, sys\n"
        "sys.modules['_sha256'] = None\n"
        "from blowuplab import runio\n"
        "docs = json.loads(sys.argv[1])\n"
        "print(json.dumps([runio.config_hash(d) for d in docs]), '_hashlib' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(docs)],
        env=env, capture_output=True, text=True, check=True,
    )
    digests, hashlib_loaded = out.stdout.strip().rsplit(" ", 1)
    assert json.loads(digests) == [config_hash(d) for d in docs]
    assert hashlib_loaded == "True"
