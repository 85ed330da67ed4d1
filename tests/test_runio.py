"""monitors.csv: the monitor schema written and read back."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from blowuplab.errors import ConfigError
from blowuplab.exponents import ModelParams
from blowuplab.functionals import MONITOR_COLUMNS, MonitorSeries
from blowuplab.runio import CSV_COLUMNS, read_series_csv, write_series_csv

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
