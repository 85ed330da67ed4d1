from collections import Counter

import numpy as np
import pytest

import blowuplab.solver
import blowuplab.specfun
from blowuplab.exponents import lifespan_exponent
from blowuplab.functionals import MONITOR_COLUMNS, MonitorSeries
from blowuplab.solver import RunResult

# Not a test class despite the name.
blowuplab.specfun.TestFunctionContext.__test__ = False


@pytest.fixture
def fake_runs(monkeypatch):
    """Replace solver.run by an exact law T = 2 eps^-k; eps in `unstable` go NaN.

    Call the fixture with the set of unstable eps values; k is the model's
    theoretical exponent, so a sweep's power-law fit is exactly consistent.
    `finer` maps an eps to the outcome of its runs after the first, the
    finer grid levels of its row.
    """

    def install(unstable=(), finer=None):
        calls = Counter()

        def fake_run(cfg, monitor=True):
            empty = MonitorSeries(*[np.empty(0)] * len(MONITOR_COLUMNS))
            calls[cfg.eps] += 1
            if cfg.eps in unstable:
                return RunResult("unstable", None, "non-finite", empty, 1, cfg.eps)
            if finer and cfg.eps in finer and calls[cfg.eps] > 1:
                return RunResult(finer[cfg.eps], None, "fake", empty, 1, cfg.eps)
            t = 2.0 * cfg.eps ** -lifespan_exponent(cfg.params).exponent
            return RunResult("blowup", t, "fake", empty, 1, cfg.eps)

        monkeypatch.setattr(blowuplab.solver, "run", fake_run)

    return install
